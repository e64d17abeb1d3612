//! `alps-run` — execute an ALPS program.
//!
//! ```text
//! alps-run [--threaded] [--compiled] [--check-only] <file.alps>
//! ```
//!
//! Programs run on the deterministic simulator by default (virtual time,
//! reproducible scheduling, deadlock detection); `--threaded` uses OS
//! threads instead. Either way the checker resolves the program into one IR
//! (interned entry ids, flat frames) and that is what runs: by default
//! under the naive reference walker, with `--compiled` under the
//! optimised one. Both behave the same; on the topology of
//! `crates/benchmark/programs/buffer.alps` (two producers, two
//! consumers, a managed buffer of list messages) the optimised walker's
//! `main` takes 1.10–1.19× as long as the same objects written against
//! `alps-core` (DESIGN.md §8).

use std::process::ExitCode;
use std::sync::Arc;

use alps_lang::check::check;
use alps_lang::compile::run_compiled;
use alps_lang::interp::{run_checked, Output};
use alps_lang::parser::parse;
use alps_runtime::{Runtime, SimRuntime};

const USAGE: &str = "usage: alps-run [--threaded] [--compiled] [--check-only] <file.alps>";

fn main() -> ExitCode {
    let mut threaded = false;
    let mut compiled = false;
    let mut check_only = false;
    let mut file = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--threaded" => threaded = true,
            "--compiled" => compiled = true,
            "--check-only" => check_only = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
            other => file = Some(other.to_string()),
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{file}:{e}");
            return ExitCode::FAILURE;
        }
    };
    let checked = match check(program) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("{file}:{e}");
            return ExitCode::FAILURE;
        }
    };
    if check_only {
        println!("{file}: ok");
        return ExitCode::SUCCESS;
    }
    let run = move |rt: &Runtime| {
        if compiled {
            run_compiled(rt, &checked, Output::Stdout)
        } else {
            run_checked(rt, &checked, Output::Stdout)
        }
    };
    let result = if threaded {
        let rt = Runtime::threaded();
        let r = run(&rt);
        rt.shutdown();
        r
    } else {
        let sim = SimRuntime::new();
        match sim.run(move |rt| run(rt)) {
            Ok(inner) => inner,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{file}: {e}");
            ExitCode::FAILURE
        }
    }
}
