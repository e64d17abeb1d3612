//! `alps-benchmark` — see `crates/benchmark/README.md`.
//!
//! ```text
//! alps-benchmark bench --workload W --seed N --seconds S --trace 0|1
//! alps-benchmark run [--seed N] [--trace] [--smoke]
//! alps-benchmark compare <a.json> <b.json>
//! alps-benchmark round <workload> <seed> <i> --secs S …   (internal)
//! alps-benchmark probes <seed>                              (internal)
//! alps-benchmark serve [--trace-every N]                    (internal)
//! ```

use std::path::Path;
use std::process::ExitCode;

use alps_benchmark::alloc::CountingAlloc;
use alps_benchmark::json::Json;
use alps_benchmark::round::{self, RoundArgs};
use alps_benchmark::runner::{self, RunOpts};
use alps_benchmark::{compare, spec, sut};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  alps-benchmark bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  alps-benchmark run [--seed <n>] [--trace] [--smoke]
  alps-benchmark compare <a.json> <b.json>";

/// The value following `flag` in `args`, parsed.
fn value_of<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("`{flag}` needs a value")),
    }
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    value_of(args, flag)?.ok_or_else(|| format!("missing `{flag}`\n{USAGE}"))
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn workload_named(name: &str) -> Result<&'static spec::Workload, String> {
    spec::workload(name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn positional<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("missing or malformed <{what}>\n{USAGE}"))
}

/// `Ok(true)` when everything ran and every reply checked out.
fn dispatch(args: &[String]) -> Result<bool, String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("bench") => {
            let workload = workload_named(&required::<String>(rest, "--workload")?)?;
            let seconds: f64 = required(rest, "--seconds")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} is out of range"));
            }
            let trace = match required::<u8>(rest, "--trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            Ok(runner::bench(
                workload,
                required(rest, "--seed")?,
                seconds,
                trace,
            ))
        }
        Some("run") => runner::run(&RunOpts {
            seed: value_of(rest, "--seed")?.unwrap_or(1),
            trace: has(rest, "--trace"),
            smoke: has(rest, "--smoke"),
        }),
        Some("compare") => compare::compare(
            Path::new(&positional::<String>(rest, 0, "a.json")?),
            Path::new(&positional::<String>(rest, 1, "b.json")?),
            &runner::benchmark_json_path(),
        ),
        Some("round") => {
            let report = round::run(&RoundArgs {
                workload: workload_named(&positional::<String>(rest, 0, "workload")?)?,
                seed: positional(rest, 1, "seed")?,
                round: positional(rest, 2, "round")?,
                secs: required(rest, "--secs")?,
                traced: has(rest, "--trace"),
                extras: has(rest, "--extras"),
                spawned_at_ns: value_of(rest, "--spawned-at")?.unwrap_or(u64::MAX),
                out_dir: runner::out_dir(),
            })?;
            println!("ROUND {}", report.to_line());
            Ok(true)
        }
        Some("probes") => {
            let values = sut::run_probes(positional(rest, 0, "seed")?)?;
            let report = Json::obj(values.into_iter().map(|(k, v)| (k, Json::Num(v))));
            println!("PROBES {}", report.to_line());
            Ok(true)
        }
        Some("serve") => sut::serve(value_of(rest, "--trace-every")?).map(|()| true),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("alps-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
