//! Runs rounds as child processes, interleaves workloads, and reduces the
//! rounds of a workload to a median and quartiles per metric.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::clock::now_ns;
use crate::json::Json;
use crate::spec::{self, Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// Rounds of `run`, and the length of each round's timed window.
pub const RUN_ROUNDS: u32 = 8;
pub const RUN_SECS: f64 = 2.5;
/// `run --smoke`: one short round, to show the benchmark still works.
pub const SMOKE_SECS: f64 = 0.3;
/// Rounds one `bench` invocation splits its `--seconds` into.
pub const BENCH_ROUNDS: u32 = 8;

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn benchmark_json_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
}

/// Median and quartiles of a set of round values.
#[derive(Clone, Debug)]
pub struct Stat {
    pub values: Vec<f64>,
}

impl Stat {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        crate::trace::median(&mut self.values.clone())
    }

    /// First and third quartile, computed as Python's
    /// `statistics.quantiles(values, n=4)` computes them.
    pub fn quartiles(&self) -> (f64, f64) {
        let v = self.sorted();
        let m = v.len();
        if m < 2 {
            let only = v.first().copied().unwrap_or(0.0);
            return (only, only);
        }
        let q = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (q(1), q(3))
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        let med = self.median();
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        let (q1, q3) = self.quartiles();
        Json::obj([
            ("unit", Json::str(unit)),
            ("median", Json::Num(self.median())),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            (
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }
}

/// What one round child reported.
pub struct RoundOut {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub e2e: Vec<(String, f64)>,
    pub layer: Vec<(String, f64)>,
}

fn pairs(j: Option<&Json>) -> Vec<(String, f64)> {
    j.and_then(Json::as_obj)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Run this executable with `args`, wait for it (killing it if it outlives
/// `limit`), and return the JSON it printed after `tag`.
fn child_report(args: &[String], tag: &str, limit: Duration) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + limit;
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("`{}` did not finish in {limit:?}", args.join(" ")));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let printed = reader.join().map_err(|_| "stdout reader panicked")?;
    if !status.success() {
        return Err(format!("`{}` exited with {status}", args.join(" ")));
    }
    let line = printed
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(tag))
        .ok_or_else(|| format!("`{}` printed no `{tag}` line", args.join(" ")))?;
    Json::parse(line)
}

pub struct RoundSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    pub round: u32,
    pub secs: f64,
    pub traced: bool,
    pub extras: bool,
}

pub fn run_round(r: &RoundSpec) -> Result<RoundOut, String> {
    let mut args = vec![
        "round".to_string(),
        r.workload.name.to_string(),
        r.seed.to_string(),
        r.round.to_string(),
        "--secs".into(),
        r.secs.to_string(),
        "--spawned-at".into(),
        now_ns().to_string(),
    ];
    if r.traced {
        args.push("--trace".into());
    }
    if r.extras {
        args.push("--extras".into());
    }
    let limit = Duration::from_secs_f64(r.secs + 90.0);
    let j = child_report(&args, "ROUND ", limit)?;
    let count = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(RoundOut {
        attempted: count("attempted"),
        failed: count("failed"),
        notes: j
            .get("notes")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|n| n.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default(),
        e2e: pairs(j.get("e2e")),
        layer: pairs(j.get("layer")),
    })
}

pub fn run_probes(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let args = ["probes".to_string(), seed.to_string()];
    let j = child_report(&args, "PROBES ", Duration::from_secs(120))?;
    Ok(pairs(Some(&j)))
}

/// The rounds of one workload, reduced.
#[derive(Default)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub e2e: Vec<(String, Stat)>,
    pub layer: Vec<(String, Stat)>,
}

fn push(into: &mut Vec<(String, Stat)>, name: &str, v: f64) {
    match into.iter_mut().find(|(n, _)| n == name) {
        Some((_, s)) => s.values.push(v),
        None => into.push((name.to_string(), Stat { values: vec![v] })),
    }
}

impl Summary {
    pub fn absorb(&mut self, r: RoundOut) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.notes.extend(r.notes);
        for (k, v) in &r.e2e {
            push(&mut self.e2e, k, *v);
        }
        for (k, v) in &r.layer {
            push(&mut self.layer, k, *v);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }

    fn median_of(list: &[(String, Stat)], name: &str) -> Option<f64> {
        list.iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.median())
    }

    pub fn e2e_median(&self, name: &str) -> Option<f64> {
        Summary::median_of(&self.e2e, name)
    }

    pub fn layer_median(&self, name: &str) -> Option<f64> {
        Summary::median_of(&self.layer, name)
    }
}

/// The per-layer values of one workload: counts and tails from `untraced`
/// rounds, stage times from `traced` rounds, and the two ratios that need
/// more than one source. A metric that does not apply to the workload is
/// absent. The isolated probes do not depend on the workload: they are
/// included only `with_probes` (the `bench` result line wants every metric;
/// `run` reports them once, on their own).
pub fn per_layer_values(
    untraced: &Summary,
    traced: &Summary,
    probes: &[(String, f64)],
    with_probes: bool,
) -> Vec<(&'static str, f64)> {
    let probe = |name: &str| probes.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut out = Vec::new();
    for m in &PER_LAYER {
        let v = match m.name {
            "core.trace_overhead_ratio" => traced
                .e2e_median("lat_p50_us")
                .zip(untraced.e2e_median("lat_p50_us"))
                .map(|(t, u)| t / u),
            "lang.compiled_over_embedded" => traced
                .layer_median("lang.elem_ns")
                .zip(probe("paper.buffer_elem_ns"))
                .map(|(compiled, embedded)| compiled / embedded),
            name => untraced
                .layer_median(name)
                .or_else(|| traced.layer_median(name))
                .or_else(|| probe(name).filter(|_| with_probes)),
        };
        if let Some(v) = v {
            out.push((m.name, v));
        }
    }
    out
}

fn metric_obj(m: &Metric, v: f64) -> Json {
    Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))])
}

/// `bench --workload W --seed N --seconds S --trace 0|1`: one workload, the
/// way the acceptance driver runs it. The last line of standard output is
/// the result object.
pub fn bench(workload: &'static Workload, seed: u64, seconds: f64, trace: bool) -> bool {
    let secs = seconds / f64::from(BENCH_ROUNDS);
    let round = |round, traced, extras| {
        run_round(&RoundSpec {
            workload,
            seed,
            round,
            secs,
            traced,
            extras,
        })
    };
    let mut untraced = Summary::default();
    let mut traced = Summary::default();
    let mut problems = Vec::new();
    let mut take = |into: &mut Summary, r: Result<RoundOut, String>| match r {
        Ok(out) => into.absorb(out),
        Err(e) => problems.push(e),
    };

    let metrics: Vec<(String, Json)> = if trace {
        // One untraced round for the counts, tails and the overhead ratio's
        // base; two traced rounds for the stage times; the probes.
        take(&mut untraced, round(0, false, true));
        take(&mut traced, round(1, true, false));
        take(&mut traced, round(2, true, false));
        let probes = match run_probes(seed) {
            Ok(p) => p,
            Err(e) => {
                problems.push(e);
                Vec::new()
            }
        };
        let values = per_layer_values(&untraced, &traced, &probes, true);
        PER_LAYER
            .iter()
            .map(|m| {
                // The result line carries every per-layer metric; one that
                // does not apply to this workload reads 0 there (and is
                // absent from `run`'s result file).
                let v = values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name.to_string(), metric_obj(m, v))
            })
            .collect()
    } else {
        for i in 0..BENCH_ROUNDS {
            take(&mut untraced, round(i, false, i == 0));
        }
        END_TO_END
            .iter()
            .map(|m| {
                let v = untraced.e2e_median(m.name).unwrap_or(0.0);
                (m.name.to_string(), metric_obj(m, v))
            })
            .collect()
    };

    for note in untraced.notes.iter().chain(&traced.notes).chain(&problems) {
        eprintln!("{}: {note}", workload.name);
    }
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let correct = problems.is_empty() && untraced.correct() && traced.correct() && attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.to_line());
    correct
}

pub struct RunOpts {
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
}

fn stats_json(list: &[(String, Stat)], unit_of: impl Fn(&str) -> &'static str) -> Json {
    Json::Obj(
        list.iter()
            .map(|(name, s)| (name.clone(), s.to_json(unit_of(name))))
            .collect(),
    )
}

/// `run [--seed N] [--trace] [--smoke]`: every workload, rounds
/// interleaved (w1 w2 … w6, w1 w2 …) so that drift over minutes hits all
/// of them alike. Prints `workload metric value unit` lines and writes
/// `out/result-<seed>.json`. Returns whether every reply checked out.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let (rounds, secs) = if opts.smoke {
        (1, SMOKE_SECS)
    } else {
        (RUN_ROUNDS, RUN_SECS)
    };
    let mut summaries: Vec<Summary> = WORKLOADS.iter().map(|_| Summary::default()).collect();
    for round in 0..rounds {
        for (workload, summary) in WORKLOADS.iter().zip(&mut summaries) {
            eprintln!("round {}/{rounds}: {}", round + 1, workload.name);
            summary.absorb(run_round(&RoundSpec {
                workload,
                seed: opts.seed,
                round,
                secs,
                traced: false,
                extras: round == 0,
            })?);
        }
    }
    let mut traced: Vec<Summary> = WORKLOADS.iter().map(|_| Summary::default()).collect();
    let mut probes = Vec::new();
    if opts.trace {
        for (workload, summary) in WORKLOADS.iter().zip(&mut traced) {
            eprintln!("traced round: {}", workload.name);
            summary.absorb(run_round(&RoundSpec {
                workload,
                seed: opts.seed,
                round: rounds,
                secs,
                traced: true,
                extras: false,
            })?);
        }
        eprintln!("layer probes");
        probes = run_probes(opts.seed)?;
    }

    let unit = |name: &str| spec::metric(name).map_or("", |m| m.unit);
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for ((w, s), t) in WORKLOADS.iter().zip(&summaries).zip(&traced) {
        for (name, stat) in &s.e2e {
            println!("{} {name} {} {}", w.name, stat.median(), unit(name));
        }
        // Counts and tails keep every round's value; what only the traced
        // round or a ratio of sources provides is a single value.
        let mut layer = s.layer.clone();
        for (name, v) in per_layer_values(s, t, &probes, false) {
            if !layer.iter().any(|(n, _)| n == name) {
                layer.push((name.to_string(), Stat { values: vec![v] }));
            }
        }
        for (name, stat) in &layer {
            println!("{} {name} {} {}", w.name, stat.median(), unit(name));
        }
        for note in s.notes.iter().chain(&t.notes) {
            eprintln!("{}: {note}", w.name);
        }
        all_correct &= s.correct() && t.correct();
        let notes = s.notes.iter().chain(&t.notes);
        workloads_json.push((
            w.name.to_string(),
            Json::obj([
                ("attempted", Json::Num((s.attempted + t.attempted) as f64)),
                ("failed", Json::Num((s.failed + t.failed) as f64)),
                ("notes", Json::Arr(notes.map(Json::str).collect())),
                ("end_to_end", stats_json(&s.e2e, unit)),
                ("per_layer", stats_json(&layer, unit)),
            ]),
        ));
    }
    for (name, v) in &probes {
        println!("probes {name} {v} {}", unit(name));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("rounds", Json::Num(f64::from(rounds))),
        ("round_secs", Json::Num(secs)),
        ("smoke", Json::Bool(opts.smoke)),
        ("traced", Json::Bool(opts.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("pool_workers", Json::Num(spec::POOL_WORKERS as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads_json)),
        (
            "probes",
            Json::Obj(
                probes
                    .iter()
                    .map(|(n, v)| {
                        let unit = Json::str(unit(n));
                        (
                            n.clone(),
                            Json::obj([("unit", unit), ("value", Json::Num(*v))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("result-{}.json", opts.seed));
    std::fs::write(&path, result.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Stat {
            values: (1..=10).rev().map(f64::from).collect(),
        };
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let s = Stat {
            values: vec![10.0, 20.0, 40.0, 80.0, 160.0],
        };
        assert_eq!(s.quartiles(), (15.0, 120.0));
        assert!((s.spread() - 105.0 / 40.0).abs() < 1e-12);
    }
}
