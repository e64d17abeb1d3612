//! The benchmark still runs, says what `BENCHMARK.json` says it says, and
//! its histogram resolves what it claims to resolve.

use std::path::Path;
use std::process::Command;

use alps_benchmark::gen::Rng;
use alps_benchmark::hist::Hist;
use alps_benchmark::json::Json;
use alps_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|x| {
            x.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `BENCHMARK.json` and `spec.rs` list the same workloads and metrics, with
/// the same units and directions, under well-formed names.
#[test]
fn benchmark_json_matches_the_spec_tables() {
    let b = read_json(&repo_root().join("BENCHMARK.json"));
    let spec_workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(b.get("workloads").unwrap()), spec_workloads);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = b.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), table.len(), "{key}: count");
        for (j, m) in listed.iter().zip(table) {
            let field = |f: &str| j.get(f).and_then(Json::as_str).unwrap_or_default();
            assert_eq!(field("name"), m.name, "{key}: name");
            assert_eq!(field("unit"), m.unit, "{key}: unit of {}", m.name);
            assert_eq!(
                field("better"),
                m.better.as_str(),
                "{key}: direction of {}",
                m.name
            );
            assert!(well_formed(m.name), "{} is not a well-formed name", m.name);
        }
    }
    let bounds = alps_benchmark::compare::bounds(&b);
    assert_eq!(bounds.len(), END_TO_END.len());
    assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    assert!(bounds.iter().any(|(n, _)| n == "setup_s"));
}

/// `run --smoke` (one 0.3 s round per workload) completes, every reply
/// checks out, and it emits exactly the listed workloads and end-to-end
/// metrics — and no per-layer name that is not listed.
#[test]
fn smoke_run_emits_exactly_the_listed_names() {
    const SEED: &str = "4242";
    let out = Command::new(env!("CARGO_BIN_EXE_alps-benchmark"))
        .args(["run", "--smoke", "--seed", SEED])
        .output()
        .expect("run the benchmark binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run --smoke failed:\n{stderr}");

    // Printed form: `workload metric value unit`.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut printed_e2e = Vec::new();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 4, "malformed line `{line}`");
        let (workload, metric, value, unit) = (f[0], f[1], f[2], f[3]);
        // Isolated probes (`run --trace` only) are printed once, as `probes`.
        let known = WORKLOADS.iter().any(|w| w.name == workload) || workload == "probes";
        assert!(known, "{line}");
        assert!(well_formed(metric), "{line}");
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        let listed = alps_benchmark::spec::metric(metric)
            .unwrap_or_else(|| panic!("`{metric}` is not in BENCHMARK.json"));
        assert_eq!(listed.unit, unit, "{line}");
        if END_TO_END.iter().any(|m| m.name == metric) {
            printed_e2e.push((workload, metric));
        }
    }
    let expected: Vec<_> = WORKLOADS
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| (w.name, m.name)))
        .collect();
    assert_eq!(printed_e2e, expected);

    // Result file: same names, every end-to-end value non-zero.
    let result =
        read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/result-{SEED}.json")));
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let workloads = result.get("workloads").and_then(Json::as_obj).unwrap();
    let listed: Vec<_> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(listed, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    for (name, w) in workloads {
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
        let e2e = w.get("end_to_end").and_then(Json::as_obj).unwrap();
        let keys: Vec<_> = e2e.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (metric, stat) in e2e {
            let median = stat.get("median").and_then(Json::as_f64).unwrap();
            assert!(median > 0.0, "{name} {metric} is {median}");
        }
        // Network metrics belong to the remote workload alone.
        let layer = w.get("per_layer").and_then(Json::as_obj).unwrap();
        let has_net = layer.iter().any(|(k, _)| k.starts_with("net."));
        assert_eq!(has_net, name == "remote_call", "{name}");
    }
}

/// Percentiles of the log-linear histogram stay within 1 % of a sorted
/// vector's, on seeded data spanning five orders of magnitude.
#[test]
fn histogram_percentiles_are_within_one_percent_of_a_sorted_vector() {
    let mut rng = Rng::new(7);
    let mut hist = Hist::new();
    let mut values: Vec<u64> = (0..200_000)
        .map(|_| {
            // Log-uniform over 100 ns … 10 ms, plus a heavy tail.
            let exp = 2.0 + 5.0 * rng.next_f64();
            let v = 10f64.powf(exp) as u64;
            if rng.next_f64() < 0.001 {
                v * 50
            } else {
                v
            }
        })
        .collect();
    for &v in &values {
        hist.record(v);
    }
    values.sort_unstable();
    for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 99.99] {
        let rank = ((p / 100.0 * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1] as f64;
        let got = hist.percentile(p).expect("non-empty");
        let err = (got - exact).abs() / exact;
        assert!(
            err <= 0.01,
            "p{p}: histogram {got} vs exact {exact} ({err:.4})"
        );
    }
    assert_eq!(hist.count(), values.len() as u64);
}
