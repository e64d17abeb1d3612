//! `alps-benchmark compare <a.json> <b.json>`: is `b` worse than `a`?
//!
//! Per workload and end-to-end metric: both medians and quartiles, the
//! ratio with its base, and a verdict. `worse` means `b`'s median is worse
//! than `a`'s by more than the metric's bound in `BENCHMARK.json` (and by
//! more than its absolute noise floor). Where either side's own
//! quartile spread is wider than the bound the pair cannot be told apart
//! at that bound, and the verdict is `unresolved` — unless every value of
//! one side beats every value of the other.

use std::path::Path;

use crate::json::Json;
use crate::runner::Stat;
use crate::spec::{Better, END_TO_END, WORKLOADS};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(metric name, bound)` for every end-to-end metric of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Json) -> Vec<(String, f64)> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

fn stat_of(result: &Json, workload: &str, metric: &str) -> Option<Stat> {
    let values = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    Some(Stat {
        values: values.iter().filter_map(Json::as_f64).collect(),
    })
}

/// Judge `b` against `a` for a metric with the given direction, relative
/// `bound` and absolute `floor`.
pub fn judge(a: &Stat, b: &Stat, better: Better, bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (a.median(), b.median());
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let beyond = worse_by > bound * ma.abs() && worse_by > floor;
    // Every value of one side on the same side of every value of the other.
    let separated = {
        let min = |s: &Stat| s.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |s: &Stat| s.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max(a) < min(b) || max(b) < min(a)
    };
    let blurred = (a.spread() > bound || b.spread() > bound)
        && (a.spread() * ma.abs()).max(b.spread() * mb.abs()) > floor;
    if blurred && !separated {
        Verdict::Unresolved
    } else if beyond {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `Ok(true)` if no metric came out `worse`.
pub fn compare(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let bounds = bounds(&read_json(benchmark_json)?);
    let mut none_worse = true;
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "a.q1", "a.median", "a.q3", "b.q1", "b.median", "b.q3", "b/a"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (stat_of(&a, w.name, m.name), stat_of(&b, w.name, m.name))
            else {
                return Err(format!(
                    "{} {} is missing from a result file",
                    w.name, m.name
                ));
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let verdict = judge(&sa, &sb, m.better, bound, m.floor);
            none_worse &= verdict != Verdict::Worse;
            let ((a1, a3), (b1, b3)) = (sa.quartiles(), sb.quartiles());
            println!(
                "{:<12} {:<14} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>8.3}  {}",
                w.name,
                m.name,
                a1,
                sa.median(),
                a3,
                b1,
                sb.median(),
                b3,
                sb.median() / sa.median(),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for (label, r) in [("a", &a), ("b", &b)] {
        for w in &WORKLOADS {
            let failed = r
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|x| x.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if failed > 0.0 {
                println!("{label}: {} failed {failed} operations", w.name);
                none_worse = false;
            }
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(values: &[f64]) -> Stat {
        Stat {
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts() {
        let base = stat(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = stat(&[100.2, 100.9, 99.1, 100.4, 99.7]);
        let slower = stat(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let noisy = stat(&[80.0, 150.0, 100.0, 125.0, 90.0]);
        assert_eq!(judge(&base, &same, Better::Lower, 0.1, 0.0), Verdict::Ok);
        assert_eq!(
            judge(&base, &slower, Better::Lower, 0.1, 0.0),
            Verdict::Worse
        );
        // For a higher-is-better metric the same pair is an improvement.
        assert_eq!(judge(&base, &slower, Better::Higher, 0.1, 0.0), Verdict::Ok);
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        // Under the absolute floor nothing is a regression.
        assert_eq!(judge(&base, &slower, Better::Lower, 0.1, 25.0), Verdict::Ok);
    }
}
