//! Regenerate the EXPERIMENTS.md tables: `experiments [e1..e9 | all]`.

use alps_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "all") {
        for r in experiments::all() {
            r.print();
        }
        return;
    }
    for a in &args {
        match experiments::by_id(a) {
            Some(r) => r.print(),
            None => {
                eprintln!("unknown experiment `{a}` (use e1..e9 or all)");
                std::process::exit(1);
            }
        }
    }
}
