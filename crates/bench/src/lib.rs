//! # alps-bench — the experiment harness
//!
//! Regenerates every table of `EXPERIMENTS.md`:
//!
//! ```text
//! cargo run -p alps-bench --release --bin experiments          # all
//! cargo run -p alps-bench --release --bin experiments -- e3   # one
//! ```
//!
//! E1–E9 run in deterministic virtual time. Wall-clock measurement is not
//! this crate's job: that is `crates/benchmark` (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
