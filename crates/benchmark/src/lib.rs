//! # alps-benchmark — the repository benchmark
//!
//! Six workloads, the same four end-to-end metrics on each, and a per-layer
//! budget, all measured from outside: only public functions of the
//! `alps-*` crates are called and timed. `BENCHMARK.json` at the
//! repository root names the command, the workloads, the metrics and their
//! bounds; `README.md` next to this crate says why each exists.
//!
//! The crate is split so that a change to the product's call surface edits
//! one file: [`sut`] is the only module that imports an `alps-*` crate.
//! Generators ([`gen`]), the histogram ([`hist`]), tracing ([`trace`]), the
//! round driver ([`round`]), the runner ([`runner`]) and reporting
//! ([`compare`]) see the product only through the traits in [`harness`].

pub mod alloc;
pub mod clock;
pub mod compare;
pub mod gen;
pub mod harness;
pub mod hist;
pub mod json;
pub mod probe;
pub mod round;
pub mod runner;
pub mod spec;
pub mod sut;
pub mod trace;
