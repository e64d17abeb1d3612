//! # alps-lang — the ALPS language
//!
//! A front end and two walkers for the ALPS notation of *"Synchronization
//! and Scheduling in ALPS Objects"* (ICDCS 1988): lexer, recursive-descent
//! parser, and a static checker ([`mod@check`]: definitions vs
//! implementations, hidden parameter/result derivation, intercepts
//! validation, types, manager-only statements) that, in the same walk,
//! resolves every name into one IR ([`ir`]). That IR is all that runs:
//! `parse → check → walk`. Objects map onto
//! [`alps_core`] and processes onto [`alps_runtime`] through one shared
//! linkage and statement walker, under either of two evaluation
//! strategies — the naive reference ([`interp`], [`run_checked`]) that
//! exists to check the other, and the optimised one ([`compile`],
//! [`run_compiled`]).
//!
//! The concrete grammar and its documented deviations from the paper's
//! informal notation are in `GRAMMAR.md` next to this crate.
//!
//! ```
//! use alps_lang::interp::{run_source, Output};
//! use alps_runtime::SimRuntime;
//!
//! let src = r#"
//!     object Greeter defines
//!       proc Greet(name: string) returns (string);
//!     end Greeter;
//!     object Greeter implements
//!       proc Greet(name: string) returns (string);
//!       begin return ("hello, " + name) end Greet;
//!       manager
//!         intercepts Greet;
//!         begin
//!           loop accept Greet => execute Greet end loop
//!         end;
//!     end Greeter;
//!     main var s: string; begin
//!       s := Greeter.Greet("world");
//!       print(s)
//!     end
//! "#;
//! let (out, buf) = Output::buffer();
//! let src = src.to_string();
//! let sim = SimRuntime::new();
//! sim.run(move |rt| run_source(rt, &src, out).unwrap()).unwrap();
//! assert_eq!(buf.lock().trim(), "hello, world");
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod check;
pub mod compile;
pub mod error;
mod exec;
pub mod interp;
pub mod ir;
mod last_use;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use check::{check, Checked};
pub use compile::{run_compiled, run_source_compiled, spawn_compiled, Compiled};
pub use error::LangError;
pub use interp::{run_checked, run_source, Output, RunError};
pub use parser::parse;
pub use pretty::pretty;

/// A copy of a checked program's IR, which [`check()`] already built. Kept
/// only because the benchmark's `lang.lower_us` probe
/// (`crates/benchmark/src/sut.rs`) names it.
pub fn lower(checked: &Checked) -> ir::CUnit {
    (*checked.unit).clone()
}
