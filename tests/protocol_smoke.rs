//! Tier-1 reach for the call-intake path: the root `cargo test -q` never
//! runs the crate-level interleaving sweeps, so this drives the two
//! intake scenarios (a solo caller joined by a rival; a restart sweep
//! with both in flight) under the schedule explorer — 8 seeds for each of
//! the four strategies — on every PR. The scenario bodies and their
//! assertions are shared with `crates/core/tests/interleaving_sweep.rs`.
//!
//! A failure prints a minimized `SIM_TRACE=` recipe; replay it with
//! `SIM_TRACE='…' cargo test --test protocol_smoke`.

use alps_runtime::explore::{sweep_explore_seeds, STRATEGY_MATRIX};

#[path = "../crates/core/tests/common/intake_scenarios.rs"]
mod intake_scenarios;

const SEEDS: u64 = 8 * STRATEGY_MATRIX.len() as u64;

#[test]
fn solo_caller_joined_by_a_rival_keeps_every_call() {
    sweep_explore_seeds(
        "solo-joined-by-rival",
        SEEDS,
        intake_scenarios::solo_joined_by_rival,
    );
}

#[test]
fn restart_sweep_fails_ring_held_cells_of_solo_and_rival() {
    sweep_explore_seeds(
        "restart-sweeps-solo-and-rival",
        SEEDS,
        intake_scenarios::restart_sweeps_solo_and_rival,
    );
}
