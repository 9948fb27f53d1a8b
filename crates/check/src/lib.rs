//! # ftss-check — a model-checker-lite for the paper's theorems
//!
//! Testing with random seeds samples the schedule space; this crate
//! *covers* it. Three complementary strategies, all deterministic:
//!
//! 1. **Graph exploration** ([`frontier`]) — the one synchronous
//!    checker: walk the reachable-state *graph* of round agreement from
//!    a corrupted start with fingerprinted dedup ([`fingerprint`]),
//!    symmetry reduction over process relabelings fixing the faulty
//!    process, and a deterministic parallel BFS frontier sharded via
//!    [`ftss_sweep::map_cells`]. With a round bound it covers every
//!    omission schedule of that horizon; without one it runs to a
//!    fixpoint, certifying the Theorem-3 obligations over *unbounded*
//!    horizons at `n ≤ 6`.
//! 2. **Adversarial probing** ([`adversary`]) — for larger systems,
//!    hand-aimed worst cases: corruption bursts at coterie changes,
//!    omission adversaries degrading a quorum, crashes at iteration
//!    boundaries, and maximum-delay scheduling against the ◇S detector.
//! 3. **Property oracles** ([`oracle`]) — Theorems 3, 4 and 5 as plain
//!    functions over recorded runs, reusing the theory-layer checkers.
//!
//! When the graph finds a violating edge, it rebuilds the search path as
//! a concrete omission tape ([`dfs::run_tape`]), [`shrink`] reduces it to
//! a 1-minimal counterexample and [`schedule`] writes it as a replayable
//! file: re-running it (`ftss-lab check --replay`) reproduces the
//! violation — and its telemetry trace — byte for byte, because every
//! run in this workspace is a pure function of its configuration.

pub mod adversary;
pub mod boundary;
pub mod dfs;
pub mod fingerprint;
pub mod frontier;
pub mod largen;
pub mod oracle;
pub mod runbuild;
pub mod schedule;
pub mod shrink;

pub use adversary::{all_pass, run_battery, BatteryConfig, BatteryRow};
pub use boundary::{e10_table, E10_SEEDS};
pub use dfs::{check_tape, check_tape_thm4, run_tape, Counterexample, DfsConfig};
pub use fingerprint::{Fingerprinter, NodeState, MAX_GRAPH_N};
pub use frontier::{explore_graph, GraphConfig, GraphCounterexample, GraphReport};
pub use largen::e9_table;
pub use oracle::{
    thm3_round_agreement, thm4_compiled, thm4_decided, thm5_detector, window_stabilization, Verdict,
};
pub use schedule::{ScheduleFile, ScheduleMode};
pub use shrink::shrink_with;
