//! # ftss-check — a model-checker-lite for the paper's theorems
//!
//! Testing with random seeds samples the schedule space; this crate
//! *covers* it. Three complementary strategies, all deterministic:
//!
//! 1. **Exhaustive enumeration** ([`dfs`]) — for small systems
//!    (`n ≤ 4`), every omission schedule of the synchronous model (a
//!    boolean tape driving [`ftss::sync_sim::TapeOmission`]) and every
//!    dispatch order of the asynchronous model (the explicit choice
//!    stack of [`ftss::async_sim::DfsScheduler`]), within a bounded
//!    event horizon.
//! 2. **Adversarial probing** ([`adversary`]) — for larger systems,
//!    hand-aimed worst cases: corruption bursts at coterie changes,
//!    omission adversaries degrading a quorum, crashes at iteration
//!    boundaries, and maximum-delay scheduling against the ◇S detector.
//! 3. **Property oracles** ([`oracle`]) — Theorems 3, 4 and 5 as plain
//!    functions over recorded runs, reusing the theory-layer checkers.
//! 4. **Graph exploration** ([`frontier`]) — the scale-up path: instead
//!    of enumerating the schedule *tree*, walk the reachable-state
//!    *graph* with fingerprinted dedup ([`fingerprint`]), symmetry
//!    reduction over process relabelings fixing the faulty process, and
//!    a deterministic parallel BFS frontier sharded via
//!    [`ftss_sweep::map_cells`]. Runs to a fixpoint, certifying Thm-3
//!    obligations over *unbounded* horizons at `n ≤ 6` — far past the
//!    `2^min(d,20)` wall of strategy 1.
//!
//! When an oracle rejects a schedule, [`shrink`] reduces it to a
//! 1-minimal counterexample and [`schedule`] writes it as a replayable
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
pub use dfs::{
    check_tape, check_tape_thm4, explore, explore_gossip_por, run_tape, AsyncDfsReport,
    Counterexample, DfsConfig, DfsReport, MAX_TAPE_BOUND,
};
pub use fingerprint::{Fingerprinter, NodeState, MAX_GRAPH_N};
pub use frontier::{explore_graph, GraphConfig, GraphCounterexample, GraphReport};
pub use largen::e9_table;
pub use oracle::{
    thm3_round_agreement, thm4_compiled, thm4_decided, thm5_detector, window_stabilization, Verdict,
};
pub use schedule::{ScheduleFile, ScheduleMode};
pub use shrink::{shrink, shrink_with};
