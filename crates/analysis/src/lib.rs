//! # ftss-analysis — measurement and impossibility harnesses
//!
//! Experiment-side machinery shared by the experiment tables and the
//! integration tests:
//!
//! * [`stabilization`] — measures the *empirical* stabilization time of a
//!   run: the smallest `r` for which the Definition-2.4 obligation of the
//!   final coterie-stable window is satisfied. E1 and E2 sweep this
//!   against the paper's claimed bounds (1 for Figure 1; `final_round`
//!   (+`final_round` for suspects) for Figure 3).
//! * [`trace`] — derived telemetry: coterie-change and stabilization
//!   events extracted from a recorded history, plus the metrics table
//!   behind `ftss stats`.
//! * [`impossibility`] — executable renditions of the paper's two negative
//!   results. Theorem 1: under the rejected *Tentative Definition 1*,
//!   every protocol either violates agreement forever or violates the rate
//!   condition at the communication merge — exhibited on three protocol
//!   archetypes. Theorem 2: a *uniform* protocol (one that halts rather
//!   than let a faulty process disagree) kills a correct process in an
//!   indistinguishable run.
//! * [`table`] — fixed-width table rendering for the experiment tables
//!   `ftss-lab sweep` prints and `EXPERIMENTS.md` records.

pub mod impossibility;
pub mod stabilization;
pub mod table;
pub mod trace;

pub use impossibility::{
    theorem1_demo, theorem2_demo, Archetype, EagerHalt, HaltOnDisagreement, Theorem1Outcome,
    Theorem2Outcome,
};
pub use stabilization::{measured_stabilization_time, StabilizationMeasurement};
pub use table::Table;
pub use trace::{coterie_events, metrics_table, stabilization_event};
