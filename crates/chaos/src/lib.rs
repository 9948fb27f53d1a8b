//! # ftss-chaos — the chaos soak engine
//!
//! Long-horizon repeated-Σ⁺ executions through both simulators while a
//! composable **fault-storm plan** fires epochs of perturbation:
//! mid-run corruption bursts, omission storms, crash/recover silence
//! churn, partition-and-heal windows and asynchronous delay inflation —
//! and, under the `restart` plan, partial-synchrony timing storms plus
//! crash–restart kills with damaged-snapshot respawns rendered through
//! the `ftss-serve` socket runtime itself.
//! After *every* storm epoch the engine verifies recovery by re-running
//! the property oracles — Theorem 3's one-round stabilization, Theorem
//! 4's `2·final_round + 2` bound and Theorem 5's detector settlement —
//! measured from the end of the storm (Definition 2.4 piece-wise
//! stability, applied per epoch via
//! [`ftss_check::window_stabilization`]). A round-driven storm run is one
//! [`StormScenario`] value and one driver, [`StormScenario::drive`], over
//! the simulator or a served session; one [`EpochJudge`] rides it
//! in-stream, so no run holds more than one epoch of history.
//!
//! Runtime guardrails keep a soak honest:
//!
//! * **budgets** — per-cell round, event and wall-clock ceilings
//!   ([`SoakBudget`]); an overrun becomes a structured
//!   [`SoakVerdict::TimedOut`], never a hang,
//! * **watchdog** — [`with_watchdog`] converts a wedged cell into a
//!   verdict while the rest of the campaign completes,
//! * **livelock detection** — [`QuiescenceMonitor`] rejects epochs whose
//!   recovery tail never goes quiet even though the oracle is satisfied,
//! * **panic isolation** — campaigns fan out over
//!   [`ftss_sweep::try_map_cells`], so one poisoned cell yields
//!   [`SoakVerdict::Panicked`] instead of aborting the soak.
//!
//! Every run is a pure function of `(plan, epochs, seed)`: the JSONL
//! soak report contains no wall-clock values and is byte-identical
//! across reruns and across worker counts. See DESIGN.md §11.

pub mod engine;
pub mod guard;
pub mod plan;
pub mod verdict;

pub use engine::{run_soak, SoakConfig, SoakOutcome};
pub use guard::{with_watchdog, QuiescenceMonitor, SoakBudget, WatchdogOutcome};
pub use plan::{
    burst_seed, join_seed, restart_cycle, storm_cycle, storm_program_for, SoakCell, SoakPlan,
    SoakScenario, StormGeometry, StormScenario,
};
pub use verdict::{CellReport, ChurnStamps, EpochJudge, EpochVerdict, SoakVerdict};
