//! # ftss-detectors — failure detectors for the asynchronous results (§3)
//!
//! The paper's asynchronous consensus rests on Chandra–Toueg failure
//! detectors. This crate provides:
//!
//! * [`weak`] — an **Eventually Weak** (◇W) detector *oracle* with exactly
//!   the two properties the paper assumes: *weak completeness* (eventually
//!   every faulty process is suspected by at least one correct process) and
//!   *eventual weak accuracy* (eventually some correct process is never
//!   suspected by any correct process). Before its convergence time it
//!   suspects arbitrarily (seeded noise), as ◇-detectors may.
//! * [`strong`] — **Figure 4**: the paper's self-stabilizing ◇W → ◇S
//!   transformation. Counter-versioned life/death gossip; requires **no
//!   initialization whatsoever** (Theorem 5) — it converges from arbitrary
//!   `num[]`/`state[]` contents.
//! * [`ct_baseline`] — a natural but **non-stabilizing** variant that
//!   gossips an entry only when it changed (a standard optimization that
//!   implicitly assumes initialized state). Used by experiment E5 to show
//!   what the paper's unconditional re-broadcast buys.
//! * [`properties`] — checkers for strong/weak completeness and eventual
//!   weak accuracy over probed suspect-set timelines.
//!
//! The counters are `u64`; the paper requires unbounded counters, so the
//! corruption model keeps injected values below `u64::MAX / 2` — any
//! *finite* corrupted value is eventually exceeded, which is the property
//! the proofs use (see `DESIGN.md`).

pub mod ct_baseline;
pub mod properties;
pub mod strong;
pub mod weak;

pub use ct_baseline::BaselineDetectorProcess;
pub use properties::{
    eventual_weak_accuracy, strong_completeness_time, suspicion_events, weak_completeness_time,
    SuspectProbe, Suspector,
};
pub use strong::{poison_tables, LifeState, StrongDetectorProcess};
pub use weak::WeakOracle;
