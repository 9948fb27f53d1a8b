//! The scheduler seam: who picks message delays.
//!
//! In the paper's asynchronous model the only failures are crashes and
//! the only nondeterminism is how long a message takes. So a
//! [`Scheduler`] makes exactly one choice: the delay of each send.
//! [`AsyncRunner`](crate::AsyncRunner) asks for it once per send, in send
//! order, and queues the delivery at `now + delay`; the order in which
//! queued events dispatch is then fixed, `(time, seq)`, by the runner's
//! one event queue.
//!
//! Two implementations cover the repo's needs:
//!
//! * [`RandomScheduler`] — the historical behaviour, bit for bit: a seeded
//!   uniform delay per send. Every entry point uses it by default.
//! * [`AdversaryScheduler`] — a worst-case delay assigner for systems too
//!   large to enumerate: every message touching a target set is slowed to
//!   the maximum admissible delay while the rest of the system sprints.
//!
//! Fairness note: every delay is finite, so every sent message is
//! eventually dispatched, preserving the no-message-loss guarantee the
//! ◇-properties rely on.

use crate::runner::{AsyncConfig, Time};
use ftss_core::ProcessId;
use ftss_rng::Rng;
use ftss_rng::StdRng;

/// The runner's source of message delays.
pub trait Scheduler {
    /// The delay to assign to a message sent `from → to` at time `now`.
    /// Must be at least 1 (no zero-delay delivery loops); the runner
    /// clamps a 0 to 1, so a copy never lands in the instant it was sent
    /// in.
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, from: ProcessId, to: ProcessId) -> Time;
}

/// The admissible maximum delay at `now` under `cfg` (pre- vs post-GST).
fn max_delay_at(cfg: &AsyncConfig, now: Time) -> Time {
    if now >= cfg.gst {
        cfg.max_delay
    } else {
        cfg.pre_gst_max_delay
    }
}

/// The historical seeded-random scheduler: uniform delays in
/// `min_delay..=max` drawn from a [`StdRng`] seeded with `cfg.seed`.
///
/// This reproduces the pre-seam `AsyncRunner` behaviour exactly — same RNG
/// stream, same draw order (one draw per send, none per timer) — so seeds,
/// recorded traces, and EXPERIMENTS.md rows are unchanged.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// A scheduler seeded from `cfg.seed`.
    pub fn for_config(cfg: &AsyncConfig) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, _from: ProcessId, _to: ProcessId) -> Time {
        let max = max_delay_at(cfg, now);
        self.rng.gen_range(cfg.min_delay..=max).max(1)
    }
}

/// Worst-case delays against a target set, for systems too large to
/// enumerate: every message sent *by or to* a target process is assigned
/// the maximum admissible delay at its send time, every other message the
/// minimum — fully deterministic, no randomness at all.
///
/// Slowing a coterie's members to the admissible maximum while the rest of
/// the system sprints is the async analogue of the sync model's
/// quorum-targeting omission adversary: it maximizes the window in which
/// targets look crashed to a heartbeat detector without violating the
/// fairness (eventual delivery) the model guarantees.
#[derive(Debug)]
pub struct AdversaryScheduler {
    targets: Vec<ProcessId>,
    window: (Time, Time),
}

impl AdversaryScheduler {
    /// An adversary slowing every message that touches `targets`, over the
    /// whole run.
    pub fn new(targets: impl IntoIterator<Item = ProcessId>) -> Self {
        AdversaryScheduler {
            targets: targets.into_iter().collect(),
            window: (0, Time::MAX),
        }
    }

    /// Restricts the inflation to messages *sent* while virtual time is in
    /// `from..=to` — a delay-inflation storm window. Outside the window the
    /// adversary assigns minimum delays like everyone else, so the system
    /// sprints again once the storm passes. The default window is the whole
    /// run, which is the original behaviour.
    #[must_use]
    pub fn with_window(mut self, from: Time, to: Time) -> Self {
        self.window = (from, to);
        self
    }

    fn targeted(&self, p: ProcessId) -> bool {
        self.targets.contains(&p)
    }
}

impl Scheduler for AdversaryScheduler {
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, from: ProcessId, to: ProcessId) -> Time {
        let storming = (self.window.0..=self.window.1).contains(&now);
        if storming && (self.targeted(from) || self.targeted(to)) {
            max_delay_at(cfg, now).max(1)
        } else {
            cfg.min_delay.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_delay_is_within_bounds_and_positive() {
        let mut cfg = AsyncConfig::tame(7);
        cfg.min_delay = 0; // degenerate config: delays still end up >= 1
        let mut s = RandomScheduler::for_config(&cfg);
        for _ in 0..100 {
            let d = s.delay(&cfg, 0, ProcessId(0), ProcessId(1));
            assert!((1..=cfg.max_delay).contains(&d));
        }
    }

    #[test]
    fn adversary_stretches_only_target_traffic() {
        let cfg = AsyncConfig::tame(0); // delays 1..=10
        let mut s = AdversaryScheduler::new([ProcessId(1)]);
        assert_eq!(s.delay(&cfg, 0, ProcessId(0), ProcessId(1)), 10);
        assert_eq!(s.delay(&cfg, 0, ProcessId(1), ProcessId(0)), 10);
        assert_eq!(s.delay(&cfg, 0, ProcessId(0), ProcessId(2)), 1);
    }

    #[test]
    fn adversary_window_bounds_the_inflation() {
        let cfg = AsyncConfig::tame(0); // delays 1..=10
        let mut s = AdversaryScheduler::new([ProcessId(1)]).with_window(100, 200);
        assert_eq!(s.delay(&cfg, 99, ProcessId(0), ProcessId(1)), 1);
        assert_eq!(s.delay(&cfg, 100, ProcessId(0), ProcessId(1)), 10);
        assert_eq!(s.delay(&cfg, 200, ProcessId(1), ProcessId(0)), 10);
        assert_eq!(s.delay(&cfg, 201, ProcessId(0), ProcessId(1)), 1);
        // Non-target traffic sprints even inside the window.
        assert_eq!(s.delay(&cfg, 150, ProcessId(0), ProcessId(2)), 1);
    }
}
