//! The fault taxonomy of the paper.
//!
//! Two failure types interact in this model:
//!
//! * **Process failures** — a process *deviates from its protocol*: it
//!   crashes, omits to send, or omits to receive (the paper's "general
//!   omission" class). At most `f` processes may be faulty.
//! * **Systemic failures** (self-stabilization failures) — a process
//!   *commences execution in an arbitrary state*. Crucially, a process with
//!   a corrupted state that faithfully follows its protocol is **not**
//!   faulty; only deviation makes a process faulty.
//!
//! [`CrashSchedule`] fixes crash times; [`FaultKind`] labels an
//! individual deviation observed in a history.

use crate::id::{ProcessId, ProcessSet};
use crate::round::Round;
use std::collections::BTreeMap;
use std::fmt;

/// The kinds of process-failure deviation that can be observed in a round
/// history. These label *actions*, not processes: a faulty process is one
/// with at least one such action.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// The process halted and takes no further steps.
    Crash,
    /// The process failed to send a message its protocol required.
    SendOmission,
    /// The process failed to receive a message that was sent to it.
    ReceiveOmission,
    /// The process sent a payload other than the one its protocol
    /// prescribed — the message-forging (Byzantine) deviation. Strictly
    /// outside the paper's general-omission class; harnessed to map where
    /// the Theorem-2 solvability boundary breaks as the fault class grows.
    Forgery,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Crash => "crash",
            FaultKind::SendOmission => "send-omission",
            FaultKind::ReceiveOmission => "receive-omission",
            FaultKind::Forgery => "forgery",
        };
        f.write_str(s)
    }
}

/// Crash times for a set of processes: `p ↦ r` means `p` crashes **during**
/// round `r` (it may manage a subset of its round-`r` sends, takes no round-`r`
/// state transition, and takes no steps in later rounds).
///
/// # Example
///
/// ```
/// use ftss_core::{CrashSchedule, ProcessId, Round};
/// let mut cs = CrashSchedule::none();
/// cs.set(ProcessId(2), Round::new(3));
/// assert!(cs.is_crashed(ProcessId(2), Round::new(4)));
/// assert!(!cs.is_crashed(ProcessId(2), Round::new(2)));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CrashSchedule {
    crashes: BTreeMap<ProcessId, Round>,
}

impl CrashSchedule {
    /// A schedule with no crashes.
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    /// Schedules `p` to crash during round `r` (replacing any earlier entry).
    pub fn set(&mut self, p: ProcessId, r: Round) -> &mut Self {
        self.crashes.insert(p, r);
        self
    }

    /// The round in which `p` crashes, if any.
    pub fn crash_round(&self, p: ProcessId) -> Option<Round> {
        self.crashes.get(&p).copied()
    }

    /// Whether `p` has already crashed by the time round `r` *begins*
    /// (i.e. it crashed in some round `< r`).
    pub fn is_crashed(&self, p: ProcessId, r: Round) -> bool {
        self.crash_round(p).is_some_and(|cr| cr < r)
    }

    /// Whether `p` crashes exactly in round `r`.
    pub fn crashes_in(&self, p: ProcessId, r: Round) -> bool {
        self.crash_round(p) == Some(r)
    }

    /// The set of processes that crash at some point, over universe `n`.
    pub fn crashed_set(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.crashes.keys().copied())
    }

    /// Iterates `(process, crash round)` pairs in process order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, Round)> + '_ {
        self.crashes.iter().map(|(&p, &r)| (p, r))
    }

    /// Number of scheduled crashes.
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_schedule_semantics() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(1), Round::new(2));
        assert!(cs.crashes_in(ProcessId(1), Round::new(2)));
        assert!(!cs.is_crashed(ProcessId(1), Round::new(2)));
        assert!(cs.is_crashed(ProcessId(1), Round::new(3)));
        assert_eq!(cs.crash_round(ProcessId(0)), None);
        assert_eq!(cs.len(), 1);
        assert!(!cs.is_empty());
    }

    #[test]
    fn crashed_set_over_universe() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(0), Round::new(1))
            .set(ProcessId(3), Round::new(5));
        let s = cs.crashed_set(4);
        assert!(s.contains(ProcessId(0)));
        assert!(s.contains(ProcessId(3)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(FaultKind::SendOmission.to_string(), "send-omission");
    }

    #[test]
    fn schedule_iteration_ordered() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(5), Round::new(1))
            .set(ProcessId(2), Round::new(9));
        let v: Vec<_> = cs.iter().collect();
        assert_eq!(v[0].0, ProcessId(2));
        assert_eq!(v[1].0, ProcessId(5));
    }
}
