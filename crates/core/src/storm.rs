//! Fault-storm vocabulary: the perturbation kinds a chaos soak composes.
//!
//! A *storm* is a window of an execution during which one kind of
//! perturbation is active. The kinds mirror the paper's fault taxonomy:
//! [`StormKind::CorruptionBurst`] is a systemic failure (arbitrary state
//! corruption of every live process), everything else is a process
//! failure expressible inside the omission/crash/delay models the
//! simulators already enforce. The types here are pure data — the
//! synchronous simulator turns phases into an adversary
//! (`ftss_sync_sim::StormAdversary`), the asynchronous runner into
//! scheduled corruptions and delay windows, and `ftss-chaos` into a full
//! soak plan.

/// One kind of perturbation a storm window can fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StormKind {
    /// A systemic failure at the start of the window: every live
    /// process's state is replaced by a seeded arbitrary state.
    CorruptionBurst,
    /// Seeded random omissions against the victim set: each copy
    /// touching a victim is dropped with probability `percent / 100`
    /// (attributed to the victim side).
    OmissionStorm {
        /// Drop probability in percent (`0..=100`); an integer so storm
        /// plans stay `Eq`/hashable and serialize exactly.
        percent: u8,
    },
    /// The victims fall completely silent — every copy they would send
    /// *or* receive is omitted. This is the model-legal rendering of
    /// crash/recover churn: crashes are permanent in both simulators, so
    /// a "recovering" process is one that was totally partitioned by
    /// omissions and heals when the window closes.
    SilenceChurn,
    /// The victims are partitioned away from everyone else: cross-group
    /// copies drop in both directions (attributed to the victim side),
    /// intra-group traffic flows. The paper's de-stabilizing
    /// coterie-change event, on demand.
    Partition,
    /// Asynchronous runs only: every message touching a victim is
    /// stretched to the maximum admissible delay
    /// (`ftss_async_sim::AdversaryScheduler`). A no-op for the
    /// synchronous model, which has no delays.
    DelayInflation,
    /// Membership churn: the victims are *joining* the system. While the
    /// window is open they are absent (total silence, like
    /// [`StormKind::SilenceChurn`]); in the round after it closes they
    /// enter with a seeded arbitrary state — the paper's systemic failure
    /// localized to the joiner. In `ftss-serve`, a joiner performs the
    /// `hello` handshake mid-session.
    Join,
    /// Membership churn: the victims *leave* the system for the rest of
    /// the window — total silence, with no corruption on return (a clean
    /// leave keeps its state; only joins enter arbitrarily).
    Leave,
    /// Partial-synchrony fault: every delivered copy touching a victim is
    /// deferred by `rounds` rounds. The copy still arrives (nothing is
    /// dropped), just late — the round kernel hands it to a later
    /// round's inbox, on the simulator and on a served session alike.
    Delay {
        /// Rounds each affected copy is deferred by (at least 1).
        rounds: u8,
    },
    /// Partial-synchrony fault: each delivered copy touching a victim is
    /// deferred by one round with probability 1/2 (seeded draw per
    /// eligible copy), so messages from the same broadcast arrive across
    /// two rounds in shuffled order.
    Reorder,
    /// Partial-synchrony fault: every delivered copy touching a victim
    /// arrives twice — once on time, once echoed into the next round.
    Duplicate,
}

impl StormKind {
    /// The storm's stable name, used in soak reports and plan listings.
    pub fn name(&self) -> &'static str {
        match self {
            StormKind::CorruptionBurst => "corruption-burst",
            StormKind::OmissionStorm { .. } => "omission-storm",
            StormKind::SilenceChurn => "silence-churn",
            StormKind::Partition => "partition",
            StormKind::DelayInflation => "delay-inflation",
            StormKind::Join => "join",
            StormKind::Leave => "leave",
            StormKind::Delay { .. } => "delay",
            StormKind::Reorder => "reorder",
            StormKind::Duplicate => "duplicate",
        }
    }

    /// Whether this kind drops copies in the synchronous model (i.e.
    /// needs an adversary phase, not just a corruption schedule entry).
    pub fn drops_copies(&self) -> bool {
        matches!(
            self,
            StormKind::OmissionStorm { .. }
                | StormKind::SilenceChurn
                | StormKind::Partition
                | StormKind::Join
                | StormKind::Leave
        )
    }

    /// Whether this kind is a partial-synchrony timing fault: nothing is
    /// dropped, but delivery timing changes. The storm adversary renders
    /// timing kinds as late copies (`Adversary::delay_copy` in
    /// `ftss-sync-sim`), not as drops.
    pub fn is_timing(&self) -> bool {
        matches!(
            self,
            StormKind::Delay { .. } | StormKind::Reorder | StormKind::Duplicate
        )
    }
}

impl std::fmt::Display for StormKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A storm resolved onto a window of the run: rounds (synchronous) or
/// virtual-time instants (asynchronous), both ends inclusive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormPhase {
    /// First round/instant of the window.
    pub from: u64,
    /// Last round/instant of the window.
    pub to: u64,
    /// What the storm does while active.
    pub kind: StormKind,
}

impl StormPhase {
    /// A phase of `kind` active over `from..=to`.
    pub fn new(from: u64, to: u64, kind: StormKind) -> Self {
        StormPhase { from, to, kind }
    }

    /// Whether the phase is active at round/instant `at`.
    pub fn active(&self, at: u64) -> bool {
        (self.from..=self.to).contains(&at)
    }
}

/// The phase of `phases` active at round/instant `at`, found by binary
/// search — the one lookup the storm adversary makes per round.
///
/// `phases` must be a storm program as [`check_phases`] accepts it: each
/// window has `from <= to`, the windows are sorted by `from` and pairwise
/// disjoint. Then their ends are sorted too, at most one window contains
/// `at`, and this equals the linear `phases.iter().find(|ph|
/// ph.active(at))`.
pub fn phase_at(phases: &[StormPhase], at: u64) -> Option<&StormPhase> {
    let i = phases.partition_point(|ph| ph.to < at);
    phases.get(i).filter(|ph| ph.from <= at)
}

/// Checks that `phases` is a storm program [`phase_at`] can search: every
/// window has `from <= to` and starts after the previous one ends.
///
/// # Errors
///
/// Names the first inverted window, or the first pair of windows that are
/// out of order or overlap.
pub fn check_phases(phases: &[StormPhase]) -> Result<(), String> {
    if let Some((i, ph)) = phases.iter().enumerate().find(|(_, ph)| ph.from > ph.to) {
        return Err(format!(
            "storm phase {i} ends (at {}) before it starts (at {})",
            ph.to, ph.from
        ));
    }
    match phases.windows(2).position(|w| w[1].from <= w[0].to) {
        Some(i) => Err(format!(
            "storm phases {i} ({}..={}) and {} ({}..={}) are unsorted or overlap",
            phases[i].from,
            phases[i].to,
            i + 1,
            phases[i + 1].from,
            phases[i + 1].to
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_rng::check::{forall, Gen};
    use ftss_rng::Rng;

    /// A random well-formed program — sorted, disjoint windows, adjacent
    /// ones included, sometimes starting at round 0 — and the first round
    /// past its finite windows; a fifth of the programs end with a window
    /// reaching `u64::MAX`.
    fn program(g: &mut Gen) -> (Vec<StormPhase>, u64) {
        let mut phases = Vec::new();
        let mut next: u64 = if g.gen_bool(0.2) {
            0
        } else {
            g.gen_range(0..8)
        };
        for _ in 0..g.gen_range(0..=g.size() / 4) {
            let from = next + g.gen_range(0..3); // 0 = adjacent to the previous window
            let to = from + g.gen_range(0..4);
            phases.push(StormPhase::new(from, to, StormKind::SilenceChurn));
            next = to + 1;
        }
        if g.gen_bool(0.2) {
            phases.push(StormPhase::new(u64::MAX - 3, u64::MAX, StormKind::Reorder));
        }
        (phases, next)
    }

    #[test]
    fn phase_lookup_equals_the_linear_scan() {
        forall(256, |g: &mut Gen| {
            let (phases, next) = program(g);
            assert_eq!(check_phases(&phases), Ok(()));
            let tail = [u64::MAX - 4, u64::MAX - 3, u64::MAX, g.gen()];
            for at in (0..=next).chain(tail) {
                let linear = phases.iter().find(|ph| ph.active(at));
                assert_eq!(phase_at(&phases, at), linear, "at {at} in {phases:?}");
            }
        });
    }

    #[test]
    fn phase_lookup_on_edges() {
        assert_eq!(phase_at(&[], 0), None);
        assert_eq!(phase_at(&[], u64::MAX), None);
        let phases = [
            StormPhase::new(0, 0, StormKind::Partition),
            StormPhase::new(1, 4, StormKind::SilenceChurn),
            StormPhase::new(9, u64::MAX, StormKind::Duplicate),
        ];
        assert_eq!(phase_at(&phases, 0), Some(&phases[0]));
        assert_eq!(phase_at(&phases, 1), Some(&phases[1]));
        assert_eq!(phase_at(&phases, 4), Some(&phases[1]));
        assert_eq!(phase_at(&phases, 5), None);
        assert_eq!(phase_at(&phases, 8), None);
        assert_eq!(phase_at(&phases, u64::MAX), Some(&phases[2]));
    }

    #[test]
    fn check_phases_rejects_inverted_unsorted_and_overlapping() {
        let ph = |from, to| StormPhase::new(from, to, StormKind::Partition);
        assert!(check_phases(&[ph(3, 2)])
            .unwrap_err()
            .contains("before it starts"));
        assert!(check_phases(&[ph(5, 6), ph(1, 2)])
            .unwrap_err()
            .contains("unsorted or overlap"));
        assert!(check_phases(&[ph(1, 5), ph(5, 6)]).is_err());
        assert_eq!(check_phases(&[ph(1, 5), ph(6, 6)]), Ok(()));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StormKind::CorruptionBurst.name(), "corruption-burst");
        assert_eq!(
            StormKind::OmissionStorm { percent: 60 }.name(),
            "omission-storm"
        );
        assert_eq!(StormKind::SilenceChurn.to_string(), "silence-churn");
        assert_eq!(StormKind::Partition.name(), "partition");
        assert_eq!(StormKind::DelayInflation.name(), "delay-inflation");
    }

    #[test]
    fn drops_copies_classification() {
        assert!(!StormKind::CorruptionBurst.drops_copies());
        assert!(!StormKind::DelayInflation.drops_copies());
        assert!(StormKind::Partition.drops_copies());
        assert!(StormKind::SilenceChurn.drops_copies());
        assert!(StormKind::OmissionStorm { percent: 10 }.drops_copies());
        assert!(StormKind::Join.drops_copies());
        assert!(StormKind::Leave.drops_copies());
    }

    #[test]
    fn churn_names_are_stable() {
        assert_eq!(StormKind::Join.name(), "join");
        assert_eq!(StormKind::Leave.to_string(), "leave");
    }

    #[test]
    fn timing_names_are_stable() {
        assert_eq!(StormKind::Delay { rounds: 2 }.name(), "delay");
        assert_eq!(StormKind::Reorder.name(), "reorder");
        assert_eq!(StormKind::Duplicate.to_string(), "duplicate");
    }

    #[test]
    fn timing_kinds_never_drop_copies() {
        for kind in [
            StormKind::Delay { rounds: 1 },
            StormKind::Reorder,
            StormKind::Duplicate,
        ] {
            assert!(kind.is_timing());
            assert!(!kind.drops_copies());
        }
        assert!(!StormKind::Partition.is_timing());
        assert!(!StormKind::CorruptionBurst.is_timing());
        assert!(!StormKind::Join.is_timing());
    }

    #[test]
    fn phase_window_is_inclusive() {
        let ph = StormPhase::new(3, 5, StormKind::Partition);
        assert!(!ph.active(2));
        assert!(ph.active(3));
        assert!(ph.active(5));
        assert!(!ph.active(6));
    }
}
