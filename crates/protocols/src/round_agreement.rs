//! Figure 1: the round-agreement protocol.
//!
//! ```text
//! At the start of round r:   p sends (ROUND: p, c_p^r) to all
//! At the end of round r:     R := { c | p received (ROUND: q, c) }
//!                            c_p^{r+1} := max(R) + 1
//! ```
//!
//! Theorem 3: this is an ftss protocol with **stabilization time 1**: in
//! any interval in which the coterie is unchanged, from the second round of
//! the interval on, all correct processes agree on the current round number
//! and increment it by one per round (Assumption 1).
//!
//! The protocol needs no initialization whatsoever — any counter values
//! work — which is what makes it tolerant of systemic failures.

use ftss_core::{Corrupt, RoundCounter};
use ftss_rng::Rng;
use ftss_sync_sim::{Inbox, ProtocolCtx, SyncProtocol};

/// The round-agreement protocol of Figure 1.
///
/// # Example
///
/// ```
/// use ftss_protocols::RoundAgreement;
/// use ftss_sync_sim::{NoFaults, RunConfig, SyncRunner};
/// use ftss_core::{ftss_check, RateAgreementSpec};
///
/// // Start from an arbitrarily corrupted global state; with no process
/// // failures the coterie is full from round 1, so Assumption 1 must hold
/// // from round 2 on (stabilization time 1).
/// let out = SyncRunner::new(RoundAgreement)
///     .run(&mut NoFaults, &RunConfig::corrupted(4, 10, 0xfeed))
///     .expect("valid config");
/// let report = ftss_check(&out.history, &RateAgreementSpec::new(), 1);
/// assert!(report.is_satisfied(), "{report}");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundAgreement;

/// The state of Figure 1: just the distinguished round variable `c_p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundAgreementState {
    /// The process's current round number `c_p`.
    pub c: RoundCounter,
}

impl Corrupt for RoundAgreementState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.c.corrupt(rng);
    }
}

impl SyncProtocol for RoundAgreement {
    type State = RoundAgreementState;
    type Msg = u64;
    const JOINS_INBOX: bool = true;

    fn name(&self) -> &str {
        "round-agreement (Fig 1)"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> RoundAgreementState {
        RoundAgreementState {
            c: RoundCounter::INITIAL,
        }
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, state: &RoundAgreementState) -> u64 {
        state.c.get()
    }

    fn step(&self, ctx: &ProtocolCtx, state: &mut RoundAgreementState, inbox: &Inbox<u64>) {
        // R always contains the process's own broadcast (footnote 1), so
        // max over an alive process's inbox is well-defined; the fallback
        // covers the theoretical empty case without panicking.
        let max = inbox.joined(self).unwrap_or_else(|| state.c.get());
        self.step_joined(ctx, state, &max);
    }

    /// `max` of two counters: the only way Figure 1 reads `R`.
    fn join(&self, acc: &mut u64, c: &u64) {
        *acc = (*acc).max(*c);
    }

    fn step_joined(&self, _ctx: &ProtocolCtx, state: &mut RoundAgreementState, max: &u64) {
        state.c = RoundCounter::new(*max).next();
    }

    fn round_counter(&self, state: &RoundAgreementState) -> Option<RoundCounter> {
        Some(state.c)
    }

    /// Forged counter: an arbitrary `u64`. Figure 1's `max + 1` rule has
    /// no defense against it — a single traitor forging different huge
    /// counters to different destinations keeps correct counters apart
    /// forever, which is exactly the Theorem-2 boundary experiment E10
    /// measures.
    fn forge_message(&self, seed: u64) -> Option<u64> {
        Some(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{
        ftss_check, ftss_check_suffix, CoterieTimeline, ProcessId, ProcessSet, RateAgreementSpec,
        Round,
    };
    use ftss_sync_sim::{NoFaults, RandomOmission, RunConfig, SilentProcess, SyncRunner};

    fn counters_at(out: &ftss_sync_sim::RunOutcome<RoundAgreementState, u64>, r: u64) -> Vec<u64> {
        out.history
            .round(Round::new(r))
            .records()
            .map(|rec| rec.counter_at_start().unwrap().get())
            .collect()
    }

    #[test]
    fn clean_start_counts_in_lockstep() {
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &RunConfig::clean(3, 5))
            .unwrap();
        for r in 1..=5 {
            assert_eq!(counters_at(&out, r), vec![r; 3]);
        }
    }

    #[test]
    fn corrupted_start_converges_in_one_round() {
        for seed in 0..20 {
            let out = SyncRunner::new(RoundAgreement)
                .run(&mut NoFaults, &RunConfig::corrupted(5, 6, seed))
                .unwrap();
            // Round 2 onward: all equal (stabilization time 1).
            let c2 = counters_at(&out, 2);
            assert!(c2.iter().all(|&c| c == c2[0]), "seed {seed}: {c2:?}");
            // And the common value is max(initial) + 1.
            let c1 = counters_at(&out, 1);
            assert_eq!(c2[0], c1.iter().max().unwrap() + 1);
            // Rate from then on.
            let c3 = counters_at(&out, 3);
            assert_eq!(c3[0], c2[0] + 1);
        }
    }

    #[test]
    fn ftss_check_passes_with_stabilization_time_one() {
        for seed in [1u64, 7, 42] {
            let out = SyncRunner::new(RoundAgreement)
                .run(&mut NoFaults, &RunConfig::corrupted(4, 12, seed))
                .unwrap();
            let report = ftss_check(&out.history, &RateAgreementSpec::new(), 1);
            assert!(report.is_satisfied(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn stabilization_time_zero_fails_from_corruption() {
        // With stabilization time 0 the obligation covers the very first
        // round of the stable window, where corrupted counters disagree —
        // demonstrating the stabilization time of Figure 1 is exactly 1,
        // not 0.
        let mut failed = false;
        for seed in 0..10 {
            let out = SyncRunner::new(RoundAgreement)
                .run(&mut NoFaults, &RunConfig::corrupted(4, 6, seed))
                .unwrap();
            if !ftss_check(&out.history, &RateAgreementSpec::new(), 0).is_satisfied() {
                failed = true;
            }
        }
        assert!(
            failed,
            "some corrupted start must violate round-1 agreement"
        );
    }

    #[test]
    fn tolerates_continual_omission_failures() {
        // One faulty process with heavy random omissions; the correct
        // processes exchange messages every round, so they are in each
        // other's coterie from round 1 and must satisfy Assumption 1 on the
        // stable window's suffix.
        for seed in 0..10 {
            let mut adv = RandomOmission::new([ProcessId(0)], 0.7, seed);
            let out = SyncRunner::new(RoundAgreement)
                .run(&mut adv, &RunConfig::corrupted(4, 15, seed ^ 0xabc))
                .unwrap();
            let spec = RateAgreementSpec::new();
            match ftss_check_suffix(&out.history, &spec, 1) {
                Ok(_) => {}
                Err(v) => panic!("seed {seed}: {v}"),
            }
        }
    }

    #[test]
    fn theorem3_witness_faulty_process_enters_coterie_when_revealing() {
        // p0 stays silent for 3 rounds with a huge corrupted counter, then
        // reveals. Its first message perturbs the correct processes' rounds
        // — but by then p0 has entered the coterie, which is exactly the
        // de-stabilizing event Definition 2.4 forgives.
        let n = 3;
        let mut adv = SilentProcess::new(ProcessId(0), 3);
        // Hand-corrupt: run clean but give p0 a big head start by seeding
        // corruption; easier: use corruption seed that we inspect.
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut adv, &RunConfig::corrupted(n, 10, 3))
            .unwrap();
        let tl = CoterieTimeline::compute(&out.history);
        // While p0 is silent it cannot be in the coterie unless its initial
        // state already reached someone (it cannot — it never sent).
        for k in 1..=3 {
            assert!(
                !tl.at_prefix(k).contains(ProcessId(0)),
                "silent p0 must not be in coterie at prefix {k}"
            );
        }
        // After revealing in round 4, p0's broadcast reaches all correct
        // processes, so it joins the coterie.
        assert!(tl.at_prefix(4).contains(ProcessId(0)));
        // And agreement among correct processes holds on each stable
        // window's suffix (piece-wise stability).
        let report = ftss_check(&out.history, &RateAgreementSpec::new(), 1);
        assert!(report.is_satisfied(), "{report}");
    }

    #[test]
    fn correct_processes_agree_even_while_faulty_is_silent() {
        // During the silent prefix the coterie is {p1, p2} (stable), so
        // Assumption 1 must hold among correct processes there too.
        let mut adv = SilentProcess::new(ProcessId(0), 5);
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut adv, &RunConfig::corrupted(3, 5, 9))
            .unwrap();
        let faulty = ProcessSet::from_iter_n(3, [ProcessId(0)]);
        for r in 2..=5u64 {
            let cs = counters_at(&out, r);
            assert_eq!(cs[1], cs[2], "round {r}: correct disagree: {cs:?}");
            let _ = &faulty;
        }
    }

    #[test]
    fn counter_saturates_rather_than_wrapping() {
        // A corrupted counter at u64::MAX must not wrap to a small value —
        // that would simulate a bounded counter, which the paper excludes.
        use ftss_sync_sim::ScriptedOmission;
        let mut adv = ScriptedOmission::new();
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut adv, &RunConfig::corrupted(2, 3, 0))
            .unwrap();
        // Whatever the corruption, counters never decrease over rounds.
        for r in 1..3u64 {
            let a = counters_at(&out, r);
            let b = counters_at(&out, r + 1);
            for i in 0..2 {
                assert!(b[i] >= a[i], "counter decreased: {a:?} -> {b:?}");
            }
        }
    }
}
