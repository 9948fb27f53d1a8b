//! Self-stabilizing Byzantine agreement, à la Daliot–Dolev.
//!
//! Daliot & Dolev (*Self-Stabilizing Byzantine Agreement*) showed that
//! agreement can be made simultaneously tolerant to Byzantine process
//! failures **and** transient (systemic) failures by anchoring the
//! protocol on a self-stabilizing synchronization core and re-running an
//! agreement session forever. [`SsByzantine`] is this repository's
//! harness-scale rendition of that principle, built from the two pieces
//! the repo already reproduces:
//!
//! * **Trimmed counter synchronization** — Figure 1's `max + 1` rule is
//!   defenseless against forged counters (a single traitor forging
//!   different huge values to different destinations keeps correct
//!   counters apart forever). Here each process instead adopts the
//!   `(f + 1)`-th largest received counter plus one: the top `f` slots
//!   are exactly the ones forgery can occupy, so with full delivery from
//!   correct senders every correct process lands on the maximum *correct*
//!   counter, and counters agree from the next round on — the Theorem-3
//!   stabilization-time-1 behaviour, now forgery-trimmed.
//! * **Perpetual phase-king voting** — positions inside the synchronized
//!   counter (`c mod 2(f + 1)`) drive an endlessly repeating phase-king
//!   session (`f + 1` phases of pairing round + king round, requiring
//!   `n > 4f`) over the process's current binary value. One complete
//!   session after the counters synchronize, all correct processes hold
//!   one common value; from then on every pairing round re-certifies it
//!   with multiplicity `≥ n − f > n/2 + f`, so no king (honest or
//!   forged) can dislodge it.
//!
//! Stabilization bound: 1 round of counter sync plus at most two
//! sessions (the current partial one and one complete one) —
//! [`SsByzantine::stabilization_bound`] returns `1 + 4(f + 1)`.
//!
//! The convergence argument assumes traitors *deliver* their (possibly
//! forged) copies; a traitor combining forgery with selective omission
//! can split the trimmed maxima of different correct processes. That gap
//! is not patched here — it is a measured object: experiment E10 maps
//! where re-stabilization within the bound empirically fails as the
//! fault class grows past the paper's general-omission model (the
//! Theorem-2 boundary).

use crate::problems::HasDecision;
use ftss_core::{Corrupt, HistorySlice, Problem, ProcessId, ProcessSet, RoundCounter, Violation};
use ftss_rng::{Rng, SplitMix64};
use ftss_sync_sim::{Inbox, ProtocolCtx, SyncProtocol};

/// Self-stabilizing Byzantine agreement (perpetual, non-terminating).
///
/// Requires `n > 4f`. The existing [`crate::PhaseKing`] is the
/// non-stabilizing baseline: same voting rule, but a terminating
/// single-shot protocol whose round variable is ordinary corruptible
/// state.
///
/// # Example
///
/// ```
/// use ftss_protocols::SsByzantine;
/// use ftss_sync_sim::{ByzantineAdversary, RunConfig, SyncRunner};
/// use ftss_core::ProcessId;
///
/// let pi = SsByzantine::new(1);
/// let mut adv = ByzantineAdversary::new([ProcessId(0)], 0.8, 7);
/// let out = SyncRunner::new(pi)
///     .run(&mut adv, &RunConfig::corrupted(5, 20, 0xbeef).with_max_faulty(1))
///     .expect("valid config");
/// assert_eq!(out.history.len(), 20);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsByzantine {
    f: usize,
}

/// Per-process state: the synchronized counter plus the phase-king
/// voting registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsByzantineState {
    /// The synchronized round counter (the distinguished `c_p`).
    pub c: RoundCounter,
    /// The process's current agreement value.
    pub v: bool,
    /// Majority value of the last pairing round.
    pub maj: bool,
    /// Multiplicity of `maj` in the last pairing round.
    pub cnt: usize,
}

impl Corrupt for SsByzantineState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.c.corrupt(rng);
        self.v.corrupt(rng);
        self.maj.corrupt(rng);
        self.cnt = rng.gen_range(0..64);
    }
}

/// The round broadcast: the counter and the current value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsByzantineMsg {
    /// Sender's round counter.
    pub c: u64,
    /// Sender's current value.
    pub v: bool,
}

impl SsByzantine {
    /// An instance tolerating `f` Byzantine processes (`n > 4f` at run
    /// time).
    pub fn new(f: usize) -> Self {
        SsByzantine { f }
    }

    /// The fault bound `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Rounds per voting session: `2(f + 1)`.
    pub fn session_len(&self) -> u64 {
        2 * (self.f as u64 + 1)
    }

    /// The stabilization bound measured against: one round of counter
    /// synchronization plus at most two sessions of voting,
    /// `1 + 4(f + 1)`.
    pub fn stabilization_bound(&self) -> usize {
        1 + 2 * self.session_len() as usize
    }

    /// The king of session position `pos` (even positions pair, odd
    /// positions crown king `pos / 2` — rotating over the first `f + 1`
    /// processes).
    pub fn king_of(&self, pos: u64, n: usize) -> ProcessId {
        ProcessId(((pos / 2) % n as u64) as usize)
    }

    /// The `(f + 1)`-th largest of the received counters (own counter as
    /// fallback): the largest value forgery cannot have manufactured.
    fn trimmed_max(&self, own: u64, inbox: &Inbox<SsByzantineMsg>) -> u64 {
        let mut counters: Vec<u64> = inbox.iter().map(|(_, m)| m.c).collect();
        if counters.is_empty() {
            return own;
        }
        counters.sort_unstable_by(|a, b| b.cmp(a)); // descending
        counters
            .get(self.f)
            .copied()
            .unwrap_or(*counters.last().expect("non-empty"))
    }
}

impl SyncProtocol for SsByzantine {
    type State = SsByzantineState;
    type Msg = SsByzantineMsg;

    fn name(&self) -> &str {
        "ss-byzantine (Daliot-Dolev style)"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> SsByzantineState {
        SsByzantineState {
            c: RoundCounter::INITIAL,
            v: false,
            maj: false,
            cnt: 0,
        }
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, state: &SsByzantineState) -> SsByzantineMsg {
        SsByzantineMsg {
            c: state.c.get(),
            v: state.v,
        }
    }

    fn step(&self, ctx: &ProtocolCtx, state: &mut SsByzantineState, inbox: &Inbox<SsByzantineMsg>) {
        let n = ctx.n;
        // Synchronize: the largest counter forgery cannot have planted.
        let m = self.trimmed_max(state.c.get(), inbox);
        state.c = RoundCounter::new(m).next();
        // Vote at the agreed session position.
        let pos = m % self.session_len();
        if pos.is_multiple_of(2) {
            // Pairing round: tally values.
            let trues = inbox.iter().filter(|(_, m)| m.v).count();
            let falses = inbox.len() - trues;
            state.maj = trues > falses;
            state.cnt = if state.maj { trues } else { falses };
        } else {
            // King round: keep the majority if sure, else follow the king.
            let king = self.king_of(pos, n);
            if state.cnt > n / 2 + self.f {
                state.v = state.maj;
            } else if let Some(msg) = inbox.from(king) {
                state.v = msg.v;
            }
            // A silent king leaves the value unchanged.
        }
    }

    fn round_counter(&self, state: &SsByzantineState) -> Option<RoundCounter> {
        Some(state.c)
    }

    /// Forged copy: an arbitrary counter and value, decorrelated from the
    /// raw seed so the counter spans the full `u64` range.
    fn forge_message(&self, seed: u64) -> Option<SsByzantineMsg> {
        let mut sm = SplitMix64::new(seed);
        Some(SsByzantineMsg {
            c: sm.next_u64(),
            v: sm.next_u64() & 1 == 1,
        })
    }
}

impl HasDecision for SsByzantineState {
    type Value = bool;

    /// The perpetual protocol "decides" its current value every round;
    /// tag 0 makes [`crate::RepeatedConsensusSpec`]'s tagged agreement
    /// into plain value agreement.
    fn decision(&self) -> Option<(u64, bool)> {
        Some((0, self.v))
    }
}

/// Value-agreement specification for the perpetual protocol: over the
/// checked interval, every correct process's value `v` equals one common
/// value — agreement per round *and* constancy across rounds (once
/// stabilized, nothing may dislodge the agreed value).
#[derive(Clone, Copy, Debug, Default)]
pub struct ValueAgreementSpec;

impl ValueAgreementSpec {
    /// The spec.
    pub fn new() -> Self {
        ValueAgreementSpec
    }
}

impl<M> Problem<SsByzantineState, M> for ValueAgreementSpec {
    fn name(&self) -> &str {
        "byzantine-value-agreement"
    }

    fn check(
        &self,
        h: HistorySlice<'_, SsByzantineState, M>,
        faulty: &ProcessSet,
    ) -> Result<(), Violation> {
        let mut agreed: Option<(ProcessId, bool)> = None;
        for i in 0..h.len() {
            let rh = h.round(i);
            for j in 0..h.n() {
                let p = ProcessId(j);
                if faulty.contains(p) {
                    continue;
                }
                let Some(state) = rh.record(p).state_at_start() else {
                    continue;
                };
                match &agreed {
                    None => agreed = Some((p, state.v)),
                    Some((q, w)) if *w != state.v => {
                        return Err(Violation::new(
                            "value-agreement",
                            format!("{q} holds {w} but {p} holds {} ", state.v),
                        )
                        .at_round(i)
                        .with_processes([*q, p]));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{ftss_check, RateAgreementSpec, Round};
    use ftss_sync_sim::{ByzantineAdversary, NoFaults, RunConfig, SyncRunner};

    fn values_at(
        out: &ftss_sync_sim::RunOutcome<SsByzantineState, SsByzantineMsg>,
        r: u64,
    ) -> Vec<(u64, bool)> {
        out.history
            .round(Round::new(r))
            .records()
            .map(|rec| {
                let s = rec.state_at_start().unwrap();
                (s.c.get(), s.v)
            })
            .collect()
    }

    #[test]
    fn corrupted_start_synchronizes_and_agrees_failure_free() {
        let pi = SsByzantine::new(1);
        let bound = pi.stabilization_bound() as u64;
        for seed in 0..10u64 {
            let out = SyncRunner::new(pi)
                .run(&mut NoFaults, &RunConfig::corrupted(5, 25, seed))
                .unwrap();
            // After the bound, counters and values are in lockstep.
            for r in (bound + 1)..=25 {
                let vs = values_at(&out, r);
                assert!(
                    vs.iter().all(|x| *x == vs[0]),
                    "seed {seed} round {r}: {vs:?}"
                );
            }
            // And they advance at rate +1.
            let a = values_at(&out, bound + 1)[0].0;
            let b = values_at(&out, bound + 2)[0].0;
            assert_eq!(b, a + 1);
        }
    }

    #[test]
    fn byzantine_forgery_tolerated_when_n_exceeds_4f() {
        // n = 5, f = 1: one traitor forging 80% of its copies. Correct
        // processes must re-stabilize within the bound and stay agreed.
        let pi = SsByzantine::new(1);
        let bound = pi.stabilization_bound() as u64;
        for seed in 0..10u64 {
            let mut adv = ByzantineAdversary::new([ftss_core::ProcessId(0)], 0.8, seed);
            let out = SyncRunner::new(pi)
                .run(
                    &mut adv,
                    &RunConfig::corrupted(5, 30, seed ^ 0x5a5a).with_max_faulty(1),
                )
                .unwrap();
            let faulty = out.history.faulty();
            for r in (bound + 1)..=30 {
                let vs: Vec<_> = values_at(&out, r)
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !faulty.contains(ftss_core::ProcessId(*i)))
                    .map(|(_, x)| x)
                    .collect();
                assert!(
                    vs.iter().all(|x| *x == vs[0]),
                    "seed {seed} round {r}: correct disagree: {vs:?}"
                );
            }
        }
    }

    #[test]
    fn thm3_oracle_passes_under_byzantine_faults() {
        // The synchronized counter satisfies the Theorem-3 obligations
        // (agreement + rate) with the protocol's stabilization bound, even
        // against a forging traitor.
        let pi = SsByzantine::new(1);
        for seed in [3u64, 11, 29] {
            let mut adv = ByzantineAdversary::new([ftss_core::ProcessId(4)], 0.6, seed);
            let out = SyncRunner::new(pi)
                .run(
                    &mut adv,
                    &RunConfig::corrupted(5, 30, seed).with_max_faulty(1),
                )
                .unwrap();
            let report = ftss_check(
                &out.history,
                &RateAgreementSpec::new(),
                pi.stabilization_bound(),
            );
            assert!(report.is_satisfied(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn value_agreement_spec_flags_disagreement() {
        use ftss_core::{History, RoundHistory};
        let mk = |v0: bool, v1: bool| {
            let mut rh = RoundHistory::<SsByzantineState, SsByzantineMsg>::empty(2);
            for (i, v) in [v0, v1].into_iter().enumerate() {
                let state = SsByzantineState {
                    c: RoundCounter::INITIAL,
                    v,
                    maj: v,
                    cnt: 0,
                };
                let counter = Some(RoundCounter::INITIAL);
                rh.set_process(ProcessId(i), Some(state), counter, false, false);
            }
            rh
        };
        let mut good = History::new(2);
        good.push(mk(true, true));
        let spec = ValueAgreementSpec::new();
        assert!(spec.check(good.as_slice(), &ProcessSet::empty(2)).is_ok());

        let mut bad = History::new(2);
        bad.push(mk(true, false));
        let err = spec
            .check(bad.as_slice(), &ProcessSet::empty(2))
            .unwrap_err();
        assert_eq!(err.rule, "value-agreement");
        // Exempting the deviant process clears it.
        let faulty = ProcessSet::from_iter_n(2, [ProcessId(1)]);
        assert!(spec.check(bad.as_slice(), &faulty).is_ok());
    }

    #[test]
    fn trimmed_max_discards_forged_top() {
        use ftss_core::{Envelope, Round};
        let pi = SsByzantine::new(1);
        let msgs: Vec<Envelope<SsByzantineMsg>> = [(0usize, 7u64), (1, u64::MAX), (2, 9)]
            .into_iter()
            .map(|(p, c)| Envelope::new(ProcessId(p), Round::FIRST, SsByzantineMsg { c, v: false }))
            .collect();
        let inbox = Inbox::new(msgs);
        // Largest (u64::MAX, possibly forged) is trimmed; the 2nd largest
        // (9) survives.
        assert_eq!(pi.trimmed_max(0, &inbox), 9);
        // Empty inbox falls back to the process's own counter.
        let empty: Inbox<SsByzantineMsg> = Inbox::new(vec![]);
        assert_eq!(pi.trimmed_max(42, &empty), 42);
    }

    #[test]
    fn king_rotation_is_total() {
        let pi = SsByzantine::new(2);
        // Odd positions crown kings pos/2 = 0, 1, 2 over a session of 6.
        assert_eq!(pi.king_of(1, 9), ProcessId(0));
        assert_eq!(pi.king_of(3, 9), ProcessId(1));
        assert_eq!(pi.king_of(5, 9), ProcessId(2));
        // And wraps modulo n for corrupted positions.
        assert_eq!(pi.king_of(21, 9), ProcessId(1));
    }
}
