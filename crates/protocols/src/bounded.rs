//! Bounded-counter round agreement — the §2.4 impossibility, executable.
//!
//! The paper's compiler requires "the current round number is counted by
//! an **unbounded** variable. In the full paper, we show an impossibility
//! for a bounded counter analogous to the impossibility shown in
//! Theorem 2." This module makes the failure mode observable: a
//! round-agreement variant whose counter wraps modulo `M` cannot satisfy
//! Assumption 1 on windows long enough to contain a wrap — the *rate*
//! condition `c_p^{r+1} = c_p^r + 1` breaks at every wrap — and worse, a
//! systemic failure can place counters so that `max()` resolves the wrong
//! way, because wrap-around destroys the total order `max` relies on.

use ftss_core::{Corrupt, RoundCounter};
use ftss_rng::Rng;
use ftss_sync_sim::{Inbox, ProtocolCtx, SyncProtocol};

/// Round agreement with a counter bounded by `modulus` (wraps to 0).
#[derive(Clone, Copy, Debug)]
pub struct BoundedRoundAgreement {
    modulus: u64,
}

impl BoundedRoundAgreement {
    /// A bounded variant wrapping at `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn new(modulus: u64) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        BoundedRoundAgreement { modulus }
    }

    /// The wrap point.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }
}

/// State: the bounded counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundedState {
    /// Counter in `0..modulus`.
    pub c: u64,
}

impl Corrupt for BoundedState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.c = rng.gen();
    }
}

impl SyncProtocol for BoundedRoundAgreement {
    type State = BoundedState;
    type Msg = u64;
    const JOINS_INBOX: bool = true;

    fn name(&self) -> &str {
        "bounded-round-agreement"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> BoundedState {
        BoundedState { c: 1 }
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, state: &BoundedState) -> u64 {
        state.c % self.modulus
    }

    fn step(&self, ctx: &ProtocolCtx, state: &mut BoundedState, inbox: &Inbox<u64>) {
        let max = inbox.joined(self).unwrap_or(state.c);
        self.step_joined(ctx, state, &max);
    }

    /// `max` on values reduced mod `modulus`, so the join of arbitrary
    /// messages is associative.
    fn join(&self, acc: &mut u64, c: &u64) {
        *acc = (*acc % self.modulus).max(*c % self.modulus);
    }

    /// A one-message inbox arrives unreduced, hence the first `%`.
    fn step_joined(&self, _ctx: &ProtocolCtx, state: &mut BoundedState, max: &u64) {
        state.c = (*max % self.modulus + 1) % self.modulus;
    }

    fn round_counter(&self, state: &BoundedState) -> Option<RoundCounter> {
        Some(RoundCounter::new(state.c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{ftss_check, RateAgreementSpec};
    use ftss_sync_sim::{NoFaults, RunConfig, SyncRunner};

    #[test]
    fn wrap_breaks_the_rate_condition() {
        // Any window of at least `modulus` rounds contains a wrap, at
        // which the counter goes M-1 -> 0 instead of +1. With unbounded
        // counters (Fig 1) the same check passes (see round_agreement
        // tests); bounded counters cannot ftss-solve Assumption 1 for any
        // stabilization time once windows exceed the modulus.
        let m = 8;
        let out = SyncRunner::new(BoundedRoundAgreement::new(m))
            .run(&mut NoFaults, &RunConfig::clean(3, 2 * m as usize))
            .unwrap();
        let report = ftss_check(&out.history, &RateAgreementSpec::new(), 1);
        assert!(!report.is_satisfied(), "a wrap must violate rate");
        let v = &report.violations[0].violation;
        assert_eq!(v.rule, "rate");
    }

    #[test]
    fn agreement_still_reached_between_wraps() {
        // The wrap breaks rate, not agreement: between wraps the counters
        // do agree, which is why the impossibility is subtle (and why the
        // paper needs the analogue of Theorem 2's argument, not just this
        // observation).
        for seed in 0..10 {
            let m = 32;
            let out = SyncRunner::new(BoundedRoundAgreement::new(m))
                .run(&mut NoFaults, &RunConfig::corrupted(4, 10, seed))
                .unwrap();
            for r in 2..=10u64 {
                let cs: Vec<u64> = out
                    .history
                    .round(ftss_core::Round::new(r))
                    .records()
                    .map(|rec| rec.counter_at_start().unwrap().get())
                    .collect();
                assert!(
                    cs.iter().all(|&c| c == cs[0]),
                    "seed {seed} round {r}: {cs:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn tiny_modulus_rejected() {
        BoundedRoundAgreement::new(1);
    }

    #[test]
    fn corrupted_values_are_reduced_mod_m() {
        let m = 8;
        let out = SyncRunner::new(BoundedRoundAgreement::new(m))
            .run(&mut NoFaults, &RunConfig::corrupted(3, 3, 5))
            .unwrap();
        // From round 2 on, all counters are in range.
        for r in 2..=3u64 {
            for rec in out.history.round(ftss_core::Round::new(r)).records() {
                assert!(rec.counter_at_start().unwrap().get() < m);
            }
        }
    }
}
