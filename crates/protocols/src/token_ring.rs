//! Dijkstra's K-state token ring — the original self-stabilizing protocol
//! (\[Dij74\], cited in the paper's §1.2 as the origin of the concept).
//!
//! Included as a *contrast* to the paper's contribution: this protocol
//! `ss-solves` mutual exclusion (Definition 2.2 — systemic failures only,
//! no process failures), whereas the paper's protocols tolerate both
//! failure types. Running it under the same harness shows what the
//! classical notion does and does not give you: it stabilizes from any
//! state, but a single crashed process halts token circulation forever —
//! the scenario that motivates unifying the two failure models.
//!
//! Adaptation to the synchronous broadcast model: process `i` inspects its
//! ring predecessor's counter from the round's broadcasts. Process 0 is
//! the distinguished "bottom" machine: it increments (mod `K`) when its
//! value equals its predecessor's; every other process copies its
//! predecessor's value when they differ. A process "holds the token" when
//! its step is enabled. With `K > n`, exactly one token eventually
//! circulates regardless of the initial state.

use ftss_core::Corrupt;
use ftss_rng::Rng;
use ftss_sync_sim::{Inbox, ProtocolCtx, SyncProtocol};

/// Dijkstra's K-state mutual-exclusion ring.
///
/// # Example
///
/// ```
/// use ftss_protocols::TokenRing;
/// let ring = TokenRing::new(5); // K = n + 1 = 6
/// assert_eq!(ring.k(), 6);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TokenRing {
    k: u64,
}

impl TokenRing {
    /// A ring for `n` processes with the minimal sufficient `K = n + 1`.
    pub fn new(n: usize) -> Self {
        TokenRing { k: n as u64 + 1 }
    }

    /// The counter modulus `K`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Whether process `me` holds the token, given its own and its
    /// predecessor's counter values.
    pub fn has_token(&self, me: usize, own: u64, pred: u64) -> bool {
        if me == 0 {
            own == pred
        } else {
            own != pred
        }
    }
}

/// Token-ring state: the K-state counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenRingState {
    /// The machine's counter value in `0..K`.
    pub value: u64,
}

impl Corrupt for TokenRingState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Arbitrary value; the protocol itself reduces mod K on use, as a
        // corrupted register could hold anything.
        self.value = rng.gen();
    }
}

impl SyncProtocol for TokenRing {
    type State = TokenRingState;
    type Msg = u64;

    fn name(&self) -> &str {
        "dijkstra-token-ring"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> TokenRingState {
        TokenRingState { value: 0 }
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, state: &TokenRingState) -> u64 {
        state.value % self.k
    }

    fn step(&self, ctx: &ProtocolCtx, state: &mut TokenRingState, inbox: &Inbox<u64>) {
        let me = ctx.me.index();
        let pred = ftss_core::ProcessId((me + ctx.n - 1) % ctx.n);
        let own = state.value % self.k;
        let Some(&pred_val) = inbox.from(pred) else {
            return; // predecessor silent (crashed): freeze — the classical
                    // protocol has no answer to process failures.
        };
        if me == 0 {
            if own == pred_val {
                state.value = (own + 1) % self.k;
            } else {
                state.value = own;
            }
        } else if own != pred_val {
            state.value = pred_val;
        } else {
            state.value = own;
        }
    }
}

/// Counts token holders in a configuration of ring counters.
pub fn token_holders(ring: &TokenRing, values: &[u64]) -> usize {
    let n = values.len();
    (0..n)
        .filter(|&i| {
            let pred = values[(i + n - 1) % n] % ring.k();
            ring.has_token(i, values[i] % ring.k(), pred)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{CrashSchedule, ProcessId, Round};
    use ftss_sync_sim::{CrashOnly, NoFaults, RunConfig, SyncRunner};

    fn values_at(out: &ftss_sync_sim::RunOutcome<TokenRingState, u64>, r: u64) -> Vec<u64> {
        out.history
            .round(Round::new(r))
            .records()
            .map(|rec| rec.state_at_start().unwrap().value)
            .collect()
    }

    #[test]
    fn clean_start_has_exactly_one_token_always() {
        let n = 5;
        let ring = TokenRing::new(n);
        let out = SyncRunner::new(ring)
            .run(&mut NoFaults, &RunConfig::clean(n, 20))
            .unwrap();
        for r in 1..=20u64 {
            assert_eq!(token_holders(&ring, &values_at(&out, r)), 1, "round {r}");
        }
    }

    #[test]
    fn token_circulates() {
        // Every process holds the token infinitely often (fairness of
        // Dijkstra's ring): over 3·K·n rounds each index must be enabled
        // at least once.
        let n = 4;
        let ring = TokenRing::new(n);
        let rounds = 3 * (n + 1) * n;
        let out = SyncRunner::new(ring)
            .run(&mut NoFaults, &RunConfig::clean(n, rounds))
            .unwrap();
        let mut held = vec![false; n];
        for r in 1..=rounds as u64 {
            let vals = values_at(&out, r);
            for i in 0..n {
                let pred = vals[(i + n - 1) % n] % ring.k();
                if ring.has_token(i, vals[i] % ring.k(), pred) {
                    held[i] = true;
                }
            }
        }
        assert!(held.iter().all(|&h| h), "token skipped someone: {held:?}");
    }

    #[test]
    fn stabilizes_from_arbitrary_state() {
        // Definition 2.2 (ss-solves): from any corrupted configuration,
        // within bounded time exactly one token circulates forever. The
        // classical bound is O(n²) rounds; we check n·K generously.
        for seed in 0..20u64 {
            let n = 5;
            let ring = TokenRing::new(n);
            let stab = n * (n + 1) * 2;
            let total = stab + 15;
            let out = SyncRunner::new(ring)
                .run(&mut NoFaults, &RunConfig::corrupted(n, total, seed))
                .unwrap();
            for r in (stab as u64 + 1)..=(total as u64) {
                assert_eq!(
                    token_holders(&ring, &values_at(&out, r)),
                    1,
                    "seed {seed} round {r}: {:?}",
                    values_at(&out, r)
                );
            }
        }
    }

    #[test]
    fn multiple_tokens_converge_to_one_monotonically_eventually() {
        // From corruption there may transiently be up to n tokens; the
        // count can fluctuate early but must reach 1 and stay there.
        let n = 6;
        let ring = TokenRing::new(n);
        let out = SyncRunner::new(ring)
            .run(&mut NoFaults, &RunConfig::corrupted(n, 100, 3))
            .unwrap();
        let counts: Vec<usize> = (1..=100u64)
            .map(|r| token_holders(&ring, &values_at(&out, r)))
            .collect();
        assert!(counts.iter().all(|&c| (1..=n).contains(&c)));
        let settle = counts.iter().rposition(|&c| c != 1).map_or(0, |i| i + 1);
        assert!(settle < 60, "did not settle to one token: {counts:?}");
    }

    #[test]
    fn crash_halts_circulation_the_motivating_weakness() {
        // The classical protocol is NOT fault-tolerant: crash p2 and the
        // token stops reaching anyone downstream once it parks at the gap.
        let n = 4;
        let ring = TokenRing::new(n);
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(2), Round::new(5));
        let out = SyncRunner::new(ring)
            .run(&mut CrashOnly::new(cs), &RunConfig::clean(n, 40))
            .unwrap();
        // After the crash, p3 (successor of the dead p2) freezes: its
        // predecessor never speaks again, so its value never changes.
        let v_at_crash = out
            .history
            .round(Round::new(6))
            .record(ProcessId(3))
            .state_at_start()
            .unwrap()
            .value;
        let v_final = out.final_states[3].as_ref().unwrap().value;
        assert_eq!(
            v_at_crash, v_final,
            "p3 should be frozen forever after its predecessor crashed"
        );
    }
}
