//! FloodSet consensus — a concrete Π for the compiler.
//!
//! The classic `f + 1`-round flooding consensus: every round, broadcast the
//! set of values seen so far and union in everything received; after round
//! `f + 1`, decide the minimum of the set. Tolerates up to `f` **crash and
//! send-omission** failures (the "new value appears late" adversary needs
//! a new failure per round, and there are only `f` faulty processes for
//! `f + 1` rounds).
//!
//! General *receive* omissions can starve the faulty receiver itself, but
//! never desynchronize the correct processes — and the specification
//! ([`crate::problems::ConsensusSpec`]) restricts only correct processes,
//! as Theorem 2 of the paper requires of any ftss-compilable protocol.

use crate::canonical::CanonicalProtocol;
use crate::problems::HasDecision;
use ftss_core::Corrupt;
use ftss_rng::Rng;
use ftss_sync_sim::{Inbox, ProtocolCtx};
use std::fmt;

/// FloodSet consensus for `f` crash/send-omission failures; one iteration
/// is `f + 1` rounds.
///
/// # Example
///
/// ```
/// use ftss_protocols::{CanonicalProtocol, FloodSet};
///
/// let pi = FloodSet::new(2, vec![5, 3, 9, 3, 7]);
/// assert_eq!(pi.final_round(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct FloodSet {
    f: usize,
    inputs: Vec<u64>,
}

impl FloodSet {
    /// A FloodSet instance tolerating `f` failures, with `inputs[p]` the
    /// initial value of process `p`.
    pub fn new(f: usize, inputs: Vec<u64>) -> Self {
        FloodSet { f, inputs }
    }

    /// The fault bound this instance is dimensioned for.
    pub fn fault_bound(&self) -> usize {
        self.f
    }

    /// The input values, indexed by process.
    pub fn inputs(&self) -> &[u64] {
        &self.inputs
    }
}

/// A set of values, as a vector kept ascending without repeats:
/// FloodSet's `seen` and its message. Its memory layout is its binary
/// wire form — a count, then the values ascending — so a decoded message
/// is one allocation, and a union inserts by binary search.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ValueSet(Vec<u64>);

impl ValueSet {
    /// The empty set.
    pub fn new() -> Self {
        ValueSet(Vec::new())
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: u64) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    /// The smallest value.
    pub fn first(&self) -> Option<u64> {
        self.0.first().copied()
    }

    /// The values, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied()
    }

    /// Inserts `v`; returns `true` if it was not already present.
    pub fn insert(&mut self, v: u64) -> bool {
        match self.0.binary_search(&v) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, v);
                true
            }
        }
    }

    /// Inserts every value of `other`.
    pub fn union_with(&mut self, other: &ValueSet) {
        for v in other.iter() {
            self.insert(v);
        }
    }

    /// Appends `v` if it exceeds every value in the set; returns whether
    /// it did. A decoder builds a set from ascending input with it.
    pub fn push_ascending(&mut self, v: u64) -> bool {
        let above = self.0.last().is_none_or(|&last| last < v);
        if above {
            self.0.push(v);
        }
        above
    }

    /// Removes every value, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

/// Any values, in any order and with repeats: the set of them.
impl FromIterator<u64> for ValueSet {
    fn from_iter<I: IntoIterator<Item = u64>>(values: I) -> Self {
        let mut values: Vec<u64> = values.into_iter().collect();
        values.sort_unstable();
        values.dedup();
        ValueSet(values)
    }
}

/// As a set: `{1, 2, 3}`.
impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.0).finish()
    }
}

/// FloodSet protocol state: the set of values seen plus the decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodSetState {
    /// Values seen so far (starts as the singleton input).
    pub seen: ValueSet,
    /// The decision, set by the `final_round` transition.
    pub decided: Option<u64>,
}

impl Corrupt for FloodSetState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Arbitrary set of arbitrary values (bounded size), arbitrary
        // decision flag — including the insidious "already decided wrong"
        // state.
        let len = rng.gen_range(0..6);
        self.seen = (0..len).map(|_| rng.gen_range(0..64u64)).collect();
        self.decided = if rng.gen_bool(0.5) {
            Some(rng.gen_range(0..64))
        } else {
            None
        };
    }
}

impl HasDecision for FloodSetState {
    type Value = u64;

    fn decision(&self) -> Option<(u64, u64)> {
        self.decided.map(|v| (0, v))
    }
}

impl CanonicalProtocol for FloodSet {
    type State = FloodSetState;
    type Msg = ValueSet;
    type Output = u64;

    fn name(&self) -> &str {
        "floodset"
    }

    fn final_round(&self) -> u64 {
        self.f as u64 + 1
    }

    fn init(&self, ctx: &ProtocolCtx) -> FloodSetState {
        // Room for every process's input: an iteration's unions then grow
        // the set without reallocating.
        let mut seen = ValueSet(Vec::with_capacity(ctx.n));
        seen.insert(self.inputs[ctx.me.index()]);
        FloodSetState {
            seen,
            decided: None,
        }
    }

    fn message(&self, _ctx: &ProtocolCtx, state: &FloodSetState) -> ValueSet {
        state.seen.clone()
    }

    fn transition(
        &self,
        _ctx: &ProtocolCtx,
        state: &mut FloodSetState,
        inbox: &Inbox<ValueSet>,
        k: u64,
    ) {
        // Senders that broadcast the same set often share one object (a
        // served node decodes each distinct message once): a run of them
        // is unioned once.
        let mut last: Option<&ValueSet> = None;
        for (_, set) in inbox.iter() {
            if !last.is_some_and(|l| std::ptr::eq(l, set)) {
                state.seen.union_with(set);
                last = Some(set);
            }
        }
        if k == self.final_round() {
            // min of the union; a (corrupted) empty set yields no decision
            // rather than a panic.
            state.decided = state.seen.first();
        }
    }

    fn output(&self, _ctx: &ProtocolCtx, state: &FloodSetState) -> Option<u64> {
        state.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::SingleShot;
    use crate::problems::ConsensusSpec;
    use ftss_core::{ft_check, CrashSchedule, ProcessId, Round};
    use ftss_sync_sim::{CrashOnly, NoFaults, RandomOmission, RunConfig, SyncRunner};

    fn run_consensus(
        f: usize,
        inputs: Vec<u64>,
        adversary: &mut dyn ftss_sync_sim::Adversary,
    ) -> ftss_sync_sim::RunOutcome<crate::canonical::SingleShotState<FloodSetState>, ValueSet> {
        let n = inputs.len();
        let rounds = f + 2; // one extra round so decisions appear in the history
        SyncRunner::new(SingleShot::new(FloodSet::new(f, inputs)))
            .run(adversary, &RunConfig::clean(n, rounds))
            .unwrap()
    }

    #[test]
    fn failure_free_decides_min() {
        let out = run_consensus(1, vec![5, 3, 9], &mut NoFaults);
        let spec = ConsensusSpec::new(vec![5, 3, 9], 2); // decisions visible at round index 2
        assert!(ft_check(&out.history, &spec).is_ok());
        for s in out.final_states.iter().flatten() {
            assert_eq!(s.inner.decided, Some(3));
        }
    }

    #[test]
    fn crash_faults_tolerated() {
        // p0 holds the minimum and crashes in round 1 after telling only p1;
        // flooding still spreads value 1 to everyone by round f+1 = 3.
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(0), Round::new(1));
        let mut adv = CrashOnly::new(cs).with_partial_sends(1);
        let out = run_consensus(2, vec![1, 5, 9, 7], &mut adv);
        let spec = ConsensusSpec::new(vec![1, 5, 9, 7], 3);
        assert!(ft_check(&out.history, &spec).is_ok(), "{}", out.history);
        // All survivors decided the same value (1 reached p1 before the crash).
        let decided: Vec<_> = out
            .final_states
            .iter()
            .flatten()
            .map(|s| s.inner.decided.unwrap())
            .collect();
        assert!(decided.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(decided[0], 1);
    }

    #[test]
    fn send_omissions_tolerated() {
        for seed in 0..15 {
            let inputs = vec![4, 8, 2, 6, 9];
            let mut adv = RandomOmission::new([ProcessId(1)], 0.8, seed);
            let out = run_consensus(1, inputs.clone(), &mut adv);
            let spec = ConsensusSpec::new(inputs, 2);
            assert!(
                ft_check(&out.history, &spec).is_ok(),
                "seed {seed} violated consensus"
            );
        }
    }

    #[test]
    fn iteration_length_is_f_plus_one() {
        assert_eq!(FloodSet::new(0, vec![1]).final_round(), 1);
        assert_eq!(FloodSet::new(3, vec![1; 4]).final_round(), 4);
    }

    #[test]
    fn corrupted_empty_seen_yields_no_decision_not_panic() {
        let pi = FloodSet::new(1, vec![1, 2]);
        let ctx = ProtocolCtx::new(ProcessId(0), 2);
        let mut s = FloodSetState {
            seen: ValueSet::new(),
            decided: None,
        };
        pi.transition(&ctx, &mut s, &Inbox::new(vec![]), pi.final_round());
        assert_eq!(s.decided, None);
        assert_eq!(pi.output(&ctx, &s), None);
    }

    /// Skipping a set that is the same object as the one just unioned
    /// gives what unioning every received set does: over tables whose
    /// senders share entries in runs, interleaved, or not at all (equal
    /// sets held apart), and with forged and late copies.
    #[test]
    fn shared_sets_union_once_to_the_plain_union() {
        use ftss_rng::check::{forall, Gen};
        use ftss_rng::Rng;
        use ftss_sync_sim::InboxTable;
        let pi = FloodSet::new(1, vec![0; 12]);
        let ctx = ProtocolCtx::new(ProcessId(0), 12);
        forall(300, |g: &mut Gen| {
            let set = |g: &mut Gen| ValueSet::from_iter(g.vec(0, 5, |g| g.gen_range(0..40)));
            let entries = g.vec(1, 4, set);
            let mut table = InboxTable {
                cells: (0..12)
                    .map(|_| g.gen_range(0..entries.len() as u32))
                    .collect(),
                entries,
                heard: vec![g.gen_range(0..1 << 12)],
                forged: vec![],
                late: g.vec(0, 3, |g| (ProcessId(g.gen_range(0..12)), set(g))),
            };
            if let Some(s) = (0..12).find(|s| table.heard[0] >> s & 1 == 1) {
                table.forged.push((ProcessId(s), set(g)));
            }
            let inbox = Inbox::from_table(&table);
            let mut start = FloodSetState {
                seen: set(g),
                decided: None,
            };
            let mut want = start.seen.clone();
            for (_, s) in inbox.iter() {
                for v in s.iter() {
                    want.insert(v);
                }
            }
            pi.transition(&ctx, &mut start, &inbox, 1);
            assert_eq!(start.seen, want);
        });
    }

    #[test]
    fn decision_tag_is_zero_for_single_shot() {
        let s = FloodSetState {
            seen: [3].into_iter().collect(),
            decided: Some(3),
        };
        assert_eq!(s.decision(), Some((0, 3)));
    }

    #[test]
    fn accessors() {
        let pi = FloodSet::new(2, vec![1, 2, 3]);
        assert_eq!(pi.fault_bound(), 2);
        assert_eq!(pi.inputs(), &[1, 2, 3]);
        assert_eq!(pi.name(), "floodset");
    }
}
