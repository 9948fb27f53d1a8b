//! Problem predicates `Σ` for the concrete protocols.
//!
//! * [`ConsensusSpec`] — single-shot consensus: by the end of one
//!   iteration every correct process has decided, decisions agree, and the
//!   decided value is one of the protocol inputs (validity).
//! * [`RepeatedConsensusSpec`] — the paper's `Σ⁺`: the non-terminating
//!   repetition of Σ produced by the compiler. On any checked interval,
//!   decisions carrying the same iteration tag agree, and (optionally)
//!   decisions keep being produced.
//!
//! Decisions are read out of recorded states through [`HasDecision`], so
//! the predicates work for any protocol/state shape that exposes one.

use ftss_core::{HistorySlice, Problem, ProcessId, ProcessSet, Violation};
use std::fmt;

/// Read access to the decision a protocol state carries.
///
/// The `u64` tag identifies the iteration the decision belongs to: `0` for
/// single-shot runs; the round-counter value at decision time for compiled
/// runs. Agreement is only required between decisions with equal tags.
pub trait HasDecision {
    /// The decided value type.
    type Value: Clone + PartialEq + fmt::Debug;

    /// The `(iteration tag, value)` decided, if any.
    fn decision(&self) -> Option<(u64, Self::Value)>;
}

impl<S: HasDecision> HasDecision for crate::canonical::SingleShotState<S> {
    type Value = S::Value;

    fn decision(&self) -> Option<(u64, S::Value)> {
        self.inner.decision()
    }
}

/// Single-shot consensus specification.
///
/// Checked against a history that contains at least one round *after* the
/// deciding transition (decisions appear in `state_at_start` of the round
/// following the decision).
#[derive(Clone, Debug)]
pub struct ConsensusSpec<V> {
    /// All values that validity admits (the inputs of the run).
    pub valid_values: Vec<V>,
    /// The 0-based round index (within the checked slice) by which every
    /// correct process must have decided.
    pub decide_by: usize,
}

impl<V: Clone + PartialEq + fmt::Debug> ConsensusSpec<V> {
    /// A spec for a protocol with the given inputs that must decide by
    /// slice round `decide_by` (0-based `state_at_start` index).
    pub fn new(valid_values: Vec<V>, decide_by: usize) -> Self {
        ConsensusSpec {
            valid_values,
            decide_by,
        }
    }
}

impl<S, M, V> Problem<S, M> for ConsensusSpec<V>
where
    S: HasDecision<Value = V>,
    V: Clone + PartialEq + fmt::Debug,
{
    fn name(&self) -> &str {
        "consensus"
    }

    fn check(&self, h: HistorySlice<'_, S, M>, faulty: &ProcessSet) -> Result<(), Violation> {
        if h.len() <= self.decide_by {
            return Err(Violation::new(
                "termination",
                format!(
                    "slice has {} rounds; decisions required by round index {}",
                    h.len(),
                    self.decide_by
                ),
            ));
        }
        let rh = h.round(self.decide_by);
        let mut agreed: Option<(ProcessId, V)> = None;
        for j in 0..h.n() {
            let p = ProcessId(j);
            if faulty.contains(p) {
                continue;
            }
            let state = rh.record(p).state_at_start().ok_or_else(|| {
                Violation::new("termination", format!("correct {p} has no state"))
                    .at_round(self.decide_by)
            })?;
            let (_, v) = state.decision().ok_or_else(|| {
                Violation::new("termination", format!("correct {p} undecided"))
                    .at_round(self.decide_by)
                    .with_processes([p])
            })?;
            if !self.valid_values.contains(&v) {
                return Err(
                    Violation::new("validity", format!("{p} decided {v:?}, not an input"))
                        .at_round(self.decide_by)
                        .with_processes([p]),
                );
            }
            match &agreed {
                None => agreed = Some((p, v)),
                Some((q, w)) if *w != v => {
                    return Err(Violation::new(
                        "agreement",
                        format!("{q} decided {w:?} but {p} decided {v:?}"),
                    )
                    .at_round(self.decide_by)
                    .with_processes([*q, p]));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The repeated-consensus specification `Σ⁺`.
///
/// On the checked interval:
///
/// * **tagged agreement** — whenever two correct processes' states carry
///   decisions with the same iteration tag (in any rounds of the
///   interval), the values agree;
/// * **progress** (optional) — if the interval is at least
///   `progress_horizon` rounds long, the correct processes produce at
///   least two distinct decision tags within it (i.e. iterations keep
///   completing).
#[derive(Clone, Debug)]
pub struct RepeatedConsensusSpec {
    /// Interval length from which progress is demanded; `None` disables
    /// the progress check.
    pub progress_horizon: Option<usize>,
}

impl RepeatedConsensusSpec {
    /// Agreement-only `Σ⁺`.
    pub fn agreement_only() -> Self {
        RepeatedConsensusSpec {
            progress_horizon: None,
        }
    }

    /// Agreement plus progress on intervals of at least `horizon` rounds.
    pub fn with_progress(horizon: usize) -> Self {
        RepeatedConsensusSpec {
            progress_horizon: Some(horizon),
        }
    }
}

impl<S, M> Problem<S, M> for RepeatedConsensusSpec
where
    S: HasDecision,
{
    fn name(&self) -> &str {
        "repeated-consensus (Σ+)"
    }

    fn check(&self, h: HistorySlice<'_, S, M>, faulty: &ProcessSet) -> Result<(), Violation> {
        let n = h.n();
        // tag -> (first process seen, value)
        let mut by_tag: std::collections::BTreeMap<u64, (ProcessId, S::Value)> =
            std::collections::BTreeMap::new();
        let mut tags_seen: std::collections::BTreeSet<u64> = Default::default();
        for i in 0..h.len() {
            let rh = h.round(i);
            for j in 0..n {
                let p = ProcessId(j);
                if faulty.contains(p) {
                    continue;
                }
                let Some(state) = rh.record(p).state_at_start() else {
                    continue;
                };
                let Some((tag, v)) = state.decision() else {
                    continue;
                };
                tags_seen.insert(tag);
                match by_tag.get(&tag) {
                    None => {
                        by_tag.insert(tag, (p, v));
                    }
                    Some((q, w)) => {
                        if *w != v {
                            return Err(Violation::new(
                                "tagged-agreement",
                                format!(
                                    "iteration tag {tag}: {q} decided {w:?} but {p} decided {v:?}"
                                ),
                            )
                            .at_round(i)
                            .with_processes([*q, p]));
                        }
                    }
                }
            }
        }
        if let Some(horizon) = self.progress_horizon {
            if h.len() >= horizon && tags_seen.len() < 2 {
                return Err(Violation::new(
                    "progress",
                    format!(
                        "interval of {} rounds produced {} decision tag(s); expected ≥ 2",
                        h.len(),
                        tags_seen.len()
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{History, ProcessId, RoundHistory};

    /// A bare state carrying an optional tagged decision.
    #[derive(Clone, Debug, PartialEq)]
    struct D(Option<(u64, u32)>);

    impl HasDecision for D {
        type Value = u32;
        fn decision(&self) -> Option<(u64, u32)> {
            self.0
        }
    }

    fn round(states: &[Option<D>]) -> RoundHistory<D, ()> {
        let mut rh = RoundHistory::empty(states.len());
        for (i, s) in states.iter().enumerate() {
            rh.set_process(ProcessId(i), s.clone(), None, false, false);
        }
        rh
    }

    fn hist(rounds: Vec<RoundHistory<D, ()>>) -> History<D, ()> {
        let n = rounds[0].n();
        let mut h = History::new(n);
        for r in rounds {
            h.push(r);
        }
        h
    }

    #[test]
    fn consensus_ok() {
        let h = hist(vec![round(&[Some(D(Some((0, 7)))), Some(D(Some((0, 7))))])]);
        let spec = ConsensusSpec::new(vec![7u32, 9], 0);
        assert!(spec.check(h.as_slice(), &ProcessSet::empty(2)).is_ok());
    }

    #[test]
    fn consensus_termination_violation() {
        let h = hist(vec![round(&[Some(D(None)), Some(D(Some((0, 7))))])]);
        let spec = ConsensusSpec::new(vec![7u32], 0);
        let err = spec.check(h.as_slice(), &ProcessSet::empty(2)).unwrap_err();
        assert_eq!(err.rule, "termination");
    }

    #[test]
    fn consensus_agreement_violation() {
        let h = hist(vec![round(&[Some(D(Some((0, 7)))), Some(D(Some((0, 9))))])]);
        let spec = ConsensusSpec::new(vec![7u32, 9], 0);
        let err = spec.check(h.as_slice(), &ProcessSet::empty(2)).unwrap_err();
        assert_eq!(err.rule, "agreement");
    }

    #[test]
    fn consensus_validity_violation() {
        let h = hist(vec![round(&[Some(D(Some((0, 5))))])]);
        let spec = ConsensusSpec::new(vec![7u32], 0);
        let err = spec.check(h.as_slice(), &ProcessSet::empty(1)).unwrap_err();
        assert_eq!(err.rule, "validity");
    }

    #[test]
    fn consensus_faulty_exempt() {
        let h = hist(vec![round(&[
            Some(D(Some((0, 7)))),
            Some(D(Some((0, 99)))), // faulty, disagrees and invalid
        ])]);
        let spec = ConsensusSpec::new(vec![7u32], 0);
        let faulty = ProcessSet::from_iter_n(2, [ProcessId(1)]);
        assert!(spec.check(h.as_slice(), &faulty).is_ok());
    }

    #[test]
    fn consensus_slice_too_short() {
        let h = hist(vec![round(&[Some(D(Some((0, 7))))])]);
        let spec = ConsensusSpec::new(vec![7u32], 3);
        assert!(spec.check(h.as_slice(), &ProcessSet::empty(1)).is_err());
    }

    #[test]
    fn repeated_tagged_agreement_ok_across_tags() {
        // Different tags may carry different values.
        let h = hist(vec![
            round(&[Some(D(Some((1, 7)))), Some(D(Some((1, 7))))]),
            round(&[Some(D(Some((2, 9)))), Some(D(Some((1, 7))))]),
            round(&[Some(D(Some((2, 9)))), Some(D(Some((2, 9))))]),
        ]);
        let spec = RepeatedConsensusSpec::agreement_only();
        assert!(spec.check(h.as_slice(), &ProcessSet::empty(2)).is_ok());
    }

    #[test]
    fn repeated_same_tag_disagreement_caught() {
        let h = hist(vec![
            round(&[Some(D(Some((1, 7)))), Some(D(None))]),
            round(&[Some(D(Some((1, 7)))), Some(D(Some((1, 8))))]),
        ]);
        let spec = RepeatedConsensusSpec::agreement_only();
        let err = spec.check(h.as_slice(), &ProcessSet::empty(2)).unwrap_err();
        assert_eq!(err.rule, "tagged-agreement");
    }

    #[test]
    fn repeated_progress_enforced() {
        let h = hist(vec![
            round(&[Some(D(Some((1, 7))))]),
            round(&[Some(D(Some((1, 7))))]),
            round(&[Some(D(Some((1, 7))))]),
        ]);
        let strict = RepeatedConsensusSpec::with_progress(3);
        let err = strict
            .check(h.as_slice(), &ProcessSet::empty(1))
            .unwrap_err();
        assert_eq!(err.rule, "progress");
        // Below the horizon, no progress demanded.
        let lax = RepeatedConsensusSpec::with_progress(4);
        assert!(lax.check(h.as_slice(), &ProcessSet::empty(1)).is_ok());
    }

    #[test]
    fn repeated_crashed_states_skipped() {
        let h = hist(vec![round(&[None, Some(D(Some((1, 7))))])]);
        let spec = RepeatedConsensusSpec::agreement_only();
        // p0 crashed (state None): simply not counted.
        assert!(spec.check(h.as_slice(), &ProcessSet::empty(2)).is_ok());
    }
}
