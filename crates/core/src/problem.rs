//! Problems as predicates on histories.
//!
//! The paper defines a *problem* as "a predicate on a history and a set of
//! faulty processes". [`Problem`] is that predicate; implementations live
//! both here (the paper's Assumption 1) and in the protocol crates
//! (consensus, repeated consensus, reliable broadcast specifications).

use crate::error::Violation;
use crate::history::HistorySlice;
use crate::id::{ProcessId, ProcessSet};

/// A problem specification `Σ(H, F)`: a predicate over a history (slice)
/// and a set of faulty processes.
///
/// `check` returns `Ok(())` when the predicate is satisfied and a
/// [`Violation`] explaining the first failure otherwise. Implementations
/// must treat `faulty` as authoritative — the behaviour of processes in
/// `faulty` is unrestricted (the paper's Theorem 2 shows *restricting*
/// faulty processes is impossible in this model).
pub trait Problem<S, M> {
    /// A short name for reports (e.g. `"round-agreement"`).
    fn name(&self) -> &str;

    /// Evaluates `Σ(h, faulty)`.
    fn check(&self, h: HistorySlice<'_, S, M>, faulty: &ProcessSet) -> Result<(), Violation>;
}

/// Assumption 1 of the paper, as a reusable problem predicate:
///
/// 1. **Agreement** — in every round, all correct processes hold the same
///    round counter `c_p`;
/// 2. **Rate** — each correct process's counter increases by exactly one
///    per round.
///
/// Note the counters need **not** equal the actual round number: systemic
/// failures make that impossible to require (§2.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RateAgreementSpec;

impl RateAgreementSpec {
    /// Creates the spec.
    pub fn new() -> Self {
        RateAgreementSpec
    }
}

impl<S, M> Problem<S, M> for RateAgreementSpec {
    fn name(&self) -> &str {
        "round-agreement (Assumption 1)"
    }

    fn check(&self, h: HistorySlice<'_, S, M>, faulty: &ProcessSet) -> Result<(), Violation> {
        let n = h.n();
        let mut prev: Vec<Option<u64>> = vec![None; n];
        for i in 0..h.len() {
            let rh = h.round(i);
            let mut reference: Option<(ProcessId, u64)> = None;
            #[allow(clippy::needless_range_loop)] // j is a ProcessId, not just an index
            for j in 0..n {
                let p = ProcessId(j);
                if faulty.contains(p) {
                    continue;
                }
                let rec = rh.record(p);
                // A correct process is alive throughout the slice (crash
                // would have put it in `faulty`); a missing counter at a
                // correct process means the protocol under test does not
                // maintain Assumption 1's distinguished variable.
                let c = match rec.counter_at_start() {
                    Some(c) => c.get(),
                    None => {
                        return Err(Violation::new(
                            "agreement",
                            format!("correct process {p} has no round counter"),
                        )
                        .at_round(i)
                        .with_processes([p]));
                    }
                };
                match reference {
                    None => reference = Some((p, c)),
                    Some((q, cq)) if cq != c => {
                        return Err(Violation::new(
                            "agreement",
                            format!("{q} has c={cq} but {p} has c={c}"),
                        )
                        .at_round(i)
                        .with_processes([q, p]));
                    }
                    _ => {}
                }
                if let Some(pc) = prev[j] {
                    // `u64::MAX` is a legal counter (round.rs): the
                    // expected successor saturates, it never overflows.
                    let expected = pc.saturating_add(1);
                    if c != expected {
                        return Err(Violation::new(
                            "rate",
                            format!("{p} went from c={pc} to c={c} (expected {expected})"),
                        )
                        .at_round(i)
                        .with_processes([p]));
                    }
                }
                prev[j] = Some(c);
            }
        }
        Ok(())
    }
}

/// Assumption 2 of the paper — **uniformity**: in every round, every
/// faulty process has either halted or agrees with the correct processes
/// on the round counter. This is the formalization of "self-checking and
/// halting before doing any harm"; Theorem 2 proves no protocol enforcing
/// it can ftss-solve anything, so this spec exists to *demonstrate* the
/// violation, not to be satisfied (see `ftss-analysis`'s Theorem-2
/// scenarios and experiment E4).
///
/// Crashed processes count as halted ("either `p` has halted by round `r`
/// or `c_p^r = c_q^r`"); a crash certainly halts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniformitySpec;

impl UniformitySpec {
    /// Creates the spec.
    pub fn new() -> Self {
        UniformitySpec
    }
}

impl<S, M> Problem<S, M> for UniformitySpec {
    fn name(&self) -> &str {
        "uniformity (Assumption 2)"
    }

    fn check(&self, h: HistorySlice<'_, S, M>, faulty: &ProcessSet) -> Result<(), Violation> {
        let n = h.n();
        for i in 0..h.len() {
            let rh = h.round(i);
            // Reference counter: any correct process's.
            let reference = (0..n).map(ProcessId).find_map(|q| {
                if faulty.contains(q) {
                    None
                } else {
                    rh.record(q).counter_at_start().map(|c| (q, c.get()))
                }
            });
            let Some((q, cq)) = reference else {
                continue; // no correct counter visible this round
            };
            for j in 0..n {
                let p = ProcessId(j);
                if !faulty.contains(p) {
                    continue;
                }
                let rec = rh.record(p);
                let crashed = rec.state_at_start().is_none() || rec.crashed_here();
                if crashed || rec.halted_at_start() {
                    continue; // halted: uniformity satisfied for p
                }
                match rec.counter_at_start() {
                    Some(c) if c.get() == cq => {}
                    Some(c) => {
                        return Err(Violation::new(
                            "uniformity",
                            format!(
                                "faulty {p} is unhalted with c={} while correct {q} has c={cq}",
                                c.get()
                            ),
                        )
                        .at_round(i)
                        .with_processes([p, q]));
                    }
                    None => {
                        return Err(Violation::new(
                            "uniformity",
                            format!("faulty {p} is unhalted with no counter"),
                        )
                        .at_round(i)
                        .with_processes([p]));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, RoundHistory};
    use crate::round::RoundCounter;

    type H = History<(), ()>;

    fn round_with_counters(cs: &[Option<u64>]) -> RoundHistory<(), ()> {
        let halted: Vec<_> = cs.iter().map(|&c| (c, false)).collect();
        round_with_halt(&halted)
    }

    #[test]
    fn satisfied_when_counters_agree_and_advance() {
        let mut h = H::new(2);
        h.push(round_with_counters(&[Some(5), Some(5)]));
        h.push(round_with_counters(&[Some(6), Some(6)]));
        let ok = RateAgreementSpec::new().check(h.as_slice(), &ProcessSet::empty(2));
        assert!(ok.is_ok());
    }

    #[test]
    fn rate_violation_at_the_saturated_counter_is_reported_not_overflowed() {
        let mut h = H::new(1);
        h.push(round_with_counters(&[Some(u64::MAX)]));
        h.push(round_with_counters(&[Some(5)]));
        let err = RateAgreementSpec::new()
            .check(h.as_slice(), &ProcessSet::empty(1))
            .unwrap_err();
        assert_eq!(err.rule, "rate");
        assert!(
            err.detail.ends_with(&format!("(expected {})", u64::MAX)),
            "{}",
            err.detail
        );
    }

    #[test]
    fn agreement_violation_detected() {
        let mut h = H::new(2);
        h.push(round_with_counters(&[Some(5), Some(7)]));
        let err = RateAgreementSpec::new()
            .check(h.as_slice(), &ProcessSet::empty(2))
            .unwrap_err();
        assert_eq!(err.rule, "agreement");
        assert_eq!(err.at_round, Some(0));
    }

    #[test]
    fn rate_violation_detected() {
        let mut h = H::new(1);
        h.push(round_with_counters(&[Some(5)]));
        h.push(round_with_counters(&[Some(7)]));
        let err = RateAgreementSpec::new()
            .check(h.as_slice(), &ProcessSet::empty(1))
            .unwrap_err();
        assert_eq!(err.rule, "rate");
        assert_eq!(err.at_round, Some(1));
    }

    #[test]
    fn faulty_processes_are_unrestricted() {
        let mut h = H::new(2);
        h.push(round_with_counters(&[Some(5), Some(999)]));
        h.push(round_with_counters(&[Some(6), Some(3)]));
        let mut faulty = ProcessSet::empty(2);
        faulty.insert(ProcessId(1));
        assert!(RateAgreementSpec::new()
            .check(h.as_slice(), &faulty)
            .is_ok());
    }

    #[test]
    fn missing_counter_at_correct_process_is_violation() {
        let mut h = H::new(2);
        h.push(round_with_counters(&[Some(5), None]));
        let err = RateAgreementSpec::new()
            .check(h.as_slice(), &ProcessSet::empty(2))
            .unwrap_err();
        assert!(err.detail.contains("no round counter"));
    }

    #[test]
    fn counters_need_not_match_observer_round() {
        // Starting at c=1000 in observer round 1 is fine — this is the
        // paper's point about systemic failures.
        let mut h = H::new(2);
        h.push(round_with_counters(&[Some(1000), Some(1000)]));
        h.push(round_with_counters(&[Some(1001), Some(1001)]));
        assert!(RateAgreementSpec::new()
            .check(h.as_slice(), &ProcessSet::empty(2))
            .is_ok());
    }

    #[test]
    fn empty_slice_trivially_satisfied() {
        let h = H::new(2);
        assert!(RateAgreementSpec::new()
            .check(h.as_slice(), &ProcessSet::empty(2))
            .is_ok());
    }

    #[test]
    fn rate_checked_only_inside_slice() {
        // A jump before the slice must not count.
        let mut h = H::new(1);
        h.push(round_with_counters(&[Some(5)]));
        h.push(round_with_counters(&[Some(100)])); // jump at boundary
        h.push(round_with_counters(&[Some(101)]));
        let s = h.slice(1, 3); // rounds 2..3 only
        assert!(RateAgreementSpec::new()
            .check(s, &ProcessSet::empty(1))
            .is_ok());
    }

    fn round_with_halt(cs: &[(Option<u64>, bool)]) -> RoundHistory<(), ()> {
        let mut rh = RoundHistory::empty(cs.len());
        for (i, &(c, halted)) in cs.iter().enumerate() {
            let counter = c.map(RoundCounter::new);
            rh.set_process(ProcessId(i), Some(()), counter, false, halted);
        }
        rh
    }

    #[test]
    fn uniformity_satisfied_when_faulty_halted() {
        let mut h = H::new(2);
        h.push(round_with_halt(&[(Some(5), false), (Some(99), true)]));
        let faulty = ProcessSet::from_iter_n(2, [ProcessId(1)]);
        assert!(UniformitySpec::new().check(h.as_slice(), &faulty).is_ok());
    }

    #[test]
    fn uniformity_satisfied_when_faulty_agrees() {
        let mut h = H::new(2);
        h.push(round_with_halt(&[(Some(5), false), (Some(5), false)]));
        let faulty = ProcessSet::from_iter_n(2, [ProcessId(1)]);
        assert!(UniformitySpec::new().check(h.as_slice(), &faulty).is_ok());
    }

    #[test]
    fn uniformity_violated_by_unhalted_disagreeing_faulty() {
        let mut h = H::new(2);
        h.push(round_with_halt(&[(Some(5), false), (Some(9), false)]));
        let faulty = ProcessSet::from_iter_n(2, [ProcessId(1)]);
        let err = UniformitySpec::new()
            .check(h.as_slice(), &faulty)
            .unwrap_err();
        assert_eq!(err.rule, "uniformity");
    }

    #[test]
    fn uniformity_vacuous_without_correct_reference() {
        // Both faulty: nothing to compare against.
        let mut h = H::new(2);
        h.push(round_with_halt(&[(Some(5), false), (Some(9), false)]));
        let faulty = ProcessSet::full(2);
        assert!(UniformitySpec::new().check(h.as_slice(), &faulty).is_ok());
    }
}
