//! Checkers for the paper's solvability notions.
//!
//! * **ft-solves** (Def. 2.1): every history consistent with Π satisfies
//!   `Σ(H, F(H, Π))`. Checked per-history by [`ft_check`].
//! * **ss-solves** (Def. 2.2): `Σ(H', ∅)` holds on the `r`-suffix `H'`.
//!   Checked by [`ss_check`].
//! * **ftss-solves** (Def. 2.4, *piece-wise stability*): for every
//!   decomposition `H = H₁·H₂·H₃·H₄` in which the coterie is unchanged
//!   from the end of `H₁` through the end of `H₃` and `|H₂| ≥ r`, the
//!   predicate `Σ(H₃, F(H₁·H₂·H₃, Π))` holds. Checked exhaustively by
//!   [`ftss_check`] and cheaply (final stable window only) by
//!   [`ftss_check_suffix`].
//!
//! **Interpretation note.** Definition 2.4 literally requires
//! `coterie(H₁·H₂) = coterie(H₁·H₂·H₃)`; the paper's prose ("once the
//! coterie has been unchanged for long enough, then *as long as the coterie
//! remains unchanged* …") makes clear the intended meaning is that the
//! coterie is constant *throughout* `H₂·H₃`, not merely equal at the two
//! endpoints (prefix coteries are not monotone, so the two readings
//! differ). We implement the throughout-constant reading.

use crate::coterie::{CoterieTimeline, StableWindow};
use crate::error::Violation;
use crate::history::History;
use crate::id::ProcessSet;
use crate::problem::Problem;
use std::fmt;

/// One failed instance of the Definition-2.4 obligation.
#[derive(Clone, Debug)]
pub struct FtssViolation {
    /// 0-based index of the first round of `H₃` in the full history.
    pub h3_start: usize,
    /// 0-based index one past the last round of `H₃`.
    pub h3_end: usize,
    /// The coterie that was stable over `H₂·H₃`.
    pub coterie: ProcessSet,
    /// Why `Σ` rejected `H₃`.
    pub violation: Violation,
}

impl fmt::Display for FtssViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "H3 = rounds {}..{} (coterie {}): {}",
            self.h3_start + 1,
            self.h3_end,
            self.coterie,
            self.violation
        )
    }
}

/// Outcome of an `ftss` check: which obligations were checked and which
/// failed.
#[derive(Clone, Debug, Default)]
pub struct FtssReport {
    /// Number of `(H₂, H₃)` decompositions whose obligation was evaluated.
    pub obligations_checked: usize,
    /// The failed obligations.
    pub violations: Vec<FtssViolation>,
}

impl FtssReport {
    /// Whether every checked obligation held.
    pub fn is_satisfied(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for FtssReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_satisfied() {
            write!(f, "ftss OK ({} obligations)", self.obligations_checked)
        } else {
            writeln!(
                f,
                "ftss FAILED ({} of {} obligations):",
                self.violations.len(),
                self.obligations_checked
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Def. 2.1: checks `Σ(H, F(H, Π))` on a single recorded history.
pub fn ft_check<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
) -> Result<(), Violation> {
    problem.check(history.as_slice(), &history.faulty())
}

/// Def. 2.2: checks `Σ(H', ∅)` where `H'` is the `r`-suffix of the
/// history — the self-stabilization-only notion (no process failures
/// admitted, so the faulty set passed to `Σ` is empty).
pub fn ss_check<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
    stabilization_time: usize,
) -> Result<(), Violation> {
    let n = history.n();
    problem.check(history.suffix(stabilization_time), &ProcessSet::empty(n))
}

/// The smallest prefix length `m` at which `H₃` may begin (the end of
/// `H₁·H₂`) in stable window `w`: the window must contain
/// `[m − r + 1, m]`, i.e. `m − r + 1 ≥ w.from_len`. With `r = 0`, `H₁·H₂`
/// may be empty, so `m = 0` is admissible for the first window. Saturates:
/// an `r` past every window triggers no obligation.
fn earliest_h3_start(w: &StableWindow, stabilization_time: usize) -> usize {
    if stabilization_time == 0 && w.from_len == 1 {
        0
    } else {
        w.from_len
            .saturating_add(stabilization_time.saturating_sub(1))
    }
}

/// The measured stabilization time on an explicit window: the smallest
/// `s` such that `Σ(H[from_len − 1 + s .. to_len], F)` holds, `F` being the
/// faulty set up to `to_len`; `None` if no offset inside the window
/// satisfies `Σ`. The caller guarantees `1 ≤ from_len ≤ to_len ≤ |H|` and
/// that round `from_len` is still retained.
pub fn stabilization_offset<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
    from_len: usize,
    to_len: usize,
) -> Option<usize> {
    let faulty = history.faulty_upto(to_len);
    (0..=to_len - from_len).find(|s| {
        problem
            .check(history.slice(from_len - 1 + s, to_len), &faulty)
            .is_ok()
    })
}

/// Def. 2.4, exhaustive: evaluates **every** decomposition obligation on
/// the recorded history.
///
/// For each maximal coterie-stable window `[a, b]` (prefix lengths), each
/// choice of `m` with `m − r + 1 ≥ a` (so at least `r` stable rounds
/// precede `H₃`) and each `e ∈ (m, b]`, checks
/// `Σ(H[m..e], F(prefix e))`.
///
/// Cost is `O(W·L²)` predicate evaluations for a window of length `L`;
/// intended for test-sized histories. Benchmarks and long runs should use
/// [`ftss_check_suffix`].
pub fn ftss_check<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
    stabilization_time: usize,
) -> FtssReport {
    let timeline = CoterieTimeline::compute(history);
    let mut report = FtssReport::default();
    for w in timeline.stable_windows() {
        for m in earliest_h3_start(&w, stabilization_time)..=w.to_len {
            for e in (m + 1)..=w.to_len {
                report.obligations_checked += 1;
                let faulty = history.faulty_upto(e);
                if let Err(v) = problem.check(history.slice(m, e), &faulty) {
                    report.violations.push(FtssViolation {
                        h3_start: m,
                        h3_end: e,
                        coterie: w.coterie.clone(),
                        violation: v,
                    });
                }
            }
        }
    }
    report
}

/// Def. 2.4, final-window-only: checks the single *largest* obligation of
/// the last coterie-stable window — `H₃` = everything after the first
/// `stabilization_time` rounds of the final window.
///
/// For problems that are conjunctions over rounds (all the specs in this
/// repository), the largest `H₃` of a window subsumes its sub-slices, so
/// this is the practical check for long histories. Returns `Ok(None)` if
/// the final window is shorter than the stabilization time (no obligation
/// is triggered — Definition 2.4 is vacuously satisfied).
#[allow(clippy::result_large_err)] // callers immediately format or assert on it
pub fn ftss_check_suffix<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
    stabilization_time: usize,
) -> Result<Option<StableWindowCheck>, FtssViolation> {
    let timeline = CoterieTimeline::compute(history);
    let Some(w) = timeline.final_window() else {
        return Ok(None);
    };
    if w.duration() <= stabilization_time {
        return Ok(None);
    }
    let m = earliest_h3_start(&w, stabilization_time);
    let e = w.to_len;
    let faulty = history.faulty_upto(e);
    match problem.check(history.slice(m, e), &faulty) {
        Ok(()) => Ok(Some(StableWindowCheck {
            h3_start: m,
            h3_end: e,
            coterie: w.coterie,
        })),
        Err(v) => Err(FtssViolation {
            h3_start: m,
            h3_end: e,
            coterie: w.coterie,
            violation: v,
        }),
    }
}

/// The obligation that [`ftss_check_suffix`] verified: which rounds formed
/// `H₃` and under which coterie.
#[derive(Clone, Debug)]
pub struct StableWindowCheck {
    /// 0-based index of the first round of `H₃`.
    pub h3_start: usize,
    /// 0-based index one past the last round of `H₃`.
    pub h3_end: usize,
    /// The stable coterie.
    pub coterie: ProcessSet,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundHistory;
    use crate::problem::RateAgreementSpec;
    use crate::round::RoundCounter;
    use crate::ProcessId;

    type H = History<(), u8>;

    /// Full-exchange round where process `i` has counter `cs[i]`.
    fn full_round(cs: &[u64]) -> RoundHistory<(), u8> {
        let everyone = ProcessSet::full(cs.len());
        let mut rh = RoundHistory::empty(cs.len());
        for (i, &c) in cs.iter().enumerate() {
            let p = ProcessId(i);
            rh.set_process(p, Some(()), Some(RoundCounter::new(c)), false, false);
            rh.set_broadcast(p, 0.into());
        }
        rh.open_clean_block(&everyone);
        rh.record_clean_block(&everyone);
        rh
    }

    #[test]
    fn ft_check_passes_and_fails() {
        let mut h = H::new(2);
        h.push(full_round(&[1, 1]));
        h.push(full_round(&[2, 2]));
        assert!(ft_check(&h, &RateAgreementSpec::new()).is_ok());

        let mut bad = H::new(2);
        bad.push(full_round(&[1, 2]));
        assert!(ft_check(&bad, &RateAgreementSpec::new()).is_err());
    }

    #[test]
    fn ss_check_skips_prefix() {
        // Disagreement in round 1, converged from round 2 on: ss-solves
        // with stabilization time 1.
        let mut h = H::new(2);
        h.push(full_round(&[9, 1]));
        h.push(full_round(&[10, 10]));
        h.push(full_round(&[11, 11]));
        assert!(ss_check(&h, &RateAgreementSpec::new(), 1).is_ok());
        assert!(ss_check(&h, &RateAgreementSpec::new(), 0).is_err());
    }

    #[test]
    fn ftss_check_converged_run_is_satisfied() {
        // Full communication every round ⇒ coterie = all from round 1 on,
        // one stable window. Counters disagree in round 1 (systemic
        // failure) and agree from round 2: with stabilization time 1 the
        // obligations only cover H3 ⊆ rounds 2.., all fine.
        let mut h = H::new(2);
        h.push(full_round(&[9, 1]));
        h.push(full_round(&[10, 10]));
        h.push(full_round(&[11, 11]));
        h.push(full_round(&[12, 12]));
        let rep = ftss_check(&h, &RateAgreementSpec::new(), 1);
        assert!(rep.is_satisfied(), "{rep}");
        assert!(rep.obligations_checked > 0);
    }

    #[test]
    fn ftss_check_catches_violation_inside_stable_window() {
        let mut h = H::new(2);
        h.push(full_round(&[1, 1]));
        h.push(full_round(&[2, 2]));
        h.push(full_round(&[3, 99])); // divergence while coterie stable
        h.push(full_round(&[4, 100]));
        let rep = ftss_check(&h, &RateAgreementSpec::new(), 1);
        assert!(!rep.is_satisfied());
        let v = &rep.violations[0];
        assert!(v.h3_end >= 3);
    }

    /// A larger `r` is a weaker claim: the largest one triggers no
    /// obligation at all (`m` once wrapped past `usize::MAX` into the
    /// window's start).
    #[test]
    fn ftss_check_with_the_largest_stabilization_time_is_vacuous() {
        let mut h = H::new(2);
        h.push(full_round(&[1, 1]));
        h.push(full_round(&[2, 2]));
        h.push(full_round(&[3, 99]));
        h.push(full_round(&[4, 100]));
        let rep = ftss_check(&h, &RateAgreementSpec::new(), usize::MAX);
        assert!(rep.is_satisfied(), "{rep}");
        assert_eq!(rep.obligations_checked, 0);
    }

    #[test]
    fn ftss_suffix_matches_exhaustive_on_conjunctive_spec() {
        let mut h = H::new(2);
        h.push(full_round(&[5, 2]));
        h.push(full_round(&[6, 6]));
        h.push(full_round(&[7, 7]));
        h.push(full_round(&[8, 8]));
        let exhaustive = ftss_check(&h, &RateAgreementSpec::new(), 1);
        let suffix = ftss_check_suffix(&h, &RateAgreementSpec::new(), 1);
        assert_eq!(exhaustive.is_satisfied(), suffix.is_ok());
        let checked = suffix.unwrap().unwrap();
        assert_eq!(checked.h3_end, 4);
    }

    #[test]
    fn ftss_suffix_vacuous_when_window_too_short() {
        let mut h = H::new(2);
        h.push(full_round(&[1, 1]));
        let r = ftss_check_suffix(&h, &RateAgreementSpec::new(), 5);
        assert!(matches!(r, Ok(None)));
    }

    #[test]
    fn ftss_empty_history() {
        let h = H::new(3);
        let rep = ftss_check(&h, &RateAgreementSpec::new(), 1);
        assert!(rep.is_satisfied());
        assert_eq!(rep.obligations_checked, 0);
        assert!(matches!(
            ftss_check_suffix(&h, &RateAgreementSpec::new(), 1),
            Ok(None)
        ));
    }

    #[test]
    fn report_display() {
        let mut rep = FtssReport {
            obligations_checked: 3,
            ..FtssReport::default()
        };
        assert!(rep.to_string().contains("OK"));
        rep.violations.push(FtssViolation {
            h3_start: 0,
            h3_end: 1,
            coterie: ProcessSet::full(2),
            violation: Violation::new("agreement", "x"),
        });
        assert!(rep.to_string().contains("FAILED"));
    }
}
