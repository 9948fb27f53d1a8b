//! Property oracles: Theorems 3–5 as plain functions over recorded runs.
//!
//! An oracle inspects a finished run (a [`History`] or a probe sequence)
//! and returns a [`Verdict`]: `None` for "property holds", `Some(detail)`
//! for a violation. Oracles contain no checking logic of their own — they
//! delegate to the theory layer (`ftss_core::ftss_check`,
//! `ftss_analysis::measured_stabilization_time`,
//! `ftss_detectors::properties`) and compress the result into a single
//! line suitable for schedule files and CLI output.

use ftss::analysis::measured_stabilization_time;
use ftss::core::{
    ftss_check, stabilization_offset, History, Problem, ProcessSet, RateAgreementSpec,
};
use ftss::detectors::{eventual_weak_accuracy, strong_completeness_time, SuspectProbe};

/// `None` = property holds; `Some(detail)` = violation, one line.
pub type Verdict = Option<String>;

/// Flattens a multi-line message into the single line the schedule-file
/// format requires.
fn one_line(s: &str) -> String {
    s.split('\n')
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("; ")
}

/// **Theorem 3**: round agreement ftss-solved with stabilization time
/// `stabilization` (the theorem proves 1). Checks *every* Definition-2.4
/// obligation of the history via [`ftss_check`].
pub fn thm3_round_agreement<S, M>(history: &History<S, M>, stabilization: usize) -> Verdict {
    let report = ftss_check(history, &RateAgreementSpec::new(), stabilization);
    if report.is_satisfied() {
        None
    } else {
        let first = &report.violations[0];
        Some(one_line(&format!(
            "thm3: {} of {} obligations failed at stabilization {}; first: {}",
            report.violations.len(),
            report.obligations_checked,
            stabilization,
            first
        )))
    }
}

/// **Theorem 4**: a compiled `Π⁺` stabilizes within `bound` rounds of the
/// final stable window (the theorem proves `2·final_round + 2`). Measured
/// empirically on the final coterie-stable window, so it composes with
/// mid-run corruption and omission adversaries.
pub fn thm4_compiled<S, M>(
    history: &History<S, M>,
    spec: &dyn Problem<S, M>,
    bound: usize,
) -> Verdict {
    let Some(m) = measured_stabilization_time(history, spec) else {
        return Some("thm4: empty history".into());
    };
    match m.stabilization_rounds {
        Some(s) if s <= bound => None,
        Some(s) => Some(format!(
            "thm4: stabilized in {s} rounds, bound is {bound} (window {}..{})",
            m.window_start, m.window_end
        )),
        None => Some(format!(
            "thm4: never satisfied within final window {}..{} (bound {bound})",
            m.window_start, m.window_end
        )),
    }
}

/// [`thm4_compiled`]'s *decided* variant: a violation is reported only
/// when no extension of the run could repair it. A window of duration
/// `d ≤ bound` that has not yet satisfied the problem is still open —
/// offsets `d..=bound` have not happened — so [`thm4_compiled`] calls it
/// "never satisfied" while this oracle stays silent. Once the window
/// outlives the bound (or the measured time exceeds it), every offset
/// `s ≤ bound` has failed for good: agreement at a past prefix and the
/// rates behind it are history, so the verdict can only be confirmed by
/// more rounds, never reversed. This is the whole-history counterpart of
/// the per-edge stabilization-time atom in [`crate::frontier::check_edge`]
/// (graph mode must not flag windows that are merely young, or every
/// corrupted start would "violate" at depth 1).
pub fn thm4_decided<S, M>(
    history: &History<S, M>,
    spec: &dyn Problem<S, M>,
    bound: usize,
) -> Verdict {
    let m = measured_stabilization_time(history, spec)?;
    match m.stabilization_rounds {
        Some(s) if s <= bound => None,
        Some(s) => Some(format!(
            "thm4: stabilized in {s} rounds, bound is {bound} (window {}..{})",
            m.window_start, m.window_end
        )),
        None if m.window_len() > bound => Some(format!(
            "thm4: no offset <= {bound} satisfies window {}..{}",
            m.window_start, m.window_end
        )),
        None => None, // window younger than the bound: still open
    }
}

/// Piece-wise stability on an *explicit* window: the smallest `s` such
/// that `problem` holds on the prefix-length window `[from_len − 1 + s,
/// to_len]`, with the faulty set taken up to `to_len`. This is
/// [`measured_stabilization_time`] generalized from the final
/// coterie-stable window to any caller-chosen window — the seam the chaos
/// engine (`ftss-chaos`) uses to verify recovery *per storm epoch*,
/// measuring from the end of each storm instead of only once per run.
///
/// Returns `Ok(s)` when the measured stabilization `s` is within `bound`.
///
/// # Errors
///
/// * the window is out of range for the history,
/// * the problem first holds at `s > bound`, or
/// * the problem never holds anywhere in the window.
pub fn window_stabilization<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
    from_len: usize,
    to_len: usize,
    bound: usize,
) -> Result<usize, String> {
    if from_len == 0 || from_len > to_len || to_len > history.len() {
        return Err(format!(
            "window {from_len}..{to_len} out of range for a {}-round history",
            history.len()
        ));
    }
    // On a windowed history the slice below starts at prefix `from_len − 1`;
    // asking for anything inside the evicted region would panic in
    // `History::slice`, so refuse it here with a real error instead.
    if from_len - 1 < history.evicted() {
        return Err(format!(
            "window {from_len}..{to_len} starts inside the evicted region \
             ({} rounds evicted from the retention window)",
            history.evicted()
        ));
    }
    match stabilization_offset(history, problem, from_len, to_len) {
        Some(s) if s <= bound => Ok(s),
        Some(s) => Err(format!(
            "stabilized {s} rounds into window {from_len}..{to_len}, bound is {bound}"
        )),
        None => Err(format!(
            "never satisfied within window {from_len}..{to_len} (bound {bound})"
        )),
    }
}

/// **Theorem 5**: the self-stabilizing ◇S detector settles — strong
/// completeness (every crashed process eventually suspected by all
/// correct processes; vacuous with no crashes) and eventual weak accuracy
/// (some correct process eventually trusted by all correct processes) —
/// even after a corrupted prefix.
pub fn thm5_detector(
    probes: &[SuspectProbe],
    crashed: &ProcessSet,
    correct: &ProcessSet,
) -> Verdict {
    let comp = strong_completeness_time(probes, crashed, correct);
    if comp.is_none() && !crashed.is_empty() {
        return Some("thm5: strong completeness never settled".into());
    }
    if eventual_weak_accuracy(probes, correct).is_none() {
        return Some("thm5: eventual weak accuracy never settled".into());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss::core::RateAgreementSpec;
    use ftss::protocols::RoundAgreement;
    use ftss::sync_sim::{NoFaults, RunConfig, SyncRunner};

    #[test]
    fn window_stabilization_matches_full_run_measurement() {
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &RunConfig::corrupted(4, 10, 3))
            .unwrap();
        // Whole run, generous bound: same answer as the final-window
        // measurement (the clean run's final window spans everything).
        let s = window_stabilization(&out.history, &RateAgreementSpec::new(), 1, 10, 1)
            .expect("recovers within Thm 3's bound");
        assert!(s <= 1);
        // A sub-window starting after stabilization measures zero.
        let s = window_stabilization(&out.history, &RateAgreementSpec::new(), 5, 10, 0).unwrap();
        assert_eq!(s, 0);
    }

    #[test]
    fn window_stabilization_rejects_bad_windows_and_tight_bounds() {
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &RunConfig::corrupted(3, 6, 7))
            .unwrap();
        assert!(window_stabilization(&out.history, &RateAgreementSpec::new(), 0, 6, 1).is_err());
        assert!(window_stabilization(&out.history, &RateAgreementSpec::new(), 4, 2, 1).is_err());
        assert!(window_stabilization(&out.history, &RateAgreementSpec::new(), 1, 99, 1).is_err());
        // Seed 7 genuinely disagrees at the corrupted start (see the thm3
        // test below), so a zero bound over the full window must fail and
        // name the measured value.
        let err = window_stabilization(&out.history, &RateAgreementSpec::new(), 1, 6, 0)
            .expect_err("corrupted start cannot satisfy bound 0");
        assert!(err.contains("bound is 0"), "got: {err}");
    }

    #[test]
    fn window_stabilization_at_the_eviction_boundary() {
        // 12 rounds retained to a window of 8: rounds 1..=4 are evicted,
        // so prefix lengths 1..=4 are gone and 5 is the first answerable
        // window start (`from_len − 1 == evicted()`).
        let out = crate::runbuild::RunBuilder::corrupted(4, 12, 3)
            .with_history_window(8)
            .run(&mut NoFaults);
        assert_eq!(out.history.evicted(), 4);
        // Exactly on the boundary: the oracle can answer.
        let s = window_stabilization(&out.history, &RateAgreementSpec::new(), 5, 12, 1)
            .expect("window starting at the first retained round is answerable");
        assert!(s <= 1);
        // One round earlier the slice would need an evicted frame: a real
        // error, not a panic.
        let err = window_stabilization(&out.history, &RateAgreementSpec::new(), 4, 12, 1)
            .expect_err("window reaching into the evicted region must be refused");
        assert!(err.contains("evicted"), "got: {err}");
        // Same for a window wholly inside the evicted prefix.
        let err = window_stabilization(&out.history, &RateAgreementSpec::new(), 1, 12, 1)
            .expect_err("fully evicted window start must be refused");
        assert!(err.contains("evicted"), "got: {err}");
    }

    #[test]
    fn thm3_passes_at_one_and_fails_at_zero_from_corruption() {
        // Seed picked so the corrupted start genuinely disagrees: the
        // stabilization-0 oracle must reject it, the theorem's bound of 1
        // must accept it (Theorem 3).
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &RunConfig::corrupted(3, 6, 7))
            .unwrap();
        assert_eq!(thm3_round_agreement(&out.history, 1), None);
        let v = thm3_round_agreement(&out.history, 0).expect("corrupted start violates r=0");
        assert!(v.starts_with("thm3:"), "got: {v}");
        assert!(!v.contains('\n'), "verdict must be one line: {v}");
    }
}
