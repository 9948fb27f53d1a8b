//! Empirical stabilization-time measurement.

use ftss_core::{stabilization_offset, CoterieTimeline, History, Problem};

/// The result of measuring a run's stabilization time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StabilizationMeasurement {
    /// The smallest `r` such that the problem holds on the final stable
    /// window once its first `r` rounds are skipped; `None` if the problem
    /// never becomes satisfied within the window.
    pub stabilization_rounds: Option<usize>,
    /// First prefix length of the final coterie-stable window.
    pub window_start: usize,
    /// Last prefix length of the final window (= history length).
    pub window_end: usize,
}

impl StabilizationMeasurement {
    /// The duration of the final stable window.
    pub fn window_len(&self) -> usize {
        self.window_end - self.window_start + 1
    }
}

/// Measures the empirical stabilization time of a recorded run against a
/// problem `Σ`: within the final coterie-stable window `[a, b]`, the
/// smallest `s` such that `Σ(H[a−1+s .. b], F)` is satisfied.
///
/// For `Σ`s that are conjunctions over rounds (all specs in this
/// repository), this is exactly the Definition-2.4 stabilization time
/// restricted to the run's final window.
///
/// Returns `None` if the history is empty.
pub fn measured_stabilization_time<S, M>(
    history: &History<S, M>,
    problem: &dyn Problem<S, M>,
) -> Option<StabilizationMeasurement> {
    let timeline = CoterieTimeline::compute(history);
    let w = timeline.final_window()?;
    Some(StabilizationMeasurement {
        stabilization_rounds: stabilization_offset(history, problem, w.from_len, w.to_len),
        window_start: w.from_len,
        window_end: w.to_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{ProcessId, RateAgreementSpec};
    use ftss_protocols::RoundAgreement;
    use ftss_sync_sim::{NoFaults, RunConfig, SilentProcess, SyncRunner};

    #[test]
    fn round_agreement_measures_at_most_one() {
        for seed in 0..20 {
            let out = SyncRunner::new(RoundAgreement)
                .run(&mut NoFaults, &RunConfig::corrupted(4, 10, seed))
                .unwrap();
            let m = measured_stabilization_time(&out.history, &RateAgreementSpec::new())
                .expect("non-empty");
            let s = m.stabilization_rounds.expect("stabilizes");
            assert!(s <= 1, "seed {seed}: measured {s}");
            assert_eq!(m.window_start, 1);
            assert_eq!(m.window_end, 10);
            assert_eq!(m.window_len(), 10);
        }
    }

    #[test]
    fn clean_run_measures_zero() {
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &RunConfig::clean(3, 6))
            .unwrap();
        let m = measured_stabilization_time(&out.history, &RateAgreementSpec::new()).unwrap();
        assert_eq!(m.stabilization_rounds, Some(0));
    }

    #[test]
    fn window_reflects_coterie_change() {
        // p0 silent 3 rounds then joins: the final window starts when the
        // coterie absorbs p0.
        let mut adv = SilentProcess::new(ProcessId(0), 3);
        let out = SyncRunner::new(RoundAgreement)
            .run(&mut adv, &RunConfig::corrupted(3, 10, 5))
            .unwrap();
        let m = measured_stabilization_time(&out.history, &RateAgreementSpec::new()).unwrap();
        assert!(m.window_start >= 4, "window starts after the merge: {m:?}");
        assert!(m.stabilization_rounds.is_some());
    }

    #[test]
    fn empty_history_yields_none() {
        let h: History<(), ()> = History::new(2);
        assert!(measured_stabilization_time(&h, &RateAgreementSpec::new()).is_none());
    }
}
