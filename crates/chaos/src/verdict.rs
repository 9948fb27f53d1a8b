//! Soak verdicts: per-epoch recovery outcomes, the in-stream judge that
//! produces them, and the per-cell report.

use crate::guard::QuiescenceMonitor;
use crate::plan::{StormGeometry, StormScenario};
use ftss::core::{History, Problem};
use ftss::telemetry::Event;
use ftss_check::window_stabilization;

/// The overall outcome of one soak cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SoakVerdict {
    /// Every epoch recovered within its theorem bound and went quiet.
    Recovered,
    /// Some epoch failed its recovery obligation.
    Violated {
        /// The first failing epoch's oracle verdict, one line.
        detail: String,
    },
    /// Recovery verified, but some epoch's tail never went quiet.
    Livelock {
        /// Which epoch and how much churn, one line.
        detail: String,
    },
    /// A budget tripped and the cell was cut short.
    TimedOut {
        /// Which budget: `rounds`, `events` or `wall_clock`.
        budget: &'static str,
    },
    /// The cell panicked; the sweep executor isolated it.
    Panicked {
        /// The panic payload.
        message: String,
    },
}

impl SoakVerdict {
    /// Whether the cell fully recovered.
    pub fn is_recovered(&self) -> bool {
        matches!(self, SoakVerdict::Recovered)
    }
}

impl std::fmt::Display for SoakVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoakVerdict::Recovered => write!(f, "recovered"),
            SoakVerdict::Violated { detail } => write!(f, "violated: {detail}"),
            SoakVerdict::Livelock { detail } => write!(f, "livelock: {detail}"),
            SoakVerdict::TimedOut { budget } => write!(f, "timed out ({budget} budget)"),
            SoakVerdict::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

/// One epoch's recovery verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochVerdict {
    /// The oracle held within the bound.
    Recovered {
        /// Measured stabilization from the end of the storm — rounds
        /// (synchronous cells) or virtual time (asynchronous cells).
        rounds: u64,
    },
    /// The oracle rejected the recovery window.
    Violated {
        /// The oracle's verdict, one line.
        detail: String,
    },
    /// The oracle held but the epoch's tail kept churning.
    Livelock {
        /// Churn events observed in the tail of the recovery window.
        churn: u64,
    },
}

impl EpochVerdict {
    /// The one place an epoch is judged: turns the oracle's measurement
    /// — `Ok(recovery)` from [`ftss_check::window_stabilization`] (or a
    /// detector settle time), `Err(detail)` when the window never held —
    /// plus the quiescence monitor's finding (`Some(churn)` when the
    /// recovery tail kept churning) into the epoch's `recovery_measured`
    /// report line and its verdict. `at` stamps the epoch's close.
    pub fn measure(
        epoch: usize,
        at: u64,
        bound: u64,
        measured: Result<u64, String>,
        tail_churn: Option<u64>,
    ) -> (Event, EpochVerdict) {
        let rounds = *measured.as_ref().unwrap_or(&0);
        let verdict = match (measured, tail_churn) {
            (Err(detail), _) => EpochVerdict::Violated { detail },
            (Ok(_), Some(churn)) => EpochVerdict::Livelock { churn },
            (Ok(rounds), None) => EpochVerdict::Recovered { rounds },
        };
        let line = Event::RecoveryMeasured {
            epoch: epoch as u64,
            at,
            rounds,
            bound,
            ok: matches!(verdict, EpochVerdict::Recovered { .. }),
        };
        (line, verdict)
    }
}

/// Reads a cell's churn stamps (round numbers) off its history — the
/// quiescence monitor's input at an epoch's close.
pub type ChurnStamps<S, M> = fn(&History<S, M>) -> Vec<u64>;

/// The one in-stream epoch judge of every storm run:
/// [`StormScenario::drive`] hands it each round as it lands
/// ([`Self::on_round`], the streaming observer of either exchange), and it
/// closes epoch `e` the moment round `epoch_end(e)` does — Definition
/// 2.4's bounded question, asked of the rounds still resident. A run
/// judged this way never needs more than one epoch of history. The
/// asynchronous detector cell has no rounds to stream; it brings its own
/// measurement to [`Self::close`].
#[derive(Clone, Debug)]
pub struct EpochJudge {
    geom: StormGeometry,
    bound: u64,
    closed: Vec<(Event, EpochVerdict)>,
}

impl EpochJudge {
    /// A judge for runs of `geom`-shaped epochs whose recovery must fit
    /// `bound`.
    pub fn new(geom: StormGeometry, bound: u64) -> Self {
        EpochJudge {
            geom,
            bound,
            closed: Vec::new(),
        }
    }

    /// The streaming observer. When `history`'s newest round closes an
    /// epoch, measures `spec`'s stabilization on that epoch's window —
    /// opening where `scenario` says ([`StormScenario::window_from`]) —
    /// and the tail churn of `churn_stamps(history)` (none: no churn), and
    /// closes the epoch.
    ///
    /// # Panics
    ///
    /// If the history no longer retains the whole closing epoch: a
    /// verdict on a truncated window would be a lie.
    pub fn on_round<S, M>(
        &mut self,
        scenario: &StormScenario,
        history: &History<S, M>,
        spec: &dyn Problem<S, M>,
        churn_stamps: Option<ChurnStamps<S, M>>,
    ) {
        let e = self.closed.len();
        if history.len() as u64 != self.geom.epoch_end(e) {
            return;
        }
        assert!(
            (history.evicted() as u64) < self.geom.storm_start(e),
            "the {} retained rounds cannot hold epoch {e}'s {}",
            history.len() - history.evicted(),
            self.geom.epoch_len
        );
        let from = scenario.window_from(e) as usize;
        let bound = self.bound as usize;
        let measured = window_stabilization(history, spec, from, history.len(), bound);
        let stamps = churn_stamps.map_or_else(Vec::new, |stamps| stamps(history));
        self.close(measured.map(|s| s as u64), &stamps, history.n());
    }

    /// Closes the next epoch on a finished measurement — `Ok(recovery)`
    /// or why the window never held — and the run's churn stamps, of
    /// which the tail quarter of `(storm_end, epoch_end]` may hold at
    /// most `2n` ([`QuiescenceMonitor`]). Returns the epoch's
    /// `recovery_measured` report line.
    pub fn close(
        &mut self,
        measured: Result<u64, String>,
        churn_stamps: &[u64],
        n: usize,
    ) -> &Event {
        let e = self.closed.len();
        let (end, close) = (self.geom.storm_end(e), self.geom.epoch_end(e));
        let churn = QuiescenceMonitor::new(2 * n as u64).check(churn_stamps, end, close);
        self.closed
            .push(EpochVerdict::measure(e, close, self.bound, measured, churn));
        &self.closed[e].0
    }

    /// The epochs closed so far, in order: each one's `recovery_measured`
    /// report line and its verdict.
    pub fn closed(&self) -> &[(Event, EpochVerdict)] {
        &self.closed
    }

    /// The verdicts of the epochs closed so far.
    pub fn verdicts(&self) -> Vec<EpochVerdict> {
        self.closed.iter().map(|(_, v)| v.clone()).collect()
    }
}

/// One soak cell's full result: verdict, per-epoch detail, and the
/// cell's fragment of the deterministic JSONL soak report.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The cell's label (`scenario/variant`).
    pub cell: String,
    /// The cell's overall verdict.
    pub verdict: SoakVerdict,
    /// Per-epoch verdicts, in epoch order (may be shorter than the plan
    /// when a budget tripped mid-cell).
    pub epochs: Vec<EpochVerdict>,
    /// JSONL report fragment, one `ftss_telemetry::Event` per line.
    pub jsonl: String,
}

impl CellReport {
    /// Derives the overall verdict from per-epoch verdicts: the first
    /// violation wins, then the first livelock, else full recovery.
    pub fn from_epochs(cell: String, epochs: Vec<EpochVerdict>, jsonl: String) -> Self {
        let mut verdict = SoakVerdict::Recovered;
        for (e, ev) in epochs.iter().enumerate() {
            match ev {
                EpochVerdict::Violated { detail } => {
                    verdict = SoakVerdict::Violated {
                        detail: format!("epoch {e}: {detail}"),
                    };
                    break;
                }
                EpochVerdict::Livelock { churn } if verdict.is_recovered() => {
                    verdict = SoakVerdict::Livelock {
                        detail: format!("epoch {e}: {churn} churn events in the recovery tail"),
                    };
                }
                _ => {}
            }
        }
        CellReport {
            cell,
            verdict,
            epochs,
            jsonl,
        }
    }

    /// A cell cut short by a budget.
    pub fn timed_out(
        cell: String,
        budget: &'static str,
        epochs: Vec<EpochVerdict>,
        jsonl: String,
    ) -> Self {
        CellReport {
            cell,
            verdict: SoakVerdict::TimedOut { budget },
            epochs,
            jsonl,
        }
    }

    /// A cell that panicked (isolated by the sweep executor). The report
    /// fragment is empty: the panic site's partial trace is untrusted.
    pub fn panicked(cell: String, message: String) -> Self {
        CellReport {
            cell,
            verdict: SoakVerdict::Panicked { message },
            epochs: Vec::new(),
            jsonl: String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::storm_cycle;
    use ftss::core::{ProcessId, RateAgreementSpec};
    use ftss::protocols::{RoundAgreement, RoundAgreementState};
    use ftss::sync_sim::{NoFaults, RunConfig, SyncRunner};
    use ftss::telemetry::NullSink;

    /// Two clean epochs of round agreement (n = 4) under the judge, with
    /// `window` rounds of retention and the given churn extractor.
    fn judge_clean_run(
        window: usize,
        churn_stamps: Option<ChurnStamps<RoundAgreementState, u64>>,
    ) -> Vec<EpochVerdict> {
        let geom = StormGeometry::engine_default();
        // Only the scenario's window origins are used: the run is clean.
        let sc = StormScenario::new(0, 2, 4, storm_cycle(false), &[ProcessId(0)], geom, 2);
        let mut judge = EpochJudge::new(geom, 2);
        let cfg = RunConfig::clean(4, 2 * geom.epoch_len as usize).with_history_window(window);
        SyncRunner::new(RoundAgreement)
            .run_streaming(&mut NoFaults, &cfg, &mut NullSink, |history| {
                judge.on_round(&sc, history, &RateAgreementSpec::new(), churn_stamps)
            })
            .unwrap();
        judge.verdicts()
    }

    #[test]
    fn judge_closes_each_epoch_on_one_epoch_of_retention() {
        let recovered = EpochVerdict::Recovered { rounds: 0 };
        assert_eq!(judge_clean_run(12, None), [recovered.clone(), recovered]);
    }

    /// Broken judge must trip: the oracle holds on a clean run, so only
    /// the churn decides — quiet before the tail quarter of `(3, 12]`,
    /// livelock on more than `2n` stamps inside it.
    #[test]
    fn churn_in_the_tail_quarter_is_a_livelock() {
        let early: ChurnStamps<_, _> = |_| vec![10; 9];
        assert_eq!(
            judge_clean_run(12, Some(early))[0],
            EpochVerdict::Recovered { rounds: 0 }
        );
        let late: ChurnStamps<_, _> = |_| vec![11; 9];
        assert_eq!(
            judge_clean_run(12, Some(late))[0],
            EpochVerdict::Livelock { churn: 9 }
        );
    }

    #[test]
    #[should_panic(expected = "11 retained rounds cannot hold epoch 0's 12")]
    fn a_window_shorter_than_the_epoch_is_refused_not_judged() {
        judge_clean_run(11, None);
    }

    #[test]
    fn violation_beats_livelock_beats_recovery() {
        let r = CellReport::from_epochs(
            "c".into(),
            vec![
                EpochVerdict::Recovered { rounds: 1 },
                EpochVerdict::Livelock { churn: 40 },
                EpochVerdict::Violated {
                    detail: "thm3: nope".into(),
                },
            ],
            String::new(),
        );
        match &r.verdict {
            SoakVerdict::Violated { detail } => {
                assert!(detail.starts_with("epoch 2:"), "{detail}");
            }
            other => panic!("expected violation, got {other}"),
        }

        let r = CellReport::from_epochs(
            "c".into(),
            vec![
                EpochVerdict::Livelock { churn: 40 },
                EpochVerdict::Recovered { rounds: 0 },
            ],
            String::new(),
        );
        assert!(matches!(r.verdict, SoakVerdict::Livelock { .. }));

        let r = CellReport::from_epochs(
            "c".into(),
            vec![EpochVerdict::Recovered { rounds: 0 }],
            String::new(),
        );
        assert!(r.verdict.is_recovered());
    }

    #[test]
    fn verdict_display_is_one_line() {
        for v in [
            SoakVerdict::Recovered,
            SoakVerdict::Violated { detail: "d".into() },
            SoakVerdict::Livelock { detail: "d".into() },
            SoakVerdict::TimedOut { budget: "rounds" },
            SoakVerdict::Panicked {
                message: "m".into(),
            },
        ] {
            assert!(!v.to_string().contains('\n'), "{v}");
        }
    }
}
