//! Soak verdicts: per-epoch recovery outcomes and the per-cell report.

use ftss::telemetry::Event;

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
