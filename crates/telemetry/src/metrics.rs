//! The [`Metrics`] accumulator: a [`TraceSink`] that folds an event
//! stream into the per-run quantities the experiments report — traffic
//! per round, drops by attributed side, coterie size over time, and the
//! measured stabilization time.
//!
//! It can run live (teed next to a JSONL sink) or replay a recorded trace
//! file; either way the same events produce the same numbers.

use crate::event::{Event, RunMode};
use crate::sink::TraceSink;
use ftss_core::{DeliveryOutcome, ProcessId};

/// Traffic totals of one observer round (from `round_end` events).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundTraffic {
    /// The round.
    pub round: u64,
    /// Copies emitted.
    pub sent: u64,
    /// Copies that arrived.
    pub delivered: u64,
    /// Copies lost.
    pub dropped: u64,
}

/// Aggregated measurements over one trace.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Trace mode, from the `run_start` event.
    pub mode: Option<RunMode>,
    /// Protocol name, from `run_start`.
    pub protocol: String,
    /// Number of processes, from `run_start`.
    pub n: usize,
    /// Estimated in-memory size of one message payload (sync traces).
    pub msg_size: usize,
    /// Highest observer round seen.
    pub rounds: u64,
    /// Latest virtual time seen (async traces).
    pub end_time: u64,
    /// Synchronous copies emitted (excluding self-copies).
    pub sent: u64,
    /// Synchronous copies delivered.
    pub delivered: u64,
    /// Copies the faulty *sender* omitted.
    pub dropped_by_sender: u64,
    /// Copies the faulty *receiver* omitted.
    pub dropped_by_receiver: u64,
    /// Copies lost to a crash (either side), with nobody deviating.
    pub dropped_by_crash: u64,
    /// Copies a Byzantine sender replaced with a forged payload (the copy
    /// still arrives, so it also counts as delivered).
    pub forged: u64,
    /// Asynchronous messages delivered.
    pub async_delivered: u64,
    /// Asynchronous messages discarded at a crashed receiver.
    pub async_dropped_to_crashed: u64,
    /// Timer firings.
    pub timers_fired: u64,
    /// Systemic failures injected.
    pub corruptions: u64,
    /// Round/time of the last systemic failure.
    pub last_corruption: Option<u64>,
    /// Crashes, in emission order.
    pub crashes: Vec<(u64, ProcessId)>,
    /// Per-round traffic, in round order.
    pub per_round: Vec<RoundTraffic>,
    /// Coterie size after each membership change: `(prefix length, size)`.
    pub coterie_sizes: Vec<(u64, usize)>,
    /// Measured stabilization: `(prefix length it holds from, rounds)`.
    pub stabilization: Option<(u64, u64)>,
    /// Suspicion-list churn: verdicts that flipped to *suspected*.
    pub suspicions_raised: u64,
    /// Suspicion-list churn: verdicts that flipped back to *trusted*.
    pub suspicions_cleared: u64,
    /// Completed iterations with an output (`decision` events).
    pub decisions: u64,
    /// Chaos-soak storm epochs opened (`storm_start` events).
    pub storms: u64,
    /// Storm epochs whose recovery was verified within its bound.
    pub recoveries_ok: u64,
    /// Storm epochs whose recovery verification failed.
    pub recoveries_failed: u64,
    /// Soak budgets tripped (`budget_exhausted` events).
    pub budgets_exhausted: u64,
    /// Framed node broadcasts ingested by the socket runtime (`net_frame`
    /// events).
    pub net_frames: u64,
    /// Total framed payload bytes ingested (`net_frame` `bytes` sums).
    pub net_bytes: u64,
}

impl Metrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Replays a whole trace (any iterator of events) into a fresh
    /// accumulator.
    pub fn from_events<'a, I: IntoIterator<Item = &'a Event>>(events: I) -> Self {
        let mut m = Metrics::new();
        for ev in events {
            m.emit(ev);
        }
        m
    }

    /// Estimated traffic volume: delivered copies × message size.
    pub fn delivered_volume(&self) -> u64 {
        self.delivered * self.msg_size as u64
    }

    /// The measured rounds-to-stabilization, if the trace recorded one.
    pub fn rounds_to_stabilization(&self) -> Option<u64> {
        self.stabilization.map(|(_, s)| s)
    }

    /// The coterie size at the end of the trace, if any change was seen.
    pub fn final_coterie_size(&self) -> Option<usize> {
        self.coterie_sizes.last().map(|&(_, s)| s)
    }

    /// Number of coterie membership changes after the first formation.
    pub fn coterie_changes(&self) -> usize {
        self.coterie_sizes.len().saturating_sub(1)
    }
}

impl TraceSink for Metrics {
    fn emit(&mut self, event: &Event) {
        match event {
            Event::RunStart {
                mode,
                protocol,
                n,
                rounds: _,
                msg_size,
            } => {
                self.mode = Some(*mode);
                self.protocol = protocol.clone();
                self.n = *n;
                self.msg_size = msg_size.unwrap_or(0);
            }
            Event::RoundStart { round } => self.rounds = self.rounds.max(*round),
            Event::RoundEnd {
                round,
                sent,
                delivered,
                dropped,
            } => {
                self.rounds = self.rounds.max(*round);
                self.per_round.push(RoundTraffic {
                    round: *round,
                    sent: *sent,
                    delivered: *delivered,
                    dropped: *dropped,
                });
            }
            Event::Corruption { round, .. } => {
                self.corruptions += 1;
                self.last_corruption = Some(*round);
            }
            Event::Send { outcome, .. } => {
                self.sent += 1;
                match outcome {
                    DeliveryOutcome::Delivered => self.delivered += 1,
                    DeliveryOutcome::Forged => {
                        self.delivered += 1;
                        self.forged += 1;
                    }
                    DeliveryOutcome::DroppedBySender => self.dropped_by_sender += 1,
                    DeliveryOutcome::DroppedByReceiver => self.dropped_by_receiver += 1,
                    DeliveryOutcome::ReceiverCrashed | DeliveryOutcome::SenderCrashed => {
                        self.dropped_by_crash += 1
                    }
                    // Timing faults still deliver (late / twice) — the copy
                    // is never lost, so it counts as delivered.
                    DeliveryOutcome::Delayed | DeliveryOutcome::Duplicated => self.delivered += 1,
                }
            }
            Event::Deliver { time, .. } => {
                self.async_delivered += 1;
                self.end_time = self.end_time.max(*time);
            }
            Event::DropToCrashed { time, .. } => {
                self.async_dropped_to_crashed += 1;
                self.end_time = self.end_time.max(*time);
            }
            Event::Timer { time, .. } => {
                self.timers_fired += 1;
                self.end_time = self.end_time.max(*time);
            }
            Event::Crash { at, p } => self.crashes.push((*at, *p)),
            Event::CoterieChange { round, size, .. } => self.coterie_sizes.push((*round, *size)),
            Event::Stabilization { round, rounds } => self.stabilization = Some((*round, *rounds)),
            Event::Suspicion { suspected, .. } => {
                if *suspected {
                    self.suspicions_raised += 1;
                } else {
                    self.suspicions_cleared += 1;
                }
            }
            Event::Decision { .. } => self.decisions += 1,
            Event::StormStart { .. } => self.storms += 1,
            // Storm close carries no aggregate beyond what storm_start and
            // recovery_measured already count.
            Event::StormEnd { .. } => {}
            Event::RecoveryMeasured { ok, .. } => {
                if *ok {
                    self.recoveries_ok += 1;
                } else {
                    self.recoveries_failed += 1;
                }
            }
            Event::BudgetExhausted { .. } => self.budgets_exhausted += 1,
            Event::NetFrame { bytes, .. } => {
                self.net_frames += 1;
                self.net_bytes += bytes;
            }
            // Connection lifecycle carries no aggregate quantity.
            Event::NetListen { .. }
            | Event::NetConnect { .. }
            | Event::NetClose { .. }
            | Event::NetStaleFrame { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_sync_traffic_and_drops_by_side() {
        let events = [
            Event::RunStart {
                mode: RunMode::Sync,
                protocol: "p".into(),
                n: 3,
                rounds: Some(2),
                msg_size: Some(16),
            },
            Event::RoundStart { round: 1 },
            Event::Send {
                round: 1,
                from: ProcessId(0),
                to: ProcessId(1),
                outcome: DeliveryOutcome::Delivered,
            },
            Event::Send {
                round: 1,
                from: ProcessId(0),
                to: ProcessId(2),
                outcome: DeliveryOutcome::DroppedBySender,
            },
            Event::Send {
                round: 1,
                from: ProcessId(1),
                to: ProcessId(0),
                outcome: DeliveryOutcome::DroppedByReceiver,
            },
            Event::Send {
                round: 1,
                from: ProcessId(2),
                to: ProcessId(0),
                outcome: DeliveryOutcome::ReceiverCrashed,
            },
            Event::RoundEnd {
                round: 1,
                sent: 4,
                delivered: 1,
                dropped: 3,
            },
        ];
        let m = Metrics::from_events(events.iter());
        assert_eq!(m.mode, Some(RunMode::Sync));
        assert_eq!(m.n, 3);
        assert_eq!(m.sent, 4);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.dropped_by_sender, 1);
        assert_eq!(m.dropped_by_receiver, 1);
        assert_eq!(m.dropped_by_crash, 1);
        assert_eq!(m.delivered_volume(), 16);
        assert_eq!(m.rounds, 1);
        assert_eq!(m.per_round.len(), 1);
        assert_eq!(m.per_round[0].dropped, 3);
    }

    #[test]
    fn tracks_coterie_and_stabilization() {
        let events = [
            Event::CoterieChange {
                round: 1,
                size: 2,
                members: vec![ProcessId(0), ProcessId(1)],
            },
            Event::CoterieChange {
                round: 4,
                size: 3,
                members: vec![ProcessId(0), ProcessId(1), ProcessId(2)],
            },
            Event::Stabilization {
                round: 5,
                rounds: 1,
            },
        ];
        let m = Metrics::from_events(events.iter());
        assert_eq!(m.coterie_sizes, vec![(1, 2), (4, 3)]);
        assert_eq!(m.coterie_changes(), 1);
        assert_eq!(m.final_coterie_size(), Some(3));
        assert_eq!(m.rounds_to_stabilization(), Some(1));
    }

    #[test]
    fn accumulates_async_quantities() {
        let events = [
            Event::RunStart {
                mode: RunMode::Async,
                protocol: String::new(),
                n: 2,
                rounds: None,
                msg_size: None,
            },
            Event::Deliver {
                time: 10,
                from: ProcessId(0),
                to: ProcessId(1),
            },
            Event::Timer {
                time: 50,
                p: ProcessId(0),
            },
            Event::Crash {
                at: 60,
                p: ProcessId(1),
            },
            Event::DropToCrashed {
                time: 70,
                from: ProcessId(0),
                to: ProcessId(1),
            },
            Event::Suspicion {
                at: 80,
                observer: ProcessId(0),
                target: ProcessId(1),
                suspected: true,
            },
            Event::Suspicion {
                at: 90,
                observer: ProcessId(0),
                target: ProcessId(1),
                suspected: false,
            },
        ];
        let m = Metrics::from_events(events.iter());
        assert_eq!(m.mode, Some(RunMode::Async));
        assert_eq!(m.async_delivered, 1);
        assert_eq!(m.async_dropped_to_crashed, 1);
        assert_eq!(m.timers_fired, 1);
        assert_eq!(m.end_time, 70);
        assert_eq!(m.crashes, vec![(60, ProcessId(1))]);
        assert_eq!(m.suspicions_raised, 1);
        assert_eq!(m.suspicions_cleared, 1);
    }

    #[test]
    fn accumulates_soak_quantities() {
        let events = [
            Event::StormStart {
                epoch: 0,
                at: 1,
                kind: "partition".into(),
            },
            Event::StormEnd { epoch: 0, at: 3 },
            Event::RecoveryMeasured {
                epoch: 0,
                at: 12,
                rounds: 1,
                bound: 1,
                ok: true,
            },
            Event::StormStart {
                epoch: 1,
                at: 13,
                kind: "silence-churn".into(),
            },
            Event::StormEnd { epoch: 1, at: 15 },
            Event::RecoveryMeasured {
                epoch: 1,
                at: 24,
                rounds: 0,
                bound: 1,
                ok: false,
            },
            Event::BudgetExhausted {
                at: 24,
                budget: "rounds".into(),
            },
        ];
        let m = Metrics::from_events(events.iter());
        assert_eq!(m.storms, 2);
        assert_eq!(m.recoveries_ok, 1);
        assert_eq!(m.recoveries_failed, 1);
        assert_eq!(m.budgets_exhausted, 1);
    }
}
