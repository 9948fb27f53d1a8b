//! The plain Chandra–Toueg ◇S consensus protocol \[CT91\].
//!
//! Rotating coordinator, rounds subdivided into four phases:
//!
//! 1. every process sends its timestamped estimate to the round's
//!    coordinator;
//! 2. the coordinator gathers a majority of estimates and broadcasts the
//!    one with the greatest timestamp as its proposal;
//! 3. each process either adopts the proposal and *acks*, or — if the
//!    detector suspects the coordinator — *nacks* and moves on;
//! 4. the coordinator gathers a majority of replies; a majority of acks
//!    locks the value: it is decided and reliably broadcast.
//!
//! This implementation is deliberately faithful to the *initialized* CT
//! protocol: send-once semantics, in-order round progression and
//! future-round buffering. It `ft-solves` consensus (crash faults,
//! majority correct, ◇S), **but it is not self-stabilizing**: started from
//! a corrupted state, a process can wait in a round whose coordinator is
//! correct and therefore — by eventual accuracy! — never suspected, and
//! the wait never ends. Experiment E6 measures exactly this deadlock.

use crate::tags;
use ftss_async_sim::{AsyncProcess, Ctx, Time};
use ftss_core::{Corrupt, ProcessId};
use ftss_detectors::{LifeState, StrongDetectorProcess, WeakOracle};
use ftss_rng::Rng;

/// Messages of the plain CT protocol, plus the embedded detector's gossip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtMsg {
    /// Phase 1: `(round, value, ts)` to the coordinator.
    Estimate {
        /// Round this estimate belongs to.
        round: u64,
        /// The sender's current estimate.
        value: u64,
        /// Round in which the estimate was last adopted (0 = initial).
        ts: u64,
    },
    /// Phase 2: the coordinator's proposal.
    Proposal {
        /// Round of the proposal.
        round: u64,
        /// Proposed value.
        value: u64,
    },
    /// Phase 3: positive reply.
    Ack {
        /// Round being acknowledged.
        round: u64,
    },
    /// Phase 3: negative reply (coordinator suspected).
    Nack {
        /// Round being refused.
        round: u64,
    },
    /// Reliable broadcast of the decision.
    Decide {
        /// The decided value.
        value: u64,
    },
    /// Embedded ◇S detector gossip.
    Detector(Vec<(u64, LifeState)>),
}

/// One process of the plain CT protocol with an embedded Figure-4 ◇S
/// detector.
#[derive(Clone, Debug)]
pub struct CtConsensusProcess {
    me: ProcessId,
    n: usize,
    /// Current round (1-based).
    pub round: u64,
    /// Current estimate `(value, ts)`.
    pub est: (u64, u64),
    /// Whether this round's proposal has been received/adopted.
    pub got_proposal: bool,
    /// Coordinator state: estimates gathered this round.
    pub estimates: std::collections::BTreeMap<ProcessId, (u64, u64)>,
    /// Coordinator state: the proposal broadcast this round.
    pub proposal: Option<u64>,
    /// Coordinator state: replies gathered this round (`true` = ack).
    pub replies: std::collections::BTreeMap<ProcessId, bool>,
    /// The decision, once reached.
    pub decided: Option<u64>,
    /// Messages for future rounds, processed upon entering them.
    buffered: Vec<(ProcessId, CtMsg)>,
    detector: StrongDetectorProcess,
    poll_period: Time,
}

impl CtConsensusProcess {
    /// Creates a process with clean initial state: round 1, estimate =
    /// `input` with timestamp 0.
    pub fn new(me: ProcessId, n: usize, input: u64, oracle: WeakOracle, poll_period: Time) -> Self {
        CtConsensusProcess {
            me,
            n,
            round: 1,
            est: (input, 0),
            got_proposal: false,
            estimates: Default::default(),
            proposal: None,
            replies: Default::default(),
            decided: None,
            buffered: Vec::new(),
            detector: StrongDetectorProcess::new(me, oracle, poll_period),
            poll_period,
        }
    }

    /// The coordinator of `round` (rotating).
    pub fn coordinator(&self, round: u64) -> ProcessId {
        ProcessId(((round.saturating_sub(1)) % self.n as u64) as usize)
    }

    /// Majority threshold `⌈(n+1)/2⌉`.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// The decision, if reached.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    fn forward_detector(
        &mut self,
        ctx: &mut Ctx<CtMsg>,
        act: impl FnOnce(&mut StrongDetectorProcess, &mut Ctx<Vec<(u64, LifeState)>>),
    ) {
        let mut dctx: Ctx<Vec<(u64, LifeState)>> = Ctx::new(self.me, self.n, ctx.now());
        act(&mut self.detector, &mut dctx);
        let (sends, timers) = dctx.take_effects();
        for (to, m) in sends {
            ctx.send(to, CtMsg::Detector(m));
        }
        for (at, tag) in timers {
            ctx.set_timer_at(at, tags::DETECTOR_BASE + tag);
        }
    }

    fn enter_round(&mut self, ctx: &mut Ctx<CtMsg>, r: u64) {
        self.round = r;
        self.got_proposal = false;
        self.estimates.clear();
        self.proposal = None;
        self.replies.clear();
        let (v, ts) = self.est;
        ctx.send(
            self.coordinator(r),
            CtMsg::Estimate {
                round: r,
                value: v,
                ts,
            },
        );
        // Replay buffered messages that have become current.
        let mut due = Vec::new();
        let mut keep = Vec::new();
        for (from, m) in std::mem::take(&mut self.buffered) {
            if Self::round_of(&m) == Some(r) {
                due.push((from, m));
            } else {
                keep.push((from, m));
            }
        }
        self.buffered = keep;
        for (from, m) in due {
            self.handle_consensus(ctx, from, m);
        }
    }

    fn round_of(m: &CtMsg) -> Option<u64> {
        match m {
            CtMsg::Estimate { round, .. }
            | CtMsg::Proposal { round, .. }
            | CtMsg::Ack { round }
            | CtMsg::Nack { round } => Some(*round),
            _ => None,
        }
    }

    fn decide(&mut self, ctx: &mut Ctx<CtMsg>, v: u64) {
        if self.decided.is_none() {
            self.decided = Some(v);
            ctx.broadcast(CtMsg::Decide { value: v });
        }
    }

    fn try_propose(&mut self, ctx: &mut Ctx<CtMsg>) {
        if self.proposal.is_none() && self.estimates.len() >= self.majority() {
            let (&_, &(v, _)) = self
                .estimates
                .iter()
                .max_by_key(|(_, &(_, ts))| ts)
                .expect("non-empty majority");
            self.proposal = Some(v);
            ctx.broadcast(CtMsg::Proposal {
                round: self.round,
                value: v,
            });
        }
    }

    fn tally_replies(&mut self, ctx: &mut Ctx<CtMsg>) {
        if self.replies.len() >= self.majority() {
            let acks = self.replies.values().filter(|&&a| a).count();
            if acks >= self.majority() {
                if let Some(v) = self.proposal {
                    self.decide(ctx, v);
                    return;
                }
            }
            let next = self.round.saturating_add(1);
            self.enter_round(ctx, next);
        }
    }

    fn handle_consensus(&mut self, ctx: &mut Ctx<CtMsg>, from: ProcessId, msg: CtMsg) {
        if self.decided.is_some() {
            return;
        }
        if let Some(r) = Self::round_of(&msg) {
            if r < self.round {
                return; // stale
            }
            if r > self.round {
                self.buffered.push((from, msg));
                return;
            }
        }
        match msg {
            CtMsg::Estimate { value, ts, .. } => {
                if self.coordinator(self.round) == self.me {
                    self.estimates.insert(from, (value, ts));
                    self.try_propose(ctx);
                }
            }
            CtMsg::Proposal { value, .. } => {
                if from == self.coordinator(self.round) && !self.got_proposal {
                    self.got_proposal = true;
                    self.est = (value, self.round);
                    if self.coordinator(self.round) == self.me {
                        // The coordinator's own ack; it stays for phase 4.
                        self.replies.insert(self.me, true);
                        self.tally_replies(ctx);
                    } else {
                        ctx.send(
                            self.coordinator(self.round),
                            CtMsg::Ack { round: self.round },
                        );
                        let next = self.round.saturating_add(1);
                        self.enter_round(ctx, next);
                    }
                }
            }
            CtMsg::Ack { .. } | CtMsg::Nack { .. } => {
                if self.coordinator(self.round) == self.me {
                    let is_ack = matches!(msg, CtMsg::Ack { .. });
                    self.replies.insert(from, is_ack);
                    self.tally_replies(ctx);
                }
            }
            CtMsg::Decide { .. } | CtMsg::Detector(_) => unreachable!("handled by caller"),
        }
    }
}

impl Corrupt for CtConsensusProcess {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Arbitrary (finite) round, estimate and bookkeeping. The buffer is
        // not conjured: systemic failures corrupt process state, not the
        // network.
        self.round = rng.gen_range(1..1 << 20);
        self.est = (rng.gen_range(0..1 << 20), rng.gen_range(0..1 << 20));
        self.got_proposal.corrupt(rng);
        self.proposal = rng.gen_bool(0.5).then(|| rng.gen_range(0..1 << 20));
        self.decided = if rng.gen_bool(0.25) {
            Some(rng.gen_range(0..1 << 20))
        } else {
            None
        };
        self.estimates.clear();
        self.replies.clear();
        self.buffered.clear();
        self.detector.corrupt(rng);
    }
}

impl AsyncProcess for CtConsensusProcess {
    type Msg = CtMsg;

    fn on_start(&mut self, ctx: &mut Ctx<CtMsg>) {
        self.forward_detector(ctx, |d, dctx| d.on_start(dctx));
        ctx.set_timer(self.poll_period, tags::SUSPECT_POLL);
        let r = self.round;
        self.enter_round(ctx, r);
    }

    fn on_message(&mut self, ctx: &mut Ctx<CtMsg>, from: ProcessId, msg: &CtMsg) {
        match msg {
            CtMsg::Detector(table) => {
                self.forward_detector(ctx, |d, dctx| d.on_message(dctx, from, table));
            }
            &CtMsg::Decide { value } => {
                if self.decided.is_none() {
                    self.decided = Some(value);
                    ctx.broadcast(CtMsg::Decide { value });
                }
            }
            // The consensus messages are a few words: `handle_consensus`
            // may buffer one for a future round, so it takes its own.
            other => self.handle_consensus(ctx, from, other.clone()),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<CtMsg>, tag: u64) {
        if tag >= tags::DETECTOR_BASE {
            self.forward_detector(ctx, |d, dctx| d.on_timer(dctx, tag - tags::DETECTOR_BASE));
            return;
        }
        if tag == tags::SUSPECT_POLL {
            ctx.set_timer(self.poll_period, tags::SUSPECT_POLL);
            let coord = self.coordinator(self.round);
            if self.decided.is_none()
                && !self.got_proposal
                && coord != self.me
                && self.detector.suspected().contains(coord)
            {
                ctx.send(coord, CtMsg::Nack { round: self.round });
                let next = self.round.saturating_add(1);
                self.enter_round(ctx, next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_async_sim::{AsyncConfig, AsyncRunner};
    use ftss_rng::StdRng;

    fn build(
        inputs: &[u64],
        crashes: Vec<(ProcessId, Time)>,
        seed: u64,
        corrupt: Option<u64>,
    ) -> AsyncRunner<CtConsensusProcess> {
        let n = inputs.len();
        let oracle = WeakOracle::new(n, crashes.clone(), 300, seed, 0.2);
        let mut procs: Vec<CtConsensusProcess> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| CtConsensusProcess::new(ProcessId(i), n, v, oracle.clone(), 25))
            .collect();
        if let Some(cs) = corrupt {
            let mut rng = StdRng::seed_from_u64(cs);
            for p in &mut procs {
                p.corrupt(&mut rng);
            }
        }
        let mut cfg = AsyncConfig::turbulent(seed, 50, 300);
        for (p, t) in crashes {
            cfg = cfg.with_crash(p, t);
        }
        AsyncRunner::new(procs, cfg).unwrap()
    }

    fn decisions(r: &AsyncRunner<CtConsensusProcess>) -> Vec<Option<u64>> {
        r.processes().iter().map(|p| p.decision()).collect()
    }

    #[test]
    fn failure_free_clean_run_decides_and_agrees() {
        for seed in 0..8 {
            let mut r = build(&[10, 20, 30], vec![], seed, None);
            r.run_until(60_000);
            let ds = decisions(&r);
            let v = ds[0].expect("p0 decided");
            for (i, d) in ds.iter().enumerate() {
                assert_eq!(*d, Some(v), "seed {seed} p{i}");
            }
            assert!([10, 20, 30].contains(&v), "validity: {v}");
        }
    }

    #[test]
    fn crash_of_first_coordinator_tolerated() {
        for seed in 0..8 {
            // p0 coordinates round 1 and crashes immediately; n=5, f=1.
            let mut r = build(&[1, 2, 3, 4, 5], vec![(ProcessId(0), 10)], seed, None);
            r.run_until(120_000);
            let survivors: Vec<u64> = r
                .processes()
                .iter()
                .skip(1)
                .map(|p| p.decision().expect("survivor decided"))
                .collect();
            assert!(
                survivors.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: {survivors:?}"
            );
        }
    }

    #[test]
    fn two_crashes_with_n5_tolerated() {
        for seed in 0..5 {
            let mut r = build(
                &[7, 7, 9, 9, 9],
                vec![(ProcessId(1), 40), (ProcessId(3), 500)],
                seed,
                None,
            );
            r.run_until(200_000);
            let alive: Vec<u64> = [0usize, 2, 4]
                .iter()
                .map(|&i| r.process(ProcessId(i)).decision().expect("decided"))
                .collect();
            assert!(
                alive.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: {alive:?}"
            );
        }
    }

    #[test]
    fn corrupted_state_frequently_deadlocks() {
        // The paper's motivation for §3: plain CT relies on initialization.
        // From corrupted states, runs where processes sit in distinct huge
        // rounds make no progress — count undecided runs across seeds.
        let mut deadlocks = 0;
        for seed in 0..10 {
            let mut r = build(&[10, 20, 30], vec![], seed, Some(0x5eed ^ seed));
            r.run_until(80_000);
            let ds = decisions(&r);
            if ds.iter().any(|d| d.is_none()) {
                deadlocks += 1;
            }
        }
        assert!(
            deadlocks >= 5,
            "expected plain CT to deadlock from most corrupted states, got {deadlocks}/10"
        );
    }

    #[test]
    fn coordinator_rotates() {
        let oracle = WeakOracle::new(3, vec![], 0, 1, 0.0);
        let p = CtConsensusProcess::new(ProcessId(0), 3, 1, oracle, 10);
        assert_eq!(p.coordinator(1), ProcessId(0));
        assert_eq!(p.coordinator(2), ProcessId(1));
        assert_eq!(p.coordinator(3), ProcessId(2));
        assert_eq!(p.coordinator(4), ProcessId(0));
        assert_eq!(p.majority(), 2);
    }

    #[test]
    fn decide_relay_reaches_latecomers() {
        // Even a process stuck waiting adopts a relayed decision.
        for seed in 0..5 {
            let mut r = build(&[5, 6, 7], vec![], seed, None);
            r.run_until(60_000);
            assert!(decisions(&r).iter().all(|d| d.is_some()), "seed {seed}");
        }
    }
}
