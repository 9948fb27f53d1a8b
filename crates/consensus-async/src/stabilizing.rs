//! The paper's self-stabilizing consensus (§3), as repeated consensus.
//!
//! Derived from the plain CT protocol ([`crate::ct`]) by the paper's two
//! modifications, realized as follows:
//!
//! * **Periodic re-send** (the `RESEND` timer): every period,
//!   a process re-sends its current phase's messages — its estimate to the
//!   current coordinator, its proposal (if coordinator, mid-phase-4), its
//!   last decision, and a `RoundSync` gossip of its current
//!   `(instance, round)` tag. No send-once flags exist for corruption to
//!   poison, and the deadlock of the initialized protocol disappears.
//! * **Round agreement superimposition**: every message carries its
//!   `(instance, round)` tag. A process receiving a tag *greater* than its
//!   own (lexicographically) abandons its current phase and jumps to phase
//!   1 of the tagged round; messages with *smaller* tags are ignored as
//!   abandoned. The periodic `RoundSync` gossip makes the maximum tag
//!   spread to all correct processes, which is what lets a process stuck
//!   mid-phase rejoin the computation.
//!
//! Decisions are per-instance: deciding instance `i` starts instance
//! `i + 1` with fresh inputs `input(p, i + 1)`. Corrupted decisions,
//! estimates or tags therefore wash out after at most one instance —
//! piece-wise stability in the asynchronous setting.

use crate::tags;
use ftss_async_sim::{AsyncProcess, Ctx, Time};
use ftss_core::{Corrupt, ProcessId};
use ftss_detectors::{LifeState, StrongDetectorProcess, WeakOracle};
use ftss_rng::Rng;

/// Messages of the self-stabilizing protocol. Every consensus message
/// carries its `(inst, round)` tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SsMsg {
    /// Phase 1 estimate to the coordinator.
    Estimate {
        /// Instance tag.
        inst: u64,
        /// Round tag.
        round: u64,
        /// Estimate value.
        value: u64,
        /// Timestamp (round of last adoption within this instance).
        ts: u64,
    },
    /// Phase 2 proposal, broadcast by the coordinator.
    Proposal {
        /// Instance tag.
        inst: u64,
        /// Round tag.
        round: u64,
        /// Proposed value.
        value: u64,
    },
    /// Phase 3 positive reply.
    Ack {
        /// Instance tag.
        inst: u64,
        /// Round tag.
        round: u64,
    },
    /// Phase 3 negative reply.
    Nack {
        /// Instance tag.
        inst: u64,
        /// Round tag.
        round: u64,
    },
    /// Versioned decision broadcast (instance, value).
    Decide {
        /// Instance decided.
        inst: u64,
        /// Decided value.
        value: u64,
    },
    /// Round-agreement gossip: the sender's current tag.
    RoundSync {
        /// Instance tag.
        inst: u64,
        /// Round tag.
        round: u64,
    },
    /// Embedded ◇S detector gossip.
    Detector(Vec<(u64, LifeState)>),
}

impl SsMsg {
    /// The `(inst, round)` tag of a consensus message, if it has one.
    fn tag(&self) -> Option<(u64, u64)> {
        match *self {
            SsMsg::Estimate { inst, round, .. }
            | SsMsg::Proposal { inst, round, .. }
            | SsMsg::Ack { inst, round }
            | SsMsg::Nack { inst, round }
            | SsMsg::RoundSync { inst, round } => Some((inst, round)),
            SsMsg::Decide { .. } | SsMsg::Detector(_) => None,
        }
    }
}

/// One process of the self-stabilizing repeated-consensus protocol, with
/// an embedded Figure-4 ◇S detector.
#[derive(Clone, Debug)]
pub struct SsConsensusProcess {
    me: ProcessId,
    n: usize,
    base_inputs: Vec<u64>,
    /// Current instance (1-based).
    pub inst: u64,
    /// Current round within the instance (1-based).
    pub round: u64,
    /// Current estimate `(value, ts)`.
    pub est: (u64, u64),
    /// Whether this round's proposal has been adopted.
    pub got_proposal: bool,
    /// Coordinator: estimates gathered this round.
    pub estimates: std::collections::BTreeMap<ProcessId, (u64, u64)>,
    /// Coordinator: the proposal of this round.
    pub proposal: Option<u64>,
    /// Coordinator: replies gathered this round.
    pub replies: std::collections::BTreeMap<ProcessId, bool>,
    /// The newest decision known: `(instance, value)`.
    pub last_decision: Option<(u64, u64)>,
    detector: StrongDetectorProcess,
    poll_period: Time,
    resend_period: Time,
}

impl SsConsensusProcess {
    /// Creates a process in the specified initial state (instance 1,
    /// round 1, estimate = `input(me, 1)`). Systemic failures are modelled
    /// by corrupting the created value.
    pub fn new(
        me: ProcessId,
        base_inputs: Vec<u64>,
        oracle: WeakOracle,
        poll_period: Time,
        resend_period: Time,
    ) -> Self {
        let n = base_inputs.len();
        let mut p = SsConsensusProcess {
            me,
            n,
            base_inputs,
            inst: 1,
            round: 1,
            est: (0, 0),
            got_proposal: false,
            estimates: Default::default(),
            proposal: None,
            replies: Default::default(),
            last_decision: None,
            detector: StrongDetectorProcess::new(me, oracle, poll_period),
            poll_period,
            resend_period,
        };
        p.est = (p.input(me, 1), 0);
        p
    }

    /// The input of process `p` for instance `i` — fresh values each
    /// instance so that validity is observable per instance.
    pub fn input(&self, p: ProcessId, i: u64) -> u64 {
        self.base_inputs[p.index()].wrapping_add(i.wrapping_mul(1000))
    }

    /// The set of values validity admits for instance `i`.
    pub fn valid_values(&self, i: u64) -> Vec<u64> {
        (0..self.n).map(|p| self.input(ProcessId(p), i)).collect()
    }

    /// The coordinator of `round` (rotating, instance-independent).
    pub fn coordinator(&self, round: u64) -> ProcessId {
        ProcessId(((round.saturating_sub(1)) % self.n as u64) as usize)
    }

    /// Majority threshold.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// The newest `(instance, value)` decision known to this process.
    pub fn last_decision(&self) -> Option<(u64, u64)> {
        self.last_decision
    }

    fn forward_detector(
        &mut self,
        ctx: &mut Ctx<SsMsg>,
        act: impl FnOnce(&mut StrongDetectorProcess, &mut Ctx<Vec<(u64, LifeState)>>),
    ) {
        let mut dctx: Ctx<Vec<(u64, LifeState)>> = Ctx::new(self.me, self.n, ctx.now());
        act(&mut self.detector, &mut dctx);
        let (sends, timers) = dctx.take_effects();
        for (to, m) in sends {
            ctx.send(to, SsMsg::Detector(m));
        }
        for (at, tag) in timers {
            ctx.set_timer_at(at, tags::DETECTOR_BASE + tag);
        }
    }

    fn send_estimate(&self, ctx: &mut Ctx<SsMsg>) {
        let (value, ts) = self.est;
        ctx.send(
            self.coordinator(self.round),
            SsMsg::Estimate {
                inst: self.inst,
                round: self.round,
                value,
                ts,
            },
        );
    }

    /// Jumps to `(inst, round)`, abandoning the current phase. Entering a
    /// new instance resets the estimate to that instance's input.
    fn jump(&mut self, ctx: &mut Ctx<SsMsg>, inst: u64, round: u64) {
        if inst != self.inst {
            self.est = (self.input(self.me, inst), 0);
        }
        self.inst = inst;
        self.round = round;
        self.got_proposal = false;
        self.estimates.clear();
        self.proposal = None;
        self.replies.clear();
        self.send_estimate(ctx);
    }

    fn decide(&mut self, ctx: &mut Ctx<SsMsg>, inst: u64, value: u64) {
        let newer = self.last_decision.is_none_or(|(i, _)| i < inst);
        if newer {
            self.last_decision = Some((inst, value));
            ctx.broadcast(SsMsg::Decide { inst, value });
        }
        if inst >= self.inst {
            self.jump(ctx, inst.saturating_add(1), 1);
        }
    }

    fn try_propose(&mut self, ctx: &mut Ctx<SsMsg>) {
        if self.proposal.is_none() && self.estimates.len() >= self.majority() {
            let (_, &(v, _)) = self
                .estimates
                .iter()
                .max_by_key(|(_, &(_, ts))| ts)
                .expect("non-empty majority");
            self.proposal = Some(v);
            ctx.broadcast(SsMsg::Proposal {
                inst: self.inst,
                round: self.round,
                value: v,
            });
        }
    }

    fn tally_replies(&mut self, ctx: &mut Ctx<SsMsg>) {
        if self.replies.len() >= self.majority() {
            let acks = self.replies.values().filter(|&&a| a).count();
            if acks >= self.majority() {
                if let Some(v) = self.proposal {
                    let i = self.inst;
                    self.decide(ctx, i, v);
                    return;
                }
            }
            let (i, r) = (self.inst, self.round.saturating_add(1));
            self.jump(ctx, i, r);
        }
    }

    fn handle_consensus(&mut self, ctx: &mut Ctx<SsMsg>, from: ProcessId, msg: &SsMsg) {
        let Some((mi, mr)) = msg.tag() else { return };
        // Round agreement: adopt greater tags, ignore smaller ones.
        if (mi, mr) > (self.inst, self.round) {
            self.jump(ctx, mi, mr);
        } else if (mi, mr) < (self.inst, self.round) {
            return;
        }
        match *msg {
            SsMsg::Estimate { value, ts, .. } => {
                if self.coordinator(self.round) == self.me {
                    self.estimates.insert(from, (value, ts));
                    self.try_propose(ctx);
                }
            }
            SsMsg::Proposal { value, .. } => {
                if from == self.coordinator(self.round) && !self.got_proposal {
                    self.got_proposal = true;
                    self.est = (value, self.round);
                    if self.coordinator(self.round) == self.me {
                        self.replies.insert(self.me, true);
                        self.tally_replies(ctx);
                    } else {
                        ctx.send(
                            self.coordinator(self.round),
                            SsMsg::Ack {
                                inst: self.inst,
                                round: self.round,
                            },
                        );
                        let (i, r) = (self.inst, self.round.saturating_add(1));
                        self.jump(ctx, i, r);
                    }
                }
            }
            SsMsg::Ack { .. } | SsMsg::Nack { .. } => {
                if self.coordinator(self.round) == self.me {
                    let is_ack = matches!(msg, SsMsg::Ack { .. });
                    self.replies.insert(from, is_ack);
                    self.tally_replies(ctx);
                }
            }
            SsMsg::RoundSync { .. } => {} // tag already processed
            SsMsg::Decide { .. } | SsMsg::Detector(_) => unreachable!("handled by caller"),
        }
    }

    fn resend(&mut self, ctx: &mut Ctx<SsMsg>) {
        // Phase 1/3: the estimate for the current round.
        self.send_estimate(ctx);
        // Phase 2/4 (coordinator): the outstanding proposal.
        if self.coordinator(self.round) == self.me {
            if let Some(v) = self.proposal {
                ctx.broadcast(SsMsg::Proposal {
                    inst: self.inst,
                    round: self.round,
                    value: v,
                });
            }
        }
        // Reliable broadcast of the newest decision.
        if let Some((i, v)) = self.last_decision {
            ctx.broadcast(SsMsg::Decide { inst: i, value: v });
        }
        // Round agreement gossip.
        ctx.broadcast(SsMsg::RoundSync {
            inst: self.inst,
            round: self.round,
        });
        ctx.set_timer(self.resend_period, tags::RESEND);
    }
}

impl Corrupt for SsConsensusProcess {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Arbitrary finite instance/round tags (kept below u64::MAX/2 — the
        // paper's counters are unbounded, so all corrupted values are
        // finite and can be exceeded), arbitrary estimates, bookkeeping and
        // decisions, and a corrupted detector.
        self.inst = rng.gen_range(1..1 << 20);
        self.round = rng.gen_range(1..1 << 20);
        self.est = (rng.gen_range(0..1 << 20), rng.gen_range(0..1 << 20));
        self.got_proposal.corrupt(rng);
        self.proposal = rng.gen_bool(0.5).then(|| rng.gen_range(0..1 << 20));
        self.last_decision = rng
            .gen_bool(0.4)
            .then(|| (rng.gen_range(1..1 << 20), rng.gen_range(0..1 << 20)));
        self.estimates.clear();
        self.replies.clear();
        self.detector.corrupt(rng);
    }
}

impl AsyncProcess for SsConsensusProcess {
    type Msg = SsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<SsMsg>) {
        self.forward_detector(ctx, |d, dctx| d.on_start(dctx));
        ctx.set_timer(self.poll_period, tags::SUSPECT_POLL);
        ctx.set_timer(self.resend_period, tags::RESEND);
        self.send_estimate(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<SsMsg>, from: ProcessId, msg: &SsMsg) {
        match msg {
            SsMsg::Detector(table) => {
                self.forward_detector(ctx, |d, dctx| d.on_message(dctx, from, table));
            }
            &SsMsg::Decide { inst, value } => {
                self.decide(ctx, inst, value);
            }
            other => self.handle_consensus(ctx, from, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<SsMsg>, tag: u64) {
        if tag >= tags::DETECTOR_BASE {
            self.forward_detector(ctx, |d, dctx| d.on_timer(dctx, tag - tags::DETECTOR_BASE));
            return;
        }
        match tag {
            tags::SUSPECT_POLL => {
                ctx.set_timer(self.poll_period, tags::SUSPECT_POLL);
                let coord = self.coordinator(self.round);
                if !self.got_proposal
                    && coord != self.me
                    && self.detector.suspected().contains(coord)
                {
                    ctx.send(
                        coord,
                        SsMsg::Nack {
                            inst: self.inst,
                            round: self.round,
                        },
                    );
                    let (i, r) = (self.inst, self.round.saturating_add(1));
                    self.jump(ctx, i, r);
                }
            }
            tags::RESEND => self.resend(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // probe snapshots are ad-hoc tuples in tests
mod tests {
    use super::*;
    use ftss_async_sim::{AsyncConfig, AsyncRunner};
    use ftss_rng::StdRng;

    fn build(
        inputs: &[u64],
        crashes: Vec<(ProcessId, Time)>,
        seed: u64,
        corrupt: Option<u64>,
    ) -> AsyncRunner<SsConsensusProcess> {
        let n = inputs.len();
        let oracle = WeakOracle::new(n, crashes.clone(), 300, seed, 0.2);
        let mut procs: Vec<SsConsensusProcess> = (0..n)
            .map(|i| SsConsensusProcess::new(ProcessId(i), inputs.to_vec(), oracle.clone(), 25, 40))
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

    /// Collects each process's decision log via probing: maps instance ->
    /// value per process, then checks cross-process agreement per instance.
    fn check_agreement(
        r: &AsyncRunner<SsConsensusProcess>,
        probes: &[(u64, Vec<Option<(u64, u64)>>)],
    ) {
        use std::collections::BTreeMap;
        let n = r.n();
        let mut per_instance: BTreeMap<u64, BTreeMap<usize, u64>> = BTreeMap::new();
        for (_, snap) in probes {
            for (p, d) in snap.iter().enumerate() {
                if let Some((i, v)) = d {
                    per_instance.entry(*i).or_default().insert(p, *v);
                }
            }
        }
        let _ = n;
        for (i, votes) in per_instance {
            let vals: std::collections::BTreeSet<u64> = votes.values().copied().collect();
            assert!(
                vals.len() <= 1,
                "instance {i}: disagreeing decisions {votes:?}"
            );
        }
    }

    #[test]
    fn clean_run_repeatedly_decides_with_agreement_and_validity() {
        for seed in 0..5 {
            let mut r = build(&[10, 20, 30], vec![], seed, None);
            let mut probes = Vec::new();
            r.run_probed(150_000, 500, |t, ps| {
                probes.push((t, ps.iter().map(|p| p.last_decision()).collect()));
            });
            // Multiple instances decided.
            let max_inst = r
                .processes()
                .iter()
                .filter_map(|p| p.last_decision())
                .map(|(i, _)| i)
                .max()
                .expect("some decision");
            assert!(
                max_inst >= 3,
                "seed {seed}: only reached instance {max_inst}"
            );
            check_agreement(&r, &probes);
            // Validity: each decided value is an input of its instance.
            for p in r.processes() {
                if let Some((i, v)) = p.last_decision() {
                    assert!(
                        p.valid_values(i).contains(&v),
                        "seed {seed}: instance {i} decided non-input {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn recovers_from_arbitrary_corruption() {
        // The headline claim of §3: from arbitrary state, with crashes and
        // asynchrony, the protocol keeps deciding with agreement.
        for seed in 0..10u64 {
            let mut r = build(&[10, 20, 30], vec![], seed, Some(seed ^ 0xabcd));
            let first_inst: u64 = r.processes().iter().map(|p| p.inst).max().unwrap();
            let mut probes: Vec<(u64, Vec<Option<(u64, u64)>>)> = Vec::new();
            r.run_probed(200_000, 500, |t, ps| {
                probes.push((t, ps.iter().map(|p| p.last_decision()).collect()));
            });
            let max_inst = r
                .processes()
                .iter()
                .filter_map(|p| p.last_decision())
                .map(|(i, _)| i)
                .max()
                .unwrap_or(0);
            assert!(
                max_inst >= first_inst,
                "seed {seed}: no progress past corrupted instance {first_inst} (got {max_inst})"
            );
            // Agreement on every instance decided *after* the corrupted
            // epoch: instances > first_inst were started fresh.
            use std::collections::BTreeMap;
            let mut per_instance: BTreeMap<u64, std::collections::BTreeSet<u64>> = BTreeMap::new();
            for (_, snap) in &probes {
                for d in snap.iter().flatten() {
                    if d.0 > first_inst {
                        per_instance.entry(d.0).or_default().insert(d.1);
                    }
                }
            }
            for (i, vals) in per_instance {
                assert!(vals.len() <= 1, "seed {seed}: instance {i} split {vals:?}");
            }
        }
    }

    #[test]
    fn recovers_with_crashes_too() {
        for seed in 0..6u64 {
            let mut r = build(
                &[1, 2, 3, 4, 5],
                vec![(ProcessId(2), 700)],
                seed,
                Some(seed ^ 0x77),
            );
            r.run_until(250_000);
            let max_inst = r
                .processes()
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != 2)
                .filter_map(|(_, p)| p.last_decision())
                .map(|(i, _)| i)
                .max()
                .unwrap_or(0);
            let start_inst = 1 << 20; // corrupted tags are below this
            assert!(
                max_inst > 0 && max_inst < start_inst * 2,
                "seed {seed}: instances should advance (got {max_inst})"
            );
        }
    }

    #[test]
    fn post_corruption_instances_decide_valid_inputs() {
        for seed in [2u64, 5, 8] {
            let mut r = build(&[100, 200, 300], vec![], seed, Some(seed));
            let corrupted_max: u64 = r.processes().iter().map(|p| p.inst).max().unwrap();
            r.run_until(200_000);
            for p in r.processes() {
                let (i, v) = p.last_decision().expect("decided");
                if i > corrupted_max {
                    assert!(
                        p.valid_values(i).contains(&v),
                        "seed {seed}: instance {i} decided {v}, not an input"
                    );
                }
            }
        }
    }

    #[test]
    fn round_sync_drags_laggards_forward() {
        let oracle = WeakOracle::new(3, vec![], 0, 1, 0.0);
        let mut p = SsConsensusProcess::new(ProcessId(0), vec![1, 2, 3], oracle, 25, 40);
        let mut ctx = Ctx::new(ProcessId(0), 3, 100);
        assert_eq!((p.inst, p.round), (1, 1));
        p.on_message(
            &mut ctx,
            ProcessId(1),
            &SsMsg::RoundSync { inst: 7, round: 3 },
        );
        assert_eq!((p.inst, p.round), (7, 3));
        // Estimate reset to instance 7's input.
        assert_eq!(p.est, (p.input(ProcessId(0), 7), 0));
        // Smaller tags are ignored.
        p.on_message(
            &mut ctx,
            ProcessId(2),
            &SsMsg::RoundSync { inst: 7, round: 2 },
        );
        assert_eq!((p.inst, p.round), (7, 3));
    }

    #[test]
    fn decide_starts_next_instance() {
        let oracle = WeakOracle::new(3, vec![], 0, 1, 0.0);
        let mut p = SsConsensusProcess::new(ProcessId(0), vec![1, 2, 3], oracle, 25, 40);
        let mut ctx = Ctx::new(ProcessId(0), 3, 100);
        p.on_message(&mut ctx, ProcessId(1), &SsMsg::Decide { inst: 1, value: 2 });
        assert_eq!(p.last_decision(), Some((1, 2)));
        assert_eq!((p.inst, p.round), (2, 1));
        // An older decision does not regress anything.
        p.on_message(&mut ctx, ProcessId(2), &SsMsg::Decide { inst: 1, value: 9 });
        assert_eq!(p.last_decision(), Some((1, 2)));
        assert_eq!((p.inst, p.round), (2, 1));
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut r = build(&[10, 20, 30], vec![], seed, Some(99));
            r.run_until(50_000);
            r.processes()
                .iter()
                .map(|p| (p.inst, p.round, p.last_decision()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
    }
}
