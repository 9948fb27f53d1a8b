//! Step-wise execution: the explorer's branch-mid-run seam.
//!
//! [`SyncRunner`](crate::SyncRunner) executes a whole run from a
//! configuration — the right shape for sweeps and soaks, and the wrong
//! shape for a state-space explorer, which wants to *branch*: take one
//! global state, apply one round under one delivery decision, and do so
//! again from the same state under a different decision, without
//! replaying the prefix tape each time.
//!
//! [`SyncStepper`] is that seam. It owns the mutable global state (one
//! protocol state per process) and advances it one round at a time,
//! consulting a caller-supplied delivery decision for every non-self
//! copy sender-major, destination-minor — the round kernel's walk order
//! ([`crate::round`]), so a decision sequence and an omission tape
//! describe the same schedule. The stepper is deliberately **not** a
//! driver of that kernel: it records no states and has no adversary,
//! schedule or sink. Its one-process step
//! ([`SyncStepper::step_process`], one row of a round) is the transition
//! function of the graph checker, which steps every distinct inbox of
//! every visited state through it once: the faulty process's `2^(n−1)`
//! and two for each other process, `2^(n−1) + 2(n−1)` process steps per
//! state at size `n` for its `2^(2(n−1))` edges (`step_process_matches_a_whole_round`
//! holds it to [`SyncStepper::step_round`]). [`SyncRunner`](crate::SyncRunner)
//! is the whole round's reference instead
//! (`stepper_matches_runner_under_omission_tapes`).
//!
//! The broadcasts of the current global state are computed once — when
//! the stepper is built and at the end of every
//! [`step_round`](SyncStepper::step_round) — so a graph node pays one
//! broadcast phase, however many processes and inboxes it steps. A
//! one-process step reads only the process's heard senders: a
//! [`SyncProtocol::JOINS_INBOX`] protocol joins their cached payloads in
//! ascending sender order and steps on the join (the in-process
//! exchange's shortcut, through the same helper); any other protocol
//! steps on the process's row of the frame, rewritten for the call.
//!
//! Phase semantics are the kernel's, for the crash-free slice of the
//! model the explorer covers:
//!
//! * broadcasts are computed from all round-start states before any
//!   process steps (lock-step);
//! * self-delivery always succeeds and is never submitted to the
//!   decision callback (paper footnote 1);
//! * a process that declines [`SyncProtocol::sends`] broadcasts nothing;
//! * inboxes present messages in ascending sender order: they *are*
//!   [`Inbox::from_deliveries`] views of a round frame, as in the runner.
//!
//! Crash and mid-run-corruption faults stay with the kernel: the
//! explorer's omission schedules (and Theorem 3's fault model for them)
//! are crash-free.

use crate::protocol::{step_folded, Inbox, ProtocolCtx, SyncProtocol};
use ftss_core::{Corrupt, Payload, ProcessId, RoundHistory};
use ftss_rng::StdRng;

/// A resumable, clonable one-round-at-a-time executor over a protocol's
/// global state. See the module docs for the exact semantics contract.
#[derive(Clone, Debug)]
pub struct SyncStepper<P: SyncProtocol> {
    protocol: P,
    n: usize,
    states: Vec<P::State>,
    /// The next round's traffic, in the runner's own frame type: the
    /// broadcasts of [`states`](Self::states), computed once per global
    /// state, plus the delivery rows the inbox views read — clear between
    /// calls. Never opened, so its clean block is empty and every
    /// process owns its rows. States are not recorded.
    frame: RoundHistory<P::State, P::Msg>,
    /// Round scratch, kept so that a steady-state round allocates
    /// nothing: slot `i` holds process `i`'s last broadcast payload while
    /// the frame is reset, to be refilled in place if `i` sends again.
    payloads: Vec<Option<Payload<P::Msg>>>,
}

impl<P: SyncProtocol> SyncStepper<P> {
    /// A stepper over explicit per-process states (index = process id).
    /// The next [`step_round`](Self::step_round) executes observer round 1.
    pub fn new(protocol: P, states: Vec<P::State>) -> Self {
        let n = states.len();
        let mut stepper = SyncStepper {
            protocol,
            n,
            states,
            frame: RoundHistory::empty(n),
            payloads: std::iter::repeat_with(|| None).take(n).collect(),
        };
        stepper.broadcast_phase();
        stepper
    }

    /// A stepper whose initial global state reproduces
    /// [`RunConfig::corrupted`](crate::RunConfig::corrupted) exactly:
    /// protocol initial states, then one seeded corruption pass over all
    /// processes in id order — same RNG, same draw order as the runner.
    pub fn corrupted(protocol: P, n: usize, seed: u64) -> Self
    where
        P::State: Corrupt,
    {
        let mut states: Vec<P::State> = (0..n)
            .map(|i| protocol.init_state(&ProtocolCtx::new(ProcessId(i), n)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for s in &mut states {
            s.corrupt(&mut rng);
        }
        SyncStepper::new(protocol, states)
    }

    /// The current global state, one entry per process.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Executes one round. `deliver(from, to)` is consulted once per
    /// non-self copy of every broadcast, in the kernel's order (senders
    /// ascending, destinations ascending within a sender); returning
    /// `false` drops that copy. Self-copies are delivered unconditionally
    /// and never consulted.
    ///
    /// Runs `run_to_round`-style resumption: call repeatedly to advance,
    /// clone the stepper to branch.
    pub fn step_round(&mut self, mut deliver: impl FnMut(ProcessId, ProcessId) -> bool) {
        let n = self.n;
        // Phase 1 (the broadcasts are cached): the delivery decision per
        // copy into the rows of the frame.
        for i in 0..n {
            let src = ProcessId(i);
            if self.frame.msgs().broadcast_of(src).is_none() {
                continue;
            }
            for j in 0..n {
                if i == j || deliver(src, ProcessId(j)) {
                    self.frame.record_delivery(ProcessId(j), src);
                }
            }
        }
        // Phase 2: every process steps on its delivered row
        // (ascending sender order) — the view the runner hands out, so no
        // envelope is ever built.
        for j in 0..n {
            let dst = ProcessId(j);
            let inbox = Inbox::from_deliveries(self.frame.msgs().deliveries(dst));
            let ctx = ProtocolCtx::new(dst, n);
            self.protocol.step(&ctx, &mut self.states[j], &inbox);
        }
        self.broadcast_phase();
    }

    /// The state `p` steps to this round from the current global state
    /// when it hears exactly the senders `heard` admits — `p`'s part of
    /// the [`step_round`](Self::step_round) whose `deliver(s, p)` is
    /// `heard(s)`. `heard` is consulted once per other sender that
    /// broadcasts, ascending; `p`'s own copy is always heard. The stepper
    /// does not advance: [`states`](Self::states) is unchanged.
    ///
    /// A process's step reads only its own state and inbox, so a caller
    /// that needs each process's outcome under a few inboxes steps each
    /// inbox once here instead of running whole rounds. The broadcasts
    /// are the cached ones: a call reads only `p`'s heard senders. A
    /// [`SyncProtocol::JOINS_INBOX`] protocol folds their payloads,
    /// ascending, and steps on the join; any other protocol, and an empty
    /// inbox, steps on `p`'s row of the frame, rewritten for the call.
    pub fn step_process(
        &mut self,
        p: ProcessId,
        mut heard: impl FnMut(ProcessId) -> bool,
    ) -> P::State {
        let j = p.index();
        let ctx = ProtocolCtx::new(p, self.n);
        let mut state = self.states[j].clone();
        if P::JOINS_INBOX {
            let msgs = self.frame.msgs();
            let mut joined = (0..self.n).filter_map(|i| {
                let payload = msgs.broadcast_of(ProcessId(i))?;
                (i == j || heard(ProcessId(i))).then_some(&**payload)
            });
            if let Some(first) = joined.next() {
                step_folded(&self.protocol, &ctx, &mut state, first.clone(), joined);
                return state;
            }
            // Nothing heard: `p`'s row is clear, so its view is empty.
        } else {
            for i in 0..self.n {
                let src = ProcessId(i);
                if self.frame.msgs().broadcast_of(src).is_some() && (i == j || heard(src)) {
                    self.frame.record_delivery(p, src);
                }
            }
        }
        let inbox = Inbox::from_deliveries(self.frame.msgs().deliveries(p));
        self.protocol.step(&ctx, &mut state, &inbox);
        self.frame.clear_deliveries(p);
        state
    }

    /// The broadcasts of the current states, into a cleared frame: one
    /// shared payload per sender, refilled in place from the previous
    /// round's.
    fn broadcast_phase(&mut self) {
        let n = self.n;
        for (i, slot) in self.payloads.iter_mut().enumerate() {
            if let Some(payload) = self.frame.take_broadcast(ProcessId(i)) {
                *slot = Some(payload);
            }
        }
        self.frame.reset(n);
        for i in 0..n {
            let src = ProcessId(i);
            let ctx = ProtocolCtx::new(src, n);
            if !self.protocol.sends(&ctx, &self.states[i]) {
                continue;
            }
            let msg = self.protocol.broadcast(&ctx, &self.states[i]);
            let payload = match self.payloads[i].take() {
                Some(mut payload) => {
                    payload.set(msg);
                    payload
                }
                None => Payload::new(msg),
            };
            self.frame.set_broadcast(src, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Adversary, TapeOmission};
    use crate::runner::{RunConfig, SyncRunner};
    use ftss_core::Round;
    use ftss_protocols_shim::*;
    use ftss_rng::Rng;

    // A tiny local protocol so the unit tests need no cross-crate dep:
    // every process broadcasts its value and adopts the max it heard.
    mod ftss_protocols_shim {
        use super::super::*;
        #[derive(Clone, Copy)]
        pub struct MaxGossip;
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct Val(pub u64);
        impl Corrupt for Val {
            fn corrupt<R: ftss_rng::Rng + ?Sized>(&mut self, rng: &mut R) {
                self.0 = rng.gen_range(0..64);
            }
        }
        impl SyncProtocol for MaxGossip {
            type State = Val;
            type Msg = u64;
            fn name(&self) -> &'static str {
                "max-gossip"
            }
            fn init_state(&self, _ctx: &ProtocolCtx) -> Val {
                Val(1)
            }
            fn broadcast(&self, _ctx: &ProtocolCtx, s: &Val) -> u64 {
                s.0
            }
            fn step(&self, _ctx: &ProtocolCtx, s: &mut Val, inbox: &Inbox<u64>) {
                let heard = inbox.iter().map(|(_, m)| *m).fold(s.0, u64::max);
                s.0 = heard + 1;
            }
        }

        /// `MaxGossip`, except that a process whose value is a multiple
        /// of three stays silent and a step adds up who it heard — so a
        /// silent sender and a dropped copy both show in the next state.
        #[derive(Clone, Copy)]
        pub struct QuietGossip;
        impl SyncProtocol for QuietGossip {
            type State = Val;
            type Msg = u64;
            fn name(&self) -> &'static str {
                "quiet-gossip"
            }
            fn init_state(&self, _ctx: &ProtocolCtx) -> Val {
                Val(1)
            }
            fn sends(&self, _ctx: &ProtocolCtx, s: &Val) -> bool {
                !s.0.is_multiple_of(3)
            }
            fn broadcast(&self, _ctx: &ProtocolCtx, s: &Val) -> u64 {
                s.0
            }
            fn step(&self, _ctx: &ProtocolCtx, s: &mut Val, inbox: &Inbox<u64>) {
                let heard = inbox.iter().map(|(_, m)| *m).fold(s.0, u64::max);
                let senders: u64 = inbox.iter().map(|(p, _)| 1 << p.index()).sum();
                s.0 = heard + senders;
            }
        }

        /// `QuietGossip`'s silence with a folded step: a process adopts
        /// the sum of what it heard, itself included, modulo 64 — so a
        /// copy folded twice or skipped shows in the next state.
        #[derive(Clone, Copy)]
        pub struct SumGossip;
        impl SyncProtocol for SumGossip {
            type State = Val;
            type Msg = u64;
            const JOINS_INBOX: bool = true;
            fn name(&self) -> &'static str {
                "sum-gossip"
            }
            fn init_state(&self, _ctx: &ProtocolCtx) -> Val {
                Val(1)
            }
            fn sends(&self, _ctx: &ProtocolCtx, s: &Val) -> bool {
                !s.0.is_multiple_of(3)
            }
            fn broadcast(&self, _ctx: &ProtocolCtx, s: &Val) -> u64 {
                s.0
            }
            fn step(&self, ctx: &ProtocolCtx, s: &mut Val, inbox: &Inbox<u64>) {
                match inbox.joined(self) {
                    Some(sum) => self.step_joined(ctx, s, &sum),
                    None => s.0 += 1,
                }
            }
            fn join(&self, acc: &mut u64, m: &u64) {
                *acc += m;
            }
            fn step_joined(&self, _ctx: &ProtocolCtx, s: &mut Val, sum: &u64) {
                s.0 = sum % 64;
            }
        }
    }

    /// The stepper must reproduce the runner round-for-round under an
    /// arbitrary omission tape routed through the same consultation order.
    #[test]
    fn stepper_matches_runner_under_omission_tapes() {
        ftss_rng::check::forall(40, |g| {
            let n = g.gen_range(2..5u64) as usize;
            let rounds = g.gen_range(1..5u64) as usize;
            let seed = g.next_u64();
            let tape = g.vec(0, 12, |g| g.gen_bool(0.5));
            let faulty = ProcessId(g.gen_range(0..n as u64) as usize);

            let mut adv = TapeOmission::new([faulty], tape.clone());
            let cfg = RunConfig::corrupted(n, rounds, seed);
            let out = SyncRunner::new(MaxGossip)
                .run(&mut adv, &cfg)
                .expect("valid config");

            let mut stepper = SyncStepper::corrupted(MaxGossip, n, seed);
            let mut tape_adv = TapeOmission::new([faulty], tape);
            for r in 1..=rounds {
                stepper.step_round(|from, to| {
                    tape_adv.drop_copy(Round::new(r as u64), from, to).is_none()
                });
                // Round-start snapshots of the *next* round equal the
                // stepper's post-step states; compare via the final states
                // below and the per-round counters here.
                if r < rounds {
                    let frame = out.history.slice(r, r + 1).round(0);
                    for p in 0..n {
                        assert_eq!(
                            frame.record(ProcessId(p)).state_at_start(),
                            Some(&stepper.states()[p]),
                            "round {r} state of p{p} diverged"
                        );
                    }
                }
            }
            for p in 0..n {
                assert_eq!(
                    out.final_states[p].as_ref(),
                    Some(&stepper.states()[p]),
                    "final state of p{p} diverged"
                );
            }
            assert_eq!(tape_adv.consulted(), {
                let mut probe = TapeOmission::new([faulty], Vec::new());
                let _ = SyncRunner::new(MaxGossip).run(&mut probe, &cfg);
                probe.consulted()
            });
        });
    }

    /// `step_process(p, heard)` is `p`'s state after the `step_round`
    /// whose decision for each copy `s → p` is `heard(s)`, consulted for
    /// the same senders in the same order, for every `p`; the stepper's
    /// own states stay where they were. The calls are interleaved with
    /// whole rounds and clones of the stepper, so the cached broadcasts
    /// are held to the states they belong to; the reference round is a
    /// new stepper's. `QuietGossip` and `SumGossip` cover the senders that
    /// decline to broadcast, `SumGossip` the folded step.
    #[test]
    fn step_process_matches_a_whole_round() {
        fn check<P>(protocol: P, g: &mut ftss_rng::check::Gen, states: Vec<P::State>)
        where
            P: SyncProtocol + Clone,
            P::State: PartialEq,
        {
            let n = states.len();
            let mut stepper = SyncStepper::new(protocol.clone(), states);
            for _ in 0..g.gen_range(1..6u64) {
                let drops = g.next_u64();
                let decide = |from: ProcessId, to: ProcessId| {
                    (drops >> (from.index() * n + to.index())) & 1 == 0
                };
                let states = stepper.states().to_vec();
                let mut round = SyncStepper::new(protocol.clone(), states.clone());
                let mut round_asked = Vec::new();
                round.step_round(|from, to| {
                    round_asked.push((from, to));
                    decide(from, to)
                });
                match g.gen_range(0..3u64) {
                    0 => {
                        for p in (0..n).map(ProcessId) {
                            let mut asked = Vec::new();
                            let next = stepper.step_process(p, |from| {
                                asked.push((from, p));
                                decide(from, p)
                            });
                            assert_eq!(next, round.states()[p.index()], "{p}");
                            let want: Vec<_> = round_asked.iter().filter(|c| c.1 == p).collect();
                            assert_eq!(asked.iter().collect::<Vec<_>>(), want, "{p}");
                            assert_eq!(stepper.states(), states, "{p} advanced the stepper");
                        }
                    }
                    1 => {
                        stepper.step_round(decide);
                        assert_eq!(stepper.states(), round.states());
                    }
                    _ => stepper = stepper.clone(),
                }
            }
        }
        ftss_rng::check::forall(60, |g| {
            let n = g.gen_range(2..7u64) as usize;
            let states: Vec<Val> = (0..n).map(|_| Val(g.gen_range(0..64))).collect();
            check(MaxGossip, g, states.clone());
            check(QuietGossip, g, states.clone());
            check(SumGossip, g, states);
        });
    }

    #[test]
    fn corrupted_constructor_matches_runner_initial_states() {
        let out = SyncRunner::new(MaxGossip)
            .run(&mut crate::NoFaults, &RunConfig::corrupted(4, 1, 99))
            .unwrap();
        let stepper = SyncStepper::corrupted(MaxGossip, 4, 99);
        let frame = out.history.slice(0, 1).round(0);
        for p in 0..4 {
            assert_eq!(
                frame.record(ProcessId(p)).state_at_start(),
                Some(&stepper.states()[p]),
                "corrupted initial state of p{p} diverged"
            );
        }
    }
}
