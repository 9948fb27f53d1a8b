//! The lock-step execution engine.
//!
//! [`SyncRunner::run`] executes a [`SyncProtocol`] for a fixed number of
//! rounds under an [`Adversary`], optionally injecting a systemic failure
//! (seeded arbitrary corruption of every process's initial state), and
//! records the execution as a [`History`] that the `ftss-core` checkers
//! evaluate.
//!
//! The runner is a thin driver: the round itself — validation, the
//! consultation order, the record, the events — is the shared
//! [`RoundKernel`] (see [`crate::round`] for the round semantics, which
//! match §2 of the paper), and this module contributes only the
//! in-process [`Exchange`]: states in a vector, `broadcast` and `step`
//! as function calls. The socket runtime drives the same kernel over
//! node threads, which is why a served run *is* a simulated run.
//!
//! ## Memory model (DESIGN.md §12)
//!
//! The kernel fills one struct-of-arrays [`RoundHistory`](ftss_core::RoundHistory)
//! frame per round: delivery fate is the round's clean block (two sets)
//! plus rows kept only for the processes outside it and a sparse
//! exception list for the other copies, the broadcast is one shared [`Payload`](ftss_core::Payload)
//! per sender, and each process's inbox is a borrowed view of its
//! delivered row ([`Inbox::from_deliveries`]) — the hot loop allocates
//! nothing per copy. With [`RunConfig::with_history_window`]
//! the history retains only a bounded suffix and evicted frames are
//! recycled, so memory stays flat at any run length;
//! [`SyncRunner::run_streaming`] lets an observer inspect the history
//! after every round, which is how windowed oracles are driven.

use crate::adversary::Adversary;
use crate::protocol::{step_folded, Inbox, ProtocolCtx, SyncProtocol};
use crate::round::{Exchange, RoundKernel};
use ftss_core::{ConfigError, Corrupt, Deliveries, History, ProcessId, RoundMsgs};
use ftss_telemetry::{NullSink, TraceSink};
use std::convert::Infallible;

/// Whether (and how) to inject a systemic failure at round 1.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Corruption {
    /// Every process starts in the protocol's specified initial state.
    #[default]
    None,
    /// Every process's initial state is replaced by a seeded arbitrary
    /// state — the paper's systemic failure.
    Arbitrary {
        /// Seed for the corruption RNG; same seed, same corruption.
        seed: u64,
    },
}

/// Additional systemic failures *during* the run: at the start of each
/// listed round, every alive process's state is re-corrupted. The paper
/// "concentrate\[s\] on the behavior of the processes following the final
/// systemic failure"; this schedule makes that final failure explicit so
/// stabilization of the suffix can be measured.
///
/// Both lists are kept sorted by round as they are built, so the
/// per-round lookups the round kernel makes are binary searches.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CorruptionSchedule {
    /// `(round, seed)`, one entry per round.
    events: Vec<(u64, u64)>,
    /// Targeted systemic failures: `(round, seed, victims)`. Only the
    /// listed victims are corrupted — the churn model's "process joins
    /// with arbitrary state", localized instead of global. Insertion
    /// order within a round.
    targeted: Vec<(u64, u64, Vec<ProcessId>)>,
}

impl CorruptionSchedule {
    /// No mid-run systemic failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a systemic failure at the start of observer round `round`
    /// (1-based) with the given corruption seed. A later entry for the
    /// same round replaces the earlier one.
    pub fn at(mut self, round: u64, seed: u64) -> Self {
        match self.events.binary_search_by_key(&round, |&(r, _)| r) {
            Ok(i) => self.events[i].1 = seed,
            Err(i) => self.events.insert(i, (round, seed)),
        }
        self
    }

    /// Adds a *targeted* systemic failure at the start of round `round`:
    /// only `victims` are corrupted (in the order given, from one RNG
    /// seeded with `seed`), after the round's global entry and any
    /// targeted entry added earlier. This is how a
    /// [`ftss_core::StormKind::Join`] renders the joiner's arbitrary
    /// entry state.
    pub fn at_targeted(
        mut self,
        round: u64,
        seed: u64,
        victims: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        let at = self.targeted.partition_point(|&(r, _, _)| r <= round);
        self.targeted
            .insert(at, (round, seed, victims.into_iter().collect()));
        self
    }

    /// The round of the final scheduled systemic failure (global or
    /// targeted), if any.
    pub fn final_failure_round(&self) -> Option<u64> {
        let global = self.events.last().map(|&(r, _)| r);
        let targeted = self.targeted.last().map(|&(r, _, _)| r);
        global.max(targeted)
    }

    /// The targeted entries scheduled for `round`, in insertion order.
    pub fn targeted_for(&self, round: u64) -> impl Iterator<Item = (u64, &[ProcessId])> {
        let lo = self.targeted.partition_point(|&(r, _, _)| r < round);
        let hi = self.targeted.partition_point(|&(r, _, _)| r <= round);
        self.targeted[lo..hi]
            .iter()
            .map(|(_, seed, victims)| (*seed, victims.as_slice()))
    }

    /// The corruption seed scheduled for `round`, if any.
    pub fn seed_for(&self, round: u64) -> Option<u64> {
        let i = self.events.binary_search_by_key(&round, |&(r, _)| r).ok()?;
        Some(self.events[i].1)
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.targeted.is_empty()
    }
}

/// Parameters of a run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of processes `n`.
    pub n: usize,
    /// Number of observer rounds to execute.
    pub rounds: usize,
    /// Systemic-failure injection at round 1.
    pub corruption: Corruption,
    /// Systemic failures during the run.
    pub mid_run_corruption: CorruptionSchedule,
    /// Upper bound `f` on faulty processes; the adversary's declared
    /// faulty set must not exceed it.
    pub max_faulty: usize,
    /// If set, the recorded history retains only the most recent this-many
    /// rounds (see [`History::with_window`]); evicted round frames are
    /// recycled by the runner. `None` records the complete history.
    pub history_window: Option<usize>,
}

impl RunConfig {
    /// A failure-bound-free clean run: no corruption, `f = n`.
    pub fn clean(n: usize, rounds: usize) -> Self {
        RunConfig {
            n,
            rounds,
            corruption: Corruption::None,
            mid_run_corruption: CorruptionSchedule::none(),
            max_faulty: n,
            history_window: None,
        }
    }

    /// A run whose initial global state is arbitrarily corrupted.
    pub fn corrupted(n: usize, rounds: usize, seed: u64) -> Self {
        RunConfig {
            corruption: Corruption::Arbitrary { seed },
            ..Self::clean(n, rounds)
        }
    }

    /// Sets the fault bound `f`.
    #[must_use]
    pub fn with_max_faulty(mut self, f: usize) -> Self {
        self.max_faulty = f;
        self
    }

    /// Adds mid-run systemic failures.
    #[must_use]
    pub fn with_mid_run_corruption(mut self, schedule: CorruptionSchedule) -> Self {
        self.mid_run_corruption = schedule;
        self
    }

    /// Bounds history retention to the most recent `window` rounds.
    #[must_use]
    pub fn with_history_window(mut self, window: usize) -> Self {
        self.history_window = Some(window);
        self
    }
}

/// The result of a run: the recorded history plus the survivors' final
/// states.
#[derive(Clone, Debug)]
pub struct RunOutcome<S, M> {
    /// The execution history, one entry per observer round (bounded to the
    /// configured window, if any).
    pub history: History<S, M>,
    /// Final state per process; `None` for crashed processes.
    pub final_states: Vec<Option<S>>,
}

/// Executes a [`SyncProtocol`] under an [`Adversary`].
#[derive(Clone, Debug)]
pub struct SyncRunner<P> {
    protocol: P,
}

impl<P: SyncProtocol> SyncRunner<P>
where
    P::State: Corrupt,
{
    /// Wraps a protocol for execution.
    pub fn new(protocol: P) -> Self {
        SyncRunner { protocol }
    }

    /// Read access to the wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Runs the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n == 0`, the adversary's declared faulty
    /// set exceeds `max_faulty`, or the crash schedule names a process
    /// outside the faulty set.
    ///
    /// # Panics
    ///
    /// Panics if the adversary *deviates from its own declaration* at run
    /// time (dropping a copy on behalf of a non-faulty process) — that is a
    /// harness bug, not a legal execution.
    pub fn run<A: Adversary + ?Sized>(
        &self,
        adversary: &mut A,
        cfg: &RunConfig,
    ) -> Result<RunOutcome<P::State, P::Msg>, ConfigError> {
        self.run_streaming(adversary, cfg, &mut NullSink, |_| {})
    }

    /// Runs the protocol, emitting structured
    /// [`Event`](ftss_telemetry::Event)s into `sink`.
    ///
    /// Emitted events: `run_start`, `round_start`/`round_end` with traffic
    /// totals, `corruption` (initial and mid-run systemic failures),
    /// `crash`, and one `send` per point-to-point copy with its
    /// [`DeliveryOutcome`](ftss_core::DeliveryOutcome) (omissions
    /// attributed to the faulty side).
    /// [`Self::run`] is exactly this method with the zero-cost
    /// [`NullSink`]; instrumentation is guarded by
    /// [`TraceSink::enabled`], so a disabled sink constructs no events.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::run`].
    pub fn run_traced<A: Adversary + ?Sized, T: TraceSink>(
        &self,
        adversary: &mut A,
        cfg: &RunConfig,
        sink: &mut T,
    ) -> Result<RunOutcome<P::State, P::Msg>, ConfigError> {
        self.run_streaming(adversary, cfg, sink, |_| {})
    }

    /// Runs the protocol, invoking `on_round` with the history after every
    /// recorded round — the streaming seam for windowed consumers (soak
    /// engines, online oracles) that must observe rounds before the window
    /// evicts them. The observer sees the history exactly as a post-run
    /// consumer would at that prefix length.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::run`].
    pub fn run_streaming<A, T, F>(
        &self,
        adversary: &mut A,
        cfg: &RunConfig,
        sink: &mut T,
        on_round: F,
    ) -> Result<RunOutcome<P::State, P::Msg>, ConfigError>
    where
        A: Adversary + ?Sized,
        T: TraceSink,
        F: FnMut(&History<P::State, P::Msg>),
    {
        let mut exchange = InProcess::new(&self.protocol, cfg.n);
        let run =
            RoundKernel::new(adversary, cfg)?.run(&self.protocol, &mut exchange, sink, on_round);
        Ok(run.unwrap_or_else(|never| match never {}))
    }
}

/// The most heard-specials masks a round shares joins over: the scan
/// for a receiver's mask stays short when the special processes are many.
const PATTERNS: usize = 8;

/// The in-process [`Exchange`]: the global state is a vector, a
/// broadcast is a function call, and a survivor steps on a borrowed view
/// of its deliveries in the round frame ([`Inbox::from_deliveries`]) —
/// fresh and late copies alike; no clone, no move, no envelopes.
///
/// For a protocol declaring [`SyncProtocol::JOINS_INBOX`] the frame's
/// clean block is joined once ([`Exchange::clean_block`]). A receiver in
/// the block heard it and some of the round's special processes, named
/// by a mask read for every receiver in one pass over the special
/// processes' heard columns ([`RoundMsgs::heard_specials_into`]): the
/// receivers that heard the same ones share one join, made by the first
/// of them. A receiver with a forged or a late copy absorbs, after the
/// block's join, the copies recorded outside the block, then its late
/// arrivals.
pub(crate) struct InProcess<'a, P: SyncProtocol> {
    protocol: &'a P,
    n: usize,
    /// `None` once a process has crashed.
    states: Vec<Option<P::State>>,
    /// The join of this round's clean senders' broadcasts (`None` when
    /// there are none).
    clean_join: Option<P::Msg>,
    /// This round's joins by heard-specials mask: the block's join and
    /// the broadcasts of the special processes in the mask. At most
    /// [`PATTERNS`] of them, found by a scan; a receiver with another
    /// mask folds on its own.
    by_pattern: Vec<(u64, P::Msg)>,
    /// This round's heard-specials mask of every process: `None` for one
    /// outside the block, with a forged or a late copy, or for all when
    /// the special processes are more than 64.
    masks: Vec<Option<u64>>,
}

impl<'a, P: SyncProtocol> InProcess<'a, P> {
    pub(crate) fn new(protocol: &'a P, n: usize) -> Self {
        InProcess {
            protocol,
            n,
            states: Vec::new(),
            clean_join: None,
            by_pattern: Vec::new(),
            masks: Vec::new(),
        }
    }
}

impl<P: SyncProtocol> Exchange<P::State, P::Msg> for InProcess<'_, P> {
    type Error = Infallible;

    fn open<T: TraceSink>(&mut self, _sink: &mut T) -> Result<(), Infallible> {
        let init = |i| {
            Some(
                self.protocol
                    .init_state(&ProtocolCtx::new(ProcessId(i), self.n)),
            )
        };
        self.states = (0..self.n).map(init).collect();
        Ok(())
    }

    fn state(&mut self, p: ProcessId) -> Option<&mut P::State> {
        self.states[p.index()].as_mut()
    }

    fn broadcast(&mut self, p: ProcessId) -> Option<P::Msg> {
        let ctx = ProtocolCtx::new(p, self.n);
        let state = self.states[p.index()].as_ref()?;
        self.protocol
            .sends(&ctx, state)
            .then(|| self.protocol.broadcast(&ctx, state))
    }

    fn clean_block(&mut self, msgs: &RoundMsgs<P::Msg>) {
        if !P::JOINS_INBOX {
            return;
        }
        let mut broadcasts = msgs.block_srcs().iter().map(|p| {
            let sent = msgs.broadcast_of(p);
            &**sent.expect("a clean sender broadcast")
        });
        self.clean_join = broadcasts.next().cloned();
        let Some(join) = &mut self.clean_join else {
            return;
        };
        broadcasts.for_each(|m| self.protocol.join(join, m));
        self.by_pattern.clear();
        msgs.heard_specials_into(&mut self.masks);
        // A receiver's late arrivals join too: its join is its own.
        if msgs.has_late() {
            for (p, mask) in self.masks.iter_mut().enumerate() {
                if msgs.deliveries(ProcessId(p)).late().next().is_some() {
                    *mask = None;
                }
            }
        }
    }

    fn deliver(&mut self, p: ProcessId, inbox: Deliveries<'_, P::Msg>) -> Result<(), Infallible> {
        let ctx = ProtocolCtx::new(p, self.n);
        let state = self.states[p.index()]
            .as_mut()
            .expect("a survivor has state");
        match &self.clean_join {
            // The shortcut is taken on the record's word: a receiver in the
            // frame's clean block heard every clean sender, so it starts
            // from their join and absorbs what else it received — the
            // copies recorded one by one, forged ones included, and its
            // late arrivals. Without forged or late copies, what else it
            // received is named by its heard-specials mask, read for every
            // receiver by `clean_block`, and the join is made once per mask.
            Some(join) if P::JOINS_INBOX && inbox.in_block() => {
                let pattern = self.masks[p.index()];
                // Found by a select, not a branch: which mask a receiver
                // has is a coin flip of the omitters.
                let mut seen = None;
                if let Some(mask) = pattern {
                    for (i, e) in self.by_pattern.iter().enumerate() {
                        seen = if e.0 == mask { Some(i) } else { seen };
                    }
                }
                if let Some((_, shared)) = seen.map(|i| &self.by_pattern[i]) {
                    step_folded(
                        self.protocol,
                        &ctx,
                        state,
                        shared.clone(),
                        std::iter::empty(),
                    );
                } else {
                    let mut joined = join.clone();
                    let rest = inbox.off_block().chain(inbox.late());
                    rest.for_each(|(_, m)| self.protocol.join(&mut joined, m));
                    if let Some(mask) = pattern.filter(|_| self.by_pattern.len() < PATTERNS) {
                        self.by_pattern.push((mask, joined.clone()));
                    }
                    step_folded(self.protocol, &ctx, state, joined, std::iter::empty());
                }
            }
            _ => self
                .protocol
                .step(&ctx, state, &Inbox::from_deliveries(inbox)),
        }
        Ok(())
    }

    fn crash<T: TraceSink>(&mut self, p: ProcessId, _sink: &mut T) -> Result<(), Infallible> {
        self.states[p.index()] = None;
        Ok(())
    }

    fn close<T: TraceSink>(&mut self, _sink: &mut T) -> Result<Vec<Option<P::State>>, Infallible> {
        Ok(std::mem::take(&mut self.states))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adversary::OmissionSide;
    use crate::adversary::{
        ByzantineAdversary, CrashOnly, NoFaults, ScriptedOmission, SilentProcess, StormAdversary,
    };
    use ftss_core::{
        CoterieTimeline, CrashSchedule, DeliveryOutcome, ProcessSet, Round, RoundCounter,
        StormKind, StormPhase,
    };
    use ftss_rng::Rng;
    use ftss_telemetry::{Event, RunMode};

    /// Everyone broadcasts its value; state counts messages seen in total.
    pub(crate) struct CountAll;

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct CState {
        pub(crate) seen: u64,
        pub(crate) c: u64,
    }

    impl Corrupt for CState {
        fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            self.seen.corrupt(rng);
            self.c.corrupt(rng);
        }
    }

    impl SyncProtocol for CountAll {
        type State = CState;
        type Msg = ();

        fn name(&self) -> &str {
            "count-all"
        }

        fn init_state(&self, _ctx: &ProtocolCtx) -> CState {
            CState { seen: 0, c: 1 }
        }

        fn broadcast(&self, _ctx: &ProtocolCtx, _s: &CState) {}

        fn step(&self, _ctx: &ProtocolCtx, s: &mut CState, inbox: &Inbox<()>) {
            s.seen += inbox.len() as u64;
            s.c += 1;
        }

        fn round_counter(&self, s: &CState) -> Option<RoundCounter> {
            Some(RoundCounter::new(s.c))
        }
    }

    /// Everyone broadcasts a value; state keeps the max seen. Supports
    /// forgery: the forged payload is the seed itself.
    pub(crate) struct EchoMax;

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) struct EState {
        pub(crate) v: u64,
        pub(crate) c: u64,
    }

    impl Corrupt for EState {
        fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            self.v.corrupt(rng);
            self.c.corrupt(rng);
        }
    }

    impl SyncProtocol for EchoMax {
        type State = EState;
        type Msg = u64;
        const JOINS_INBOX: bool = true;

        fn name(&self) -> &str {
            "echo-max"
        }

        fn init_state(&self, ctx: &ProtocolCtx) -> EState {
            EState {
                v: ctx.me.index() as u64 + 10,
                c: 1,
            }
        }

        fn broadcast(&self, _ctx: &ProtocolCtx, s: &EState) -> u64 {
            s.v
        }

        // Deliberately not written through `join`: the kernel's
        // differential tests compare the folded path against this.
        fn step(&self, _ctx: &ProtocolCtx, s: &mut EState, inbox: &Inbox<u64>) {
            s.v = inbox.iter().map(|(_, &m)| m).max().unwrap_or(s.v);
            s.c += 1;
        }

        fn join(&self, acc: &mut u64, m: &u64) {
            *acc = (*acc).max(*m);
        }

        fn step_joined(&self, _ctx: &ProtocolCtx, s: &mut EState, joined: &u64) {
            s.v = *joined;
            s.c += 1;
        }

        fn forge_message(&self, seed: u64) -> Option<u64> {
            Some(seed)
        }
    }

    /// A late copy joins its destination's inbox in its arrival round, a
    /// duplicated one arrives twice, and one due past the horizon never
    /// arrives — traced or not. p0 is the victim of a
    /// 2-round delay (round 1), a duplicate (round 2) and a 1-round
    /// delay in the last round.
    #[test]
    fn late_copies_arrive_in_their_arrival_round() {
        let phases = [
            StormPhase::new(1, 1, StormKind::Delay { rounds: 2 }),
            StormPhase::new(2, 2, StormKind::Duplicate),
            StormPhase::new(4, 4, StormKind::Delay { rounds: 1 }),
        ];
        let storm = || StormAdversary::new([ProcessId(0)], phases, 3);
        let cfg = RunConfig::clean(3, 4);
        let mut sink = ftss_telemetry::RecordingSink::new(1 << 10);
        let traced = SyncRunner::new(CountAll).run_traced(&mut storm(), &cfg, &mut sink);
        let out = SyncRunner::new(CountAll).run(&mut storm(), &cfg).unwrap();
        assert_eq!(traced.unwrap().final_states, out.final_states);
        // Round by round, p0 hears 1 + 3 + (3 + 2 delayed + 2 echoed) + 1
        // and p1, p2 each 2 + 3 + (3 + 1 + 1) + 2.
        let seen: Vec<u64> = out
            .final_states
            .iter()
            .map(|s| s.as_ref().unwrap().seen)
            .collect();
        assert_eq!(seen, [12, 12, 12]);
        let r = |r| out.history.round(Round::new(r)).msgs();
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        assert_eq!(r(1).outcome_of(p0, p1), Some(DeliveryOutcome::Delayed));
        assert!(!r(1).was_delivered(p1, p0));
        assert_eq!(r(2).outcome_of(p1, p0), Some(DeliveryOutcome::Duplicated));
        assert!(r(2).was_delivered(p0, p1));
        assert_eq!(r(3).outcome_of(p0, p1), Some(DeliveryOutcome::Delivered));
        assert_eq!(r(4).outcome_of(p1, p0), Some(DeliveryOutcome::Delayed));
    }

    #[test]
    fn scripted_forgery_delivers_forged_payload_and_marks_sender() {
        let mut adv = ScriptedOmission::new();
        adv.forge_at(1, ProcessId(0), ProcessId(1), 4242);
        let out = SyncRunner::new(EchoMax)
            .run(&mut adv, &RunConfig::clean(3, 1))
            .unwrap();
        let r1 = out.history.round(Round::FIRST);
        assert_eq!(
            r1.msgs().outcome_of(ProcessId(0), ProcessId(1)),
            Some(DeliveryOutcome::Forged)
        );
        // p1 received the forged 4242 from p0, p2 the genuine 10.
        assert_eq!(
            r1.msgs()
                .deliveries(ProcessId(1))
                .get(ProcessId(0))
                .map(|p| **p),
            Some(4242)
        );
        assert_eq!(
            r1.msgs()
                .deliveries(ProcessId(2))
                .get(ProcessId(0))
                .map(|p| **p),
            Some(10)
        );
        // The forged copy counts as delivered for the receiver.
        assert_eq!(r1.record(ProcessId(1)).delivered_len(), 3);
        // Attribution: the forging sender is the (only) faulty process.
        assert_eq!(
            out.history.faulty(),
            ProcessSet::from_iter_n(3, [ProcessId(0)])
        );
        // p1's step saw the forged max; p2 saw only genuine values. (After
        // more rounds the forged value would spread via honest rebroadcast.)
        assert_eq!(out.final_states[1].as_ref().unwrap().v, 4242);
        assert_eq!(out.final_states[2].as_ref().unwrap().v, 12);
    }

    #[test]
    fn byzantine_adversary_runs_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut adv = ByzantineAdversary::new([ProcessId(0)], 0.5, seed).with_drops(0.25);
            SyncRunner::new(EchoMax)
                .run(&mut adv, &RunConfig::clean(4, 8))
                .unwrap()
        };
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(a.history.rounds(), b.history.rounds());
        assert_eq!(a.final_states, b.final_states);
        assert_ne!(a.history.rounds(), c.history.rounds());
        // With p_forge = 0.5 over 8 rounds × 3 destinations, forgeries
        // occur (overwhelmingly likely) and only p0 deviates.
        let forged: usize = a
            .history
            .rounds()
            .iter()
            .map(|rh| {
                rh.record(ProcessId(0))
                    .sent()
                    .filter(|s| s.outcome == DeliveryOutcome::Forged)
                    .count()
            })
            .sum();
        assert!(forged > 0, "expected at least one forged copy");
        assert!(a
            .history
            .faulty()
            .is_subset(&ProcessSet::from_iter_n(4, [ProcessId(0)])));
    }

    #[test]
    #[should_panic(expected = "does not implement forge_message")]
    fn forging_against_opaque_protocol_panics() {
        let mut adv = ScriptedOmission::new();
        adv.forge_at(1, ProcessId(0), ProcessId(1), 1);
        let _ = SyncRunner::new(CountAll).run(&mut adv, &RunConfig::clean(2, 1));
    }

    #[test]
    fn targeted_corruption_hits_only_victims() {
        let schedule = CorruptionSchedule::none().at_targeted(2, 55, [ProcessId(1)]);
        let out = SyncRunner::new(CountAll)
            .run(
                &mut NoFaults,
                &RunConfig::clean(3, 3).with_mid_run_corruption(schedule.clone()),
            )
            .unwrap();
        let r2 = out.history.round(Round::new(2));
        // p1's round-2 start state is corrupted; p0 and p2 keep protocol state.
        let clean = CState { seen: 3, c: 2 };
        assert_eq!(r2.record(ProcessId(0)).state_at_start(), Some(&clean));
        assert_eq!(r2.record(ProcessId(2)).state_at_start(), Some(&clean));
        assert_ne!(
            r2.record(ProcessId(1)).state_at_start(),
            Some(&clean),
            "victim state should be corrupted (overwhelmingly likely)"
        );
        // Nobody deviated: targeted corruption is systemic, not a process fault.
        assert!(out.history.faulty().is_empty());
        assert_eq!(schedule.final_failure_round(), Some(2));
        assert!(!schedule.is_empty());
        let targeted: Vec<_> = schedule.targeted_for(2).collect();
        assert_eq!(targeted, vec![(55, &[ProcessId(1)][..])]);
        assert_eq!(schedule.targeted_for(1).count(), 0);
    }

    #[test]
    fn clean_run_full_delivery() {
        let out = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &RunConfig::clean(3, 4))
            .unwrap();
        assert_eq!(out.history.len(), 4);
        for s in out.final_states.iter().map(|s| s.as_ref().unwrap()) {
            assert_eq!(s.seen, 3 * 4);
            assert_eq!(s.c, 5);
        }
        // Every copy delivered.
        for rh in out.history.rounds() {
            for rec in rh.records() {
                assert_eq!(rec.sent_len(), 2);
                assert!(rec.sent().all(|s| s.outcome == DeliveryOutcome::Delivered));
                assert_eq!(rec.delivered_len(), 3); // includes self
            }
        }
        assert!(out.history.faulty().is_empty());
    }

    #[test]
    fn coterie_is_full_after_one_clean_round() {
        let out = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &RunConfig::clean(4, 2))
            .unwrap();
        let tl = CoterieTimeline::compute(&out.history);
        assert_eq!(*tl.at_prefix(1), ProcessSet::full(4));
    }

    #[test]
    fn crash_semantics() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(1), Round::new(2));
        let out = SyncRunner::new(CountAll)
            .run(&mut CrashOnly::new(cs), &RunConfig::clean(3, 4))
            .unwrap();
        // p1 alive in round 1, crashes during round 2 (no sends), gone after.
        let r2 = out.history.round(Round::new(2));
        assert!(r2.record(ProcessId(1)).crashed_here());
        assert!(r2
            .record(ProcessId(1))
            .sent()
            .all(|s| s.outcome == DeliveryOutcome::SenderCrashed));
        let r3 = out.history.round(Round::new(3));
        assert!(r3.record(ProcessId(1)).state_at_start().is_none());
        assert!(out.final_states[1].is_none());
        // Copies to p1 in rounds >= 2 vanish innocently.
        assert_eq!(
            r2.msgs().outcome_of(ProcessId(0), ProcessId(1)),
            Some(DeliveryOutcome::ReceiverCrashed)
        );
        // Faulty set is exactly {p1}.
        assert_eq!(
            out.history.faulty(),
            ProcessSet::from_iter_n(3, [ProcessId(1)])
        );
        // Survivors saw: r1: 3, r2: 2, r3: 2, r4: 2 => 9.
        assert_eq!(out.final_states[0].as_ref().unwrap().seen, 9);
    }

    #[test]
    fn partial_sends_before_crash() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(0), Round::new(1));
        let adversary = CrashOnly::new(cs).with_partial_sends(1);
        let out = SyncRunner::new(CountAll)
            .run(&mut adversary.clone(), &RunConfig::clean(3, 2))
            .unwrap();
        let r1 = out.history.round(Round::new(1));
        let sent: Vec<_> = r1.record(ProcessId(0)).sent().collect();
        assert_eq!(sent[0].outcome, DeliveryOutcome::Delivered);
        assert_eq!(sent[1].outcome, DeliveryOutcome::SenderCrashed);
    }

    #[test]
    fn silent_process_history_marks_send_omissions() {
        let out = SyncRunner::new(CountAll)
            .run(
                &mut SilentProcess::new(ProcessId(0), 2),
                &RunConfig::clean(2, 4),
            )
            .unwrap();
        let r1 = out.history.round(Round::new(1));
        assert_eq!(
            r1.record(ProcessId(0)).sent().next().unwrap().outcome,
            DeliveryOutcome::DroppedBySender
        );
        let r3 = out.history.round(Round::new(3));
        assert_eq!(
            r3.record(ProcessId(0)).sent().next().unwrap().outcome,
            DeliveryOutcome::Delivered
        );
        assert_eq!(
            out.history.faulty(),
            ProcessSet::from_iter_n(2, [ProcessId(0)])
        );
        // p1 misses p0's first two broadcasts: total = (2+2)+(3+3) ... p1
        // sees self+p0 per round except rounds 1-2 where only self: 1+1+2+2.
        assert_eq!(out.final_states[1].as_ref().unwrap().seen, 6);
    }

    #[test]
    fn corruption_is_seeded_and_reproducible() {
        let a = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &RunConfig::corrupted(3, 1, 99))
            .unwrap();
        let b = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &RunConfig::corrupted(3, 1, 99))
            .unwrap();
        let c = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &RunConfig::corrupted(3, 1, 100))
            .unwrap();
        let starts = |o: &RunOutcome<CState, ()>| -> Vec<CState> {
            o.history
                .round(Round::FIRST)
                .records()
                .map(|r| r.state_at_start().cloned().unwrap())
                .collect()
        };
        assert_eq!(starts(&a), starts(&b));
        assert_ne!(starts(&a), starts(&c));
        // And differs from the clean initial state.
        assert_ne!(
            starts(&a),
            vec![CState { seen: 0, c: 1 }; 3],
            "corruption should disturb the state (overwhelmingly likely)"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_schema_events() {
        use ftss_telemetry::RecordingSink;
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(1), Round::new(2));
        let cfg = RunConfig::corrupted(3, 4, 77);
        let plain = SyncRunner::new(CountAll)
            .run(&mut CrashOnly::new(cs.clone()), &cfg)
            .unwrap();
        let mut sink = RecordingSink::new(4096);
        let traced = SyncRunner::new(CountAll)
            .run_traced(&mut CrashOnly::new(cs), &cfg, &mut sink)
            .unwrap();
        // Tracing must not perturb the execution, nor the frames' blocks.
        assert_eq!(plain.history.rounds(), traced.history.rounds());
        assert_eq!(plain.final_states, traced.final_states);
        for (a, b) in plain.history.rounds().iter().zip(traced.history.rounds()) {
            assert_eq!(a.msgs().block_srcs(), b.msgs().block_srcs());
        }
        assert!(!traced.history.rounds()[0].msgs().block_srcs().is_empty());

        let events: Vec<Event> = sink.take();
        assert!(matches!(
            events.first(),
            Some(Event::RunStart {
                mode: RunMode::Sync,
                n: 3,
                rounds: Some(4),
                ..
            })
        ));
        // Initial corruption, one crash, 4 round_start + 4 round_end.
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::Corruption { round: 1, seed: 77 }))
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(
                    e,
                    Event::Crash {
                        at: 2,
                        p: ProcessId(1)
                    }
                ))
                .count(),
            1
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::RoundStart { .. }))
                .count(),
            4
        );
        // The send events agree with the recorded history, copy for copy.
        let sends: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::Send { .. }))
            .collect();
        let recorded: usize = plain
            .history
            .rounds()
            .iter()
            .map(|rh| rh.records().map(|rec| rec.sent_len()).sum::<usize>())
            .sum();
        assert_eq!(sends.len(), recorded);
        // Round-end totals are consistent.
        for ev in &events {
            if let Event::RoundEnd {
                sent,
                delivered,
                dropped,
                ..
            } = ev
            {
                assert_eq!(sent - delivered, *dropped);
            }
        }
    }

    #[test]
    fn scripted_receive_omission_blocks_delivery() {
        let mut adv = ScriptedOmission::new();
        adv.drop_at(1, ProcessId(0), ProcessId(1), OmissionSide::Receiver);
        let out = SyncRunner::new(CountAll)
            .run(&mut adv, &RunConfig::clean(2, 1))
            .unwrap();
        let r1 = out.history.round(Round::FIRST);
        // p1 received only itself.
        assert_eq!(r1.record(ProcessId(1)).delivered_len(), 1);
        assert_eq!(r1.record(ProcessId(0)).delivered_len(), 2);
    }

    #[test]
    fn windowed_run_matches_full_on_retained_suffix() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(1), Round::new(2));
        let full = SyncRunner::new(CountAll)
            .run(&mut CrashOnly::new(cs.clone()), &RunConfig::clean(3, 6))
            .unwrap();
        let windowed = SyncRunner::new(CountAll)
            .run(
                &mut CrashOnly::new(cs),
                &RunConfig::clean(3, 6).with_history_window(2),
            )
            .unwrap();
        assert_eq!(windowed.history.len(), 6);
        assert_eq!(windowed.history.evicted(), 4);
        assert_eq!(full.final_states, windowed.final_states);
        assert_eq!(full.history.faulty(), windowed.history.faulty());
        for r in [5u64, 6] {
            assert_eq!(
                full.history.round(Round::new(r)),
                windowed.history.round(Round::new(r))
            );
        }
    }

    #[test]
    fn streaming_observer_sees_every_prefix() {
        let mut lengths = Vec::new();
        let mut faulty_sizes = Vec::new();
        let out = SyncRunner::new(CountAll)
            .run_streaming(
                &mut SilentProcess::new(ProcessId(0), 1),
                &RunConfig::clean(2, 5).with_history_window(2),
                &mut NullSink,
                |h| {
                    lengths.push(h.len());
                    faulty_sizes.push(h.faulty().len());
                },
            )
            .unwrap();
        assert_eq!(lengths, vec![1, 2, 3, 4, 5]);
        // The round-1 send omission stays visible after eviction.
        assert_eq!(faulty_sizes, vec![1, 1, 1, 1, 1]);
        assert_eq!(out.history.evicted(), 3);
    }
}
