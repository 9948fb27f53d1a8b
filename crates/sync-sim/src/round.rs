//! The round kernel: the one implementation of the §2 lock-step round.
//!
//! [`SyncRunner`](crate::SyncRunner) and the `ftss-serve` session router
//! are thin drivers over [`RoundKernel::run`]. They differ only in *where
//! the processes live* — the [`Exchange`] seam: in-process states, or
//! node threads behind channels. Everything a checker or a trace consumer
//! can observe is decided here, once: configuration validation, the
//! recorded [`History`] (window and frame recycling included), every
//! deterministic telemetry event, and the order in which the
//! [`Adversary`] is consulted. Served = simulated by construction.
//!
//! Round semantics (§2 of the paper; DESIGN.md §16 gives the exact
//! consultation order): in round `r` every participating process
//! broadcasts to **all** processes, itself included, and the self-copy
//! always arrives (footnote 1). Each other copy may be dropped or forged
//! by the adversary (attributed to the faulty side), vanish because the
//! receiver is crashed or absent, or be cut short by its sender crashing
//! mid-round; a delivered copy the adversary makes late is held here and
//! recorded in its arrival round's frame ([`RoundHistory::record_late`]),
//! where its receiver's inbox reads it. Only faulty processes deviate (§2.1),
//! so the adversary is consulted only for copies that touch its declared
//! faulty set; the rest of the round — all but ~2·f·n of its n² copies —
//! is delivered without asking and recorded as the frame's clean block,
//! two sets in O(n/64) ([`RoundHistory::record_clean_block`]). The frame
//! is told the block's receivers before the first copy
//! ([`RoundHistory::open_clean_block`]), so it keeps rows for the special
//! processes alone: a round with f of them holds O(f·n) bits, not two
//! n×n grids. Every process alive at the round's *end* then steps on its
//! inbox; a process crashing in round `r` emits a prefix of its copies,
//! takes no transition, and has no state from round `r + 1` on.
//!
//! [`SyncStepper`](crate::SyncStepper) deliberately stays outside: it
//! records no states and has no adversary, schedule or sink, and folding
//! it in would make this kernel branch on its caller.

use crate::adversary::{Adversary, CopyRow, Lateness};
use crate::protocol::{ProtocolCtx, SyncProtocol};
use crate::runner::{Corruption, RunConfig, RunOutcome};
use ftss_core::{
    round_count, ConfigError, Corrupt, CrashSchedule, Deliveries, DeliveryOutcome, History,
    Payload, ProcessId, ProcessSet, Round, RoundHistory, RoundMsgs,
};
use ftss_rng::StdRng;
use ftss_telemetry::{Event, RunMode, TraceSink};
use std::collections::BTreeMap;

/// Where the processes live. The kernel decides *what happens* in a
/// round; an exchange only moves state and messages. Methods that may
/// narrate transport-level telemetry take the sink; the deterministic
/// events are the kernel's alone.
pub trait Exchange<S, M> {
    /// Transport-level failure; the in-process exchange has none.
    type Error;

    /// Brings the system up: on return every process holds the
    /// protocol's initial state (before any corruption).
    fn open<T: TraceSink>(&mut self, sink: &mut T) -> Result<(), Self::Error>;

    /// Called before round `r`'s `round_start`. Membership changes take
    /// effect here; on return the round-start state and broadcast of
    /// every participating process are available.
    fn begin_round<T: TraceSink>(&mut self, r: u64, sink: &mut T) -> Result<(), Self::Error> {
        let _ = (r, sink);
        Ok(())
    }

    /// The round-start state of `p`, or `None` if `p` takes no part in
    /// this round — crashed earlier, or out of the session (down between
    /// a kill and its respawn). Such a process records no
    /// state, sends nothing, and is a crashed receiver to everyone else.
    fn state(&mut self, p: ProcessId) -> Option<&mut S>;

    /// The kernel has just corrupted `victims` through
    /// [`state`](Self::state): make the processes adopt their new states
    /// and refresh their broadcasts.
    fn corrupted<T: TraceSink>(
        &mut self,
        victims: &[ProcessId],
        sink: &mut T,
    ) -> Result<(), Self::Error> {
        let _ = (victims, sink);
        Ok(())
    }

    /// What participating `p` broadcasts this round; `None` when the
    /// protocol declines to send. Asked once per round.
    fn broadcast(&mut self, p: ProcessId) -> Option<M>;

    /// Told once per round, after the walk and before the first
    /// [`deliver`](Self::deliver), with the round's messages and their
    /// clean block ([`RoundMsgs::block_srcs`], every one heard by each
    /// inbox that is [`in_block`](Deliveries::in_block)), traced or not.
    /// An exchange whose processes step in this address space may do the
    /// work those receivers share once; the rows handed to `deliver` are
    /// complete regardless, so ignoring the call (the default) loses
    /// nothing.
    fn clean_block(&mut self, msgs: &RoundMsgs<M>) {
        let _ = msgs;
    }

    /// Hands a survivor its inbox — the round's fresh deliveries and the
    /// late arrivals recorded for it ([`Deliveries::late`]) — and lets it
    /// step.
    fn deliver(&mut self, p: ProcessId, inbox: Deliveries<'_, M>) -> Result<(), Self::Error>;

    /// Ends a process that crashes this round: no transition, and no
    /// state from the next round on.
    fn crash<T: TraceSink>(&mut self, p: ProcessId, sink: &mut T) -> Result<(), Self::Error>;

    /// Shuts the system down; returns each process's final state (`None`
    /// for those that are gone).
    fn close<T: TraceSink>(&mut self, sink: &mut T) -> Result<Vec<Option<S>>, Self::Error>;
}

/// Late copies by arrival round, each round's `(sender, receiver,
/// payload)` in hold order; the payload is the sender's shared broadcast.
type LateQueue<M> = BTreeMap<u64, Vec<(ProcessId, ProcessId, Payload<M>)>>;

/// A process's part in the current round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Part {
    /// None: crashed earlier, or absent from the exchange.
    Out,
    /// Broadcasts (a prefix of) its copies, then dies without stepping.
    Crashing,
    Alive,
}

/// A validated run, ready to execute over any [`Exchange`].
#[derive(Debug)]
pub struct RoundKernel<'a, A: ?Sized> {
    adversary: &'a mut A,
    cfg: &'a RunConfig,
    faulty: ProcessSet,
    schedule: CrashSchedule,
    parts: Vec<Part>,
    /// This round's split of the processes (refreshed with `parts`):
    /// *special* — declared faulty, or not [`Part::Alive`] this round —
    /// and *ordinary*, everyone else, computed as `alive ∖ faulty` over
    /// words. A copy between two ordinary processes can only be
    /// `Delivered`.
    alive: ProcessSet,
    ordinary: ProcessSet,
    /// The ordinary processes that broadcast: every ordinary process
    /// hears all of them — the frame's clean block.
    clean_senders: ProcessSet,
    /// Every process, ascending: the senders.
    everyone: Vec<ProcessId>,
    /// Every process, ascending, with a `Delivered` fate: a faulty
    /// sender's row before the copies to receivers not alive are marked.
    to_all: Vec<(ProcessId, DeliveryOutcome)>,
    /// The special processes' entries, with the fate of a copy to each
    /// before the adversary speaks — `Delivered` if it is alive this
    /// round, `ReceiverCrashed` if not: the faulty ones — a clean
    /// sender's eligible copies — and the others, which are not alive —
    /// its copies nobody is asked about. O(f) each: all a clean sender's
    /// row holds.
    faulty_fates: Vec<(ProcessId, DeliveryOutcome)>,
    absent_fates: Vec<(ProcessId, DeliveryOutcome)>,
    /// The run of senders being collected, then decided by the adversary
    /// in one call: consecutive clean senders, or one special sender.
    row: CopyRow,
    /// A clean run's rows over every special process, when some are
    /// absent: the decided copies merged with those to the absent ones.
    grid: Vec<(ProcessId, DeliveryOutcome)>,
}

impl<'a, A: Adversary + ?Sized> RoundKernel<'a, A> {
    /// Validates `cfg` against the adversary's declaration.
    ///
    /// # Errors
    ///
    /// `n == 0`, an empty history window, an adversary naming a process
    /// outside the universe, a declared faulty set larger than
    /// `max_faulty`, or a crash schedule naming a process outside the
    /// faulty set.
    pub fn new(adversary: &'a mut A, cfg: &'a RunConfig) -> Result<Self, ConfigError> {
        if cfg.n == 0 {
            return Err(ConfigError::new("n must be at least 1"));
        }
        if cfg.history_window == Some(0) {
            return Err(ConfigError::new("history window must be at least 1 round"));
        }
        if let Some(p) = adversary.outside_universe(cfg.n) {
            return Err(ConfigError::new(format!(
                "adversary names {p}, outside the universe 0..{} of n = {}",
                cfg.n, cfg.n
            )));
        }
        let faulty = adversary.faulty(cfg.n);
        if faulty.len() > cfg.max_faulty {
            return Err(ConfigError::new(format!(
                "adversary declares {} faulty processes but f = {}",
                faulty.len(),
                cfg.max_faulty
            )));
        }
        let schedule = adversary.crash_schedule();
        if let Some((p, _)) = schedule.iter().find(|&(p, _)| !faulty.contains(p)) {
            return Err(ConfigError::new(format!(
                "crash schedule names {p} outside the declared faulty set"
            )));
        }
        Ok(RoundKernel {
            adversary,
            cfg,
            faulty,
            schedule,
            parts: vec![Part::Out; cfg.n],
            alive: ProcessSet::empty(cfg.n),
            ordinary: ProcessSet::empty(cfg.n),
            clean_senders: ProcessSet::empty(cfg.n),
            everyone: (0..cfg.n).map(ProcessId).collect(),
            to_all: (0..cfg.n)
                .map(|i| (ProcessId(i), DeliveryOutcome::Delivered))
                .collect(),
            faulty_fates: Vec::new(),
            absent_fates: Vec::new(),
            row: CopyRow::default(),
            grid: Vec::new(),
        })
    }

    /// The adversary's declared faulty set.
    pub fn faulty(&self) -> &ProcessSet {
        &self.faulty
    }

    /// The adversary's crash schedule.
    pub fn schedule(&self) -> &CrashSchedule {
        &self.schedule
    }

    /// Executes the configured rounds over `exchange`, emitting the
    /// deterministic event stream into `sink` and calling `on_round` with
    /// the history after every recorded round. Late copies due past the
    /// horizon never arrive.
    ///
    /// # Errors
    ///
    /// The exchange's failures, unchanged.
    ///
    /// # Panics
    ///
    /// If the adversary, on a copy it is consulted about, deviates from
    /// its own declaration (a drop or a forgery on behalf of the
    /// non-faulty end, a late copy that was not delivered or due in its
    /// own round), or forges against a protocol without `forge_message`
    /// — harness bugs, not executions.
    pub fn run<P, X, T, F>(
        mut self,
        protocol: &P,
        exchange: &mut X,
        sink: &mut T,
        mut on_round: F,
    ) -> Result<RunOutcome<P::State, P::Msg>, X::Error>
    where
        P: SyncProtocol,
        P::State: Corrupt,
        X: Exchange<P::State, P::Msg>,
        T: TraceSink,
        F: FnMut(&History<P::State, P::Msg>),
    {
        let cfg = self.cfg;
        let n = cfg.n;
        let traced = sink.enabled();
        if traced {
            sink.emit(&Event::RunStart {
                mode: RunMode::Sync,
                protocol: protocol.name().to_string(),
                n,
                rounds: Some(round_count(cfg.rounds)),
                msg_size: Some(std::mem::size_of::<P::Msg>()),
            });
        }
        exchange.open(sink)?;
        if let Corruption::Arbitrary { seed } = cfg.corruption {
            corrupt(exchange, 1, seed, &self.everyone, sink)?;
        }

        let mut history: History<P::State, P::Msg> = match cfg.history_window {
            Some(w) => History::with_window(n, w),
            None => History::new(n),
        };
        let mid_run = &cfg.mid_run_corruption;
        // The frame a windowed history evicts comes back here and is
        // reset in place — a two-frame arena, no per-round allocation
        // once the window is full. Its broadcasts move to `pool`, one
        // slot per sender, and the walk refills them in place
        // (`Payload::set`) unless an observer still holds one.
        let mut spare: Option<RoundHistory<P::State, P::Msg>> = None;
        let mut pool: Vec<Option<Payload<P::Msg>>> = Vec::new();
        let mut late = LateQueue::new();

        for r in 1..=round_count(cfg.rounds) {
            exchange.begin_round(r, sink)?;
            if traced {
                sink.emit(&Event::RoundStart { round: r });
            }
            // Systemic failures: the global entry, then the targeted
            // ones (churn joins) in insertion order.
            if let Some(seed) = mid_run.seed_for(r) {
                corrupt(exchange, r, seed, &self.everyone, sink)?;
            }
            for (seed, victims) in mid_run.targeted_for(r) {
                corrupt(exchange, r, seed, victims, sink)?;
            }
            let mut frame = match spare.take() {
                Some(mut evicted) => {
                    pool.resize_with(n, || None);
                    for (i, slot) in pool.iter_mut().enumerate() {
                        if let Some(payload) = evicted.take_broadcast(ProcessId(i)) {
                            *slot = Some(payload);
                        }
                    }
                    evicted.reset(n);
                    evicted
                }
                None => RoundHistory::empty(n),
            };
            // Decide every process's part in the round and record the
            // round-start state of those taking part.
            let round = Round::new(r);
            for i in 0..n {
                let p = ProcessId(i);
                let part = &mut self.parts[i];
                *part = Part::Out;
                if self.schedule.is_crashed(p, round) {
                    continue;
                }
                let Some(state) = exchange.state(p) else {
                    continue;
                };
                let crashing = self.schedule.crashes_in(p, round);
                if crashing && traced {
                    sink.emit(&Event::Crash { at: r, p });
                }
                let counter = protocol.round_counter(state);
                let halted = protocol.is_halted(&ProtocolCtx::new(p, n), state);
                frame.set_process(p, Some(state.clone()), counter, crashing, halted);
                *part = if crashing {
                    Part::Crashing
                } else {
                    Part::Alive
                };
            }
            let broadcast = |p: ProcessId| {
                let msg = exchange.broadcast(p)?;
                Some(match pool.get_mut(p.index()).and_then(Option::take) {
                    Some(mut payload) => {
                        payload.set(msg);
                        payload
                    }
                    None => Payload::new(msg),
                })
            };
            let (sent, delivered) = self.walk(protocol, broadcast, &mut late, r, &mut frame, sink);
            // A late copy arrives only at a receiver that steps this
            // round; the others lose it. By receiver (a stable sort keeps
            // each receiver's hold order), so each is an append.
            let mut arrivals = late.remove(&r).unwrap_or_default();
            arrivals.sort_by_key(|&(_, to, _)| to);
            for (from, to, payload) in arrivals {
                if self.parts[to.index()] == Part::Alive {
                    frame.record_late(from, to, payload);
                }
            }
            exchange.clean_block(frame.msgs());
            for (i, &part) in self.parts.iter().enumerate() {
                let p = ProcessId(i);
                match part {
                    Part::Out => {}
                    Part::Crashing => exchange.crash(p, sink)?,
                    Part::Alive => exchange.deliver(p, frame.msgs().deliveries(p))?,
                }
            }
            if traced {
                sink.emit(&Event::RoundEnd {
                    round: r,
                    sent,
                    delivered,
                    dropped: sent - delivered,
                });
            }
            spare = history.push(frame);
            on_round(&history);
        }

        let final_states = exchange.close(sink)?;
        Ok(RunOutcome {
            history,
            final_states,
        })
    }

    /// The `(sender, destination)` walk. One shared payload per
    /// broadcast, as `broadcast` hands it out; a visited copy's fate is a
    /// bit in a row of the frame's table plus, for anything but a plain
    /// delivery, a sparse exception — nothing is allocated per copy.
    ///
    /// The walk is sparse. A copy between two *ordinary* processes —
    /// neither declared faulty, both [`Part::Alive`] — can only be
    /// `Delivered`, so that block of the round is recorded as two sets
    /// and never submitted to the adversary; only copies with a
    /// *special* endpoint are visited, and only the special processes
    /// own rows ([`RoundHistory::open_clean_block`]). A trace watching
    /// copies go by still gets one `send` event per copy
    /// ([`Self::trace`]), and the frame and the adversary's questions
    /// are the same as without it.
    ///
    /// The senders are taken in runs ([`Self::close_run`]): each maximal
    /// run of clean senders between two special ones is decided by one
    /// [`Adversary::decide_row`] and recorded by one
    /// [`RoundHistory::record_clean_run`], which writes the special
    /// processes' columns a word of senders at a time; a special sender
    /// is a run of its own, its row recorded by one
    /// [`RoundHistory::record_copies`]. Sender-major order keeps every
    /// draw in its place.
    ///
    /// Returns the round's `(sent, delivered)` copy totals (counted only
    /// when tracing).
    fn walk<P, T>(
        &mut self,
        protocol: &P,
        mut broadcast: impl FnMut(ProcessId) -> Option<Payload<P::Msg>>,
        late: &mut LateQueue<P::Msg>,
        r: u64,
        frame: &mut RoundHistory<P::State, P::Msg>,
        sink: &mut T,
    ) -> (u64, u64)
    where
        P: SyncProtocol,
        T: TraceSink,
    {
        let parts = &self.parts;
        self.alive.assign(|p| parts[p.index()] == Part::Alive);
        self.ordinary.clone_from(&self.alive);
        self.ordinary.subtract(&self.faulty);
        // Told up front, the frame keeps no rows for the ordinary
        // processes: their copies with a special end sit in the special
        // processes' columns, and the rest is the block.
        frame.open_clean_block(&self.ordinary);
        self.faulty_fates.clear();
        self.absent_fates.clear();
        for &q in frame.msgs().specials() {
            let fate = if self.alive.contains(q) {
                DeliveryOutcome::Delivered
            } else {
                DeliveryOutcome::ReceiverCrashed
            };
            if self.faulty.contains(q) {
                self.faulty_fates.push((q, fate));
            } else {
                self.absent_fates.push((q, fate));
            }
        }
        // Every ordinary process sends, unless it declines to.
        self.clean_senders.clone_from(&self.ordinary);
        let mut totals = (0u64, 0u64);
        for i in 0..self.parts.len() {
            let (p, part) = (ProcessId(i), self.parts[i]);
            if part == Part::Out {
                continue;
            }
            let Some(payload) = broadcast(p) else {
                self.clean_senders.remove(p);
                continue;
            };
            frame.set_broadcast(p, payload);
            // A clean sender visits the faulty processes alone.
            if self.ordinary.contains(p) {
                self.row.push_row(p, &self.faulty_fates, &[]);
                continue;
            }
            // A special sender, which is faulty, closes the run before
            // it, and its row, every copy of which is eligible, is a run
            // of its own.
            self.close_run(protocol, r, frame, late, sink, &mut totals);
            let crashing = part == Part::Crashing;
            self.row.reset(crashing);
            self.row
                .push_row(p, &self.to_all[..i], &self.to_all[i + 1..]);
            let dead = self.faulty_fates.iter().chain(&self.absent_fates);
            for &(q, fate) in
                dead.filter(|&&(q, fate)| q != p && fate != DeliveryOutcome::Delivered)
            {
                self.row.set(q.index() - usize::from(q > p), fate);
            }
            // Self-delivery always succeeds and is never consulted
            // (footnote 1); a crashing process takes no step, so its own
            // copy is moot. A clean sender's is in the block.
            if !crashing {
                frame.record_delivery(p, p);
            }
            self.close_run(protocol, r, frame, late, sink, &mut totals);
        }
        self.close_run(protocol, r, frame, late, sink, &mut totals);
        // The clean block, self-deliveries included: every clean sender
        // sent to every other ordinary process, and every ordinary
        // process heard every clean sender.
        if !self.clean_senders.is_empty() {
            frame.record_clean_block(&self.clean_senders);
        }
        totals
    }

    /// Decides the collected run of senders in one
    /// [`Adversary::decide_row`], holds the adversary to the model
    /// ([`Self::settle`]), traces it, records it and empties it. A clean
    /// run goes to the special processes' columns
    /// ([`RoundHistory::record_clean_run`]) — merged first with its copies
    /// to the absent processes, which nobody is asked about, if there are
    /// any; a special sender's row to its own rows ([`Self::record`]).
    fn close_run<P, T>(
        &mut self,
        protocol: &P,
        r: u64,
        frame: &mut RoundHistory<P::State, P::Msg>,
        late: &mut LateQueue<P::Msg>,
        sink: &mut T,
        totals: &mut (u64, u64),
    ) where
        P: SyncProtocol,
        T: TraceSink,
    {
        let row = &mut self.row;
        let Some(&first) = row.senders().first() else {
            return;
        };
        let round = Round::new(r);
        let from_faulty = self.faulty.contains(first);
        if !row.is_empty() {
            self.adversary.decide_row(round, row);
            Self::settle(&self.faulty, round, from_faulty, row, frame.msgs(), late);
        }
        if sink.enabled() {
            Self::trace(r, row, &self.alive, sink, totals);
        }
        if from_faulty {
            Self::record(protocol, row, frame);
        } else {
            let copies = if self.absent_fates.is_empty() {
                row.copies()
            } else {
                self.grid.clear();
                for (_, copies) in row.rows() {
                    let start = self.grid.len();
                    self.grid.extend_from_slice(copies);
                    self.grid.extend_from_slice(&self.absent_fates);
                    self.grid[start..].sort_unstable_by_key(|&(q, _)| q);
                }
                &self.grid
            };
            if !copies.is_empty() {
                frame.record_clean_run(row.senders(), copies);
            }
        }
        row.reset(false);
    }

    /// Holds the adversary to the model on a decided run — a drop or a
    /// forgery only on behalf of a faulty end, lateness only for a
    /// delivered copy and a later round — and moves each late copy to
    /// `late` under its arrival round, retagged `Delayed` or
    /// `Duplicated`.
    #[inline]
    fn settle<M>(
        faulty: &ProcessSet,
        round: Round,
        from_faulty: bool,
        row: &mut CopyRow,
        msgs: &RoundMsgs<M>,
        late: &mut LateQueue<M>,
    ) {
        // A run is scanned for the kinds of verdict that may be illegal:
        // a faulty sender's receiver omissions, a non-faulty sender's own
        // deviations (every receiver in its row is faulty), and a crash
        // cut of a sender not crashing this round. A fold with no branch
        // on the verdicts, which are coin flips.
        let crashing = row.crashing();
        let suspect = |&(_, outcome): &(ProcessId, DeliveryOutcome)| {
            let by_sender = (outcome == DeliveryOutcome::DroppedBySender)
                | (outcome == DeliveryOutcome::Forged);
            let by_receiver = outcome == DeliveryOutcome::DroppedByReceiver;
            let cut = outcome == DeliveryOutcome::SenderCrashed;
            (by_receiver & from_faulty) | (by_sender & !from_faulty) | (cut & !crashing)
        };
        if row.copies().iter().fold(false, |seen, c| seen | suspect(c)) {
            refuse_deviation(faulty, from_faulty, row);
        }
        if !row.late().is_empty() {
            hold_late(round, row, msgs, late);
        }
    }

    /// One `send` event per copy of each of the run's senders — to every
    /// other process, in destination order: an eligible copy with the
    /// outcome decided in `row`, any other `Delivered` if its receiver is
    /// `alive` and `ReceiverCrashed` if not — and the round's totals.
    fn trace<T: TraceSink>(
        r: u64,
        row: &CopyRow,
        alive: &ProcessSet,
        sink: &mut T,
        (sent, delivered): &mut (u64, u64),
    ) {
        for (p, copies) in row.rows() {
            let mut eligible = copies.iter().peekable();
            for to in (0..alive.universe()).map(ProcessId).filter(|&q| q != p) {
                let fate = if alive.contains(to) {
                    DeliveryOutcome::Delivered
                } else {
                    DeliveryOutcome::ReceiverCrashed
                };
                let outcome = eligible.next_if(|c| c.0 == to).map_or(fate, |c| c.1);
                *sent += 1;
                // A forged copy arrives (with the wrong payload), so it
                // counts as delivered in the traffic totals.
                if matches!(
                    outcome,
                    DeliveryOutcome::Delivered
                        | DeliveryOutcome::Duplicated
                        | DeliveryOutcome::Forged
                ) {
                    *delivered += 1;
                }
                sink.emit(&Event::Send {
                    round: r,
                    from: p,
                    to,
                    outcome,
                });
            }
        }
    }

    /// Records a special sender's row, a run of one: at once, except a
    /// row with a forged copy, whose forgeries carry payloads of their
    /// own.
    #[inline]
    fn record<P: SyncProtocol>(
        protocol: &P,
        row: &CopyRow,
        frame: &mut RoundHistory<P::State, P::Msg>,
    ) {
        let p = row.senders()[0];
        if row.forged().is_empty() {
            if !row.is_empty() {
                frame.record_copies(p, row.copies());
            }
            return;
        }
        let mut seeds = row.forged().iter();
        for (i, &(q, outcome)) in row.copies().iter().enumerate() {
            if outcome != DeliveryOutcome::Forged {
                frame.record_copies(p, &[(q, outcome)]);
                continue;
            }
            let (at, seed) = *seeds.next().expect("a seed per forged copy");
            assert_eq!(at, i, "forged list out of step with the row");
            let msg = protocol.forge_message(seed).unwrap_or_else(|| {
                panic!(
                    "adversary forged a copy but protocol {} \
                     does not implement forge_message",
                    protocol.name()
                )
            });
            frame.record_forged(p, q, Payload::new(msg));
        }
    }
}

/// Panics on the first copy of a decided run the adversary decided on
/// behalf of a non-faulty end, or cut while its sender does not crash, if
/// there is one.
#[cold]
#[inline(never)]
fn refuse_deviation(faulty: &ProcessSet, from_faulty: bool, row: &CopyRow) {
    let deviates = |&(q, outcome): &(ProcessId, DeliveryOutcome)| match outcome {
        DeliveryOutcome::DroppedBySender | DeliveryOutcome::Forged => !from_faulty,
        DeliveryOutcome::DroppedByReceiver => !faulty.contains(q),
        DeliveryOutcome::SenderCrashed => !row.crashing(),
        _ => false,
    };
    let Some(i) = row.copies().iter().position(deviates) else {
        return;
    };
    let (p, (q, outcome)) = (row.sender_of(i), row.copies()[i]);
    match outcome {
        DeliveryOutcome::DroppedByReceiver => panic!("adversary made non-faulty {q} receive-omit"),
        DeliveryOutcome::Forged => panic!("adversary made non-faulty {p} forge"),
        DeliveryOutcome::SenderCrashed => {
            panic!("adversary cut the row of {p}, which is not crashing")
        }
        _ => panic!("adversary made non-faulty {p} send-omit"),
    }
}

/// Moves each late copy of a decided run to `late` under its arrival
/// round, with its sender's broadcast, and retags it `Delayed` or
/// `Duplicated`.
fn hold_late<M>(round: Round, row: &mut CopyRow, msgs: &RoundMsgs<M>, late: &mut LateQueue<M>) {
    for i in 0..row.late().len() {
        let (at, lateness) = row.late()[i];
        let (p, (q, outcome)) = (row.sender_of(at), row.copies()[at]);
        let (tag, rounds) = match lateness {
            Lateness::Delayed(rounds) => (DeliveryOutcome::Delayed, rounds.into()),
            Lateness::Duplicated => (DeliveryOutcome::Duplicated, 1),
        };
        assert!(
            outcome == DeliveryOutcome::Delivered && rounds >= 1,
            "adversary made an undelivered or same-round copy {p} → {q} late"
        );
        let payload = msgs.broadcast_of(p).expect("a sent copy has a broadcast");
        let copy = (p, q, payload.clone());
        late.entry(round.get() + rounds).or_default().push(copy);
        row.set(at, tag);
    }
}

/// A systemic failure in round `r`: one rng seeded with `seed` corrupts
/// `victims` in the order given (skipping those with no state), then
/// `corruption` is emitted and the exchange propagates the new states.
fn corrupt<S: Corrupt, M, X: Exchange<S, M>, T: TraceSink>(
    exchange: &mut X,
    r: u64,
    seed: u64,
    victims: &[ProcessId],
    sink: &mut T,
) -> Result<(), X::Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    for &v in victims {
        if let Some(s) = exchange.state(v) {
            s.corrupt(&mut rng);
        }
    }
    if sink.enabled() {
        sink.emit(&Event::Corruption { round: r, seed });
    }
    exchange.corrupted(victims, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        ByzantineAdversary, CrashOnly, GroupPartition, NoFaults, OmissionSide, RandomOmission,
        ScriptedOmission, SilentProcess, StormAdversary, TapeOmission,
    };
    use crate::runner::tests::{CountAll, EState, EchoMax};
    use crate::runner::{InProcess, SyncRunner};
    use ftss_core::{StormKind, StormPhase};
    use ftss_rng::check::forall;
    use ftss_rng::Rng;
    use ftss_telemetry::{NullSink, RecordingSink};
    use std::cell::Cell;
    use std::convert::Infallible;

    /// A scripted exchange: canned states that never change, every
    /// process broadcasts its value, `absent` is out throughout, `leaves`
    /// is out from its round on, and deliveries and crashes are only
    /// logged.
    struct Canned {
        states: Vec<Option<EState>>,
        round: u64,
        leaves: Option<(ProcessId, u64)>,
        /// `(round, receiver, senders heard)` per delivered inbox.
        inboxes: Vec<(u64, ProcessId, Vec<ProcessId>)>,
        /// `(round, sender, receiver)` per late arrival handed over.
        late: Vec<(u64, ProcessId, ProcessId)>,
        crashed: Vec<(u64, ProcessId)>,
    }

    impl Canned {
        fn new(n: usize, absent: Option<ProcessId>) -> Self {
            let state = |i| (Some(ProcessId(i)) != absent).then_some(EState { v: 7, c: 1 });
            Canned {
                states: (0..n).map(state).collect(),
                round: 0,
                leaves: None,
                inboxes: Vec::new(),
                late: Vec::new(),
                crashed: Vec::new(),
            }
        }
    }

    impl Exchange<EState, u64> for Canned {
        type Error = Infallible;

        fn open<T: TraceSink>(&mut self, _: &mut T) -> Result<(), Infallible> {
            Ok(())
        }
        fn begin_round<T: TraceSink>(&mut self, r: u64, _: &mut T) -> Result<(), Infallible> {
            self.round = r;
            if let Some((p, _)) = self.leaves.filter(|&(_, from)| from == r) {
                self.states[p.index()] = None;
            }
            Ok(())
        }
        fn state(&mut self, p: ProcessId) -> Option<&mut EState> {
            self.states[p.index()].as_mut()
        }
        fn broadcast(&mut self, p: ProcessId) -> Option<u64> {
            self.states[p.index()].as_ref().map(|s| s.v)
        }
        fn deliver(&mut self, p: ProcessId, inbox: Deliveries<'_, u64>) -> Result<(), Infallible> {
            let heard = inbox.iter().map(|(src, _)| src).collect();
            self.inboxes.push((self.round, p, heard));
            let late = inbox.late().map(|(src, _)| (self.round, src, p));
            self.late.extend(late);
            Ok(())
        }
        fn crash<T: TraceSink>(&mut self, p: ProcessId, _: &mut T) -> Result<(), Infallible> {
            self.states[p.index()] = None;
            self.crashed.push((self.round, p));
            Ok(())
        }
        fn close<T: TraceSink>(&mut self, _: &mut T) -> Result<Vec<Option<EState>>, Infallible> {
            Ok(self.states.clone())
        }
    }

    /// A tape adversary with a crash script that logs every consultation.
    #[derive(Debug)]
    struct Script {
        tape: TapeOmission,
        /// `(process, crash round, copies emitted before dying)`.
        crashes: Vec<(ProcessId, u64, usize)>,
        consulted: Vec<(u64, ProcessId, ProcessId)>,
    }

    impl Adversary for Script {
        fn faulty(&self, n: usize) -> ProcessSet {
            self.tape.faulty(n)
        }
        fn crash_schedule(&self) -> CrashSchedule {
            let mut cs = CrashSchedule::none();
            for &(p, r, _) in &self.crashes {
                cs.set(p, Round::new(r));
            }
            cs
        }
        fn sends_before_crash(&self, p: ProcessId, _: Round) -> usize {
            let script = self.crashes.iter().find(|&&(q, _, _)| q == p);
            script.map_or(0, |&(_, _, k)| k)
        }
        fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
            self.consulted.push((r.get(), from, to));
            self.tape.drop_copy(r, from, to)
        }
    }

    /// The seam contract the router used to re-implement by hand: an
    /// absent process is skipped as a sender and is a `ReceiverCrashed`
    /// destination that consults nobody, so the adversary sees exactly
    /// the consultations `SyncRunner` makes when that process is dead
    /// from round 1 — same copies, same order, same tape position.
    #[test]
    fn scripted_exchange_consults_like_the_runner() {
        let (n, rounds) = (4, 3);
        let (crasher, absent) = (ProcessId(1), ProcessId(2));
        let tape = vec![true, false, false, true, true, false, true, false];
        let script = |crashes| Script {
            tape: TapeOmission::new([ProcessId(1), ProcessId(2), ProcessId(3)], tape.clone()),
            crashes,
            consulted: Vec::new(),
        };
        let cfg = RunConfig::clean(n, rounds);

        // The kernel over the fake: p1 crashes in round 2 after one
        // copy, p2 is absent throughout.
        let mut faked = script(vec![(crasher, 2, 1)]);
        let mut exchange = Canned::new(n, Some(absent));
        let out = RoundKernel::new(&mut faked, &cfg)
            .expect("valid config")
            .run(&EchoMax, &mut exchange, &mut NullSink, |_| {})
            .unwrap_or_else(|never| match never {});
        // The runner, with p2 crashing silently in round 1 instead.
        let mut simulated = script(vec![(crasher, 2, 1), (absent, 1, 0)]);
        let sim = SyncRunner::new(EchoMax)
            .run(&mut simulated, &cfg)
            .expect("valid config");

        assert!(!faked.consulted.is_empty());
        assert_eq!(faked.consulted, simulated.consulted);
        assert_eq!(faked.tape.consulted(), simulated.tape.consulted());
        let touches_absent = |&(_, from, to): &(u64, _, _)| from == absent || to == absent;
        assert!(!faked.consulted.iter().any(touches_absent));
        for r in 1..=rounds as u64 {
            let frame = out.history.round(Round::new(r));
            assert_eq!(
                frame.msgs().outcome_of(ProcessId(0), absent),
                Some(DeliveryOutcome::ReceiverCrashed)
            );
            assert!(frame.record(absent).state_at_start().is_none());
            assert_eq!(frame.record(absent).sent_len(), 0);
            // Same verdicts, so every survivor hears the same senders.
            for (_, p, heard) in exchange.inboxes.iter().filter(|i| i.0 == r) {
                let sim_frame = sim.history.round(Round::new(r));
                let sim_heard = sim_frame.record(*p).delivered().iter().map(|(src, _)| src);
                assert_eq!(*heard, sim_heard.collect::<Vec<_>>(), "round {r}, {p}");
            }
        }
        // The crash reached the exchange once, with its partial sends
        // recorded: one copy out (to p0), the rest cut.
        assert_eq!(exchange.crashed, vec![(2, crasher)]);
        let r2 = out.history.round(Round::new(2));
        let cut: Vec<DeliveryOutcome> = r2.record(crasher).sent().map(|s| s.outcome).collect();
        assert_ne!(cut[0], DeliveryOutcome::SenderCrashed);
        assert_eq!(cut[1..], [DeliveryOutcome::SenderCrashed; 2]);
        assert_eq!(out.final_states[crasher.index()], None);
        assert!(out.final_states[0].is_some());
    }

    fn run_canned<A: Adversary>(adversary: &mut A, cfg: &RunConfig) {
        let _ = RoundKernel::new(adversary, cfg).expect("valid config").run(
            &EchoMax,
            &mut Canned::new(cfg.n, None),
            &mut NullSink,
            |_| {},
        );
    }

    #[test]
    fn config_validation() {
        let err = RoundKernel::new(&mut NoFaults, &RunConfig::clean(0, 1)).unwrap_err();
        assert!(err.to_string().contains("n must be"));
        let err = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &RunConfig::clean(0, 1))
            .unwrap_err();
        assert!(err.to_string().contains("n must be"));

        let mut adv = RandomOmission::new([ProcessId(0), ProcessId(1)], 0.5, 0);
        let err =
            RoundKernel::new(&mut adv, &RunConfig::clean(3, 1).with_max_faulty(1)).unwrap_err();
        assert!(err.to_string().contains("faulty"));

        // `History::with_window` would panic on it mid-`run`.
        let windowless = RunConfig::clean(2, 1).with_history_window(0);
        let err = SyncRunner::new(CountAll)
            .run(&mut NoFaults, &windowless)
            .unwrap_err();
        assert!(err.to_string().contains("history window"));
    }

    #[test]
    fn crash_outside_faulty_set_rejected() {
        // An adversary whose schedule disagrees with its (empty) faulty set.
        let mut bad = Script {
            tape: TapeOmission::new([], Vec::new()),
            crashes: vec![(ProcessId(0), 1, 0)],
            consulted: Vec::new(),
        };
        let err = RoundKernel::new(&mut bad, &RunConfig::clean(2, 1)).unwrap_err();
        assert!(err.to_string().contains("outside the declared faulty set"));
    }

    /// Every built-in adversary that names processes fails closed on one
    /// outside the universe: a `ConfigError` naming it and `n`, where
    /// building the faulty set would panic — from the kernel, and from
    /// the runner that drives it.
    #[test]
    fn an_out_of_range_id_is_a_config_error() {
        let (n, p5) = (3, ProcessId(5));
        let mut crash = CrashSchedule::none();
        crash.set(p5, Round::FIRST);
        let mut scripted = ScriptedOmission::new();
        scripted.drop_at(1, ProcessId(0), p5, OmissionSide::Receiver);
        let storm = StormPhase::new(1, 1, StormKind::SilenceChurn);
        let adversaries: Vec<Box<dyn Adversary>> = vec![
            Box::new(RandomOmission::new([p5], 0.5, 1)),
            Box::new(RandomOmission::new([], 0.5, 1).with_crashes(crash.clone())),
            Box::new(CrashOnly::new(crash)),
            Box::new(SilentProcess::new(p5, 1)),
            Box::new(ByzantineAdversary::new([ProcessId(1), p5], 0.5, 1)),
            Box::new(GroupPartition::new([p5], 1, 2)),
            Box::new(TapeOmission::new([p5], vec![true])),
            Box::new(scripted),
            Box::new(StormAdversary::new([p5], [storm], 1)),
        ];
        let cfg = RunConfig::corrupted(n, 4, 1);
        let mut omitter = RandomOmission::new([p5], 0.5, 1);
        let Err(err) = SyncRunner::new(EchoMax).run(&mut omitter, &cfg) else {
            panic!("the runner accepted p5");
        };
        let err = err.to_string();
        assert!(err.contains("p5") && err.contains("0..3"), "{err}");
        for (i, mut adversary) in adversaries.into_iter().enumerate() {
            let Err(err) = RoundKernel::new(&mut *adversary, &cfg) else {
                panic!("adversary {i} was accepted");
            };
            let err = err.to_string();
            assert!(err.contains("p5") && err.contains("0..3"), "{err}");
        }
        let mut inside = RandomOmission::new([ProcessId(2)], 0.5, 1);
        assert!(RoundKernel::new(&mut inside, &cfg).is_ok());
    }

    /// Declares only p0 faulty, then deviates on the eligible copy
    /// `p1 → p0` on behalf of its non-faulty end, p1.
    struct Liar {
        drop: Option<OmissionSide>,
        forge: Option<u64>,
    }

    impl Adversary for Liar {
        fn faulty(&self, n: usize) -> ProcessSet {
            ProcessSet::from_iter_n(n, [ProcessId(0)])
        }
        fn drop_copy(&mut self, _: Round, from: ProcessId, _: ProcessId) -> Option<OmissionSide> {
            self.drop.filter(|_| from == ProcessId(1))
        }
        fn forge_copy(&mut self, _: Round, from: ProcessId, _: ProcessId) -> Option<u64> {
            self.forge.filter(|_| from == ProcessId(1))
        }
    }

    #[test]
    #[should_panic(expected = "non-faulty")]
    fn lying_adversary_panics() {
        let mut liar = Liar {
            drop: Some(OmissionSide::Sender),
            forge: None,
        };
        run_canned(&mut liar, &RunConfig::clean(2, 1));
    }

    #[test]
    #[should_panic(expected = "forge")]
    fn lying_forger_panics() {
        let mut liar = Liar {
            drop: None,
            forge: Some(1),
        };
        run_canned(&mut liar, &RunConfig::clean(2, 1));
    }

    /// Declares only p0 faulty, crashes no one, and cuts the row of the
    /// sender it names as though that sender crashed.
    struct Cutter(ProcessId);

    impl Adversary for Cutter {
        fn faulty(&self, n: usize) -> ProcessSet {
            ProcessSet::from_iter_n(n, [ProcessId(0)])
        }
        fn drop_copy(&mut self, _: Round, _: ProcessId, _: ProcessId) -> Option<OmissionSide> {
            None
        }
        fn decide_row(&mut self, _: Round, row: &mut CopyRow) {
            if row.senders() == [self.0] {
                row.cut(0);
            }
        }
    }

    /// A row override cannot crash a sender the schedule does not, be it
    /// faulty (p0) or not (p1).
    #[test]
    fn cutting_the_row_of_a_sender_not_crashing_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for p in [ProcessId(0), ProcessId(1)] {
            let run = catch_unwind(AssertUnwindSafe(|| {
                run_canned(&mut Cutter(p), &RunConfig::clean(2, 1));
            }));
            let payload = run.expect_err("the cut is refused");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("not crashing"), "{p}: {msg}");
        }
    }

    /// Declares p0 faulty and crashing in round 1 before any copy, then
    /// makes its cut copies late.
    struct Hasty;

    impl Adversary for Hasty {
        fn faulty(&self, n: usize) -> ProcessSet {
            ProcessSet::from_iter_n(n, [ProcessId(0)])
        }
        fn crash_schedule(&self) -> CrashSchedule {
            let mut cs = CrashSchedule::none();
            cs.set(ProcessId(0), Round::FIRST);
            cs
        }
        fn drop_copy(&mut self, _: Round, _: ProcessId, _: ProcessId) -> Option<OmissionSide> {
            None
        }
        fn delay_copy(
            &mut self,
            _: Round,
            _: ProcessId,
            _: ProcessId,
            _: DeliveryOutcome,
        ) -> Option<Lateness> {
            Some(Lateness::Duplicated)
        }
    }

    #[test]
    #[should_panic(expected = "undelivered or same-round copy")]
    fn late_undelivered_copy_panics() {
        run_canned(&mut Hasty, &RunConfig::clean(2, 1));
    }

    /// Declares p0 and p1 faulty, crashes p1 in round 2, and holds back
    /// every copy it is asked about in round 1 for one round.
    struct Lagging;

    impl Adversary for Lagging {
        fn faulty(&self, n: usize) -> ProcessSet {
            ProcessSet::from_iter_n(n, [ProcessId(0), ProcessId(1)])
        }
        fn crash_schedule(&self) -> CrashSchedule {
            let mut cs = CrashSchedule::none();
            cs.set(ProcessId(1), Round::new(2));
            cs
        }
        fn drop_copy(&mut self, _: Round, _: ProcessId, _: ProcessId) -> Option<OmissionSide> {
            None
        }
        fn delay_copy(
            &mut self,
            r: Round,
            _: ProcessId,
            _: ProcessId,
            outcome: DeliveryOutcome,
        ) -> Option<Lateness> {
            (r == Round::FIRST && outcome == DeliveryOutcome::Delivered)
                .then_some(Lateness::Delayed(1))
        }
    }

    /// A late copy is recorded in its arrival round's frame, once, with
    /// its sender's broadcast shared — or in no frame if its receiver
    /// crashes (p1) or is absent (p2 leaves) in that round. The exchange
    /// is handed exactly the recorded arrivals.
    #[test]
    fn a_late_copy_is_in_its_arrival_frame_or_in_none() {
        let n = 4;
        let mut exchange = Canned::new(n, None);
        exchange.leaves = Some((ProcessId(2), 2));
        let out = RoundKernel::new(&mut Lagging, &RunConfig::clean(n, 3))
            .expect("valid config")
            .run(&EchoMax, &mut exchange, &mut NullSink, |_| {})
            .unwrap_or_else(|never| match never {});
        let ids = || (0..n).map(ProcessId);
        let r1 = out.history.round(Round::FIRST).msgs();
        let held: Vec<_> = ids()
            .flat_map(|from| ids().map(move |to| (from, to)))
            .filter(|&(from, to)| r1.outcome_of(from, to) == Some(DeliveryOutcome::Delayed))
            .collect();
        assert_eq!(held.len(), 10);
        let gone = [ProcessId(1), ProcessId(2)];
        let mut arrived: Vec<_> = held.iter().filter(|c| !gone.contains(&c.1)).collect();
        arrived.sort_by_key(|&&(from, to)| (to, from));
        assert_eq!(arrived.len(), 5);
        for r in 1..=3 {
            let frame = out.history.round(Round::new(r)).msgs();
            let late: Vec<_> = ids()
                .flat_map(|to| {
                    frame
                        .deliveries(to)
                        .late()
                        .map(move |(from, m)| (from, to, m))
                })
                .collect();
            if r != 2 {
                assert!(late.is_empty(), "round {r}");
                continue;
            }
            let copies: Vec<_> = late.iter().map(|&(from, to, _)| (from, to)).collect();
            assert_eq!(copies.iter().collect::<Vec<_>>(), arrived);
            for (from, _, payload) in late {
                let sent = r1.broadcast_of(from).expect("a broadcast");
                assert!(payload.shares_with(sent), "{from}");
            }
            let handed = exchange.late.iter().map(|&(_, from, to)| (from, to));
            assert_eq!(handed.collect::<Vec<_>>(), copies);
            assert!(exchange.late.iter().all(|c| c.0 == 2));
        }
    }

    /// The consultation rule, pinned: the adversary is asked about a
    /// copy iff sender ≠ receiver, the copy is emitted before a crash
    /// cut, the receiver is alive at the round's end, and one end is
    /// declared faulty — the same list, in canonical order, whether or
    /// not anyone watches the other copies go by.
    #[test]
    fn clean_copies_are_never_submitted() {
        let (n, rounds) = (5usize, 3u64);
        let ids = || (0..n).map(ProcessId);
        let faulty = [ProcessId(1), ProcessId(3)];
        // p3 crashes in round 2 having emitted its copies to p0 and p1.
        let (crasher, crash_round, prefix) = (ProcessId(3), 2, [ProcessId(0), ProcessId(1)]);
        let eligible = |&(r, from, to): &(u64, ProcessId, ProcessId)| {
            let emitted =
                from != crasher || r < crash_round || (r == crash_round && prefix.contains(&to));
            let heard = to != crasher || r < crash_round;
            let touches_faulty = faulty.contains(&from) || faulty.contains(&to);
            from != to && emitted && heard && touches_faulty
        };
        let expected: Vec<_> = (1..=rounds)
            .flat_map(|r| ids().flat_map(move |from| ids().map(move |to| (r, from, to))))
            .filter(eligible)
            .collect();
        assert_eq!(expected.len(), 14 + 8 + 6);

        let script = || Script {
            tape: TapeOmission::new(faulty, (0..28).map(|i| i % 3 == 0).collect()),
            crashes: vec![(crasher, crash_round, prefix.len())],
            consulted: Vec::new(),
        };
        let cfg = RunConfig::clean(n, rounds as usize);
        fn consultations<T: TraceSink>(
            mut script: Script,
            cfg: &RunConfig,
            mut sink: T,
        ) -> (Vec<(u64, ProcessId, ProcessId)>, usize) {
            let mut exchange = Canned::new(cfg.n, None);
            RoundKernel::new(&mut script, cfg)
                .expect("valid config")
                .run(&EchoMax, &mut exchange, &mut sink, |_| {})
                .unwrap_or_else(|never| match never {});
            (script.consulted, script.tape.consulted())
        }
        let untraced = consultations(script(), &cfg, NullSink);
        assert_eq!(untraced, (expected, 28));
        let traced = consultations(script(), &cfg, RecordingSink::new(1 << 10));
        assert_eq!(traced, untraced);
    }

    /// `EchoMax`, except that a process stays silent in the rounds where
    /// its counter plus its index is divisible by three.
    struct Shy;

    impl SyncProtocol for Shy {
        type State = EState;
        type Msg = u64;
        const JOINS_INBOX: bool = true;

        fn name(&self) -> &str {
            "shy"
        }
        fn init_state(&self, ctx: &ProtocolCtx) -> EState {
            EchoMax.init_state(ctx)
        }
        fn sends(&self, ctx: &ProtocolCtx, s: &EState) -> bool {
            !s.c.wrapping_add(ctx.me.index() as u64).is_multiple_of(3)
        }
        fn broadcast(&self, ctx: &ProtocolCtx, s: &EState) -> u64 {
            EchoMax.broadcast(ctx, s)
        }
        fn step(&self, ctx: &ProtocolCtx, s: &mut EState, inbox: &crate::Inbox<u64>) {
            EchoMax.step(ctx, s, inbox);
        }
        fn join(&self, acc: &mut u64, m: &u64) {
            EchoMax.join(acc, m);
        }
        fn step_joined(&self, ctx: &ProtocolCtx, s: &mut EState, joined: &u64) {
            EchoMax.step_joined(ctx, s, joined);
        }
        fn forge_message(&self, seed: u64) -> Option<u64> {
            Some(seed)
        }
    }

    type Frame = RoundHistory<EState, u64>;

    /// The oracle: one round's frame rebuilt copy by copy from the
    /// `send` events of a traced run, plus the self-delivery rule
    /// (whoever broadcasts and survives the round hears itself). The
    /// per-process snapshot, the broadcasts, the forged payloads and the
    /// late arrivals — none of which the walk decides — are taken from
    /// `recorded`.
    fn rebuild(recorded: &Frame, sends: &[(ProcessId, ProcessId, DeliveryOutcome)]) -> Frame {
        let mut frame = Frame::empty(recorded.n());
        for rec in recorded.records() {
            let p = rec.process();
            frame.set_process(
                p,
                rec.state_at_start().cloned(),
                rec.counter_at_start(),
                rec.crashed_here(),
                rec.halted_at_start(),
            );
            if let Some(payload) = rec.broadcast_payload() {
                frame.set_broadcast(p, payload.clone());
                if !rec.crashed_here() {
                    frame.record_delivery(p, p);
                }
            }
            for (from, payload) in recorded.msgs().deliveries(p).late() {
                frame.record_late(from, p, payload.clone());
            }
        }
        for &(from, to, outcome) in sends {
            if outcome == DeliveryOutcome::Forged {
                let forged = recorded.msgs().forged_payload_of(from, to);
                frame.record_forged(from, to, forged.expect("a forged payload").clone());
                continue;
            }
            frame.record_send(from, to, outcome);
            if matches!(
                outcome,
                DeliveryOutcome::Delivered | DeliveryOutcome::Duplicated
            ) {
                frame.record_delivery(to, from);
            }
        }
        frame
    }

    /// Runs one configuration traced and untraced, and checks the traced
    /// run's frames against [`rebuild`] and the untraced run against the
    /// traced one.
    fn differential<P, A, X>(protocol: &P, adversary: &A, cfg: &RunConfig, exchange: impl Fn() -> X)
    where
        P: SyncProtocol<State = EState, Msg = u64>,
        A: Adversary + Clone,
        X: Exchange<EState, u64, Error = Infallible>,
    {
        fn run<P, A, X, T>(
            protocol: &P,
            mut adversary: A,
            cfg: &RunConfig,
            mut exchange: X,
            sink: &mut T,
        ) -> RunOutcome<EState, u64>
        where
            P: SyncProtocol<State = EState, Msg = u64>,
            A: Adversary,
            X: Exchange<EState, u64, Error = Infallible>,
            T: TraceSink,
        {
            RoundKernel::new(&mut adversary, cfg)
                .expect("valid config")
                .run(protocol, &mut exchange, sink, |_| {})
                .unwrap_or_else(|never| match never {})
        }
        let (n, rounds) = (cfg.n, cfg.rounds);
        let mut sink = RecordingSink::new(rounds * (n * n + n + 4) + 4);
        let traced = run(protocol, adversary.clone(), cfg, exchange(), &mut sink);
        let mut sends = vec![Vec::new(); rounds];
        for event in sink.events() {
            if let Event::Send {
                round,
                from,
                to,
                outcome,
            } = *event
            {
                sends[round as usize - 1].push((from, to, outcome));
            }
        }
        for (i, recorded) in traced.history.rounds().iter().enumerate() {
            let copies: usize = recorded.records().map(|rec| rec.sent_len()).sum();
            assert_eq!(
                sends[i].len(),
                copies,
                "round {}: one event per copy",
                i + 1
            );
            assert_eq!(&rebuild(recorded, &sends[i]), recorded, "round {}", i + 1);
        }
        let untraced = run(protocol, adversary.clone(), cfg, exchange(), &mut NullSink);
        assert_eq!(untraced.history, traced.history, "untraced vs traced");
        assert_eq!(untraced.final_states, traced.final_states);
    }

    /// The sparse walk against an independent copy-by-copy oracle, at
    /// universes on both sides of every word boundary and faulty sets
    /// from empty to all-but-one: random omissions, forgeries with
    /// drops, staggered crashes with partial sends, a partition, timing
    /// storms (delayed, duplicated and reordered copies), silent senders
    /// throughout, and an absent (non-faulty) process. Then the walk's
    /// runs of clean senders where they cross words and their draws
    /// interleave across several faulty receivers — 1–3 faulty processes
    /// at 0, 63, 64 and n − 1, under random omissions, a crashing sender
    /// whose partial sends end mid-row, a timing storm that makes
    /// clean-to-faulty copies late, and forgeries — with every
    /// consultation made in (round, sender, destination) order, as the
    /// frames say it must be, traced or not.
    #[test]
    fn sparse_walk_matches_a_copy_by_copy_oracle() {
        let rounds = 3;
        for n in [2, 3, 4, 5, 6, 63, 64, 65, 130] {
            let sizes = if n <= 6 {
                (0..n).collect()
            } else {
                vec![0, 1, 2, n / 3, n - 1]
            };
            for k in sizes {
                let seed = (n * 1000 + k) as u64;
                let mut ids: Vec<ProcessId> = (0..n).map(ProcessId).collect();
                StdRng::seed_from_u64(seed).shuffle(&mut ids);
                let faulty = || ids[..k].iter().copied();
                let cfg = RunConfig::corrupted(n, rounds, seed);
                let live = || InProcess::new(&Shy, n);
                let mut crashes = CrashSchedule::none();
                for (i, p) in faulty().enumerate() {
                    crashes.set(p, Round::new((i % (rounds + 1)) as u64 + 1));
                }
                let omission = RandomOmission::new(faulty(), 0.5, seed);
                differential(&Shy, &omission, &cfg, live);
                let crashing = RandomOmission::new([], 0.5, seed).with_crashes(crashes.clone());
                differential(&Shy, &crashing, &cfg, live);
                let byzantine = ByzantineAdversary::new(faulty(), 0.5, seed).with_drops(0.3);
                differential(&Shy, &byzantine, &cfg, live);
                let crash_only = CrashOnly::new(crashes).with_partial_sends(n / 2);
                differential(&Shy, &crash_only, &cfg, live);
                differential(&Shy, &GroupPartition::new(faulty(), 2, 3), &cfg, live);
                let timing = StormAdversary::new(
                    faulty(),
                    [
                        StormPhase::new(1, 1, StormKind::Delay { rounds: 2 }),
                        StormPhase::new(2, 2, StormKind::Duplicate),
                        StormPhase::new(3, 3, StormKind::Reorder),
                    ],
                    seed,
                );
                differential(&Shy, &timing, &cfg, live);
                // ids[k] is not faulty: absence alone makes it special.
                let absent = || Canned::new(n, Some(ids[k]));
                differential(&EchoMax, &omission, &RunConfig::clean(n, rounds), absent);
            }
        }
        for n in [63usize, 64, 65, 129] {
            let mut spots = vec![0, 63, 64, n - 1];
            spots.retain(|&i| i < n);
            spots.dedup();
            for f in 1..=3 {
                for at in spots.windows(f) {
                    let faulty: Vec<ProcessId> = at.iter().map(|&i| ProcessId(i)).collect();
                    let seed = (n * 1000 + at[0] * 10 + f) as u64;
                    let cfg = RunConfig::corrupted(n, rounds, seed);
                    let live = || InProcess::new(&Shy, n);
                    let faulty = || faulty.iter().copied();
                    let mut crashes = CrashSchedule::none();
                    crashes.set(
                        at.last().map(|&i| ProcessId(i)).expect("f ≥ 1"),
                        Round::new(2),
                    );
                    let omission = Logged::new(RandomOmission::new(faulty(), 0.5, seed), 0);
                    let partial = RandomOmission::new(faulty(), 0.5, seed).with_crashes(crashes);
                    let partial = Logged::new(partial, n / 2 + 1);
                    let timing = StormAdversary::new(
                        faulty(),
                        [
                            StormPhase::new(1, 1, StormKind::Delay { rounds: 1 }),
                            StormPhase::new(2, 2, StormKind::Reorder),
                            StormPhase::new(3, 3, StormKind::Duplicate),
                        ],
                        seed,
                    );
                    let timing = Logged::new(timing, 0);
                    let byzantine = ByzantineAdversary::new(faulty(), 0.5, seed).with_drops(0.3);
                    let byzantine = Logged::new(byzantine, 0);
                    differential(&Shy, &omission, &cfg, live);
                    consulted_in_walk_order(omission, &cfg);
                    differential(&Shy, &partial, &cfg, live);
                    consulted_in_walk_order(partial, &cfg);
                    differential(&Shy, &timing, &cfg, live);
                    consulted_in_walk_order(timing, &cfg);
                    differential(&Shy, &byzantine, &cfg, live);
                    consulted_in_walk_order(byzantine, &cfg);
                }
            }
        }
    }

    /// An adversary's per-copy methods with every `drop_copy` (`true`)
    /// and `delay_copy` (`false`) consultation logged, in order, and a
    /// crashing sender emitting its first `partial` copies. Its rows take
    /// the default body.
    #[derive(Clone, Debug)]
    struct Logged<A> {
        inner: A,
        partial: usize,
        log: Vec<(bool, u64, ProcessId, ProcessId)>,
    }

    impl<A> Logged<A> {
        fn new(inner: A, partial: usize) -> Self {
            Logged {
                inner,
                partial,
                log: Vec::new(),
            }
        }
    }

    impl<A: Adversary> Adversary for Logged<A> {
        fn faulty(&self, n: usize) -> ProcessSet {
            self.inner.faulty(n)
        }
        fn crash_schedule(&self) -> CrashSchedule {
            self.inner.crash_schedule()
        }
        fn sends_before_crash(&self, _: ProcessId, _: Round) -> usize {
            self.partial
        }
        fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
            self.log.push((true, r.get(), from, to));
            self.inner.drop_copy(r, from, to)
        }
        fn forge_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<u64> {
            self.inner.forge_copy(r, from, to)
        }
        fn delay_copy(
            &mut self,
            r: Round,
            from: ProcessId,
            to: ProcessId,
            verdict: DeliveryOutcome,
        ) -> Option<Lateness> {
            self.log.push((false, r.get(), from, to));
            self.inner.delay_copy(r, from, to, verdict)
        }
    }

    /// Runs `adversary` traced and untraced and checks its log against
    /// the consultations the frames call for: in (round, sender,
    /// destination) order, each copy with a faulty end that its sender
    /// broadcast is asked `delay_copy`, after `drop_copy` if the sender
    /// emitted it and its receiver was alive at the round's end.
    fn consulted_in_walk_order<A: Adversary + Clone>(adversary: Logged<A>, cfg: &RunConfig) {
        let n = cfg.n;
        let faulty = adversary.faulty(n);
        let mut untraced = adversary.clone();
        let out = SyncRunner::new(Shy)
            .run(&mut untraced, cfg)
            .expect("valid config");
        let ids = || (0..n).map(ProcessId);
        let mut want = Vec::new();
        for (i, frame) in out.history.rounds().iter().enumerate() {
            let (r, msgs) = (i as u64 + 1, frame.msgs());
            for p in ids().filter(|&p| msgs.broadcast_of(p).is_some()) {
                for q in ids().filter(|&q| q != p) {
                    if !faulty.contains(p) && !faulty.contains(q) {
                        continue;
                    }
                    let outcome = msgs.outcome_of(p, q).expect("a sent copy");
                    let undecided = [
                        DeliveryOutcome::ReceiverCrashed,
                        DeliveryOutcome::SenderCrashed,
                    ];
                    if !undecided.contains(&outcome) {
                        want.push((true, r, p, q));
                    }
                    want.push((false, r, p, q));
                }
            }
        }
        assert!(want.iter().any(|c| !c.0), "n = {n}: nothing consulted");
        assert_eq!(untraced.log, want, "n = {n}, faulty {faulty}");
        let mut traced = adversary;
        let mut sink = RecordingSink::new(cfg.rounds * (n * n + n + 4) + 4);
        SyncRunner::new(Shy)
            .run_traced(&mut traced, cfg, &mut sink)
            .expect("valid config");
        assert_eq!(traced.log, want, "n = {n}, faulty {faulty}, traced");
    }

    /// `EchoMax`, except that every broadcast is new each round: the
    /// sender's counter and index.
    struct Stamped;

    impl SyncProtocol for Stamped {
        type State = EState;
        type Msg = u64;

        fn name(&self) -> &str {
            "stamped"
        }
        fn init_state(&self, ctx: &ProtocolCtx) -> EState {
            EchoMax.init_state(ctx)
        }
        fn broadcast(&self, ctx: &ProtocolCtx, s: &EState) -> u64 {
            s.c.wrapping_mul(1 << 12) ^ ctx.me.index() as u64
        }
        fn step(&self, ctx: &ProtocolCtx, s: &mut EState, inbox: &crate::Inbox<u64>) {
            EchoMax.step(ctx, s, inbox);
        }
    }

    /// Refilling an evicted frame's broadcast slots is unobservable: an
    /// observer that keeps the newest frame's payloads of every other
    /// round past their eviction still holds, for each, what that round
    /// broadcast in a full-retention run — while the slots nobody kept
    /// are overwritten in place.
    #[test]
    fn recycled_broadcast_slots_are_unobservable() {
        let (n, rounds) = (65, 9);
        let omitter = || RandomOmission::new([ProcessId(3), ProcessId(64)], 0.5, 5);
        let full = SyncRunner::new(Stamped)
            .run(&mut omitter(), &RunConfig::corrupted(n, rounds, 5))
            .expect("valid config");
        let cfg = RunConfig::corrupted(n, rounds, 5).with_history_window(1);
        let (mut held, mut addresses) = (Vec::new(), Vec::new());
        let on_round = |h: &History<EState, u64>| {
            let newest = h.rounds().last().expect("a recorded round").msgs();
            let slot = |p| newest.broadcast_of(ProcessId(p));
            let address = |p| slot(p).map(|m| &**m as *const u64 as usize);
            addresses.push((0..n).map(address).collect::<Vec<_>>());
            if h.len() % 2 == 1 {
                held.push((
                    h.len(),
                    (0..n).map(|p| slot(p).cloned()).collect::<Vec<_>>(),
                ));
            }
        };
        let runner = SyncRunner::new(Stamped);
        let windowed = runner.run_streaming(&mut omitter(), &cfg, &mut NullSink, on_round);
        assert_eq!(
            windowed.expect("valid config").final_states,
            full.final_states
        );
        assert_eq!(held.len(), rounds.div_ceil(2));
        for (r, slots) in held {
            let frame = full.history.round(Round::new(r as u64)).msgs();
            for (p, slot) in slots.iter().enumerate() {
                assert_eq!(
                    slot.as_ref(),
                    frame.broadcast_of(ProcessId(p)),
                    "round {r}, p{p}"
                );
            }
            assert!(slots.iter().all(Option::is_some));
        }
        // With a window of one, round r + 2 refills round r's frame: in
        // place exactly when round r's payloads were let go.
        for r in 1..=rounds - 2 {
            let reused = addresses[r - 1] == addresses[r + 1];
            assert_eq!(reused, r % 2 == 0, "round {} over round {r}", r + 2);
        }
    }

    /// `EchoMax` with its `join` calls counted.
    struct Counting(Cell<usize>);

    impl SyncProtocol for Counting {
        type State = EState;
        type Msg = u64;
        const JOINS_INBOX: bool = true;

        fn name(&self) -> &str {
            "counting"
        }
        fn init_state(&self, ctx: &ProtocolCtx) -> EState {
            EchoMax.init_state(ctx)
        }
        fn broadcast(&self, ctx: &ProtocolCtx, s: &EState) -> u64 {
            EchoMax.broadcast(ctx, s)
        }
        fn step(&self, ctx: &ProtocolCtx, s: &mut EState, inbox: &crate::Inbox<u64>) {
            let joined = inbox.joined(self).unwrap_or(s.v);
            self.step_joined(ctx, s, &joined);
        }
        fn join(&self, acc: &mut u64, m: &u64) {
            self.0.set(self.0.get() + 1);
            EchoMax.join(acc, m);
        }
        fn step_joined(&self, ctx: &ProtocolCtx, s: &mut EState, joined: &u64) {
            EchoMax.step_joined(ctx, s, joined);
        }
    }

    /// The work, not the clock. An untraced round joins the clean block
    /// once, each distinct heard-specials mask of a block receiver once
    /// (its special senders' broadcasts), and each special receiver's own
    /// row — no join per block receiver; a traced round walks the same
    /// block and makes the same joins. Same states either way. The
    /// omitter draws once per consulted copy.
    #[test]
    fn folded_round_joins_n_plus_2fn_messages_not_n_squared() {
        let (n, f, rounds) = (130usize, 1usize, 4usize);
        let omitter = ProcessId(n / 2);
        let cfg = RunConfig::corrupted(n, rounds, 9).with_max_faulty(f);
        let adversary = || RandomOmission::new([omitter], 0.5, 9);
        let counting = || SyncRunner::new(Counting(Cell::new(0)));

        let runner = counting();
        let (mut per_round, mut seen) = (Vec::new(), 0);
        let on_round = |_: &History<EState, u64>| {
            let now = runner.protocol().0.get();
            per_round.push(now - seen);
            seen = now;
        };
        let mut omitting = adversary();
        let run = runner.run_streaming(&mut omitting, &cfg, &mut NullSink, on_round);
        let folded = run.expect("valid config");
        assert_eq!(per_round.len(), rounds);
        let mut draws = 0;
        for (i, &joins) in per_round.iter().enumerate() {
            let msgs = folded.history.round(Round::new(i as u64 + 1)).msgs();
            let ids = || (0..n).map(ProcessId);
            let clean = ids().filter(|&p| p != omitter).count();
            let heard_by_some = ids().any(|p| p != omitter && msgs.was_delivered(p, omitter));
            let own_row = msgs.delivered_count(omitter) - 1;
            let want = (clean - 1) + usize::from(heard_by_some) + own_row;
            assert_eq!(joins, want, "round {}", i + 1);
            assert!(joins < n + 2 * f * n, "round {}: {joins} joins", i + 1);
            let consulted = |&(p, q): &(ProcessId, ProcessId)| {
                let outcome = msgs.outcome_of(p, q);
                let decided = outcome != Some(DeliveryOutcome::ReceiverCrashed);
                p != q && (p == omitter || q == omitter) && outcome.is_some() && decided
            };
            let copies = ids().flat_map(|p| ids().map(move |q| (p, q)));
            draws += copies.filter(consulted).count();
        }
        assert_eq!(draws, rounds * 2 * (n - 1));
        let mut rng = StdRng::seed_from_u64(9);
        (0..draws).for_each(|_| {
            rng.next_u64();
        });
        assert_eq!(omitting.rng_state(), rng.state(), "one draw per copy");

        let runner = counting();
        let mut sink = RecordingSink::new(rounds * (n * n + n + 4) + 4);
        let run = runner.run_traced(&mut adversary(), &cfg, &mut sink);
        let traced = run.expect("valid config").final_states;
        let joins = runner.protocol().0.get();
        assert_eq!(joins, per_round.iter().sum::<usize>(), "traced joins");
        assert_eq!(folded.final_states, traced);
    }

    /// [`RandomOmission`] with the per-copy methods alone: every row takes
    /// [`Adversary::decide_row`]'s default body.
    #[derive(Clone, Debug)]
    struct PerCopy(RandomOmission);

    impl Adversary for PerCopy {
        fn faulty(&self, n: usize) -> ProcessSet {
            self.0.faulty(n)
        }
        fn crash_schedule(&self) -> CrashSchedule {
            self.0.crash_schedule()
        }
        fn sends_before_crash(&self, p: ProcessId, r: Round) -> usize {
            self.0.sends_before_crash(p, r)
        }
        fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
            self.0.drop_copy(r, from, to)
        }
        fn forge_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<u64> {
            self.0.forge_copy(r, from, to)
        }
        fn delay_copy(
            &mut self,
            r: Round,
            from: ProcessId,
            to: ProcessId,
            verdict: DeliveryOutcome,
        ) -> Option<Lateness> {
            self.0.delay_copy(r, from, to, verdict)
        }
    }

    /// `RandomOmission`'s row override against the default body over its
    /// own per-copy methods: the same frames (every copy's outcome, every
    /// delivery set), event stream, final states and draws, traced and
    /// not — at universes from 2 to 200, with 1–3 faulty processes first,
    /// in the middle and last, and, where runs of clean senders cross
    /// words, at 0, 63, 64 and n − 1; with and without a crash, at drop
    /// probabilities 0, ½, 1 and random ones. (A crashing sender's row
    /// takes the default body on both sides; the cut of a partial send is
    /// checked against the copy-by-copy oracle above.)
    #[test]
    fn random_omission_rows_match_the_per_copy_default() {
        let rounds = 4;
        let mut rng = StdRng::seed_from_u64(41);
        for n in [2usize, 3, 7, 63, 64, 65, 129, 131, 200] {
            let (first, middle, last) = (ProcessId(0), ProcessId(n / 2), ProcessId(n - 1));
            let sets = [vec![first], vec![middle], vec![last], vec![first, last]];
            let mut spots = vec![0, 63, 64, n - 1];
            spots.retain(|&i| i < n);
            spots.dedup();
            let across = (1..=3).flat_map(|f| {
                let windows = spots
                    .windows(f)
                    .map(|w| w.iter().map(|&i| ProcessId(i)).collect());
                windows.collect::<Vec<Vec<ProcessId>>>()
            });
            let across: Vec<_> = across.filter(|_| [63, 64, 65, 129].contains(&n)).collect();
            let sets = sets
                .into_iter()
                .chain([vec![first, middle, last]])
                .chain(across);
            for faulty in sets {
                for p in [0.0, 0.5, 1.0, rng.gen()] {
                    let seed = rng.gen();
                    let base = RandomOmission::new(faulty.iter().copied(), p, seed);
                    let mut crashes = CrashSchedule::none();
                    crashes.set(faulty[faulty.len() - 1], Round::new(2));
                    let crashing = base.clone().with_crashes(crashes);
                    for adversary in [base, crashing] {
                        let cfg = RunConfig::corrupted(n, rounds, seed);
                        let per_copy = PerCopy(adversary.clone());
                        for traced in [false, true] {
                            let (a, a_events, a_rng) = run_rows(adversary.clone(), &cfg, traced);
                            let (b, b_events, b_adversary) =
                                run_rows(per_copy.clone(), &cfg, traced);
                            let case = format!("n {n}, {faulty:?}, p {p}, traced {traced}");
                            assert_eq!(a_events, b_events, "{case}");
                            assert_eq!(a_rng.rng_state(), b_adversary.0.rng_state(), "{case}");
                            assert_eq!(a.final_states, b.final_states, "{case}");
                            assert_same_frames(&a.history, &b.history, &case);
                        }
                    }
                }
            }
        }
    }

    fn run_rows<A: Adversary>(
        mut adversary: A,
        cfg: &RunConfig,
        traced: bool,
    ) -> (RunOutcome<EState, u64>, Vec<Event>, A) {
        let n = cfg.n;
        let mut sink = RecordingSink::new(if traced {
            cfg.rounds * (n * n + n + 4) + 4
        } else {
            0
        });
        let out = if traced {
            SyncRunner::new(Shy).run_traced(&mut adversary, cfg, &mut sink)
        } else {
            SyncRunner::new(Shy).run(&mut adversary, cfg)
        };
        let events = sink.events().cloned().collect();
        (out.expect("valid config"), events, adversary)
    }

    fn assert_same_frames(a: &History<EState, u64>, b: &History<EState, u64>, case: &str) {
        assert_eq!(a, b, "{case}");
        for (fa, fb) in a.rounds().iter().zip(b.rounds()) {
            let (ma, mb) = (fa.msgs(), fb.msgs());
            let ids = || (0..ma.n()).map(ProcessId);
            for p in ids() {
                for q in ids() {
                    assert_eq!(
                        ma.outcome_of(p, q),
                        mb.outcome_of(p, q),
                        "{case}: {p} → {q}"
                    );
                }
                let heard_a = ma.deliveries(p).iter().map(|(s, m)| (s, **m));
                let heard_b = mb.deliveries(p).iter().map(|(s, m)| (s, **m));
                assert!(heard_a.eq(heard_b), "{case}: {p}'s deliveries");
            }
        }
    }

    /// The two obligations `EchoMax` (and `Shy`, which forwards to it)
    /// takes on by declaring `JOINS_INBOX`, on arbitrary messages.
    #[test]
    fn echo_max_join_is_a_semilattice_and_step_is_its_fold() {
        use ftss_core::Envelope;
        forall(64, |g| {
            let join = |a: u64, b: u64| {
                let mut acc = a;
                EchoMax.join(&mut acc, &b);
                acc
            };
            let (a, b, c): (u64, u64, u64) = (g.gen(), g.gen(), g.gen());
            assert_eq!(join(a, b), join(b, a));
            assert_eq!(join(join(a, b), c), join(a, join(b, c)));

            let msgs = g.vec(1, 9, |g| g.gen::<u64>());
            let envelopes = msgs.iter().enumerate();
            let inbox = crate::Inbox::new(
                envelopes
                    .map(|(i, &m)| Envelope::new(ProcessId(i), Round::FIRST, m))
                    .collect(),
            );
            let ctx = ProtocolCtx::new(ProcessId(0), msgs.len());
            let start = EState {
                v: g.gen(),
                c: g.gen_range(0..u64::MAX),
            };
            let (mut stepped, mut folded) = (start.clone(), start);
            EchoMax.step(&ctx, &mut stepped, &inbox);
            let joined = msgs.iter().rev().copied().reduce(join);
            EchoMax.step_joined(&ctx, &mut folded, &joined.expect("non-empty"));
            assert_eq!(stepped, folded);
        });
    }
}
