//! Process-failure adversaries.
//!
//! An adversary declares a faulty set and a crash schedule up front and is
//! then consulted about every *eligible* copy of a round — a
//! point-to-point copy that touches the declared faulty set (see
//! [`Adversary`]) — a run of senders' rows at a time
//! ([`Adversary::decide_row`]),
//! to decide crash cuts, omissions, forgeries and late copies. The round
//! kernel enforces the model's rules:
//!
//! * only declared-faulty processes may crash, omit or forge — by assert
//!   on every consultation, and by construction everywhere else: a copy
//!   between two non-faulty processes is never submitted,
//! * the faulty set must respect the fault bound `f`,
//! * self-delivery is never submitted for dropping (paper footnote 1).

use ftss_core::{
    storm, CrashSchedule, DeliveryOutcome, ProcessId, ProcessSet, Round, StormKind, StormPhase,
};
use ftss_rng::{Bernoulli, Rng, StdRng};
use std::collections::BTreeSet;

/// Which side of a dropped copy deviated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OmissionSide {
    /// The sender omitted to send (send omission, attributed to `from`).
    Sender,
    /// The receiver omitted to receive (receive omission, attributed to `to`).
    Receiver,
}

/// How a delivered copy is late ([`Adversary::delay_copy`]): recorded as
/// [`DeliveryOutcome::Delayed`] or [`DeliveryOutcome::Duplicated`], which
/// attribute no fault — the network was slow, not wrong.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lateness {
    /// The copy misses its round and arrives this many (≥ 1) rounds later.
    Delayed(u8),
    /// The copy arrives on time and once more with the next round.
    Duplicated,
}

/// Decides process failures for a run.
///
/// The kernel hands over a round's *eligible* copies — `from → to` with
/// `from != to` and `from` or `to` in [`faulty`](Self::faulty) — a run of
/// senders at a time, as one [`CopyRow`], in (round, sender) order, to
/// [`decide_row`](Self::decide_row), whether or not the run is traced.
/// Its default body asks the per-copy methods in (sender, destination)
/// order, so seeded adversaries are reproducible:
/// [`drop_copy`](Self::drop_copy), then [`forge_copy`](Self::forge_copy)
/// for a copy it let through, about each copy the sender emitted (it did
/// not crash first) to a receiver alive at the round's end, and
/// [`delay_copy`](Self::delay_copy) about every copy of the row. A copy
/// between two non-faulty processes is always delivered and the
/// adversary never hears of it, so an implementation must not count on
/// seeing every copy of a round.
pub trait Adversary {
    /// The set of processes this adversary may make faulty, over universe `n`.
    fn faulty(&self, n: usize) -> ProcessSet;

    /// A process this adversary names — faulty, crashing or scripted —
    /// that a universe of `n` processes lacks, if any. The kernel refuses
    /// such a run before it asks for [`faulty`](Self::faulty). Default:
    /// none.
    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        let _ = n;
        None
    }

    /// When processes crash (must be a subset of `faulty`).
    fn crash_schedule(&self) -> CrashSchedule {
        CrashSchedule::none()
    }

    /// How many of its round-`r` copies (in destination order) a process
    /// crashing in round `r` manages to emit before dying.
    fn sends_before_crash(&self, p: ProcessId, r: Round) -> usize {
        let _ = (p, r);
        0
    }

    /// Whether the copy `from → to` in round `r` is dropped, and by which
    /// side. `None` means delivered. Consulted for eligible copies only
    /// (see the trait docs), so never for `from == to`.
    fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide>;

    /// Whether the copy `from → to` in round `r` is *forged* — replaced
    /// with an arbitrary payload the protocol derives from the returned
    /// seed ([`crate::SyncProtocol::forge_message`]). Consulted **after**
    /// [`Self::drop_copy`], and only for copies it let through. Only
    /// declared-faulty senders may forge (the kernel panics otherwise).
    /// Default: never forge — the general-omission adversaries stay
    /// inside the paper's fault model.
    fn forge_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<u64> {
        let _ = (r, from, to);
        None
    }

    /// Whether the copy `from → to` in round `r` is *late* — a timing
    /// fault of the network ([`Lateness`]); the kernel holds such a copy
    /// back and hands it to a later round's inbox. Consulted **after**
    /// [`Self::drop_copy`]/[`Self::forge_copy`] on every non-self copy
    /// with a declared-faulty end, whatever its `verdict` (a copy cut by
    /// a crash included), in the same order. Only a `Delivered` copy may
    /// be late (the kernel panics otherwise). Default: never late.
    fn delay_copy(
        &mut self,
        r: Round,
        from: ProcessId,
        to: ProcessId,
        verdict: DeliveryOutcome,
    ) -> Option<Lateness> {
        let _ = (r, from, to, verdict);
        None
    }

    /// Decides a run of senders' eligible copies of round `r`
    /// ([`CopyRow`]): the crash cut of a crashing sender, then each
    /// copy's drop, forgery and lateness. The default body asks the
    /// per-copy methods, in the order the trait docs give; an override
    /// must decide alike, draw for draw, and only gains speed.
    fn decide_row(&mut self, r: Round, row: &mut CopyRow) {
        decide_each(self, r, row);
    }
}

/// A run of senders' eligible copies in one round, and the verdict on
/// each: one row per sender, in sender order, each row its copies to the
/// same receivers in destination order. A run is either one sender's row
/// — a special sender's, declared faulty, the only kind that may crash —
/// or the rows of consecutive non-faulty senders, every receiver of
/// which is faulty. The kernel hands a copy over `Delivered` if its
/// receiver is alive at the round's end, `ReceiverCrashed` if not; the
/// adversary then cuts a crashing sender's row ([`Self::cut`]) and omits,
/// forges or delays copies. Only a copy still `Delivered` may be omitted
/// or forged.
#[derive(Clone, Debug, Default)]
pub struct CopyRow {
    crashing: bool,
    /// The run's senders, ascending, one row each.
    senders: Vec<ProcessId>,
    /// Copies per row.
    width: usize,
    /// The rows, in sender order: `(destination, verdict)`.
    copies: Vec<(ProcessId, DeliveryOutcome)>,
    /// `(copy, forge seed)`, ascending by copy.
    forged: Vec<(usize, u64)>,
    /// `(copy, lateness)`, ascending by copy.
    late: Vec<(usize, Lateness)>,
}

impl CopyRow {
    /// Empties the run for a sender that crashes this round, or for
    /// senders that do not.
    pub(crate) fn reset(&mut self, crashing: bool) {
        self.crashing = crashing;
        self.senders.clear();
        self.width = 0;
        self.copies.clear();
        self.forged.clear();
        self.late.clear();
    }

    /// Appends `from`'s row: `head` then `tail`, each copy `Delivered` or
    /// `ReceiverCrashed`, ascending by destination.
    ///
    /// # Panics
    ///
    /// Panics if the row is a crashing sender's and not the first, or
    /// if its length differs from the first row's.
    #[inline]
    pub(crate) fn push_row(
        &mut self,
        from: ProcessId,
        head: &[(ProcessId, DeliveryOutcome)],
        tail: &[(ProcessId, DeliveryOutcome)],
    ) {
        let width = head.len() + tail.len();
        if self.senders.is_empty() {
            self.width = width;
        } else {
            assert!(
                !self.crashing && width == self.width,
                "a run's rows are alike and a crashing sender's stands alone"
            );
        }
        self.senders.push(from);
        self.copies.extend_from_slice(head);
        self.copies.extend_from_slice(tail);
    }

    /// Whether the sender crashes this round, emitting only the prefix
    /// of its copies its [`Adversary::sends_before_crash`] allows. Only a
    /// run of one sender may crash.
    pub fn crashing(&self) -> bool {
        self.crashing
    }

    /// The run's senders, ascending: row `s` is `senders()[s]`'s.
    pub fn senders(&self) -> &[ProcessId] {
        &self.senders
    }

    /// The copies, `(destination, verdict)`, row after row; copy `i` is
    /// sent by [`Self::sender_of`]`(i)`.
    pub fn copies(&self) -> &[(ProcessId, DeliveryOutcome)] {
        &self.copies
    }

    /// The sender of copy `i`.
    pub fn sender_of(&self, i: usize) -> ProcessId {
        self.senders[i / self.width]
    }

    /// Each sender with its row, in sender order.
    pub fn rows(&self) -> impl Iterator<Item = (ProcessId, &[(ProcessId, DeliveryOutcome)])> + '_ {
        let w = self.width;
        let rows = self.senders.iter().enumerate();
        rows.map(move |(s, &p)| (p, &self.copies[s * w..(s + 1) * w]))
    }

    /// Whether the run holds no copy.
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// The sender dies having emitted its first `emitted` copies: the
    /// rest are `SenderCrashed`.
    ///
    /// # Panics
    ///
    /// Panics unless the sender crashes this round ([`Self::crashing`]),
    /// or if a copy was decided already: the cut comes first.
    pub fn cut(&mut self, emitted: usize) {
        assert!(
            self.crashing,
            "adversary cut the row of a sender not crashing"
        );
        let undecided = |&(_, fate): &(ProcessId, DeliveryOutcome)| {
            matches!(
                fate,
                DeliveryOutcome::Delivered | DeliveryOutcome::ReceiverCrashed
            )
        };
        assert!(
            self.forged.is_empty() && self.late.is_empty() && self.copies.iter().all(undecided),
            "a row is cut before its copies are decided"
        );
        for copy in self.copies.iter_mut().skip(emitted) {
            copy.1 = DeliveryOutcome::SenderCrashed;
        }
    }

    /// Drops copy `i`, attributed to `side`.
    ///
    /// # Panics
    ///
    /// Panics unless copy `i` is still `Delivered`.
    pub fn omit(&mut self, i: usize, side: OmissionSide) {
        self.open(i).1 = match side {
            OmissionSide::Sender => DeliveryOutcome::DroppedBySender,
            OmissionSide::Receiver => DeliveryOutcome::DroppedByReceiver,
        };
    }

    /// Forges copy `i` with a payload the protocol derives from `seed`
    /// ([`crate::SyncProtocol::forge_message`]).
    ///
    /// # Panics
    ///
    /// Panics unless copy `i` is still `Delivered`, or if a later copy
    /// was forged already.
    pub fn forge(&mut self, i: usize, seed: u64) {
        assert!(
            self.forged.last().is_none_or(|&(j, _)| j < i),
            "forged out of order"
        );
        self.open(i).1 = DeliveryOutcome::Forged;
        self.forged.push((i, seed));
    }

    /// Makes copy `i` late; the kernel refuses a copy that was not
    /// delivered.
    ///
    /// # Panics
    ///
    /// Panics if copy `i` or a later one is late already.
    pub fn delay(&mut self, i: usize, lateness: Lateness) {
        assert!(
            self.late.last().is_none_or(|&(j, _)| j < i),
            "delayed out of order"
        );
        assert!(i < self.copies.len(), "no copy {i}");
        self.late.push((i, lateness));
    }

    fn open(&mut self, i: usize) -> &mut (ProcessId, DeliveryOutcome) {
        let copy = &mut self.copies[i];
        assert_eq!(copy.1, DeliveryOutcome::Delivered, "copy {i} is not open");
        copy
    }

    /// The forged copies, `(copy, seed)`, ascending.
    pub(crate) fn forged(&self) -> &[(usize, u64)] {
        &self.forged
    }

    /// The late copies, `(copy, lateness)`, ascending.
    pub(crate) fn late(&self) -> &[(usize, Lateness)] {
        &self.late
    }

    /// Sets copy `i`'s verdict, unchecked: the kernel marking a copy to a
    /// crashed receiver, or retagging a late copy.
    pub(crate) fn set(&mut self, i: usize, verdict: DeliveryOutcome) {
        self.copies[i].1 = verdict;
    }
}

/// [`Adversary::decide_row`]'s default body: the per-copy methods, in
/// (sender, destination) order.
fn decide_each<A: Adversary + ?Sized>(adversary: &mut A, r: Round, row: &mut CopyRow) {
    if row.crashing {
        row.cut(adversary.sends_before_crash(row.senders[0], r));
    }
    let w = row.width;
    for s in 0..row.senders.len() {
        let from = row.senders[s];
        for i in s * w..(s + 1) * w {
            let (to, fate) = row.copies[i];
            if fate == DeliveryOutcome::Delivered {
                match adversary.drop_copy(r, from, to) {
                    Some(side) => row.omit(i, side),
                    None => {
                        if let Some(seed) = adversary.forge_copy(r, from, to) {
                            row.forge(i, seed);
                        }
                    }
                }
            }
            if let Some(lateness) = adversary.delay_copy(r, from, to, row.copies[i].1) {
                row.delay(i, lateness);
            }
        }
    }
}

/// The first of `ids` outside a universe of `n` processes.
fn outside(ids: impl IntoIterator<Item = ProcessId>, n: usize) -> Option<ProcessId> {
    ids.into_iter().find(|p| p.index() >= n)
}

/// The failure-free adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl Adversary for NoFaults {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::empty(n)
    }

    fn drop_copy(&mut self, _r: Round, _f: ProcessId, _t: ProcessId) -> Option<OmissionSide> {
        None
    }
}

/// Crash failures only, per a fixed schedule. Optionally each crash emits a
/// prefix of its final round's copies.
#[derive(Clone, Debug)]
pub struct CrashOnly {
    schedule: CrashSchedule,
    partial_sends: usize,
}

impl CrashOnly {
    /// An adversary crashing processes per `schedule`; crashing processes
    /// emit none of their final-round copies.
    pub fn new(schedule: CrashSchedule) -> Self {
        CrashOnly {
            schedule,
            partial_sends: 0,
        }
    }

    /// Crashing processes emit their first `k` copies (destination order)
    /// in their final round before dying.
    #[must_use]
    pub fn with_partial_sends(mut self, k: usize) -> Self {
        self.partial_sends = k;
        self
    }
}

impl Adversary for CrashOnly {
    fn faulty(&self, n: usize) -> ProcessSet {
        self.schedule.crashed_set(n)
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.schedule.iter().map(|(p, _)| p), n)
    }

    fn crash_schedule(&self) -> CrashSchedule {
        self.schedule.clone()
    }

    fn sends_before_crash(&self, _p: ProcessId, _r: Round) -> usize {
        self.partial_sends
    }

    fn drop_copy(&mut self, _r: Round, _f: ProcessId, _t: ProcessId) -> Option<OmissionSide> {
        None
    }
}

/// The Theorem-1 scenario adversary: process `p` send-omits every copy to
/// every other process in rounds `1..=silent_rounds`, then behaves
/// correctly. "Due to omission type process failures, `p` does not
/// communicate with any other process until round `r + 1`."
#[derive(Clone, Debug)]
pub struct SilentProcess {
    /// The silent (faulty) process.
    pub p: ProcessId,
    /// Number of initial rounds during which `p` stays silent.
    pub silent_rounds: u64,
}

impl SilentProcess {
    /// Creates the adversary.
    pub fn new(p: ProcessId, silent_rounds: u64) -> Self {
        SilentProcess { p, silent_rounds }
    }
}

impl Adversary for SilentProcess {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, [self.p])
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside([self.p], n)
    }

    fn drop_copy(&mut self, r: Round, from: ProcessId, _to: ProcessId) -> Option<OmissionSide> {
        (from == self.p && r.get() <= self.silent_rounds).then_some(OmissionSide::Sender)
    }
}

/// Seeded random general-omission adversary: each copy touching a faulty
/// process is dropped with probability `p_drop`, attributed to the faulty
/// side (sender if the sender is faulty, else receiver). Optionally also
/// crashes some of the faulty processes.
///
/// One draw per consulted copy, `gen_bool(p_drop)` exactly; a run of
/// copies is decided in one loop with no branch on the draws
/// ([`Adversary::decide_row`]).
#[derive(Clone, Debug)]
pub struct RandomOmission {
    /// Ascending, without repeats.
    faulty: Vec<ProcessId>,
    drop: Bernoulli,
    schedule: CrashSchedule,
    rng: StdRng,
}

impl RandomOmission {
    /// Creates an adversary over the given faulty set.
    ///
    /// # Panics
    ///
    /// Panics if `p_drop` is not within `0.0..=1.0`.
    pub fn new(faulty: impl IntoIterator<Item = ProcessId>, p_drop: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_drop), "p_drop must be in [0,1]");
        let mut faulty: Vec<ProcessId> = faulty.into_iter().collect();
        faulty.sort_unstable();
        faulty.dedup();
        RandomOmission {
            faulty,
            drop: Bernoulli::new(p_drop),
            schedule: CrashSchedule::none(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Adds a crash schedule (crashing processes are added to the faulty set).
    #[must_use]
    pub fn with_crashes(mut self, schedule: CrashSchedule) -> Self {
        for (p, _) in schedule.iter() {
            if let Err(at) = self.faulty.binary_search(&p) {
                self.faulty.insert(at, p);
            }
        }
        self.schedule = schedule;
        self
    }

    #[inline]
    fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty.binary_search(&p).is_ok()
    }
}

impl Adversary for RandomOmission {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.faulty.iter().copied())
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.faulty.last().copied(), n)
    }

    fn crash_schedule(&self) -> CrashSchedule {
        self.schedule.clone()
    }

    fn drop_copy(&mut self, _r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        let side = if self.is_faulty(from) {
            OmissionSide::Sender
        } else if self.is_faulty(to) {
            OmissionSide::Receiver
        } else {
            return None;
        };
        // Draw for every eligible copy so the consultation order keeps the
        // stream aligned regardless of outcomes.
        self.drop.sample(&mut self.rng).then_some(side)
    }

    /// `drop_copy` over the run, a draw and a compare per copy; a
    /// crashing sender's row takes the default body.
    #[inline]
    fn decide_row(&mut self, r: Round, row: &mut CopyRow) {
        if row.crashing {
            return decide_each(self, r, row);
        }
        // A run holds eligible copies only: either one faulty sender's
        // row, or non-faulty senders' rows, every receiver of which is
        // faulty.
        let side = match row.senders.first() {
            Some(&from) if self.is_faulty(from) => DeliveryOutcome::DroppedBySender,
            _ => DeliveryOutcome::DroppedByReceiver,
        };
        // The verdict is looked up by the draw, not branched on; the
        // generator works on a local copy, so that its state stays in
        // registers across the run.
        let verdicts = [DeliveryOutcome::Delivered, side];
        let (drop, mut rng) = (self.drop, self.rng.clone());
        for (_, verdict) in &mut row.copies {
            if *verdict == DeliveryOutcome::Delivered {
                *verdict = verdicts[usize::from(drop.sample(&mut rng))];
            }
        }
        self.rng = rng;
    }
}

/// A message-forging (Byzantine) adversary: each copy sent by a declared
/// *traitor* is forged with probability `p_forge` (the receiver gets an
/// arbitrary payload derived from a seeded draw instead of the sender's
/// broadcast), and optionally send-omitted with probability `p_drop`
/// first. Strictly outside the paper's general-omission class — this is
/// the harness's probe for where the Theorem-2 solvability boundary
/// breaks as the fault class grows.
///
/// ## Determinism
///
/// All randomness for a copy is drawn inside [`Adversary::drop_copy`],
/// which the kernel consults for every eligible copy — in particular
/// every copy a traitor emits to a live receiver — in canonical (round,
/// sender, destination) order; the forge decision is cached and handed
/// back from [`Adversary::forge_copy`] (which the kernel only calls for
/// copies that were let through). The RNG stream position is therefore
/// a pure function of the traffic pattern, never of the drop or forge
/// outcomes — same seed, byte-identical executions, across any `--jobs`
/// split.
#[derive(Clone, Debug)]
pub struct ByzantineAdversary {
    traitors: BTreeSet<ProcessId>,
    p_forge: f64,
    p_drop: f64,
    rng: StdRng,
    /// Forge decision for the copy `drop_copy` saw last, keyed by
    /// `(round, from, to)` so a stale cache can never leak across copies.
    pending: Option<((u64, ProcessId, ProcessId), Option<u64>)>,
}

impl ByzantineAdversary {
    /// An adversary over the given traitor set forging each traitor copy
    /// with probability `p_forge`.
    ///
    /// # Panics
    ///
    /// Panics if `p_forge` is not within `0.0..=1.0`.
    pub fn new(traitors: impl IntoIterator<Item = ProcessId>, p_forge: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_forge), "p_forge must be in [0,1]");
        ByzantineAdversary {
            traitors: traitors.into_iter().collect(),
            p_forge,
            p_drop: 0.0,
            rng: StdRng::seed_from_u64(seed),
            pending: None,
        }
    }

    /// Traitors additionally send-omit each copy with probability
    /// `p_drop` (checked before the forge draw; a dropped copy is never
    /// forged).
    ///
    /// # Panics
    ///
    /// Panics if `p_drop` is not within `0.0..=1.0`.
    #[must_use]
    pub fn with_drops(mut self, p_drop: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_drop), "p_drop must be in [0,1]");
        self.p_drop = p_drop;
        self
    }
}

impl Adversary for ByzantineAdversary {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.traitors.iter().copied())
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.traitors.last().copied(), n)
    }

    fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        self.pending = None;
        if !self.traitors.contains(&from) {
            return None;
        }
        // Three draws per traitor copy, unconditionally, so the stream
        // position never depends on outcomes.
        let drop = self.rng.gen_bool(self.p_drop);
        let forge = self.rng.gen_bool(self.p_forge);
        let forge_seed = self.rng.next_u64();
        if drop {
            return Some(OmissionSide::Sender);
        }
        self.pending = Some(((r.get(), from, to), forge.then_some(forge_seed)));
        None
    }

    fn forge_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<u64> {
        match self.pending.take() {
            Some((key, decision)) if key == (r.get(), from, to) => decision,
            _ => None,
        }
    }
}

/// Partitions the system into two groups for a window of rounds: every
/// cross-group copy is dropped, attributed to the *minority* group (all of
/// whose members are declared faulty — the model requires omissions to be
/// attributable to faulty processes). When the window ends the partition
/// heals, the minority's messages reach everyone again, and the coterie
/// changes — the paper's de-stabilizing event, on demand.
#[derive(Clone, Debug)]
pub struct GroupPartition {
    minority: BTreeSet<ProcessId>,
    from_round: u64,
    to_round: u64,
}

impl GroupPartition {
    /// Partitions `minority` away from everyone else during rounds
    /// `from_round..=to_round` (inclusive, 1-based).
    pub fn new(
        minority: impl IntoIterator<Item = ProcessId>,
        from_round: u64,
        to_round: u64,
    ) -> Self {
        GroupPartition {
            minority: minority.into_iter().collect(),
            from_round,
            to_round,
        }
    }

    /// Whether the partition is active in round `r`.
    pub fn is_active(&self, r: Round) -> bool {
        (self.from_round..=self.to_round).contains(&r.get())
    }
}

impl Adversary for GroupPartition {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.minority.iter().copied())
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.minority.last().copied(), n)
    }

    fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        if !self.is_active(r) {
            return None;
        }
        match (self.minority.contains(&from), self.minority.contains(&to)) {
            (true, false) => Some(OmissionSide::Sender),
            (false, true) => Some(OmissionSide::Receiver),
            _ => None, // intra-group copies flow
        }
    }
}

/// A tape-driven omission adversary, the model checker's workhorse.
///
/// Every copy *eligible* for dropping — one that touches the faulty set,
/// attributed sender-side if the sender is faulty, receiver-side otherwise
/// — consumes one bit of a boolean tape, in the runner's deterministic
/// consultation order (round, then sender, then destination). `true` drops
/// the copy; past the end of the tape everything is delivered. A run is
/// thus a pure function of `(config, tape)`, and the set of all
/// length-bounded tapes enumerates **every** omission pattern against the
/// faulty set — which is exactly what `ftss-check`'s DFS walks.
#[derive(Clone, Debug)]
pub struct TapeOmission {
    faulty: BTreeSet<ProcessId>,
    tape: Vec<bool>,
    cursor: usize,
}

impl TapeOmission {
    /// An adversary over `faulty` driven by `tape`.
    pub fn new(faulty: impl IntoIterator<Item = ProcessId>, tape: Vec<bool>) -> Self {
        TapeOmission {
            faulty: faulty.into_iter().collect(),
            tape,
            cursor: 0,
        }
    }

    /// How many eligible copies consulted the tape so far (including
    /// consultations past its end). After a run this is the number of
    /// decision points the run exposed — the checker uses it to size the
    /// next tape.
    pub fn consulted(&self) -> usize {
        self.cursor
    }

    /// The tape driving this adversary.
    pub fn tape(&self) -> &[bool] {
        &self.tape
    }
}

impl Adversary for TapeOmission {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.faulty.iter().copied())
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.faulty.last().copied(), n)
    }

    fn drop_copy(&mut self, _r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        let side = if self.faulty.contains(&from) {
            OmissionSide::Sender
        } else if self.faulty.contains(&to) {
            OmissionSide::Receiver
        } else {
            return None;
        };
        let drop = self.tape.get(self.cursor).copied().unwrap_or(false);
        self.cursor += 1;
        drop.then_some(side)
    }
}

/// A fully scripted omission adversary: exactly the listed copies are
/// dropped. Useful for constructing the paper's proof scenarios round by
/// round.
#[derive(Clone, Debug, Default)]
pub struct ScriptedOmission {
    drops: BTreeSet<(u64, ProcessId, ProcessId)>,
    sides: std::collections::BTreeMap<(u64, ProcessId, ProcessId), OmissionSide>,
    forges: std::collections::BTreeMap<(u64, ProcessId, ProcessId), u64>,
    faulty: BTreeSet<ProcessId>,
    schedule: CrashSchedule,
}

impl ScriptedOmission {
    /// An adversary that drops nothing (add drops with [`Self::drop_at`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scripts: in round `r`, the copy `from → to` is dropped by `side`.
    /// The deviating side is added to the faulty set.
    pub fn drop_at(
        &mut self,
        r: u64,
        from: ProcessId,
        to: ProcessId,
        side: OmissionSide,
    ) -> &mut Self {
        self.drops.insert((r, from, to));
        self.sides.insert((r, from, to), side);
        self.faulty.insert(match side {
            OmissionSide::Sender => from,
            OmissionSide::Receiver => to,
        });
        self
    }

    /// Scripts a crash of `p` in round `r`.
    pub fn crash_at(&mut self, p: ProcessId, r: u64) -> &mut Self {
        self.schedule.set(p, Round::new(r));
        self.faulty.insert(p);
        self
    }

    /// Scripts: in round `r`, the copy `from → to` is *forged* with the
    /// given payload seed ([`crate::SyncProtocol::forge_message`]). The
    /// sender is added to the faulty set.
    pub fn forge_at(&mut self, r: u64, from: ProcessId, to: ProcessId, seed: u64) -> &mut Self {
        self.forges.insert((r, from, to), seed);
        self.faulty.insert(from);
        self
    }
}

impl Adversary for ScriptedOmission {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.faulty.iter().copied())
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.faulty.last().copied(), n)
    }

    fn crash_schedule(&self) -> CrashSchedule {
        self.schedule.clone()
    }

    fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        self.sides.get(&(r.get(), from, to)).copied()
    }

    fn forge_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<u64> {
        self.forges.get(&(r.get(), from, to)).copied()
    }
}

/// A storm-plan-driven adversary: a sequence of [`StormPhase`] windows,
/// each rendering one [`StormKind`] against a fixed victim set. Outside
/// every window nothing is dropped, so a soak alternates storm and
/// recovery for as many epochs as the plan schedules — this is the
/// synchronous half of the chaos engine (`ftss-chaos`).
///
/// Kind semantics (all attributed to the victim side, as the model
/// requires):
///
/// * [`StormKind::OmissionStorm`] — every copy touching a victim is
///   dropped with the configured probability. Like [`RandomOmission`],
///   the RNG draws for every eligible copy so the stream stays aligned
///   regardless of outcomes.
/// * [`StormKind::SilenceChurn`] — victims are totally silenced (send
///   and receive omission), the model-legal stand-in for crash/recover
///   churn: crashes are permanent here, total silence heals.
/// * [`StormKind::Partition`] — [`GroupPartition`] semantics: cross-group
///   copies drop both ways, intra-group traffic flows.
/// * [`StormKind::Delay`] / [`StormKind::Reorder`] /
///   [`StormKind::Duplicate`] — a delivered copy touching a victim is
///   late ([`Adversary::delay_copy`]): by `rounds`, by one round on a
///   coin drawn for every consulted copy, or echoed into the next round.
/// * [`StormKind::CorruptionBurst`] / [`StormKind::DelayInflation`] —
///   no copies touched; bursts are injected via `CorruptionSchedule`,
///   delay inflation is async-only.
///
/// The phases are a storm program as [`ftss_core::storm::check_phases`]
/// accepts it (sorted, disjoint windows), so a round finds its phase by
/// one binary search ([`ftss_core::storm::phase_at`]), made once per
/// round: a soak's cost per round does not grow with its epoch count.
#[derive(Clone, Debug)]
pub struct StormAdversary {
    victims: BTreeSet<ProcessId>,
    phases: Vec<StormPhase>,
    rng: StdRng,
    /// The timing faults' draws, apart from the omission draws.
    timing_rng: StdRng,
    /// `(round, that round's kind)`, looked up once per round.
    current: (u64, Option<StormKind>),
}

impl StormAdversary {
    /// An adversary firing `phases` against `victims`, with all random
    /// omission draws seeded by `seed` and the reorder coins by
    /// `seed ^ 0x204b`.
    ///
    /// # Panics
    ///
    /// Panics if an [`StormKind::OmissionStorm`] phase has `percent > 100`,
    /// a [`StormKind::Delay`] phase has `rounds == 0`, or if the phases
    /// are not a storm program: a window with `from > to`, or windows
    /// unsorted by `from` or overlapping (see
    /// [`ftss_core::storm::check_phases`]).
    pub fn new(
        victims: impl IntoIterator<Item = ProcessId>,
        phases: impl IntoIterator<Item = StormPhase>,
        seed: u64,
    ) -> Self {
        let phases: Vec<StormPhase> = phases.into_iter().collect();
        for ph in &phases {
            if let StormKind::OmissionStorm { percent } = ph.kind {
                assert!(percent <= 100, "omission-storm percent must be <= 100");
            }
            if let StormKind::Delay { rounds } = ph.kind {
                assert!(rounds >= 1, "a delay storm defers by at least 1 round");
            }
        }
        if let Err(e) = storm::check_phases(&phases) {
            panic!("{e}");
        }
        StormAdversary {
            victims: victims.into_iter().collect(),
            phases,
            rng: StdRng::seed_from_u64(seed),
            timing_rng: StdRng::seed_from_u64(seed ^ 0x204b),
            current: (0, None),
        }
    }

    /// The kind active in round `r`, looked up once per round.
    fn kind_at(&mut self, r: Round) -> Option<StormKind> {
        if self.current.0 != r.get() {
            let phase = storm::phase_at(&self.phases, r.get());
            self.current = (r.get(), phase.map(|ph| ph.kind));
        }
        self.current.1
    }

    fn victim_side(&self, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        if self.victims.contains(&from) {
            Some(OmissionSide::Sender)
        } else if self.victims.contains(&to) {
            Some(OmissionSide::Receiver)
        } else {
            None
        }
    }
}

impl Adversary for StormAdversary {
    fn faulty(&self, n: usize) -> ProcessSet {
        ProcessSet::from_iter_n(n, self.victims.iter().copied())
    }

    fn outside_universe(&self, n: usize) -> Option<ProcessId> {
        outside(self.victims.last().copied(), n)
    }

    fn drop_copy(&mut self, r: Round, from: ProcessId, to: ProcessId) -> Option<OmissionSide> {
        match self.kind_at(r)? {
            // Timing kinds delay copies instead (`delay_copy`).
            StormKind::CorruptionBurst
            | StormKind::DelayInflation
            | StormKind::Delay { .. }
            | StormKind::Reorder
            | StormKind::Duplicate => None,
            StormKind::OmissionStorm { percent } => {
                let side = self.victim_side(from, to)?;
                // Draw for every eligible copy, as in RandomOmission, so
                // the stream stays aligned across outcomes.
                self.rng
                    .gen_bool(f64::from(percent) / 100.0)
                    .then_some(side)
            }
            // A joining process is absent until its window closes, and a
            // leaving process is gone for the rest of its window — both
            // render as total silence, like SilenceChurn. What differs is
            // the state on return: the chaos planner schedules a targeted
            // corruption for joiners (arbitrary entry state), none for a
            // clean leave.
            StormKind::SilenceChurn | StormKind::Join | StormKind::Leave => {
                self.victim_side(from, to)
            }
            StormKind::Partition => {
                match (self.victims.contains(&from), self.victims.contains(&to)) {
                    (true, false) => Some(OmissionSide::Sender),
                    (false, true) => Some(OmissionSide::Receiver),
                    _ => None, // intra-group copies flow
                }
            }
        }
    }

    /// Asked only about copies with a victim end, so it filters none.
    fn delay_copy(
        &mut self,
        r: Round,
        _from: ProcessId,
        _to: ProcessId,
        verdict: DeliveryOutcome,
    ) -> Option<Lateness> {
        let delivered = verdict == DeliveryOutcome::Delivered;
        match self.kind_at(r)? {
            StormKind::Delay { rounds } if delivered => Some(Lateness::Delayed(rounds)),
            // One coin per consulted copy, delivered or not: the stream
            // position is a function of the traffic pattern alone.
            StormKind::Reorder if self.timing_rng.gen_bool(0.5) && delivered => {
                Some(Lateness::Delayed(1))
            }
            StormKind::Duplicate if delivered => Some(Lateness::Duplicated),
            _ => None,
        }
    }
}

#[cfg(test)]
impl RandomOmission {
    /// Where the draws stand: the generator's state.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_empty() {
        let mut a = NoFaults;
        assert!(a.faulty(5).is_empty());
        assert!(a.crash_schedule().is_empty());
        assert_eq!(a.drop_copy(Round::FIRST, ProcessId(0), ProcessId(1)), None);
    }

    #[test]
    fn silent_process_drops_then_stops() {
        let mut a = SilentProcess::new(ProcessId(0), 2);
        assert_eq!(
            a.drop_copy(Round::new(1), ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(
            a.drop_copy(Round::new(2), ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(a.drop_copy(Round::new(3), ProcessId(0), ProcessId(1)), None);
        // Other senders unaffected.
        assert_eq!(a.drop_copy(Round::new(1), ProcessId(1), ProcessId(0)), None);
        assert_eq!(a.faulty(2).iter().count(), 1);
    }

    #[test]
    fn random_omission_is_deterministic_per_seed() {
        let record = |seed: u64| {
            let mut a = RandomOmission::new([ProcessId(0)], 0.5, seed);
            (0..50)
                .map(|i| {
                    a.drop_copy(Round::new(i + 1), ProcessId(0), ProcessId(1))
                        .is_some()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(record(1), record(1));
        assert_ne!(record(1), record(2));
    }

    #[test]
    fn random_omission_attributes_correct_side() {
        let mut a = RandomOmission::new([ProcessId(1)], 1.0, 0);
        assert_eq!(
            a.drop_copy(Round::FIRST, ProcessId(1), ProcessId(0)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(
            a.drop_copy(Round::FIRST, ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Receiver)
        );
        assert_eq!(a.drop_copy(Round::FIRST, ProcessId(0), ProcessId(2)), None);
    }

    #[test]
    fn random_omission_with_crashes_extends_faulty() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(2), Round::new(3));
        let a = RandomOmission::new([ProcessId(0)], 0.1, 7).with_crashes(cs);
        let f = a.faulty(4);
        assert!(f.contains(ProcessId(0)));
        assert!(f.contains(ProcessId(2)));
        assert_eq!(
            a.crash_schedule().crash_round(ProcessId(2)),
            Some(Round::new(3))
        );
    }

    #[test]
    #[should_panic(expected = "p_drop")]
    fn bad_probability_rejected() {
        RandomOmission::new([], 1.5, 0);
    }

    #[test]
    fn scripted_drops_and_faulty_tracking() {
        let mut a = ScriptedOmission::new();
        a.drop_at(2, ProcessId(0), ProcessId(1), OmissionSide::Receiver)
            .crash_at(ProcessId(2), 4);
        assert_eq!(
            a.drop_copy(Round::new(2), ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Receiver)
        );
        assert_eq!(a.drop_copy(Round::new(1), ProcessId(0), ProcessId(1)), None);
        let f = a.faulty(3);
        assert!(f.contains(ProcessId(1)), "receiver side is the deviator");
        assert!(!f.contains(ProcessId(0)));
        assert!(f.contains(ProcessId(2)));
    }

    #[test]
    fn group_partition_blocks_cross_traffic_then_heals() {
        let mut a = GroupPartition::new([ProcessId(0)], 1, 3);
        assert_eq!(
            a.drop_copy(Round::new(2), ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(
            a.drop_copy(Round::new(2), ProcessId(1), ProcessId(0)),
            Some(OmissionSide::Receiver)
        );
        assert_eq!(a.drop_copy(Round::new(2), ProcessId(1), ProcessId(2)), None);
        assert_eq!(a.drop_copy(Round::new(4), ProcessId(0), ProcessId(1)), None);
        assert!(a.is_active(Round::new(3)));
        assert!(!a.is_active(Round::new(4)));
        assert_eq!(a.faulty(3).iter().count(), 1);
    }

    #[test]
    fn group_partition_intra_minority_traffic_flows() {
        let mut a = GroupPartition::new([ProcessId(0), ProcessId(1)], 1, 5);
        assert_eq!(a.drop_copy(Round::new(2), ProcessId(0), ProcessId(1)), None);
        assert_eq!(
            a.drop_copy(Round::new(2), ProcessId(0), ProcessId(2)),
            Some(OmissionSide::Sender)
        );
    }

    #[test]
    fn tape_omission_consumes_one_bit_per_eligible_copy() {
        let mut a = TapeOmission::new([ProcessId(0)], vec![true, false, true]);
        // Ineligible copy: no tape consumption.
        assert_eq!(a.drop_copy(Round::FIRST, ProcessId(1), ProcessId(2)), None);
        assert_eq!(a.consulted(), 0);
        assert_eq!(
            a.drop_copy(Round::FIRST, ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(a.drop_copy(Round::FIRST, ProcessId(0), ProcessId(2)), None);
        assert_eq!(
            a.drop_copy(Round::FIRST, ProcessId(1), ProcessId(0)),
            Some(OmissionSide::Receiver)
        );
        // Past the end of the tape: deliver, but keep counting.
        assert_eq!(a.drop_copy(Round::new(2), ProcessId(2), ProcessId(0)), None);
        assert_eq!(a.consulted(), 4);
    }

    #[test]
    fn storm_adversary_is_quiet_outside_phases() {
        let mut a = StormAdversary::new(
            [ProcessId(0)],
            [StormPhase::new(3, 4, StormKind::SilenceChurn)],
            1,
        );
        assert_eq!(a.drop_copy(Round::new(2), ProcessId(0), ProcessId(1)), None);
        assert_eq!(
            a.drop_copy(Round::new(3), ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(
            a.drop_copy(Round::new(4), ProcessId(1), ProcessId(0)),
            Some(OmissionSide::Receiver)
        );
        assert_eq!(a.drop_copy(Round::new(5), ProcessId(0), ProcessId(1)), None);
        assert!(a.faulty(3).contains(ProcessId(0)));
    }

    #[test]
    fn storm_adversary_partition_lets_intra_group_flow() {
        let mut a = StormAdversary::new(
            [ProcessId(0), ProcessId(1)],
            [StormPhase::new(1, 2, StormKind::Partition)],
            1,
        );
        assert_eq!(a.drop_copy(Round::new(1), ProcessId(0), ProcessId(1)), None);
        assert_eq!(
            a.drop_copy(Round::new(1), ProcessId(0), ProcessId(2)),
            Some(OmissionSide::Sender)
        );
        assert_eq!(
            a.drop_copy(Round::new(1), ProcessId(2), ProcessId(1)),
            Some(OmissionSide::Receiver)
        );
    }

    #[test]
    fn storm_adversary_silence_churn_drops_intra_victim_copies() {
        let mut a = StormAdversary::new(
            [ProcessId(0), ProcessId(1)],
            [StormPhase::new(1, 1, StormKind::SilenceChurn)],
            1,
        );
        assert_eq!(
            a.drop_copy(Round::new(1), ProcessId(0), ProcessId(1)),
            Some(OmissionSide::Sender)
        );
    }

    #[test]
    fn storm_adversary_omission_storm_is_seed_deterministic() {
        let record = |seed: u64| {
            let mut a = StormAdversary::new(
                [ProcessId(0)],
                [StormPhase::new(
                    1,
                    50,
                    StormKind::OmissionStorm { percent: 50 },
                )],
                seed,
            );
            (0..50)
                .map(|i| {
                    a.drop_copy(Round::new(i + 1), ProcessId(0), ProcessId(1))
                        .is_some()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(record(3), record(3));
        assert_ne!(record(3), record(4));
    }

    #[test]
    fn storm_adversary_burst_and_inflation_drop_nothing() {
        let mut a = StormAdversary::new(
            [ProcessId(0)],
            [
                StormPhase::new(1, 1, StormKind::CorruptionBurst),
                StormPhase::new(2, 2, StormKind::DelayInflation),
            ],
            1,
        );
        assert_eq!(a.drop_copy(Round::new(1), ProcessId(0), ProcessId(1)), None);
        assert_eq!(a.drop_copy(Round::new(2), ProcessId(0), ProcessId(1)), None);
        assert_eq!(a.kind_at(Round::new(2)), Some(StormKind::DelayInflation));
        assert_eq!(a.kind_at(Round::new(3)), None);
    }

    #[test]
    #[should_panic(expected = "percent")]
    fn storm_adversary_rejects_bad_percent() {
        StormAdversary::new(
            [ProcessId(0)],
            [StormPhase::new(
                1,
                1,
                StormKind::OmissionStorm { percent: 101 },
            )],
            0,
        );
    }

    #[test]
    fn storm_adversary_renders_timing_kinds_on_delivered_copies() {
        let mut a = StormAdversary::new(
            [ProcessId(0)],
            [
                StormPhase::new(1, 1, StormKind::Delay { rounds: 3 }),
                StormPhase::new(2, 2, StormKind::Duplicate),
                StormPhase::new(3, 3, StormKind::Reorder),
            ],
            5,
        );
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        let (on_time, cut) = (DeliveryOutcome::Delivered, DeliveryOutcome::SenderCrashed);
        let r = Round::new;
        assert_eq!(a.drop_copy(r(1), p0, p1), None);
        assert_eq!(
            a.delay_copy(r(1), p0, p1, on_time),
            Some(Lateness::Delayed(3))
        );
        assert_eq!(a.delay_copy(r(1), p0, p1, cut), None);
        assert_eq!(
            a.delay_copy(r(2), p1, p0, on_time),
            Some(Lateness::Duplicated)
        );
        // One reorder coin per consulted copy, from the timing stream,
        // whether or not the copy was delivered.
        let mut coins = StdRng::seed_from_u64(5 ^ 0x204b);
        for i in 0..16 {
            let verdict = if i % 2 == 0 { on_time } else { cut };
            let heads = coins.gen_bool(0.5);
            let want = (heads && verdict == on_time).then_some(Lateness::Delayed(1));
            assert_eq!(a.delay_copy(r(3), p0, p1, verdict), want, "copy {i}");
        }
        assert_eq!(a.delay_copy(r(4), p0, p1, on_time), None);
    }

    /// A zero delay would record a copy as not delivered and still hand
    /// it to the same round's inbox.
    #[test]
    #[should_panic(expected = "at least 1 round")]
    fn storm_adversary_rejects_a_zero_delay() {
        StormAdversary::new(
            [ProcessId(0)],
            [StormPhase::new(1, 1, StormKind::Delay { rounds: 0 })],
            0,
        );
    }

    #[test]
    #[should_panic(expected = "unsorted or overlap")]
    fn storm_adversary_rejects_overlapping_phases() {
        StormAdversary::new(
            [ProcessId(0)],
            [
                StormPhase::new(1, 5, StormKind::SilenceChurn),
                StormPhase::new(5, 6, StormKind::Partition),
            ],
            0,
        );
    }

    #[test]
    #[should_panic(expected = "unsorted or overlap")]
    fn storm_adversary_rejects_unsorted_phases() {
        StormAdversary::new(
            [ProcessId(0)],
            [
                StormPhase::new(10, 12, StormKind::SilenceChurn),
                StormPhase::new(1, 3, StormKind::Partition),
            ],
            0,
        );
    }

    #[test]
    fn crash_only_partial_sends() {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(0), Round::new(1));
        let a = CrashOnly::new(cs).with_partial_sends(2);
        assert_eq!(a.sends_before_crash(ProcessId(0), Round::new(1)), 2);
        assert!(a.faulty(2).contains(ProcessId(0)));
    }
}
