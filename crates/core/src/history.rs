//! Execution histories, exactly as the paper defines them.
//!
//! A **round history** describes, for each process, its state at the start
//! of the round and the actions it took during the round. An **execution
//! history** `H` is a sequence of round histories. Histories are the ground
//! truth that all of the paper's predicates — problems `Σ`, faulty sets
//! `F(H, Π)`, coteries — are evaluated against, so the simulator records
//! them verbatim and the checkers never peek at simulator internals.
//!
//! # Memory model (DESIGN.md §12)
//!
//! Round histories are stored **struct-of-arrays**: per-process state and
//! counters live in dense vectors indexed by process id, and the flags
//! (`crashed_here`, `halted_at_start`) are [`ProcessSet`] bitsets.
//! Per-copy message fate ([`RoundMsgs`]) is the round's *clean block* —
//! two [`ProcessSet`]s standing for every copy the model guarantees (§2:
//! a copy between two non-faulty processes is always delivered) — plus a
//! table of n-bit rows owned by the processes outside the block and a
//! sparse exception list for the copies outside it. A simulated round
//! with f special processes therefore records O(n/64) words for the block
//! and O(f) rows of O(n/64) words, with one shared [`Payload`] per
//! sender, where a naive array-of-structs layout holds `O(n²)` per-copy
//! `Envelope`s. Code reads records through the borrowed
//! [`RoundRecordView`] and writes them through [`RoundHistory`]'s
//! `set_*`/`record_*` recorder.
//!
//! A [`History`] can additionally be **windowed**: constructed via
//! [`History::with_window`], it retains only the most recent `w` round
//! histories and folds the deviations of evicted rounds into a running
//! faulty set, so long runs at large n use bounded memory. The paper's
//! suffix-based predicates only ever need a bounded suffix (see
//! `ftss_check::window_stabilization`), which is what makes this sound;
//! queries that would need an evicted round panic loudly rather than
//! answering wrong.
//!
//! Payloads inside a history are shared [`Payload`]s: one broadcast is one
//! allocation referenced by every view of it. Equality stays by value, so a
//! shared history compares equal to a deep-cloned one — see [`Payload`] for
//! why sharing cannot leak mutability into the record.

use crate::fault::FaultKind;
use crate::id::{ProcessId, ProcessSet, WORD_BITS};
use crate::payload::Payload;
use crate::round::{Round, RoundCounter};
use std::fmt;

/// What happened to a single point-to-point copy of a broadcast.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryOutcome {
    /// The message arrived.
    Delivered,
    /// The (faulty) sender omitted to send this copy.
    DroppedBySender,
    /// The (faulty) receiver omitted to receive this copy.
    DroppedByReceiver,
    /// The receiver had already crashed; the copy vanished without anyone
    /// deviating on it.
    ReceiverCrashed,
    /// The sender crashed mid-round before emitting this copy. The crash
    /// itself is the deviation (recorded via `crashed_here`); the lost copy
    /// adds no separate send-omission.
    SenderCrashed,
    /// The (faulty) sender replaced this copy's payload with a forged one
    /// — the message-forging Byzantine deviation. The copy *arrives* (the
    /// delivered bit is set) but carries the per-copy payload in the
    /// round's forged list instead of the shared broadcast slot.
    Forged,
    /// Partial-synchrony timing fault: the copy was deferred and arrives
    /// with a later round's inbox. Nobody deviated — the network was slow
    /// — so no fault attributes to either end. The delivered bit of the
    /// send round stays clear; the late arrival is a delivery of a
    /// *past* broadcast, outside this round's record.
    Delayed,
    /// Partial-synchrony timing fault: the copy arrived on time (the
    /// delivered bit is set) *and* was echoed again into the next round's
    /// inbox. Like [`DeliveryOutcome::Delayed`], no process deviated.
    Duplicated,
}

/// A set of [`FaultKind`]s, packed into one byte — the allocation-free
/// result of the deviation queries on the checker hot path
/// ([`RoundHistory::deviation_set`], [`History::faulty_upto`]).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviationSet(u8);

impl DeviationSet {
    /// The empty set.
    pub const EMPTY: DeviationSet = DeviationSet(0);

    const fn bit(kind: FaultKind) -> u8 {
        match kind {
            FaultKind::Crash => 1,
            FaultKind::SendOmission => 2,
            FaultKind::ReceiveOmission => 4,
            FaultKind::Forgery => 8,
        }
    }

    /// Adds a deviation kind.
    pub fn insert(&mut self, kind: FaultKind) {
        self.0 |= Self::bit(kind);
    }

    /// Whether the kind is present.
    pub fn contains(self, kind: FaultKind) -> bool {
        self.0 & Self::bit(kind) != 0
    }

    /// Whether no deviation was observed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of distinct deviation kinds present.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the kinds present, in declaration order
    /// (crash, send-omission, receive-omission).
    pub fn iter(self) -> impl Iterator<Item = FaultKind> {
        [
            FaultKind::Crash,
            FaultKind::SendOmission,
            FaultKind::ReceiveOmission,
            FaultKind::Forgery,
        ]
        .into_iter()
        .filter(move |&k| self.contains(k))
    }
}

impl fmt::Debug for DeviationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<FaultKind> for DeviationSet {
    fn from_iter<I: IntoIterator<Item = FaultKind>>(iter: I) -> Self {
        let mut s = DeviationSet::EMPTY;
        for k in iter {
            s.insert(k);
        }
        s
    }
}

/// The grid a row belongs to: `SENT` (row = sender, bit = destination) or
/// `HEARD` (row = receiver, bit = sender). `COLUMN + side` is a special
/// process's column of that grid, kept for the receivers of the clean
/// block, which own no rows: bit `o` of `q`'s `COLUMN + SENT` row is
/// set iff `o` sent to `q`, and of `s`'s `COLUMN + HEARD` row iff `o`
/// heard `s`.
const SENT: usize = 0;
const HEARD: usize = 1;
const COLUMN: usize = 2;

/// The copies of one round outside its clean block, as n-bit rows keyed
/// by the process that owns them — up to four each: a sent row, a heard
/// row and the two columns above. Rows are handed out from a pool on
/// their first bit and cleared in place; clearing touches the rows handed
/// out and no others. Pool row 0 is never handed out, so a row that was
/// not reads as zeros.
#[derive(Clone, Debug)]
struct RowTable {
    /// Words per row.
    wpr: usize,
    /// Per process, the pool offset (in words) of each of its four rows;
    /// 0, the zero row, for a row not handed out.
    slots: Vec<[u32; 4]>,
    /// The zero row, then the handed-out rows, `wpr` words each. It
    /// keeps its high-water length across resets: a recycled frame
    /// allocates no row it has held before.
    pool: Vec<u64>,
    /// The owner and kind of every handed-out row, in hand-out order.
    handed: Vec<(u32, u8)>,
}

impl RowTable {
    fn new(n: usize) -> Self {
        let wpr = n.div_ceil(WORD_BITS);
        // Room for one special process's four rows: a fresh frame of a
        // round with one faulty process allocates nothing more.
        let mut pool = Vec::with_capacity(5 * wpr);
        pool.resize(wpr, 0);
        RowTable {
            wpr,
            slots: vec![[0; 4]; n],
            pool,
            handed: Vec::with_capacity(4),
        }
    }

    #[inline]
    fn row(&self, kind: usize, p: ProcessId) -> &[u64] {
        let at = self.slots[p.index()][kind] as usize;
        &self.pool[at..at + self.wpr]
    }

    #[inline]
    fn get(&self, kind: usize, p: ProcessId, bit: usize) -> bool {
        self.row(kind, p)[bit / WORD_BITS] & (1 << (bit % WORD_BITS)) != 0
    }

    #[inline]
    fn set(&mut self, kind: usize, p: ProcessId, bit: usize) {
        let mut at = self.slots[p.index()][kind] as usize;
        if at == 0 {
            at = self.hand_out(kind, p);
        }
        self.pool[at + bit / WORD_BITS] |= 1 << (bit % WORD_BITS);
    }

    /// Hands `p` a zeroed row of `kind`; returns its offset.
    #[cold]
    fn hand_out(&mut self, kind: usize, p: ProcessId) -> usize {
        self.handed.push((p.index() as u32, kind as u8));
        let at = self.handed.len() * self.wpr;
        if self.pool.len() < at + self.wpr {
            self.pool.resize(at + self.wpr, 0);
        }
        self.slots[p.index()][kind] = u32::try_from(at).expect("a pool under 2^32 words");
        at
    }

    /// The pool words of the handed-out rows.
    fn handed_words(&self) -> std::ops::Range<usize> {
        self.wpr..(self.handed.len() + 1) * self.wpr
    }

    /// Zeroes the handed-out rows, and no others.
    fn clear(&mut self) {
        let words = self.handed_words();
        self.pool[words].fill(0);
    }

    /// ORs `bits` into word `k` of `p`'s row of `kind`, handing the row
    /// out if it holds no bit yet and `bits` has one.
    #[inline]
    fn or_word(&mut self, kind: usize, p: ProcessId, k: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        let mut at = self.slots[p.index()][kind] as usize;
        if at == 0 {
            at = self.hand_out(kind, p);
        }
        self.pool[at + k] |= bits;
    }

    /// ORs `bit` into word `k` of `p`'s row of `kind` iff `on`: no
    /// branch on `on` once the row is handed out.
    #[inline]
    fn or_bit(&mut self, kind: usize, p: ProcessId, k: usize, bit: u64, on: bool) {
        let at = self.slots[p.index()][kind] as usize;
        if at != 0 {
            self.pool[at + k] |= bit & u64::from(on).wrapping_neg();
        } else if on {
            let at = self.hand_out(kind, p);
            self.pool[at + k] |= bit;
        }
    }

    /// Zeroes `p`'s row of `kind`: its handed-out row, or the zero row.
    fn clear_row(&mut self, kind: usize, p: ProcessId) {
        let at = self.slots[p.index()][kind] as usize;
        self.pool[at..at + self.wpr].fill(0);
    }

    /// Takes every row back from its owner.
    fn release(&mut self) {
        for (p, kind) in self.handed.drain(..) {
            self.slots[p as usize][kind as usize] = 0;
        }
    }

    /// Whether no row holds a bit.
    fn is_clear(&self) -> bool {
        self.pool[self.handed_words()].iter().all(|&w| w == 0)
    }
}

/// The message traffic of one round, struct-of-arrays.
///
/// One broadcast payload slot per sender; the round's *clean block*, two
/// sets `block_srcs ⊆ block_dsts`: every member of `block_srcs` sent to
/// every *other* member of `block_dsts`, and every member of `block_dsts`
/// heard every member of `block_srcs`, itself included; a row table for
/// the copies outside the block; and a sparse, `(src, dst)`-sorted
/// exception list holding every copy whose [`DeliveryOutcome`] was *not*
/// `Delivered`. A sent copy with no exception entry was delivered.
/// Copies sent in an earlier round that arrive in this one — the late
/// arrivals of a timing fault — are a sparse list beside the rest, by
/// receiver and each receiver's in hold order; only [`Deliveries::late`]
/// reads it.
///
/// The table keeps each copy's sent and heard bit once. The block's
/// receivers are named before any copy ([`RoundHistory::open_clean_block`],
/// the kernel's walk), and only the *special* processes — those outside
/// `block_dsts` — own rows: a sent row, a heard row, and two columns
/// naming the block receivers that sent to it and that heard it. A block
/// receiver's row is then the block's share ORed with the bits the f
/// special columns hold for it, so a round with f special processes
/// stores O(f·n) bits. A frame that is never opened — the stepper's, a
/// hand-built one — has an empty block: every process is special and
/// owns its rows. No bit lies inside the block (a copy between two of its
/// receivers has no row to sit in), and whether a row gets the block's
/// share is decided once per row, never per word.
///
/// Equality is semantic: two frames are equal iff every reader answers
/// alike. The layout is not canonical — the same round recorded with an
/// empty block keeps in rows the copies an opened frame keeps in its
/// block or in columns, and the copy-by-copy oracles compare exactly such
/// frames; rows are pooled in first-write order too — so `eq` compares
/// the rows as the readers see them.
///
/// Kept separate from [`RoundHistory`] so that message-only consumers (the
/// simulator's inbox path) need not name the protocol state type `S`.
#[derive(Clone, Debug)]
pub struct RoundMsgs<M> {
    n: usize,
    payloads: Vec<Option<Payload<M>>>,
    block_srcs: ProcessSet,
    /// The block's receivers, named before any copy: they own no rows.
    block_dsts: ProcessSet,
    /// Whether the block was recorded.
    recorded: bool,
    /// The processes outside the block, ascending: the owners of every
    /// column. Empty in a frame never opened, where no process is a
    /// block receiver and no column is kept.
    specials: Vec<ProcessId>,
    rows: RowTable,
    exceptions: Vec<(ProcessId, ProcessId, DeliveryOutcome)>,
    /// Per-copy payloads of [`DeliveryOutcome::Forged`] copies, sorted by
    /// `(src, dst)` like `exceptions`. Consulted by the delivery views
    /// before the shared broadcast slot; empty in every non-Byzantine run.
    forged: Vec<(ProcessId, ProcessId, Payload<M>)>,
    /// The copies sent in an earlier round that arrive in this one,
    /// `(src, dst, payload)` sorted by `dst` and, per `dst`, in hold order
    /// ([`RoundHistory::record_late`]); empty in every run without timing
    /// faults.
    late: Vec<(ProcessId, ProcessId, Payload<M>)>,
    /// Scratch of [`RoundHistory::record_clean_run`]: each special
    /// process's heard bits in the current word of senders.
    run_heard: Vec<u64>,
}

impl<M: PartialEq> PartialEq for RoundMsgs<M> {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.payloads == other.payloads
            && self.exceptions == other.exceptions
            && self.forged == other.forged
            && self.late == other.late
            && (0..self.n).map(ProcessId).all(|p| {
                self.sent_words(p).eq(other.sent_words(p))
                    && self
                        .deliveries(p)
                        .heard_words()
                        .eq(other.deliveries(p).heard_words())
            })
    }
}

impl<M: Eq> Eq for RoundMsgs<M> {}

impl<M> RoundMsgs<M> {
    fn empty(n: usize) -> Self {
        RoundMsgs {
            n,
            payloads: std::iter::repeat_with(|| None).take(n).collect(),
            block_srcs: ProcessSet::empty(n),
            block_dsts: ProcessSet::empty(n),
            recorded: false,
            specials: Vec::new(),
            rows: RowTable::new(n),
            exceptions: Vec::new(),
            forged: Vec::new(),
            late: Vec::new(),
            run_heard: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.payloads.iter_mut().for_each(|p| *p = None);
        self.block_srcs.clear();
        self.block_dsts.clear();
        // Every row stays with its owner, as in a grid, until a block
        // opens with the owner among its receivers.
        self.rows.clear();
        self.recorded = false;
        self.specials.clear();
        self.exceptions.clear();
        self.forged.clear();
        self.late.clear();
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The payload `src` broadcast this round, if it sent at all.
    pub fn broadcast_of(&self, src: ProcessId) -> Option<&Payload<M>> {
        self.payloads[src.index()].as_ref()
    }

    /// The senders of the round's clean block: every receiver of the
    /// block ([`Deliveries::in_block`]) heard each of them. Empty unless
    /// the round was recorded with [`RoundHistory::record_clean_block`].
    pub fn block_srcs(&self) -> &ProcessSet {
        &self.block_srcs
    }

    /// The processes outside the clean block's receivers, ascending — the
    /// owners of every row of an opened frame
    /// ([`RoundHistory::open_clean_block`]). Empty in a frame never
    /// opened.
    pub fn specials(&self) -> &[ProcessId] {
        &self.specials
    }

    /// Whether any copy sent in an earlier round arrives in this one
    /// ([`Deliveries::late`]).
    pub fn has_late(&self) -> bool {
        !self.late.is_empty()
    }

    /// Which of the special processes ([`Self::specials`]) each receiver
    /// of the clean block heard, as a mask — bit `i` stands for the
    /// `i`-th — read in one pass over their heard columns: `out[p]` for
    /// process `p`. Two receivers with the same mask heard the same fresh
    /// messages. `None` for a process outside the block and for one that
    /// heard a forged copy, and for every process if the round has more
    /// than 64 special processes.
    pub fn heard_specials_into(&self, out: &mut Vec<Option<u64>>) {
        out.clear();
        if self.specials.len() > WORD_BITS || self.block_dsts.is_empty() {
            out.resize(self.n, None);
            return;
        }
        out.resize(self.n, Some(0));
        // No branch on the bits, which an omitter draws at random.
        for (i, &s) in self.specials.iter().enumerate() {
            let column = self.rows.row(COLUMN + HEARD, s);
            for (masks, &word) in out.chunks_mut(WORD_BITS).zip(column) {
                for (b, mask) in masks.iter_mut().enumerate() {
                    if let Some(mask) = mask {
                        *mask |= (word >> b & 1) << i;
                    }
                }
            }
        }
        for &s in &self.specials {
            out[s.index()] = None;
        }
        for &(_, dst, _) in &self.forged {
            out[dst.index()] = None;
        }
    }

    /// Whether the block holds the copy `src → dst` (never a self-copy).
    fn block_sent(&self, src: ProcessId, dst: ProcessId) -> bool {
        src != dst && self.block_srcs.contains(src) && self.block_dsts.contains(dst)
    }

    /// Whether the block holds `dst` hearing `src`.
    fn block_heard(&self, dst: ProcessId, src: ProcessId) -> bool {
        self.block_dsts.contains(dst) && self.block_srcs.contains(src)
    }

    /// Whether `p`'s rows live in the special processes' columns.
    fn rowless(&self, p: ProcessId) -> bool {
        self.block_dsts.contains(p)
    }

    /// Where bit `q` of `p`'s row of the `side` grid lives, as `(kind,
    /// owner, bit)`: in `p`'s own row, or, if `p` owns none, in `q`'s
    /// column. `None` when neither owns rows: a copy between two
    /// receivers of the block, which only the block can hold.
    #[inline]
    fn cell(&self, side: usize, p: ProcessId, q: ProcessId) -> Option<(usize, ProcessId, usize)> {
        if !self.rowless(p) {
            Some((side, p, q.index()))
        } else if !self.rowless(q) {
            Some((COLUMN + side, q, p.index()))
        } else {
            None
        }
    }

    /// Sets bit `q` of `p`'s row of the `side` grid: the copy `p → q`
    /// if `side` is `SENT`, `q → p` if `HEARD`.
    ///
    /// # Panics
    ///
    /// Panics if neither end owns rows — every copy the block holds.
    #[inline]
    fn set_bit(&mut self, side: usize, p: ProcessId, q: ProcessId) {
        let Some((kind, owner, bit)) = self.cell(side, p, q) else {
            refuse_inner_copy(p, q)
        };
        self.rows.set(kind, owner, bit);
    }

    /// The sent row of `src`, a special process, and
    /// the delivered bits of its `copies`, a word at a time: a receiver
    /// of the block heard it in `src`'s heard column, a special one in
    /// its own heard row.
    #[inline]
    fn commit_special_row(&mut self, src: ProcessId, copies: &[(ProcessId, DeliveryOutcome)]) {
        let s = src.index();
        let flush = |m: &mut Self, k: usize, sent: u64, heard: u64| {
            m.rows.or_word(SENT, src, k, sent);
            let block = m.block_dsts.words()[k];
            m.rows.or_word(COLUMN + HEARD, src, k, heard & block);
            let mut specials = heard & !block;
            while specials != 0 {
                let dst = ProcessId(k * WORD_BITS + specials.trailing_zeros() as usize);
                m.rows.set(HEARD, dst, s);
                specials &= specials - 1;
            }
        };
        let (mut k, mut sent, mut heard) = (usize::MAX, 0u64, 0u64);
        for &(dst, outcome) in copies {
            refuse_unless_plain(src, dst, outcome);
            let (word, bit) = (dst.index() / WORD_BITS, dst.index() % WORD_BITS);
            if word != k {
                if k != usize::MAX {
                    flush(self, k, sent, heard);
                }
                (k, sent, heard) = (word, 0, 0);
            }
            sent |= 1 << bit;
            heard |= u64::from(arrives(outcome)) << bit;
        }
        if k != usize::MAX {
            flush(self, k, sent, heard);
        }
    }

    /// The copies from `src`, a block receiver, which owns no rows, to
    /// special processes: bit `src` of each one's sent column, and of
    /// its heard row if the copy arrived.
    #[inline]
    fn commit_column_bits(&mut self, src: ProcessId, copies: &[(ProcessId, DeliveryOutcome)]) {
        let (k, bit) = (src.index() / WORD_BITS, 1u64 << (src.index() % WORD_BITS));
        for &(dst, outcome) in copies {
            refuse_unless_plain(src, dst, outcome);
            if self.rowless(dst) {
                refuse_inner_copy(src, dst);
            }
            self.rows.set(COLUMN + SENT, dst, src.index());
            self.rows.or_bit(HEARD, dst, k, bit, arrives(outcome));
        }
    }

    /// Appends `src`'s exceptions among `copies` (ascending by
    /// destination), with no branch on the outcome, when they follow
    /// every exception recorded so far; inserts them one by one
    /// otherwise.
    #[inline]
    fn push_exceptions(&mut self, src: ProcessId, copies: &[(ProcessId, DeliveryOutcome)]) {
        let exc = &mut self.exceptions;
        let Some(&(first, _)) = copies.first() else {
            return;
        };
        if exc.last().is_some_and(|&(s, d, _)| (s, d) >= (src, first)) {
            for &(dst, outcome) in copies {
                if outcome != DeliveryOutcome::Delivered {
                    let at = exc.partition_point(|&(s, d, _)| (s, d) < (src, dst));
                    exc.insert(at, (src, dst, outcome));
                }
            }
            return;
        }
        let start = open_slots(exc, copies.len(), (src, first));
        let slots = &mut exc[start..];
        let mut kept = 0;
        for &(dst, outcome) in copies {
            slots[kept] = (src, dst, outcome);
            kept += usize::from(outcome != DeliveryOutcome::Delivered);
        }
        exc.truncate(start + kept);
    }

    /// A run of block receivers' rows to the special processes, as
    /// [`RoundHistory::record_clean_run`] takes it, in one pass over the
    /// copies: each special process's sent column and heard row take the
    /// run's bits a word of senders at a time, and, when the run follows
    /// every exception recorded so far, its exceptions are appended with
    /// no branch on the outcome. Returns whether they were.
    fn commit_column_run(
        &mut self,
        srcs: &[ProcessId],
        copies: &[(ProcessId, DeliveryOutcome)],
    ) -> bool {
        let RoundMsgs {
            block_dsts,
            specials,
            rows,
            exceptions: exc,
            run_heard,
            ..
        } = self;
        let w = specials.len();
        let first = (srcs[0], specials[0]);
        let append = exc.last().is_none_or(|&(s, d, _)| (s, d) < first);
        // As `push_exceptions`: every copy is written to the next free
        // slot, which only an exception keeps.
        let start = if append {
            open_slots(exc, copies.len(), first)
        } else {
            exc.len()
        };
        let slots = &mut exc[start..];
        run_heard.clear();
        run_heard.resize(w, 0);
        // The shape is checked as the copies go by, with no branch: the
        // senders ascend and lie in the block, and every row is plain
        // copies to the special processes in order.
        let mut plain = true;
        let mut flush = |k: usize, sent: u64, heard: &mut [u64]| {
            for (&q, heard) in specials.iter().zip(heard) {
                rows.or_word(COLUMN + SENT, q, k, sent);
                rows.or_word(HEARD, q, k, *heard);
                *heard = 0;
            }
            sent & !block_dsts.words()[k] == 0
        };
        let (mut k, mut sent, mut kept, mut next) = (usize::MAX, 0u64, 0, 0);
        for (&src, row) in srcs.iter().zip(copies.chunks_exact(w)) {
            plain &= src.index() >= next;
            next = src.index() + 1;
            let (word, bit) = (src.index() / WORD_BITS, src.index() % WORD_BITS);
            if word != k {
                if k != usize::MAX {
                    plain &= flush(k, sent, run_heard);
                }
                (k, sent) = (word, 0);
            }
            sent |= 1 << bit;
            for j in 0..w {
                let (dst, outcome) = row[j];
                plain &= (dst == specials[j]) & (outcome != DeliveryOutcome::Forged);
                run_heard[j] |= u64::from(arrives(outcome)) << bit;
                if append {
                    slots[kept] = (src, dst, outcome);
                    kept += usize::from(outcome != DeliveryOutcome::Delivered);
                }
            }
        }
        plain &= flush(k, sent, run_heard);
        exc.truncate(start + kept);
        assert!(
            plain,
            "a clean run is ascending block receivers' plain copies to every special process"
        );
        append
    }

    /// Bit `q` of `p`'s row of the `side` grid, block aside.
    fn bit(&self, side: usize, p: ProcessId, q: ProcessId) -> bool {
        self.cell(side, p, q)
            .is_some_and(|(kind, owner, bit)| self.rows.get(kind, owner, bit))
    }

    /// `p`'s row of the `side` grid, with the block's share ORed in iff
    /// `with_block`.
    #[inline]
    fn row(&self, side: usize, p: ProcessId, with_block: bool) -> RowWords<'_> {
        let block = if side == SENT {
            &self.block_dsts
        } else {
            &self.block_srcs
        };
        RowWords {
            own: self.rows.row(side, p),
            block: block.words(),
            mask: if with_block { u64::MAX } else { 0 },
            k: 0,
            columns: self.columns(side, p),
        }
    }

    /// The set bits of `p`'s row of the `side` grid, as [`Self::row`].
    #[inline]
    fn bits(&self, side: usize, p: ProcessId, with_block: bool) -> RowBits<'_> {
        if self.rowless(p) && !with_block {
            return RowBits::Columns(self.columns(side, p));
        }
        RowBits::Words {
            words: self.row(side, p, with_block),
            k: 0,
            current: 0,
        }
    }

    /// What the special processes' columns hold of `p`'s row of the
    /// `side` grid: nothing, read at no cost, if `p` owns its rows.
    #[inline]
    fn columns(&self, side: usize, p: ProcessId) -> Columns<'_> {
        Columns {
            rows: &self.rows,
            kind: COLUMN + side,
            bit: p.index(),
            specials: if self.rowless(p) { &self.specials } else { &[] },
        }
    }

    /// The fate of the copy `src → dst`, or `None` if no copy was emitted
    /// (the sender was crashed, silent, or halted).
    pub fn outcome_of(&self, src: ProcessId, dst: ProcessId) -> Option<DeliveryOutcome> {
        if !self.bit(SENT, src, dst) {
            return self
                .block_sent(src, dst)
                .then_some(DeliveryOutcome::Delivered);
        }
        match self
            .exceptions
            .binary_search_by_key(&(src, dst), |&(s, d, _)| (s, d))
        {
            Ok(i) => Some(self.exceptions[i].2),
            Err(_) => Some(DeliveryOutcome::Delivered),
        }
    }

    /// Number of copies `src` emitted this round.
    pub fn sent_count(&self, src: ProcessId) -> usize {
        let bits = self.row(SENT, src, false).ones();
        // `block_srcs ⊆ block_dsts`: every receiver but the sender itself.
        if self.block_srcs.contains(src) {
            bits + self.block_dsts.len() - 1
        } else {
            bits
        }
    }

    /// Number of messages delivered to `dst` this round.
    pub fn delivered_count(&self, dst: ProcessId) -> usize {
        let bits = self.row(HEARD, dst, false).ones();
        if self.block_dsts.contains(dst) {
            bits + self.block_srcs.len()
        } else {
            bits
        }
    }

    /// Whether the copy `src → dst` was actually delivered.
    pub fn was_delivered(&self, dst: ProcessId, src: ProcessId) -> bool {
        self.bit(HEARD, dst, src) || self.block_heard(dst, src)
    }

    /// The forged payload carried by the copy `src → dst`, if that copy
    /// was forged ([`DeliveryOutcome::Forged`]).
    pub fn forged_payload_of(&self, src: ProcessId, dst: ProcessId) -> Option<&Payload<M>> {
        if self.forged.is_empty() {
            return None;
        }
        self.forged
            .binary_search_by_key(&(src, dst), |&(s, d, _)| (s, d))
            .ok()
            .map(|i| &self.forged[i].2)
    }

    /// Iterates the copies `src` emitted, in ascending destination order.
    pub fn sent_iter(&self, src: ProcessId) -> SentIter<'_, M> {
        let lo = self.exceptions.partition_point(|&(s, _, _)| s < src);
        let hi = self.exceptions[lo..].partition_point(|&(s, _, _)| s == src) + lo;
        let flo = self.forged.partition_point(|&(s, _, _)| s < src);
        let fhi = self.forged[flo..].partition_point(|&(s, _, _)| s == src) + flo;
        let in_block = self.block_srcs.contains(src);
        // The block's share of the row names the sender itself, which
        // the block never sends to and the table cannot hold: passed over.
        let skip = if in_block { src.index() } else { usize::MAX };
        SentIter {
            payload: self.payloads[src.index()].as_ref(),
            bits: self.bits(SENT, src, in_block),
            skip,
            exceptions: &self.exceptions[lo..hi],
            next_exc: 0,
            forged: &self.forged[flo..fhi],
            next_forged: 0,
        }
    }

    /// The words of `src`'s sent row, block included — what equality
    /// compares when two frames split a round differently.
    fn sent_words(&self, src: ProcessId) -> impl Iterator<Item = u64> + '_ {
        let mask = if self.block_srcs.contains(src) {
            u64::MAX
        } else {
            0
        };
        let (own_word, own_bit) = (src.index() / WORD_BITS, 1 << (src.index() % WORD_BITS));
        let block = self.block_dsts.words().iter().enumerate();
        let share = block.map(move |(k, &b)| {
            let b = b & mask;
            if k == own_word {
                b & !own_bit
            } else {
                b
            }
        });
        self.row(SENT, src, false).zip(share).map(|(r, b)| r | b)
    }

    /// The messages delivered to `dst` this round, as a borrowed view.
    pub fn deliveries(&self, dst: ProcessId) -> Deliveries<'_, M> {
        Deliveries { msgs: self, dst }
    }

    /// What the copy `src → dst`, known to have arrived, carried: its
    /// forged payload if it was forged, `src`'s broadcast otherwise.
    fn arrived_payload(&self, src: ProcessId, dst: ProcessId) -> &Payload<M> {
        self.forged_payload_of(src, dst).unwrap_or_else(|| {
            self.payloads[src.index()]
                .as_ref()
                .expect("delivered bit without a recorded payload")
        })
    }
}

/// Whether a copy recorded with this outcome reached its receiver in
/// its send round (a forged one does too, through its own recorder).
#[inline]
fn arrives(outcome: DeliveryOutcome) -> bool {
    matches!(
        outcome,
        DeliveryOutcome::Delivered | DeliveryOutcome::Duplicated
    )
}

/// Makes `len` slots at the end of the exception list, each holding the
/// copy `first` as delivered, for a branch-free append to overwrite; returns
/// where they start. The list grows by doubling, as pushes would grow it:
/// its capacity stays a power of two.
#[inline]
fn open_slots(
    exc: &mut Vec<(ProcessId, ProcessId, DeliveryOutcome)>,
    len: usize,
    (src, dst): (ProcessId, ProcessId),
) -> usize {
    let start = exc.len();
    let need = start + len;
    if need > exc.capacity() {
        let grown = need.next_power_of_two().max(2 * exc.capacity());
        exc.reserve_exact(grown - start);
    }
    exc.resize(need, (src, dst, DeliveryOutcome::Delivered));
    start
}

// The recorder's refusals, kept out of line so that the per-copy path
// stays small enough to inline.
#[cold]
#[inline(never)]
fn refuse_inner_copy(p: ProcessId, q: ProcessId) -> ! {
    panic!("{p} and {q} are both receivers of the clean block")
}

/// Refuses a self-copy or a forged one in [`RoundHistory::record_copies`].
#[inline]
fn refuse_unless_plain(src: ProcessId, dst: ProcessId, outcome: DeliveryOutcome) {
    if (dst == src) | (outcome == DeliveryOutcome::Forged) {
        refuse_odd_copy(src, dst);
    }
}

#[cold]
#[inline(never)]
fn refuse_odd_copy(src: ProcessId, dst: ProcessId) -> ! {
    panic!("{src} → {dst} is a self-copy or a forged copy: not a row's copy")
}

/// One row's words, in order: the owner's row in the table, the block's
/// share ORed in iff `mask` is all ones, and — for a receiver of the
/// block, which owns no rows — the bits the special processes'
/// columns hold for it.
#[derive(Clone, Debug)]
struct RowWords<'a> {
    own: &'a [u64],
    block: &'a [u64],
    mask: u64,
    /// The next word.
    k: usize,
    columns: Columns<'a>,
}

impl RowWords<'_> {
    /// The number of set bits.
    fn ones(self) -> usize {
        self.map(|w| w.count_ones() as usize).sum()
    }
}

impl Iterator for RowWords<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        let k = self.k;
        let own = *self.own.get(k)?;
        self.k += 1;
        let word = own | (self.block[k] & self.mask);
        if self.columns.specials.is_empty() {
            return Some(word);
        }
        Some(word | self.columns.below((k + 1) * WORD_BITS))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.own.len() - self.k;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowWords<'_> {}

/// A block receiver's bits in the special processes' columns of `kind`,
/// read in process order: one lookup per special process.
#[derive(Clone, Copy, Debug)]
struct Columns<'a> {
    rows: &'a RowTable,
    kind: usize,
    bit: usize,
    /// The special processes not read yet, ascending.
    specials: &'a [ProcessId],
}

impl Columns<'_> {
    /// The next special process whose column holds the bit.
    fn next_set(&mut self) -> Option<usize> {
        while let Some((&q, rest)) = self.specials.split_first() {
            self.specials = rest;
            if self.rows.get(self.kind, q, self.bit) {
                return Some(q.index());
            }
        }
        None
    }

    /// The column bits of the special processes below `end`, as one
    /// word: every earlier word was read before. Out of line, so that
    /// the word loop of a row its owner holds stays small.
    #[inline(never)]
    fn below(&mut self, end: usize) -> u64 {
        let mut word = 0;
        while let Some((&q, rest)) = self.specials.split_first() {
            if q.index() >= end {
                break;
            }
            if self.rows.get(self.kind, q, self.bit) {
                word |= 1 << (q.index() % WORD_BITS);
            }
            self.specials = rest;
        }
        word
    }
}

/// The set bits of one row, ascending ([`RowWords`]). Whether the row
/// takes the block's share is settled once, when the row is opened;
/// every word then costs the same. A block receiver's row read without
/// the block's share is its column bits alone: one lookup per special
/// process, and no word at all.
#[derive(Clone, Debug)]
enum RowBits<'a> {
    Words {
        words: RowWords<'a>,
        /// The index of `current`'s word.
        k: usize,
        current: u64,
    },
    Columns(Columns<'a>),
}

impl Iterator for RowBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            RowBits::Columns(columns) => columns.next_set(),
            RowBits::Words { words, k, current } => {
                while *current == 0 {
                    *k = words.k;
                    *current = words.next()?;
                }
                let bit = current.trailing_zeros() as usize;
                *current &= *current - 1;
                Some(*k * WORD_BITS + bit)
            }
        }
    }
}

/// One emitted copy of a broadcast, viewed out of a [`RoundMsgs`].
#[derive(Clone, Copy, Debug)]
pub struct SentCopy<'a, M> {
    /// The destination process.
    pub dst: ProcessId,
    /// The payload carried, shared with the broadcast's other copies.
    pub payload: &'a Payload<M>,
    /// What happened to this copy.
    pub outcome: DeliveryOutcome,
}

/// Iterator over the copies one sender emitted, ascending by destination.
#[derive(Clone, Debug)]
pub struct SentIter<'a, M> {
    payload: Option<&'a Payload<M>>,
    bits: RowBits<'a>,
    /// The sender's own index when the block's share names it.
    skip: usize,
    exceptions: &'a [(ProcessId, ProcessId, DeliveryOutcome)],
    next_exc: usize,
    forged: &'a [(ProcessId, ProcessId, Payload<M>)],
    next_forged: usize,
}

impl<'a, M> Iterator for SentIter<'a, M> {
    type Item = SentCopy<'a, M>;

    fn next(&mut self) -> Option<SentCopy<'a, M>> {
        let mut dst = self.bits.next()?;
        if dst == self.skip {
            dst = self.bits.next()?;
        }
        let dst = ProcessId(dst);
        let mut outcome = DeliveryOutcome::Delivered;
        if let Some(&(_, d, o)) = self.exceptions.get(self.next_exc) {
            if d == dst {
                outcome = o;
                self.next_exc += 1;
            }
        }
        let payload = if outcome == DeliveryOutcome::Forged {
            let (_, d, payload) = &self.forged[self.next_forged];
            debug_assert_eq!(*d, dst, "forged list out of step with exceptions");
            self.next_forged += 1;
            payload
        } else {
            self.payload
                .expect("sent copies recorded without a broadcast payload")
        };
        Some(SentCopy {
            dst,
            payload,
            outcome,
        })
    }
}

/// The messages one process received in one round — a borrowed, `Copy`
/// view into a [`RoundMsgs`], cheap enough to hand to the protocol inbox
/// path without cloning envelopes.
#[derive(Debug)]
pub struct Deliveries<'a, M> {
    msgs: &'a RoundMsgs<M>,
    dst: ProcessId,
}

impl<M> Clone for Deliveries<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Deliveries<'_, M> {}

impl<'a, M> Deliveries<'a, M> {
    /// The payload delivered from `src`, if one arrived.
    pub fn get(&self, src: ProcessId) -> Option<&'a Payload<M>> {
        self.msgs
            .was_delivered(self.dst, src)
            .then(|| self.msgs.arrived_payload(src, self.dst))
    }

    /// Iterates `(sender, payload)` in ascending sender order.
    #[inline]
    pub fn iter(&self) -> DeliveredIter<'a, M> {
        self.row(self.in_block())
    }

    /// Whether the receiver belongs to the round's clean block: it heard
    /// every member of [`RoundMsgs::block_srcs`], and its other
    /// deliveries are exactly [`Self::off_block`].
    pub fn in_block(&self) -> bool {
        self.msgs.block_dsts.contains(self.dst)
    }

    /// Iterates the deliveries recorded copy by copy — those outside the
    /// clean block, which is all of them for a receiver outside it —
    /// ascending by sender. A forged copy carries its forged payload, as
    /// in [`Self::get`].
    #[inline]
    pub fn off_block(&self) -> DeliveredIter<'a, M> {
        self.row(false)
    }

    #[inline]
    fn row(&self, with_block: bool) -> DeliveredIter<'a, M> {
        DeliveredIter {
            msgs: self.msgs,
            dst: self.dst,
            bits: self.msgs.bits(HEARD, self.dst, with_block),
        }
    }

    /// The senders heard from, as the words of the delivered row: bit
    /// `s % 64` of word `s / 64` is set iff a copy from `s` arrived.
    pub fn heard_words(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.msgs.row(HEARD, self.dst, self.in_block())
    }

    /// The forged copies among the deliveries — `(sender, per-copy
    /// payload)` in ascending sender order. Each overrides its sender's
    /// broadcast for this receiver; empty in every non-Byzantine run.
    pub fn forged(&self) -> impl Iterator<Item = (ProcessId, &'a Payload<M>)> {
        let dst = self.dst;
        let forged = self.msgs.forged.iter().filter(move |(_, d, _)| *d == dst);
        forged.map(|(src, _, payload)| (*src, payload))
    }

    /// The copies sent in earlier rounds that arrive in this one —
    /// `(sender, payload)` in hold order, several from one sender
    /// possible. Not counted by the other readers, which see the round's
    /// fresh copies only.
    pub fn late(&self) -> impl Iterator<Item = (ProcessId, &'a Payload<M>)> + 'a {
        let late = &self.msgs.late;
        let lo = late.partition_point(|&(_, d, _)| d < self.dst);
        let hi = late[lo..].partition_point(|&(_, d, _)| d == self.dst) + lo;
        late[lo..hi].iter().map(|(src, _, payload)| (*src, payload))
    }

    /// Number of fresh messages delivered.
    pub fn len(&self) -> usize {
        self.msgs.delivered_count(self.dst)
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Iterator over one receiver's deliveries, ascending by sender.
#[derive(Clone, Debug)]
pub struct DeliveredIter<'a, M> {
    msgs: &'a RoundMsgs<M>,
    dst: ProcessId,
    bits: RowBits<'a>,
}

impl<'a, M> Iterator for DeliveredIter<'a, M> {
    type Item = (ProcessId, &'a Payload<M>);

    #[inline]
    fn next(&mut self) -> Option<(ProcessId, &'a Payload<M>)> {
        let src = ProcessId(self.bits.next()?);
        Some((src, self.msgs.arrived_payload(src, self.dst)))
    }
}

/// The global state-and-actions snapshot of a single round,
/// struct-of-arrays (see the module docs for the layout).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoundHistory<S, M> {
    states: Vec<Option<S>>,
    counters: Vec<Option<RoundCounter>>,
    crashed_here: ProcessSet,
    halted_at_start: ProcessSet,
    msgs: RoundMsgs<M>,
}

impl<S, M> RoundHistory<S, M> {
    /// A blank round over `n` processes: every state `None`, no traffic.
    /// The simulator fills it in via the `set_*`/`record_*` builders.
    pub fn empty(n: usize) -> Self {
        RoundHistory {
            states: std::iter::repeat_with(|| None).take(n).collect(),
            counters: vec![None; n],
            crashed_here: ProcessSet::empty(n),
            halted_at_start: ProcessSet::empty(n),
            msgs: RoundMsgs::empty(n),
        }
    }

    /// Clears the round back to blank, **reusing every allocation** — the
    /// simulator's per-round arena. If `n` differs from the current width
    /// the round is re-allocated at the new width.
    pub fn reset(&mut self, n: usize) {
        if self.n() != n {
            *self = Self::empty(n);
            return;
        }
        self.states.iter_mut().for_each(|s| *s = None);
        self.counters.iter_mut().for_each(|c| *c = None);
        self.crashed_here.clear();
        self.halted_at_start.clear();
        self.msgs.reset();
    }

    /// Sets the per-process snapshot fields for `p`.
    pub fn set_process(
        &mut self,
        p: ProcessId,
        state: Option<S>,
        counter: Option<RoundCounter>,
        crashed_here: bool,
        halted_at_start: bool,
    ) {
        self.states[p.index()] = state;
        self.counters[p.index()] = counter;
        if crashed_here {
            self.crashed_here.insert(p);
        }
        if halted_at_start {
            self.halted_at_start.insert(p);
        }
    }

    /// Records the payload `src` broadcast this round.
    pub fn set_broadcast(&mut self, src: ProcessId, payload: Payload<M>) {
        self.msgs.payloads[src.index()] = Some(payload);
    }

    /// Removes and returns the payload `src` broadcast this round — for a
    /// caller that keeps the frame to itself and refills the payload
    /// next round ([`Payload::set`]) instead of allocating a new one.
    pub fn take_broadcast(&mut self, src: ProcessId) -> Option<Payload<M>> {
        self.msgs.payloads[src.index()].take()
    }

    /// Records the fate of the emitted copy `src → dst`. Non-`Delivered`
    /// outcomes go to the sparse exception list; insertion is O(1) when
    /// copies arrive in ascending `(src, dst)` order (as the simulator
    /// emits them) and falls back to a sorted insert otherwise.
    ///
    /// # Panics
    ///
    /// Panics if both ends are receivers of the clean block
    /// ([`Self::open_clean_block`]): such a copy is the block's or none.
    #[inline]
    pub fn record_send(&mut self, src: ProcessId, dst: ProcessId, outcome: DeliveryOutcome) {
        let m = &mut self.msgs;
        m.set_bit(SENT, src, dst);
        if outcome != DeliveryOutcome::Delivered {
            let exc = &mut m.exceptions;
            match exc.last() {
                Some(&(s, d, _)) if (s, d) < (src, dst) => exc.push((src, dst, outcome)),
                None => exc.push((src, dst, outcome)),
                _ => {
                    let at = exc.partition_point(|&(s, d, _)| (s, d) < (src, dst));
                    exc.insert(at, (src, dst, outcome));
                }
            }
        }
    }

    /// Records that the copy `src → dst` actually reached `dst`.
    ///
    /// # Panics
    ///
    /// As [`Self::record_send`].
    #[inline]
    pub fn record_delivery(&mut self, dst: ProcessId, src: ProcessId) {
        self.msgs.set_bit(HEARD, dst, src);
    }

    /// Records the fates of `src`'s copies, `(dst, outcome)` ascending by
    /// destination: what [`Self::record_send`] of each, and
    /// [`Self::record_delivery`] of each `Delivered` or `Duplicated` one,
    /// would record. A special process's row is written a word at a
    /// time, a block receiver's copies as bits of the special processes'
    /// columns ([`Self::open_clean_block`]), and its
    /// exceptions are appended in `(src, dst)` order with no branch on
    /// the outcome when `src` comes after every sender recorded so far
    /// (as the kernel walks them).
    ///
    /// # Panics
    ///
    /// As [`Self::record_send`]; also on a self-copy or a forged one
    /// (record it with [`Self::record_forged`]), and on copies out of
    /// destination order.
    #[inline]
    pub fn record_copies(&mut self, src: ProcessId, copies: &[(ProcessId, DeliveryOutcome)]) {
        let ascending = copies.windows(2).fold(true, |up, w| up & (w[0].0 < w[1].0));
        assert!(ascending, "{src}'s copies out of destination order");
        let m = &mut self.msgs;
        if m.rowless(src) {
            m.commit_column_bits(src, copies);
        } else {
            m.commit_special_row(src, copies);
        }
        m.push_exceptions(src, copies);
    }

    /// Records a run of clean senders' copies to the special processes:
    /// `srcs`, ascending receivers of the clean block
    /// ([`Self::open_clean_block`]), each sent a copy to every special
    /// process, and `copies` holds their rows in sender order, each row
    /// `(dst, outcome)` over the special processes, ascending — what
    /// [`Self::record_copies`] of each row would record. Each special
    /// process's sent column and heard row take the run's bits a word of
    /// senders at a time, and the exceptions are appended as
    /// [`Self::record_copies`] appends them.
    ///
    /// # Panics
    ///
    /// Panics if a sender owns rows, if the senders are out of order, if
    /// a row's destinations are not the special processes, or on a
    /// forged copy (record it with [`Self::record_forged`]).
    pub fn record_clean_run(
        &mut self,
        srcs: &[ProcessId],
        copies: &[(ProcessId, DeliveryOutcome)],
    ) {
        let m = &mut self.msgs;
        let w = m.specials.len();
        if w == 0 {
            assert!(
                copies.is_empty(),
                "a clean run's copies go to special processes"
            );
            return;
        }
        assert_eq!(
            copies.len(),
            srcs.len() * w,
            "a clean run has a row per sender over every special process"
        );
        if srcs.is_empty() || m.commit_column_run(srcs, copies) {
            return;
        }
        for (&src, row) in srcs.iter().zip(copies.chunks_exact(w)) {
            m.push_exceptions(src, row);
        }
    }

    /// Forgets every copy recorded as reaching `dst`, and nothing else —
    /// for a caller that keeps a frame to itself and records one
    /// receiver's row at a time over the same broadcasts (the stepper's
    /// one-process step).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is a receiver of the clean block, whose row is
    /// the block's.
    pub fn clear_deliveries(&mut self, dst: ProcessId) {
        let m = &mut self.msgs;
        assert!(!m.rowless(dst), "{dst} is a receiver of the clean block");
        m.rows.clear_row(HEARD, dst);
    }

    /// Names, before any copy is recorded, the receiving side of the
    /// round's clean block; [`Self::record_clean_block`] closes it. The
    /// frame then stores only the copies with an endpoint outside
    /// `dsts`: a member of `dsts` owns no rows, and the processes outside
    /// it keep the columns of its copies with them. A frame that is never
    /// opened has an empty block: every process owns its rows.
    ///
    /// # Panics
    ///
    /// Panics if `dsts` ranges over a different universe, on a second
    /// block, or if a copy was recorded already.
    pub fn open_clean_block(&mut self, dsts: &ProcessSet) {
        assert_eq!(dsts.universe(), self.n(), "universe mismatch");
        let m = &mut self.msgs;
        // An opened frame has a block receiver or a special process.
        let opened = !(m.block_dsts.is_empty() && m.specials.is_empty());
        assert!(!opened && !m.recorded, "a second clean block");
        assert!(
            m.rows.is_clear(),
            "a clean block opens before any copy is recorded"
        );
        // Rows stay with owners that are still special, so a steady
        // round hands none out; a block receiver must own none.
        let mut owners = m.rows.handed.iter().map(|&(p, _)| ProcessId(p as usize));
        if owners.any(|p| dsts.contains(p)) {
            m.rows.release();
        }
        m.block_dsts.clone_from(dsts);
        for (k, &word) in dsts.words().iter().enumerate() {
            let mut outside = !word;
            while outside != 0 {
                let p = k * WORD_BITS + outside.trailing_zeros() as usize;
                if p >= m.n {
                    break;
                }
                m.specials.push(ProcessId(p));
                outside &= outside - 1;
            }
        }
    }

    /// Records the round's clean block in O(n/64): every member of `srcs`
    /// emitted a copy to every *other* receiver the block opened with
    /// ([`Self::open_clean_block`]), none of them met an exception, and
    /// every receiver heard every member of `srcs`, itself included —
    /// what one [`Self::record_send`] with [`DeliveryOutcome::Delivered`]
    /// and one [`Self::record_delivery`] per such copy would record. At
    /// most one block per round; a copy inside it cannot be recorded one
    /// by one, before or after, since neither end owns rows.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` ranges over a different universe, if it is not a
    /// subset of the block's receivers, or on a second block.
    pub fn record_clean_block(&mut self, srcs: &ProcessSet) {
        assert_eq!(srcs.universe(), self.n(), "universe mismatch");
        let m = &mut self.msgs;
        assert!(
            srcs.is_subset(&m.block_dsts),
            "a clean block's senders must hear it"
        );
        assert!(!m.recorded, "a second clean block");
        m.recorded = true;
        m.block_srcs.clone_from(srcs);
    }

    /// Records a *forged* copy `src → dst`: the copy is delivered, but
    /// carries `payload` instead of `src`'s broadcast. The deviation is
    /// attributed to the sender as [`FaultKind::Forgery`]. Insertion into
    /// the forged list is O(1) when copies arrive in ascending
    /// `(src, dst)` order (as the simulator emits them).
    pub fn record_forged(&mut self, src: ProcessId, dst: ProcessId, payload: Payload<M>) {
        self.record_send(src, dst, DeliveryOutcome::Forged);
        self.record_delivery(dst, src);
        let fg = &mut self.msgs.forged;
        match fg.last() {
            Some(&(s, d, _)) if (s, d) < (src, dst) => fg.push((src, dst, payload)),
            None => fg.push((src, dst, payload)),
            _ => {
                let at = fg.partition_point(|&(s, d, _)| (s, d) < (src, dst));
                fg.insert(at, (src, dst, payload));
            }
        }
    }

    /// Records a copy `src` sent in an earlier round that arrives at
    /// `dst` in this one — late ([`DeliveryOutcome::Delayed`]) or echoed
    /// ([`DeliveryOutcome::Duplicated`]) by a timing fault, its fate
    /// recorded in its send round; `payload` is the sender's broadcast of
    /// that round. A receiver's copies must come in hold order; insertion
    /// is O(1) when receivers come ascending (as the kernel records them).
    pub fn record_late(&mut self, src: ProcessId, dst: ProcessId, payload: Payload<M>) {
        debug_assert!(src.index() < self.n() && dst.index() < self.n());
        let late = &mut self.msgs.late;
        let at = match late.last() {
            Some(&(_, d, _)) if d > dst => late.partition_point(|&(_, d, _)| d <= dst),
            _ => late.len(),
        };
        late.insert(at, (src, dst, payload));
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// A borrowed view of what process `p` did this round.
    pub fn record(&self, p: ProcessId) -> RoundRecordView<'_, S, M> {
        debug_assert!(p.index() < self.n());
        RoundRecordView { rh: self, p }
    }

    /// Iterates every process's record view, in process order.
    pub fn records(&self) -> impl Iterator<Item = RoundRecordView<'_, S, M>> {
        (0..self.n()).map(|i| self.record(ProcessId(i)))
    }

    /// The round's message traffic.
    pub fn msgs(&self) -> &RoundMsgs<M> {
        &self.msgs
    }

    /// The deviations of process `p` in this round, allocation-free: its
    /// own crash / send omissions plus receive omissions, all read off the
    /// crash bitset and the sparse exception list.
    pub fn deviation_set(&self, p: ProcessId) -> DeviationSet {
        let mut out = DeviationSet::EMPTY;
        if self.crashed_here.contains(p) {
            out.insert(FaultKind::Crash);
        }
        for &(s, d, o) in &self.msgs.exceptions {
            if s == p && o == DeliveryOutcome::DroppedBySender {
                out.insert(FaultKind::SendOmission);
            }
            if s == p && o == DeliveryOutcome::Forged {
                out.insert(FaultKind::Forgery);
            }
            if d == p && o == DeliveryOutcome::DroppedByReceiver {
                out.insert(FaultKind::ReceiveOmission);
            }
        }
        out
    }

    /// The deviations of process `p` as a `Vec`, in crash / send-omission /
    /// receive-omission order. Convenience wrapper over
    /// [`Self::deviation_set`] for reporting code; hot paths should use the
    /// set directly.
    pub fn deviations_of(&self, p: ProcessId) -> Vec<FaultKind> {
        self.deviation_set(p).iter().collect()
    }

    /// The deviation sets of *all* processes in one pass over the crash
    /// bitset and exception list. `out` is cleared and resized; reusing one
    /// buffer across rounds keeps the checker hot loop allocation-free.
    pub fn deviation_sets_into(&self, out: &mut Vec<DeviationSet>) {
        out.clear();
        out.resize(self.n(), DeviationSet::EMPTY);
        for p in self.crashed_here.iter() {
            out[p.index()].insert(FaultKind::Crash);
        }
        for &(s, d, o) in &self.msgs.exceptions {
            match o {
                DeliveryOutcome::DroppedBySender => out[s.index()].insert(FaultKind::SendOmission),
                DeliveryOutcome::Forged => out[s.index()].insert(FaultKind::Forgery),
                DeliveryOutcome::DroppedByReceiver => {
                    out[d.index()].insert(FaultKind::ReceiveOmission)
                }
                _ => {}
            }
        }
    }

    /// Inserts every process that deviated this round into `f` — the
    /// one-round step of the faulty-set fold, used both by
    /// [`History::faulty_upto`] and by the eviction path of a windowed
    /// history.
    pub fn collect_faulty_into(&self, f: &mut ProcessSet) {
        for p in self.crashed_here.iter() {
            f.insert(p);
        }
        for &(s, d, o) in &self.msgs.exceptions {
            match o {
                DeliveryOutcome::DroppedBySender | DeliveryOutcome::Forged => {
                    f.insert(s);
                }
                DeliveryOutcome::DroppedByReceiver => {
                    f.insert(d);
                }
                _ => {}
            }
        }
    }
}

/// A borrowed per-process view into one [`RoundHistory`] — the reading
/// counterpart of its `set_*`/`record_*` recorder.
#[derive(Debug)]
pub struct RoundRecordView<'a, S, M> {
    rh: &'a RoundHistory<S, M>,
    p: ProcessId,
}

impl<S, M> Clone for RoundRecordView<'_, S, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S, M> Copy for RoundRecordView<'_, S, M> {}

impl<'a, S, M> RoundRecordView<'a, S, M> {
    /// The process this view describes.
    pub fn process(&self) -> ProcessId {
        self.p
    }

    /// State at the start of the round; `None` once crashed.
    pub fn state_at_start(&self) -> Option<&'a S> {
        self.rh.states[self.p.index()].as_ref()
    }

    /// The round counter `c_p^r` at the start of the round, if any.
    pub fn counter_at_start(&self) -> Option<RoundCounter> {
        self.rh.counters[self.p.index()]
    }

    /// Whether the process crashed *during* this round.
    pub fn crashed_here(&self) -> bool {
        self.rh.crashed_here.contains(self.p)
    }

    /// Whether the process had voluntarily halted by the round start.
    pub fn halted_at_start(&self) -> bool {
        self.rh.halted_at_start.contains(self.p)
    }

    /// The payload this process broadcast, if it sent at all.
    pub fn broadcast_payload(&self) -> Option<&'a Payload<M>> {
        self.rh.msgs.broadcast_of(self.p)
    }

    /// Number of copies this process emitted.
    pub fn sent_len(&self) -> usize {
        self.rh.msgs.sent_count(self.p)
    }

    /// Number of messages delivered to this process.
    pub fn delivered_len(&self) -> usize {
        self.rh.msgs.delivered_count(self.p)
    }

    /// Iterates the emitted copies, ascending by destination.
    pub fn sent(&self) -> SentIter<'a, M> {
        self.rh.msgs.sent_iter(self.p)
    }

    /// The messages delivered to this process.
    pub fn delivered(&self) -> Deliveries<'a, M> {
        self.rh.msgs.deliveries(self.p)
    }

    /// The payload delivered from `src`, if one arrived.
    pub fn delivered_from(&self, src: ProcessId) -> Option<&'a Payload<M>> {
        self.rh.msgs.deliveries(self.p).get(src)
    }
}

/// An execution history `H`: a sequence of round histories over a fixed set
/// of `n` processes.
///
/// Round `r` of the paper corresponds to retained index `r - 1 - evicted()`;
/// a full-retention history ([`History::new`]) keeps every round, a windowed
/// one ([`History::with_window`]) keeps the most recent `window` rounds and
/// folds evicted rounds' deviations into a running faulty set.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct History<S, M> {
    n: usize,
    rounds: Vec<RoundHistory<S, M>>,
    evicted: usize,
    evicted_faulty: ProcessSet,
    window: Option<usize>,
}

impl<S, M> History<S, M> {
    /// An empty, full-retention history over `n` processes.
    pub fn new(n: usize) -> Self {
        History {
            n,
            rounds: Vec::new(),
            evicted: 0,
            evicted_faulty: ProcessSet::empty(n),
            window: None,
        }
    }

    /// An empty history that retains only the most recent `window` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`; a history must retain at least one round.
    pub fn with_window(n: usize, window: usize) -> Self {
        assert!(window >= 1, "history window must retain at least one round");
        History {
            window: Some(window),
            ..Self::new(n)
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded rounds, `|H|` — *including* evicted ones.
    pub fn len(&self) -> usize {
        self.evicted + self.rounds.len()
    }

    /// Whether no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rounds evicted from the front (0 for full retention).
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// The retention window, if any.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Whether every recorded round is still retained.
    pub fn is_complete(&self) -> bool {
        self.evicted == 0
    }

    /// Appends a round history. If the window overflows, the oldest
    /// retained round is evicted — its deviations are folded into the
    /// running faulty set and the frame is returned so the caller can
    /// [`RoundHistory::reset`] and reuse its allocations.
    ///
    /// # Panics
    ///
    /// Panics if the round's process count differs from `n`.
    pub fn push(&mut self, rh: RoundHistory<S, M>) -> Option<RoundHistory<S, M>> {
        assert_eq!(rh.n(), self.n, "round history has wrong process count");
        self.rounds.push(rh);
        if let Some(w) = self.window {
            if self.rounds.len() > w {
                let old = self.rounds.remove(0);
                old.collect_faulty_into(&mut self.evicted_faulty);
                self.evicted += 1;
                return Some(old);
            }
        }
        None
    }

    /// The round history of observer round `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the recorded length or has been evicted from
    /// the retention window.
    pub fn round(&self, r: Round) -> &RoundHistory<S, M> {
        assert!(
            r.index() >= self.evicted,
            "{r} was evicted from the retention window"
        );
        &self.rounds[r.index() - self.evicted]
    }

    /// The retained rounds in order; index `i` is observer round
    /// `evicted() + i + 1`.
    pub fn rounds(&self) -> &[RoundHistory<S, M>] {
        &self.rounds
    }

    /// The faulty set `F(H', Π)` of the prefix consisting of the first
    /// `upto` rounds: every process that deviated in some round `<= upto`.
    ///
    /// Starts from the fold of evicted rounds and scans the retained ones —
    /// one pass per round over the crash bitset and exception list with a
    /// single reused scratch buffer.
    ///
    /// # Panics
    ///
    /// Panics if `upto < evicted()` — a windowed history cannot answer for
    /// a prefix shorter than what it has already folded away.
    pub fn faulty_upto(&self, upto: usize) -> ProcessSet {
        assert!(
            upto >= self.evicted,
            "faulty_upto({upto}) asks about a prefix inside the evicted region ({} rounds evicted)",
            self.evicted
        );
        let mut f = self.evicted_faulty.clone();
        let end = (upto - self.evicted).min(self.rounds.len());
        for rh in &self.rounds[..end] {
            rh.collect_faulty_into(&mut f);
        }
        f
    }

    /// The faulty set of the whole recorded history.
    pub fn faulty(&self) -> ProcessSet {
        self.faulty_upto(self.len())
    }

    /// The correct set `C(H, Π)` of the whole recorded history.
    pub fn correct(&self) -> ProcessSet {
        self.faulty().complement()
    }

    /// A borrowed view of rounds `[start, end)` (0-based indices into the
    /// full history, i.e. observer rounds `start+1 ..= end`).
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > len()`, or if `start` falls before
    /// the retained window of a windowed history.
    pub fn slice(&self, start: usize, end: usize) -> HistorySlice<'_, S, M> {
        assert!(start <= end && end <= self.len(), "bad slice bounds");
        assert!(
            start >= self.evicted,
            "slice begins before the retained window ({} rounds evicted)",
            self.evicted
        );
        HistorySlice {
            history: self,
            start,
            end,
        }
    }

    /// A view of the entire retained history.
    pub fn as_slice(&self) -> HistorySlice<'_, S, M> {
        self.slice(self.evicted, self.len())
    }

    /// A view of the `r`-suffix: everything after the first `r` rounds.
    ///
    /// # Panics
    ///
    /// Panics (via [`Self::slice`]) if the suffix would begin before the
    /// retained window.
    pub fn suffix(&self, r: usize) -> HistorySlice<'_, S, M> {
        self.slice(r.min(self.len()), self.len())
    }
}

/// A contiguous view into a [`History`] — the paper constantly reasons
/// about prefixes, suffixes and mid-sections (`H = H₁·H₂·H₃·H₄`), so
/// problem predicates take slices. `start`/`end` are indices into the
/// *full* history; the view maps them into the retained window.
#[derive(Debug)]
pub struct HistorySlice<'a, S, M> {
    history: &'a History<S, M>,
    start: usize,
    end: usize,
}

// Manual impls: `derive(Clone, Copy)` would bound S/M unnecessarily.
impl<S, M> Clone for HistorySlice<'_, S, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S, M> Copy for HistorySlice<'_, S, M> {}

impl<'a, S, M> HistorySlice<'a, S, M> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.history.n
    }

    /// Number of rounds in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// 0-based index (into the full history) of the first round in view.
    pub fn start(&self) -> usize {
        self.start
    }

    /// 0-based index one past the last round in view.
    pub fn end(&self) -> usize {
        self.end
    }

    /// Iterates the round histories in view, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &'a RoundHistory<S, M>> {
        let ev = self.history.evicted;
        self.history.rounds[self.start - ev..self.end - ev].iter()
    }

    /// The `i`-th round history within the view (0-based).
    pub fn round(&self, i: usize) -> &'a RoundHistory<S, M> {
        &self.history.rounds[self.start - self.history.evicted + i]
    }
}

impl<S: fmt::Debug, M: fmt::Debug> fmt::Display for History<S, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "history: n={}, {} rounds", self.n, self.len())?;
        if self.evicted > 0 {
            writeln!(f, "  ({} rounds evicted from the window)", self.evicted)?;
        }
        for (i, rh) in self.rounds.iter().enumerate() {
            writeln!(f, "  round {}:", self.evicted + i + 1)?;
            for rec in rh.records() {
                writeln!(
                    f,
                    "    p{}: c={:?} sent={} recv={}{}",
                    rec.process().index(),
                    rec.counter_at_start().map(|c| c.get()),
                    rec.sent_len(),
                    rec.delivered_len(),
                    if rec.crashed_here() { " CRASHED" } else { "" },
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_rng::check::{forall, Gen};
    use ftss_rng::Rng;
    use DeliveryOutcome::{Delivered, DroppedByReceiver, DroppedBySender, Forged, ReceiverCrashed};

    type H = History<u32, &'static str>;
    type RH = RoundHistory<u32, &'static str>;

    /// A round over `sends.len()` processes, each at state 0 and counter
    /// 1; `sends[p]` lists the copies of `p`'s broadcast `"m"` as
    /// `(dst, outcome)`, and the processes in `crashed` crash here.
    fn round(sends: &[&[(usize, DeliveryOutcome)]], crashed: &[usize]) -> RH {
        let mut rh = RH::empty(sends.len());
        for (i, copies) in sends.iter().enumerate() {
            let p = ProcessId(i);
            let counter = Some(RoundCounter::new(1));
            rh.set_process(p, Some(0), counter, crashed.contains(&i), false);
            if !copies.is_empty() {
                rh.set_broadcast(p, Payload::new("m"));
            }
            for &(dst, outcome) in *copies {
                rh.record_send(p, ProcessId(dst), outcome);
            }
        }
        rh
    }

    #[test]
    fn empty_history() {
        let h = H::new(3);
        assert_eq!(h.len(), 0);
        assert!(h.is_empty());
        assert!(h.is_complete());
        assert_eq!(h.faulty(), ProcessSet::empty(3));
        assert_eq!(h.correct(), ProcessSet::full(3));
    }

    #[test]
    fn send_omission_marks_sender_faulty() {
        let mut h = H::new(2);
        h.push(round(&[&[(1, DroppedBySender)], &[(0, Delivered)]], &[]));
        let f = h.faulty();
        assert!(f.contains(ProcessId(0)));
        assert!(!f.contains(ProcessId(1)));
        assert_eq!(
            h.round(Round::FIRST).deviations_of(ProcessId(0)),
            vec![FaultKind::SendOmission]
        );
    }

    #[test]
    fn receive_omission_marks_receiver_faulty() {
        let mut h = H::new(2);
        h.push(round(&[&[(1, DroppedByReceiver)], &[(0, Delivered)]], &[]));
        let f = h.faulty();
        assert!(!f.contains(ProcessId(0)), "sender is innocent");
        assert!(f.contains(ProcessId(1)), "receiver deviated");
    }

    #[test]
    fn crash_attribution_and_receiver_crashed_is_innocent() {
        let mut h = H::new(2);
        // Round 1: p1 crashes. p0's copy to p1 vanishes without deviation by p0.
        h.push(round(&[&[(1, ReceiverCrashed)], &[]], &[1]));
        let f = h.faulty();
        assert!(!f.contains(ProcessId(0)));
        assert!(f.contains(ProcessId(1)));
    }

    #[test]
    fn forged_copy_arrives_with_forged_payload_and_marks_sender() {
        let mut h = H::new(3);
        let mut rh = round(&[&[(2, Delivered)], &[(0, Delivered)], &[]], &[]);
        rh.record_forged(ProcessId(0), ProcessId(1), Payload::new("forged"));
        h.push(rh);
        let rh = h.round(Round::FIRST);
        // Attribution: the forging sender is faulty, the receiver innocent.
        assert!(h.faulty().contains(ProcessId(0)));
        assert!(!h.faulty().contains(ProcessId(1)));
        assert_eq!(rh.deviations_of(ProcessId(0)), vec![FaultKind::Forgery]);
        // The copy arrives — delivered bit set, outcome recorded as Forged.
        assert_eq!(
            rh.msgs().outcome_of(ProcessId(0), ProcessId(1)),
            Some(Forged)
        );
        // The receiver of the forged copy sees the forged payload, while
        // the shared broadcast slot keeps the genuine one.
        let to_p1 = rh.msgs().deliveries(ProcessId(1));
        assert_eq!(to_p1.get(ProcessId(0)).map(|p| **p), Some("forged"));
        assert_eq!(rh.msgs().broadcast_of(ProcessId(0)).map(|p| **p), Some("m"));
        // The iterator view agrees with the point query.
        let seen: Vec<_> = to_p1.iter().map(|(p, m)| (p.index(), **m)).collect();
        assert_eq!(seen, vec![(0, "forged")]);
        // So do the raw row and the receiver's forged entries (what the
        // serve router puts on the wire); nobody else's row has any.
        assert!(to_p1.heard_words().eq([0b001]));
        let forged: Vec<_> = to_p1.forged().map(|(p, m)| (p.index(), **m)).collect();
        assert_eq!(forged, vec![(0, "forged")]);
        assert_eq!(rh.msgs().deliveries(ProcessId(2)).forged().count(), 0);
        // Round-tripping through records preserves both payloads.
        let sent: Vec<_> = rh.record(ProcessId(0)).sent().collect();
        assert_eq!(*sent[0].payload, "forged");
        assert_eq!(sent[0].outcome, Forged);
        assert_eq!(*sent[1].payload, "m");
        // The bulk faulty-set query agrees.
        let mut all = Vec::new();
        rh.deviation_sets_into(&mut all);
        assert!(all[0].contains(FaultKind::Forgery));
    }

    #[test]
    fn faulty_upto_is_prefix_monotone() {
        let mut h = H::new(2);
        h.push(round(&[&[(1, Delivered)], &[(0, Delivered)]], &[]));
        h.push(round(&[&[(1, DroppedBySender)], &[(0, Delivered)]], &[]));
        assert!(h.faulty_upto(1).is_empty());
        assert!(h.faulty_upto(2).contains(ProcessId(0)));
        assert!(h.faulty_upto(1).is_subset(&h.faulty_upto(2)));
    }

    #[test]
    fn deviation_set_agrees_with_vec_and_is_packed() {
        let mut h = H::new(3);
        let p0 = [(1, DroppedBySender), (2, DroppedByReceiver)];
        h.push(round(&[&p0, &[(0, Delivered)], &[]], &[0]));
        let rh = h.round(Round::FIRST);
        let set = rh.deviation_set(ProcessId(0));
        assert_eq!(set.len(), 2);
        assert!(set.contains(FaultKind::Crash));
        assert!(set.contains(FaultKind::SendOmission));
        assert!(!set.contains(FaultKind::ReceiveOmission));
        assert_eq!(
            rh.deviations_of(ProcessId(0)),
            set.iter().collect::<Vec<_>>()
        );
        // p2 suffered a receive omission (p0's second copy targeted it).
        let p2 = rh.deviation_set(ProcessId(2));
        assert_eq!(
            p2.iter().collect::<Vec<_>>(),
            vec![FaultKind::ReceiveOmission]
        );
        assert_eq!(format!("{p2:?}"), "{ReceiveOmission}");
        // The one-pass bulk query matches the per-process queries.
        let mut all = Vec::new();
        rh.deviation_sets_into(&mut all);
        assert_eq!(all, vec![set, DeviationSet::EMPTY, p2]);
        // Round-tripping through FromIterator preserves the set.
        assert_eq!(set.iter().collect::<DeviationSet>(), set);
        assert!(DeviationSet::EMPTY.is_empty());
    }

    #[test]
    fn round_msgs_views_report_traffic() {
        let mut rh = RH::empty(3);
        let payload = Payload::new("m");
        rh.set_process(ProcessId(0), Some(7), None, false, false);
        rh.set_broadcast(ProcessId(0), payload.clone());
        rh.record_send(ProcessId(0), ProcessId(1), DeliveryOutcome::Delivered);
        rh.record_send(ProcessId(0), ProcessId(2), DeliveryOutcome::DroppedBySender);
        rh.record_delivery(ProcessId(0), ProcessId(0));
        rh.record_delivery(ProcessId(1), ProcessId(0));

        let m = rh.msgs();
        assert_eq!(m.n(), 3);
        assert!(m.broadcast_of(ProcessId(0)).unwrap().shares_with(&payload));
        assert!(m.broadcast_of(ProcessId(1)).is_none());
        assert_eq!(
            m.outcome_of(ProcessId(0), ProcessId(1)),
            Some(DeliveryOutcome::Delivered)
        );
        assert_eq!(
            m.outcome_of(ProcessId(0), ProcessId(2)),
            Some(DeliveryOutcome::DroppedBySender)
        );
        assert_eq!(m.outcome_of(ProcessId(1), ProcessId(0)), None);
        assert_eq!(m.sent_count(ProcessId(0)), 2);
        assert_eq!(m.delivered_count(ProcessId(1)), 1);
        assert!(m.was_delivered(ProcessId(1), ProcessId(0)));
        assert!(!m.was_delivered(ProcessId(2), ProcessId(0)));

        let sent: Vec<_> = m
            .sent_iter(ProcessId(0))
            .map(|c| (c.dst.index(), c.outcome))
            .collect();
        assert_eq!(
            sent,
            vec![
                (1, DeliveryOutcome::Delivered),
                (2, DeliveryOutcome::DroppedBySender),
            ]
        );

        let inbox = m.deliveries(ProcessId(1));
        assert_eq!(inbox.len(), 1);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.get(ProcessId(0)), Some(&payload));
        assert_eq!(inbox.get(ProcessId(2)), None);
        let pairs: Vec<_> = inbox.iter().map(|(p, m)| (p.index(), **m)).collect();
        assert_eq!(pairs, vec![(0, "m")]);

        let rec = rh.record(ProcessId(0));
        assert_eq!(rec.state_at_start(), Some(&7));
        assert_eq!(rec.sent_len(), 2);
        assert_eq!(rec.delivered_len(), 1);
        assert_eq!(rec.delivered_from(ProcessId(0)), Some(&payload));
        assert!(rec.broadcast_payload().is_some());
    }

    #[test]
    fn reset_reuses_a_frame() {
        let mut rh = RH::empty(2);
        rh.set_process(ProcessId(0), Some(1), None, true, true);
        rh.set_broadcast(ProcessId(0), Payload::new("m"));
        let p1 = ProcessSet::from_iter_n(2, [ProcessId(1)]);
        rh.open_clean_block(&p1);
        rh.record_send(ProcessId(0), ProcessId(1), DeliveryOutcome::DroppedBySender);
        rh.record_delivery(ProcessId(1), ProcessId(0));
        rh.record_clean_block(&p1);
        rh.reset(2);
        assert_eq!(rh, RH::empty(2));
        // Width change re-allocates.
        rh.reset(3);
        assert_eq!(rh, RH::empty(3));
    }

    /// Clearing a receiver's deliveries empties its row alone: the
    /// broadcasts, the sent rows and every other receiver stay as they
    /// were, and the row records afresh.
    #[test]
    fn clear_deliveries_forgets_one_receiver() {
        let mut rh = round(&[&[(1, Delivered)], &[(0, Delivered)], &[]], &[]);
        for (dst, src) in [(1, 0), (0, 1), (1, 1), (2, 2)] {
            rh.record_delivery(ProcessId(dst), ProcessId(src));
        }
        let before = rh.clone();
        rh.clear_deliveries(ProcessId(1));
        assert!(rh.msgs().deliveries(ProcessId(1)).is_empty());
        assert_eq!(rh.msgs().delivered_count(ProcessId(0)), 1);
        assert_eq!(rh.msgs().delivered_count(ProcessId(2)), 1);
        assert_eq!(rh.msgs().sent_count(ProcessId(0)), 1);
        assert!(rh.msgs().broadcast_of(ProcessId(0)).is_some());
        // A receiver that owns no row yet clears to what it was.
        let mut fresh = RH::empty(3);
        fresh.clear_deliveries(ProcessId(2));
        assert_eq!(fresh, RH::empty(3));
        for src in [0, 1] {
            rh.record_delivery(ProcessId(1), ProcessId(src));
        }
        assert_eq!(rh, before);
    }

    #[test]
    #[should_panic(expected = "p0 is a receiver of the clean block")]
    fn clear_deliveries_refuses_a_block() {
        let mut rh = RH::empty(2);
        let all = ProcessSet::from_iter_n(2, [ProcessId(0), ProcessId(1)]);
        rh.open_clean_block(&all);
        rh.clear_deliveries(ProcessId(0));
    }

    /// Late arrivals are their receiver's `late()`, in hold order, and
    /// nothing else: the fresh readers do not count them, equality does,
    /// and a reset forgets them.
    #[test]
    fn late_arrivals_are_read_by_late_alone() {
        let (p0, p1, p2) = (ProcessId(0), ProcessId(1), ProcessId(2));
        let mut rh = RH::empty(3);
        rh.set_broadcast(p0, Payload::new("now"));
        rh.record_delivery(p1, p0);
        let fresh = rh.clone();
        rh.record_late(p2, p1, Payload::new("b"));
        rh.record_late(p0, p2, Payload::new("x"));
        rh.record_late(p0, p1, Payload::new("a"));
        let to_p1 = rh.msgs().deliveries(p1);
        let late: Vec<_> = to_p1.late().map(|(p, m)| (p.index(), **m)).collect();
        assert_eq!(late, vec![(2, "b"), (0, "a")]);
        assert_eq!(rh.msgs().deliveries(p0).late().count(), 0);
        assert_eq!(to_p1.len(), 1);
        assert_eq!(to_p1.iter().count(), 1);
        assert_eq!(to_p1.get(p2), None);
        assert!(!rh.msgs().was_delivered(p1, p2));
        assert_ne!(rh, fresh);
        rh.reset(3);
        assert_eq!(rh, RH::empty(3));
    }

    /// One generated round: who is special (outside the block), who
    /// broadcasts, and every emitted copy's fate. Ordinary broadcasters
    /// are the block's senders; a copy with a special end may meet an
    /// exception or be forged, and a special sender's copy may be cut.
    struct Generated {
        n: usize,
        srcs: ProcessSet,
        dsts: ProcessSet,
        copies: Vec<(ProcessId, ProcessId, DeliveryOutcome)>,
    }

    impl Generated {
        fn new(g: &mut Gen, n: usize) -> Self {
            let special_p = [0.0, 0.05, 0.3, 1.0][g.gen_range(0..4usize)];
            let dsts = ProcessSet::from_iter_n(
                n,
                (0..n).map(ProcessId).filter(|_| !g.gen_bool(special_p)),
            );
            let silent =
                ProcessSet::from_iter_n(n, (0..n).map(ProcessId).filter(|_| g.gen_bool(0.1)));
            let srcs = dsts.difference(&silent);
            let mut copies = Vec::new();
            for src in (0..n).map(ProcessId).filter(|p| !silent.contains(*p)) {
                for dst in (0..n).map(ProcessId).filter(|&q| q != src) {
                    let outcome = if dsts.contains(src) && dsts.contains(dst) {
                        Delivered
                    } else {
                        [
                            Delivered,
                            DroppedBySender,
                            DroppedByReceiver,
                            ReceiverCrashed,
                            Forged,
                        ][g.gen_range(0..5usize)]
                    };
                    copies.push((src, dst, outcome));
                }
            }
            Generated {
                n,
                srcs,
                dsts,
                copies,
            }
        }

        /// The round recorded copy by copy, or with its block opened
        /// first, closed in one go, and only the copies outside it one by
        /// one.
        fn record(&self, with_block: bool) -> RH {
            let mut rh = RH::empty(self.n);
            if with_block {
                rh.open_clean_block(&self.dsts);
            }
            for p in (0..self.n).map(ProcessId) {
                rh.set_process(p, Some(p.index() as u32), None, false, false);
                let sends = self.srcs.contains(p) || self.copies.iter().any(|c| c.0 == p);
                if sends {
                    rh.set_broadcast(p, Payload::new("m"));
                    if !(with_block && self.srcs.contains(p)) {
                        rh.record_delivery(p, p);
                    }
                }
            }
            for &(src, dst, outcome) in &self.copies {
                if with_block && self.srcs.contains(src) && self.dsts.contains(dst) {
                    continue;
                }
                match outcome {
                    Forged => rh.record_forged(src, dst, Payload::new("forged")),
                    Delivered => {
                        rh.record_send(src, dst, outcome);
                        rh.record_delivery(dst, src);
                    }
                    _ => rh.record_send(src, dst, outcome),
                }
            }
            if with_block {
                rh.record_clean_block(&self.srcs);
            }
            rh
        }
    }

    /// The clean block is a representation, never a semantic: a round
    /// recorded with [`RoundHistory::record_clean_block`] equals the same
    /// round recorded copy by copy, and every reader answers alike — on
    /// both sides of every word boundary, with exceptions and forged
    /// copies in the special rows.
    #[test]
    fn clean_block_matches_a_copy_by_copy_record() {
        forall(36, |g: &mut Gen| {
            let n = [1, 2, 63, 64, 65, 127, 128, 129, 200][g.gen_range(0..9usize)];
            let round = Generated::new(g, n);
            let (block, copies) = (round.record(true), round.record(false));
            assert_eq!(block, copies, "n = {n}");
            assert_eq!(copies, block);
            let (b, c) = (block.msgs(), copies.msgs());
            for p in (0..n).map(ProcessId) {
                let sent = |m: &RoundMsgs<&'static str>| -> Vec<_> {
                    m.sent_iter(p)
                        .map(|s| (s.dst, **s.payload, s.outcome))
                        .collect()
                };
                assert_eq!(sent(b), sent(c), "{p}");
                assert_eq!(b.sent_count(p), c.sent_count(p));
                assert_eq!(b.sent_count(p), sent(b).len());
                assert_eq!(b.delivered_count(p), c.delivered_count(p));
                let (bd, cd) = (b.deliveries(p), c.deliveries(p));
                let heard = |d: Deliveries<'_, &'static str>| -> Vec<_> {
                    d.iter().map(|(q, m)| (q, **m)).collect()
                };
                assert_eq!(heard(bd), heard(cd), "{p}");
                assert_eq!((bd.len(), bd.is_empty()), (cd.len(), cd.is_empty()));
                assert!(bd.heard_words().eq(cd.heard_words()));
                assert!(bd.forged().eq(cd.forged()));
                assert_eq!(bd.in_block(), round.dsts.contains(p));
                // Off the block: everything heard but the block's senders.
                let off: Vec<_> = bd.off_block().map(|(q, m)| (q, **m)).collect();
                let outside = heard(cd)
                    .into_iter()
                    .filter(|(q, _)| !bd.in_block() || !round.srcs.contains(*q));
                assert_eq!(off, outside.collect::<Vec<_>>(), "{p}");
                for q in (0..n).map(ProcessId) {
                    assert_eq!(b.outcome_of(p, q), c.outcome_of(p, q), "{p} → {q}");
                    assert_eq!(b.was_delivered(p, q), c.was_delivered(p, q));
                    assert_eq!(bd.get(q), cd.get(q));
                }
            }
            let (mut bs, mut cs) = (Vec::new(), Vec::new());
            block.deviation_sets_into(&mut bs);
            copies.deviation_sets_into(&mut cs);
            assert_eq!(bs, cs);
            let (mut bf, mut cf) = (ProcessSet::empty(n), ProcessSet::empty(n));
            block.collect_faulty_into(&mut bf);
            copies.collect_faulty_into(&mut cf);
            assert_eq!(bf, cf);
            // Equality still tells rounds apart: one copy more on either
            // side of the block's edge is a different round.
            let lost = round.copies.iter().find(|c| c.2 == DroppedBySender);
            if let Some(&(src, dst, _)) = lost {
                let mut more = round.record(false);
                more.record_delivery(dst, src);
                assert_ne!(block, more);
                assert_ne!(more, block);
            }
        });
    }

    /// The word-wise row readers against the per-bit definition, on both
    /// sides of every word boundary: a block whose last sender sits past
    /// the last word boundary, a delivery and a forged copy from outside
    /// it, and a receiver outside it.
    #[test]
    fn row_readers_match_the_per_bit_definition() {
        for n in [2, 63, 64, 65, 130] {
            let srcs = ProcessSet::from_iter_n(n, (0..n).filter(|i| i % 3 != 1).map(ProcessId));
            let (dst, forger, outsider) = (ProcessId(0), ProcessId(1), ProcessId(n - 1));
            let dsts = srcs.difference(&ProcessSet::from_iter_n(n, [outsider]));
            let srcs = srcs.intersection(&dsts);
            let mut rh = RH::empty(n);
            rh.open_clean_block(&dsts);
            for src in (0..n).map(ProcessId) {
                rh.set_broadcast(src, Payload::new("m"));
            }
            rh.record_forged(forger, dst, Payload::new("forged"));
            rh.record_delivery(outsider, ProcessId(0));
            if n > 2 {
                rh.record_delivery(dst, outsider);
                rh.record_delivery(ProcessId(2), outsider);
            }
            rh.record_clean_block(&srcs);
            for p in [dst, outsider] {
                let row = rh.msgs().deliveries(p);
                assert_eq!(row.in_block(), p == dst);
                let words: Vec<u64> = row.heard_words().collect();
                assert_eq!(words.len(), n.div_ceil(64));
                for q in (0..n).map(ProcessId) {
                    let bit = words[q.index() / 64] >> (q.index() % 64) & 1 == 1;
                    assert_eq!(bit, row.get(q).is_some(), "n = {n}, {q} → {p}");
                }
                let off: Vec<_> = row.off_block().map(|(q, m)| (q, **m)).collect();
                let expected = row
                    .iter()
                    .filter(|(q, _)| !row.in_block() || !srcs.contains(*q));
                let expected: Vec<_> = expected.map(|(q, m)| (q, **m)).collect();
                assert_eq!(off, expected, "n = {n}, {p}");
            }
            let off: Vec<_> = rh
                .msgs()
                .deliveries(dst)
                .off_block()
                .map(|(q, m)| (q, **m))
                .collect();
            assert_eq!(off[0], (forger, "forged"));
            assert_eq!(off.len(), if n > 2 { 2 } else { 1 });
            // The frame-wide mask reader, bit by bit: a block receiver
            // names the special processes it heard by their rank; the
            // forger's receiver and every special process get none.
            let specials: Vec<_> = (0..n)
                .map(ProcessId)
                .filter(|&q| !dsts.contains(q))
                .collect();
            assert_eq!(rh.msgs().specials(), specials);
            let mut masks = Vec::new();
            rh.msgs().heard_specials_into(&mut masks);
            for p in (0..n).map(ProcessId) {
                let row = rh.msgs().deliveries(p);
                let heard_forged = row.forged().next().is_some();
                let want = (row.in_block() && !heard_forged).then(|| {
                    let bits = specials.iter().enumerate();
                    bits.fold(0u64, |m, (i, &q)| m | u64::from(row.get(q).is_some()) << i)
                });
                assert_eq!(masks[p.index()], want, "n = {n}, {p}");
            }
            assert_eq!(masks[dst.index()], None);
            if n > 2 {
                let last = 1 << (specials.len() - 1);
                assert_eq!(masks[2], Some(last), "n = {n}: p2 heard the outsider");
            }
        }
    }

    /// A clean run records what its rows, each by
    /// [`RoundHistory::record_copies`], record — senders crossing word
    /// boundaries, special processes at both ends of a word — and the
    /// masks read from its columns are its receivers' heard bits.
    #[test]
    fn a_clean_run_records_like_its_rows() {
        forall(16, |g: &mut Gen| {
            let n = [63, 64, 65, 129, 130][g.gen_range(0..5usize)];
            let mut specials: Vec<ProcessId> = [0, 63, 64, n - 1]
                .into_iter()
                .filter(|&i| i < n)
                .take(g.gen_range(1..=4usize))
                .map(ProcessId)
                .collect();
            specials.dedup();
            let dsts = ProcessSet::from_iter_n(n, (0..n).map(ProcessId))
                .difference(&ProcessSet::from_iter_n(n, specials.iter().copied()));
            let srcs: Vec<ProcessId> = dsts.iter().filter(|_| g.gen_bool(0.9)).collect();
            let outcomes = [
                Delivered,
                DroppedByReceiver,
                ReceiverCrashed,
                DeliveryOutcome::Delayed,
            ];
            let mut copies = Vec::new();
            for _ in &srcs {
                for &q in &specials {
                    copies.push((q, outcomes[g.gen_range(0..4usize)]));
                }
            }
            let frame = |by_rows: bool| {
                let mut rh = RH::empty(n);
                rh.open_clean_block(&dsts);
                for p in (0..n).map(ProcessId) {
                    rh.set_broadcast(p, Payload::new("m"));
                }
                let w = specials.len();
                if by_rows {
                    for (src, row) in srcs.iter().zip(copies.chunks_exact(w)) {
                        rh.record_copies(*src, row);
                    }
                } else {
                    rh.record_clean_run(&srcs, &copies);
                }
                rh.record_clean_block(&ProcessSet::from_iter_n(n, srcs.iter().copied()));
                rh
            };
            let (run, rows) = (frame(false), frame(true));
            assert!(run.msgs() == rows.msgs(), "n = {n}, {specials:?}");
            assert_eq!(run.msgs().exceptions, rows.msgs().exceptions);
            let mut masks = Vec::new();
            run.msgs().heard_specials_into(&mut masks);
            for p in (0..n).map(ProcessId) {
                let inbox = run.msgs().deliveries(p);
                let want = dsts.contains(p).then(|| {
                    let bits = specials.iter().enumerate();
                    bits.fold(0u64, |m, (i, &q)| {
                        m | u64::from(inbox.get(q).is_some()) << i
                    })
                });
                assert_eq!(masks[p.index()], want, "n = {n}, {p}");
            }
        });
    }

    #[test]
    #[should_panic(expected = "a clean run")]
    fn a_clean_run_missing_a_special_process_is_refused() {
        let mut rh = RH::empty(4);
        rh.open_clean_block(&ProcessSet::from_iter_n(4, [ProcessId(1), ProcessId(2)]));
        rh.record_clean_run(
            &[ProcessId(1)],
            &[(ProcessId(0), Delivered), (ProcessId(0), Delivered)],
        );
    }

    #[test]
    #[should_panic(expected = "a clean run")]
    fn a_clean_run_from_a_special_process_is_refused() {
        let mut rh = RH::empty(4);
        rh.open_clean_block(&ProcessSet::from_iter_n(4, [ProcessId(1), ProcessId(2)]));
        rh.record_clean_run(
            &[ProcessId(3)],
            &[(ProcessId(0), Delivered), (ProcessId(3), Delivered)],
        );
    }

    #[test]
    #[should_panic(expected = "a second clean block")]
    fn a_second_clean_block_is_refused() {
        let everyone = ProcessSet::full(3);
        let mut rh = RH::empty(3);
        rh.open_clean_block(&everyone);
        rh.record_clean_block(&everyone);
        rh.record_clean_block(&everyone);
    }

    #[test]
    #[should_panic(expected = "a second clean block")]
    fn a_block_opens_once() {
        let mut rh = RH::empty(3);
        rh.open_clean_block(&ProcessSet::empty(3));
        rh.open_clean_block(&ProcessSet::full(3));
    }

    #[test]
    #[should_panic(expected = "a clean block opens before any copy is recorded")]
    fn opening_a_block_after_a_copy_is_refused() {
        let everyone = ProcessSet::full(65);
        let mut rh = RH::empty(65);
        rh.set_broadcast(ProcessId(64), Payload::new("m"));
        rh.record_send(ProcessId(64), ProcessId(3), Delivered);
        rh.open_clean_block(&everyone);
    }

    #[test]
    #[should_panic(expected = "p2 and p0 are both receivers of the clean block")]
    fn a_copy_recorded_after_its_block_is_refused() {
        let everyone = ProcessSet::full(3);
        let mut rh = RH::empty(3);
        rh.open_clean_block(&everyone);
        rh.record_clean_block(&everyone);
        rh.record_delivery(ProcessId(2), ProcessId(0));
    }

    #[test]
    #[should_panic(expected = "are both receivers of the clean block")]
    fn an_opened_block_keeps_its_receivers_copies() {
        let mut rh = RH::empty(4);
        rh.open_clean_block(&ProcessSet::from_iter_n(4, [ProcessId(1), ProcessId(2)]));
        rh.record_delivery(ProcessId(1), ProcessId(3));
        rh.record_delivery(ProcessId(1), ProcessId(2));
    }

    /// A recycled frame hands out the rows it holds, not new ones: rows
    /// stay with their owners across resets, and opening a block with an
    /// owner among its receivers gives them all back, so the special
    /// processes of each opened round get the rows of the last.
    #[test]
    fn a_recycled_frame_reuses_its_rows() {
        let n = 4;
        let everyone = || (0..n).map(ProcessId);
        let mut rh = RH::empty(n);
        for (p, q) in everyone().flat_map(|p| everyone().map(move |q| (p, q))) {
            rh.record_send(p, q, Delivered);
            rh.record_delivery(q, p);
        }
        let dense = rh.msgs.rows.pool.len();
        for special in everyone() {
            rh.reset(n);
            rh.open_clean_block(&ProcessSet::from_iter_n(
                n,
                everyone().filter(|&p| p != special),
            ));
            for q in everyone() {
                rh.record_send(special, q, Delivered);
                rh.record_delivery(q, special);
                rh.record_send(q, special, Delivered);
                rh.record_delivery(special, q);
            }
            assert_eq!(rh.msgs.rows.handed.len(), 4, "{special}: its four rows");
            assert_eq!(rh.msgs.rows.pool.len(), dense, "{special}: no new row");
        }
    }

    /// One recorder call, replayed into a frame and into [`Dense`] alike.
    #[derive(Clone, Debug)]
    enum Op {
        Broadcast(ProcessId),
        Send(ProcessId, ProcessId, DeliveryOutcome),
        Deliver(ProcessId, ProcessId),
        Forge(ProcessId, ProcessId),
        Row(ProcessId, Vec<(ProcessId, DeliveryOutcome)>),
        Run(Vec<ProcessId>, Vec<(ProcessId, DeliveryOutcome)>),
        Open(ProcessSet),
        Block(ProcessSet),
    }

    fn replay(n: usize, ops: &[Op]) -> RH {
        let mut rh = RH::empty(n);
        replay_into(&mut rh, ops);
        rh
    }

    fn replay_into(rh: &mut RH, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Broadcast(p) => rh.set_broadcast(*p, Payload::new("m")),
                Op::Send(src, dst, outcome) => rh.record_send(*src, *dst, *outcome),
                Op::Deliver(dst, src) => rh.record_delivery(*dst, *src),
                Op::Forge(src, dst) => rh.record_forged(*src, *dst, Payload::new("forged")),
                Op::Row(src, copies) => rh.record_copies(*src, copies),
                Op::Run(srcs, copies) => rh.record_clean_run(srcs, copies),
                Op::Open(dsts) => rh.open_clean_block(dsts),
                Op::Block(srcs) => rh.record_clean_block(srcs),
            }
        }
    }

    /// The same calls with the copies in reverse order: another row
    /// layout, the same round.
    fn reversed(ops: &[Op]) -> Vec<Op> {
        let copy = |op: &&Op| {
            matches!(
                op,
                Op::Send(..) | Op::Deliver(..) | Op::Forge(..) | Op::Row(..) | Op::Run(..)
            )
        };
        let block = |op: &&Op| matches!(op, Op::Block(..));
        let head = ops.iter().filter(|op| !copy(op) && !block(op));
        let copies = ops.iter().filter(copy).rev();
        head.chain(copies)
            .chain(ops.iter().filter(block))
            .cloned()
            .collect()
    }

    /// Sends a row per run of one sender's ascending copies
    /// ([`RoundHistory::record_copies`]), each delivered copy's delivery
    /// with it; self-copies and forgeries stay calls of their own, between
    /// the rows.
    fn as_rows(ops: &[Op]) -> Vec<Op> {
        let mut out: Vec<Op> = Vec::new();
        for op in ops {
            match op {
                Op::Send(src, dst, outcome) => match out.last_mut() {
                    Some(Op::Row(s, copies))
                        if s == src && copies.last().is_some_and(|c| c.0 < *dst) =>
                    {
                        copies.push((*dst, *outcome))
                    }
                    _ => out.push(Op::Row(*src, vec![(*dst, *outcome)])),
                },
                Op::Deliver(dst, src) if dst != src => {}
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// Records every row of a block receiver to exactly the special
    /// processes as part of a clean run ([`RoundHistory::record_clean_run`]),
    /// consecutive ones together, as the kernel's walk does; the
    /// broadcasts go first, so that they part no run.
    fn as_runs(ops: &[Op]) -> Vec<Op> {
        let (mut out, rest): (Vec<Op>, Vec<Op>) = ops
            .iter()
            .cloned()
            .partition(|op| matches!(op, Op::Broadcast(..)));
        let mut specials = Vec::new();
        for op in rest {
            match op {
                Op::Open(ref dsts) => {
                    let outside = (0..dsts.universe()).map(ProcessId);
                    specials = outside.filter(|p| !dsts.contains(*p)).collect();
                    out.push(op);
                }
                Op::Row(src, copies)
                    if !specials.is_empty()
                        && !specials.contains(&src)
                        && copies.iter().map(|c| c.0).eq(specials.iter().copied()) =>
                {
                    match out.last_mut() {
                        Some(Op::Run(srcs, run)) => {
                            srcs.push(src);
                            run.extend(copies);
                        }
                        _ => out.push(Op::Run(vec![src], copies)),
                    }
                }
                other => out.push(other),
            }
        }
        out
    }

    /// The dense reference grid: per copy, its outcome (`None`: never
    /// emitted), whether it arrived and whether it was forged; and the
    /// block's sides as declared.
    #[derive(Clone)]
    struct Dense {
        n: usize,
        sent: Vec<Option<DeliveryOutcome>>,
        heard: Vec<bool>,
        forged: Vec<bool>,
        block_srcs: ProcessSet,
        block_dsts: ProcessSet,
    }

    impl Dense {
        fn new(n: usize, ops: &[Op]) -> Self {
            let mut d = Dense {
                n,
                sent: vec![None; n * n],
                heard: vec![false; n * n],
                forged: vec![false; n * n],
                block_srcs: ProcessSet::empty(n),
                block_dsts: ProcessSet::empty(n),
            };
            for op in ops {
                match op {
                    Op::Broadcast(_) => {}
                    Op::Send(src, dst, outcome) => {
                        d.sent[src.index() * n + dst.index()] = Some(*outcome)
                    }
                    Op::Deliver(dst, src) => d.heard[dst.index() * n + src.index()] = true,
                    Op::Forge(src, dst) => {
                        d.sent[src.index() * n + dst.index()] = Some(Forged);
                        d.heard[dst.index() * n + src.index()] = true;
                        d.forged[src.index() * n + dst.index()] = true;
                    }
                    Op::Row(src, copies) => {
                        for &(dst, outcome) in copies {
                            d.sent[src.index() * n + dst.index()] = Some(outcome);
                            d.heard[dst.index() * n + src.index()] |= arrives(outcome);
                        }
                    }
                    Op::Run(srcs, copies) => {
                        let w = copies.len() / srcs.len();
                        for (src, row) in srcs.iter().zip(copies.chunks_exact(w)) {
                            for &(dst, outcome) in row {
                                d.sent[src.index() * n + dst.index()] = Some(outcome);
                                d.heard[dst.index() * n + src.index()] |= arrives(outcome);
                            }
                        }
                    }
                    Op::Open(dsts) => d.block_dsts = dsts.clone(),
                    Op::Block(srcs) => {
                        let dsts = d.block_dsts.clone();
                        for (s, t) in srcs.iter().flat_map(|s| dsts.iter().map(move |t| (s, t))) {
                            if s != t {
                                d.sent[s.index() * n + t.index()] = Some(Delivered);
                            }
                            d.heard[t.index() * n + s.index()] = true;
                        }
                        d.block_srcs = srcs.clone();
                    }
                }
            }
            d
        }

        fn sent(&self, src: ProcessId, dst: ProcessId) -> Option<DeliveryOutcome> {
            self.sent[src.index() * self.n + dst.index()]
        }

        fn heard(&self, dst: ProcessId, src: ProcessId) -> bool {
            self.heard[dst.index() * self.n + src.index()]
        }

        fn payload(&self, src: ProcessId, dst: ProcessId) -> &'static str {
            if self.forged[src.index() * self.n + dst.index()] {
                "forged"
            } else {
                "m"
            }
        }

        /// Every reader of `rh` against the grid.
        fn agree(&self, rh: &RH) {
            let (n, m) = (self.n, rh.msgs());
            let everyone = || (0..n).map(ProcessId);
            let (mut deviations, mut faulty) = (vec![DeviationSet::EMPTY; n], ProcessSet::empty(n));
            let mut masks = vec![Some(7); 2];
            m.heard_specials_into(&mut masks);
            assert_eq!(masks.len(), n);
            for p in everyone() {
                let sent: Vec<_> = m
                    .sent_iter(p)
                    .map(|c| (c.dst, **c.payload, c.outcome))
                    .collect();
                let want: Vec<_> = everyone()
                    .filter_map(|q| self.sent(p, q).map(|o| (q, self.payload(p, q), o)))
                    .collect();
                assert_eq!(sent, want, "n = {n}, sent by {p}");
                assert_eq!(
                    (m.sent_count(p), rh.record(p).sent_len()),
                    (want.len(), want.len())
                );
                let inbox = m.deliveries(p);
                let heard: Vec<_> = everyone()
                    .filter(|&q| self.heard(p, q))
                    .map(|q| (q, self.payload(q, p)))
                    .collect();
                assert_eq!(
                    inbox.iter().map(|(q, x)| (q, **x)).collect::<Vec<_>>(),
                    heard,
                    "n = {n}, heard by {p}"
                );
                assert_eq!(
                    (m.delivered_count(p), inbox.len()),
                    (heard.len(), heard.len())
                );
                assert_eq!(inbox.is_empty(), heard.is_empty());
                let mut words = vec![0u64; n.div_ceil(WORD_BITS)];
                for (q, _) in &heard {
                    words[q.index() / WORD_BITS] |= 1 << (q.index() % WORD_BITS);
                }
                let row = inbox.heard_words();
                assert_eq!(row.len(), words.len());
                assert!(row.eq(words), "n = {n}, words heard by {p}");
                let in_block = self.block_dsts.contains(p);
                assert_eq!(inbox.in_block(), in_block, "n = {n}, {p}");
                let off: Vec<_> = inbox.off_block().map(|(q, x)| (q, **x)).collect();
                let outside = heard
                    .iter()
                    .filter(|(q, _)| !in_block || !self.block_srcs.contains(*q));
                assert_eq!(
                    off,
                    outside.copied().collect::<Vec<_>>(),
                    "n = {n}, off the block at {p}"
                );
                let forged = heard
                    .iter()
                    .filter(|&&(q, _)| self.forged[q.index() * n + p.index()]);
                assert!(inbox
                    .forged()
                    .map(|(q, x)| (q, **x))
                    .eq(forged.clone().copied()));
                // A block receiver names the special processes it heard
                // by their rank.
                let specials: Vec<_> = everyone()
                    .filter(|&q| !self.block_dsts.contains(q))
                    .collect();
                let named = in_block && specials.len() <= WORD_BITS;
                let want = (named && forged.count() == 0).then(|| {
                    let heard = specials
                        .iter()
                        .enumerate()
                        .filter(|&(_, &q)| self.heard(p, q));
                    heard.fold(0u64, |mask, (i, _)| mask | 1 << i)
                });
                assert_eq!(masks[p.index()], want, "n = {n}, specials heard by {p}");
                for q in everyone() {
                    assert_eq!(m.outcome_of(p, q), self.sent(p, q), "n = {n}, {p} → {q}");
                    assert_eq!(
                        m.was_delivered(p, q),
                        self.heard(p, q),
                        "n = {n}, {q} → {p}"
                    );
                    let arrived = self.heard(p, q).then(|| self.payload(q, p));
                    assert_eq!(inbox.get(q).map(|x| **x), arrived);
                    let forged = self.forged[p.index() * n + q.index()].then_some("forged");
                    assert_eq!(m.forged_payload_of(p, q).map(|x| **x), forged);
                    match self.sent(p, q) {
                        Some(DroppedBySender) => {
                            deviations[p.index()].insert(FaultKind::SendOmission)
                        }
                        Some(Forged) => deviations[p.index()].insert(FaultKind::Forgery),
                        Some(DroppedByReceiver) => {
                            deviations[q.index()].insert(FaultKind::ReceiveOmission)
                        }
                        _ => {}
                    }
                }
            }
            for p in everyone().filter(|p| !deviations[p.index()].is_empty()) {
                faulty.insert(p);
                assert_eq!(rh.deviation_set(p), deviations[p.index()]);
            }
            let mut all = Vec::new();
            rh.deviation_sets_into(&mut all);
            assert_eq!(all, deviations);
            let mut folded = ProcessSet::empty(n);
            rh.collect_faulty_into(&mut folded);
            assert_eq!(folded, faulty);
        }
    }

    impl Generated {
        /// The round in the kernel walk's order: the block's receivers
        /// declared first; each sender's copies in destination order,
        /// delivery before send, a clean sender visiting only the
        /// processes outside the block; the block closed last.
        fn walk_ops(&self) -> Vec<Op> {
            let n = self.n;
            let mut fate = vec![None; n * n];
            for &(src, dst, outcome) in &self.copies {
                fate[src.index() * n + dst.index()] = Some(outcome);
            }
            let everyone: Vec<_> = (0..n).map(ProcessId).collect();
            let special: Vec<_> = everyone
                .iter()
                .copied()
                .filter(|p| !self.dsts.contains(*p))
                .collect();
            let mut ops = vec![Op::Open(self.dsts.clone())];
            for src in everyone.iter().copied() {
                let row = &fate[src.index() * n..][..n];
                if !self.srcs.contains(src) && row.iter().all(Option::is_none) {
                    continue;
                }
                ops.push(Op::Broadcast(src));
                let dests = if self.srcs.contains(src) {
                    &special
                } else {
                    &everyone
                };
                for &dst in dests {
                    match fate[src.index() * n + dst.index()] {
                        _ if dst == src => ops.push(Op::Deliver(src, src)),
                        Some(Forged) => ops.push(Op::Forge(src, dst)),
                        Some(Delivered) => {
                            ops.push(Op::Deliver(dst, src));
                            ops.push(Op::Send(src, dst, Delivered));
                        }
                        Some(outcome) => ops.push(Op::Send(src, dst, outcome)),
                        None => unreachable!("a sender emits to everyone else"),
                    }
                }
            }
            if !self.srcs.is_empty() {
                ops.push(Op::Block(self.srcs.clone()));
            }
            ops
        }
    }

    /// `SyncStepper`'s order: deliveries only, a sender's row at a time,
    /// the self-copy included.
    fn stepper_ops(g: &mut Gen, n: usize) -> Vec<Op> {
        let p_heard = [0.0, 0.5, 1.0][g.gen_range(0..3usize)];
        let mut ops = Vec::new();
        for src in (0..n).map(ProcessId) {
            if !g.gen_bool(0.8) {
                continue; // silent
            }
            ops.push(Op::Broadcast(src));
            for dst in (0..n).map(ProcessId) {
                if dst == src || g.gen_bool(p_heard) {
                    ops.push(Op::Deliver(dst, src));
                }
            }
        }
        ops
    }

    /// The router corpus's order: per broadcaster, each destination
    /// unheard, forged (its own copy too) or delivered.
    fn router_ops(g: &mut Gen, n: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for src in (0..n).map(ProcessId) {
            if !g.gen_bool(0.7) {
                continue; // silent
            }
            ops.push(Op::Broadcast(src));
            for dst in (0..n).map(ProcessId) {
                match g.gen_range(0..8u32) {
                    0..=2 => {}
                    3 => ops.push(Op::Forge(src, dst)),
                    _ => ops.push(Op::Deliver(dst, src)),
                }
            }
        }
        ops
    }

    /// The coterie tests' order: every self-delivery first, then edges —
    /// delivered or send-omitted — in any order.
    fn coterie_ops(g: &mut Gen, n: usize) -> Vec<Op> {
        let everyone = (0..n).map(ProcessId);
        let mut ops: Vec<_> = everyone
            .clone()
            .flat_map(|p| [Op::Broadcast(p), Op::Deliver(p, p)])
            .collect();
        let mut edges: Vec<_> = everyone
            .clone()
            .flat_map(|s| everyone.clone().map(move |d| (s, d)))
            .filter(|&(s, d)| s != d && g.gen_bool(0.1))
            .collect();
        g.shuffle(&mut edges);
        for (src, dst) in edges {
            if g.gen_bool(0.5) {
                ops.push(Op::Send(src, dst, Delivered));
                ops.push(Op::Deliver(dst, src));
            } else {
                ops.push(Op::Send(src, dst, DroppedBySender));
            }
        }
        ops
    }

    /// The row table against a dense reference grid, in every order the
    /// tree records a frame in, on both sides of every word boundary:
    /// every reader agrees with the grid, and frames that split the same
    /// copies differently — in the block or in the table, in rows, in
    /// clean runs or in columns, pooled in another order, or in a frame
    /// recycled from another layout — are equal both ways.
    #[test]
    fn row_table_matches_a_dense_grid_in_every_recorder_order() {
        forall(12, |g: &mut Gen| {
            let n = [1, 2, 63, 64, 65, 129, 200][g.gen_range(0..7usize)];
            let round = Generated::new(g, n);
            let walk = round.walk_ops();
            let dense = Dense::new(n, &walk);
            // Recorded copy by copy, the round has no block to be in.
            let unblocked = Dense {
                block_srcs: ProcessSet::empty(n),
                block_dsts: ProcessSet::empty(n),
                ..dense.clone()
            };
            let rows = as_rows(&walk);
            let runs = as_runs(&rows);
            let splits = [
                (replay(n, &walk), &dense),
                (replay(n, &reversed(&walk)), &dense),
                (replay(n, &rows), &dense),
                (replay(n, &reversed(&rows)), &dense),
                (replay(n, &runs), &dense),
                (replay(n, &reversed(&runs)), &dense),
                (round.record(true), &dense),
                (round.record(false), &unblocked),
            ];
            for (i, (a, grid)) in splits.iter().enumerate() {
                grid.agree(a);
                for (j, (b, _)) in splits.iter().enumerate() {
                    assert!(a.msgs() == b.msgs(), "n = {n}: split {i} ≠ split {j}");
                }
            }
            // One frame recycled through every split: opened, then never
            // opened (its rows kept across resets), then opened again.
            let mut recycled = replay(n, &walk);
            let orders = [stepper_ops(g, n), router_ops(g, n), coterie_ops(g, n)];
            let coterie_rows = as_rows(&orders[2]);
            for ops in orders.iter().chain([&walk, &rows, &runs, &coterie_rows]) {
                let (frame, other) = (replay(n, ops), replay(n, &reversed(ops)));
                recycled.reset(n);
                replay_into(&mut recycled, ops);
                Dense::new(n, ops).agree(&recycled);
                for (a, b) in [(&frame, &other), (&frame, &recycled)] {
                    assert!(a.msgs() == b.msgs() && b.msgs() == a.msgs(), "n = {n}");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn clean_block_rejects_a_foreign_universe() {
        let mut rh = RH::empty(65);
        rh.open_clean_block(&ProcessSet::full(65));
        rh.record_clean_block(&ProcessSet::full(64));
    }

    #[test]
    fn shared_payloads_preserve_history_equality() {
        // The same execution recorded twice: once with the sender's copy and
        // the receiver's envelope sharing one broadcast payload, once with
        // each deep-cloned. The two representations must be
        // indistinguishable to every observer.
        let exchange = |payload: Payload<&'static str>| {
            let mut rh = round(&[&[], &[]], &[]);
            rh.set_broadcast(ProcessId(0), payload);
            rh.record_send(ProcessId(0), ProcessId(1), Delivered);
            rh.record_delivery(ProcessId(1), ProcessId(0));
            rh
        };
        let shared_payload = Payload::new("m");
        let shared = exchange(shared_payload.clone());
        let cloned = exchange(Payload::new("m"));

        let mut h_shared = H::new(2);
        h_shared.push(shared);
        let mut h_cloned = H::new(2);
        h_cloned.push(cloned);
        assert_eq!(h_shared, h_cloned);
        assert_eq!(format!("{h_shared:?}"), format!("{h_cloned:?}"));
        assert_eq!(h_shared.to_string(), h_cloned.to_string());
        // Cloning a history shares payloads rather than deep-copying them.
        let h2 = h_shared.clone();
        assert!(h2.rounds()[0]
            .msgs()
            .broadcast_of(ProcessId(0))
            .unwrap()
            .shares_with(
                h_shared.rounds()[0]
                    .msgs()
                    .broadcast_of(ProcessId(0))
                    .unwrap()
            ));
        assert_eq!(h2, h_shared);
    }

    #[test]
    fn slices_views() {
        let mut h = H::new(1);
        for _ in 0..5 {
            h.push(round(&[&[]], &[]));
        }
        let s = h.slice(1, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.start(), 1);
        assert_eq!(s.end(), 4);
        assert_eq!(s.iter().count(), 3);
        assert_eq!(h.suffix(3).len(), 2);
        assert_eq!(h.suffix(99).len(), 0);
        assert_eq!(h.as_slice().len(), 5);
        // Copy semantics
        let s2 = s;
        assert_eq!(s2.len(), s.len());
    }

    #[test]
    #[should_panic(expected = "bad slice bounds")]
    fn bad_slice_panics() {
        let h = H::new(1);
        h.slice(0, 1);
    }

    #[test]
    #[should_panic(expected = "wrong process count")]
    fn push_wrong_width_panics() {
        let mut h = H::new(2);
        h.push(round(&[&[]], &[]));
    }

    fn faulty_round_then_clean(h: &mut H) {
        // Round 1: p0 send-omits toward p1; later rounds are clean.
        h.push(round(&[&[(1, DroppedBySender)], &[(0, Delivered)]], &[]));
        for _ in 0..3 {
            h.push(round(&[&[(1, Delivered)], &[(0, Delivered)]], &[]));
        }
    }

    #[test]
    fn windowed_history_evicts_and_remembers_faulty() {
        let mut h = H::with_window(2, 2);
        assert_eq!(h.window(), Some(2));
        faulty_round_then_clean(&mut h);
        assert_eq!(h.len(), 4);
        assert_eq!(h.evicted(), 2);
        assert_eq!(h.rounds().len(), 2);
        assert!(!h.is_complete());
        // The deviation of the evicted round 1 is still visible.
        assert!(h.faulty().contains(ProcessId(0)));
        assert!(h.faulty_upto(2).contains(ProcessId(0)));
        assert!(!h.faulty().contains(ProcessId(1)));
        // Retained rounds remain addressable by absolute observer round.
        assert_eq!(h.round(Round::new(3)).n(), 2);
        assert_eq!(h.as_slice().len(), 2);
        assert_eq!(h.as_slice().start(), 2);
        assert_eq!(h.suffix(3).len(), 1);
    }

    #[test]
    fn windowed_matches_full_on_retained_suffix() {
        let mut full = H::new(2);
        let mut windowed = H::with_window(2, 2);
        faulty_round_then_clean(&mut full);
        faulty_round_then_clean(&mut windowed);
        assert_eq!(full.faulty(), windowed.faulty());
        assert_eq!(full.faulty_upto(3), windowed.faulty_upto(3));
        for r in [3u64, 4] {
            assert_eq!(full.round(Round::new(r)), windowed.round(Round::new(r)));
        }
        assert_eq!(full.suffix(2).len(), windowed.suffix(2).len());
    }

    #[test]
    fn eviction_returns_the_frame_for_reuse() {
        let mut h = H::with_window(1, 1);
        assert!(h.push(round(&[&[]], &[])).is_none());
        let frame = h.push(round(&[&[]], &[0]));
        let mut frame = frame.expect("second push must evict the first round");
        frame.reset(1);
        assert_eq!(frame, RH::empty(1));
        assert_eq!(h.len(), 2);
        assert_eq!(h.evicted(), 1);
    }

    #[test]
    #[should_panic(expected = "evicted from the retention window")]
    fn evicted_round_lookup_panics() {
        let mut h = H::with_window(2, 2);
        faulty_round_then_clean(&mut h);
        h.round(Round::FIRST);
    }

    #[test]
    #[should_panic(expected = "before the retained window")]
    fn evicted_slice_panics() {
        let mut h = H::with_window(2, 2);
        faulty_round_then_clean(&mut h);
        h.slice(0, 4);
    }

    #[test]
    #[should_panic(expected = "evicted region")]
    fn evicted_faulty_upto_panics() {
        let mut h = H::with_window(2, 2);
        faulty_round_then_clean(&mut h);
        h.faulty_upto(1);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_window_rejected() {
        H::with_window(2, 0);
    }

    #[test]
    fn display_smoke() {
        let mut h = H::new(1);
        h.push(round(&[&[]], &[0]));
        let s = h.to_string();
        assert!(s.contains("round 1"));
        assert!(s.contains("CRASHED"));
    }

    #[test]
    fn display_windowed_notes_eviction() {
        let mut h = H::with_window(2, 2);
        faulty_round_then_clean(&mut h);
        let s = h.to_string();
        assert!(s.contains("2 rounds evicted"));
        assert!(s.contains("round 3"));
        assert!(!s.contains("round 1:"));
    }
}
