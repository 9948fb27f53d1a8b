//! The round-based protocol interface.
//!
//! A round of the paper's synchronous model has two halves: *at the start*
//! of the round every process broadcasts a message derived from its current
//! state; *at the end* of the round it updates its state from the messages
//! it received. [`SyncProtocol`] mirrors this exactly with
//! [`SyncProtocol::broadcast`] and [`SyncProtocol::step`].

use ftss_core::{DeliveredIter, Deliveries, Envelope, ProcessId, ProcessSet, RoundCounter};
use std::fmt;

/// Static facts a process knows about its system: its own identity and the
/// total number of processes. The *actual round number is deliberately
/// absent* — the paper's model makes it unavailable to processes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProtocolCtx {
    /// The identity of the executing process.
    pub me: ProcessId,
    /// The number of processes in the system.
    pub n: usize,
}

impl ProtocolCtx {
    /// Creates a context for process `me` in a system of `n` processes.
    pub fn new(me: ProcessId, n: usize) -> Self {
        ProtocolCtx { me, n }
    }

    /// Iterates all process ids in the system.
    pub fn all(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.n).map(ProcessId)
    }
}

/// The messages a process received in one round.
///
/// At most one *fresh* copy per sender arrives per round (each round is
/// one broadcast); late copies — sent in an earlier round and held back
/// or echoed by a timing fault — may follow it. The inbox order is
/// ascending sender, a sender's fresh copy before its late ones, and late
/// copies in hold order. A process always receives its own broadcast
/// (paper footnote 1), so `from(ctx.me)` is always `Some` at an alive
/// process.
///
/// An inbox owns its envelopes ([`Inbox::new`], for hand-built rounds)
/// or views them where they lie, with no envelope built:
///
/// * one receiver's deliveries in the round's frame
///   ([`Inbox::from_deliveries`]) — what the simulator hands each
///   process: delivery bits plus one shared payload per sender, and the
///   frame's late arrivals;
/// * a served node's decoded round frame ([`Inbox::from_table`]): the
///   round's distinct messages once each, and per sender which one;
/// * another inbox under a sender mask and a projection
///   ([`Inbox::masked`]) — the compiled step's inbox for Π.
///
/// The views share one reader of inbox order: heard senders ascending,
/// each with its fresh copy, and the late copies merged in by sender.
#[derive(Clone, Debug)]
pub struct Inbox<'a, M> {
    storage: Storage<'a, M>,
}

#[derive(Clone, Debug)]
enum Storage<'a, M> {
    Owned(Vec<Envelope<M>>),
    View(Deliveries<'a, M>),
    Table(&'a InboxTable<M>),
    Masked(&'a dyn Frame<M>),
}

impl<'a, M> Inbox<'a, M> {
    /// Wraps the delivered envelopes of one round, sorting by sender; the
    /// copies of one sender keep the order given.
    pub fn new(mut messages: Vec<Envelope<M>>) -> Self {
        messages.sort_by_key(|e| e.src);
        Inbox {
            storage: Storage::Owned(messages),
        }
    }

    /// Views one receiver's deliveries straight out of a round's message
    /// frame ([`ftss_core::RoundMsgs`]): its fresh copies, with its late
    /// arrivals ([`Deliveries::late`]) merged in inbox order.
    pub fn from_deliveries(deliveries: Deliveries<'a, M>) -> Self {
        Inbox {
            storage: Storage::View(deliveries),
        }
    }

    /// Views one receiver's round as a table of distinct messages: each
    /// heard sender's forged copy or entry, with the late copies merged
    /// in inbox order exactly as [`Inbox::from_deliveries`] merges them.
    ///
    /// # Panics
    ///
    /// Reading the inbox panics if `table` breaks an invariant
    /// [`InboxTable`] states.
    pub fn from_table(table: &'a InboxTable<M>) -> Self {
        Inbox {
            storage: Storage::Table(table),
        }
    }

    /// Runs `f` on this inbox as another protocol's inbox: each copy
    /// projected by `project`, and every copy from a sender in `hidden`
    /// withheld. Nothing is copied — the view reads this inbox in place —
    /// so it costs no allocation, and it iterates, counts and answers
    /// `from` as an owned inbox of the kept copies, projected, would.
    pub fn masked<N, R>(
        &self,
        hidden: Option<&ProcessSet>,
        project: impl Fn(&M) -> &N,
        f: impl FnOnce(&Inbox<'_, N>) -> R,
    ) -> R {
        let frame = Masked {
            inbox: self,
            hidden: hidden.map_or(&[][..], ProcessSet::words),
            project,
        };
        f(&Inbox {
            storage: Storage::Masked(&frame),
        })
    }

    /// The first copy from `p` in inbox order: the fresh copy if one
    /// arrived this round, else the earliest-held late one.
    pub fn from(&self, p: ProcessId) -> Option<&M> {
        match &self.storage {
            Storage::Owned(v) => {
                let first = v.partition_point(|e| e.src < p);
                v.get(first).filter(|e| e.src == p).map(|e| &*e.payload)
            }
            Storage::View(d) => match d.get(p) {
                Some(fresh) => Some(fresh),
                None => first_copy(d, p),
            },
            Storage::Table(t) => first_copy(*t, p),
            Storage::Masked(m) => first_copy(*m, p),
        }
    }

    /// Iterates `(sender, payload)` in inbox order.
    pub fn iter(&self) -> InboxIter<'_, M> {
        let inner = match &self.storage {
            Storage::Owned(v) => InboxIterInner::Slice(v.iter()),
            Storage::View(d) if d.late().next().is_none() => InboxIterInner::View(d.iter()),
            Storage::View(d) => InboxIterInner::Late(FrameIter::new(d)),
            Storage::Table(t) => InboxIterInner::Table(FrameIter::new(*t)),
            Storage::Masked(m) => InboxIterInner::Masked(FrameIter::new(*m)),
        };
        InboxIter { inner }
    }

    /// The senders heard from this round, in order (a sender with late
    /// copies once per copy).
    pub fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Number of messages received, late copies included.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Owned(v) => v.len(),
            Storage::View(d) => d.len() + d.late().count(),
            Storage::Table(t) => copies(*t),
            Storage::Masked(m) => copies(*m),
        }
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The inbox read the only way a protocol declaring
    /// [`SyncProtocol::JOINS_INBOX`] may read it: every received message
    /// folded into one by the protocol's [`join`](SyncProtocol::join), in
    /// inbox order; `None` if nothing was received. Such a protocol's
    /// `step` is this, then [`step_joined`](SyncProtocol::step_joined).
    pub fn joined<P>(&self, protocol: &P) -> Option<M>
    where
        P: SyncProtocol<Msg = M> + ?Sized,
        M: Clone,
    {
        let mut messages = self.iter().map(|(_, m)| m);
        let mut acc = messages.next()?.clone();
        for m in messages {
            protocol.join(&mut acc, m);
        }
        Some(acc)
    }
}

/// One receiver's round as a table of distinct messages — the shape a
/// served node decodes its round frame into. [`Inbox::from_table`] views
/// it.
///
/// The view relies on what the frame's decoder checks: every heard sender
/// is below `cells.len()` and is named in `forged` or indexes an entry,
/// and `forged` is ascending and names heard senders only.
#[derive(Clone, Debug)]
pub struct InboxTable<M> {
    /// The round's distinct broadcasts.
    pub entries: Vec<M>,
    /// Per sender, its entry in `entries`; out of range for a silent one.
    pub cells: Vec<u32>,
    /// The senders heard from: bit `s % 64` of word `s / 64`.
    pub heard: Vec<u64>,
    /// Copies that replace their sender's entry for this receiver,
    /// ascending by sender.
    pub forged: Vec<(ProcessId, M)>,
    /// Copies sent in earlier rounds that arrive in this one, in hold
    /// order.
    pub late: Vec<(ProcessId, M)>,
}

impl<M> Default for InboxTable<M> {
    fn default() -> Self {
        InboxTable {
            entries: Vec::new(),
            cells: Vec::new(),
            heard: Vec::new(),
            forged: Vec::new(),
            late: Vec::new(),
        }
    }
}

/// A round's copies the way a frame holds them: a fresh copy from each
/// heard sender, and late copies in hold order. Every inbox is one, and
/// [`FrameIter`] reads any of them in inbox
/// order — a masked inbox through `dyn`, since its frame's message type
/// is not its own.
trait Frame<M> {
    /// Word `k` of the heard senders — bit `s % 64` of word `s / 64` is
    /// set iff a fresh copy from `s` arrived — or `None` past the last.
    fn heard_word(&self, k: usize) -> Option<u64>;

    /// The fresh copy from `s`, a heard sender.
    fn fresh(&self, s: ProcessId) -> Option<&M>;

    /// The `i`-th late copy, in hold order.
    fn late(&self, i: usize) -> Option<(ProcessId, &M)>;
}

impl<M> fmt::Debug for dyn Frame<M> + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Frame")
    }
}

/// The first copy from `p` in inbox order.
fn first_copy<M, F: Frame<M> + ?Sized>(frame: &F, p: ProcessId) -> Option<&M> {
    let (k, bit) = (p.index() / 64, p.index() % 64);
    if frame.heard_word(k).is_some_and(|w| w >> bit & 1 == 1) {
        return frame.fresh(p);
    }
    (0..)
        .map_while(|i| frame.late(i))
        .find(|c| c.0 == p)
        .map(|c| c.1)
}

/// How many copies `frame` holds, late ones included.
fn copies<M, F: Frame<M> + ?Sized>(frame: &F) -> usize {
    let heard = (0..).map_while(|k| frame.heard_word(k));
    let fresh: u32 = heard.map(u64::count_ones).sum();
    fresh as usize + (0..).map_while(|i| frame.late(i)).count()
}

impl<M> Frame<M> for InboxTable<M> {
    fn heard_word(&self, k: usize) -> Option<u64> {
        self.heard.get(k).copied()
    }

    fn fresh(&self, s: ProcessId) -> Option<&M> {
        Some(match self.forged.binary_search_by_key(&s, |&(q, _)| q) {
            Ok(i) => &self.forged[i].1,
            Err(_) => &self.entries[self.cells[s.index()] as usize],
        })
    }

    fn late(&self, i: usize) -> Option<(ProcessId, &M)> {
        self.late.get(i).map(|(src, m)| (*src, m))
    }
}

impl<M> Frame<M> for Deliveries<'_, M> {
    fn heard_word(&self, k: usize) -> Option<u64> {
        self.heard_words().nth(k)
    }

    fn fresh(&self, s: ProcessId) -> Option<&M> {
        self.get(s).map(|m| &**m)
    }

    fn late(&self, i: usize) -> Option<(ProcessId, &M)> {
        Deliveries::late(self).nth(i).map(|(src, m)| (src, &**m))
    }
}

/// An owned inbox as a frame: each sender's first envelope is its fresh
/// copy, and the others are late ones, in inbox order.
impl<M> Frame<M> for Inbox<'_, M> {
    fn heard_word(&self, k: usize) -> Option<u64> {
        match &self.storage {
            Storage::Owned(v) => {
                let last = v.last().map_or(0, |e| e.src.index() / 64);
                let senders = v.iter().map(|e| e.src.index()).filter(|s| s / 64 == k);
                (k <= last).then(|| senders.fold(0, |w, s| w | 1 << (s % 64)))
            }
            Storage::View(d) => d.heard_word(k),
            Storage::Table(t) => t.heard_word(k),
            Storage::Masked(m) => m.heard_word(k),
        }
    }

    fn fresh(&self, s: ProcessId) -> Option<&M> {
        match &self.storage {
            Storage::Owned(_) => self.from(s),
            Storage::View(d) => d.fresh(s),
            Storage::Table(t) => t.fresh(s),
            Storage::Masked(m) => m.fresh(s),
        }
    }

    fn late(&self, i: usize) -> Option<(ProcessId, &M)> {
        match &self.storage {
            Storage::Owned(v) => {
                let later = v
                    .iter()
                    .enumerate()
                    .filter(|&(at, e)| at > 0 && v[at - 1].src == e.src);
                later.map(|(_, e)| (e.src, &*e.payload)).nth(i)
            }
            Storage::View(d) => Frame::late(d, i),
            Storage::Table(t) => t.late(i),
            Storage::Masked(m) => m.late(i),
        }
    }
}

/// Another inbox's frame, its copies from `hidden` senders withheld and
/// the rest projected ([`Inbox::masked`]).
struct Masked<'a, 'b, N, P> {
    inbox: &'a Inbox<'b, N>,
    /// The withheld senders, as words.
    hidden: &'a [u64],
    project: P,
}

impl<M, N, P: Fn(&N) -> &M> Frame<M> for Masked<'_, '_, N, P> {
    fn heard_word(&self, k: usize) -> Option<u64> {
        let hidden = self.hidden.get(k).copied().unwrap_or(0);
        self.inbox.heard_word(k).map(|w| w & !hidden)
    }

    fn fresh(&self, s: ProcessId) -> Option<&M> {
        self.inbox.fresh(s).map(&self.project)
    }

    fn late(&self, i: usize) -> Option<(ProcessId, &M)> {
        let frame = self.inbox;
        let hidden = |s: ProcessId| {
            self.hidden
                .get(s.index() / 64)
                .is_some_and(|w| w >> (s.index() % 64) & 1 == 1)
        };
        let kept = (0..).map_while(|j| frame.late(j)).filter(|c| !hidden(c.0));
        kept.map(|(src, m)| (src, (self.project)(m))).nth(i)
    }
}

/// A frame in inbox order: heard senders ascending, each with its fresh
/// copy, a sender's late copies (in hold order) right after it. Nothing
/// is buffered: the late copies are rescanned once per late copy, which
/// is nothing in a round without late arrivals.
#[derive(Debug)]
struct FrameIter<'a, M, F: ?Sized> {
    frame: &'a F,
    /// The heard word to load next, and the bits of the last one loaded
    /// not yet yielded.
    word: usize,
    bits: u64,
    /// The smallest sender with a late copy not yet yielded.
    next_late: Option<ProcessId>,
    /// The sender whose late copies are being yielded, and where in hold
    /// order to look for its next one.
    run: Option<(ProcessId, usize)>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M, F: ?Sized> Clone for FrameIter<'_, M, F> {
    fn clone(&self) -> Self {
        FrameIter { ..*self }
    }
}

impl<'a, M, F: Frame<M> + ?Sized> FrameIter<'a, M, F> {
    fn new(frame: &'a F) -> Self {
        FrameIter {
            frame,
            word: 0,
            bits: 0,
            next_late: (0..).map_while(|i| frame.late(i)).map(|c| c.0).min(),
            run: None,
            _msg: std::marker::PhantomData,
        }
    }

    /// The next heard sender, not yet taken.
    fn peek_fresh(&mut self) -> Option<ProcessId> {
        while self.bits == 0 {
            self.bits = self.frame.heard_word(self.word)?;
            self.word += 1;
        }
        Some(ProcessId(
            (self.word - 1) * 64 + self.bits.trailing_zeros() as usize,
        ))
    }

    /// Takes the next heard sender and its fresh copy.
    fn next_fresh(&mut self) -> Option<(ProcessId, &'a M)> {
        loop {
            let s = self.peek_fresh()?;
            self.bits &= self.bits - 1;
            if let Some(m) = self.frame.fresh(s) {
                return Some((s, m));
            }
        }
    }
}

impl<'a, M: 'a, F: Frame<M> + ?Sized> Iterator for FrameIter<'a, M, F> {
    type Item = (ProcessId, &'a M);

    fn next(&mut self) -> Option<(ProcessId, &'a M)> {
        if self.next_late.is_none() && self.run.is_none() {
            return self.next_fresh();
        }
        if let Some((s, from)) = self.run.take() {
            let mut rest = (from..).map_while(|i| Some((i, self.frame.late(i)?)));
            if let Some((i, copy)) = rest.find(|(_, c)| c.0 == s) {
                self.run = Some((s, i + 1));
                return Some(copy);
            }
            let later = (0..).map_while(|i| self.frame.late(i)).map(|c| c.0);
            self.next_late = later.filter(|&src| src > s).min();
        }
        let fresh = self.peek_fresh();
        // A sender's fresh copy goes first: its late ones start a run
        // once the fresh copies have moved past it.
        if let Some(l) = self.next_late.filter(|&l| fresh.is_none_or(|f| l < f)) {
            self.run = Some((l, 0));
            return self.next();
        }
        self.next_fresh()
    }
}

/// Steps `state` on the join of `joined` and then of each of `rest`, in
/// that order: a [`SyncProtocol::JOINS_INBOX`] receiver's step from its
/// messages alone, with no inbox built — the in-process exchange's
/// clean-block shortcut and the stepper's folded step both go through it.
pub(crate) fn step_folded<'m, P>(
    protocol: &P,
    ctx: &ProtocolCtx,
    state: &mut P::State,
    mut joined: P::Msg,
    rest: impl Iterator<Item = &'m P::Msg>,
) where
    P: SyncProtocol + ?Sized,
    P::Msg: 'm,
{
    for m in rest {
        protocol.join(&mut joined, m);
    }
    protocol.step_joined(ctx, state, &joined);
}

/// Iterator over an [`Inbox`]'s `(sender, payload)` pairs in inbox order.
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    inner: InboxIterInner<'a, M>,
}

#[derive(Clone, Debug)]
enum InboxIterInner<'a, M> {
    Slice(std::slice::Iter<'a, Envelope<M>>),
    /// A frame view without late arrivals: its delivered row.
    View(DeliveredIter<'a, M>),
    Late(FrameIter<'a, M, Deliveries<'a, M>>),
    Table(FrameIter<'a, M, InboxTable<M>>),
    Masked(FrameIter<'a, M, dyn Frame<M> + 'a>),
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (ProcessId, &'a M);

    fn next(&mut self) -> Option<(ProcessId, &'a M)> {
        match &mut self.inner {
            InboxIterInner::Slice(it) => it.next().map(|e| (e.src, &*e.payload)),
            InboxIterInner::View(it) => it.next().map(|(p, payload)| (p, &**payload)),
            InboxIterInner::Late(it) => it.next(),
            InboxIterInner::Table(it) => it.next(),
            InboxIterInner::Masked(it) => it.next(),
        }
    }
}

/// A round-based protocol for the synchronous system.
///
/// The simulator drives each alive process through one
/// `broadcast` + `step` pair per round. Implementations must be
/// deterministic functions of `(ctx, state, inbox)` — all nondeterminism
/// (faults, corruption) is injected by the harness, which is what makes
/// recorded histories "consistent with Π" in the paper's sense.
pub trait SyncProtocol {
    /// Per-process protocol state (the paper's `s_p` plus, if maintained,
    /// the distinguished round variable `c_p`).
    type State: Clone + fmt::Debug;
    /// The broadcast payload type.
    type Msg: Clone + fmt::Debug;

    /// A short protocol name for reports.
    fn name(&self) -> &str;

    /// The initial state the protocol *specifies* for process `ctx.me` —
    /// what the state would be absent systemic failures.
    fn init_state(&self, ctx: &ProtocolCtx) -> Self::State;

    /// Whether the process broadcasts this round. Halted processes (e.g. a
    /// terminating protocol past its final round, or the paper's
    /// "self-checking and halting" uniform protocols) return `false`;
    /// staying silent is then protocol behaviour, **not** a send omission.
    fn sends(&self, ctx: &ProtocolCtx, state: &Self::State) -> bool {
        let _ = (ctx, state);
        true
    }

    /// Whether the process has *voluntarily halted* — the behaviour
    /// Assumption 2's uniform protocols exhibit ("halting before doing any
    /// harm"). Recorded in the history so `UniformitySpec` can check the
    /// assumption. Distinct from [`Self::sends`]: a terminating protocol
    /// that merely finished its iteration is not "halted" in this sense.
    fn is_halted(&self, ctx: &ProtocolCtx, state: &Self::State) -> bool {
        let _ = (ctx, state);
        false
    }

    /// The message broadcast at the start of a round, derived from the
    /// current state. Only called when [`Self::sends`] returned `true`.
    fn broadcast(&self, ctx: &ProtocolCtx, state: &Self::State) -> Self::Msg;

    /// The state transition at the end of a round, from the messages
    /// received during the round.
    fn step(&self, ctx: &ProtocolCtx, state: &mut Self::State, inbox: &Inbox<Self::Msg>);

    /// Declares that [`step`](Self::step) reads its inbox *only* through
    /// [`join`](Self::join): it is `step_joined` applied to the join of
    /// the received messages (see [`Inbox::joined`]) — Figure 1's
    /// `c_p := max(R) + 1`. The simulator then joins the broadcasts all
    /// ordinary processes hear alike once per round instead of once per
    /// receiver (DESIGN.md §16); the recorded history is the same either
    /// way. A compile-time constant, `false` by default, so a protocol
    /// that does not declare pays nothing. A declarer takes on two
    /// obligations, for *arbitrary* messages (corrupted and forged ones
    /// included):
    ///
    /// 1. `join` is commutative and associative — the fold's value may
    ///    not depend on the order or grouping of the senders;
    /// 2. `step(ctx, s, inbox)` ≡ `step_joined(ctx, s, &j)` where `j` is
    ///    the join of `inbox`'s messages — the transition may not look at
    ///    who sent what, or at how many messages arrived.
    const JOINS_INBOX: bool = false;

    /// Folds `m` into `acc`: the join of two messages, itself a message.
    /// Called only when [`JOINS_INBOX`](Self::JOINS_INBOX) is declared.
    fn join(&self, acc: &mut Self::Msg, m: &Self::Msg) {
        let _ = (acc, m);
        unreachable!("{} does not declare JOINS_INBOX", self.name());
    }

    /// The state transition from the join of a non-empty inbox. Called
    /// only when [`JOINS_INBOX`](Self::JOINS_INBOX) is declared.
    fn step_joined(&self, ctx: &ProtocolCtx, state: &mut Self::State, joined: &Self::Msg) {
        let _ = (ctx, state, joined);
        unreachable!("{} does not declare JOINS_INBOX", self.name());
    }

    /// The distinguished round variable `c_p`, if this protocol maintains
    /// one. The recorder stores it in the history so Assumption-1 checks
    /// can read it.
    fn round_counter(&self, state: &Self::State) -> Option<RoundCounter> {
        let _ = state;
        None
    }

    /// An *arbitrary forged message*, derived deterministically from
    /// `seed` — what a Byzantine sender may substitute for one copy of its
    /// broadcast. `None` (the default) means the message space is opaque
    /// to the harness and forging adversaries cannot be used with this
    /// protocol (the runner panics if one tries). The forged value must be
    /// a pure function of `seed` so sweeps stay byte-identical across
    /// `--jobs`.
    fn forge_message(&self, seed: u64) -> Option<Self::Msg> {
        let _ = seed;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_core::{Payload, Round};

    #[test]
    fn inbox_lookup_and_order() {
        let inbox = Inbox::new(vec![
            Envelope::new(ProcessId(2), Round::FIRST, "c"),
            Envelope::new(ProcessId(0), Round::FIRST, "a"),
        ]);
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from(ProcessId(0)), Some(&"a"));
        assert_eq!(inbox.from(ProcessId(2)), Some(&"c"));
        assert_eq!(inbox.from(ProcessId(1)), None);
        let senders: Vec<_> = inbox.senders().collect();
        assert_eq!(senders, vec![ProcessId(0), ProcessId(2)]);
        let pairs: Vec<_> = inbox.iter().map(|(p, m)| (p.index(), *m)).collect();
        assert_eq!(pairs, vec![(0, "a"), (2, "c")]);
    }

    /// `from(p)` is the first copy from `p` in inbox order — the fresh
    /// one, else the earliest-held late one — however many copies of one
    /// sender the inbox holds.
    #[test]
    fn from_is_the_first_copy_in_inbox_order() {
        let env = |p, m| Envelope::new(ProcessId(p), Round::FIRST, m);
        // As a node decodes its round frame: fresh copies, then late ones.
        let decoded = vec![
            env(0, "x"),
            env(1, "a"),
            env(2, "y"),
            env(1, "b"),
            env(1, "c"),
        ];
        let inbox = Inbox::new(decoded);
        assert_eq!(inbox.from(ProcessId(1)), Some(&"a"));
        let pairs: Vec<_> = inbox.iter().map(|(p, m)| (p.index(), *m)).collect();
        assert_eq!(pairs, [(0, "x"), (1, "a"), (1, "b"), (1, "c"), (2, "y")]);
        let late_only = Inbox::new(vec![env(0, "x"), env(1, "b"), env(1, "c")]);
        assert_eq!(late_only.from(ProcessId(1)), Some(&"b"));
    }

    /// The view of a frame with late arrivals is the owned inbox of the
    /// same copies: merged in inbox order, counted, and answering `from`
    /// by the same rule — and blind to another receiver's arrivals.
    #[test]
    fn view_merges_late_arrivals_in_inbox_order() {
        use ftss_core::RoundHistory;
        let (n, me) = (5, ProcessId(4));
        let mut frame = RoundHistory::<(), &str>::empty(n);
        for (p, m) in [(0, "x"), (1, "a"), (3, "z"), (4, "me")] {
            frame.set_broadcast(ProcessId(p), Payload::new(m));
            frame.record_delivery(me, ProcessId(p));
        }
        let held = [
            (3, 4, "w"),
            (1, 4, "b"),
            (1, 0, "v"),
            (2, 4, "q"),
            (1, 4, "c"),
        ];
        for (from, to, m) in held {
            frame.record_late(ProcessId(from), ProcessId(to), Payload::new(m));
        }
        let view = Inbox::from_deliveries(frame.msgs().deliveries(me));
        let want = [
            (0, "x"),
            (1, "a"),
            (1, "b"),
            (1, "c"),
            (2, "q"),
            (3, "z"),
            (3, "w"),
            (4, "me"),
        ];
        let pairs: Vec<_> = view.iter().map(|(p, m)| (p.index(), *m)).collect();
        assert_eq!(pairs, want);
        assert_eq!(view.len(), want.len());
        let fresh = [(0, "x"), (1, "a"), (3, "z"), (4, "me")];
        let late = held.iter().filter(|c| c.1 == 4).map(|&(p, _, m)| (p, m));
        let envelopes = fresh.into_iter().chain(late);
        let owned = Inbox::new(
            envelopes
                .map(|(p, m)| Envelope::new(ProcessId(p), Round::FIRST, m))
                .collect(),
        );
        assert!(view.iter().eq(owned.iter()));
        for p in (0..n).map(ProcessId) {
            assert_eq!(view.from(p), owned.from(p), "{p}");
        }
        assert_eq!(view.from(ProcessId(2)), Some(&"q"));
    }

    /// A masked inbox is the owned inbox of the copies it keeps,
    /// projected: over a frame view with forged and late copies, over an
    /// owned inbox, and masked twice — iteration, `len` and `from`.
    #[test]
    fn masked_view_is_the_owned_inbox_of_the_kept_copies() {
        use ftss_core::RoundHistory;
        use ftss_rng::check::{forall, Gen};
        use ftss_rng::Rng;
        fn same<M: PartialEq + fmt::Debug>(view: &Inbox<M>, owned: &Inbox<M>, n: usize) {
            assert_eq!(
                view.iter().collect::<Vec<_>>(),
                owned.iter().collect::<Vec<_>>()
            );
            assert_eq!(view.len(), owned.len());
            for p in (0..n + 2).map(ProcessId) {
                assert_eq!(view.from(p), owned.from(p), "{p}");
            }
        }
        fn kept<M: Clone>(inbox: &Inbox<(u64, M)>, hidden: &ProcessSet) -> Inbox<'static, M> {
            let copies = inbox.iter().filter(|(q, _)| !hidden.contains(*q));
            let copies = copies.map(|(q, m)| Envelope::new(q, Round::FIRST, m.1.clone()));
            Inbox::new(copies.collect())
        }
        fn second(m: &(u64, u64)) -> &u64 {
            &m.1
        }
        fn itself(m: &(u64, u64)) -> &(u64, u64) {
            m
        }
        forall(300, |g: &mut Gen| {
            let (n, me) = (g.gen_range(1..=70usize), ProcessId(0));
            let mut frame = RoundHistory::<(), (u64, u64)>::empty(n);
            for p in (0..n).map(ProcessId) {
                frame.set_broadcast(p, Payload::new((g.gen(), g.gen_range(0..9))));
                match g.gen_range(0..6u32) {
                    0 => {}
                    1 => frame.record_forged(p, me, Payload::new((g.gen(), g.gen_range(0..9)))),
                    _ => frame.record_delivery(me, p),
                }
            }
            for _ in 0..g.gen_range(0..5usize) {
                let from = ProcessId(g.gen_range(0..n));
                frame.record_late(from, me, Payload::new((g.gen(), g.gen_range(0..9))));
            }
            let hidden =
                ProcessSet::from_iter_n(n, (0..n).filter(|_| g.gen_bool(0.3)).map(ProcessId));
            let view = Inbox::from_deliveries(frame.msgs().deliveries(me));
            let copies = view.iter().map(|(q, m)| Envelope::new(q, Round::FIRST, *m));
            let owned = Inbox::new(copies.collect());
            for inbox in [&view, &owned] {
                let want = kept(inbox, &hidden);
                inbox.masked(Some(&hidden), second, |masked| same(masked, &want, n));
                let none = ProcessSet::empty(n);
                inbox.masked(None, second, |masked| same(masked, &kept(inbox, &none), n));
                // Masked twice: the first mask's survivors, masked again.
                let again = ProcessSet::from_iter_n(n, (0..n).step_by(3).map(ProcessId));
                let both = hidden.union(&again);
                inbox.masked(Some(&hidden), itself, |once| {
                    once.masked(Some(&again), second, |twice| {
                        same(twice, &kept(inbox, &both), n);
                    });
                });
            }
        });
    }

    #[test]
    fn empty_inbox() {
        let inbox: Inbox<u8> = Inbox::new(vec![]);
        assert!(inbox.is_empty());
        assert_eq!(inbox.from(ProcessId(0)), None);
    }

    #[test]
    fn ctx_all() {
        let ctx = ProtocolCtx::new(ProcessId(1), 3);
        let ids: Vec<_> = ctx.all().map(|p| p.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
