//! The round-based protocol interface.
//!
//! A round of the paper's synchronous model has two halves: *at the start*
//! of the round every process broadcasts a message derived from its current
//! state; *at the end* of the round it updates its state from the messages
//! it received. [`SyncProtocol`] mirrors this exactly with
//! [`SyncProtocol::broadcast`] and [`SyncProtocol::step`].

use ftss_core::{DeliveredIter, Deliveries, Envelope, Payload, ProcessId, RoundCounter};
use std::fmt;
use std::iter::Peekable;

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
/// An inbox either owns its envelopes ([`Inbox::new`]) or views one
/// receiver's deliveries in the round's frame
/// ([`Inbox::from_deliveries`]) — the view form is what the simulator hot
/// loop hands each process: no envelopes exist at all, just delivery bits
/// plus one shared payload per sender, and the frame's late arrivals.
#[derive(Clone, Debug)]
pub struct Inbox<'a, M> {
    storage: Storage<'a, M>,
}

#[derive(Clone, Debug)]
enum Storage<'a, M> {
    Owned(Vec<Envelope<M>>),
    View(Deliveries<'a, M>),
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

    /// The first copy from `p` in inbox order: the fresh copy if one
    /// arrived this round, else the earliest-held late one.
    pub fn from(&self, p: ProcessId) -> Option<&M> {
        match &self.storage {
            Storage::Owned(v) => {
                let first = v.partition_point(|e| e.src < p);
                v.get(first).filter(|e| e.src == p).map(|e| &*e.payload)
            }
            Storage::View(d) => d
                .get(p)
                .or_else(|| d.late().find(|&(src, _)| src == p).map(|(_, m)| m))
                .map(|payload| &**payload),
        }
    }

    /// Iterates `(sender, payload)` in inbox order.
    pub fn iter(&self) -> InboxIter<'_, M> {
        InboxIter {
            inner: match &self.storage {
                Storage::Owned(v) => InboxIterInner::Slice(v.iter()),
                Storage::View(d) => match d.late().map(|(src, _)| src).min() {
                    None => InboxIterInner::View(d.iter()),
                    next_late => InboxIterInner::Merged(Merged {
                        fresh: d.iter().peekable(),
                        deliveries: *d,
                        next_late,
                        run: None,
                    }),
                },
            },
        }
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
    View(DeliveredIter<'a, M>),
    Merged(Merged<'a, M>),
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (ProcessId, &'a M);

    fn next(&mut self) -> Option<(ProcessId, &'a M)> {
        match &mut self.inner {
            InboxIterInner::Slice(it) => it.next().map(|e| (e.src, &*e.payload)),
            InboxIterInner::View(it) => it.next().map(|(p, payload)| (p, &**payload)),
            InboxIterInner::Merged(it) => it.next().map(|(p, payload)| (p, &**payload)),
        }
    }
}

/// A receiver's fresh deliveries with its late arrivals merged in, in
/// inbox order, without buffering: the receiver's late arrivals are
/// rescanned once per late copy.
#[derive(Clone, Debug)]
struct Merged<'a, M> {
    fresh: Peekable<DeliveredIter<'a, M>>,
    deliveries: Deliveries<'a, M>,
    /// The smallest sender with a late copy not yet yielded.
    next_late: Option<ProcessId>,
    /// The sender whose late copies are being yielded, and how many of
    /// them were.
    run: Option<(ProcessId, usize)>,
}

impl<'a, M> Iterator for Merged<'a, M> {
    type Item = (ProcessId, &'a Payload<M>);

    fn next(&mut self) -> Option<Self::Item> {
        if let Some((s, k)) = self.run.take() {
            let mut from_s = self.deliveries.late().filter(|&(src, _)| src == s);
            if let Some(copy) = from_s.nth(k) {
                self.run = Some((s, k + 1));
                return Some(copy);
            }
            let later = self.deliveries.late().map(|(src, _)| src);
            self.next_late = later.filter(|&src| src > s).min();
        }
        let fresh = self.fresh.peek().map(|&(src, _)| src);
        // A sender's fresh copy goes first: its late ones start a run
        // once the fresh row has moved past it.
        if let Some(l) = self.next_late.filter(|&l| fresh.is_none_or(|f| l < f)) {
            self.run = Some((l, 0));
            return self.next();
        }
        self.fresh.next()
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
    use ftss_core::Round;

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
