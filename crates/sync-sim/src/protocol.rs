//! The round-based protocol interface.
//!
//! A round of the paper's synchronous model has two halves: *at the start*
//! of the round every process broadcasts a message derived from its current
//! state; *at the end* of the round it updates its state from the messages
//! it received. [`SyncProtocol`] mirrors this exactly with
//! [`SyncProtocol::broadcast`] and [`SyncProtocol::step`].

use ftss_core::{DeliveredIter, Deliveries, Envelope, ProcessId, RoundCounter};
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
/// At most one message per sender arrives per round (each round is one
/// broadcast). A process always receives its own broadcast (paper
/// footnote 1), so `from(ctx.me)` is always `Some` at an alive process.
///
/// An inbox either owns its envelopes ([`Inbox::new`]) or views one
/// receiver's delivered row in the round's frame
/// ([`Inbox::from_deliveries`]) — the view form is what the simulator hot
/// loop hands each process: no envelopes exist at all, just delivery bits
/// plus one shared payload per sender.
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
    /// Wraps the delivered envelopes of one round, sorting by sender.
    pub fn new(mut messages: Vec<Envelope<M>>) -> Self {
        messages.sort_by_key(|e| e.src);
        Inbox {
            storage: Storage::Owned(messages),
        }
    }

    /// Views one receiver's deliveries straight out of a round's message
    /// frame ([`ftss_core::RoundMsgs`]); `from` becomes a bit test.
    pub fn from_deliveries(deliveries: Deliveries<'a, M>) -> Self {
        Inbox {
            storage: Storage::View(deliveries),
        }
    }

    /// The payload received from `p` this round, if any.
    pub fn from(&self, p: ProcessId) -> Option<&M> {
        match &self.storage {
            Storage::Owned(v) => v
                .binary_search_by_key(&p, |e| e.src)
                .ok()
                .map(|i| &*v[i].payload),
            Storage::View(d) => d.get(p).map(|payload| &**payload),
        }
    }

    /// Iterates `(sender, payload)` in sender order.
    pub fn iter(&self) -> InboxIter<'_, M> {
        InboxIter {
            inner: match &self.storage {
                Storage::Owned(v) => InboxIterInner::Slice(v.iter()),
                Storage::View(d) => InboxIterInner::View(d.iter()),
            },
        }
    }

    /// The senders heard from this round, in order.
    pub fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// Number of messages received.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Owned(v) => v.len(),
            Storage::View(d) => d.len(),
        }
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The inbox read the only way a protocol declaring
    /// [`SyncProtocol::JOINS_INBOX`] may read it: every received message
    /// folded into one by the protocol's [`join`](SyncProtocol::join), in
    /// sender order; `None` if nothing was received. Such a protocol's
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

/// Iterator over an [`Inbox`]'s `(sender, payload)` pairs in sender order.
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    inner: InboxIterInner<'a, M>,
}

#[derive(Clone, Debug)]
enum InboxIterInner<'a, M> {
    Slice(std::slice::Iter<'a, Envelope<M>>),
    View(DeliveredIter<'a, M>),
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (ProcessId, &'a M);

    fn next(&mut self) -> Option<(ProcessId, &'a M)> {
        match &mut self.inner {
            InboxIterInner::Slice(it) => it.next().map(|e| (e.src, &*e.payload)),
            InboxIterInner::View(it) => it.next().map(|(p, payload)| (p, &**payload)),
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
