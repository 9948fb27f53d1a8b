//! The asynchronous process interface.

use crate::runner::Time;
use ftss_core::ProcessId;

/// An event-driven process in the asynchronous system.
///
/// Handlers receive a [`Ctx`] through which they send messages and arm
/// timers. All effects are buffered and applied by the runner after the
/// handler returns, with seeded delays.
pub trait AsyncProcess {
    /// The message type exchanged by this protocol.
    type Msg: Clone + std::fmt::Debug;

    /// Called once at virtual time 0 to arm the protocol's timers and send
    /// any unconditional first messages.
    ///
    /// For *self-stabilizing* protocols this must not be treated as state
    /// initialization: the process state may have been corrupted before
    /// `on_start` runs, and the protocol must work regardless. Arming
    /// periodic timers here is legitimate — timers model the paper's
    /// `when true:` forever-guards, which are program text, not state.
    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>);

    /// A message from `from` arrives.
    ///
    /// The message is borrowed: the runner keeps each sent message once,
    /// in a slot of its message arena, and lends every copy of a
    /// broadcast from that slot, so it clones nothing per delivery. A
    /// handler that keeps (part of) a message clones exactly what it
    /// keeps.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: ProcessId, msg: &Self::Msg);

    /// A timer armed with `tag` fires.
    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, tag: u64);
}

/// The effect buffer handed to process handlers.
///
/// # Example
///
/// ```
/// use ftss_async_sim::{AsyncProcess, Ctx};
/// use ftss_core::ProcessId;
///
/// struct Echo;
/// impl AsyncProcess for Echo {
///     type Msg = u32;
///     fn on_start(&mut self, ctx: &mut Ctx<u32>) {
///         ctx.set_timer(100, 0);
///     }
///     fn on_message(&mut self, ctx: &mut Ctx<u32>, from: ProcessId, msg: &u32) {
///         ctx.send(from, msg + 1);
///     }
///     fn on_timer(&mut self, ctx: &mut Ctx<u32>, _tag: u64) {
///         ctx.broadcast(0);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct Ctx<M> {
    me: ProcessId,
    n: usize,
    now: Time,
    /// Every message sent, once each, in send order.
    pub(crate) msgs: Vec<M>,
    /// Every copy, in send order: its receiver and its message's index in
    /// `msgs`. The copies of one message are adjacent.
    pub(crate) sends: Vec<(ProcessId, u32)>,
    pub(crate) timers: Vec<(Time, u64)>,
}

impl<M: Clone> Ctx<M> {
    /// Creates a detached context — useful for driving a handler directly
    /// in unit tests. Inside a run the runner constructs contexts itself
    /// and applies the buffered effects; effects buffered in a detached
    /// context go nowhere.
    pub fn new(me: ProcessId, n: usize, now: Time) -> Self {
        Ctx {
            me,
            n,
            now,
            msgs: Vec::new(),
            sends: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The executing process's identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to` (including `to == me`, which is delivered like
    /// any other message).
    pub fn send(&mut self, to: ProcessId, msg: M) {
        let k = self.push_msg(msg);
        self.sends.push((to, k));
    }

    /// Sends `msg` to every process, itself included (the paper's
    /// protocols assume a process receives its own broadcasts). The
    /// message is buffered once, with `n` copies naming it; the runner
    /// moves it into one slot of its message arena and lends it from
    /// there to each receiver ([`AsyncProcess::on_message`]), so a
    /// broadcast is never cloned between here and delivery.
    pub fn broadcast(&mut self, msg: M) {
        let k = self.push_msg(msg);
        self.sends.extend((0..self.n).map(|i| (ProcessId(i), k)));
    }

    /// Buffers `msg` and returns its index in `msgs`.
    fn push_msg(&mut self, msg: M) -> u32 {
        let k = u32::try_from(self.msgs.len()).expect("fewer than 2^32 messages per handler call");
        self.msgs.push(msg);
        k
    }

    /// Arms a timer to fire `delay` time units from now, delivering `tag`
    /// to [`AsyncProcess::on_timer`].
    pub fn set_timer(&mut self, delay: Time, tag: u64) {
        self.timers
            .push((self.now.saturating_add(delay.max(1)), tag));
    }

    /// Arms a timer at an absolute virtual time (clamped to be strictly in
    /// the future, saturating at `Time::MAX`). Used when forwarding effects
    /// from an embedded component's context.
    pub fn set_timer_at(&mut self, at: Time, tag: u64) {
        self.timers.push((at.max(self.now.saturating_add(1)), tag));
    }

    /// Drains the buffered effects: `(sends, timers)` with absolute timer
    /// times. Composite processes use this to forward an embedded
    /// component's effects into their own context, translating message
    /// types along the way. Every copy comes out as its own message, in
    /// send order: a message is cloned for each of its copies but the
    /// last, which takes it.
    #[allow(clippy::type_complexity)] // a (sends, timers) pair, destructured at every call site
    pub fn take_effects(&mut self) -> (Vec<(ProcessId, M)>, Vec<(Time, u64)>) {
        let mut msgs: Vec<Option<M>> = self.msgs.drain(..).map(Some).collect();
        let mut sends = self.sends.drain(..).peekable();
        let mut out = Vec::with_capacity(sends.len());
        while let Some((to, k)) = sends.next() {
            let slot = &mut msgs[k as usize];
            let msg = if sends.peek().is_some_and(|&(_, next)| next == k) {
                slot.clone()
            } else {
                slot.take()
            };
            out.push((to, msg.expect("only a message's last copy takes it")));
        }
        (out, std::mem::take(&mut self.timers))
    }

    /// Re-targets a (drained) context for reuse by the runner's dispatch
    /// loop, avoiding a fresh `Ctx` allocation per handler invocation.
    pub(crate) fn reset(&mut self, me: ProcessId, now: Time) {
        debug_assert!(self.msgs.is_empty() && self.sends.is_empty() && self.timers.is_empty());
        self.me = me;
        self.now = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_effects() {
        let mut ctx: Ctx<u8> = Ctx::new(ProcessId(1), 3, 50);
        assert_eq!(ctx.me(), ProcessId(1));
        assert_eq!(ctx.n(), 3);
        assert_eq!(ctx.now(), 50);
        ctx.send(ProcessId(0), 9);
        ctx.broadcast(7);
        ctx.send(ProcessId(2), 5);
        ctx.set_timer(10, 42);
        // Each message is buffered once; the broadcast's three copies name
        // the one message, and send order is copy order.
        assert_eq!(ctx.msgs, vec![9, 7, 5]);
        assert_eq!(
            ctx.sends,
            vec![
                (ProcessId(0), 0),
                (ProcessId(0), 1),
                (ProcessId(1), 1),
                (ProcessId(2), 1),
                (ProcessId(2), 2)
            ]
        );
        assert_eq!(ctx.timers, vec![(60, 42)]);
        let (sends, timers) = ctx.take_effects();
        assert_eq!(
            sends,
            vec![
                (ProcessId(0), 9),
                (ProcessId(0), 7),
                (ProcessId(1), 7),
                (ProcessId(2), 7),
                (ProcessId(2), 5)
            ]
        );
        assert_eq!(timers, vec![(60, 42)]);
        assert!(ctx.msgs.is_empty() && ctx.sends.is_empty() && ctx.timers.is_empty());
    }

    /// `take_effects` clones a message for every copy but its last, which
    /// takes it.
    #[test]
    fn take_effects_moves_each_message_into_its_last_copy() {
        use std::cell::Cell;
        use std::rc::Rc;
        #[derive(Debug)]
        struct Counted(Rc<Cell<u32>>, u8);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.set(self.0.get() + 1);
                Counted(Rc::clone(&self.0), self.1)
            }
        }
        let clones = Rc::new(Cell::new(0));
        let mut ctx: Ctx<Counted> = Ctx::new(ProcessId(0), 4, 0);
        ctx.send(ProcessId(3), Counted(Rc::clone(&clones), 1));
        ctx.broadcast(Counted(Rc::clone(&clones), 2));
        ctx.send(ProcessId(1), Counted(Rc::clone(&clones), 3));
        assert_eq!(clones.get(), 0);
        let (sends, _) = ctx.take_effects();
        let got: Vec<(usize, u8)> = sends.iter().map(|(to, m)| (to.index(), m.1)).collect();
        assert_eq!(got, vec![(3, 1), (0, 2), (1, 2), (2, 2), (3, 2), (1, 3)]);
        assert_eq!(
            clones.get(),
            3,
            "n - 1 clones for the broadcast, none for a send"
        );
    }

    #[test]
    fn zero_delay_timer_still_advances() {
        let mut ctx: Ctx<u8> = Ctx::new(ProcessId(0), 1, 5);
        ctx.set_timer(0, 1);
        assert_eq!(
            ctx.timers[0].0, 6,
            "timers must not fire at the same instant"
        );
    }
}
