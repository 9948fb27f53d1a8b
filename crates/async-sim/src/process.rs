//! The asynchronous process interface.

use crate::runner::Time;
use ftss_core::{Payload, ProcessId};

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
    /// The message is borrowed: every copy of a broadcast is delivered
    /// from the one allocation [`Ctx::broadcast`] made, so the runner
    /// clones nothing per delivery. A handler that keeps (part of) a
    /// message clones exactly what it keeps.
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
    pub(crate) sends: Vec<(ProcessId, Payload<M>)>,
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
        self.sends.push((to, Payload::new(msg)));
    }

    /// Sends `msg` to every process, itself included (the paper's
    /// protocols assume a process receives its own broadcasts). The `n`
    /// buffered copies share one [`Payload`] allocation; the runner keeps
    /// the sharing through its event queue and lends it to each receiver
    /// ([`AsyncProcess::on_message`]), so a broadcast is never cloned
    /// between here and delivery.
    pub fn broadcast(&mut self, msg: M) {
        let payload = Payload::new(msg);
        for i in 0..self.n {
            self.sends.push((ProcessId(i), payload.clone()));
        }
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
    /// types along the way. Messages are unwrapped from their shared
    /// payloads (cloning only copies that are still shared), since the
    /// caller re-wraps them after translation.
    #[allow(clippy::type_complexity)] // a (sends, timers) pair, destructured at every call site
    pub fn take_effects(&mut self) -> (Vec<(ProcessId, M)>, Vec<(Time, u64)>) {
        (
            self.sends.drain(..).map(|(to, m)| (to, m.take())).collect(),
            std::mem::take(&mut self.timers),
        )
    }

    /// Re-targets a (drained) context for reuse by the runner's dispatch
    /// loop, avoiding a fresh `Ctx` allocation per handler invocation.
    pub(crate) fn reset(&mut self, me: ProcessId, now: Time) {
        debug_assert!(self.sends.is_empty() && self.timers.is_empty());
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
        ctx.set_timer(10, 42);
        assert_eq!(ctx.sends.len(), 4);
        assert_eq!(ctx.sends[0].0, ProcessId(0));
        assert_eq!(ctx.sends[0].1, 9);
        // The broadcast copies share one payload allocation.
        assert!(ctx.sends[1].1.shares_with(&ctx.sends[3].1));
        assert_eq!(ctx.timers, vec![(60, 42)]);
        let (sends, timers) = ctx.take_effects();
        assert_eq!(
            sends,
            vec![
                (ProcessId(0), 9),
                (ProcessId(0), 7),
                (ProcessId(1), 7),
                (ProcessId(2), 7)
            ]
        );
        assert_eq!(timers, vec![(60, 42)]);
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
