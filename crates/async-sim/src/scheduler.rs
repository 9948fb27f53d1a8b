//! The scheduler seam: who decides message delays and event order.
//!
//! [`AsyncRunner`](crate::AsyncRunner) is parameterized by a [`Scheduler`],
//! which owns the event queue and the two nondeterministic choices of the
//! asynchronous model:
//!
//! 1. **delay assignment** — what delay a freshly sent message gets, and
//! 2. **dispatch order** — which pending event is consumed next.
//!
//! Three implementations cover the repo's needs:
//!
//! * [`RandomScheduler`] — the historical behaviour, bit for bit: a seeded
//!   uniform delay per send and events dispatched in `(time, seq)` order.
//!   Every existing entry point uses it by default, so extracting the seam
//!   changed no byte of any recorded trace.
//! * [`DfsScheduler`] — exhaustive enumeration of dispatch orders for the
//!   model checker (`ftss-check`): an iterative depth-first search over
//!   "which pending event goes next", driven by an explicit choice stack —
//!   no recursion, no randomness, bounded by an event horizon.
//! * [`AdversaryScheduler`] — a worst-case delay assigner for systems too
//!   large to enumerate: every message touching a target set is slowed to
//!   the maximum admissible delay while the rest of the system sprints.
//!
//! Fairness note: all three schedulers eventually dispatch every pushed
//! event (the DFS within its step bound), preserving the no-message-loss
//! guarantee the ◇-properties rely on.

use crate::runner::{AsyncConfig, Time};
use ftss_core::{Payload, ProcessId};
use ftss_rng::Rng;
use ftss_rng::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A queued event: a message awaiting delivery or an armed timer.
#[derive(Clone, Debug)]
pub struct Pending<M> {
    /// Scheduled dispatch time.
    pub time: Time,
    /// Tie-breaker: insertion order (strictly increasing per run).
    pub seq: u64,
    /// What happens on dispatch.
    pub kind: PendingKind<M>,
}

/// The payload of a [`Pending`] event.
#[derive(Clone, Debug)]
pub enum PendingKind<M> {
    /// Deliver `msg` from `from` to `to`.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Shared with the other copies of the originating broadcast: a
        /// queued broadcast holds one message allocation, not `n`.
        msg: Payload<M>,
    },
    /// Fire timer `tag` at process `p`.
    Timer {
        /// The process whose timer fires.
        p: ProcessId,
        /// The tag passed back to `on_timer`.
        tag: u64,
    },
}

// Identity and order are `(time, seq)` only — `seq` is unique per run, so
// this is a total order and `M` needs no `Eq` bound (which the runner used
// to demand of every message type).
impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<M> Eq for Pending<M> {}

impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The runner's source of delays and event order.
///
/// The runner calls [`Scheduler::delay`] once per send (in send order),
/// pushes the resulting event, and repeatedly pops until the scheduler is
/// exhausted or the horizon is reached. Virtual time is clamped monotone by
/// the runner (`now = max(now, event.time)`), so a scheduler may legally
/// dispatch events "out of time order" — that is exactly what the DFS
/// explores.
pub trait Scheduler<M> {
    /// The delay to assign to a message sent `from → to` at time `now`.
    /// Must be at least 1 (no zero-delay delivery loops).
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, from: ProcessId, to: ProcessId) -> Time;

    /// Accepts a new pending event.
    fn push(&mut self, ev: Pending<M>);

    /// Yields the next event to dispatch, or `None` when the run is over
    /// (queue empty, or an exploration bound was hit).
    fn pop(&mut self) -> Option<Pending<M>>;

    /// The scheduled time of the event [`Scheduler::pop`] would yield.
    fn peek_time(&self) -> Option<Time>;

    /// Whether to replace the copy `from → to` sent at `now` with a forged
    /// payload: `Some(seed)` makes the runner substitute the message the
    /// process type derives from `seed` (see
    /// [`AsyncProcess::forge_message`](crate::AsyncProcess::forge_message));
    /// the runner panics if the process type leaves that hook unimplemented.
    ///
    /// Consulted exactly once per send copy, immediately after
    /// [`Scheduler::delay`], in send order — the same traffic-determined
    /// consultation discipline that keeps the synchronous Byzantine
    /// adversary's RNG stream independent of its own outcomes. The default
    /// never forges.
    fn forge(&mut self, now: Time, from: ProcessId, to: ProcessId) -> Option<u64> {
        let _ = (now, from, to);
        None
    }
}

/// How many virtual instants, from the queue's base on, get a bucket of
/// their own in [`EventQueue`]'s ring — one bit each in its occupancy
/// word.
const RING: Time = 64;

/// The time-ordered event queue of [`RandomScheduler`] and
/// [`AdversaryScheduler`]: pops in exactly `(time, seq)` order, whatever
/// the push order.
///
/// A ring of per-instant buckets covers the `RING` instants from `base`
/// on; each bucket is kept sorted by `seq`, and an occupancy word marks
/// the non-empty ones, so the ring's front is one rotate and one
/// trailing-zeros count away. Anything outside the window at push time
/// (later, or — never from the runner — earlier than `base`) goes to an
/// overflow heap, and `pop` takes the smaller of the ring's front and the
/// heap's top. `base` follows the popped times, so with delays and timer
/// periods under `RING` every event lands in the ring, and push and pop
/// are O(1): the runner's seqs arrive in increasing order, so a push
/// appends to its bucket.
#[derive(Debug)]
struct EventQueue<M> {
    /// `ring[t % RING]` holds the events at instant `t`, for
    /// `base <= t < base + RING`, sorted by `seq`.
    ring: Vec<VecDeque<Pending<M>>>,
    /// Bit `i` is set iff `ring[i]` is non-empty.
    occupied: u64,
    /// The first instant the ring covers: no ring event is earlier.
    base: Time,
    /// Events that were outside the ring's window when pushed.
    overflow: BinaryHeap<Reverse<Pending<M>>>,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            base: 0,
            overflow: BinaryHeap::new(),
        }
    }

    fn push(&mut self, ev: Pending<M>) {
        // `ev.time - base` rather than `base + RING`: no overflow near
        // `Time::MAX`.
        if ev.time < self.base || ev.time - self.base >= RING {
            self.overflow.push(Reverse(ev));
            return;
        }
        let i = (ev.time % RING) as usize;
        let bucket = &mut self.ring[i];
        if bucket.back().is_none_or(|last| last.seq < ev.seq) {
            bucket.push_back(ev);
        } else {
            let at = bucket.partition_point(|e| e.seq < ev.seq);
            bucket.insert(at, ev);
        }
        self.occupied |= 1 << i;
    }

    /// The ring's earliest bucket and its instant.
    fn ring_front(&self) -> Option<(usize, Time)> {
        let ahead = self.occupied.rotate_right((self.base % RING) as u32);
        (ahead != 0).then(|| {
            let t = self.base + Time::from(ahead.trailing_zeros());
            ((t % RING) as usize, t)
        })
    }

    fn pop(&mut self) -> Option<Pending<M>> {
        // The ring's front, unless the overflow heap's top comes first.
        let front = self.ring_front().filter(|&(i, t)| {
            self.overflow
                .peek()
                .is_none_or(|Reverse(top)| (t, self.ring[i][0].seq) < (top.time, top.seq))
        });
        let ev = match front {
            Some((i, _)) => {
                let bucket = &mut self.ring[i];
                let ev = bucket.pop_front().expect("occupied bucket");
                if bucket.is_empty() {
                    self.occupied &= !(1 << i);
                }
                ev
            }
            None => self.overflow.pop()?.0,
        };
        // `ev` was the minimum, so every remaining ring event is at or
        // after it: the window may slide forward to it.
        self.base = self.base.max(ev.time);
        Some(ev)
    }

    fn peek_time(&self) -> Option<Time> {
        let ring = self.ring_front().map(|(_, t)| t);
        let heap = self.overflow.peek().map(|Reverse(e)| e.time);
        ring.into_iter().chain(heap).min()
    }
}

/// The admissible maximum delay at `now` under `cfg` (pre- vs post-GST).
fn max_delay_at(cfg: &AsyncConfig, now: Time) -> Time {
    if now >= cfg.gst {
        cfg.max_delay
    } else {
        cfg.pre_gst_max_delay
    }
}

/// The historical seeded-random scheduler: uniform delays in
/// `min_delay..=max` drawn from a [`StdRng`] seeded with `cfg.seed`, events
/// dispatched in `(time, seq)` order.
///
/// This reproduces the pre-seam `AsyncRunner` behaviour exactly — same RNG
/// stream, same draw order (one draw per send, none per timer), same
/// dispatch order — so seeds, recorded traces, and EXPERIMENTS.md rows are
/// unchanged.
#[derive(Debug)]
pub struct RandomScheduler<M> {
    queue: EventQueue<M>,
    rng: StdRng,
}

impl<M> RandomScheduler<M> {
    /// A scheduler seeded from `cfg.seed`.
    pub fn for_config(cfg: &AsyncConfig) -> Self {
        RandomScheduler {
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
        }
    }
}

impl<M> Scheduler<M> for RandomScheduler<M> {
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, _from: ProcessId, _to: ProcessId) -> Time {
        let max = max_delay_at(cfg, now);
        self.rng.gen_range(cfg.min_delay..=max).max(1)
    }

    fn push(&mut self, ev: Pending<M>) {
        self.queue.push(ev);
    }

    fn pop(&mut self) -> Option<Pending<M>> {
        self.queue.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }
}

/// Exhaustive dispatch-order enumeration for the model checker.
///
/// Every [`pop`](Scheduler::pop) is a *choice point*: any of the currently
/// pending events may go next. The scheduler records each choice on an
/// explicit stack of `(chosen, alternatives)` pairs; one run follows the
/// stack as a prefix (replaying earlier choices) and extends it with
/// first-alternative choices past the end. After the run,
/// [`advance`](DfsScheduler::advance) increments the stack like an odometer
/// — bump the deepest choice point that still has untried alternatives,
/// discard everything below — giving an iterative, recursion-free DFS over
/// all dispatch interleavings.
///
/// The tree is kept finite by `max_steps`: a run dispatches at most that
/// many events (the *event horizon*), after which `pop` returns `None`.
/// Delays are irrelevant to the exploration (order is chosen directly), so
/// `delay` returns the minimum admissible value and virtual time merely
/// stays monotone.
#[derive(Debug)]
pub struct DfsScheduler<M> {
    /// Events not yet dispatched in the current run, in insertion order.
    pending: Vec<Pending<M>>,
    /// The choice stack: `(index chosen, alternatives available)` at each
    /// dispatch, in dispatch order. With partial-order reduction on, the
    /// index counts over *awake* candidates only.
    stack: Vec<(usize, usize)>,
    /// How many choices of `stack` the current run has consumed.
    depth: usize,
    /// Maximum dispatches per run (the event horizon).
    max_steps: usize,
    /// Sleep-set partial-order reduction (see [`DfsScheduler::with_por`]).
    por: bool,
    /// Seqs of pending events proven redundant at the current node: each
    /// commutes with everything dispatched since it was enabled, so an
    /// already-explored sibling branch covers its interleavings.
    sleep: Vec<u64>,
}

impl<M> DfsScheduler<M> {
    /// A DFS scheduler that dispatches at most `max_steps` events per run.
    pub fn new(max_steps: usize) -> Self {
        DfsScheduler {
            pending: Vec::new(),
            stack: Vec::new(),
            depth: 0,
            max_steps,
            por: false,
            sleep: Vec::new(),
        }
    }

    /// Enables sleep-set partial-order reduction: two deliveries commute
    /// iff they dispatch to *different* destination processes (each only
    /// mutates its destination's state), so after fully exploring the
    /// branch that dispatches event `e` first, `e` is put to sleep in the
    /// later sibling branches and stays asleep until some dependent event
    /// — one with `e`'s destination — is dispatched. A run in which every
    /// pending event sleeps is *pruned*: its continuations are permutations
    /// of runs already explored (see [`DfsScheduler::was_pruned`]).
    #[must_use]
    pub fn with_por(mut self) -> Self {
        self.por = true;
        self
    }

    /// Whether the run just finished was cut short by the sleep set
    /// (possible only under [`with_por`](DfsScheduler::with_por)): events
    /// remain pending inside the horizon but every one of them sleeps.
    /// Pruned runs end mid-flight, so per-run oracles must skip them —
    /// every complete interleaving they abbreviate has its own complete
    /// representative elsewhere in the tree. Computed from the queue, not
    /// a flag, because a run can end at either [`Scheduler::pop`] or
    /// [`Scheduler::peek_time`] seeing the all-asleep queue.
    pub fn was_pruned(&self) -> bool {
        self.por
            && self.depth < self.max_steps
            && !self.pending.is_empty()
            && self.pending.iter().all(|e| self.sleep.contains(&e.seq))
    }

    /// Moves to the next unexplored schedule. Returns `false` when the
    /// whole tree has been enumerated. The caller must start a fresh run
    /// (fresh processes, fresh runner) after each successful `advance`.
    pub fn advance(&mut self) -> bool {
        self.pending.clear();
        self.sleep.clear();
        self.depth = 0;
        while let Some((chosen, alts)) = self.stack.pop() {
            if chosen + 1 < alts {
                self.stack.push((chosen + 1, alts));
                return true;
            }
        }
        false
    }

    /// The choice stack of the schedule just run: the sequence of
    /// `(chosen, alternatives)` decisions, in dispatch order. A schedule is
    /// fully identified by its chosen indices.
    pub fn choices(&self) -> &[(usize, usize)] {
        &self.stack
    }
}

/// The process whose state an event's dispatch mutates.
fn event_dest<M>(kind: &PendingKind<M>) -> ProcessId {
    match kind {
        PendingKind::Deliver { to, .. } => *to,
        PendingKind::Timer { p, .. } => *p,
    }
}

impl<M> Scheduler<M> for DfsScheduler<M> {
    fn delay(&mut self, cfg: &AsyncConfig, _now: Time, _from: ProcessId, _to: ProcessId) -> Time {
        cfg.min_delay.max(1)
    }

    fn push(&mut self, ev: Pending<M>) {
        self.pending.push(ev);
    }

    fn pop(&mut self) -> Option<Pending<M>> {
        if self.pending.is_empty() || self.depth >= self.max_steps {
            return None;
        }
        // Awake candidates, in insertion order. Without POR the sleep set
        // is always empty, so this is just `0..pending.len()`.
        let candidates: Vec<usize> = (0..self.pending.len())
            .filter(|&i| !self.sleep.contains(&self.pending[i].seq))
            .collect();
        if candidates.is_empty() {
            // Everything pending sleeps: this continuation is a reordering
            // of commuting dispatches already explored elsewhere.
            return None;
        }
        let chosen = if self.depth < self.stack.len() {
            // Replaying the prefix of an earlier schedule. The run up to
            // this point is deterministic, so the alternative count must
            // match what was recorded.
            debug_assert_eq!(self.stack[self.depth].1, candidates.len());
            self.stack[self.depth].0
        } else {
            self.stack.push((0, candidates.len()));
            0
        };
        self.depth += 1;
        // `remove` keeps the insertion order of the untouched events, so
        // choice indices have a stable meaning across replays.
        let ev = self.pending.remove(candidates[chosen]);
        if self.por {
            // Sleep-set maintenance: the earlier candidates at this node
            // head already-explored sibling branches, so they sleep in this
            // subtree — until a dependent dispatch (same destination as the
            // sleeper) invalidates the commutation argument and wakes them.
            for &i in &candidates[..chosen] {
                // Indices before `candidates[chosen]` are unshifted by the
                // `remove` above, since candidates are in ascending order.
                self.sleep.push(self.pending[i].seq);
            }
            let dest = event_dest(&ev.kind);
            let pending = &self.pending;
            self.sleep.retain(|&seq| {
                pending
                    .iter()
                    .find(|e| e.seq == seq)
                    .is_some_and(|e| event_dest(&e.kind) != dest)
            });
        }
        Some(ev)
    }

    fn peek_time(&self) -> Option<Time> {
        if self.pending.is_empty() || self.depth >= self.max_steps {
            return None;
        }
        let candidates: Vec<usize> = (0..self.pending.len())
            .filter(|&i| !self.sleep.contains(&self.pending[i].seq))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let chosen = if self.depth < self.stack.len() {
            self.stack[self.depth].0
        } else {
            0
        };
        Some(self.pending[candidates[chosen]].time)
    }
}

/// Worst-case delays against a target set, for systems too large to
/// enumerate: every message sent *by or to* a target process is assigned
/// the maximum admissible delay at its send time, every other message the
/// minimum. Dispatch order is the same `(time, seq)` order as
/// [`RandomScheduler`] — fully deterministic, no randomness at all.
///
/// Slowing a coterie's members to the admissible maximum while the rest of
/// the system sprints is the async analogue of the sync model's
/// quorum-targeting omission adversary: it maximizes the window in which
/// targets look crashed to a heartbeat detector without violating the
/// fairness (eventual delivery) the model guarantees.
#[derive(Debug)]
pub struct AdversaryScheduler<M> {
    queue: EventQueue<M>,
    targets: Vec<ProcessId>,
    window: (Time, Time),
}

impl<M> AdversaryScheduler<M> {
    /// An adversary slowing every message that touches `targets`, over the
    /// whole run.
    pub fn new(targets: impl IntoIterator<Item = ProcessId>) -> Self {
        AdversaryScheduler {
            queue: EventQueue::new(),
            targets: targets.into_iter().collect(),
            window: (0, Time::MAX),
        }
    }

    /// Restricts the inflation to messages *sent* while virtual time is in
    /// `from..=to` — a delay-inflation storm window. Outside the window the
    /// adversary assigns minimum delays like everyone else, so the system
    /// sprints again once the storm passes. The default window is the whole
    /// run, which is the original behaviour.
    #[must_use]
    pub fn with_window(mut self, from: Time, to: Time) -> Self {
        self.window = (from, to);
        self
    }

    fn targeted(&self, p: ProcessId) -> bool {
        self.targets.contains(&p)
    }
}

impl<M> Scheduler<M> for AdversaryScheduler<M> {
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, from: ProcessId, to: ProcessId) -> Time {
        let storming = (self.window.0..=self.window.1).contains(&now);
        if storming && (self.targeted(from) || self.targeted(to)) {
            max_delay_at(cfg, now).max(1)
        } else {
            cfg.min_delay.max(1)
        }
    }

    fn push(&mut self, ev: Pending<M>) {
        self.queue.push(ev);
    }

    fn pop(&mut self) -> Option<Pending<M>> {
        self.queue.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }
}

/// The asynchronous Byzantine adversary: [`RandomScheduler`] delays and
/// dispatch order, plus message forgery by a declared traitor set — the
/// async twin of the synchronous `ByzantineAdversary`.
///
/// Each copy sent by a traitor is forged with probability `p_forge`; the
/// forgery seed handed to the process type's `forge_message` is drawn from
/// a dedicated RNG stream. Both draws happen for *every* traitor-sent copy
/// (forge decision first, seed second), so the stream position is a pure
/// function of the traffic pattern and runs stay byte-identical across
/// re-executions.
#[derive(Debug)]
pub struct ByzantineScheduler<M> {
    inner: RandomScheduler<M>,
    traitors: Vec<ProcessId>,
    p_forge: f64,
    forge_rng: StdRng,
}

impl<M> ByzantineScheduler<M> {
    /// Random delays per `cfg`, with `traitors` forging each sent copy
    /// with probability `p_forge`; `forge_seed` seeds the forgery stream
    /// (independent of `cfg.seed`, which drives delays).
    pub fn new(
        cfg: &AsyncConfig,
        traitors: impl IntoIterator<Item = ProcessId>,
        p_forge: f64,
        forge_seed: u64,
    ) -> Self {
        ByzantineScheduler {
            inner: RandomScheduler::for_config(cfg),
            traitors: traitors.into_iter().collect(),
            p_forge,
            forge_rng: StdRng::seed_from_u64(forge_seed),
        }
    }

    /// The declared traitor set.
    pub fn traitors(&self) -> &[ProcessId] {
        &self.traitors
    }
}

impl<M> Scheduler<M> for ByzantineScheduler<M> {
    fn delay(&mut self, cfg: &AsyncConfig, now: Time, from: ProcessId, to: ProcessId) -> Time {
        self.inner.delay(cfg, now, from, to)
    }

    fn push(&mut self, ev: Pending<M>) {
        self.inner.push(ev);
    }

    fn pop(&mut self) -> Option<Pending<M>> {
        self.inner.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.inner.peek_time()
    }

    fn forge(&mut self, _now: Time, from: ProcessId, _to: ProcessId) -> Option<u64> {
        if !self.traitors.contains(&from) {
            return None;
        }
        // Unconditional draw pair per traitor copy: decision, then seed.
        let forge = self.forge_rng.gen_bool(self.p_forge);
        let seed = self.forge_rng.next_u64();
        forge.then_some(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(time: Time, seq: u64) -> Pending<u8> {
        Pending {
            time,
            seq,
            kind: PendingKind::Timer {
                p: ProcessId(0),
                tag: 0,
            },
        }
    }

    #[test]
    fn pending_orders_by_time_then_seq() {
        let a = deliver(5, 1);
        let b = deliver(5, 2);
        let c = deliver(3, 9);
        assert!(c < a && a < b);
        assert_eq!(a, deliver(5, 1));
    }

    #[test]
    fn random_scheduler_pops_in_time_order() {
        let cfg = AsyncConfig::tame(1);
        let mut s: RandomScheduler<u8> = RandomScheduler::for_config(&cfg);
        s.push(deliver(30, 1));
        s.push(deliver(10, 2));
        s.push(deliver(10, 1));
        assert_eq!(s.peek_time(), Some(10));
        let order: Vec<(Time, u64)> =
            std::iter::from_fn(|| s.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(order, vec![(10, 1), (10, 2), (30, 1)]);
    }

    /// The queue against the min-heap it replaced, over random
    /// interleavings of push, pop and peek: equal times, batches pushed in
    /// reverse seq order, times beyond the ring or before its base, and
    /// times at `Time::MAX`.
    #[test]
    fn event_queue_pops_like_the_reference_heap() {
        use ftss_rng::check::{forall, Gen};
        forall(200, |g: &mut Gen| {
            let mut q: EventQueue<u8> = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<Pending<u8>>> = BinaryHeap::new();
            let key = |e: &Pending<u8>| (e.time, e.seq);
            let mut now: Time = if g.gen_bool(0.25) {
                Time::MAX - 100
            } else {
                g.gen_range(0..1_000)
            };
            let mut seq = 0u64;
            for _ in 0..g.gen_range(1..=g.size() * 8) {
                match g.gen_range(0..10) {
                    0..=4 => {
                        let batch = g.gen_range(1..=3u64);
                        let mut evs: Vec<Pending<u8>> = (1..=batch)
                            .map(|k| {
                                let time = match g.gen_range(0..8) {
                                    0 => now.saturating_add(g.gen_range(60..300)),
                                    1 => now.saturating_sub(g.gen_range(1..10)),
                                    2 => Time::MAX - g.gen_range(0..3),
                                    _ => now.saturating_add(g.gen_range(0..6)),
                                };
                                deliver(time, seq + k)
                            })
                            .collect();
                        seq += batch;
                        if g.gen_bool(0.3) {
                            evs.reverse();
                        }
                        for ev in evs {
                            reference.push(Reverse(ev.clone()));
                            q.push(ev);
                        }
                    }
                    5..=8 => {
                        let want = reference.pop().map(|Reverse(e)| key(&e));
                        let got = q.pop().map(|e| key(&e));
                        assert_eq!(got, want);
                        if let Some((t, _)) = got {
                            now = now.max(t);
                        }
                    }
                    _ => {
                        let want = reference.peek().map(|Reverse(e)| e.time);
                        assert_eq!(q.peek_time(), want);
                    }
                }
            }
            while let Some(Reverse(e)) = reference.pop() {
                assert_eq!(q.pop().map(|e| key(&e)), Some(key(&e)));
            }
            assert!(q.pop().is_none() && q.peek_time().is_none());
        });
    }

    #[test]
    fn random_delay_is_within_bounds_and_positive() {
        let mut cfg = AsyncConfig::tame(7);
        cfg.min_delay = 0; // degenerate config: delays still end up >= 1
        let mut s: RandomScheduler<u8> = RandomScheduler::for_config(&cfg);
        for _ in 0..100 {
            let d = s.delay(&cfg, 0, ProcessId(0), ProcessId(1));
            assert!((1..=cfg.max_delay).contains(&d));
        }
    }

    #[test]
    fn dfs_enumerates_all_orders_of_independent_events() {
        // 3 events pushed up front and never re-armed: the DFS must visit
        // exactly 3! = 6 dispatch orders.
        let mut s: DfsScheduler<u8> = DfsScheduler::new(16);
        let mut orders = Vec::new();
        loop {
            for seq in 1..=3 {
                s.push(deliver(1, seq));
            }
            let mut order = Vec::new();
            while let Some(e) = s.pop() {
                order.push(e.seq);
            }
            orders.push(order);
            if !s.advance() {
                break;
            }
        }
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), 6, "3! dispatch orders");
    }

    fn timer_at(p: usize, seq: u64) -> Pending<u8> {
        Pending {
            time: 1,
            seq,
            kind: PendingKind::Timer {
                p: ProcessId(p),
                tag: 0,
            },
        }
    }

    #[test]
    fn por_collapses_commuting_events_to_one_complete_order() {
        // 3 events to 3 distinct destinations: pairwise commuting, so the
        // sleep sets leave exactly one complete dispatch order (the other
        // 5 of 3! become early-pruned stubs).
        let mut s: DfsScheduler<u8> = DfsScheduler::new(16).with_por();
        let mut complete = Vec::new();
        let mut pruned = 0;
        loop {
            for p in 0..3 {
                s.push(timer_at(p, p as u64 + 1));
            }
            let mut order = Vec::new();
            while let Some(e) = s.pop() {
                order.push(e.seq);
            }
            if s.was_pruned() {
                pruned += 1;
            } else {
                complete.push(order);
            }
            if !s.advance() {
                break;
            }
        }
        assert_eq!(complete, vec![vec![1, 2, 3]], "one representative order");
        assert!(pruned > 0 && pruned < 6, "stubs, not full orders: {pruned}");
    }

    #[test]
    fn por_keeps_all_orders_of_dependent_events() {
        // 3 events to the SAME destination: fully dependent, nothing may
        // sleep — the reduction must degenerate to the full 3! = 6.
        let mut s: DfsScheduler<u8> = DfsScheduler::new(16).with_por();
        let mut orders = Vec::new();
        loop {
            for seq in 1..=3 {
                s.push(timer_at(0, seq));
            }
            let mut order = Vec::new();
            while let Some(e) = s.pop() {
                order.push(e.seq);
            }
            assert!(!s.was_pruned());
            orders.push(order);
            if !s.advance() {
                break;
            }
        }
        orders.sort();
        orders.dedup();
        assert_eq!(orders.len(), 6, "dependent events keep every order");
    }

    #[test]
    fn dfs_event_horizon_bounds_each_run() {
        let mut s: DfsScheduler<u8> = DfsScheduler::new(2);
        for seq in 1..=4 {
            s.push(deliver(1, seq));
        }
        let mut count = 0;
        while s.pop().is_some() {
            count += 1;
        }
        assert_eq!(count, 2, "horizon cuts the run");
        assert_eq!(s.peek_time(), None);
    }

    #[test]
    fn adversary_stretches_only_target_traffic() {
        let cfg = AsyncConfig::tame(0); // delays 1..=10
        let mut s: AdversaryScheduler<u8> = AdversaryScheduler::new([ProcessId(1)]);
        assert_eq!(s.delay(&cfg, 0, ProcessId(0), ProcessId(1)), 10);
        assert_eq!(s.delay(&cfg, 0, ProcessId(1), ProcessId(0)), 10);
        assert_eq!(s.delay(&cfg, 0, ProcessId(0), ProcessId(2)), 1);
    }

    #[test]
    fn adversary_window_bounds_the_inflation() {
        let cfg = AsyncConfig::tame(0); // delays 1..=10
        let mut s: AdversaryScheduler<u8> =
            AdversaryScheduler::new([ProcessId(1)]).with_window(100, 200);
        assert_eq!(s.delay(&cfg, 99, ProcessId(0), ProcessId(1)), 1);
        assert_eq!(s.delay(&cfg, 100, ProcessId(0), ProcessId(1)), 10);
        assert_eq!(s.delay(&cfg, 200, ProcessId(1), ProcessId(0)), 10);
        assert_eq!(s.delay(&cfg, 201, ProcessId(0), ProcessId(1)), 1);
        // Non-target traffic sprints even inside the window.
        assert_eq!(s.delay(&cfg, 150, ProcessId(0), ProcessId(2)), 1);
    }
}
