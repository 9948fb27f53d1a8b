//! The runner's event queue: every pending delivery and timer, popped in
//! `(time, seq)` order.
//!
//! Delays are the model's only nondeterminism (see [`crate::scheduler`]);
//! once a delay is picked, an event's place in the run is fixed by its
//! dispatch time and, among equal times, by the order it was pushed. This
//! module is that rule, and [`AsyncRunner`](crate::AsyncRunner) owns its
//! one instance. An event names its message by a slot of the runner's
//! message arena, so it is 32 bytes whatever the message type.

use crate::runner::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queued event: a message awaiting delivery or an armed timer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pending {
    /// Scheduled dispatch time.
    pub(crate) time: Time,
    /// Tie-breaker: insertion order (strictly increasing per run).
    pub(crate) seq: u64,
    /// What happens on dispatch.
    pub(crate) kind: PendingKind,
}

/// What a [`Pending`] event does. Process ids are `u32`: the runner
/// refuses an `n` that does not fit.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PendingKind {
    /// Deliver the message in arena slot `slot` from `from` to `to`.
    Deliver {
        /// Sender.
        from: u32,
        /// Receiver.
        to: u32,
        /// The arena slot holding the message, shared with the other
        /// copies of the originating broadcast.
        slot: u32,
    },
    /// Fire timer `tag` at process `p`.
    Timer {
        /// The process whose timer fires.
        p: u32,
        /// The tag passed back to `on_timer`.
        tag: u64,
    },
}

const _: () = assert!(std::mem::size_of::<Pending>() <= 32);

// Identity and order are `(time, seq)` only — `seq` is unique per run, so
// this is a total order.
impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// How many virtual instants, from the queue's base on, get a bucket of
/// their own in [`EventQueue`]'s ring — one bit each in its occupancy
/// word.
const RING: Time = 64;

/// One instant's events, sorted by `seq`: `evs[head..]` are pending, the
/// ones before `head` were popped. Emptied, it resets to `head == 0` and
/// keeps its capacity; it grows only through [`EventQueue::push`], to
/// the ring's high-water count.
#[derive(Debug, Default)]
struct Bucket {
    evs: Vec<Pending>,
    head: usize,
}

/// Pops in exactly `(time, seq)` order, whatever the push order.
///
/// A ring of per-instant buckets covers the `RING` instants from `base`
/// on; each bucket is kept sorted by `seq`, and an occupancy word marks
/// the non-empty ones, so the ring's front is one rotate and one
/// trailing-zeros count away. Anything outside the window at push time
/// (later, or — never from the runner — earlier than `base`) goes to an
/// overflow heap, and a pop takes the smaller of the ring's front and the
/// heap's top. `base` follows the popped times, so with delays and timer
/// periods under `RING` every event lands in the ring, and push and pop
/// are O(1): the runner's seqs arrive in increasing order, so a push
/// appends to its bucket.
///
/// The buckets share one high-water count, the most events one of them
/// has held. A bucket that must grow, or is reused while empty, makes
/// room for that many at once (rounded up to a power of two), so the
/// ring stops allocating once one instant has peaked and every bucket
/// has come round again.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// `ring[t % RING]` holds the events at instant `t`, for
    /// `base <= t < base + RING`.
    ring: Vec<Bucket>,
    /// Bit `i` is set iff `ring[i]` has a pending event.
    occupied: u64,
    /// The first instant the ring covers: no ring event is earlier.
    base: Time,
    /// Events that were outside the ring's window when pushed.
    overflow: BinaryHeap<Reverse<Pending>>,
    /// The most events one bucket has held, popped ones included.
    high_water: usize,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            ring: (0..RING).map(|_| Bucket::default()).collect(),
            occupied: 0,
            base: 0,
            overflow: BinaryHeap::new(),
            high_water: 0,
        }
    }

    pub(crate) fn push(&mut self, ev: Pending) {
        // `ev.time - base` rather than `base + RING`: no overflow near
        // `Time::MAX`.
        if ev.time < self.base || ev.time - self.base >= RING {
            self.overflow.push(Reverse(ev));
            return;
        }
        let i = (ev.time % RING) as usize;
        let Bucket { evs, head } = &mut self.ring[i];
        if evs.is_empty() || evs.len() == evs.capacity() {
            let room = self.high_water.max(evs.len() + 1).next_power_of_two();
            evs.reserve_exact(room - evs.len());
        }
        if evs.last().is_none_or(|last| last.seq < ev.seq) {
            evs.push(ev);
        } else {
            let at = *head + evs[*head..].partition_point(|e| e.seq < ev.seq);
            evs.insert(at, ev);
        }
        self.high_water = self.high_water.max(evs.len());
        self.occupied |= 1 << i;
    }

    /// Pops the earliest event if it is due at or before `horizon`; leaves
    /// the queue as it is otherwise.
    pub(crate) fn pop_until(&mut self, horizon: Time) -> Option<Pending> {
        // The ring's front: its earliest bucket, one rotate and one
        // trailing-zeros count away.
        let ahead = self.occupied.rotate_right((self.base % RING) as u32);
        let front = (ahead != 0).then(|| {
            let t = self.base + Time::from(ahead.trailing_zeros());
            let i = (t % RING) as usize;
            let b = &self.ring[i];
            (i, b.evs[b.head])
        });
        // ... unless the overflow heap's top comes first.
        let top = self.overflow.peek().map(|&Reverse(top)| top);
        let ev = match (front, top) {
            (Some((i, ev)), top) if top.is_none_or(|top| ev < top) => {
                if ev.time > horizon {
                    return None;
                }
                let b = &mut self.ring[i];
                b.head += 1;
                if b.head == b.evs.len() {
                    b.evs.clear();
                    b.head = 0;
                    self.occupied &= !(1 << i);
                }
                ev
            }
            (_, Some(top)) if top.time <= horizon => self.overflow.pop()?.0,
            _ => return None,
        };
        // `ev` was the minimum, so every remaining ring event is at or
        // after it: the window may slide forward to it.
        self.base = self.base.max(ev.time);
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(time: Time, seq: u64) -> Pending {
        Pending {
            time,
            seq,
            kind: PendingKind::Timer { p: 0, tag: 0 },
        }
    }

    #[test]
    fn pending_orders_by_time_then_seq() {
        let a = timer(5, 1);
        let b = timer(5, 2);
        let c = timer(3, 9);
        assert!(c < a && a < b);
        assert_eq!(a, timer(5, 1));
    }

    #[test]
    fn event_queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(timer(30, 1));
        q.push(timer(10, 2));
        q.push(timer(10, 1));
        assert!(q.pop_until(9).is_none(), "nothing is due before 10");
        let order: Vec<(Time, u64)> =
            std::iter::from_fn(|| q.pop_until(29).map(|e| (e.time, e.seq))).collect();
        assert_eq!(order, vec![(10, 1), (10, 2)]);
        assert_eq!(
            q.pop_until(Time::MAX).map(|e| (e.time, e.seq)),
            Some((30, 1))
        );
        assert!(q.pop_until(Time::MAX).is_none());
    }

    /// The queue against the min-heap it replaced, over random
    /// interleavings of push and horizon-bounded pop: equal times, batches
    /// pushed in reverse seq order, times beyond the ring or before its
    /// base, times at `Time::MAX`, and horizons before, at and after the
    /// earliest event.
    #[test]
    fn event_queue_pops_like_the_reference_heap() {
        use ftss_rng::check::{forall, Gen};
        use ftss_rng::Rng;
        forall(200, |g: &mut Gen| {
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
            let key = |e: &Pending| (e.time, e.seq);
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
                        let mut evs: Vec<Pending> = (1..=batch)
                            .map(|k| {
                                let time = match g.gen_range(0..8) {
                                    0 => now.saturating_add(g.gen_range(60..300)),
                                    1 => now.saturating_sub(g.gen_range(1..10)),
                                    2 => Time::MAX - g.gen_range(0..3),
                                    _ => now.saturating_add(g.gen_range(0..6)),
                                };
                                timer(time, seq + k)
                            })
                            .collect();
                        seq += batch;
                        if g.gen_bool(0.3) {
                            evs.reverse();
                        }
                        for ev in evs {
                            reference.push(Reverse(ev));
                            q.push(ev);
                        }
                    }
                    5..=7 => {
                        let want = reference.pop().map(|Reverse(e)| key(&e));
                        let got = q.pop_until(Time::MAX).map(|e| key(&e));
                        assert_eq!(got, want);
                        if let Some((t, _)) = got {
                            now = now.max(t);
                        }
                    }
                    _ => {
                        // A horizon around the earliest event: before it
                        // pops nothing, at or after it pops that event.
                        let first = reference.peek().map(|Reverse(e)| e.time);
                        let horizon = match first {
                            Some(t) => t.saturating_add(g.gen_range(0..3)).saturating_sub(1),
                            None => g.gen_range(0..Time::MAX),
                        };
                        let want = match reference.peek() {
                            Some(Reverse(e)) if e.time <= horizon => {
                                reference.pop().map(|Reverse(e)| key(&e))
                            }
                            _ => None,
                        };
                        let got = q.pop_until(horizon).map(|e| key(&e));
                        assert_eq!(got, want, "horizon {horizon}");
                        if let Some((t, _)) = got {
                            now = now.max(t);
                        }
                    }
                }
            }
            while let Some(Reverse(e)) = reference.pop() {
                assert_eq!(q.pop_until(e.time).map(|e| key(&e)), Some(key(&e)));
            }
            assert!(q.pop_until(Time::MAX).is_none());
        });
    }
}
