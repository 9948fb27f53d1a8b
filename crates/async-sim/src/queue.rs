//! The runner's event queue: every pending delivery and timer, popped in
//! `(time, seq)` order.
//!
//! Delays are the model's only nondeterminism (see [`crate::scheduler`]);
//! once a delay is picked, an event's place in the run is fixed by its
//! dispatch time and, among equal times, by the order it was pushed. This
//! module is that rule, and [`AsyncRunner`](crate::AsyncRunner) owns its
//! one instance.

use crate::runner::Time;
use ftss_core::{Payload, ProcessId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A queued event: a message awaiting delivery or an armed timer.
#[derive(Clone, Debug)]
pub(crate) struct Pending<M> {
    /// Scheduled dispatch time.
    pub(crate) time: Time,
    /// Tie-breaker: insertion order (strictly increasing per run).
    pub(crate) seq: u64,
    /// What happens on dispatch.
    pub(crate) kind: PendingKind<M>,
}

/// The payload of a [`Pending`] event.
#[derive(Clone, Debug)]
pub(crate) enum PendingKind<M> {
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

/// How many virtual instants, from the queue's base on, get a bucket of
/// their own in [`EventQueue`]'s ring — one bit each in its occupancy
/// word.
const RING: Time = 64;

/// Pops in exactly `(time, seq)` order, whatever the push order.
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
pub(crate) struct EventQueue<M> {
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
    pub(crate) fn new() -> Self {
        EventQueue {
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            base: 0,
            overflow: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, ev: Pending<M>) {
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

    pub(crate) fn pop(&mut self) -> Option<Pending<M>> {
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

    pub(crate) fn peek_time(&self) -> Option<Time> {
        let ring = self.ring_front().map(|(_, t)| t);
        let heap = self.overflow.peek().map(|Reverse(e)| e.time);
        ring.into_iter().chain(heap).min()
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
    fn event_queue_pops_in_time_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(deliver(30, 1));
        q.push(deliver(10, 2));
        q.push(deliver(10, 1));
        assert_eq!(q.peek_time(), Some(10));
        let order: Vec<(Time, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(order, vec![(10, 1), (10, 2), (30, 1)]);
    }

    /// The queue against the min-heap it replaced, over random
    /// interleavings of push, pop and peek: equal times, batches pushed in
    /// reverse seq order, times beyond the ring or before its base, and
    /// times at `Time::MAX`.
    #[test]
    fn event_queue_pops_like_the_reference_heap() {
        use ftss_rng::check::{forall, Gen};
        use ftss_rng::Rng;
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
}
