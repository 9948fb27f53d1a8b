//! The runner's message arena: every queued message, held once.
//!
//! A sent message moves into a slot whose count is its number of queued
//! copies. Each copy's [`Deliver`](crate::queue::PendingKind::Deliver)
//! event names the slot, a delivery borrows the message from it, and the
//! copy that leaves the queue last — dispatched, or dropped at a crashed
//! receiver — frees the slot for the next message. The count is a plain
//! `u32`: the runner is single-threaded and owns every copy.

/// A slot: a message and how many of its copies are still queued.
#[derive(Debug)]
struct Slot<M> {
    /// `None` while the slot is free.
    msg: Option<M>,
    copies: u32,
}

/// Free-listed message slots. The slot vector only grows, so its length
/// is the high-water mark of messages in flight at once.
#[derive(Debug)]
pub(crate) struct Arena<M> {
    slots: Vec<Slot<M>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
}

impl<M> Arena<M> {
    pub(crate) fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Moves `msg` into a free slot, with no copies yet.
    pub(crate) fn insert(&mut self, msg: M) -> u32 {
        if let Some(k) = self.free.pop() {
            let slot = &mut self.slots[k as usize];
            debug_assert!(slot.msg.is_none() && slot.copies == 0);
            slot.msg = Some(msg);
            return k;
        }
        let k = u32::try_from(self.slots.len()).expect("fewer than 2^32 messages in flight");
        self.slots.push(Slot {
            msg: Some(msg),
            copies: 0,
        });
        k
    }

    /// Counts one more queued copy of the message in slot `k`.
    pub(crate) fn add_copy(&mut self, k: u32) {
        self.slots[k as usize].copies += 1;
    }

    /// The message in slot `k`, lent to a receiver.
    pub(crate) fn get(&self, k: u32) -> &M {
        self.slots[k as usize]
            .msg
            .as_ref()
            .expect("a queued copy's slot holds its message")
    }

    /// One copy of slot `k` has left the queue; the last one drops the
    /// message and frees the slot.
    pub(crate) fn release(&mut self, k: u32) {
        let slot = &mut self.slots[k as usize];
        slot.copies -= 1;
        if slot.copies == 0 {
            slot.msg = None;
            self.free.push(k);
        }
    }

    /// The most slots ever in use at once.
    #[cfg(test)]
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
    }
}
