//! Shared broadcast payloads.
//!
//! In the synchronous model a broadcast produces one point-to-point copy
//! per destination, and the recorded history shows every copy (the
//! sender's [`SentCopy`](crate::history::SentCopy)s plus every receiver's
//! [`Deliveries`](crate::history::Deliveries)). Storing the
//! payload by value made one logical broadcast cost `O(n)` deep clones —
//! `O(n²)` per full-information round — before any checker even ran.
//!
//! [`Payload`] fixes that: an [`Arc`]-backed wrapper that is *transparent*
//! to every observer. `PartialEq`/`Eq`/`Hash`/`Debug`/`Display`/`Ord` all
//! delegate to the inner message, so two histories compare equal whether
//! their payloads are shared or deep-cloned — sharing is a representation
//! choice, never a semantic one. Cloning a `Payload` is a reference-count
//! bump; one broadcast materializes one payload allocation regardless of
//! `n`.
//!
//! Sharing cannot leak mutability into recorded histories: `Payload`
//! hands out only `&M` (via [`Deref`] and [`Payload::get`]) to a shared
//! message, so a payload referenced from two rounds of a history — or
//! from two histories of a parallel sweep — is immutable by construction
//! ([`Payload::set`] overwrites and [`Payload::get_mut`] lends `&mut M`
//! only when nothing else references the payload). See DESIGN.md §9.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable broadcast payload.
///
/// # Example
///
/// ```
/// use ftss_core::Payload;
///
/// let p = Payload::new(vec![1u64, 2, 3]);
/// let q = p.clone(); // reference-count bump, no deep clone
/// assert!(p.shares_with(&q));
/// assert_eq!(p, q);
/// assert_eq!(p, Payload::new(vec![1u64, 2, 3])); // equality is by value
/// assert_eq!(p.len(), 3); // Deref to the inner message
/// ```
pub struct Payload<M>(Arc<M>);

impl<M> Payload<M> {
    /// Wraps a message. This is the one deep materialization of a
    /// broadcast; every subsequent `clone` shares it.
    pub fn new(message: M) -> Self {
        Payload(Arc::new(message))
    }

    /// Borrows the inner message (equivalent to `&*payload`).
    pub fn get(&self) -> &M {
        &self.0
    }

    /// Whether two payloads share one allocation. Shared payloads are
    /// always equal; equal payloads need not be shared.
    pub fn shares_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The message, mutably, if no other handle shares it — so a
    /// per-round slot can be refilled in place — and `None` otherwise.
    pub fn get_mut(&mut self) -> Option<&mut M> {
        Arc::get_mut(&mut self.0)
    }

    /// Replaces the message. A payload no other handle shares is
    /// overwritten in place — a per-round slot recycles its allocation —
    /// and a shared one is left to its other holders untouched, so no
    /// observer ever sees a payload change under it.
    pub fn set(&mut self, message: M) {
        match Arc::get_mut(&mut self.0) {
            Some(slot) => *slot = message,
            None => *self = Payload::new(message),
        }
    }
}

impl<M: Clone> Payload<M> {
    /// Extracts the inner message, cloning only if the payload is still
    /// shared. The sole recipient of a point-to-point message pays
    /// nothing here.
    pub fn take(self) -> M {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl<M> Clone for Payload<M> {
    fn clone(&self) -> Self {
        Payload(Arc::clone(&self.0))
    }
}

impl<M> Deref for Payload<M> {
    type Target = M;

    fn deref(&self) -> &M {
        &self.0
    }
}

impl<M> From<M> for Payload<M> {
    fn from(message: M) -> Self {
        Payload::new(message)
    }
}

impl<M> AsRef<M> for Payload<M> {
    fn as_ref(&self) -> &M {
        &self.0
    }
}

// Transparent observer impls: a Payload behaves exactly like its inner
// message, with a pointer-equality fast path where sharing allows one.
impl<M: PartialEq> PartialEq for Payload<M> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<M: Eq> Eq for Payload<M> {}

/// Compares against a bare message, so `envelope.payload == msg` keeps
/// reading naturally at call sites that predate sharing.
impl<M: PartialEq> PartialEq<M> for Payload<M> {
    fn eq(&self, other: &M) -> bool {
        *self.0 == *other
    }
}

impl<M: PartialOrd> PartialOrd for Payload<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(&other.0)
    }
}

impl<M: Ord> Ord for Payload<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl<M: Hash> Hash for Payload<M> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<M: fmt::Debug> fmt::Debug for Payload<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<M: fmt::Display> fmt::Display for Payload<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<M: Default> Default for Payload<M> {
    fn default() -> Self {
        Payload::new(M::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_and_value_equality() {
        let a = Payload::new(String::from("msg"));
        let b = a.clone();
        let c = Payload::new(String::from("msg"));
        assert!(a.shares_with(&b));
        assert!(!a.shares_with(&c));
        assert_eq!(a, b);
        assert_eq!(a, c, "equality is by value, not by allocation");
        assert_ne!(a, Payload::new(String::from("other")));
    }

    #[test]
    fn compares_against_bare_message() {
        let p = Payload::new(7u32);
        assert_eq!(p, 7u32);
        assert_ne!(p, 8u32);
    }

    #[test]
    fn deref_and_accessors() {
        let p = Payload::new(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get()[0], 1);
        assert_eq!(p.as_ref().len(), 3);
        assert_eq!(*p, vec![1, 2, 3]);
    }

    #[test]
    fn take_avoids_clone_when_sole_owner() {
        let p = Payload::new(vec![9u8; 4]);
        assert_eq!(p.take(), vec![9u8; 4]); // moved out, no clone needed

        let shared = Payload::new(vec![1u8]);
        let other = shared.clone();
        assert_eq!(shared.take(), vec![1u8]); // cloned, `other` still live
        assert_eq!(*other, vec![1u8]);
    }

    #[test]
    fn set_recycles_only_an_unshared_allocation() {
        let mut slot = Payload::new(1u64);
        let before = slot.get() as *const u64;
        slot.set(2);
        assert_eq!(slot, 2u64);
        assert_eq!(slot.get() as *const u64, before, "sole owner: in place");

        let reader = slot.clone();
        slot.set(3);
        assert_eq!(slot, 3u64);
        assert_eq!(
            reader, 2u64,
            "a shared payload never changes under a reader"
        );
        assert!(!slot.shares_with(&reader));
    }

    #[test]
    fn debug_display_are_transparent() {
        let p = Payload::new(42u64);
        assert_eq!(format!("{p:?}"), "42");
        assert_eq!(format!("{p}"), "42");
    }

    #[test]
    fn ord_and_hash_delegate() {
        use std::collections::hash_map::DefaultHasher;
        let a = Payload::new(1u32);
        let b = Payload::new(2u32);
        assert!(a < b);
        let hash = |p: &Payload<u32>| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        let hash_raw = |v: u32| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash_raw(1));
    }

    #[test]
    fn from_and_default() {
        let p: Payload<u8> = 3u8.into();
        assert_eq!(p, 3u8);
        let d: Payload<u8> = Payload::default();
        assert_eq!(d, 0u8);
    }
}
