//! Process identifiers and dense process sets.
//!
//! The paper's system is a fixed, completely-connected set of `n` processes.
//! Processes are identified by their index `0..n`, wrapped in the
//! [`ProcessId`] newtype so indices into unrelated collections cannot be
//! confused with process identities ([C-NEWTYPE]).
//!
//! [`ProcessSet`] is a growable bitset used pervasively for faulty sets,
//! correct sets, coteries and suspect sets. It is ordered and hashable so it
//! can key maps (e.g. "how long has this coterie been stable").

use std::fmt;

/// Identity of a process in a system of `n` processes (`0..n`).
///
/// # Example
///
/// ```
/// use ftss_core::ProcessId;
/// let p = ProcessId(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "p2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The underlying index of this process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

pub(crate) const WORD_BITS: usize = 64;

/// A set of processes, represented as a bitset over process indices.
///
/// Used for faulty sets `F(H, Π)`, correct sets `C(H, Π)`, coteries and
/// suspect sets. The set tracks the system size `n` it was created for;
/// complement and `full` are relative to that universe.
///
/// # Example
///
/// ```
/// use ftss_core::{ProcessId, ProcessSet};
///
/// let mut faulty = ProcessSet::empty(5);
/// faulty.insert(ProcessId(1));
/// faulty.insert(ProcessId(4));
/// let correct = faulty.complement();
/// assert_eq!(correct.iter().collect::<Vec<_>>(),
///            vec![ProcessId(0), ProcessId(2), ProcessId(3)]);
/// ```
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessSet {
    n: usize,
    words: Vec<u64>,
}

impl Clone for ProcessSet {
    fn clone(&self) -> Self {
        ProcessSet {
            n: self.n,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s allocation: a per-round scratch set costs a
    /// `memcpy`, not a `malloc`.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words.clone_from(&source.words);
    }
}

impl ProcessSet {
    /// The empty set over a universe of `n` processes.
    pub fn empty(n: usize) -> Self {
        ProcessSet {
            n,
            words: vec![0; n.div_ceil(WORD_BITS)],
        }
    }

    /// The full set `{0, …, n-1}`.
    pub fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(WORD_BITS)];
        // Bits past the universe stay clear: equality, `len` and the
        // word-wise row readers of `history` all rely on it.
        let tail = n % WORD_BITS;
        if tail > 0 {
            words[n / WORD_BITS] = (1 << tail) - 1;
        }
        ProcessSet { n, words }
    }

    /// Builds a set over universe `n` from an iterator of members.
    ///
    /// # Panics
    ///
    /// Panics if any member index is `>= n`.
    pub fn from_iter_n<I: IntoIterator<Item = ProcessId>>(n: usize, iter: I) -> Self {
        let mut s = Self::empty(n);
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// The size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `p`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= universe()`.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(p.0 < self.n, "{p} out of universe 0..{}", self.n);
        let (w, b) = (p.0 / WORD_BITS, p.0 % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        if p.0 >= self.n {
            return false;
        }
        let (w, b) = (p.0 / WORD_BITS, p.0 % WORD_BITS);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test. Indices outside the universe are never members.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.0 < self.n && self.words[p.0 / WORD_BITS] & (1 << (p.0 % WORD_BITS)) != 0
    }

    /// The complement within the universe.
    pub fn complement(&self) -> ProcessSet {
        let mut out = Self::full(self.n);
        for (o, w) in out.words.iter_mut().zip(&self.words) {
            *o &= !w;
        }
        out
    }

    /// Set union. Both operands must share a universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        let mut out = self.clone();
        for (o, w) in out.words.iter_mut().zip(&other.words) {
            *o |= w;
        }
        out
    }

    /// Set intersection. Both operands must share a universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        let mut out = self.clone();
        for (o, w) in out.words.iter_mut().zip(&other.words) {
            *o &= w;
        }
        out
    }

    /// Set difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference(&self, other: &ProcessSet) -> ProcessSet {
        assert_eq!(self.n, other.n, "universe mismatch");
        let mut out = self.clone();
        for (o, w) in out.words.iter_mut().zip(&other.words) {
            *o &= !w;
        }
        out
    }

    /// Whether every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Makes the set the processes of its universe that `member`
    /// accepts, asked in index order and assembled a word at a time with
    /// no branch on the answers.
    pub fn assign(&mut self, mut member: impl FnMut(ProcessId) -> bool) {
        for (k, word) in self.words.iter_mut().enumerate() {
            let base = k * WORD_BITS;
            let mut bits = 0;
            for b in 0..WORD_BITS.min(self.n - base) {
                bits |= u64::from(member(ProcessId(base + b))) << b;
            }
            *word = bits;
        }
    }

    /// Removes every member of `other` (`self ∖ other`, in place).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn subtract(&mut self, other: &ProcessSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (o, w) in self.words.iter_mut().zip(&other.words) {
            *o &= !w;
        }
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(SetBits::new(&self.words))
    }

    /// The members as 64-bit words, least significant bit first — the
    /// layout of a `history` row over the same universe. Bits
    /// past the universe are clear.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator over the indices of the set bits of a word slice, ascending:
/// one `trailing_zeros` per member, one compare per empty word.
#[derive(Clone, Debug)]
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> SetBits<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        SetBits {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the members of a [`ProcessSet`] in increasing order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(SetBits<'a>);

impl Iterator for Iter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        self.0.next().map(ProcessId)
    }
}

impl<'a> IntoIterator for &'a ProcessSet {
    type Item = ProcessId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<T: IntoIterator<Item = ProcessId>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = ProcessSet::empty(10);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = ProcessSet::full(10);
        assert_eq!(f.len(), 10);
        assert!(!f.is_empty());
        assert_eq!(f.complement(), e);
        assert_eq!(e.complement(), f);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::empty(70); // multi-word
        assert!(s.insert(ProcessId(0)));
        assert!(s.insert(ProcessId(69)));
        assert!(!s.insert(ProcessId(69)));
        assert!(s.contains(ProcessId(0)));
        assert!(s.contains(ProcessId(69)));
        assert!(!s.contains(ProcessId(64)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(ProcessId(0)));
        assert!(!s.remove(ProcessId(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = ProcessSet::full(3);
        assert!(!s.contains(ProcessId(3)));
        assert!(!s.contains(ProcessId(1000)));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        ProcessSet::empty(3).insert(ProcessId(3));
    }

    #[test]
    fn algebra() {
        let a = ProcessSet::from_iter_n(6, [0, 1, 2].map(ProcessId));
        let b = ProcessSet::from_iter_n(6, [2, 3].map(ProcessId));
        assert_eq!(
            a.union(&b),
            ProcessSet::from_iter_n(6, [0, 1, 2, 3].map(ProcessId))
        );
        assert_eq!(
            a.intersection(&b),
            ProcessSet::from_iter_n(6, [2].map(ProcessId))
        );
        assert_eq!(
            a.difference(&b),
            ProcessSet::from_iter_n(6, [0, 1].map(ProcessId))
        );
        assert!(a.intersection(&b).is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iter_order() {
        let s = ProcessSet::from_iter_n(130, [129, 0, 64, 63].map(ProcessId));
        let v: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 63, 64, 129]);
    }

    /// Word-speed `iter`/`full` against the index-by-index definition, at
    /// universes on both sides of every word boundary.
    #[test]
    fn word_speed_iteration_matches_the_indexwise_scan() {
        for n in [0, 1, 64, 65, 130] {
            let every_third = ProcessSet::from_iter_n(n, (0..n).step_by(3).map(ProcessId));
            let mut ends = ProcessSet::empty(n);
            ends.extend(
                [0, 63, 64, 129]
                    .into_iter()
                    .filter(|&i| i < n)
                    .map(ProcessId),
            );
            for set in [ProcessSet::empty(n), ProcessSet::full(n), every_third, ends] {
                let scan: Vec<ProcessId> =
                    (0..n).map(ProcessId).filter(|&p| set.contains(p)).collect();
                assert_eq!(set.iter().collect::<Vec<_>>(), scan, "n = {n}");
                assert_eq!(set.len(), scan.len(), "n = {n}");
                assert_eq!(
                    format!("{set:?}"),
                    format!(
                        "{:?}",
                        scan.iter().collect::<std::collections::BTreeSet<_>>()
                    )
                );
                let shown: Vec<String> = scan.iter().map(ToString::to_string).collect();
                assert_eq!(set.to_string(), format!("{{{}}}", shown.join(",")));
            }
            let full = ProcessSet::full(n);
            assert_eq!(full, ProcessSet::from_iter_n(n, (0..n).map(ProcessId)));
            assert_eq!(full.len(), n);
            assert!(!full.contains(ProcessId(n)));
            assert!(full.complement().is_empty());
        }
    }

    #[test]
    fn display_forms() {
        let s = ProcessSet::from_iter_n(4, [1, 3].map(ProcessId));
        assert_eq!(s.to_string(), "{p1,p3}");
        assert_eq!(format!("{s:?}"), "{ProcessId(1), ProcessId(3)}");
        assert_eq!(format!("{:?}", ProcessSet::empty(2)), "{}");
    }

    #[test]
    fn ordering_is_total_for_map_keys() {
        let a = ProcessSet::from_iter_n(4, [0].map(ProcessId));
        let b = ProcessSet::from_iter_n(4, [1].map(ProcessId));
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        let mut m = std::collections::BTreeMap::new();
        m.insert(a.clone(), 1);
        m.insert(b.clone(), 2);
        assert_eq!(m[&a], 1);
        assert_eq!(m[&b], 2);
    }

    #[test]
    fn extend_collects() {
        let mut s = ProcessSet::empty(8);
        s.extend([ProcessId(7), ProcessId(2)]);
        assert_eq!(s.len(), 2);
    }
}
