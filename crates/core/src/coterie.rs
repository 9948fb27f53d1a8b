//! The paper's coterie (Definition 2.3) and its evolution over a history.
//!
//! The **coterie** of a history `H` is the set of processes `p` such that
//! `p →_H q` for *every* correct process `q`. A change in the coterie is
//! exactly the de-stabilizing event of the paper: `ftss-solves`
//! (Definition 2.4) only demands that the problem predicate hold on
//! intervals over which the coterie has been stable for at least the
//! stabilization time.
//!
//! [`CoterieTimeline`] replays a recorded [`History`] through a
//! [`CausalTracker`] and computes the coterie of **every prefix**, plus the
//! maximal *stable windows* on which Definition 2.4 quantifies.

use crate::causality::CausalTracker;
use crate::history::History;
use crate::id::ProcessSet;

/// A maximal interval of prefix lengths over which the coterie is constant.
///
/// Prefix lengths are counted in rounds: the window covers prefixes of
/// length `from_len ..= to_len` (inclusive), all having coterie `coterie`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StableWindow {
    /// First prefix length (≥ 1) in the window.
    pub from_len: usize,
    /// Last prefix length in the window.
    pub to_len: usize,
    /// The (constant) coterie over the window.
    pub coterie: ProcessSet,
}

impl StableWindow {
    /// Number of rounds the coterie stays unchanged in this window.
    pub fn duration(&self) -> usize {
        self.to_len - self.from_len + 1
    }
}

/// The coterie of every prefix of a history.
///
/// # Example
///
/// ```
/// use ftss_core::{CoterieTimeline, History, ProcessId, RoundHistory};
///
/// // A 1-process history of 2 silent rounds: the lone process is trivially
/// // in every coterie.
/// let mut h: History<(), ()> = History::new(1);
/// for _ in 0..2 {
///     let mut round = RoundHistory::empty(1);
///     round.set_process(ProcessId(0), Some(()), None, false, false);
///     h.push(round);
/// }
/// let tl = CoterieTimeline::compute(&h);
/// assert_eq!(tl.at_prefix(1).len(), 1);
/// assert_eq!(tl.stable_windows().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct CoterieTimeline {
    /// `per_prefix[k-1]` = coterie of the prefix of length `k`.
    per_prefix: Vec<ProcessSet>,
}

impl CoterieTimeline {
    /// Replays `history` and computes the coterie of each prefix.
    ///
    /// # Panics
    ///
    /// Panics if `history` is windowed and has evicted rounds — causal
    /// reachability needs every round from the beginning of the run.
    pub fn compute<S, M>(history: &History<S, M>) -> Self {
        assert!(
            history.is_complete(),
            "coterie timelines need the complete history; this one evicted rounds"
        );
        let n = history.n();
        let mut tracker = CausalTracker::new(n);
        let mut per_prefix = Vec::with_capacity(history.len());
        for (k, rh) in history.rounds().iter().enumerate() {
            tracker.begin_round();
            for rec in rh.records() {
                for (src, _) in rec.delivered().iter() {
                    tracker.deliver(src, rec.process());
                }
            }
            tracker.commit_round();
            let correct = history.faulty_upto(k + 1).complement();
            per_prefix.push(tracker.reaching_all(&correct));
        }
        CoterieTimeline { per_prefix }
    }

    /// The coterie of the prefix of length `k` (1-based; `k >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k` exceeds the history length.
    pub fn at_prefix(&self, k: usize) -> &ProcessSet {
        assert!(k >= 1, "prefixes have length at least 1");
        &self.per_prefix[k - 1]
    }

    /// Number of prefixes covered (= history length).
    pub fn len(&self) -> usize {
        self.per_prefix.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.per_prefix.is_empty()
    }

    /// All coteries in prefix order.
    pub fn coteries(&self) -> &[ProcessSet] {
        &self.per_prefix
    }

    /// The maximal windows of prefix lengths with constant coterie, in
    /// order. Every prefix length belongs to exactly one window.
    pub fn stable_windows(&self) -> Vec<StableWindow> {
        let mut out: Vec<StableWindow> = Vec::new();
        for (i, c) in self.per_prefix.iter().enumerate() {
            let k = i + 1;
            match out.last_mut() {
                Some(w) if w.coterie == *c => w.to_len = k,
                _ => out.push(StableWindow {
                    from_len: k,
                    to_len: k,
                    coterie: c.clone(),
                }),
            }
        }
        out
    }

    /// The final stable window (the suffix of the run over which the
    /// coterie no longer changes), if the history is non-empty.
    pub fn final_window(&self) -> Option<StableWindow> {
        self.stable_windows().pop()
    }
}

/// Convenience: the coterie of the length-`k` prefix of `history`.
///
/// Prefer [`CoterieTimeline::compute`] when several prefixes are needed —
/// this function replays the history from scratch.
///
/// # Panics
///
/// Panics if `k == 0` or `k` exceeds the history length.
pub fn coterie_of_prefix<S, M>(history: &History<S, M>, k: usize) -> ProcessSet {
    assert!(k >= 1 && k <= history.len(), "prefix length out of range");
    CoterieTimeline::compute(history).at_prefix(k).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{DeliveryOutcome, RoundHistory};
    use crate::ProcessId;

    type H = History<(), u8>;

    /// Builds one round where `edges` lists (from, to, delivered?) for every
    /// attempted copy; self-delivery always recorded.
    fn round(n: usize, edges: &[(usize, usize, bool)]) -> RoundHistory<(), u8> {
        let mut rh = RoundHistory::empty(n);
        for p in (0..n).map(ProcessId) {
            rh.set_process(p, Some(()), None, false, false);
            rh.set_broadcast(p, 0.into());
            // Self delivery (paper footnote 1): always succeeds.
            rh.record_delivery(p, p);
        }
        for &(from, to, ok) in edges {
            let (from, to) = (ProcessId(from), ProcessId(to));
            if ok {
                rh.record_send(from, to, DeliveryOutcome::Delivered);
                rh.record_delivery(to, from);
            } else {
                rh.record_send(from, to, DeliveryOutcome::DroppedBySender);
            }
        }
        rh
    }

    #[test]
    fn broadcaster_enters_coterie() {
        let mut h = H::new(3);
        // p0 reaches everyone in round 1; p1, p2 silent (but not deviating:
        // they send to nobody per protocol — edges empty means no sends).
        h.push(round(3, &[(0, 1, true), (0, 2, true)]));
        let tl = CoterieTimeline::compute(&h);
        let c = tl.at_prefix(1);
        assert!(c.contains(ProcessId(0)));
        assert!(!c.contains(ProcessId(1)));
        assert!(!c.contains(ProcessId(2)));
    }

    #[test]
    fn full_exchange_puts_everyone_in_coterie() {
        let mut h = H::new(3);
        let all: Vec<(usize, usize, bool)> = (0..3)
            .flat_map(|i| (0..3).filter(move |&j| j != i).map(move |j| (i, j, true)))
            .collect();
        h.push(round(3, &all));
        let tl = CoterieTimeline::compute(&h);
        assert_eq!(*tl.at_prefix(1), ProcessSet::full(3));
    }

    #[test]
    fn coterie_changes_create_windows() {
        let mut h = H::new(2);
        // Round 1: no communication -> coterie empty (neither reaches the other).
        h.push(round(2, &[]));
        // Round 2: full exchange -> coterie = {0, 1}.
        h.push(round(2, &[(0, 1, true), (1, 0, true)]));
        // Round 3: full exchange again -> unchanged.
        h.push(round(2, &[(0, 1, true), (1, 0, true)]));
        let tl = CoterieTimeline::compute(&h);
        assert!(tl.at_prefix(1).is_empty());
        assert_eq!(*tl.at_prefix(2), ProcessSet::full(2));
        let ws = tl.stable_windows();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].from_len, 1);
        assert_eq!(ws[0].to_len, 1);
        assert_eq!(ws[1].from_len, 2);
        assert_eq!(ws[1].to_len, 3);
        assert_eq!(ws[1].duration(), 2);
        assert_eq!(tl.final_window().unwrap(), ws[1]);
    }

    #[test]
    fn faulty_senders_can_still_be_in_coterie() {
        // The theorem-3 proof relies on a faulty process *entering* the
        // coterie once its message reaches everyone. A send-omitting p0
        // that still reaches both correct processes is in the coterie.
        let mut h = H::new(3);
        // p0 delivers to p1 but omits to p2 (faulty!), p1 relays to all.
        h.push(round(3, &[(0, 1, true), (0, 2, false)]));
        h.push(round(
            3,
            &[(1, 0, true), (1, 2, true), (0, 1, true), (0, 2, false)],
        ));
        let tl = CoterieTimeline::compute(&h);
        // After round 2: p0 -> p1 (direct) and p0 -> p2 (via p1). Correct
        // set is {p1, p2}. So p0 ∈ coterie despite being faulty.
        let c = tl.at_prefix(2);
        assert!(c.contains(ProcessId(0)));
        assert!(c.contains(ProcessId(1)));
    }

    #[test]
    fn one_shot_matches_timeline() {
        let mut h = H::new(2);
        h.push(round(2, &[(0, 1, true)]));
        h.push(round(2, &[(1, 0, true)]));
        let tl = CoterieTimeline::compute(&h);
        assert_eq!(coterie_of_prefix(&h, 1), *tl.at_prefix(1));
        assert_eq!(coterie_of_prefix(&h, 2), *tl.at_prefix(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_shot_bounds_checked() {
        let h = H::new(2);
        coterie_of_prefix(&h, 1);
    }

    #[test]
    fn empty_timeline() {
        let h = H::new(2);
        let tl = CoterieTimeline::compute(&h);
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert!(tl.stable_windows().is_empty());
        assert!(tl.final_window().is_none());
    }
}
