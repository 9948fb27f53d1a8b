//! Property-based tests of the core model's invariants, on the in-repo
//! `ftss_rng::check` harness.

use ftss_core::{
    normalize, CausalTracker, Corrupt, CoterieTimeline, History, ProcessId, ProcessSet,
    RoundHistory,
};
use ftss_rng::check::{forall, Gen};
use ftss_rng::Rng;

const CASES: u64 = 64;

// ---------------------------------------------------------------------
// ProcessSet algebra
// ---------------------------------------------------------------------

fn arb_set(g: &mut Gen, n: usize) -> ProcessSet {
    let mut s = ProcessSet::empty(n);
    for i in 0..n {
        if g.gen::<bool>() {
            s.insert(ProcessId(i));
        }
    }
    s
}

#[test]
fn set_union_is_commutative_and_monotone() {
    forall(CASES, |g| {
        let a = arb_set(g, 70);
        let b = arb_set(g, 70);
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert!(a.is_subset(&u));
        assert!(b.is_subset(&u));
        assert!(u.len() <= a.len() + b.len());
    });
}

#[test]
fn set_de_morgan() {
    forall(CASES, |g| {
        let a = arb_set(g, 70);
        let b = arb_set(g, 70);
        let lhs = a.union(&b).complement();
        let rhs = a.complement().intersection(&b.complement());
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn set_difference_partitions() {
    forall(CASES, |g| {
        let a = arb_set(g, 66);
        let b = arb_set(g, 66);
        let inter = a.intersection(&b);
        let diff = a.difference(&b);
        assert_eq!(inter.len() + diff.len(), a.len());
        assert!(inter.intersection(&diff).is_empty());
        assert_eq!(inter.union(&diff), a);
    });
}

#[test]
fn set_complement_involutive() {
    forall(CASES, |g| {
        let a = arb_set(g, 129);
        assert_eq!(a.complement().complement(), a);
    });
}

#[test]
fn set_iter_sorted_and_consistent() {
    forall(CASES, |g| {
        let a = arb_set(g, 100);
        let v: Vec<usize> = a.iter().map(|p| p.index()).collect();
        assert_eq!(v.len(), a.len());
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        for &i in &v {
            assert!(a.contains(ProcessId(i)));
        }
    });
}

// ---------------------------------------------------------------------
// normalize
// ---------------------------------------------------------------------

#[test]
fn normalize_in_range_and_periodic() {
    forall(CASES, |g| {
        let c: u64 = g.gen();
        let fr = g.gen_range(1u64..1000);
        let k = normalize(c, fr);
        assert!((1..=fr).contains(&k));
        if c < u64::MAX - fr {
            assert_eq!(normalize(c + fr, fr), k);
        }
        // Consecutive counters map to consecutive protocol rounds (mod fr).
        if c < u64::MAX {
            let k2 = normalize(c + 1, fr);
            assert_eq!(k2, if k == fr { 1 } else { k + 1 });
        }
    });
}

// ---------------------------------------------------------------------
// Causality
// ---------------------------------------------------------------------

fn arb_edges(g: &mut Gen, n: usize, max_edges: usize) -> Vec<(usize, usize)> {
    g.vec(0, max_edges, |g| (g.gen_range(0..n), g.gen_range(0..n)))
}

#[test]
fn causal_reachability_is_monotone() {
    forall(CASES, |g| {
        // Deliveries only ever add reachability, never remove it.
        let edges = arb_edges(g, 6, 40);
        let mut t = CausalTracker::new(6);
        let mut reach_counts = Vec::new();
        for chunk in edges.chunks(4) {
            t.begin_round();
            for &(a, b) in chunk {
                t.deliver(ProcessId(a), ProcessId(b));
            }
            t.commit_round();
            let count: usize = (0..6).map(|q| t.ancestors(ProcessId(q)).len()).sum();
            reach_counts.push(count);
        }
        assert!(reach_counts.windows(2).all(|w| w[0] <= w[1]));
    });
}

#[test]
fn causal_self_reachability_always() {
    forall(CASES, |g| {
        let edges = arb_edges(g, 5, 20);
        let mut t = CausalTracker::new(5);
        t.begin_round();
        for (a, b) in edges {
            t.deliver(ProcessId(a), ProcessId(b));
        }
        t.commit_round();
        for q in 0..5 {
            assert!(t.reaches(ProcessId(q), ProcessId(q)));
        }
    });
}

#[test]
fn reaching_all_is_antitone_in_targets() {
    forall(CASES, |g| {
        let edges = arb_edges(g, 5, 20);
        let targets = arb_set(g, 5);
        let mut t = CausalTracker::new(5);
        t.begin_round();
        for (a, b) in edges {
            t.deliver(ProcessId(a), ProcessId(b));
        }
        t.commit_round();
        // More targets → smaller (or equal) reaching set.
        let full = t.reaching_all(&ProcessSet::full(5));
        let sub = t.reaching_all(&targets);
        assert!(full.is_subset(&sub));
    });
}

// ---------------------------------------------------------------------
// Histories and coteries
// ---------------------------------------------------------------------

/// A random history over `n` processes: each round, each ordered pair
/// (i, j) independently delivered or not; no deviations recorded.
fn arb_history(g: &mut Gen, n: usize, max_rounds: usize) -> History<(), u8> {
    let rounds = g.gen_range(1..=max_rounds);
    let mut h = History::new(n);
    for _ in 0..rounds {
        let mut round = RoundHistory::empty(n);
        for i in (0..n).map(ProcessId) {
            round.set_process(i, Some(()), None, false, false);
            round.set_broadcast(i, 0.into());
            // Self delivery, always.
            round.record_delivery(i, i);
            for j in (0..n).map(ProcessId) {
                if i != j && g.gen::<bool>() {
                    round.record_delivery(j, i);
                }
            }
        }
        h.push(round);
    }
    h
}

#[test]
fn coterie_windows_partition_the_run() {
    forall(CASES, |g| {
        let h = arb_history(g, 4, 12);
        let tl = CoterieTimeline::compute(&h);
        let ws = tl.stable_windows();
        let total: usize = ws.iter().map(|w| w.duration()).sum();
        assert_eq!(total, h.len());
        // Windows are contiguous and ordered.
        let mut expect = 1;
        for w in &ws {
            assert_eq!(w.from_len, expect);
            expect = w.to_len + 1;
        }
        // Adjacent windows have different coteries.
        for pair in ws.windows(2) {
            assert_ne!(&pair[0].coterie, &pair[1].coterie);
        }
    });
}

#[test]
fn coterie_grows_with_failure_free_prefixes() {
    forall(CASES, |g| {
        // With no deviations ever recorded, the correct set is everyone and
        // ancestor sets only grow, so coteries are monotone non-decreasing.
        let h = arb_history(g, 4, 10);
        let tl = CoterieTimeline::compute(&h);
        for k in 1..tl.len() {
            assert!(
                tl.at_prefix(k).is_subset(tl.at_prefix(k + 1)),
                "coterie shrank from prefix {} to {}",
                k,
                k + 1
            );
        }
    });
}

#[test]
fn faulty_upto_is_monotone() {
    forall(CASES, |g| {
        let h = arb_history(g, 3, 8);
        for k in 1..h.len() {
            assert!(h.faulty_upto(k).is_subset(&h.faulty_upto(k + 1)));
        }
    });
}

// ---------------------------------------------------------------------
// Corruption determinism
// ---------------------------------------------------------------------

#[test]
fn corruption_is_a_function_of_the_seed() {
    forall(CASES, |g| {
        use ftss_rng::StdRng;
        let seed: u64 = g.gen();
        let corrupt_all = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = 0u64;
            let mut b = vec![1u32, 2, 3];
            let mut c = ProcessSet::full(9);
            let mut d = Some(5u64);
            a.corrupt(&mut rng);
            b.corrupt(&mut rng);
            c.corrupt(&mut rng);
            d.corrupt(&mut rng);
            (a, b, c, d)
        };
        assert_eq!(corrupt_all(seed), corrupt_all(seed));
    });
}
