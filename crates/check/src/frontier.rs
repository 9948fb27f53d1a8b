//! Graph-mode exploration: fingerprinted, symmetry-reduced, parallel BFS
//! over the reachable-state graph.
//!
//! The legacy enumerator ([`crate::dfs::explore`]) walks the schedule
//! *tree*: `2^d` full runs for a `d`-bit tape, re-executing every prefix
//! and re-visiting the many schedules that lead to identical global
//! states (round agreement collapses differences fast, so most of the
//! tree is redundant). This module walks the reachable-state *graph*
//! instead, TLC-style:
//!
//! * a **node** is a canonical [`NodeState`](crate::fingerprint::NodeState)
//!   — exactly the future-determining part of a global state, normalized
//!   (counters shifted to min 0) and canonicalized over process
//!   relabelings fixing the faulty process;
//! * an **edge** is one round under one omission mask (`2·(n−1)` bits,
//!   one per copy eligible for omission), executed through the
//!   [`SyncStepper`](ftss::sync_sim::SyncStepper) seam, never a replayed
//!   prefix. A node's `2^(2(n−1))` masks share `2^(n−1)` stepper rounds
//!   (one per distinct inbox of the faulty process, see
//!   [`for_each_edge`]), and each distinct raw child is judged,
//!   canonicalized and fingerprinted once;
//! * a **visited set** of 128-bit fingerprints prunes revisits, so each
//!   orbit of each reachable state is expanded exactly once.
//!
//! Theorem 3's Definition-2.4 obligations are decomposed into per-edge
//! atoms (see [`check_edge`]'s docs and DESIGN.md §14 for the derivation
//! and soundness argument) and checked on **every** edge before dedup, so
//! pruning never hides a violation. The Theorem-4 stabilization-time
//! property gets the same treatment: each [`NodeState`] carries a
//! two-bit liveness summary of the current stable window's witnesses
//! (`thm4_alive`), updated per edge from parent-side facts only, and the
//! `stabilization` atom fires exactly when the legacy whole-history
//! oracle ([`crate::oracle::thm4_decided`]) would — once the window has
//! outlived the bound with every admissible offset dead. Because normalized counters take at
//! most `n^n` values (each counter is always some initial value plus the
//! round count) the graph is finite, and with `rounds: None` the
//! exploration runs to a **fixpoint**: termination without a violation
//! certifies the obligations over *unbounded* horizons — something no
//! bounded tape enumeration can do.
//!
//! Each BFS layer is sharded across workers with
//! [`ftss_sweep::map_cells`] and merged in canonical (fingerprint, mask)
//! order; reports are byte-identical for every `--jobs`, like every other
//! subsystem. Workers prune against the visited set as it stood when the
//! layer started, so what reaches the merge is a layer's candidate
//! states, not its edges. A violating edge is replayed concretely: the
//! search path's masks are mapped back through the accumulated
//! canonicalization permutations into an honest omission tape, confirmed
//! against the legacy oracle ([`crate::dfs::check_tape`]) and shrunk to a
//! 1-minimal [`Counterexample`] — graph-mode schedule files replay
//! through the same pipeline as enumerated ones.

use crate::dfs::{check_tape, check_tape_thm4, Counterexample, DfsConfig};
use crate::fingerprint::{
    compose_perm, identity_perm, mask_full, Fingerprinter, FpMap, NodeState, PackedState, Perm,
    PermTable, MAX_GRAPH_N,
};
use crate::runbuild::RunBuilder;
use crate::shrink::shrink_with;
use ftss::core::{ProcessId, RoundCounter};
use ftss::protocols::{RoundAgreement, RoundAgreementState};
use ftss::sync_sim::SyncStepper;
use std::collections::hash_map::Entry;

/// The largest stabilization time a graph search supports: the stable
/// window's length saturates at `stabilization + 2`, which must fit
/// [`NodeState::stable_len`]'s byte.
const MAX_GRAPH_STABILIZATION: usize = u8::MAX as usize - 2;

/// Configuration of a graph exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphConfig {
    /// Number of processes (`2..=6` — symmetry and mask width both cap
    /// here, see [`MAX_GRAPH_N`]).
    pub n: usize,
    /// Seed of the initial systemic failure, as in [`DfsConfig`].
    pub corruption_seed: u64,
    /// The single faulty process omissions act through.
    pub faulty: ProcessId,
    /// Stabilization time for the Theorem-3 obligations (1 = the
    /// theorem's claim, 0 = deliberately broken; at most 253).
    pub stabilization: usize,
    /// `Some(d)`: explore `d` BFS layers (equivalent to enumerating every
    /// `d`-round schedule). `None`: run to the fixpoint — unbounded
    /// horizon.
    pub rounds: Option<usize>,
    /// Worker shards per layer. Reports are byte-identical for any value.
    pub jobs: usize,
    /// Hard ceiling on visited states (memory guard; exceeding it is an
    /// error, not a silent truncation).
    pub max_states: usize,
}

impl GraphConfig {
    /// The pinned acceptance configuration: `n = 3`, the same shape as
    /// [`DfsConfig::small`] (2 rounds ≙ tape bound 8).
    pub fn small(corruption_seed: u64) -> Self {
        GraphConfig {
            n: 3,
            corruption_seed,
            faulty: ProcessId(0),
            stabilization: 1,
            rounds: Some(2),
            jobs: 1,
            max_states: 2_000_000,
        }
    }

    /// A fixpoint exploration at size `n` (unbounded horizon).
    pub fn fixpoint(n: usize, corruption_seed: u64) -> Self {
        GraphConfig {
            n,
            corruption_seed,
            faulty: ProcessId(0),
            stabilization: 1,
            rounds: None,
            jobs: 1,
            max_states: 2_000_000,
        }
    }

    /// Rejects a configuration [`explore_graph`] cannot search: `n`
    /// outside `2..=MAX_GRAPH_N`, a faulty process outside `0..n`, zero
    /// rounds or jobs, or a stabilization time whose largest obligation
    /// gate (`stabilization + 2`) does not fit the one-byte `stable_len`.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_GRAPH_N).contains(&self.n) {
            return Err(format!(
                "check --graph: n must be in 2..={MAX_GRAPH_N}, got {}",
                self.n
            ));
        }
        if self.faulty.index() >= self.n {
            return Err(format!(
                "check --graph: faulty process {} outside 0..{}",
                self.faulty, self.n
            ));
        }
        if self.stabilization > MAX_GRAPH_STABILIZATION {
            return Err(format!(
                "check --graph: stabilization must be at most {MAX_GRAPH_STABILIZATION} \
                 (a state's stable-window length `stable_len` is one byte and counts \
                 up to stabilization + 2), got {}",
                self.stabilization
            ));
        }
        if self.rounds == Some(0) {
            return Err("check --graph: rounds must be at least 1".into());
        }
        if self.jobs == 0 {
            return Err("check --graph: jobs must be at least 1".into());
        }
        Ok(())
    }

    /// Omission-mask width per round: one bit per eligible copy.
    fn mask_bits(&self) -> u32 {
        2 * (self.n as u32 - 1)
    }

    /// The legacy [`DfsConfig`] that replays a `depth`-round witness of
    /// this exploration (tape bound sized to the full tape, which
    /// [`check_tape`] accepts unbounded).
    fn replay_config(&self, depth: usize, tape_len: usize) -> DfsConfig {
        DfsConfig {
            n: self.n,
            rounds: depth,
            corruption_seed: self.corruption_seed,
            faulty: self.faulty,
            tape_bound: tape_len,
            stabilization: self.stabilization,
        }
    }
}

/// A violating edge, replayed into the legacy pipeline: the concrete
/// [`DfsConfig`] and 1-minimal tape that reproduce it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphCounterexample {
    /// Replay configuration (`rounds` = depth of the violating edge).
    pub cfg: DfsConfig,
    /// The shrunk concrete witness.
    pub counterexample: Counterexample,
}

/// What a graph exploration covered. Deterministic: equal configurations
/// yield equal reports, for any `jobs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphReport {
    /// Canonical states visited (root included).
    pub visited: u64,
    /// Edges expanded: one per (node, omission mask), the unit comparable
    /// to `legacy schedules × rounds`. A node's edges are computed from
    /// `2^(n−1)` simulator rounds, not one round each.
    pub expansions: u64,
    /// Edges whose child was already visited (revisits pruned).
    pub dedup_hits: u64,
    /// Edges whose child needed a non-identity permutation to reach its
    /// orbit representative (states collapsed by symmetry).
    pub orbit_hits: u64,
    /// BFS layers fully expanded.
    pub depth: u32,
    /// Whether the exploration closed (no unexpanded states remain).
    pub fixpoint: bool,
    /// First violating edge in canonical order, if any.
    pub counterexample: Option<GraphCounterexample>,
}

/// Per-node bookkeeping: the canonical state plus the search-tree edge
/// that first reached it (for witness reconstruction).
struct Visited {
    state: PackedState,
    /// Fingerprint of the parent node (`None` for the root).
    parent: Option<u128>,
    /// Omission mask of the entering edge, in the parent's canonical
    /// process labels.
    mask: u32,
    /// Canonicalization permutation of the entering edge: raw child
    /// labels → canonical child labels.
    perm: Perm,
}

/// One explored edge, as [`for_each_edge`] hands it over.
#[derive(Clone, Copy)]
struct Edge {
    mask: u32,
    /// The child's orbit representative.
    child: PackedState,
    child_fp: u128,
    /// Raw child labels → `child`'s labels.
    perm: Perm,
    violation: Option<&'static str>,
}

/// What one node's expansion contributes to the layer merge: everything
/// about its `2^(2(n−1))` edges that the merge cannot do without, and
/// nothing per edge.
struct Expanded {
    /// Edges whose child needed a non-identity relabeling.
    orbit_hits: u64,
    /// The first violating edge in mask order, with its rule.
    violation: Option<(u32, &'static str)>,
    /// The edges that may add a state, in mask order: the child was not
    /// visited when the layer started and no earlier edge of this node
    /// reaches it. (Two nodes of one layer can still list the same
    /// child; the merge keeps the first.)
    fresh: Vec<Edge>,
}

/// The eligible copies of one round in consultation order (sender-major,
/// destination-minor, pairs touching `faulty` only) — the bit layout of
/// both omission masks and legacy tape segments.
fn eligible_pairs(n: usize, faulty: ProcessId) -> Vec<(ProcessId, ProcessId)> {
    let f = faulty.index();
    let mut out = Vec::with_capacity(2 * (n - 1));
    for i in 0..n {
        for j in 0..n {
            if i != j && (i == f || j == f) {
                out.push((ProcessId(i), ProcessId(j)));
            }
        }
    }
    out
}

/// Evaluates the per-edge Theorem-3 obligation atoms for the transition
/// `parent --mask--> child` and returns the first violated rule.
///
/// Every Definition-2.4 obligation `Σ(H[m..e], F(prefix e))` decomposes
/// into per-round **agreement** atoms and per-round-pair **rate** atoms,
/// and a violated atom inside some obligation implies the same atom is
/// violated in the *minimal-`e`* obligation containing it (the faulty set
/// grows with `e`, so smaller `e` checks a superset of processes). It is
/// therefore complete to check, on the edge that executes round `t`:
///
/// * **agreement at prefix `t−1`** (the parent's counters, among the
///   complement of `F(prefix t)` = the child's deviation flag), gated on
///   the atom being inside an admissible obligation: the child's stable
///   window must satisfy `stable_len(t) ≥ g+1` with `g = max(r, 1)` — or,
///   for `r = 0` only, the root-edge of the first window (the `m = 0`
///   obligation);
/// * **the rate pair `(t−2, t−1)`** (the parent's `rate_ok` bits, which
///   record whether round `t−1` advanced each counter by exactly one),
///   gated on `stable_len(t) ≥ g+2` — or, for `r = 0`, any non-root edge
///   still in the first window.
///
/// `stable_len` saturates at `g+2`, the largest gate, so saturation never
/// changes a gate's outcome.
///
/// A third, **stabilization** atom decomposes the Theorem-4 measured
/// stabilization time per edge. On the window `[a..t]`, offset `s`
/// satisfies the problem iff counters agree at every prefix
/// `a−1+s ..= t−1` and advance at rate 1 across rounds `a+s ..= t−1` —
/// all *parent-side* facts, so one boolean per faulty-set variant
/// suffices ([`NodeState::thm4_alive`]):
///
/// ```text
/// alive' = A(t−1) ∧ ((alive ∧ R(t−1)) ∨ len(t) ≤ r+1)
/// ```
///
/// where the last disjunct admits the window's newest offset
/// `s = len−1` while it is still `≤ r`. Once `len(t) ≥ r+1` every
/// admissible offset has been introduced, and a dead witness can never
/// revive (agreement at a past prefix and the rates behind it are
/// history), so `¬alive` there is exactly the *decided* Theorem-4
/// violation of [`crate::oracle::thm4_decided`] — pinned prefix-for-
/// prefix by `thm4_atom_matches_the_legacy_oracle_on_random_chains`.
fn check_edge(
    parent: &PackedState,
    child: &PackedState,
    faulty: ProcessId,
    stabilization: usize,
) -> Option<&'static str> {
    let n = parent.n as usize;
    let g = stabilization.max(1) as u8;
    let mut correct = mask_full(n) as u8;
    if child.deviated {
        correct &= !(1 << faulty.index());
    }

    let agreement_due = child.stable_len > g
        || (stabilization == 0 && parent.first_window && parent.stable_len == 0);
    if agreement_due {
        let mut seen: Option<u64> = None;
        for j in 0..n {
            if correct & (1 << j) == 0 {
                continue;
            }
            match seen {
                None => seen = Some(parent.counters[j]),
                Some(c) if c != parent.counters[j] => return Some("agreement"),
                _ => {}
            }
        }
    }

    let rate_due = child.stable_len >= g + 2
        || (stabilization == 0 && child.first_window && parent.stable_len >= 1);
    if rate_due && parent.rate_ok & correct != correct {
        return Some("rate");
    }

    // Theorem-4 stabilization time, decided: the current window has
    // outlived the bound and no admissible offset survives. Which
    // `thm4_alive` bit applies follows the child's deviation flag — the
    // same faulty-set choice the whole-history oracle makes via
    // `faulty_upto`.
    let alive = if child.deviated {
        child.thm4_alive & 2 != 0
    } else {
        child.thm4_alive & 1 != 0
    };
    if child.stable_len as usize > stabilization && !alive {
        return Some("stabilization");
    }

    None
}

/// Per eligible copy `(s, d)`, at index `s·n + d`: its bit in an
/// omission mask. Copies between correct processes never drop (bit 0).
fn drop_bits(n: usize, pairs: &[(ProcessId, ProcessId)]) -> [u32; MAX_GRAPH_N * MAX_GRAPH_N] {
    let mut drop_bit = [0u32; MAX_GRAPH_N * MAX_GRAPH_N];
    for (bit, &(s, d)) in pairs.iter().enumerate() {
        drop_bit[s.index() * n + d.index()] = 1 << bit;
    }
    drop_bit
}

/// The parent's counters as round-start protocol states.
fn round_start_states(parent: &PackedState) -> Vec<RoundAgreementState> {
    parent.counters[..parent.n as usize]
        .iter()
        .map(|&c| RoundAgreementState {
            c: RoundCounter::new(c),
        })
        .collect()
}

/// Slots of [`for_each_edge`]'s memo of raw children. On the seed-7
/// fixpoints a node's masks reach 5.9 distinct raw children on average
/// at `n = 5` and 8.6 at `n = 6`, so a small direct-mapped table keeps
/// nearly all of them.
const MEMO_SLOTS: usize = 64;

/// The memo slot of a raw child: a multiply–rotate fold of its fields,
/// the one-byte ones packed into two words.
fn memo_slot(state: &PackedState) -> usize {
    let pack = |bytes: &[u8]| bytes.iter().fold(0u64, |w, &b| w.rotate_left(8) ^ b as u64);
    let rest = [
        state.n,
        state.rate_ok,
        state.deviated as u8,
        state.coterie,
        state.stable_len,
        state.first_window as u8,
        state.thm4_alive,
    ];
    let words = state
        .counters
        .into_iter()
        .chain([pack(&state.reach), pack(&rest)]);
    let h = words.fold(0u64, |h, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    });
    (h >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Walks the edges out of one canonical node: all `2^(2(n−1))` one-round
/// omission masks, in mask order, computing for each the child state, its
/// orbit representative and the edge's obligation atoms.
///
/// The work is per distinct inbox and per distinct child, not per mask.
/// In the paper's round model a transition reads only a process's
/// round-start state and its inbox, and an omission only changes copies
/// that touch the faulty process `f`: an ordinary receiver sees one of
/// two inboxes (`f`'s copy to it delivered or dropped), `f` one of
/// `2^(n−1)` (one per subset of its in-copies dropped). So the
/// [`SyncStepper`] — the protocol's real step function — runs `2^(n−1)`
/// rounds per node, one per subset of `f`'s in-copies: the empty
/// subset's round delivers every other copy too, and the full subset's
/// also drops `f`'s copies to the others, which gives each ordinary
/// receiver both of its outcomes. Every mask
/// reads its counters off these rounds. With the parent fixed, the raw
/// child determines the edge's verdict, orbit representative and
/// fingerprint, so those are memoized per raw child in a direct-mapped
/// table of [`MEMO_SLOTS`], a hit confirmed by full state equality.
/// Nothing is allocated per edge.
fn for_each_edge(
    parent: &PackedState,
    cfg: &GraphConfig,
    pairs: &[(ProcessId, ProcessId)],
    fper: &Fingerprinter,
    mut visit: impl FnMut(Edge),
) {
    let n = cfg.n;
    let f = cfg.faulty.index();
    let table = PermTable::get(n, cfg.faulty);
    let drop_bit = drop_bits(n, pairs);

    let base_states = round_start_states(parent);
    let mut stepper = SyncStepper::new(RoundAgreement, base_states.clone());

    // The mask bits of `f`'s in-copies; every other eligible copy is one
    // of its out-copies. Pairs are sender-major, so the out-copies are
    // the `n − 1` bits from bit `f` on, and squeezing them out of a mask
    // leaves its in-copy bits as an `(n − 1)`-bit index.
    let in_mask = (0..n).fold(0, |m, i| m | drop_bit[i * n + f]);
    let out_mask = ((1u32 << cfg.mask_bits()) - 1) & !in_mask;
    let low = (1u32 << f) - 1;
    let in_index = |mask: u32| ((mask & low) | ((mask >> (n - 1)) & !low)) as usize;
    debug_assert_eq!(out_mask, ((1 << (n - 1)) - 1) << f);

    // Next counters per distinct inbox: an ordinary receiver's with `f`'s
    // copy delivered (`heard`) or dropped (`missed`); `f`'s by its dropped
    // in-copies (`faulty_next[in_index(mask)]`). The subsets of `in_mask`
    // ascend from empty to full.
    let mut heard = [0u64; MAX_GRAPH_N];
    let mut missed = [0u64; MAX_GRAPH_N];
    let mut faulty_next = [0u64; 1 << (MAX_GRAPH_N - 1)];
    let mut sub = 0u32;
    loop {
        let drop = if sub == in_mask { sub | out_mask } else { sub };
        stepper.reset(&base_states);
        stepper.step_round(|from, to| drop & drop_bit[from.index() * n + to.index()] == 0);
        let next = stepper.states();
        faulty_next[in_index(sub)] = next[f].c.get();
        if sub == 0 {
            for (c, state) in heard.iter_mut().zip(next) {
                *c = state.c.get();
            }
        }
        if sub == in_mask {
            for (c, state) in missed.iter_mut().zip(next) {
                *c = state.c.get();
            }
            break;
        }
        sub = sub.wrapping_sub(in_mask) & in_mask;
    }
    let next_counters = |mask: u32| {
        let mut next = [0u64; MAX_GRAPH_N];
        for (j, c) in next[..n].iter_mut().enumerate() {
            *c = if j == f {
                faulty_next[in_index(mask)]
            } else if mask & drop_bit[f * n + j] != 0 {
                missed[j]
            } else {
                heard[j]
            };
        }
        next
    };

    let mut memo: [Option<(PackedState, Edge)>; MEMO_SLOTS] = [None; MEMO_SLOTS];
    for_each_child(parent, cfg, pairs, next_counters, |mask, child| {
        let slot = &mut memo[memo_slot(&child)];
        let edge = match slot {
            Some((raw, edge)) if *raw == child => *edge,
            _ => {
                let violation = check_edge(parent, &child, cfg.faulty, cfg.stabilization);
                let (canon, perm) = table.canonicalize(&child);
                let edge = Edge {
                    mask,
                    child_fp: fper.packed(&canon),
                    child: canon,
                    perm,
                    violation,
                };
                *slot = Some((child, edge));
                edge
            }
        };
        visit(Edge { mask, ..edge });
    });
}

/// The raw (uncanonicalized) child of `parent` under every omission mask,
/// in mask order: `next_counters(mask)` gives the round's counters, and
/// everything else — rate bits, causal reach, coterie and the stable
/// window's bookkeeping — follows from them, the mask and the parent.
fn for_each_child(
    parent: &PackedState,
    cfg: &GraphConfig,
    pairs: &[(ProcessId, ProcessId)],
    mut next_counters: impl FnMut(u32) -> [u64; MAX_GRAPH_N],
    mut visit: impl FnMut(u32, PackedState),
) {
    let n = cfg.n;
    let f = cfg.faulty.index();
    let g = cfg.stabilization.max(1) as u8;
    let cap = g + 2;
    let full = mask_full(n) as u8;

    // Per eligible copy, by mask bit: what its delivery adds to the
    // destination's causal reach. Copies between correct processes
    // always land, so their contribution is the same under every mask.
    let mut lands = [(0usize, 0u8); 2 * (MAX_GRAPH_N - 1)];
    for (bit, &(s, d)) in pairs.iter().enumerate() {
        lands[bit] = (d.index(), parent.reach[s.index()] | 1 << s.index());
    }
    let lands = &lands[..pairs.len()];
    let mut reach_base = parent.reach;
    for i in (0..n).filter(|&i| i != f) {
        for j in (0..n).filter(|&j| j != f && j != i) {
            reach_base[j] |= parent.reach[i] | 1 << i;
        }
    }

    // Mask-independent parent-side facts for the Theorem-4 liveness
    // update (see `check_edge`'s docs): agreement of the parent's
    // counters and coverage of its rate bits, per faulty-set variant
    // (bit 0: faulty counted correct, bit 1: counted faulty).
    let corr = full & !(1 << f);
    let agrees = |set: u8| {
        let mut members = (0..n).filter(|&j| set & (1 << j) != 0);
        let first = members.next().map(|j| parent.counters[j]);
        members.all(|j| Some(parent.counters[j]) == first)
    };
    let a_full = agrees(full);
    let a_corr = agrees(corr);
    let r_full = parent.rate_ok & full == full;
    let r_corr = parent.rate_ok & corr == corr;

    for mask in 0..1u32 << cfg.mask_bits() {
        // Counters, normalized; rate bits against the parent.
        let mut counters = next_counters(mask);
        let mut rate_ok = 0u8;
        for (j, &c) in counters[..n].iter().enumerate() {
            if c == parent.counters[j].saturating_add(1) {
                rate_ok |= 1 << j;
            }
        }
        let min = *counters[..n].iter().min().expect("n >= 2");
        for c in &mut counters[..n] {
            *c -= min;
        }

        // Causal reach: delivered copies this round are all pairs except
        // the mask-dropped eligible ones (self-copies always land).
        let mut reach = reach_base;
        for (bit, &(dest, adds)) in lands.iter().enumerate() {
            if mask & (1 << bit) == 0 {
                reach[dest] |= adds;
            }
        }

        let deviated = parent.deviated || mask != 0;
        let correct = if deviated { corr } else { full };
        let mut coterie = full;
        for (q, &r) in reach[..n].iter().enumerate() {
            if correct & (1 << q) != 0 {
                coterie &= r;
            }
        }

        let same_window = parent.stable_len > 0 && coterie == parent.coterie;
        let stable_len = if same_window {
            parent.stable_len.saturating_add(1).min(cap)
        } else {
            1
        };
        let first_window = parent.first_window && (parent.stable_len == 0 || same_window);

        // alive' = A(t−1) ∧ ((alive ∧ R(t−1)) ∨ len(t) ≤ r+1), per
        // variant. On a window-start edge the carried witness is void
        // (the window has no prior offsets), so only the candidate term
        // survives. `stable_len` saturates at `g+2 > r+1`, so the
        // comparison is exact.
        let cand = (stable_len as usize) <= cfg.stabilization + 1;
        let keep_full = same_window && parent.thm4_alive & 1 != 0 && r_full;
        let keep_corr = same_window && parent.thm4_alive & 2 != 0 && r_corr;
        let thm4_alive =
            (a_full && (keep_full || cand)) as u8 | (((a_corr && (keep_corr || cand)) as u8) << 1);

        visit(
            mask,
            PackedState {
                n: parent.n,
                counters,
                rate_ok,
                reach,
                deviated,
                coterie,
                stable_len,
                first_window,
                thm4_alive,
            },
        );
    }
}

/// Expands one canonical node for the layer merge, keeping only the
/// edges that can add a state (`visited` is the set at layer start).
fn expand(
    parent: &PackedState,
    cfg: &GraphConfig,
    pairs: &[(ProcessId, ProcessId)],
    fper: &Fingerprinter,
    visited: &FpMap<Visited>,
) -> Expanded {
    let mut out = Expanded {
        orbit_hits: 0,
        violation: None,
        fresh: Vec::new(),
    };
    for_each_edge(parent, cfg, pairs, fper, |edge| {
        if edge.perm != identity_perm() {
            out.orbit_hits += 1;
        }
        if out.violation.is_none() {
            out.violation = edge.violation.map(|rule| (edge.mask, rule));
        }
        if !visited.contains_key(&edge.child_fp)
            && out.fresh.iter().all(|e| e.child_fp != edge.child_fp)
        {
            out.fresh.push(edge);
        }
    });
    out
}

/// Rebuilds a concrete omission tape for the search path ending in the
/// edge `(parent_fp, mask)`, then confirms and shrinks it through the
/// legacy pipeline.
///
/// Each stored mask is expressed in the canonical labels of its parent;
/// composing the per-edge canonicalization permutations yields, per
/// depth, the relabeling `σ` from original process ids to canonical ids.
/// The original run's tape bit for eligible copy `(u, v)` is the stored
/// mask's bit for `(σ(u), σ(v))`. The reconstructed tape is confirmed
/// against [`check_tape`] — the raw, unnormalized simulator — before
/// shrinking; a confirmation failure is reported as an error (it would
/// mean the normalized model diverged from the raw one, see DESIGN.md
/// §14's saturation caveat).
fn reconstruct_witness(
    cfg: &GraphConfig,
    visited: &FpMap<Visited>,
    root_perm: &Perm,
    parent_fp: u128,
    mask: u32,
    detail_hint: &str,
) -> Result<GraphCounterexample, String> {
    let pairs = eligible_pairs(cfg.n, cfg.faulty);

    // Masks along the path, root-first, ending with the violating edge.
    let mut masks: Vec<u32> = vec![mask];
    let mut perms: Vec<Perm> = Vec::new(); // per-edge child canonicalization
    let mut cursor = parent_fp;
    loop {
        let entry = &visited[&cursor];
        match entry.parent {
            Some(p) => {
                masks.push(entry.mask);
                perms.push(entry.perm);
                cursor = p;
            }
            None => break,
        }
    }
    masks.reverse();
    perms.reverse();

    // σ maps original labels to the canonical labels of the node the
    // next mask is expressed in; starts as the root's canonicalization.
    let mut sigma = *root_perm;
    let mut tape = Vec::with_capacity(masks.len() * pairs.len());
    for (k, m) in masks.iter().enumerate() {
        for &(u, v) in &pairs {
            let cu = ProcessId(sigma[u.index()] as usize);
            let cv = ProcessId(sigma[v.index()] as usize);
            let idx = pairs
                .iter()
                .position(|&(s, d)| s == cu && d == cv)
                .expect("permutations fixing the faulty map eligible pairs to eligible pairs");
            tape.push(m & (1 << idx) != 0);
        }
        if k < perms.len() {
            sigma = compose_perm(&perms[k], &sigma);
        }
    }

    let replay_cfg = cfg.replay_config(masks.len(), tape.len());
    // Theorem-3 atoms confirm and shrink against the plain legacy oracle,
    // byte-identical to before. A `stabilization` atom can violate
    // Theorem 4 without violating Theorem 3 (a window can die quietly,
    // outside any due obligation), so those edges confirm against the
    // union of both oracles.
    let oracle = |c: &DfsConfig, t: &[bool]| {
        let thm3 = check_tape(c, t);
        if detail_hint == "stabilization" {
            thm3.or_else(|| check_tape_thm4(c, t))
        } else {
            thm3
        }
    };
    if oracle(&replay_cfg, &tape).is_none() {
        return Err(format!(
            "graph witness failed legacy confirmation (depth {}, atom {detail_hint}): \
             normalized model diverged from the raw simulator",
            masks.len()
        ));
    }
    let counterexample = shrink_with(&replay_cfg, &tape, oracle);
    Ok(GraphCounterexample {
        cfg: replay_cfg,
        counterexample,
    })
}

/// Explores the reachable-state graph of `cfg`. See the module docs.
///
/// Layers are expanded breadth-first; a layer containing a violating
/// edge is still *completed* (so all counts are deterministic), then the
/// first violating edge in canonical (fingerprint, mask) order is
/// reconstructed, confirmed and shrunk.
pub fn explore_graph(cfg: &GraphConfig) -> Result<GraphReport, String> {
    search(cfg).map(|(report, _)| report)
}

/// [`explore_graph`], also returning the visited set it built.
fn search(cfg: &GraphConfig) -> Result<(GraphReport, FpMap<Visited>), String> {
    cfg.validate()?;
    let fper = Fingerprinter::new();
    let pairs = eligible_pairs(cfg.n, cfg.faulty);

    // Root: the corrupted initial state through the shared builder (one
    // round is the minimum RunConfig; only the initial states are used).
    let stepper = RunBuilder::corrupted(cfg.n, 1, cfg.corruption_seed).stepper();
    let raw_counters: Vec<u64> = (0..cfg.n).map(|p| stepper.states()[p].c.get()).collect();
    let root_raw = NodeState::root(&raw_counters, cfg.stabilization);
    let (root, root_perm) = root_raw.canonicalize(cfg.faulty);
    let root = PackedState::pack(&root);
    let root_fp = fper.packed(&root);

    let mut visited: FpMap<Visited> = FpMap::default();
    visited.insert(
        root_fp,
        Visited {
            state: root,
            parent: None,
            mask: 0,
            perm: identity_perm(),
        },
    );

    let mut layer: Vec<u128> = vec![root_fp];
    let mut report = GraphReport {
        visited: 1,
        expansions: 0,
        dedup_hits: 0,
        orbit_hits: 0,
        depth: 0,
        fixpoint: false,
        counterexample: None,
    };

    loop {
        if let Some(d) = cfg.rounds {
            if report.depth as usize >= d {
                report.fixpoint = false;
                break;
            }
        }
        if layer.is_empty() {
            report.fixpoint = true;
            break;
        }

        // Shard the layer across workers; map_cells returns results in
        // cell order, so the merge below is jobs-invariant. Workers drop
        // the edges into already-visited states themselves — by far
        // most of them — so a layer's buffer holds its candidate states,
        // not its edges.
        let expanded: Vec<Expanded> = ftss_sweep::map_cells(&layer, cfg.jobs, |fp| {
            expand(&visited[fp].state, cfg, &pairs, &fper, &visited)
        });

        let mut next: Vec<u128> = Vec::new();
        let mut violating: Option<(u128, u32, &'static str)> = None;
        for (fp, node) in layer.iter().zip(expanded) {
            report.expansions += 1 << cfg.mask_bits();
            report.orbit_hits += node.orbit_hits;
            // Obligation atoms are edge properties: record the first
            // violation in canonical order even on deduped edges.
            if violating.is_none() {
                violating = node.violation.map(|(mask, rule)| (*fp, mask, rule));
            }
            for edge in node.fresh {
                if let Entry::Vacant(slot) = visited.entry(edge.child_fp) {
                    slot.insert(Visited {
                        state: edge.child,
                        parent: Some(*fp),
                        mask: edge.mask,
                        perm: edge.perm,
                    });
                    report.visited += 1;
                    next.push(edge.child_fp);
                }
            }
        }
        // Every edge either added a state or was pruned as a revisit.
        report.dedup_hits = report.expansions - (report.visited - 1);
        report.depth += 1;

        if let Some((parent_fp, mask, rule)) = violating {
            report.counterexample = Some(reconstruct_witness(
                cfg, &visited, &root_perm, parent_fp, mask, rule,
            )?);
            break;
        }
        if report.visited as usize > cfg.max_states {
            return Err(format!(
                "check --graph: state ceiling exceeded ({} visited > max-states {})",
                report.visited, cfg.max_states
            ));
        }
        // Canonical layer order: sorted fingerprints.
        next.sort_unstable();
        layer = next;
    }

    Ok((report, visited))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::explore;
    use crate::oracle::thm3_round_agreement;
    use ftss_rng::Rng;

    /// One edge out of an arbitrary (not necessarily canonical) node, in
    /// the public state type.
    struct Expansion {
        mask: u32,
        child: NodeState,
        perm: Perm,
        violation: Option<&'static str>,
    }

    /// Every edge out of `parent`, pruning nothing (shadows the merge's
    /// pruning `expand`).
    fn expand(
        parent: &NodeState,
        cfg: &GraphConfig,
        pairs: &[(ProcessId, ProcessId)],
        fper: &Fingerprinter,
    ) -> Vec<Expansion> {
        let mut out = Vec::new();
        for_each_edge(&PackedState::pack(parent), cfg, pairs, fper, |edge| {
            out.push(Expansion {
                mask: edge.mask,
                child: edge.child.unpack(),
                perm: edge.perm,
                violation: edge.violation,
            })
        });
        out
    }

    /// One stepper round per mask: the next counters the per-mask
    /// expansion reads.
    fn per_mask_counters(
        parent: &PackedState,
        cfg: &GraphConfig,
        pairs: &[(ProcessId, ProcessId)],
    ) -> impl FnMut(u32) -> [u64; MAX_GRAPH_N] {
        let n = cfg.n;
        let drop_bit = drop_bits(n, pairs);
        let base_states = round_start_states(parent);
        let mut stepper = SyncStepper::new(RoundAgreement, base_states.clone());
        move |mask| {
            stepper.reset(&base_states);
            stepper.step_round(|from, to| mask & drop_bit[from.index() * n + to.index()] == 0);
            let mut next = [0u64; MAX_GRAPH_N];
            for (c, state) in next.iter_mut().zip(stepper.states()) {
                *c = state.c.get();
            }
            next
        }
    }

    /// The per-mask expansion `for_each_edge` factors: one stepper round
    /// per mask, then `check_edge`, `canonicalize` and `fingerprint` per
    /// edge. The reference its edge sequence must match.
    fn for_each_edge_per_mask(
        parent: &PackedState,
        cfg: &GraphConfig,
        pairs: &[(ProcessId, ProcessId)],
        fper: &Fingerprinter,
        mut visit: impl FnMut(Edge),
    ) {
        let table = PermTable::get(cfg.n, cfg.faulty);
        let next_counters = per_mask_counters(parent, cfg, pairs);
        for_each_child(parent, cfg, pairs, next_counters, |mask, child| {
            let violation = check_edge(parent, &child, cfg.faulty, cfg.stabilization);
            let (child, perm) = table.canonicalize(&child);
            visit(Edge {
                mask,
                child_fp: fper.packed(&child),
                child,
                perm,
                violation,
            });
        });
    }

    /// An edge as comparable fields.
    type EdgeFields = (u32, PackedState, u128, Perm, Option<&'static str>);

    /// The edges out of `parent` as comparable fields: the factored
    /// walk's, then the per-mask reference's.
    fn edge_sequences(
        parent: &PackedState,
        cfg: &GraphConfig,
    ) -> (Vec<EdgeFields>, Vec<EdgeFields>) {
        let pairs = eligible_pairs(cfg.n, cfg.faulty);
        let fper = Fingerprinter::new();
        let fields = |e: Edge| (e.mask, e.child, e.child_fp, e.perm, e.violation);
        let mut factored = Vec::new();
        for_each_edge(parent, cfg, &pairs, &fper, |e| factored.push(fields(e)));
        let mut per_mask = Vec::new();
        for_each_edge_per_mask(parent, cfg, &pairs, &fper, |e| per_mask.push(fields(e)));
        (factored, per_mask)
    }

    /// A graph configuration for expanding single nodes.
    fn node_config(n: usize, faulty: ProcessId, stabilization: usize) -> GraphConfig {
        GraphConfig {
            faulty,
            stabilization,
            ..GraphConfig::fixpoint(n, 0)
        }
    }

    /// A parent node: settled (equal counters, full reach and coterie) or
    /// arbitrary, with counters that are small, wide or near `u64::MAX`.
    fn sample_parent(g: &mut impl Rng, n: usize, stabilization: usize) -> PackedState {
        let full = mask_full(n);
        let kind = g.gen_range(0..3u64);
        let counter = |g: &mut _| match kind {
            0 => Rng::gen_range(g, 0..4u64),
            1 => Rng::next_u64(g) >> Rng::gen_range(g, 0..64u64),
            _ => u64::MAX - Rng::gen_range(g, 0..4u64),
        };
        let cap = stabilization.max(1) as u64 + 2;
        let node = if g.gen_bool(0.3) {
            NodeState {
                counters: vec![counter(g); n],
                rate_ok: full,
                reach: vec![full; n],
                deviated: g.gen_bool(0.5),
                coterie: full,
                stable_len: g.gen_range(1..=cap) as u8,
                first_window: stabilization == 0 && g.gen_bool(0.5),
                thm4_alive: g.gen_range(0..4u64) as u8,
            }
        } else {
            NodeState {
                counters: (0..n).map(|_| counter(g)).collect(),
                rate_ok: g.gen_range(0..=full as u64) as u32,
                reach: (0..n)
                    .map(|i| g.gen_range(0..=full as u64) as u32 | 1 << i)
                    .collect(),
                deviated: g.gen_bool(0.5),
                coterie: g.gen_range(0..=full as u64) as u32,
                stable_len: g.gen_range(0..=cap) as u8,
                first_window: g.gen_bool(0.5),
                thm4_alive: g.gen_range(0..4u64) as u8,
            }
        };
        PackedState::pack(&node)
    }

    /// Counters read off one round per distinct inbox, and verdicts,
    /// orbits and fingerprints memoized per distinct raw child, give the
    /// per-mask reference's edge sequence field for field.
    #[test]
    fn factored_expansion_matches_the_per_mask_reference() {
        ftss_rng::check::forall(150, |g| {
            let n = g.gen_range(2..=MAX_GRAPH_N as u64) as usize;
            let faulty = ProcessId(g.gen_range(0..n as u64) as usize);
            let stabilization = g.gen_range(0..3u64) as usize;
            let cfg = node_config(n, faulty, stabilization);
            let parent = sample_parent(g, n, stabilization);
            let (got, want) = edge_sequences(&parent, &cfg);
            assert_eq!(got.len(), 1 << cfg.mask_bits());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(
                    a, b,
                    "n={n} faulty={faulty} stab={stabilization} {parent:?}"
                );
            }
        });
    }

    /// The memo's collision path: distinct raw children of one node that
    /// share a slot and alternate in mask order, so a slot is evicted and
    /// refilled, on a node the factored walk still expands exactly.
    #[test]
    fn memo_evictions_keep_the_edge_sequence() {
        let mut rng = ftss_rng::StdRng::seed_from_u64(29);
        let mut evicting = 0;
        for _ in 0..40 {
            let faulty = ProcessId(rng.gen_range(0..MAX_GRAPH_N as u64) as usize);
            let cfg = node_config(MAX_GRAPH_N, faulty, 1);
            let parent = sample_parent(&mut rng, MAX_GRAPH_N, 1);
            let pairs = eligible_pairs(MAX_GRAPH_N, faulty);
            let mut slots: [Option<PackedState>; MEMO_SLOTS] = [None; MEMO_SLOTS];
            let mut evictions = 0;
            let next_counters = per_mask_counters(&parent, &cfg, &pairs);
            for_each_child(&parent, &cfg, &pairs, next_counters, |_, child| {
                let slot = &mut slots[memo_slot(&child)];
                if slot.is_some_and(|raw| raw != child) {
                    evictions += 1;
                }
                *slot = Some(child);
            });
            if evictions > 0 {
                evicting += 1;
                let (got, want) = edge_sequences(&parent, &cfg);
                assert_eq!(got, want);
            }
        }
        assert!(evicting > 0, "no sampled node evicts a memo slot");
    }

    #[test]
    fn eligible_pairs_match_the_tape_consultation_order() {
        let pairs = eligible_pairs(3, ProcessId(0));
        let want: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (1, 0), (2, 0)];
        let got: Vec<(usize, usize)> = pairs.iter().map(|&(s, d)| (s.index(), d.index())).collect();
        assert_eq!(got, want);
        assert_eq!(eligible_pairs(5, ProcessId(2)).len(), 8);
    }

    /// The incremental per-edge oracle must agree with the legacy
    /// whole-history oracle on random mask chains: drive both the graph
    /// transition (no canonicalization, so states correspond 1:1) and a
    /// real runner over the same omission schedule, and compare "any
    /// violation so far" after every round.
    #[test]
    fn edge_atoms_match_the_legacy_oracle_on_random_chains() {
        ftss_rng::check::forall(60, |g| {
            let n = g.gen_range(2..5u64) as usize;
            let rounds = g.gen_range(1..5u64) as usize;
            let seed = g.next_u64();
            let stab = g.gen_range(0..2u64) as usize;
            let faulty = ProcessId(g.gen_range(0..n as u64) as usize);
            let bits = 2 * (n - 1);
            let masks: Vec<u32> = (0..rounds)
                .map(|_| (g.next_u64() & ((1 << bits) - 1)) as u32)
                .collect();

            let cfg = GraphConfig {
                n,
                corruption_seed: seed,
                faulty,
                stabilization: stab,
                rounds: Some(rounds),
                jobs: 1,
                max_states: 1 << 20,
            };
            let pairs = eligible_pairs(n, faulty);
            let fper = Fingerprinter::new();

            // Graph side: walk exactly the sampled chain, no dedup and no
            // canonicalization (identity orbit), collecting edge atoms.
            let stepper = RunBuilder::corrupted(n, 1, seed).stepper();
            let raw: Vec<u64> = (0..n).map(|p| stepper.states()[p].c.get()).collect();
            let mut node = NodeState::root(&raw, stab);
            let mut incremental: Vec<bool> = Vec::new(); // violation known after round k?
            let mut any = false;
            for &m in &masks {
                let exps = expand(&node, &cfg, &pairs, &fper);
                let e = exps
                    .into_iter()
                    .find(|e| e.mask == m)
                    .expect("mask in range");
                // Theorem-3 atoms only: the stabilization atom tracks a
                // different (non-monotone) oracle, pinned separately below.
                any = any || matches!(e.violation, Some("agreement" | "rate"));
                incremental.push(any);
                // Follow the RAW child (undo canonicalization) so the next
                // round's mask keeps its original labels.
                let inv = invert(&e.perm);
                node = e.child.permuted(&inv);
            }

            // Legacy side: one tape per prefix, full-history oracle.
            let tape: Vec<bool> = masks
                .iter()
                .flat_map(|m| (0..bits).map(move |b| m & (1 << b) != 0))
                .collect();
            for k in 1..=rounds {
                let legacy_cfg = cfg.replay_config(k, k * bits);
                let legacy = check_tape(&legacy_cfg, &tape[..k * bits]).is_some();
                assert_eq!(
                    incremental[k - 1],
                    legacy,
                    "n={n} rounds={k} stab={stab} faulty={faulty} seed={seed} masks={masks:?}"
                );
            }
        });
    }

    /// The per-edge stabilization atom must agree with the *decided*
    /// whole-history Theorem-4 oracle prefix-for-prefix — not cumulatively:
    /// `thm4_decided` is non-monotone (a decided-dead window is replaced by
    /// a fresh, open one when the coterie shifts), and the atom must track
    /// that exactly.
    #[test]
    fn thm4_atom_matches_the_legacy_oracle_on_random_chains() {
        ftss_rng::check::forall(60, |g| {
            let n = g.gen_range(2..5u64) as usize;
            let rounds = g.gen_range(1..6u64) as usize;
            let seed = g.next_u64();
            let stab = g.gen_range(0..3u64) as usize;
            let faulty = ProcessId(g.gen_range(0..n as u64) as usize);
            let bits = 2 * (n - 1);
            let masks: Vec<u32> = (0..rounds)
                .map(|_| (g.next_u64() & ((1 << bits) - 1)) as u32)
                .collect();

            let cfg = GraphConfig {
                n,
                corruption_seed: seed,
                faulty,
                stabilization: stab,
                rounds: Some(rounds),
                jobs: 1,
                max_states: 1 << 20,
            };
            let pairs = eligible_pairs(n, faulty);
            let fper = Fingerprinter::new();

            let stepper = RunBuilder::corrupted(n, 1, seed).stepper();
            let raw: Vec<u64> = (0..n).map(|p| stepper.states()[p].c.get()).collect();
            let mut node = NodeState::root(&raw, stab);
            let mut fired: Vec<bool> = Vec::new(); // atom verdict per edge
            for &m in &masks {
                let exps = expand(&node, &cfg, &pairs, &fper);
                let e = exps
                    .into_iter()
                    .find(|e| e.mask == m)
                    .expect("mask in range");
                // Evaluate the atom directly (not via `check_edge`, which
                // short-circuits on the Theorem-3 atoms). All three fields
                // are label-invariant, so the canonical child suffices.
                let alive = if e.child.deviated {
                    e.child.thm4_alive & 2 != 0
                } else {
                    e.child.thm4_alive & 1 != 0
                };
                fired.push(e.child.stable_len as usize > stab && !alive);
                let inv = invert(&e.perm);
                node = e.child.permuted(&inv);
            }

            let tape: Vec<bool> = masks
                .iter()
                .flat_map(|m| (0..bits).map(move |b| m & (1 << b) != 0))
                .collect();
            for k in 1..=rounds {
                let legacy_cfg = cfg.replay_config(k, k * bits);
                let legacy = check_tape_thm4(&legacy_cfg, &tape[..k * bits]).is_some();
                assert_eq!(
                    fired[k - 1],
                    legacy,
                    "n={n} rounds={k} stab={stab} faulty={faulty} seed={seed} masks={masks:?}"
                );
            }
        });
    }

    fn invert(p: &Perm) -> Perm {
        let mut inv = identity_perm();
        for i in 0..8 {
            inv[p[i] as usize] = i as u8;
        }
        inv
    }

    /// Graph mode must agree with the legacy enumerator verdict-for-verdict
    /// on configurations both can cover exhaustively.
    #[test]
    fn graph_matches_enumerator_verdicts() {
        for seed in [7u64, 11, 42] {
            for stab in [1usize, 0] {
                let mut dcfg = DfsConfig::small(seed);
                dcfg.stabilization = stab;
                let mut gcfg = GraphConfig::small(seed);
                gcfg.stabilization = stab;
                let legacy = explore(&dcfg).unwrap();
                let graph = explore_graph(&gcfg).unwrap();
                assert_eq!(
                    legacy.counterexample.is_some(),
                    graph.counterexample.is_some(),
                    "seed {seed} stab {stab}: graph and enumerator disagree"
                );
                if let Some(gce) = &graph.counterexample {
                    // The graph counterexample replays through the legacy
                    // oracle by construction.
                    assert_eq!(
                        check_tape(&gce.cfg, &gce.counterexample.tape),
                        Some(gce.counterexample.detail.clone())
                    );
                }
            }
        }
    }

    #[test]
    fn graph_reports_are_jobs_invariant() {
        let mut base = GraphConfig::fixpoint(4, 7);
        base.rounds = Some(3);
        let serial = explore_graph(&base).unwrap();
        for jobs in 2..=4 {
            let mut cfg = base.clone();
            cfg.jobs = jobs;
            assert_eq!(explore_graph(&cfg).unwrap(), serial, "jobs={jobs}");
        }
    }

    /// Everything a search stores, folded into one number: per visited
    /// state (in fingerprint order) its fingerprint, parent, entering mask
    /// and permutation, and encoding.
    fn visited_digest(visited: &FpMap<Visited>) -> u128 {
        let mut fps: Vec<&u128> = visited.keys().collect();
        fps.sort_unstable();
        let mut bytes = Vec::new();
        for fp in fps {
            let v = &visited[fp];
            bytes.extend_from_slice(&fp.to_le_bytes());
            bytes.extend_from_slice(&v.parent.unwrap_or(0).to_le_bytes());
            bytes.extend_from_slice(&v.mask.to_le_bytes());
            bytes.extend_from_slice(&v.perm);
            v.state.unpack().encode(&mut bytes);
        }
        Fingerprinter::new().fingerprint(&bytes)
    }

    /// The search tree itself — fingerprints, parent links, stored masks
    /// and permutations — against digests recorded with the brute-force
    /// canonicalizer and the unpruned merge (PR 12's parent commit), at
    /// every worker count.
    #[test]
    fn search_trees_match_the_recorded_digests() {
        let fixpoint_f2 = GraphConfig {
            faulty: ProcessId(2),
            ..GraphConfig::fixpoint(4, 11)
        };
        let two_layers = GraphConfig {
            rounds: Some(2),
            ..GraphConfig::fixpoint(6, 7)
        };
        for (cfg, states, digest) in [
            (fixpoint_f2, 147, 0x474572aa2fdb9523db2f63a81274be0e),
            (
                GraphConfig::fixpoint(5, 7),
                287,
                0x623a08cfad1af6f280a41b01a17d5cb9,
            ),
            (two_layers, 404, 0x4b57e6c8935e20f99552a342abab5066),
        ] {
            for jobs in [1, 3] {
                let (report, visited) = search(&GraphConfig {
                    jobs,
                    ..cfg.clone()
                })
                .unwrap();
                assert_eq!(report.visited, states, "{cfg:?}");
                assert_eq!(visited_digest(&visited), digest, "{cfg:?} jobs={jobs}");
            }
        }
    }

    #[test]
    fn fixpoint_closes_and_certifies_unbounded_horizon() {
        // n = 3 fixpoint: the graph is finite, closes without violation,
        // and dedup + orbits must both have fired.
        let report = explore_graph(&GraphConfig::fixpoint(3, 7)).unwrap();
        assert!(report.fixpoint, "exploration must close");
        assert!(report.counterexample.is_none(), "Theorem 3 holds");
        assert!(report.dedup_hits > 0, "revisits must be pruned");
        assert!(report.visited < report.expansions);
    }

    #[test]
    fn broken_oracle_yields_a_confirmed_minimal_counterexample() {
        let mut cfg = GraphConfig::small(7);
        cfg.stabilization = 0;
        let report = explore_graph(&cfg).unwrap();
        let gce = report.counterexample.expect("stab 0 must violate");
        // Seed 7's corrupted start disagrees on its own: minimal tape is
        // empty, found at depth 1 (the m = 0 obligation of Def 2.4).
        assert!(gce.counterexample.tape.is_empty());
        assert_eq!(
            check_tape(&gce.cfg, &gce.counterexample.tape),
            Some(gce.counterexample.detail.clone())
        );
    }

    /// Deep exploration past the legacy d = 20 wall: 5 rounds at n = 3 is
    /// a 60-bit tape space (2^60 schedules) — the graph walks it whole.
    #[test]
    fn graph_covers_depths_past_the_tape_bound_wall() {
        let mut cfg = GraphConfig::fixpoint(3, 9);
        cfg.rounds = Some(5);
        let report = explore_graph(&cfg).unwrap();
        // The graph may close before the requested depth — a fixpoint
        // covers every deeper round too.
        assert!(report.depth == 5 || report.fixpoint, "{report:?}");
        assert!(report.counterexample.is_none());
        // The whole 5-round reachable space in far fewer edge-expansions
        // than the enumerator's 2^20-run ceiling would even allow.
        assert!(report.expansions < 1 << 20);
    }

    #[test]
    fn validation_rejects_out_of_range_configs() {
        let mut cfg = GraphConfig::small(0);
        cfg.n = 7;
        assert!(explore_graph(&cfg).is_err());
        let mut cfg = GraphConfig::small(0);
        cfg.rounds = Some(0);
        assert!(explore_graph(&cfg).is_err());
        let mut cfg = GraphConfig::small(0);
        cfg.jobs = 0;
        assert!(explore_graph(&cfg).is_err());
        let mut cfg = GraphConfig::small(0);
        cfg.faulty = ProcessId(5);
        assert!(explore_graph(&cfg).is_err());
        for stabilization in [254, 255, 256, 300] {
            let cfg = GraphConfig {
                stabilization,
                ..GraphConfig::small(0)
            };
            let err = explore_graph(&cfg).unwrap_err();
            assert!(err.contains("stable_len"), "{err}");
        }
        let cfg = GraphConfig {
            stabilization: 253,
            ..GraphConfig::small(0)
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn state_ceiling_is_enforced() {
        let mut cfg = GraphConfig::fixpoint(4, 3);
        cfg.max_states = 2;
        let err = explore_graph(&cfg).unwrap_err();
        assert!(err.contains("max-states"), "{err}");
    }

    /// End-to-end sanity at n = 5: a full fixpoint certification, which
    /// the enumerator cannot touch (eligible copies = 8/round; 3 rounds
    /// already exceed the 2^20 ceiling).
    #[test]
    fn n5_fixpoint_certifies_theorem3() {
        let report = explore_graph(&GraphConfig::fixpoint(5, 7)).unwrap();
        assert!(report.fixpoint);
        assert!(report.counterexample.is_none());
        assert!(report.orbit_hits > 0, "symmetry must collapse orbits");
    }

    /// Spot-check the incremental oracle against the whole-history oracle
    /// through a real runner on an all-deliver chain (regression anchor
    /// for the gating arithmetic).
    #[test]
    fn all_deliver_chain_is_clean_under_thm3_gates() {
        let cfg = GraphConfig::small(7);
        let report = explore_graph(&cfg).unwrap();
        assert!(report.counterexample.is_none());
        let out = RunBuilder::corrupted(3, 2, 7).run(&mut ftss::sync_sim::NoFaults);
        assert_eq!(thm3_round_agreement(&out.history, 1), None);
    }
}
