//! Graph-mode exploration: fingerprinted, symmetry-reduced, parallel BFS
//! over the reachable-state graph.
//!
//! A tape enumeration walks the schedule *tree*: `2^d` full runs for a
//! `d`-bit tape, re-executing every prefix and re-visiting the many
//! schedules that lead to identical global states (round agreement
//! collapses differences fast, so most of the tree is redundant). This
//! module, the one synchronous checker, walks the reachable-state
//! *graph* instead, TLC-style:
//!
//! * a **node** is a canonical [`NodeState`](crate::fingerprint::NodeState)
//!   — exactly the future-determining part of a global state, normalized
//!   (counters shifted to min 0) and canonicalized over process
//!   relabelings fixing the faulty process;
//! * an **edge** is one round under one omission mask (`2·(n−1)` bits,
//!   one per copy eligible for omission), executed through the
//!   [`SyncStepper`](ftss::sync_sim::SyncStepper) seam, never a replayed
//!   prefix. A node's `2^(2(n−1))` masks share `2^(n−1) + 2(n−1)`
//!   single-process steps (one per distinct inbox: the faulty process's
//!   `2^(n−1)`, two for each other process), and are walked by
//!   **effect class** — the masks that give one raw child — so each
//!   class is judged, canonicalized, fingerprinted and probed once,
//!   while every count stays per mask (see [`for_each_edge`]);
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
//! bounded tape enumeration can do. With `rounds: Some(d)` it covers
//! exactly the `d`-round schedules, which the tests hold to a frozen
//! tape enumeration verdict for verdict.
//!
//! Each BFS layer is sharded across workers with
//! [`ftss_sweep::map_cells`] and merged in canonical (fingerprint, mask)
//! order; reports are byte-identical for every `--jobs`, like every other
//! subsystem. Workers prune against the visited set as it stood when the
//! layer started, so what reaches the merge is a layer's candidate
//! states, not its edges. A violating edge is replayed concretely: the
//! search path's masks are mapped back through the accumulated
//! canonicalization permutations into an honest omission tape, confirmed
//! against the whole-history oracle on the raw simulator
//! ([`crate::dfs::check_tape`]) and shrunk to a 1-minimal
//! [`Counterexample`], which a schedule file replays
//! ([`crate::schedule`]).

use crate::dfs::{check_tape, check_tape_thm4, Counterexample, DfsConfig};
use crate::fingerprint::{
    compose_perm, identity_perm, mask_full, Fingerprinter, FpMap, NodeState, PackedState, Perm,
    PermTable, MAX_GRAPH_N,
};
use crate::runbuild::RunBuilder;
use crate::shrink::shrink_with;
use ftss::core::{ProcessId, RoundCounter};
use ftss::protocols::{RoundAgreement, RoundAgreementState};
use ftss::sync_sim::{SyncProtocol, SyncStepper};
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
    /// The pinned acceptance configuration: `n = 3`, omissions through
    /// `p0`, 2 rounds (≙ every 8-bit omission tape).
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

    /// The [`DfsConfig`] that replays a `depth`-round witness of
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

/// A violating edge, replayed on the raw simulator: the concrete
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
    /// to a tape enumeration's `schedules × rounds`. The count is per mask although a
    /// node's edges are computed from `2^(n−1) + 2(n−1)` single-process
    /// steps and judged once per effect class (the masks with one raw
    /// child).
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

/// One effect class of edges, as [`for_each_edge`] hands it over: the
/// masks that give one raw child, and what they share.
#[derive(Clone, Copy)]
struct Edge {
    /// The class's least omission mask: the edge that stands for it.
    mask: u32,
    /// How many masks the class holds.
    masks: u32,
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
/// both omission masks and replay tape segments.
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

/// What one round does to every process: its next counter and its
/// causal reach.
#[derive(Clone, Copy)]
struct Outcome {
    counters: [u64; MAX_GRAPH_N],
    reach: [u8; MAX_GRAPH_N],
}

/// One process's round out of `parent` per call: `(j, heard)` gives the
/// next counter and causal reach of process `j` when it hears exactly the
/// senders in the set `heard` (its own copy always). The [`SyncStepper`]
/// — `protocol`'s real step function, round agreement's outside the
/// tests — gives the counter, from the parent's broadcasts computed once;
/// every heard sender adds itself, and what it had reached, to `j`'s
/// reach.
fn transitions<P>(protocol: P, parent: &PackedState, n: usize) -> impl FnMut(usize, u8) -> (u64, u8)
where
    P: SyncProtocol<State = RoundAgreementState>,
{
    let states: Vec<RoundAgreementState> = parent.counters[..n]
        .iter()
        .map(|&c| RoundAgreementState {
            c: RoundCounter::new(c),
        })
        .collect();
    let mut stepper = SyncStepper::new(protocol, states);
    let parent_reach = parent.reach;
    move |j, heard| {
        let hears = |s: usize| s != j && heard & 1 << s != 0;
        let next = stepper.step_process(ProcessId(j), |from| hears(from.index()));
        let reach = (0..n)
            .filter(|&s| hears(s))
            .fold(parent_reach[j], |r, s| r | parent_reach[s] | 1 << s);
        (next.c.get(), reach)
    }
}

/// The raw (uncanonicalized) child of `parent` after a round with outcome
/// `next`: rate bits, normalization, coterie and the stable window's
/// bookkeeping follow from it, the deviation flag and the parent.
fn child_of(parent: &PackedState, cfg: &GraphConfig, next: Outcome, deviated: bool) -> PackedState {
    let n = cfg.n;
    let f = cfg.faulty.index();
    let full = mask_full(n) as u8;
    let corr = full & !(1 << f);

    // Counters, normalized; rate bits against the parent.
    let mut counters = next.counters;
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

    let correct = if deviated { corr } else { full };
    let mut coterie = full;
    for (q, &r) in next.reach[..n].iter().enumerate() {
        if correct & (1 << q) != 0 {
            coterie &= r;
        }
    }

    let g = cfg.stabilization.max(1) as u8;
    let same_window = parent.stable_len > 0 && coterie == parent.coterie;
    let stable_len = if same_window {
        parent.stable_len.saturating_add(1).min(g + 2)
    } else {
        1
    };
    let first_window = parent.first_window && (parent.stable_len == 0 || same_window);

    // alive' = A(t−1) ∧ ((alive ∧ R(t−1)) ∨ len(t) ≤ r+1), per faulty-set
    // variant (bit 0: faulty counted correct, bit 1: counted faulty; see
    // `check_edge`'s docs), from the parent's counters' agreement and
    // rate bits. On a window-start edge the carried witness is void (the
    // window has no prior offsets), so only the candidate term survives.
    // `stable_len` saturates at `g+2 > r+1`, so the comparison is exact.
    let agrees = |set: u8| {
        let mut members = (0..n).filter(|&j| set & (1 << j) != 0);
        let first = members.next().map(|j| parent.counters[j]);
        members.all(|j| Some(parent.counters[j]) == first)
    };
    let cand = (stable_len as usize) <= cfg.stabilization + 1;
    let alive = |bit: u8, set: u8| {
        let keep = same_window && parent.thm4_alive & bit != 0 && parent.rate_ok & set == set;
        (agrees(set) && (keep || cand)) as u8 * bit
    };
    let thm4_alive = alive(1, full) | alive(2, corr);

    PackedState {
        n: parent.n,
        counters,
        rate_ok,
        reach: next.reach,
        deviated,
        coterie,
        stable_len,
        first_window,
        thm4_alive,
    }
}

/// One way a round can go for one process under the masks that share
/// it: its outcome, and the mask bits (a pattern over the copies into
/// the process) that pick it.
#[derive(Clone, Copy, Default)]
struct Choice {
    counter: u64,
    reach: u8,
    /// How many patterns pick it.
    masks: u32,
    /// The least pattern that picks it.
    least: u32,
    /// The least non-zero pattern that picks it (0: none).
    least_nonzero: u32,
}

/// A process's distinct outcomes, at most `K`.
#[derive(Clone, Copy)]
struct Choices<const K: usize> {
    list: [Choice; K],
    len: usize,
}

impl<const K: usize> Choices<K> {
    fn new() -> Self {
        Choices {
            list: [Choice::default(); K],
            len: 0,
        }
    }

    /// Records that `pattern` gives the outcome `(counter, reach)`.
    /// Patterns arrive in ascending order.
    fn add(&mut self, counter: u64, reach: u8, pattern: u32) {
        match self.list[..self.len]
            .iter_mut()
            .find(|c| (c.counter, c.reach) == (counter, reach))
        {
            Some(c) => {
                c.masks += 1;
                if c.least_nonzero == 0 {
                    c.least_nonzero = pattern;
                }
            }
            None => {
                self.list[self.len] = Choice {
                    counter,
                    reach,
                    masks: 1,
                    least: pattern,
                    least_nonzero: pattern,
                };
                self.len += 1;
            }
        }
    }

    fn as_slice(&self) -> &[Choice] {
        &self.list[..self.len]
    }
}

/// Walks the edges out of one canonical node — all `2^(2(n−1))` one-round
/// omission masks — one **effect class** at a time: the masks that give
/// the same raw child. For each class it hands over the least mask, the
/// class's size, the child's orbit representative and fingerprint and
/// the edge's obligation atoms, computed once.
///
/// In the paper's round model a transition reads only a process's
/// round-start state and its inbox, and an omission only changes copies
/// that touch the faulty process `f`. So a raw child is a function of
/// three things: `f`'s outcome (next counter and reach), which depends
/// only on which of its `n − 1` in-copies dropped; each ordinary
/// receiver's outcome, which depends only on whether `f`'s copy to it
/// dropped; and the deviation flag, set by any non-zero mask. So the walk
/// steps each distinct inbox once through `step`, the per-process
/// transition `(j, heard) -> (counter, reach)`: `f` once per subset of
/// its in-copies dropped, ascending, and each ordinary receiver twice,
/// hearing everyone and then everyone but `f` — `2^(n−1) + 2(n−1)`
/// process steps per node (42 at n = 6, where whole rounds would take
/// `2^(n−1)·n` = 192) — and keeps each process's *distinct* outcomes. A
/// class is one pick per process: its size is the product
/// of the picks' pattern counts, and its least mask the OR of their
/// least patterns, since the processes' patterns occupy disjoint bits.
/// When the parent has not deviated, mask 0 leaves its class — the one
/// of all-zero patterns — as a class of its own; the rest of that class
/// starts at its least single-process non-zero pattern. A node's 1 024
/// masks at n = 6 fall into 8.6 classes on average over the seed-7
/// fixpoint (10.5 over its first two layers), pinned by
/// `class_walk_work_is_pinned`. Nothing is allocated per class.
fn for_each_edge(
    parent: &PackedState,
    cfg: &GraphConfig,
    pairs: &[(ProcessId, ProcessId)],
    fper: &Fingerprinter,
    mut step: impl FnMut(usize, u8) -> (u64, u8),
    mut visit: impl FnMut(Edge),
) {
    let n = cfg.n;
    let f = cfg.faulty.index();
    let table = PermTable::new(n, cfg.faulty);
    let drop_bit = drop_bits(n, pairs);
    let everyone = mask_full(n) as u8;

    // Each process's distinct outcomes: `f`'s over the subsets of its
    // in-copies' mask bits, which ascend from empty to full; a receiver's
    // with `f`'s copy delivered, then dropped.
    let in_mask = (0..n).fold(0, |m, i| m | drop_bit[i * n + f]);
    let mut faulty = Choices::<{ 1 << (MAX_GRAPH_N - 1) }>::new();
    let mut sub = 0u32;
    loop {
        let heard = (0..n)
            .filter(|&i| sub & drop_bit[i * n + f] != 0)
            .fold(everyone, |h, i| h & !(1 << i));
        let (counter, reach) = step(f, heard);
        faulty.add(counter, reach, sub);
        if sub == in_mask {
            break;
        }
        sub = sub.wrapping_sub(in_mask) & in_mask;
    }
    let mut receivers = [Choices::<2>::new(); MAX_GRAPH_N];
    for j in (0..n).filter(|&j| j != f) {
        for (heard, pattern) in [(everyone, 0), (everyone & !(1 << f), drop_bit[f * n + j])] {
            let (counter, reach) = step(j, heard);
            receivers[j].add(counter, reach, pattern);
        }
    }
    let choices = |j: usize| {
        if j == f {
            faulty.as_slice()
        } else {
            receivers[j].as_slice()
        }
    };

    let mut judge = |mask: u32, masks: u32, next: Outcome, deviated: bool| {
        let child = child_of(parent, cfg, next, deviated);
        let violation = check_edge(parent, &child, cfg.faulty, cfg.stabilization);
        let (canon, perm) = table.canonicalize(&child);
        visit(Edge {
            mask,
            masks,
            child_fp: fper.packed(&canon),
            child: canon,
            perm,
            violation,
        });
    };
    // One pick per process, odometer-style (process 0 turns fastest).
    let mut pick = [0usize; MAX_GRAPH_N];
    loop {
        let mut next = Outcome {
            counters: [0; MAX_GRAPH_N],
            reach: [0; MAX_GRAPH_N],
        };
        let (mut masks, mut least, mut rest) = (1u32, 0u32, u32::MAX);
        for (j, &p) in pick[..n].iter().enumerate() {
            let c = choices(j)[p];
            next.counters[j] = c.counter;
            next.reach[j] = c.reach;
            masks *= c.masks;
            least |= c.least;
            if c.least_nonzero != 0 {
                rest = rest.min(c.least_nonzero);
            }
        }
        if least == 0 && !parent.deviated {
            // Mask 0 alone keeps the parent undeviated.
            judge(0, 1, next, false);
            if masks > 1 {
                judge(rest, masks - 1, next, true);
            }
        } else {
            judge(least, masks, next, true);
        }

        let Some(j) = (0..n).find(|&j| pick[j] + 1 < choices(j).len()) else {
            return;
        };
        pick[j] += 1;
        pick[..j].fill(0);
    }
}

/// Expands one canonical node for the layer merge, keeping only the
/// edges that can add a state (`visited` is the set at layer start).
/// Every count is per mask, as if each of the node's masks were its own
/// edge: orbit hits weigh by class size, and the violation and each
/// fresh child are the ones the least mask reaches.
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
    let step = transitions(RoundAgreement, parent, cfg.n);
    for_each_edge(parent, cfg, pairs, fper, step, |edge| {
        if edge.perm != identity_perm() {
            out.orbit_hits += u64::from(edge.masks);
        }
        if let Some(rule) = edge.violation {
            if out.violation.is_none_or(|(mask, _)| edge.mask < mask) {
                out.violation = Some((edge.mask, rule));
            }
        }
        if visited.contains_key(&edge.child_fp) {
            return;
        }
        match out.fresh.iter_mut().find(|e| e.child_fp == edge.child_fp) {
            Some(first) if edge.mask < first.mask => *first = edge,
            Some(_) => {}
            None => out.fresh.push(edge),
        }
    });
    out.fresh.sort_unstable_by_key(|e| e.mask);
    out
}

/// Rebuilds a concrete omission tape for the search path ending in the
/// edge `(parent_fp, mask)`, then confirms and shrinks it on the raw
/// simulator.
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
    use crate::fingerprint::SEARCH_WORK;
    use crate::oracle::thm3_round_agreement;
    use ftss::sync_sim::{Inbox, ProtocolCtx};
    use ftss_rng::Rng;

    /// One edge out of an arbitrary (not necessarily canonical) node, in
    /// the public state type.
    struct Expansion {
        mask: u32,
        child: NodeState,
        perm: Perm,
        violation: Option<&'static str>,
    }

    /// One whole round out of `parent` per call, with the eligible copies
    /// in the given mask dropped: the per-mask reference's transition,
    /// independent of the per-process one the class walk steps.
    fn rounds(
        parent: &PackedState,
        cfg: &GraphConfig,
        pairs: &[(ProcessId, ProcessId)],
    ) -> impl FnMut(u32) -> Outcome {
        let n = cfg.n;
        let drop_bit = drop_bits(n, pairs);
        let base_states: Vec<RoundAgreementState> = parent.counters[..n]
            .iter()
            .map(|&c| RoundAgreementState {
                c: RoundCounter::new(c),
            })
            .collect();
        let base = SyncStepper::new(RoundAgreement, base_states);
        let parent_reach = parent.reach;
        move |drop| {
            let mut stepper = base.clone();
            stepper.step_round(|from, to| drop & drop_bit[from.index() * n + to.index()] == 0);
            let mut out = Outcome {
                counters: [0; MAX_GRAPH_N],
                reach: parent_reach,
            };
            for (c, state) in out.counters.iter_mut().zip(stepper.states()) {
                *c = state.c.get();
            }
            for s in 0..n {
                for d in (0..n).filter(|&d| d != s && drop & drop_bit[s * n + d] == 0) {
                    out.reach[d] |= parent_reach[s] | 1 << s;
                }
            }
            out
        }
    }

    /// The per-mask walk the class walk stands in for: one whole stepper
    /// round per mask, then `check_edge`, `canonicalize` and the
    /// fingerprint per edge, in mask order.
    fn for_each_edge_per_mask(
        parent: &PackedState,
        cfg: &GraphConfig,
        pairs: &[(ProcessId, ProcessId)],
        fper: &Fingerprinter,
        mut visit: impl FnMut(Edge),
    ) {
        let table = PermTable::new(cfg.n, cfg.faulty);
        let mut round = rounds(parent, cfg, pairs);
        for mask in 0..1u32 << cfg.mask_bits() {
            let child = child_of(parent, cfg, round(mask), parent.deviated || mask != 0);
            let violation = check_edge(parent, &child, cfg.faulty, cfg.stabilization);
            let (child, perm) = table.canonicalize(&child);
            visit(Edge {
                mask,
                masks: 1,
                child_fp: fper.packed(&child),
                child,
                perm,
                violation,
            });
        }
    }

    /// Every edge out of `parent`, in mask order, pruning nothing.
    fn every_edge(
        parent: &NodeState,
        cfg: &GraphConfig,
        pairs: &[(ProcessId, ProcessId)],
        fper: &Fingerprinter,
    ) -> Vec<Expansion> {
        let mut out = Vec::new();
        for_each_edge_per_mask(&PackedState::pack(parent), cfg, pairs, fper, |edge| {
            out.push(Expansion {
                mask: edge.mask,
                child: edge.child.unpack(),
                perm: edge.perm,
                violation: edge.violation,
            })
        });
        out
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

    /// What the edges out of a node say of one raw child: its least mask,
    /// its mask count, its fingerprint and its verdict.
    type ChildFacts = (u32, u32, u128, Option<&'static str>);

    /// Edges grouped by raw child — named by its orbit representative and
    /// the relabeling that reaches it — in least-mask order.
    fn by_raw_child(edges: &[Edge]) -> Vec<((PackedState, Perm), ChildFacts)> {
        let mut out: Vec<((PackedState, Perm), ChildFacts)> = Vec::new();
        for e in edges {
            let facts = (e.mask, e.masks, e.child_fp, e.violation);
            match out.iter_mut().find(|(raw, _)| *raw == (e.child, e.perm)) {
                Some((_, seen)) => {
                    assert_eq!((seen.2, seen.3), (facts.2, facts.3), "one raw child");
                    seen.0 = seen.0.min(facts.0);
                    seen.1 += facts.1;
                }
                None => out.push(((e.child, e.perm), facts)),
            }
        }
        out.sort_by_key(|(_, facts)| facts.0);
        out
    }

    /// An edge as the layer merge reads it.
    type EdgeFields = (u32, PackedState, u128, Perm, Option<&'static str>);

    fn fields(e: &Edge) -> EdgeFields {
        (e.mask, e.child, e.child_fp, e.perm, e.violation)
    }

    /// The classes out of `parent` and its per-mask edges stand for the
    /// same raw children — each with the same least mask, mask count,
    /// orbit representative, relabeling, fingerprint and verdict — and
    /// `expand` hands the merge what a per-mask expansion would: the orbit
    /// hits, the first violation in mask order and the fresh edges, first
    /// per child in mask order, against a visited set holding about half
    /// the children.
    fn assert_class_walk_matches(parent: &PackedState, cfg: &GraphConfig, g: &mut impl Rng) {
        let ctx = format!(
            "n={} faulty={} stab={} {parent:?}",
            cfg.n, cfg.faulty, cfg.stabilization
        );
        let pairs = eligible_pairs(cfg.n, cfg.faulty);
        let fper = Fingerprinter::new();
        let mut classes = Vec::new();
        let step = transitions(RoundAgreement, parent, cfg.n);
        for_each_edge(parent, cfg, &pairs, &fper, step, |e| classes.push(e));
        let mut per_mask = Vec::new();
        for_each_edge_per_mask(parent, cfg, &pairs, &fper, |e| per_mask.push(e));
        assert_eq!(per_mask.len(), 1 << cfg.mask_bits());
        assert_eq!(by_raw_child(&classes), by_raw_child(&per_mask), "{ctx}");

        let mut visited = FpMap::default();
        for e in per_mask.iter().filter(|_| g.gen_bool(0.5)) {
            visited.insert(
                e.child_fp,
                Visited {
                    state: e.child,
                    parent: None,
                    mask: 0,
                    perm: identity_perm(),
                },
            );
        }
        let mut fresh: Vec<EdgeFields> = Vec::new();
        for e in &per_mask {
            if !visited.contains_key(&e.child_fp) && fresh.iter().all(|seen| seen.2 != e.child_fp) {
                fresh.push(fields(e));
            }
        }
        let orbit_hits = per_mask.iter().filter(|e| e.perm != identity_perm());
        let want = (
            orbit_hits.count() as u64,
            per_mask
                .iter()
                .find_map(|e| e.violation.map(|rule| (e.mask, rule))),
            fresh,
        );
        let got = expand(parent, cfg, &pairs, &fper, &visited);
        let got = (
            got.orbit_hits,
            got.violation,
            got.fresh.iter().map(fields).collect::<Vec<_>>(),
        );
        assert_eq!(got, want, "{ctx}");
    }

    /// [`assert_class_walk_matches`] on sampled parents: settled and
    /// arbitrary ones, with small, wide and near-`u64::MAX` counters, each
    /// walked for every faulty index and both deviation flags (with the
    /// undeviated parent's mask 0 split off its class).
    #[test]
    fn class_walk_matches_the_per_mask_reference() {
        ftss_rng::check::forall(60, |g| {
            let n = g.gen_range(2..=MAX_GRAPH_N as u64) as usize;
            let stabilization = g.gen_range(0..3u64) as usize;
            let sampled = sample_parent(g, n, stabilization);
            for (f, deviated) in (0..n).flat_map(|f| [(f, false), (f, true)]) {
                let cfg = node_config(n, ProcessId(f), stabilization);
                let parent = PackedState {
                    deviated,
                    ..sampled
                };
                assert_class_walk_matches(&parent, &cfg, g);
            }
        });
    }

    /// A node whose walk meets a violating class before the class that
    /// holds its least violating mask (an undeviated settled parent near
    /// `u64::MAX`: the rest of mask 0's class comes first): `expand` must
    /// still report the least one.
    #[test]
    fn class_walk_reports_the_least_violating_mask() {
        let parent = PackedState::pack(&NodeState {
            counters: vec![u64::MAX - 2; 2],
            rate_ok: 3,
            reach: vec![3, 2],
            deviated: false,
            coterie: 3,
            stable_len: 4,
            first_window: true,
            thm4_alive: 1,
        });
        let cfg = node_config(2, ProcessId(1), 2);
        let pairs = eligible_pairs(2, ProcessId(1));
        let mut violating = Vec::new();
        let step = transitions(RoundAgreement, &parent, cfg.n);
        for_each_edge(&parent, &cfg, &pairs, &Fingerprinter::new(), step, |e| {
            if e.violation.is_some() {
                violating.push(e.mask);
            }
        });
        assert_eq!(violating, [2, 1], "walk order");
        assert_class_walk_matches(&parent, &cfg, &mut ftss_rng::StdRng::seed_from_u64(0));
    }

    /// [`assert_class_walk_matches`] on every node two fixpoint searches
    /// reach. Reachable nodes are symmetric enough that distinct raw
    /// children share an orbit, which sampled parents rarely give.
    #[test]
    fn class_walk_matches_the_per_mask_reference_on_reachable_nodes() {
        let mut rng = ftss_rng::StdRng::seed_from_u64(32);
        let fixpoint_f2 = GraphConfig {
            faulty: ProcessId(2),
            ..GraphConfig::fixpoint(4, 11)
        };
        for cfg in [fixpoint_f2, GraphConfig::fixpoint(5, 7)] {
            let (_, visited) = search(&cfg).unwrap();
            let mut fps: Vec<&u128> = visited.keys().collect();
            fps.sort_unstable();
            for fp in fps {
                assert_class_walk_matches(&visited[fp].state, &cfg, &mut rng);
            }
        }
    }

    /// Round agreement, counting its broadcasts into `.0`.
    struct CountBroadcasts<'a>(&'a std::cell::Cell<u64>);

    impl SyncProtocol for CountBroadcasts<'_> {
        type State = RoundAgreementState;
        type Msg = u64;
        const JOINS_INBOX: bool = RoundAgreement::JOINS_INBOX;
        fn name(&self) -> &str {
            RoundAgreement.name()
        }
        fn init_state(&self, ctx: &ProtocolCtx) -> RoundAgreementState {
            RoundAgreement.init_state(ctx)
        }
        fn sends(&self, ctx: &ProtocolCtx, s: &RoundAgreementState) -> bool {
            RoundAgreement.sends(ctx, s)
        }
        fn broadcast(&self, ctx: &ProtocolCtx, s: &RoundAgreementState) -> u64 {
            self.0.set(self.0.get() + 1);
            RoundAgreement.broadcast(ctx, s)
        }
        fn step(&self, ctx: &ProtocolCtx, s: &mut RoundAgreementState, inbox: &Inbox<u64>) {
            RoundAgreement.step(ctx, s, inbox)
        }
        fn join(&self, acc: &mut u64, m: &u64) {
            RoundAgreement.join(acc, m)
        }
        fn step_joined(&self, ctx: &ProtocolCtx, s: &mut RoundAgreementState, max: &u64) {
            RoundAgreement.step_joined(ctx, s, max)
        }
    }

    /// The work `cfg`'s search does in its expansions, counted by walking
    /// each node it expands (a fixpoint's every node, or with
    /// `rounds: Some(d)` the nodes less than `d` edges from the root)
    /// again: `[nodes, classes judged, process steps, masks, broadcast
    /// phases, canonicalizations that searched, relabelings they
    /// compared]`.
    fn walk_counts(cfg: &GraphConfig) -> [u64; 7] {
        let (report, visited) = search(cfg).unwrap();
        let pairs = eligible_pairs(cfg.n, cfg.faulty);
        let fper = Fingerprinter::new();
        let depth = |mut fp: u128| {
            let mut depth = 0;
            while let Some(parent) = visited[&fp].parent {
                fp = parent;
                depth += 1;
            }
            depth
        };
        let [mut nodes, mut classes, mut stepped, mut masks] = [0u64; 4];
        let broadcasts = std::cell::Cell::new(0);
        let searched_before = SEARCH_WORK.get();
        for (&fp, node) in &visited {
            if cfg.rounds.is_some_and(|d| depth(fp) >= d) {
                continue;
            }
            nodes += 1;
            let mut step = transitions(CountBroadcasts(&broadcasts), &node.state, cfg.n);
            let counted = |j, heard| {
                stepped += 1;
                step(j, heard)
            };
            for_each_edge(&node.state, cfg, &pairs, &fper, counted, |e| {
                classes += 1;
                masks += u64::from(e.masks);
            });
        }
        assert_eq!(masks, report.expansions, "{cfg:?}");
        let (searches, relabelings) = SEARCH_WORK.get();
        let phases = broadcasts.get() / cfg.n as u64;
        let work = [
            searches - searched_before.0,
            relabelings - searched_before.1,
        ];
        [nodes, classes, stepped, masks, phases, work[0], work[1]]
    }

    /// The class walk's work, pinned as counts rather than a clock: on
    /// the n = 6 seed-7 searches a node judges 8.6 (fixpoint) or 10.5
    /// (two layers) classes on average for its 1 024 masks, and takes
    /// 2^(n−1) + 2(n−1) = 42 process steps. A per-mask loop, or a
    /// whole-round one (n steps per inbox of the faulty process), coming
    /// back fails here on any machine. The steps share one broadcast
    /// phase per node, and a canonicalization that searches compares
    /// COMMENT
    #[test]
    fn class_walk_work_is_pinned() {
        let two_layers = GraphConfig {
            rounds: Some(2),
            ..GraphConfig::fixpoint(6, 7)
        };
        let [nodes, classes, stepped, _, phases, searches, relabelings] = walk_counts(&two_layers);
        assert_eq!((nodes, classes, stepped), (225, 2_362, 225 * 42));
        assert_eq!((phases, searches, relabelings), (225, 2_111, 5_097));
        let [nodes, classes, stepped, _, phases, searches, relabelings] =
            walk_counts(&GraphConfig::fixpoint(6, 7));
        assert_eq!((nodes, classes, stepped), (573, 4_917, 573 * 42));
        assert_eq!((phases, searches, relabelings), (573, 4_268, 11_910));
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
                let exps = every_edge(&node, &cfg, &pairs, &fper);
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
                let exps = every_edge(&node, &cfg, &pairs, &fper);
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

    /// Graph mode must agree with a tape enumeration verdict-for-verdict
    /// on configurations both can cover exhaustively.
    #[test]
    fn graph_matches_enumerator_verdicts() {
        for seed in [7u64, 11, 42] {
            for stab in [1usize, 0] {
                let mut dcfg = crate::dfs::tests::small(seed);
                dcfg.stabilization = stab;
                let mut gcfg = GraphConfig::small(seed);
                gcfg.stabilization = stab;
                let (_, violation) = crate::dfs::tests::enumerate(&dcfg);
                let graph = explore_graph(&gcfg).unwrap();
                assert_eq!(
                    violation.is_some(),
                    graph.counterexample.is_some(),
                    "seed {seed} stab {stab}: graph and enumerator disagree"
                );
                if let Some(gce) = &graph.counterexample {
                    // The graph counterexample replays through the raw
                    // simulator's oracle by construction.
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

    /// Deep exploration: 5 rounds at n = 3 is a 20-bit tape space (2^20
    /// schedules of 5 rounds each) — the graph walks it whole.
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
        // than a 2^20-run tape enumeration.
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
    /// no tape enumeration touches (eligible copies = 8/round; 3 rounds
    /// already make 2^24 schedules).
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
