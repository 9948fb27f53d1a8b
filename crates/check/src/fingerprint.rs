//! Canonical state encoding, symmetry canonicalization, fingerprints.
//!
//! The graph explorer ([`crate::frontier`]) walks the reachable-state
//! *graph* of the omission-schedule model instead of the schedule tree,
//! so it needs an identity for a global state. That identity is built in
//! three layers, each defined here:
//!
//! 1. **Canonical node state** ([`NodeState`]) — everything the future of
//!    a run depends on, and nothing more: round counters *normalized by
//!    subtracting the minimum* (round agreement's dynamics and all of
//!    Theorem 3's obligations are invariant under a common shift, so two
//!    global states that differ by one are bisimilar), the last round's
//!    per-process rate flags, the causal-ancestor matrix, the deviation
//!    flag of the faulty process, and the current coterie-stable-window
//!    summary (coterie, saturated stable length, first-window flag).
//!    Depth is deliberately *not* part of the state: a state reached at
//!    round 3 and round 7 has the same obligations ahead of it, which is
//!    what lets the explorer run to a **fixpoint** and certify unbounded
//!    horizons.
//! 2. **Symmetry canonicalization** ([`NodeState::canonicalize`]) — round
//!    agreement is anonymous (its step is a max over a multiset) and the
//!    omission schedule space is generated per-copy against one faulty
//!    process, so any permutation of the *non-faulty* process indices
//!    maps reachable states to reachable states and violations to
//!    violations. The canonical representative of an orbit is the
//!    lexicographically least [`NodeState::encode`] over all `(n-1)!`
//!    permutations fixing the faulty index; the chosen permutation is
//!    returned so the explorer can reconstruct a concrete witness tape
//!    through the quotient (see DESIGN.md §14 for the soundness
//!    argument). No relabeling is listed or scanned: `PermTable`
//!    searches them by individualization–refinement, fixing the fields
//!    in encoding order and keeping exactly the relabelings under which
//!    the encoding so far is least, branching only between processes the
//!    state tells apart, and ranks the first minimal relabeling in
//!    `perms_fixing` order arithmetically.
//! 3. **Fingerprint** ([`Fingerprinter`]) — the canonical encoding hashed
//!    to 128 bits, TLC-style: the visited set stores fingerprints, not
//!    states. Two independent 64-bit multiply–rotate–xor lanes keyed from
//!    a fixed `ftss-rng` SplitMix64 stream; a collision needs two
//!    reachable states agreeing on both lanes (~2⁻¹²⁸ per pair —
//!    negligible at this state-space scale, and deterministic across
//!    runs, jobs and machines, which the byte-identical `--jobs` reports
//!    rely on).

use ftss::core::ProcessId;
use ftss_rng::SplitMix64;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Ceiling on `n` for the graph explorer. A node has `2^(2(n-1))`
/// outgoing omission masks and its orbit `(n-1)!` relabelings: 1024 and
/// 120 at `n = 6` (a ~0.6 M-edge, sub-second fixpoint), 4096 and 720 at
/// 7. The fixed-size kernel types are sized by it — `PackedState`'s
/// arrays, the partitions `PermTable`'s search keeps — so raising it is
/// a recompile, not a redesign.
pub const MAX_GRAPH_N: usize = 6;

/// A permutation of process indices, `perm[old] = new`; identities pad
/// the unused tail (n ≤ [`MAX_GRAPH_N`] < 8).
pub type Perm = [u8; 8];

/// The identity permutation.
pub fn identity_perm() -> Perm {
    [0, 1, 2, 3, 4, 5, 6, 7]
}

/// Composes permutations: `(b ∘ a)[i] = b[a[i]]`.
pub fn compose_perm(b: &Perm, a: &Perm) -> Perm {
    let mut out = identity_perm();
    for i in 0..8 {
        out[i] = b[a[i] as usize];
    }
    out
}

/// Everything the future of a crash-free omission run depends on. See
/// the module docs for why each field is here and [`crate::frontier`]
/// for the transition function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeState {
    /// Round counters at the start of the next round, normalized so the
    /// minimum is 0 (shift-invariance).
    pub counters: Vec<u64>,
    /// Bit `j`: process `j`'s counter advanced by exactly 1 in the round
    /// that produced this state (the Definition-2.2 rate obligation for
    /// the pair ending here). All-ones at the root.
    pub rate_ok: u32,
    /// Bit `i` of `reach[j]`: `i` is a causal ancestor of `j`
    /// ([`ftss::core::CausalTracker`] semantics — no intra-round
    /// transitivity, self always included).
    pub reach: Vec<u32>,
    /// Whether the faulty process has deviated (dropped any copy) yet —
    /// i.e. whether it is in `F(H, Π)` for the history so far.
    pub deviated: bool,
    /// The coterie of the current prefix (bit per member).
    pub coterie: u32,
    /// Length of the current coterie-stable window, saturated at the
    /// largest obligation gate (`max(r,1) + 2`); 0 only at the root
    /// (no rounds yet).
    pub stable_len: u8,
    /// Whether the current window is the history's first (only the
    /// `r = 0` oracle distinguishes it, so it is forced false for
    /// `r ≥ 1` to merge more states).
    pub first_window: bool,
    /// Theorem-4 witness liveness for the current stable window: bit 0 is
    /// set while *some* offset `s ≤ r` still satisfies the problem on the
    /// window suffix `[from−1+s .. now]` with the faulty process counted
    /// correct, bit 1 the same with it counted faulty (the effective bit
    /// is chosen by `deviated`, which can flip mid-window). Both set at
    /// the root (no window yet — vacuously alive); see
    /// [`crate::frontier::check_edge`] for the per-edge recurrence.
    pub thm4_alive: u8,
}

impl NodeState {
    /// The root: corrupted initial counters (normalized), vacuously-true
    /// rate flags, identity causality, no deviation, no window yet.
    pub fn root(counters: &[u64], stabilization: usize) -> NodeState {
        let n = counters.len();
        let min = counters.iter().copied().min().unwrap_or(0);
        NodeState {
            counters: counters.iter().map(|c| c - min).collect(),
            rate_ok: mask_full(n),
            reach: (0..n).map(|i| 1u32 << i).collect(),
            deviated: false,
            coterie: 0,
            stable_len: 0,
            first_window: stabilization == 0,
            thm4_alive: 0b11,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.counters.len()
    }

    /// Appends the canonical byte encoding (fixed layout, no padding
    /// ambiguity: n is implicit in the explorer's fixed configuration).
    pub fn encode(&self, out: &mut Vec<u8>) {
        for &c in &self.counters {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&self.rate_ok.to_le_bytes());
        for &r in &self.reach {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.push(self.deviated as u8);
        out.extend_from_slice(&self.coterie.to_le_bytes());
        out.push(self.stable_len);
        out.push(self.first_window as u8);
        out.push(self.thm4_alive);
    }

    /// The state relabeled by `perm` (`perm[old] = new`).
    pub fn permuted(&self, perm: &Perm) -> NodeState {
        let n = self.n();
        let mut counters = vec![0u64; n];
        let mut reach = vec![0u32; n];
        let mut rate_ok = 0u32;
        for old in 0..n {
            let new = perm[old] as usize;
            counters[new] = self.counters[old];
            reach[new] = permute_mask(self.reach[old], perm, n);
            if self.rate_ok & (1 << old) != 0 {
                rate_ok |= 1 << new;
            }
        }
        NodeState {
            counters,
            rate_ok,
            reach,
            deviated: self.deviated,
            coterie: permute_mask(self.coterie, perm, n),
            stable_len: self.stable_len,
            first_window: self.first_window,
            thm4_alive: self.thm4_alive, // set-agnostic booleans: label-invariant
        }
    }

    /// The orbit representative under permutations fixing `faulty`: the
    /// lexicographically least encoding, with the permutation that maps
    /// `self` onto it. Deterministic (ties cannot happen: equal encodings
    /// are equal states, and the first minimal permutation wins).
    ///
    /// # Panics
    ///
    /// If `n` is outside `1..=MAX_GRAPH_N`, `faulty` is not a process, or
    /// a set field has a bit at or above `n`.
    pub fn canonicalize(&self, faulty: ProcessId) -> (NodeState, Perm) {
        let table = PermTable::new(self.n(), faulty);
        let (canon, perm) = table.canonicalize(&PackedState::pack(self));
        (canon.unpack(), perm)
    }

    /// The canonicalizer this crate shipped before [`PermTable`]: every
    /// relabeling materialized, encoded and compared as whole buffers.
    /// Kept as the differential reference the table-driven kernel must
    /// match `(state, perm)` for `(state, perm)`.
    #[cfg(test)]
    fn canonicalize_reference(&self, faulty: ProcessId) -> (NodeState, Perm) {
        let n = self.n();
        let mut best = self.clone();
        let mut best_perm = identity_perm();
        let mut best_enc = Vec::new();
        best.encode(&mut best_enc);
        let mut enc = Vec::with_capacity(best_enc.len());
        for perm in perms_fixing(n, faulty.index()) {
            if perm == identity_perm() {
                continue;
            }
            let cand = self.permuted(&perm);
            enc.clear();
            cand.encode(&mut enc);
            if enc < best_enc {
                best_enc.clear();
                best_enc.extend_from_slice(&enc);
                best = cand;
                best_perm = perm;
            }
        }
        (best, best_perm)
    }
}

/// Bit 0 of every byte of a word.
const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Length of the longest canonical encoding (`n = MAX_GRAPH_N`).
const MAX_ENCODED_LEN: usize = 12 * MAX_GRAPH_N + 12;

/// A [`NodeState`] in fixed-size arrays — the explorer's working form:
/// `Copy`, heap-free, process sets narrowed to the one byte that
/// `n ≤ MAX_GRAPH_N` bits need. Field meanings are [`NodeState`]'s;
/// entries at index `n` and above are zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PackedState {
    pub n: u8,
    pub counters: [u64; MAX_GRAPH_N],
    pub rate_ok: u8,
    pub reach: [u8; MAX_GRAPH_N],
    pub deviated: bool,
    pub coterie: u8,
    pub stable_len: u8,
    pub first_window: bool,
    pub thm4_alive: u8,
}

impl PackedState {
    pub(crate) fn pack(node: &NodeState) -> PackedState {
        let n = node.n();
        assert!(
            (1..=MAX_GRAPH_N).contains(&n) && node.reach.len() == n,
            "graph states have 1..={MAX_GRAPH_N} processes, got {n}"
        );
        let full = mask_full(n);
        let sets = [node.rate_ok, node.coterie];
        assert!(
            sets.iter().chain(&node.reach).all(|&set| set & !full == 0),
            "process set with a member outside 0..{n}"
        );
        let mut counters = [0u64; MAX_GRAPH_N];
        counters[..n].copy_from_slice(&node.counters);
        let mut reach = [0u8; MAX_GRAPH_N];
        for (slot, &r) in reach.iter_mut().zip(&node.reach) {
            *slot = r as u8;
        }
        PackedState {
            n: n as u8,
            counters,
            rate_ok: node.rate_ok as u8,
            reach,
            deviated: node.deviated,
            coterie: node.coterie as u8,
            stable_len: node.stable_len,
            first_window: node.first_window,
            thm4_alive: node.thm4_alive,
        }
    }

    pub(crate) fn unpack(&self) -> NodeState {
        let n = self.n as usize;
        NodeState {
            counters: self.counters[..n].to_vec(),
            rate_ok: self.rate_ok as u32,
            reach: self.reach[..n].iter().map(|&r| r as u32).collect(),
            deviated: self.deviated,
            coterie: self.coterie as u32,
            stable_len: self.stable_len,
            first_window: self.first_window,
            thm4_alive: self.thm4_alive,
        }
    }

    /// The `reach` rows as the bytes of one word, row `p` in byte `p`.
    fn rows(&self) -> u64 {
        let mut bytes = [0u8; 8];
        bytes[..MAX_GRAPH_N].copy_from_slice(&self.reach);
        u64::from_le_bytes(bytes)
    }

    /// [`NodeState::permuted`] on the packed form: the sets relabeled a
    /// member at a time in every row at once.
    fn permuted(&self, perm: &Perm) -> PackedState {
        let n = self.n as usize;
        let relabel = |word: u64| {
            (0..n).fold(0, |out, old| {
                out | ((word >> old) & BYTE_LOW_BITS) << perm[old]
            })
        };
        let rows = relabel(self.rows()).to_le_bytes();
        let sets = relabel(u64::from(self.rate_ok) | u64::from(self.coterie) << 8);
        let mut out = *self;
        for old in 0..n {
            let new = perm[old] as usize;
            out.counters[new] = self.counters[old];
            out.reach[new] = rows[old];
        }
        out.rate_ok = sets as u8;
        out.coterie = (sets >> 8) as u8;
        out
    }

    /// Writes [`NodeState::encode`]'s bytes into `buf` and returns them.
    pub(crate) fn encode<'a>(&self, buf: &'a mut [u8; MAX_ENCODED_LEN]) -> &'a [u8] {
        let n = self.n as usize;
        let mut len = 0;
        let mut put = |bytes: &[u8]| {
            buf[len..len + bytes.len()].copy_from_slice(bytes);
            len += bytes.len();
        };
        for &c in &self.counters[..n] {
            put(&c.to_le_bytes());
        }
        put(&(self.rate_ok as u32).to_le_bytes());
        for &r in &self.reach[..n] {
            put(&(r as u32).to_le_bytes());
        }
        put(&[self.deviated as u8]);
        put(&(self.coterie as u32).to_le_bytes());
        put(&[self.stable_len, self.first_window as u8, self.thm4_alive]);
        &buf[..len]
    }
}

/// The members of a process set, ascending.
fn members(mut set: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let p = set.trailing_zeros() as usize;
        set &= set.wrapping_sub(1);
        (p < 8).then_some(p)
    })
}

/// A node of [`PermTable::canonicalize`]'s search: an ordered partition
/// of the movable processes into cells (process sets). The cells take
/// the movable labels in order, each as many as it has members, and a
/// relabeling is consistent with the branch when every cell's members
/// take that cell's labels, in any order. A branch of singletons is one
/// relabeling.
#[derive(Clone, Copy, Default)]
struct Branch {
    cells: [u8; MAX_GRAPH_N - 1],
    len: u8,
}

impl Branch {
    fn cells(&self) -> &[u8] {
        &self.cells[..self.len as usize]
    }

    fn push(&mut self, cell: u8) {
        self.cells[self.len as usize] = cell;
        self.len += 1;
    }

    /// Splits every cell into its members in `set`, first, and the rest,
    /// and returns the movable positions `set`'s members then take (bit
    /// `k`: the `k`-th movable label) — the lowest of each cell, which is
    /// what makes `set`'s image least over the relabelings consistent
    /// with the branch, and the same under every relabeling consistent
    /// with the split.
    fn refine(&mut self, set: u8) -> u8 {
        let mut split = Branch::default();
        let (mut taken, mut at) = (0u8, 0);
        for &cell in self.cells() {
            let inside = cell & set;
            for part in [inside, cell & !set] {
                if part != 0 {
                    split.push(part);
                }
            }
            taken |= ((1u8 << inside.count_ones()) - 1) << at;
            at += cell.count_ones();
        }
        *self = split;
        taken
    }

    /// Gives `p`, a member of cell `at`, that cell's lowest label as a
    /// cell of its own. Every cell before `at` is a singleton, so cell
    /// `at` starts at the `at`-th movable label.
    fn individualize(&mut self, at: usize, p: usize) {
        let cell = self.cells[at];
        if cell != 1 << p {
            let len = self.len as usize;
            self.cells.copy_within(at..len, at + 1);
            self.cells[at] = 1 << p;
            self.cells[at + 1] = cell & !(1 << p);
            self.len += 1;
        }
    }
}

/// The relabelings of `0..n` fixing one process, described rather than
/// listed: what [`PermTable::canonicalize`] needs to search them and to
/// rank one in `perms_fixing` order.
pub(crate) struct PermTable {
    n: usize,
    /// The process every relabeling fixes.
    fixed: usize,
    /// The processes a relabeling may move, ascending — its labels, too.
    free: [u8; MAX_GRAPH_N - 1],
}

impl PermTable {
    /// The relabelings of `n` processes that fix `faulty`.
    pub(crate) fn new(n: usize, faulty: ProcessId) -> PermTable {
        let f = faulty.index();
        assert!(
            (1..=MAX_GRAPH_N).contains(&n) && f < n,
            "no relabelings of n = {n} fixing {faulty}"
        );
        let mut free = [0u8; MAX_GRAPH_N - 1];
        for (slot, p) in free.iter_mut().zip((0..n).filter(|&p| p != f)) {
            *slot = p as u8;
        }
        PermTable { n, fixed: f, free }
    }

    /// The movable processes, ascending.
    fn free(&self) -> &[u8] {
        &self.free[..self.n - 1]
    }

    /// The relabeling first in `perms_fixing` order among `sigma ∘ g`
    /// for `g` in the group `twins` generates (`(sigma ∘ g)[p] =
    /// sigma[g[p]]`, `g` permuting each twin class), and its index there.
    /// `perms_fixing` places the movable processes' images one position
    /// at a time, trying each image not yet placed in the order its swaps
    /// leave them, so the index is a mixed-radix number read off those
    /// swaps, and taking at each position the earliest image a twin
    /// allows gives the least.
    fn least_rank(&self, sigma: &Perm, twins: &[u8; MAX_GRAPH_N]) -> (usize, Perm) {
        let m = self.n - 1;
        // `work` as `perms_fixing` swaps it, and where each image sits.
        let mut work = self.free;
        let mut slot = [0u8; MAX_GRAPH_N];
        for (i, &image) in self.free().iter().enumerate() {
            slot[image as usize] = i as u8;
        }
        let (mut rank, mut placed, mut perm) = (0, 0u8, identity_perm());
        for (k, &p) in self.free().iter().enumerate() {
            let (i, t) = members(twins[p as usize] & !placed)
                .map(|t| (slot[sigma[t] as usize] as usize, t))
                .min()
                .expect("a twin left to place");
            placed |= 1 << t;
            perm[p as usize] = sigma[t];
            rank = rank * (m - k) + (i - k);
            slot[work[k] as usize] = i as u8;
            work.swap(k, i);
        }
        (rank, perm)
    }

    /// [`NodeState::canonicalize`] on the packed form: the least member
    /// of `state`'s orbit and the first relabeling, in `perms_fixing`
    /// order, that reaches it.
    ///
    /// Individualization–refinement, exact: the fields are fixed in the
    /// order of their encoding, and a branch is cut only when its
    /// encoding so far is greater than the least found. The counters
    /// (compared as their little-endian bytes, so as `swap_bytes()`)
    /// sort the movable processes into cells that take the movable labels
    /// in key order; `rate_ok` splits each cell, its members first. Then
    /// the `reach` rows, label by label: the fixed process's row splits
    /// the cells, and at a movable label the search branches on the
    /// members of the cell that owns the label, gives each the label and
    /// splits the cells by its row. A set's image is least exactly when
    /// its members take the lowest labels of each cell, so each split
    /// keeps exactly the relabelings under which the row is least. Of
    /// twins in one cell (processes whose exchange leaves the state as
    /// it is) only the least is branched on: the others' branches are
    /// its own composed with an automorphism. The leaves tie on
    /// everything but `coterie`; the least `coterie` wins, and as every
    /// exchange of twins in a winner ties with it, the first of those in
    /// `perms_fixing` order is taken ([`Self::least_rank`]). A state
    /// that every relabeling leaves as it is (equal counters and rows,
    /// each set holding all or none of the movable processes) is its own
    /// representative with no search.
    pub(crate) fn canonicalize(&self, state: &PackedState) -> (PackedState, Perm) {
        let (n, f, m) = (self.n, self.fixed, self.n - 1);
        debug_assert_eq!(state.n as usize, n);
        let key = |p: u8| state.counters[p as usize].swap_bytes();
        let movable = !(1u8 << f) & mask_full(n) as u8;
        let symmetric = |set: u8| set & movable == 0 || set & movable == movable;
        let first = self.free[0] as usize;
        let like_first = |&p: &u8| {
            state.counters[p as usize] == state.counters[first]
                && state.reach[p as usize] == state.reach[first]
        };
        let sets = [state.rate_ok, state.coterie];
        if self.free().iter().all(like_first)
            && sets
                .iter()
                .chain(&state.reach[..n])
                .all(|&set| symmetric(set))
        {
            return (*state, identity_perm());
        }

        // The movable processes in key order, one cell per key.
        let mut sorted = self.free;
        sorted[..m].sort_by_key(|&p| key(p));
        let mut root = Branch::default();
        for (k, &p) in sorted[..m].iter().enumerate() {
            if k > 0 && key(p) == key(sorted[k - 1]) {
                root.cells[root.len as usize - 1] |= 1 << p;
            } else {
                root.push(1 << p);
            }
        }
        root.refine(state.rate_ok);
        // Twins share a cell of the root; none share a cell of singletons.
        let twins = match root.len as usize == m {
            true => std::array::from_fn(|p| 1 << p),
            false => twins(state, &root),
        };
        let mut search = Search {
            table: self,
            state,
            twins,
            rows: [0; MAX_GRAPH_N],
            best: None,
        };
        #[cfg(test)]
        SEARCH_WORK.with(|work| {
            let (searches, leaves) = work.get();
            work.set((searches + 1, leaves));
        });
        search.descend(root, 0, 0, false);
        let (canon, mut perm, rank) = search.best.expect("the search reaches a leaf");
        if rank.is_none() && twins.iter().any(|class| class.count_ones() > 1) {
            perm = self.least_rank(&perm, &twins).1;
        }
        (canon, perm)
    }
}

/// Per process, its *twins*: the processes whose exchange with it leaves
/// `state` as it is, itself included. Being twins is an equivalence, and
/// every permutation within twin classes is an automorphism of `state`.
/// Two processes are twins when they agree on their counter, `rate_ok`
/// and `coterie`, every other process's row holds both or neither, and
/// exchanging them maps one's row onto the other's; so twins share a
/// cell of `root`, the partition by counter and `rate_ok`.
fn twins(state: &PackedState, root: &Branch) -> [u8; MAX_GRAPH_N] {
    let rows = state.rows();
    let mut twins: [u8; MAX_GRAPH_N] = std::array::from_fn(|p| 1 << p);
    for &cell in root.cells() {
        for x in members(cell) {
            for y in members(cell & u8::MAX << x & !(1 << x)) {
                let pair = 1u8 << x | 1 << y;
                let swap = |set: u8| match (set & pair).count_ones() {
                    1 => set ^ pair,
                    _ => set,
                };
                let own_rows = 0xff << (8 * x) | 0xff << (8 * y);
                if swap(state.coterie) == state.coterie
                    && ((rows >> x ^ rows >> y) & BYTE_LOW_BITS & !own_rows) == 0
                    && swap(state.reach[x]) == state.reach[y]
                {
                    twins[x] |= 1 << y;
                    twins[y] |= 1 << x;
                }
            }
        }
    }
    twins
}

/// One run of [`PermTable::canonicalize`]'s search, depth first.
struct Search<'a> {
    table: &'a PermTable,
    state: &'a PackedState,
    /// Per process, its twins ([`twins`]).
    twins: [u8; MAX_GRAPH_N],
    /// The rows of the best leaf so far, by label.
    rows: [u8; MAX_GRAPH_N],
    /// The best leaf so far: the state it relabels to, its relabeling,
    /// and — once a tie made it the first of its twin exchanges — its
    /// rank.
    best: Option<(PackedState, Perm, Option<usize>)>,
}

impl Search<'_> {
    /// A set's image from the movable positions its members take:
    /// position `k` is label `k`, or `k + 1` from the fixed process on.
    fn image(&self, set: u8, taken: u8) -> u8 {
        let f = self.table.fixed;
        let low = (1u8 << f) - 1;
        (taken & low) | (taken & !low) << 1 | (set & 1 << f)
    }

    /// Searches below `branch`, whose rows are fixed up to `label` (cells
    /// before `at` are singletons); `tied`: those rows equal the best
    /// leaf's, else there is no best leaf or they are less than its.
    fn descend(&mut self, branch: Branch, label: usize, at: usize, mut tied: bool) {
        // Once every cell holds twins only, each relabeling consistent
        // with the branch is any other composed with an automorphism: the
        // branch is a leaf.
        if branch
            .cells()
            .iter()
            .all(|&cell| cell & !self.twins[cell.trailing_zeros() as usize] == 0)
        {
            return self.leaf(&branch, label, tied);
        }
        let state = self.state;
        if label == self.table.fixed {
            let mut split = branch;
            let row = state.reach[label];
            let row = self.image(row, split.refine(row));
            if let Some(tied) = self.offer(label, row, tied) {
                self.descend(split, label + 1, at, tied);
            }
            return;
        }
        let cell = branch.cells[at];
        for p in members(cell) {
            // A twin's branch is the least twin's, relabeled.
            if (self.twins[p] & cell).trailing_zeros() as usize != p {
                continue;
            }
            let mut split = branch;
            split.individualize(at, p);
            let row = state.reach[p];
            let row = self.image(row, split.refine(row));
            if let Some(tied) = self.offer(label, row, tied) {
                self.descend(split, label + 1, at + 1, tied);
            }
            // The best leaf is below this branch now, or was already.
            tied = true;
        }
    }

    /// Whether a branch whose row at `label` is `row` can still be least,
    /// and then whether it ties with the best leaf's rows so far.
    fn offer(&mut self, label: usize, row: u8, tied: bool) -> Option<bool> {
        if tied && row > self.rows[label] {
            return None;
        }
        let still = tied && row == self.rows[label];
        self.rows[label] = row;
        Some(still)
    }

    /// A branch whose cells hold twins only, relabeled with each cell's
    /// members in ascending order; its rows from `label` on and its
    /// coterie are compared with the best leaf's.
    fn leaf(&mut self, branch: &Branch, label: usize, tied: bool) {
        #[cfg(test)]
        SEARCH_WORK.with(|work| {
            let (searches, leaves) = work.get();
            work.set((searches, leaves + 1));
        });
        let (n, f) = (self.table.n, self.table.fixed);
        let mut perm = identity_perm();
        let labels = (0..n).filter(|&l| l != f);
        for (p, l) in branch
            .cells()
            .iter()
            .flat_map(|&cell| members(cell))
            .zip(labels)
        {
            perm[p] = l as u8;
        }
        let canon = self.state.permuted(&perm);
        let rest = |s: &PackedState| (s.reach, s.coterie);
        let order = match &self.best {
            Some((best, ..)) if tied => {
                let (rows, coterie) = rest(&canon);
                let (best_rows, best_coterie) = rest(best);
                (&rows[label..n], coterie).cmp(&(&best_rows[label..n], best_coterie))
            }
            _ => Ordering::Less,
        };
        match order {
            Ordering::Less => {
                self.rows[label..n].copy_from_slice(&canon.reach[label..n]);
                self.best = Some((canon, perm, None));
            }
            Ordering::Equal => {
                let (best, best_perm, rank) = self.best.expect("a tie has a best leaf");
                let old = match rank {
                    Some(rank) => (rank, best_perm),
                    None => self.table.least_rank(&best_perm, &self.twins),
                };
                let (rank, perm) = old.min(self.table.least_rank(&perm, &self.twins));
                self.best = Some((best, perm, Some(rank)));
            }
            Ordering::Greater => {}
        }
    }
}

/// A bitmask with the low `n` bits set.
pub fn mask_full(n: usize) -> u32 {
    (1u32 << n) - 1
}

/// Relabels the set `mask` through `perm`.
fn permute_mask(mask: u32, perm: &Perm, n: usize) -> u32 {
    let mut out = 0u32;
    for (i, &p) in perm.iter().enumerate().take(n) {
        if mask & (1 << i) != 0 {
            out |= 1 << p;
        }
    }
    out
}

/// Seed of the fingerprint keys. Fixed, not configurable: fingerprints
/// must agree across every run, job and machine for the visited set,
/// witness reconstruction and byte-identical reports to compose.
const FINGERPRINT_SEED: u64 = 0x6674_7373_6670_3031; // "ftssfp01"

/// A keyed 128-bit fingerprint function over canonical encodings.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    keys: [u64; 4],
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// The fingerprinter, keyed from the fixed seed via
    /// [`ftss_rng::SplitMix64`].
    pub fn new() -> Self {
        let mut sm = SplitMix64::new(FINGERPRINT_SEED);
        // Multiplier keys must be odd to be bijective mod 2^64.
        let keys = [
            sm.next_u64() | 1,
            sm.next_u64() | 1,
            sm.next_u64() | 1,
            sm.next_u64() | 1,
        ];
        Fingerprinter { keys }
    }

    /// Hashes `bytes` to 128 bits: two independent multiply–rotate–xor
    /// lanes over 8-byte words (zero-padded tail, length absorbed last).
    pub fn fingerprint(&self, bytes: &[u8]) -> u128 {
        let mut h1 = self.keys[0];
        let mut h2 = self.keys[2];
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(word);
            h1 = (h1 ^ w).wrapping_mul(self.keys[1]).rotate_left(29);
            h2 = (h2 ^ w).wrapping_mul(self.keys[3]).rotate_left(31);
        }
        h1 ^= bytes.len() as u64;
        h2 ^= (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((finalize(h1) as u128) << 64) | finalize(h2) as u128
    }

    /// Fingerprint of a node's canonical encoding, reusing `scratch`.
    pub fn node(&self, node: &NodeState, scratch: &mut Vec<u8>) -> u128 {
        scratch.clear();
        node.encode(scratch);
        self.fingerprint(scratch)
    }

    /// [`node`](Self::node) on the packed form, through a stack buffer.
    pub(crate) fn packed(&self, state: &PackedState) -> u128 {
        self.fingerprint(state.encode(&mut [0u8; MAX_ENCODED_LEN]))
    }
}

/// Hasher for maps keyed by fingerprints. The key is already an
/// avalanche hash, so its low half *is* the table hash; hashing it again
/// would only cost time.
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("FpHasher hashes u128 fingerprints only");
    }

    fn write_u128(&mut self, fingerprint: u128) {
        self.0 = fingerprint as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by 128-bit fingerprints.
pub(crate) type FpMap<V> = HashMap<u128, V, BuildHasherDefault<FpHasher>>;

/// SplitMix64's avalanche finalizer: every input bit flips every output
/// bit with probability ≈ 1/2.
fn finalize(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
thread_local! {
    /// Per thread, for the work pins: canonicalizations that searched,
    /// and the relabelings — the leaves of their searches — they
    /// compared.
    pub(crate) static SEARCH_WORK: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// All permutations of `0..n` that fix `fixed`, in a deterministic
/// order (Heap's algorithm over the free indices).
#[cfg(test)]
fn perms_fixing(n: usize, fixed: usize) -> Vec<Perm> {
    let free: Vec<u8> = (0..n as u8).filter(|&i| i as usize != fixed).collect();
    let mut arrangements = Vec::new();
    let mut work = free.clone();
    permute_rec(&mut work, 0, &mut arrangements);
    arrangements
        .into_iter()
        .map(|arr| {
            let mut perm = identity_perm();
            for (slot, &img) in free.iter().zip(arr.iter()) {
                perm[*slot as usize] = img;
            }
            perm
        })
        .collect()
}

#[cfg(test)]
fn permute_rec(work: &mut Vec<u8>, k: usize, out: &mut Vec<Vec<u8>>) {
    if k == work.len() {
        out.push(work.clone());
        return;
    }
    for i in k..work.len() {
        work.swap(k, i);
        permute_rec(work, k + 1, out);
        work.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_rng::check::Gen;
    use ftss_rng::Rng;

    fn sample(n: usize) -> NodeState {
        NodeState {
            counters: (0..n as u64).collect(),
            rate_ok: mask_full(n) & !2,
            reach: (0..n)
                .map(|i| mask_full(n) & !(1 << i) | (1 << i))
                .collect(),
            deviated: true,
            coterie: 1,
            stable_len: 2,
            first_window: false,
            thm4_alive: 0b11,
        }
    }

    #[test]
    fn perms_fixing_counts_and_fixes() {
        let perms = perms_fixing(4, 0);
        assert_eq!(perms.len(), 6, "3! permutations fixing p0");
        for p in &perms {
            assert_eq!(p[0], 0, "faulty index must stay fixed");
            let mut seen: Vec<u8> = p[..4].to_vec();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3], "must be a permutation");
        }
        assert_eq!(perms_fixing(2, 0).len(), 1, "n=2: identity only");
    }

    #[test]
    fn canonicalize_is_orbit_invariant_and_idempotent() {
        let s = sample(4);
        let (canon, perm) = s.canonicalize(ProcessId(0));
        assert_eq!(s.permuted(&perm), canon);
        // Idempotent: the representative is its own representative.
        let (canon2, perm2) = canon.canonicalize(ProcessId(0));
        assert_eq!(canon2, canon);
        assert_eq!(perm2, identity_perm());
        // Every orbit member canonicalizes to the same representative.
        for p in perms_fixing(4, 0) {
            let member = s.permuted(&p);
            let (c, _) = member.canonicalize(ProcessId(0));
            assert_eq!(c, canon, "orbit member disagreed on representative");
        }
    }

    /// A state of the shapes the explorer meets, plus the ones that stress
    /// the comparison order: counters narrow, 64 bits wide, or straddling
    /// a byte boundary; reach/rate/coterie random or fully symmetric.
    fn arbitrary_state(g: &mut Gen, n: usize, faulty: usize) -> NodeState {
        let full = mask_full(n);
        let set = |g: &mut Gen| g.gen_range(0..=full as u64) as u32;
        let mut counters: Vec<u64> = match g.gen_range(0..4u64) {
            0 => (0..n).map(|_| g.gen_range(0..4u64)).collect(),
            1 => (0..n).map(|_| g.next_u64()).collect(),
            2 => {
                const EDGES: [u64; 8] = [0, 1, 255, 256, 257, 1 << 32, 1 << 56, u64::MAX];
                (0..n)
                    .map(|_| EDGES[g.gen_range(0..8u64) as usize])
                    .collect()
            }
            _ => vec![g.gen_range(0..3u64); n],
        };
        if g.gen_bool(0.5) {
            // Only the faulty process stands out: every relabeling ties
            // on the counters and the set fields decide.
            counters[faulty] = g.gen_range(0..3u64);
        }
        let mut reach: Vec<u32> = match g.gen_range(0..3u64) {
            0 => (0..n).map(|i| set(g) | 1 << i).collect(),
            1 => vec![full; n],
            _ => (0..n).map(|i| 1 << i | 1 << faulty).collect(),
        };
        if g.gen_bool(0.3) {
            // Whom the faulty process has heard from is the only asymmetry.
            reach[faulty] = set(g) | 1 << faulty;
        }
        NodeState {
            counters,
            rate_ok: if g.gen_bool(0.5) { full } else { set(g) },
            reach,
            deviated: g.gen_bool(0.5),
            coterie: if g.gen_bool(0.5) { full } else { set(g) },
            stable_len: g.gen_range(0..4u64) as u8,
            first_window: g.gen_bool(0.5),
            thm4_alive: g.gen_range(0..4u64) as u8,
        }
    }

    /// The table-driven canonicalizer against the brute-force one it
    /// replaced: same representative, same (first minimal) permutation,
    /// for every size and every choice of the fixed process.
    #[test]
    fn canonicalize_matches_the_reference_exactly() {
        ftss_rng::check::forall(600, |g| {
            let n = g.gen_range(2..=MAX_GRAPH_N as u64) as usize;
            for faulty in 0..n {
                let s = arbitrary_state(g, n, faulty);
                let got = s.canonicalize(ProcessId(faulty));
                assert_eq!(got, s.canonicalize_reference(ProcessId(faulty)), "{s:?}");
                // The representative is canonical already: it must come
                // back unchanged under the identity, not under one of
                // its automorphisms.
                assert_eq!(
                    got.0.canonicalize(ProcessId(faulty)),
                    (got.0.clone(), identity_perm()),
                    "{s:?}"
                );
            }
        });
    }

    /// `s` made invariant under the relabeling `h` and its powers:
    /// counters constant and sets closed on `h`'s cycles, and each
    /// cycle's rows the images of its first member's.
    fn symmetrized(mut s: NodeState, h: &Perm) -> NodeState {
        let n = s.n();
        let mut powers = vec![identity_perm()];
        while compose_perm(h, powers.last().unwrap()) != identity_perm() {
            powers.push(compose_perm(h, powers.last().unwrap()));
        }
        // The union of `set`'s images under the powers of `h^step`.
        let closed = |set: u32, step: usize| {
            (0..powers.len())
                .step_by(step)
                .fold(0, |u, t| u | permute_mask(set, &powers[t], n))
        };
        let mut seen = 0u32;
        for z in 0..n {
            if seen & 1 << z != 0 {
                continue;
            }
            let mut cycle = vec![z];
            while h[cycle[cycle.len() - 1]] as usize != z {
                cycle.push(h[cycle[cycle.len() - 1]] as usize);
            }
            cycle.iter().for_each(|&p| seen |= 1 << p);
            let base = closed(s.reach[z], cycle.len());
            for (j, &p) in cycle.iter().enumerate() {
                s.reach[p] = permute_mask(base, &powers[j], n);
                s.counters[p] = s.counters[z];
            }
        }
        s.rate_ok = closed(s.rate_ok, 1);
        s.coterie = closed(s.coterie, 1);
        s
    }

    /// States with automorphisms that are not products of twin
    /// exchanges — a double transposition, a three-cycle — and their
    /// relabelings: the representative and the first minimal relabeling
    /// still match the brute-force canonicalizer's.
    #[test]
    fn canonicalize_matches_the_reference_on_symmetric_states() {
        ftss_rng::check::forall(300, |g| {
            let n = g.gen_range(3..=MAX_GRAPH_N as u64) as usize;
            let faulty = g.gen_range(0..n as u64) as usize;
            let perms = perms_fixing(n, faulty);
            let pick = |g: &mut Gen| perms[g.gen_range(0..perms.len() as u64) as usize];
            let h = pick(g);
            let s = symmetrized(arbitrary_state(g, n, faulty), &h);
            assert_eq!(s.permuted(&h), s, "{h:?}");
            for state in [s.clone(), s.permuted(&pick(g))] {
                let got = state.canonicalize(ProcessId(faulty));
                assert_eq!(
                    got,
                    state.canonicalize_reference(ProcessId(faulty)),
                    "{state:?}"
                );
            }
        });
    }

    /// Counters are ordered by their little-endian encoding, not by
    /// value: 256 = `00 01 00…` sorts before 1 = `01 00 00…`.
    #[test]
    fn counters_are_ordered_by_little_endian_bytes() {
        let mut s = NodeState::root(&[0, 1, 256], 1);
        let (canon, perm) = s.canonicalize(ProcessId(0));
        assert_eq!(canon.counters, vec![0, 256, 1]);
        assert_eq!(perm, [0, 2, 1, 3, 4, 5, 6, 7]);
        s.counters = vec![0, 256, 1];
        assert_eq!(s.canonicalize(ProcessId(0)).1, identity_perm());
    }

    /// The tie-break ranks every relabeling by its place in
    /// `perms_fixing` order.
    #[test]
    fn table_lists_relabelings_in_perms_fixing_order() {
        for n in 1..=MAX_GRAPH_N {
            for fixed in 0..n {
                let table = PermTable::new(n, ProcessId(fixed));
                let alone: [u8; MAX_GRAPH_N] = std::array::from_fn(|p| 1 << p);
                for (at, perm) in perms_fixing(n, fixed).iter().enumerate() {
                    assert_eq!(
                        table.least_rank(perm, &alone),
                        (at, *perm),
                        "n={n} fixed={fixed}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_form_round_trips_and_encodes_identically() {
        ftss_rng::check::forall(200, |g| {
            let n = g.gen_range(1..=MAX_GRAPH_N as u64) as usize;
            let s = arbitrary_state(g, n, 0);
            let packed = PackedState::pack(&s);
            assert_eq!(packed.unpack(), s);
            let mut bytes = Vec::new();
            s.encode(&mut bytes);
            assert_eq!(packed.encode(&mut [0; MAX_ENCODED_LEN]), &bytes[..]);
            let f = Fingerprinter::new();
            assert_eq!(f.packed(&packed), f.node(&s, &mut bytes));
        });
    }

    #[test]
    fn compose_matches_sequential_permutation() {
        let s = sample(4);
        let perms = perms_fixing(4, 0);
        let (a, b) = (perms[1], perms[3]);
        let ab = compose_perm(&b, &a);
        assert_eq!(s.permuted(&a).permuted(&b), s.permuted(&ab));
    }

    #[test]
    fn fingerprints_are_deterministic_and_discriminating() {
        let f = Fingerprinter::new();
        let mut buf = Vec::new();
        let a = f.node(&sample(4), &mut buf);
        let b = f.node(&sample(4), &mut buf);
        assert_eq!(a, b, "same state, same fingerprint");
        let mut other = sample(4);
        other.counters[2] += 1;
        assert_ne!(a, f.node(&other, &mut buf));
        let mut flag = sample(4);
        flag.first_window = true;
        assert_ne!(a, f.node(&flag, &mut buf));
        let mut alive = sample(4);
        alive.thm4_alive = 0b01;
        assert_ne!(a, f.node(&alive, &mut buf));
        // The two 64-bit lanes are independent: same low half would
        // betray a lane wiring bug.
        assert_ne!(a as u64, (a >> 64) as u64);
    }
}
