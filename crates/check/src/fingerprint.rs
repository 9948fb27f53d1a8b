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
//!    argument). The search never builds those encodings: a per-`(n,
//!    faulty)` `PermTable` holds every relabeling with its inverse and
//!    a set-relabel lookup, and each candidate is compared field by
//!    field against the best so far, stopping at the first field that
//!    differs.
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
use std::sync::OnceLock;

/// Ceiling on `n` for the graph explorer. A node has `2^(2(n-1))`
/// outgoing omission masks and its orbit `(n-1)!` relabelings: 1024 and
/// 120 at `n = 6` (a ~0.6 M-edge, sub-second fixpoint), 4096 and 720 at
/// 7. The fixed-size kernel types are sized by it — `PackedState`'s
/// arrays, the `2^n`-entry set-relabel lookups of `PermTable` — so
/// raising it is a recompile, not a redesign.
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
        let table = PermTable::get(self.n(), faulty);
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

/// One relabeling of a [`PermTable`].
struct Relabeling {
    /// `perm[old] = new`.
    perm: Perm,
    /// `inv[new] = old`.
    inv: [u8; MAX_GRAPH_N],
    /// `image[set]`: the process set `set` with every member relabeled.
    image: [u8; 1 << MAX_GRAPH_N],
}

/// Every permutation of `0..n` fixing one process, in `perms_fixing`
/// order, each with what the canonicalizer needs to read a relabeled
/// state without building it. Built once per `(n, faulty)` and shared.
pub(crate) struct PermTable {
    n: usize,
    /// The processes a relabeling may move: all but the fixed one.
    movable: u8,
    relabelings: Vec<Relabeling>,
}

impl PermTable {
    /// The table for `n` processes and relabelings fixing `faulty`.
    pub(crate) fn get(n: usize, faulty: ProcessId) -> &'static PermTable {
        static TABLES: [[OnceLock<PermTable>; MAX_GRAPH_N]; MAX_GRAPH_N + 1] =
            [const { [const { OnceLock::new() }; MAX_GRAPH_N] }; MAX_GRAPH_N + 1];
        let f = faulty.index();
        assert!(
            (1..=MAX_GRAPH_N).contains(&n) && f < n,
            "no relabeling table for n = {n} fixing {faulty}"
        );
        TABLES[n][f].get_or_init(|| PermTable::build(n, f))
    }

    fn build(n: usize, fixed: usize) -> PermTable {
        let relabelings: Vec<Relabeling> = perms_fixing(n, fixed)
            .into_iter()
            .map(|perm| {
                let mut inv = [0u8; MAX_GRAPH_N];
                for old in 0..n {
                    inv[perm[old] as usize] = old as u8;
                }
                let mut image = [0u8; 1 << MAX_GRAPH_N];
                for set in 0..1u32 << n {
                    image[set as usize] = permute_mask(set, &perm, n) as u8;
                }
                Relabeling { perm, inv, image }
            })
            .collect();
        // `canonicalize` starts from the identity and lets only a
        // strictly smaller relabeling displace it.
        assert_eq!(relabelings[0].perm, identity_perm());
        PermTable {
            n,
            movable: mask_full(n) as u8 & !(1 << fixed),
            relabelings,
        }
    }

    /// [`NodeState::canonicalize`] on the packed form: the least member
    /// of `state`'s orbit and the first relabeling that reaches it.
    ///
    /// A candidate is compared with the best so far in the order its
    /// encoding would be — the counters as their little-endian bytes (so
    /// as `swap_bytes()`), `rate_ok`, the `reach` rows, `coterie`; process
    /// sets fit one byte, so their byte order is their numeric order, and
    /// the remaining fields are the same in every candidate — stopping at
    /// the first field that differs. A field group no relabeling can
    /// change (equal counters, a `rate_ok` holding all or none of the
    /// movable processes, …) is skipped for the whole orbit, and a state
    /// with nothing left to compare is its own representative.
    pub(crate) fn canonicalize(&self, state: &PackedState) -> (PackedState, Perm) {
        let n = self.n;
        debug_assert_eq!(state.n as usize, n);
        let mut key = [0u64; MAX_GRAPH_N];
        for (k, &c) in key.iter_mut().zip(&state.counters) {
            *k = c.swap_bytes();
        }

        // Which field groups every relabeling leaves as they are.
        let symmetric = |set: u8| set & self.movable == 0 || set & self.movable == self.movable;
        let movable = || (0..n).filter(|&i| self.movable & (1 << i) != 0);
        let first = movable().next().unwrap_or(0);
        let counters_fixed = movable().all(|i| key[i] == key[first]);
        let rate_fixed = symmetric(state.rate_ok);
        let rows_fixed = movable().all(|i| state.reach[i] == state.reach[first])
            && state.reach[..n].iter().all(|&row| symmetric(row));
        let coterie_fixed = symmetric(state.coterie);
        if counters_fixed && rate_fixed && rows_fixed && coterie_fixed {
            return (*state, identity_perm());
        }

        // The best candidate so far: its relabeling, and the state it
        // yields with the counters still byte-swapped.
        let mut best = &self.relabelings[0];
        let mut canon = *state;
        canon.counters = key;
        for cand in &self.relabelings[1..] {
            let counter = |new: usize| key[cand.inv[new] as usize];
            let row = |new: usize| cand.image[state.reach[cand.inv[new] as usize] as usize];
            let rate = || cand.image[state.rate_ok as usize];
            let coterie = || cand.image[state.coterie as usize];
            let mut order = Ordering::Equal;
            if !counters_fixed {
                order = (0..n).map(counter).cmp(canon.counters[..n].iter().copied());
            }
            if order.is_eq() && !rate_fixed {
                order = rate().cmp(&canon.rate_ok);
            }
            if order.is_eq() && !rows_fixed {
                order = (0..n).map(row).cmp(canon.reach[..n].iter().copied());
            }
            if order.is_eq() && !coterie_fixed {
                order = coterie().cmp(&canon.coterie);
            }
            // Strictly smaller only: the first minimal relabeling wins.
            if order.is_lt() {
                best = cand;
                for new in 0..n {
                    canon.counters[new] = counter(new);
                    canon.reach[new] = row(new);
                }
                canon.rate_ok = rate();
                canon.coterie = coterie();
            }
        }
        for c in &mut canon.counters {
            *c = c.swap_bytes();
        }
        (canon, best.perm)
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

/// All permutations of `0..n` that fix `fixed`, in a deterministic
/// order (Heap's algorithm over the free indices).
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

    #[test]
    fn table_lists_relabelings_in_perms_fixing_order() {
        for n in 1..=MAX_GRAPH_N {
            for fixed in 0..n {
                let table = PermTable::get(n, ProcessId(fixed));
                let perms = perms_fixing(n, fixed);
                assert_eq!(table.relabelings.len(), perms.len());
                for (entry, perm) in table.relabelings.iter().zip(&perms) {
                    assert_eq!(entry.perm, *perm, "n={n} fixed={fixed}");
                    for (old, &new) in perm.iter().enumerate().take(n) {
                        assert_eq!(entry.inv[new as usize] as usize, old);
                    }
                    for set in 0..1u32 << n {
                        assert_eq!(entry.image[set as usize] as u32, permute_mask(set, perm, n));
                    }
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
