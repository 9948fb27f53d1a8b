//! Footprint pin: a windowed large-n run keeps O(n) bytes per retained
//! round frame, and a round after the window fills allocates nothing but
//! a growing exception list.
//!
//! A round frame stores the clean block as two sets and keeps rows only
//! for the processes outside it, so a round with one faulty process
//! holds four n-bit rows, not two n×n bit grids (2 MiB each at
//! n = 4096). This binary counts live heap bytes with its own global
//! allocator, so the bound below is a count of bytes the program asked
//! for — the host's page cache, allocator arenas and thread stacks do
//! not enter it. It is its own test binary so that no other test
//! allocates while it measures.

use ftss::core::{DeliveryOutcome, ProcessId};
use ftss::protocols::RoundAgreement;
use ftss::sync_sim::{RandomOmission, RunConfig, SyncRunner};
use ftss::telemetry::NullSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

const N: usize = 4096;
const WINDOW: usize = 8;
const ROUNDS: usize = 24;

/// The frames alive at once: the retained window, the frame being
/// filled, and the evicted one on its way back to the kernel.
const FRAMES: usize = WINDOW + 2;

/// Heap bytes one frame may hold per process. Measured per process:
/// 16 for its state, 16 for its counter, 8 for its broadcast slot, 24
/// for the shared payload it points to, 16 for its row slots, and one
/// 24-byte exception entry (the omitter's copies: ≈ n per round), which
/// a doubled `Vec` may hold twice — ≈ 130 in all. The four rows of the
/// one special process and the block's two sets are O(n/8) bytes each.
/// 256 leaves headroom without admitting one n×n bit grid per frame,
/// which alone is n/8 = 512 bytes per process.
const BYTES_PER_PROCESS: usize = 256;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// While set, every allocation's size goes to `SIZES`.
static WATCHING: AtomicBool = AtomicBool::new(false);
static SEEN: AtomicUsize = AtomicUsize::new(0);
static SIZES: [AtomicUsize; 64] = [const { AtomicUsize::new(0) }; 64];

/// [`System`], counting live bytes and their peak, and logging the size
/// of each allocation (a `realloc` counts as one) while watched.
struct Counting;

fn grew(bytes: usize) {
    if WATCHING.load(Relaxed) {
        if let Some(slot) = SIZES.get(SEEN.fetch_add(1, Relaxed)) {
            slot.store(bytes, Relaxed);
        }
    }
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}
// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_windowed_large_n_run_holds_o_n_bytes_per_frame() {
    let cfg = RunConfig::corrupted(N, ROUNDS, 7).with_history_window(WINDOW);
    let mut omitter = RandomOmission::new([ProcessId(0)], 0.5, 11);
    let runner = SyncRunner::new(RoundAgreement);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    // Rounds 1..=WINDOW allocate their frames; round WINDOW + 1 evicts
    // round 1's, and round WINDOW + 2, the first to refill an evicted
    // frame, sets up the kernel's payload pool. Watched: every round
    // after that, up to the last round's end.
    let outcome = runner
        .run_streaming(&mut omitter, &cfg, &mut NullSink, |history| {
            WATCHING.store(
                WINDOW + 2 <= history.len() && history.len() < ROUNDS,
                Relaxed,
            );
        })
        .expect("a valid configuration");
    let peak = PEAK.load(Relaxed) - before;
    assert_eq!(outcome.history.len(), ROUNDS);

    let bound = FRAMES * N * BYTES_PER_PROCESS;
    assert!(
        peak < bound,
        "peak live heap {peak} B over the O(n)-per-frame bound {bound} B"
    );
    // The one allocation a steady round may make: a recycled frame's
    // exception list doubles when its round has more exceptions than
    // any round the frame held before. The omitter's ≈ 2n consulted
    // copies drop ≈ n, around a power-of-two capacity, so each frame
    // grows its list at most once more in this run.
    let entry = std::mem::size_of::<(ProcessId, ProcessId, DeliveryOutcome)>();
    let seen = SEEN.load(Relaxed);
    let sizes: Vec<usize> = SIZES[..seen.min(SIZES.len())]
        .iter()
        .map(|s| s.load(Relaxed))
        .collect();
    let exception_growth =
        |&size: &usize| size % entry == 0 && (size / entry).is_power_of_two() && size / entry >= N;
    assert!(
        seen <= FRAMES && sizes.iter().all(exception_growth),
        "allocations after the window filled (bytes): {sizes:?}"
    );
}
