//! Allocation pin for the asynchronous engine: once warm, a ◇S detector
//! tick allocates its gossip table, a delivery or a drop allocates
//! nothing, and live heap bytes stay bounded over a long run with a crash.
//!
//! The runner keeps each queued message once, in a free-listed arena
//! slot counted per queued copy, and queues 32-byte events that name the
//! slot. So a broadcast costs the one allocation its sender made, and the
//! copy that leaves the queue last — delivered, or dropped at a crashed
//! receiver — frees it. This binary counts heap allocations with its own
//! global allocator (a `realloc` counts as one), so the pins below are
//! counts of what the program asked for. It is its own test binary so
//! that no other test allocates while it measures.

use ftss::async_sim::{AsyncConfig, AsyncRunner, Time};
use ftss::core::ProcessId;
use ftss::detectors::{LifeState, StrongDetectorProcess, WeakOracle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// Five processes, as in the soak's detector cells: a table is 80 bytes,
/// a size no event-queue or arena buffer can have.
const N: usize = 5;
const HEARTBEAT: Time = 20;
/// The last process crashes here; its copies are dropped from then on.
const CRASH_AT: Time = 500;
/// Warm-ups: by the first, every buffer the engine reuses has reached its
/// steady capacity.
const WARM: [Time; 3] = [60_000, 300_000, 1_200_000];
/// The watched stretch, after the warm-up.
const WATCHED: Time = 600_000;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// While set, allocations are counted, and any of another size than a
/// table is logged to `ODD`.
static WATCHING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static ODD_SEEN: AtomicUsize = AtomicUsize::new(0);
static ODD: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];

fn table_bytes() -> usize {
    N * std::mem::size_of::<(u64, LifeState)>()
}

/// [`System`], counting live bytes and their peak, and counting the
/// allocations (a `realloc` counts as one) while watched.
struct Counting;

fn grew(bytes: usize) {
    if WATCHING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        if bytes != table_bytes() {
            if let Some(slot) = ODD.get(ODD_SEEN.fetch_add(1, Relaxed)) {
                slot.store(bytes, Relaxed);
            }
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
fn a_warm_detector_tick_allocates_its_table_and_a_delivery_nothing() {
    for warm in WARM {
        watch_after(warm);
    }
}

/// Runs the detector for `warm` units, then pins what the next
/// [`WATCHED`] units allocate.
fn watch_after(warm: Time) {
    ALLOCS.store(0, Relaxed);
    ODD_SEEN.store(0, Relaxed);
    let crashes = vec![(ProcessId(N - 1), CRASH_AT)];
    let oracle = WeakOracle::new(N, crashes.clone(), 0, 7, 0.0);
    let procs: Vec<StrongDetectorProcess> = (0..N)
        .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), HEARTBEAT))
        .collect();
    let mut cfg = AsyncConfig::tame(7);
    cfg.crashes = crashes;
    let mut runner = AsyncRunner::new(procs, cfg).expect("a valid configuration");
    runner.run_until(warm);
    let before = runner.stats();
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);

    WATCHING.store(true, Relaxed);
    let after = runner.run_until(warm + WATCHED);
    WATCHING.store(false, Relaxed);

    let ticks = (after.timers_fired - before.timers_fired) as usize;
    let delivered = after.messages_delivered - before.messages_delivered;
    let dropped = after.messages_to_crashed - before.messages_to_crashed;
    // Four live processes tick every heartbeat and broadcast to all five.
    assert_eq!(ticks, (N - 1) * (WATCHED / HEARTBEAT) as usize);
    assert_eq!(delivered, (ticks * (N - 1)) as u64);
    assert_eq!(dropped, ticks as u64);

    // Nothing else: the event queue's 64 per-instant buckets share one
    // high-water count, and a bucket reused while empty makes room for
    // it (rounded up to a power of two). An instant holds at most one
    // tick's five copies per live process plus its ticks, at most 32
    // events; once one instant has held more than 16 — well within the
    // first warm-up — every bucket takes room for 32 the next time it
    // comes round, a few hundred units later, and never grows again.
    let odd_seen = ODD_SEEN.load(Relaxed);
    let odd: Vec<usize> = ODD[..odd_seen.min(ODD.len())]
        .iter()
        .map(|s| s.load(Relaxed))
        .collect();
    assert_eq!(
        odd_seen, 0,
        "warm-up {warm}: allocations that are not a table, the first (bytes): {odd:?}"
    );
    assert_eq!(
        ALLOCS.load(Relaxed) - odd_seen,
        ticks,
        "warm-up {warm}: one table per tick, none per delivery or drop"
    );
    // Every table is freed by its last copy, delivered or dropped at the
    // crashed receiver, so the heap rises over the warm state by at most
    // the tables in flight — one per live process, since a tick's copies
    // all land within the 10-unit maximum delay, half a heartbeat: a
    // bound independent of the run's length. A table kept past a dropped
    // copy would be 80 B × 120 000 drops here.
    let peak = PEAK.load(Relaxed) - live;
    let bound = (N - 1) * table_bytes();
    assert!(
        peak <= bound,
        "warm-up {warm}: live heap grew by {peak} B over the warm state, bound {bound} B"
    );
}
