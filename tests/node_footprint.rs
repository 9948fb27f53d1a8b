//! Allocation pin for a served node: once warm, a node's round — receive,
//! decode, step, broadcast, encode, send — allocates its receive buffer
//! and, for compiled FloodSet, what the protocol's own state and message
//! need; never anything per heard sender.
//!
//! A node decodes each round frame into storage it keeps for the session:
//! every distinct message of the round's table once, into a message of
//! an earlier round, and it steps on a view of that table. This binary
//! drives `run_node` over a scripted channel that plays the router: it
//! hands the node the round frames of a simulated run and counts, with
//! its own global allocator (a `realloc` counts as one), what the node
//! thread asked for between one receive and the next. Only that thread
//! is counted, so nothing else the binary runs blurs the count.

use ftss::compiler::Compiled;
use ftss::core::{Corrupt, ProcessId};
use ftss::protocols::{FloodSet, RoundAgreement};
use ftss::sync_sim::{NoFaults, RunConfig, SyncProtocol, SyncRunner};
use ftss_serve::{run_node, Channel, Wire};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Rounds a node runs before its allocations are counted.
const WARM: usize = 8;
/// Rounds of a run.
const ROUNDS: usize = 24;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted: the node's thread
    /// only, never the harness's.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn grew() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

/// [`System`], counting the counted thread's allocations.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes that a call was made.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The round frame a router sends when every process hears every
/// broadcast of `msgs`: each distinct encoding once, in first-seen order,
/// a one-byte index per sender, every heard bit set, and no forged or
/// late copies. (The layout is `proto`'s; `ftss-serve`'s own tests pin it
/// against the router's writer.)
fn round_frame<M: Wire>(msgs: &[&M]) -> (Vec<u8>, usize) {
    let n = msgs.len();
    let mut table: Vec<Vec<u8>> = Vec::new();
    let mut cells = Vec::new();
    for m in msgs {
        let mut bytes = Vec::new();
        m.encode_bin(&mut bytes);
        let at = table
            .iter()
            .position(|e| *e == bytes)
            .unwrap_or(table.len());
        if at == table.len() {
            table.push(bytes);
        }
        cells.push(u8::try_from(at).expect("fewer than 255 entries"));
    }
    let mut out = vec![0xB1];
    out.extend((n as u32).to_le_bytes());
    out.extend((table.len() as u32).to_le_bytes());
    for entry in &table {
        out.extend((entry.len() as u32).to_le_bytes());
        out.extend(entry);
    }
    out.extend(cells);
    for word in 0..n.div_ceil(64) {
        let bits = (n - word * 64).min(64);
        out.extend(
            u64::MAX
                .checked_shr(64 - bits as u32)
                .unwrap_or(0)
                .to_le_bytes(),
        );
    }
    out.extend([0; 8]); // no forged copies, no late ones
    (out, table.len())
}

/// Plays the router for one node: answers each `bcast` with the next
/// round frame, then `halt`, and records what the node allocated from
/// one receive to the next.
struct Script {
    frames: Vec<Vec<u8>>,
    next: usize,
    /// `ALLOCS` at each receive.
    marks: Vec<usize>,
}

impl Channel for Script {
    fn send(&mut self, _payload: &[u8]) -> io::Result<()> {
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.marks.push(ALLOCS.load(Relaxed));
        let frame = self
            .frames
            .get(self.next)
            .map_or(&b"{\"type\":\"halt\"}"[..], |f| f);
        self.next += 1;
        // The receive buffer, as a transport hands it over.
        Ok(frame.to_vec())
    }
}

/// Runs node 0 of `protocol` on the round frames of a clean simulated
/// run at size `n`; returns `(allocations, table entries)` of each round
/// after the warm-up.
fn warm_rounds<P>(protocol: P, n: usize) -> Vec<(usize, usize)>
where
    P: SyncProtocol + Clone,
    P::State: Wire + Corrupt,
    P::Msg: Wire,
{
    let run = SyncRunner::new(protocol.clone())
        .run(&mut NoFaults, &RunConfig::clean(n, ROUNDS))
        .expect("a valid configuration");
    let (frames, entries): (Vec<_>, Vec<_>) = run
        .history
        .rounds()
        .iter()
        .map(|round| {
            let msgs: Vec<&P::Msg> = (0..n)
                .map(|p| {
                    &**round
                        .msgs()
                        .broadcast_of(ProcessId(p))
                        .expect("nobody crashes")
                })
                .collect();
            round_frame(&msgs)
        })
        .unzip();
    let mut script = Script {
        frames,
        next: 0,
        marks: Vec::with_capacity(ROUNDS + 2),
    };
    COUNTED.with(|c| c.set(true));
    let ended = run_node(&protocol, ProcessId(0), n, &mut script);
    COUNTED.with(|c| c.set(false));
    ended.expect("the node runs to its halt");
    let per_round = script.marks.windows(2).map(|w| w[1] - w[0]);
    per_round.zip(entries).skip(WARM).collect()
}

#[test]
fn a_warm_round_agreement_round_allocates_its_receive_buffer_only() {
    for n in [16, 64] {
        for (round, (allocs, _)) in warm_rounds(RoundAgreement, n).into_iter().enumerate() {
            assert_eq!(
                allocs, 1,
                "n = {n}, warm round {round}: {allocs} allocations"
            );
        }
    }
}

/// A compiled FloodSet round allocates its receive buffer, the broadcast
/// (the seen set's copy and the handle that shares it) and, once an
/// iteration, Π's reset state: at most 4, however many distinct entries
/// the round's table has (16 in an iteration's first round, 1 in its
/// second) and however many senders were heard — the same count round
/// by round at n = 16 and at n = 64.
#[test]
fn a_warm_compiled_floodset_round_allocates_nothing_per_sender() {
    let floodset =
        |n: u64| Compiled::new(FloodSet::new(1, (0..n).map(|i| (i * 7 + 3) % 50).collect()));
    let small = warm_rounds(floodset(16), 16);
    let large = warm_rounds(floodset(64), 64);
    assert!(small.iter().any(|&(_, entries)| entries == 16));
    for (round, (&(allocs, entries), &(at_64, _))) in small.iter().zip(&large).enumerate() {
        assert!(
            allocs <= 4,
            "warm round {round}: {allocs} allocations with {entries} table entries"
        );
        assert_eq!(allocs, at_64, "warm round {round}: n = 16 vs n = 64");
    }
}
