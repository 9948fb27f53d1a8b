//! Determinism regression: the same seed must serialize to the same
//! JSONL trace, byte for byte — once for a synchronous scenario and once
//! for an asynchronous one. This is the contract `ftss-lab trace` exposes
//! and `scripts/verify.sh` smoke-checks end to end.

use ftss::analysis::{coterie_events, stabilization_event};
use ftss::async_sim::{AdversaryScheduler, AsyncConfig, AsyncRunner};
use ftss::compiler::{trace_events, Compiled};
use ftss::core::{ProcessId, RateAgreementSpec};
use ftss::detectors::{StrongDetectorProcess, WeakOracle};
use ftss::protocols::{FloodSet, RoundAgreement};
use ftss::sync_sim::{RandomOmission, RunConfig, SyncRunner};
use ftss::telemetry::{Event, JsonlSink, TraceSink};

/// One full synchronous trace (live events + derived events) as bytes.
fn sync_trace(seed: u64) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    let mut adv = RandomOmission::new([ProcessId(1)], 0.4, seed);
    let out = SyncRunner::new(RoundAgreement)
        .run_traced(&mut adv, &RunConfig::corrupted(4, 10, seed), &mut sink)
        .expect("valid config");
    for ev in coterie_events(&out.history) {
        sink.emit(&ev);
    }
    if let Some(ev) = stabilization_event(&out.history, &RateAgreementSpec::new()) {
        sink.emit(&ev);
    }
    sink.finish().expect("in-memory sink cannot fail")
}

/// A compiled-protocol trace, exercising decision/suspicion extraction.
fn compiled_trace(seed: u64) -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    let pi_plus = Compiled::new(FloodSet::new(1, vec![4, 2, 7]));
    let out = SyncRunner::new(pi_plus)
        .run_traced(
            &mut ftss::sync_sim::NoFaults,
            &RunConfig::corrupted(3, 12, seed),
            &mut sink,
        )
        .expect("valid config");
    for ev in trace_events(&out.history) {
        sink.emit(&ev);
    }
    sink.finish().expect("in-memory sink cannot fail")
}

/// The ◇S detector system of the async traces: four processes, `p3`
/// crashing at 500.
fn async_system(seed: u64) -> (Vec<StrongDetectorProcess>, AsyncConfig) {
    let n = 4;
    let crashes = vec![(ProcessId(3), 500)];
    let oracle = WeakOracle::new(n, crashes.clone(), 0, seed, 0.0);
    let procs = (0..n)
        .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
        .collect();
    let mut cfg = AsyncConfig::tame(seed);
    for &(p, t) in &crashes {
        cfg = cfg.with_crash(p, t);
    }
    (procs, cfg)
}

/// One full asynchronous trace as bytes, under the default seeded delays.
fn async_trace(seed: u64) -> Vec<u8> {
    let (procs, cfg) = async_system(seed);
    let mut runner = AsyncRunner::new(procs, cfg).expect("valid config");
    let mut sink = JsonlSink::new(Vec::new());
    runner.run_until_traced(4_000, &mut sink);
    sink.finish().expect("in-memory sink cannot fail")
}

/// The same system under worst-case delays: every message touching `p1`
/// sent before time 2 000 takes the maximum delay, the rest the minimum.
fn adversary_trace(seed: u64) -> Vec<u8> {
    let (procs, cfg) = async_system(seed);
    let sched = AdversaryScheduler::new([ProcessId(1)]).with_window(0, 2_000);
    let mut runner = AsyncRunner::with_scheduler(procs, cfg, sched).expect("valid config");
    let mut sink = JsonlSink::new(Vec::new());
    runner.run_until_traced(4_000, &mut sink);
    sink.finish().expect("in-memory sink cannot fail")
}

/// 64-bit FNV-1a: a digest that is fixed by its definition, so it can be
/// pinned across toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn sync_trace_is_byte_identical_across_runs() {
    for seed in [0u64, 1, 42] {
        let a = sync_trace(seed);
        let b = sync_trace(seed);
        assert!(!a.is_empty());
        assert_eq!(a, b, "seed {seed}: sync traces diverged");
    }
}

#[test]
fn compiled_trace_is_byte_identical_across_runs() {
    let a = compiled_trace(7);
    let b = compiled_trace(7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "compiled traces diverged");
}

#[test]
fn async_trace_is_byte_identical_across_runs() {
    for seed in [0u64, 9] {
        let a = async_trace(seed);
        let b = async_trace(seed);
        assert!(!a.is_empty());
        assert_eq!(a, b, "seed {seed}: async traces diverged");
    }
}

/// The async delivery order against digests recorded before the runner
/// took over the event queue from the schedulers: the soak digests pin the
/// judged report, these pin every `deliver`, `timer` and `crash` line.
#[test]
fn async_traces_match_the_recorded_digests() {
    for (seed, digest) in [
        (0u64, 0x5c29_2764_f5d7_93d2_u64),
        (1, 0xb33d_9ae4_43a3_cd47),
        (42, 0x24e4_a9a1_45b9_ecb4),
    ] {
        let got = fnv1a(&async_trace(seed));
        assert_eq!(got, digest, "seed {seed}: got {got:#018x}");
    }
    let got = fnv1a(&adversary_trace(7));
    assert_eq!(
        got, 0x9f99_fc59_fdf9_0ea8,
        "adversary trace: got {got:#018x}"
    );
}

#[test]
fn different_seeds_give_different_traces() {
    // Sanity check that the byte-equality above is not vacuous.
    assert_ne!(sync_trace(1), sync_trace(2));
}

#[test]
fn every_trace_line_round_trips_through_the_parser() {
    let bytes = sync_trace(3);
    let text = String::from_utf8(bytes).expect("traces are UTF-8");
    let mut count = 0;
    for line in text.lines() {
        let ev = Event::parse_line(line).expect("line parses");
        assert_eq!(ev.to_jsonl(), line, "re-serialization must be identity");
        count += 1;
    }
    assert!(
        count > 10,
        "expected a substantial trace, got {count} lines"
    );
}
