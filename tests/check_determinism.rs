//! Tier-1 determinism guarantees of `ftss-check` (wired as an
//! integration test of the `ftss-check` crate; see its `Cargo.toml`).
//!
//! * The n = 3 two-round schedule space is *pinned* at 256 tapes, and
//!   Theorem 3 holds on every one of them.
//! * A graph counterexample is 1-minimal and written to a schedule file
//!   that parses back to itself and replays to the recorded verdict.
//! * That file replays byte-identically through the telemetry
//!   `JsonlSink` — twice, from the parsed file.
//! * The adversary battery's rows do not depend on the worker count.

use ftss::core::ProcessId;
use ftss::telemetry::JsonlSink;
use ftss_check::{
    check_tape, explore_graph, run_battery, run_tape, shrink_with, BatteryConfig, DfsConfig,
    GraphConfig, ScheduleFile,
};

/// The acceptance-criterion space: n = 3 round agreement, one corrupted
/// initial state per process, omissions through p0. Four copies touch p0
/// per round (p0→p1, p0→p2, p1→p0, p2→p0), so 2 rounds give 8 decision
/// points and exactly 2^8 = 256 schedules — all of which must satisfy
/// Theorem 3's one-round stabilization, as the graph certifies.
#[test]
fn dfs_schedule_count_is_pinned_and_thm3_holds_everywhere() {
    let cfg = DfsConfig {
        n: 3,
        rounds: 2,
        corruption_seed: 7,
        faulty: ProcessId(0),
        tape_bound: 8,
        stabilization: 1,
    };
    let (_, eligible) = run_tape(&cfg, &[], &mut ftss::telemetry::NullSink);
    assert_eq!(eligible, 8);
    let schedules = 1u32 << eligible;
    assert_eq!(schedules, 256, "exhaustive within the bound");
    for bits in 0..schedules {
        let tape: Vec<bool> = (0..eligible).map(|i| (bits >> i) & 1 == 1).collect();
        let verdict = check_tape(&cfg, &tape);
        assert!(
            verdict.is_none(),
            "Theorem 3 violated: {tape:?}: {verdict:?}"
        );
    }
    let graph = explore_graph(&GraphConfig::small(7)).expect("valid config");
    assert!(graph.counterexample.is_none(), "{:?}", graph.counterexample);
}

/// The deliberately broken oracle (stabilization bound 0: "corrupted
/// starts agree immediately") on the acceptance configuration — n = 3
/// round agreement, one corrupted initial state per process, omissions
/// through p0, two rounds — as the schedule file graph mode writes.
fn broken_oracle_file() -> ScheduleFile {
    let mut cfg = GraphConfig::small(7);
    cfg.stabilization = 0;
    let report = explore_graph(&cfg).expect("valid config");
    let gce = report.counterexample.expect("broken oracle must trip");
    ScheduleFile::graph(gce.cfg, gce.counterexample)
}

/// The broken oracle's counterexample is already minimal — no omission
/// is needed to refute stabilization 0, and shrinking it again changes
/// nothing — survives a serialize/parse round trip, and replays to the
/// very same verdict.
#[test]
fn broken_oracle_counterexample_shrinks_and_replays() {
    let file = broken_oracle_file();
    assert!(
        file.tape.is_empty(),
        "no omission is needed to refute stabilization 0, got {:?}",
        file.tape
    );
    let again = shrink_with(&file.cfg, &file.tape, check_tape);
    assert_eq!((&again.tape, &again.detail), (&file.tape, &file.detail));
    let parsed = ScheduleFile::parse(&file.serialize()).expect("round trip");
    assert_eq!(parsed, file);
    assert_eq!(
        parsed.replay(&mut ftss::telemetry::NullSink),
        Some(file.detail),
        "verdict reproduces"
    );
}

/// Replaying a schedule through the telemetry sink is byte-deterministic:
/// the original violating run and two replays from the parsed file all
/// serialize to identical JSONL.
#[test]
fn counterexample_replay_is_byte_identical() {
    let file = broken_oracle_file();
    let parsed = ScheduleFile::parse(&file.serialize()).expect("round trip");

    let mut sink = JsonlSink::new(Vec::new());
    run_tape(&file.cfg, &file.tape, &mut sink);
    let original = sink.finish().expect("in-memory sink");
    // Replay as `ftss-lab check --replay` does: through the file's own
    // `replay`, which traces the run and re-judges it.
    let replay = || -> Vec<u8> {
        let mut sink = JsonlSink::new(Vec::new());
        assert_eq!(parsed.replay(&mut sink).as_ref(), Some(&file.detail));
        sink.finish().expect("in-memory sink")
    };
    let replay_a = replay();
    let replay_b = replay();
    assert!(!original.is_empty(), "trace must carry events");
    assert_eq!(original, replay_a, "replay reproduces the original bytes");
    assert_eq!(replay_a, replay_b, "and is stable across executions");
}

/// The battery fans out over the sweep executor; its report must be a
/// pure function of `(n, seeds)`, never of the worker count.
#[test]
fn battery_rows_are_identical_across_worker_counts() {
    let render = |jobs: usize| -> Vec<String> {
        run_battery(&BatteryConfig::new(5, 2, jobs))
            .expect("valid battery")
            .iter()
            .map(|r| r.to_string())
            .collect()
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial, parallel, "rows must not depend on FTSS_JOBS");
    assert!(
        serial.iter().all(|r| r.ends_with("PASS")),
        "battery must be green: {serial:#?}"
    );
}
