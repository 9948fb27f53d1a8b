//! Tier-1 determinism guarantees of `ftss-check` (wired as an
//! integration test of the `ftss-check` crate; see its `Cargo.toml`).
//!
//! * The exhaustive DFS visits a *pinned* number of schedules — the
//!   schedule space is part of the public contract, so a change to the
//!   consultation order or the enumeration shows up here first.
//! * A counterexample written to a schedule file replays byte-identically
//!   through the telemetry `JsonlSink` — twice, from the parsed file.
//! * The adversary battery's rows do not depend on the worker count.

use ftss::telemetry::JsonlSink;
use ftss_check::{explore, run_battery, run_tape, shrink, BatteryConfig, DfsConfig, ScheduleFile};

/// The acceptance-criterion run: n = 3 round agreement, one corrupted
/// initial state per process, omissions through p0. Four copies touch p0
/// per round (p0→p1, p0→p2, p1→p0, p2→p0), so 2 rounds give 8 decision
/// points and exactly 2^8 = 256 schedules — all of which must satisfy
/// Theorem 3's one-round stabilization.
#[test]
fn dfs_schedule_count_is_pinned_and_thm3_holds_everywhere() {
    let report = explore(&DfsConfig::small(7)).expect("valid config");
    assert_eq!(report.eligible_copies, 8);
    assert_eq!(report.decision_points, 8);
    assert_eq!(report.schedules, 256, "exhaustive within the bound");
    assert!(
        report.counterexample.is_none(),
        "Theorem 3 violated: {:?}",
        report.counterexample
    );
}

/// A deliberately broken oracle (stabilization bound 0: "corrupted starts
/// agree immediately") must produce a counterexample, shrink to a minimal
/// schedule, survive a serialize/parse round trip, and replay to the very
/// same verdict.
#[test]
fn broken_oracle_counterexample_shrinks_and_replays() {
    let mut cfg = DfsConfig::small(7);
    cfg.stabilization = 0;
    let report = explore(&cfg).expect("valid config");
    let ce = report.counterexample.expect("broken oracle must trip");
    let ce = shrink(&cfg, &ce.tape);
    assert!(
        ce.tape.is_empty(),
        "no omission is needed to refute stabilization 0, got {:?}",
        ce.tape
    );
    let file = ScheduleFile::new(cfg, ce.clone());
    let parsed = ScheduleFile::parse(&file.serialize()).expect("round trip");
    assert_eq!(parsed, file);
    assert_eq!(
        parsed.replay(&mut ftss::telemetry::NullSink),
        Some(ce.detail),
        "verdict reproduces"
    );
}

/// Replaying a schedule through the telemetry sink is byte-deterministic:
/// the original violating run and two replays from the parsed file all
/// serialize to identical JSONL.
#[test]
fn counterexample_replay_is_byte_identical() {
    let mut cfg = DfsConfig::small(7);
    cfg.stabilization = 0;
    let report = explore(&cfg).expect("valid config");
    let ce = report.counterexample.expect("broken oracle must trip");
    let shrunk = shrink(&cfg, &ce.tape);
    let file = ScheduleFile::new(cfg, shrunk);
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
