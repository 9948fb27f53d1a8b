//! Tier-1 guarantees of graph-mode model checking (wired as an
//! integration test of the `ftss-check` crate; see its `Cargo.toml`).
//!
//! * The state-graph explorer and the legacy schedule-tree enumerator
//!   agree verdict-for-verdict on equivalent configurations — green on
//!   Theorem 3's claim, both tripped by the deliberately broken oracle.
//! * The graph does at least 10× fewer round executions than the
//!   enumerator on the pinned n=3 configuration (the scale-up claim),
//!   with both work counts pinned exactly.
//! * Reports are a pure function of the configuration, never of `jobs`.
//! * An n=5 fixpoint closes, certifying the obligations for *every*
//!   horizon — coverage no bounded tape enumeration can reach.
//! * A graph counterexample serializes with the `mode: graph` header and
//!   replays through the same schedule-file pipeline as enumerated ones.
//! * Whole reports — counts and reconstructed counterexamples — equal the
//!   values recorded before the expansion kernel was rebuilt (PR 12).

use ftss::core::ProcessId;
use ftss_check::{
    explore, explore_graph, Counterexample, DfsConfig, GraphConfig, GraphCounterexample,
    GraphReport, ScheduleFile, ScheduleMode,
};

/// One legacy/graph configuration pair covering the same space: `rounds`
/// BFS layers ≙ enumerating every `rounds`-round schedule, with the tape
/// bound sized to the full eligible-copy count.
fn equivalent_pair(
    n: usize,
    rounds: usize,
    seed: u64,
    stabilization: usize,
) -> (DfsConfig, GraphConfig) {
    let enum_cfg = DfsConfig {
        n,
        rounds,
        corruption_seed: seed,
        faulty: ftss::core::ProcessId(0),
        tape_bound: 2 * (n - 1) * rounds,
        stabilization,
    };
    let mut graph_cfg = GraphConfig::fixpoint(n, seed);
    graph_cfg.rounds = Some(rounds);
    graph_cfg.stabilization = stabilization;
    (enum_cfg, graph_cfg)
}

#[test]
fn graph_and_enumerator_agree_on_verdicts() {
    for seed in [7u64, 11, 42] {
        for stab in [1usize, 0] {
            let (ec, gc) = equivalent_pair(3, 2, seed, stab);
            let er = explore(&ec).expect("valid enum config");
            let gr = explore_graph(&gc).expect("valid graph config");
            assert_eq!(
                er.counterexample.is_some(),
                gr.counterexample.is_some(),
                "verdicts diverge at seed {seed}, stabilization {stab}"
            );
        }
    }
}

#[test]
fn graph_does_at_least_10x_less_work_than_the_enumerator() {
    // Work unit: round executions. The enumerator replays every prefix,
    // so it runs `schedules × rounds`; each graph expansion is one edge,
    // and costs less than a round: a node's 2^(2(n−1)) edges share
    // 2^(n−1) stepper rounds and are judged once per effect class (the
    // n = 6 seed-7 fixpoint: 18 336 rounds and 4 917 classes for 586 752
    // expansions, pinned by `class_walk_work_is_pinned` in frontier.rs).
    let (ec, gc) = equivalent_pair(3, 3, 7, 1);
    let er = explore(&ec).expect("valid enum config");
    let gr = explore_graph(&gc).expect("valid graph config");
    assert!(er.counterexample.is_none() && gr.counterexample.is_none());
    let enum_work = er.schedules * ec.rounds as u64;
    assert!(
        enum_work >= 10 * gr.expansions,
        "graph must do >=10x fewer round executions: {} enumerated vs {} expanded",
        enum_work,
        gr.expansions
    );
    // The exact counts are the algorithmic guard: they replace the 2×
    // wall-clock gate the retired micro-benchmarks held the checker to
    // (a search that does more work shows up here as an inequality, on
    // any machine). The sparse round walk has its own count guard,
    // `clean_copies_are_never_submitted` (crates/sync-sim/src/round.rs).
    assert_eq!(
        (er.schedules, enum_work, gr.expansions),
        (4_096, 12_288, 640)
    );
}

#[test]
fn graph_reports_are_jobs_invariant() {
    let mut base = GraphConfig::fixpoint(4, 7);
    base.rounds = Some(3);
    let reference = explore_graph(&base).expect("valid config");
    for jobs in 2..=4 {
        let mut cfg = base.clone();
        cfg.jobs = jobs;
        let report = explore_graph(&cfg).expect("valid config");
        assert_eq!(report, reference, "report depends on jobs={jobs}");
    }
}

#[test]
fn n5_fixpoint_closes_and_certifies_every_horizon() {
    let report = explore_graph(&GraphConfig::fixpoint(5, 7)).expect("valid config");
    assert!(report.fixpoint, "n=5 exploration must close");
    assert!(
        report.counterexample.is_none(),
        "Theorem 3 violated at n=5: {:?}",
        report.counterexample
    );
    assert!(report.orbit_hits > 0, "symmetry reduction must fire at n=5");
    assert!(report.dedup_hits > 0, "fingerprint dedup must fire at n=5");
}

#[test]
fn graph_counterexample_replays_through_the_schedule_pipeline() {
    let mut cfg = GraphConfig::fixpoint(3, 7);
    cfg.stabilization = 0; // deliberately broken oracle
    let report = explore_graph(&cfg).expect("valid config");
    let gce = report.counterexample.expect("broken oracle must trip");
    let file = ScheduleFile::graph(gce.cfg, gce.counterexample.clone());
    let text = file.serialize();
    assert!(text.contains("\nmode: graph\n"), "{text}");
    let parsed = ScheduleFile::parse(&text).expect("round trip");
    assert_eq!(parsed, file);
    assert_eq!(parsed.mode, ScheduleMode::Graph);
    assert_eq!(
        parsed.replay(&mut ftss::telemetry::NullSink),
        Some(gce.counterexample.detail),
        "graph witnesses replay like enumerated ones"
    );
}

/// Recorded on PR 12's parent commit (brute-force canonicalizer, unpruned
/// merge): two complete layers at n = 6, every count.
#[test]
fn n6_two_layer_report_matches_the_recorded_one() {
    let mut cfg = GraphConfig::fixpoint(6, 7);
    cfg.rounds = Some(2);
    cfg.jobs = 2;
    assert_eq!(
        explore_graph(&cfg).expect("valid config"),
        GraphReport {
            visited: 404,
            expansions: 230_400,
            dedup_hits: 229_997,
            orbit_hits: 17_858,
            depth: 2,
            fixpoint: false,
            counterexample: None,
        }
    );
}

/// Recorded on PR 12's parent commit: the sabotaged oracle's whole report
/// at n = 4 — the layer is completed, every edge of it needs a
/// non-identity relabeling, and the witness is rebuilt through the root's
/// stored permutation, confirmed on the raw simulator and shrunk.
#[test]
fn n4_broken_oracle_reports_match_the_recorded_ones() {
    let cases = [
        (
            7u64,
            ProcessId(0),
            "thm3: 1 of 1 obligations failed at stabilization 0; first: H3 = rounds 1..1 \
             (coterie {p0,p1,p2,p3}): violation of agreement at slice round 0 involving \
             p0,p1: p0 has c=5142052590334782674 but p1 has c=18098058644649177664",
        ),
        (
            11,
            ProcessId(2),
            "thm3: 1 of 1 obligations failed at stabilization 0; first: H3 = rounds 1..1 \
             (coterie {p0,p1,p2,p3}): violation of agreement at slice round 0 involving \
             p0,p1: p0 has c=89 but p1 has c=454",
        ),
    ];
    for (seed, faulty, detail) in cases {
        let mut cfg = GraphConfig::fixpoint(4, seed);
        cfg.stabilization = 0;
        cfg.faulty = faulty;
        let replay = DfsConfig {
            n: 4,
            rounds: 1,
            corruption_seed: seed,
            faulty,
            tape_bound: 6,
            stabilization: 0,
        };
        assert_eq!(
            explore_graph(&cfg).expect("valid config"),
            GraphReport {
                visited: 49,
                expansions: 64,
                dedup_hits: 16,
                orbit_hits: 64,
                depth: 1,
                fixpoint: false,
                counterexample: Some(GraphCounterexample {
                    cfg: replay,
                    counterexample: Counterexample {
                        tape: vec![],
                        detail: detail.to_string(),
                    },
                }),
            },
            "seed {seed}, faulty {faulty}"
        );
    }
}
