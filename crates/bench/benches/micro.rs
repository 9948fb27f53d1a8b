//! Micro-benchmarks of the harness itself: simulator round throughput,
//! coterie computation, and the Definition-2.4 checker, on the in-repo
//! timer harness (`ftss_bench::harness`). These gate nothing in the
//! paper; they document what experiment sizes are practical.

use ftss::core::{
    ftss_check, CoterieTimeline, DeliveryOutcome, Payload, ProcessId, RateAgreementSpec,
    RoundCounter, RoundHistory,
};
use ftss::protocols::RoundAgreement;
use ftss::sync_sim::{NoFaults, RunConfig, SyncRunner};
use ftss::telemetry::{NullSink, RecordingSink};
use ftss_bench::harness::{black_box, Bencher};
use ftss_rng::{Rng, StdRng};
use ftss_sweep::e1_table;

/// Fills one struct-of-arrays round frame with a full n×n mesh: the
/// recording work the new engine does per round (bit flips into the
/// sent/delivered matrices, one shared payload slot per sender), on a
/// recycled frame.
fn fill_soa_frame(frame: &mut RoundHistory<u64, u64>, n: usize) -> usize {
    frame.reset(n);
    for p in 0..n {
        frame.set_process(
            ProcessId(p),
            Some(p as u64),
            Some(RoundCounter::new(1)),
            false,
            false,
        );
        frame.set_broadcast(ProcessId(p), Payload::new(p as u64));
    }
    for src in 0..n {
        for dst in 0..n {
            frame.record_send(ProcessId(src), ProcessId(dst), DeliveryOutcome::Delivered);
            frame.record_delivery(ProcessId(dst), ProcessId(src));
        }
    }
    frame.msgs().sent_count(ProcessId(0))
}

fn main() {
    // BENCH_QUICK=1 trades precision for runtime (CI smoke budget).
    let mut b = if std::env::var_os("BENCH_QUICK").is_some() {
        Bencher::quick()
    } else {
        Bencher::new()
    };

    for n in [8usize, 32, 64] {
        b.bench(&format!("sync_sim_round_agreement/rounds20/{n}"), || {
            SyncRunner::new(RoundAgreement)
                .run(&mut NoFaults, &RunConfig::corrupted(n, 20, 7))
                .unwrap()
        });
    }

    // The struct-of-arrays recording layer, filling one full-mesh round
    // copy by copy (DESIGN.md §12) — what a traced or layered round
    // still pays per copy; the untraced runner records the clean block
    // by rows and shows up in the end-to-end rows below instead.
    let mut frame: RoundHistory<u64, u64> = RoundHistory::empty(256);
    for n in [64usize, 256, 1024] {
        b.bench(&format!("engine/round_throughput/n{n}"), || {
            fill_soa_frame(black_box(&mut frame), n)
        });
    }

    // End-to-end large-n rounds: the full runner (protocol + adversary +
    // recording) on a 12-round window at sweep/soak sizes.
    for n in [256usize, 1024] {
        b.bench(&format!("engine/end_to_end/n{n}_r12_w12"), || {
            SyncRunner::new(RoundAgreement)
                .run(
                    &mut NoFaults,
                    &RunConfig::corrupted(n, 12, 7).with_history_window(12),
                )
                .unwrap()
        });
    }

    // Telemetry overhead guard. `run()` *is* `run_traced(&mut NullSink)`
    // by construction, so the first two rows must agree within noise —
    // any gap means the disabled-sink path stopped compiling out. The
    // recording row documents the price of actually capturing events.
    let cfg = RunConfig::corrupted(32, 20, 7);
    b.bench("trace_overhead/untraced_n32_r20", || {
        SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &cfg)
            .unwrap()
    });
    b.bench("trace_overhead/null_sink_n32_r20", || {
        SyncRunner::new(RoundAgreement)
            .run_traced(&mut NoFaults, &cfg, &mut NullSink)
            .unwrap()
    });
    b.bench("trace_overhead/recording_sink_n32_r20", || {
        let mut sink = RecordingSink::new(1 << 16);
        SyncRunner::new(RoundAgreement)
            .run_traced(&mut NoFaults, &cfg, &mut sink)
            .unwrap();
        sink.total_emitted()
    });

    let out = SyncRunner::new(RoundAgreement)
        .run(&mut NoFaults, &RunConfig::corrupted(32, 40, 7))
        .unwrap();
    b.bench("coterie_timeline_n32_r40", || {
        CoterieTimeline::compute(&out.history)
    });

    let out = SyncRunner::new(RoundAgreement)
        .run(&mut NoFaults, &RunConfig::corrupted(8, 30, 7))
        .unwrap();
    b.bench("ftss_check_exhaustive_n8_r30", || {
        ftss_check(&out.history, &RateAgreementSpec::new(), 1)
    });

    // The cost one broadcast pays to fan a message out to n=64 receivers:
    // deep-cloning the message per receiver (what the runners did before
    // `Payload`) vs. sharing one `Payload` (what they do now). The message
    // is FloodSet's real `Msg` type with a full seen-set — a `BTreeSet`
    // clone allocates per node, which is exactly the cost the sharing
    // refactor deletes. The shared row must be ≥5× cheaper.
    let msg: std::collections::BTreeSet<u64> = (0..64).collect();
    let clone_ns = b
        .bench("payload/share_vs_clone/clone_n64", || {
            let fanout: Vec<std::collections::BTreeSet<u64>> =
                (0..64).map(|_| black_box(&msg).clone()).collect();
            fanout
        })
        .median_ns;
    let share_ns = b
        .bench("payload/share_vs_clone/share_n64", || {
            let payload = Payload::new(black_box(&msg).clone());
            let fanout: Vec<Payload<std::collections::BTreeSet<u64>>> =
                (0..64).map(|_| payload.clone()).collect();
            fanout
        })
        .median_ns;
    println!(
        "payload/share_vs_clone: shared broadcast is {:.1}x cheaper at n=64",
        clone_ns / share_ns
    );

    // Graph-mode model checking vs the legacy schedule-tree enumerator on
    // the pinned n=3, 3-round configuration. The comparable work unit is
    // *round executions*: the enumerator runs `schedules × rounds` of
    // them (every run replays its whole prefix), the graph explorer runs
    // one per expansion (each edge steps the simulator exactly one
    // round). The graph must do ≥10× less work for identical verdicts —
    // this is the gate behind the state-graph checker (DESIGN.md §14).
    let enum_cfg = {
        let mut c = ftss_check::DfsConfig::small(7);
        c.rounds = 3;
        c.tape_bound = 12;
        c
    };
    let enum_report = ftss_check::explore(&enum_cfg).unwrap();
    b.bench("check/graph_vs_enum/enum_n3_r3", || {
        ftss_check::explore(black_box(&enum_cfg)).unwrap()
    });
    let graph_cfg = {
        let mut c = ftss_check::GraphConfig::small(7);
        c.rounds = Some(3);
        c
    };
    let graph_report = ftss_check::explore_graph(&graph_cfg).unwrap();
    b.bench("check/graph_vs_enum/graph_n3_r3", || {
        ftss_check::explore_graph(black_box(&graph_cfg)).unwrap()
    });
    assert_eq!(
        enum_report.counterexample.is_some(),
        graph_report.counterexample.is_some(),
        "check/graph_vs_enum: the two checkers must agree on the verdict"
    );
    let enum_work = enum_report.schedules * enum_cfg.rounds as u64;
    let graph_work = graph_report.expansions;
    let work_ratio = enum_work as f64 / graph_work as f64;
    println!(
        "check/graph_vs_enum: graph does {work_ratio:.1}x less round-execution work \
         ({enum_work} enumerated vs {graph_work} expanded)"
    );
    assert!(
        work_ratio >= 10.0,
        "check/graph_vs_enum gate: the graph explorer must do ≥10× fewer \
         round executions than the enumerator at n=3/rounds=3, measured {work_ratio:.1}x"
    );

    // The graph explorer's per-edge kernel at its largest size, n = 6.
    // `check/canonicalize_n6`: one orbit canonicalization (120
    // relabelings) per iteration, cycling through states of the shapes a
    // search meets — half of them settled (equal counters, every rate
    // flag set, causal reach differing only in who has heard from the
    // faulty process), half unstructured. `check/expand_n6`: one whole
    // node expansion — the root's 1024 omission masks, each a simulator
    // round, a canonicalization, a fingerprint and a visited-set probe.
    let states: Vec<ftss_check::NodeState> = {
        let mut rng = StdRng::seed_from_u64(7);
        let others = 0b11_1110u32;
        (0..64)
            .map(|k| {
                let settled = k % 2 == 0;
                let mut set = || rng.gen_range(0..64u64) as u32;
                ftss_check::NodeState {
                    counters: if settled {
                        vec![(set() % 2) as u64, 1, 1, 1, 1, 1]
                    } else {
                        (0..6).map(|_| (set() % 4) as u64).collect()
                    },
                    rate_ok: if settled { 0b11_1111 } else { set() },
                    reach: (0..6)
                        .map(|i| {
                            if settled {
                                others | set() & 1
                            } else {
                                set() | 1 << i
                            }
                        })
                        .collect(),
                    deviated: true,
                    coterie: if settled { others } else { set() },
                    stable_len: 2,
                    first_window: false,
                    thm4_alive: 0b11,
                }
            })
            .collect()
    };
    let mut next = 0;
    b.bench("check/canonicalize_n6", || {
        next = (next + 1) % states.len();
        black_box(&states[next]).canonicalize(ProcessId(0))
    });
    let root_cfg = {
        let mut c = ftss_check::GraphConfig::fixpoint(6, 7);
        c.rounds = Some(1);
        c
    };
    b.bench("check/expand_n6", || {
        ftss_check::explore_graph(black_box(&root_cfg)).unwrap()
    });

    // The sweep executor on a small E1 grid, serial vs. 4 workers. On a
    // multi-core host the jobs4 row should be faster; on a 1-core runner
    // the rows only document the (small) scheduling overhead. Output is
    // byte-identical either way — that is tested, not benched.
    b.bench("sweep/serial_vs_par/e1_small_jobs1", || e1_table(2, 8, 1));
    b.bench("sweep/serial_vs_par/e1_small_jobs4", || e1_table(2, 8, 4));

    b.finish();
    let report = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_micro.json".to_string());
    b.write_json(&report).expect("write bench report");
    println!("\nwrote {report}");
}
