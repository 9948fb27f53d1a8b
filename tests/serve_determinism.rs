//! The served execution IS the simulated execution.
//!
//! Pins the central claim of `ftss-serve` (ISSUE 7, satellite 3):
//!
//! * On the `mem` transport, a served session's telemetry stream is
//!   **byte-identical** to `SyncRunner::run_traced` — same events, same
//!   order, same JSONL bytes — and the final states match.
//! * On real sockets (`tcp`, `uds`), the stream is the same modulo the
//!   additional `net_*` events, and decisions/final states agree.
//! * The acceptance scenario: 3-node round agreement over real TCP
//!   survives a replayed partition+omission storm and re-stabilizes
//!   within the Thm-3 window bound after each storm, verified by
//!   `ftss_check::window_stabilization`.

use ftss::compiler::Compiled;
use ftss::core::{
    CrashSchedule, DeliveryOutcome, ProcessId, RateAgreementSpec, Round, RoundHistory, StormKind,
    StormPhase,
};
use ftss::protocols::{FloodSet, RoundAgreement};
use ftss::sync_sim::{
    Adversary, ByzantineAdversary, CorruptionSchedule, CrashOnly, RandomOmission, RunConfig,
    StormAdversary, SyncRunner,
};
use ftss::telemetry::{Event, RecordingSink};
use ftss_chaos::{restart_cycle, storm_cycle, EpochVerdict, StormGeometry, StormScenario};
use ftss_check::{window_stabilization, Fingerprinter};
use ftss_serve::{
    serve, serve_streaming_with_stats, Retry, ServeConfig, ServeRestart, ServeStats, SnapshotFault,
    TransportKind,
};

fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        e.write_jsonl(&mut out);
    }
    out
}

fn without_net(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .filter(|e| !e.kind().starts_with("net_"))
        .cloned()
        .collect()
}

fn omission_adversary() -> RandomOmission {
    RandomOmission::new([ProcessId(0), ProcessId(2)], 0.4, 9)
}

#[test]
fn mem_round_agreement_is_byte_identical_to_simulator() {
    let cfg = RunConfig::corrupted(4, 12, 7);
    let mut sim_sink = RecordingSink::new(1 << 16);
    let sim = SyncRunner::new(RoundAgreement)
        .run_traced(&mut omission_adversary(), &cfg, &mut sim_sink)
        .expect("simulator run");

    let mut serve_sink = RecordingSink::new(1 << 16);
    let served = serve(
        &RoundAgreement,
        &mut omission_adversary(),
        &ServeConfig::new(cfg, TransportKind::Mem),
        &mut serve_sink,
    )
    .expect("served run");

    let sim_events = sim_sink.take();
    let serve_events = serve_sink.take();
    assert_eq!(sim_events, serve_events, "event streams diverge");
    assert_eq!(
        jsonl(&sim_events),
        jsonl(&serve_events),
        "JSONL bytes diverge"
    );
    assert_eq!(sim.final_states, served.final_states);
    assert_eq!(sim.history.len(), served.history.len());
}

/// A zero-round session ends: `open` already collected round 1's
/// broadcasts, so `close` must not wait for another that no node will
/// send. Run under a deadline, so a regression fails instead of hanging.
#[test]
fn mem_zero_round_session_closes_like_the_simulator() {
    let cfg = RunConfig::corrupted(3, 0, 1);
    let mut sim_sink = RecordingSink::new(1 << 10);
    let sim = SyncRunner::new(RoundAgreement)
        .run_traced(&mut ftss::sync_sim::NoFaults, &cfg, &mut sim_sink)
        .expect("simulator run");

    let served_cfg = ServeConfig::new(cfg, TransportKind::Mem);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut sink = RecordingSink::new(1 << 10);
        let mut adversary = ftss::sync_sim::NoFaults;
        let served = serve(&RoundAgreement, &mut adversary, &served_cfg, &mut sink);
        let _ = tx.send((served.map(|out| out.final_states), sink.take()));
    });
    let (served, serve_events) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a zero-round session returns");
    assert_eq!(served.expect("served run"), sim.final_states);
    let sim_events = sim_sink.take();
    assert!(sim_events.iter().any(|e| e.kind() == "corruption"));
    assert_eq!(jsonl(&sim_events), jsonl(&serve_events));
}

#[test]
fn mem_compiled_floodset_is_byte_identical_to_simulator() {
    let inputs: Vec<u64> = (0..4).map(|i| (i * 7 + 3) % 50).collect();
    let cfg = RunConfig::corrupted(4, 10, 3);
    let crash = |_: ()| {
        let mut cs = CrashSchedule::none();
        cs.set(ProcessId(1), Round::new(4));
        CrashOnly::new(cs)
    };

    let mut sim_sink = RecordingSink::new(1 << 16);
    let sim = SyncRunner::new(Compiled::new(FloodSet::new(1, inputs.clone())))
        .run_traced(&mut crash(()), &cfg, &mut sim_sink)
        .expect("simulator run");

    let mut serve_sink = RecordingSink::new(1 << 16);
    let served = serve(
        &Compiled::new(FloodSet::new(1, inputs)),
        &mut crash(()),
        &ServeConfig::new(cfg, TransportKind::Mem),
        &mut serve_sink,
    )
    .expect("served run");

    assert_eq!(jsonl(&sim_sink.take()), jsonl(&serve_sink.take()));
    assert_eq!(sim.final_states, served.final_states);
}

fn byzantine_adversary() -> ByzantineAdversary {
    ByzantineAdversary::new([ProcessId(0)], 0.5, 11).with_drops(0.25)
}

fn forged_sends(events: &[Event]) -> usize {
    let forged = DeliveryOutcome::Forged;
    let is_forged = |e: &&Event| matches!(e, Event::Send { outcome, .. } if *outcome == forged);
    events.iter().filter(is_forged).count()
}

/// Forgery is served, not just simulated: the router consults
/// `forge_copy` through the same kernel as the simulator, and a forged
/// payload rides the ordinary inbox frame.
#[test]
fn mem_byzantine_round_agreement_is_byte_identical_to_simulator() {
    let cfg = RunConfig::corrupted(5, 12, 7);
    let mut sim_sink = RecordingSink::new(1 << 16);
    let sim = SyncRunner::new(RoundAgreement)
        .run_traced(&mut byzantine_adversary(), &cfg, &mut sim_sink)
        .expect("simulator run");

    let mut serve_sink = RecordingSink::new(1 << 16);
    let served = serve(
        &RoundAgreement,
        &mut byzantine_adversary(),
        &ServeConfig::new(cfg, TransportKind::Mem),
        &mut serve_sink,
    )
    .expect("served run");

    let sim_events = sim_sink.take();
    let serve_events = serve_sink.take();
    assert_eq!(
        forged_sends(&sim_events),
        20,
        "the scenario must forge, or the comparison is vacuous"
    );
    assert_eq!(sim_events, serve_events, "event streams diverge");
    assert_eq!(jsonl(&sim_events), jsonl(&serve_events));
    assert_eq!(sim.final_states, served.final_states);
    assert_eq!(sim.history.rounds(), served.history.rounds());
}

#[test]
fn real_sockets_serve_byzantine_forgery_modulo_net_events() {
    let run = |transport: TransportKind| {
        let mut sink = RecordingSink::new(1 << 16);
        let out = serve(
            &RoundAgreement,
            &mut byzantine_adversary(),
            &ServeConfig::new(RunConfig::corrupted(5, 12, 7), transport),
            &mut sink,
        )
        .expect("served run");
        (sink.take(), out.final_states)
    };
    let (mem_events, mem_final) = run(TransportKind::Mem);
    assert!(forged_sends(&mem_events) >= 1);
    let (tcp_events, tcp_final) = run(TransportKind::Tcp);
    assert_eq!(without_net(&tcp_events), mem_events);
    assert_eq!(tcp_final, mem_final);
    #[cfg(unix)]
    {
        let (uds_events, uds_final) = run(TransportKind::Uds);
        assert_eq!(without_net(&uds_events), mem_events);
        assert_eq!(uds_final, mem_final);
    }
}

#[test]
fn real_sockets_match_mem_modulo_net_events() {
    let run = |transport: TransportKind| {
        let cfg = RunConfig::corrupted(3, 8, 5);
        let mut sink = RecordingSink::new(1 << 16);
        let out = serve(
            &RoundAgreement,
            &mut omission_adversary(),
            &ServeConfig::new(cfg, transport),
            &mut sink,
        )
        .expect("served run");
        (sink.take(), out.final_states)
    };

    let (mem_events, mem_final) = run(TransportKind::Mem);
    assert!(
        mem_events.iter().all(|e| !e.kind().starts_with("net_")),
        "mem must emit no net_* events"
    );

    let (tcp_events, tcp_final) = run(TransportKind::Tcp);
    assert_eq!(without_net(&tcp_events), mem_events);
    assert_eq!(tcp_final, mem_final);
    assert!(
        tcp_events.iter().any(|e| e.kind() == "net_listen")
            && tcp_events.iter().any(|e| e.kind() == "net_frame")
            && tcp_events.iter().any(|e| e.kind() == "net_close"),
        "tcp must narrate its sockets"
    );

    #[cfg(unix)]
    {
        let (uds_events, uds_final) = run(TransportKind::Uds);
        assert_eq!(without_net(&uds_events), mem_events);
        assert_eq!(uds_final, mem_final);
    }
}

/// A Theorem-3 [`StormScenario`] (the engine's geometry, window bound 2)
/// against p0.
fn storm(seed: u64, epochs: usize, n: usize, cycle: [StormKind; 4]) -> StormScenario {
    let geom = StormGeometry::engine_default();
    StormScenario::new(seed, epochs, n, cycle, &[ProcessId(0)], geom, 2)
}

/// The ISSUE 7 acceptance scenario: 3 nodes over real TCP, a replayed
/// partition+omission storm program, per-epoch re-stabilization within
/// the Thm-3 window bound.
#[test]
fn tcp_storm_round_agreement_restabilizes_within_bound() {
    let mut sink = RecordingSink::new(1 << 16);
    let (_, judge) = storm(42, 2, 3, storm_cycle(false))
        .drive(
            RoundAgreement,
            Some(TransportKind::Tcp),
            &RateAgreementSpec::new(),
            None,
            &mut sink,
        )
        .expect("storm run over tcp");

    let events = sink.take();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::Corruption { round, .. } if *round > 1)),
        "the storm program must have fired a mid-run burst"
    );
    let verdicts = judge.verdicts();
    assert_eq!(verdicts.len(), 2);
    for (e, verdict) in verdicts.iter().enumerate() {
        assert!(
            matches!(verdict, EpochVerdict::Recovered { rounds } if *rounds <= 2),
            "epoch {e} did not re-stabilize inside the Thm-3 window bound: {verdict:?}"
        );
    }
}

/// `ftss-lab serve --storm default|worst-case|restart --transport mem
/// --epochs 4 --seed 1993` from the library: the session's own stream,
/// then the judge's `recovery_measured` lines. The default and restart
/// digests are of the files the CLI wrote at the commit before the
/// in-stream judge (PR 16's parent), which verified every epoch after the
/// run on the whole history; the worst-case one at PR 23's parent.
/// `crates/cli/tests/e2e.rs` holds the binary to the same three numbers.
#[test]
fn storm_streams_match_the_digests_recorded_before_the_in_stream_judge() {
    for (scenario, digest) in [
        (
            storm(1993, 4, 4, storm_cycle(false)),
            0x3c69_6cc4_fd28_1458_6f9f_c64e_d2cb_d998_u128,
        ),
        (
            storm(1993, 4, 4, storm_cycle(true)),
            0x47cc_bbe4_cd08_6ac8_552c_4731_db43_7aec,
        ),
        (
            storm(1993, 4, 3, restart_cycle()),
            0xab69_4747_c22b_a9e9_2bb1_a876_56ee_8321,
        ),
    ] {
        let mut sink = RecordingSink::new(1 << 16);
        let (_, judge) = scenario
            .drive(
                RoundAgreement,
                Some(TransportKind::Mem),
                &RateAgreementSpec::new(),
                None,
                &mut sink,
            )
            .expect("storm session");
        let mut stream = String::new();
        let verdict_lines = judge.closed().iter().map(|(line, _)| line);
        for event in sink.take().iter().chain(verdict_lines) {
            event.write_jsonl(&mut stream);
            stream.push('\n');
        }
        let got = Fingerprinter::new().fingerprint(stream.as_bytes());
        assert_eq!(got, digest, "got {got:#x}:\n{stream}");
    }
}

/// Every transport replays the same storm to the same history — the
/// stabilization verdicts transfer between simulator and sockets.
#[test]
fn storm_histories_agree_across_substrates() {
    let scenario = storm(11, 1, 3, storm_cycle(true));
    let run = |transport| {
        scenario
            .drive(
                RoundAgreement,
                transport,
                &RateAgreementSpec::new(),
                None,
                &mut ftss::telemetry::NullSink,
            )
            .expect("storm run")
    };
    let (sim, sim_judge) = run(None);
    let (tcp, tcp_judge) = run(Some(TransportKind::Tcp));
    assert_eq!(sim.final_states, tcp.final_states);
    assert_eq!(sim.history, tcp.history);
    assert_eq!(sim_judge.closed(), tcp_judge.closed());
    assert_eq!(sim_judge.closed().len(), 1);
}

/// Targeted corruption (a storm join's entry-state seam) replays on
/// the socket runtime byte-identical to the simulator.
#[test]
fn mem_targeted_corruption_is_byte_identical_to_simulator() {
    let schedule =
        CorruptionSchedule::none()
            .at(4, 21)
            .at_targeted(6, 99, [ProcessId(1), ProcessId(3)]);
    let cfg = RunConfig::corrupted(4, 12, 7).with_mid_run_corruption(schedule);

    let mut sim_sink = RecordingSink::new(1 << 16);
    let sim = SyncRunner::new(RoundAgreement)
        .run_traced(&mut omission_adversary(), &cfg, &mut sim_sink)
        .expect("simulator run");

    let mut serve_sink = RecordingSink::new(1 << 16);
    let served = serve(
        &RoundAgreement,
        &mut omission_adversary(),
        &ServeConfig::new(cfg, TransportKind::Mem),
        &mut serve_sink,
    )
    .expect("served run");

    assert_eq!(jsonl(&sim_sink.take()), jsonl(&serve_sink.take()));
    assert_eq!(sim.final_states, served.final_states);
}

/// The ISSUE 10 acceptance scenario: 3-node round agreement over real
/// TCP through a kill/respawn episode — p0 dies at round 4, its first
/// respawn attempts read damaged snapshots, the final attempt re-admits
/// it on clean stale bytes — and the session re-stabilizes within the
/// Thm-3 window bound measured from the heal round.
#[test]
fn tcp_restart_round_agreement_restabilizes_within_bound() {
    let restart = ServeRestart {
        p: ProcessId(0),
        kill_round: 4,
        gap: 2,
        staleness: 2,
        fault: SnapshotFault::Truncated,
        snapshot_seed: 0x5a97,
        retry: Retry {
            attempts: 3,
            backoff_rounds: 2,
        },
    };
    // p0 is declared faulty (the restart is a fault) but never omits.
    let mut adversary = RandomOmission::new([ProcessId(0)], 0.0, 13);
    let cfg = RunConfig::corrupted(3, 16, 3).with_max_faulty(1);
    let mut sink = RecordingSink::new(1 << 16);
    let mut stats = ServeStats::default();
    let out = serve_streaming_with_stats(
        &RoundAgreement,
        &mut adversary,
        &ServeConfig::new(cfg, TransportKind::Tcp).with_restart(restart),
        &mut sink,
        |_| {},
        &mut stats,
    )
    .expect("restart session over tcp");

    // Down rounds record no state for the victim — it is simply gone
    // from the kill until (at the earliest) the first respawn attempt.
    for r in restart.kill_round..restart.attempt_round(0) {
        assert!(out
            .history
            .round(Round::new(r))
            .record(ProcessId(0))
            .state_at_start()
            .is_none());
    }
    // The heal round: the first round at which the re-admitted p0 is
    // back in the history. Which attempt succeeds depends on how the
    // snapshot rng damaged the bytes, but the schedule guarantees
    // re-admission no later than the final attempt.
    let heal = (restart.kill_round..=16)
        .find(|&r| {
            out.history
                .round(Round::new(r))
                .record(ProcessId(0))
                .state_at_start()
                .is_some()
        })
        .expect("p0 must be re-admitted");
    assert!(heal <= restart.last_attempt_round());
    assert_eq!(stats.reconnects, 1, "exactly one successful re-admission");
    assert!(
        stats.stale_dropped >= 1,
        "the kill drains p0's in-flight broadcast as stale"
    );
    let events = sink.take();
    assert!(
        events.iter().any(|e| e.kind() == "net_stale_frame"),
        "tcp must narrate the stale frame drop"
    );
    // Re-stabilization within the Thm-3 window bound from the heal.
    let s = window_stabilization(
        &out.history,
        &RateAgreementSpec::new(),
        heal as usize,
        16,
        2,
    )
    .expect("restarted session re-stabilizes");
    assert!(s <= 2, "took {s} rounds, Thm-3 window bound is 2");
    assert!(
        out.final_states[0].is_some(),
        "the restarted node finishes the run"
    );
}

/// Restart sessions are deterministic: byte-identical across reruns on
/// `mem`, and identical modulo `net_*` narration on real sockets. The
/// snapshot-damage rng is seeded from the episode alone, so the whole
/// kill/retry/re-admit trajectory replays exactly.
#[test]
fn restart_sessions_are_deterministic_across_transports() {
    let run = |transport: TransportKind| {
        let restart = ServeRestart {
            p: ProcessId(1),
            kill_round: 3,
            gap: 1,
            staleness: 1,
            fault: SnapshotFault::BitFlip,
            snapshot_seed: 0xbeef,
            retry: Retry {
                attempts: 2,
                backoff_rounds: 3,
            },
        };
        let mut adversary = RandomOmission::new([ProcessId(1)], 0.0, 11);
        let cfg = RunConfig::corrupted(3, 12, 5).with_max_faulty(1);
        let mut sink = RecordingSink::new(1 << 16);
        let mut stats = ServeStats::default();
        let out = serve_streaming_with_stats(
            &RoundAgreement,
            &mut adversary,
            &ServeConfig::new(cfg, transport).with_restart(restart),
            &mut sink,
            |_| {},
            &mut stats,
        )
        .expect("restart session");
        (sink.take(), out.final_states, stats)
    };

    let (mem_a, final_a, stats_a) = run(TransportKind::Mem);
    let (mem_b, final_b, stats_b) = run(TransportKind::Mem);
    assert_eq!(jsonl(&mem_a), jsonl(&mem_b), "mem reruns diverge");
    assert_eq!(final_a, final_b);
    assert_eq!(stats_a, stats_b);
    assert!(
        mem_a.iter().all(|e| !e.kind().starts_with("net_")),
        "mem must emit no net_* events"
    );

    let (tcp_events, tcp_final, tcp_stats) = run(TransportKind::Tcp);
    assert_eq!(without_net(&tcp_events), mem_a);
    assert_eq!(tcp_final, final_a);
    // The ServeStats counters are transport-independent even though the
    // net_* narration is not.
    assert_eq!(tcp_stats, stats_a);
    // The mid-session re-entry shows up as connections: n connects at
    // session start plus one per re-admission; one close at the kill plus
    // one per node still connected at the end.
    assert_eq!(tcp_stats.reconnects, 1, "the respawn re-admits p1");
    let count = |kind: &str| tcp_events.iter().filter(|e| e.kind() == kind).count();
    let finishing = tcp_final.iter().filter(|s| s.is_some()).count();
    assert_eq!(count("net_connect"), 3 + tcp_stats.reconnects as usize);
    assert_eq!(count("net_close"), 1 + finishing);
    assert_eq!((count("net_connect"), count("net_close")), (4, 4));
}

/// How many of `events` are `send`s with `outcome`.
fn outcome_count(events: &[Event], want: DeliveryOutcome) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, Event::Send { outcome, .. } if *outcome == want))
        .count()
}

/// Timing storms of a [`StormAdversary`]: delay, duplicate and reorder
/// phases are deterministic across reruns and across transports, a `mem`
/// session equals the simulator, and the late copies deviate nobody — the
/// run still converges.
#[test]
fn timing_storm_sessions_are_deterministic_across_transports() {
    let phases = [
        StormPhase::new(2, 4, StormKind::Delay { rounds: 2 }),
        StormPhase::new(6, 7, StormKind::Duplicate),
        StormPhase::new(9, 10, StormKind::Reorder),
    ];
    let storm = || StormAdversary::new([ProcessId(0)], phases, 0x517a);
    let cfg = RunConfig::corrupted(3, 14, 9).with_max_faulty(1);
    let run = |transport: TransportKind| {
        let mut sink = RecordingSink::new(1 << 16);
        let served = ServeConfig::new(cfg.clone(), transport);
        let out = serve(&RoundAgreement, &mut storm(), &served, &mut sink).expect("timing session");
        (sink.take(), out.final_states)
    };

    let (mem_a, final_a) = run(TransportKind::Mem);
    let (mem_b, final_b) = run(TransportKind::Mem);
    assert_eq!(jsonl(&mem_a), jsonl(&mem_b), "mem reruns diverge");
    assert_eq!(final_a, final_b);
    assert!(
        outcome_count(&mem_a, DeliveryOutcome::Delayed) > 0,
        "the delay/reorder windows must defer some copies"
    );
    assert!(
        outcome_count(&mem_a, DeliveryOutcome::Duplicated) > 0,
        "the duplicate window must echo some copies"
    );
    assert!(final_a.iter().all(Option::is_some));

    let mut sink = RecordingSink::new(1 << 16);
    let sim = SyncRunner::new(RoundAgreement)
        .run_traced(&mut storm(), &cfg, &mut sink)
        .expect("simulated timing run");
    assert_eq!(jsonl(&sink.take()), jsonl(&mem_a), "mem vs simulator");
    assert_eq!(sim.final_states, final_a);

    let (tcp_events, tcp_final) = run(TransportKind::Tcp);
    assert_eq!(without_net(&tcp_events), mem_a);
    assert_eq!(tcp_final, final_a);
    #[cfg(unix)]
    {
        let (uds_events, uds_final) = run(TransportKind::Uds);
        assert_eq!(without_net(&uds_events), mem_a);
        assert_eq!(uds_final, final_a);
    }
}

/// The restart cycle without its restart episode: the timing storms
/// render on the simulator exactly as on a `mem` session — the same
/// trace bytes, history, final states and judge lines.
#[test]
fn restart_cycle_timing_storms_match_between_simulator_and_mem() {
    let mut scenario = storm(1993, 4, 3, restart_cycle());
    scenario.restart = None;
    let run = |transport| {
        let mut sink = RecordingSink::new(1 << 16);
        let (out, judge) = scenario
            .drive(
                RoundAgreement,
                transport,
                &RateAgreementSpec::new(),
                None,
                &mut sink,
            )
            .expect("timing storm run");
        (sink.take(), out, judge)
    };
    let (sim_events, sim, sim_judge) = run(None);
    let (mem_events, mem, mem_judge) = run(Some(TransportKind::Mem));
    assert_eq!(jsonl(&sim_events), jsonl(&mem_events));
    assert!(outcome_count(&sim_events, DeliveryOutcome::Delayed) > 0);
    assert!(outcome_count(&sim_events, DeliveryOutcome::Duplicated) > 0);
    let late_arrivals = |frame: &RoundHistory<_, _>| {
        let to = |p| frame.msgs().deliveries(ProcessId(p)).late().count();
        (0..frame.n()).map(to).sum::<usize>()
    };
    let held: Vec<usize> = sim.history.rounds().iter().map(late_arrivals).collect();
    assert!(
        held.iter().any(|&k| k > 0),
        "late arrivals per round: {held:?}"
    );
    assert_eq!(sim.history, mem.history);
    assert_eq!(sim.final_states, mem.final_states);
    assert_eq!(sim_judge.closed(), mem_judge.closed());
    assert_eq!(sim_judge.closed().len(), 4);
}

/// An untraced served session walks sparse: the copies between ordinary
/// processes are one clean block in every round's frame.
#[test]
fn untraced_served_sessions_record_a_clean_block_every_round() {
    let phases = [StormPhase::new(2, 3, StormKind::Duplicate)];
    let storm = || StormAdversary::new([ProcessId(0)], phases, 7);
    let run = RunConfig::corrupted(4, 6, 3).with_max_faulty(1);
    let cfg = ServeConfig::new(run, TransportKind::Mem);
    let out = serve(
        &RoundAgreement,
        &mut storm(),
        &cfg,
        &mut ftss::telemetry::NullSink,
    )
    .expect("untraced session");
    assert_eq!(out.history.len(), 6);
    for (i, frame) in out.history.rounds().iter().enumerate() {
        assert!(!frame.msgs().block_srcs().is_empty(), "round {}", i + 1);
    }
    // A trace watches every copy, and the frames keep the same block.
    let mut sink = RecordingSink::new(1 << 12);
    let traced = serve(&RoundAgreement, &mut storm(), &cfg, &mut sink).expect("traced session");
    let blocks = |frames: &[RoundHistory<_, _>]| -> Vec<_> {
        let block = |frame: &RoundHistory<_, _>| frame.msgs().block_srcs().clone();
        frames.iter().map(block).collect()
    };
    assert_eq!(
        blocks(traced.history.rounds()),
        blocks(out.history.rounds())
    );
    assert!(sink.events().any(|e| matches!(e, Event::Send { .. })));
}

/// Restart configuration is validated like everything else.
#[test]
fn restart_rejects_invalid_episodes() {
    let ok = ServeRestart {
        p: ProcessId(1),
        kill_round: 4,
        gap: 2,
        staleness: 2,
        fault: SnapshotFault::Stale,
        snapshot_seed: 0,
        retry: Retry {
            attempts: 2,
            backoff_rounds: 2,
        },
    };
    let attempt = |restart: ServeRestart, faulty: &[ProcessId]| {
        serve(
            &RoundAgreement,
            &mut RandomOmission::new(faulty.iter().copied(), 0.0, 1),
            &ServeConfig::new(
                RunConfig::clean(3, 12).with_max_faulty(2),
                TransportKind::Mem,
            )
            .with_restart(restart),
            &mut ftss::telemetry::NullSink,
        )
        .unwrap_err()
    };
    // Restart outside the declared faulty set is not a legal move.
    assert!(attempt(ok, &[ProcessId(0)]).contains("outside the declared faulty set"));
    // The kill must leave room for a pre-kill snapshot round.
    assert!(attempt(
        ServeRestart {
            kill_round: 1,
            staleness: 1,
            ..ok
        },
        &[ProcessId(1)]
    )
    .contains("restart needs"));
    assert!(
        attempt(ServeRestart { staleness: 4, ..ok }, &[ProcessId(1)]).contains("restart needs")
    );
    // Every scheduled attempt must land inside the horizon.
    assert!(attempt(
        ServeRestart {
            retry: Retry {
                attempts: 20,
                backoff_rounds: 2
            },
            ..ok
        },
        &[ProcessId(1)]
    )
    .contains("past the horizon"));
}

/// Serve inherits the simulator's configuration validation verbatim.
#[test]
fn serve_rejects_invalid_configs_with_simulator_messages() {
    let err = serve(
        &RoundAgreement,
        &mut ftss::sync_sim::NoFaults,
        &ServeConfig::new(RunConfig::clean(0, 4), TransportKind::Mem),
        &mut ftss::telemetry::NullSink,
    )
    .unwrap_err();
    assert_eq!(err, "n must be at least 1");

    let mut storm = StormAdversary::new([ProcessId(0), ProcessId(1)], [], 1);
    let _ = &mut storm as &mut dyn Adversary;
    let err = serve(
        &RoundAgreement,
        &mut storm,
        &ServeConfig::new(
            RunConfig::clean(4, 4).with_max_faulty(1),
            TransportKind::Mem,
        ),
        &mut ftss::telemetry::NullSink,
    )
    .unwrap_err();
    assert_eq!(err, "adversary declares 2 faulty processes but f = 1");
}
