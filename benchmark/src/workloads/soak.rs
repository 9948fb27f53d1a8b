//! `soak-default` — the chaos soak engine.
//!
//! One repetition is `run_soak` of the default plan at 600 epochs,
//! serial, default budgets: two round-agreement cells, two compiled
//! FloodSet cells and two ◇S-detector cells, each verified epoch by
//! epoch. (600 epochs stays under the 5 M-event budget, which trips near
//! epoch 694 — do not raise it.) This is the only path through
//! `async-sim`, `detectors` and `compiler::trace_events`; the serve
//! stack is idle.

use crate::harness::{Layers, Measured, Rep, RepTrace, Workload};
use crate::stats::{mix, residual_share, Digest};
use crate::trace::{SpanId, Tracer};
use ftss::async_sim::{AsyncConfig, AsyncRunner, Time};
use ftss::compiler::{trace_events, Compiled};
use ftss::core::{saturating_round_index, Corrupt, ProcessId};
use ftss::detectors::{StrongDetectorProcess, SuspectProbe, WeakOracle};
use ftss::protocols::{FloodSet, RoundAgreement};
use ftss::sync_sim::{RunConfig, RunOutcome, StormAdversary, SyncProtocol, SyncRunner};
use ftss_chaos::{
    burst_seed, run_soak, storm_cycle, storm_program_for, EpochVerdict, SoakBudget, SoakCell,
    SoakConfig, SoakPlan, SoakScenario, StormGeometry,
};
use std::hint::black_box;
use std::time::Instant;

const EPOCHS: usize = 600;
const SMOKE_EPOCHS: usize = 60;
const WARMUP_EPOCHS: usize = 100;

// The detector cell's constants, private to `ftss_chaos::engine`.
const EPOCH_TIME: Time = 6_000;
const PROBE_EVERY: Time = 200;
const HEARTBEAT: Time = 20;

pub struct Soak {
    epochs: usize,
}

pub fn setup(seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    let warm = soak(mix(seed, 0x5e7), WARMUP_EPOCHS)?;
    if warm.failed > 0 {
        return Err("soak warm-up had unrecovered epochs".into());
    }
    Ok(Box::new(Soak {
        epochs: if smoke { SMOKE_EPOCHS } else { EPOCHS },
    }))
}

fn soak(seed: u64, epochs: usize) -> Result<Rep, String> {
    let cfg = SoakConfig {
        plan: SoakPlan::default_plan(epochs, seed),
        jobs: 1,
        budget: SoakBudget::default(),
    };
    let started = Instant::now();
    let outcome = run_soak(&cfg)?;
    let wall = started.elapsed();
    // Every planned epoch is an operation; one that was never reached
    // (budget trip, panic) fails just like one that did not recover.
    let planned = (outcome.cells.len() * epochs) as u64;
    let recovered: usize = outcome
        .cells
        .iter()
        .map(|c| {
            let ok = |e: &&EpochVerdict| matches!(e, EpochVerdict::Recovered { .. });
            c.epochs.iter().filter(ok).count()
        })
        .sum();
    let failed = planned - recovered as u64;
    if failed > 0 {
        eprintln!("soak-default:\n{}", outcome.summary());
    }
    Ok(Rep {
        ops: recovered as u64,
        failed,
        wall,
        digest: Digest::default().bytes(outcome.report().as_bytes()).get(),
    })
}

/// The synchronous run a soak cell drives: the cell's storm program over
/// one long execution (`ftss_chaos::engine::run_sync_cell`, minus the
/// per-epoch verification).
fn cell_run<P>(
    cell: &SoakCell,
    geom: &StormGeometry,
    victims: &[ProcessId],
    protocol: P,
) -> Result<RunOutcome<P::State, P::Msg>, String>
where
    P: SyncProtocol,
    P::State: Corrupt,
{
    let (schedule, phases) =
        storm_program_for(cell.seed, cell.epochs, &storm_cycle(false), geom, victims);
    let mut adv = StormAdversary::new(victims.iter().copied(), phases, cell.seed ^ 0x517a);
    let total = geom.epoch_len as usize * cell.epochs;
    let cfg = RunConfig::corrupted(cell.n, total, burst_seed(cell.seed, 0))
        .with_mid_run_corruption(schedule);
    SyncRunner::new(protocol)
        .run(&mut adv, &cfg)
        .map_err(|e| format!("soak cell run: {e}"))
}

/// The detector cell's asynchronous run (`engine::run_detector`, default
/// intensity), returning the events it dispatched.
fn detector_run(cell: &SoakCell) -> Result<u64, String> {
    let n = cell.n;
    let crash_at = if cell.epochs >= 2 {
        EPOCH_TIME + 500
    } else {
        500
    };
    let crashes = vec![(ProcessId(n - 1), crash_at)];
    let oracle = WeakOracle::new(n, crashes.clone(), 0, cell.seed, 0.0);
    let procs: Vec<StrongDetectorProcess> = (0..n)
        .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), HEARTBEAT))
        .collect();
    let mut cfg = AsyncConfig::tame(cell.seed);
    cfg.crashes = crashes;
    let mut runner = AsyncRunner::new(procs, cfg).map_err(|e| format!("detector cell: {e}"))?;
    for e in 0..cell.epochs as u64 {
        runner.schedule_corruption((e * EPOCH_TIME).max(1), burst_seed(cell.seed, e));
    }
    let mut probes = Vec::new();
    for e in 0..cell.epochs as u64 {
        runner.run_probed((e + 1) * EPOCH_TIME, PROBE_EVERY, |t, ps| {
            probes.push(SuspectProbe::sample(t, ps));
        });
    }
    black_box(&probes);
    let st = runner.stats();
    Ok(st.messages_delivered + st.messages_to_crashed + st.timers_fired)
}

impl Workload for Soak {
    fn rep(&mut self, seed: u64, trace: Option<RepTrace<'_>>) -> Result<Rep, String> {
        // `run_soak` exposes no per-epoch observer: a traced repetition
        // is the repetition span alone.
        let _ = trace;
        soak(seed, self.epochs)
    }

    fn ladder(
        &mut self,
        seed: u64,
        measured: &Measured,
        tracer: &mut Tracer,
        parent: SpanId,
        out: &mut Layers,
    ) -> Result<(), String> {
        out.set(
            "chaos.ms_per_epoch",
            measured.rep_wall_s * 1e3 / measured.rep_ops,
        );

        // Replay the first cell of each scenario of repetition 0's plan;
        // the plan's second variant differs only in its seed, so each
        // timing stands for two cells.
        let cells = SoakPlan::default_plan(self.epochs, mix(seed, 0)).cells();
        let first = |scenario: SoakScenario| {
            cells
                .iter()
                .find(|c| c.scenario == scenario)
                .ok_or(format!("default plan has no {} cell", scenario.name()))
        };

        let ra = first(SoakScenario::RoundAgreement)?;
        let ra_geom = StormGeometry::engine_default();
        let ra_rounds = ra_geom.epoch_len * ra.epochs as u64;
        let (run, ra_ns) = tracer.time(parent, "sync-sim.runner_n6", ra_rounds, || {
            cell_run(ra, &ra_geom, &[ProcessId(0), ProcessId(1)], RoundAgreement)
        });
        black_box(run?);
        out.set(
            "sync-sim.runner_round_us_n6",
            ra_ns / 1e3 / ra_rounds as f64,
        );

        let compiled = first(SoakScenario::Compiled)?;
        let inputs: Vec<u64> = (0..compiled.n as u64)
            .map(|i| (i * 17 + compiled.seed) % 100)
            .collect();
        let pi = Compiled::new(FloodSet::new(1, inputs));
        let bound = 2 * saturating_round_index(pi.final_round()) + 2;
        let geom = StormGeometry {
            storm_len: 3,
            epoch_len: bound as u64 + 9,
        };
        let rounds = geom.epoch_len * compiled.epochs as u64;
        let (run, compiled_ns) = tracer.time(parent, "sync-sim.runner_compiled", rounds, || {
            cell_run(compiled, &geom, &[ProcessId(0)], pi)
        });
        let run = run?;
        let (events, trace_ns) = tracer.time(parent, "compiler.trace_events", rounds, || {
            trace_events(&run.history).len()
        });
        black_box(events);
        out.set("compiler.trace_events_ms", trace_ns / 1e6);

        let detector = first(SoakScenario::Detector)?;
        let (events, async_ns) =
            tracer.time(parent, "async-sim.detector", 1, || detector_run(detector));
        let events = events?;
        out.set("async-sim.events", events as f64);
        out.set("async-sim.events_per_s", events as f64 / (async_ns / 1e9));

        let per_variant_ns = measured.rep_wall_s * 1e9 / 2.0;
        out.set(
            "chaos.unattributed_share",
            residual_share(per_variant_ns, &[async_ns, ra_ns + compiled_ns, trace_ns]),
        );
        Ok(())
    }
}
