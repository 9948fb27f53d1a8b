//! `loadgen-floodset-uds-n16` — client traffic into a served Σ⁺.
//!
//! One repetition is `run_loadgen` over Unix-domain sockets: compiled
//! FloodSet at n = 16 for 2000 rounds with a lock-step client (up to 4
//! requests per round, 8-round timeout). The same wire, framing and
//! session layers as `serve-ra-tcp-n64` with a quarter of the threads
//! and frames: 32 frames and ~26 KB per round, `CompiledState` and
//! `CompiledMsg` shapes instead of bare counters, so per-frame encode
//! and parse weigh more and wake-ups less. Also the only path through
//! `loadgen`, `TimerWheel` and `TraceCursor`.

use super::wire_ladder;
use crate::harness::{Layers, Measured, Rep, RepTrace, Workload};
use crate::stats::{mix, Digest};
use crate::trace::{SpanId, Tracer};
use ftss::compiler::Compiled;
use ftss::protocols::FloodSet;
use ftss::sync_sim::{NoFaults, RunConfig, RunOutcome, SyncProtocol, SyncRunner};
use ftss_serve::{run_loadgen, LoadReport, LoadgenConfig, TransportKind};
use std::time::{Duration, Instant};

const N: usize = 16;
const ROUNDS: usize = 2000;
const SMOKE_ROUNDS: usize = 400;
const PREFIX_ROUNDS: usize = 200;
const CORPUS_ROUNDS: usize = 64;
const CORPUS_PASSES: usize = 2;

pub struct Loadgen {
    rounds: usize,
}

pub fn setup(seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    // Same seed, same report on `mem` and on the socket — the transport
    // name is the only field allowed to differ.
    let s = mix(seed, 0x5e7);
    let (mem, _) = load(s, PREFIX_ROUNDS, TransportKind::Mem)?;
    let (uds, _) = load(s, PREFIX_ROUNDS, TransportKind::Uds)?;
    if digest(&mem) != digest(&uds) {
        return Err(format!(
            "loadgen reports differ between mem and uds:\n{}{}",
            mem.to_json(),
            uds.to_json()
        ));
    }
    Ok(Box::new(Loadgen {
        rounds: if smoke { SMOKE_ROUNDS } else { ROUNDS },
    }))
}

fn load(
    seed: u64,
    rounds: usize,
    transport: TransportKind,
) -> Result<(LoadReport, Duration), String> {
    let cfg = LoadgenConfig::new(transport, N, rounds, seed);
    let started = Instant::now();
    let report = run_loadgen(&cfg)?;
    Ok((report, started.elapsed()))
}

/// The report's bytes with the transport name taken out.
fn digest(report: &LoadReport) -> u64 {
    let json = report.to_json().replace(report.transport, "");
    Digest::default().bytes(json.as_bytes()).get()
}

type Protocol = Compiled<FloodSet>;
type SimOutcome = RunOutcome<<Protocol as SyncProtocol>::State, <Protocol as SyncProtocol>::Msg>;

/// `run_loadgen`'s protocol and `RunConfig` on the simulator.
fn simulate(seed: u64, rounds: usize) -> Result<(SimOutcome, Duration), String> {
    let inputs: Vec<u64> = (0..N as u64).map(|i| (i * 7 + 3) % 50).collect();
    let protocol = Compiled::new(FloodSet::new(1, inputs));
    let started = Instant::now();
    let out = SyncRunner::new(protocol)
        .run(&mut NoFaults, &RunConfig::corrupted(N, rounds, seed))
        .map_err(|e| format!("loadgen reference run: {e}"))?;
    Ok((out, started.elapsed()))
}

impl Workload for Loadgen {
    fn rep(&mut self, seed: u64, trace: Option<RepTrace<'_>>) -> Result<Rep, String> {
        // `run_loadgen` exposes no per-round observer: a traced
        // repetition is the repetition span alone.
        let _ = trace;
        let (report, wall) = load(seed, self.rounds, TransportKind::Uds)?;
        // Requests still in flight at the horizon neither completed nor
        // ran out their timeout; they count on neither side.
        let (mut ops, mut failed) = (report.completed, report.timed_out);
        let accounted = report.completed + report.timed_out + report.in_flight;
        if accounted != report.requests || report.decisions == 0 {
            eprintln!(
                "loadgen-floodset-uds-n16: inconsistent report {}",
                report.to_json()
            );
            (ops, failed) = (0, report.requests.max(1));
        }
        Ok(Rep {
            ops,
            failed,
            wall,
            digest: digest(&report),
        })
    }

    fn ladder(
        &mut self,
        seed: u64,
        measured: &Measured,
        tracer: &mut Tracer,
        parent: SpanId,
        out: &mut Layers,
    ) -> Result<(), String> {
        let rounds = self.rounds;
        let (corpus_run, _) = simulate(mix(seed, 0), CORPUS_ROUNDS)?;
        let costs = wire_ladder::codec_and_framing(
            &corpus_run.history,
            CORPUS_PASSES,
            tracer,
            parent,
            out,
        )?;

        let (sim, _) = tracer.time(parent, "serve.sim_equiv", rounds as u64, || {
            simulate(mix(seed, 0), rounds)
        });
        let (_, sim_wall) = sim?;
        let session_round_us = measured.rep_wall_s * 1e6 / rounds as f64;
        wire_ladder::transports_and_residual(
            TransportKind::Uds,
            session_round_us,
            sim_wall.as_secs_f64() * 1e6 / rounds as f64,
            &costs,
            tracer,
            parent,
            out,
        )?;

        let (mem, _) = tracer.time(parent, "serve.session.mem", rounds as u64, || {
            load(mix(seed, 0), rounds, TransportKind::Mem)
        });
        let (mem_report, mem_wall) = mem?;
        out.set(
            "serve.mem_vs_socket_ratio",
            mem_wall.as_secs_f64() / measured.rep_wall_s,
        );

        out.set("serve.reconnects", mem_report.reconnects as f64);
        out.set("serve.stale_dropped", mem_report.stale_dropped as f64);
        out.set("serve.loadgen_requests", mem_report.requests as f64);
        out.set("serve.loadgen_completed", mem_report.completed as f64);
        out.set("serve.loadgen_timed_out", mem_report.timed_out as f64);
        out.set(
            "serve.loadgen_p50_rounds",
            mem_report.latency.quantile(50, 100) as f64,
        );
        out.set(
            "serve.loadgen_p99_rounds",
            mem_report.latency.quantile(99, 100) as f64,
        );
        Ok(())
    }
}
