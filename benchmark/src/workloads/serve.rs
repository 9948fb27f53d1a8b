//! `serve-ra-tcp-n64` — a served session over loopback TCP.
//!
//! One repetition is one `serve_streaming` session of round agreement:
//! 64 node threads, 500 lock-step rounds, corrupted start plus a
//! systemic failure every 250 rounds, one random omitter, window 8,
//! `NullSink`. Closed loop: the round barrier is the only pacing, no
//! delay is injected, so latency is processor and kernel time. Each
//! round moves 64 `bcast` frames of ~70 B up and 64 `inbox` frames of
//! ~2.5 KB down (64 corrupted 20-digit counters each): the barrier, 128
//! thread wake-ups and syscalls, and 64 inbox decodes on the node
//! threads. Final states are compared with `SyncRunner::run` of the same
//! configuration after the timer stops.

use super::wire_ladder;
use crate::harness::{Layers, Measured, Rep, RepTrace, Workload};
use crate::stats::{highest_supported_percentile, mix, percentile, Digest};
use crate::trace::{SpanId, Tracer};
use ftss::core::ProcessId;
use ftss::protocols::{RoundAgreement, RoundAgreementState};
use ftss::sync_sim::{CorruptionSchedule, RandomOmission, RunConfig, RunOutcome, SyncRunner};
use ftss::telemetry::{JsonlSink, NullSink};
use ftss_serve::{serve_streaming_with_stats, ServeConfig, ServeStats, TransportKind, Wire};
use std::time::{Duration, Instant};

const N: usize = 64;
const WINDOW: usize = 8;
const ROUNDS: usize = 500;
const SMOKE_ROUNDS: usize = 200;
/// Rounds of the set-up check that `mem`, the socket and the simulator
/// agree.
const PREFIX_ROUNDS: usize = 200;
const CORRUPT_EVERY: usize = 250;
const CORPUS_ROUNDS: usize = 64;
const CORPUS_PASSES: usize = 8;
const JSONL_ROUNDS: usize = 300;

type Outcome = RunOutcome<RoundAgreementState, u64>;

pub struct Serve {
    rounds: usize,
    stats: ServeStats,
    /// Wall time between consecutive `on_round` callbacks of the traced
    /// repetitions, milliseconds.
    gaps_ms: Vec<f64>,
}

pub fn setup(seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    // Same seed, same final states: simulator, mem transport, socket.
    let s = mix(seed, 0x5e7);
    let reference = digest(&simulate(s, PREFIX_ROUNDS, Some(WINDOW))?.0);
    for transport in [TransportKind::Mem, TransportKind::Tcp] {
        let (out, _, _) = session(s, PREFIX_ROUNDS, transport, None)?;
        if digest(&out) != reference {
            return Err(format!(
                "{} session diverged from the simulator on the {PREFIX_ROUNDS}-round prefix",
                transport.name()
            ));
        }
    }
    Ok(Box::new(Serve {
        rounds: if smoke { SMOKE_ROUNDS } else { ROUNDS },
        stats: ServeStats::default(),
        gaps_ms: Vec::new(),
    }))
}

fn inputs(seed: u64, rounds: usize, window: Option<usize>) -> (RunConfig, RandomOmission) {
    let mut schedule = CorruptionSchedule::none();
    for r in (CORRUPT_EVERY..rounds).step_by(CORRUPT_EVERY) {
        schedule = schedule.at(r as u64, mix(seed, 0x10 + r as u64));
    }
    let mut cfg = RunConfig::corrupted(N, rounds, mix(seed, 1)).with_mid_run_corruption(schedule);
    if let Some(w) = window {
        cfg = cfg.with_history_window(w);
    }
    (cfg, RandomOmission::new([ProcessId(0)], 0.5, mix(seed, 2)))
}

/// The session's `RunConfig` on the simulator: what the served final
/// states must equal, and the protocol + adversary + history work the
/// router does inside every round.
fn simulate(
    seed: u64,
    rounds: usize,
    window: Option<usize>,
) -> Result<(Outcome, Duration), String> {
    let (cfg, mut adv) = inputs(seed, rounds, window);
    let started = Instant::now();
    let out = SyncRunner::new(RoundAgreement)
        .run(&mut adv, &cfg)
        .map_err(|e| format!("reference run: {e}"))?;
    Ok((out, started.elapsed()))
}

fn session(
    seed: u64,
    rounds: usize,
    transport: TransportKind,
    mut on_round: Option<&mut dyn FnMut()>,
) -> Result<(Outcome, ServeStats, Duration), String> {
    let (run, mut adv) = inputs(seed, rounds, Some(WINDOW));
    let cfg = ServeConfig::new(run, transport);
    let mut stats = ServeStats::default();
    let started = Instant::now();
    let out = serve_streaming_with_stats(
        &RoundAgreement,
        &mut adv,
        &cfg,
        &mut NullSink,
        |_| {
            if let Some(f) = on_round.as_mut() {
                f();
            }
        },
        &mut stats,
    )?;
    Ok((out, stats, started.elapsed()))
}

fn digest(out: &Outcome) -> u64 {
    let mut d = Digest::default();
    let mut text = String::new();
    for s in &out.final_states {
        text.clear();
        if let Some(s) = s {
            s.encode(&mut text);
        }
        d = d.bytes(text.as_bytes());
    }
    d.get()
}

impl Workload for Serve {
    fn rep(&mut self, seed: u64, trace: Option<RepTrace<'_>>) -> Result<Rep, String> {
        let rounds = self.rounds;
        let (out, stats, wall) = match trace {
            None => session(seed, rounds, TransportKind::Tcp, None)?,
            Some(tr) => {
                let mut last = tr.tracer.now_ns();
                let gaps = &mut self.gaps_ms;
                let mut on_round = || {
                    let now = tr.tracer.now_ns();
                    tr.tracer.record(tr.parent, "round", tr.rep, last, now, 1);
                    gaps.push((now - last) as f64 / 1e6);
                    last = now;
                };
                session(seed, rounds, TransportKind::Tcp, Some(&mut on_round))?
            }
        };
        self.stats = stats;
        let served = digest(&out);
        let mut failed = 0;
        if served != digest(&simulate(seed, rounds, Some(WINDOW))?.0) {
            eprintln!("serve-ra-tcp-n64: served final states differ from the simulator's");
            failed = rounds as u64;
        }
        if stats != ServeStats::default() {
            eprintln!("serve-ra-tcp-n64: fault-free session reported {stats:?}");
            failed = rounds as u64;
        }
        Ok(Rep {
            ops: rounds as u64 - failed,
            failed,
            wall,
            digest: served,
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
        let (corpus_run, _) = simulate(mix(seed, 0), CORPUS_ROUNDS, None)?;
        let costs = wire_ladder::codec_and_framing(
            &corpus_run.history,
            CORPUS_PASSES,
            tracer,
            parent,
            out,
        )?;

        let (sim, _) = tracer.time(parent, "serve.sim_equiv", rounds as u64, || {
            simulate(mix(seed, 0), rounds, Some(WINDOW))
        });
        let (sim_out, sim_wall) = sim?;
        let session_round_us = measured.rep_wall_s * 1e6 / rounds as f64;
        wire_ladder::transports_and_residual(
            TransportKind::Tcp,
            session_round_us,
            sim_wall.as_secs_f64() * 1e6 / rounds as f64,
            &costs,
            tracer,
            parent,
            out,
        )?;

        // The same session without the kernel: what the socket costs.
        let (mem, _) = tracer.time(parent, "serve.session.mem", rounds as u64, || {
            session(mix(seed, 0), rounds, TransportKind::Mem, None)
        });
        let (mem_out, _, mem_wall) = mem?;
        if digest(&mem_out) != digest(&sim_out) {
            return Err("mem session diverged from the simulator".into());
        }
        out.set(
            "serve.mem_vs_socket_ratio",
            mem_wall.as_secs_f64() / measured.rep_wall_s,
        );

        let gaps = &mut self.gaps_ms;
        gaps.sort_by(f64::total_cmp);
        let supported = highest_supported_percentile(gaps.len(), &[50.0, 90.0, 99.0]);
        for (pct, name) in [
            (50.0, "serve.round_ms_p50"),
            (90.0, "serve.round_ms_p90"),
            (99.0, "serve.round_ms_p99"),
        ] {
            // A percentile without ten samples beyond it stays 0.
            if supported.is_some_and(|top| pct <= top) {
                out.set(name, percentile(gaps, pct));
            }
        }
        out.set("serve.round_ms_max", gaps.last().copied().unwrap_or(0.0));
        out.set("serve.reconnects", self.stats.reconnects as f64);
        out.set("serve.stale_dropped", self.stats.stale_dropped as f64);

        // What `--trace FILE` costs a CLI user: the same run with every
        // event rendered as JSONL into a writer that discards it.
        // (`run` is `run_traced(&mut NullSink)` by construction.)
        let (null, null_ns) =
            tracer.time(parent, "telemetry.null_sink", JSONL_ROUNDS as u64, || {
                simulate(mix(seed, 0), JSONL_ROUNDS, Some(WINDOW))
            });
        let (jsonl, jsonl_ns) =
            tracer.time(parent, "telemetry.jsonl_sink", JSONL_ROUNDS as u64, || {
                let (cfg, mut adv) = inputs(mix(seed, 0), JSONL_ROUNDS, Some(WINDOW));
                let mut sink = JsonlSink::new(std::io::sink());
                let run = SyncRunner::new(RoundAgreement).run_traced(&mut adv, &cfg, &mut sink);
                run.map(|out| (out, sink.lines_written()))
            });
        let (jsonl, lines) = jsonl.map_err(|e| format!("JSONL-traced run: {e}"))?;
        if lines == 0 || digest(&null?.0) != digest(&jsonl) {
            return Err("JSONL-traced run wrote nothing or changed the outcome".into());
        }
        out.set("telemetry.jsonl_sink_overhead_ratio", jsonl_ns / null_ns);
        Ok(())
    }
}
