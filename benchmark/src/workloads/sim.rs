//! `sim-ra-n1024` — the large-n engine path.
//!
//! One repetition is what one cell of an `ftss-lab sweep` at n = 1024
//! does: a [`SyncRunner`] run of round agreement from a corrupted start,
//! two mid-run systemic failures, one random omitter, a windowed
//! history, and the Theorem-3 window oracle on the retained suffix (as
//! `ftss_check::largen` runs it). `serve`, the checker's dedup and
//! `async-sim` do nothing here.

use crate::harness::{parallel_jobs, Layers, Measured, Rep, RepTrace, Workload};
use crate::stats::{mix, residual_share, Digest};
use crate::trace::{SpanId, Tracer};
use ftss::core::{
    DeliveryOutcome, History, Payload, ProcessId, RateAgreementSpec, Round, RoundCounter,
    RoundHistory,
};
use ftss::protocols::{RoundAgreement, RoundAgreementState};
use ftss::sync_sim::{
    Adversary, CorruptionSchedule, Inbox, ProtocolCtx, RandomOmission, RunConfig, RunOutcome,
    SyncProtocol, SyncRunner, SyncStepper,
};
use ftss::telemetry::NullSink;
use ftss_check::window_stabilization;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 1024;
const WINDOW: usize = 8;
const ROUNDS: usize = 96;
const SMOKE_ROUNDS: usize = 24;
/// Rounds (or frames) per ladder batch: enough for a stable per-round
/// figure at n = 1024, where one round costs milliseconds.
const LADDER_ROUNDS: usize = 16;

type Outcome = RunOutcome<RoundAgreementState, u64>;

pub struct Sim {
    rounds: usize,
    /// The latest repetition's outcome: the ladder's oracle and
    /// history-push inputs.
    last: Option<Outcome>,
}

pub fn setup(seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    // Warm-up: a quarter-length run at full n.
    let warm = run_cell(mix(seed, 0x5e7), SMOKE_ROUNDS, None)?;
    if warm.rep.failed > 0 {
        return Err("sim warm-up failed its window oracle".into());
    }
    Ok(Box::new(Sim {
        rounds: if smoke { SMOKE_ROUNDS } else { ROUNDS },
        last: None,
    }))
}

/// The cell's generated inputs: configuration and adversary.
fn inputs(seed: u64, rounds: usize) -> (RunConfig, RandomOmission) {
    let third = (rounds / 3) as u64;
    let schedule = CorruptionSchedule::none()
        .at(third, mix(seed, 2))
        .at(2 * third, mix(seed, 3));
    let cfg = RunConfig::corrupted(N, rounds, mix(seed, 1))
        .with_history_window(WINDOW)
        .with_mid_run_corruption(schedule);
    (cfg, RandomOmission::new([ProcessId(0)], 0.5, mix(seed, 4)))
}

struct Cell {
    out: Outcome,
    rep: Rep,
}

/// Runs one cell and its oracle; the timer covers both.
fn run_cell(seed: u64, rounds: usize, trace: Option<RepTrace<'_>>) -> Result<Cell, String> {
    let (cfg, mut adv) = inputs(seed, rounds);
    let runner = SyncRunner::new(RoundAgreement);
    let started = Instant::now();
    let out = match trace {
        None => runner.run(&mut adv, &cfg),
        Some(tr) => {
            let mut last = tr.tracer.now_ns();
            runner.run_streaming(&mut adv, &cfg, &mut NullSink, |_| {
                let now = tr.tracer.now_ns();
                tr.tracer.record(tr.parent, "round", tr.rep, last, now, 1);
                last = now;
            })
        }
    }
    .map_err(|e| format!("sim run: {e}"))?;
    let stabilized = oracle(&out.history, rounds);
    let wall = started.elapsed();

    let mut digest = Digest::default();
    for s in &out.final_states {
        digest = digest.u64(s.as_ref().map_or(u64::MAX, |s| s.c.get()));
    }
    let failed = match stabilized {
        Ok(s) => {
            digest = digest.u64(s as u64);
            0
        }
        Err(e) => {
            eprintln!("sim-ra-n1024: window oracle rejected the run: {e}");
            rounds as u64
        }
    };
    Ok(Cell {
        out,
        rep: Rep {
            ops: rounds as u64 - failed,
            failed,
            wall,
            digest: digest.get(),
        },
    })
}

/// Theorem 3 on the retained suffix, right at the eviction boundary.
fn oracle(history: &History<RoundAgreementState, u64>, rounds: usize) -> Result<usize, String> {
    window_stabilization(
        history,
        &RateAgreementSpec::new(),
        rounds - WINDOW + 1,
        rounds,
        1,
    )
}

/// One full-mesh frame the way the runner records it.
fn fill_frame(frame: &mut RoundHistory<RoundAgreementState, u64>) {
    frame.reset(N);
    for p in 0..N {
        let c = RoundCounter::new(p as u64);
        frame.set_process(
            ProcessId(p),
            Some(RoundAgreementState { c }),
            Some(c),
            false,
            false,
        );
        frame.set_broadcast(ProcessId(p), Payload::new(p as u64));
    }
    for src in 0..N {
        for dst in 0..N {
            frame.record_send(ProcessId(src), ProcessId(dst), DeliveryOutcome::Delivered);
            frame.record_delivery(ProcessId(dst), ProcessId(src));
        }
    }
}

impl Workload for Sim {
    fn rep(&mut self, seed: u64, trace: Option<RepTrace<'_>>) -> Result<Rep, String> {
        self.last = None; // free the previous frames before allocating new ones
        let cell = run_cell(seed, self.rounds, trace)?;
        self.last = Some(cell.out);
        Ok(cell.rep)
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
        let k = LADDER_ROUNDS;
        let runner_us = measured.rep_wall_s * 1e6 / rounds as f64;
        out.set("sync-sim.runner_round_us", runner_us);

        // Step + exchange, no adversary, no history.
        let mut stepper = SyncStepper::corrupted(RoundAgreement, N, mix(seed, 1));
        let ((), ns) = tracer.time(parent, "sync-sim.stepper", k as u64, || {
            for _ in 0..k {
                stepper.step_round(|_, _| true);
            }
            black_box(stepper.states());
        });
        out.set("sync-sim.stepper_round_us", ns / 1e3 / k as f64);

        // n² − n consultations per round, through the trait object the
        // sweep's `FaultSpec::adversary` hands the runner.
        let mut omit = RandomOmission::new([ProcessId(0)], 0.5, mix(seed, 4));
        let adv: &mut dyn Adversary = &mut omit;
        let ((), ns) = tracer.time(parent, "sync-sim.adversary", k as u64, || {
            for r in 1..=k as u64 {
                for i in 0..N {
                    for j in 0..N {
                        if i != j {
                            black_box(adv.drop_copy(Round::new(r), ProcessId(i), ProcessId(j)));
                        }
                    }
                }
            }
        });
        let adversary_us = ns / 1e3 / k as f64;
        out.set("sync-sim.adversary_consult_us", adversary_us);

        let mut frame = RoundHistory::empty(N);
        let ((), ns) = tracer.time(parent, "core.frame_fill", k as u64, || {
            for _ in 0..k {
                fill_frame(black_box(&mut frame));
            }
        });
        let fill_us = ns / 1e3 / k as f64;
        out.set("core.frame_fill_us", fill_us);

        // The runner's protocol phases on that full-mesh frame: one
        // broadcast per process, then every process steps on an inbox
        // that views its recorded delivery row.
        let mut states: Vec<RoundAgreementState> = (0..N as u64)
            .map(|p| RoundAgreementState {
                c: RoundCounter::new(p),
            })
            .collect();
        let ((), ns) = tracer.time(parent, "protocols.step", k as u64, || {
            for _ in 0..k {
                for (p, state) in states.iter_mut().enumerate() {
                    let ctx = ProtocolCtx::new(ProcessId(p), N);
                    black_box(RoundAgreement.broadcast(&ctx, state));
                    let inbox = Inbox::from_deliveries(frame.msgs().deliveries(ProcessId(p)));
                    RoundAgreement.step(&ctx, state, &inbox);
                }
            }
            black_box(&states);
        });
        let step_us = ns / 1e3 / k as f64;
        out.set("protocols.step_round_us", step_us);

        // Push + recycle on the frames a real run retained: clone them
        // outside the timer, then push each into a windowed history and
        // reset whatever it evicts, as the runner's two-frame arena does.
        let last = self.last.as_ref().ok_or("ladder before any repetition")?;
        let retained = last.history.rounds();
        let mut history = History::with_window(N, WINDOW);
        let (mut push_ns, mut pushes) = (0.0, 0u64);
        for _ in 0..k.div_ceil(retained.len()) {
            let batch = retained.to_vec();
            pushes += batch.len() as u64;
            let ((), ns) = tracer.time(parent, "core.history_push", batch.len() as u64, || {
                for f in batch {
                    if let Some(mut old) = history.push(f) {
                        old.reset(N);
                        black_box(&old);
                    }
                }
            });
            push_ns += ns;
        }
        let push_us = push_ns / 1e3 / pushes as f64;
        out.set("core.history_push_us", push_us);

        let (verdict, ns) = tracer.time(parent, "check.window_oracle", 1, || {
            oracle(&last.history, rounds)
        });
        verdict?;
        out.set("check.window_oracle_ms", ns / 1e6);

        // `SyncStepper` is not a part of the runner's round: at this n it
        // materializes n² envelopes where the runner views bit rows, and
        // costs more than a whole runner round. The runner's own parts are
        // the protocol phases, the consultations and the recording.
        out.set(
            "sync-sim.unattributed_share",
            residual_share(runner_us, &[step_us, adversary_us, fill_us, push_us]),
        );

        // The sweep executor over cells of this shape (half length, so
        // both passes fit the run): serial wall over parallel wall.
        let jobs = parallel_jobs();
        let cells: Vec<u64> = (0..4).map(|i| mix(seed, 0x100 + i)).collect();
        let cell_rounds = (rounds / 2).max(SMOKE_ROUNDS);
        let mut sweep = |jobs: usize, name: &'static str| {
            tracer.time(parent, name, cells.len() as u64, || {
                ftss_sweep::map_cells(&cells, jobs, |&s| {
                    run_cell(s, cell_rounds, None).map(|c| c.rep.failed)
                })
            })
        };
        let (serial, serial_ns) = sweep(1, "sweep.serial");
        let (parallel, parallel_ns) = sweep(jobs, "sweep.parallel");
        if serial != parallel || serial.iter().any(|r| r != &Ok(0)) {
            return Err("sweep cells failed or differed between jobs=1 and parallel".into());
        }
        out.set("sweep.par_speedup", serial_ns / parallel_ns);
        Ok(())
    }
}
