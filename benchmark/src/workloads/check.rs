//! `check-graph-n6` — the model checker's state-graph search.
//!
//! One repetition is `explore_graph` at n = 6, serial, over two BFS
//! layers — every 2-round omission schedule of the corrupted start.
//! (The fixpoint closes after four layers and ~5.9e5 expansions, 11 s
//! here: too long for a repetition under the driver's time cap. Two
//! layers run the same per-expansion work — one `step_round` at n = 6,
//! one canonicalization over 120 relabelings, one fingerprint, one
//! dedup probe — 144 384 times.) The simulator's history, adversaries
//! and the serve stack do nothing here.
//!
//! How many states a corrupted start reaches depends on how its counters
//! are ordered around the faulty process: the first layer has 121, 141,
//! 191, 225 or 241 states, and work and memory follow. Input generation
//! therefore draws starts until one has a 141-state first layer (about
//! one in four does), so every repetition of every seed explores the
//! same number of states and `peak_rss_mb` measures the code, not the
//! draw.

use crate::harness::{parallel_jobs, Layers, Measured, Rep, RepTrace, Workload};
use crate::stats::{mix, residual_share, Digest};
use crate::trace::{SpanId, Tracer};
use ftss::core::ProcessId;
use ftss_check::runbuild::RunBuilder;
use ftss_check::{explore_graph, Fingerprinter, GraphConfig, GraphReport, NodeState};
use ftss_rng::{Rng, StdRng};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 6;
const LAYERS: usize = 2;
const SMOKE_LAYERS: usize = 1;
const WARMUP_EXPLORATIONS: u64 = 16;
/// Visited states (root included) after one layer of an accepted start.
const FIRST_LAYER_VISITED: u64 = 141;
/// Iterations of each per-expansion micro-batch.
const LADDER_STEPS: usize = 100_000;
const LADDER_STATES: usize = 2_000;

pub struct Check {
    layers: usize,
    /// The first repetition's corrupted start and report (the same on
    /// every run of a seed, however many repetitions fit): the ladder's
    /// counts and what the sharded search must reproduce.
    first: Option<(u64, GraphReport)>,
}

pub fn setup(seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    // Warm-up: single-layer explorations of other corrupted starts.
    for i in 0..WARMUP_EXPLORATIONS {
        let report = explore_graph(&config(mix(seed, 0x5e7 + i), SMOKE_LAYERS, 1))?;
        verify(&report, SMOKE_LAYERS)?;
    }
    Ok(Box::new(Check {
        layers: if smoke { SMOKE_LAYERS } else { LAYERS },
        first: None,
    }))
}

/// Generates the repetition's input: the first corruption seed drawn from
/// `seed` whose start has the accepted first-layer size.
fn draw_start(seed: u64) -> Result<u64, String> {
    for k in 0..1000 {
        let candidate = mix(seed, 0x57a7 + k);
        if explore_graph(&config(candidate, 1, 1))?.visited == FIRST_LAYER_VISITED {
            return Ok(candidate);
        }
    }
    Err(format!(
        "no corrupted start with a {FIRST_LAYER_VISITED}-state first layer"
    ))
}

fn config(seed: u64, layers: usize, jobs: usize) -> GraphConfig {
    let mut cfg = GraphConfig::fixpoint(N, seed);
    cfg.rounds = Some(layers);
    cfg.jobs = jobs;
    cfg
}

/// Theorem 3 must hold on every explored edge, and the counts must be
/// those of a complete `layers`-deep search: every visited state of the
/// expanded layers contributes all `2^(2(n−1))` omission masks.
fn verify(report: &GraphReport, layers: usize) -> Result<(), String> {
    if let Some(cx) = &report.counterexample {
        return Err(format!("counterexample at depth {}", cx.cfg.rounds));
    }
    if report.depth as usize != layers {
        return Err(format!("explored {} layers, wanted {layers}", report.depth));
    }
    let masks = 1u64 << (2 * (N - 1));
    if report.expansions == 0
        || !report.expansions.is_multiple_of(masks)
        || report.visited + report.dedup_hits != report.expansions + 1
    {
        return Err(format!("inconsistent counts: {report:?}"));
    }
    Ok(())
}

fn digest(report: &GraphReport) -> u64 {
    Digest::default()
        .u64(report.visited)
        .u64(report.expansions)
        .u64(report.dedup_hits)
        .u64(report.orbit_hits)
        .u64(report.depth as u64)
        .u64(report.fixpoint as u64)
        .get()
}

/// A plausible reachable node: fields drawn the way the explorer's
/// transition fills them (the explorer does not expose its states).
fn sample_state(rng: &mut StdRng) -> NodeState {
    let full = (1u32 << N) - 1;
    NodeState {
        counters: (0..N).map(|_| rng.gen_range(0..4u64)).collect(),
        rate_ok: rng.gen_range(0..=full as u64) as u32,
        reach: (0..N)
            .map(|i| (1 << i) | rng.gen_range(0..=full as u64) as u32)
            .collect(),
        deviated: rng.gen_bool(0.5),
        coterie: rng.gen_range(0..=full as u64) as u32,
        stable_len: rng.gen_range(1..4u64) as u8,
        first_window: false,
        thm4_alive: rng.gen_range(0..4u64) as u8,
    }
}

impl Workload for Check {
    fn rep(&mut self, seed: u64, trace: Option<RepTrace<'_>>) -> Result<Rep, String> {
        // Nothing inside `explore_graph` is observable from outside: a
        // traced repetition is the repetition span alone.
        let _ = trace;
        let start = draw_start(seed)?;
        let cfg = config(start, self.layers, 1);
        let started = Instant::now();
        let report = explore_graph(&cfg)?;
        let wall = started.elapsed();
        let (ops, failed) = match verify(&report, self.layers) {
            Ok(()) => (report.expansions, 0),
            Err(e) => {
                eprintln!("check-graph-n6: {e}");
                (0, report.expansions.max(1))
            }
        };
        let rep = Rep {
            ops,
            failed,
            wall,
            digest: digest(&report),
        };
        self.first.get_or_insert((start, report));
        Ok(rep)
    }

    fn ladder(
        &mut self,
        seed: u64,
        measured: &Measured,
        tracer: &mut Tracer,
        parent: SpanId,
        out: &mut Layers,
    ) -> Result<(), String> {
        let (start, report) = self.first.as_ref().ok_or("ladder before any repetition")?;
        out.set("check.visited", report.visited as f64);
        out.set("check.expansions", report.expansions as f64);
        out.set("check.dedup_hits", report.dedup_hits as f64);
        out.set("check.orbit_hits", report.orbit_hits as f64);
        out.set(
            "check.useful_ratio",
            report.visited as f64 / report.expansions as f64,
        );

        // One expansion's simulator round: the explorer's stepper under
        // a mask closure over the copies touching the faulty process.
        let mut stepper = RunBuilder::corrupted(N, 1, mix(seed, 1)).stepper();
        let ((), ns) = tracer.time(parent, "sync-sim.stepper_n6", LADDER_STEPS as u64, || {
            for mask in 0..LADDER_STEPS as u32 {
                stepper.step_round(|from, to| {
                    let touches_faulty = from.index() == 0 || to.index() == 0;
                    !(touches_faulty && (mask >> ((from.index() + to.index()) % 10)) & 1 == 1)
                });
            }
            black_box(stepper.states());
        });
        let step_ns = ns / LADDER_STEPS as f64;
        out.set("sync-sim.stepper_round_ns_n6", step_ns);

        let mut rng = StdRng::seed_from_u64(mix(seed, 2));
        let states: Vec<NodeState> = (0..LADDER_STATES).map(|_| sample_state(&mut rng)).collect();
        let ((), ns) = tracer.time(parent, "check.canonicalize", states.len() as u64, || {
            for s in &states {
                black_box(s.canonicalize(ProcessId(0)));
            }
        });
        let canonicalize_ns = ns / states.len() as f64;
        out.set("check.canonicalize_ns", canonicalize_ns);

        let fper = Fingerprinter::new();
        let mut scratch = Vec::new();
        let passes = LADDER_STEPS / states.len();
        let ((), ns) = tracer.time(
            parent,
            "check.fingerprint",
            (passes * states.len()) as u64,
            || {
                for _ in 0..passes {
                    for s in &states {
                        black_box(fper.node(s, &mut scratch));
                    }
                }
            },
        );
        let fingerprint_ns = ns / (passes * states.len()) as f64;
        out.set("check.fingerprint_ns", fingerprint_ns);

        let per_expansion_ns = measured.rep_wall_s * 1e9 / measured.rep_ops;
        out.set(
            "check.unattributed_share",
            residual_share(
                per_expansion_ns,
                &[step_ns, canonicalize_ns, fingerprint_ns],
            ),
        );

        // The first repetition's search again, sharded across workers:
        // the report must be equal, the wall shorter.
        let cfg = config(*start, self.layers, parallel_jobs());
        let (parallel, ns) = tracer.time(parent, "check.parallel", 1, || explore_graph(&cfg));
        if parallel? != *report {
            return Err("explore_graph report differs between jobs=1 and parallel".into());
        }
        let serial_ns = report.expansions as f64 * per_expansion_ns;
        out.set("check.par_speedup", serial_ns / ns);
        Ok(())
    }
}
