//! One workload, one process: set up, measure for `--seconds`, verify,
//! and print the result the driver's contract asks for.
//!
//! A run is a sequence of fixed-size repetitions; a new one starts while
//! the measuring time is not yet used up, so `--seconds` sets how many
//! repetitions run, never how large one is. Throughput is the *median*
//! over repetitions, so one pre-empted repetition does not move it.

use crate::spec::{self, MetricSpec};
use crate::stats::{median, mix, peak_rss_mb};
use crate::trace::{SpanId, Tracer};
use crate::workloads;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up is repeated this often per run and `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Command-line parameters of a single-workload run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks repetitions (never `n` or the frame shape) for CI smoke.
    pub smoke: bool,
    /// Where trace files go.
    pub out_dir: std::path::PathBuf,
}

/// What one repetition did.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Operations completed and verified, in the workload's own unit.
    pub ops: u64,
    /// Operations that failed their correctness check.
    pub failed: u64,
    /// Wall time of the calls into the crates (verification that a user
    /// would not run is outside it).
    pub wall: Duration,
    /// Digest of the repetition's deterministic outputs.
    pub digest: u64,
}

impl Rep {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Per-layer metric values of a traced run, pre-filled with 0 for every
/// declared name; a workload sets the ones its layers produce.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// # Panics
    ///
    /// Panics on a name `BENCHMARK.json` does not declare.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Where a traced repetition hangs its round spans.
pub struct RepTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub parent: SpanId,
    pub rep: u32,
}

/// Workers of the `*.par_speedup` rows: every core, at most 4. With one
/// core the rows read ≈ 1 and say nothing about parallel speed-up.
pub fn parallel_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(4))
}

/// What the ladder may read about the measured repetitions.
pub struct Measured {
    /// Median wall time of one untraced repetition, seconds.
    pub rep_wall_s: f64,
    /// Median operations per untraced repetition (`loadgen`'s request
    /// count varies with the repetition's seed; the others are fixed).
    pub rep_ops: f64,
}

/// A workload: a closed loop of fixed-size repetitions on one driver
/// thread, plus the per-layer ladder that replays its inputs.
pub trait Workload {
    /// Runs one repetition on inputs generated from `seed`.
    fn rep(&mut self, seed: u64, trace: Option<RepTrace<'_>>) -> Result<Rep, String>;

    /// Times each layer on its own, on inputs taken from the workload,
    /// recording one span per call batch under `parent`.
    fn ladder(
        &mut self,
        seed: u64,
        measured: &Measured,
        tracer: &mut Tracer,
        parent: SpanId,
        out: &mut Layers,
    ) -> Result<(), String>;
}

/// The finished run, ready to print.
pub struct Outcome {
    pub metrics: Vec<(&'static MetricSpec, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub digest: u64,
    pub reps: usize,
}

/// Runs one workload end to end.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let build = workloads::builder(&args.workload)?;

    // Set-up, several times over; the last instance is the one measured.
    let repeats = if args.smoke { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut workload = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let w = build(args.seed, args.smoke)?;
        setups.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");

    let mut tracer = Tracer::default();
    let root = tracer.open(SpanId::ROOT, "workload", 0);

    // Measure. A traced run spends half its time here, in pairs of one
    // untraced and one traced repetition of the same inputs, and the
    // other half on the ladder.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let started = Instant::now();
    while plain.is_empty() || started.elapsed() < budget {
        let i = plain.len() as u64;
        let rep_seed = mix(args.seed, i);
        let rep = workload.rep(rep_seed, None)?;
        attempted += rep.ops + rep.failed;
        failed += rep.failed;
        if args.trace {
            let span = tracer.open(root, "repetition", i as u32);
            let twin = workload.rep(
                rep_seed,
                Some(RepTrace {
                    tracer: &mut tracer,
                    parent: span,
                    rep: i as u32,
                }),
            )?;
            tracer.close(span, twin.ops);
            attempted += twin.ops + twin.failed;
            failed += twin.failed;
            if twin.digest != rep.digest {
                // A digest mismatch fails every operation of the twin.
                problems.push(format!(
                    "repetition {i}: traced digest {:016x} != untraced {:016x}",
                    twin.digest, rep.digest
                ));
                failed += twin.ops;
            }
            traced.push(twin);
        }
        plain.push(rep);
    }

    let rates: Vec<f64> = plain.iter().map(Rep::ops_per_s).collect();
    let ops_per_s = median(&rates);
    let mut metrics: Vec<(&'static MetricSpec, f64)> = Vec::new();
    if args.trace {
        let measured = Measured {
            rep_wall_s: median(
                &plain
                    .iter()
                    .map(|r| r.wall.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            rep_ops: median(&plain.iter().map(|r| r.ops as f64).collect::<Vec<_>>()),
        };
        let mut layers = Layers::new();
        let replay = tracer.open(root, "replay", 0);
        workload.ladder(args.seed, &measured, &mut tracer, replay, &mut layers)?;
        tracer.close(replay, 0);
        let traced_rate = median(&traced.iter().map(Rep::ops_per_s).collect::<Vec<_>>());
        layers.set("bench.trace_overhead_share", ops_per_s / traced_rate - 1.0);
        layers.set("ops_failed_share", failed as f64 / attempted as f64);
        tracer.close(root, plain.len() as u64);
        write_trace(args, &tracer)?;
        for m in spec::PER_LAYER {
            metrics.push((m, layers.get(m.name)));
        }
    } else {
        for m in spec::END_TO_END {
            let value = match m.name {
                "setup_s" => median(&setups),
                "ops_per_s" => ops_per_s,
                "peak_rss_mb" => peak_rss_mb()?,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.push((m, value));
        }
    }

    for (m, v) in &metrics {
        if !v.is_finite() {
            problems.push(format!("metric {} is not a finite number: {v}", m.name));
        }
    }
    for p in &problems {
        eprintln!("{}: {p}", args.workload);
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        correct: failed == 0 && problems.is_empty(),
        digest: plain[0].digest,
        reps: plain.len() + traced.len(),
    })
}

fn write_trace(args: &RunArgs, tracer: &Tracer) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&args.out_dir).map_err(io)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    tracer.write_jsonl(&args.workload, &mut out).map_err(io)?;
    std::io::Write::flush(&mut out).map_err(io)
}

/// Prints the outcome: one `workload name value unit` line per metric,
/// the digest, and — last — the JSON object of the driver's contract.
pub fn print(workload: &str, o: &Outcome) {
    for (m, v) in &o.metrics {
        println!("{workload} {} {v} {}", m.name, m.unit);
    }
    println!("digest {workload} {:016x}", o.digest);
    println!(
        "result {workload} correct={} attempted={} failed={} reps={}",
        o.correct, o.attempted, o.failed, o.reps
    );
    let body: Vec<String> = o
        .metrics
        .iter()
        .map(|(m, v)| {
            // A non-finite value is already a failed run; keep the line
            // valid JSON all the same.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    );
}
