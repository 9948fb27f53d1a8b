//! `ftss-benchmark` — one end-to-end benchmark for the five user paths
//! (sim, check, soak, serve, loadgen) with a per-layer ladder.
//!
//! Two ways in, both through `benchmark/run.sh`:
//!
//! * `--workload W --seed S --seconds N --trace 0|1` runs one workload
//!   in this process and prints the driver's result object last
//!   (see `harness`);
//! * without `--trace`, this process is the orchestrator: it starts one
//!   child process per workload (so `peak_rss_mb` is the workload's
//!   own), prints every metric as `workload name value unit`, writes
//!   `results.json`, and exits non-zero on any failed check. `--traced`
//!   adds the traced pass, `--smoke` shrinks repetitions, `--aa`
//!   compares two interleaved sets of runs of this same binary.
//!
//! It drives only public functions of the crates, times them from
//! outside with `std::time::Instant`, and changes no code outside
//! `benchmark/`.

mod harness;
mod orchestrate;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed S] [--seconds N] \
[--traced] [--smoke] [--aa [--runs K]]
       benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
       benchmark/run.sh --print-spec";

/// The seed used when none is given. Seed 1993 is held out: reserved for
/// verifying later claims, never used while writing a change.
const DEFAULT_SEED: u64 = 7;

/// Measuring time of a `--smoke` run: one shrunken repetition each.
const SMOKE_SECONDS: f64 = 0.5;

/// Parsed command line.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    /// `--seconds`, when given; see [`Cli::seconds`].
    seconds: Option<f64>,
    /// `--trace 0|1`: single-workload mode.
    pub trace: Option<bool>,
    pub traced: bool,
    pub smoke: bool,
    pub aa: bool,
    pub runs: usize,
    pub print_spec: bool,
    pub out_dir: PathBuf,
}

impl Cli {
    /// Measuring time per run: `--seconds`, else `BENCHMARK.json`'s
    /// `run_seconds`, or just long enough for one repetition with `--smoke`.
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            spec::RUN_SECONDS as f64
        })
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        traced: false,
        smoke: false,
        aa: false,
        runs: 5,
        print_spec: false,
        out_dir: std::env::var_os("FTSS_BENCH_OUT")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let seconds: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                cli.seconds = Some(seconds);
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other)),
                })
            }
            "--runs" => {
                cli.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if cli.runs < 2 {
                    return Err(format!("--runs must be at least 2\n{USAGE}"));
                }
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--aa" => cli.aa = true,
            "--print-spec" => cli.print_spec = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &cli.workload {
        workloads::builder(w)?;
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let result = match (cli.trace, &cli.workload) {
        (Some(trace), Some(workload)) => {
            let run = harness::RunArgs {
                workload: workload.clone(),
                seed: cli.seed,
                seconds: cli.seconds(),
                trace,
                smoke: cli.smoke,
                out_dir: cli.out_dir.clone(),
            };
            harness::run(&run).map(|outcome| {
                harness::print(workload, &outcome);
                // A failed check is reported in the result object; the
                // exit code stays 0 so the driver reads it.
                true
            })
        }
        (Some(_), None) => Err(format!("--trace needs --workload\n{USAGE}")),
        (None, _) if cli.aa => orchestrate::aa(&cli),
        (None, _) => orchestrate::all(&cli),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
