//! The orchestrator: one child process per workload and pass, results
//! collected from the children's `workload name value unit` lines.

use crate::spec::{self, MetricSpec};
use crate::stats::{median, quartiles, spread};
use crate::Cli;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// What one child run printed.
struct ChildRun {
    /// Metric name → value, in the child's printing order.
    metrics: Vec<(&'static MetricSpec, f64)>,
    digest: String,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn run_child(cli: &Cli, workload: &str, seed: u64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .env("FTSS_BENCH_OUT", &cli.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("{workload} output: {e}"))?;
    let mut run = ChildRun {
        metrics: Vec::new(),
        digest: String::new(),
        correct: false,
        attempted: 0,
        failed: 0,
    };
    let mut saw_result = false;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [w, name, value, _unit] if *w == workload => {
                let m = spec::metric(name).ok_or(format!("{workload} printed unknown {name}"))?;
                let v = value
                    .parse()
                    .map_err(|_| format!("{workload} {name}: bad value {value}"))?;
                run.metrics.push((m, v));
            }
            ["digest", w, hex] if *w == workload => run.digest = hex.to_string(),
            ["result", w, rest @ ..] if *w == workload => {
                let field = |key: &str| {
                    rest.iter()
                        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                        .ok_or(format!("{workload} result line lacks {key}"))
                };
                run.correct = field("correct")? == "true";
                run.attempted = field("attempted")?.parse().map_err(|_| "bad attempted")?;
                run.failed = field("failed")?.parse().map_err(|_| "bad failed")?;
                saw_result = true;
            }
            _ => {}
        }
    }
    let expected = if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let printed: Vec<&str> = run.metrics.iter().map(|(m, _)| m.name).collect();
    let declared: Vec<&str> = expected.iter().map(|m| m.name).collect();
    if !saw_result || printed != declared {
        return Err(format!(
            "{workload} printed {printed:?}, BENCHMARK.json declares {declared:?}"
        ));
    }
    Ok(run)
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| cli.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// `nproc`, rustc version and seed: what a number was measured on.
fn header_json(cli: &Cli) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let rustc = std::env::var("FTSS_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "\"nproc\": {nproc}, \"rustc\": \"{}\", \"seed\": {}, \"seconds\": {}, \"smoke\": {}",
        rustc.replace(['"', '\\'], ""),
        cli.seed,
        cli.seconds(),
        cli.smoke
    )
}

fn write_out(cli: &Cli, file: &str, json: &str) -> Result<(), String> {
    let path = cli.out_dir.join(file);
    std::fs::create_dir_all(&cli.out_dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs every selected workload once (plus a traced pass with
/// `--traced`), prints every metric and writes `results.json`.
pub fn all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut json = format!("{{{}, \"workloads\": {{", header_json(cli));
    for (i, workload) in selected(cli).into_iter().enumerate() {
        let mut passes = vec![run_child(cli, workload, cli.seed, false)?];
        if cli.traced {
            passes.push(run_child(cli, workload, cli.seed, true)?);
        }
        let digest = passes[0].digest.clone();
        for run in &passes {
            for (m, v) in &run.metrics {
                println!("{workload} {} {v} {}", m.name, m.unit);
            }
            if !run.correct {
                println!(
                    "{workload} FAILED: {} of {} operations",
                    run.failed, run.attempted
                );
                ok = false;
            }
            if run.digest != digest {
                println!(
                    "{workload} FAILED: traced digest {} != untraced {digest}",
                    run.digest
                );
                ok = false;
            }
        }
        println!("{workload} digest {digest}");

        let sep = if i > 0 { "," } else { "" };
        let (attempted, failed) = passes
            .iter()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        let _ = write!(
            json,
            "{sep}\n  \"{workload}\": {{\"correct\": {}, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"digest\": \"{digest}\", \"metrics\": {{",
            passes.iter().all(|r| r.correct)
        );
        let metrics = passes.iter().flat_map(|r| &r.metrics);
        for (k, (m, v)) in metrics.enumerate() {
            let sep = if k > 0 { ", " } else { "" };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
    }
    json.push_str("\n}}\n");
    write_out(cli, "results.json", &json)?;
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// Two interleaved sets of `--runs` runs of this same binary, run `i` of
/// either set on seed `seed + i`. Fails when the two medians of an
/// end-to-end metric differ by more than its bound; a metric whose own
/// quartile spread exceeds its bound is *unresolved* (the benchmark
/// could not have told a regression of that size from noise).
pub fn aa(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut json = format!(
        "{{{}, \"runs\": {}, \"workloads\": {{",
        header_json(cli),
        cli.runs
    );
    println!(
        "{:<26} {:<12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "IQR A", "spread A", "spread B", "A vs B"
    );
    for (i, workload) in selected(cli).into_iter().enumerate() {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..cli.runs {
            let seed = cli.seed + run as u64;
            // Alternate which set goes first, so drift hits both alike.
            let order = if run % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut digests = [String::new(), String::new()];
            for set in order {
                let child = run_child(cli, workload, seed, false)?;
                if !child.correct {
                    println!("{workload} seed {seed} FAILED its checks");
                    ok = false;
                }
                for (m, v) in child.metrics {
                    sets[set].entry(m.name).or_default().push(v);
                }
                digests[set] = child.digest;
            }
            if digests[0] != digests[1] {
                println!("{workload} seed {seed} FAILED: digests {digests:?} differ");
                ok = false;
            }
        }
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(json, "{sep}\n  \"{workload}\": {{");
        for (k, m) in spec::END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (med_a, med_b) = (median(a), median(b));
            let [q1, _, q3] = quartiles(a);
            let (spread_a, spread_b) = (spread(a), spread(b));
            let apart = (med_a - med_b).abs() / med_a.min(med_b);
            // The driver, too, holds `setup_s` to its medians only.
            let noisy = m.name != "setup_s" && spread_a.max(spread_b) > bound;
            let verdict = if apart > bound {
                ok = false;
                "DIFFER"
            } else if noisy {
                ok = false;
                "unresolved"
            } else {
                "same"
            };
            println!(
                "{workload:<26} {:<12} {med_a:>12.4} {med_b:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>6.2}%  {verdict}",
                m.name,
                q3 - q1,
                spread_a * 100.0,
                spread_b * 100.0,
                apart * 100.0,
            );
            let sep = if k > 0 { "," } else { "" };
            let _ = write!(
                json,
                "{sep}\n    \"{}\": {{\"unit\": \"{}\", \"median\": {med_a}, \"q1\": {q1}, \
                 \"q3\": {q3}, \"second_median\": {med_b}, \"runs\": {a:?}, \"second_runs\": {b:?}}}",
                m.name, m.unit
            );
        }
        json.push_str("\n  }");
    }
    json.push_str("\n}}\n");
    write_out(cli, "aa.json", &json)?;
    println!(
        "{}",
        if ok {
            "A/A: both sets agree within every bound, nothing unresolved"
        } else {
            "A/A: FAILED (a check failed, medians differ, or a metric is unresolved)"
        }
    );
    Ok(ok)
}
