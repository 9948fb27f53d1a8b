//! A thin in-repo timer harness — the workspace's replacement for
//! `criterion`, kept deliberately small: warmup, repeated timed batches,
//! and a median/min/mean report. No registry dependency, no plotting.
//!
//! Available behind `--features bench-harness`, like the bench targets
//! that use it:
//!
//! ```text
//! cargo bench --features bench-harness --bench micro
//! ```

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

use ftss_telemetry::json::escape_into;

/// Re-export of [`std::hint::black_box`]: keeps the optimizer from
/// deleting the benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label.
    pub name: String,
    /// Iterations per timed batch.
    pub iters_per_batch: u64,
    /// Median ns/iter over the batches.
    pub median_ns: f64,
    /// Minimum ns/iter over the batches (least-noise estimate).
    pub min_ns: f64,
    /// Mean ns/iter over the batches.
    pub mean_ns: f64,
}

impl Sample {
    fn render_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.2} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.2} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.2} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }
}

impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<40} median {:>10}  min {:>10}  mean {:>10}",
            self.name,
            Sample::render_ns(self.median_ns),
            Sample::render_ns(self.min_ns),
            Sample::render_ns(self.mean_ns),
        )
    }
}

/// Harness configuration. The defaults mirror a quick criterion run:
/// ~0.5 s of warmup and ~2 s of measurement per benchmark.
#[derive(Clone, Debug)]
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    batches: u32,
    /// Whether this is the reduced [`quick`](Bencher::quick) budget.
    quick: bool,
    results: Vec<Sample>,
}

impl Default for Bencher {
    fn default() -> Bencher {
        Bencher::new()
    }
}

impl Bencher {
    /// A harness with the default budget (0.5 s warmup, 2 s measure,
    /// 20 batches per benchmark).
    pub fn new() -> Bencher {
        Bencher {
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(2),
            batches: 20,
            quick: false,
            results: Vec::new(),
        }
    }

    /// A faster budget for CI smoke runs.
    pub fn quick() -> Bencher {
        Bencher {
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(200),
            batches: 8,
            quick: true,
            results: Vec::new(),
        }
    }

    /// Times `f`, printing one summary line immediately and recording the
    /// sample for [`finish`](Bencher::finish).
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &Sample {
        // Warmup: run until the warmup budget elapses, counting iterations
        // to calibrate the batch size.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;

        // Pick iters/batch so that `batches` timed batches fill the
        // measurement budget.
        let budget_ns = self.measure.as_nanos() as f64 / self.batches as f64;
        let iters = ((budget_ns / per_iter).round() as u64).max(1);

        let mut per_batch_ns: Vec<f64> = Vec::with_capacity(self.batches as usize);
        for _ in 0..self.batches {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_batch_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_batch_ns.sort_by(|a, b| a.total_cmp(b));
        let median_ns = per_batch_ns[per_batch_ns.len() / 2];
        let min_ns = per_batch_ns[0];
        let mean_ns = per_batch_ns.iter().sum::<f64>() / per_batch_ns.len() as f64;

        let sample = Sample {
            name: name.to_string(),
            iters_per_batch: iters,
            median_ns,
            min_ns,
            mean_ns,
        };
        println!("{sample}");
        self.results.push(sample);
        self.results.last().expect("just pushed")
    }

    /// All samples recorded so far, in bench order.
    pub fn results(&self) -> &[Sample] {
        &self.results
    }

    /// Prints a closing summary table.
    pub fn finish(&self) {
        println!("\n== {} benchmark(s) ==", self.results.len());
        for s in &self.results {
            println!("{s}");
        }
    }

    /// Renders the recorded samples as a JSON object: a `header` field
    /// saying what the numbers were taken on (`nproc`: available
    /// parallelism — a parallel row recorded on one core measures
    /// scheduling overhead, not speed-up; `bench_quick`: 1 for the reduced
    /// [`quick`](Bencher::quick) budget), then one field per benchmark in
    /// bench order (the trace-schema dialect: unsigned integers only, so
    /// timings are rounded to whole nanoseconds).
    ///
    /// The output parses with [`ftss_telemetry::json::parse`] and, for a
    /// fixed set of benchmarks, has a deterministic field order — suitable
    /// for diffing one CI artifact against another.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = format!(
            "{{\n  \"header\": {{\"nproc\": {nproc}, \"bench_quick\": {}}}",
            self.quick as u8
        );
        for s in &self.results {
            out.push_str(",\n  ");
            escape_into(&mut out, &s.name);
            out.push_str(&format!(
                ": {{\"median_ns\": {}, \"min_ns\": {}, \"mean_ns\": {}, \"iters_per_batch\": {}}}",
                s.median_ns.round() as u64,
                s.min_ns.round() as u64,
                s.mean_ns.round() as u64,
                s.iters_per_batch,
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes [`to_json`](Bencher::to_json) to `path` (e.g.
    /// `BENCH_micro.json` for the CI artifact).
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_positive_timings() {
        let mut b = Bencher::quick();
        let s = b.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.median_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.mean_ns * 2.0);
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn json_report_is_ordered_and_parseable() {
        let mut b = Bencher::quick();
        b.bench("z/last\"quoted", || black_box(1u64 + 1));
        b.bench("a/first", || black_box(2u64 + 2));
        let json = b.to_json();
        let parsed = ftss_telemetry::json::parse(&json).expect("self-emitted JSON parses");
        match &parsed {
            ftss_telemetry::json::JsonValue::Obj(fields) => {
                // The header, then bench order, not alphabetical:
                // determinism comes from the bench program, not from
                // sorting.
                assert_eq!(fields[0].0, "header");
                assert_eq!(fields[1].0, "z/last\"quoted");
                assert_eq!(fields[2].0, "a/first");
            }
            other => panic!("expected object, got {other:?}"),
        }
        let header = parsed.get("header").expect("header field");
        assert!(header.get("nproc").and_then(|v| v.as_u64()) >= Some(1));
        assert_eq!(header.get("bench_quick").and_then(|v| v.as_u64()), Some(1));
        let med = parsed
            .get("a/first")
            .and_then(|s| s.get("median_ns"))
            .and_then(|v| v.as_u64());
        assert!(med.is_some(), "median_ns must round-trip as u64");
    }

    #[test]
    fn render_scales_units() {
        assert_eq!(Sample::render_ns(12.0), "12 ns");
        assert_eq!(Sample::render_ns(1_500.0), "1.50 µs");
        assert_eq!(Sample::render_ns(2_500_000.0), "2.50 ms");
        assert_eq!(Sample::render_ns(3_000_000_000.0), "3.00 s");
    }
}
