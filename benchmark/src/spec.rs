//! The benchmark's contract: every workload and metric name, with unit,
//! direction and regression bound. `BENCHMARK.json` at the repository
//! root is generated from these tables (`ftss-benchmark --print-spec`)
//! and a unit test pins the committed file to them byte for byte, so a
//! name is declared in exactly one place.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A workload: name plus the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric: `bound` is the share of the parent's median by which it may
/// worsen before a change counts as a regression (`None` for per-layer
/// metrics, which are never gated).
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const SIM: &str = "sim-ra-n1024";
pub const CHECK: &str = "check-graph-n6";
pub const SOAK: &str = "soak-default";
pub const SERVE: &str = "serve-ra-tcp-n64";
pub const LOADGEN: &str = "loadgen-floodset-uds-n16";

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: SIM,
        why: "large-n engine path: SyncRunner + RandomOmission at n=1024, windowed history, Thm-3 oracle; op = round; serve, check dedup and async-sim idle",
    },
    WorkloadSpec {
        name: CHECK,
        why: "explore_graph at n=6, two BFS layers: the same step_round called 144384 times without history or adversary, plus canonicalize/fingerprint/dedup; op = expansion",
    },
    WorkloadSpec {
        name: SOAK,
        why: "run_soak of the default plan, 600 epochs: the only path through async-sim, detectors and compiler::trace_events; op = verified epoch; serve stack idle",
    },
    WorkloadSpec {
        name: SERVE,
        why: "served round agreement over loopback TCP, 64 node threads: per round 64 bcast frames (~70 B) up, 64 inbox frames (~2.5 KB) down; barrier, thread wake, syscalls, inbox decode; op = round",
    },
    WorkloadSpec {
        name: LOADGEN,
        why: "run_loadgen of compiled FloodSet over UDS at n=16: 32 frames (~26 KB) per round on 16 node threads plus a lock-step client, TimerWheel and TraceCursor; op = completed request",
    },
];

use Better::{Higher, Lower};

/// Metrics a user of the system sees. Every workload reports every one
/// of them (the driver's contract), so each is defined on all five
/// paths; the unit of `ops_per_s` is the workload's own operation, named
/// in its `why`.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Metrics of single layers (layer = crate name), traced runs only. A
/// workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricSpec] = &[
    // Simulator ladder (sim-ra-n1024).
    layer("sync-sim.runner_round_us", "us", Lower),
    layer("sync-sim.stepper_round_us", "us", Lower),
    layer("protocols.step_round_us", "us", Lower),
    layer("sync-sim.adversary_consult_us", "us", Lower),
    layer("core.frame_fill_us", "us", Lower),
    layer("core.history_push_us", "us", Lower),
    layer("check.window_oracle_ms", "ms", Lower),
    layer("sync-sim.unattributed_share", "ratio", Lower),
    layer("sweep.par_speedup", "ratio", Higher),
    // Checker ladder (check-graph-n6).
    layer("check.visited", "count", Lower),
    layer("check.expansions", "count", Lower),
    layer("check.dedup_hits", "count", Higher),
    layer("check.orbit_hits", "count", Higher),
    layer("check.useful_ratio", "ratio", Higher),
    layer("sync-sim.stepper_round_ns_n6", "ns", Lower),
    layer("check.canonicalize_ns", "ns", Lower),
    layer("check.fingerprint_ns", "ns", Lower),
    layer("check.unattributed_share", "ratio", Lower),
    layer("check.par_speedup", "ratio", Higher),
    // Soak ladder (soak-default).
    layer("chaos.ms_per_epoch", "ms", Lower),
    layer("async-sim.events_per_s", "1/s", Higher),
    layer("async-sim.events", "count", Lower),
    layer("compiler.trace_events_ms", "ms", Lower),
    layer("sync-sim.runner_round_us_n6", "us", Lower),
    layer("chaos.unattributed_share", "ratio", Lower),
    // Serve ladder (both served workloads).
    layer("serve.frames_per_round", "count", Lower),
    layer("serve.wire_bytes_per_round", "B", Lower),
    layer("serve.wire_encode_ns_per_frame.bcast", "ns", Lower),
    layer("serve.wire_encode_ns_per_frame.inbox", "ns", Lower),
    layer("serve.wire_decode_ns_per_frame.bcast", "ns", Lower),
    layer("serve.wire_decode_ns_per_frame.inbox", "ns", Lower),
    layer("telemetry.parse_json_mb_s", "MB/s", Higher),
    layer("core.framing_mb_s", "MB/s", Higher),
    layer("serve.transport_rtt_us.mem", "us", Lower),
    layer("serve.transport_rtt_us.uds", "us", Lower),
    layer("serve.transport_rtt_us.tcp", "us", Lower),
    layer("serve.sim_equiv_round_us", "us", Lower),
    layer("serve.session_round_us", "us", Lower),
    layer("serve.mem_vs_socket_ratio", "ratio", Higher),
    layer("serve.barrier_residual_share", "ratio", Lower),
    layer("serve.rounds_per_s", "1/s", Higher),
    layer("serve.round_ms_p50", "ms", Lower),
    layer("serve.round_ms_p90", "ms", Lower),
    layer("serve.round_ms_p99", "ms", Lower),
    layer("serve.round_ms_max", "ms", Lower),
    layer("serve.reconnects", "count", Lower),
    layer("serve.stale_dropped", "count", Lower),
    layer("serve.loadgen_requests", "count", Higher),
    layer("serve.loadgen_completed", "count", Higher),
    layer("serve.loadgen_timed_out", "count", Lower),
    layer("serve.loadgen_p50_rounds", "count", Lower),
    layer("serve.loadgen_p99_rounds", "count", Lower),
    layer("telemetry.jsonl_sink_overhead_ratio", "ratio", Lower),
    // Every workload.
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("ops_failed_share", "ratio", Lower),
];

/// Whether `name` fits the contract's charset: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Looks a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The exact contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_fit_the_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for bad in ["", ".x", "-x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn limits_of_the_contract_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
