//! The load generator: sustained client traffic into a served Σ⁺.
//!
//! A loadgen run is a served [`Compiled`] FloodSet session (repeated
//! consensus) plus one extra connection of the same transport carrying a
//! lock-step client. After every round the driver tells the client what
//! happened (`tick`), the client answers with that round's new requests
//! (`reqs`, drawn from its own seeded rng), and the driver accounts
//! request completion against the decision stream extracted live by
//! [`TraceCursor`]. A request submitted in round `s` completes at the
//! next decision round `d > s` with latency `d - s` **rounds** — the
//! round barrier is the clock, so latency, throughput and the histogram
//! are pure functions of `(config, seed)`: byte-identical across reruns
//! and across transports. The report deliberately contains no wall-clock
//! fields.
//!
//! A request outstanding for `timeout` rounds is counted `timed_out` —
//! under a fault storm this is what distinguishes "slow" from "starved".
//! The timeout is one constant, so deadlines fall due in submit order and
//! the pending map, keyed by submit round, is the deadline queue.

use crate::session::{serve_streaming_with_stats, ServeConfig, ServeRestart, ServeStats};
use crate::transport::{Channel, TransportKind};
use ftss::compiler::{Compiled, TraceCursor};
use ftss::protocols::FloodSet;
use ftss::sync_sim::{Adversary, NoFaults, RunConfig, StormAdversary};
use ftss::telemetry::{parse_json, Event, JsonValue, NullSink};
use ftss_rng::{Rng, StdRng};
use std::collections::BTreeMap;

/// Parameters of a load generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Transport for both the session and the client connection.
    pub transport: TransportKind,
    /// System size (FloodSet with `f = 1` needs at least 2).
    pub n: usize,
    /// Rounds to run.
    pub rounds: usize,
    /// Seed: drives the corrupted start and the client's arrivals.
    pub seed: u64,
    /// Maximum new requests per round (arrivals are uniform `0..=rate`).
    pub rate: u64,
    /// Rounds a request may stay outstanding before it counts as timed
    /// out.
    pub timeout: u64,
    /// Optional crash–restart episode injected under load; the victim is
    /// declared faulty for the session.
    pub restart: Option<ServeRestart>,
}

impl LoadgenConfig {
    /// A default-intensity run: up to 4 requests per round, 8-round
    /// timeout.
    pub fn new(transport: TransportKind, n: usize, rounds: usize, seed: u64) -> Self {
        LoadgenConfig {
            transport,
            n,
            rounds,
            seed,
            rate: 4,
            timeout: 8,
            restart: None,
        }
    }
}

/// Power-of-two latency histogram: bucket `0` holds latency 0, bucket
/// `i > 0` holds latencies in `[2^(i-1), 2^i - 1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 33],
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 33],
            total: 0,
            max: 0,
        }
    }

    /// Records `count` observations of `v`.
    pub fn record(&mut self, v: u64, count: u64) {
        let b = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[b.min(32)] += count;
        self.total += count;
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The upper bound of the bucket containing the `num/den` quantile,
    /// clamped to the observed maximum (0 when the histogram is empty).
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = (self.total * num).div_ceil(den).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

/// The accounting of one load generation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Transport name.
    pub transport: &'static str,
    /// Rounds driven.
    pub rounds: u64,
    /// Requests submitted by the client.
    pub requests: u64,
    /// Requests completed by a decision.
    pub completed: u64,
    /// Requests that ran out their timeout.
    pub timed_out: u64,
    /// Requests still outstanding at the horizon.
    pub in_flight: u64,
    /// Decision rounds observed.
    pub decisions: u64,
    /// Successful mid-session re-admissions (restart respawns).
    pub reconnects: u64,
    /// Frames from dead incarnations the router dropped.
    pub stale_dropped: u64,
    /// Completed requests per 1000 rounds (integer arithmetic — the
    /// report carries no floats).
    pub throughput_milli: u64,
    /// The completion-latency histogram, in rounds.
    pub latency: Histogram,
}

impl LoadReport {
    /// The report as one JSONL line with stable field order. Contains no
    /// wall-clock values: byte-identical across reruns and transports
    /// modulo the `transport` field itself.
    pub fn to_json(&self) -> String {
        let l = &self.latency;
        format!(
            "{{\"type\":\"load_report\",\"transport\":\"{}\",\"rounds\":{},\
             \"requests\":{},\"completed\":{},\"timed_out\":{},\"in_flight\":{},\
             \"decisions\":{},\"reconnects\":{},\"stale_dropped\":{},\"throughput_milli\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"wall_ms\":0}}\n",
            self.transport,
            self.rounds,
            self.requests,
            self.completed,
            self.timed_out,
            self.in_flight,
            self.decisions,
            self.reconnects,
            self.stale_dropped,
            self.throughput_milli,
            l.quantile(50, 100),
            l.quantile(90, 100),
            l.quantile(99, 100),
            l.max(),
        )
    }
}

/// Runs the load generator: a served Σ⁺ session plus a lock-step client.
///
/// # Errors
///
/// Configuration, transport and wire failures.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    if cfg.n < 2 {
        return Err("loadgen needs n >= 2 (FloodSet with f = 1)".into());
    }
    if cfg.rounds == 0 || cfg.timeout == 0 {
        return Err("loadgen needs rounds >= 1 and timeout >= 1".into());
    }
    // Every counter of the report is bounded by the requests submitted.
    if cfg.rate.checked_mul(cfg.rounds as u64).is_none() {
        return Err("loadgen needs rate * rounds to fit in 64 bits".into());
    }
    let inputs: Vec<u64> = (0..cfg.n as u64).map(|i| (i * 7 + 3) % 50).collect();
    let protocol = Compiled::new(FloodSet::new(1, inputs));
    // The only reader of the history is the `TraceCursor` below, which
    // diffs the newest frame against the one it remembers.
    let run = RunConfig::corrupted(cfg.n, cfg.rounds, cfg.seed).with_history_window(2);
    let mut serve_cfg = ServeConfig::new(run, cfg.transport);
    if let Some(rs) = cfg.restart {
        serve_cfg = serve_cfg.with_restart(rs);
    }
    // A restart episode needs its victim in the declared faulty set; a
    // storm adversary with no phases declares it and drops nothing, so
    // the traffic pattern is unchanged.
    let mut no_faults = NoFaults;
    let mut storm;
    let adversary: &mut dyn Adversary = match cfg.restart {
        Some(rs) => {
            storm = StormAdversary::new([rs.p], [], 0);
            &mut storm
        }
        None => &mut no_faults,
    };

    // The client connection: same transport as the session.
    let (mut driver_ends, mut client_ends) = cfg
        .transport
        .open_pairs(1)
        .map_err(|e| format!("loadgen client channel: {e}"))?;
    let mut driver = driver_ends.remove(0);
    let mut client = client_ends.remove(0);
    let client_seed = cfg.seed ^ 0xc11e;
    let rate = cfg.rate;
    let client_thread =
        std::thread::spawn(move || run_load_client(client.as_mut(), client_seed, rate));

    let mut cursor = TraceCursor::new();
    let mut pending: BTreeMap<u64, u64> = BTreeMap::new();
    let mut report = LoadReport {
        transport: cfg.transport.name(),
        rounds: cfg.rounds as u64,
        requests: 0,
        completed: 0,
        timed_out: 0,
        in_flight: 0,
        decisions: 0,
        reconnects: 0,
        stale_dropped: 0,
        throughput_milli: 0,
        latency: Histogram::new(),
    };
    let mut client_err: Option<String> = None;
    let mut stats = ServeStats::default();

    let outcome = serve_streaming_with_stats(
        &protocol,
        adversary,
        &serve_cfg,
        &mut NullSink,
        |history| {
            if client_err.is_some() {
                return;
            }
            let r = history.len() as u64;
            let decision_round = cursor.observe(history).iter().find_map(|e| match e {
                Event::Decision { round, .. } => Some(*round),
                _ => None,
            });
            if let Some(d) = decision_round {
                report.decisions += 1;
                let later = pending.split_off(&d);
                for (s, count) in std::mem::replace(&mut pending, later) {
                    report.completed += count;
                    report.latency.record(d - s, count);
                }
            }
            if let Some(cutoff) = r.checked_sub(cfg.timeout) {
                let live = pending.split_off(&(cutoff + 1));
                let expired = std::mem::replace(&mut pending, live);
                report.timed_out += expired.values().sum::<u64>();
            }
            match exchange_tick(driver.as_mut(), r, decision_round.is_some()) {
                Ok(count) => {
                    if count > 0 {
                        report.requests += count;
                        *pending.entry(r).or_insert(0) += count;
                    }
                }
                Err(e) => client_err = Some(e),
            }
        },
        &mut stats,
    );
    outcome?;
    if let Err(e) = driver.send(b"{\"type\":\"fin\"}") {
        return Err(format!("loadgen fin send: {e}"));
    }
    match client_thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("loadgen client failed: {e}")),
        Err(_) => return Err("loadgen client panicked".into()),
    }
    if let Some(e) = client_err {
        return Err(format!("loadgen exchange failed: {e}"));
    }
    report.in_flight = pending.values().sum();
    let milli = u128::from(report.completed) * 1000 / u128::from(report.rounds);
    report.throughput_milli = u64::try_from(milli).unwrap_or(u64::MAX);
    report.reconnects = stats.reconnects;
    report.stale_dropped = stats.stale_dropped;
    Ok(report)
}

/// One driver-side tick/reqs exchange; returns the round's new requests.
fn exchange_tick(driver: &mut dyn Channel, round: u64, decided: bool) -> Result<u64, String> {
    let tick = format!("{{\"type\":\"tick\",\"round\":{round},\"decided\":{decided}}}");
    driver
        .send(tick.as_bytes())
        .map_err(|e| format!("tick send: {e}"))?;
    let payload = driver.recv().map_err(|e| format!("reqs recv: {e}"))?;
    let v = parse_client_msg(&payload)?;
    match v.get("type").and_then(JsonValue::as_str) {
        Some("reqs") => {
            let got = v
                .get("round")
                .and_then(JsonValue::as_u64)
                .ok_or("reqs: missing `round`")?;
            if got != round {
                return Err(format!("client answered round {got} during round {round}"));
            }
            v.get("count")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| "reqs: missing `count`".into())
        }
        other => Err(format!("unexpected client message type {other:?}")),
    }
}

/// The client: answers every tick with the round's arrivals, drawn from
/// its own seeded rng — deterministic sustained traffic.
fn run_load_client(chan: &mut dyn Channel, seed: u64, rate: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let payload = chan.recv().map_err(|e| format!("client recv: {e}"))?;
        let v = parse_client_msg(&payload)?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("tick") => {
                let round = v
                    .get("round")
                    .and_then(JsonValue::as_u64)
                    .ok_or("tick: missing `round`")?;
                let count = rng.gen_range(0..=rate);
                let reqs = format!("{{\"type\":\"reqs\",\"round\":{round},\"count\":{count}}}");
                chan.send(reqs.as_bytes())
                    .map_err(|e| format!("client send: {e}"))?;
            }
            Some("fin") => return Ok(()),
            other => return Err(format!("unexpected driver message type {other:?}")),
        }
    }
}

fn parse_client_msg(payload: &[u8]) -> Result<JsonValue, String> {
    let text =
        std::str::from_utf8(payload).map_err(|e| format!("client frame is not UTF-8: {e}"))?;
    parse_json(text).map_err(|e| format!("client frame is not JSON: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 9, 100] {
            h.record(v, 1);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(h.max(), 100);
        // Bucket layout: 0 -> [0], 1 -> [1], 2 -> [2,3], 3 -> [4..7], ...
        // The median (4th of 8) lands in the [2,3] bucket -> upper bound 3.
        assert_eq!(h.quantile(50, 100), 3);
        // The tail bucket's upper bound (127) clamps to the observed max.
        assert_eq!(h.quantile(99, 100), 100);
        assert_eq!(h.quantile(100, 100), 100);
        assert_eq!(Histogram::new().quantile(50, 100), 0);
    }

    #[test]
    fn loadgen_is_deterministic_over_mem() {
        let cfg = LoadgenConfig::new(TransportKind::Mem, 4, 24, 11);
        let a = run_loadgen(&cfg).expect("run");
        let b = run_loadgen(&cfg).expect("run");
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.requests > 0, "client generated traffic");
        assert!(a.completed > 0, "repeated consensus kept deciding");
        assert_eq!(
            a.completed + a.timed_out + a.in_flight,
            a.requests,
            "every request is accounted exactly once"
        );
    }

    /// A timeout short enough to fire (decisions land every other round);
    /// the report is the one recorded at PR 23's parent commit.
    #[test]
    fn loadgen_times_out_requests_older_than_the_timeout() {
        let mut cfg = LoadgenConfig::new(TransportKind::Mem, 4, 24, 11);
        cfg.timeout = 1;
        assert_eq!(
            run_loadgen(&cfg).expect("run").to_json(),
            "{\"type\":\"load_report\",\"transport\":\"mem\",\"rounds\":24,\"requests\":34,\
             \"completed\":18,\"timed_out\":16,\"in_flight\":0,\"decisions\":12,\"reconnects\":0,\
             \"stale_dropped\":0,\"throughput_milli\":750,\"p50\":1,\"p90\":1,\"p99\":1,\"max\":1,\
             \"wall_ms\":0}\n"
        );
    }

    /// Neither extreme of the two `u64` knobs wraps: a timeout no horizon
    /// reaches expires nothing, and the full-domain rate still draws.
    #[test]
    fn loadgen_survives_u64_max_timeout_and_rate() {
        let mut cfg = LoadgenConfig::new(TransportKind::Mem, 4, 12, 0);
        cfg.timeout = u64::MAX;
        let patient = run_loadgen(&cfg).expect("run");
        assert_eq!((patient.completed, patient.timed_out), (21, 0));
        assert_eq!(patient.completed + patient.in_flight, patient.requests);

        cfg.rate = u64::MAX;
        let err = run_loadgen(&cfg).expect_err("12 rounds of up to 2^64 - 1 requests");
        assert!(err.contains("rate * rounds"), "{err}");
        cfg.rounds = 1;
        let flooded = run_loadgen(&cfg).expect("run");
        assert!(flooded.requests > u64::from(u32::MAX));
        assert_eq!(flooded.in_flight, flooded.requests);
    }

    #[test]
    fn loadgen_report_is_transport_independent() {
        let mem = run_loadgen(&LoadgenConfig::new(TransportKind::Mem, 3, 16, 5)).expect("mem");
        let tcp = run_loadgen(&LoadgenConfig::new(TransportKind::Tcp, 3, 16, 5)).expect("tcp");
        // Same numbers, different transport label.
        let strip = |r: &LoadReport| {
            let mut r = r.clone();
            r.transport = "x";
            r
        };
        assert_eq!(strip(&mem), strip(&tcp));
        assert_eq!(mem.reconnects, 0);
        assert_eq!(mem.stale_dropped, 0);
    }

    #[test]
    fn loadgen_restart_counters_are_transport_independent() {
        use crate::session::{Retry, SnapshotFault};
        use ftss::core::ProcessId;
        let restart = ServeRestart {
            p: ProcessId(0),
            kill_round: 4,
            gap: 2,
            staleness: 2,
            fault: SnapshotFault::Truncated,
            snapshot_seed: 0x5a97,
            retry: Retry {
                attempts: 2,
                backoff_rounds: 2,
            },
        };
        let cfg = |t| LoadgenConfig {
            restart: Some(restart),
            ..LoadgenConfig::new(t, 3, 16, 5)
        };
        let mem = run_loadgen(&cfg(TransportKind::Mem)).expect("mem");
        let tcp = run_loadgen(&cfg(TransportKind::Tcp)).expect("tcp");
        // Exactly one incarnation is re-admitted (the clean final attempt
        // at the latest), and the drained pre-crash broadcast is counted.
        assert_eq!(mem.reconnects, 1);
        assert!(mem.stale_dropped >= 1);
        let strip = |r: &LoadReport| {
            let mut r = r.clone();
            r.transport = "x";
            r
        };
        assert_eq!(strip(&mem), strip(&tcp));
        let again = run_loadgen(&cfg(TransportKind::Mem)).expect("mem rerun");
        assert_eq!(mem.to_json(), again.to_json());
    }
}
