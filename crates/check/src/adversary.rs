//! The adversary battery: worst-case-within-model fault scenarios for
//! systems too large to enumerate.
//!
//! Where [`crate::dfs`] proves properties by exhaustion at `n ≤ 4`, the
//! battery *probes* them at realistic sizes with hand-picked adversaries
//! aimed at each theorem's weakest point:
//!
//! * **corruption-burst** — round agreement under a coterie-changing
//!   partition followed by a fresh mid-run systemic failure: Theorem 3's
//!   one-round stabilization must hold after the *final* failure.
//! * **quorum-omission** — the compiled `Π⁺` with a seeded omission
//!   adversary degrading a faulty minority's traffic: Theorem 4's
//!   `2·final_round + 2` bound must survive continual omissions.
//! * **crash-at-worst-time** — the compiled `Π⁺` with a crash landing
//!   exactly on the iteration boundary, mid-broadcast (a partial send):
//!   the bound must survive the nastiest crash placement.
//! * **slow-coterie-async** — the ◇S detector under an
//!   [`AdversaryScheduler`] stretching every message touching a victim to
//!   the maximum admissible delay, from a fully poisoned state, with a
//!   real crash: Theorem 5's settle properties must still hold.
//!
//! Every cell is a pure function of `(scenario, n, seed)`; the battery
//! fans out over [`ftss_sweep::map_cells`], so rows are deterministic and
//! independent of the worker count — pinned by `check_determinism`.

use crate::oracle::{thm4_compiled, thm5_detector};
use ftss::analysis::measured_stabilization_time;
use ftss::async_sim::{AdversaryScheduler, AsyncConfig, AsyncRunner, Time};
use ftss::compiler::Compiled;
use ftss::core::{CrashSchedule, ProcessId, ProcessSet, RateAgreementSpec, Round};
use ftss::detectors::{poison_tables, StrongDetectorProcess, SuspectProbe, WeakOracle};
use ftss::protocols::{FloodSet, RepeatedConsensusSpec, RoundAgreement};
use ftss::sync_sim::{
    CorruptionSchedule, CrashOnly, GroupPartition, RandomOmission, RunConfig, SyncRunner,
};

/// The battery's scenarios, in reporting order.
const SCENARIOS: [&str; 4] = [
    "corruption-burst",
    "quorum-omission",
    "crash-at-worst-time",
    "slow-coterie-async",
];

/// Battery parameters.
#[derive(Clone, Debug)]
pub struct BatteryConfig {
    /// System size (must be at least 3; the compiled scenarios tolerate
    /// `f = 1`).
    pub n: usize,
    /// Seeds per scenario (`0..seeds`).
    pub seeds: u64,
    /// Worker threads for the sweep executor.
    pub jobs: usize,
}

impl BatteryConfig {
    /// `seeds` seeds per scenario at size `n`, run on `jobs` workers.
    pub fn new(n: usize, seeds: u64, jobs: usize) -> Self {
        BatteryConfig { n, seeds, jobs }
    }
}

/// One battery verdict row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatteryRow {
    /// Scenario name (one of `SCENARIOS`).
    pub scenario: &'static str,
    /// The cell's seed.
    pub seed: u64,
    /// `None` = property held; `Some(detail)` = violation.
    pub verdict: Option<String>,
}

impl std::fmt::Display for BatteryRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.verdict {
            None => write!(f, "{:<20} seed={:<3} PASS", self.scenario, self.seed),
            Some(d) => write!(f, "{:<20} seed={:<3} FAIL {d}", self.scenario, self.seed),
        }
    }
}

/// Runs the whole battery. Rows come back in `(scenario, seed)` order
/// regardless of `jobs`; a panicking cell is isolated and reported
/// without aborting the rest (see `ftss_sweep::map_cells`).
pub fn run_battery(cfg: &BatteryConfig) -> Result<Vec<BatteryRow>, String> {
    if cfg.n < 3 {
        return Err(format!(
            "check --adversary: n must be at least 3, got {}",
            cfg.n
        ));
    }
    if cfg.seeds == 0 {
        // Zero seeds run no cell: an empty battery would read as a pass.
        return Err("check --adversary: --seeds must be at least 1".into());
    }
    let cells: Vec<(&'static str, u64)> = SCENARIOS
        .iter()
        .flat_map(|&s| (0..cfg.seeds).map(move |seed| (s, seed)))
        .collect();
    let n = cfg.n;
    let rows = ftss_sweep::map_cells(&cells, cfg.jobs, |&(scenario, seed)| BatteryRow {
        scenario,
        seed,
        verdict: run_cell(scenario, n, seed),
    });
    Ok(rows)
}

/// Whether every row passed.
pub fn all_pass(rows: &[BatteryRow]) -> bool {
    rows.iter().all(|r| r.verdict.is_none())
}

fn run_cell(scenario: &str, n: usize, seed: u64) -> Option<String> {
    match scenario {
        "corruption-burst" => corruption_burst(n, seed),
        "quorum-omission" => quorum_omission(n, seed),
        "crash-at-worst-time" => crash_at_worst_time(n, seed),
        "slow-coterie-async" => slow_coterie_async(n, seed),
        other => Some(format!("unknown scenario {other:?}")),
    }
}

/// Round agreement: partition `p0` away for rounds 3..=5 (a coterie
/// change), then hit every process with a fresh systemic failure at round
/// `BURST_ROUND`. Theorem 3: agreement holds again at most one round
/// after the final systemic failure.
fn corruption_burst(n: usize, seed: u64) -> Option<String> {
    const BURST_ROUND: u64 = 8;
    let rounds = 14;
    let run_cfg = RunConfig::corrupted(n, rounds, seed)
        .with_mid_run_corruption(CorruptionSchedule::none().at(BURST_ROUND, seed ^ 0xb127));
    let mut adv = GroupPartition::new([ProcessId(0)], 3, 5);
    let out = SyncRunner::new(RoundAgreement)
        .run(&mut adv, &run_cfg)
        .map_err(|e| e.to_string())
        .ok()?;
    let m = measured_stabilization_time(&out.history, &RateAgreementSpec::new())?;
    // The measured `s` counts rounds skipped from the final window's
    // start; the burst may land inside that window, so Theorem 3's
    // "1 round after the final failure" translates to skipping everything
    // up to and including the burst round plus one.
    let allowed = if (m.window_start as u64) <= BURST_ROUND {
        (BURST_ROUND - m.window_start as u64) as usize + 1
    } else {
        1
    };
    match m.stabilization_rounds {
        Some(s) if s <= allowed => None,
        Some(s) => Some(format!(
            "thm3: stabilized {s} rounds into the final window, burst allows {allowed}"
        )),
        None => Some("thm3: never stabilized after burst".into()),
    }
}

/// The compiled `Π⁺` (FloodSet, `f = 1`) under a seeded omission
/// adversary that degrades `p0`'s links at `p_drop = 0.6` for the whole
/// run. Theorem 4: stabilization within `2·final_round + 2`.
fn quorum_omission(n: usize, seed: u64) -> Option<String> {
    let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 17 + seed) % 100).collect();
    let pi = Compiled::new(FloodSet::new(1, inputs));
    let fr = ftss::core::saturating_round_index(pi.final_round());
    let bound = 2 * fr + 2;
    let rounds = 6 * (fr + 1) + 4;
    let mut adv = RandomOmission::new([ProcessId(0)], 0.6, seed);
    let out = SyncRunner::new(pi)
        .run(&mut adv, &RunConfig::corrupted(n, rounds, seed))
        .map_err(|e| e.to_string())
        .ok()?;
    thm4_compiled(
        &out.history,
        &RepeatedConsensusSpec::agreement_only(),
        bound,
    )
}

/// The compiled `Π⁺` with `p1` crashing exactly at the end of the first
/// full iteration, having emitted only its first copy of the round — the
/// crash placement most likely to split the survivors. Theorem 4 again.
fn crash_at_worst_time(n: usize, seed: u64) -> Option<String> {
    let inputs: Vec<u64> = (0..n as u64).map(|i| (i * 31 + seed) % 100).collect();
    let pi = Compiled::new(FloodSet::new(1, inputs));
    let fr = ftss::core::saturating_round_index(pi.final_round());
    let bound = 2 * fr + 2;
    let rounds = 6 * (fr + 1) + 4;
    // Crash during the final round of the second compiled iteration: the
    // corrupted first iteration is still settling when the crash lands.
    let crash_round = (2 * fr).max(1) as u64;
    let mut schedule = CrashSchedule::none();
    schedule.set(ProcessId(1), Round::new(crash_round));
    let mut adv = CrashOnly::new(schedule).with_partial_sends(1);
    let out = SyncRunner::new(pi)
        .run(&mut adv, &RunConfig::corrupted(n, rounds, seed))
        .map_err(|e| e.to_string())
        .ok()?;
    thm4_compiled(
        &out.history,
        &RepeatedConsensusSpec::agreement_only(),
        bound,
    )
}

/// The ◇S detector from a fully poisoned state (everyone believes
/// everyone else dead at `v = 10^9`), with `p0` genuinely crashing and an
/// [`AdversaryScheduler`] stretching every message touching `p1` to the
/// maximum admissible delay. Theorem 5: completeness and accuracy settle
/// anyway.
fn slow_coterie_async(n: usize, seed: u64) -> Option<String> {
    let crash_at: Time = 500;
    let crashes: Vec<(ProcessId, Time)> = vec![(ProcessId(0), crash_at)];
    let oracle = WeakOracle::new(n, crashes.clone(), 0, seed, 0.0);
    let mut procs: Vec<StrongDetectorProcess> = (0..n)
        .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
        .collect();
    for (i, p) in procs.iter_mut().enumerate() {
        poison_tables(&mut p.num, &mut p.state, i);
    }
    let mut cfg = AsyncConfig::tame(seed);
    cfg.crashes = crashes.clone();
    let sched = AdversaryScheduler::new([ProcessId(1)]);
    let mut runner = match AsyncRunner::with_scheduler(procs, cfg, sched) {
        Ok(r) => r,
        Err(e) => return Some(format!("thm5: bad config: {e}")),
    };
    let mut probes = Vec::new();
    runner.run_probed(8_000, 200, |t, ps| probes.push(SuspectProbe::sample(t, ps)));
    let crashed = ProcessSet::from_iter_n(n, crashes.iter().map(|&(p, _)| p));
    let correct = crashed.complement();
    thm5_detector(&probes, &crashed, &correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_rejects_tiny_n() {
        assert!(run_battery(&BatteryConfig::new(2, 1, 1)).is_err());
    }

    #[test]
    fn battery_rejects_zero_seeds() {
        let err = run_battery(&BatteryConfig::new(5, 0, 1)).unwrap_err();
        assert!(err.contains("--seeds must be at least 1"), "{err}");
    }

    #[test]
    fn every_scenario_passes_at_default_size() {
        let rows = run_battery(&BatteryConfig::new(5, 2, 1)).unwrap();
        assert_eq!(rows.len(), SCENARIOS.len() * 2);
        for r in &rows {
            assert!(r.verdict.is_none(), "{r}");
        }
    }
}
