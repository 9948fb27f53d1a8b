//! The soak engine: drives every cell of a plan through its simulator,
//! verifies recovery after each storm epoch, and assembles the
//! deterministic JSONL soak report.
//!
//! ## Epoch model
//!
//! Synchronous cells run **one long execution** of
//! `epochs × epoch_len` rounds. Epoch `e` opens with a storm: a
//! systemic corruption burst at its first round (epoch 0's burst is the
//! run's initial corruption) plus the cycled [`StormKind`] fired by
//! [`ftss::sync_sim::StormAdversary`] for the storm window. The rest of
//! the epoch is the recovery window, verified with
//! [`ftss_check::window_stabilization`] measured **from the end of the
//! storm** — Theorem 3's bound for round agreement, Theorem 4's
//! `2·final_round + 2` for the compiled `Π⁺`. An [`EpochJudge`] rides
//! the run and closes each epoch the moment its last round lands; a
//! verdict reads nothing older than its own epoch, so every history,
//! simulated or served, retains `epoch_len` rounds and no more.
//!
//! Asynchronous cells run the ◇S detector over
//! `epochs × epoch_time` virtual time; each epoch opens with a
//! scheduled mid-run corruption and is verified against Theorem 5's
//! settle properties on that epoch's probes, the only ones held.
//!
//! ## Determinism
//!
//! The report carries **no wall-clock values** — every stamp is a round
//! or a virtual time — so the same plan, epochs and seed produce the
//! same bytes on any machine and any `--jobs` value (cells merge in
//! canonical order via [`ftss_sweep::try_map_cells`]). The only
//! nondeterministic escape hatch is the wall-clock watchdog, whose
//! verdict replaces the cell fragment with a bare budget line.

use crate::guard::{with_watchdog, SoakBudget, WatchdogOutcome};
use crate::plan::{
    burst_seed, join_seed, SoakCell, SoakPlan, SoakScenario, StormGeometry, StormScenario,
};
use crate::verdict::{CellReport, ChurnStamps, EpochJudge, EpochVerdict, SoakVerdict};
use ftss::async_sim::{AdversaryScheduler, AsyncConfig, AsyncRunner, Scheduler, Time};
use ftss::compiler::{trace_events, Compiled};
use ftss::core::{
    saturating_round_index, Corrupt, Problem, ProcessId, ProcessSet, RateAgreementSpec, StormKind,
};
use ftss::detectors::{
    eventual_weak_accuracy, poison_tables, strong_completeness_time, suspicion_events,
    StrongDetectorProcess, SuspectProbe, WeakOracle,
};
use ftss::protocols::{FloodSet, RepeatedConsensusSpec, RoundAgreement};
use ftss::sync_sim::{RunOutcome, SyncProtocol, SyncRunner};
use ftss::telemetry::{Event, NullSink, RunMode, TraceSink};
use ftss_serve::{serve_streaming_with_stats, ServeConfig, ServeStats, TransportKind, Wire};
use std::fmt::Write as _;

/// One soak campaign's parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// The plan to run.
    pub plan: SoakPlan,
    /// Worker threads for the cell fan-out.
    pub jobs: usize,
    /// Per-cell budgets.
    pub budget: SoakBudget,
}

/// A finished soak campaign.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// Per-cell reports, in the plan's canonical cell order.
    pub cells: Vec<CellReport>,
}

impl SoakOutcome {
    /// Whether every cell fully recovered after every epoch.
    pub fn all_recovered(&self) -> bool {
        self.cells.iter().all(|c| c.verdict.is_recovered())
    }

    /// The deterministic JSONL soak report: every cell's fragment,
    /// concatenated in canonical cell order.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&c.jsonl);
        }
        out
    }

    /// A human summary, one line per cell plus a final verdict line.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            let recoveries: Vec<String> = c
                .epochs
                .iter()
                .map(|e| match e {
                    EpochVerdict::Recovered { rounds } => rounds.to_string(),
                    EpochVerdict::Violated { .. } => "VIOLATED".into(),
                    EpochVerdict::Livelock { .. } => "LIVELOCK".into(),
                })
                .collect();
            let _ = writeln!(
                out,
                "{:<22} {:<10} recovery per epoch: [{}]",
                c.cell,
                match &c.verdict {
                    SoakVerdict::Recovered => "PASS".to_string(),
                    other => other.to_string(),
                },
                recoveries.join(", ")
            );
        }
        let failed = self.cells.iter().filter(|c| !c.verdict.is_recovered());
        let names: Vec<&str> = failed.map(|c| c.cell.as_str()).collect();
        if names.is_empty() {
            let _ = writeln!(out, "soak: all {} cells recovered", self.cells.len());
        } else {
            let _ = writeln!(
                out,
                "soak: {} of {} cells FAILED: {}",
                names.len(),
                self.cells.len(),
                names.join(", ")
            );
        }
        out
    }
}

/// Runs a soak campaign: every cell of the plan, fanned out over the
/// sweep executor with panic isolation and a per-cell watchdog.
///
/// # Errors
///
/// Rejects empty plans (zero epochs).
pub fn run_soak(cfg: &SoakConfig) -> Result<SoakOutcome, String> {
    if cfg.plan.epochs == 0 {
        return Err("soak: epochs must be at least 1".into());
    }
    let cells = cfg.plan.cells();
    let budget = cfg.budget.clone();
    let results = ftss_sweep::try_map_cells(&cells, cfg.jobs, |cell| {
        let cell = cell.clone();
        let budget = budget.clone();
        let label = cell.label.clone();
        match with_watchdog(budget.wall_ms, move || run_cell(&cell, &budget)) {
            WatchdogOutcome::Completed(report) => report,
            WatchdogOutcome::TimedOut => {
                // The abandoned cell's partial trace is unreachable, so
                // the fragment is a bare budget line — the one report
                // shape that is *not* byte-deterministic, by design.
                let mut jsonl = String::new();
                push_line(
                    &mut jsonl,
                    &Event::BudgetExhausted {
                        at: 0,
                        budget: "wall_clock".into(),
                    },
                );
                CellReport::timed_out(label, "wall_clock", Vec::new(), jsonl)
            }
        }
    });
    let cells = results
        .into_iter()
        .zip(&cells)
        .map(|(res, cell)| match res {
            Ok(report) => report,
            Err(p) => CellReport::panicked(cell.label.clone(), p.message),
        })
        .collect();
    Ok(SoakOutcome { cells })
}

fn run_cell(cell: &SoakCell, budget: &SoakBudget) -> CellReport {
    match cell.scenario {
        SoakScenario::RoundAgreement => run_round_agreement(cell, budget),
        SoakScenario::Compiled => run_compiled(cell, budget),
        SoakScenario::Detector => run_detector(cell, budget),
        SoakScenario::Restart => run_restart(cell, budget),
    }
}

fn push_line(out: &mut String, ev: &Event) {
    ev.write_jsonl(out);
    out.push('\n');
}

/// Opens a cell's report fragment with its `run_start` line. A
/// synchronous cell (`rounds` given) whose horizon exceeds the round
/// budget is cut short here, before it runs.
fn open_report(
    cell: &SoakCell,
    mode: RunMode,
    rounds: Option<u64>,
    budget: &SoakBudget,
) -> Result<String, CellReport> {
    let mut jsonl = String::new();
    push_line(
        &mut jsonl,
        &Event::RunStart {
            mode,
            protocol: cell.label.clone(),
            n: cell.n,
            rounds,
            msg_size: None,
        },
    );
    if rounds.is_some_and(|r| r > budget.max_rounds) {
        push_line(
            &mut jsonl,
            &Event::BudgetExhausted {
                at: 0,
                budget: "rounds".into(),
            },
        );
        return Err(CellReport::timed_out(
            cell.label.clone(),
            "rounds",
            Vec::new(),
            jsonl,
        ));
    }
    Ok(jsonl)
}

fn bad_config(cell: &SoakCell, detail: &dyn std::fmt::Display, jsonl: String) -> CellReport {
    let detail = format!("bad soak run config: {detail}");
    CellReport::from_epochs(
        cell.label.clone(),
        vec![EpochVerdict::Violated { detail }],
        jsonl,
    )
}

// ---------------------------------------------------------------------
// Synchronous cells
// ---------------------------------------------------------------------

/// Report lines for epoch `e`'s storm window `span = (start, end)`:
/// start, the opening burst, the joiners' entry corruption in the round
/// after a `Join` storm closes, end.
fn push_storm_lines(jsonl: &mut String, seed: u64, e: usize, kind: StormKind, span: (u64, u64)) {
    let (epoch, (start, end)) = (e as u64, span);
    push_line(
        jsonl,
        &Event::StormStart {
            epoch,
            at: start,
            kind: kind.name().into(),
        },
    );
    push_line(
        jsonl,
        &Event::Corruption {
            round: start,
            seed: burst_seed(seed, epoch),
        },
    );
    if kind == StormKind::Join {
        push_line(
            jsonl,
            &Event::Corruption {
                round: end + 1,
                seed: join_seed(seed, epoch),
            },
        );
    }
    push_line(jsonl, &Event::StormEnd { epoch, at: end });
}

/// The churn a cell's quiescence is judged on: the stamps of its
/// suspicion flips.
fn suspicion_stamps(events: &[Event]) -> Vec<u64> {
    let at = |ev: &Event| match ev {
        Event::Suspicion { at, .. } => Some(*at),
        _ => None,
    };
    events.iter().filter_map(at).collect()
}

/// Round agreement under the full storm cycle. Victims are a strict
/// minority (the coterie survives every partition); recovery is Theorem
/// 3's bound, measured from the end of each storm.
///
/// The bound is 2, not 1: when a dropping storm closes, the victims'
/// still-corrupted counters reach the correct processes only on the
/// *heal round* (the first round after the last drop) — that round is
/// the epoch's final perturbation, and Theorem 3's one-round
/// stabilization counts from it.
///
/// Round agreement emits no churn stamps, so the quiescence monitor is a
/// no-op here.
fn run_round_agreement(cell: &SoakCell, budget: &SoakBudget) -> CellReport {
    let (seed, epochs, n) = (cell.seed, cell.epochs, cell.n);
    let victims = [ProcessId(0), ProcessId(1)];
    let geom = StormGeometry::engine_default();
    let sc = StormScenario::new(seed, epochs, n, cell.cycle(), &victims, geom, 2);
    let spec = RateAgreementSpec::new();
    run_storm_cell(cell, budget, sc, RoundAgreement, None, &spec, None)
}

/// The compiled `Π⁺` (FloodSet, `f = 1`) under the storm cycle with a
/// single victim. Recovery is Theorem 4's `2·final_round + 2`, measured
/// from the end of each storm (the storm's last failure is no later
/// than its closing round, so the bound is conservative). Livelock is
/// judged on the suspicion churn of the compiled trace — the batch
/// [`trace_events`] over the one retained epoch, of which the monitor
/// reads only the tail quarter.
fn run_compiled(cell: &SoakCell, budget: &SoakBudget) -> CellReport {
    let inputs: Vec<u64> = (0..cell.n as u64)
        .map(|i| (i * 17 + cell.seed) % 100)
        .collect();
    let pi = Compiled::new(FloodSet::new(1, inputs));
    let bound = 2 * saturating_round_index(pi.final_round()) as u64 + 2;
    let geom = StormGeometry {
        storm_len: 3,
        epoch_len: bound + 9,
    };
    let (seed, epochs, n) = (cell.seed, cell.epochs, cell.n);
    let sc = StormScenario::new(seed, epochs, n, cell.cycle(), &[ProcessId(0)], geom, bound);
    let spec = RepeatedConsensusSpec::agreement_only();
    let stamps: ChurnStamps<_, _> = |history| suspicion_stamps(&trace_events(history));
    run_storm_cell(cell, budget, sc, pi, None, &spec, Some(stamps))
}

/// Served round agreement (`mem` transport, real router and node
/// threads) under the restart cycle: a kill/respawn episode in epoch 0
/// and a timing storm in every epoch but the burst's, each verified
/// with Theorem 3's oracle from [`StormScenario::window_from`].
fn run_restart(cell: &SoakCell, budget: &SoakBudget) -> CellReport {
    let (seed, epochs, n) = (cell.seed, cell.epochs, cell.n);
    let geom = StormGeometry::engine_default();
    let sc = StormScenario::new(seed, epochs, n, cell.cycle(), &[ProcessId(0)], geom, 2);
    let (spec, mem) = (RateAgreementSpec::new(), Some(TransportKind::Mem));
    run_storm_cell(cell, budget, sc, RoundAgreement, mem, &spec, None)
}

/// A round-driven cell: its scenario driven on the simulator or the
/// `transport`, its report assembled from the judge's verdicts. The
/// history keeps one epoch of rounds — all the judge reads — and recycles
/// the evicted frames, so no execution is ever resident whole, at `n = 6`
/// or at the large-n plan's `n = 4096`.
fn run_storm_cell<P>(
    cell: &SoakCell,
    budget: &SoakBudget,
    mut sc: StormScenario,
    protocol: P,
    transport: Option<TransportKind>,
    spec: &dyn Problem<P::State, P::Msg>,
    churn_stamps: Option<ChurnStamps<P::State, P::Msg>>,
) -> CellReport
where
    P: SyncProtocol + Clone + Send + 'static,
    P::State: Wire + Corrupt + Send + 'static,
    P::Msg: Wire + Send + 'static,
{
    let mut jsonl = match open_report(cell, RunMode::Sync, Some(sc.run.rounds as u64), budget) {
        Ok(jsonl) => jsonl,
        Err(report) => return report,
    };
    sc.run.history_window = Some(sc.geom.epoch_len as usize);
    let judge = match sc.drive(protocol, transport, spec, churn_stamps, &mut NullSink) {
        Ok((_, judge)) => judge,
        Err(e) => return bad_config(cell, &e, jsonl),
    };
    for (e, (line, _)) in judge.closed().iter().enumerate() {
        let span = (sc.geom.storm_start(e), sc.geom.storm_end(e));
        push_storm_lines(&mut jsonl, cell.seed, e, sc.cycle[e % 4], span);
        push_line(&mut jsonl, line);
    }
    CellReport::from_epochs(cell.label.clone(), judge.verdicts(), jsonl)
}

impl StormScenario {
    /// The one driver of a judged storm run: the simulator when no
    /// `transport` is given, a served session over it otherwise (which
    /// alone renders the restart episode) — the same round kernel either
    /// way, an [`EpochJudge`] riding it as the streaming observer and
    /// closing each epoch the moment its last round lands. Returns the
    /// run's outcome and the judge with every epoch closed.
    ///
    /// # Errors
    ///
    /// A restart episode with no `transport`, the simulator's
    /// configuration errors, plus a served session's transport and wire
    /// failures.
    #[allow(clippy::type_complexity)] // a pair: the run's outcome and its verdicts
    pub fn drive<P, T>(
        &self,
        protocol: P,
        transport: Option<TransportKind>,
        spec: &dyn Problem<P::State, P::Msg>,
        churn_stamps: Option<ChurnStamps<P::State, P::Msg>>,
        sink: &mut T,
    ) -> Result<(RunOutcome<P::State, P::Msg>, EpochJudge), String>
    where
        P: SyncProtocol + Clone + Send + 'static,
        P::State: Wire + Corrupt + Send + 'static,
        P::Msg: Wire + Send + 'static,
        T: TraceSink,
    {
        if transport.is_none() && self.restart.is_some() {
            return Err("the restart cycle's restart episode needs a served transport".into());
        }
        let mut judge = EpochJudge::new(self.geom, self.bound);
        let mut adversary = self.adversary.clone();
        let on_round = |history: &_| judge.on_round(self, history, spec, churn_stamps);
        let outcome = match transport {
            None => SyncRunner::new(protocol)
                .run_streaming(&mut adversary, &self.run, sink, on_round)
                .map_err(|e| e.to_string())?,
            Some(transport) => {
                let mut cfg = ServeConfig::new(self.run.clone(), transport);
                cfg.restart = self.restart;
                let stats = &mut ServeStats::default();
                serve_streaming_with_stats(&protocol, &mut adversary, &cfg, sink, on_round, stats)?
            }
        };
        Ok((outcome, judge))
    }
}

// ---------------------------------------------------------------------
// The asynchronous cell
// ---------------------------------------------------------------------

/// Virtual time per detector epoch.
const EPOCH_TIME: Time = 6_000;
/// Probe interval for suspect-set sampling.
const PROBE_EVERY: Time = 200;
/// Heartbeat/poll period of the detector under soak.
const HEARTBEAT: Time = 20;

/// The ◇S detector: every epoch opens with a scheduled mid-run
/// corruption; epoch 1 (or epoch 0 of a 1-epoch soak) also carries a
/// real crash. The worst-case plan starts fully poisoned and runs under
/// an [`AdversaryScheduler`] whose inflation window covers the first
/// half of the horizon.
fn run_detector(cell: &SoakCell, budget: &SoakBudget) -> CellReport {
    let n = cell.n;
    let horizon = EPOCH_TIME * cell.epochs as u64;
    let crash_at: Time = if cell.epochs >= 2 {
        EPOCH_TIME + 500
    } else {
        500
    };
    let crashes: Vec<(ProcessId, Time)> = vec![(ProcessId(n - 1), crash_at)];
    let oracle = WeakOracle::new(n, crashes.clone(), 0, cell.seed, 0.0);
    let mut procs: Vec<StrongDetectorProcess> = (0..n)
        .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), HEARTBEAT))
        .collect();
    if cell.worst_case {
        // The battery's fully poisoned start: everyone believes everyone
        // else dead at a huge version.
        for (i, p) in procs.iter_mut().enumerate() {
            poison_tables(&mut p.num, &mut p.state, i);
        }
    }
    let mut cfg = AsyncConfig::tame(cell.seed);
    cfg.crashes = crashes.clone();
    if cell.worst_case {
        let sched = AdversaryScheduler::new([ProcessId(1)]).with_window(0, horizon / 2);
        match AsyncRunner::with_scheduler(procs, cfg, sched) {
            Ok(runner) => drive_detector(cell, budget, runner, &crashes),
            Err(e) => bad_config(cell, &e, String::new()),
        }
    } else {
        match AsyncRunner::new(procs, cfg) {
            Ok(runner) => drive_detector(cell, budget, runner, &crashes),
            Err(e) => bad_config(cell, &e, String::new()),
        }
    }
}

/// The storm label for a detector epoch: delay inflation while the
/// worst-case scheduler's window is open, a bare burst otherwise.
fn detector_storm_kind(cell: &SoakCell, e: usize) -> StormKind {
    let horizon = EPOCH_TIME * cell.epochs as u64;
    if cell.worst_case && (e as u64 * EPOCH_TIME) < horizon / 2 {
        StormKind::DelayInflation
    } else {
        StormKind::CorruptionBurst
    }
}

fn drive_detector<S: Scheduler>(
    cell: &SoakCell,
    budget: &SoakBudget,
    mut runner: AsyncRunner<StrongDetectorProcess, S>,
    crashes: &[(ProcessId, Time)],
) -> CellReport {
    let n = cell.n;
    let mut jsonl = match open_report(cell, RunMode::Async, None, budget) {
        Ok(jsonl) => jsonl,
        Err(report) => return report,
    };
    // Virtual-time epochs with no storm window: `(storm_end, epoch_end]`
    // is the whole epoch.
    let geom = StormGeometry {
        storm_len: 0,
        epoch_len: EPOCH_TIME,
    };
    for e in 0..cell.epochs {
        // Epoch 0's burst fires at t = 1: the detector must boot *into*
        // an arbitrary state, like the synchronous initial corruption.
        runner.schedule_corruption(geom.storm_end(e).max(1), burst_seed(cell.seed, e as u64));
    }

    let mut judge = EpochJudge::new(geom, EPOCH_TIME);
    let mut probes: Vec<SuspectProbe> = Vec::new();
    for e in 0..cell.epochs {
        // Only this epoch's probes are ever held: it is judged right here.
        let (lo, hi) = (geom.storm_end(e), geom.epoch_end(e));
        probes.clear();
        runner.run_probed(hi, PROBE_EVERY, |t, ps| {
            if t > lo {
                probes.push(SuspectProbe::sample(t, ps));
            }
        });
        let at = lo.max(1);
        push_storm_lines(
            &mut jsonl,
            cell.seed,
            e,
            detector_storm_kind(cell, e),
            (at, at),
        );
        for &(p, t) in crashes {
            if t > lo && t <= hi {
                push_line(&mut jsonl, &Event::Crash { at: t, p });
            }
        }
        let crashed = ProcessSet::from_iter_n(
            n,
            crashes.iter().filter(|&&(_, t)| t <= hi).map(|&(p, _)| p),
        );
        let correct = crashed.complement();
        let comp = strong_completeness_time(&probes, &crashed, &correct);
        let acc = eventual_weak_accuracy(&probes, &correct);
        let never = |what: &str| Err(format!("thm5: {what} never settled in epoch {e}"));
        let measured = match (comp, acc) {
            (None, _) if !crashed.is_empty() => never("strong completeness"),
            (_, Some((_, acc_t))) => Ok(comp.unwrap_or(acc_t).max(acc_t) - lo),
            (_, None) => never("eventual weak accuracy"),
        };
        let stamps = suspicion_stamps(&suspicion_events(&probes));
        push_line(&mut jsonl, judge.close(measured, &stamps, n));

        let st = runner.stats();
        let consumed = st.messages_delivered + st.messages_to_crashed + st.timers_fired;
        if consumed > budget.max_events {
            let tripped = Event::BudgetExhausted {
                at: runner.now(),
                budget: "events".into(),
            };
            push_line(&mut jsonl, &tripped);
            return CellReport::timed_out(cell.label.clone(), "events", judge.verdicts(), jsonl);
        }
    }
    CellReport::from_epochs(cell.label.clone(), judge.verdicts(), jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::restart_cycle;

    fn quick_config(plan: SoakPlan) -> SoakConfig {
        SoakConfig {
            plan,
            jobs: 1,
            budget: SoakBudget::default(),
        }
    }

    #[test]
    fn rejects_zero_epochs() {
        assert!(run_soak(&quick_config(SoakPlan::default_plan(0, 0))).is_err());
    }

    #[test]
    fn round_budget_trips_deterministically() {
        let mut cfg = quick_config(SoakPlan::default_plan(2, 0));
        cfg.budget.max_rounds = 5;
        let out = run_soak(&cfg).unwrap();
        assert!(!out.all_recovered());
        let ra = &out.cells[0];
        assert_eq!(ra.verdict, SoakVerdict::TimedOut { budget: "rounds" });
        assert!(
            ra.jsonl
                .contains(r#"{"type":"budget_exhausted","at":0,"budget":"rounds"}"#),
            "{}",
            ra.jsonl
        );
    }

    #[test]
    fn default_plan_single_epoch_recovers_and_reports() {
        let out = run_soak(&quick_config(SoakPlan::default_plan(1, 3))).unwrap();
        assert!(out.all_recovered(), "summary:\n{}", out.summary());
        assert_eq!(out.cells.len(), 6);
        let report = out.report();
        // One run_start per cell, one recovery verdict per cell-epoch.
        assert_eq!(report.matches(r#""type":"run_start""#).count(), 6);
        assert_eq!(report.matches(r#""type":"recovery_measured""#).count(), 6);
        assert_eq!(report.matches(r#""ok":true"#).count(), 6);
        // No wall-clock values can exist: every line must parse back.
        for line in report.lines() {
            ftss::telemetry::Event::parse_line(line).expect("report lines are valid events");
        }
    }

    #[test]
    fn churn_soak_recovers_across_join_and_leave_epochs() {
        // Four epochs cover the whole churn cycle: a node joins with an
        // arbitrary entry state, an omission storm passes, a node leaves,
        // and a global corruption burst fires. Every epoch must re-
        // stabilize within the theorem bound.
        let out = run_soak(&quick_config(SoakPlan::churn(4, 5))).unwrap();
        assert!(out.all_recovered(), "summary:\n{}", out.summary());
        // No async detector cells under churn.
        assert_eq!(out.cells.len(), 4);
        let report = out.report();
        // The Join epoch adds one extra corruption line (the joiner's
        // arbitrary entry state) on top of the initial corruption and the
        // per-epoch bursts; over 4 cells x 4 epochs with epoch 0
        // burst-free that is (1 + 3 + 1) * 4.
        assert_eq!(report.matches(r#""type":"corruption""#).count(), 20);
        assert_eq!(report.matches(r#""type":"recovery_measured""#).count(), 16);
        assert_eq!(report.matches(r#""ok":true"#).count(), 16);
        for line in report.lines() {
            ftss::telemetry::Event::parse_line(line).expect("report lines are valid events");
        }
    }

    #[test]
    fn churn_report_is_deterministic() {
        let a = run_soak(&quick_config(SoakPlan::churn(4, 5))).unwrap();
        let mut cfg = quick_config(SoakPlan::churn(4, 5));
        cfg.jobs = 4;
        let b = run_soak(&cfg).unwrap();
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn restart_soak_kills_respawns_and_restabilizes_every_epoch() {
        // Four epochs cover the whole restart cycle: a delay storm (with
        // the crash–restart episode inside it), a duplicate storm, a
        // reorder storm, and a bare corruption burst. Every epoch must
        // re-stabilize within the theorem bound, through a real router
        // and real node threads.
        let out = run_soak(&quick_config(SoakPlan::restart(4, 5))).unwrap();
        assert!(out.all_recovered(), "summary:\n{}", out.summary());
        assert_eq!(out.cells.len(), 2);
        let report = out.report();
        assert_eq!(report.matches(r#""type":"run_start""#).count(), 2);
        // One burst line per cell-epoch (epoch 0's is the initial
        // corruption); the restart cycle schedules no join corruption.
        assert_eq!(report.matches(r#""type":"corruption""#).count(), 8);
        assert_eq!(report.matches(r#""type":"recovery_measured""#).count(), 8);
        assert_eq!(report.matches(r#""ok":true"#).count(), 8);
        assert_eq!(report.matches(r#""kind":"delay""#).count(), 2);
        assert_eq!(report.matches(r#""kind":"duplicate""#).count(), 2);
        assert_eq!(report.matches(r#""kind":"reorder""#).count(), 2);
        for line in report.lines() {
            ftss::telemetry::Event::parse_line(line).expect("report lines are valid events");
        }
    }

    #[test]
    fn restart_report_is_deterministic() {
        // The acceptance bar: the mem-transport restart soak produces the
        // same bytes on reruns and across --jobs (real threads and a real
        // router notwithstanding).
        let a = run_soak(&quick_config(SoakPlan::restart(4, 5))).unwrap();
        let mut cfg = quick_config(SoakPlan::restart(4, 5));
        cfg.jobs = 4;
        let b = run_soak(&cfg).unwrap();
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn large_n_plan_runs_windowed_cell() {
        // The real plan pins n = 4096; that soak belongs to verify.sh's
        // release-build smoke. Here we drive the same code path through a
        // shrunken clone of the plan's single cell.
        let mut cell = SoakPlan::large_n(2, 7).cells().remove(0);
        cell.n = 8;
        let report = run_cell(&cell, &SoakBudget::default());
        assert!(report.verdict.is_recovered(), "{}", report.jsonl);
        // The fragment's bytes, as recorded at PR 16's parent commit.
        assert_eq!(
            ftss_check::Fingerprinter::new().fingerprint(report.jsonl.as_bytes()),
            0x2d88_e309_aae0_20c8_9721_3123_c223_1c7b,
            "{}",
            report.jsonl
        );
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(
            report
                .jsonl
                .matches(r#""type":"recovery_measured""#)
                .count(),
            2
        );
        for line in report.jsonl.lines() {
            ftss::telemetry::Event::parse_line(line).expect("report lines are valid events");
        }
    }

    /// The simulator has no restart episode to render: a scenario that
    /// carries one is refused there, not run without it.
    #[test]
    fn restart_episode_fails_closed_on_the_simulator() {
        let geom = StormGeometry::engine_default();
        let sc = StormScenario::new(1, 1, 3, restart_cycle(), &[ProcessId(0)], geom, 2);
        assert!(sc.restart.is_some());
        let spec = RateAgreementSpec::new();
        let Err(err) = sc.drive(RoundAgreement, None, &spec, None, &mut NullSink) else {
            panic!("a restart episode ran on the simulator");
        };
        assert!(
            err.contains("restart episode needs a served transport"),
            "{err}"
        );
    }

    #[test]
    fn summary_names_every_cell() {
        let out = run_soak(&quick_config(SoakPlan::default_plan(1, 0))).unwrap();
        let summary = out.summary();
        for cell in &out.cells {
            assert!(
                summary.contains(&cell.cell),
                "missing {}: {summary}",
                cell.cell
            );
        }
        assert!(summary.contains("all 6 cells recovered"), "{summary}");
    }
}
