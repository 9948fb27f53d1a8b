//! Storm plans: which scenarios soak, under which storm cycle, at which
//! seeds.
//!
//! A plan expands to a list of independent [`SoakCell`]s — pure
//! functions of `(scenario, seed, epochs)` — that the engine fans out
//! over the sweep executor. Five plans ship:
//!
//! * **default** — the storm cycle at moderate intensity (60% omission
//!   storms, untargeted asynchronous scheduling),
//! * **worst-case** — 90% omission storms, a fully poisoned detector
//!   start, and an [`ftss::async_sim::AdversaryScheduler`] inflating
//!   every delay that touches a victim for the first half of the run,
//! * **large-n** — one round-agreement cell at `n = 4096`. Like every
//!   cell it runs on a one-epoch history window, each epoch judged the
//!   moment its last round lands; this is the soak that proves the
//!   struct-of-arrays engine sustains thousands of processes without
//!   retaining the full execution,
//! * **churn** — the synchronous scenarios under `churn_cycle`
//!   (joins entering with arbitrary state, clean leaves),
//! * **restart** — served round agreement through [`restart_cycle`]:
//!   crash–restart kills with damaged-snapshot respawns, cycled against
//!   delay/duplicate/reorder timing storms. The only plan that soaks
//!   `ftss-serve` itself.
//!
//! Every round-driven cell, and `ftss-lab serve --storm`, is one
//! [`StormScenario`]: the storm program, adversary, run and window origins
//! of a judged run, built in one place.

use ftss::core::{ProcessId, StormKind, StormPhase};
use ftss::sync_sim::{CorruptionSchedule, RunConfig, StormAdversary};
use ftss_serve::{Retry, ServeRestart, SnapshotFault};

/// Which execution a soak cell drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoakScenario {
    /// Round agreement on the synchronous simulator: Theorem 3's
    /// one-round recovery after every storm epoch.
    RoundAgreement,
    /// The compiled `Π⁺` (FloodSet, `f = 1`) on the synchronous
    /// simulator: Theorem 4's `2·final_round + 2` recovery bound.
    Compiled,
    /// The self-stabilizing ◇S detector on the asynchronous simulator:
    /// Theorem 5's settle properties per epoch.
    Detector,
    /// Round agreement on the `ftss-serve` socket runtime (`mem`
    /// transport): one crash–restart episode at the head of the run plus
    /// the storm adversary's timing storms cycled per epoch,
    /// each epoch checked with the Theorem 3 window oracle measured from
    /// the last perturbation that can touch it.
    Restart,
}

impl SoakScenario {
    /// Stable name, used in cell labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            SoakScenario::RoundAgreement => "round-agreement",
            SoakScenario::Compiled => "compiled-floodset",
            SoakScenario::Detector => "strong-detector",
            SoakScenario::Restart => "serve-restart",
        }
    }
}

/// One independent soak execution: a pure function of this struct.
#[derive(Clone, Debug)]
pub struct SoakCell {
    /// Which execution.
    pub scenario: SoakScenario,
    /// Report label, `scenario/vK`.
    pub label: String,
    /// System size.
    pub n: usize,
    /// The cell's seed (drives corruption, omission draws and the
    /// asynchronous scheduler).
    pub seed: u64,
    /// Storm epochs to run.
    pub epochs: usize,
    /// Whether the worst-case intensities apply.
    pub worst_case: bool,
    /// Whether the cell cycles the membership-churn storms
    /// (`churn_cycle`: joins entering with arbitrary state, clean
    /// leaves) instead of the stock [`storm_cycle`].
    pub churn: bool,
}

/// System size of the large-n plan's single cell.
const LARGE_N: usize = 4096;

/// A named soak plan.
#[derive(Clone, Debug)]
pub struct SoakPlan {
    /// Plan name (`default`, `worst-case`, `large-n`, `churn` or
    /// `restart`).
    pub name: &'static str,
    /// Storm epochs per cell.
    pub epochs: usize,
    /// Base seed; cell seeds derive from it.
    pub seed: u64,
    /// Whether the worst-case intensities apply.
    pub worst_case: bool,
    /// Whether the cells cycle membership churn (`churn_cycle`).
    pub churn: bool,
}

/// Seed variants per scenario in a plan.
const VARIANTS: u64 = 2;

impl SoakPlan {
    /// Every name [`Self::by_name`] resolves, in help-display order.
    pub const NAMES: [&'static str; 5] = ["default", "worst-case", "large-n", "churn", "restart"];

    /// The default plan: moderate storm intensity.
    pub fn default_plan(epochs: usize, seed: u64) -> Self {
        SoakPlan {
            name: "default",
            epochs,
            seed,
            worst_case: false,
            churn: false,
        }
    }

    /// The worst-case plan: maximum admissible storm intensity.
    pub fn worst_case(epochs: usize, seed: u64) -> Self {
        SoakPlan {
            name: "worst-case",
            epochs,
            seed,
            worst_case: true,
            churn: false,
        }
    }

    /// The large-n plan: one round-agreement cell at `LARGE_N`
    /// processes.
    pub fn large_n(epochs: usize, seed: u64) -> Self {
        SoakPlan {
            name: "large-n",
            epochs,
            seed,
            worst_case: false,
            churn: false,
        }
    }

    /// The churn plan: the synchronous scenarios under `churn_cycle` —
    /// joins entering with seeded arbitrary state, clean leaves.
    pub fn churn(epochs: usize, seed: u64) -> Self {
        SoakPlan {
            name: "churn",
            epochs,
            seed,
            worst_case: false,
            churn: true,
        }
    }

    /// The restart plan: served round agreement under [`restart_cycle`] —
    /// crash–restart kills, damaged-snapshot respawns, and timing
    /// storms.
    pub fn restart(epochs: usize, seed: u64) -> Self {
        SoakPlan {
            name: "restart",
            epochs,
            seed,
            worst_case: false,
            churn: false,
        }
    }

    /// Looks a plan up by CLI name.
    ///
    /// # Errors
    ///
    /// Unknown plan names.
    pub fn by_name(name: &str, epochs: usize, seed: u64) -> Result<Self, String> {
        match name {
            "default" => Ok(Self::default_plan(epochs, seed)),
            "worst-case" => Ok(Self::worst_case(epochs, seed)),
            "large-n" => Ok(Self::large_n(epochs, seed)),
            "churn" => Ok(Self::churn(epochs, seed)),
            "restart" => Ok(Self::restart(epochs, seed)),
            other => Err(format!(
                "unknown soak plan {other:?} (expected one of {:?})",
                Self::NAMES
            )),
        }
    }

    /// Expands the plan into its cells, in canonical report order.
    pub fn cells(&self) -> Vec<SoakCell> {
        if self.name == "large-n" {
            return vec![SoakCell {
                scenario: SoakScenario::RoundAgreement,
                label: format!("{}/n{LARGE_N}", SoakScenario::RoundAgreement.name()),
                n: LARGE_N,
                seed: self.seed,
                epochs: self.epochs,
                worst_case: false,
                churn: false,
            }];
        }
        if self.name == "restart" {
            // Two seed variants of one served scenario: the soak runs the
            // real router (mem transport), so cells stay small.
            return (0..VARIANTS)
                .map(|v| SoakCell {
                    scenario: SoakScenario::Restart,
                    label: format!("{}/v{v}", SoakScenario::Restart.name()),
                    n: 3,
                    seed: self.seed.wrapping_add(v.wrapping_mul(0x9e37_79b9)),
                    epochs: self.epochs,
                    worst_case: false,
                    churn: false,
                })
                .collect();
        }
        // Churn renders as synchronous omission windows plus targeted
        // join corruption; the asynchronous detector cell has no churn
        // rendering, so the churn plan covers the two sync scenarios.
        let scenarios: &[(SoakScenario, usize)] = if self.churn {
            &[
                (SoakScenario::RoundAgreement, 6),
                (SoakScenario::Compiled, 5),
            ]
        } else {
            &[
                (SoakScenario::RoundAgreement, 6),
                (SoakScenario::Compiled, 5),
                (SoakScenario::Detector, 5),
            ]
        };
        let mut out = Vec::with_capacity(scenarios.len() * VARIANTS as usize);
        for &(scenario, n) in scenarios {
            for v in 0..VARIANTS {
                let tag = if self.churn { "churn-v" } else { "v" };
                out.push(SoakCell {
                    scenario,
                    label: format!("{}/{tag}{v}", scenario.name()),
                    n,
                    seed: self.seed.wrapping_add(v.wrapping_mul(0x9e37_79b9)),
                    epochs: self.epochs,
                    worst_case: self.worst_case,
                    churn: self.churn,
                });
            }
        }
        out
    }
}

impl SoakCell {
    /// The storm cycle of a round-driven cell: the timing kinds for
    /// served restart cells, membership churn for churn cells, the stock
    /// cycle otherwise.
    pub fn cycle(&self) -> [StormKind; 4] {
        if self.scenario == SoakScenario::Restart {
            restart_cycle()
        } else if self.churn {
            churn_cycle(self.worst_case)
        } else {
            storm_cycle(self.worst_case)
        }
    }
}

/// The synchronous storm cycle: epoch `e` fires `cycle[e % 4]`. Every
/// epoch *additionally* opens with a corruption burst, so the pure
/// [`StormKind::CorruptionBurst`] slot is the burst-only epoch.
pub fn storm_cycle(worst_case: bool) -> [StormKind; 4] {
    let percent = if worst_case { 90 } else { 60 };
    [
        StormKind::Partition,
        StormKind::OmissionStorm { percent },
        StormKind::SilenceChurn,
        StormKind::CorruptionBurst,
    ]
}

/// The membership-churn storm cycle: epoch `e` fires `cycle[e % 4]`.
/// Joins and leaves replace the partition/silence slots; every epoch
/// still opens with a corruption burst, and the joiners *additionally*
/// get a targeted corruption in the round after their window closes —
/// the arbitrary entry state of a process joining mid-execution.
fn churn_cycle(worst_case: bool) -> [StormKind; 4] {
    let percent = if worst_case { 90 } else { 60 };
    [
        StormKind::Join,
        StormKind::OmissionStorm { percent },
        StormKind::Leave,
        StormKind::CorruptionBurst,
    ]
}

/// The restart plan's storm cycle: epoch `e` fires `cycle[e % 4]`. The
/// timing kinds are the storm adversary's late copies, which the round
/// kernel renders on the simulator and on a served session alike; every
/// epoch still opens with a corruption burst, and the engine's restart
/// cell *additionally* kills and respawns its victim once, inside epoch
/// 0, which only a served session renders.
pub fn restart_cycle() -> [StormKind; 4] {
    [
        StormKind::Delay { rounds: 2 },
        StormKind::Duplicate,
        StormKind::Reorder,
        StormKind::CorruptionBurst,
    ]
}

/// The corruption seed for a cell's epoch `e` burst: distinct per epoch,
/// derived only from the cell seed, so reports are reproducible.
pub fn burst_seed(cell_seed: u64, epoch: u64) -> u64 {
    cell_seed ^ 0xb127 ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The corruption seed for epoch `e`'s joiners' arbitrary entry state —
/// distinct from every [`burst_seed`] (different xor tag), derived only
/// from the cell seed.
pub fn join_seed(cell_seed: u64, epoch: u64) -> u64 {
    cell_seed ^ 0x9014 ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Epoch geometry of the synchronous storm cycle, in rounds: each epoch
/// opens with a [`storm_len`](Self::storm_len)-round storm and recovers
/// for the remainder of its [`epoch_len`](Self::epoch_len) rounds.
///
/// Together with [`storm_program_for`] it reproduces a cell's exact storm
/// schedule on any substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StormGeometry {
    /// Rounds the storm stays open, counted from the epoch's first round.
    pub storm_len: u64,
    /// Total rounds per epoch (storm + recovery window).
    pub epoch_len: u64,
}

impl StormGeometry {
    /// The soak engine's synchronous geometry: 3 storm rounds per
    /// 12-round epoch.
    pub fn engine_default() -> Self {
        StormGeometry {
            storm_len: 3,
            epoch_len: 12,
        }
    }

    /// First round of epoch `e`'s storm (1-based).
    pub fn storm_start(&self, e: usize) -> u64 {
        e as u64 * self.epoch_len + 1
    }

    /// Last round of epoch `e`'s storm.
    pub fn storm_end(&self, e: usize) -> u64 {
        e as u64 * self.epoch_len + self.storm_len
    }

    /// Last round of epoch `e` (recovery window included).
    pub fn epoch_end(&self, e: usize) -> u64 {
        (e as u64 + 1) * self.epoch_len
    }
}

/// A storm program — the mid-run corruption schedule plus the storm
/// phases, one cycle entry per epoch. A pure function of its arguments, so
/// any substrate replaying it injects byte-identical perturbation.
///
/// Epoch 0's corruption burst is **not** scheduled here: it is the run's
/// initial corruption (seed [`burst_seed`]`(seed, 0)`), which the caller
/// injects at round 1; scheduling it again would corrupt round 1 twice. A
/// [`StormKind::Join`] epoch additionally schedules a *targeted*
/// corruption of the victims in the round after the storm window closes
/// (seed [`join_seed`]) — the joiners' arbitrary entry state.
pub fn storm_program_for(
    seed: u64,
    epochs: usize,
    cycle: &[StormKind],
    geom: &StormGeometry,
    victims: &[ProcessId],
) -> (CorruptionSchedule, Vec<StormPhase>) {
    let mut schedule = CorruptionSchedule::none();
    let mut phases = Vec::new();
    for e in 0..epochs {
        let kind = cycle[e % cycle.len()];
        let start = geom.storm_start(e);
        if e > 0 {
            schedule = schedule.at(start, burst_seed(seed, e as u64));
        }
        if kind == StormKind::Join {
            schedule = schedule.at_targeted(
                geom.storm_end(e) + 1,
                join_seed(seed, e as u64),
                victims.iter().copied(),
            );
        }
        // Copy-dropping and timing kinds arm the storm adversary.
        if kind.drops_copies() || kind.is_timing() {
            phases.push(StormPhase::new(start, geom.storm_end(e), kind));
        }
    }
    (schedule, phases)
}

/// One judged storm run, defined once for the soak engine's round-driven
/// cells, `ftss-lab serve --storm` and E11: `epochs` epochs of `cycle`
/// fired against `victims`, each epoch's recovery owed within `bound`
/// rounds of [`Self::window_from`]. [`Self::drive`] runs it on the
/// simulator or on a served session.
///
/// A cycle with timing kinds is the [`restart_cycle`]: its run also
/// carries what only the socket runtime renders, one crash–restart
/// episode inside epoch 0 (the first victim is killed at round 2, its
/// first respawn at round 4 reads a truncated recovery snapshot, and the
/// final attempt at round 6 re-admits it on clean but stale bytes).
#[derive(Clone, Debug)]
pub struct StormScenario {
    /// Epoch geometry.
    pub geom: StormGeometry,
    /// Epoch `e` fires `cycle[e % 4]`.
    pub cycle: [StormKind; 4],
    /// Rounds within which each epoch must re-stabilize.
    pub bound: u64,
    /// The run: `epochs × epoch_len` rounds from a corrupted start, the
    /// per-epoch bursts scheduled, the fault bound at the victim count.
    /// Retention is the caller's choice (`history_window`); the judge
    /// needs one epoch.
    pub run: RunConfig,
    /// The storm adversary; declares the victims faulty even when the
    /// cycle arms no phase (a restart is a fault).
    pub adversary: StormAdversary,
    /// The restart cycle's kill/respawn episode.
    pub restart: Option<ServeRestart>,
}

impl StormScenario {
    /// The scenario for `epochs` epochs over `n` processes, every storm
    /// aimed at the declared-faulty `victims`.
    pub fn new(
        seed: u64,
        epochs: usize,
        n: usize,
        cycle: [StormKind; 4],
        victims: &[ProcessId],
        geom: StormGeometry,
        bound: u64,
    ) -> Self {
        let (schedule, phases) = storm_program_for(seed, epochs, &cycle, &geom, victims);
        let rounds = epochs * geom.epoch_len as usize;
        let run = RunConfig::corrupted(n, rounds, burst_seed(seed, 0))
            .with_mid_run_corruption(schedule)
            .with_max_faulty(victims.len());
        let timed = cycle.iter().any(|kind| kind.is_timing());
        StormScenario {
            geom,
            cycle,
            bound,
            run,
            restart: victims.first().filter(|_| timed).map(|&p| ServeRestart {
                p,
                kill_round: 2,
                gap: 2,
                staleness: 1,
                fault: SnapshotFault::Truncated,
                snapshot_seed: seed ^ 0x5a97,
                retry: Retry {
                    attempts: 2,
                    backoff_rounds: 2,
                },
            }),
            adversary: StormAdversary::new(victims.iter().copied(), phases, seed ^ 0x517a),
        }
    }

    /// The first round of epoch `e`'s verification window: the last
    /// perturbation that can touch the epoch. That is the storm's close
    /// plus the kind's timing slack (a `Delay { rounds }` copy lands up to
    /// `rounds` after the storm closes; reordered and duplicated copies
    /// land one round late), and in epoch 0 additionally the restart's
    /// final scheduled attempt — the re-entering node carries its stale
    /// snapshot until that round. For a cycle without timing kinds this is
    /// `geom.storm_end(e)`.
    pub fn window_from(&self, e: usize) -> u64 {
        let slack = match self.cycle[e % self.cycle.len()] {
            StormKind::Delay { rounds } => u64::from(rounds),
            StormKind::Reorder | StormKind::Duplicate => 1,
            _ => 0,
        };
        let from = self.geom.storm_end(e) + slack;
        match self.restart {
            Some(restart) if e == 0 => from.max(restart.last_attempt_round()),
            _ => from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_resolve_by_name() {
        let p = SoakPlan::by_name("default", 4, 7).unwrap();
        assert!(!p.worst_case);
        assert_eq!(p.epochs, 4);
        let p = SoakPlan::by_name("worst-case", 2, 0).unwrap();
        assert!(p.worst_case);
        let p = SoakPlan::by_name("large-n", 3, 9).unwrap();
        assert_eq!(p.name, "large-n");
        assert!(SoakPlan::by_name("gentle", 1, 0).is_err());
    }

    #[test]
    fn large_n_plan_is_one_windowed_cell() {
        let cells = SoakPlan::large_n(2, 5).cells();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.scenario, SoakScenario::RoundAgreement);
        assert_eq!(c.n, LARGE_N);
        assert_eq!(c.label, "round-agreement/n4096");
        assert!(!c.worst_case);
    }

    #[test]
    fn cells_cover_every_scenario_with_distinct_labels() {
        let cells = SoakPlan::default_plan(3, 11).cells();
        assert_eq!(cells.len(), 6);
        let labels: std::collections::BTreeSet<&str> =
            cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), cells.len(), "labels must be unique");
        for s in [
            SoakScenario::RoundAgreement,
            SoakScenario::Compiled,
            SoakScenario::Detector,
        ] {
            assert!(cells.iter().any(|c| c.scenario == s), "{s:?} missing");
        }
        for c in &cells {
            assert_eq!(c.epochs, 3);
        }
    }

    #[test]
    fn churn_plan_cycles_join_and_leave() {
        let p = SoakPlan::by_name("churn", 4, 3).unwrap();
        assert!(p.churn);
        let cells = p.cells();
        // Sync scenarios only — the async detector has no churn rendering.
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|c| c.churn));
        assert!(cells.iter().all(|c| c.label.contains("churn-v")));
        assert!(cells.iter().all(|c| c.scenario != SoakScenario::Detector));
        let cycle = churn_cycle(false);
        assert_eq!(cycle[0], StormKind::Join);
        assert_eq!(cycle[2], StormKind::Leave);
        // The stock plans are untouched.
        assert!(!SoakPlan::default_plan(1, 0).cells()[0].churn);
    }

    #[test]
    fn restart_plan_is_two_served_cells_with_timing_phases() {
        let p = SoakPlan::by_name("restart", 4, 3).unwrap();
        assert_eq!(p.name, "restart");
        let cells = p.cells();
        assert_eq!(cells.len(), 2);
        for (v, c) in cells.iter().enumerate() {
            assert_eq!(c.scenario, SoakScenario::Restart);
            assert_eq!(c.label, format!("serve-restart/v{v}"));
            assert_eq!(c.n, 3);
            assert_eq!(c.epochs, 4);
            assert!(!c.churn && !c.worst_case);
        }
        assert_ne!(cells[0].seed, cells[1].seed);
        // The restart cycle's timing kinds become storm phases; only the
        // burst epoch has no phase.
        let geom = StormGeometry::engine_default();
        let (_, phases) = storm_program_for(3, 4, &restart_cycle(), &geom, &[]);
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].kind, StormKind::Delay { rounds: 2 });
        assert_eq!(phases[1].kind, StormKind::Duplicate);
        assert_eq!(phases[2].kind, StormKind::Reorder);
        assert!(phases.iter().all(|ph| ph.kind.is_timing()));
        // The stock cycles contain no timing kinds, so their programs are
        // untouched by the widened phase condition.
        let (_, stock) = storm_program_for(3, 8, &storm_cycle(false), &geom, &[]);
        assert!(stock.iter().all(|ph| ph.kind.drops_copies()));
    }

    #[test]
    fn join_epochs_schedule_targeted_entry_corruption() {
        let geom = StormGeometry::engine_default();
        let victims = [ProcessId(0), ProcessId(1)];
        let (schedule, phases) = storm_program_for(7, 4, &churn_cycle(false), &geom, &victims);
        // Epoch 0 is the Join epoch: entry corruption in the round after
        // its storm closes, targeting exactly the victims.
        let entry_round = geom.storm_end(0) + 1;
        let targeted: Vec<_> = schedule.targeted_for(entry_round).collect();
        assert_eq!(targeted.len(), 1);
        assert_eq!(targeted[0].0, join_seed(7, 0));
        assert_eq!(targeted[0].1, &victims);
        // Epoch 2 (Leave) is clean: silence only, no entry corruption.
        assert_eq!(schedule.targeted_for(geom.storm_end(2) + 1).count(), 0);
        // Join, omission, and leave all drop copies; the burst does not.
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].kind, StormKind::Join);
        assert_eq!(phases[2].kind, StormKind::Leave);
        // The stock cycles contain no `Join`: nothing is ever targeted.
        let (stock, _) = storm_program_for(9, 4, &storm_cycle(true), &geom, &victims);
        assert_eq!(stock.targeted_for(entry_round).count(), 0);
    }

    #[test]
    fn window_opens_at_the_storm_close_unless_the_cycle_has_timing_slack() {
        let geom = StormGeometry::engine_default();
        let scenario = |cycle| StormScenario::new(7, 8, 6, cycle, &[ProcessId(0)], geom, 2);
        for cycle in [storm_cycle(false), storm_cycle(true), churn_cycle(false)] {
            let sc = scenario(cycle);
            assert!(sc.restart.is_none());
            for e in 0..8 {
                assert_eq!(sc.window_from(e), geom.storm_end(e), "{cycle:?} epoch {e}");
            }
        }
        // The restart cycle, as E11 prints it: the restart's last attempt
        // (round 6) in epoch 0, then delay 2 / duplicate 1 / reorder 1 /
        // burst 0 rounds past each storm's close.
        let sc = scenario(restart_cycle());
        assert_eq!(sc.restart.map(|r| r.last_attempt_round()), Some(6));
        let opens: Vec<u64> = (0..8).map(|e| sc.window_from(e)).collect();
        assert_eq!(opens, [6, 16, 28, 39, 53, 64, 76, 87]);
    }

    #[test]
    fn burst_seeds_differ_across_epochs() {
        let seeds: std::collections::BTreeSet<u64> = (0..16).map(|e| burst_seed(5, e)).collect();
        assert_eq!(seeds.len(), 16);
    }

    #[test]
    fn worst_case_cycle_raises_omission_intensity() {
        let default = storm_cycle(false);
        let worst = storm_cycle(true);
        assert!(matches!(
            default[1],
            StormKind::OmissionStorm { percent: 60 }
        ));
        assert!(matches!(worst[1], StormKind::OmissionStorm { percent: 90 }));
        assert!(default[0].drops_copies());
        assert!(!default[3].drops_copies());
    }
}
