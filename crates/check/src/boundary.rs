//! E10 — the fault-class boundary map.
//!
//! Theorem 2 separates the solvable from the unsolvable: round agreement
//! is ftss-solvable under general omission (Theorem 3), while arbitrary
//! (Byzantine) behavior re-draws the boundary at `n > 4f` for the
//! self-stabilizing phase-king rendition. This sweep measures that map
//! *empirically*: a grid of fault class × `f` × `n`, each cell a seeded
//! run checked by [`window_stabilization`] against the class's theorem
//! bound. A cell that never re-stabilizes inside the bound is recorded
//! as a violation — data, not a test failure — so the table shows where
//! each fault class crosses its solvability line.
//!
//! Per-class setup:
//!
//! * **omission** — Figure 1's round agreement under `f` random omitters
//!   (p = 0.5) from a corrupted start. The checked bound is 2: one round
//!   to absorb a corrupt maximum that omission may deliver unevenly, one
//!   to re-synchronize (the chaos engine's storm bound, DESIGN.md §11).
//! * **byzantine** — [`SsByzantine`] under a message-forging
//!   [`ByzantineAdversary`] with `f` traitors, checked against the
//!   protocol's own `stabilization_bound()` with the value-agreement
//!   oracle. Rows with `n ≤ 4f` sit beyond the solvability boundary and
//!   are *expected* to record violations.
//! * **churn** — round agreement through a Join episode: `f` processes
//!   fall silent for the storm rounds, then re-enter with arbitrary
//!   (targeted-corrupted) state. Checked bound 2 from the storm's end,
//!   the same window the chaos soaks pin.

use crate::oracle::window_stabilization;
use crate::runbuild::RunBuilder;
use ftss::analysis::Table;
use ftss::core::{ProcessId, RateAgreementSpec, StormKind, StormPhase};
use ftss::protocols::{SsByzantine, ValueAgreementSpec};
use ftss::sync_sim::{
    ByzantineAdversary, CorruptionSchedule, RandomOmission, RunConfig, StormAdversary, SyncRunner,
};
use ftss_sweep::{max, mean, sweep_rows};

/// Default seed count of the E10 sweep.
pub const E10_SEEDS: u64 = 3;
/// Rounds per E10 run — past the largest Byzantine bound in the grid
/// (`1 + 4(f+1) = 21` at `f = 4`) with slack for the suffix check.
const E10_ROUNDS: usize = 28;
/// The churn episode's silent rounds (the joiner re-enters at round 7).
const E10_STORM: (u64, u64) = (4, 6);

/// The fault class of one E10 row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultClass {
    /// General omission: copies dropped by declared-faulty processes.
    Omission,
    /// Byzantine: declared-faulty processes forge message contents.
    Byzantine,
    /// Join/leave churn: processes silent, then re-entering with
    /// arbitrary state.
    Churn,
}

impl FaultClass {
    /// The class label used in the table.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Omission => "omission",
            FaultClass::Byzantine => "byzantine",
            FaultClass::Churn => "churn",
        }
    }
}

/// One row of the E10 boundary map.
#[derive(Clone, Debug)]
struct E10Row {
    /// System size.
    pub n: usize,
    /// Faulty-process count (omitters, traitors, or churners).
    pub f: usize,
    /// The fault class.
    pub class: FaultClass,
}

impl E10Row {
    /// The stabilization bound this row is checked against.
    pub fn bound(&self) -> usize {
        match self.class {
            FaultClass::Omission | FaultClass::Churn => 2,
            FaultClass::Byzantine => SsByzantine::new(self.f).stabilization_bound(),
        }
    }

    /// Whether the row sits inside the class's solvability region
    /// (`n > 4f` for Byzantine; everywhere we grid otherwise).
    pub fn solvable(&self) -> bool {
        match self.class {
            FaultClass::Omission | FaultClass::Churn => true,
            FaultClass::Byzantine => self.n > 4 * self.f,
        }
    }
}

/// The E10 grid: fault class × `f` × `n ∈ {4, 8, 16}`, restricted to
/// `n <= max_n`. The Byzantine sub-grid straddles its `n > 4f` boundary
/// on purpose: `(n=4, f=1)` and `(n=16, f=4)` sit beyond it.
fn e10_rows(max_n: usize) -> Vec<E10Row> {
    let mut rows = Vec::new();
    for n in [4usize, 8, 16] {
        if n > max_n {
            continue;
        }
        let quarter = (n / 4).max(1);
        rows.push(E10Row {
            n,
            f: quarter,
            class: FaultClass::Omission,
        });
        // One traitor everywhere, plus the boundary-straddling pair at
        // n = 16 (f = 3 solvable, f = 4 not).
        rows.push(E10Row {
            n,
            f: 1,
            class: FaultClass::Byzantine,
        });
        if n == 16 {
            for f in [3usize, 4] {
                rows.push(E10Row {
                    n,
                    f,
                    class: FaultClass::Byzantine,
                });
            }
        }
        rows.push(E10Row {
            n,
            f: quarter,
            class: FaultClass::Churn,
        });
    }
    rows
}

/// The first `f` processes — the grid's canonical faulty set.
fn victims(f: usize) -> Vec<ProcessId> {
    (0..f).map(ProcessId).collect()
}

/// Runs one cell and measures stabilization against the row's bound.
/// `None` means the bound was violated (the run never produced a clean
/// suffix inside it) — recorded as data, not panicked on.
fn run_e10_cell(row: &E10Row, seed: u64) -> Option<usize> {
    let corruption = seed.wrapping_mul(0x9e37) ^ (row.n as u64) << 8 ^ row.f as u64;
    match row.class {
        FaultClass::Omission => {
            let mut adv = RandomOmission::new(victims(row.f), 0.5, seed);
            let out = RunBuilder::corrupted(row.n, E10_ROUNDS, corruption).run(&mut adv);
            window_stabilization(
                &out.history,
                &RateAgreementSpec::new(),
                1,
                E10_ROUNDS,
                row.bound(),
            )
            .ok()
        }
        FaultClass::Byzantine => {
            let mut adv = ByzantineAdversary::new(victims(row.f), 0.8, seed);
            let cfg = RunConfig::corrupted(row.n, E10_ROUNDS, corruption).with_max_faulty(row.f);
            let out = SyncRunner::new(SsByzantine::new(row.f))
                .run(&mut adv, &cfg)
                .expect("validated E10 configuration");
            window_stabilization(
                &out.history,
                &ValueAgreementSpec,
                1,
                E10_ROUNDS,
                row.bound(),
            )
            .ok()
        }
        FaultClass::Churn => {
            let (start, end) = E10_STORM;
            let mut adv = StormAdversary::new(
                victims(row.f),
                [StormPhase::new(start, end, StormKind::Join)],
                seed ^ 0x517a,
            );
            let schedule =
                CorruptionSchedule::none().at_targeted(end + 1, seed ^ 0x9014, victims(row.f));
            let cfg = RunConfig::corrupted(row.n, E10_ROUNDS, corruption)
                .with_mid_run_corruption(schedule)
                .with_max_faulty(row.f);
            let out = SyncRunner::new(ftss::protocols::RoundAgreement)
                .run(&mut adv, &cfg)
                .expect("validated E10 configuration");
            window_stabilization(
                &out.history,
                &RateAgreementSpec::new(),
                end as usize,
                E10_ROUNDS,
                row.bound(),
            )
            .ok()
        }
    }
}

/// E10 — the boundary-map table: per row, the measured stabilization
/// across seeds and whether every seed landed inside the theorem bound.
/// Byte-identical for any `jobs`, like every sweep table.
pub fn e10_table(seeds: u64, max_n: usize, jobs: usize) -> Table {
    let rows = e10_rows(max_n);
    let per_row = sweep_rows(&rows, seeds, jobs, run_e10_cell);
    let mut t = Table::new(vec![
        "n",
        "f",
        "class",
        "solvable",
        "bound",
        "mean stab",
        "max stab",
        "within",
    ]);
    for (row, measured) in rows.iter().zip(&per_row) {
        let ok: Vec<usize> = measured.iter().flatten().copied().collect();
        t.row(vec![
            row.n.to_string(),
            row.f.to_string(),
            row.class.name().into(),
            if row.solvable() { "yes" } else { "no" }.into(),
            row.bound().to_string(),
            mean(&ok),
            max(&ok),
            if ok.len() == measured.len() {
                "yes".into()
            } else {
                format!(
                    "NO ({}/{} violated)",
                    measured.len() - ok.len(),
                    measured.len()
                )
            },
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_grid_straddles_the_byzantine_boundary() {
        let rows = e10_rows(usize::MAX);
        assert_eq!(rows.len(), 11);
        assert!(rows
            .iter()
            .any(|r| r.class == FaultClass::Byzantine && !r.solvable()));
        assert!(rows
            .iter()
            .any(|r| r.class == FaultClass::Byzantine && r.solvable()));
        assert!(e10_rows(4).iter().all(|r| r.n == 4));
    }

    #[test]
    fn omission_and_churn_cells_stay_inside_the_bound() {
        for row in e10_rows(8) {
            if row.class == FaultClass::Byzantine {
                continue;
            }
            let s = run_e10_cell(&row, 1).unwrap_or_else(|| {
                panic!(
                    "{} n={} f={} violated its bound",
                    row.class.name(),
                    row.n,
                    row.f
                )
            });
            assert!(s <= row.bound());
        }
    }

    #[test]
    fn byzantine_cells_respect_the_solvability_line() {
        // Inside the region (n = 8, f = 1): every seed recovers.
        let inside = E10Row {
            n: 8,
            f: 1,
            class: FaultClass::Byzantine,
        };
        for seed in 0..E10_SEEDS {
            assert!(
                run_e10_cell(&inside, seed).is_some(),
                "seed {seed} violated"
            );
        }
        // Beyond it (n = 4, f = 1, n ≤ 4f): the traitor king splits the
        // correct processes every session; the bound cannot hold.
        let beyond = E10Row {
            n: 4,
            f: 1,
            class: FaultClass::Byzantine,
        };
        assert!(
            (0..E10_SEEDS).any(|seed| run_e10_cell(&beyond, seed).is_none()),
            "expected at least one violation beyond the boundary"
        );
    }

    #[test]
    fn e10_table_is_jobs_invariant() {
        let serial = e10_table(2, 8, 1).to_string();
        let parallel = e10_table(2, 8, 4).to_string();
        assert_eq!(serial, parallel);
        assert!(serial.contains("yes"), "{serial}");
    }
}
