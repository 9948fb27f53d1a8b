//! E9 — the large-n engine sweep.
//!
//! Every other experiment table lives in `ftss-sweep`; this one needs
//! [`window_stabilization`] (and `ftss-check` already depends on
//! `ftss-sweep` for the executor), so it lives here. The sweep drives the
//! synchronous simulator at n in the hundreds-to-thousands under a
//! *windowed* history — retention `E9_WINDOW` of `E9_ROUNDS` rounds —
//! and verifies Theorem 3 stabilization on the retained suffix, right at
//! the eviction boundary. It is both an experiment (EXPERIMENTS.md's
//! large-n table) and a smoke test that the struct-of-arrays engine
//! sustains n = 1024 inside the CI budget.

use crate::oracle::window_stabilization;
use crate::runbuild::RunBuilder;
use ftss::analysis::Table;
use ftss::core::{ProcessId, RateAgreementSpec};
use ftss_sweep::{max, mean, sweep_rows, FaultSpec};

/// Rounds per E9 run.
const E9_ROUNDS: usize = 12;
/// History retention per E9 run (rounds `1..=4` are evicted).
const E9_WINDOW: usize = 8;

/// One row of the E9 (large-n windowed engine) table.
#[derive(Clone, Debug)]
struct E9Row {
    /// System size.
    pub n: usize,
    /// The fault pattern.
    pub fault: FaultSpec,
    /// The row's fault label.
    pub label: String,
}

/// The E9 row grid, restricted to `n <= max_n` (pass `usize::MAX` for the
/// full grid).
fn e9_rows(max_n: usize) -> Vec<E9Row> {
    let mut rows = Vec::new();
    for n in [256usize, 1024] {
        if n > max_n {
            continue;
        }
        rows.push(E9Row {
            n,
            fault: FaultSpec::None,
            label: "none".into(),
        });
        rows.push(E9Row {
            n,
            fault: FaultSpec::RandomOmission {
                faulty: vec![ProcessId(0)],
                p_drop: 0.5,
            },
            label: "1 omitter p=0.5".into(),
        });
    }
    rows
}

fn run_e9_cell(row: &E9Row, seed: u64) -> usize {
    let mut adv = row.fault.adversary(seed);
    let out = RunBuilder::corrupted(row.n, E9_ROUNDS, seed.wrapping_mul(0x9e37) ^ row.n as u64)
        .with_history_window(E9_WINDOW)
        .run(adv.as_mut());
    // 12 rounds retained to a window of 8 evicts rounds 1..=4; checking
    // the window starting at prefix 5 exercises the oracle right at the
    // eviction boundary.
    window_stabilization(
        &out.history,
        &RateAgreementSpec::new(),
        E9_ROUNDS - E9_WINDOW + 1,
        E9_ROUNDS,
        1,
    )
    .expect("must stabilize within the window")
}

/// E9 — large-n engine smoke: the round-agreement stabilization check run
/// at n in the hundreds-to-thousands on a *windowed* history (retention
/// `E9_WINDOW` of `E9_ROUNDS` rounds), swept over `jobs` workers.
/// Byte-identical for any `jobs`, like every sweep table.
pub fn e9_table(seeds: u64, max_n: usize, jobs: usize) -> Table {
    let rows = e9_rows(max_n);
    let per_row = sweep_rows(&rows, seeds, jobs, run_e9_cell);
    let mut t = Table::new(vec!["n", "faults", "mean stab", "max stab", "within"]);
    for (row, measured) in rows.iter().zip(&per_row) {
        t.row(vec![
            row.n.to_string(),
            row.label.clone(),
            mean(measured),
            max(measured),
            if measured.iter().all(|&s| s <= 1) {
                "yes"
            } else {
                "NO"
            }
            .into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_rows_respect_max_n() {
        assert_eq!(e9_rows(usize::MAX).len(), 4);
        assert_eq!(e9_rows(256).len(), 2);
        assert!(e9_rows(100).is_empty());
    }

    #[test]
    fn e9_cell_stabilizes_within_the_window() {
        // One small-grid cell per fault pattern: stabilization must land
        // within Theorem 3's bound even though the check starts at the
        // eviction boundary.
        for row in e9_rows(256) {
            let s = run_e9_cell(&row, 1);
            assert!(s <= 1, "{}: stabilization {s} exceeds bound", row.label);
        }
    }

    #[test]
    fn e9_table_is_jobs_invariant() {
        let serial = e9_table(2, 256, 1).to_string();
        let parallel = e9_table(2, 256, 4).to_string();
        assert_eq!(serial, parallel);
        assert!(serial.contains("yes"), "{serial}");
    }
}
