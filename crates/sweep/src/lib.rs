//! # ftss-sweep — deterministic parallel sweep execution
//!
//! Every empirical claim in EXPERIMENTS.md is a seeded sweep: hundreds of
//! independent (config, seed) runs folded into a table. This crate is the
//! substrate those sweeps run on:
//!
//! * [`map_cells`] — a registry-free (`std::thread::scope`) work-stealing
//!   executor that fans cells across `FTSS_JOBS` workers and merges the
//!   results in canonical cell order, so serial and parallel sweeps
//!   produce **byte-identical** output;
//! * [`experiments`] — the E1–E8 table drivers expressed as cell grids
//!   ([`FaultSpec`]/`PiSpec` row specifications plus per-seed runs),
//!   which `ftss-lab sweep --exp <id>` prints.
//!
//! The determinism rule (DESIGN.md §9): a cell function must be a pure,
//! seeded function of its cell; the executor owns ordering. Nothing else
//! is allowed to observe scheduling.
//!
//! # Example
//!
//! ```
//! let cells: Vec<u64> = (0..32).collect();
//! let serial = ftss_sweep::map_cells(&cells, 1, |&s| s * s);
//! let parallel = ftss_sweep::map_cells(&cells, 4, |&s| s * s);
//! assert_eq!(serial, parallel); // same order, same bytes
//! ```

pub mod exec;
pub mod experiments;

pub use exec::{jobs_from, jobs_from_env, map_cells, try_map_cells, CellPanic};
pub use experiments::{
    e1_table, e2_table, e3_table, e4_table, e5_table, e6_table, e7a_table, e7c_table, e8_table,
    max, mean, sweep_rows, FaultSpec, E3_TIMES, E4_LENGTHS,
};
