//! The deterministic parallel executor.
//!
//! A sweep is a list of independent *cells* — typically (config, seed)
//! pairs — each mapped through a pure function. [`map_cells`] fans the
//! cells across a fixed number of worker threads and returns the results
//! **in cell order**, so the output is byte-identical whether the sweep ran
//! on 1 worker or 16. The merge rule that guarantees this is simple:
//!
//! 1. every cell's result is tagged with the cell's index,
//! 2. workers never share mutable state (each cell carries its own seeds;
//!    all simulator randomness is seeded per run),
//! 3. after all workers join, results are sorted by cell index.
//!
//! Scheduling (which worker runs which cell, in what real-time order) is
//! nondeterministic; it just cannot be observed in the output. See
//! DESIGN.md §9.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panic captured while mapping one sweep cell.
#[derive(Clone, Debug)]
pub struct CellPanic {
    /// Index of the failing cell in the input slice. Sweep grids are laid
    /// out row-major, so for `rows × seeds` grids this is
    /// `row * seeds + seed`.
    pub index: usize,
    /// The panic payload, if it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.message)
    }
}

fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The worker count requested via the `FTSS_JOBS` environment variable,
/// falling back to the machine's available parallelism. `FTSS_JOBS=1`
/// forces a serial sweep (same output, by construction). An unset,
/// invalid, or zero `FTSS_JOBS` falls back to available parallelism; the
/// invalid cases additionally warn on stderr rather than silently forcing
/// a serial sweep.
pub fn jobs_from_env() -> usize {
    jobs_from(std::env::var("FTSS_JOBS").ok().as_deref(), || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// [`jobs_from_env`]'s rule on an explicit `FTSS_JOBS` value (`None`:
/// unset) and an explicit fallback: a positive integer wins, anything
/// else yields `fallback()`.
pub fn jobs_from(value: Option<&str>, fallback: impl FnOnce() -> usize) -> usize {
    let Some(s) = value else { return fallback() };
    parse_jobs(s).unwrap_or_else(|| {
        let jobs = fallback();
        eprintln!(
            "warning: FTSS_JOBS={s:?} is not a positive integer; \
             using available parallelism ({jobs})"
        );
        jobs
    })
}

/// Parses an `FTSS_JOBS` value: a positive integer, surrounding whitespace
/// tolerated. `None` for anything else (empty, zero, garbage).
fn parse_jobs(s: &str) -> Option<usize> {
    s.trim().parse().ok().filter(|&j| j >= 1)
}

/// Maps `f` over `cells` on up to `jobs` scoped worker threads, returning
/// results in cell order. With `jobs <= 1` (or one cell) this is a plain
/// serial map — no threads, no atomics.
///
/// Workers claim cells from a shared atomic cursor (dynamic load
/// balancing: a slow `n = 64` cell does not hold up the queue), collect
/// `(index, result)` pairs locally, and the caller-side merge sorts by
/// index. `f` must be a pure function of its cell for the serial/parallel
/// byte-identity guarantee to hold.
///
/// # Panics
///
/// If any cell's `f` panics: the panic is caught, **every remaining cell
/// still runs**, and only then does `map_cells` re-panic with a message
/// naming each failing cell by index. A single bad cell no longer discards
/// an hour of completed sweep work. Use [`try_map_cells`] to handle cell
/// panics without aborting.
pub fn map_cells<T, R, F>(cells: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(cells.len());
    let mut failures: Vec<CellPanic> = Vec::new();
    for res in try_map_cells(cells, jobs, f) {
        match res {
            Ok(r) => out.push(r),
            Err(p) => failures.push(p),
        }
    }
    if !failures.is_empty() {
        let list: Vec<String> = failures.iter().map(|p| p.to_string()).collect();
        panic!(
            "sweep: {} of {} cells panicked (all other cells completed): {}",
            failures.len(),
            cells.len(),
            list.join("; ")
        );
    }
    out
}

/// Like [`map_cells`], but a panicking cell yields `Err(CellPanic)` in its
/// slot instead of aborting the sweep; all other cells complete normally.
/// Results are in cell order, same as the input.
pub fn try_map_cells<T, R, F>(cells: &[T], jobs: usize, f: F) -> Vec<Result<R, CellPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run_cell = |i: usize| -> Result<R, CellPanic> {
        catch_unwind(AssertUnwindSafe(|| f(&cells[i]))).map_err(|payload| CellPanic {
            index: i,
            message: payload_message(payload),
        })
    };
    let jobs = jobs.max(1).min(cells.len().max(1));
    if jobs == 1 {
        return (0..cells.len()).map(run_cell).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<R, CellPanic>)> = Vec::with_capacity(cells.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break;
                        }
                        // The catch_unwind inside run_cell keeps this
                        // worker alive past a panicking cell, so it keeps
                        // claiming and completing the remaining cells.
                        local.push((i, run_cell(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            // A worker can only die with a panic that escaped run_cell's
            // catch_unwind (e.g. a foreign exception or a panic while
            // panicking). Its claimed-but-unreported cells are recovered
            // below rather than poisoning the whole sweep.
            if let Ok(local) = h.join() {
                tagged.extend(local);
            }
        }
    });
    if tagged.len() < cells.len() {
        // Re-run the missing cells serially on the caller thread; every
        // other cell keeps its already-computed result.
        let mut have = vec![false; cells.len()];
        for &(i, _) in &tagged {
            have[i] = true;
        }
        for (i, done) in have.into_iter().enumerate() {
            if !done {
                tagged.push((i, run_cell(i)));
            }
        }
    }
    // Canonical merge: cell order, regardless of which worker ran what.
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let cells: Vec<u64> = (0..103).collect();
        let square = |x: &u64| x * x;
        let serial = map_cells(&cells, 1, square);
        for jobs in [2, 4, 7, 200] {
            assert_eq!(map_cells(&cells, jobs, square), serial, "jobs={jobs}");
        }
        assert_eq!(serial[5], 25);
    }

    #[test]
    fn empty_and_single_cell() {
        let none: Vec<u8> = vec![];
        assert!(map_cells(&none, 4, |x| *x).is_empty());
        assert_eq!(map_cells(&[9u8], 4, |x| *x + 1), vec![10]);
    }

    #[test]
    fn results_keep_cell_order_not_completion_order() {
        // Early cells sleep longer, so completion order is roughly reversed
        // — the merged output must still be in cell order.
        let cells: Vec<u64> = (0..8).collect();
        let out = map_cells(&cells, 4, |&x| {
            std::thread::sleep(std::time::Duration::from_millis(8 - x));
            x
        });
        assert_eq!(out, cells);
    }

    #[test]
    #[should_panic(expected = "cell 4 panicked")]
    fn worker_panic_names_the_failing_cell() {
        let cells: Vec<u64> = (0..8).collect();
        let _ = map_cells(&cells, 2, |&x| {
            assert!(x != 4, "boom");
            x
        });
    }

    #[test]
    fn panicking_cell_does_not_abort_the_rest() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cells: Vec<u64> = (0..16).collect();
        for jobs in [1, 4] {
            let ran = AtomicUsize::new(0);
            let out = try_map_cells(&cells, jobs, |&x| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(x % 5 != 3, "cell dies");
                x * 2
            });
            assert_eq!(
                ran.load(Ordering::Relaxed),
                16,
                "jobs={jobs}: all cells ran"
            );
            assert_eq!(out.len(), 16);
            for (i, res) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let p = res.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert!(p.message.contains("cell dies"), "jobs={jobs}: {p}");
                } else {
                    assert_eq!(*res.as_ref().unwrap(), (i as u64) * 2, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn jobs_env_parsing() {
        // The parse contract, exercised on the pure helper (setting env
        // vars in a multithreaded test binary is unsafe): positive
        // integers pass through, whitespace is tolerated, and anything
        // else — zero included — signals "fall back to parallelism".
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 8\n"), Some(8));
        assert_eq!(parse_jobs("1"), Some(1));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("abc"), None);
        assert_eq!(parse_jobs(""), None);
        assert_eq!(parse_jobs("  "), None);
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("4.5"), None);
        // And map_cells itself clamps a zero jobs count rather than hanging.
        let cells: Vec<u64> = (0..4).collect();
        assert_eq!(map_cells(&cells, 0, |x| *x), cells, "jobs=0 clamps to 1");
    }
}
