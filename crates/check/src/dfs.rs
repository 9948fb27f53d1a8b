//! Exhaustive bounded schedule enumeration — the model checker's core.
//!
//! Two explorers, one per simulator:
//!
//! * [`explore`] walks **every** omission schedule of the synchronous
//!   model against a single faulty process. A schedule is a boolean tape
//!   consumed by [`TapeOmission`] in the runner's deterministic
//!   consultation order, so the set of all length-`d` tapes *is* the set
//!   of all delivery interleavings within the bound — `2^d` runs, checked
//!   against a Theorem-3 oracle.
//! * [`explore_gossip_por`] walks every *dispatch order* of an
//!   asynchronous gossip system within an event horizon, driving
//!   [`DfsScheduler`](ftss::async_sim::DfsScheduler)'s explicit choice
//!   stack: each run replays a prefix of recorded choices and the
//!   odometer-style `advance` moves to the next unexplored schedule.
//!
//! Both are plain iterative loops — no recursion, no randomness; every
//! run is a pure function of its schedule, which is what makes
//! counterexamples replayable (see [`crate::schedule`]).

use crate::oracle::{thm3_round_agreement, Verdict};
use crate::runbuild::RunBuilder;
use ftss::async_sim::{AsyncConfig, AsyncProcess, AsyncRunner, Ctx, DfsScheduler, Time};
use ftss::core::ProcessId;
use ftss::sync_sim::{RunOutcome, TapeOmission};
use ftss::telemetry::TraceSink;

/// Largest admissible tape bound: `2^d` runs must stay test-sized.
pub const MAX_TAPE_BOUND: usize = 20;

/// One synchronous check configuration: the protocol (round agreement),
/// the system size, the systemic failure, the faulty process the omission
/// tape may act through, and the oracle's stabilization bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfsConfig {
    /// Number of processes (enumeration is bounded to `2..=4`).
    pub n: usize,
    /// Observer rounds per run.
    pub rounds: usize,
    /// Seed of the initial systemic failure (arbitrary corrupted states).
    pub corruption_seed: u64,
    /// The single faulty process the tape's omissions are attributed to.
    pub faulty: ProcessId,
    /// Maximum tape length `d`; the explorer runs `2^min(d, eligible)`
    /// schedules.
    pub tape_bound: usize,
    /// Stabilization time handed to the Theorem-3 oracle (1 = the
    /// theorem's claim; 0 = a deliberately broken oracle that corrupted
    /// starts must violate).
    pub stabilization: usize,
}

impl DfsConfig {
    /// The acceptance-criterion configuration: `n = 3`, one corrupted
    /// initial state per process, omissions through `p0`, Theorem-3 bound.
    pub fn small(corruption_seed: u64) -> Self {
        DfsConfig {
            n: 3,
            rounds: 2,
            corruption_seed,
            faulty: ProcessId(0),
            tape_bound: 8,
            stabilization: 1,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if !(2..=4).contains(&self.n) {
            return Err(format!("check --dfs: n must be in 2..=4, got {}", self.n));
        }
        if self.faulty.index() >= self.n {
            return Err(format!(
                "check --dfs: faulty process {} outside 0..{}",
                self.faulty, self.n
            ));
        }
        if self.rounds == 0 {
            return Err("check --dfs: rounds must be at least 1".into());
        }
        if self.tape_bound > MAX_TAPE_BOUND {
            return Err(format!(
                "check --dfs: tape bound {} exceeds the {MAX_TAPE_BOUND}-bit ceiling ({} runs)",
                self.tape_bound,
                1u64 << MAX_TAPE_BOUND
            ));
        }
        Ok(())
    }
}

/// Executes one schedule: round agreement from corrupted states under the
/// tape's omissions, optionally traced. Returns the outcome and how many
/// eligible copies consulted the tape (the schedule-space dimension).
pub fn run_tape<T: TraceSink>(
    cfg: &DfsConfig,
    tape: &[bool],
    sink: &mut T,
) -> (RunOutcome<ftss::protocols::RoundAgreementState, u64>, usize) {
    let mut adv = TapeOmission::new([cfg.faulty], tape.to_vec());
    let out =
        RunBuilder::corrupted(cfg.n, cfg.rounds, cfg.corruption_seed).run_traced(&mut adv, sink);
    (out, adv.consulted())
}

/// Runs one schedule through the Theorem-3 oracle. This is *the* checked
/// property — the explorer and the shrinker call it, and
/// [`crate::schedule::ScheduleFile::replay`] applies the same oracle to
/// its traced run, so a counterexample means the same thing everywhere.
pub fn check_tape(cfg: &DfsConfig, tape: &[bool]) -> Verdict {
    let (out, _) = run_tape(cfg, tape, &mut ftss::telemetry::NullSink);
    thm3_round_agreement(&out.history, cfg.stabilization)
}

/// Runs one schedule through the *decided* Theorem-4 oracle
/// ([`crate::oracle::thm4_decided`]) with the configuration's
/// stabilization as the bound: a violation means the run's final stable
/// window provably cannot stabilize within it, no matter how the run is
/// extended. Graph mode uses this to confirm and shrink counterexamples
/// found by the per-edge stabilization-time atom, and
/// [`crate::schedule::ScheduleFile::replay`] falls back to the same
/// oracle for `thm4:` verdicts.
pub fn check_tape_thm4(cfg: &DfsConfig, tape: &[bool]) -> Verdict {
    let (out, _) = run_tape(cfg, tape, &mut ftss::telemetry::NullSink);
    crate::oracle::thm4_decided(
        &out.history,
        &ftss::core::RateAgreementSpec::new(),
        cfg.stabilization,
    )
}

/// A violating schedule: the omission tape and the oracle's one-line
/// verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The tape that produced the violation.
    pub tape: Vec<bool>,
    /// The oracle's detail line.
    pub detail: String,
}

/// What an exhaustive exploration covered.
#[derive(Clone, Debug)]
pub struct DfsReport {
    /// Schedules executed (`2^decision_points`, unless a violation
    /// stopped the walk early).
    pub schedules: u64,
    /// Tape bits actually enumerated: `min(eligible copies, tape_bound)`.
    pub decision_points: usize,
    /// Eligible copies per run (the unbounded schedule-space dimension).
    pub eligible_copies: usize,
    /// Whether the tape bound clamped the enumeration below the eligible
    /// copies — i.e. coverage is a *prefix* of the schedule space, not
    /// all of it. Graph mode ([`crate::frontier`]) has no such clamp.
    pub clamped: bool,
    /// First violating schedule found, if any (not yet shrunk — see
    /// [`crate::shrink`]).
    pub counterexample: Option<Counterexample>,
}

/// Flips the tape to the next schedule like a binary odometer (the last
/// bit is the deepest choice point). Returns `false` when the space is
/// exhausted.
fn advance_tape(tape: &mut [bool]) -> bool {
    for i in (0..tape.len()).rev() {
        if tape[i] {
            tape[i] = false;
        } else {
            tape[i] = true;
            return true;
        }
    }
    false
}

/// Exhaustively enumerates every omission schedule of `cfg` (all tapes of
/// length `min(eligible, tape_bound)`), checking each against the
/// Theorem-3 oracle. Stops at the first violation.
pub fn explore(cfg: &DfsConfig) -> Result<DfsReport, String> {
    cfg.validate()?;
    // Probe run: the empty tape (everything delivered) both measures the
    // schedule-space dimension and doubles as the all-false schedule.
    let (out, eligible) = run_tape(cfg, &[], &mut ftss::telemetry::NullSink);
    let d = eligible.min(cfg.tape_bound);
    let clamped = eligible > cfg.tape_bound;
    if clamped {
        // Silent truncation reads as "covered everything" — say so loudly
        // (and point at the mode without the wall).
        eprintln!(
            "check --dfs: tape bound {} < {} eligible copies; only the first {} \
             decisions are enumerated (use --graph for exhaustive coverage)",
            cfg.tape_bound, eligible, d
        );
    }
    let mut schedules = 1u64;
    let mut counterexample =
        thm3_round_agreement(&out.history, cfg.stabilization).map(|detail| Counterexample {
            tape: Vec::new(),
            detail,
        });
    let mut tape = vec![false; d];
    while counterexample.is_none() && advance_tape(&mut tape) {
        schedules += 1;
        counterexample = check_tape(cfg, &tape).map(|detail| Counterexample {
            tape: tape.clone(),
            detail,
        });
    }
    Ok(DfsReport {
        schedules,
        decision_points: d,
        eligible_copies: eligible,
        clamped,
        counterexample,
    })
}

/// What an asynchronous dispatch-order exploration covered.
#[derive(Clone, Debug)]
pub struct AsyncDfsReport {
    /// Complete dispatch orders executed (oracle evaluated on each).
    pub schedules: u64,
    /// Runs cut short by the sleep set (partial-order reduction only):
    /// their continuations permute commuting dispatches of runs counted in
    /// `schedules`, so the oracle was skipped.
    pub pruned: u64,
    /// First violation: the choice stack (chosen indices, dispatch order)
    /// and the oracle's detail line.
    pub violation: Option<(Vec<usize>, String)>,
}

/// Exhaustively enumerates dispatch orders of an asynchronous system
/// within `max_steps` events per run, rebuilding the processes fresh for
/// each schedule via `mk` and checking the final process states with
/// `oracle`. Stops at the first violation.
///
/// The schedule tree has branching factor = pending-queue size, so keep
/// `max_steps` small (≤ ~8 for systems that re-arm timers).
///
/// With `por`, sleep-set partial-order reduction: dispatch orders that
/// differ only in the interleaving of *commuting* deliveries (different
/// destination processes, so neither's handler can observe the order)
/// are explored once. Pruned runs end mid-flight and skip the oracle —
/// every complete interleaving they abbreviate has a complete
/// representative elsewhere in the tree — so the verdict is identical to
/// the full enumeration while `schedules` drops combinatorially.
fn explore_async_impl<P, F>(
    mk: F,
    cfg: &AsyncConfig,
    horizon: Time,
    max_steps: usize,
    por: bool,
    mut oracle: impl FnMut(&[P]) -> Verdict,
) -> AsyncDfsReport
where
    P: AsyncProcess,
    F: Fn() -> Vec<P>,
{
    let mut sched: DfsScheduler<P::Msg> = DfsScheduler::new(max_steps);
    if por {
        sched = sched.with_por();
    }
    let mut schedules = 0u64;
    let mut pruned = 0u64;
    loop {
        let mut runner = AsyncRunner::with_scheduler(mk(), cfg.clone(), sched)
            .expect("valid async check configuration");
        runner.run_until(horizon);
        let verdict = {
            let was_pruned = runner.scheduler().was_pruned();
            if was_pruned {
                pruned += 1;
                None
            } else {
                schedules += 1;
                oracle(runner.processes())
            }
        };
        sched = runner.into_scheduler();
        if let Some(detail) = verdict {
            let choices = sched.choices().iter().map(|&(c, _)| c).collect();
            return AsyncDfsReport {
                schedules,
                pruned,
                violation: Some((choices, detail)),
            };
        }
        if !sched.advance() {
            return AsyncDfsReport {
                schedules,
                pruned,
                violation: None,
            };
        }
    }
}

/// The canonical dispatch-order demonstration behind `ftss-lab check
/// --dfs --por`: two processes gossip their values (3 and 7) and must
/// converge on the maximum. Four deliveries make `4! = 24` complete
/// dispatch orders; with sleep-set POR, interleavings of commuting
/// deliveries (different destinations, so no handler can observe the
/// order) collapse to a handful of representatives. Returns the full
/// enumeration and the reduced one — identical verdicts by construction,
/// so the pair doubles as an end-to-end soundness check of the pruning.
pub fn explore_gossip_por() -> (AsyncDfsReport, AsyncDfsReport) {
    let cfg = AsyncConfig::tame(0);
    let full = explore_async_impl(Gossip::pair, &cfg, 1_000, 8, false, Gossip::converged);
    let por = explore_async_impl(Gossip::pair, &cfg, 1_000, 8, true, Gossip::converged);
    (full, por)
}

/// A gossip process of [`explore_gossip_por`]: broadcasts its value once
/// and keeps the maximum it hears.
struct Gossip {
    v: u64,
}

impl Gossip {
    /// The two processes, holding 3 and 7.
    fn pair() -> Vec<Gossip> {
        vec![Gossip { v: 3 }, Gossip { v: 7 }]
    }

    /// The oracle: the maximum reached everyone.
    fn converged(ps: &[Gossip]) -> Verdict {
        if ps.iter().all(|p| p.v == 7) {
            None
        } else {
            Some("max did not propagate".to_string())
        }
    }
}

impl AsyncProcess for Gossip {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<u64>) {
        ctx.broadcast(self.v);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<u64>, _from: ProcessId, &m: &u64) {
        self.v = self.v.max(m);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<u64>, _tag: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_tape_counts_in_binary() {
        let mut t = vec![false; 3];
        let mut seen = vec![t.clone()];
        while advance_tape(&mut t) {
            seen.push(t.clone());
        }
        assert_eq!(seen.len(), 8);
        seen.dedup();
        assert_eq!(seen.len(), 8, "no schedule visited twice");
    }

    #[test]
    fn validation_rejects_large_n_and_huge_bounds() {
        let mut cfg = DfsConfig::small(0);
        cfg.n = 5;
        assert!(explore(&cfg).is_err());
        let mut cfg = DfsConfig::small(0);
        cfg.tape_bound = MAX_TAPE_BOUND + 1;
        assert!(explore(&cfg).is_err());
    }

    /// Two processes gossip their values (each broadcast lands on both,
    /// self included): 4 independent deliveries, so the async DFS must
    /// visit exactly 4! = 24 dispatch orders — and max-convergence holds
    /// in all of them, while a false oracle trips on the very first.
    #[test]
    fn async_dfs_enumerates_all_dispatch_orders() {
        let cfg = AsyncConfig::tame(0);
        let report = explore_async_impl(Gossip::pair, &cfg, 1_000, 8, false, Gossip::converged);
        assert_eq!(report.schedules, 24, "4! dispatch orders");
        assert!(report.violation.is_none());

        let broken = explore_async_impl(Gossip::pair, &cfg, 1_000, 8, false, |_: &[Gossip]| {
            Some("always wrong".into())
        });
        assert_eq!(broken.schedules, 1, "stops at the first violation");
        let (choices, detail) = broken.violation.expect("must trip");
        assert_eq!(choices.len(), 4, "one choice per dispatched event");
        assert_eq!(detail, "always wrong");
    }

    /// Sleep-set reduction on the gossip system: deliveries to different
    /// processes commute, so POR completes a strict subset of the 24
    /// orders — at least the 4 dependency classes (2 orders per
    /// destination's pair of incoming messages) — with the same verdict.
    #[test]
    fn async_por_prunes_commuting_orders_with_the_same_verdict() {
        let (full, por) = explore_gossip_por();
        assert_eq!(full.schedules, 24, "4! dispatch orders");
        assert_eq!(full.pruned, 0, "no pruning without POR");
        assert!(
            por.schedules < full.schedules,
            "POR must prune: {} complete orders",
            por.schedules
        );
        assert!(
            por.schedules >= 4,
            "every dependency class keeps a representative: {}",
            por.schedules
        );
        assert!(por.pruned > 0, "pruned stubs are counted");
        assert!(full.violation.is_none() && por.violation.is_none());
    }

    /// The clamp boundary: bound == eligible is full coverage (no flag),
    /// one less trips the clamp and halves the space.
    #[test]
    fn clamp_is_flagged_exactly_when_bound_is_short() {
        // n = 2, faulty p0, 2 rounds: eligible = 2 copies/round = 4.
        let cfg = DfsConfig {
            n: 2,
            rounds: 2,
            corruption_seed: 3,
            faulty: ProcessId(0),
            tape_bound: 4,
            stabilization: 1,
        };
        let exact = explore(&cfg).unwrap();
        assert_eq!(exact.eligible_copies, 4);
        assert_eq!(exact.decision_points, 4);
        assert!(!exact.clamped, "bound == eligible is not a clamp");

        let short = explore(&DfsConfig {
            tape_bound: 3,
            ..cfg
        })
        .unwrap();
        assert!(short.clamped);
        assert_eq!(short.decision_points, 3);
        assert_eq!(short.schedules, 8, "2^3 of the 2^4 schedules");
    }

    #[test]
    fn probe_measures_eligible_copies() {
        // n = 3, faulty p0: per round the copies touching p0 are
        // p0→p1, p0→p2, p1→p0, p2→p0 — 4 per round.
        let cfg = DfsConfig::small(7);
        let (_, eligible) = run_tape(&cfg, &[], &mut ftss::telemetry::NullSink);
        assert_eq!(eligible, 4 * cfg.rounds);
    }
}
