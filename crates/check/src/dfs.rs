//! Omission tapes of the synchronous model, and the asynchronous
//! dispatch-order explorer.
//!
//! * [`run_tape`] executes one omission schedule of round agreement: a
//!   boolean tape consumed by [`TapeOmission`] in the runner's
//!   deterministic consultation order, one bit per copy eligible for
//!   omission. [`check_tape`] judges it with the Theorem-3 oracle. This
//!   is the concrete pipeline every synchronous counterexample goes
//!   through: graph mode ([`crate::frontier`]) rebuilds its witnesses as
//!   tapes, confirms them here and shrinks them ([`crate::shrink`]), and
//!   schedule files ([`crate::schedule`]) replay them. Enumerating tapes
//!   is not a checker of its own: the state graph covers every schedule
//!   of a bounded horizon, and every horizon at its fixpoint.
//! * [`explore_gossip_por`] walks every *dispatch order* of an
//!   asynchronous gossip system within an event horizon, driving
//!   [`DfsScheduler`](ftss::async_sim::DfsScheduler)'s explicit choice
//!   stack: each run replays a prefix of recorded choices and the
//!   odometer-style `advance` moves to the next unexplored schedule.
//!
//! No recursion, no randomness: every run is a pure function of its
//! schedule, which is what makes counterexamples replayable (see
//! [`crate::schedule`]).

use crate::oracle::{thm3_round_agreement, Verdict};
use crate::runbuild::RunBuilder;
use ftss::async_sim::{AsyncConfig, AsyncProcess, AsyncRunner, Ctx, DfsScheduler, Time};
use ftss::core::ProcessId;
use ftss::sync_sim::{RunOutcome, TapeOmission};
use ftss::telemetry::TraceSink;

/// One synchronous replay configuration: the protocol (round agreement),
/// the system size, the systemic failure, the faulty process the omission
/// tape may act through, and the oracle's stabilization bound. Graph
/// witnesses and schedule files carry one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DfsConfig {
    /// Number of processes.
    pub n: usize,
    /// Observer rounds per run.
    pub rounds: usize,
    /// Seed of the initial systemic failure (arbitrary corrupted states).
    pub corruption_seed: u64,
    /// The single faulty process the tape's omissions are attributed to.
    pub faulty: ProcessId,
    /// The tape length the counterexample was found within (a schedule
    /// file's `tape-bound:`; a graph witness sets it to the eligible
    /// copies of its rounds). Replay does not read it: copies past the
    /// tape's end are delivered.
    pub tape_bound: usize,
    /// Stabilization time handed to the Theorem-3 oracle (1 = the
    /// theorem's claim; 0 = a deliberately broken oracle that corrupted
    /// starts must violate).
    pub stabilization: usize,
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
/// property — graph mode confirms and shrinks its witnesses with it, and
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
/// --por`: two processes gossip their values (3 and 7) and must
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
pub(crate) mod tests {
    use super::*;

    /// The acceptance-criterion configuration: `n = 3`, one corrupted
    /// initial state per process, omissions through `p0`, two rounds (8
    /// eligible copies), Theorem-3 bound.
    pub(crate) fn small(corruption_seed: u64) -> DfsConfig {
        DfsConfig {
            n: 3,
            rounds: 2,
            corruption_seed,
            faulty: ProcessId(0),
            tape_bound: 8,
            stabilization: 1,
        }
    }

    /// Every tape of `cfg.tape_bound` bits in binary order (the last bit
    /// is the deepest choice), each judged by [`check_tape`]: the number
    /// of schedules run and the first violating tape.
    pub(crate) fn enumerate(cfg: &DfsConfig) -> (u64, Option<Vec<bool>>) {
        let d = cfg.tape_bound;
        assert!(d <= 20, "2^{d} runs is not test-sized");
        for bits in 0..1u64 << d {
            let tape: Vec<bool> = (0..d).map(|i| (bits >> (d - 1 - i)) & 1 == 1).collect();
            if check_tape(cfg, &tape).is_some() {
                return (bits + 1, Some(tape));
            }
        }
        (1 << d, None)
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

    #[test]
    fn probe_measures_eligible_copies() {
        // n = 3, faulty p0: per round the copies touching p0 are
        // p0→p1, p0→p2, p1→p0, p2→p0 — 4 per round.
        let cfg = small(7);
        let (_, eligible) = run_tape(&cfg, &[], &mut ftss::telemetry::NullSink);
        assert_eq!(eligible, 4 * cfg.rounds);
    }
}
