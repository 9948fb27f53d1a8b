//! Omission tapes of the synchronous model.
//!
//! [`run_tape`] executes one omission schedule of round agreement: a
//! boolean tape consumed by [`TapeOmission`] in the runner's
//! deterministic consultation order, one bit per copy eligible for
//! omission. [`check_tape`] judges it with the Theorem-3 oracle. This is
//! the concrete pipeline every synchronous counterexample goes through:
//! graph mode ([`crate::frontier`]) rebuilds its witnesses as tapes,
//! confirms them here and shrinks them ([`crate::shrink`]), and schedule
//! files ([`crate::schedule`]) replay them. Enumerating tapes is not a
//! checker of its own: the state graph covers every schedule of a
//! bounded horizon, and every horizon at its fixpoint.
//!
//! No randomness: every run is a pure function of its tape, which is
//! what makes counterexamples replayable (see [`crate::schedule`]).

use crate::oracle::{thm3_round_agreement, Verdict};
use crate::runbuild::RunBuilder;
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

    #[test]
    fn probe_measures_eligible_copies() {
        // n = 3, faulty p0: per round the copies touching p0 are
        // p0→p1, p0→p2, p1→p0, p2→p0 — 4 per round.
        let cfg = small(7);
        let (_, eligible) = run_tape(&cfg, &[], &mut ftss::telemetry::NullSink);
        assert_eq!(eligible, 4 * cfg.rounds);
    }
}
