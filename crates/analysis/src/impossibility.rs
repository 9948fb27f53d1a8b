//! Executable renditions of Theorems 1 and 2.
//!
//! Impossibility theorems quantify over *all* protocols, so they cannot be
//! "run" directly; what can be run is the paper's proof scenarios against
//! representative protocol archetypes, showing each archetype impaled on
//! one horn of the dilemma:
//!
//! **Theorem 1** (no finite stabilization time under Tentative
//! Definition 1). For a candidate stabilization time `r`, two histories
//! refute each archetype:
//!
//! * *History A* — two processes with divergent corrupted counters, fully
//!   partitioned for exactly `r` rounds by omission failures attributed to
//!   `p0`, then failure-free. Σ (Assumption 1) must hold on the `r`-suffix
//!   with faulty = `{p0}` — so the correct `p1` must advance its counter
//!   by exactly 1 per round from round `r + 1` on.
//! * *History B* — the same divergent corruption, **no failures at all**
//!   (the proof's scenario 3). Σ must hold on the `r`-suffix with faulty =
//!   ∅ — so the counters must agree.
//!
//! A protocol that reconciles counters (Figure 1's round agreement) passes
//! B but breaks A's rate condition at the merge; a protocol that never
//! reconciles (`StubbornCounter`) passes A but never agrees in B; a
//! self-checking protocol ([`HaltOnDisagreement`], [`EagerHalt`]) freezes
//! a correct process's counter. Every archetype is refuted for every `r`.
//!
//! **Theorem 2** (no uniform protocol ftss-solves anything). In the
//! permanently-partitioned history, a uniform protocol must get the faulty
//! process to halt or agree (Assumption 2); but whatever triggers the halt
//! also halts a correct process in the indistinguishable run, violating
//! Assumption 1's rate condition.

use ftss_core::{
    Corrupt, Problem, ProcessId, ProcessSet, RateAgreementSpec, RoundCounter, Violation,
};
use ftss_protocols::round_agreement::RoundAgreementState;
use ftss_protocols::RoundAgreement;
use ftss_rng::Rng;
use ftss_sync_sim::{
    Adversary, Inbox, OmissionSide, ProtocolCtx, RunConfig, ScriptedOmission, SyncProtocol,
    SyncRunner,
};

/// State shared by the impossibility archetypes: a counter and a halt flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHaltState {
    /// The round variable `c_p`.
    pub c: RoundCounter,
    /// Whether the process has self-halted.
    pub halted: bool,
}

impl Corrupt for CounterHaltState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.c.corrupt(rng);
        // Halt flags are protocol bookkeeping; the scenarios install their
        // own counters, so keep corruption on the counter only here — the
        // drivers set divergent values deterministically.
        let _ = rng;
        self.halted = false;
    }
}

/// Archetype 1: increments its counter and ignores everyone — maintains
/// the rate condition, never re-establishes agreement.
#[derive(Clone, Copy, Debug, Default)]
struct StubbornCounter;

impl SyncProtocol for StubbornCounter {
    type State = CounterHaltState;
    type Msg = u64;

    fn name(&self) -> &str {
        "stubborn-counter"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> CounterHaltState {
        CounterHaltState {
            c: RoundCounter::INITIAL,
            halted: false,
        }
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> u64 {
        s.c.get()
    }

    fn step(&self, _ctx: &ProtocolCtx, s: &mut CounterHaltState, _inbox: &Inbox<u64>) {
        s.c = s.c.next();
    }

    fn round_counter(&self, s: &CounterHaltState) -> Option<RoundCounter> {
        Some(s.c)
    }
}

/// Archetype 2 (uniform, lazily self-checking): behaves like round
/// agreement, but **halts** the moment it observes a counter different
/// from its own — "halting before doing any harm" (Assumption 2's
/// technique).
#[derive(Clone, Copy, Debug, Default)]
pub struct HaltOnDisagreement;

impl SyncProtocol for HaltOnDisagreement {
    type State = CounterHaltState;
    type Msg = u64;

    fn name(&self) -> &str {
        "halt-on-disagreement"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> CounterHaltState {
        CounterHaltState {
            c: RoundCounter::INITIAL,
            halted: false,
        }
    }

    fn sends(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> bool {
        !s.halted
    }

    fn is_halted(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> bool {
        s.halted
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> u64 {
        s.c.get()
    }

    fn step(&self, _ctx: &ProtocolCtx, s: &mut CounterHaltState, inbox: &Inbox<u64>) {
        if s.halted {
            return;
        }
        if inbox.iter().any(|(_, &c)| c != s.c.get()) {
            s.halted = true;
            return;
        }
        s.c = s.c.next();
    }

    fn round_counter(&self, s: &CounterHaltState) -> Option<RoundCounter> {
        Some(s.c)
    }
}

/// Archetype 3 (uniform, eagerly self-checking): halts as soon as a round
/// passes in which it did not hear from every process.
#[derive(Clone, Copy, Debug, Default)]
pub struct EagerHalt;

impl SyncProtocol for EagerHalt {
    type State = CounterHaltState;
    type Msg = u64;

    fn name(&self) -> &str {
        "eager-halt"
    }

    fn init_state(&self, _ctx: &ProtocolCtx) -> CounterHaltState {
        CounterHaltState {
            c: RoundCounter::INITIAL,
            halted: false,
        }
    }

    fn sends(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> bool {
        !s.halted
    }

    fn is_halted(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> bool {
        s.halted
    }

    fn broadcast(&self, _ctx: &ProtocolCtx, s: &CounterHaltState) -> u64 {
        s.c.get()
    }

    fn step(&self, ctx: &ProtocolCtx, s: &mut CounterHaltState, inbox: &Inbox<u64>) {
        if s.halted {
            return;
        }
        if inbox.len() < ctx.n {
            s.halted = true;
            return;
        }
        let max = inbox.iter().map(|(_, &c)| c).max().unwrap_or(s.c.get());
        s.c = RoundCounter::new(max).next();
    }

    fn round_counter(&self, s: &CounterHaltState) -> Option<RoundCounter> {
        Some(s.c)
    }
}

/// The archetypes driven through the Theorem-1 histories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Archetype {
    /// Figure 1's round agreement (reconciles counters).
    RoundAgreement,
    /// `StubbornCounter`.
    Stubborn,
    /// [`HaltOnDisagreement`].
    HaltOnDisagreement,
    /// [`EagerHalt`].
    EagerHalt,
}

impl Archetype {
    /// All archetypes, for sweeping.
    pub fn all() -> [Archetype; 4] {
        [
            Archetype::RoundAgreement,
            Archetype::Stubborn,
            Archetype::HaltOnDisagreement,
            Archetype::EagerHalt,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Archetype::RoundAgreement => "round-agreement (Fig 1)",
            Archetype::Stubborn => "stubborn-counter",
            Archetype::HaltOnDisagreement => "halt-on-disagreement",
            Archetype::EagerHalt => "eager-halt",
        }
    }
}

/// The verdicts of the two Theorem-1 histories for one archetype.
#[derive(Clone, Debug)]
pub struct Theorem1Outcome {
    /// Which archetype was driven.
    pub archetype: Archetype,
    /// The candidate stabilization time.
    pub r: usize,
    /// Violation found in History A (partition of length `r`, faulty
    /// = `{p0}`), if any.
    pub history_a: Option<Violation>,
    /// Violation found in History B (failure-free, faulty = ∅), if any.
    pub history_b: Option<Violation>,
}

impl Theorem1Outcome {
    /// Theorem 1 predicts every archetype fails at least one history.
    pub fn refuted(&self) -> bool {
        self.history_a.is_some() || self.history_b.is_some()
    }
}

/// A fully-partitioning adversary for 2 processes: all copies between
/// `p0` and `p1` are dropped in rounds `1..=rounds`, attributed to `p0`
/// (send omissions outbound, receive omissions inbound — `p0` is the one
/// faulty process).
fn partition_adversary(rounds: u64) -> ScriptedOmission {
    let mut adv = ScriptedOmission::new();
    for r in 1..=rounds {
        adv.drop_at(r, ProcessId(0), ProcessId(1), OmissionSide::Sender);
        adv.drop_at(r, ProcessId(1), ProcessId(0), OmissionSide::Receiver);
    }
    adv
}

/// Runs one archetype through both Theorem-1 histories with candidate
/// stabilization time `r`, divergent corrupted counters
/// (`c_p0 = high`, `c_p1 = low`), and `extra` failure-free rounds after
/// the partition.
pub fn theorem1_demo(archetype: Archetype, r: usize, extra: usize) -> Theorem1Outcome {
    let total = r + extra;
    let spec = RateAgreementSpec::new();

    // Drive whichever archetype through a closure to erase the state type.
    fn drive<P>(
        protocol: P,
        adversary: &mut dyn Adversary,
        total: usize,
        suffix: usize,
        faulty0: bool,
        high_low: (u64, u64),
    ) -> Option<Violation>
    where
        P: SyncProtocol,
        P::State: Corrupt + CounterInstall,
    {
        let out = SyncRunner::new(InstallCounters {
            inner: protocol,
            values: high_low,
        })
        .run(adversary, &RunConfig::clean(2, total))
        .expect("valid config");
        let n = 2;
        let faulty = if faulty0 {
            ProcessSet::from_iter_n(n, [ProcessId(0)])
        } else {
            ProcessSet::empty(n)
        };
        let spec = RateAgreementSpec::new();
        let slice = out.history.suffix(suffix);
        Problem::<P::State, P::Msg>::check(&spec, slice, &faulty).err()
    }

    let (a, b) = match archetype {
        Archetype::RoundAgreement => (
            drive(
                RoundAgreement,
                &mut partition_adversary(r as u64),
                total,
                r,
                true,
                (1 << 20, 1),
            ),
            drive(
                RoundAgreement,
                &mut ftss_sync_sim::NoFaults,
                total,
                r,
                false,
                (1 << 20, 1),
            ),
        ),
        Archetype::Stubborn => (
            drive(
                StubbornCounter,
                &mut partition_adversary(r as u64),
                total,
                r,
                true,
                (1 << 20, 1),
            ),
            drive(
                StubbornCounter,
                &mut ftss_sync_sim::NoFaults,
                total,
                r,
                false,
                (1 << 20, 1),
            ),
        ),
        Archetype::HaltOnDisagreement => (
            drive(
                HaltOnDisagreement,
                &mut partition_adversary(r as u64),
                total,
                r,
                true,
                (1 << 20, 1),
            ),
            drive(
                HaltOnDisagreement,
                &mut ftss_sync_sim::NoFaults,
                total,
                r,
                false,
                (1 << 20, 1),
            ),
        ),
        Archetype::EagerHalt => (
            drive(
                EagerHalt,
                &mut partition_adversary(r as u64),
                total,
                r,
                true,
                (1 << 20, 1),
            ),
            drive(
                EagerHalt,
                &mut ftss_sync_sim::NoFaults,
                total,
                r,
                false,
                (1 << 20, 1),
            ),
        ),
    };
    let _ = spec;
    Theorem1Outcome {
        archetype,
        r,
        history_a: a,
        history_b: b,
    }
}

/// Installing divergent counters: the scenarios need *specific* corrupted
/// counters (`p0` high, `p1` low), not random ones.
trait CounterInstall {
    fn install(&mut self, c: u64);
}

impl CounterInstall for RoundAgreementState {
    fn install(&mut self, c: u64) {
        self.c = RoundCounter::new(c);
    }
}

impl CounterInstall for CounterHaltState {
    fn install(&mut self, c: u64) {
        self.c = RoundCounter::new(c);
        self.halted = false;
    }
}

/// A wrapper protocol that rewrites initial counters to the scenario's
/// divergent values — a *deterministic* systemic failure.
struct InstallCounters<P> {
    inner: P,
    values: (u64, u64),
}

impl<P> SyncProtocol for InstallCounters<P>
where
    P: SyncProtocol,
    P::State: CounterInstall,
{
    type State = P::State;
    type Msg = P::Msg;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init_state(&self, ctx: &ProtocolCtx) -> P::State {
        let mut s = self.inner.init_state(ctx);
        s.install(if ctx.me == ProcessId(0) {
            self.values.0
        } else {
            self.values.1
        });
        s
    }

    fn sends(&self, ctx: &ProtocolCtx, state: &P::State) -> bool {
        self.inner.sends(ctx, state)
    }

    fn is_halted(&self, ctx: &ProtocolCtx, state: &P::State) -> bool {
        self.inner.is_halted(ctx, state)
    }

    fn broadcast(&self, ctx: &ProtocolCtx, state: &P::State) -> P::Msg {
        self.inner.broadcast(ctx, state)
    }

    fn step(&self, ctx: &ProtocolCtx, state: &mut P::State, inbox: &Inbox<P::Msg>) {
        self.inner.step(ctx, state, inbox)
    }

    fn round_counter(&self, state: &P::State) -> Option<RoundCounter> {
        self.inner.round_counter(state)
    }
}

/// The Theorem-2 verdicts for one uniform archetype in the permanently
/// partitioned history.
#[derive(Clone, Debug)]
pub struct Theorem2Outcome {
    /// Which archetype was driven.
    pub archetype: Archetype,
    /// Did the faulty process (`p0`) halt?
    pub faulty_halted: bool,
    /// Did the correct process (`p1`) halt?
    pub correct_halted: bool,
    /// Final counters `(c_p0, c_p1)`.
    pub counters: (u64, u64),
}

impl Theorem2Outcome {
    /// Assumption 2 (uniformity): the faulty process halted or agrees.
    pub fn uniformity_holds(&self) -> bool {
        self.faulty_halted || self.counters.0 == self.counters.1
    }

    /// Assumption 1's rate condition for the correct process requires it
    /// to keep counting — a halted correct process violates it.
    pub fn assumption1_holds(&self) -> bool {
        !self.correct_halted
    }

    /// Theorem 2 predicts one of the two must fail.
    pub fn refuted(&self) -> bool {
        !(self.uniformity_holds() && self.assumption1_holds())
    }
}

/// Runs a uniform archetype through the permanently-partitioned history
/// (`rounds` rounds, all communication between the two processes dropped,
/// `p0` faulty) with divergent installed counters.
///
/// # Panics
///
/// Panics if called with a non-uniform archetype
/// ([`Archetype::RoundAgreement`] or [`Archetype::Stubborn`] do not
/// restrict faulty processes, so Theorem 2 does not apply to them).
pub fn theorem2_demo(archetype: Archetype, rounds: usize) -> Theorem2Outcome {
    fn drive<P>(protocol: P, archetype: Archetype, rounds: usize) -> Theorem2Outcome
    where
        P: SyncProtocol<State = CounterHaltState>,
    {
        let mut adv = partition_adversary(rounds as u64);
        let out = SyncRunner::new(InstallCounters {
            inner: protocol,
            values: (1 << 20, 1),
        })
        .run(&mut adv, &RunConfig::clean(2, rounds))
        .expect("valid config");
        let s0 = out.final_states[0].as_ref().unwrap();
        let s1 = out.final_states[1].as_ref().unwrap();
        Theorem2Outcome {
            archetype,
            faulty_halted: s0.halted,
            correct_halted: s1.halted,
            counters: (s0.c.get(), s1.c.get()),
        }
    }
    match archetype {
        Archetype::HaltOnDisagreement => drive(HaltOnDisagreement, archetype, rounds),
        Archetype::EagerHalt => drive(EagerHalt, archetype, rounds),
        other => panic!("{other:?} is not a uniform protocol"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_every_archetype_refuted_for_every_r() {
        for r in [1usize, 2, 5, 10] {
            for archetype in Archetype::all() {
                let out = theorem1_demo(archetype, r, 6);
                assert!(
                    out.refuted(),
                    "{} with r={r} passed both histories — Theorem 1 contradicted",
                    archetype.name()
                );
            }
        }
    }

    #[test]
    fn theorem1_round_agreement_fails_a_passes_b() {
        let out = theorem1_demo(Archetype::RoundAgreement, 3, 6);
        let a = out.history_a.expect("history A must be violated");
        assert_eq!(a.rule, "rate", "the merge breaks the rate condition: {a}");
        assert!(out.history_b.is_none(), "failure-free history must pass");
    }

    #[test]
    fn theorem1_stubborn_passes_a_fails_b() {
        let out = theorem1_demo(Archetype::Stubborn, 3, 6);
        assert!(out.history_a.is_none(), "stubborn keeps perfect rate");
        let b = out.history_b.expect("history B must be violated");
        assert_eq!(b.rule, "agreement", "{b}");
    }

    #[test]
    fn theorem2_halt_on_disagreement_violates_uniformity() {
        let out = theorem2_demo(Archetype::HaltOnDisagreement, 8);
        assert!(
            !out.faulty_halted,
            "p0 saw no disagreement, so never halted"
        );
        assert_ne!(out.counters.0, out.counters.1);
        assert!(!out.uniformity_holds());
        assert!(out.refuted());
    }

    #[test]
    fn theorem2_eager_halt_kills_the_correct_process() {
        let out = theorem2_demo(Archetype::EagerHalt, 8);
        assert!(out.correct_halted, "p1 misses p0's messages and halts");
        assert!(!out.assumption1_holds());
        assert!(out.refuted());
    }

    #[test]
    #[should_panic(expected = "not a uniform protocol")]
    fn theorem2_rejects_non_uniform_archetypes() {
        theorem2_demo(Archetype::Stubborn, 4);
    }

    #[test]
    fn archetype_names() {
        for a in Archetype::all() {
            assert!(!a.name().is_empty());
        }
    }

    #[test]
    fn install_counters_sets_divergent_values() {
        let proto = InstallCounters {
            inner: StubbornCounter,
            values: (100, 7),
        };
        let s0 = proto.init_state(&ProtocolCtx::new(ProcessId(0), 2));
        let s1 = proto.init_state(&ProtocolCtx::new(ProcessId(1), 2));
        assert_eq!(s0.c.get(), 100);
        assert_eq!(s1.c.get(), 7);
    }
}
