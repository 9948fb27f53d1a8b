//! Figure 4: the self-stabilizing ◇W → ◇S transformation.
//!
//! Per monitored process `s`, every process `p` keeps a counter `num[s]`
//! and a verdict `state[s] ∈ {dead, alive}`:
//!
//! ```text
//! when detect(s):        num[s] += 1; state[s] := dead
//! when (p = s):          num[s] += 1; state[s] := alive
//! when true:             send (s, num[s], state[s]) to all
//! when deliver (s,n,st): if n > num[s] { num[s] := n; state[s] := st }
//! ```
//!
//! The `when true` / `when detect` / `when (p = s)` forever-guards are
//! modelled by a periodic timer; each tick polls the ◇W oracle, bumps the
//! self-entry, and **unconditionally re-broadcasts the whole table**. That
//! unconditional re-broadcast is the self-stabilization mechanism: a
//! corrupted high-water-mark `num[s]` at any process is gossiped to `s`
//! itself, which adopts it and out-bids it with `alive` — so any finite
//! corruption is eventually overridden (Theorem 5).

use crate::weak::WeakOracle;
use ftss_async_sim::{AsyncProcess, Ctx};
use ftss_core::{Corrupt, ProcessId, ProcessSet};
use ftss_rng::Rng;

/// A process's verdict about another process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LifeState {
    /// Believed operational.
    Alive,
    /// Suspected crashed.
    Dead,
}

impl Corrupt for LifeState {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        *self = if rng.gen() {
            LifeState::Alive
        } else {
            LifeState::Dead
        };
    }
}

/// Overwrites process `me`'s detector tables with the adversarial state
/// the experiments call *poison*: everyone else believed dead at version
/// 10⁹, `me` alive at version 0 — a verdict no execution from a clean
/// start produces, and which Figure 4 must still heal.
pub fn poison_tables(num: &mut [u64], state: &mut [LifeState], me: usize) {
    for s in 0..num.len() {
        (num[s], state[s]) = if s == me {
            (0, LifeState::Alive)
        } else {
            (1_000_000_000, LifeState::Dead)
        };
    }
}

/// One process of the Figure-4 Eventually Strong detector.
///
/// The suspect set it outputs is `{ s | state[s] == Dead }`.
#[derive(Clone, Debug)]
pub struct StrongDetectorProcess {
    me: ProcessId,
    oracle: WeakOracle,
    poll_period: u64,
    /// `num[s]` — version counters, one per process.
    pub num: Vec<u64>,
    /// `state[s]` — verdicts, one per process.
    pub state: Vec<LifeState>,
}

/// The gossip payload: the sender's full `(num, state)` table.
pub type TableMsg = Vec<(u64, LifeState)>;

impl StrongDetectorProcess {
    /// Timer tag for the poll/gossip tick.
    const TICK: u64 = 1;

    /// Creates the detector for process `me` with the paper-specified
    /// initial table (all alive, counters 0). Systemic failures are
    /// injected by corrupting the created value.
    pub fn new(me: ProcessId, oracle: WeakOracle, poll_period: u64) -> Self {
        let n = oracle.n();
        StrongDetectorProcess {
            me,
            oracle,
            poll_period,
            num: vec![0; n],
            state: vec![LifeState::Alive; n],
        }
    }

    /// The current suspect set `{ s | state[s] = Dead }`.
    pub fn suspected(&self) -> ProcessSet {
        let mut out = ProcessSet::empty(self.num.len());
        for (i, st) in self.state.iter().enumerate() {
            if *st == LifeState::Dead {
                out.insert(ProcessId(i));
            }
        }
        out
    }

    fn tick(&mut self, ctx: &mut Ctx<TableMsg>) {
        let now = ctx.now();
        // when detect(s): num += 1, dead.
        for s in 0..self.num.len() {
            let sp = ProcessId(s);
            if sp != self.me && self.oracle.detect(self.me, sp, now) {
                self.num[s] = self.num[s].saturating_add(1);
                self.state[s] = LifeState::Dead;
            }
        }
        // when (p = s): num += 1, alive.
        let me = self.me.index();
        self.num[me] = self.num[me].saturating_add(1);
        self.state[me] = LifeState::Alive;
        // when true: send the table to all (unconditional re-broadcast).
        let table: TableMsg = self
            .num
            .iter()
            .zip(&self.state)
            .map(|(&n, &st)| (n, st))
            .collect();
        ctx.broadcast(table);
        ctx.set_timer(self.poll_period, Self::TICK);
    }
}

impl Corrupt for StrongDetectorProcess {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Arbitrary finite counters (kept below u64::MAX/2: the paper's
        // counters are unbounded, so every corrupted value is finite and
        // can be exceeded) and arbitrary verdicts.
        for v in &mut self.num {
            *v = rng.gen_range(0..u64::MAX / 2);
        }
        for st in &mut self.state {
            st.corrupt(rng);
        }
    }
}

impl AsyncProcess for StrongDetectorProcess {
    type Msg = TableMsg;

    fn on_start(&mut self, ctx: &mut Ctx<TableMsg>) {
        ctx.set_timer(self.poll_period, Self::TICK);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<TableMsg>, _from: ProcessId, msg: &TableMsg) {
        // when deliver (s, n, st): adopt strictly-newer versions.
        for (s, &(n, st)) in msg.iter().enumerate() {
            if s < self.num.len() && n > self.num[s] {
                self.num[s] = n;
                self.state[s] = st;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<TableMsg>, tag: u64) {
        if tag == Self::TICK {
            self.tick(ctx);
        }
    }
}

impl crate::properties::Suspector for StrongDetectorProcess {
    fn suspected(&self) -> ProcessSet {
        StrongDetectorProcess::suspected(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_async_sim::{AsyncConfig, AsyncRunner};
    use ftss_rng::StdRng;

    fn build(
        n: usize,
        crashes: Vec<(ProcessId, u64)>,
        seed: u64,
        corrupt_seed: Option<u64>,
    ) -> AsyncRunner<StrongDetectorProcess> {
        let oracle = WeakOracle::new(n, crashes.clone(), 400, seed, 0.25);
        let mut procs: Vec<StrongDetectorProcess> = (0..n)
            .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
            .collect();
        if let Some(cs) = corrupt_seed {
            let mut rng = StdRng::seed_from_u64(cs);
            for p in &mut procs {
                p.corrupt(&mut rng);
            }
        }
        let mut cfg = AsyncConfig::tame(seed);
        for (p, t) in crashes {
            cfg = cfg.with_crash(p, t);
        }
        AsyncRunner::new(procs, cfg).unwrap()
    }

    #[test]
    fn strong_completeness_from_clean_state() {
        let mut r = build(4, vec![(ProcessId(3), 100)], 5, None);
        r.run_until(5_000);
        for i in 0..3 {
            assert!(
                r.process(ProcessId(i)).suspected().contains(ProcessId(3)),
                "p{i} must suspect the crashed p3"
            );
        }
    }

    #[test]
    fn eventual_weak_accuracy_from_clean_state() {
        let mut r = build(4, vec![(ProcessId(3), 100)], 5, None);
        r.run_until(5_000);
        for i in 0..3 {
            assert!(
                !r.process(ProcessId(i)).suspected().contains(ProcessId(0)),
                "p{i} must not suspect the accurate p0"
            );
        }
    }

    #[test]
    fn recovers_from_arbitrary_corruption() {
        // Theorem 5: no initialization required.
        for seed in 0..10u64 {
            let mut r = build(4, vec![(ProcessId(3), 100)], seed, Some(seed ^ 0xfeed));
            r.run_until(20_000);
            for i in 0..3 {
                let sus = r.process(ProcessId(i)).suspected();
                assert!(
                    sus.contains(ProcessId(3)),
                    "seed {seed}: completeness at p{i}"
                );
                assert!(
                    !sus.contains(ProcessId(0)),
                    "seed {seed}: accuracy at p{i} (suspects {sus})"
                );
            }
        }
    }

    #[test]
    fn corrupted_dead_verdict_about_alive_process_heals() {
        // Targeted corruption: p1 believes the accurate p0 is dead with an
        // enormous counter. p0's self-increments alone would never outbid
        // it — the unconditional gossip must carry the high-water mark to
        // p0, which then overrides it.
        let oracle = WeakOracle::new(3, vec![], 0, 9, 0.0);
        let mut procs: Vec<StrongDetectorProcess> = (0..3)
            .map(|i| StrongDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
            .collect();
        procs[1].num[0] = 1_000_000;
        procs[1].state[0] = LifeState::Dead;
        let mut r = AsyncRunner::new(procs, AsyncConfig::tame(3)).unwrap();
        r.run_until(10_000);
        assert_eq!(r.process(ProcessId(1)).state[0], LifeState::Alive);
        assert!(r.process(ProcessId(0)).num[0] > 1_000_000);
    }

    #[test]
    fn self_entry_is_always_alive_at_tick() {
        let oracle = WeakOracle::new(2, vec![], 0, 1, 0.0);
        let mut p = StrongDetectorProcess::new(ProcessId(0), oracle, 10);
        p.state[0] = LifeState::Dead; // corrupted self-verdict
        let mut ctx = Ctx::new(ProcessId(0), 2, 0);
        p.tick(&mut ctx);
        assert_eq!(p.state[0], LifeState::Alive);
        assert!(!p.suspected().contains(ProcessId(0)));
    }

    #[test]
    fn stale_message_is_ignored() {
        let oracle = WeakOracle::new(2, vec![], 0, 1, 0.0);
        let mut p = StrongDetectorProcess::new(ProcessId(0), oracle, 10);
        p.num[1] = 10;
        p.state[1] = LifeState::Alive;
        let mut ctx = Ctx::new(ProcessId(0), 2, 0);
        p.on_message(
            &mut ctx,
            ProcessId(1),
            &vec![(0, LifeState::Alive), (5, LifeState::Dead)],
        );
        assert_eq!(p.state[1], LifeState::Alive, "n=5 < num=10 must be ignored");
        p.on_message(
            &mut ctx,
            ProcessId(1),
            &vec![(0, LifeState::Alive), (11, LifeState::Dead)],
        );
        assert_eq!(p.state[1], LifeState::Dead, "n=11 > num=10 must be adopted");
    }

    #[test]
    fn short_table_from_corrupted_sender_is_safe() {
        let oracle = WeakOracle::new(3, vec![], 0, 1, 0.0);
        let mut p = StrongDetectorProcess::new(ProcessId(0), oracle, 10);
        let mut ctx = Ctx::new(ProcessId(0), 3, 0);
        // A 1-entry table must not panic or touch other entries.
        p.on_message(&mut ctx, ProcessId(1), &vec![(99, LifeState::Dead)]);
        assert_eq!(p.state[1], LifeState::Alive);
        assert_eq!(p.state[2], LifeState::Alive);
        assert_eq!(p.num[0], 99);
    }
}
