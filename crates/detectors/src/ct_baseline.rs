//! A natural but non-self-stabilizing ◇S construction (the E5 baseline).
//!
//! Identical to Figure 4 except for one standard-looking optimization:
//! an entry is gossiped **only when it changed since the last broadcast**
//! (a `dirty` flag per entry). With properly initialized state this is
//! observably equivalent to Figure 4 and cheaper. But the optimization
//! smuggles in an initialization assumption: a corrupted
//! `(num = huge, state = dead, dirty = false)` entry about a live process
//! is *never rebroadcast*, so the live process never learns the high-water
//! mark it must outbid — the wrong verdict persists forever and eventual
//! weak accuracy fails. Experiment E5 demonstrates exactly this divergence.

use crate::strong::{LifeState, TableMsg};
use crate::weak::WeakOracle;
use ftss_async_sim::{AsyncProcess, Ctx};
use ftss_core::{Corrupt, ProcessId, ProcessSet};
use ftss_rng::Rng;

/// The baseline detector process: Figure 4 with change-only gossip.
#[derive(Clone, Debug)]
pub struct BaselineDetectorProcess {
    me: ProcessId,
    oracle: WeakOracle,
    poll_period: u64,
    /// `num[s]` version counters.
    pub num: Vec<u64>,
    /// `state[s]` verdicts.
    pub state: Vec<LifeState>,
    /// Change-tracking flags — the unsound "optimization" state.
    pub dirty: Vec<bool>,
}

impl BaselineDetectorProcess {
    const TICK: u64 = 1;

    /// Creates the baseline detector with clean initial state.
    pub fn new(me: ProcessId, oracle: WeakOracle, poll_period: u64) -> Self {
        let n = oracle.n();
        BaselineDetectorProcess {
            me,
            oracle,
            poll_period,
            num: vec![0; n],
            state: vec![LifeState::Alive; n],
            dirty: vec![true; n],
        }
    }

    /// The current suspect set.
    pub fn suspected(&self) -> ProcessSet {
        let mut out = ProcessSet::empty(self.num.len());
        for (i, st) in self.state.iter().enumerate() {
            if *st == LifeState::Dead {
                out.insert(ProcessId(i));
            }
        }
        out
    }

    fn set(&mut self, s: usize, n: u64, st: LifeState) {
        if self.num[s] != n || self.state[s] != st {
            self.num[s] = n;
            self.state[s] = st;
            self.dirty[s] = true;
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<TableMsg>) {
        let now = ctx.now();
        for s in 0..self.num.len() {
            let sp = ProcessId(s);
            if sp != self.me && self.oracle.detect(self.me, sp, now) {
                let n = self.num[s].saturating_add(1);
                self.set(s, n, LifeState::Dead);
            }
        }
        let me = self.me.index();
        let n = self.num[me].saturating_add(1);
        self.set(me, n, LifeState::Alive);
        // Change-only gossip: entries that are not dirty are sent as
        // version 0, which receivers always ignore — equivalent to
        // omitting them, while keeping the message shape of Figure 4.
        let table: TableMsg = (0..self.num.len())
            .map(|s| {
                if self.dirty[s] {
                    (self.num[s], self.state[s])
                } else {
                    (0, LifeState::Alive)
                }
            })
            .collect();
        for d in &mut self.dirty {
            *d = false;
        }
        ctx.broadcast(table);
        ctx.set_timer(self.poll_period, Self::TICK);
    }
}

impl Corrupt for BaselineDetectorProcess {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for v in &mut self.num {
            *v = rng.gen_range(0..u64::MAX / 2);
        }
        for st in &mut self.state {
            st.corrupt(rng);
        }
        for d in &mut self.dirty {
            d.corrupt(rng);
        }
    }
}

impl AsyncProcess for BaselineDetectorProcess {
    type Msg = TableMsg;

    fn on_start(&mut self, ctx: &mut Ctx<TableMsg>) {
        ctx.set_timer(self.poll_period, Self::TICK);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<TableMsg>, _from: ProcessId, msg: &TableMsg) {
        for (s, &(n, st)) in msg.iter().enumerate() {
            if s < self.num.len() && n > self.num[s] {
                // Adoption marks the entry dirty, as any state change does.
                self.set(s, n, st);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<TableMsg>, tag: u64) {
        if tag == Self::TICK {
            self.tick(ctx);
        }
    }
}

impl crate::properties::Suspector for BaselineDetectorProcess {
    fn suspected(&self) -> ProcessSet {
        BaselineDetectorProcess::suspected(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_async_sim::{AsyncConfig, AsyncRunner};

    fn build(
        n: usize,
        crashes: Vec<(ProcessId, u64)>,
        seed: u64,
    ) -> AsyncRunner<BaselineDetectorProcess> {
        let oracle = WeakOracle::new(n, crashes.clone(), 400, seed, 0.25);
        let procs: Vec<BaselineDetectorProcess> = (0..n)
            .map(|i| BaselineDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
            .collect();
        let mut cfg = AsyncConfig::tame(seed);
        for (p, t) in crashes {
            cfg = cfg.with_crash(p, t);
        }
        AsyncRunner::new(procs, cfg).unwrap()
    }

    #[test]
    fn clean_state_matches_figure_four_behaviour() {
        let mut r = build(4, vec![(ProcessId(3), 100)], 5);
        r.run_until(5_000);
        for i in 0..3 {
            let sus = r.process(ProcessId(i)).suspected();
            assert!(sus.contains(ProcessId(3)), "completeness at p{i}");
            assert!(!sus.contains(ProcessId(0)), "accuracy at p{i}");
        }
    }

    #[test]
    fn corrupted_clean_dirty_flag_never_heals() {
        // The E5 divergence, in miniature: p1 believes the accurate p0 is
        // dead with a huge counter, and the entry is marked clean. Nothing
        // ever rebroadcasts the high-water mark, so p0 cannot outbid it.
        let oracle = WeakOracle::new(3, vec![], 0, 9, 0.0);
        let mut procs: Vec<BaselineDetectorProcess> = (0..3)
            .map(|i| BaselineDetectorProcess::new(ProcessId(i), oracle.clone(), 20))
            .collect();
        procs[1].num[0] = 1_000_000;
        procs[1].state[0] = LifeState::Dead;
        procs[1].dirty[0] = false;
        let mut r = AsyncRunner::new(procs, AsyncConfig::tame(3)).unwrap();
        r.run_until(20_000);
        assert_eq!(
            r.process(ProcessId(1)).state[0],
            LifeState::Dead,
            "the baseline must stay wrong — that is its defect"
        );
        assert!(
            r.process(ProcessId(0)).num[0] < 1_000_000,
            "p0 never learned the mark to outbid"
        );
    }

    #[test]
    fn undelivered_zero_entries_are_ignored() {
        let oracle = WeakOracle::new(2, vec![], 0, 1, 0.0);
        let mut p = BaselineDetectorProcess::new(ProcessId(0), oracle, 10);
        p.num[1] = 3;
        let mut ctx = Ctx::new(ProcessId(0), 2, 0);
        p.on_message(
            &mut ctx,
            ProcessId(1),
            &vec![(0, LifeState::Dead), (0, LifeState::Dead)],
        );
        assert_eq!(p.state[0], LifeState::Alive);
        assert_eq!(p.state[1], LifeState::Alive);
    }

    #[test]
    fn set_marks_dirty_only_on_change() {
        let oracle = WeakOracle::new(2, vec![], 0, 1, 0.0);
        let mut p = BaselineDetectorProcess::new(ProcessId(0), oracle, 10);
        p.dirty = vec![false, false];
        p.set(1, 0, LifeState::Alive); // no-op: same values
        assert!(!p.dirty[1]);
        p.set(1, 2, LifeState::Dead);
        assert!(p.dirty[1]);
    }
}
