//! A heartbeat-based Eventually Weak failure detector.
//!
//! [`crate::WeakOracle`] realizes ◇W *by assumption*, as the paper does. This
//! module realizes it *by construction*, the standard way: every process
//! sends periodic heartbeats; a monitor suspects a process whose heartbeat
//! is overdue, and **doubles that process's timeout** whenever a suspicion
//! proves wrong (a heartbeat arrives from a suspect). After GST, delays
//! are bounded, so each timeout is corrected at most a bounded number of
//! times and eventually: crashed processes are suspected forever (strong —
//! hence also weak — completeness), and live processes are eventually
//! never suspected (eventual strong — hence weak — accuracy). This is the
//! ◇P construction of Chandra–Toueg under partial synchrony, which
//! suffices wherever ◇W or ◇S is assumed.
//!
//! The detector is *naturally self-stabilizing*: its state (timeouts and
//! last-heard times) is continuously re-learned from fresh heartbeats, so
//! arbitrary corruption delays convergence but cannot prevent it —
//! provided corrupted timeouts stay finite, which matches the unbounded-
//! counter modelling used throughout (see `DESIGN.md`).

use crate::properties::Suspector;
use ftss_async_sim::{AsyncProcess, Ctx, Time};
use ftss_core::{Corrupt, ProcessId, ProcessSet};
use ftss_rng::Rng;

/// One process of the heartbeat ◇P/◇W detector.
#[derive(Clone, Debug)]
pub struct HeartbeatDetector {
    me: ProcessId,
    n: usize,
    period: Time,
    /// Last time a heartbeat from each process arrived.
    pub last_heard: Vec<Time>,
    /// Current timeout per monitored process.
    pub timeout: Vec<Time>,
    /// Current suspicion verdicts.
    pub suspects: ProcessSet,
}

impl HeartbeatDetector {
    const TICK: u64 = 1;

    /// Creates a detector for `me` in a system of `n`, with heartbeat
    /// period `period` and initial timeout `initial_timeout`.
    pub fn new(me: ProcessId, n: usize, period: Time, initial_timeout: Time) -> Self {
        HeartbeatDetector {
            me,
            n,
            period,
            last_heard: vec![0; n],
            timeout: vec![initial_timeout.max(1); n],
            suspects: ProcessSet::empty(n),
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<()>) {
        let now = ctx.now();
        ctx.broadcast(());
        for s in 0..self.n {
            let sp = ProcessId(s);
            if sp == self.me {
                continue;
            }
            // Self-stabilization repair: a last-heard time in the future
            // is impossible and must be corrupted state; clamp it so the
            // timeout clock restarts from now instead of never expiring.
            if self.last_heard[s] > now {
                self.last_heard[s] = now;
            }
            if now.saturating_sub(self.last_heard[s]) > self.timeout[s] {
                self.suspects.insert(sp);
            }
        }
        ctx.set_timer(self.period, Self::TICK);
    }
}

impl Corrupt for HeartbeatDetector {
    fn corrupt<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for t in &mut self.last_heard {
            *t = rng.gen_range(0..1 << 20);
        }
        for t in &mut self.timeout {
            // Finite but arbitrary. Any finite value converges eventually;
            // the range is kept below the experiment horizons so the tests
            // can observe the convergence (the unbounded-counter modelling
            // note in DESIGN.md applies here too).
            *t = rng.gen_range(1..1 << 12);
        }
        self.suspects.corrupt(rng);
        let me = self.me;
        self.suspects.remove(me);
    }
}

impl AsyncProcess for HeartbeatDetector {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        ctx.set_timer(self.period, Self::TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<()>, from: ProcessId, _msg: &()) {
        let s = from.index();
        self.last_heard[s] = ctx.now();
        if self.suspects.remove(from) {
            // Wrong suspicion: the standard adaptive correction.
            self.timeout[s] = self.timeout[s].saturating_mul(2);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<()>, tag: u64) {
        if tag == Self::TICK {
            self.tick(ctx);
        }
    }
}

impl Suspector for HeartbeatDetector {
    fn suspected(&self) -> ProcessSet {
        self.suspects.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{eventual_weak_accuracy, strong_completeness_time, SuspectProbe};
    use ftss_async_sim::{AsyncConfig, AsyncRunner};
    use ftss_rng::StdRng;

    fn run(
        n: usize,
        crashes: Vec<(ProcessId, Time)>,
        seed: u64,
        corrupt: bool,
        pre_gst_max: Time,
        gst: Time,
    ) -> Vec<SuspectProbe> {
        let mut procs: Vec<HeartbeatDetector> = (0..n)
            .map(|i| HeartbeatDetector::new(ProcessId(i), n, 20, 15))
            .collect();
        if corrupt {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4b);
            for p in &mut procs {
                p.corrupt(&mut rng);
            }
        }
        let mut cfg = AsyncConfig::turbulent(seed, pre_gst_max, gst);
        for &(p, t) in &crashes {
            cfg = cfg.with_crash(p, t);
        }
        let mut runner = AsyncRunner::new(procs, cfg).unwrap();
        let mut probes = Vec::new();
        runner.run_probed(60_000, 250, |t, ps| {
            probes.push(SuspectProbe::sample(t, ps))
        });
        probes
    }

    #[test]
    fn completeness_and_accuracy_after_gst() {
        for seed in 0..8 {
            let n = 4;
            let crashes = vec![(ProcessId(3), 2_000u64)];
            let probes = run(n, crashes, seed, false, 400, 3_000);
            let crashed = ProcessSet::from_iter_n(n, [ProcessId(3)]);
            let correct = crashed.complement();
            assert!(
                strong_completeness_time(&probes, &crashed, &correct).is_some(),
                "seed {seed}: completeness"
            );
            assert!(
                eventual_weak_accuracy(&probes, &correct).is_some(),
                "seed {seed}: accuracy"
            );
        }
    }

    #[test]
    fn accuracy_settles_despite_turbulent_prefix() {
        // Huge pre-GST delays force false suspicions; adaptive timeouts
        // must eventually stop them for every live process.
        for seed in 0..5 {
            let probes = run(3, vec![], seed, false, 800, 5_000);
            let correct = ProcessSet::full(3);
            let (_, settle) = eventual_weak_accuracy(&probes, &correct)
                .unwrap_or_else(|| panic!("seed {seed}: accuracy never settled"));
            assert!(settle <= 40_000, "seed {seed}: settled too late ({settle})");
        }
    }

    #[test]
    fn recovers_from_arbitrary_corruption() {
        // The self-stabilization claim: corrupted timeouts/last-heard/
        // suspicions converge because everything is re-learned.
        for seed in 0..8 {
            let n = 4;
            let crashes = vec![(ProcessId(3), 2_000u64)];
            let probes = run(n, crashes, seed, true, 50, 0);
            let crashed = ProcessSet::from_iter_n(n, [ProcessId(3)]);
            let correct = crashed.complement();
            assert!(
                strong_completeness_time(&probes, &crashed, &correct).is_some(),
                "seed {seed}: completeness from corruption"
            );
            assert!(
                eventual_weak_accuracy(&probes, &correct).is_some(),
                "seed {seed}: accuracy from corruption"
            );
        }
    }

    #[test]
    fn timeout_doubles_on_false_suspicion() {
        let mut d = HeartbeatDetector::new(ProcessId(0), 2, 20, 15);
        d.suspects.insert(ProcessId(1));
        d.timeout[1] = 30;
        let mut ctx = Ctx::new(ProcessId(0), 2, 100);
        d.on_message(&mut ctx, ProcessId(1), &());
        assert_eq!(d.timeout[1], 60);
        assert!(!d.suspects.contains(ProcessId(1)));
        assert_eq!(d.last_heard[1], 100);
        // A second heartbeat without suspicion does not double again.
        d.on_message(&mut ctx, ProcessId(1), &());
        assert_eq!(d.timeout[1], 60);
    }

    #[test]
    fn never_suspects_itself() {
        let mut d = HeartbeatDetector::new(ProcessId(0), 3, 20, 15);
        let mut rng = StdRng::seed_from_u64(1);
        d.corrupt(&mut rng);
        assert!(!d.suspected().contains(ProcessId(0)));
        let mut ctx = Ctx::new(ProcessId(0), 3, 10_000);
        d.tick(&mut ctx);
        assert!(!d.suspected().contains(ProcessId(0)));
    }
}
