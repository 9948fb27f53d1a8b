//! Property-based tests of the discrete-event engine's invariants, on the
//! in-repo `ftss_rng::check` harness.

use ftss_async_sim::{AsyncConfig, AsyncProcess, AsyncRunner, Ctx};
use ftss_core::ProcessId;
use ftss_rng::check::forall;
use ftss_rng::Rng;

const CASES: u64 = 32;

/// Records every event it observes, with timestamps.
#[derive(Debug, Default, Clone, PartialEq)]
struct Recorder {
    events: Vec<(u64, String)>,
}

impl AsyncProcess for Recorder {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<u32>) {
        // Everyone broadcasts one message and arms one timer.
        ctx.broadcast(ctx.me().index() as u32);
        ctx.set_timer(37, 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<u32>, from: ProcessId, msg: &u32) {
        self.events.push((ctx.now(), format!("m:{from}:{msg}")));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<u32>, tag: u64) {
        self.events.push((ctx.now(), format!("t:{tag}")));
    }
}

/// Events are observed in non-decreasing virtual-time order at every
/// process, and every broadcast copy is delivered exactly once
/// (fairness, no loss, no duplication).
#[test]
fn delivery_is_exactly_once_and_time_ordered() {
    forall(CASES, |g| {
        let n = g.gen_range(1usize..8);
        let seed: u64 = g.gen();
        let procs = vec![Recorder::default(); n];
        let mut r = AsyncRunner::new(procs, AsyncConfig::tame(seed)).unwrap();
        r.run_until(10_000);
        for i in 0..n {
            let p = r.process(ProcessId(i));
            // Time-ordered.
            assert!(p.events.windows(2).all(|w| w[0].0 <= w[1].0));
            // Exactly one copy from each sender (including itself).
            for j in 0..n {
                let count = p
                    .events
                    .iter()
                    .filter(|(_, e)| e == &format!("m:p{j}:{j}"))
                    .count();
                assert_eq!(count, 1, "p{} heard p{} {} times", i, j, count);
            }
            // Exactly one timer firing.
            let timers = p.events.iter().filter(|(_, e)| e.starts_with("t:")).count();
            assert_eq!(timers, 1);
        }
    });
}

/// Same seed ⇒ identical event sequences; the engine is deterministic.
#[test]
fn runs_are_reproducible() {
    forall(CASES, |g| {
        let n = g.gen_range(1usize..6);
        let seed: u64 = g.gen();
        let go = || {
            let mut r =
                AsyncRunner::new(vec![Recorder::default(); n], AsyncConfig::tame(seed)).unwrap();
            r.run_until(5_000);
            (0..n)
                .map(|i| r.process(ProcessId(i)).events.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(go(), go());
    });
}

/// Delays respect the configured bounds after GST.
#[test]
fn post_gst_delays_are_bounded() {
    forall(CASES, |g| {
        let seed: u64 = g.gen();
        let max_delay = g.gen_range(2u64..50);
        let cfg = AsyncConfig {
            seed,
            min_delay: 1,
            max_delay,
            pre_gst_max_delay: max_delay,
            gst: 0,
            crashes: vec![],
        };
        let mut r = AsyncRunner::new(vec![Recorder::default(); 3], cfg).unwrap();
        r.run_until(10_000);
        // All broadcasts were sent at t=0, so every delivery time is a
        // valid delay draw.
        for i in 0..3 {
            for (t, e) in &r.process(ProcessId(i)).events {
                if e.starts_with("m:") {
                    assert!((1..=max_delay).contains(t), "delivery at t={t}");
                }
            }
        }
    });
}

/// A crashed process observes nothing after its crash time, and the
/// stats account for copies that died with it.
#[test]
fn crash_cuts_off_observation() {
    forall(CASES, |g| {
        let seed: u64 = g.gen();
        let crash_t = g.gen_range(1u64..40);
        let cfg = AsyncConfig::tame(seed).with_crash(ProcessId(0), crash_t);
        let mut r = AsyncRunner::new(vec![Recorder::default(); 3], cfg).unwrap();
        let stats = r.run_until(10_000);
        for (t, _) in &r.process(ProcessId(0)).events {
            assert!(*t < crash_t);
        }
        let observed_msgs = r
            .process(ProcessId(0))
            .events
            .iter()
            .filter(|(_, e)| e.starts_with("m:"))
            .count() as u64;
        // 3 broadcast copies were destined for p0 (timers are separate).
        assert_eq!(
            observed_msgs + stats.messages_to_crashed,
            3,
            "every copy to p0 is either observed or counted as lost"
        );
    });
}
