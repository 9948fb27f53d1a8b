//! The discrete-event engine.

use crate::arena::Arena;
use crate::process::{AsyncProcess, Ctx};
use crate::queue::{EventQueue, Pending, PendingKind};
use crate::scheduler::{RandomScheduler, Scheduler};
use ftss_core::{ConfigError, Corrupt, ProcessId};
use ftss_rng::StdRng;
use ftss_telemetry::{Event as TraceEvent, NullSink, RunMode, TraceSink};

/// Virtual time, in abstract units (think microseconds).
pub type Time = u64;

/// Configuration of an asynchronous run.
#[derive(Clone, Debug)]
pub struct AsyncConfig {
    /// Seed for all delay draws.
    pub seed: u64,
    /// Minimum message delay.
    pub min_delay: Time,
    /// Maximum message delay *after* GST.
    pub max_delay: Time,
    /// Maximum message delay *before* GST (the asynchronous period; make
    /// it large to model near-unbounded delays).
    pub pre_gst_max_delay: Time,
    /// The Global Stabilization Time; delays of messages sent at or after
    /// this instant are bounded by `max_delay`.
    pub gst: Time,
    /// Crash schedule: `(process, time)`.
    pub crashes: Vec<(ProcessId, Time)>,
}

impl AsyncConfig {
    /// A well-behaved default: delays 1–10 units, GST at 0 (synchronous
    /// from the start), no crashes.
    pub fn tame(seed: u64) -> Self {
        AsyncConfig {
            seed,
            min_delay: 1,
            max_delay: 10,
            pre_gst_max_delay: 10,
            gst: 0,
            crashes: Vec::new(),
        }
    }

    /// A turbulent configuration: delays up to `pre_max` before `gst`,
    /// then 1–10.
    pub fn turbulent(seed: u64, pre_max: Time, gst: Time) -> Self {
        AsyncConfig {
            seed,
            min_delay: 1,
            max_delay: 10,
            pre_gst_max_delay: pre_max.max(1),
            gst,
            crashes: Vec::new(),
        }
    }

    /// Adds a crash.
    #[must_use]
    pub fn with_crash(mut self, p: ProcessId, at: Time) -> Self {
        self.crashes.push((p, at));
        self
    }
}

/// Statistics of a completed run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Messages delivered (excluding drops to crashed processes).
    pub messages_delivered: u64,
    /// Messages discarded because the receiver had crashed.
    pub messages_to_crashed: u64,
    /// Timer firings dispatched.
    pub timers_fired: u64,
    /// Virtual time at which the run stopped.
    pub end_time: Time,
}

/// Monomorphized corruption injector: `(processes, crashed_at, now, seed)`.
type CorruptionApply<P> = fn(&mut [P], &[Option<Time>], Time, u64);

/// Drives a set of [`AsyncProcess`]es deterministically.
///
/// The runner owns the processes; inspect them between/after runs via
/// [`AsyncRunner::process`] / [`AsyncRunner::processes`]. Delay assignment
/// lives behind the [`Scheduler`] parameter: the default
/// [`RandomScheduler`] reproduces the historical seeded behaviour exactly,
/// while the chaos engine and the checker's battery substitute an
/// [`AdversaryScheduler`](crate::AdversaryScheduler). Event order is the
/// runner's own: one queue, popped in `(time, seq)` order.
pub struct AsyncRunner<P: AsyncProcess, S = RandomScheduler> {
    processes: Vec<P>,
    crashed_at: Vec<Option<Time>>,
    crash_reported: Vec<bool>,
    /// The earliest scheduled crash not yet reported to a sink, if any:
    /// the per-event crash check is one compare against it, not a scan of
    /// all `n` crash slots — at large `n` that scan dominates traced
    /// dispatch.
    next_crash_report: Option<Time>,
    sched: S,
    /// Every pending delivery and timer.
    queue: EventQueue,
    /// Every queued message, once, however many copies name it.
    arena: Arena<P::Msg>,
    cfg: AsyncConfig,
    now: Time,
    seq: u64,
    started: bool,
    stats: RunStats,
    /// Reused effect buffer handed to every handler invocation; drained
    /// into the queue after each call instead of allocating a fresh `Ctx`.
    scratch: Ctx<P::Msg>,
    /// Scheduled systemic failures, `(time, seed)`, kept time-sorted from
    /// `next_corruption` onwards; entries before it have fired.
    corruptions: Vec<(Time, u64)>,
    next_corruption: usize,
    /// The time of `corruptions[next_corruption]`, if any: the per-event
    /// corruption check is one compare against it.
    next_corruption_at: Option<Time>,
    /// Monomorphized corruption injector, installed by
    /// [`AsyncRunner::schedule_corruption`]. A plain fn pointer so the
    /// runner itself needs no `Corrupt` bound on `P`.
    corruption_apply: Option<CorruptionApply<P>>,
}

impl<P: AsyncProcess> AsyncRunner<P> {
    /// Creates a runner over the given processes (process `i` has id `i`),
    /// scheduled by the default seeded [`RandomScheduler`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if there are no processes, a crash names an
    /// unknown process, or `min_delay > max_delay`.
    pub fn new(processes: Vec<P>, cfg: AsyncConfig) -> Result<Self, ConfigError> {
        let sched = RandomScheduler::for_config(&cfg);
        Self::with_scheduler(processes, cfg, sched)
    }
}

impl<P: AsyncProcess + Corrupt, S: Scheduler> AsyncRunner<P, S> {
    /// Schedules a systemic failure: when virtual time first reaches `at`
    /// (specifically, before the first event dispatched at time ≥ `at`),
    /// every process not yet crashed has its state replaced by a seeded
    /// arbitrary state via [`Corrupt`] — the asynchronous twin of the
    /// synchronous runner's mid-run `CorruptionSchedule`. Traced runs emit
    /// a `corruption` event whose `round` field carries the scheduled
    /// virtual time (the same round/time dual use as `crash.at`).
    ///
    /// May be called before the run or between `run_until` chunks;
    /// scheduling a corruption at a time the run has already passed fires
    /// it at the next dispatch.
    pub fn schedule_corruption(&mut self, at: Time, seed: u64) {
        // Fired entries are history; the unfired tail stays time-sorted,
        // equal times in call order. Calls in time order append.
        let tail = &self.corruptions[self.next_corruption..];
        let i = self.next_corruption + tail.partition_point(|&(t, _)| t <= at);
        self.corruptions.insert(i, (at, seed));
        self.next_corruption_at = Some(self.corruptions[self.next_corruption].0);
        self.corruption_apply = Some(corrupt_alive::<P>);
    }
}

/// Corrupts every not-yet-crashed process with one shared seeded RNG
/// stream (process order, like the synchronous runner's injection).
fn corrupt_alive<P: AsyncProcess + Corrupt>(
    processes: &mut [P],
    crashed_at: &[Option<Time>],
    now: Time,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (i, p) in processes.iter_mut().enumerate() {
        let crashed = crashed_at[i].is_some_and(|t| t <= now);
        if !crashed {
            p.corrupt(&mut rng);
        }
    }
}

/// Queued events name processes by `u32`: `n` must fit.
fn ids_fit_u32(n: usize) -> Result<(), ConfigError> {
    match u32::try_from(n) {
        Ok(_) => Ok(()),
        Err(_) => Err(ConfigError::new(format!(
            "{n} processes do not fit a u32 id"
        ))),
    }
}

impl<P: AsyncProcess, S: Scheduler> AsyncRunner<P, S> {
    /// Creates a runner whose delays an explicit scheduler picks (see
    /// [`crate::scheduler`] for the available strategies).
    ///
    /// # Errors
    ///
    /// Same validation as [`AsyncRunner::new`], and an `n` that does not
    /// fit a `u32` is refused.
    pub fn with_scheduler(
        processes: Vec<P>,
        cfg: AsyncConfig,
        sched: S,
    ) -> Result<Self, ConfigError> {
        if processes.is_empty() {
            return Err(ConfigError::new("need at least one process"));
        }
        if cfg.min_delay > cfg.max_delay || cfg.min_delay > cfg.pre_gst_max_delay {
            return Err(ConfigError::new("min_delay exceeds a maximum delay"));
        }
        let n = processes.len();
        ids_fit_u32(n)?;
        let mut crashed_at = vec![None; n];
        for &(p, t) in &cfg.crashes {
            if p.index() >= n {
                return Err(ConfigError::new(format!("crash names unknown {p}")));
            }
            crashed_at[p.index()] = Some(t);
        }
        Ok(AsyncRunner {
            processes,
            crash_reported: vec![false; crashed_at.len()],
            next_crash_report: crashed_at.iter().flatten().copied().min(),
            crashed_at,
            sched,
            queue: EventQueue::new(),
            arena: Arena::new(),
            cfg,
            now: 0,
            seq: 0,
            started: false,
            stats: RunStats::default(),
            scratch: Ctx::new(ProcessId(0), n, 0),
            corruptions: Vec::new(),
            next_corruption: 0,
            next_corruption_at: None,
            corruption_apply: None,
        })
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.processes.len()
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Read access to process `p`'s protocol object.
    pub fn process(&self, p: ProcessId) -> &P {
        &self.processes[p.index()]
    }

    /// Read access to all processes.
    pub fn processes(&self) -> &[P] {
        &self.processes
    }

    /// Whether `p` has crashed by the current time.
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed_at[p.index()].is_some_and(|t| t <= self.now)
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        RunStats {
            end_time: self.now,
            ..self.stats
        }
    }

    /// Drains the scratch context's buffered effects into the queue,
    /// asking the scheduler for a delay per send (in send order — the
    /// seeded scheduler's RNG stream depends on it). Each message moves
    /// into one arena slot, counted once per copy queued. Every push lands
    /// after `now` — delays are clamped to at least 1 and timer offsets
    /// are at least 1 — or, saturated, at `Time::MAX`.
    fn drain_scratch(&mut self, p: ProcessId) {
        let Self {
            sched,
            queue,
            arena,
            cfg,
            scratch,
            now,
            seq,
            ..
        } = self;
        if scratch.sends.is_empty() && scratch.timers.is_empty() {
            // Most deliveries send nothing and arm nothing.
            return;
        }
        let from = p.index() as u32;
        // The copies of one message are adjacent and messages come in
        // order, so each new index takes the next message.
        let mut msgs = scratch.msgs.drain(..);
        let mut current: Option<(u32, u32)> = None;
        for &(to, k) in &scratch.sends {
            let slot = match current {
                Some((j, slot)) if j == k => slot,
                _ => {
                    let msg = msgs.next().expect("every copy names a buffered message");
                    let slot = arena.insert(msg);
                    current = Some((k, slot));
                    slot
                }
            };
            arena.add_copy(slot);
            let delay = sched.delay(cfg, *now, p, to).max(1);
            *seq += 1;
            queue.push(Pending {
                time: now.saturating_add(delay),
                seq: *seq,
                kind: PendingKind::Deliver {
                    from,
                    to: to.index() as u32,
                    slot,
                },
            });
        }
        debug_assert!(msgs.next().is_none(), "every message has a copy (n >= 1)");
        scratch.sends.clear();
        for (at, tag) in scratch.timers.drain(..) {
            *seq += 1;
            queue.push(Pending {
                time: at,
                seq: *seq,
                kind: PendingKind::Timer { p: from, tag },
            });
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let n = self.n();
        for i in 0..n {
            let p = ProcessId(i);
            self.scratch.reset(p, self.now);
            self.processes[i].on_start(&mut self.scratch);
            self.drain_scratch(p);
        }
    }

    /// Runs until the event queue is exhausted or virtual time would pass
    /// `horizon`. Returns the statistics so far.
    pub fn run_until(&mut self, horizon: Time) -> RunStats {
        self.run_probed(horizon, Time::MAX, |_, _| {})
    }

    /// Like [`Self::run_until`], emitting structured events into `sink`.
    pub fn run_until_traced<T: TraceSink>(&mut self, horizon: Time, sink: &mut T) -> RunStats {
        self.run_probed_traced(horizon, Time::MAX, |_, _| {}, sink)
    }

    /// Like [`Self::run_until`], but invokes `probe(time, processes)`
    /// whenever virtual time crosses a multiple of `probe_interval` —
    /// the hook used by detector-property checkers to sample suspect sets
    /// over time. A probe fires before any event dispatched at or after
    /// its time, and every probe due by `horizon` fires, events or not
    /// (so a finite `probe_interval` wants a finite `horizon`).
    pub fn run_probed(
        &mut self,
        horizon: Time,
        probe_interval: Time,
        probe: impl FnMut(Time, &[P]),
    ) -> RunStats {
        self.run_probed_traced(horizon, probe_interval, probe, &mut NullSink)
    }

    /// The fully instrumented driver: probes like [`Self::run_probed`] and
    /// emits structured [`TraceEvent`]s into `sink` — `run_start` (once,
    /// when the system first starts), `deliver`, `drop_to_crashed`,
    /// `timer`, and `crash` (as virtual time first passes each scheduled
    /// crash). All other entry points delegate here with the zero-cost
    /// [`NullSink`]; instrumentation is guarded by [`TraceSink::enabled`],
    /// so a disabled sink constructs no events.
    pub fn run_probed_traced<T: TraceSink>(
        &mut self,
        horizon: Time,
        probe_interval: Time,
        mut probe: impl FnMut(Time, &[P]),
        sink: &mut T,
    ) -> RunStats {
        let traced = sink.enabled();
        if traced && !self.started {
            sink.emit(&TraceEvent::RunStart {
                mode: RunMode::Async,
                protocol: String::new(),
                n: self.n(),
                rounds: None,
                msg_size: Some(std::mem::size_of::<P::Msg>()),
            });
        }
        self.start_if_needed();
        // `None` once no probe is left before the end of time.
        let mut next_probe = if probe_interval == Time::MAX {
            None
        } else {
            self.now.checked_add(probe_interval)
        };
        // One queue probe per dispatch: the pop itself stops at the
        // horizon.
        while let Some(ev) = self.queue.pop_until(horizon) {
            while let Some(t) = next_probe.filter(|&t| t <= ev.time) {
                probe(t, &self.processes);
                next_probe = t.checked_add(probe_interval);
            }
            // Every push lands after its handler's `now` (or at
            // `Time::MAX`), and the queue pops in `(time, seq)` order:
            // time never runs backwards.
            debug_assert!(ev.time >= self.now);
            self.now = ev.time;
            // Corruption scheduled at time t strikes before the event
            // dispatched at t — corrupt-then-run, as in the synchronous
            // runner.
            if self.next_corruption_at.is_some_and(|t| t <= self.now) {
                self.apply_due_corruptions(sink);
            }
            if traced && self.next_crash_report.is_some_and(|t| t <= self.now) {
                self.report_crashes(sink);
            }
            match ev.kind {
                PendingKind::Deliver { from, to, slot } => {
                    let (from, to) = (ProcessId(from as usize), ProcessId(to as usize));
                    if self.is_crashed(to) {
                        self.arena.release(slot);
                        self.stats.messages_to_crashed += 1;
                        if traced {
                            sink.emit(&TraceEvent::DropToCrashed {
                                time: self.now,
                                from,
                                to,
                            });
                        }
                        continue;
                    }
                    self.stats.messages_delivered += 1;
                    if traced {
                        sink.emit(&TraceEvent::Deliver {
                            time: self.now,
                            from,
                            to,
                        });
                    }
                    // Borrowed delivery: the receiver reads the one
                    // message in the slot; nothing is cloned for it. The
                    // slot is released before the handler's own sends
                    // are queued, so the last copy's slot takes the next
                    // message.
                    self.scratch.reset(to, self.now);
                    self.processes[to.index()].on_message(
                        &mut self.scratch,
                        from,
                        self.arena.get(slot),
                    );
                    self.arena.release(slot);
                    self.drain_scratch(to);
                }
                PendingKind::Timer { p, tag } => {
                    let p = ProcessId(p as usize);
                    if self.is_crashed(p) {
                        continue;
                    }
                    self.stats.timers_fired += 1;
                    if traced {
                        sink.emit(&TraceEvent::Timer { time: self.now, p });
                    }
                    self.scratch.reset(p, self.now);
                    self.processes[p.index()].on_timer(&mut self.scratch, tag);
                    self.drain_scratch(p);
                }
            }
        }
        // Probes due by the horizon fire even when no event reached them:
        // a run that goes quiet still yields every sample up to its end.
        while let Some(t) = next_probe.filter(|&t| t <= horizon) {
            probe(t, &self.processes);
            next_probe = t.checked_add(probe_interval);
        }
        // Nothing is left at or before the horizon.
        self.now = self.now.max(horizon);
        self.apply_due_corruptions(sink);
        if traced {
            self.report_crashes(sink);
        }
        self.stats()
    }

    /// Fires every scheduled corruption whose time has been reached.
    fn apply_due_corruptions<T: TraceSink>(&mut self, sink: &mut T) {
        let Some(apply) = self.corruption_apply else {
            return;
        };
        while self
            .corruptions
            .get(self.next_corruption)
            .is_some_and(|&(t, _)| t <= self.now)
        {
            let (at, seed) = self.corruptions[self.next_corruption];
            self.next_corruption += 1;
            apply(&mut self.processes, &self.crashed_at, self.now, seed);
            if sink.enabled() {
                sink.emit(&TraceEvent::Corruption { round: at, seed });
            }
        }
        self.next_corruption_at = self.corruptions.get(self.next_corruption).map(|&(t, _)| t);
    }

    /// Emits a `crash` event for every process whose scheduled crash time
    /// virtual time has now reached, exactly once per process.
    fn report_crashes<T: TraceSink>(&mut self, sink: &mut T) {
        if self.next_crash_report.is_none_or(|t| t > self.now) {
            return;
        }
        let mut next = None;
        for i in 0..self.crashed_at.len() {
            if self.crash_reported[i] {
                continue;
            }
            if let Some(t) = self.crashed_at[i] {
                if t <= self.now {
                    self.crash_reported[i] = true;
                    sink.emit(&TraceEvent::Crash {
                        at: t,
                        p: ProcessId(i),
                    });
                } else {
                    next = Some(next.map_or(t, |n: Time| n.min(t)));
                }
            }
        }
        self.next_crash_report = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: p0 starts, each message is returned incremented, with a
    /// periodic heartbeat timer counting firings.
    #[derive(Debug, Default)]
    struct Pinger {
        received: Vec<u32>,
        timer_count: u32,
    }

    impl AsyncProcess for Pinger {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<u32>) {
            if ctx.me() == ProcessId(0) {
                ctx.send(ProcessId(1), 0);
            }
            ctx.set_timer(50, 7);
        }

        fn on_message(&mut self, ctx: &mut Ctx<u32>, from: ProcessId, &msg: &u32) {
            self.received.push(msg);
            if msg < 10 {
                ctx.send(from, msg + 1);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<u32>, tag: u64) {
            assert_eq!(tag, 7);
            self.timer_count += 1;
            ctx.set_timer(50, 7);
        }
    }

    impl Corrupt for Pinger {
        fn corrupt<R: ftss_rng::Rng + ?Sized>(&mut self, rng: &mut R) {
            self.received.clear();
            self.timer_count = rng.gen_range(0..1_000_000u32);
        }
    }

    fn runner(cfg: AsyncConfig) -> AsyncRunner<Pinger> {
        AsyncRunner::new(vec![Pinger::default(), Pinger::default()], cfg).unwrap()
    }

    #[test]
    fn ping_pong_completes() {
        let mut r = runner(AsyncConfig::tame(1));
        r.run_until(10_000);
        let p0 = r.process(ProcessId(0));
        let p1 = r.process(ProcessId(1));
        assert_eq!(p1.received, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(p0.received, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = |seed| {
            let mut r = runner(AsyncConfig::tame(seed));
            let stats = r.run_until(1_000);
            (stats, r.process(ProcessId(0)).timer_count)
        };
        assert_eq!(trace(5), trace(5));
        // Different seeds give different delay draws; timer counts are the
        // same but message stats may shift. At minimum the run is valid.
        let (s, _) = trace(6);
        assert!(s.messages_delivered >= 11);
    }

    #[test]
    fn timers_keep_firing_until_horizon() {
        let mut r = runner(AsyncConfig::tame(2));
        r.run_until(500);
        // ~500/50 = 10 firings per process, give or take scheduling edges.
        let c = r.process(ProcessId(0)).timer_count;
        assert!((8..=10).contains(&c), "got {c}");
    }

    #[test]
    fn crash_stops_delivery_and_timers() {
        let cfg = AsyncConfig::tame(3).with_crash(ProcessId(1), 40);
        let mut r = runner(cfg);
        let stats = r.run_until(5_000);
        assert!(r.is_crashed(ProcessId(1)));
        let p1 = r.process(ProcessId(1));
        // p1 got some but not all messages before t=40 (a full ping-pong
        // would give it 6).
        assert!(p1.received.len() < 6, "{:?}", p1.received);
        assert!(p1.timer_count == 0, "timer at t=50 is after the crash");
        assert!(stats.messages_to_crashed > 0);
    }

    #[test]
    fn probe_sampling() {
        let mut r = runner(AsyncConfig::tame(4));
        let mut samples = Vec::new();
        r.run_probed(300, 100, |t, procs| {
            samples.push((t, procs[0].timer_count));
        });
        assert!(!samples.is_empty());
        // Probe times are multiples of the interval.
        for (t, _) in &samples {
            assert_eq!(t % 100, 0);
        }
        // Monotone time.
        assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn probes_due_by_the_horizon_fire_after_the_run_goes_quiet() {
        // Both processes crash at t = 30, so nothing is dispatched after
        // t = 50; every probe up to the horizon still fires, once.
        let cfg = AsyncConfig::tame(4)
            .with_crash(ProcessId(0), 30)
            .with_crash(ProcessId(1), 30);
        let mut r = runner(cfg);
        let mut at = Vec::new();
        r.run_probed(1_000, 100, |t, _| at.push(t));
        assert_eq!(at, (1..=10).map(|k| k * 100).collect::<Vec<Time>>());
        // The next chunk picks up where the horizon left off.
        r.run_probed(1_250, 100, |t, _| at.push(t));
        assert_eq!(at[10..], [1_100, 1_200]);
        assert_eq!(r.now(), 1_250);
    }

    /// A scheduler that breaks the delay contract: every delay is 0.
    struct Instant0;

    impl Scheduler for Instant0 {
        fn delay(&mut self, _: &AsyncConfig, _: Time, _: ProcessId, _: ProcessId) -> Time {
            0
        }
    }

    #[test]
    fn a_zero_delay_is_clamped_to_one() {
        use ftss_telemetry::RecordingSink;
        let procs = vec![Pinger::default(), Pinger::default()];
        let mut r = AsyncRunner::with_scheduler(procs, AsyncConfig::tame(1), Instant0).unwrap();
        let mut sink = RecordingSink::new(1_024);
        r.run_until_traced(40, &mut sink);
        let times: Vec<Time> = sink
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Deliver { time, .. } => Some(time),
                _ => None,
            })
            .collect();
        // The ping-pong's eleven messages, one instant apart: none lands in
        // the instant it was sent in.
        assert_eq!(times, (1..=11).collect::<Vec<Time>>());
    }

    #[test]
    fn copies_dropped_at_a_crashed_receiver_free_their_slots() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let procs = (0..5)
            .map(|_| Gossiper {
                clones: std::rc::Rc::clone(&clones),
                heard: 0,
            })
            .collect();
        let cfg = AsyncConfig::tame(3).with_crash(ProcessId(4), 50);
        let mut r = AsyncRunner::new(procs, cfg).unwrap();
        let stats = r.run_until(20_000);
        assert!(stats.messages_to_crashed > 7_000, "{stats:?}");
        // A broadcast every 10 units whose copies all land within 10: at
        // most two per live process are ever in flight at once.
        assert!(r.arena.high_water() <= 2 * 5, "{}", r.arena.high_water());
    }

    #[test]
    fn traced_run_matches_untraced_and_reports_crashes_once() {
        use ftss_telemetry::RecordingSink;
        let cfg = AsyncConfig::tame(3).with_crash(ProcessId(1), 40);
        let mut plain = runner(cfg.clone());
        let plain_stats = plain.run_until(5_000);

        let mut sink = RecordingSink::new(65_536);
        let mut traced = runner(cfg);
        let traced_stats = traced.run_until_traced(2_000, &mut sink);
        // Continuing a traced run keeps appending to the same stream.
        let traced_stats2 = traced.run_until_traced(5_000, &mut sink);
        assert!(traced_stats2.timers_fired >= traced_stats.timers_fired);
        assert_eq!(plain_stats, traced_stats2, "tracing must not perturb");
        assert_eq!(
            plain.process(ProcessId(0)).received,
            traced.process(ProcessId(0)).received
        );

        let events: Vec<TraceEvent> = sink.take();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::RunStart {
                mode: RunMode::Async,
                n: 2,
                rounds: None,
                ..
            })
        ));
        let delivers = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
            .count() as u64;
        let drops = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::DropToCrashed { .. }))
            .count() as u64;
        let timers = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Timer { .. }))
            .count() as u64;
        assert_eq!(delivers, traced_stats2.messages_delivered);
        assert_eq!(drops, traced_stats2.messages_to_crashed);
        assert_eq!(timers, traced_stats2.timers_fired);
        // Exactly one crash event, stamped with the scheduled time.
        let crashes: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Crash { .. }))
            .collect();
        assert_eq!(crashes.len(), 1);
        assert!(matches!(
            crashes[0],
            TraceEvent::Crash {
                at: 40,
                p: ProcessId(1)
            }
        ));
    }

    #[test]
    fn config_validation() {
        assert!(AsyncRunner::<Pinger>::new(vec![], AsyncConfig::tame(0)).is_err());
        let bad = AsyncConfig {
            min_delay: 100,
            max_delay: 10,
            ..AsyncConfig::tame(0)
        };
        assert!(AsyncRunner::new(vec![Pinger::default()], bad).is_err());
        let unknown = AsyncConfig::tame(0).with_crash(ProcessId(9), 1);
        assert!(AsyncRunner::new(vec![Pinger::default()], unknown).is_err());
        // Building 2^32 processes to see the refusal would take minutes.
        assert!(ids_fit_u32(u32::MAX as usize).is_ok());
        assert!(ids_fit_u32(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn gst_bounds_late_delays() {
        // Huge pre-GST delays, tight post-GST: messages sent after GST
        // arrive within max_delay.
        let cfg = AsyncConfig::turbulent(9, 5_000, 1_000);
        let mut r = runner(cfg);
        let stats = r.run_until(20_000);
        // The ping-pong eventually completes despite the turbulent prefix.
        assert!(stats.messages_delivered >= 11);
        let p1 = r.process(ProcessId(1));
        assert_eq!(*p1.received.last().unwrap(), 10);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = runner(AsyncConfig::tame(11));
        let s1 = r.run_until(100);
        let s2 = r.run_until(200);
        assert!(s2.timers_fired >= s1.timers_fired);
        assert!(s2.end_time >= s1.end_time);
    }

    #[test]
    fn scheduled_corruption_fires_once_and_is_deterministic() {
        let run = |seed| {
            let mut r = runner(AsyncConfig::tame(seed));
            r.schedule_corruption(100, 42);
            r.run_until(500);
            (
                r.process(ProcessId(0)).timer_count,
                r.process(ProcessId(1)).timer_count,
                r.process(ProcessId(0)).received.clone(),
            )
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same post-corruption state");
        // The corruption replaced the timer counts with large seeded
        // garbage that real firings (≤ 10 by t=500) cannot reach.
        assert!(a.0 > 10 || a.1 > 10, "corruption visibly struck: {a:?}");
    }

    #[test]
    fn scheduled_corruption_emits_event_and_skips_crashed() {
        use ftss_telemetry::RecordingSink;
        let cfg = AsyncConfig::tame(3).with_crash(ProcessId(1), 40);
        let mut r = runner(cfg);
        r.schedule_corruption(200, 9);
        let mut sink = RecordingSink::new(65_536);
        r.run_until_traced(1_000, &mut sink);
        let events = sink.take();
        let corruptions: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Corruption { .. }))
            .collect();
        assert_eq!(corruptions.len(), 1);
        assert!(matches!(
            corruptions[0],
            TraceEvent::Corruption {
                round: 200,
                seed: 9
            }
        ));
        // p1 crashed at t=40, well before the corruption at t=200, so its
        // state is untouched (a crashed process has no state to corrupt).
        assert_eq!(r.process(ProcessId(1)).timer_count, 0);
    }

    #[test]
    fn scheduled_corruptions_fire_in_time_then_call_order() {
        use ftss_telemetry::RecordingSink;
        let mut r = runner(AsyncConfig::tame(3));
        for (at, seed) in [(100, 1), (50, 2), (100, 3), (50, 4), (75, 5), (100, 6)] {
            r.schedule_corruption(at, seed);
        }
        let mut sink = RecordingSink::new(65_536);
        r.run_until_traced(300, &mut sink);
        let fired: Vec<(Time, u64)> = sink
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Corruption { round, seed } => Some((round, seed)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fired,
            vec![(50, 2), (50, 4), (75, 5), (100, 1), (100, 3), (100, 6)]
        );
    }

    /// A message that counts its own clones.
    #[derive(Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<u64>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(std::rc::Rc::clone(&self.0))
        }
    }

    /// Broadcasts a [`Counted`] every 10 time units.
    struct Gossiper {
        clones: std::rc::Rc<std::cell::Cell<u64>>,
        heard: u64,
    }

    impl AsyncProcess for Gossiper {
        type Msg = Counted;

        fn on_start(&mut self, ctx: &mut Ctx<Counted>) {
            ctx.set_timer(10, 0);
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Counted>, _from: ProcessId, _msg: &Counted) {
            self.heard += 1;
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Counted>, _tag: u64) {
            ctx.broadcast(Counted(std::rc::Rc::clone(&self.clones)));
            ctx.set_timer(10, 0);
        }
    }

    #[test]
    fn broadcast_reaches_every_receiver_without_a_clone() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let procs = (0..5)
            .map(|_| Gossiper {
                clones: std::rc::Rc::clone(&clones),
                heard: 0,
            })
            .collect();
        let mut r = AsyncRunner::new(procs, AsyncConfig::tame(3)).unwrap();
        let stats = r.run_until(200);
        assert!(stats.messages_delivered >= 400, "{stats:?}");
        let heard: u64 = r.processes().iter().map(|p| p.heard).sum();
        assert_eq!(heard, stats.messages_delivered);
        assert_eq!(clones.get(), 0, "a copy was cloned on its way");
    }

    /// Arms a timer one instant before the end of time and broadcasts
    /// from it; every receiver re-arms a timer at its own `now`.
    #[derive(Debug, Default)]
    struct LastGasp {
        heard: u64,
    }

    impl AsyncProcess for LastGasp {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<()>) {
            if ctx.me() == ProcessId(0) {
                ctx.set_timer_at(Time::MAX - 1, 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<()>, _from: ProcessId, _msg: &()) {
            self.heard += 1;
            ctx.set_timer_at(ctx.now(), 1);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<()>, tag: u64) {
            if tag == 0 {
                ctx.broadcast(());
            }
        }
    }

    #[test]
    fn time_saturates_at_its_end_instead_of_wrapping() {
        let cfg = AsyncConfig {
            min_delay: 2,
            ..AsyncConfig::tame(0)
        };
        let mut r = AsyncRunner::new(vec![LastGasp::default(), LastGasp::default()], cfg).unwrap();
        let stats = r.run_until(Time::MAX);
        // The broadcast sent at `MAX - 1` arrives at `MAX`, not at a
        // wrapped small time, and the timers its receivers arm there fire
        // at `MAX` too.
        assert_eq!(
            (stats.messages_delivered, stats.timers_fired),
            (2, 3),
            "{stats:?}"
        );
        assert_eq!(stats.end_time, Time::MAX);
        assert!(r.processes().iter().all(|p| p.heard == 1));
    }

    #[test]
    fn corruption_between_run_chunks_applies_at_next_dispatch() {
        let mut r = runner(AsyncConfig::tame(5));
        r.run_until(300);
        let before = r.process(ProcessId(0)).timer_count;
        assert!(before <= 10, "sane pre-corruption count");
        r.schedule_corruption(300, 77);
        r.run_until(600);
        let after = r.process(ProcessId(0)).timer_count;
        assert_ne!(after, before + 6, "corruption perturbed the count");
    }
}
