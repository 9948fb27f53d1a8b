//! The session router: the round kernel over real connections.
//!
//! A served session *is* [`RoundKernel::run`] — the simulator's own
//! validation, adversary consultation, history and event stream — driven
//! over the remote [`Exchange`] defined here: every process is a node
//! thread behind a [`Channel`], a round's broadcasts are collected as
//! binary `bcast` frames at a barrier, and each survivor receives its
//! inbox as one binary round frame — the round's payload table, encoded
//! once as the kernel asks for each broadcast, plus the survivor's own
//! delivered bit-row ([`proto`](crate::proto)). Omission and forgery
//! draws, telemetry events and the recorded history are therefore those
//! of [`ftss::sync_sim::SyncRunner`] for the same seed, on every
//! transport, by construction (DESIGN.md §16). The barrier plus the
//! kernel's sorted walk is what removes socket arrival nondeterminism;
//! only wall-clock differs between `mem`, `tcp` and `uds`.
//!
//! Two fault families exist only here, because only a real runtime has
//! the seams they need (DESIGN.md §15). A kill or respawn applies at the
//! exchange's begin-round point, before the round's broadcasts are
//! collected; a disconnected process simply has no round-start state.
//!
//! * **Crash–restart** ([`ServeRestart`]): a node thread is killed
//!   abruptly and respawned a few rounds later from a recovery snapshot
//!   that may be stale, truncated or bit-corrupted (damage drawn from
//!   one seeded rng). The incarnation re-enters through the `hello`
//!   handshake the session opened with, carrying an incarnation epoch;
//!   frames from dead epochs are dropped as `net_stale_frame` events.
//! * **Partial-synchrony proxy** ([`TimingFaults`]): the kernel's one
//!   non-trivial [`CopyLayer`]. Storm phases of the timing kinds defer
//!   or echo delivered copies across round boundaries, consulted per
//!   copy in the kernel's walk order.
//!
//! Telemetry: on real sockets a session *additionally* emits
//! `net_listen`, `net_connect`, `net_frame`, `net_close` and
//! `net_stale_frame` events at deterministic points; `mem` emits none,
//! so its stream is byte-identical to `SyncRunner::run_traced` for
//! sessions without restart or timing faults. Those have no
//! simulator counterpart; their pinned property is determinism — the
//! same bytes on every rerun, every transport and every `--jobs` level.

use crate::node::{run_node, run_node_recovered};
use crate::proto::{RoundTable, ToNode, ToRouter};
use crate::transport::{Channel, TransportKind};
use crate::wire::Wire;
use ftss::core::{
    round_count, storm, Corrupt, CrashSchedule, Deliveries, DeliveryOutcome, History, ProcessId,
    ProcessSet, RoundMsgs, StormKind, StormPhase, FRAME_HEADER_LEN,
};
use ftss::sync_sim::{
    Adversary, CopyLayer, Exchange, LateCopy, RoundKernel, RunConfig, RunOutcome, SyncProtocol,
};
use ftss::telemetry::{Event, TraceSink};
use ftss_rng::{Rng, StdRng};
use std::collections::BTreeMap;

/// Round-denominated retry policy for a crash–restart episode: the first
/// respawn fires `gap` rounds after the kill, and each failed attempt
/// backs off `backoff_rounds` further.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retry {
    /// How many respawn attempts are scheduled (≥ 1). The final attempt
    /// always restores the clean (if stale) checkpoint, so a validated
    /// episode is guaranteed to re-admit.
    pub attempts: u32,
    /// Rounds between consecutive attempts (≥ 1).
    pub backoff_rounds: u64,
}

/// How a restart attempt's recovery snapshot is damaged. The *final*
/// attempt always uses the undamaged (stale) checkpoint regardless of
/// this setting — the operator's last resort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotFault {
    /// The snapshot is merely stale: the checkpointed bytes unchanged.
    Stale,
    /// The snapshot is cut at a seeded offset (torn write).
    Truncated,
    /// One seeded bit of the snapshot is flipped. The flip may still
    /// decode — a *silently* corrupted checkpoint, which is exactly the
    /// arbitrary re-entry state of Thm 3.
    BitFlip,
}

/// A crash–restart episode: the node thread for `p` is killed abruptly
/// at `kill_round` (no halt — its channel just drops) and respawned from
/// a recovery snapshot checkpointed `staleness` rounds before the kill.
/// Snapshot damage is drawn from one rng seeded with `snapshot_seed` in
/// canonical attempt order, so the episode is byte-deterministic across
/// transports, reruns and `--jobs` (same discipline as forgery,
/// DESIGN.md §15). The restarted incarnation re-enters via the regular
/// mid-session `hello` path carrying an incremented epoch; the router
/// drops frames from dead epochs as `net_stale_frame` telemetry instead
/// of erroring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeRestart {
    /// The restarting process; must be in the adversary's faulty set.
    pub p: ProcessId,
    /// The round the node thread is killed (its in-flight broadcast for
    /// this round is drained as a stale frame). Must be ≥ 2.
    pub kill_round: u64,
    /// Rounds between the kill and the first respawn attempt (≥ 1).
    pub gap: u64,
    /// How many rounds before the kill the recovery snapshot was
    /// checkpointed (≥ 1, and the snapshot round must be ≥ 1).
    pub staleness: u64,
    /// How non-final respawn attempts' snapshots are damaged.
    pub fault: SnapshotFault,
    /// Seed of the snapshot-damage rng.
    pub snapshot_seed: u64,
    /// The retry/backoff policy; the last attempt must land on or before
    /// the session horizon.
    pub retry: Retry,
}

impl ServeRestart {
    /// The round whose round-start state is checkpointed as the
    /// recovery snapshot.
    pub fn snapshot_round(&self) -> u64 {
        self.kill_round - self.staleness
    }

    /// The round attempt `i` (0-based) fires in.
    pub fn attempt_round(&self, i: u32) -> u64 {
        self.kill_round + self.gap + u64::from(i) * self.retry.backoff_rounds
    }

    /// The round of the final scheduled attempt.
    pub fn last_attempt_round(&self) -> u64 {
        self.attempt_round(self.retry.attempts.saturating_sub(1))
    }
}

/// The partial-synchrony proxy's program: storm phases of the timing
/// kinds ([`StormKind::Delay`], [`StormKind::Reorder`],
/// [`StormKind::Duplicate`]) applied to every copy touching a victim.
/// Non-timing phases are ignored here (they are the drop adversary's
/// business), so the same storm program can drive both seams.
///
/// Timing faults deviate nobody: delayed and duplicated copies record
/// the [`DeliveryOutcome::Delayed`] / [`DeliveryOutcome::Duplicated`]
/// outcomes, which attribute no process fault — the network was slow,
/// not wrong. Late copies whose destination has crashed, is down between
/// a kill and its respawn, or passed the horizon by their arrival round
/// are silently dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingFaults {
    /// Processes whose copies (sent or received) the proxy touches.
    pub victims: Vec<ProcessId>,
    /// Active windows; only [`StormKind::is_timing`] kinds take effect.
    pub phases: Vec<StormPhase>,
    /// Seed of the proxy's rng (consulted per eligible copy, in the
    /// simulator's canonical order — [`StormKind::Reorder`] draws one
    /// coin per eligible copy whether or not the copy was delivered, so
    /// the stream position is a pure function of the traffic pattern).
    pub seed: u64,
}

/// Integer session counters surfaced to the load generator and the
/// restart soak reports. Wall-free by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Successful re-admissions through the mid-session `hello` path
    /// (restart respawns and superseding reconnects).
    pub reconnects: u64,
    /// Frames from dead incarnations the router dropped instead of
    /// erroring (drained pre-crash broadcasts, stale-epoch hellos).
    pub stale_dropped: u64,
}

/// Parameters of a served run: the simulator's [`RunConfig`] plus the
/// transport to run it over.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The run parameters (n, rounds, corruption, fault bound, window).
    pub run: RunConfig,
    /// Which transport carries the frames.
    pub transport: TransportKind,
    /// Optional crash–restart episode.
    pub restart: Option<ServeRestart>,
    /// Optional partial-synchrony proxy program.
    pub timing: Option<TimingFaults>,
}

impl ServeConfig {
    /// A served run over `transport` with the given simulator config.
    pub fn new(run: RunConfig, transport: TransportKind) -> Self {
        ServeConfig {
            run,
            transport,
            restart: None,
            timing: None,
        }
    }

    /// Adds a crash–restart episode to the session.
    #[must_use]
    pub fn with_restart(mut self, restart: ServeRestart) -> Self {
        self.restart = Some(restart);
        self
    }
}

impl ServeConfig {
    /// The episode rules the simulator has no counterpart for, checked
    /// after (and in the style of) the kernel's own validation.
    fn check_episodes(&self, faulty: &ProcessSet, schedule: &CrashSchedule) -> Result<(), String> {
        let n = self.run.n;
        let rounds = round_count(self.run.rounds);
        if let Some(rs) = self.restart {
            if rs.p.index() >= n {
                return Err(format!("restart names {} but n = {n}", rs.p));
            }
            if !faulty.contains(rs.p) {
                return Err(format!(
                    "restart names {} outside the declared faulty set",
                    rs.p
                ));
            }
            if rs.kill_round < 2 || rs.kill_round > rounds {
                return Err(format!(
                    "restart needs 2 <= kill ({}) <= rounds ({rounds})",
                    rs.kill_round
                ));
            }
            if rs.staleness == 0 || rs.staleness >= rs.kill_round {
                return Err(format!(
                    "restart needs 1 <= staleness ({}) < kill ({})",
                    rs.staleness, rs.kill_round
                ));
            }
            if rs.gap == 0 || rs.retry.attempts == 0 || rs.retry.backoff_rounds == 0 {
                return Err(format!(
                    "restart retry needs gap ({}) >= 1, attempts ({}) >= 1 and backoff ({}) >= 1",
                    rs.gap, rs.retry.attempts, rs.retry.backoff_rounds
                ));
            }
            if rs.last_attempt_round() > rounds {
                return Err(format!(
                    "restart's last attempt (round {}) is past the horizon ({rounds})",
                    rs.last_attempt_round()
                ));
            }
            if schedule.iter().any(|(p, _)| p == rs.p) {
                return Err(format!("restart process {} is also crash-scheduled", rs.p));
            }
        }
        if let Some(tf) = &self.timing {
            if let Some(v) = tf.victims.iter().find(|v| v.index() >= n) {
                return Err(format!("timing faults name {v} but n = {n}"));
            }
            storm::check_phases(&tf.phases).map_err(|e| format!("timing faults: {e}"))?;
        }
        Ok(())
    }
}

/// Runs `protocol` as `n` real processes over the configured transport.
///
/// Equivalent to [`ftss::sync_sim::SyncRunner::run_traced`] — same
/// events, same history, same outcome — with the execution distributed
/// across threads and sockets.
///
/// # Errors
///
/// The simulator's configuration errors, plus transport and wire
/// failures.
pub fn serve<P, A, T>(
    protocol: &P,
    adversary: &mut A,
    cfg: &ServeConfig,
    sink: &mut T,
) -> Result<RunOutcome<P::State, P::Msg>, String>
where
    P: SyncProtocol + Clone + Send + 'static,
    P::State: Wire + Corrupt + Send + 'static,
    P::Msg: Wire + Send + 'static,
    A: Adversary + ?Sized,
    T: TraceSink,
{
    let stats = &mut ServeStats::default();
    serve_streaming_with_stats(protocol, adversary, cfg, sink, |_| {}, stats)
}

/// [`serve`] with a per-round history observer — the streaming seam for
/// windowed oracles and the load generator, mirroring
/// [`ftss::sync_sim::SyncRunner::run_streaming`] — that also surfaces the
/// session's integer [`ServeStats`] (reconnects, stale drops) to the
/// caller.
///
/// # Errors
///
/// Same contract as [`serve`].
pub fn serve_streaming_with_stats<P, A, T, F>(
    protocol: &P,
    adversary: &mut A,
    cfg: &ServeConfig,
    sink: &mut T,
    on_round: F,
    stats: &mut ServeStats,
) -> Result<RunOutcome<P::State, P::Msg>, String>
where
    P: SyncProtocol + Clone + Send + 'static,
    P::State: Wire + Corrupt + Send + 'static,
    P::Msg: Wire + Send + 'static,
    A: Adversary + ?Sized,
    T: TraceSink,
    F: FnMut(&History<P::State, P::Msg>),
{
    let kernel = RoundKernel::new(adversary, &cfg.run).map_err(|e| e.message().to_string())?;
    cfg.check_episodes(kernel.faulty(), kernel.schedule())?;
    let n = cfg.run.n;
    let mut router = Router {
        protocol,
        cfg,
        stats,
        net: sink.enabled() && cfg.transport.is_real_socket(),
        round: 1,
        chans: (0..n).map(|_| None).collect(),
        epochs: vec![0; n],
        slots: (0..n).map(|_| None).collect(),
        handles: Vec::with_capacity(n),
        table: RoundTable::new(n),
        snapshot: None,
        snapshot_rng: StdRng::seed_from_u64(cfg.restart.map_or(0, |rs| rs.snapshot_seed)),
        restart_down: false,
    };
    let mut timing = TimingProxy::new(cfg.timing.as_ref());
    kernel.run(protocol, &mut router, &mut timing, sink, on_round)
}

/// One node's last collected snapshot: its decoded round-start state and
/// broadcast (if it sends this round; the kernel's walk takes it).
struct Slot<S, M> {
    state: S,
    msg: Option<M>,
}

/// One spawned node thread. `may_fail` marks incarnations whose abrupt
/// death is part of the schedule (a killed pre-crash incarnation, a
/// respawn whose snapshot failed to decode): their transport errors are
/// tolerated at join time. A panic is never tolerated.
struct NodeHandle {
    p: usize,
    may_fail: bool,
    handle: std::thread::JoinHandle<Result<(), String>>,
}

fn halt<S: Wire, M: Wire>(ch: &mut dyn Channel) -> std::io::Result<()> {
    let halt: ToNode<S, M> = ToNode::Halt;
    ch.send(&halt.to_bytes())
}

/// Admits one inbound connection by its `hello` frame.
///
/// * A hello whose epoch is *behind* the slot's registered epoch is a
///   stale incarnation dialing in: the connection is dropped, a
///   `net_stale_frame` event is emitted (real sockets only) and
///   `Ok(None)` is returned — the session continues.
/// * A hello for an already-registered slot **supersedes** it: the old
///   channel's in-flight broadcast (nodes always send before they can
///   observe anything) is drained as stale, the old incarnation is
///   halted, and the new connection takes the slot. Dropping the old
///   channel first would race the node's send.
/// * An out-of-range index or a non-hello first frame is still an error.
///
/// Every admission — session start and restart respawn — ends in
/// [`admit_frame`], this function's body after the receive.
///
/// # Errors
///
/// Transport failures, malformed frames, out-of-range indices.
pub(crate) fn admit_hello<S: Wire, M: Wire, T: TraceSink>(
    chans: &mut [Option<Box<dyn Channel>>],
    epochs: &mut [u64],
    mut ch: Box<dyn Channel>,
    stats: &mut ServeStats,
    sink: &mut T,
    net: bool,
    round: u64,
) -> Result<Option<usize>, String> {
    let hello = ch.recv().map_err(|e| format!("hello recv: {e}"))?;
    admit_frame::<S, M, T>(chans, epochs, ch, &hello, stats, net.then_some(sink), round)
}

/// [`admit_hello`] for a first frame already received. `net_sink` is the
/// sink when `net_*` events are narrated.
fn admit_frame<S: Wire, M: Wire, T: TraceSink>(
    chans: &mut [Option<Box<dyn Channel>>],
    epochs: &mut [u64],
    ch: Box<dyn Channel>,
    hello: &[u8],
    stats: &mut ServeStats,
    mut net_sink: Option<&mut T>,
    round: u64,
) -> Result<Option<usize>, String> {
    let mut stale = |p: usize, epoch: u64| {
        if let Some(sink) = net_sink.as_mut() {
            let p = ProcessId(p);
            sink.emit(&Event::NetStaleFrame { round, p, epoch });
        }
        stats.stale_dropped += 1;
    };
    match ToRouter::<S, M>::from_bytes(hello)? {
        ToRouter::Hello { p, epoch } if p < chans.len() => {
            if epoch < epochs[p] {
                stale(p, epoch);
                return Ok(None);
            }
            if let Some(mut old) = chans[p].take() {
                if old.recv().is_ok() {
                    stale(p, epochs[p]);
                }
                let _ = halt::<S, M>(old.as_mut());
                if let Some(sink) = net_sink {
                    sink.emit(&Event::NetClose { p: ProcessId(p) });
                }
                stats.reconnects += 1;
            }
            epochs[p] = epoch;
            chans[p] = Some(ch);
            Ok(Some(p))
        }
        ToRouter::Hello { p, .. } => Err(format!("bad hello for p{p}")),
        _ => Err("expected hello as first frame".into()),
    }
}

/// The remote [`Exchange`]: every process is a node thread behind a
/// [`Channel`]. The router owns what the nodes must not see — who is
/// connected, each node's last collected snapshot, the restart episode —
/// and moves state and messages as `ToNode`/`ToRouter` frames. What
/// happens *in* a round is the kernel's business.
struct Router<'a, P: SyncProtocol> {
    protocol: &'a P,
    cfg: &'a ServeConfig,
    stats: &'a mut ServeStats,
    /// Whether `net_*` events are narrated (a traced real-socket run).
    net: bool,
    /// The round the nodes are expected to be in.
    round: u64,
    chans: Vec<Option<Box<dyn Channel>>>,
    epochs: Vec<u64>,
    slots: Vec<Option<Slot<P::State, P::Msg>>>,
    handles: Vec<NodeHandle>,
    /// This round's broadcasts, each encoded once (filled as the kernel
    /// asks for them), and the buffer every round frame is written into.
    table: RoundTable,
    /// Crash–restart bookkeeping: the checkpointed snapshot bytes, the
    /// damage rng (one stream for the whole session, drawn per attempt
    /// in canonical order) and whether the victim is currently down.
    snapshot: Option<Vec<u8>>,
    snapshot_rng: StdRng,
    restart_down: bool,
}

impl<P> Router<'_, P>
where
    P: SyncProtocol + Clone + Send + 'static,
    P::State: Wire + Send + 'static,
    P::Msg: Wire + Send + 'static,
{
    /// Spawns the node thread for `p` over `chan`: from the protocol's
    /// initial state at round 1, or from recovery `(snapshot bytes,
    /// incarnation epoch)` at the current round.
    fn spawn(
        &mut self,
        p: ProcessId,
        mut chan: Box<dyn Channel>,
        recovery: Option<(Vec<u8>, u64)>,
    ) {
        let (proto, n, round) = (self.protocol.clone(), self.cfg.run.n, self.round);
        let may_fail = recovery.is_some();
        let handle = std::thread::spawn(move || match recovery {
            None => run_node(&proto, p, n, chan.as_mut()),
            Some((snapshot, epoch)) => {
                run_node_recovered(&proto, p, n, chan.as_mut(), round, &snapshot, epoch)
            }
        });
        self.handles.push(NodeHandle {
            p: p.index(),
            may_fail,
            handle,
        });
    }

    /// A restart respawn: a new node thread for `p` recovers from
    /// `(snapshot bytes, incarnation epoch)`, dials in over a fresh
    /// connection and is admitted by the handshake the session opened
    /// with, entering the lock-step loop at the current round.
    /// `Ok(false)`: no admission — the incarnation died decoding its
    /// snapshot (the connection closed with no hello), or its hello was
    /// stale.
    fn enter<T: TraceSink>(
        &mut self,
        p: ProcessId,
        recovery: (Vec<u8>, u64),
        sink: &mut T,
    ) -> Result<bool, String> {
        let transport = self.cfg.transport;
        let (mut router_ends, mut node_ends) = transport
            .open_pairs(1)
            .map_err(|e| format!("{} restart setup: {e}", transport.name()))?;
        let (Some(mut ch), Some(node_end)) = (router_ends.pop(), node_ends.pop()) else {
            return Err("restart transport produced no channel pair".into());
        };
        self.spawn(p, node_end, Some(recovery));
        let Ok(hello) = ch.recv() else {
            return Ok(false);
        };
        let admitted = admit_frame::<P::State, P::Msg, T>(
            &mut self.chans,
            &mut self.epochs,
            ch,
            &hello,
            self.stats,
            self.net.then_some(&mut *sink),
            self.round,
        )?;
        match admitted {
            Some(i) if i == p.index() => self.connected(p, sink),
            Some(i) => return Err(format!("restart hello claims p{i}, expected {p}")),
            None => {}
        }
        Ok(admitted.is_some())
    }

    fn connected<T: TraceSink>(&self, p: ProcessId, sink: &mut T) {
        if self.net {
            let transport = self.cfg.transport.name().to_string();
            sink.emit(&Event::NetConnect { p, transport });
        }
    }

    /// `p`'s channel and last snapshot are gone.
    fn disconnected<T: TraceSink>(&mut self, p: ProcessId, sink: &mut T) {
        self.chans[p.index()] = None;
        self.slots[p.index()] = None;
        if self.net {
            sink.emit(&Event::NetClose { p });
        }
    }

    /// Collects one `bcast` for the current round from each of `whom`
    /// that is connected.
    fn collect<T: TraceSink>(
        &mut self,
        whom: impl Iterator<Item = usize>,
        sink: &mut T,
    ) -> Result<(), String> {
        let r = self.round;
        for i in whom {
            let Some(ch) = self.chans[i].as_mut() else {
                continue;
            };
            let payload = ch.recv().map_err(|e| format!("p{i} bcast recv: {e}"))?;
            match ToRouter::<P::State, P::Msg>::from_bytes(&payload)? {
                ToRouter::Bcast { round, .. } if round != r => {
                    return Err(format!("p{i} is in round {round}, session is in {r}"));
                }
                ToRouter::Bcast { state, msg, .. } => self.slots[i] = Some(Slot { state, msg }),
                ToRouter::Hello { .. } => return Err(format!("unexpected hello from p{i}")),
            }
            if self.net {
                sink.emit(&Event::NetFrame {
                    round: r,
                    from: ProcessId(i),
                    bytes: (payload.len() + FRAME_HEADER_LEN) as u64,
                });
            }
        }
        Ok(())
    }

    /// The restart episode's business at the top of round `r`, in this
    /// order: checkpoint, kill, respawn attempt.
    fn restart_step<T: TraceSink>(&mut self, r: u64, sink: &mut T) -> Result<(), String> {
        let Some(rs) = self.cfg.restart else {
            return Ok(());
        };
        let i = rs.p.index();
        if r == rs.snapshot_round() + 1 {
            // The slot still holds the state the victim started the
            // snapshot round with, after that round's corruption
            // exchanges: the checkpoint sees what the process saw.
            let slot = self.slots[i].as_ref().ok_or_else(|| {
                format!("restart snapshot: {} has no slot in round {}", rs.p, r - 1)
            })?;
            let mut text = String::new();
            slot.state.encode(&mut text);
            self.snapshot = Some(text.into_bytes());
        }
        if r == rs.kill_round {
            // The crash is abrupt: drain the incarnation's in-flight
            // broadcast — now a stale frame from a dead epoch — and drop
            // the channel without a halt. The node thread dies on its
            // next recv; that error is tolerated at join time.
            if let Some(ch) = self.chans[i].as_mut() {
                ch.recv().map_err(|e| format!("p{i} kill drain: {e}"))?;
                if self.net {
                    let epoch = self.epochs[i];
                    sink.emit(&Event::NetStaleFrame {
                        round: r,
                        p: rs.p,
                        epoch,
                    });
                }
                self.stats.stale_dropped += 1;
            }
            self.restart_down = true;
            if let Some(h) = self.handles.iter_mut().rev().find(|h| h.p == i) {
                h.may_fail = true;
            }
            self.disconnected(rs.p, sink);
        }
        let attempt = (0..rs.retry.attempts).find(|&a| rs.attempt_round(a) == r);
        let (Some(attempt), true) = (attempt, self.restart_down) else {
            return Ok(());
        };
        let last = attempt + 1 == rs.retry.attempts;
        let base = self
            .snapshot
            .as_ref()
            .ok_or("restart attempt fired before its snapshot round")?;
        // Three draws per attempt, unconditionally: the stream position
        // is a pure function of the attempt index, never of the fault
        // kind or the outcome.
        let cut = self.snapshot_rng.gen_range(0..=base.len());
        let pos = self.snapshot_rng.gen_range(0..base.len().max(1));
        let bit = self.snapshot_rng.gen_range(0..8u32);
        let mut bytes = base.clone();
        // The final attempt restores the clean (if stale) checkpoint, so
        // a validated episode re-admits.
        match rs.fault {
            SnapshotFault::Truncated if !last => bytes.truncate(cut),
            SnapshotFault::BitFlip if !last => {
                if let Some(b) = bytes.get_mut(pos) {
                    *b ^= 1 << bit;
                }
            }
            _ => {}
        }
        let epoch = u64::from(attempt) + 1;
        if self.enter(rs.p, (bytes, epoch), sink)? {
            self.restart_down = false;
            self.stats.reconnects += 1;
            if let Some(h) = self.handles.last_mut() {
                h.may_fail = false;
            }
        } else if last {
            return Err(format!(
                "restart: {} never re-admitted after {} attempts",
                rs.p, rs.retry.attempts
            ));
        }
        Ok(())
    }
}

impl<P> Exchange<P::State, P::Msg> for Router<'_, P>
where
    P: SyncProtocol + Clone + Send + 'static,
    P::State: Wire + Send + 'static,
    P::Msg: Wire + Send + 'static,
{
    type Error = String;

    /// Sockets, node threads, hello handshake, round 1's broadcasts.
    fn open<T: TraceSink>(&mut self, sink: &mut T) -> Result<(), String> {
        let n = self.cfg.run.n;
        let transport = self.cfg.transport;
        let (router_ends, node_ends) = transport
            .open_pairs(n)
            .map_err(|e| format!("{} transport setup: {e}", transport.name()))?;
        if self.net {
            let transport = transport.name().to_string();
            sink.emit(&Event::NetListen { transport, n });
        }
        for (i, chan) in node_ends.into_iter().enumerate() {
            self.spawn(ProcessId(i), chan, None);
        }
        // Identity comes from the hello frame, never from accept order.
        for ch in router_ends {
            admit_hello::<P::State, P::Msg, T>(
                &mut self.chans,
                &mut self.epochs,
                ch,
                self.stats,
                sink,
                self.net,
                0,
            )?;
        }
        if let Some(i) = self.chans.iter().position(Option::is_none) {
            return Err(format!("no hello for p{i}"));
        }
        for i in 0..n {
            self.connected(ProcessId(i), sink);
        }
        self.collect(0..n, sink)
    }

    fn begin_round<T: TraceSink>(&mut self, r: u64, sink: &mut T) -> Result<(), String> {
        self.round = r;
        self.table.begin_round();
        self.restart_step(r, sink)?;
        // Round 1's broadcasts were collected by `open`: they precede the
        // initial systemic failure and the first `round_start`.
        if r > 1 {
            self.collect(0..self.cfg.run.n, sink)?;
        }
        Ok(())
    }

    /// A disconnected process — crashed, or down between its kill and
    /// its respawn — has no slot.
    fn state(&mut self, p: ProcessId) -> Option<&mut P::State> {
        self.slots[p.index()].as_mut().map(|s| &mut s.state)
    }

    /// Pushes the corrupted states out and re-collects the victims'
    /// re-broadcasts (a node adopting a state obliviously broadcasts
    /// again, exactly as a corrupted process would have in the first
    /// place).
    fn corrupted<T: TraceSink>(
        &mut self,
        victims: &[ProcessId],
        sink: &mut T,
    ) -> Result<(), String> {
        for v in victims {
            let i = v.index();
            let (Some(ch), Some(slot)) = (self.chans[i].as_mut(), self.slots[i].as_ref()) else {
                continue;
            };
            let state = slot.state.clone();
            let msg: ToNode<P::State, P::Msg> = ToNode::Corrupt { state };
            ch.send(&msg.to_bytes())
                .map_err(|e| format!("p{i} corrupt send: {e}"))?;
        }
        self.collect(victims.iter().map(|v| v.index()), sink)
    }

    /// The one place a message is encoded for the downlink: into the
    /// round's table, shared by every destination that hears `p`.
    fn broadcast(&mut self, p: ProcessId) -> Option<P::Msg> {
        let msg = self.slots[p.index()].as_mut()?.msg.take()?;
        self.table.broadcast(p, &msg);
        Some(msg)
    }

    /// The round frame for `p`: the round's table (a copy of bytes every
    /// destination gets), `p`'s delivered row straight off the history
    /// frame, its forged copies (each carries its per-copy payload,
    /// exactly as the simulator's inbox view shows it), then the proxy's
    /// late copies for `p` in hold order. Late copies for a destination
    /// that is gone by their arrival round are silently dropped — the
    /// network at its worst.
    fn deliver(
        &mut self,
        p: ProcessId,
        inbox: Deliveries<'_, P::Msg>,
        late: &[LateCopy<P::Msg>],
    ) -> Result<(), String> {
        let late = late.iter().filter(|c| c.to == p);
        let late = late.map(|c| (c.from, &c.msg));
        let frame = self.table.frame(inbox, late);
        let ch = self.chans[p.index()].as_mut();
        ch.ok_or_else(|| format!("survivor {p} is not connected"))?
            .send(frame)
            .map_err(|e| format!("{p} inbox send: {e}"))
    }

    fn crash<T: TraceSink>(&mut self, p: ProcessId, sink: &mut T) -> Result<(), String> {
        if let Some(ch) = self.chans[p.index()].as_mut() {
            halt::<P::State, P::Msg>(ch.as_mut()).map_err(|e| format!("{p} halt send: {e}"))?;
        }
        self.disconnected(p, sink);
        Ok(())
    }

    /// The survivors have stepped and are already broadcasting for the
    /// round after the horizon — that snapshot IS the final state. With
    /// no round run, the slots already hold it: `open` collected round
    /// 1's broadcasts, and no node sends another until a round frame.
    fn close<T: TraceSink>(&mut self, sink: &mut T) -> Result<Vec<Option<P::State>>, String> {
        let n = self.cfg.run.n;
        let rounds = round_count(self.cfg.run.rounds);
        if rounds > 0 {
            self.round = rounds + 1;
            self.collect(0..n, sink)?;
        }
        // Exactly the connected nodes have a slot.
        let final_states = self.slots.iter_mut().map(|s| s.take().map(|s| s.state));
        let final_states = final_states.collect();
        for (i, ch) in self.chans.iter_mut().enumerate() {
            let Some(ch) = ch else {
                continue;
            };
            halt::<P::State, P::Msg>(ch.as_mut()).map_err(|e| format!("p{i} halt send: {e}"))?;
            if self.net {
                sink.emit(&Event::NetClose { p: ProcessId(i) });
            }
        }
        self.chans.clear();
        for h in self.handles.drain(..) {
            match h.handle.join() {
                Ok(Ok(())) => {}
                Ok(Err(_)) if h.may_fail => {} // a scheduled abrupt death
                Ok(Err(e)) => return Err(format!("node p{} failed: {e}", h.p)),
                Err(_) => return Err(format!("node p{} panicked", h.p)),
            }
        }
        Ok(final_states)
    }
}

/// The partial-synchrony proxy: the one non-trivial [`CopyLayer`]. It
/// runs [`TimingFaults`]' program against every copy touching a victim,
/// deferring or echoing delivered copies across round boundaries. Late
/// copies for crashed, absent or halted destinations are silently
/// dropped by the exchange — the network at its worst.
struct TimingProxy<'a, M> {
    program: Option<&'a TimingFaults>,
    rng: StdRng,
    /// `(round, that round's timing kind)`, looked up once per round.
    current: (u64, Option<StormKind>),
    /// Deferred copies keyed by arrival round, in enqueue order.
    late: BTreeMap<u64, Vec<LateCopy<M>>>,
}

impl<'a, M> TimingProxy<'a, M> {
    fn new(program: Option<&'a TimingFaults>) -> Self {
        TimingProxy {
            program,
            rng: StdRng::seed_from_u64(program.map_or(0, |tf| tf.seed)),
            current: (0, None),
            late: BTreeMap::new(),
        }
    }
}

impl<M: Clone> CopyLayer<M> for TimingProxy<'_, M> {
    fn relay(
        &mut self,
        r: u64,
        from: ProcessId,
        to: ProcessId,
        outcome: DeliveryOutcome,
        msgs: &RoundMsgs<M>,
    ) -> DeliveryOutcome {
        let Some(tf) = self.program else {
            return outcome;
        };
        if self.current.0 != r {
            let phase = storm::phase_at(&tf.phases, r);
            self.current = (r, phase.map(|ph| ph.kind).filter(StormKind::is_timing));
        }
        let Some(kind) = self.current.1 else {
            return outcome;
        };
        if !tf.victims.contains(&from) && !tf.victims.contains(&to) {
            return outcome;
        }
        let delivered = outcome == DeliveryOutcome::Delivered;
        let (late_outcome, arrives) = match kind {
            StormKind::Delay { rounds } if delivered => {
                (DeliveryOutcome::Delayed, r + u64::from(rounds))
            }
            // One coin per eligible copy, delivered or not: the stream
            // position must be a function of the traffic pattern alone.
            StormKind::Reorder if self.rng.gen_bool(0.5) && delivered => {
                (DeliveryOutcome::Delayed, r + 1)
            }
            StormKind::Duplicate if delivered => (DeliveryOutcome::Duplicated, r + 1),
            _ => return outcome,
        };
        let msg = msgs
            .broadcast_of(from)
            .expect("a relayed copy has a recorded broadcast");
        self.late.entry(arrives).or_default().push(LateCopy {
            to,
            from,
            msg: (**msg).clone(),
        });
        late_outcome
    }

    fn arrivals(&mut self, r: u64) -> Vec<LateCopy<M>> {
        self.late.remove(&r).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss::core::RoundCounter;
    use ftss::protocols::RoundAgreementState;
    use ftss::telemetry::NullSink;

    type S = RoundAgreementState;
    type M = u64;

    fn hello(p: usize, epoch: u64) -> Vec<u8> {
        ToRouter::<S, M>::Hello { p, epoch }.to_bytes()
    }

    fn bcast(round: u64, c: u64) -> Vec<u8> {
        ToRouter::<S, M>::Bcast {
            round,
            state: RoundAgreementState {
                c: RoundCounter::new(c),
            },
            msg: Some(c),
        }
        .to_bytes()
    }

    #[test]
    fn duplicate_hello_supersedes_the_old_registration() {
        let (mut routers, mut nodes) = TransportKind::Mem.open_pairs(2).expect("mem pairs");
        let mut chans: Vec<Option<Box<dyn Channel>>> = vec![None];
        let mut epochs = vec![0u64];
        let mut stats = ServeStats::default();

        // First connection registers p0 and has a broadcast in flight —
        // the shape a live node always leaves on the wire.
        let mut old_node = nodes.remove(0);
        old_node.send(&hello(0, 0)).expect("old hello");
        old_node.send(&bcast(1, 7)).expect("old bcast");
        let admitted = admit_hello::<S, M, _>(
            &mut chans,
            &mut epochs,
            routers.remove(0),
            &mut stats,
            &mut NullSink,
            false,
            0,
        )
        .expect("first hello admits");
        assert_eq!(admitted, Some(0));
        assert_eq!(stats, ServeStats::default());

        // A second connection claims p0: it supersedes. The old channel's
        // in-flight frame is drained as stale and the old incarnation is
        // halted — never an error (the pre-restart router said
        // "bad or duplicate hello" here and tore the session down).
        let mut new_node = nodes.remove(0);
        new_node.send(&hello(0, 0)).expect("new hello");
        let admitted = admit_hello::<S, M, _>(
            &mut chans,
            &mut epochs,
            routers.remove(0),
            &mut stats,
            &mut NullSink,
            false,
            0,
        )
        .expect("duplicate hello supersedes");
        assert_eq!(admitted, Some(0));
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.stale_dropped, 1);
        assert!(chans[0].is_some());
        let halted = old_node.recv().expect("old node got a frame");
        assert_eq!(
            ToNode::<S, M>::from_bytes(&halted).expect("decodes"),
            ToNode::Halt
        );
    }

    #[test]
    fn stale_epoch_hello_is_dropped_not_fatal() {
        let (mut routers, mut nodes) = TransportKind::Mem.open_pairs(1).expect("mem pairs");
        let mut chans: Vec<Option<Box<dyn Channel>>> = vec![None];
        let mut epochs = vec![3u64]; // p0 is already on incarnation 3
        let mut stats = ServeStats::default();
        let mut node = nodes.remove(0);
        node.send(&hello(0, 1)).expect("stale hello");
        let admitted = admit_hello::<S, M, _>(
            &mut chans,
            &mut epochs,
            routers.remove(0),
            &mut stats,
            &mut NullSink,
            false,
            9,
        )
        .expect("stale hello is not an error");
        assert_eq!(admitted, None);
        assert_eq!(stats.stale_dropped, 1);
        assert_eq!(stats.reconnects, 0);
        assert!(chans[0].is_none());
        assert_eq!(epochs[0], 3);
    }

    #[test]
    fn out_of_range_hello_is_still_an_error() {
        let (mut routers, mut nodes) = TransportKind::Mem.open_pairs(1).expect("mem pairs");
        let mut chans: Vec<Option<Box<dyn Channel>>> = vec![None];
        let mut epochs = vec![0u64];
        let mut stats = ServeStats::default();
        let mut node = nodes.remove(0);
        node.send(&hello(5, 0)).expect("bad hello");
        let err = admit_hello::<S, M, _>(
            &mut chans,
            &mut epochs,
            routers.remove(0),
            &mut stats,
            &mut NullSink,
            false,
            0,
        )
        .expect_err("p out of range");
        assert_eq!(err, "bad hello for p5");
    }

    /// Any peer's first frame is parsed as JSON: one nested 200 000 deep
    /// (this one used to overflow the router's stack and abort the
    /// process) fails the admission instead.
    #[test]
    fn deeply_nested_hello_is_an_error_not_an_abort() {
        let (mut routers, mut nodes) = TransportKind::Mem.open_pairs(1).expect("mem pairs");
        let mut chans: Vec<Option<Box<dyn Channel>>> = vec![None];
        let mut epochs = vec![0u64];
        let mut stats = ServeStats::default();
        let nested = "[".repeat(200_000);
        nodes[0].send(nested.as_bytes()).expect("nested hello");
        let err = admit_hello::<S, M, _>(
            &mut chans,
            &mut epochs,
            routers.remove(0),
            &mut stats,
            &mut NullSink,
            false,
            0,
        )
        .expect_err("nested hello");
        assert!(err.contains("nested deeper than"), "{err}");
        assert!(chans[0].is_none());
    }

    /// A node whose `bcast` names another round than the session's is a
    /// broken node, not a frame to file under the wrong round.
    #[test]
    fn collect_rejects_a_bcast_from_another_round() {
        let cfg = ServeConfig::new(RunConfig::clean(1, 4), TransportKind::Mem);
        let mut stats = ServeStats::default();
        let (mut routers, mut nodes) = TransportKind::Mem.open_pairs(1).expect("mem pairs");
        let mut router = Router {
            protocol: &ftss::protocols::RoundAgreement,
            cfg: &cfg,
            stats: &mut stats,
            net: false,
            round: 3,
            chans: vec![Some(routers.remove(0))],
            epochs: vec![0],
            slots: vec![None],
            handles: Vec::new(),
            table: RoundTable::new(1),
            snapshot: None,
            snapshot_rng: StdRng::seed_from_u64(0),
            restart_down: false,
        };
        nodes[0].send(&bcast(3, 5)).expect("bcast");
        router
            .collect(0..1, &mut NullSink)
            .expect("this round's bcast");
        let slot = router.slots[0].as_ref().expect("collected");
        assert_eq!((slot.state.c.get(), slot.msg), (5, Some(5)));
        nodes[0].send(&bcast(2, 6)).expect("bcast");
        let err = router
            .collect(0..1, &mut NullSink)
            .expect_err("another round");
        assert_eq!(err, "p0 is in round 2, session is in 3");
    }

    #[test]
    fn restart_episode_schedule_arithmetic() {
        let rs = ServeRestart {
            p: ProcessId(0),
            kill_round: 6,
            gap: 2,
            staleness: 3,
            fault: SnapshotFault::Truncated,
            snapshot_seed: 1,
            retry: Retry {
                attempts: 3,
                backoff_rounds: 2,
            },
        };
        assert_eq!(rs.snapshot_round(), 3);
        assert_eq!(rs.attempt_round(0), 8);
        assert_eq!(rs.attempt_round(1), 10);
        assert_eq!(rs.last_attempt_round(), 12);
    }
}
