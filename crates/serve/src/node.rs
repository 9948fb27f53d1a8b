//! The node runtime: one protocol process as a real thread over a
//! [`Channel`].
//!
//! A node owns its own state and nothing else — it never sees the crash
//! schedule, the adversary or the other nodes. Its whole life is the
//! lock-step loop of §2 of the paper: broadcast the round's state and
//! message (a binary `bcast`, encoded from the borrowed state into one
//! buffer kept for the session), wait for the round's deliveries (the
//! binary round frame of [`proto`](crate::proto), decoded into storage
//! kept for the session — each distinct message once, into a message of
//! an earlier round; the index cells, the heard words, the forged and
//! late copies), step on a view of that table — no envelope, no
//! per-sender copy. The router injects systemic failures by
//! sending a `corrupt` state to adopt (the node obliviously
//! re-broadcasts, exactly as a corrupted process would have broadcast in
//! the first place), and ends the node's life with `halt` — which is how
//! both a scheduled crash and a normal run end look from in here.
//!
//! A node enters at round 1 ([`run_node`]) or, as a crash–restart
//! incarnation, from a recovery snapshot at the session's current round
//! ([`run_node_recovered`]).

use crate::proto::{decode_round_frame, NodeFrame, ToNode, ToRouter, ROUND_FRAME_TAG};
use crate::transport::Channel;
use crate::wire::Wire;
use ftss::core::ProcessId;
use ftss::sync_sim::{ProtocolCtx, SyncProtocol};

/// Runs one protocol process to completion over `chan`, from the
/// protocol's initial state at round 1.
///
/// # Errors
///
/// Transport failures and malformed router frames. A node never panics
/// on wire input.
pub fn run_node<P>(
    protocol: &P,
    me: ProcessId,
    n: usize,
    chan: &mut dyn Channel,
) -> Result<(), String>
where
    P: SyncProtocol,
    P::State: Wire,
    P::Msg: Wire,
{
    let state = protocol.init_state(&ProtocolCtx::new(me, n));
    run_node_loop(protocol, me, n, chan, 1, state, 0)
}

/// [`run_node`] for a **crash–restart** incarnation: the node first
/// decodes its recovery `snapshot` (which may be stale, truncated or
/// bit-corrupted — decoding is total, so a damaged snapshot is a clean
/// `Err` and the router sees the connection drop, never a panic), then
/// performs the `hello` handshake carrying its incarnation `epoch` and
/// re-enters the lock-step loop at `start_round`.
///
/// # Errors
///
/// Snapshot decode failures, transport failures and malformed router
/// frames.
pub fn run_node_recovered<P>(
    protocol: &P,
    me: ProcessId,
    n: usize,
    chan: &mut dyn Channel,
    start_round: u64,
    snapshot: &[u8],
    epoch: u64,
) -> Result<(), String>
where
    P: SyncProtocol,
    P::State: Wire,
    P::Msg: Wire,
{
    // Decode BEFORE hello: a corrupted snapshot must fail the restart
    // attempt identically on every transport (the router only ever sees
    // the channel close), keeping attempt outcomes deterministic.
    let text =
        std::str::from_utf8(snapshot).map_err(|e| format!("{me}: snapshot not UTF-8: {e}"))?;
    let v =
        ftss::telemetry::parse_json(text).map_err(|e| format!("{me}: snapshot not JSON: {e}"))?;
    let state = P::State::decode(&v).map_err(|e| format!("{me}: snapshot decode failed: {e}"))?;
    run_node_loop(protocol, me, n, chan, start_round, state, epoch)
}

fn run_node_loop<P>(
    protocol: &P,
    me: ProcessId,
    n: usize,
    chan: &mut dyn Channel,
    start_round: u64,
    mut state: P::State,
    epoch: u64,
) -> Result<(), String>
where
    P: SyncProtocol,
    P::State: Wire,
    P::Msg: Wire,
{
    let ctx = ProtocolCtx::new(me, n);
    let send = |chan: &mut dyn Channel, frame: &[u8]| {
        chan.send(frame)
            .map_err(|e| format!("{me}: send failed: {e}"))
    };
    let hello = ToRouter::<P::State, P::Msg>::Hello {
        p: me.index(),
        epoch,
    };
    send(chan, &hello.to_bytes())?;

    // Every `bcast` of the session is written into this one buffer, and
    // every round frame decoded into this one frame.
    let mut frame = Vec::new();
    let mut decoded = NodeFrame::default();
    let mut round: u64 = start_round;
    loop {
        // Broadcast half: snapshot + (optional) message. Recomputed from
        // the current state, so an adopted corruption re-broadcasts the
        // corrupted view without special-casing.
        let msg = protocol
            .sends(&ctx, &state)
            .then(|| protocol.broadcast(&ctx, &state));
        frame.clear();
        ToRouter::encode_bcast(round, &state, msg.as_ref(), &mut frame);
        send(chan, &frame)?;
        let payload = chan.recv().map_err(|e| format!("{me}: recv failed: {e}"))?;
        if payload.first() == Some(&ROUND_FRAME_TAG) {
            let inbox = decode_round_frame(&payload, n, &mut decoded)?;
            protocol.step(&ctx, &mut state, &inbox);
            round += 1;
            continue;
        }
        match ToNode::<P::State, P::Msg>::from_bytes(&payload)? {
            ToNode::Corrupt { state: s } => state = s,
            ToNode::Inbox { .. } => {
                return Err(format!("{me}: JSON inbox; sessions send the round frame"))
            }
            ToNode::Halt => return Ok(()),
        }
    }
}
