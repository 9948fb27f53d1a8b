//! The serve stack's layers, each timed on its own: wire codec, JSON
//! parser, framing and the three transports. Shared by both served
//! workloads, which load these layers differently: 128 frames and
//! ~160 KB per round across 64 node threads (`serve-ra-tcp-n64`) versus
//! 32 frames and ~26 KB per round across 16 (`loadgen-floodset-uds-n16`).
//!
//! The frame corpus is rebuilt from the [`History`] of the equivalent
//! `SyncRunner::run`: per round and process, the `bcast` frame the node
//! would send (round-start state plus broadcast) and the `inbox` frame
//! the router would answer with (the recorded delivery row) — exactly
//! the two frames `ftss_serve::session` exchanges per node per round.

use crate::harness::Layers;
use crate::stats::{median, residual_share};
use crate::trace::{SpanId, Tracer};
use ftss::core::{frame_bytes, FrameDecoder, History, ProcessId, FRAME_HEADER_LEN};
use ftss::telemetry::parse_json;
use ftss_serve::{ToNode, ToRouter, TransportKind, Wire};
use std::hint::black_box;
use std::time::Instant;

/// Ping-pongs per transport round-trip measurement.
const RTT_TRIPS: usize = 2_000;

/// What the codec and framing layers cost one served round.
pub struct WireCosts {
    pub codec_us_per_round: f64,
    pub framing_us_per_round: f64,
    pub frames_per_round: f64,
    /// The corpus frame of median length: the transports' ping payload.
    pub median_frame: Vec<u8>,
}

/// Times `passes` sweeps of one call per item as one span.
struct Batch<'a> {
    passes: usize,
    tracer: &'a mut Tracer,
    parent: SpanId,
}

impl Batch<'_> {
    /// Nanoseconds per call of `f`; an `f` that returns false (a frame
    /// that did not survive its round trip) fails the batch.
    fn ns_per_item<T>(
        &mut self,
        name: &'static str,
        items: &[T],
        mut f: impl FnMut(&T) -> bool,
    ) -> Result<f64, String> {
        let calls = self.passes * items.len();
        let (ok, ns) = self.tracer.time(self.parent, name, calls as u64, || {
            let mut ok = true;
            for _ in 0..self.passes {
                for item in items {
                    ok &= f(item);
                }
            }
            ok
        });
        if ok {
            Ok(ns / calls as f64)
        } else {
            Err(format!("{name}: a corpus frame did not survive"))
        }
    }
}

/// Times encode, decode, parse and framing over the corpus of `history`
/// (`passes` times over, so small corpora still run for milliseconds).
pub fn codec_and_framing<S, M>(
    history: &History<S, M>,
    passes: usize,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Layers,
) -> Result<WireCosts, String>
where
    S: Wire + Clone,
    M: Wire + Clone,
{
    let mut bcasts: Vec<ToRouter<S, M>> = Vec::new();
    let mut inboxes: Vec<ToNode<S, M>> = Vec::new();
    for (r, frame) in history.rounds().iter().enumerate() {
        for p in (0..history.n()).map(ProcessId) {
            let record = frame.record(p);
            let Some(state) = record.state_at_start() else {
                continue; // crashed: no node, no frames
            };
            bcasts.push(ToRouter::Bcast {
                round: (history.evicted() + r + 1) as u64,
                state: state.clone(),
                msg: record.broadcast_payload().map(|m| (**m).clone()),
            });
            let msgs = frame.msgs().deliveries(p).iter();
            inboxes.push(ToNode::Inbox {
                msgs: msgs.map(|(src, m)| (src.index(), (**m).clone())).collect(),
            });
        }
    }
    let rounds = history.rounds().len() as f64;
    let bcast_bytes: Vec<Vec<u8>> = bcasts.iter().map(ToRouter::to_bytes).collect();
    let inbox_bytes: Vec<Vec<u8>> = inboxes.iter().map(ToNode::to_bytes).collect();
    let all_bytes = || bcast_bytes.iter().chain(&inbox_bytes);
    let frames = (bcasts.len() + inboxes.len()) as f64;
    let wire_bytes: usize = all_bytes().map(|b| b.len() + FRAME_HEADER_LEN).sum();
    out.set("serve.frames_per_round", frames / rounds);
    out.set("serve.wire_bytes_per_round", wire_bytes as f64 / rounds);

    let mut batch = Batch {
        passes,
        tracer,
        parent,
    };
    let enc_bcast = batch.ns_per_item("serve.wire_encode.bcast", &bcasts, |f| {
        black_box(f.to_bytes());
        true
    })?;
    let enc_inbox = batch.ns_per_item("serve.wire_encode.inbox", &inboxes, |f| {
        black_box(f.to_bytes());
        true
    })?;
    let dec_bcast = batch.ns_per_item("serve.wire_decode.bcast", &bcast_bytes, |b| {
        black_box(ToRouter::<S, M>::from_bytes(b)).is_ok()
    })?;
    let dec_inbox = batch.ns_per_item("serve.wire_decode.inbox", &inbox_bytes, |b| {
        black_box(ToNode::<S, M>::from_bytes(b)).is_ok()
    })?;
    out.set("serve.wire_encode_ns_per_frame.bcast", enc_bcast);
    out.set("serve.wire_encode_ns_per_frame.inbox", enc_inbox);
    out.set("serve.wire_decode_ns_per_frame.bcast", dec_bcast);
    out.set("serve.wire_decode_ns_per_frame.inbox", dec_inbox);

    // The parser's share of decode: `parse_json` alone, inbox corpus.
    let texts: Vec<&str> = inbox_bytes
        .iter()
        .map(|b| std::str::from_utf8(b).map_err(|e| format!("corpus frame: {e}")))
        .collect::<Result<_, _>>()?;
    let parse_ns = batch.ns_per_item("telemetry.parse_json", &texts, |t| {
        black_box(parse_json(t)).is_ok()
    })?;
    let mean_inbox_len =
        inbox_bytes.iter().map(Vec::len).sum::<usize>() as f64 / texts.len() as f64;
    out.set("telemetry.parse_json_mb_s", mean_inbox_len * 1e3 / parse_ns);

    // Framing both ways, header and body pushed separately as a short
    // socket read (and the mem transport) delivers them.
    let mut decoder = FrameDecoder::new();
    let payloads: Vec<&Vec<u8>> = all_bytes().collect();
    let framing_ns = batch.ns_per_item("core.framing", &payloads, |payload| {
        let framed = frame_bytes(payload);
        let (header, body) = framed.split_at(FRAME_HEADER_LEN);
        decoder.push_bytes(header);
        decoder.push_bytes(body);
        matches!(decoder.next_frame(), Ok(Some(f)) if f.len() == payload.len())
    })?;
    let framing_ns_per_byte = framing_ns * frames / wire_bytes as f64;
    out.set("core.framing_mb_s", 1e3 / framing_ns_per_byte);

    let lens: Vec<f64> = all_bytes().map(|b| b.len() as f64).collect();
    let want = median(&lens) as usize;
    let median_frame = all_bytes()
        .min_by_key(|b| b.len().abs_diff(want))
        .ok_or("empty frame corpus")?
        .clone();

    let per_round = |per_frame_ns: f64, frames: usize| per_frame_ns * frames as f64 / rounds / 1e3;
    Ok(WireCosts {
        codec_us_per_round: per_round(enc_bcast + dec_bcast, bcasts.len())
            + per_round(enc_inbox + dec_inbox, inboxes.len()),
        framing_us_per_round: framing_ns_per_byte * wire_bytes as f64 / rounds / 1e3,
        frames_per_round: frames / rounds,
        median_frame,
    })
}

/// One `open_pairs(1)` ping-pong of `payload` against an echo thread:
/// microseconds per round trip (two frames, two wake-ups).
fn transport_rtt_us(kind: TransportKind, payload: &[u8]) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("{} ping-pong: {e}", kind.name());
    let (mut routers, mut nodes) = kind.open_pairs(1).map_err(io)?;
    let (mut router, mut node) = (routers.remove(0), nodes.remove(0));
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> std::io::Result<()> {
            for _ in 0..RTT_TRIPS {
                let frame = node.recv()?;
                node.send(&frame)?;
            }
            Ok(())
        });
        let started = Instant::now();
        for _ in 0..RTT_TRIPS {
            router.send(payload).map_err(io)?;
            black_box(router.recv().map_err(io)?);
        }
        let us = started.elapsed().as_secs_f64() * 1e6 / RTT_TRIPS as f64;
        match echo.join() {
            Ok(Ok(())) => Ok(us),
            Ok(Err(e)) => Err(io(e)),
            Err(_) => Err(format!("{} echo thread panicked", kind.name())),
        }
    })
}

/// Times the three transports and closes the session's books: what the
/// outside ladder cannot attribute is barrier wait and thread wake-up.
pub fn transports_and_residual(
    session_transport: TransportKind,
    session_round_us: f64,
    sim_equiv_round_us: f64,
    costs: &WireCosts,
    tracer: &mut Tracer,
    parent: SpanId,
    out: &mut Layers,
) -> Result<(), String> {
    let mut session_rtt = 0.0;
    for (kind, name, span) in [
        (
            TransportKind::Mem,
            "serve.transport_rtt_us.mem",
            "serve.transport.mem",
        ),
        (
            TransportKind::Uds,
            "serve.transport_rtt_us.uds",
            "serve.transport.uds",
        ),
        (
            TransportKind::Tcp,
            "serve.transport_rtt_us.tcp",
            "serve.transport.tcp",
        ),
    ] {
        let (us, _) = tracer.time(parent, span, RTT_TRIPS as u64, || {
            transport_rtt_us(kind, &costs.median_frame)
        });
        let us = us?;
        out.set(name, us);
        if kind == session_transport {
            session_rtt = us;
        }
    }
    out.set("serve.sim_equiv_round_us", sim_equiv_round_us);
    out.set("serve.session_round_us", session_round_us);
    out.set("serve.rounds_per_s", 1e6 / session_round_us);
    // A round trip carries two frames, so a round's frames cost
    // `frames / 2` of them when nothing overlaps.
    let transport_us = session_rtt * costs.frames_per_round / 2.0;
    out.set(
        "serve.barrier_residual_share",
        residual_share(
            session_round_us,
            &[
                costs.codec_us_per_round,
                costs.framing_us_per_round,
                transport_us,
                sim_equiv_round_us,
            ],
        ),
    );
    Ok(())
}
