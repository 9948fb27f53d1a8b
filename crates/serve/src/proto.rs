//! The node⇄router protocol: what the frames of a session say.
//!
//! Five message shapes cross the wire:
//!
//! * node → router: `hello` (identity, sent once) and `bcast` (the round's
//!   state snapshot plus, when the protocol sends this round, the
//!   broadcast message),
//! * router → node: `corrupt` (adopt this state — a systemic failure —
//!   and re-broadcast), the **round frame** (the round's deliveries; step
//!   and move to the next round) and `halt` (leave the session: the run
//!   ended or the crash schedule claimed this process).
//!
//! Everything is length-prefix framed by the transport. The control
//! plane — `hello`, `corrupt`, `halt` — is one JSON document per frame,
//! encoded with the telemetry JSON writer ([`ToRouter`], [`ToNode`]). The
//! two frames every round carries are binary, in [`Wire`]'s binary form,
//! and each starts with a tag byte no JSON document can start with. The
//! uplink `bcast` is the node's state and message, each length-prefixed:
//!
//! ```text
//! bcast frame := BCAST_TAG  round:u64  state  (0 | 1 msg)
//! state, msg  := len:u32  value              (Wire::encode_bin)
//! ```
//!
//! The round frame has the shape the recorded history has
//! ([`ftss::core::RoundMsgs`]): in a synchronous round every destination
//! gets the *same* message from a given sender and destinations differ
//! only in *whom* they hear, so the router encodes each broadcast once
//! into a `RoundTable` and a destination's frame is that table plus its
//! own delivered bit-row:
//!
//! ```text
//! round frame := ROUND_TAG shared heard forged late
//! shared      := n:u32  entries:u32  entry × entries  index × n
//! entry       := len:u32  message            (Wire::encode_bin)
//! index       := the sender's entry, or `entries` for a silent sender;
//!                1, 2 or 4 bytes — the narrowest that holds `entries`
//! heard       := ⌈n/64⌉ × u64               (the delivered bit-row)
//! forged,late := count:u32  (sender:u32  len:u32  message) × count
//! ```
//!
//! All integers little-endian. Equal encodings share one entry, so once
//! the correct processes agree (Theorem 3) the table has one entry.
//! `forged` overrides the table for the senders it names (ascending, each
//! of them heard); `late` — the destination's late arrivals, read off the
//! kernel's frame of the round ([`ftss::core::Deliveries::late`]) —
//! follows in hold order. [`ToNode::Inbox`] is the same `(sender, message)`
//! sequence as JSON: no session sends it any more; it is the reference
//! form the round frame is tested against and what `benchmark/`'s wire
//! ladder still times.
//!
//! Decoding is total in every form: malformed input is an `Err(String)`,
//! never a panic.

use crate::wire::{patch_u32, put_option, put_section, put_u32, take_section, Reader, Wire};
use ftss::core::{Deliveries, ProcessId};
use ftss::sync_sim::{Inbox, InboxTable};
use ftss::telemetry::{parse_json, JsonValue};
use std::collections::HashMap;
use std::ops::Range;

/// A message from a node to the router.
#[derive(Clone, Debug, PartialEq)]
pub enum ToRouter<S, M> {
    /// Identifies the connection; always the node's first frame.
    Hello {
        /// The node's process index.
        p: usize,
        /// The node's incarnation number. `0` is the original session
        /// incarnation (and is omitted from the wire encoding, so
        /// pre-restart sessions keep their exact byte streams); each
        /// crash–restart attempt increments it. The router drops hellos
        /// whose epoch is behind the slot's — a reconnect from a
        /// pre-crash incarnation — as `net_stale_frame` instead of
        /// erroring.
        epoch: u64,
    },
    /// The node's round-start snapshot and (optional) broadcast.
    Bcast {
        /// The node's own 1-based round number (sanity-checked by the
        /// router against the session round).
        round: u64,
        /// The state at the start of the round.
        state: S,
        /// The broadcast message; `None` when the protocol's `sends`
        /// returned false this round.
        msg: Option<M>,
    },
}

/// A message from the router to a node.
#[derive(Clone, Debug, PartialEq)]
pub enum ToNode<S, M> {
    /// Systemic failure: adopt this state and re-broadcast the round.
    Corrupt {
        /// The corrupted state to adopt.
        state: S,
    },
    /// The round's deliveries, sorted by sender (self-copy included).
    Inbox {
        /// `(sender index, payload)` pairs in ascending sender order.
        msgs: Vec<(usize, M)>,
    },
    /// Leave the session.
    Halt,
}

impl<S: Wire, M: Wire> ToRouter<S, M> {
    /// Encodes to the frame payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            ToRouter::Hello { p, epoch } => {
                let mut out = format!("{{\"type\":\"hello\",\"p\":{p}");
                if *epoch > 0 {
                    out.push_str(&format!(",\"epoch\":{epoch}"));
                }
                out.push('}');
                out.into_bytes()
            }
            ToRouter::Bcast { round, state, msg } => {
                let mut out = Vec::new();
                Self::encode_bcast(*round, state, msg.as_ref(), &mut out);
                out
            }
        }
    }

    /// Appends the `bcast` frame of `(round, state, msg)` to `out`, from
    /// borrowed parts: a node encodes its live state into one buffer it
    /// keeps for the session.
    pub(crate) fn encode_bcast(round: u64, state: &S, msg: Option<&M>, out: &mut Vec<u8>) {
        out.push(BCAST_FRAME_TAG);
        out.extend_from_slice(&round.to_le_bytes());
        put_section(out, |out| state.encode_bin(out));
        put_option(msg, out, |m, out| put_section(out, |out| m.encode_bin(out)));
    }

    /// Decodes a frame payload: a `bcast` frame, or a JSON `hello`.
    ///
    /// # Errors
    ///
    /// Any malformed payload — wire bytes are untrusted.
    pub fn from_bytes(payload: &[u8]) -> Result<Self, String> {
        if let Some((&BCAST_FRAME_TAG, frame)) = payload.split_first() {
            return Self::decode_bcast(Reader::new(frame)).map_err(|e| format!("bcast: {e}"));
        }
        let v = parse_payload(payload)?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("hello") => Ok(ToRouter::Hello {
                p: v.get("p")
                    .and_then(JsonValue::as_u64)
                    .ok_or("hello: missing `p`")? as usize,
                epoch: v.get("epoch").and_then(JsonValue::as_u64).unwrap_or(0),
            }),
            other => Err(format!("unknown node message type {other:?}")),
        }
    }

    /// The inverse of [`ToRouter::encode_bcast`], past the tag.
    fn decode_bcast(mut r: Reader<'_>) -> Result<Self, String> {
        let round = r.u64()?;
        let state = take_section(&mut r, S::decode_bin)?;
        let msg = r.option(|r| take_section(r, M::decode_bin))?;
        r.finish()?;
        Ok(ToRouter::Bcast { round, state, msg })
    }
}

impl<S: Wire, M: Wire> ToNode<S, M> {
    /// Encodes to the frame payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            ToNode::Corrupt { state } => {
                out.push_str("{\"type\":\"corrupt\",\"state\":");
                state.encode(&mut out);
                out.push('}');
            }
            ToNode::Inbox { msgs } => {
                out.push_str("{\"type\":\"inbox\",\"msgs\":[");
                for (i, (from, m)) in msgs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"from\":");
                    out.push_str(&from.to_string());
                    out.push_str(",\"msg\":");
                    m.encode(&mut out);
                    out.push('}');
                }
                out.push_str("]}");
            }
            ToNode::Halt => out.push_str("{\"type\":\"halt\"}"),
        }
        out.into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// Any malformed payload — wire bytes are untrusted.
    pub fn from_bytes(payload: &[u8]) -> Result<Self, String> {
        let v = parse_payload(payload)?;
        match v.get("type").and_then(JsonValue::as_str) {
            Some("corrupt") => Ok(ToNode::Corrupt {
                state: S::decode(v.get("state").ok_or("corrupt: missing `state`")?)?,
            }),
            Some("inbox") => {
                let arr = v
                    .get("msgs")
                    .and_then(JsonValue::as_arr)
                    .ok_or("inbox: missing `msgs`")?;
                let mut msgs = Vec::with_capacity(arr.len());
                for entry in arr {
                    let from = entry
                        .get("from")
                        .and_then(JsonValue::as_u64)
                        .ok_or("inbox entry: missing `from`")?
                        as usize;
                    let m = M::decode(entry.get("msg").ok_or("inbox entry: missing `msg`")?)?;
                    msgs.push((from, m));
                }
                Ok(ToNode::Inbox { msgs })
            }
            Some("halt") => Ok(ToNode::Halt),
            other => Err(format!("unknown router message type {other:?}")),
        }
    }
}

fn parse_payload(payload: &[u8]) -> Result<JsonValue, String> {
    let text =
        std::str::from_utf8(payload).map_err(|e| format!("frame payload is not UTF-8: {e}"))?;
    parse_json(text).map_err(|e| format!("frame payload is not JSON: {e}"))
}

/// First byte of a round frame: a UTF-8 continuation byte, which no JSON
/// document (no UTF-8 text at all) can start with.
pub(crate) const ROUND_FRAME_TAG: u8 = 0xB1;

/// First byte of a `bcast` frame, for the same reason.
pub(crate) const BCAST_FRAME_TAG: u8 = 0xB2;

/// Bytes per `index` cell: the narrowest of 1, 2 and 4 that holds every
/// value up to `entries` (the silent marker) itself.
fn index_width(entries: usize) -> usize {
    match entries {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        _ => 4,
    }
}

/// The router's half of the round frame: one round's broadcasts, each
/// encoded once, plus the writer of a destination's frame around them.
#[derive(Debug)]
pub(crate) struct RoundTable {
    /// The table so far: every distinct encoding, length-prefixed, back
    /// to back — the bytes that go on the wire.
    entries: Vec<u8>,
    /// Where each entry's message bytes lie in `entries`.
    spans: Vec<Range<usize>>,
    /// Per sender, its entry; `None` while it has not broadcast.
    index: Vec<Option<usize>>,
    /// The last entry with each hash of its bytes ([`entry_hash`]), and
    /// per entry the one before it with the same hash, if any: an
    /// expected O(1) lookup of an encoding among the round's entries.
    by_hash: HashMap<u64, usize>,
    same_hash: Vec<Option<usize>>,
    /// The entry the last broadcast shared or added: checked before any
    /// hashing, so a round of one message is one compare a sender.
    last: usize,
    /// The `shared` section as sent; built by the round's first frame,
    /// empty until then.
    shared: Vec<u8>,
    /// The frame last written: one buffer for the session's life.
    frame: Vec<u8>,
}

impl RoundTable {
    pub(crate) fn new(n: usize) -> Self {
        RoundTable {
            entries: Vec::new(),
            spans: Vec::new(),
            index: vec![None; n],
            by_hash: HashMap::new(),
            same_hash: Vec::new(),
            last: 0,
            shared: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// Forgets the previous round.
    pub(crate) fn begin_round(&mut self) {
        self.entries.clear();
        self.spans.clear();
        self.index.fill(None);
        self.by_hash.clear();
        self.same_hash.clear();
        self.shared.clear();
    }

    /// Records that `p` broadcasts `msg` this round, sharing the entry of
    /// an earlier sender whose message encoded to the same bytes. The
    /// entry the previous broadcast used is tried first — in the steady
    /// state that dominates a run the table has one entry — and then the
    /// entries with the same hash. Entries stay in first-seen order.
    pub(crate) fn broadcast<M: Wire>(&mut self, p: ProcessId, msg: &M) {
        let start = self.entries.len();
        put_section(&mut self.entries, |out| msg.encode_bin(out));
        let new = start + 4..self.entries.len();
        let same = |old: &Range<usize>| self.entries[old.clone()] == self.entries[new.clone()];
        let known = match self.spans.get(self.last) {
            Some(old) if same(old) => Some(self.last),
            _ => {
                let hash = entry_hash(&self.entries[new.clone()]);
                let mut candidate = self.by_hash.get(&hash).copied();
                while let Some(at) = candidate.filter(|&at| !same(&self.spans[at])) {
                    candidate = self.same_hash[at];
                }
                if candidate.is_none() {
                    self.same_hash
                        .push(self.by_hash.insert(hash, self.spans.len()));
                }
                candidate
            }
        };
        self.last = known.unwrap_or(self.spans.len());
        self.index[p.index()] = Some(self.last);
        match known {
            Some(_) => self.entries.truncate(start),
            None => self.spans.push(new),
        }
        self.shared.clear();
    }

    /// Number of distinct encodings broadcast this round.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.spans.len()
    }

    /// Builds `shared`, the section every destination's frame of this
    /// round carries, unless this round already has.
    fn seal(&mut self) {
        if !self.shared.is_empty() {
            return;
        }
        let entries = self.spans.len();
        let out = &mut self.shared;
        put_u32(self.index.len(), out);
        put_u32(entries, out);
        out.extend_from_slice(&self.entries);
        let width = index_width(entries);
        for cell in &self.index {
            // No cell exceeds `entries`, which `put_u32` just vouched for.
            let cell = cell.unwrap_or(entries) as u32;
            out.extend_from_slice(&cell.to_le_bytes()[..width]);
        }
    }

    /// Writes one destination's round frame (over the previous one): the
    /// shared section, then what is the destination's own — the
    /// delivered row of `inbox`, its forged copies, and its late
    /// arrivals ([`Deliveries::late`]) in hold order.
    pub(crate) fn frame<M: Wire>(&mut self, inbox: Deliveries<'_, M>) -> &[u8] {
        let heard = inbox.heard_words();
        debug_assert_eq!(heard.len(), self.index.len().div_ceil(64));
        self.seal();
        let out = &mut self.frame;
        out.clear();
        out.push(ROUND_FRAME_TAG);
        out.extend_from_slice(&self.shared);
        for word in heard {
            out.extend_from_slice(&word.to_le_bytes());
        }
        put_copies(inbox.forged().map(|(from, m)| (from, &**m)), out);
        put_copies(inbox.late().map(|(from, m)| (from, &**m)), out);
        out
    }
}

/// A hash of an entry's bytes, eight at a time.
fn entry_hash(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(bytes.len() as u64, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (h ^ u64::from_le_bytes(word))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31)
    })
}

/// `count:u32 (sender:u32 len:u32 message) × count`.
fn put_copies<'m, M: Wire + 'm>(
    copies: impl Iterator<Item = (ProcessId, &'m M)>,
    out: &mut Vec<u8>,
) {
    let count_at = out.len();
    put_u32(0, out);
    let mut count = 0;
    for (from, msg) in copies {
        put_u32(from.index(), out);
        put_section(out, |out| msg.encode_bin(out));
        count += 1;
    }
    patch_u32(out, count_at, count);
}

/// A node's decoded round frame: the table its inbox views, and the
/// messages decoded in earlier rounds, kept so that a warm round decodes
/// into them ([`Wire::decode_bin_into`]) rather than allocating anew.
#[derive(Debug)]
pub(crate) struct NodeFrame<M> {
    table: InboxTable<M>,
    spare: Vec<M>,
}

impl<M> Default for NodeFrame<M> {
    fn default() -> Self {
        NodeFrame {
            table: InboxTable::default(),
            spare: Vec::new(),
        }
    }
}

/// One length-prefixed message, which must fill its section exactly,
/// decoded into a spare one if there is one.
fn take_msg<M: Wire>(r: &mut Reader<'_>, spare: &mut Vec<M>) -> Result<M, String> {
    match spare.pop() {
        Some(mut m) => take_section(r, |r| m.decode_bin_into(r)).map(|()| m),
        None => take_section(r, M::decode_bin),
    }
}

/// The inverse of [`put_copies`] into `copies`, every sender checked
/// against `n`.
fn take_copies<M: Wire>(
    r: &mut Reader<'_>,
    n: usize,
    copies: &mut Vec<(ProcessId, M)>,
    spare: &mut Vec<M>,
) -> Result<(), String> {
    let count = r.count(8)?;
    copies.reserve(count);
    for _ in 0..count {
        let from = r.u32()?;
        if from >= n {
            return Err(format!("round frame: copy from p{from} but n = {n}"));
        }
        copies.push((ProcessId(from), take_msg(r, spare)?));
    }
    Ok(())
}

/// The node's half of the round frame: decodes `frame` into `decoded` —
/// storage the node keeps across rounds, each distinct entry decoded
/// once — and returns the inbox the node steps on, a view of its table
/// ([`Inbox::from_table`]): heard senders ascending, each with its table
/// entry or the forged copy that overrides it, and the late copies
/// merged by sender. Exactly what [`ToNode::Inbox`] would have listed,
/// in inbox order.
///
/// # Errors
///
/// Any malformed frame — wire bytes are untrusted, and a broken router
/// must trip the node rather than feed it a guess: truncation, a count
/// the remaining bytes cannot hold, a system size other than the node's
/// `n`, a sender or heard bit `>= n`, an index past the table, a heard
/// sender with no entry, a forged copy from an unheard sender (or out of
/// order), trailing bytes.
pub(crate) fn decode_round_frame<'t, M: Wire>(
    frame: &[u8],
    n: usize,
    decoded: &'t mut NodeFrame<M>,
) -> Result<Inbox<'t, M>, String> {
    let NodeFrame { table, spare } = decoded;
    spare.append(&mut table.entries);
    spare.extend(
        table
            .forged
            .drain(..)
            .chain(table.late.drain(..))
            .map(|(_, m)| m),
    );
    let mut r = Reader::new(frame);
    if r.u8()? != ROUND_FRAME_TAG {
        return Err("not a round frame".into());
    }
    let announced = r.u32()?;
    if announced != n {
        return Err(format!("round frame: for {announced} processes, not {n}"));
    }
    let entries = r.count(4)?;
    for _ in 0..entries {
        table.entries.push(take_msg(&mut r, spare)?);
    }
    let width = index_width(entries);
    let cells = r.take(n.saturating_mul(width))?.chunks_exact(width);
    table.cells.clear();
    table.cells.extend(cells.map(|cell| {
        let mut le = [0u8; 4];
        le[..width].copy_from_slice(cell);
        u32::from_le_bytes(le)
    }));
    let silent = entries as u32;
    if let Some(s) = table.cells.iter().position(|&cell| cell > silent) {
        return Err(format!(
            "round frame: p{s} indexes entry {} of {entries}",
            table.cells[s]
        ));
    }
    let heard = r.take(n.div_ceil(64) * 8)?.chunks_exact(8);
    table.heard.clear();
    table
        .heard
        .extend(heard.map(|word| u64::from_le_bytes(word.try_into().expect("chunks of 8"))));
    take_copies(&mut r, n, &mut table.forged, spare)?;
    take_copies(&mut r, n, &mut table.late, spare)?;
    r.finish()?;

    let mut forged = table.forged.iter().peekable();
    for (k, &word) in table.heard.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let s = k * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if s >= n {
                return Err(format!("round frame: heard bit p{s} but n = {n}"));
            }
            if forged.next_if(|(from, _)| from.index() == s).is_none() && table.cells[s] == silent {
                return Err(format!("round frame: heard silent p{s}"));
            }
        }
    }
    if let Some((from, _)) = forged.next() {
        return Err(format!(
            "round frame: forged copy from {from} is unheard or out of order"
        ));
    }
    Ok(Inbox::from_table(&decoded.table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss::compiler::CompiledMsg;
    use ftss::core::{Corrupt, Payload, RoundCounter, RoundHistory};
    use ftss::protocols::floodset::ValueSet;
    use ftss::protocols::{RoundAgreement, RoundAgreementState};
    use ftss::sync_sim::{NoFaults, RunConfig, SyncRunner};
    use ftss_rng::check::{forall, Gen};
    use ftss_rng::Rng;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    type NodeMsg = ToRouter<RoundAgreementState, u64>;
    type RouterMsg = ToNode<RoundAgreementState, u64>;

    fn st(c: u64) -> RoundAgreementState {
        RoundAgreementState {
            c: RoundCounter::new(c),
        }
    }

    #[test]
    fn control_messages_round_trip() {
        for msg in [
            NodeMsg::Hello { p: 3, epoch: 0 },
            NodeMsg::Hello { p: 1, epoch: 2 },
            NodeMsg::Bcast {
                round: 7,
                state: st(9),
                msg: Some(9),
            },
            NodeMsg::Bcast {
                round: 1,
                state: st(0),
                msg: None,
            },
        ] {
            assert_eq!(NodeMsg::from_bytes(&msg.to_bytes()).expect("decodes"), msg);
        }
        for msg in [
            RouterMsg::Corrupt { state: st(4) },
            RouterMsg::Inbox {
                msgs: vec![(0, 5), (2, 8)],
            },
            RouterMsg::Inbox { msgs: vec![] },
            RouterMsg::Halt,
        ] {
            assert_eq!(
                RouterMsg::from_bytes(&msg.to_bytes()).expect("decodes"),
                msg
            );
        }
    }

    #[test]
    fn epoch_zero_hello_keeps_the_original_wire_bytes() {
        // Incarnation 0 must encode exactly as the pre-restart protocol
        // did, so non-restart sessions stay byte-identical on the wire.
        let msg = NodeMsg::Hello { p: 3, epoch: 0 };
        assert_eq!(msg.to_bytes(), b"{\"type\":\"hello\",\"p\":3}");
        let msg = NodeMsg::Hello { p: 1, epoch: 2 };
        assert_eq!(msg.to_bytes(), b"{\"type\":\"hello\",\"p\":1,\"epoch\":2}");
    }

    #[test]
    fn decoding_rejects_garbage_without_panicking() {
        for bad in [
            &b"\xff\xfe"[..],
            b"not json",
            b"{\"type\":\"warp\"}",
            b"{\"type\":\"bcast\"}",
            b"{\"type\":\"inbox\",\"msgs\":[{\"from\":0}]}",
            b"{\"type\":\"corrupt\",\"state\":[]}",
        ] {
            assert!(NodeMsg::from_bytes(bad).is_err());
            assert!(RouterMsg::from_bytes(bad).is_err());
        }
    }

    /// The `bcast` frame written out by hand, and what a decoder must
    /// refuse in it. The JSON `bcast` of the past is no longer a frame.
    #[test]
    fn hand_written_bcast_frame_decodes() {
        let le = |x: u64| x.to_le_bytes().to_vec();
        let section = |x: u64| [8u32.to_le_bytes().to_vec(), le(x)].concat();
        let frame = [
            vec![BCAST_FRAME_TAG],
            le(7),
            section(9),
            vec![1],
            section(9),
        ]
        .concat();
        let want = NodeMsg::Bcast {
            round: 7,
            state: st(9),
            msg: Some(9),
        };
        assert_eq!(want.to_bytes(), frame);
        assert_eq!(NodeMsg::from_bytes(&frame), Ok(want));
        let silent = [vec![BCAST_FRAME_TAG], le(1), section(0), vec![0]].concat();
        assert_eq!(
            NodeMsg::from_bytes(&silent),
            Ok(NodeMsg::Bcast {
                round: 1,
                state: st(0),
                msg: None
            })
        );

        let err = |bytes: &[u8]| NodeMsg::from_bytes(bytes).expect_err("malformed bcast");
        let tag2 = [vec![BCAST_FRAME_TAG], le(1), section(0), vec![2]].concat();
        assert!(err(&tag2).contains("option tag 2"));
        let tail = [&silent[..], &[0]].concat();
        assert!(err(&tail).contains("1 trailing byte"));
        let fat = [
            vec![BCAST_FRAME_TAG],
            le(1),
            9u32.to_le_bytes().to_vec(),
            le(0),
            vec![0, 0],
        ];
        assert!(err(&fat.concat()).contains("1 trailing byte"));
        let json = b"{\"type\":\"bcast\",\"round\":1,\"state\":3,\"msg\":3}";
        assert!(err(json).contains("unknown node message type"));
    }

    /// `(state, msg)` of every live process in every round of a corrupted
    /// run, as the `bcast` frames its nodes would send.
    fn bcast_corpus<P>(protocol: P, n: usize, seed: u64) -> Vec<Vec<u8>>
    where
        P: ftss::sync_sim::SyncProtocol,
        P::State: Wire + Corrupt,
        P::Msg: Wire,
    {
        let run = SyncRunner::new(protocol)
            .run(&mut NoFaults, &RunConfig::corrupted(n, 3, seed))
            .expect("clean run");
        let mut frames = Vec::new();
        for (r, frame) in run.history.rounds().iter().enumerate() {
            for p in (0..n).map(ProcessId) {
                let record = frame.record(p);
                let state = record.state_at_start().expect("nobody crashes");
                let msg = record.broadcast_payload().map(|m| &**m);
                let mut out = Vec::new();
                ToRouter::<P::State, P::Msg>::encode_bcast(r as u64 + 1, state, msg, &mut out);
                frames.push(out);
            }
        }
        frames
    }

    /// Totality: every strict prefix of a `bcast` frame is an `Err`, and
    /// every single-bit flip is an `Err` or some other value — never a
    /// panic. An intact frame decodes and re-encodes to its own bytes.
    fn damaged_bcasts_never_panic<S: Wire, M: Wire>(corpus: &[Vec<u8>]) {
        for frame in corpus {
            let decoded = ToRouter::<S, M>::from_bytes(frame).expect("intact frame decodes");
            assert_eq!(&decoded.to_bytes(), frame);
            for cut in 0..frame.len() {
                assert!(ToRouter::<S, M>::from_bytes(&frame[..cut]).is_err());
            }
            let mut damaged = frame.clone();
            for at in 0..frame.len() {
                for bit in 0..8 {
                    damaged[at] ^= 1 << bit;
                    let _ = ToRouter::<S, M>::from_bytes(&damaged);
                    damaged[at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn damaged_bcast_frames_never_panic() {
        use ftss::compiler::{Compiled, CompiledState};
        use ftss::protocols::floodset::{FloodSet, FloodSetState};
        let inputs = (0..16).map(|i| (i * 7 + 3) % 50).collect();
        let corpus = bcast_corpus(Compiled::new(FloodSet::new(1, inputs)), 16, 5);
        assert!(corpus.iter().any(|f| f.len() > 100), "suspects are listed");
        type Cs = CompiledState<FloodSetState, u64>;
        damaged_bcasts_never_panic::<Cs, CompiledMsg<ValueSet>>(&corpus);
        let corpus = bcast_corpus(RoundAgreement, 64, 7);
        damaged_bcasts_never_panic::<RoundAgreementState, u64>(&corpus);
    }

    /// A suspect set claiming a universe of 2³² − 1 is refused before the
    /// set allocates a word per 64 processes of it.
    #[test]
    fn bcast_with_a_huge_suspect_universe_is_refused() {
        use ftss::compiler::CompiledState;
        let state = [
            &9u64.to_le_bytes()[..], // inner: a round counter
            &2u64.to_le_bytes(),     // c
            &u32::MAX.to_le_bytes(), // suspects: universe
            &0u32.to_le_bytes(),     //   no members
            &[0],                    // no decision
        ]
        .concat();
        let mut frame = vec![BCAST_FRAME_TAG];
        frame.extend(3u64.to_le_bytes());
        put_section(&mut frame, |out| out.extend(&state));
        frame.push(0);
        type Cs = CompiledState<RoundAgreementState, u64>;
        let err = ToRouter::<Cs, u64>::from_bytes(&frame).expect_err("huge universe");
        assert!(
            err.contains("universe 4294967295 is larger than any frame"),
            "{err}"
        );
    }

    /// Half small and plausible, half anywhere in `u64` — the counters
    /// a corrupted round agreement broadcasts.
    fn arbitrary_u64(g: &mut Gen) -> u64 {
        let mut c = RoundCounter::new(0);
        c.corrupt(g);
        c.get()
    }

    fn arbitrary_set(g: &mut Gen) -> ValueSet {
        let mut set = BTreeSet::from([1, 2, 3]);
        set.corrupt(g);
        ValueSet::from_iter(set)
    }

    fn arbitrary_compiled(g: &mut Gen) -> CompiledMsg<ValueSet> {
        CompiledMsg {
            state_msg: Payload::new(arbitrary_set(g)),
            round: arbitrary_u64(g),
        }
    }

    /// One random round as the kernel records it and the router sends
    /// it to one destination: `(n, destination, recorded frame, round
    /// frame)`. The shapes: nobody heard, every payload equal, every
    /// payload drawn afresh, and a mix from a small pool with silent
    /// senders; forged overrides; late arrivals for the destination and
    /// others from a few senders, so often one the destination also
    /// hears fresh, or twice.
    fn random_frame<M: Wire + Clone>(
        g: &mut Gen,
        msg: fn(&mut Gen) -> M,
    ) -> (usize, ProcessId, RoundHistory<u64, M>, Vec<u8>) {
        let n = g.gen_range(1..=70usize);
        let dst = ProcessId(g.gen_range(0..n));
        let shape = g.gen_range(0..4u32);
        let pool = [msg(g), msg(g), msg(g)];
        let mut history = RoundHistory::<u64, M>::empty(n);
        let mut table = RoundTable::new(n);
        for p in (0..n).map(ProcessId) {
            if shape == 3 && g.gen_bool(0.3) {
                continue; // silent
            }
            let m = match shape {
                1 => pool[0].clone(),
                2 => msg(g),
                _ => pool[g.gen_range(0..pool.len())].clone(),
            };
            table.broadcast(p, &m);
            history.set_broadcast(p, Payload::new(m));
            if shape == 0 || g.gen_bool(0.3) {
                continue; // unheard
            }
            if g.gen_bool(0.15) {
                history.record_forged(p, dst, Payload::new(msg(g)));
            } else {
                history.record_delivery(dst, p);
            }
        }
        let late_senders = [g.gen_range(0..n), g.gen_range(0..n), g.gen_range(0..n)];
        for _ in 0..g.gen_range(0..6usize) {
            let src = ProcessId(late_senders[g.gen_range(0..3usize)]);
            let to = if g.gen_bool(0.7) {
                dst
            } else {
                ProcessId(g.gen_range(0..n))
            };
            history.record_late(src, to, Payload::new(msg(g)));
        }
        let frame = table.frame(history.msgs().deliveries(dst)).to_vec();
        (n, dst, history, frame)
    }

    /// One destination's view of one random round ([`random_frame`]), in
    /// both wire forms: `(n, round frame, JSON inbox)`.
    fn random_round<M: Wire + Clone>(
        g: &mut Gen,
        msg: fn(&mut Gen) -> M,
    ) -> (usize, Vec<u8>, Vec<u8>) {
        let (n, dst, history, frame) = random_frame(g, msg);
        let inbox = history.msgs().deliveries(dst);
        let msgs = inbox.iter().chain(inbox.late());
        let json = ToNode::<u64, M>::Inbox {
            msgs: msgs.map(|(src, m)| (src.index(), (**m).clone())).collect(),
        };
        (n, frame, json.to_bytes())
    }

    /// A node steps on what the simulator steps on: for any round with
    /// forged and late arrivals, the inbox a node views in its decoded
    /// round frame iterates, counts and answers `from` exactly as the
    /// view of the recorded frame — over counters and over compiled
    /// FloodSet messages, with one table reused across the rounds.
    #[test]
    fn node_inbox_is_the_recorded_frames_inbox() {
        fn check<M: Wire + Clone + PartialEq + Debug>(msg: fn(&mut Gen) -> M) {
            let table = std::cell::RefCell::new(NodeFrame::default());
            forall(300, |g: &mut Gen| {
                let (n, dst, history, frame) = random_frame(g, msg);
                let mut table = table.borrow_mut();
                let node = decode_round_frame::<M>(&frame, n, &mut table).expect("decodes");
                let sim = Inbox::from_deliveries(history.msgs().deliveries(dst));
                assert_eq!(
                    node.iter().collect::<Vec<_>>(),
                    sim.iter().collect::<Vec<_>>()
                );
                assert_eq!(node.len(), sim.len());
                for p in (0..n).map(ProcessId) {
                    assert_eq!(node.from(p), sim.from(p), "{p}");
                }
            });
        }
        check(arbitrary_u64);
        check(arbitrary_compiled);
    }

    fn spelled_out<M: Wire + Clone>(frame: &[u8], n: usize) -> Result<Vec<(usize, M)>, String> {
        let mut decoded = NodeFrame::default();
        let inbox = decode_round_frame::<M>(frame, n, &mut decoded)?;
        Ok(inbox.iter().map(|(s, m)| (s.index(), m.clone())).collect())
    }

    fn frame_says_what_json_says<M>(msg: fn(&mut Gen) -> M)
    where
        M: Wire + Clone + PartialEq + Debug,
    {
        forall(200, |g: &mut Gen| {
            let (n, frame, json) = random_round(g, msg);
            let ToNode::Inbox { msgs: mut want } =
                ToNode::<u64, M>::from_bytes(&json).expect("JSON inbox decodes")
            else {
                panic!("JSON inbox decoded to another shape");
            };
            // Inbox order: stably by sender, so a sender's fresh copy
            // precedes its late ones, which keep their hold order.
            want.sort_by_key(|&(s, _)| s);
            assert_eq!(
                spelled_out::<M>(&frame, n).expect("round frame decodes"),
                want
            );
        });
    }

    /// The bijection: for any round, the round frame decodes to exactly
    /// the `(sender, message)` sequence the JSON inbox carried, in inbox
    /// order.
    #[test]
    fn round_frame_decodes_to_the_json_inbox_sequence() {
        frame_says_what_json_says(arbitrary_u64);
        frame_says_what_json_says(arbitrary_set);
        frame_says_what_json_says(arbitrary_compiled);
    }

    /// Totality: damaged frames are an `Err` or some other value, never
    /// a panic — and a strict prefix is always an `Err`.
    #[test]
    fn damaged_round_frames_never_panic() {
        forall(40, |g: &mut Gen| {
            let (n, frame, _) = random_round(g, arbitrary_compiled);
            type M = CompiledMsg<ValueSet>;
            let mut table = NodeFrame::default();
            for cut in 0..frame.len() {
                assert!(decode_round_frame::<M>(&frame[..cut], n, &mut table).is_err());
            }
            // An accepted frame's view is read through, as a node would.
            let mut read = |bytes: &[u8]| {
                if let Ok(inbox) = decode_round_frame::<M>(bytes, n, &mut table) {
                    let firsts = (0..n).filter(|&p| inbox.from(ProcessId(p)).is_some());
                    assert!(inbox.iter().count() == inbox.len() && firsts.count() <= n);
                }
            };
            let mut damaged = frame.clone();
            for at in 0..frame.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    damaged[at] ^= mask;
                    read(&damaged);
                    damaged[at] ^= mask;
                }
            }
            let mut noise: Vec<u8> = g.vec(0, 64, |g| g.gen());
            read(&noise);
            noise.insert(0, ROUND_FRAME_TAG);
            read(&noise);
        });
    }

    /// A round frame over `u64` written out by hand, field by field —
    /// independent of [`RoundTable`], so the layout itself is pinned.
    #[derive(Clone)]
    struct ByHand {
        n: u32,
        entries: u32,
        table: Vec<u64>,
        index: Vec<u8>,
        heard: Vec<u64>,
        forged: Vec<(u32, u64)>,
        late: Vec<(u32, u64)>,
        tail: Vec<u8>,
    }

    impl ByHand {
        /// n = 4: p0 and p2 sent 7, p1 sent 9, p3 is silent; the
        /// destination hears p0, p1 (forged to 5) and p2, and a late 8
        /// from p2.
        fn valid() -> Self {
            ByHand {
                n: 4,
                entries: 2,
                table: vec![7, 9],
                index: vec![0, 1, 0, 2],
                heard: vec![0b0111],
                forged: vec![(1, 5)],
                late: vec![(2, 8)],
                tail: vec![],
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut out = vec![ROUND_FRAME_TAG];
            out.extend(self.n.to_le_bytes());
            out.extend(self.entries.to_le_bytes());
            for m in &self.table {
                out.extend(8u32.to_le_bytes());
                out.extend(m.to_le_bytes());
            }
            out.extend(&self.index);
            for w in &self.heard {
                out.extend(w.to_le_bytes());
            }
            for copies in [&self.forged, &self.late] {
                out.extend((copies.len() as u32).to_le_bytes());
                for (from, m) in copies {
                    out.extend(from.to_le_bytes());
                    out.extend(8u32.to_le_bytes());
                    out.extend(m.to_le_bytes());
                }
            }
            out.extend(&self.tail);
            out
        }

        fn err(&self) -> String {
            spelled_out::<u64>(&self.bytes(), 4).expect_err("a broken router must trip")
        }
    }

    #[test]
    fn hand_written_round_frame_decodes() {
        let msgs = spelled_out::<u64>(&ByHand::valid().bytes(), 4).expect("decodes");
        assert_eq!(msgs, vec![(0, 7), (1, 5), (2, 7), (2, 8)]);
    }

    #[test]
    fn broken_router_trips_the_decoder() {
        let ok = ByHand::valid();
        let broken = |edit: fn(&mut ByHand)| {
            let mut frame = ok.clone();
            edit(&mut frame);
            frame.err()
        };
        // A heard bit whose sender has no table entry.
        assert!(broken(|f| f.heard[0] |= 0b1000).contains("heard silent p3"));
        // An entry index past the table — heard or not.
        assert!(broken(|f| f.index[3] = 3).contains("p3 indexes entry 3 of 2"));
        // Senders and heard bits at or past n.
        assert!(broken(|f| f.late[0].0 = 4).contains("copy from p4"));
        assert!(broken(|f| f.forged[0].0 = 9).contains("copy from p9"));
        assert!(broken(|f| f.heard[0] |= 1 << 4).contains("heard bit p4"));
        // Trailing bytes, after the frame and inside a message section.
        assert!(broken(|f| f.tail.push(0)).contains("1 trailing byte"));
        let mut fat = ok.bytes();
        fat[9] = 9; // first entry announces 9 bytes for a u64
        fat.insert(18, 0);
        let err = spelled_out::<u64>(&fat, 4).expect_err("fat entry");
        assert!(err.contains("1 trailing byte"), "{err}");
        // A forged copy nobody hears, and forged copies out of order.
        assert!(broken(|f| f.heard[0] = 0b0101).contains("forged copy from p1"));
        assert!(broken(|f| f.forged = vec![(2, 5), (1, 5)]).contains("forged copy from p1"));
        // A frame for a system of another size.
        assert!(broken(|f| f.n = 5).contains("for 5 processes, not 4"));
        // Counts are checked against the bytes remaining before anything
        // is allocated for them.
        let greedy = broken(|f| f.entries = u32::MAX);
        assert!(greedy.contains("exceeds the bytes remaining"), "{greedy}");
        let mut greedy = ok.clone();
        greedy.late.clear();
        let mut bytes = greedy.bytes();
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = spelled_out::<u64>(&bytes, 4).expect_err("late count");
        assert!(err.contains("exceeds the bytes remaining"), "{err}");
    }

    /// The round table's entries and index as a scan of every earlier
    /// entry finds them: the dedup the table's hash lookup replaced.
    fn table_by_scan<M: Wire>(msgs: &[M]) -> (Vec<u8>, Vec<Option<usize>>) {
        let (mut entries, mut spans, mut index) = (Vec::new(), Vec::<Range<usize>>::new(), vec![]);
        for msg in msgs {
            let start = entries.len();
            put_section(&mut entries, |out| msg.encode_bin(out));
            let new = start + 4..entries.len();
            let known = spans
                .iter()
                .position(|old| entries[old.clone()] == entries[new.clone()]);
            index.push(Some(known.unwrap_or(spans.len())));
            match known {
                Some(_) => entries.truncate(start),
                None => spans.push(new),
            }
        }
        (entries, index)
    }

    /// At n = 1024 — all distinct, all equal, and a mix that repeats
    /// some messages far apart — the hashed table holds what the scan
    /// held, in the same first-seen order, so the frames are the same
    /// bytes.
    #[test]
    fn hashed_table_dedup_matches_the_scan() {
        const N: usize = 1024;
        let distinct: Vec<u64> = (0..N as u64).map(|i| i * 0x9E37_79B9).collect();
        let equal = vec![7u64; N];
        let mixed: Vec<u64> = (0..N as u64)
            .map(|i| (i * i) % 97 + (i % 5) * 1000)
            .collect();
        let mut table = RoundTable::new(N);
        for msgs in [&distinct, &equal, &mixed, &distinct] {
            table.begin_round();
            for (p, m) in msgs.iter().enumerate() {
                table.broadcast(ProcessId(p), m);
            }
            let (entries, index) = table_by_scan(msgs);
            assert_eq!(table.entries, entries);
            assert_eq!(table.index, index);
        }
        let compiled: Vec<CompiledMsg<ValueSet>> = (0..N as u64)
            .map(|i| CompiledMsg {
                state_msg: Payload::new(ValueSet::from_iter([i % 31, i % 7])),
                round: i % 3,
            })
            .collect();
        table.begin_round();
        for (p, m) in compiled.iter().enumerate() {
            table.broadcast(ProcessId(p), m);
        }
        let (entries, index) = table_by_scan(&compiled);
        assert_eq!((table.entries, table.index), (entries, index));
    }

    /// Sharing: once round agreement has converged every process
    /// broadcasts the same counter, so the table has one entry, a frame
    /// at n = 64 is about a hundred bytes, and what differs between two
    /// destinations' frames is only what follows the shared section.
    #[test]
    fn steady_state_round_shares_one_table_entry() {
        const N: usize = 64;
        let run = SyncRunner::new(RoundAgreement)
            .run(&mut NoFaults, &RunConfig::corrupted(N, 4, 7))
            .expect("clean run");
        let round = run.history.rounds().last().expect("four rounds");
        let mut table = RoundTable::new(N);
        for p in (0..N).map(ProcessId) {
            let msg = round.msgs().broadcast_of(p).expect("everyone sends");
            table.broadcast(p, &**msg);
        }
        assert_eq!(table.entries(), 1);
        let frames: Vec<Vec<u8>> = (0..N)
            .map(|p| {
                let inbox = round.msgs().deliveries(ProcessId(p));
                table.frame(inbox).to_vec()
            })
            .collect();
        let shared = 1 + table.shared.len();
        let mut decoded = NodeFrame::default();
        for frame in &frames {
            assert!(frame.len() < 128, "{} bytes", frame.len());
            assert_eq!(frame[..shared], frames[0][..shared]);
            let inbox = decode_round_frame::<u64>(frame, N, &mut decoded).expect("decodes");
            assert_eq!(inbox.len(), N);
        }

        // The round of a corruption is the other extreme: an entry per
        // process, give or take two counters that collide.
        table.begin_round();
        let first = run.history.rounds().first().expect("four rounds");
        for p in (0..N).map(ProcessId) {
            let msg = first.msgs().broadcast_of(p).expect("everyone sends");
            table.broadcast(p, &**msg);
        }
        assert!(table.entries() > N / 2, "{} entries", table.entries());
    }
}
