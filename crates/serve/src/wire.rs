//! The wire codec: what crosses a [`Channel`](crate::Channel) as bytes.
//!
//! Two forms, one per plane. [`Wire`] is the **JSON** form — the
//! telemetry layer's hand-rolled JSON (`ftss_telemetry::json`), stable
//! field order, unsigned-integer-only numerics — used by the control
//! plane and the uplink (`hello`, `bcast`, `corrupt`, `halt`) and by the
//! restart snapshot, which *is* `Wire::encode`'s bytes: every state and
//! message type the runtime ships implements it (`u64`, `BTreeSet<u64>`,
//! [`RoundAgreementState`], [`FloodSetState`], [`CompiledState`],
//! [`CompiledMsg`]). [`WireMsg`] adds the compact **binary** form —
//! little-endian fixed-width integers, count-prefixed sets — that only
//! *messages* need: it is what the round frame ([`proto`](crate::proto))
//! carries.
//!
//! Decoding never trusts the network: every malformed shape is an
//! `Err(String)`, never a panic, and every count read off the wire is
//! checked against what the input could possibly hold *before* anything
//! is allocated for it — the binary [`Reader`] against the bytes
//! remaining, a JSON process set's universe against [`MAX_FRAME_LEN`].
//! There is no `unwrap` on wire input anywhere in this crate.

use ftss::compiler::{CompiledMsg, CompiledState};
use ftss::core::{Payload, ProcessId, ProcessSet, RoundCounter, MAX_FRAME_LEN};
use ftss::protocols::floodset::FloodSetState;
use ftss::protocols::RoundAgreementState;
use ftss::telemetry::JsonValue;
use std::collections::BTreeSet;

/// A type that can cross the wire as one JSON value.
///
/// `encode` must be the exact inverse of `decode`: the runtime's
/// determinism rests on states surviving a round trip bit-for-bit.
pub trait Wire: Sized {
    /// Appends this value as one JSON value.
    fn encode(&self, out: &mut String);

    /// Reads a value back from parsed JSON.
    ///
    /// # Errors
    ///
    /// Any shape mismatch — wire bytes are untrusted input.
    fn decode(v: &JsonValue) -> Result<Self, String>;
}

/// A message type: a [`Wire`] type that also has the round frame's
/// compact binary form. `decode_bin` must invert `encode_bin`, and
/// `encode_bin` must be canonical — equal messages, equal bytes — because
/// the round table shares entries by byte comparison.
pub trait WireMsg: Wire {
    /// Appends this message's binary form.
    fn encode_bin(&self, out: &mut Vec<u8>);

    /// Reads one message off the cursor.
    ///
    /// # Errors
    ///
    /// Truncated or malformed input — wire bytes are untrusted.
    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// A bounds-checked cursor over untrusted frame bytes: every read is an
/// `Err` past the end, never a panic.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// The next `len` bytes.
    ///
    /// # Errors
    ///
    /// Fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        if len > self.buf.len() {
            return Err(format!(
                "frame truncated: {len} byte(s) wanted, {} left",
                self.buf.len()
            ));
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// The input is exhausted.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`, widened.
    ///
    /// # Errors
    ///
    /// Fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<usize, String> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` count of items that each occupy at least `min_item_len`
    /// bytes — refused unless that many items could still follow, so the
    /// caller may allocate for the count it gets back.
    ///
    /// # Errors
    ///
    /// Truncated input, or a count the remaining bytes cannot hold.
    pub fn count(&mut self, min_item_len: usize) -> Result<usize, String> {
        let count = self.u32()?;
        if count.saturating_mul(min_item_len) > self.buf.len() {
            return Err(format!(
                "count {count} exceeds the bytes remaining ({} for items of {min_item_len}+)",
                self.buf.len()
            ));
        }
        Ok(count)
    }

    /// A `u32`-length-prefixed section, as a cursor of its own.
    ///
    /// # Errors
    ///
    /// Truncated input.
    pub fn section(&mut self) -> Result<Reader<'a>, String> {
        let len = self.u32()?;
        Ok(Reader::new(self.take(len)?))
    }

    /// Ends the read: whatever this cursor covered must be used up.
    ///
    /// # Errors
    ///
    /// Trailing bytes.
    pub fn finish(self) -> Result<(), String> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing byte(s)", self.buf.len()))
        }
    }
}

/// Appends `len` as the little-endian `u32` every count, length and
/// process index of the binary form is.
///
/// # Panics
///
/// If `len` does not fit — no frame of [`MAX_FRAME_LEN`] bytes holds such
/// a thing, so it is a local bug.
pub fn put_u32(len: usize, out: &mut Vec<u8>) {
    let len = u32::try_from(len).expect("binary wire lengths fit in 32 bits");
    out.extend_from_slice(&len.to_le_bytes());
}

/// Overwrites the `u32` at `out[at..at + 4]` — a count or length that was
/// only known after what it prefixes had been written.
///
/// # Panics
///
/// As [`put_u32`].
pub(crate) fn patch_u32(out: &mut [u8], at: usize, value: usize) {
    let value = u32::try_from(value).expect("binary wire lengths fit in 32 bits");
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Appends what `body` writes as one length-prefixed section, the
/// inverse of [`Reader::section`].
pub(crate) fn put_section(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(0, out);
    body(out);
    let len = out.len() - at - 4;
    patch_u32(out, at, len);
}

impl Wire for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "expected a number".into())
    }
}

impl WireMsg for u64 {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        r.u64()
    }
}

impl Wire for BTreeSet<u64> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&x.to_string());
        }
        out.push(']');
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        let arr = v.as_arr().ok_or("expected an array of numbers")?;
        arr.iter()
            .map(|x| x.as_u64().ok_or_else(|| "non-numeric set element".into()))
            .collect()
    }
}

/// A count, then the elements ascending.
impl WireMsg for BTreeSet<u64> {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        put_u32(self.len(), out);
        for x in self {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        (0..r.count(8)?).map(|_| r.u64()).collect()
    }
}

/// Figure 1's state is just the round counter; it crosses as a number.
impl Wire for RoundAgreementState {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.c.get().to_string());
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        Ok(RoundAgreementState {
            c: RoundCounter::new(
                v.as_u64()
                    .ok_or("round-agreement state: expected a number")?,
            ),
        })
    }
}

impl Wire for FloodSetState {
    fn encode(&self, out: &mut String) {
        out.push_str("{\"seen\":");
        self.seen.encode(out);
        out.push_str(",\"decided\":");
        match self.decided {
            Some(v) => out.push_str(&v.to_string()),
            None => out.push_str("null"),
        }
        out.push('}');
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        let seen = BTreeSet::decode(v.get("seen").ok_or("floodset state: missing `seen`")?)?;
        let decided = match v.get("decided") {
            Some(JsonValue::Null) | None => None,
            Some(d) => Some(d.as_u64().ok_or("floodset state: bad `decided`")?),
        };
        Ok(FloodSetState { seen, decided })
    }
}

fn encode_process_set(set: &ProcessSet, out: &mut String) {
    out.push_str("{\"n\":");
    out.push_str(&set.universe().to_string());
    out.push_str(",\"members\":[");
    for (i, p) in set.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&p.index().to_string());
    }
    out.push_str("]}");
}

fn decode_process_set(v: &JsonValue) -> Result<ProcessSet, String> {
    let n = v
        .get("n")
        .and_then(JsonValue::as_u64)
        .ok_or("process set: missing `n`")?;
    // The set allocates a word per 64 processes of its universe, listed
    // or not: bound it before allocating. No frame lists more members
    // than it has bytes.
    let n = usize::try_from(n)
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| format!("process set: universe {n} is larger than any frame"))?;
    let members = v
        .get("members")
        .and_then(JsonValue::as_arr)
        .ok_or("process set: missing `members`")?;
    let mut ids = Vec::with_capacity(members.len());
    for m in members {
        let i = m.as_u64().ok_or("process set: non-numeric member")? as usize;
        if i >= n {
            return Err(format!("process set: member {i} outside universe {n}"));
        }
        ids.push(ProcessId(i));
    }
    Ok(ProcessSet::from_iter_n(n, ids))
}

impl<S: Wire, V: Wire> Wire for CompiledState<S, V> {
    fn encode(&self, out: &mut String) {
        out.push_str("{\"inner\":");
        self.inner.encode(out);
        out.push_str(",\"c\":");
        out.push_str(&self.c.get().to_string());
        out.push_str(",\"suspects\":");
        encode_process_set(&self.suspects, out);
        out.push_str(",\"last_decision\":");
        match &self.last_decision {
            Some((tag, v)) => {
                out.push('[');
                out.push_str(&tag.to_string());
                out.push(',');
                v.encode(out);
                out.push(']');
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        let inner = S::decode(v.get("inner").ok_or("compiled state: missing `inner`")?)?;
        let c = RoundCounter::new(
            v.get("c")
                .and_then(JsonValue::as_u64)
                .ok_or("compiled state: missing `c`")?,
        );
        let suspects = decode_process_set(
            v.get("suspects")
                .ok_or("compiled state: missing `suspects`")?,
        )?;
        let last_decision = match v.get("last_decision") {
            Some(JsonValue::Null) | None => None,
            Some(JsonValue::Arr(pair)) if pair.len() == 2 => {
                let tag = pair[0].as_u64().ok_or("compiled state: bad decision tag")?;
                Some((tag, V::decode(&pair[1])?))
            }
            Some(_) => return Err("compiled state: bad `last_decision`".into()),
        };
        Ok(CompiledState {
            inner,
            c,
            suspects,
            last_decision,
        })
    }
}

impl<M: Wire> Wire for CompiledMsg<M> {
    fn encode(&self, out: &mut String) {
        out.push_str("{\"state_msg\":");
        self.state_msg.encode(out);
        out.push_str(",\"round\":");
        out.push_str(&self.round.to_string());
        out.push('}');
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        let state_msg = M::decode(
            v.get("state_msg")
                .ok_or("compiled msg: missing `state_msg`")?,
        )?;
        let round = v
            .get("round")
            .and_then(JsonValue::as_u64)
            .ok_or("compiled msg: missing `round`")?;
        Ok(CompiledMsg {
            state_msg: Payload::new(state_msg),
            round,
        })
    }
}

/// The round tag, then Π's payload.
impl<M: WireMsg> WireMsg for CompiledMsg<M> {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.round.to_le_bytes());
        self.state_msg.encode_bin(out);
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        let round = r.u64()?;
        Ok(CompiledMsg {
            state_msg: Payload::new(M::decode_bin(r)?),
            round,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss::core::Corrupt;
    use ftss::telemetry::parse_json;
    use ftss_rng::check::{forall, Gen};
    use ftss_rng::Rng;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(x: &T) {
        let mut s = String::new();
        x.encode(&mut s);
        let v = parse_json(&s).unwrap_or_else(|e| panic!("encoded `{s}` unparsable: {e}"));
        assert_eq!(&T::decode(&v).expect("decodes"), x, "via `{s}`");
    }

    #[test]
    fn concrete_states_round_trip() {
        round_trip(&7u64);
        round_trip(&BTreeSet::from([1u64, 5, 9]));
        round_trip(&RoundAgreementState {
            c: RoundCounter::new(42),
        });
        round_trip(&FloodSetState {
            seen: BTreeSet::from([3u64, 4]),
            decided: Some(3),
        });
        round_trip(&FloodSetState {
            seen: BTreeSet::new(),
            decided: None,
        });
        let cs: CompiledState<FloodSetState, u64> = CompiledState {
            inner: FloodSetState {
                seen: BTreeSet::from([8u64]),
                decided: None,
            },
            c: RoundCounter::new(3),
            suspects: ProcessSet::from_iter_n(5, [ProcessId(1), ProcessId(4)]),
            last_decision: Some((2, 8)),
        };
        round_trip(&cs);
        round_trip(&CompiledMsg {
            state_msg: Payload::new(BTreeSet::from([1u64, 2])),
            round: 9,
        });
    }

    /// Corrupted (arbitrary) states — the shapes the runtime actually
    /// ships right after a systemic failure — survive the round trip too.
    #[test]
    fn corrupted_states_round_trip() {
        forall(64, |g: &mut Gen| {
            let mut ra = RoundAgreementState {
                c: RoundCounter::new(1),
            };
            ra.corrupt(g);
            round_trip(&ra);
            let mut fs = FloodSetState {
                seen: BTreeSet::new(),
                decided: None,
            };
            fs.corrupt(g);
            let mut cs: CompiledState<FloodSetState, u64> = CompiledState {
                inner: fs,
                c: RoundCounter::new(g.gen()),
                suspects: ProcessSet::from_iter_n(
                    6,
                    (0..6).filter(|_| g.gen_bool(0.5)).map(ProcessId),
                ),
                last_decision: g.gen_bool(0.5).then(|| (g.gen(), g.gen())),
            };
            cs.corrupt(g);
            round_trip(&cs);
        });
    }

    /// Decoding arbitrary JSON shapes fails cleanly, never panics.
    #[test]
    fn decode_rejects_malformed_shapes() {
        for bad in [
            "null",
            "true",
            "\"x\"",
            "[1,\"a\"]",
            "{\"seen\":3,\"decided\":null}",
            "{\"inner\":{},\"c\":\"x\"}",
            "{\"n\":2,\"members\":[5]}",
            // A universe no frame could list: refused before the set
            // allocates a word per 64 processes of it (this one used to
            // abort the process).
            "{\"inner\":{\"seen\":[],\"decided\":null},\"c\":1,\
             \"suspects\":{\"n\":18446744073709551615,\"members\":[]}}",
        ] {
            let v = parse_json(bad).expect("valid JSON");
            assert!(FloodSetState::decode(&v).is_err() || bad == "null");
            assert!(CompiledState::<FloodSetState, u64>::decode(&v).is_err());
        }
    }

    fn round_trip_bin<T: WireMsg + PartialEq + std::fmt::Debug>(x: &T) {
        let mut bytes = Vec::new();
        x.encode_bin(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(&T::decode_bin(&mut r).expect("decodes"), x, "via {bytes:?}");
        r.finish().expect("decoding consumes what encoding wrote");
    }

    /// Messages — corrupted ones included — survive the binary form too.
    #[test]
    fn messages_round_trip_in_binary() {
        round_trip_bin(&u64::MAX);
        round_trip_bin(&BTreeSet::<u64>::new());
        let mut bytes = Vec::new();
        BTreeSet::from([2u64, 1]).encode_bin(&mut bytes);
        let (count, one, two) = (2u32.to_le_bytes(), 1u64.to_le_bytes(), 2u64.to_le_bytes());
        assert_eq!(bytes, [&count[..], &one, &two].concat());
        forall(64, |g: &mut Gen| {
            let mut set = BTreeSet::from([g.gen::<u64>()]);
            set.corrupt(g);
            round_trip_bin(&g.gen::<u64>());
            round_trip_bin(&set);
            round_trip_bin(&CompiledMsg {
                state_msg: Payload::new(set),
                round: g.gen(),
            });
        });
    }

    /// The reader refuses what the bytes cannot hold, before any of it
    /// is allocated, and reads nothing past the end.
    #[test]
    fn reader_bounds_every_read() {
        let bytes = [3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8];
        let mut r = Reader::new(&bytes);
        let err = r.count(8).expect_err("3 items of 8 in 8 bytes");
        assert!(err.contains("exceeds the bytes remaining"), "{err}");
        assert_eq!(Reader::new(&bytes).count(2), Ok(3));
        assert!(BTreeSet::<u64>::decode_bin(&mut Reader::new(&bytes)).is_err());
        let mut r = Reader::new(&bytes[..3]);
        assert!(r.u32().is_err() && r.u64().is_err());
        assert_eq!(r.take(3), Ok(&bytes[..3]));
        assert!(r.u8().is_err());
        let section = Reader::new(&bytes).section();
        assert_eq!(section.and_then(|mut s| s.take(3)), Ok(&bytes[4..7]));
        assert!(Reader::new(&bytes[..6]).section().is_err());
        assert!(Reader::new(&bytes).finish().is_err());
    }
}
