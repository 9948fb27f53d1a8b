//! The wire codec: what crosses a [`Channel`](crate::Channel) as bytes.
//!
//! One trait, two forms. Every state and message type the runtime ships
//! (`u64`, [`ValueSet`], [`RoundAgreementState`], [`FloodSetState`],
//! [`CompiledState`], [`CompiledMsg`]) implements [`Wire`] in both:
//!
//! * the compact **binary** form — little-endian fixed-width integers,
//!   count-prefixed ascending sets, `0 | 1 · value` options — which the
//!   two per-round frames carry: the node's `bcast` and the router's
//!   round frame ([`proto`](crate::proto));
//! * the **JSON** form — the telemetry layer's hand-rolled JSON
//!   (`ftss_telemetry::json`), stable field order, unsigned integers
//!   only — kept where the bytes are pinned or read by people: the
//!   `corrupt` frame, the restart snapshot (which *is* `Wire::encode`'s
//!   bytes) and the final-state digests.
//!
//! Decoding never trusts the network: every malformed shape is an
//! `Err(String)`, never a panic, and every count read off the wire is
//! checked against what the input could possibly hold *before* anything
//! is allocated for it — the binary [`Reader`] against the bytes
//! remaining, a process set's universe against [`MAX_FRAME_LEN`] in
//! either form. There is no `unwrap` on wire input anywhere in this crate.

use ftss::compiler::{CompiledMsg, CompiledState};
use ftss::core::{Payload, ProcessId, ProcessSet, RoundCounter, MAX_FRAME_LEN};
use ftss::protocols::floodset::{FloodSetState, ValueSet};
use ftss::protocols::RoundAgreementState;
use ftss::telemetry::JsonValue;

/// A type that can cross the wire, as one JSON value or in the compact
/// binary form.
///
/// Each decoder must be the exact inverse of its encoder: the runtime's
/// determinism rests on states surviving a round trip bit-for-bit. The
/// binary encoding must also be canonical — equal values, equal bytes —
/// because the round table shares entries by byte comparison and
/// `net_frame` narrates frame lengths.
pub trait Wire: Sized {
    /// Appends this value as one JSON value.
    fn encode(&self, out: &mut String);

    /// Reads a value back from parsed JSON.
    ///
    /// # Errors
    ///
    /// Any shape mismatch — wire bytes are untrusted input.
    fn decode(v: &JsonValue) -> Result<Self, String>;

    /// Appends this value's binary form.
    fn encode_bin(&self, out: &mut Vec<u8>);

    /// Reads one value off the cursor.
    ///
    /// # Errors
    ///
    /// Truncated or malformed input — wire bytes are untrusted.
    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String>;

    /// [`Wire::decode_bin`] over `self`, reusing what `self` allocated
    /// where the type can: a node decodes each round's messages into the
    /// previous round's. On an `Err`, `self` holds some value.
    ///
    /// # Errors
    ///
    /// As [`Wire::decode_bin`].
    fn decode_bin_into(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        *self = Self::decode_bin(r)?;
        Ok(())
    }
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

    /// An option: the tag `0` for `None`, or `1` and what `read` reads.
    ///
    /// # Errors
    ///
    /// The input is exhausted, the tag is any other byte, or `read`
    /// fails.
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            tag => Err(format!("option tag {tag} is neither 0 nor 1")),
        }
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

/// Reads one section that `decode` must use up exactly.
pub(crate) fn take_section<T>(
    r: &mut Reader<'_>,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut section = r.section()?;
    let value = decode(&mut section)?;
    section.finish()?;
    Ok(value)
}

/// `0`, or `1` and what `body` writes: the inverse of
/// [`Reader::option`].
pub(crate) fn put_option<T>(x: Option<&T>, out: &mut Vec<u8>, body: impl FnOnce(&T, &mut Vec<u8>)) {
    match x {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            body(x, out);
        }
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }

    fn decode(v: &JsonValue) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| "expected a number".into())
    }

    fn encode_bin(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        r.u64()
    }
}

/// JSON: an array. Binary: a count, then the values ascending. The JSON
/// decoder takes any order and repeats, as a set of the values, since
/// restart snapshots are JSON and a bit-flipped one must still decode as
/// it always has; the binary one refuses anything not strictly
/// ascending, which no encoder writes.
impl Wire for ValueSet {
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

    fn encode_bin(&self, out: &mut Vec<u8>) {
        put_u32(self.len(), out);
        for x in self.iter() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut set = ValueSet::new();
        set.decode_bin_into(r)?;
        Ok(set)
    }

    fn decode_bin_into(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        self.clear();
        for _ in 0..r.count(8)? {
            let x = r.u64()?;
            if !self.push_ascending(x) {
                return Err(format!("set element {x} is not above the one before it"));
            }
        }
        Ok(())
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

    fn encode_bin(&self, out: &mut Vec<u8>) {
        self.c.get().encode_bin(out);
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(RoundAgreementState {
            c: RoundCounter::new(r.u64()?),
        })
    }
}

/// Binary: `seen`, then `decided` as an option.
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
        let seen = ValueSet::decode(v.get("seen").ok_or("floodset state: missing `seen`")?)?;
        let decided = match v.get("decided") {
            Some(JsonValue::Null) | None => None,
            Some(d) => Some(d.as_u64().ok_or("floodset state: bad `decided`")?),
        };
        Ok(FloodSetState { seen, decided })
    }

    fn encode_bin(&self, out: &mut Vec<u8>) {
        self.seen.encode_bin(out);
        put_option(self.decided.as_ref(), out, u64::encode_bin);
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        let seen = ValueSet::decode_bin(r)?;
        let decided = r.option(Reader::u64)?;
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

/// The set allocates a word per 64 processes of its universe, listed or
/// not: bound it before allocating. No frame lists more members than it
/// has bytes.
fn check_universe(n: u64) -> Result<usize, String> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| format!("process set: universe {n} is larger than any frame"))
}

fn check_member(i: u64, n: usize) -> Result<ProcessId, String> {
    match usize::try_from(i) {
        Ok(i) if i < n => Ok(ProcessId(i)),
        _ => Err(format!("process set: member {i} outside universe {n}")),
    }
}

fn decode_process_set(v: &JsonValue) -> Result<ProcessSet, String> {
    let n = v
        .get("n")
        .and_then(JsonValue::as_u64)
        .ok_or("process set: missing `n`")?;
    let n = check_universe(n)?;
    let members = v
        .get("members")
        .and_then(JsonValue::as_arr)
        .ok_or("process set: missing `members`")?;
    let mut ids = Vec::with_capacity(members.len());
    for m in members {
        let i = m.as_u64().ok_or("process set: non-numeric member")?;
        ids.push(check_member(i, n)?);
    }
    Ok(ProcessSet::from_iter_n(n, ids))
}

/// `universe:u32 · count:u32 · member:u32 × count`, members ascending.
fn encode_process_set_bin(set: &ProcessSet, out: &mut Vec<u8>) {
    put_u32(set.universe(), out);
    put_u32(set.len(), out);
    for p in set {
        put_u32(p.index(), out);
    }
}

/// The inverse of [`encode_process_set_bin`]: the universe and every
/// member — inside it, and above the one before — are checked before the
/// set is allocated.
fn decode_process_set_bin(r: &mut Reader<'_>) -> Result<ProcessSet, String> {
    let n = check_universe(r.u32()? as u64)?;
    let count = r.count(4)?;
    let members = r.take(count * 4)?;
    let member = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("chunks of 4"));
    let mut floor = None;
    for c in members.chunks_exact(4) {
        let m = check_member(u64::from(member(c)), n)?.index();
        if floor.is_some_and(|f| m <= f) {
            return Err(format!(
                "process set: member {m} is not above the one before it"
            ));
        }
        floor = Some(m);
    }
    let ids = members
        .chunks_exact(4)
        .map(|c| ProcessId(member(c) as usize));
    Ok(ProcessSet::from_iter_n(n, ids))
}

/// Binary: `inner · c:u64 · suspects · (0 | 1 · tag:u64 · value)`.
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

    fn encode_bin(&self, out: &mut Vec<u8>) {
        self.inner.encode_bin(out);
        self.c.get().encode_bin(out);
        encode_process_set_bin(&self.suspects, out);
        put_option(self.last_decision.as_ref(), out, |(tag, v), out| {
            tag.encode_bin(out);
            v.encode_bin(out);
        });
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, String> {
        let inner = S::decode_bin(r)?;
        let c = RoundCounter::new(r.u64()?);
        let suspects = decode_process_set_bin(r)?;
        let last_decision = r.option(|r| Ok((r.u64()?, V::decode_bin(r)?)))?;
        Ok(CompiledState {
            inner,
            c,
            suspects,
            last_decision,
        })
    }
}

/// Binary: the round tag, then Π's payload.
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

    fn decode_bin_into(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        self.round = r.u64()?;
        match self.state_msg.get_mut() {
            Some(msg) => msg.decode_bin_into(r),
            None => {
                self.state_msg = Payload::new(M::decode_bin(r)?);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss::core::Corrupt;
    use ftss::telemetry::parse_json;
    use ftss_rng::check::{forall, Gen};
    use ftss_rng::Rng;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    fn round_trip<T: Wire + PartialEq + Debug>(x: &T) {
        let mut s = String::new();
        x.encode(&mut s);
        let v = parse_json(&s).unwrap_or_else(|e| panic!("encoded `{s}` unparsable: {e}"));
        assert_eq!(&T::decode(&v).expect("decodes"), x, "via `{s}`");
    }

    fn round_trip_bin<T: Wire + PartialEq + Debug>(x: &T) {
        let mut bytes = Vec::new();
        x.encode_bin(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(&T::decode_bin(&mut r).expect("decodes"), x, "via {bytes:?}");
        r.finish().expect("decoding consumes what encoding wrote");
    }

    /// Both forms of `x` decode back to `x`, hence to equal values.
    fn round_trip_both<T: Wire + PartialEq + Debug>(x: &T) {
        round_trip(x);
        round_trip_bin(x);
    }

    #[test]
    fn concrete_states_round_trip() {
        round_trip_both(&7u64);
        round_trip_both(&ValueSet::from_iter([1, 5, 9]));
        round_trip_both(&RoundAgreementState {
            c: RoundCounter::new(42),
        });
        round_trip_both(&FloodSetState {
            seen: ValueSet::from_iter([3, 4]),
            decided: Some(3),
        });
        round_trip_both(&FloodSetState {
            seen: ValueSet::new(),
            decided: None,
        });
        let cs: CompiledState<FloodSetState, u64> = CompiledState {
            inner: FloodSetState {
                seen: ValueSet::from_iter([8]),
                decided: None,
            },
            c: RoundCounter::new(3),
            suspects: ProcessSet::from_iter_n(5, [ProcessId(1), ProcessId(4)]),
            last_decision: Some((2, 8)),
        };
        round_trip_both(&cs);
        round_trip_both(&CompiledMsg {
            state_msg: Payload::new(ValueSet::from_iter([1, 2])),
            round: 9,
        });
    }

    /// Corrupted (arbitrary) states — the shapes the runtime actually
    /// ships right after a systemic failure — survive the round trip in
    /// both forms, so the two forms of one state decode to equal values.
    #[test]
    fn corrupted_states_round_trip() {
        forall(64, |g: &mut Gen| {
            let mut ra = RoundAgreementState {
                c: RoundCounter::new(1),
            };
            ra.corrupt(g);
            round_trip_both(&ra);
            let mut fs = FloodSetState {
                seen: ValueSet::new(),
                decided: None,
            };
            fs.corrupt(g);
            round_trip_both(&fs);
            let n = g.gen_range(1..=130);
            let mut cs: CompiledState<FloodSetState, u64> = CompiledState {
                inner: fs,
                c: RoundCounter::new(1),
                suspects: ProcessSet::empty(n),
                last_decision: None,
            };
            cs.corrupt(g);
            round_trip_both(&cs);
            let cs: CompiledState<RoundAgreementState, u64> = CompiledState {
                inner: ra,
                c: RoundCounter::new(g.gen()),
                suspects: ProcessSet::from_iter_n(
                    n,
                    (0..n).filter(|_| g.gen_bool(0.5)).map(ProcessId),
                ),
                last_decision: g.gen_bool(0.5).then(|| (g.gen(), g.gen())),
            };
            round_trip_both(&cs);
        });
    }

    /// Messages — corrupted ones included — survive both forms too.
    #[test]
    fn messages_round_trip_in_binary() {
        round_trip_both(&u64::MAX);
        round_trip_both(&ValueSet::new());
        forall(64, |g: &mut Gen| {
            let mut set = BTreeSet::from([g.gen::<u64>()]);
            set.corrupt(g);
            let set = ValueSet::from_iter(set);
            round_trip_both(&g.gen::<u64>());
            round_trip_both(&set);
            round_trip_both(&CompiledMsg {
                state_msg: Payload::new(set),
                round: g.gen(),
            });
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

    /// The layout is pinned field by field: sets count-prefixed and
    /// ascending, options `0 | 1 · value`, process sets as universe,
    /// count and members.
    #[test]
    fn binary_layout_is_canonical() {
        let mut bytes = Vec::new();
        ValueSet::from_iter([2, 1]).encode_bin(&mut bytes);
        let (count, one, two) = (2u32.to_le_bytes(), 1u64.to_le_bytes(), 2u64.to_le_bytes());
        assert_eq!(bytes, [&count[..], &one, &two].concat());

        let cs: CompiledState<RoundAgreementState, u64> = CompiledState {
            inner: RoundAgreementState {
                c: RoundCounter::new(5),
            },
            c: RoundCounter::new(6),
            suspects: ProcessSet::from_iter_n(9, [ProcessId(8), ProcessId(2)]),
            last_decision: Some((3, 4)),
        };
        let mut bytes = Vec::new();
        cs.encode_bin(&mut bytes);
        let le = |x: u64| x.to_le_bytes().to_vec();
        let le32 = |x: u32| x.to_le_bytes().to_vec();
        let members = [le32(9), le32(2), le32(2), le32(8)].concat();
        assert_eq!(
            bytes,
            [le(5), le(6), members, vec![1], le(3), le(4)].concat()
        );
    }

    /// The binary decoder refuses what no encoder writes: an option tag
    /// other than 0/1, a member outside the universe, a member count the
    /// bytes cannot hold — the last two before the set is allocated — and
    /// a set that is not strictly ascending. (A
    /// universe larger than any frame: `proto`'s `bcast` tests.)
    #[test]
    fn binary_decode_rejects_malformed_values() {
        type Cs = CompiledState<RoundAgreementState, u64>;
        let decode = |bytes: &[u8]| Cs::decode_bin(&mut Reader::new(bytes));
        let head = [1u64.to_le_bytes(), 2u64.to_le_bytes()].concat();
        let set_of = |n: u32, members: &[u32]| {
            let mut out = n.to_le_bytes().to_vec();
            out.extend((members.len() as u32).to_le_bytes());
            members.iter().for_each(|m| out.extend(m.to_le_bytes()));
            out
        };
        let ok = [&head[..], &set_of(4, &[1]), &[0]].concat();
        assert!(decode(&ok).is_ok());
        let err = decode(&[&head[..], &set_of(4, &[1]), &[2]].concat()).expect_err("tag 2");
        assert!(err.contains("option tag 2"), "{err}");
        let err = decode(&[&head[..], &set_of(4, &[4]), &[0]].concat()).expect_err("member 4");
        assert!(err.contains("member 4 outside universe 4"), "{err}");
        let greedy = [&head[..], &8u32.to_le_bytes(), &u32::MAX.to_le_bytes()].concat();
        let err = decode(&greedy).expect_err("huge count");
        assert!(err.contains("exceeds the bytes remaining"), "{err}");
        let err = FloodSetState::decode_bin(&mut Reader::new(&[0, 0, 0, 0, 7])).expect_err("tag 7");
        assert!(err.contains("option tag 7"), "{err}");
        // Sets are strictly ascending on the binary path: no repeated
        // value, no descending pair, no member listed twice.
        let values = |xs: &[u64]| {
            let mut out = (xs.len() as u32).to_le_bytes().to_vec();
            xs.iter().for_each(|x| out.extend(x.to_le_bytes()));
            out
        };
        let set = |bytes: &[u8]| ValueSet::decode_bin(&mut Reader::new(bytes));
        assert_eq!(set(&values(&[1, 5])), Ok(ValueSet::from_iter([1, 5])));
        let err = set(&values(&[1, 5, 5])).expect_err("repeated value");
        assert!(err.contains("set element 5 is not above"), "{err}");
        let err = set(&values(&[5, 1])).expect_err("descending pair");
        assert!(err.contains("set element 1 is not above"), "{err}");
        let err = decode(&[&head[..], &set_of(4, &[1, 1]), &[0]].concat()).expect_err("twice");
        assert!(err.contains("member 1 is not above"), "{err}");
        let err = decode(&[&head[..], &set_of(4, &[3, 2]), &[0]].concat()).expect_err("descending");
        assert!(err.contains("member 2 is not above"), "{err}");
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
        assert!(ValueSet::decode_bin(&mut Reader::new(&bytes)).is_err());
        let mut r = Reader::new(&bytes[..3]);
        assert!(r.u32().is_err() && r.u64().is_err());
        assert_eq!(r.take(3), Ok(&bytes[..3]));
        assert!(r.u8().is_err() && r.option(Reader::u8).is_err());
        let section = Reader::new(&bytes).section();
        assert_eq!(section.and_then(|mut s| s.take(3)), Ok(&bytes[4..7]));
        assert!(Reader::new(&bytes[..6]).section().is_err());
        assert!(Reader::new(&bytes).finish().is_err());
        assert_eq!(Reader::new(&[1, 7]).option(Reader::u8), Ok(Some(7)));
        assert_eq!(Reader::new(&[0]).option(Reader::u8), Ok(None));
    }
}
