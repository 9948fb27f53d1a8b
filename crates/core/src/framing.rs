//! Length-prefixed message framing for the socket runtime (`ftss-serve`).
//!
//! A frame is a 4-byte big-endian payload length followed by the payload
//! bytes. The payload is one `ftss-serve` message — a JSONL document in
//! the telemetry codec, or the binary round frame — but this module is
//! byte-agnostic: it only guarantees that whatever was framed comes back
//! out intact, and that *no input whatsoever* can make the decoder panic
//! — network bytes are untrusted, so every malformed shape is an
//! [`FrameError`], never an `unwrap`.
//!
//! The decoder is incremental: feed it whatever the transport produced
//! (half a header, three frames and a tail, …) and drain complete frames
//! as they materialize. This is the shape a non-blocking socket reader
//! needs, and it makes the codec a pure function of the byte stream —
//! deterministic, like everything else in this workspace.

use std::fmt;

/// Upper bound on one frame's payload length. Any header announcing more
/// is rejected before buffering — a corrupted or hostile length prefix
/// must not become an allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Number of bytes in the length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// A malformed frame, detected without panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The header announced a payload longer than [`MAX_FRAME_LEN`].
    TooLong {
        /// The announced payload length.
        announced: usize,
    },
    /// The header announced an empty payload; every wire message has at
    /// least one byte, so a zero length is corruption, not a message.
    Empty,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong { announced } => write!(
                f,
                "frame announces {announced} payload bytes (max {MAX_FRAME_LEN})"
            ),
            FrameError::Empty => write!(f, "frame announces an empty payload"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends `payload` as one frame (header + bytes) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] or is empty — outgoing
/// frames are produced by this codebase, so an oversized or empty one is
/// a local bug, not a network condition.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_FRAME_LEN,
        "outgoing frame payload must be 1..={MAX_FRAME_LEN} bytes, got {}",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
}

/// One frame as a standalone byte vector.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame(payload, &mut out);
    out
}

/// The incremental frame decoder: buffers transport bytes and yields
/// complete payloads.
#[derive(Clone, Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames; compacted
    /// lazily so a burst of small frames does not memmove per frame.
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw transport bytes into the decoder.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `consumed` is dead.
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        } else if self.consumed > MAX_FRAME_LEN {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, if one is buffered.
    ///
    /// `Ok(None)` means more bytes are needed. An `Err` poisons nothing:
    /// the stream is corrupt and the caller should drop the connection,
    /// but the decoder itself stays usable.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the buffered header is malformed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let announced =
            u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if announced == 0 {
            return Err(FrameError::Empty);
        }
        if announced > MAX_FRAME_LEN {
            return Err(FrameError::TooLong { announced });
        }
        if pending.len() < FRAME_HEADER_LEN + announced {
            return Ok(None);
        }
        let start = self.consumed + FRAME_HEADER_LEN;
        let payload = self.buf[start..start + announced].to_vec();
        self.consumed = start + announced;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftss_rng::check::{forall, Gen};
    use ftss_rng::Rng;

    #[test]
    fn round_trips_one_frame() {
        let mut dec = FrameDecoder::new();
        dec.push_bytes(&frame_bytes(b"hello"));
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending_len(), 0);
    }

    #[test]
    fn round_trips_split_and_coalesced_frames() {
        let frames: Vec<Vec<u8>> = vec![b"a".to_vec(), b"two".to_vec(), vec![0u8; 1000]];
        let mut stream = Vec::new();
        for f in &frames {
            encode_frame(f, &mut stream);
        }
        // Feed one byte at a time: worst-case fragmentation.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.push_bytes(std::slice::from_ref(b));
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, frames);
        // Feed everything at once: full coalescing.
        let mut dec = FrameDecoder::new();
        dec.push_bytes(&stream);
        let mut got = Vec::new();
        while let Some(p) = dec.next_frame().unwrap() {
            got.push(p);
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn rejects_oversized_and_empty_headers() {
        let mut dec = FrameDecoder::new();
        dec.push_bytes(&u32::MAX.to_be_bytes());
        assert!(matches!(dec.next_frame(), Err(FrameError::TooLong { .. })));
        let mut dec = FrameDecoder::new();
        dec.push_bytes(&0u32.to_be_bytes());
        assert_eq!(dec.next_frame(), Err(FrameError::Empty));
    }

    #[test]
    #[should_panic(expected = "outgoing frame")]
    fn encoding_an_empty_payload_is_a_local_bug() {
        frame_bytes(b"");
    }

    /// A connection torn down mid-frame (a crash–restart kill, a dropped
    /// socket) leaves the reader's decoder holding a partial frame. That
    /// partial must stay inert — `Ok(None)` forever, no panic — and a
    /// fresh decoder on the new connection must decode the retransmitted
    /// frame from its first byte.
    #[test]
    fn teardown_mid_frame_leaves_an_inert_partial_and_a_fresh_decoder_resyncs() {
        let whole = frame_bytes(b"{\"type\":\"bcast\",\"round\":4}");
        let mut stream = frame_bytes(b"{\"type\":\"hello\",\"p\":0}");
        stream.extend_from_slice(&whole);
        // The connection dies with the second frame half-sent: every cut
        // point, from "nothing of it" to "all but one byte".
        for cut in 0..whole.len() {
            let torn = &stream[..stream.len() - whole.len() + cut];
            let mut dec = FrameDecoder::new();
            dec.push_bytes(torn);
            assert_eq!(
                dec.next_frame().expect("first frame survives the cut"),
                Some(b"{\"type\":\"hello\",\"p\":0}".to_vec())
            );
            // The tail is a partial frame: never a frame, never a panic,
            // no matter how often it is polled.
            assert_eq!(dec.next_frame(), Ok(None));
            assert_eq!(dec.next_frame(), Ok(None));
            assert_eq!(dec.pending_len(), cut);
            // The restarted incarnation opens a NEW connection, which
            // gets a NEW decoder: the resent frame decodes cleanly.
            let mut fresh = FrameDecoder::new();
            fresh.push_bytes(&whole);
            assert_eq!(
                fresh.next_frame().expect("fresh connection resyncs"),
                Some(b"{\"type\":\"bcast\",\"round\":4}".to_vec())
            );
            assert_eq!(fresh.pending_len(), 0);
        }
    }

    /// Reconnect-boundary fuzz: cut a valid multi-frame stream at an
    /// arbitrary byte (the teardown), feed the head to one decoder and
    /// the tail — which may start mid-header or mid-payload — to a fresh
    /// one. Neither side may panic; the tail side either errors cleanly
    /// or yields only well-formed payloads.
    #[test]
    fn reconnect_boundary_never_panics_under_fuzz() {
        forall(128, |g: &mut Gen| {
            let frames = g.vec(1, 5, |g| {
                let len = 1 + (g.gen::<u64>() as usize % (12 + 4 * g.size()));
                (0..len).map(|_| g.gen::<u64>() as u8).collect::<Vec<u8>>()
            });
            let mut stream = Vec::new();
            for f in &frames {
                encode_frame(f, &mut stream);
            }
            let cut = g.gen::<u64>() as usize % (stream.len() + 1);
            let mut head = FrameDecoder::new();
            head.push_bytes(&stream[..cut]);
            loop {
                match head.next_frame() {
                    Ok(Some(p)) => assert!(!p.is_empty() && p.len() <= MAX_FRAME_LEN),
                    Ok(None) => break,
                    Err(_) => unreachable!("an uncorrupted prefix never errors"),
                }
            }
            // The new connection's reader starts wherever the old stream
            // stopped — possibly inside a header, so misaligned bytes are
            // expected; a panic is not.
            let mut tail = FrameDecoder::new();
            tail.push_bytes(&stream[cut..]);
            loop {
                match tail.next_frame() {
                    Ok(Some(p)) => assert!(!p.is_empty() && p.len() <= MAX_FRAME_LEN),
                    Ok(None) => break,
                    Err(_) => break, // clean rejection: drop the connection
                }
            }
        });
    }

    /// The satellite property: no byte-level mutation of a valid frame
    /// stream can make the decoder panic, and every yielded payload obeys
    /// the announced length. Failure mode under mutation is a clean
    /// `FrameError` or a silently different (but well-formed) framing —
    /// never a crash.
    #[test]
    fn decoder_never_panics_on_mutated_streams() {
        forall(128, |g: &mut Gen| {
            // Build a valid multi-frame stream…
            let frames = g.vec(1, 6, |g| {
                let len = 1 + (g.gen::<u64>() as usize % (16 + 8 * g.size()));
                (0..len).map(|_| g.gen::<u64>() as u8).collect::<Vec<u8>>()
            });
            let mut stream = Vec::new();
            for f in &frames {
                encode_frame(f, &mut stream);
            }
            // …then mutate a handful of random bytes in place.
            let mutations = 1 + g.gen::<u64>() as usize % 8;
            for _ in 0..mutations {
                let at = g.gen::<u64>() as usize % stream.len();
                stream[at] ^= (g.gen::<u64>() % 255 + 1) as u8;
            }
            // Decode in random-sized chunks; must terminate without panic.
            let mut dec = FrameDecoder::new();
            let mut offset = 0;
            while offset < stream.len() {
                let take = 1 + g.gen::<u64>() as usize % 64;
                let end = (offset + take).min(stream.len());
                dec.push_bytes(&stream[offset..end]);
                offset = end;
                loop {
                    match dec.next_frame() {
                        Ok(Some(p)) => {
                            assert!(!p.is_empty() && p.len() <= MAX_FRAME_LEN);
                        }
                        Ok(None) => break,
                        Err(_) => return, // corrupt stream detected: done
                    }
                }
            }
        });
    }
}
