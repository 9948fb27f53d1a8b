//! Transports: byte channels the node runtime runs over.
//!
//! One [`Channel`] is one node⇄router duplex link carrying length-prefixed
//! frames ([`ftss::core::framing`]). Three transports ship:
//!
//! * **mem** — `std::sync::mpsc` of raw byte chunks. The frames still pass
//!   through `encode_frame`/`FrameDecoder` (split so the incremental path
//!   is exercised), so the codec is on the hot path even in-memory. This
//!   is the transport pinned byte-identical to the simulator.
//! * **tcp** — loopback `TcpStream`s against an ephemeral `127.0.0.1:0`
//!   listener.
//! * **uds** — Unix-domain sockets in a per-process temp path (Unix only).
//!
//! A transport only moves bytes; identity is established above it by the
//! `hello` handshake (the router never trusts accept order).

use ftss::core::{FrameDecoder, FRAME_HEADER_LEN};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};

/// One duplex frame channel between a node and the router.
pub trait Channel: Send {
    /// Sends one frame payload (framing applied inside).
    ///
    /// # Errors
    ///
    /// Transport write failures.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Receives the next frame payload, blocking until one is complete.
    ///
    /// # Errors
    ///
    /// Transport read failures, a peer hang-up mid-frame, or a corrupt
    /// frame header (surfaced as [`io::ErrorKind::InvalidData`]).
    fn recv(&mut self) -> io::Result<Vec<u8>>;
}

/// The two ends of `n` node⇄router channels: `(router_ends, node_ends)`.
pub type ChannelPairs = (Vec<Box<dyn Channel>>, Vec<Box<dyn Channel>>);

/// Which transport a session runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory channels; byte-equivalent to the simulator.
    Mem,
    /// Loopback TCP.
    Tcp,
    /// Unix-domain sockets (Unix only).
    Uds,
}

impl TransportKind {
    /// Stable name, used in telemetry events and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Mem => "mem",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        }
    }

    /// Parses a CLI transport name.
    ///
    /// # Errors
    ///
    /// Unknown names (and `uds` on non-Unix platforms).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mem" => Ok(TransportKind::Mem),
            "tcp" => Ok(TransportKind::Tcp),
            #[cfg(unix)]
            "uds" => Ok(TransportKind::Uds),
            #[cfg(not(unix))]
            "uds" => Err("uds transport requires a Unix platform".into()),
            other => Err(format!("unknown transport `{other}` (mem|tcp|uds)")),
        }
    }

    /// Whether frames cross a real socket (and `net_*` telemetry events
    /// should be emitted — never for `mem`, which must stay byte-identical
    /// to the simulator).
    pub fn is_real_socket(self) -> bool {
        !matches!(self, TransportKind::Mem)
    }

    /// Opens `n` node⇄router channel pairs: `(router_ends, node_ends)`,
    /// both indexed by the order they were created (NOT by process id —
    /// the session's `hello` handshake establishes identity).
    ///
    /// # Errors
    ///
    /// Socket setup failures.
    pub fn open_pairs(self, n: usize) -> io::Result<ChannelPairs> {
        match self {
            TransportKind::Mem => Ok(open_mem(n)),
            TransportKind::Tcp => open_tcp(n),
            #[cfg(unix)]
            TransportKind::Uds => open_uds(n),
            #[cfg(not(unix))]
            TransportKind::Uds => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "uds transport requires a Unix platform",
            )),
        }
    }
}

// ---------------------------------------------------------------------
// mem
// ---------------------------------------------------------------------

/// The in-memory channel: chunks of frame bytes over `mpsc`. The sender
/// deliberately splits header and payload into separate chunks so the
/// receiving [`FrameDecoder`] exercises its incremental path on every
/// message, exactly as a short socket read would.
struct MemChannel {
    tx: SyncSender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    decoder: FrameDecoder,
}

impl Channel for MemChannel {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let framed = ftss::core::frame_bytes(payload);
        let (header, body) = framed.split_at(FRAME_HEADER_LEN);
        self.tx
            .send(header.to_vec())
            .and_then(|()| self.tx.send(body.to_vec()))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "mem peer gone"))
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => return Ok(payload),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let chunk = self
                .rx
                .recv()
                .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "mem peer gone"))?;
            self.decoder.push_bytes(&chunk);
        }
    }
}

fn open_mem(n: usize) -> ChannelPairs {
    let mut routers: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
    let mut nodes: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
    for _ in 0..n {
        // Generous bounds: one round exchanges O(1) messages per side.
        let (to_node, from_router) = std::sync::mpsc::sync_channel(64);
        let (to_router, from_node) = std::sync::mpsc::sync_channel(64);
        routers.push(Box::new(MemChannel {
            tx: to_node,
            rx: from_node,
            decoder: FrameDecoder::new(),
        }));
        nodes.push(Box::new(MemChannel {
            tx: to_router,
            rx: from_router,
            decoder: FrameDecoder::new(),
        }));
    }
    (routers, nodes)
}

// ---------------------------------------------------------------------
// stream-backed transports (tcp, uds)
// ---------------------------------------------------------------------

/// A channel over any byte stream (TCP or Unix-domain socket).
struct StreamChannel<T: Read + Write + Send> {
    stream: T,
    decoder: FrameDecoder,
    read_buf: [u8; 4096],
    /// The frame being sent, header and payload: one buffer for the
    /// channel's life, and one `write_all` per frame, so `TCP_NODELAY`
    /// still emits one segment.
    write_buf: Vec<u8>,
}

impl<T: Read + Write + Send> StreamChannel<T> {
    fn new(stream: T) -> Self {
        StreamChannel {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: [0u8; 4096],
            write_buf: Vec::new(),
        }
    }
}

impl<T: Read + Write + Send> Channel for StreamChannel<T> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.write_buf.clear();
        ftss::core::encode_frame(payload, &mut self.write_buf);
        self.stream.write_all(&self.write_buf)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(payload)) => return Ok(payload),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let got = self.stream.read(&mut self.read_buf)?;
            if got == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ));
            }
            self.decoder.push_bytes(&self.read_buf[..got]);
        }
    }
}

fn open_tcp(n: usize) -> io::Result<ChannelPairs> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // Dial from a helper thread while accepting here, so neither side
    // blocks the other.
    let dialer = std::thread::spawn(move || -> io::Result<Vec<TcpStream>> {
        (0..n).map(|_| TcpStream::connect(addr)).collect()
    });
    let mut routers: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        routers.push(Box::new(StreamChannel::new(stream)));
    }
    let node_streams = dialer
        .join()
        .map_err(|_| io::Error::other("tcp dialer thread panicked"))??;
    let mut nodes: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
    for stream in node_streams {
        stream.set_nodelay(true)?;
        nodes.push(Box::new(StreamChannel::new(stream)));
    }
    Ok((routers, nodes))
}

/// Distinguishes socket paths across concurrent sessions in one process.
static UDS_COUNTER: AtomicUsize = AtomicUsize::new(0);

#[cfg(unix)]
fn open_uds(n: usize) -> io::Result<ChannelPairs> {
    let path = std::env::temp_dir().join(format!(
        "ftss-serve-{}-{}.sock",
        std::process::id(),
        UDS_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    // A stale path from a crashed previous run would make bind fail.
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    let dial_path = path.clone();
    let dialer = std::thread::spawn(move || -> io::Result<Vec<UnixStream>> {
        (0..n).map(|_| UnixStream::connect(&dial_path)).collect()
    });
    let mut routers: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (stream, _) = listener.accept()?;
        routers.push(Box::new(StreamChannel::new(stream)));
    }
    let node_streams = dialer
        .join()
        .map_err(|_| io::Error::other("uds dialer thread panicked"))??;
    let nodes: Vec<Box<dyn Channel>> = node_streams
        .into_iter()
        .map(|s| Box::new(StreamChannel::new(s)) as Box<dyn Channel>)
        .collect();
    drop(listener);
    let _ = std::fs::remove_file(&path);
    Ok((routers, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(kind: TransportKind) {
        let (mut routers, mut nodes) = kind.open_pairs(2).expect("open");
        // Every pair is duplex and frame-preserving.
        for (r, n) in routers.iter_mut().zip(nodes.iter_mut()) {
            r.send(b"ping").expect("send");
            assert_eq!(n.recv().expect("recv"), b"ping");
            n.send(b"pong-with-longer-payload").expect("send");
            assert_eq!(r.recv().expect("recv"), b"pong-with-longer-payload");
        }
    }

    #[test]
    fn mem_pairs_round_trip() {
        exercise(TransportKind::Mem);
    }

    #[test]
    fn tcp_pairs_round_trip() {
        exercise(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_pairs_round_trip() {
        exercise(TransportKind::Uds);
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(TransportKind::parse("mem").unwrap(), TransportKind::Mem);
        assert_eq!(TransportKind::parse("tcp").unwrap(), TransportKind::Tcp);
        assert!(TransportKind::parse("carrier-pigeon").is_err());
        assert!(!TransportKind::Mem.is_real_socket());
        assert!(TransportKind::Tcp.is_real_socket());
    }

    #[test]
    fn recv_surfaces_peer_loss_and_corruption() {
        let (mut routers, mut nodes) = TransportKind::Mem.open_pairs(1).expect("open");
        drop(nodes.remove(0));
        assert_eq!(
            routers[0].recv().expect_err("peer gone").kind(),
            io::ErrorKind::UnexpectedEof
        );
        let (mut routers, nodes) = TransportKind::Tcp.open_pairs(1).expect("open");
        drop(nodes);
        assert!(routers[0].recv().is_err());
    }
}
