//! `ftss-serve` — the socket-based runtime: protocols as real processes.
//!
//! Everything else in this workspace runs protocols *inside* one
//! simulator loop. This crate runs them as real OS threads exchanging
//! length-prefixed frames (JSON control frames, one binary `bcast` up and
//! one binary round frame down per round) over a [`Channel`] — an
//! in-memory pipe, a loopback TCP socket, or a Unix domain socket —
//! while a hub router replays the exact §2 synchronous schedule: barrier
//! per round, crash schedule, adversarial omissions, and
//! transient-corruption injection.
//!
//! The claim that makes this more than a demo: **the served execution is
//! the simulated execution** — by construction. The router is a second
//! driver of `ftss-sync-sim`'s round kernel, over node threads instead
//! of in-process states, so it runs the simulator's own validation, copy
//! walk, adversary consultation, history recording and event emission.
//! On the `mem` transport the JSONL trace is byte-identical to the
//! simulator's (pinned by test and by `scripts/verify.sh`), and on real
//! sockets it differs only by the additional `net_*` events. Thm-3
//! stabilization bounds verified by `ftss-check` therefore transfer
//! verbatim to executions that crossed a real network stack.
//!
//! Layers:
//!
//! * [`transport`] + [`wire`] + [`proto`] — framed byte channels, the
//!   panic-free wire codec (JSON and binary; decoders return `Err`,
//!   never unwrap) and the frames of a session.
//! * [`node`] — the process runtime: owns protocol state, nothing else.
//! * [`session`] — the router: the round kernel's remote exchange, plus
//!   crash–restart and the partial-synchrony proxy.
//! * [`loadgen`] — deterministic client traffic into a served Σ⁺ with
//!   round-denominated latency accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No function grows back into the 800-line router: `clippy.toml` sets the
// threshold to 150 lines.
#![deny(clippy::too_many_lines)]

pub mod loadgen;
pub mod node;
pub mod proto;
pub mod session;
pub mod transport;
pub mod wire;

pub use loadgen::{run_loadgen, Histogram, LoadReport, LoadgenConfig};
pub use node::{run_node, run_node_recovered};
pub use proto::{ToNode, ToRouter};
pub use session::{
    serve, serve_streaming_with_stats, Retry, ServeConfig, ServeRestart, ServeStats, SnapshotFault,
    TimingFaults,
};
pub use transport::{Channel, TransportKind};
pub use wire::Wire;
