//! # ftss-telemetry — structured execution tracing and metrics
//!
//! The paper's claims are all statements about *what happens during an
//! execution*: when the coterie forms, when the problem predicate starts
//! holding after the final systemic failure (Theorems 3–5), how much
//! message traffic a protocol needs. This crate is the shared vocabulary
//! for those facts:
//!
//! * [`Event`] — one structured fact (round boundaries, per-copy send
//!   outcomes with attributed omission side, crashes, corruption
//!   injections, coterie membership changes, stabilization, detector
//!   suspicion churn, iteration decisions), stamped with the observer
//!   round or virtual time ([`event`]).
//! * [`TraceSink`] — where events go: [`NullSink`] (tracing off, zero
//!   cost), [`RecordingSink`] (bounded in-memory ring), [`JsonlSink`]
//!   (streaming JSONL with a hand-rolled, byte-deterministic serializer)
//!   ([`sink`]).
//! * [`Metrics`] — a sink that folds any event stream into the per-run
//!   aggregates the experiment tables report ([`metrics`]).
//! * [`json`] — the minimal JSON reader/writer behind the JSONL format.
//!
//! Both simulators emit into a [`TraceSink`]: `ftss_sync_sim::SyncRunner::
//! run_traced` and `ftss_async_sim::AsyncRunner::{run_until_traced,
//! run_probed_traced}`. Derived facts (coterie changes, stabilization,
//! suspicion churn, decisions) are appended by the extractors in
//! `ftss-analysis`, `ftss-compiler` and `ftss-detectors`. See DESIGN.md §7.
//!
//! # Example
//!
//! ```
//! use ftss_telemetry::{Event, JsonlSink, Metrics, TraceSink};
//! use ftss_core::{DeliveryOutcome, ProcessId};
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! let ev = Event::Send {
//!     round: 1,
//!     from: ProcessId(0),
//!     to: ProcessId(1),
//!     outcome: DeliveryOutcome::Delivered,
//! };
//! sink.emit(&ev);
//! let text = String::from_utf8(sink.finish().unwrap()).unwrap();
//! assert_eq!(
//!     text,
//!     "{\"type\":\"send\",\"round\":1,\"from\":0,\"to\":1,\"outcome\":\"delivered\"}\n"
//! );
//!
//! // Round-trip: a trace line parses back into the event, and metrics
//! // fold the stream into aggregates.
//! let back = Event::parse_line(text.trim()).unwrap();
//! assert_eq!(back, ev);
//! let m = Metrics::from_events([&back]);
//! assert_eq!(m.delivered, 1);
//! ```

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;

pub use event::{Event, RunMode};
pub use json::{parse as parse_json, JsonValue, ParseError};
pub use metrics::{Metrics, RoundTraffic};
pub use sink::{JsonlSink, NullSink, RecordingSink, TraceSink};
