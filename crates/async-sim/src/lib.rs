//! # ftss-async-sim — the paper's asynchronous system, executable
//!
//! A deterministic discrete-event simulator for §3 of Gopal & Perry
//! (PODC 1993): processes communicate by message passing with *unbounded*
//! (but finite) delays, may crash, and may start from arbitrarily corrupted
//! states. Failure detectors and the self-stabilizing consensus protocol
//! run on top of this crate.
//!
//! Model choices (documented in `DESIGN.md`):
//!
//! * **Asynchrony** is modelled by seeded random message delays. An
//!   optional *Global Stabilization Time* (GST) bounds delays afterwards —
//!   the standard partial-synchrony device used to realize the ◇-properties
//!   of Chandra–Toueg failure detectors.
//! * **Fairness**: no message is lost; every send is eventually delivered
//!   (unless the receiver crashed). This is what "eventually" properties
//!   need.
//! * **Determinism**: every run is a pure function of the configuration
//!   seed. A [`Scheduler`] picks each message's delay, the one choice the
//!   model leaves open; the runner's one event queue then dispatches in
//!   `(time, sequence number)` order.
//!
//! The driving trait is [`AsyncProcess`]: `on_start` arms timers (program
//! text, not state — self-stabilizing protocols must work from any *state*,
//! but re-arming the event loop is part of the runtime), `on_message` and
//! `on_timer` advance the protocol.

mod arena;
pub mod process;
mod queue;
pub mod runner;
pub mod scheduler;

pub use process::{AsyncProcess, Ctx};
pub use runner::{AsyncConfig, AsyncRunner, RunStats, Time};
pub use scheduler::{AdversaryScheduler, RandomScheduler, Scheduler};
