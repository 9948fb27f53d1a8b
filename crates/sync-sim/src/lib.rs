//! # ftss-sync-sim — the paper's synchronous system, executable
//!
//! A deterministic lock-step simulator of the perfectly synchronous,
//! completely connected message-passing system of §2 of Gopal & Perry
//! (PODC 1993): all processes take steps at the same time, message delivery
//! takes one round, and computation proceeds in rounds numbered from 1.
//!
//! The three moving parts:
//!
//! * [`SyncProtocol`] — what a protocol is: an initial state, a broadcast
//!   function and a state-transition function, invoked once per round
//!   (the paper's round-based protocols, Figure 2 canonical form included).
//! * [`Adversary`] — injects *process failures* (crashes, omissions, late
//!   copies) against a declared faulty set of size at most `f`.
//!   Self-delivery can never be dropped (paper footnote 1).
//! * [`SyncRunner`] — executes rounds, injects *systemic failures*
//!   (seeded arbitrary corruption of every initial state via
//!   [`ftss_core::Corrupt`]), and records a faithful [`ftss_core::History`]
//!   for the theory-layer checkers.
//!
//! The round itself lives in [`round`]: one [`RoundKernel`] that the
//! runner drives over in-process states and the `ftss-serve` router
//! drives over node threads, through the [`Exchange`] seam.
//!
//! # Example
//!
//! ```
//! use ftss_sync_sim::{NoFaults, RunConfig, SyncRunner};
//! use ftss_sync_sim::{Inbox, ProtocolCtx, SyncProtocol};
//! use ftss_core::{Corrupt, RoundCounter};
//!
//! /// A protocol whose state is just a counter everyone increments.
//! struct Ticker;
//! #[derive(Clone, Debug)]
//! struct Tick(u64);
//! impl Corrupt for Tick {
//!     fn corrupt<R: ftss_rng::Rng + ?Sized>(&mut self, rng: &mut R) { self.0 = rng.gen(); }
//! }
//! impl SyncProtocol for Ticker {
//!     type State = Tick;
//!     type Msg = u64;
//!     fn name(&self) -> &'static str { "ticker" }
//!     fn init_state(&self, _ctx: &ProtocolCtx) -> Tick { Tick(1) }
//!     fn broadcast(&self, _ctx: &ProtocolCtx, s: &Tick) -> u64 { s.0 }
//!     fn step(&self, _ctx: &ProtocolCtx, s: &mut Tick, _inbox: &Inbox<u64>) { s.0 += 1; }
//!     fn round_counter(&self, s: &Tick) -> Option<RoundCounter> {
//!         Some(RoundCounter::new(s.0))
//!     }
//! }
//!
//! let outcome = SyncRunner::new(Ticker)
//!     .run(&mut NoFaults, &RunConfig::clean(3, 5))
//!     .expect("valid configuration");
//! assert_eq!(outcome.history.len(), 5);
//! ```

// The round kernel and its drivers stay reviewable: `clippy.toml` sets
// the threshold to 150 lines per function.
#![deny(clippy::too_many_lines)]

pub mod adversary;
pub mod protocol;
pub mod round;
pub mod runner;
pub mod stepper;

pub use adversary::{
    Adversary, ByzantineAdversary, CrashOnly, GroupPartition, Lateness, NoFaults, OmissionSide,
    RandomOmission, ScriptedOmission, SilentProcess, StormAdversary, TapeOmission,
};
pub use protocol::{Inbox, InboxTable, ProtocolCtx, SyncProtocol};
pub use round::{Exchange, RoundKernel};
pub use runner::{Corruption, CorruptionSchedule, RunConfig, RunOutcome, SyncRunner};
pub use stepper::SyncStepper;
