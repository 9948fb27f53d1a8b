//! # ftss — Unifying Self-Stabilization and Fault-Tolerance
//!
//! A full Rust reproduction of Gopal & Perry, *Unifying Self-Stabilization
//! and Fault-Tolerance* (PODC 1993): protocols that tolerate **process
//! failures** (crash, send/receive omission) and **systemic failures**
//! (arbitrary corruption of every process's state) *simultaneously*, under
//! the paper's piece-wise-stability definition (`ftss-solves`,
//! Definition 2.4).
//!
//! This crate is the facade: it re-exports the whole stack.
//!
//! | Layer | Crate | Paper artifact |
//! |---|---|---|
//! | Model & theory | [`core`] | §2.1 definitions, coteries, Def. 2.1/2.2/2.4 checkers |
//! | Synchronous simulator | [`sync_sim`] | §2's lock-step system + fault adversaries |
//! | Protocols | [`protocols`] | Fig 1 round agreement, Fig 2 canonical Π, FloodSet / phase-king / broadcast |
//! | The compiler | [`compiler`] | Fig 3: Π → Π⁺ superimposition (Theorem 4) |
//! | Async simulator | [`async_sim`] | §3's asynchronous system (delays, GST, crashes) |
//! | Failure detectors | [`detectors`] | Fig 4: self-stabilizing ◇W → ◇S (Theorem 5) over the ◇W oracle §3 assumes |
//! | Async consensus | [`consensus_async`] | §3: self-stabilizing Chandra–Toueg consensus |
//! | Analysis | [`analysis`] | stabilization measurement, Theorems 1–2 scenarios |
//! | Telemetry | [`telemetry`] | structured execution traces (JSONL) + metrics accumulation |
//!
//! The `ftss-lab` binary (in `crates/cli`) drives parameterized runs of
//! all of the above from the command line.
//!
//! # Quickstart
//!
//! Compile a fault-tolerant protocol into a self-stabilizing one and run
//! it from an arbitrarily corrupted state:
//!
//! ```
//! use ftss::compiler::Compiled;
//! use ftss::protocols::{FloodSet, RepeatedConsensusSpec};
//! use ftss::sync_sim::{NoFaults, RunConfig, SyncRunner};
//! use ftss::core::ftss_check_suffix;
//!
//! // FloodSet consensus tolerating f = 1 failures (2-round iterations).
//! let pi_plus = Compiled::new(FloodSet::new(1, vec![30, 10, 20]));
//!
//! // Systemic failure: every process starts in an arbitrary state.
//! let out = SyncRunner::new(pi_plus)
//!     .run(&mut NoFaults, &RunConfig::corrupted(3, 16, 0xdead))
//!     .expect("valid configuration");
//!
//! // Definition 2.4 with stabilization time 2·final_round + 2: satisfied.
//! let spec = RepeatedConsensusSpec::with_progress(6);
//! assert!(ftss_check_suffix(&out.history, &spec, 6).is_ok());
//! ```

pub use ftss_analysis as analysis;
pub use ftss_async_sim as async_sim;
pub use ftss_compiler as compiler;
pub use ftss_consensus_async as consensus_async;
pub use ftss_core as core;
pub use ftss_detectors as detectors;
pub use ftss_protocols as protocols;
pub use ftss_sync_sim as sync_sim;
pub use ftss_telemetry as telemetry;
