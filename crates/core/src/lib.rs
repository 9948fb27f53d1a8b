//! # ftss-core — model and theory layer
//!
//! This crate implements the formal model of Gopal & Perry,
//! *Unifying Self-Stabilization and Fault-Tolerance* (PODC 1993):
//!
//! * process and round identifiers ([`ProcessId`], [`Round`], [`RoundCounter`]),
//! * the fault taxonomy — *process failures* (crash, send/receive omission)
//!   and *systemic failures* (arbitrary state corruption) ([`fault`]),
//! * round-based execution **histories** exactly as the paper defines them
//!   ([`history`]),
//! * Lamport happened-before tracking and the paper's **coterie** — the set
//!   of processes that have causally reached every correct process
//!   ([`causality`], [`coterie`]),
//! * **problems** as predicates on a history and a faulty set, including the
//!   paper's Assumption 1 (round agreement + rate) and Assumption 2
//!   (uniformity) ([`problem`]),
//! * checkers for the paper's three solvability notions — `ft-solves`
//!   (Def. 2.1), `ss-solves` (Def. 2.2) and **`ftss-solves`** (Def. 2.4,
//!   piece-wise stability) ([`solvability`]),
//! * seeded *systemic-failure injection*: the [`corrupt::Corrupt`] trait
//!   produces arbitrary states for any protocol ([`corrupt`]).
//!
//! Everything downstream (the synchronous and asynchronous simulators, the
//! round-agreement protocol, the Π → Π⁺ compiler, the failure detectors and
//! the self-stabilizing consensus) is expressed in terms of these types.
//!
//! # Example
//!
//! ```
//! use ftss_core::{ProcessId, ProcessSet};
//!
//! let mut correct = ProcessSet::full(4);
//! correct.remove(ProcessId(3));
//! assert_eq!(correct.len(), 3);
//! assert!(correct.contains(ProcessId(0)));
//! ```

pub mod causality;
pub mod corrupt;
pub mod coterie;
pub mod error;
pub mod fault;
pub mod framing;
pub mod history;
pub mod id;
pub mod message;
pub mod payload;
pub mod problem;
pub mod round;
pub mod solvability;
pub mod storm;

pub use causality::CausalTracker;
pub use corrupt::Corrupt;
pub use coterie::{coterie_of_prefix, CoterieTimeline, StableWindow};
pub use error::{ConfigError, Violation};
pub use fault::{CrashSchedule, FaultKind};
pub use framing::{
    encode_frame, frame_bytes, FrameDecoder, FrameError, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use history::{
    DeliveredIter, Deliveries, DeliveryOutcome, DeviationSet, History, HistorySlice, RoundHistory,
    RoundMsgs, RoundRecordView, SentCopy, SentIter,
};
pub use id::{ProcessId, ProcessSet};
pub use message::Envelope;
pub use payload::Payload;
pub use problem::{Problem, RateAgreementSpec, UniformitySpec};
pub use round::{normalize, round_count, saturating_round_index, Round, RoundCounter};
pub use solvability::{
    ft_check, ftss_check, ftss_check_suffix, ss_check, stabilization_offset, FtssReport,
    FtssViolation,
};
pub use storm::{StormKind, StormPhase};
