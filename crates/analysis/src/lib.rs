//! Bounded model checkers for the nisim protocol state machines.
//!
//! The simulator's headline results (the Figure 3/4 reproductions) rest
//! on three hand-written protocols — MOESI snooping coherence, the
//! seq/ack/retransmit reliability layer, and the return-to-sender
//! flow-control window — whose bugs would surface only as subtly wrong
//! curves. This crate checks them mechanically, with zero external
//! dependencies:
//!
//! * [`moesi_check`] — bounded explicit-state model checking of the
//!   MOESI transition functions and a multi-cache bus model;
//! * [`protocol_check`] — bounded exploration of the reliability layer
//!   composed with the flow-control window under drop/dup faults.
//!
//! Both run as unit tests under `cargo test`, each beside a seeded
//! mutant it must catch. The determinism rules live in the clippy
//! configuration instead (`clippy.toml`, DESIGN §6.4); the
//! `clippy_rules` test proves each rule still fires on a seeded
//! violation.

pub mod moesi_check;
pub mod protocol_check;

pub use moesi_check::{CheckOutcome, MoesiChecker};
pub use protocol_check::ProtocolConfig;
