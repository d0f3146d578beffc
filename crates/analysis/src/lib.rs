//! Machine-checked guardrails for the nisim protocol state machines.
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
//!   composed with the flow-control window under drop/dup faults;
//! * [`lint`] — a tokenizer-based source lint enforcing determinism
//!   (no hash-order leaks, no wall clock, no float transcendentals, no
//!   stray threads or shared-state locks) and robustness (no panics in
//!   hot paths, no wildcard dispatch arms).
//!
//! Run via `cargo run -p nisim-analysis -- check|lint|selftest`.

pub mod lint;
pub mod moesi_check;
pub mod protocol_check;

pub use lint::{lint_tree, parse_allowlist, render_allowlist, LintOutcome};
pub use moesi_check::{CheckOutcome, MoesiChecker};
pub use protocol_check::ProtocolConfig;
