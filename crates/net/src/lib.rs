//! # nisim-net
//!
//! Network substrate for the `nisim` network-interface design study.
//!
//! The paper deliberately abstracts the network (§5.1.2): topology is
//! ignored, every message takes a constant 40 ns from injection of its last
//! byte at the source to arrival of its first byte at the destination, and
//! **return-to-sender** end-to-end flow control guarantees delivery with a
//! bounded number of *flow control buffers* per NI. Returned messages ride
//! a logically separate channel with a guaranteed path back.
//!
//! This crate provides exactly that abstraction:
//!
//! * [`NetConfig`] — wire latency, link rate, message/header geometry,
//! * [`fragment_payload`] / [`fragment_at`] — splitting payloads into
//!   ≤ 256-byte network messages,
//! * [`Link`] — serially-reusable injection/ejection ports,
//! * [`FlowControlEndpoint`] — per-NI send/receive buffer accounting for
//!   the return-to-sender protocol,
//! * [`switch_survey`] — the commercial-switch buffering data of Table 1.
//!
//! Two robustness modules extend the abstraction beyond the paper:
//!
//! * [`fault`] — a deterministic, seedable fault injector (drops,
//!   duplication, corruption, latency jitter, scheduled link outages),
//! * [`reliability`] — per-sender sequence numbers, ack-timeout
//!   retransmission with exponential backoff, and receiver-side
//!   duplicate suppression, composing with (not replacing) the
//!   return-to-sender flow control.

pub mod fault;
pub mod flow;
pub mod link;
pub mod msg;
pub mod reliability;
pub mod switch_survey;
pub mod topology;

pub use fault::{
    CrashWindow, Deliveries, Delivery, DownWindow, FaultConfig, FaultPlan, FaultStats,
};
pub use flow::{BufferCount, FlowControlEndpoint, FlowStats};
pub use link::Link;
pub use msg::{fragment_at, fragment_count, fragment_payload, Fragment, MsgId, NetConfig, NodeId};
pub use reliability::{
    ReceiverDedup, RelMetrics, RelStats, ReliabilityConfig, SenderReliability, SeqNo,
};
pub use topology::{Fabric, Topology};
