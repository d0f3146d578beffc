//! # nisim-core
//!
//! A faithful reimplementation of the design-space study in Mukherjee &
//! Hill, *The Impact of Data Transfer and Buffering Alternatives on
//! Network Interface Design* (HPCA 1998): seven memory-bus network
//! interface (NI) models spanning the paper's five **data transfer** and
//! **buffering** parameters, simulated on a MOESI-coherent memory-bus node
//! model with return-to-sender flow control.
//!
//! The crate's pieces:
//!
//! * [`taxonomy`] — the five-parameter design space (Table 2) as types,
//! * [`ni`] — the seven NI models (CM-5, UDMA, AP3000, StarT-JR, Memory
//!   Channel, `CNI_512Q`, `CNI_32Q_m`) plus the single-cycle and
//!   throttled variants, the coalescing extension and three modern
//!   designs, each one row of the [`NiKind::spec`] registry,
//! * [`node`] — the per-node hardware (bus/cache/memories) and coherent
//!   access primitives,
//! * [`machine`] — the N-node machine, flow control, and event logic,
//! * [`id_window`] — the per-node map of in-flight fragments and
//!   transfers, found by id offset,
//! * [`process`] — the Tempest-style active-message workload interface,
//! * [`accounting`] — the compute / data transfer / buffering / idle
//!   execution-time decomposition of Figure 1,
//! * [`config`] / [`costs`] — Table 3 parameters and the calibrated
//!   messaging-software cost model,
//! * [`error`] — the typed protocol-violation channel and the stall
//!   diagnostics produced by the no-progress watchdog.
//!
//! # Quickstart
//!
//! Run a two-node ping workload on the `CNI_32Q_m` design: node 0's
//! program is one send, node 1 only handles arrivals (50 ns each).
//!
//! ```
//! use nisim_engine::Dur;
//! use nisim_core::{Machine, MachineConfig, NiKind};
//! use nisim_core::process::{Action, Process, Script, SendSpec};
//! use nisim_net::NodeId;
//!
//! let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(2);
//! let report = Machine::run(cfg, |id| -> Box<dyn Process> {
//!     if id.0 == 0 {
//!         let ping = Action::Send(SendSpec::new(NodeId(1), 64, 0));
//!         Box::new(Script::new([ping], Dur::ZERO))
//!     } else {
//!         Box::new(Script::sink(Dur::ns(50)))
//!     }
//! });
//! assert_eq!(report.app_messages, 1);
//! assert!(report.elapsed > Dur::ZERO);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::wildcard_enum_match_arm)]

pub mod accounting;
pub mod config;
pub mod costs;
pub mod error;
pub mod event;
pub mod id_window;
pub mod machine;
pub mod ni;
pub mod node;
pub mod process;
pub mod processor;
pub mod snapshot;
pub mod taxonomy;

pub use accounting::{TimeCategory, TimeLedger};
pub use config::MachineConfig;
pub use costs::CostModel;
pub use error::{EndpointSnapshot, ProtocolViolation, StallReason, StallReport, Violation};
pub use event::MachineEvent;
pub use machine::{
    Machine, MachineReport, MachineSim, NodeSummary, TenantSummary, TraceEvent, TraceKind,
    MAX_NODES, RUN_HORIZON, RUN_MAX_EVENTS,
};
pub use ni::{NiClass, NiKind, NiModel, NiUnit};
pub use node::{Node, NodeHw};
pub use process::{Action, AppMessage, HandlerSpec, Process, Script, SendSpec};
pub use snapshot::{config_fingerprint, SnapshotError, SNAPSHOT_VERSION};
pub use taxonomy::NiDescriptor;
