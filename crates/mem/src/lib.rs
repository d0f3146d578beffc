//! # nisim-mem
//!
//! Memory-system substrate for the `nisim` network-interface design study:
//! a MOESI-coherent, snooping **memory bus** timing model plus the cache and
//! memory devices that sit on it.
//!
//! The study's machine (Table 3 of the paper) has, per node:
//!
//! * a 1 MB direct-mapped processor cache with 64-byte blocks,
//! * a 256-bit, 250 MHz snooping memory bus with a MOESI protocol,
//! * 120 ns main memory,
//! * 60 ns dedicated NI memory (120 ns for the large `CNI_512Q` queue RAM).
//!
//! Timing uses *resource reservation*: a bus transaction reserves the bus
//! from `max(request, bus_free)` for its occupancy and the model computes
//! the completion time in one call, rather than simulating every bus cycle.
//! This preserves the two properties the paper's conclusions rest on —
//! block transfers amortise per-transaction control overhead, and processor
//! and NI traffic contend for the same bus — at a fraction of the cost of a
//! cycle-accurate model.
//!
//! # Example
//!
//! ```
//! use nisim_engine::Time;
//! use nisim_mem::{Bus, BusConfig, BusOp, Cache, CacheConfig, Addr};
//!
//! let mut bus = Bus::new(BusConfig::default());
//! let g1 = bus.acquire(Time::ZERO, BusOp::BlockRead);
//! let g2 = bus.acquire(Time::ZERO, BusOp::BlockRead);
//! assert!(g2.start >= g1.end); // second transaction queues behind the first
//!
//! let mut cache = Cache::new(CacheConfig::default());
//! let block = cache.geometry().block_of(Addr::new(0x1040));
//! assert!(!cache.contains(block));
//! ```

#![deny(clippy::wildcard_enum_match_arm)]

pub mod addr;
pub mod bus;
pub mod cache;
pub mod memory;
pub mod moesi;

pub use addr::{Addr, BlockAddr, BlockGeometry};
pub use bus::{Bus, BusConfig, BusGrant, BusMetrics, BusOp, BusStats};
pub use cache::{Cache, CacheConfig, CacheMetrics, CacheStats, Eviction};
pub use memory::{MemoryDevice, MemoryKind};
pub use moesi::{
    read_fill_state, snoop_transition, write_hit_transition, MoesiState, SnoopAction, SnoopKind,
};
