//! # nisim-engine
//!
//! A small, deterministic discrete-event simulation engine used by the
//! `nisim` network-interface design study (a reproduction of Mukherjee &
//! Hill, *The Impact of Data Transfer and Buffering Alternatives on Network
//! Interface Design*, HPCA 1998).
//!
//! The engine is deliberately generic: it knows nothing about processors,
//! buses, or network interfaces. It provides:
//!
//! * [`Time`] and [`Dur`] — integer-nanosecond simulated time,
//! * [`Sim`] — an event scheduler with deterministic tie-breaking (FIFO
//!   among events scheduled for the same instant), backed by a rolling
//!   window of nanosecond slots ([`wheel`]) over typed events ([`Event`]),
//! * [`SplitMix64`] — a tiny seedable PRNG for deterministic workloads,
//! * [`stats`] — counters, histograms and online summary statistics used
//!   for experiment reporting,
//! * [`json`] — a dependency-free JSON value type with a deterministic
//!   serializer, used for machine-readable sweep results,
//! * [`codec`] — the checkpoint state codec over [`Json`]: one
//!   [`codec::Codec`] trait and the [`state_fields!`] field lists,
//! * [`metrics`] — per-component cycle accounting and exactly-mergeable
//!   log2 latency histograms (observational only; off by default),
//! * [`trace`] — a Chrome-trace-viewable JSONL span sink for the
//!   metrics layer.
//!
//! # Example
//!
//! ```
//! use nisim_engine::{Sim, Time, Dur};
//!
//! // The model can be any type; here a simple counter.
//! let mut model = 0u64;
//! let mut sim: Sim<u64> = Sim::new();
//! sim.schedule_in(Dur::ns(5), |m: &mut u64, sim| {
//!     *m += 1;
//!     // Events may schedule further events.
//!     sim.schedule_in(Dur::ns(10), |m: &mut u64, _| *m += 10);
//! });
//! sim.run(&mut model);
//! assert_eq!(model, 11);
//! assert_eq!(sim.now(), Time::from_ns(15));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod codec;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

mod sim;

pub use json::Json;
pub use rng::SplitMix64;
pub use sim::{ClosureEvent, Event, ScheduleError, Sim, SimStatus};
pub use time::{Dur, Time};
