//! # nisim-workloads
//!
//! Micro- and macrobenchmark workloads for the `nisim` NI design study.
//!
//! * [`micro`] — the two-node microbenchmarks, each one
//!   [`micro::run_pair`] call: the §6.1 process-to-process round-trip
//!   latency and streaming bandwidth (Table 5), LogP, the connection
//!   sweep and the strided exchange,
//! * [`apps`] — communication skeletons of the seven §5.2
//!   macrobenchmarks (appbt, barnes, dsmc, em3d, moldyn, spsolve,
//!   unstructured), parameterised by the paper's Table 4 message-size
//!   distributions and communication patterns; each app's name, default
//!   parameters, Table 4 modes and constructor are one registry row,
//!   [`MacroApp::spec`],
//! * [`skeleton`] — the shared workload framework: one program loop
//!   that queues a skeleton's steps an iteration at a time, and a real
//!   message-based barrier,
//! * [`traffic`] — the open-loop traffic engine: seeded Poisson/MMPP
//!   arrival processes, uniform/permutation/incast destination
//!   patterns, and multi-tenant mixes, with per-tenant tail-latency
//!   histograms (the load/latency hockey-stick study).
//!
//! The applications are *skeletons*: they reproduce each application's
//! communication pattern (who talks to whom, how often, in what sizes and
//! bursts, with how much computation in between) rather than its numerics
//! — which is what the paper's NI comparisons are sensitive to. See
//! DESIGN.md §2 for the substitution argument.

pub mod apps;
pub mod micro;
pub mod skeleton;
pub mod synthetic;
pub mod traffic;

pub use apps::{run_app, AppParams, MacroApp};
pub use micro::bandwidth::{measure_bandwidth, BandwidthResult};
pub use micro::connsweep::{measure_conn_sweep, ConnSweepResult, SWEEP_ENDPOINTS};
pub use micro::pingpong::{measure_round_trip, RoundTripResult};
pub use micro::strided::{measure_strided, StridedResult, StridedStrategy};
pub use skeleton::{Skeleton, SkeletonProcess, Step};
pub use synthetic::{run_synthetic, Locality, SyntheticParams};
pub use traffic::{
    arrival_schedule, multi_tenant_params, run_traffic, ArrivalProcess, TenantSpec, TrafficDriver,
    TrafficKind, TrafficParams, TrafficPattern, TrafficSpec, MAX_LOAD_LEVEL,
};
