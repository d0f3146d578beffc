//! # nisim-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! Mukherjee & Hill (HPCA 1998), plus the extension studies. Each one is
//! a row of [`exp::EXPERIMENTS`] that prints its table or figure in the
//! paper's row/series layout; the rest of this library holds the sweeps
//! and folds those rows share with the integration tests and the
//! benchmark.
//!
//! Run the full reproduction through the CLI:
//!
//! ```text
//! cargo run --release -p nisim-cli --bin nisim -- list          # every experiment
//! cargo run --release -p nisim-cli --bin nisim -- exp table1
//! cargo run --release -p nisim-cli --bin nisim -- exp table5 --jobs 8 --json table5.json
//! cargo run --release -p nisim-cli --bin nisim -- exp fig3a
//! cargo run --release -p nisim-cli --bin nisim -- exp goldens   # non-zero exit on drift
//! ```

pub mod chaos;
pub mod exp;
pub mod experiments;
pub mod fmt;
pub mod harness;
pub mod loadlat;
pub mod record;

pub use experiments::*;
pub use harness::{default_jobs, parallel_map, Patch, Sweep, SweepPoint, Work};
pub use loadlat::{
    curves_from_records, incast_sweep, loadlat_golden_path, loadlat_sweep, mixes_sweep, LoadCurve,
    LOADLAT_NIS,
};
pub use record::RunRecord;
