//! Regenerates (or checks) the committed golden grid that the
//! shape-regression suite pins.
//!
//! - `goldens --update-goldens` reruns every golden sweep and rewrites
//!   `tests/goldens/golden_grid.json`.
//! - `goldens` alone reruns the suite and byte-compares against the
//!   committed file, exiting non-zero on drift.
//! - `--json <path>` additionally writes the freshly computed document
//!   wherever you like; `--jobs <n>` bounds the worker threads.
use std::process::ExitCode;

use nisim_bench::{golden_document, golden_path, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let doc = golden_document(args.jobs);
    let text = doc.to_pretty();
    args.check_golden(&text, &golden_path(), "golden grid")
}
