//! Kill-and-resume chaos suite: runs the checkpoint/restore
//! differential over the chaos grid and regenerates (or checks) the
//! committed `tests/goldens/golden_chaos.json`.
//!
//! - `chaos` alone runs every grid point's kill-and-resume differential
//!   (failing on any divergence) and byte-compares the resulting
//!   document against the committed golden, exiting non-zero on drift.
//! - `chaos --update-goldens` rewrites the committed file instead.
//! - `--json <path>` additionally writes the fresh document there.
use std::process::ExitCode;

use nisim_bench::chaos::{chaos_document, chaos_path};
use nisim_bench::BenchArgs;

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let doc = match chaos_document() {
        Ok(doc) => doc,
        Err(msg) => {
            eprintln!("chaos differential FAILED: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let text = doc.to_pretty();
    args.check_golden(
        &text,
        &chaos_path(),
        "kill-and-resume differential passed; chaos golden",
    )
}
