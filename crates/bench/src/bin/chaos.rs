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
    if let Some(path) = &args.json {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    let golden = chaos_path();
    if args.update_goldens {
        if let Some(dir) = golden.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
        std::fs::write(&golden, &text)
            .unwrap_or_else(|e| panic!("writing {}: {e}", golden.display()));
        println!("updated {}", golden.display());
        return ExitCode::SUCCESS;
    }
    match std::fs::read_to_string(&golden) {
        Ok(committed) if committed == text => {
            println!(
                "kill-and-resume differential passed; chaos golden matches {}",
                golden.display()
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "chaos golden DRIFTED from {} — inspect the diff and rerun\n\
                 with --update-goldens if the change is intended",
                golden.display()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!(
                "cannot read {} ({e}); run with --update-goldens to create it",
                golden.display()
            );
            ExitCode::FAILURE
        }
    }
}
