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
    if let Some(path) = &args.json {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
    let golden = golden_path();
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
            println!("golden grid matches {}", golden.display());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "golden grid DRIFTED from {} — inspect the diff and rerun\n\
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
