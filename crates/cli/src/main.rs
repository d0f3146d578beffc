//! `nisim` — command-line front end for the NI design-space simulator.
//!
//! ```text
//! nisim list
//! nisim rtt --ni cni32qm --payload 64
//! nisim bw  --ni ap3000  --payload 4096
//! nisim run --app em3d --ni cm5 --buffers 2 --nodes 16 --topology ring
//! nisim sweep --app unstructured
//! nisim exp fig3a --jobs 8 --json fig3a.json
//! nisim exp goldens                  # exit 1 on drift
//! ```

use nisim_cli::{main_with_args, CliError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_with_args(&args) {
        Ok(output) => print!("{output}"),
        Err(CliError::Failed { output, msg }) => {
            print!("{output}");
            eprintln!("{msg}");
            std::process::exit(1);
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", nisim_cli::usage());
            std::process::exit(2);
        }
    }
}
