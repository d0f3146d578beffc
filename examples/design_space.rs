//! Design-space exploration: sweep every NI design over one
//! macrobenchmark and report execution time, bus traffic and the
//! time decomposition — the library's core use case.
//!
//! Run with:
//! ```text
//! cargo run --release -p nisim-examples --bin design_space [app]
//! ```
//! where `app` is one of appbt, barnes, dsmc, em3d, moldyn, spsolve,
//! unstructured (default em3d).

use nisim_core::{MachineConfig, NiKind, TimeCategory};
use nisim_workloads::apps::{run_app, MacroApp};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "em3d".into());
    let app = MacroApp::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown app {name:?}; using em3d");
            MacroApp::Em3d
        });
    println!("Design-space sweep on {app} (16 nodes, 8 flow-control buffers)\n");
    println!(
        "{:<24} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "NI", "elapsed", "compute", "transfer", "buffering", "bus txns"
    );
    for kind in NiKind::TABLE2 {
        let cfg = MachineConfig::with_ni(kind);
        let r = run_app(app, &cfg, &app.default_params());
        println!(
            "{:<24} {:>8} us {:>8.1}% {:>8.1}% {:>8.1}% {:>9}",
            kind.name(),
            r.elapsed.as_ns() / 1_000,
            100.0 * r.fraction(TimeCategory::Compute),
            100.0 * r.fraction(TimeCategory::DataTransfer),
            100.0 * r.fraction(TimeCategory::Buffering),
            r.bus_transactions,
        );
    }
}
