//! Reproducing the paper's buffering insight interactively: sweep the
//! flow-control buffer count for one NI on the bursty em3d workload and
//! watch returns, stalls and execution time react.
//!
//! Run with:
//! ```text
//! cargo run --release -p nisim-examples --bin buffering_study [ni]
//! ```
//! where `ni` is any NI key `nisim list` shows (default `cm5`).

use nisim_core::{MachineConfig, NiKind, TimeCategory};
use nisim_net::BufferCount;
use nisim_workloads::apps::{run_app, MacroApp};

fn main() {
    let ni = std::env::args()
        .nth(1)
        .and_then(|key| NiKind::from_key(&key))
        .unwrap_or(NiKind::Cm5);
    let app = MacroApp::Em3d;
    println!("Buffering study: {app} on the {}\n", ni.name());
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "buffers", "elapsed", "buffering", "returns", "stalls", "retries"
    );
    let levels = [
        BufferCount::Finite(1),
        BufferCount::Finite(2),
        BufferCount::Finite(4),
        BufferCount::Finite(8),
        BufferCount::Finite(32),
        BufferCount::Infinite,
    ];
    for b in levels {
        let cfg = MachineConfig::with_ni(ni).flow_buffers(b);
        let r = run_app(app, &cfg, &app.default_params());
        println!(
            "{:>8} {:>8} us {:>8.1}% {:>9} {:>9} {:>9}",
            b.to_string(),
            r.elapsed.as_ns() / 1_000,
            100.0 * r.fraction(TimeCategory::Buffering),
            r.recv_rejects,
            r.send_stalls,
            r.retries,
        );
    }
    println!(
        "\nThe coherent NIs free their flow-control buffers at deposit time\n\
         (NI-managed buffering in plentiful memory), so try `cni32qm` to see\n\
         the sweep go flat — the paper's Figure 3b."
    );
}
