//! Quickstart: simulate a two-node ping-pong on two NI designs and print
//! the round-trip latencies — the `nisim` equivalent of "hello, world".
//!
//! Run with:
//! ```text
//! cargo run --release -p nisim-examples --bin quickstart
//! ```

use nisim_core::{MachineConfig, NiKind};
use nisim_workloads::micro::pingpong::measure_round_trip;

fn main() {
    println!("nisim quickstart: 64-byte round trips on two NI designs\n");
    for kind in [NiKind::Cm5, NiKind::Cni32Qm] {
        let cfg = MachineConfig::with_ni(kind);
        let (r, _) = measure_round_trip(&cfg, 64).expect("the ping-pong drains");
        println!(
            "{:<22} mean {:.2} us   (min {:.2}, max {:.2}, {} samples)",
            kind.name(),
            r.mean_us,
            r.min_us,
            r.max_us,
            r.samples
        );
    }
    println!(
        "\nThe coherent NI wins by moving whole cache blocks, avoiding\n\
         uncached word accesses, and letting the NI manage the transfer —\n\
         the paper's three data-transfer parameters in action."
    );
}
