//! Message-lifecycle tracing: follow individual network fragments through
//! send → inject → accept/reject → drain → handler, on two contrasting
//! NI designs, using the machine's built-in trace recorder.
//!
//! Run with:
//! ```text
//! cargo run --release -p nisim-examples --bin message_timeline
//! ```

use nisim_core::process::{Action, Process, Script, SendSpec};
use nisim_core::{Machine, MachineConfig, NiKind, TraceKind};
use nisim_engine::Dur;
use nisim_net::{BufferCount, NodeId};

fn show(kind: NiKind, buffers: BufferCount) {
    println!("--- {} (flow-control buffers = {buffers}) ---", kind.name());
    let cfg = MachineConfig::with_ni(kind).nodes(2).flow_buffers(buffers);
    // Node 0 fires a burst of eight messages; node 1 consumes them.
    let (report, trace) = Machine::run_traced(cfg, |id| -> Box<dyn Process> {
        if id.0 == 0 {
            let burst = Action::Send(SendSpec::new(NodeId(1), 64, 0));
            Box::new(Script::new(std::iter::repeat_n(burst, 8), Dur::ZERO))
        } else {
            Box::new(Script::sink(Dur::ZERO))
        }
    });
    for e in trace.iter().filter(|e| e.msg.0 < 2) {
        let what = match e.kind {
            TraceKind::SendStart => "send start",
            TraceKind::Inject => "inject",
            TraceKind::Accept => "accept",
            TraceKind::Reject => "REJECT",
            TraceKind::Drain => "drain",
            TraceKind::Handler => "handler",
            TraceKind::Ack => "ack at sender",
            TraceKind::Return => "RETURN at sender",
            TraceKind::Retry => "retry",
            TraceKind::Retransmit => "RETRANSMIT",
            TraceKind::WireDrop => "DROPPED on wire",
            TraceKind::DupDiscard => "duplicate discarded",
            TraceKind::CorruptDiscard => "corrupt discarded",
        };
        println!(
            "  t={:>6} ns  msg {}  {:<16} @ {}",
            e.at.as_ns(),
            e.msg.0,
            what,
            e.node
        );
    }
    println!(
        "  ({} fragments, {} rejects, elapsed {} ns)\n",
        report.fragments_sent,
        report.recv_rejects,
        report.elapsed.as_ns()
    );
}

fn main() {
    println!("Lifecycle of the first two fragments of an 8-message burst:\n");
    show(NiKind::Cm5, BufferCount::Finite(1));
    show(NiKind::Cni32Qm, BufferCount::Finite(1));
    println!(
        "With one buffer the CM-5-like NI is ack-gated: each send start waits\n\
         for the previous message's ack, and its uncached word loops make every\n\
         stage slow. The coherent NI's stages are several times quicker and its\n\
         acks arrive at deposit time, so the burst pipelines."
    );
}
