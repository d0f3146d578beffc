//! Writing a custom workload against the public API: a work-stealing-like
//! task diffusion pattern that is not one of the paper's seven apps.
//!
//! Each node starts with a pile of tasks; finishing a task occasionally
//! spawns one on a random peer. The example shows the `Skeleton` trait,
//! handler replies, and report inspection.
//!
//! Run with:
//! ```text
//! cargo run --release -p nisim-examples --bin custom_workload
//! ```

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, SendSpec};
use nisim_core::{Machine, MachineConfig, NiKind, TimeCategory};
use nisim_engine::{Dur, SplitMix64, Time};
use nisim_net::NodeId;
use nisim_workloads::skeleton::{skeleton_factory, Skeleton, Step};

const TAG_TASK: u32 = 77;

/// Tasks each node starts with: one per iteration of its program.
const TASKS: u32 = 200;

struct Diffusion {
    me: NodeId,
    nodes: u32,
    rng: SplitMix64,
}

impl Skeleton for Diffusion {
    fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
        // Work on a task, then sometimes push a spawned task to a peer.
        steps.push_back(if self.rng.gen_bool(0.3) {
            let mut dst = self.me;
            while dst == self.me {
                dst = NodeId(self.rng.gen_range(self.nodes as u64) as u32);
            }
            Step::Send(SendSpec::new(dst, 32, TAG_TASK))
        } else {
            Step::Compute(Dur::us(2))
        });
    }

    fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        debug_assert_eq!(msg.tag, TAG_TASK);
        // Execute the spawned task inside the handler.
        HandlerSpec::compute(Dur::us(1))
    }
}

fn main() {
    println!("Custom workload: task diffusion on two NI designs\n");
    for kind in [NiKind::Ap3000, NiKind::Cni32Qm] {
        let cfg = MachineConfig::with_ni(kind).nodes(8);
        let nodes = cfg.nodes;
        let seed = cfg.seed;
        let report = Machine::run(
            cfg,
            skeleton_factory(nodes, TASKS, move |id| Diffusion {
                me: id,
                nodes,
                rng: SplitMix64::new(seed ^ id.0 as u64),
            }),
        );
        assert!(report.all_quiescent, "diffusion must finish");
        println!(
            "{:<22} elapsed {:>6} us, {} messages, idle {:.1}%",
            kind.name(),
            report.elapsed.as_ns() / 1_000,
            report.app_messages,
            100.0 * report.fraction(TimeCategory::Idle),
        );
    }
}
