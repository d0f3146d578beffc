//! `em3d` — 3-D electromagnetic wave propagation skeleton.
//!
//! The paper's em3d iterates over a bipartite graph, each node sending
//! two integers per edge to its graph neighbours through a custom update
//! protocol; *several update messages can be in flight*, creating the
//! bursty traffic that makes em3d one of the two buffering-bound
//! applications (Figures 1 and 3a). Table 4: 20 B updates 98 %, 12 B
//! control 2 %.
//!
//! The skeleton fixes a random bipartite neighbour set per node at
//! construction (degree 5, like the paper's input) and fires all of an
//! iteration's updates back-to-back — no waiting between sends — so the
//! receive side, not the send side, is the bottleneck.

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, SendSpec};
use nisim_engine::codec::{ensure, DecodeError, Fields};
use nisim_engine::{Dur, Json, SplitMix64, Time};
use nisim_net::NodeId;

use super::AppParams;
use crate::skeleton::{Skeleton, Step};

/// Tag of an edge-update message (12 B payload -> 20 B wire).
pub const TAG_UPDATE: u32 = 40;
/// Graph degree (neighbours per node), per the paper's input set.
pub const DEGREE: usize = 5;

/// Per-node em3d skeleton state.
pub struct Em3d {
    neighbors: Vec<NodeId>,
    params: AppParams,
}

impl Em3d {
    pub(super) fn new(node: NodeId, nodes: u32, seed: u64, params: AppParams) -> Em3d {
        // Fixed random bipartite-ish neighbour set: nodes alternate
        // between the two graph halves by parity.
        let mut rng = SplitMix64::new(seed ^ (0xE3_D0 + node.0 as u64));
        let mut neighbors = Vec::new();
        let mut guard = 0;
        while neighbors.len() < DEGREE.min(nodes as usize - 1) && guard < 1000 {
            guard += 1;
            let cand = NodeId(rng.gen_range(nodes as u64) as u32);
            let other_half = cand.0 % 2 != node.0 % 2;
            if cand != node && (other_half || nodes < 4) && !neighbors.contains(&cand) {
                neighbors.push(cand);
            }
        }
        if neighbors.is_empty() {
            neighbors.push(NodeId((node.0 + 1) % nodes));
        }
        Em3d { neighbors, params }
    }
}

impl Skeleton for Em3d {
    /// One iteration: a short compute phase then a *burst* of updates —
    /// `intensity` messages per edge, sent back-to-back, one neighbour at
    /// a time (all of an edge's updates are consecutive, so a popular
    /// graph node sees sustained many-to-one bursts).
    fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
        steps.push_back(Step::Compute(self.params.compute));
        for &dst in &self.neighbors {
            for _ in 0..self.params.intensity {
                steps.push_back(Step::Send(SendSpec::new(dst, 12, TAG_UPDATE)));
            }
        }
        steps.push_back(Step::Barrier);
    }

    fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        debug_assert_eq!(msg.tag, TAG_UPDATE);
        // Apply the two-integer update to the local graph node.
        HandlerSpec::compute(Dur::ns(120))
    }

    /// Em3d only sends its two-integer updates, to its neighbours.
    fn check_send(&self, spec: &SendSpec) -> Result<(), DecodeError> {
        ensure(
            self.neighbors.contains(&spec.dst) && *spec == SendSpec::new(spec.dst, 12, TAG_UPDATE),
            "a message em3d never sends",
        )
    }

    /// Every queued step is one an iteration makes: the compute phase,
    /// an update to a neighbour, or the barrier.
    fn check_step(&self, step: &Step) -> Result<(), DecodeError> {
        let queued = match step {
            Step::Compute(d) => *d == self.params.compute,
            Step::Send(spec) => self.check_send(spec).is_ok(),
            Step::Barrier => true,
            Step::WaitUntilReady => false,
        };
        ensure(queued, "a step em3d never queues")
    }

    // The neighbour set is a pure function of (node, nodes, seed), and
    // the process keeps the program loop, so em3d keeps no state of its
    // own across a checkpoint.
    fn snapshot(&self) -> Option<Json> {
        Some(Json::obj())
    }

    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        Fields::of(state)?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::MacroApp;
    use nisim_core::{MachineConfig, NiKind};
    use nisim_net::BufferCount;

    #[test]
    fn message_sizes_match_table4_modes() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let r = crate::apps::run_app(MacroApp::Em3d, &cfg, &MacroApp::Em3d.default_params());
        let h = &r.msg_sizes;
        assert!(
            h.fraction_of(20) > 0.9,
            "20 B fraction {} (paper: 0.98)",
            h.fraction_of(20)
        );
        assert!(h.fraction_of(12) > 0.0 && h.fraction_of(12) < 0.1);
    }

    #[test]
    fn bursts_stress_small_buffer_pools() {
        // The paper's key em3d result: tight flow-control buffering hurts
        // badly because updates are bursty.
        let tight = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(16)
            .flow_buffers(BufferCount::Finite(1));
        let loose = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(16)
            .flow_buffers(BufferCount::Infinite);
        let p = MacroApp::Em3d.default_params();
        let rt = crate::apps::run_app(MacroApp::Em3d, &tight, &p);
        let rl = crate::apps::run_app(MacroApp::Em3d, &loose, &p);
        assert!(
            rt.elapsed.as_ns() as f64 > 1.1 * rl.elapsed.as_ns() as f64,
            "tight {:?} vs loose {:?}",
            rt.elapsed,
            rl.elapsed
        );
        assert!(rt.retries > 0, "bursts should trigger returns");
    }

    #[test]
    fn neighbor_sets_are_stable_and_cross_parity() {
        let a = Em3d::new(NodeId(3), 16, 42, MacroApp::Em3d.default_params());
        let b = Em3d::new(NodeId(3), 16, 42, MacroApp::Em3d.default_params());
        assert_eq!(a.neighbors, b.neighbors);
        for n in &a.neighbors {
            assert_eq!(n.0 % 2, 0, "node 3's neighbours are in the even half");
        }
    }
}
