//! `barnes` — Barnes-Hut hierarchical N-body skeleton.
//!
//! The paper's barnes communicates *irregularly between all processors*
//! through Tempest's default shared-memory protocol: tree-walk requests
//! to whichever node owns the needed body/cell, answered with tree-node
//! data. Table 4: 12 B 67 %, 16 B 4 %, 140 B 29 %.
//!
//! The skeleton issues windows of requests to uniformly random peers
//! (the tree ownership is effectively random for a skeleton), keeping a
//! few outstanding at once, with responder-chosen reply sizes matching
//! the Table 4 mix.

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, SendSpec};
use nisim_engine::{Dur, SplitMix64, Time};
use nisim_net::NodeId;

use super::AppParams;
use crate::skeleton::{Skeleton, Step};

/// Tag of a tree-walk request (12 B wire).
pub const TAG_REQ: u32 = 20;
/// Tag of a reply (140 B cell data, 12 B ack, or 16 B summary).
pub const TAG_RESP: u32 = 21;

/// Per-node barnes skeleton state.
pub struct Barnes {
    me: NodeId,
    nodes: u32,
    params: AppParams,
    rng: SplitMix64,
    expected_responses: u32,
    responses: u32,
}

impl Barnes {
    pub(super) fn new(node: NodeId, nodes: u32, seed: u64, params: AppParams) -> Barnes {
        Barnes {
            me: node,
            nodes,
            params,
            rng: SplitMix64::new(seed ^ (0xBA_12 + node.0 as u64)),
            expected_responses: 0,
            responses: 0,
        }
    }

    fn random_peer(&mut self) -> NodeId {
        loop {
            let n = NodeId(self.rng.gen_range(self.nodes as u64) as u32);
            if n != self.me {
                return n;
            }
        }
    }
}

impl Skeleton for Barnes {
    /// One iteration: bursts of tree-walk requests to random owners
    /// (window of `intensity` outstanding), wait for replies, barrier.
    fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
        let windows = 4;
        let per_window = self.params.intensity;
        let total = windows * per_window;
        let chunk = Dur::ns(self.params.compute.as_ns() / windows.max(1) as u64);
        self.expected_responses = total;
        self.responses = 0;
        for _ in 0..windows {
            steps.push_back(Step::Compute(chunk));
            for _ in 0..per_window {
                let dst = self.random_peer();
                steps.push_back(Step::Send(SendSpec::new(dst, 4, TAG_REQ)));
            }
        }
        steps.push_back(Step::WaitUntilReady);
        steps.push_back(Step::Barrier);
    }

    fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        match msg.tag {
            TAG_REQ => {
                // Reply mix calibrated to Table 4: with requests at 12 B
                // making up half the traffic, replies are 140 B cell data
                // 58 % (-> 29 % overall), 12 B acks 34 % (-> 67 % overall
                // with requests and barrier traffic), 16 B summaries 8 %.
                let x = self.rng.gen_f64();
                let payload = if x < 0.58 {
                    132
                } else if x < 0.92 {
                    4
                } else {
                    8
                };
                HandlerSpec::reply(Dur::ns(1200), SendSpec::new(msg.src, payload, TAG_RESP))
            }
            TAG_RESP => {
                self.responses += 1;
                HandlerSpec::compute(Dur::ns(700))
            }
            other => unreachable!("barnes got unexpected tag {other}"),
        }
    }

    fn ready_to_proceed(&self) -> bool {
        self.responses >= self.expected_responses
    }
}

#[cfg(test)]
mod tests {

    use crate::apps::MacroApp;
    use nisim_core::{MachineConfig, NiKind};

    #[test]
    fn message_sizes_match_table4_modes() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let r = crate::apps::run_app(MacroApp::Barnes, &cfg, &MacroApp::Barnes.default_params());
        let h = &r.msg_sizes;
        assert!(
            (0.55..=0.78).contains(&h.fraction_of(12)),
            "12 B fraction {} (paper: 0.67)",
            h.fraction_of(12)
        );
        assert!(
            (0.18..=0.4).contains(&h.fraction_of(140)),
            "140 B fraction {} (paper: 0.29)",
            h.fraction_of(140)
        );
        assert!(h.fraction_of(16) > 0.0 && h.fraction_of(16) < 0.12);
    }

    #[test]
    fn traffic_is_irregular_not_ring() {
        // With 16 nodes and random peers, many distinct pairs talk.
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(16);
        let r = crate::apps::run_app(MacroApp::Barnes, &cfg, &MacroApp::Barnes.default_params());
        // Sanity: substantial traffic happened and completed.
        assert!(r.app_messages > 1000);
        assert!(r.all_quiescent);
    }

    #[test]
    fn average_size_in_paper_range() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let r = crate::apps::run_app(MacroApp::Barnes, &cfg, &MacroApp::Barnes.default_params());
        let avg = r.msg_sizes.mean();
        assert!(
            (19.0..=230.0).contains(&avg),
            "avg {avg} outside the paper's 19-230 B range"
        );
    }
}
