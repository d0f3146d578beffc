//! `dsmc` — discrete simulation Monte Carlo skeleton.
//!
//! The paper's dsmc moves particles between processors after every
//! iteration with fine-grain *one-way* active messages in a
//! producer/consumer pattern. Table 4: 12 B 45 %, 44 B 25 %, 140 B 26 %
//! — single particles, small batches, and larger batches.

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, SendSpec};
use nisim_engine::{Dur, SplitMix64, Time};
use nisim_net::NodeId;

use super::AppParams;
use crate::skeleton::{Skeleton, Step};

/// Tag of a particle-batch message.
pub const TAG_PARTICLES: u32 = 30;

/// Per-node dsmc skeleton state.
pub struct Dsmc {
    me: NodeId,
    nodes: u32,
    params: AppParams,
    rng: SplitMix64,
}

impl Dsmc {
    pub(super) fn new(node: NodeId, nodes: u32, seed: u64, params: AppParams) -> Dsmc {
        Dsmc {
            me: node,
            nodes,
            params,
            rng: SplitMix64::new(seed ^ (0xD5_3C + node.0 as u64)),
        }
    }

    /// Particle batches mostly go to spatial neighbours (ring-adjacent
    /// cells), occasionally further.
    fn pick_consumer(&mut self) -> NodeId {
        let hop = if self.rng.gen_bool(0.8) {
            1 + self.rng.gen_range(2)
        } else {
            1 + self.rng.gen_range((self.nodes - 1) as u64)
        };
        NodeId(((self.me.0 as u64 + hop) % self.nodes as u64) as u32)
    }

    /// Table 4 batch mix: 12 B (4 B payload) single particles 46 %, 44 B
    /// (36 B) small batches 26 %, 140 B (132 B) large batches 28 %.
    fn batch_payload(&mut self) -> u64 {
        let x = self.rng.gen_f64();
        if x < 0.46 {
            4
        } else if x < 0.72 {
            36
        } else {
            132
        }
    }
}

impl Skeleton for Dsmc {
    /// One iteration: collision computation, then a migration phase that
    /// streams particle batches to consumers, then a barrier (the paper's
    /// per-iteration particle exchange).
    fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
        let batches = self.params.intensity * 3;
        let chunk = Dur::ns(self.params.compute.as_ns() / 2);
        steps.push_back(Step::Compute(chunk));
        for _ in 0..batches {
            let dst = self.pick_consumer();
            let payload = self.batch_payload();
            steps.push_back(Step::Send(SendSpec::new(dst, payload, TAG_PARTICLES)));
        }
        steps.push_back(Step::Compute(chunk));
        steps.push_back(Step::Barrier);
    }

    fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        debug_assert_eq!(msg.tag, TAG_PARTICLES);
        // Insert the received particles into local cells: cost scales
        // with batch size.
        HandlerSpec::compute(Dur::ns(800 + msg.payload_bytes * 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::MacroApp;
    use nisim_core::{MachineConfig, NiKind};

    #[test]
    fn message_sizes_match_table4_modes() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let r = crate::apps::run_app(MacroApp::Dsmc, &cfg, &MacroApp::Dsmc.default_params());
        let h = &r.msg_sizes;
        assert!(
            (0.35..=0.6).contains(&h.fraction_of(12)),
            "12 B fraction {} (paper: 0.45)",
            h.fraction_of(12)
        );
        assert!(
            (0.15..=0.35).contains(&h.fraction_of(44)),
            "44 B fraction {} (paper: 0.25)",
            h.fraction_of(44)
        );
        assert!(
            (0.15..=0.35).contains(&h.fraction_of(140)),
            "140 B fraction {} (paper: 0.26)",
            h.fraction_of(140)
        );
    }

    #[test]
    fn one_way_traffic_no_responses() {
        // dsmc is producer/consumer: messages sent equals batches plus
        // barrier traffic; nothing is echoed.
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(8);
        let p = AppParams {
            iterations: 2,
            intensity: 4,
            compute: Dur::us(1),
        };
        let r = crate::apps::run_app(MacroApp::Dsmc, &cfg, &p);
        let batches = 8 * 2 * (4 * 3) as u64;
        let barrier = 2 * 2 * 7;
        assert_eq!(r.app_messages, batches + barrier);
    }
}
