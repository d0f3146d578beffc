//! `moldyn` — molecular dynamics (CHARMM-like non-bonded force) skeleton.
//!
//! The paper's moldyn communicates mainly through a *custom bulk
//! reduction protocol*: in each of P reduction rounds a processor sends
//! 1.5 KB to its ring neighbour through Tempest virtual channels.
//! Table 4: 12 B control 65 %, 140 B chunks 27 %, 3084 B bulk 2 %, 8 B
//! 5 %.
//!
//! The skeleton's iteration is a ring reduction: a bulk 3 KB message plus
//! a stream of 140 B chunks to the ring successor, paced by 12 B
//! credit/control messages, then a barrier.

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, Process, SendSpec};
use nisim_engine::{Dur, Time};
use nisim_net::NodeId;

use super::AppParams;
use crate::skeleton::{Skeleton, SkeletonProcess, Step};

/// Tag of a bulk reduction payload (3084 B wire).
pub const TAG_BULK: u32 = 50;
/// Tag of a 140 B reduction chunk.
pub const TAG_CHUNK: u32 = 51;
/// Tag of a 12 B control/credit message.
pub const TAG_CTRL: u32 = 52;
/// Tag of an 8 B (header-only) channel probe.
pub const TAG_PROBE: u32 = 53;

/// Per-node moldyn skeleton state.
pub struct Moldyn {
    successor: NodeId,
    params: AppParams,
    iters_left: u32,
    steps: VecDeque<Step>,
    /// Bulk messages received this iteration (reduction arrival).
    bulks_received: u32,
    bulks_expected: u32,
}

impl Moldyn {
    fn new(node: NodeId, nodes: u32, params: AppParams) -> Moldyn {
        Moldyn {
            successor: NodeId((node.0 + 1) % nodes),
            params,
            iters_left: params.iterations,
            steps: VecDeque::new(),
            bulks_received: 0,
            bulks_expected: 0,
        }
    }

    /// One reduction round: force computation, control traffic, the
    /// chunked + bulk transfer to the ring successor, wait for our own
    /// predecessor's bulk, then the iteration barrier.
    ///
    /// Message mix per round and node: 1×3084 B, 13×140 B, 33×12 B,
    /// 2×8 B — the Table 4 proportions (≈2 %/27 %/65 %/4 %).
    fn refill(&mut self) {
        let rounds = self.params.intensity;
        // A fast predecessor's next-round bulks can arrive before this
        // node leaves the barrier: carry them over instead of zeroing.
        self.bulks_received -= self.bulks_expected;
        self.bulks_expected = rounds;
        let chunk = Dur::ns(self.params.compute.as_ns() / rounds.max(1) as u64 / 2);
        for _ in 0..rounds {
            self.steps.push_back(Step::Compute(chunk));
            let dst = self.successor;
            for _ in 0..2 {
                self.steps
                    .push_back(Step::Send(SendSpec::new(dst, 0, TAG_PROBE)));
            }
            // Credit/control messages interleaved with the chunk stream.
            for k in 0..33u32 {
                self.steps
                    .push_back(Step::Send(SendSpec::new(dst, 4, TAG_CTRL)));
                if k % 3 == 0 && k / 3 < 13 {
                    self.steps
                        .push_back(Step::Send(SendSpec::new(dst, 132, TAG_CHUNK)));
                }
            }
            self.steps
                .push_back(Step::Send(SendSpec::new(dst, 3076, TAG_BULK)));
            self.steps.push_back(Step::Compute(chunk));
        }
        self.steps.push_back(Step::WaitUntilReady);
        self.steps.push_back(Step::Barrier);
    }
}

impl Skeleton for Moldyn {
    fn next_step(&mut self, _now: Time) -> Step {
        if let Some(step) = self.steps.pop_front() {
            return step;
        }
        if self.iters_left == 0 {
            return Step::Done;
        }
        self.iters_left -= 1;
        self.refill();
        self.steps.pop_front().expect("refill produced steps")
    }

    fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        match msg.tag {
            TAG_BULK => {
                self.bulks_received += 1;
                // Fold the received partial forces into the local sum.
                HandlerSpec::compute(Dur::ns(1500))
            }
            TAG_CHUNK => HandlerSpec::compute(Dur::ns(400)),
            TAG_CTRL | TAG_PROBE => HandlerSpec::compute(Dur::ns(100)),
            other => unreachable!("moldyn got unexpected tag {other}"),
        }
    }

    fn ready_to_proceed(&self) -> bool {
        self.bulks_received >= self.bulks_expected
    }
}

/// Machine factory for moldyn.
pub fn factory(
    nodes: u32,
    _seed: u64,
    params: AppParams,
) -> impl FnMut(NodeId) -> Box<dyn Process> {
    move |id| {
        Box::new(SkeletonProcess::new(
            Moldyn::new(id, nodes, params),
            id,
            nodes,
        )) as Box<dyn Process>
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
        let r = crate::apps::run_app(MacroApp::Moldyn, &cfg, &MacroApp::Moldyn.default_params());
        let h = &r.msg_sizes;
        assert!(
            (0.55..=0.75).contains(&h.fraction_of(12)),
            "12 B fraction {} (paper: 0.65)",
            h.fraction_of(12)
        );
        assert!(
            (0.18..=0.36).contains(&h.fraction_of(140)),
            "140 B fraction {} (paper: 0.27)",
            h.fraction_of(140)
        );
        assert!(
            (0.005..=0.05).contains(&h.fraction_of(3084)),
            "3084 B fraction {} (paper: 0.02)",
            h.fraction_of(3084)
        );
        assert!(h.fraction_of(8) > 0.0);
    }

    #[test]
    fn bulk_messages_fragment_on_the_wire() {
        // A 3084 B message is 13 network fragments (<=256 B each), so
        // fragments sent far exceed application messages.
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(4);
        let p = AppParams {
            iterations: 1,
            intensity: 1,
            compute: Dur::us(1),
        };
        let r = crate::apps::run_app(MacroApp::Moldyn, &cfg, &p);
        assert!(r.fragments_sent > r.app_messages);
    }

    #[test]
    fn bulks_arriving_before_the_next_round_count_toward_it() {
        let bulk = AppMessage {
            src: NodeId(1),
            payload_bytes: 3076,
            tag: TAG_BULK,
        };
        let mut m = Moldyn::new(NodeId(2), 8, MacroApp::Moldyn.default_params());
        let rounds = m.params.intensity;
        m.refill();
        // This round's bulks and the first of the next one all arrive
        // before the barrier releases this node.
        for _ in 0..=rounds {
            m.on_app_message(&bulk, Time::ZERO);
        }
        m.refill();
        for _ in 1..rounds {
            m.on_app_message(&bulk, Time::ZERO);
        }
        assert!(m.ready_to_proceed());
    }

    #[test]
    fn reduction_is_ring_ordered() {
        let m = Moldyn::new(NodeId(3), 4, MacroApp::Moldyn.default_params());
        assert_eq!(m.successor, NodeId(0));
    }
}
