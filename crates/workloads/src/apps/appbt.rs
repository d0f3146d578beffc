//! `appbt` — NAS 3-D computational fluid dynamics skeleton.
//!
//! The paper's appbt divides a cube into subcubes, one per processor;
//! each iteration exchanges subcube boundaries with the six grid
//! neighbours through Tempest's invalidation-based shared-memory
//! protocol — i.e. *request/response* traffic on a static near-neighbour
//! topology. Table 4: 12-byte messages (requests, control) 67 %,
//! 32-byte messages (data responses) 32 %.

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, SendSpec};
use nisim_engine::{Dur, SplitMix64, Time};
use nisim_net::NodeId;

use super::AppParams;
use crate::skeleton::{Skeleton, Step};

/// Tag of a boundary-data request (12 B on the wire).
pub const TAG_REQ: u32 = 10;
/// Tag of a response (32 B data or 12 B control acknowledgement).
pub const TAG_RESP: u32 = 11;

/// Factors `n` into three dimensions as balanced as possible.
pub fn grid_dims(n: u32) -> (u32, u32, u32) {
    assert!(n >= 1);
    let mut best = (n, 1, 1);
    let mut best_spread = n;
    for x in 1..=n {
        if !n.is_multiple_of(x) {
            continue;
        }
        let rest = n / x;
        for y in 1..=rest {
            if !rest.is_multiple_of(y) {
                continue;
            }
            let z = rest / y;
            let spread = x.max(y).max(z) - x.min(y).min(z);
            if spread < best_spread {
                best_spread = spread;
                best = (x, y, z);
            }
        }
    }
    best
}

/// The distinct face neighbours of `node` on a wrap-around 3-D grid.
pub fn grid_neighbors(node: u32, dims: (u32, u32, u32)) -> Vec<NodeId> {
    let (dx, dy, dz) = dims;
    let (x, y, z) = (node % dx, (node / dx) % dy, node / (dx * dy));
    let idx = |x: u32, y: u32, z: u32| NodeId(x + y * dx + z * dx * dy);
    let mut out = Vec::new();
    let mut push = |n: NodeId| {
        if n.0 != node && !out.contains(&n) {
            out.push(n);
        }
    };
    push(idx((x + 1) % dx, y, z));
    push(idx((x + dx - 1) % dx, y, z));
    push(idx(x, (y + 1) % dy, z));
    push(idx(x, (y + dy - 1) % dy, z));
    push(idx(x, y, (z + 1) % dz));
    push(idx(x, y, (z + dz - 1) % dz));
    out
}

/// Per-node appbt skeleton state.
pub struct Appbt {
    neighbors: Vec<NodeId>,
    params: AppParams,
    rng: SplitMix64,
    expected_responses: u32,
    responses: u32,
}

impl Appbt {
    pub(super) fn new(node: NodeId, nodes: u32, seed: u64, params: AppParams) -> Appbt {
        let dims = grid_dims(nodes);
        Appbt {
            neighbors: grid_neighbors(node.0, dims),
            params,
            rng: SplitMix64::new(seed ^ (0xA9_B7 + node.0 as u64)),
            expected_responses: 0,
            responses: 0,
        }
    }
}

impl Skeleton for Appbt {
    /// Builds one iteration's program: interleaved compute and boundary
    /// requests to every neighbour, then wait for all responses, then an
    /// iteration barrier.
    fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
        let requests = self.params.intensity * self.neighbors.len() as u32;
        let chunk = Dur::ns(self.params.compute.as_ns() / requests.max(1) as u64);
        self.expected_responses = requests;
        self.responses = 0;
        for k in 0..requests {
            let dst = self.neighbors[(k as usize) % self.neighbors.len()];
            steps.push_back(Step::Compute(chunk));
            // 4 B payload = 12 B on the wire: a boundary-block request.
            steps.push_back(Step::Send(SendSpec::new(dst, 4, TAG_REQ)));
        }
        steps.push_back(Step::WaitUntilReady);
        steps.push_back(Step::Barrier);
    }

    fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        match msg.tag {
            TAG_REQ => {
                // Two thirds of responses carry boundary data (24 B
                // payload -> 32 B wire); the rest are control-only
                // acknowledgements (4 B -> 12 B wire), reproducing the
                // 67/32 split of Table 4.
                let payload = if self.rng.gen_bool(2.0 / 3.0) { 24 } else { 4 };
                HandlerSpec::reply(Dur::ns(1000), SendSpec::new(msg.src, payload, TAG_RESP))
            }
            TAG_RESP => {
                self.responses += 1;
                HandlerSpec::compute(Dur::ns(700))
            }
            other => unreachable!("appbt got unexpected tag {other}"),
        }
    }

    fn ready_to_proceed(&self) -> bool {
        self.responses >= self.expected_responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::MacroApp;
    use nisim_core::{MachineConfig, NiKind};

    #[test]
    fn grid_dims_are_balanced() {
        let sorted = |n: u32| {
            let (x, y, z) = grid_dims(n);
            let mut d = [x, y, z];
            d.sort_unstable();
            (d[0], d[1], d[2])
        };
        assert_eq!(sorted(16), (2, 2, 4));
        assert_eq!(sorted(8), (2, 2, 2));
        assert_eq!(sorted(27), (3, 3, 3));
        let (x, y, z) = grid_dims(12);
        assert_eq!(x * y * z, 12);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let dims = grid_dims(16);
        for a in 0..16u32 {
            for b in grid_neighbors(a, dims) {
                assert!(
                    grid_neighbors(b.0, dims).contains(&NodeId(a)),
                    "asymmetric: {a} -> {b:?}"
                );
            }
        }
    }

    #[test]
    fn message_sizes_match_table4_modes() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let r = crate::apps::run_app(MacroApp::Appbt, &cfg, &MacroApp::Appbt.default_params());
        let h = &r.msg_sizes;
        let f12 = h.fraction_of(12);
        let f32b = h.fraction_of(32);
        assert!(
            (0.55..=0.78).contains(&f12),
            "12 B fraction {f12} (paper: 0.67)"
        );
        assert!(
            (0.2..=0.45).contains(&f32b),
            "32 B fraction {f32b} (paper: 0.32)"
        );
    }

    #[test]
    fn all_nodes_exchange_with_neighbors_only() {
        // Communication volume: requests * 2 (req+resp) * nodes +
        // barrier traffic, all of it delivered.
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(8);
        let p = AppParams {
            iterations: 2,
            intensity: 2,
            compute: nisim_engine::Dur::us(1),
        };
        let r = crate::apps::run_app(MacroApp::Appbt, &cfg, &p);
        // On a 2x2x2 grid +1/-1 coincide, so each node has 3 neighbours.
        let neighbours = grid_neighbors(0, grid_dims(8)).len() as u64;
        assert_eq!(neighbours, 3);
        let requests = 8 * 2 * (2 * neighbours); // nodes * iters * (intensity * neighbours)
        let barrier = 2 * 2 * 7; // iters * 2 messages * (nodes-1)
        assert_eq!(r.app_messages, requests * 2 + barrier);
    }
}
