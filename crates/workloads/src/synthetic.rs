//! Parameterised synthetic traffic.
//!
//! The macrobenchmarks fix their communication patterns; this generator
//! exposes the knobs — offered load, message-size mix, destination
//! locality — for controlled studies. It is used by the harness to
//! revisit the Mackenzie et al. claim the paper discusses in §7 (that
//! overflow buffering beyond the NI is rare for realistic loads) and to
//! find each NI's saturation point.

use nisim_core::process::{Action, Process, Script, SendSpec};
use nisim_core::{Machine, MachineConfig, MachineReport};
use nisim_engine::{Dur, SplitMix64};
use nisim_net::NodeId;

/// Destination selection policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Locality {
    /// Uniformly random over the other nodes.
    Uniform,
    /// The next `hops` ring neighbours, uniformly.
    Ring(u32),
    /// With probability `p`, node 0 (a hot spot); otherwise uniform.
    Hotspot(f64),
}

/// Synthetic traffic parameters.
#[derive(Clone, Debug)]
pub struct SyntheticParams {
    /// Messages each node sends.
    pub messages_per_node: u32,
    /// Mean computation between sends (exponential-ish jitter around it).
    pub mean_gap: Dur,
    /// Payload sizes and their weights.
    pub size_mix: Vec<(u64, f64)>,
    /// Destination policy.
    pub locality: Locality,
    /// Handler computation per received message.
    pub handler_compute: Dur,
}

impl Default for SyntheticParams {
    /// A fine-grain, mildly localised mix reminiscent of Table 4.
    fn default() -> Self {
        SyntheticParams {
            messages_per_node: 100,
            mean_gap: Dur::us(2),
            size_mix: vec![(4, 0.6), (32, 0.25), (132, 0.15)],
            locality: Locality::Ring(3),
            handler_compute: Dur::ns(300),
        }
    }
}

/// One node's program: `messages_per_node` rounds of a jittered compute
/// gap then one send, drawn lazily from the node's RNG (gap, then
/// destination, then size).
fn program(
    me: NodeId,
    nodes: u32,
    params: &SyntheticParams,
    mut rng: SplitMix64,
) -> impl Iterator<Item = Action> {
    let locality = params.locality;
    let sizes: Vec<u64> = params.size_mix.iter().map(|&(size, _)| size).collect();
    let weights: Vec<f64> = params.size_mix.iter().map(|&(_, w)| w).collect();
    // 0.5x .. 1.5x of the mean, uniformly: enough jitter to desynchronise
    // nodes without heavy tails.
    let mean = params.mean_gap.as_ns().max(1);
    (0..params.messages_per_node).flat_map(move |_| {
        let gap = Dur::ns(mean / 2 + rng.gen_range(mean));
        let dst = pick_dst(&mut rng, locality, me, nodes);
        let payload = sizes[rng.choose_weighted(&weights)];
        [
            Action::Compute(gap),
            Action::Send(SendSpec::new(dst, payload, 0)),
        ]
    })
}

fn pick_dst(rng: &mut SplitMix64, locality: Locality, me: NodeId, nodes: u32) -> NodeId {
    let uniform = |rng: &mut SplitMix64| loop {
        let n = NodeId(rng.gen_range(nodes as u64) as u32);
        if n != me {
            return n;
        }
    };
    match locality {
        Locality::Uniform => uniform(rng),
        Locality::Ring(hops) => {
            let h = 1 + rng.gen_range(hops.max(1) as u64);
            NodeId(((me.0 as u64 + h) % nodes as u64) as u32)
        }
        Locality::Hotspot(p) => {
            if me.0 != 0 && rng.gen_bool(p) {
                NodeId(0)
            } else {
                uniform(rng)
            }
        }
    }
}

/// Runs synthetic traffic under `cfg`.
///
/// # Panics
///
/// Panics if the run fails to reach quiescence.
pub fn run_synthetic(cfg: &MachineConfig, params: &SyntheticParams) -> MachineReport {
    let cfg = cfg.clone();
    let nodes = cfg.nodes;
    let seed = cfg.seed;
    let report = Machine::run(cfg, |id| -> Box<dyn Process> {
        let rng = SplitMix64::new(seed ^ (0x0517_E71C + id.0 as u64));
        let program = program(id, nodes, params, rng);
        Box::new(Script::new(program, params.handler_compute))
    });
    assert!(report.all_quiescent, "synthetic run did not complete");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::{NiKind, TimeCategory};
    use nisim_net::BufferCount;

    #[test]
    fn delivers_every_message() {
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(8);
        let p = SyntheticParams::default();
        let r = run_synthetic(&cfg, &p);
        assert_eq!(r.app_messages, 8 * p.messages_per_node as u64);
    }

    #[test]
    fn hotspot_traffic_stresses_buffering() {
        let mut p = SyntheticParams {
            mean_gap: Dur::ns(600),
            ..SyntheticParams::default()
        };
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(16)
            .flow_buffers(BufferCount::Finite(2));
        p.locality = Locality::Uniform;
        let spread = run_synthetic(&cfg, &p);
        p.locality = Locality::Hotspot(0.8);
        let hot = run_synthetic(&cfg, &p);
        assert!(
            hot.recv_rejects > 2 * spread.recv_rejects.max(1),
            "hotspot {} vs uniform {} rejects",
            hot.recv_rejects,
            spread.recv_rejects
        );
    }

    #[test]
    fn offered_load_drives_buffering_time() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(8)
            .flow_buffers(BufferCount::Finite(1));
        let slow = run_synthetic(
            &cfg,
            &SyntheticParams {
                mean_gap: Dur::us(20),
                ..SyntheticParams::default()
            },
        );
        let fast = run_synthetic(
            &cfg,
            &SyntheticParams {
                mean_gap: Dur::ns(200),
                ..SyntheticParams::default()
            },
        );
        let b = |r: &nisim_core::MachineReport| r.fraction(TimeCategory::Buffering);
        assert!(
            b(&fast) > b(&slow),
            "fast {} vs slow {}",
            b(&fast),
            b(&slow)
        );
    }

    #[test]
    fn per_node_summaries_expose_the_hot_node() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(8)
            .flow_buffers(BufferCount::Finite(1));
        let p = SyntheticParams {
            mean_gap: Dur::ns(800),
            locality: Locality::Hotspot(0.9),
            ..SyntheticParams::default()
        };
        let r = run_synthetic(&cfg, &p);
        let hot = &r.per_node[0];
        let cold = &r.per_node[4];
        assert!(
            hot.messages_handled > 3 * cold.messages_handled,
            "hot {} vs cold {}",
            hot.messages_handled,
            cold.messages_handled
        );
        assert!(hot.recv_rejects >= cold.recv_rejects);
        let total: u64 = r.per_node.iter().map(|n| n.messages_handled).sum();
        assert_eq!(total, r.app_messages);
    }

    #[test]
    fn size_mix_is_respected() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(4);
        let p = SyntheticParams {
            size_mix: vec![(4, 1.0)],
            ..SyntheticParams::default()
        };
        let r = run_synthetic(&cfg, &p);
        assert_eq!(r.msg_sizes.fraction_of(12), 1.0); // 4 B + 8 B header
    }
}
