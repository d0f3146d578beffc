//! Optional network topologies (extension).
//!
//! The paper deliberately ignores topology (§5.1.2) and argues its
//! *relative* results extrapolate to real networks; it cites Dai & Panda
//! that network contention can matter. This module provides that
//! extrapolation path: a store-and-forward fabric with per-hop switch
//! latency and *contended links*, in ring and 2-D mesh shapes, behind
//! the same delivery interface as the ideal constant-latency network.
//!
//! Links are serially-reusable [`Link`] resources shared machine-wide,
//! so many-to-one traffic exhibits real link contention.

use std::collections::BTreeMap;

use nisim_engine::codec::{ascending, decode_items, ensure, Codec, DecodeError, State};
use nisim_engine::{Dur, Json, Time};

use crate::link::Link;
use crate::msg::{NetConfig, NodeId};

/// The network shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// The paper's abstraction: constant latency, no contention.
    #[default]
    Ideal,
    /// A bidirectional ring; minimal-direction routing.
    Ring,
    /// A 2-D mesh (as square as the node count allows); XY routing.
    Mesh2D,
}

impl Topology {
    /// The mesh dimensions used for `nodes` (columns, rows).
    pub fn mesh_dims(nodes: u32) -> (u32, u32) {
        let mut cols = (nodes as f64).sqrt().floor() as u32;
        while cols > 1 && !nodes.is_multiple_of(cols) {
            cols -= 1;
        }
        (cols.max(1), nodes / cols.max(1))
    }

    /// The sequence of directed links `(from, to)` a message traverses.
    /// Empty for [`Topology::Ideal`].
    pub fn route(&self, src: NodeId, dst: NodeId, nodes: u32) -> Vec<(u32, u32)> {
        assert!(src.0 < nodes && dst.0 < nodes, "route endpoints in range");
        let mut path = Vec::new();
        if src == dst {
            return path;
        }
        match self {
            Topology::Ideal => path,
            Topology::Ring => {
                let fwd = (dst.0 + nodes - src.0) % nodes;
                let bwd = nodes - fwd;
                let mut at = src.0;
                if fwd <= bwd {
                    for _ in 0..fwd {
                        let next = (at + 1) % nodes;
                        path.push((at, next));
                        at = next;
                    }
                } else {
                    for _ in 0..bwd {
                        let next = (at + nodes - 1) % nodes;
                        path.push((at, next));
                        at = next;
                    }
                }
                path
            }
            Topology::Mesh2D => {
                let (cols, _rows) = Self::mesh_dims(nodes);
                let (mut x, mut y) = (src.0 % cols, src.0 / cols);
                let (dx, dy) = (dst.0 % cols, dst.0 / cols);
                // XY (dimension-ordered) routing: fix the column first.
                while x != dx {
                    let nx = if dx > x { x + 1 } else { x - 1 };
                    path.push((x + y * cols, nx + y * cols));
                    x = nx;
                }
                while y != dy {
                    let ny = if dy > y { y + 1 } else { y - 1 };
                    path.push((x + y * cols, x + ny * cols));
                    y = ny;
                }
                path
            }
        }
    }

    /// The hop count between two nodes.
    pub fn hops(&self, src: NodeId, dst: NodeId, nodes: u32) -> u32 {
        self.route(src, dst, nodes).len() as u32
    }
}

/// A store-and-forward fabric: per-hop serialisation on contended links
/// plus a per-hop switch latency.
///
/// # Example
///
/// ```
/// use nisim_engine::Time;
/// use nisim_net::{NetConfig, NodeId};
/// use nisim_net::topology::{Fabric, Topology};
///
/// let cfg = NetConfig::default();
/// let mut fabric = Fabric::new(Topology::Ring, 8, cfg.wire_latency);
/// let t = fabric.transit(&cfg, Time::ZERO, NodeId(0), NodeId(2), 64);
/// // Two hops: 2 x (64 B serialisation + 40 ns switch latency).
/// assert_eq!(t.as_ns(), 2 * (64 + 40));
/// ```
#[derive(Clone, Debug)]
pub struct Fabric {
    topology: Topology,
    nodes: u32,
    hop_latency: Dur,
    /// Per-hop links, keyed `(from, to)`. A `BTreeMap` so iteration
    /// (e.g. [`Fabric::link_loads`]) is deterministic without sorting.
    links: BTreeMap<(u32, u32), Link>,
}

impl Fabric {
    /// Creates a fabric over `nodes` nodes with the given per-hop switch
    /// latency (the ideal topology uses it as the end-to-end latency).
    pub fn new(topology: Topology, nodes: u32, hop_latency: Dur) -> Fabric {
        Fabric {
            topology,
            nodes,
            hop_latency,
            links: BTreeMap::new(),
        }
    }

    /// The fabric's topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Carries `wire_bytes` from `src` to `dst` starting at `now`;
    /// returns the arrival time. Links are reserved hop by hop
    /// (store-and-forward), so shared links contend.
    pub fn transit(
        &mut self,
        cfg: &NetConfig,
        now: Time,
        src: NodeId,
        dst: NodeId,
        wire_bytes: u64,
    ) -> Time {
        match self.topology {
            Topology::Ideal => now + cfg.wire_latency,
            _ => {
                let route = self.topology.route(src, dst, self.nodes);
                let mut t = now;
                for hop in route {
                    let link = self.links.entry(hop).or_default();
                    let (_, end) = link.transmit(cfg, t, wire_bytes);
                    t = end + self.hop_latency;
                }
                t
            }
        }
    }

    /// Every materialised link, keyed `(from, to)`, in key order.
    pub fn links(&self) -> impl Iterator<Item = (&(u32, u32), &Link)> {
        self.links.iter()
    }

    /// Total bytes carried per link, for hot-link analysis.
    pub fn link_loads(&self) -> Vec<((u32, u32), u64)> {
        let mut v: Vec<((u32, u32), u64)> =
            self.links.iter().map(|(&k, l)| (k, l.bytes())).collect();
        v.sort_unstable();
        v
    }
}

/// Every materialised link as `[from, to, link]`, in key order; empty
/// for the ideal topology, which holds no link state. A link exists only
/// once a route crossed it, so each must be one hop of this topology.
impl State for Fabric {
    fn snapshot(&self) -> Json {
        Json::Arr(
            (self.links.iter())
                .map(|(&(from, to), link)| (from, to, link.clone()).encode())
                .collect(),
        )
    }

    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let links = decode_items::<(u32, u32, Link)>(v)?
            .enumerate()
            .map(|(i, entry)| {
                let (from, to, link) = entry?;
                let hop = from < self.nodes
                    && to < self.nodes
                    && self.topology.route(NodeId(from), NodeId(to), self.nodes) == [(from, to)];
                ensure(hop, "not a hop of this topology").map_err(|e| e.in_index(i))?;
                Ok(((from, to), link))
            });
        self.links = ascending(links)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_take_the_short_way() {
        let t = Topology::Ring;
        assert_eq!(t.hops(NodeId(0), NodeId(1), 8), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(7), 8), 1); // backwards
        assert_eq!(t.hops(NodeId(0), NodeId(4), 8), 4);
        assert_eq!(t.hops(NodeId(2), NodeId(2), 8), 0);
    }

    #[test]
    fn mesh_uses_xy_routing() {
        // 16 nodes -> 4x4 mesh. Node 0 = (0,0), node 15 = (3,3).
        assert_eq!(Topology::mesh_dims(16), (4, 4));
        let t = Topology::Mesh2D;
        assert_eq!(t.hops(NodeId(0), NodeId(15), 16), 6);
        let route = t.route(NodeId(0), NodeId(5), 16); // (0,0)->(1,1)
        assert_eq!(route, vec![(0, 1), (1, 5)]); // X first, then Y
    }

    #[test]
    fn mesh_dims_handle_non_squares() {
        assert_eq!(Topology::mesh_dims(12), (3, 4));
        assert_eq!(Topology::mesh_dims(8), (2, 4));
        assert_eq!(Topology::mesh_dims(7), (1, 7));
    }

    #[test]
    fn ideal_is_constant_latency() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ideal, 16, cfg.wire_latency);
        let t = f.transit(&cfg, Time::from_ns(100), NodeId(0), NodeId(9), 4096);
        assert_eq!(t, Time::from_ns(140));
    }

    #[test]
    fn hops_add_latency_and_serialisation() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        let near = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        let mut f2 = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        let far = f2.transit(&cfg, Time::ZERO, NodeId(0), NodeId(4), 100);
        assert_eq!(near.as_ns(), 140);
        assert_eq!(far.as_ns(), 4 * 140);
    }

    #[test]
    fn shared_links_contend() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        // Two messages over the same first link at the same time: the
        // second serialises behind the first.
        let a = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        let b = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(a.as_ns(), 140);
        assert_eq!(b.as_ns(), 240);
        // A disjoint link is unaffected.
        let c = f.transit(&cfg, Time::ZERO, NodeId(3), NodeId(4), 100);
        assert_eq!(c.as_ns(), 140);
    }

    #[test]
    fn fabric_snapshot_round_trips_contention_state() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(2), 100);
        let snap = f.snapshot();

        let mut fresh = Fabric::new(Topology::Ring, 8, Dur::ns(40));
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.link_loads(), f.link_loads());
        // The restored links carry their reservation horizon: a message
        // over the same first hop queues exactly as it would have.
        let a = f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        let b = fresh.transit(&cfg, Time::ZERO, NodeId(0), NodeId(1), 100);
        assert_eq!(a, b);
        // Ideal fabrics snapshot to an empty list.
        let ideal = Fabric::new(Topology::Ideal, 8, Dur::ns(40));
        assert_eq!(ideal.snapshot(), Json::Arr(Vec::new()));
        assert!(fresh.restore(&Json::from(1u64)).is_err());
        // Only hops of the topology can hold link state.
        let far = Json::Arr(vec![(0u32, 4u32, Link::new()).encode()]);
        assert_eq!(
            fresh.restore(&far).unwrap_err().to_string(),
            "[0]: not a hop of this topology"
        );
    }

    #[test]
    fn link_loads_accumulate() {
        let cfg = NetConfig::default();
        let mut f = Fabric::new(Topology::Ring, 4, Dur::ns(40));
        f.transit(&cfg, Time::ZERO, NodeId(0), NodeId(2), 50);
        let loads = f.link_loads();
        assert_eq!(loads.len(), 2);
        assert!(loads.iter().all(|&(_, b)| b == 50));
    }
}
