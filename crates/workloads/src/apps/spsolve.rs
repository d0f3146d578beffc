//! `spsolve` — very fine-grain iterative sparse-matrix solver skeleton.
//!
//! The paper's spsolve propagates active messages down the edges of a
//! DAG; *all computation happens in the handlers* (one double-word
//! addition per message), several messages are in flight at once, and
//! traffic is bursty — the second of the two buffering-bound
//! applications. Table 4: 20 B 91 %, 8 B 6 %, 12 B 3 %.
//!
//! The skeleton seeds bursts of "sparks" that chain through random nodes
//! with a hop budget: each handler does a tiny addition and forwards the
//! spark, reproducing both the burstiness and the
//! all-work-in-handlers structure.

use std::collections::VecDeque;

use nisim_core::process::{AppMessage, HandlerSpec, Process, SendSpec};
use nisim_engine::codec::{ensure, DecodeError};
use nisim_engine::{Dur, Json, Time};
use nisim_net::NodeId;

use super::AppParams;
use crate::skeleton::{Skeleton, SkeletonProcess, Step};

/// Sparks carry their remaining hop budget in the tag above this base.
pub const TAG_SPARK_BASE: u32 = 600;
/// Tag of a header-only (8 B wire) completion notice.
pub const TAG_NOTICE: u32 = 60;
/// Hop budget of each seeded spark (DAG depth below the seeds).
pub const SPARK_TTL: u32 = 6;
/// In-degree of a DAG element: arrivals accumulated before it fires.
pub const IN_DEGREE: u32 = 6;
/// Out-degree of a DAG element: the burst fired on completion. Bursts
/// larger than the flow-control buffer pool are what make spsolve
/// buffering-bound (its paper breakeven is 33 buffers).
pub const OUT_DEGREE: u32 = 8;

/// Per-node spsolve skeleton state.
pub struct Spsolve {
    me: NodeId,
    nodes: u32,
    params: AppParams,
    iters_left: u32,
    steps: VecDeque<Step>,
    /// Arrivals accumulated per DAG level towards element completions.
    acc: Vec<u32>,
    /// Elements fired per DAG level (drives deterministic edge routing).
    fired: Vec<u32>,
}

impl Spsolve {
    fn new(node: NodeId, nodes: u32, params: AppParams) -> Spsolve {
        Spsolve {
            me: node,
            nodes,
            params,
            iters_left: params.iterations,
            steps: VecDeque::new(),
            acc: vec![0; SPARK_TTL as usize + 1],
            fired: vec![0; SPARK_TTL as usize + 1],
        }
    }

    /// DAG edges have partition locality: out-edges lead to the next two
    /// partitions. Routing is a pure function of how many elements this
    /// node has fired at the level (not of event timing), so the total
    /// message volume is identical across NI designs and buffer counts —
    /// the comparisons measure the NI, not workload noise.
    fn forward_peer(&mut self, level: usize, edge: u32) -> NodeId {
        let hop = 1 + ((self.fired[level] + edge) % 2) as u64;
        NodeId(((self.me.0 as u64 + hop) % self.nodes as u64) as u32)
    }

    /// One solver wavefront: seed a burst of sparks down the local DAG
    /// elements' out-edges. Unlike the time-stepped applications, the
    /// solve is one continuous DAG propagation — wavefronts are *not*
    /// separated by barriers (only a final barrier closes the run), so
    /// in-flight traffic from successive wavefronts overlaps, exactly the
    /// burstiness that makes spsolve buffering-bound.
    fn refill(&mut self) {
        let seeds = self.params.intensity;
        self.steps.push_back(Step::Compute(self.params.compute));
        for k in 0..seeds {
            // Seeds follow the same partition-local edges as the
            // wavefront, so elements actually complete.
            let hop = 1 + (k % 2) as u64;
            let dst = NodeId(((self.me.0 as u64 + hop) % self.nodes as u64) as u32);
            self.steps.push_back(Step::Send(SendSpec::new(
                dst,
                12,
                TAG_SPARK_BASE + SPARK_TTL,
            )));
        }
        if self.iters_left == 0 {
            self.steps.push_back(Step::Barrier);
        }
    }
}

impl Skeleton for Spsolve {
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
            t if t > TAG_SPARK_BASE => {
                // One double-word addition per arriving operand; a DAG
                // element completes after IN_DEGREE arrivals and fires
                // its OUT_DEGREE out-edges in one burst.
                let ttl = t - TAG_SPARK_BASE - 1;
                let compute = Dur::ns(15);
                let level = ttl as usize;
                self.acc[level] += 1;
                if self.acc[level] < IN_DEGREE {
                    return HandlerSpec::compute(compute);
                }
                self.acc[level] = 0;
                let fire_ttl = ttl;
                if fire_ttl == 0 {
                    // Bottom of the DAG: a header-only completion notice
                    // (the 8 B mode of Table 4).
                    let dst = NodeId((self.me.0 + 1) % self.nodes);
                    self.fired[level] += 1;
                    HandlerSpec::reply(compute, SendSpec::new(dst, 0, TAG_NOTICE))
                } else {
                    let sends = (0..OUT_DEGREE)
                        .map(|e| {
                            SendSpec::new(
                                self.forward_peer(level, e),
                                12,
                                TAG_SPARK_BASE + fire_ttl,
                            )
                        })
                        .collect();
                    self.fired[level] += 1;
                    HandlerSpec { compute, sends }
                }
            }
            TAG_NOTICE => HandlerSpec::compute(Dur::ns(10)),
            other => unreachable!("spsolve got unexpected tag {other}"),
        }
    }

    /// Spsolve sends 12-byte sparks whose tag carries a hop budget, and
    /// header-only completion notices.
    fn check_send(&self, spec: &SendSpec) -> Result<(), DecodeError> {
        let spark = (TAG_SPARK_BASE + 1..=TAG_SPARK_BASE + SPARK_TTL).contains(&spec.tag);
        let shape = if spark {
            SendSpec::new(spec.dst, 12, spec.tag)
        } else {
            SendSpec::new(spec.dst, 0, TAG_NOTICE)
        };
        ensure(*spec == shape, "a message spsolve never sends")
    }

    fn snapshot(&self) -> Option<Json> {
        Some(self.snapshot())
    }

    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        self.restore(state)
    }
}

impl Spsolve {
    // Every queued step is one `refill` makes, and an element fires (and
    // resets its count) on its IN_DEGREE-th operand.
    nisim_engine::state_fields! {
        { iters_left, steps, acc, fired }
        check |p: &Spsolve| {
            ensure(p.iters_left <= p.params.iterations, "more iterations left than the run has")?;
            let seed_dst = |hop: u64| NodeId(((p.me.0 as u64 + hop) % p.nodes as u64) as u32);
            let refilled = |s: &Step| match s {
                Step::Compute(d) => *d == p.params.compute,
                Step::Send(spec) => {
                    (spec.dst == seed_dst(1) || spec.dst == seed_dst(2))
                        && spec.tag == TAG_SPARK_BASE + SPARK_TTL
                        && Skeleton::check_send(p, spec).is_ok()
                }
                Step::Barrier => true,
                Step::WaitUntilReady | Step::Done => false,
            };
            ensure(p.steps.iter().all(refilled), "a step spsolve never queues")?;
            let levels = SPARK_TTL as usize + 1;
            ensure(
                p.acc.len() == levels
                    && p.fired.len() == levels
                    && p.acc.iter().all(|&a| a < IN_DEGREE),
                "operand counts out of range",
            )
        }
    }
}

/// Machine factory for spsolve.
pub fn factory(
    nodes: u32,
    _seed: u64,
    params: AppParams,
) -> impl FnMut(NodeId) -> Box<dyn Process> {
    move |id| {
        Box::new(SkeletonProcess::new(
            Spsolve::new(id, nodes, params),
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
    use nisim_net::BufferCount;

    #[test]
    fn message_sizes_match_table4_modes() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let r = crate::apps::run_app(MacroApp::Spsolve, &cfg, &MacroApp::Spsolve.default_params());
        let h = &r.msg_sizes;
        assert!(
            h.fraction_of(20) > 0.75,
            "20 B fraction {} (paper: 0.91)",
            h.fraction_of(20)
        );
        assert!(h.fraction_of(8) > 0.02, "8 B fraction {}", h.fraction_of(8));
        assert!(h.fraction_of(12) > 0.0, "12 B barrier traffic expected");
    }

    #[test]
    fn dag_propagation_amplifies_seeds() {
        // Elements fire OUT_DEGREE sparks per IN_DEGREE arrivals, so the
        // wavefront grows geometrically before the hop budget kills it.
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(8);
        let p = AppParams {
            iterations: 2,
            intensity: 8,
            compute: Dur::us(1),
        };
        let r = crate::apps::run_app(MacroApp::Spsolve, &cfg, &p);
        let seeds = 8 * 2 * 8u64;
        assert!(
            r.app_messages > 3 * seeds,
            "only {} messages from {seeds} seeds",
            r.app_messages
        );
    }

    #[test]
    fn buffering_dominates_with_one_buffer() {
        // The paper's headline spsolve result: with few flow-control
        // buffers the CM-5-like NI spends a large share of time on
        // buffering stalls.
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(16)
            .flow_buffers(BufferCount::Finite(1));
        let r = crate::apps::run_app(MacroApp::Spsolve, &cfg, &MacroApp::Spsolve.default_params());
        assert!(r.retries > 0, "bursts should cause returns");
    }
}
