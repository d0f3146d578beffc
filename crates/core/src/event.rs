//! The machine's typed event vocabulary.
//!
//! Every event the simulated machine schedules is one of the
//! [`MachineEvent`] variants below, dispatched to the corresponding
//! handler in [`machine`](crate::machine). Compared with the engine's
//! boxed-closure default ([`nisim_engine::ClosureEvent`]), a plain enum
//! stores inline in the timing wheel's node slab — scheduling a bus
//! transaction or link hop allocates nothing and dispatch is a jump
//! table instead of an indirect call through a fat pointer.
//!
//! The variants mirror the protocol described in the machine module
//! docs: processor steps, wire arrivals, acks and their timers, deposit
//! completions, and the return-to-sender retry path of §5.1.2.

use nisim_engine::codec::{Codec, DecodeError, Fields};
use nisim_engine::{Event, Json};
use nisim_net::{MsgId, NodeId};

use crate::machine::{EvCtx, Machine, MachineSim};
use crate::ni::WireMsg;

/// One scheduled occurrence in the simulated machine.
#[derive(Clone, Copy, Debug)]
pub enum MachineEvent {
    /// The processor on `node` becomes free (or is woken) and runs its
    /// dispatch loop: drain, resend, continue a send, or ask the program.
    ProcRun {
        /// Node index.
        node: usize,
    },
    /// A data fragment reaches its destination NI's ingress port.
    Arrival {
        /// The fragment on the wire.
        wire: WireMsg,
        /// True if the fault layer corrupted the payload in flight.
        corrupted: bool,
    },
    /// An ack reaches the original sender, releasing its flow-control
    /// buffer.
    AckArrival {
        /// The sender being acked.
        src: NodeId,
        /// The fragment the ack is for.
        msg: MsgId,
    },
    /// A reliability-layer ack timer expires; retransmit if the fragment
    /// is still outstanding and this timer generation is current.
    AckTimeout {
        /// The sender that armed the timer.
        src: NodeId,
        /// The fragment the timer guards.
        msg: MsgId,
        /// The retransmission attempt this timer belongs to.
        attempt: u32,
    },
    /// The NI finished depositing an accepted fragment; the receiving
    /// processor can be woken to drain it.
    DepositDone {
        /// Receiving node index.
        dst: usize,
        /// True for NI-managed buffering, which releases the
        /// flow-control buffer at deposit rather than at drain.
        frees_buffer: bool,
    },
    /// A rejected fragment arrives back at its sender (return-to-sender
    /// flow control).
    ReturnArrival {
        /// The returned fragment.
        wire: WireMsg,
    },
    /// A returned fragment's backoff elapsed; re-inject it.
    Retry {
        /// The sender retrying.
        src: NodeId,
        /// The fragment to retry.
        msg: MsgId,
    },
    /// A crash window opens on `node` (fault injection): the node's
    /// in-flight receive state is wiped as if the OS had rebooted the NI.
    /// Sender-side retransmission plus receiver dedup recover delivery
    /// exactly once — or surface the loss as `gave_up`.
    NodeCrash {
        /// Node index.
        node: usize,
    },
}

impl MachineEvent {
    /// The single node whose state this event's handler touches. Every
    /// handler is single-node by construction: cross-node effects travel
    /// only as newly scheduled events, never as direct state writes.
    pub(crate) fn node_of(&self) -> usize {
        match self {
            MachineEvent::ProcRun { node } => *node,
            MachineEvent::Arrival { wire, .. } => wire.dst.index(),
            MachineEvent::AckArrival { src, .. } => src.index(),
            MachineEvent::AckTimeout { src, .. } => src.index(),
            MachineEvent::DepositDone { dst, .. } => *dst,
            MachineEvent::ReturnArrival { wire } => wire.src.index(),
            MachineEvent::Retry { src, .. } => src.index(),
            MachineEvent::NodeCrash { node } => *node,
        }
    }
}

/// `{"t": kind, ...}` with the variant's fields under the keys below.
impl Codec for MachineEvent {
    fn encode(&self) -> Json {
        let v = |t: &str| Json::obj().set("t", t);
        match *self {
            MachineEvent::ProcRun { node } => v("proc_run").set("node", node.encode()),
            MachineEvent::Arrival { wire, corrupted } => v("arrival")
                .set("wire", wire.encode())
                .set("corrupted", corrupted.encode()),
            MachineEvent::AckArrival { src, msg } => v("ack_arrival")
                .set("src", src.encode())
                .set("msg", msg.encode()),
            MachineEvent::AckTimeout { src, msg, attempt } => v("ack_timeout")
                .set("src", src.encode())
                .set("msg", msg.encode())
                .set("attempt", attempt.encode()),
            MachineEvent::DepositDone { dst, frees_buffer } => v("deposit_done")
                .set("dst", dst.encode())
                .set("frees_buffer", frees_buffer.encode()),
            MachineEvent::ReturnArrival { wire } => v("return_arrival").set("wire", wire.encode()),
            MachineEvent::Retry { src, msg } => {
                v("retry").set("src", src.encode()).set("msg", msg.encode())
            }
            MachineEvent::NodeCrash { node } => v("node_crash").set("node", node.encode()),
        }
    }

    fn decode(v: &Json) -> Result<MachineEvent, DecodeError> {
        let mut f = Fields::of(v)?;
        let ev = match f.tag("t")? {
            "proc_run" => MachineEvent::ProcRun {
                node: f.get("node")?,
            },
            "arrival" => MachineEvent::Arrival {
                wire: f.get("wire")?,
                corrupted: f.get("corrupted")?,
            },
            "ack_arrival" => MachineEvent::AckArrival {
                src: f.get("src")?,
                msg: f.get("msg")?,
            },
            "ack_timeout" => MachineEvent::AckTimeout {
                src: f.get("src")?,
                msg: f.get("msg")?,
                attempt: f.get("attempt")?,
            },
            "deposit_done" => MachineEvent::DepositDone {
                dst: f.get("dst")?,
                frees_buffer: f.get("frees_buffer")?,
            },
            "return_arrival" => MachineEvent::ReturnArrival {
                wire: f.get("wire")?,
            },
            "retry" => MachineEvent::Retry {
                src: f.get("src")?,
                msg: f.get("msg")?,
            },
            "node_crash" => MachineEvent::NodeCrash {
                node: f.get("node")?,
            },
            other => return Err(DecodeError::new(format!("unknown event `{other}`")).in_key("t")),
        };
        f.finish()?;
        Ok(ev)
    }
}

impl Event<Machine> for MachineEvent {
    fn fire(self, m: &mut Machine, sim: &mut MachineSim) {
        let nid = self.node_of();
        let mut ctx = EvCtx {
            now: sim.now(),
            nid,
            nodes_len: m.nodes.len(),
            cfg: &m.cfg,
            node: &mut m.nodes[nid],
            g: &mut m.g,
            sim,
        };
        Machine::dispatch(&mut ctx, self);
    }
}
