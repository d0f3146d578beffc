//! The workload interface: Tempest-style active messages (§5.1.1).
//!
//! Each node runs a [`Process`]. The processor alternates between the
//! process's own [`Action`]s and **active-message handlers** fired for
//! arriving messages. Handlers run to completion on the receiving
//! processor and may themselves send messages — exactly the model the
//! paper's macrobenchmarks use (message-passing codes use handlers
//! directly; shared-memory codes use request/response handler pairs).

use nisim_engine::codec::{DecodeError, Fields};
use nisim_engine::{Dur, Json, Time};
use nisim_net::NodeId;

/// A message send request from the application level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SendSpec {
    /// Destination node.
    pub dst: NodeId,
    /// Application payload size in bytes (headers are added per network
    /// fragment by the messaging layer).
    pub payload_bytes: u64,
    /// Application tag, delivered to the destination handler.
    pub tag: u32,
    /// Logical connection (endpoint) the send travels on. `0` means
    /// "unassigned": the machine derives a per-destination connection, so
    /// workloads that never heard of connections behave as if each node
    /// pair shares one. Connection-aware NIs (the RDMA queue-pair model)
    /// key their per-connection state on this; connectionless NIs ignore
    /// it entirely.
    pub conn: u32,
}

impl SendSpec {
    /// Convenience constructor (connection unassigned).
    pub fn new(dst: NodeId, payload_bytes: u64, tag: u32) -> SendSpec {
        SendSpec {
            dst,
            payload_bytes,
            tag,
            conn: 0,
        }
    }

    /// Pins the send to an explicit logical connection (non-zero).
    pub fn on_conn(mut self, conn: u32) -> SendSpec {
        self.conn = conn;
        self
    }
}

nisim_engine::struct_codec! { SendSpec [dst, payload_bytes, tag, conn] }

/// A fully received application message, as seen by a handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AppMessage {
    /// Sending node.
    pub src: NodeId,
    /// Application payload size in bytes.
    pub payload_bytes: u64,
    /// Application tag.
    pub tag: u32,
}

/// What an active-message handler does.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HandlerSpec {
    /// Computation performed inside the handler (charged as compute).
    pub compute: Dur,
    /// Messages the handler sends (e.g. a response in a request/response
    /// protocol).
    pub sends: Vec<SendSpec>,
}

impl HandlerSpec {
    /// A handler that does nothing beyond being dispatched.
    pub fn empty() -> HandlerSpec {
        HandlerSpec::default()
    }

    /// A handler that computes for `compute` and sends nothing.
    pub fn compute(compute: Dur) -> HandlerSpec {
        HandlerSpec {
            compute,
            sends: Vec::new(),
        }
    }

    /// A handler that computes and replies with one message.
    pub fn reply(compute: Dur, send: SendSpec) -> HandlerSpec {
        HandlerSpec {
            compute,
            sends: vec![send],
        }
    }
}

/// What the process wants to do next when the processor is free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Compute for the given duration.
    Compute(Dur),
    /// Send one application message.
    Send(SendSpec),
    /// Nothing to do until another message arrives.
    Wait,
    /// The process has finished.
    Done,
}

/// A per-node workload.
///
/// The processor model calls [`Process::next_action`] whenever it is free
/// and no received message is pending, and [`Process::on_message`] once
/// per fully received application message.
pub trait Process {
    /// The next thing this node's program does. Called again after the
    /// returned action completes, or — after [`Action::Wait`] — once a
    /// message handler has run.
    fn next_action(&mut self, now: Time) -> Action;

    /// Active-message handler for one arrived message.
    fn on_message(&mut self, msg: &AppMessage, now: Time) -> HandlerSpec;

    /// True once the process has returned [`Action::Done`] — used for
    /// deadlock/quiescence reporting. Implementations should track this.
    fn is_done(&self) -> bool;

    /// Checks that this process's program or handlers could have issued
    /// `spec` (its `conn` is 0 unless the process pins connections).
    /// Restore holds every queued or in-flight message to its sender's
    /// check, so a forged payload cannot exhaust memory and a forged tag
    /// cannot reach a handler that never expects it. The default accepts
    /// any send.
    ///
    /// # Errors
    ///
    /// Describes why the process never sends `spec`.
    fn check_send(&self, spec: &SendSpec) -> Result<(), DecodeError> {
        let _ = spec;
        Ok(())
    }

    /// Serialises the process's dynamic state for checkpointing. `None`
    /// (the default) marks the workload as unsnapshotable — machine
    /// snapshots then fail with a typed error instead of silently
    /// dropping program state.
    fn snapshot(&self) -> Option<Json> {
        None
    }

    /// Restores state captured by [`Process::snapshot`] into a freshly
    /// built process (same node, same parameters).
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch or an out-of-range value, and always
    /// for an unsnapshotable process (the default).
    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        let _ = state;
        Err(DecodeError::new("workload does not support checkpointing"))
    }
}

/// A process that does nothing (a passive node, e.g. a pure server that
/// only reacts to messages via a wrapped handler function).
pub struct IdleProcess;

impl Process for IdleProcess {
    fn next_action(&mut self, _now: Time) -> Action {
        Action::Done
    }

    fn on_message(&mut self, _msg: &AppMessage, _now: Time) -> HandlerSpec {
        HandlerSpec::empty()
    }

    fn is_done(&self) -> bool {
        true
    }

    fn check_send(&self, _spec: &SendSpec) -> Result<(), DecodeError> {
        Err(DecodeError::new("an idle process sends nothing"))
    }

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

    #[test]
    fn handler_constructors() {
        assert_eq!(HandlerSpec::empty().compute, Dur::ZERO);
        assert!(HandlerSpec::empty().sends.is_empty());
        let h = HandlerSpec::reply(Dur::ns(5), SendSpec::new(NodeId(1), 16, 7));
        assert_eq!(h.compute, Dur::ns(5));
        assert_eq!(h.sends.len(), 1);
        assert_eq!(h.sends[0].dst, NodeId(1));
    }

    #[test]
    fn send_spec_connection_defaults_unassigned() {
        let s = SendSpec::new(NodeId(3), 64, 9);
        assert_eq!(s.conn, 0);
        assert_eq!(s.on_conn(41).conn, 41);
    }

    #[test]
    fn idle_process_is_done() {
        let mut p = IdleProcess;
        assert!(p.is_done());
        assert_eq!(p.next_action(Time::ZERO), Action::Done);
        let msg = AppMessage {
            src: NodeId(0),
            payload_bytes: 8,
            tag: 0,
        };
        assert_eq!(p.on_message(&msg, Time::ZERO), HandlerSpec::empty());
    }
}
