//! The workload interface: Tempest-style active messages (§5.1.1).
//!
//! Each node runs a [`Process`]. The processor alternates between the
//! process's own [`Action`]s and **active-message handlers** fired for
//! arriving messages. Handlers run to completion on the receiving
//! processor and may themselves send messages — exactly the model the
//! paper's macrobenchmarks use (message-passing codes use handlers
//! directly; shared-memory codes use request/response handler pairs).

use nisim_engine::codec::DecodeError;
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

    /// True once the process has returned [`Action::Done`]. Restore
    /// checks it against the processor's `program_done` flag; quiescence
    /// itself reads that flag, not this method.
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

/// A process whose program ignores its inbox: it plays the actions its
/// iterator yields, in order, then returns [`Action::Done`], and answers
/// every message with a handler that computes for a fixed time and sends
/// nothing. Streams, bursts, scripted sends and passive sinks are all
/// this one type; only a program that acts on what arrives (a ping-pong,
/// an echo, a barrier) needs a [`Process`] of its own.
///
/// A script does not checkpoint: its iterator's position is opaque.
pub struct Script<I> {
    program: I,
    handler: Dur,
    done: bool,
}

impl<I: Iterator<Item = Action>> Script<I> {
    /// Plays `program`, running `handler` of compute for each arrival.
    pub fn new(program: impl IntoIterator<IntoIter = I>, handler: Dur) -> Self {
        Script {
            program: program.into_iter(),
            handler,
            done: false,
        }
    }
}

impl Script<std::iter::Empty<Action>> {
    /// A node with no program: it only runs `handler` for each arrival.
    pub fn sink(handler: Dur) -> Self {
        Script::new(std::iter::empty(), handler)
    }
}

impl<I: Iterator<Item = Action>> Process for Script<I> {
    fn next_action(&mut self, _now: Time) -> Action {
        if !self.done {
            match self.program.next() {
                Some(Action::Done) | None => self.done = true,
                Some(action) => return action,
            }
        }
        Action::Done
    }

    fn on_message(&mut self, _msg: &AppMessage, _now: Time) -> HandlerSpec {
        HandlerSpec::compute(self.handler)
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSG: AppMessage = AppMessage {
        src: NodeId(0),
        payload_bytes: 8,
        tag: 0,
    };

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
    fn script_plays_its_program_then_finishes() {
        let send = Action::Send(SendSpec::new(NodeId(1), 8, 0));
        let mut p = Script::new([Action::Compute(Dur::ns(3)), send.clone()], Dur::ns(7));
        assert_eq!(p.next_action(Time::ZERO), Action::Compute(Dur::ns(3)));
        assert_eq!(p.next_action(Time::ZERO), send);
        assert!(!p.is_done());
        assert_eq!(p.next_action(Time::ZERO), Action::Done);
        assert!(p.is_done());
        assert_eq!(p.next_action(Time::ZERO), Action::Done);
        assert_eq!(
            p.on_message(&MSG, Time::ZERO),
            HandlerSpec::compute(Dur::ns(7))
        );
        assert!(p.snapshot().is_none(), "a script does not checkpoint");
    }

    #[test]
    fn sink_has_no_program() {
        let mut p = Script::sink(Dur::ZERO);
        assert_eq!(p.next_action(Time::ZERO), Action::Done);
        assert!(p.is_done());
        assert_eq!(p.on_message(&MSG, Time::ZERO), HandlerSpec::empty());
    }
}
