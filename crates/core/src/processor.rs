//! Processor execution state.
//!
//! The processor is a sequential engine that alternates between its
//! process's program actions and active-message handling, with two
//! blocking states that the paper's buffering analysis hinges on:
//!
//! * **idle** — the program has nothing to do until a message arrives,
//! * **blocked-send** — every outgoing flow-control buffer is busy, so
//!   the next injection must wait for an ack (this is the "buffering"
//!   time of Figure 1).
//!
//! A processor blocked on a send still drains incoming messages when it
//! is woken — without that, two nodes blocked on sends to each other
//! would deadlock, the §3.2 scenario.

use std::collections::VecDeque;

use nisim_engine::codec::{Codec, DecodeError};
use nisim_engine::{Json, Time};
use nisim_net::{fragment_at, Fragment, NetConfig};

use crate::ni::WireMsg;
use crate::process::SendSpec;

/// What the processor is doing right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcPhase {
    /// Executing; a continuation event is scheduled at `busy_until`.
    Busy,
    /// Waiting for a message (or finished and serving handlers).
    Idle,
    /// Waiting for a free outgoing flow-control buffer.
    BlockedSend,
}

impl Codec for ProcPhase {
    fn encode(&self) -> Json {
        Json::from(match self {
            ProcPhase::Busy => "busy",
            ProcPhase::Idle => "idle",
            ProcPhase::BlockedSend => "blocked-send",
        })
    }
    fn decode(v: &Json) -> Result<ProcPhase, DecodeError> {
        match v.as_str() {
            Some("busy") => Ok(ProcPhase::Busy),
            Some("idle") => Ok(ProcPhase::Idle),
            Some("blocked-send") => Ok(ProcPhase::BlockedSend),
            _ => Err(DecodeError::new("unknown processor phase")),
        }
    }
}

/// An application send in progress (fragments not yet handed to the NI).
#[derive(Clone, Debug)]
pub struct SendInProgress {
    /// The application-level request.
    pub spec: SendSpec,
    /// Transfer identity (shared by all fragments).
    pub transfer_id: u64,
    /// Index of the next fragment to inject.
    pub next: u32,
    /// Whether the send-space check for the current fragment has already
    /// been performed (and charged).
    pub checked_space: bool,
}

// A send whose last fragment went out is dropped at once, so a stored
// send always has a fragment left. How many fragments the payload takes
// depends on the network configuration, so the cross-struct restore
// pass checks it.
nisim_engine::struct_codec! {
    SendInProgress { spec, transfer_id, next, checked_space }
}

impl SendInProgress {
    /// The next fragment to inject, as `net` cuts the payload.
    pub fn fragment(&self, net: &NetConfig) -> Fragment {
        fragment_at(net, self.spec.payload_bytes, self.next)
    }
}

/// Per-node processor state.
#[derive(Clone, Debug)]
pub struct ProcState {
    /// Current phase.
    pub phase: ProcPhase,
    /// End of the current busy period (valid when `phase == Busy`).
    pub busy_until: Time,
    /// True once the program returned [`Action::Done`](crate::process::Action::Done).
    pub program_done: bool,
    /// The send currently being fragmented and injected.
    pub current_send: Option<SendInProgress>,
    /// Handler-generated sends waiting their turn.
    pub queued_sends: VecDeque<SendSpec>,
    /// Returned fragments awaiting a software re-send (processor-managed
    /// buffering only — §3.2: with FIFO NIs the processor itself must
    /// consume returned messages and retry them).
    pub pending_resends: VecDeque<WireMsg>,
    /// Guards against scheduling duplicate wake events.
    pub wake_pending: bool,
    /// Fully assembled application messages handled so far.
    pub app_messages_handled: u64,
}

nisim_engine::struct_codec! {
    ProcState {
        phase, busy_until, program_done, current_send, queued_sends, pending_resends, wake_pending,
        app_messages_handled
    }
}

impl ProcState {
    /// A processor about to start its program at time zero.
    pub fn new() -> ProcState {
        ProcState {
            phase: ProcPhase::Busy,
            busy_until: Time::ZERO,
            program_done: false,
            current_send: None,
            queued_sends: VecDeque::new(),
            pending_resends: VecDeque::new(),
            wake_pending: false,
            app_messages_handled: 0,
        }
    }

    /// True if the processor has nothing left to do locally (its program
    /// is done and no sends are pending). Incoming messages can still
    /// wake it.
    pub fn is_locally_quiescent(&self) -> bool {
        self.program_done
            && self.current_send.is_none()
            && self.queued_sends.is_empty()
            && self.pending_resends.is_empty()
    }
}

impl Default for ProcState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_net::NodeId;

    #[test]
    fn new_processor_starts_busy_at_zero() {
        let p = ProcState::new();
        assert_eq!(p.phase, ProcPhase::Busy);
        assert_eq!(p.busy_until, Time::ZERO);
        assert!(!p.program_done);
        assert!(!p.is_locally_quiescent());
    }

    #[test]
    fn quiescence_requires_no_pending_sends() {
        let mut p = ProcState::new();
        p.program_done = true;
        assert!(p.is_locally_quiescent());
        p.queued_sends.push_back(SendSpec::new(NodeId(1), 8, 0));
        assert!(!p.is_locally_quiescent());
    }

    #[test]
    fn send_in_progress_completion() {
        // 500 B in 248 B fragments: 248 + 248 + 4.
        let s = SendInProgress {
            spec: SendSpec::new(NodeId(1), 500, 0),
            transfer_id: 0,
            next: 0,
            checked_space: false,
        };
        let net = NetConfig::default();
        assert!(!s.fragment(&net).is_last());
        let last = SendInProgress { next: 2, ..s }.fragment(&net);
        assert!(last.is_last());
        assert_eq!((last.payload_bytes, last.offset), (4, 496));
    }
}
