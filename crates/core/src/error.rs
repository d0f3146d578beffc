//! Typed errors and stall diagnostics for the machine.
//!
//! The original event logic treated every unexpected protocol state as a
//! programming error and panicked. Fault injection makes several of
//! those states *reachable* (a duplicated message produces a second ack
//! for an already-released fragment, for example), and even genuine
//! violations are more useful as data than as aborts. This module is the
//! error channel: [`ProtocolViolation`] names each condition, the
//! machine records them with timestamps instead of panicking, and
//! [`StallReport`] captures a full per-endpoint snapshot when the
//! no-progress watchdog declares the run wedged.

use std::fmt;

use nisim_engine::codec::{Codec, DecodeError, Fields};
use nisim_engine::{Dur, Json, Time};
use nisim_net::{FlowStats, MsgId, NodeId, RelStats};

/// A protocol state that the loss-free simulator treats as impossible.
///
/// With fault injection active and the reliability layer enabled, the
/// `…ForUnknownFragment` variants are expected side effects of
/// duplication and are absorbed silently; in a loss-free run they are
/// recorded here instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// `do_send_step` dispatched with no send in progress.
    SendStepWithoutCurrentSend {
        /// The node whose processor was dispatched.
        node: NodeId,
    },
    /// A software re-send dispatched with nothing pending.
    ResendWithoutPending {
        /// The node whose processor was dispatched.
        node: NodeId,
    },
    /// A drain dispatched with no consumable fragment.
    DrainWithoutReady {
        /// The node whose processor was dispatched.
        node: NodeId,
    },
    /// An ack arrived for a fragment that is not outstanding.
    AckForUnknownFragment {
        /// The node that received the ack.
        node: NodeId,
        /// The acked fragment.
        msg: MsgId,
    },
    /// A returned message arrived for a fragment that is not outstanding.
    ReturnForUnknownFragment {
        /// The node that received the return.
        node: NodeId,
        /// The returned fragment.
        msg: MsgId,
    },
    /// A retry fired for a fragment that is not outstanding.
    RetryForUnknownFragment {
        /// The retrying node.
        node: NodeId,
        /// The fragment.
        msg: MsgId,
    },
    /// The machine asked the scheduler to fire an event before the
    /// current simulated time. The event is dropped and recorded here
    /// (via [`nisim_engine::ScheduleError`]) instead of aborting the
    /// run: one buggy NI timing model yields a diagnosable record, not
    /// a dead sweep.
    EventScheduledInPast {
        /// The requested (past) fire time.
        at: Time,
        /// The scheduler's time when the request was made.
        now: Time,
    },
    /// The reliability layer retransmitted a fragment `attempts` times
    /// without ever seeing an ack and gave up. The fragment stays
    /// outstanding (its flow-control buffer is never released), so the
    /// machine cannot reach quiescence and the watchdog reports a stall.
    RetryCapExhausted {
        /// The sending node.
        node: NodeId,
        /// The undeliverable fragment.
        msg: MsgId,
        /// Retransmissions attempted.
        attempts: u32,
    },
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolViolation::SendStepWithoutCurrentSend { node } => {
                write!(f, "{node}: send step without a current send")
            }
            ProtocolViolation::ResendWithoutPending { node } => {
                write!(f, "{node}: re-send without a pending resend")
            }
            ProtocolViolation::DrainWithoutReady { node } => {
                write!(f, "{node}: drain without a ready fragment")
            }
            ProtocolViolation::AckForUnknownFragment { node, msg } => {
                write!(f, "{node}: ack for unknown fragment {msg:?}")
            }
            ProtocolViolation::ReturnForUnknownFragment { node, msg } => {
                write!(f, "{node}: return for unknown fragment {msg:?}")
            }
            ProtocolViolation::RetryForUnknownFragment { node, msg } => {
                write!(f, "{node}: retry for unknown fragment {msg:?}")
            }
            ProtocolViolation::EventScheduledInPast { at, now } => {
                write!(f, "event scheduled in the past: at={at} now={now}")
            }
            ProtocolViolation::RetryCapExhausted {
                node,
                msg,
                attempts,
            } => write!(
                f,
                "{node}: gave up on fragment {msg:?} after {attempts} retransmissions"
            ),
        }
    }
}

/// One recorded violation: what and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Simulated time of the violation.
    pub at: Time,
    /// What happened.
    pub kind: ProtocolViolation,
}

/// `{"at", "kind", ...}`: the kind's fields sit beside `at`, under the
/// keys below.
impl Codec for Violation {
    fn encode(&self) -> Json {
        use ProtocolViolation as P;
        let node = |n: NodeId| ("node", n.encode());
        let msg = |m: MsgId| ("msg", m.encode());
        let (kind, fields) = match self.kind {
            P::SendStepWithoutCurrentSend { node: n } => ("send_step", vec![node(n)]),
            P::ResendWithoutPending { node: n } => ("resend", vec![node(n)]),
            P::DrainWithoutReady { node: n } => ("drain", vec![node(n)]),
            P::AckForUnknownFragment { node: n, msg: m } => ("unknown_ack", vec![node(n), msg(m)]),
            P::ReturnForUnknownFragment { node: n, msg: m } => {
                ("unknown_return", vec![node(n), msg(m)])
            }
            P::RetryForUnknownFragment { node: n, msg: m } => {
                ("unknown_retry", vec![node(n), msg(m)])
            }
            P::EventScheduledInPast { at, now } => (
                "past_schedule",
                vec![("sched_at", at.encode()), ("sched_now", now.encode())],
            ),
            P::RetryCapExhausted {
                node: n,
                msg: m,
                attempts,
            } => (
                "retry_cap",
                vec![node(n), msg(m), ("attempts", attempts.encode())],
            ),
        };
        let head = Json::obj().set("at", self.at.encode()).set("kind", kind);
        fields.into_iter().fold(head, |v, (k, x)| v.set(k, x))
    }

    fn decode(v: &Json) -> Result<Violation, DecodeError> {
        use ProtocolViolation as P;
        let mut f = Fields::of(v)?;
        let at = f.get("at")?;
        let kind = match f.tag("kind")? {
            "send_step" => P::SendStepWithoutCurrentSend {
                node: f.get("node")?,
            },
            "resend" => P::ResendWithoutPending {
                node: f.get("node")?,
            },
            "drain" => P::DrainWithoutReady {
                node: f.get("node")?,
            },
            "unknown_ack" => P::AckForUnknownFragment {
                node: f.get("node")?,
                msg: f.get("msg")?,
            },
            "unknown_return" => P::ReturnForUnknownFragment {
                node: f.get("node")?,
                msg: f.get("msg")?,
            },
            "unknown_retry" => P::RetryForUnknownFragment {
                node: f.get("node")?,
                msg: f.get("msg")?,
            },
            "past_schedule" => P::EventScheduledInPast {
                at: f.get("sched_at")?,
                now: f.get("sched_now")?,
            },
            "retry_cap" => P::RetryCapExhausted {
                node: f.get("node")?,
                msg: f.get("msg")?,
                attempts: f.get("attempts")?,
            },
            other => {
                return Err(DecodeError::new(format!("unknown violation `{other}`")).in_key("kind"))
            }
        };
        f.finish()?;
        Ok(Violation { at, kind })
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.at, self.kind)
    }
}

/// Why the watchdog declared the run stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallReason {
    /// Events kept firing but nothing counted as forward progress for a
    /// full watchdog window (e.g. an unbounded retry storm).
    NoProgress {
        /// The configured watchdog window.
        window: Dur,
    },
    /// The event queue drained but endpoints still hold work: unacked
    /// fragments, undrained receive queues, or blocked processors. The
    /// classic cause is a sender whose retransmissions all vanished and
    /// whose retry cap ran out.
    WedgedNotQuiescent,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallReason::NoProgress { window } => {
                write!(f, "no forward progress for {window}")
            }
            StallReason::WedgedNotQuiescent => {
                write!(f, "event queue drained with work still pending")
            }
        }
    }
}

/// Diagnostic snapshot of one endpoint's flow-control and retransmit
/// state at stall time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EndpointSnapshot {
    /// The node.
    pub node: NodeId,
    /// Processor phase ("idle" / "blocked-send" / "busy").
    pub phase: &'static str,
    /// True if the node's program issued `Action::Done`.
    pub program_done: bool,
    /// Outgoing flow-control buffers held.
    pub send_in_use: u32,
    /// Incoming flow-control buffers held.
    pub recv_in_use: u32,
    /// Sent fragments still awaiting an ack.
    pub outstanding: usize,
    /// Of those, fragments the reliability layer has given up on.
    pub gave_up: usize,
    /// Deposited fragments not yet drained.
    pub rx_queued: usize,
    /// Returned fragments awaiting a software re-send.
    pub pending_resends: usize,
    /// Handler-queued sends not yet started.
    pub queued_sends: usize,
    /// Flow-control counters.
    pub flow: FlowStats,
    /// Reliability-layer counters.
    pub rel: RelStats,
    /// Deliveries the fault layer swallowed for this sender (down or
    /// crash windows covering either endpoint).
    pub outage_swallowed: u64,
    /// Fragments whose retransmission cap ran out (mirror of
    /// `rel.gave_up`, surfaced per endpoint for the CLI stall summary).
    pub retries_exhausted: u64,
}

impl fmt::Display for EndpointSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>7}  {:<12} done={:<5} send-bufs={:<3} recv-bufs={:<3} \
             outstanding={:<3} gave-up={:<3} rx={:<3} resends={:<3} queued={:<3} \
             swallowed={:<3} exhausted={:<3} | {}",
            self.node.to_string(),
            self.phase,
            self.program_done,
            self.send_in_use,
            self.recv_in_use,
            self.outstanding,
            self.gave_up,
            self.rx_queued,
            self.pending_resends,
            self.queued_sends,
            self.outage_swallowed,
            self.retries_exhausted,
            self.rel,
        )
    }
}

/// Everything the watchdog knows at stall time: the reason plus a
/// snapshot of every endpoint. `Display` renders the full diagnostic
/// dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// Simulated time of the stall.
    pub at: Time,
    /// Why the run was declared stalled.
    pub reason: StallReason,
    /// Per-endpoint state.
    pub endpoints: Vec<EndpointSnapshot>,
    /// Protocol violations recorded up to the stall.
    pub violations: Vec<Violation>,
}

impl StallReport {
    /// Endpoints that still hold unfinished work (the interesting rows).
    pub fn wedged_endpoints(&self) -> impl Iterator<Item = &EndpointSnapshot> {
        self.endpoints.iter().filter(|e| {
            !e.program_done
                || e.outstanding > 0
                || e.rx_queued > 0
                || e.pending_resends > 0
                || e.queued_sends > 0
                || e.send_in_use > 0
                || e.recv_in_use > 0
        })
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "STALLED at {}: {}", self.at, self.reason)?;
        for e in &self.endpoints {
            writeln!(f, "  {e}")?;
        }
        if !self.violations.is_empty() {
            writeln!(f, "  violations ({}):", self.violations.len())?;
            for v in self.violations.iter().take(16) {
                writeln!(f, "    {v}")?;
            }
            if self.violations.len() > 16 {
                writeln!(f, "    … and {} more", self.violations.len() - 16)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(node: u32) -> EndpointSnapshot {
        EndpointSnapshot {
            node: NodeId(node),
            phase: "idle",
            program_done: true,
            send_in_use: 0,
            recv_in_use: 0,
            outstanding: 0,
            gave_up: 0,
            rx_queued: 0,
            pending_resends: 0,
            queued_sends: 0,
            flow: FlowStats::default(),
            rel: RelStats::default(),
            outage_swallowed: 0,
            retries_exhausted: 0,
        }
    }

    #[test]
    fn violations_render() {
        let v = Violation {
            at: Time::from_ns(420),
            kind: ProtocolViolation::RetryCapExhausted {
                node: NodeId(3),
                msg: MsgId(17),
                attempts: 10,
            },
        };
        let s = v.to_string();
        assert!(s.contains("node3"), "{s}");
        assert!(s.contains("10 retransmissions"), "{s}");
    }

    #[test]
    fn wedged_filter_spots_held_state() {
        let clean = snapshot(0);
        let mut wedged = snapshot(1);
        wedged.outstanding = 2;
        wedged.gave_up = 1;
        let report = StallReport {
            at: Time::from_ns(1000),
            reason: StallReason::WedgedNotQuiescent,
            endpoints: vec![clean, wedged],
            violations: Vec::new(),
        };
        let hot: Vec<u32> = report.wedged_endpoints().map(|e| e.node.0).collect();
        assert_eq!(hot, [1]);
        let dump = report.to_string();
        assert!(dump.contains("STALLED"), "{dump}");
        assert!(dump.contains("node1"), "{dump}");
    }

    #[test]
    fn stall_report_lists_violations() {
        let report = StallReport {
            at: Time::from_ns(5),
            reason: StallReason::NoProgress {
                window: Dur::us(100),
            },
            endpoints: vec![snapshot(0)],
            violations: vec![Violation {
                at: Time::from_ns(3),
                kind: ProtocolViolation::AckForUnknownFragment {
                    node: NodeId(0),
                    msg: MsgId(9),
                },
            }],
        };
        let dump = report.to_string();
        assert!(dump.contains("violations (1)"), "{dump}");
        assert!(dump.contains("unknown fragment"), "{dump}");
    }
}
