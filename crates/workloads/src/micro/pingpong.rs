//! Process-to-process round-trip latency (Table 5, left half).
//!
//! Node 0 sends a `payload`-byte message to node 1, whose handler echoes
//! a message of the same payload; the round trip ends when node 0's
//! handler runs. Timing starts when the sending *process* issues the send
//! (so the messaging-software costs are included — the paper's numbers
//! are process-to-process) and a few warm-up round trips precede the
//! measurement so caches and queue laps reach steady state.

use std::cell::RefCell;
use std::rc::Rc;

use nisim_core::process::{Action, AppMessage, HandlerSpec, Process, SendSpec};
use nisim_core::{Machine, MachineConfig, NiKind};
use nisim_engine::stats::Summary;
use nisim_engine::Time;
use nisim_net::{BufferCount, NodeId};

const TAG_PING: u32 = 1;
const TAG_PONG: u32 = 2;

/// Result of a round-trip measurement.
#[derive(Clone, Debug)]
pub struct RoundTripResult {
    /// Payload size measured.
    pub payload_bytes: u64,
    /// Mean round-trip latency in microseconds.
    pub mean_us: f64,
    /// Fastest observed round trip (µs).
    pub min_us: f64,
    /// Slowest observed round trip (µs).
    pub max_us: f64,
    /// Round trips measured (after warm-up).
    pub samples: u64,
}

struct Pinger {
    payload: u64,
    warmup_left: u32,
    measured_left: u32,
    awaiting_pong: bool,
    sent_at: Time,
    rtts: Rc<RefCell<Summary>>,
    done: bool,
}

impl Process for Pinger {
    fn next_action(&mut self, now: Time) -> Action {
        if self.awaiting_pong {
            return Action::Wait;
        }
        if self.warmup_left == 0 && self.measured_left == 0 {
            self.done = true;
            return Action::Done;
        }
        self.awaiting_pong = true;
        self.sent_at = now;
        Action::Send(SendSpec::new(NodeId(1), self.payload, TAG_PING))
    }

    fn on_message(&mut self, msg: &AppMessage, now: Time) -> HandlerSpec {
        debug_assert_eq!(msg.tag, TAG_PONG);
        self.awaiting_pong = false;
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
        } else {
            self.measured_left -= 1;
            self.rtts
                .borrow_mut()
                .record((now - self.sent_at).as_ns() as f64);
        }
        HandlerSpec::empty()
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

struct Ponger {
    payload: u64,
}

impl Process for Ponger {
    fn next_action(&mut self, _now: Time) -> Action {
        Action::Done
    }

    fn on_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
        debug_assert_eq!(msg.tag, TAG_PING);
        HandlerSpec::reply(
            nisim_engine::Dur::ZERO,
            SendSpec::new(msg.src, self.payload, TAG_PONG),
        )
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Measures the process-to-process round-trip latency of `ni` for
/// `payload_bytes` messages, with the Table 5 configuration (8 flow
/// control buffers) unless overridden in `cfg`.
///
/// # Panics
///
/// Panics if the simulation fails to complete (a protocol bug).
pub fn measure_round_trip(cfg: &MachineConfig, payload_bytes: u64) -> RoundTripResult {
    measure_round_trip_with_report(cfg, payload_bytes).0
}

/// Like [`measure_round_trip`], additionally returning the full
/// [`MachineReport`](nisim_core::MachineReport) of the measurement run —
/// sweep records keep the per-component accounting and counters.
///
/// # Panics
///
/// Panics if the simulation fails to complete (a protocol bug).
pub fn measure_round_trip_with_report(
    cfg: &MachineConfig,
    payload_bytes: u64,
) -> (RoundTripResult, nisim_core::MachineReport) {
    let rtts = Rc::new(RefCell::new(Summary::new()));
    let rtts_factory = rtts.clone();
    let cfg = cfg.clone().nodes(2);
    let payload = payload_bytes;
    let report = Machine::run(cfg, move |id| -> Box<dyn Process> {
        if id.0 == 0 {
            Box::new(Pinger {
                payload,
                // Queues start pre-warmed; a short warm-up settles the
                // remaining state (block-buffer residency, NI caches).
                warmup_left: 32,
                measured_left: 32,
                awaiting_pong: false,
                sent_at: Time::ZERO,
                rtts: rtts_factory.clone(),
                done: false,
            })
        } else {
            Box::new(Ponger { payload })
        }
    });
    assert!(
        report.all_quiescent,
        "ping-pong did not complete: {report:?}"
    );
    let s = rtts.borrow();
    (
        RoundTripResult {
            payload_bytes,
            mean_us: s.mean() / 1_000.0,
            min_us: s.min() / 1_000.0,
            max_us: s.max() / 1_000.0,
            samples: s.count(),
        },
        report,
    )
}

/// Convenience: round-trip latency for one NI kind at Table 5 defaults.
pub fn round_trip_for(kind: NiKind, payload_bytes: u64) -> RoundTripResult {
    let cfg = MachineConfig::with_ni(kind)
        .flow_buffers(BufferCount::Finite(8))
        .for_microbenchmark();
    measure_round_trip(&cfg, payload_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_the_requested_number_of_samples() {
        let r = round_trip_for(NiKind::Cm5, 8);
        assert_eq!(r.samples, 32);
        assert!(r.mean_us > 0.0);
        assert!(r.min_us <= r.mean_us && r.mean_us <= r.max_us);
    }

    #[test]
    fn latency_grows_with_payload() {
        let small = round_trip_for(NiKind::Cm5, 8);
        let large = round_trip_for(NiKind::Cm5, 256);
        assert!(large.mean_us > small.mean_us * 2.0);
    }

    #[test]
    fn steady_state_is_stable() {
        // After warm-up, round trips should be essentially constant.
        let r = round_trip_for(NiKind::Cni32Qm, 64);
        assert!(r.max_us - r.min_us < 0.25 * r.mean_us, "noisy: {r:?}");
    }
}
