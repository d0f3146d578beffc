//! Process-to-process streaming bandwidth (Table 5, right half).
//!
//! Node 0 streams `count` messages of `payload` bytes to node 1 as fast
//! as flow control allows; node 1 consumes them. Bandwidth is measured
//! over the steady-state window (the first few messages are warm-up), as
//! payload megabytes per second at the *receiver* — the paper's
//! process-to-process definition.

use std::cell::RefCell;
use std::rc::Rc;

use nisim_core::process::{Action, AppMessage, HandlerSpec, Process, SendSpec};
use nisim_core::{Machine, MachineConfig, NiKind};
use nisim_engine::Time;
use nisim_net::{BufferCount, NodeId};

const TAG_STREAM: u32 = 3;

/// Result of a bandwidth measurement.
#[derive(Clone, Debug)]
pub struct BandwidthResult {
    /// Payload size streamed.
    pub payload_bytes: u64,
    /// Steady-state payload bandwidth in megabytes per second.
    pub mb_per_s: f64,
    /// Messages measured (after warm-up).
    pub messages: u64,
}

struct Streamer {
    payload: u64,
    left: u32,
    done: bool,
}

impl Process for Streamer {
    fn next_action(&mut self, _now: Time) -> Action {
        if self.left == 0 {
            self.done = true;
            return Action::Done;
        }
        self.left -= 1;
        Action::Send(SendSpec::new(NodeId(1), self.payload, TAG_STREAM))
    }

    fn on_message(&mut self, _msg: &AppMessage, _now: Time) -> HandlerSpec {
        HandlerSpec::empty()
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[derive(Clone, Debug, Default)]
struct SinkLog {
    /// Completion time of each received message, in arrival order.
    times: Vec<Time>,
}

struct Sink {
    log: Rc<RefCell<SinkLog>>,
}

impl Process for Sink {
    fn next_action(&mut self, _now: Time) -> Action {
        Action::Done
    }

    fn on_message(&mut self, msg: &AppMessage, now: Time) -> HandlerSpec {
        debug_assert_eq!(msg.tag, TAG_STREAM);
        self.log.borrow_mut().times.push(now);
        HandlerSpec::empty()
    }

    fn is_done(&self) -> bool {
        true
    }
}

/// Measures steady-state streaming bandwidth under `cfg` for
/// `payload_bytes` messages.
///
/// # Panics
///
/// Panics if the stream fails to complete.
pub fn measure_bandwidth(cfg: &MachineConfig, payload_bytes: u64) -> BandwidthResult {
    measure_bandwidth_with_report(cfg, payload_bytes).0
}

/// Like [`measure_bandwidth`], additionally returning the full
/// [`MachineReport`](nisim_core::MachineReport) of the measurement run.
///
/// # Panics
///
/// Panics if the stream fails to complete.
pub fn measure_bandwidth_with_report(
    cfg: &MachineConfig,
    payload_bytes: u64,
) -> (BandwidthResult, nisim_core::MachineReport) {
    // Enough messages that the warm-up window covers the first lap of
    // the coherent NIs' queue regions (cold BusRdX fills).
    let count: u32 = 170;
    let warmup: usize = 70;
    let log = Rc::new(RefCell::new(SinkLog::default()));
    let log_factory = log.clone();
    let cfg = cfg.clone().nodes(2);
    let payload = payload_bytes;
    let report = Machine::run(cfg, move |id| -> Box<dyn Process> {
        if id.0 == 0 {
            Box::new(Streamer {
                payload,
                left: count,
                done: false,
            })
        } else {
            Box::new(Sink {
                log: log_factory.clone(),
            })
        }
    });
    assert!(report.all_quiescent, "stream did not complete: {report:?}");
    let log = log.borrow();
    assert_eq!(log.times.len(), count as usize);
    let window = &log.times[warmup..];
    let elapsed = *window.last().expect("window non-empty") - window[0];
    let messages = (window.len() - 1) as u64;
    let bytes = messages * payload_bytes;
    let result = BandwidthResult {
        payload_bytes,
        mb_per_s: bytes as f64 / elapsed.as_ns() as f64 * 1_000.0,
        messages,
    };
    (result, report)
}

/// Convenience: bandwidth for one NI kind at Table 5 defaults (8 flow
/// control buffers; pure UDMA for the UDMA-based NI).
pub fn bandwidth_for(kind: NiKind, payload_bytes: u64) -> BandwidthResult {
    let cfg = MachineConfig::with_ni(kind)
        .flow_buffers(BufferCount::Finite(8))
        .for_microbenchmark();
    measure_bandwidth(&cfg, payload_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_positive_and_grows_with_payload() {
        let small = bandwidth_for(NiKind::Ap3000, 8);
        let large = bandwidth_for(NiKind::Ap3000, 256);
        assert!(small.mb_per_s > 0.0);
        assert!(large.mb_per_s > small.mb_per_s * 2.0);
    }

    #[test]
    fn block_ni_beats_word_ni_at_large_payloads() {
        let cm5 = bandwidth_for(NiKind::Cm5, 4096);
        let ap = bandwidth_for(NiKind::Ap3000, 4096);
        assert!(
            ap.mb_per_s > 1.5 * cm5.mb_per_s,
            "ap {} vs cm5 {}",
            ap.mb_per_s,
            cm5.mb_per_s
        );
    }

    #[test]
    fn throttling_helps_cni32qm_at_large_payloads() {
        let plain = bandwidth_for(NiKind::Cni32Qm, 4096);
        let throttled = bandwidth_for(NiKind::Cni32QmThrottle, 4096);
        assert!(
            throttled.mb_per_s > plain.mb_per_s,
            "throttled {} vs plain {}",
            throttled.mb_per_s,
            plain.mb_per_s
        );
    }
}
