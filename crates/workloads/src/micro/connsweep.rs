//! Connection-count sweep: the QP-state-capacity study.
//!
//! Node 0 streams a fixed message sequence to node 1 as fast as flow
//! control allows, labelling message `i` with connection `i % E + 1` for
//! `E` simulated logical endpoints. The destination sequence is the same
//! for every `E`, so an NI that ignores connections (URMA, and every
//! Table 2 design) produces a byte-identical run at any endpoint count —
//! the flat curve. A connection-aware NI with a bounded QP-state cache
//! (RDMA_QP) starts thrashing once `E` exceeds
//! [`MachineConfig::qp_cache_entries`]: round-robin reuse against an LRU
//! cache gives a 0% hit rate past capacity, and every fragment pays the
//! context fetch on both sides — the state-capacity cliff.

use nisim_core::process::{Action, SendSpec};
use nisim_core::{MachineConfig, MachineReport};
use nisim_engine::metrics::MetricsConfig;
use nisim_net::NodeId;

use super::{run_to_sink, Undrained};

const TAG_SWEEP: u32 = 5;

/// Result of one endpoint count in the connection sweep.
#[derive(Clone, Debug)]
pub struct ConnSweepResult {
    /// Simulated logical endpoints (distinct connection labels).
    pub endpoints: u32,
    /// Median end-to-end message latency, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile end-to-end message latency, nanoseconds.
    pub p99_ns: f64,
    /// Mean end-to-end message latency, nanoseconds.
    pub mean_ns: f64,
    /// Messages measured.
    pub messages: u64,
}

/// Runs the connection sweep at one endpoint count: `count` messages of
/// `payload` bytes, connections assigned round-robin over `endpoints`,
/// with the full [`MachineReport`] of the measurement run.
///
/// # Errors
///
/// [`Undrained`] if the stream does not complete.
///
/// # Panics
///
/// Panics if `endpoints` is zero.
pub fn measure_conn_sweep(
    cfg: &MachineConfig,
    endpoints: u32,
    count: u32,
    payload: u64,
) -> Result<(ConnSweepResult, MachineReport), Undrained> {
    assert!(endpoints >= 1, "the sweep needs at least one endpoint");
    let cfg = cfg.clone().metrics(MetricsConfig::enabled());
    let program = (0..count).map(move |i| {
        Action::Send(SendSpec::new(NodeId(1), payload, TAG_SWEEP).on_conn(i % endpoints + 1))
    });
    let report = run_to_sink(&cfg, program)?;
    assert_eq!(report.app_messages, count as u64);
    let rtt = report
        .breakdown
        .as_ref()
        .expect("metrics were enabled")
        .msg_rtt
        .percentiles();
    let result = ConnSweepResult {
        endpoints,
        p50_ns: rtt.p50,
        p99_ns: rtt.p99,
        mean_ns: report.msg_latency.mean(),
        messages: report.app_messages,
    };
    Ok((result, report))
}

/// The endpoint counts of the standard sweep: 4 to 1024, straddling the
/// default 64-entry QP cache.
pub const SWEEP_ENDPOINTS: [u32; 5] = [4, 16, 64, 256, 1024];

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::NiKind;

    fn sweep(cfg: &MachineConfig, endpoints: u32, count: u32) -> ConnSweepResult {
        measure_conn_sweep(cfg, endpoints, count, 64)
            .expect("the sweep drains")
            .0
    }

    #[test]
    fn urma_is_flat_across_endpoint_counts() {
        let cfg = MachineConfig::with_ni(NiKind::Urma);
        let few = sweep(&cfg, 4, 120);
        let many = sweep(&cfg, 1024, 120);
        // Connectionless: the runs are identical, not merely close.
        assert_eq!(few.p99_ns, many.p99_ns);
        assert_eq!(few.mean_ns, many.mean_ns);
    }

    #[test]
    fn rdma_qp_falls_off_the_state_capacity_cliff() {
        let cfg = MachineConfig::with_ni(NiKind::RdmaQp);
        let few = sweep(&cfg, 4, 512);
        let many = sweep(&cfg, 1024, 512);
        assert!(
            many.p99_ns >= 2.0 * few.p99_ns,
            "thrashing QP cache must at least double p99: {} vs {}",
            many.p99_ns,
            few.p99_ns
        );
    }

    #[test]
    fn cliff_sits_past_the_configured_capacity() {
        // With a roomier cache the same endpoint count stays on the flat
        // part of the curve.
        let small = sweep(
            &MachineConfig::with_ni(NiKind::RdmaQp).qp_cache_entries(16),
            256,
            768,
        );
        let large = sweep(
            &MachineConfig::with_ni(NiKind::RdmaQp).qp_cache_entries(1024),
            256,
            768,
        );
        assert!(
            small.mean_ns > large.mean_ns,
            "under-provisioned cache must cost more: {} vs {}",
            small.mean_ns,
            large.mean_ns
        );
    }
}
