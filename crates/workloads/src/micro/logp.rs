//! LogP characterisation of the NIs (§6.1 of the paper).
//!
//! The paper declines to report LogP numbers because the model's latency
//! (L) and overhead (o) components do not capture the same thing for all
//! NI designs — for CNIs, data transfer rides in L (the NI moves it),
//! while for CM-5-class NIs it lands in o (the processor moves it). This
//! module measures exactly that redistribution, which *is* the paper's
//! "degree of processor involvement" parameter made quantitative:
//!
//! * `o_send` / `o_recv` — processor occupancy per message on each side,
//! * `l` — the remaining end-to-end latency not covered by occupancy,
//! * `g` — the steady-state gap between message completions (1/rate).

use nisim_core::process::SendSpec;
use nisim_core::{MachineConfig, MachineReport, NiKind, TimeCategory};
use nisim_engine::Dur;
use nisim_net::NodeId;

use super::bandwidth::measure_bandwidth;
use super::pingpong::measure_round_trip;
use super::{run_to_sink, stream, table5_config, Undrained};

/// LogP-style characterisation of one NI at one payload size.
#[derive(Clone, Debug)]
pub struct LogPResult {
    /// The NI characterised.
    pub kind: NiKind,
    /// Payload size (bytes).
    pub payload_bytes: u64,
    /// Sending-processor occupancy per message (µs).
    pub o_send_us: f64,
    /// Receiving-processor occupancy per message (µs).
    pub o_recv_us: f64,
    /// One-way latency not attributable to processor occupancy (µs).
    pub l_us: f64,
    /// Steady-state gap between message completions (µs).
    pub g_us: f64,
}

impl LogPResult {
    /// Fraction of the one-way time the processor is occupied — the
    /// paper's "degree of processor involvement" made a number.
    pub fn involvement(&self) -> f64 {
        let one_way = self.l_us + (self.o_send_us + self.o_recv_us) / 2.0;
        if one_way <= 0.0 {
            return 0.0;
        }
        ((self.o_send_us + self.o_recv_us) / 2.0) / one_way
    }
}

/// Measures the LogP-style parameters of `kind` for `payload_bytes`
/// messages at the Table 5 configuration, with the [`MachineReport`] of
/// the bandwidth leg (the run whose ledger carries the steady-state
/// transfer accounting).
///
/// # Errors
///
/// [`Undrained`] if any of the three runs does not complete.
pub fn measure_logp(
    kind: NiKind,
    payload_bytes: u64,
) -> Result<(LogPResult, MachineReport), Undrained> {
    let cfg = table5_config(kind);
    // Round trip bounds L + o terms; occupancies come from the ledgers of
    // a unidirectional stream.
    let rtt = measure_round_trip(&cfg, payload_bytes)?.0.mean_us;
    let (o_send, o_recv, msgs) = stream_occupancy(&cfg, payload_bytes)?;
    let o_send_us = o_send.as_ns() as f64 / msgs as f64 / 1_000.0;
    let o_recv_us = o_recv.as_ns() as f64 / msgs as f64 / 1_000.0;
    let (bw, report) = measure_bandwidth(&cfg, payload_bytes)?;
    // MB/s is bytes per microsecond, so the inter-message gap in µs is
    // simply payload / bandwidth.
    let g_us = payload_bytes as f64 / bw.mb_per_s;
    let l_us = (rtt / 2.0 - (o_send_us + o_recv_us) / 2.0).max(0.0);
    let result = LogPResult {
        kind,
        payload_bytes,
        o_send_us,
        o_recv_us,
        l_us,
        g_us,
    };
    Ok((result, report))
}

/// Streams `count` messages of `payload` bytes from node 0 to node 1 and
/// returns `(sender data-transfer time, receiver data-transfer time,
/// messages)` — the per-side processor occupancy attributable to
/// messaging.
fn stream_occupancy(cfg: &MachineConfig, payload: u64) -> Result<(Dur, Dur, u32), Undrained> {
    let count = 100u32;
    let program = stream(SendSpec::new(NodeId(1), payload, 0), count);
    let report = run_to_sink(cfg, program)?;
    Ok((
        report.ledgers[0].get(TimeCategory::DataTransfer),
        report.ledgers[1].get(TimeCategory::DataTransfer),
        count,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logp(kind: NiKind, payload_bytes: u64) -> LogPResult {
        measure_logp(kind, payload_bytes).expect("drains").0
    }

    #[test]
    fn occupancy_is_positive_and_scales() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5);
        let (s8, r8, n) = stream_occupancy(&cfg, 8).expect("drains");
        let (s256, r256, _) = stream_occupancy(&cfg, 256).expect("drains");
        assert_eq!(n, 100);
        assert!(s8 > Dur::ZERO && r8 > Dur::ZERO);
        assert!(s256 > s8 && r256 > r8);
    }

    #[test]
    fn processor_managed_nis_have_higher_occupancy() {
        // §2.2.2/§6.1: NIs that require processor involvement for data
        // transfer show higher o than the NI-managed designs.
        let cm5 = logp(NiKind::Cm5, 64);
        let cni = logp(NiKind::Cni32Qm, 64);
        assert!(
            cm5.o_send_us + cm5.o_recv_us > 1.5 * (cni.o_send_us + cni.o_recv_us),
            "cm5 o {} vs cni o {}",
            cm5.o_send_us + cm5.o_recv_us,
            cni.o_send_us + cni.o_recv_us
        );
        assert!(cm5.involvement() > cni.involvement());
    }

    #[test]
    fn occupancy_moves_into_latency_for_ni_managed_designs() {
        // The exact effect that makes LogP ambiguous in the paper: for
        // the coherent NIs the transfer time shows up in L, not o.
        let cni = logp(NiKind::Cni32Qm, 256);
        assert!(cni.l_us > cni.o_send_us, "{cni:?}");
    }

    #[test]
    fn gap_tracks_bandwidth() {
        let r = logp(NiKind::Ap3000, 256);
        assert!(r.g_us > 0.0 && r.g_us < 10.0);
    }
}
