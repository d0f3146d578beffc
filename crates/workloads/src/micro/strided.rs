//! Strided matrix-row exchange: the scatter-gather DMA workload.
//!
//! Two nodes exchange `rows` rows of a row-major matrix where only a
//! `row_bytes`-wide column slice of each row is needed — the classic
//! non-contiguous halo exchange that descriptor-driven NICs (sPIN, arxiv
//! 1908.08590) accelerate. Two software strategies:
//!
//! * **Gathered** — one send carries all rows; the tag encodes the
//!   element geometry ([`encode_gather_tag`]) so a scatter-gather NI
//!   walks the strided elements itself. One software send path total.
//! * **Fragment-per-element** — one send *per row*, the only option on
//!   NIs without descriptor support. Pays the full software send path,
//!   per-message headers and per-message handler dispatch `rows` times.
//!
//! The golden locks in that SGDMA with gathered descriptors beats the
//! fragment-per-element strategy on the same machine.

use nisim_core::ni::sgdma::encode_gather_tag;
use nisim_core::process::SendSpec;
use nisim_core::{MachineConfig, MachineReport};
use nisim_net::NodeId;

use super::{run_to_sink, stream, Undrained};

/// Result of one strided-exchange run.
#[derive(Clone, Debug)]
pub struct StridedResult {
    /// Total simulated time to complete every exchange round.
    pub elapsed_ns: u64,
    /// Application messages delivered.
    pub messages: u64,
    /// Network fragments injected.
    pub fragments: u64,
}

/// How the strided rows are pushed through the NI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StridedStrategy {
    /// One descriptor-driven send for all rows (gather tag).
    Gathered,
    /// One plain send per row.
    FragmentPerElement,
}

/// Runs `rounds` strided exchanges of `rows` x `row_bytes` under `cfg`,
/// with the full [`MachineReport`] of the run.
///
/// # Errors
///
/// [`Undrained`] if the exchange does not complete.
///
/// # Panics
///
/// Panics if the geometry exceeds the gather-tag fields (`rows` above
/// 0x3FFF, `row_bytes` above 0xFFFF).
pub fn measure_strided(
    cfg: &MachineConfig,
    strategy: StridedStrategy,
    rows: u32,
    row_bytes: u64,
    rounds: u32,
) -> Result<(StridedResult, MachineReport), Undrained> {
    assert!((1..=0x3FFF).contains(&rows), "rows must fit the gather tag");
    assert!(
        (1..=0xFFFF).contains(&row_bytes),
        "row_bytes must fit the gather tag"
    );
    let (spec, per_round) = match strategy {
        StridedStrategy::Gathered => (
            SendSpec::new(
                NodeId(1),
                rows as u64 * row_bytes,
                encode_gather_tag(rows, row_bytes as u32),
            ),
            1,
        ),
        StridedStrategy::FragmentPerElement => (SendSpec::new(NodeId(1), row_bytes, 0), rows),
    };
    let program = (0..rounds).flat_map(move |_| stream(spec, per_round));
    let report = run_to_sink(cfg, program)?;
    let result = StridedResult {
        elapsed_ns: report.elapsed.as_ns(),
        messages: report.app_messages,
        fragments: report.fragments_sent,
    };
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::NiKind;

    #[test]
    fn gather_beats_fragment_per_element_on_sgdma() {
        let cfg = MachineConfig::with_ni(NiKind::Sgdma);
        let run = |strategy| {
            measure_strided(&cfg, strategy, 16, 15, 8)
                .expect("drains")
                .0
        };
        let gathered = run(StridedStrategy::Gathered);
        let per_row = run(StridedStrategy::FragmentPerElement);
        assert!(
            gathered.elapsed_ns < per_row.elapsed_ns,
            "gather {} vs per-row {}",
            gathered.elapsed_ns,
            per_row.elapsed_ns
        );
        assert!(gathered.fragments < per_row.fragments);
        assert_eq!(per_row.messages, 16 * 8);
    }

    #[test]
    fn geometry_outside_the_tag_is_rejected() {
        let cfg = MachineConfig::with_ni(NiKind::Sgdma);
        let r = std::panic::catch_unwind(|| {
            measure_strided(&cfg, StridedStrategy::Gathered, 0x8000, 8, 1)
        });
        assert!(r.is_err(), "oversized row count must be refused");
    }
}
