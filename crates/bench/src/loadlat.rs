//! The open-loop load/latency study: offered-load ladders swept to
//! saturation per NI design (the "hockey stick"), the N→1 incast
//! overload, and the multi-tenant mixes, with tail-latency SLO verdicts
//! locked by `tests/goldens/golden_loadlat.json`.
//!
//! Closed-loop workloads (the paper's tables) measure *execution time at
//! the machine's own pace*; this module measures what the paper's
//! buffering argument predicts under external demand: latency stays
//! flat while the NI absorbs arrivals, then turns vertically once the
//! design's flow control saturates. Where each design's knee lands —
//! and whether it survives incast at all — separates the Table 2
//! buffering schemes more sharply than any mean.

use nisim_core::NiKind;
use nisim_net::BufferCount;
use nisim_workloads::traffic::{level_gap_ns, TrafficKind, TrafficSpec, MAX_LOAD_LEVEL};

use crate::harness::{Sweep, Work};
use crate::record::RunRecord;

/// The seven Table 2 NI designs in the paper's order, followed by the
/// three modern designs (RDMA queue pairs, connectionless URMA,
/// scatter-gather DMA).
pub const LOADLAT_NIS: [NiKind; 10] = [
    NiKind::Cm5,
    NiKind::Udma,
    NiKind::Ap3000,
    NiKind::MemoryChannel,
    NiKind::StartJr,
    NiKind::Cni512Q,
    NiKind::Cni32Qm,
    NiKind::RdmaQp,
    NiKind::Urma,
    NiKind::Sgdma,
];

/// Flow-control buffer level the study runs at (the Table 5 default;
/// finite, so saturation is observable).
pub const LOADLAT_BUFFERS: BufferCount = BufferCount::Finite(8);

/// A p99 this many times the level-1 baseline marks the knee — the
/// first ladder level where the design has left the flat region.
pub const KNEE_FACTOR: f64 = 4.0;

/// The fixed mid-ladder level the SLO verdict is taken at.
pub const SLO_LEVEL: u32 = 4;

/// The p99 service-level objective (ns) at [`SLO_LEVEL`]: roughly four
/// light-load round trips — generous for an absorbing design, hopeless
/// for one already queueing.
pub const SLO_P99_NS: f64 = 25_000.0;

/// The ladder levels for one traffic shape, as sweep works.
fn ladder(kind: TrafficKind) -> Vec<Work> {
    (1..=MAX_LOAD_LEVEL)
        .map(|level| Work::Traffic(TrafficSpec { kind, level }))
        .collect()
}

/// The uniform-destination Poisson ladder across the seven NIs.
pub fn loadlat_sweep() -> Sweep {
    Sweep::new("loadlat")
        .works(ladder(TrafficKind::PoissonUniform))
        .nis(&LOADLAT_NIS)
        .buffers(&[LOADLAT_BUFFERS])
}

/// The N→1 incast ladder across the seven NIs.
pub fn incast_sweep() -> Sweep {
    Sweep::new("incast")
        .works(ladder(TrafficKind::PoissonIncast))
        .nis(&LOADLAT_NIS)
        .buffers(&[LOADLAT_BUFFERS])
}

/// The bursty-MMPP and two-tenant mixes at a light and a heavy level
/// (full ladders add little beyond the uniform study).
pub fn mixes_sweep() -> Sweep {
    let mut works = Vec::new();
    for kind in [TrafficKind::MmppUniform, TrafficKind::TenantMix] {
        for level in [3, 6] {
            works.push(Work::Traffic(TrafficSpec { kind, level }));
        }
    }
    Sweep::new("mixes")
        .works(works)
        .nis(&LOADLAT_NIS)
        .buffers(&[LOADLAT_BUFFERS])
}

/// One NI's ladder, extracted from a sweep's records in level order.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadCurve {
    /// NI design key.
    pub ni: String,
    /// Tenant the curve tracks.
    pub tenant: String,
    /// Offered per-node interarrival gap (ns) per level.
    pub gap_ns: Vec<u64>,
    /// p50 per level (ns).
    pub p50_ns: Vec<f64>,
    /// p99 per level (ns).
    pub p99_ns: Vec<f64>,
    /// p999 per level (ns).
    pub p999_ns: Vec<f64>,
    /// Delivered/offered per level (1.0 = everything arrived).
    pub delivery: Vec<f64>,
    /// Record status per level (`"drained"`, `"stalled"`, ...).
    pub status: Vec<String>,
}

impl LoadCurve {
    /// The first ladder level (1-based) where this design left the flat
    /// region: p99 above [`KNEE_FACTOR`] × the level-1 p99, or the run
    /// no longer drained every message. `None` = flat everywhere.
    pub fn knee_level(&self) -> Option<u32> {
        let base = self.p99_ns.first().copied().unwrap_or(0.0).max(1.0);
        for (i, p99) in self.p99_ns.iter().enumerate() {
            let broken = self.status[i] != "drained" || self.delivery[i] < 1.0;
            if *p99 > KNEE_FACTOR * base || broken {
                return Some(i as u32 + 1);
            }
        }
        None
    }

    /// The p99 at a ladder level (1-based), if present.
    pub fn p99_at(&self, level: u32) -> Option<f64> {
        self.p99_ns.get(level as usize - 1).copied()
    }

    /// True iff the design meets the [`SLO_P99_NS`] objective at
    /// [`SLO_LEVEL`] having delivered every message there.
    pub fn meets_slo(&self) -> bool {
        let i = SLO_LEVEL as usize - 1;
        match (self.p99_ns.get(i), self.delivery.get(i)) {
            (Some(&p99), Some(&d)) => p99 <= SLO_P99_NS && d >= 1.0 && self.status[i] == "drained",
            _ => false,
        }
    }
}

/// Extracts one NI's ladder for `tenant` from a ladder sweep's records.
pub fn curve_for(records: &[RunRecord], kind: TrafficKind, ni: NiKind, tenant: &str) -> LoadCurve {
    let mut curve = LoadCurve {
        ni: ni.key().to_string(),
        tenant: tenant.to_string(),
        gap_ns: Vec::new(),
        p50_ns: Vec::new(),
        p99_ns: Vec::new(),
        p999_ns: Vec::new(),
        delivery: Vec::new(),
        status: Vec::new(),
    };
    for level in 1..=MAX_LOAD_LEVEL {
        let key = TrafficSpec { kind, level }.key();
        let Some(r) = records
            .iter()
            .find(|r| r.work == key && r.ni == ni.key() && r.patch.is_empty())
        else {
            continue;
        };
        let Some(t) = r.tenant(tenant) else { continue };
        curve.gap_ns.push(level_gap_ns(level));
        curve.p50_ns.push(t.p50_ns);
        curve.p99_ns.push(t.p99_ns);
        curve.p999_ns.push(t.p999_ns);
        curve.delivery.push(if t.offered == 0 {
            1.0
        } else {
            t.delivered as f64 / t.offered as f64
        });
        curve.status.push(r.status.clone());
    }
    curve
}

/// Every NI's curve for a ladder sweep, in [`LOADLAT_NIS`] order.
pub fn curves_from_records(
    records: &[RunRecord],
    kind: TrafficKind,
    tenant: &str,
) -> Vec<LoadCurve> {
    LOADLAT_NIS
        .iter()
        .map(|&ni| curve_for(records, kind, ni, tenant))
        .collect()
}

/// Path of the committed load/latency golden document.
pub fn loadlat_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/golden_loadlat.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_enumerate_the_full_grids() {
        assert_eq!(
            loadlat_sweep().points().len(),
            MAX_LOAD_LEVEL as usize * LOADLAT_NIS.len()
        );
        assert_eq!(
            incast_sweep().points().len(),
            MAX_LOAD_LEVEL as usize * LOADLAT_NIS.len()
        );
        assert_eq!(mixes_sweep().points().len(), 4 * LOADLAT_NIS.len());
    }

    #[test]
    fn ladder_order_is_fifo_then_figure3b_then_modern() {
        use crate::experiments::{COHERENT_NIS, FIFO_NIS};
        use nisim_core::NiClass;
        let mut expect = FIFO_NIS.to_vec();
        expect.extend(COHERENT_NIS);
        expect.extend(NiKind::MODERN);
        assert_eq!(LOADLAT_NIS.to_vec(), expect);
        let mut fig3b = COHERENT_NIS.to_vec();
        fig3b.sort_by_key(|&k| k as usize);
        assert_eq!(fig3b, NiKind::of_classes::<4>(&[NiClass::Coherent]));
    }

    #[test]
    fn knee_detection_on_synthetic_curves() {
        let flat = LoadCurve {
            ni: "x".into(),
            tenant: "t".into(),
            gap_ns: vec![800, 400, 200],
            p50_ns: vec![1.0; 3],
            p99_ns: vec![10.0, 11.0, 12.0],
            p999_ns: vec![20.0; 3],
            delivery: vec![1.0; 3],
            status: vec!["drained".into(); 3],
        };
        assert_eq!(flat.knee_level(), None);
        let mut kneed = flat.clone();
        kneed.p99_ns = vec![10.0, 11.0, 100.0];
        assert_eq!(kneed.knee_level(), Some(3));
        let mut stalled = flat.clone();
        stalled.status[1] = "stalled".into();
        assert_eq!(stalled.knee_level(), Some(2));
        let mut lossy = flat;
        lossy.delivery[0] = 0.5;
        assert_eq!(lossy.knee_level(), Some(1));
    }
}
