//! The kill-and-resume chaos suite.
//!
//! For every point of a small workload × NI × fault grid, the suite
//! runs an uninterrupted **golden** simulation, then replays it with
//! seeded cut points: at each cut the run is killed mid-flight, its
//! state serialized through [`nisim_core::snapshot`], parsed back from
//! the serialized bytes (exactly what a process restart does), restored
//! into a freshly built machine, and driven to completion. The resumed
//! [`RunRecord`] must be **byte-identical** to the golden one — any
//! divergence is a determinism bug in the snapshot subsystem, and
//! [`chaos_document`] reports it as an error.
//!
//! The grid deliberately crosses the two bursty fine-grain apps with a
//! stateless NI (`NI_2w`) and the most stateful one (`CNI_32Q_m`), each
//! with and without a node-crash fault window, so checkpoints are taken
//! while retransmission and dedup state is live.

use std::path::PathBuf;

use nisim_core::snapshot::{restore, save};
use nisim_core::{Machine, MachineConfig, MachineSim, NiKind};
use nisim_engine::{Dur, Json, SplitMix64, Time};
use nisim_net::{BufferCount, CrashWindow, FaultConfig, NodeId, ReliabilityConfig};
use nisim_workloads::apps::{factory, AppParams, MacroApp};

use crate::record::{fingerprint, RunRecord, SCHEMA_VERSION};

/// Seed of the cut-point stream (fixed: the committed golden pins the
/// exact cuts).
pub const CHAOS_SEED: u64 = 0xC4A0_55ED;
/// Kill-and-resume attempts per grid point.
pub const CUTS_PER_POINT: usize = 3;

const NODES: u32 = 4;
const MAX_EVENTS: u64 = 500_000_000;

fn horizon() -> Time {
    Time::from_ns(60_000_000_000)
}

/// The workload parameters every grid point runs with.
pub fn params() -> AppParams {
    AppParams {
        iterations: 2,
        intensity: 4,
        compute: Dur::us(1),
    }
}

/// One chaos grid point.
#[derive(Clone, Copy, Debug)]
pub struct ChaosPoint {
    /// The workload.
    pub app: MacroApp,
    /// The NI design under test.
    pub ni: NiKind,
    /// Whether a node-crash fault window is active.
    pub crash: bool,
}

/// The chaos grid: {em3d, spsolve} × {NI_2w, CNI_32Q_m, RDMA_QP, SGDMA}
/// × {clean, crash}. The two modern NIs carry the most restore-sensitive
/// state of the roster: the RDMA QP-state cache's LRU order and the
/// SGDMA NI's staged descriptor.
pub fn grid() -> Vec<ChaosPoint> {
    let mut points = Vec::new();
    for app in [MacroApp::Em3d, MacroApp::Spsolve] {
        for ni in [NiKind::Cm5, NiKind::Cni32Qm, NiKind::RdmaQp, NiKind::Sgdma] {
            for crash in [false, true] {
                points.push(ChaosPoint { app, ni, crash });
            }
        }
    }
    points
}

/// The machine configuration for one grid point. The crash window opens
/// at t=0 — before the crashed node has accepted anything — so every
/// loss is pre-acknowledgement and the reliability layer recovers all of
/// it: the run still drains, and the golden stays wedge-free.
pub fn config(p: &ChaosPoint) -> MachineConfig {
    let cfg = MachineConfig::with_ni(p.ni)
        .nodes(NODES)
        .flow_buffers(BufferCount::Finite(4));
    if p.crash {
        cfg.fault(FaultConfig {
            crash: vec![CrashWindow {
                start: Time::ZERO,
                end: Time::from_ns(4_000),
                node: NodeId(1),
            }],
            ..FaultConfig::default()
        })
        .reliability(ReliabilityConfig::on())
    } else {
        cfg
    }
}

fn patch_key(p: &ChaosPoint) -> &'static str {
    if p.crash {
        "crash"
    } else {
        ""
    }
}

/// The run record of a finished (or resumed) grid-point run — what the
/// differential compares byte for byte.
pub fn record_of(
    p: &ChaosPoint,
    cfg: &MachineConfig,
    m: &Machine,
    sim: &MachineSim,
    status: nisim_engine::SimStatus,
) -> RunRecord {
    let report = m.report(sim, status);
    RunRecord::from_report(
        p.app.name().to_string(),
        p.ni.key().to_string(),
        "4".to_string(),
        patch_key(p).to_string(),
        fingerprint(cfg),
        &report,
        Vec::new(),
    )
}

/// Runs the full kill-and-resume differential and builds the document
/// `tests/goldens/golden_chaos.json` pins.
///
/// # Errors
///
/// Returns a description of the first grid point whose resumed run was
/// not byte-identical to its golden (or that failed to snapshot).
pub fn chaos_document() -> Result<Json, String> {
    let mut points = Vec::new();
    for (idx, p) in grid().into_iter().enumerate() {
        let cfg = config(&p);
        let label = format!("{}/{}/{}", p.app, p.ni.key(), patch_key(&p));

        // Golden: one uninterrupted run.
        let mut golden = Machine::new(cfg.clone(), factory(p.app, NODES, cfg.seed, params()));
        let mut gsim = MachineSim::new();
        golden.start(&mut gsim);
        let status = golden.run_slice(&mut gsim, horizon(), MAX_EVENTS);
        let events = gsim.events_fired();
        let golden_record = record_of(&p, &cfg, &golden, &gsim, status);
        if !golden_record.quiescent {
            return Err(format!("{label}: golden run did not reach quiescence"));
        }
        let golden_bytes = golden_record.to_json().to_compact();

        // Seeded cuts: kill, serialize, reparse, restore, resume, diff.
        let mut rng = SplitMix64::new(CHAOS_SEED ^ idx as u64);
        let mut cuts = Vec::with_capacity(CUTS_PER_POINT);
        for _ in 0..CUTS_PER_POINT {
            cuts.push(1 + rng.gen_range(events.saturating_sub(2).max(1)));
        }
        for &cut in &cuts {
            let mut m = Machine::new(cfg.clone(), factory(p.app, NODES, cfg.seed, params()));
            let mut sim = MachineSim::new();
            m.start(&mut sim);
            m.run_slice(&mut sim, horizon(), cut);
            let bytes = save(&m, &mut sim)
                .map_err(|e| format!("{label}: snapshot at cut {cut} failed: {e}"))?
                .to_compact();
            drop(m);
            drop(sim);
            let parsed = nisim_engine::json::parse(&bytes)
                .map_err(|e| format!("{label}: snapshot reparse at cut {cut} failed: {e:?}"))?;
            let (mut resumed, mut rsim) = restore(
                cfg.clone(),
                factory(p.app, NODES, cfg.seed, params()),
                &parsed,
            )
            .map_err(|e| format!("{label}: restore at cut {cut} failed: {e}"))?;
            let rstatus = resumed.run_slice(&mut rsim, horizon(), MAX_EVENTS);
            let resumed_record = record_of(&p, &cfg, &resumed, &rsim, rstatus);
            let resumed_bytes = resumed_record.to_json().to_compact();
            if resumed_bytes != golden_bytes {
                return Err(format!(
                    "{label}: resumed run diverged from golden at cut {cut} \
                     ({} events total)",
                    events
                ));
            }
        }

        points.push(
            Json::obj()
                .set("work", p.app.name())
                .set("ni", p.ni.key())
                .set("patch", patch_key(&p))
                .set("events", events)
                .set(
                    "cuts",
                    Json::Arr(cuts.iter().map(|&c| Json::from(c)).collect()),
                )
                .set("golden", golden_record.to_json()),
        );
    }
    Ok(Json::obj()
        .set("schema", SCHEMA_VERSION)
        .set("generator", "nisim-bench-chaos")
        .set("points", Json::Arr(points)))
}

/// Where the committed chaos golden lives.
pub fn chaos_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/golden_chaos.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_fault_modes_per_app_and_ni() {
        let g = grid();
        assert_eq!(g.len(), 16);
        assert_eq!(g.iter().filter(|p| p.crash).count(), 8);
    }

    #[test]
    fn crash_configs_fingerprint_differently_from_clean_ones() {
        for app in [MacroApp::Em3d, MacroApp::Spsolve] {
            let clean = config(&ChaosPoint {
                app,
                ni: NiKind::Cm5,
                crash: false,
            });
            let crash = config(&ChaosPoint {
                app,
                ni: NiKind::Cm5,
                crash: true,
            });
            assert_ne!(fingerprint(&clean), fingerprint(&crash));
        }
    }
}
