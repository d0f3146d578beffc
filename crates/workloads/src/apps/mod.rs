//! The seven macrobenchmark communication skeletons (§5.2, Table 4).
//!
//! | app | pattern | skeleton module |
//! |---|---|---|
//! | appbt | near-neighbour request/response on a 3-D grid | [`appbt`] |
//! | barnes | irregular all-to-all request/response | [`barnes`] |
//! | dsmc | fine-grain producer/consumer particle exchange | [`dsmc`] |
//! | em3d | bursty one-way graph updates | [`em3d`] |
//! | moldyn | bulk ring reduction | [`moldyn`] |
//! | spsolve | very fine-grain DAG propagation | [`spsolve`] |
//! | unstructured | single-producer multi-consumer bulk updates | [`unstructured`] |
//!
//! Each app is one registry row, [`MacroApp::spec`]: its name, default
//! parameters, the paper's Table 4 modes and its constructor. A
//! skeleton queues one iteration's steps at a time; [`SkeletonProcess`]
//! runs the loop, the barrier and checkpoints. Adding an app means its
//! skeleton file plus, here, a `pub mod`, a variant, its
//! [`MacroApp::ALL`] entry and its row.

pub mod appbt;
pub mod barnes;
pub mod dsmc;
pub mod em3d;
pub mod moldyn;
pub mod spsolve;
pub mod unstructured;

use nisim_core::process::Process;
use nisim_core::{Machine, MachineConfig, MachineReport};
use nisim_engine::{Dur, SimStatus};
use nisim_net::NodeId;

use self::{
    appbt::Appbt, barnes::Barnes, dsmc::Dsmc, em3d::Em3d, moldyn::Moldyn, spsolve::Spsolve,
    unstructured::Unstructured,
};
use crate::skeleton::{Skeleton, SkeletonProcess};

/// Which macrobenchmark to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MacroApp {
    /// NAS appbt: 3-D CFD, near-neighbour shared-memory protocol.
    Appbt,
    /// Barnes-Hut N-body: irregular shared-memory protocol.
    Barnes,
    /// Discrete simulation Monte Carlo: producer/consumer particles.
    Dsmc,
    /// Electromagnetic wave propagation: bursty fine-grain updates.
    Em3d,
    /// Molecular dynamics: custom bulk reduction protocol.
    Moldyn,
    /// Sparse iterative solver: DAG-propagated active messages.
    Spsolve,
    /// Unstructured-mesh CFD: batched single-producer/multi-consumer.
    Unstructured,
}

/// One modal size of an application's traffic (Table 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeMode {
    /// Message size in bytes, header included.
    pub bytes: u64,
    /// Fraction of the application's messages at this size.
    pub fraction: f64,
}

/// Mean of unstructured's bulk-message size range (bytes, with header).
pub const UNSTRUCTURED_RANGE_MEAN: f64 = 351.0;

/// One macrobenchmark's registry row: everything the simulator knows
/// about the app outside its skeleton file.
#[derive(Clone, Copy)]
pub struct AppSpec {
    /// The benchmark's name as the paper prints it (sweep records and
    /// CLI flags are keyed on it).
    pub name: &'static str,
    /// Default (scaled-down) parameters, tuned so the full NI × buffer
    /// sweeps finish quickly while preserving the pattern's character.
    pub params: AppParams,
    /// The paper's Table 4 modal sizes and fractions, smallest first.
    pub modes: &'static [SizeMode],
    /// Builds the process of node `id` of a `nodes`-node run from the
    /// machine seed and the parameters.
    pub build: fn(NodeId, u32, u64, AppParams) -> Box<dyn Process>,
}

impl MacroApp {
    /// All seven, in the paper's order. Adding an app means a variant,
    /// an entry here and a [`MacroApp::spec`] row.
    pub const ALL: [MacroApp; 7] = [
        MacroApp::Appbt,
        MacroApp::Barnes,
        MacroApp::Dsmc,
        MacroApp::Em3d,
        MacroApp::Moldyn,
        MacroApp::Spsolve,
        MacroApp::Unstructured,
    ];

    /// The app's registry row.
    pub const fn spec(self) -> AppSpec {
        match self {
            // Request/response apps: computation dominates per iteration
            // (the real applications are compute-heavy CFD/N-body codes).
            MacroApp::Appbt => AppSpec {
                name: "appbt",
                params: params(4, 4, Dur::us(12)),
                modes: &const { [mode(12, 0.67), mode(32, 0.32)] },
                build: |id, nodes, seed, p| process(Appbt::new(id, nodes, seed, p), id, nodes, p),
            },
            MacroApp::Barnes => AppSpec {
                name: "barnes",
                params: params(4, 6, Dur::us(12)),
                modes: &const { [mode(12, 0.67), mode(16, 0.04), mode(140, 0.29)] },
                build: |id, nodes, seed, p| process(Barnes::new(id, nodes, seed, p), id, nodes, p),
            },
            MacroApp::Dsmc => AppSpec {
                name: "dsmc",
                params: params(5, 8, Dur::us(14)),
                modes: &const { [mode(12, 0.45), mode(44, 0.25), mode(140, 0.26)] },
                build: |id, nodes, seed, p| process(Dsmc::new(id, nodes, seed, p), id, nodes, p),
            },
            // The two bursty fine-grain apps: little compute per message.
            MacroApp::Em3d => AppSpec {
                name: "em3d",
                params: params(5, 26, Dur::us(3)),
                modes: &const { [mode(12, 0.02), mode(20, 0.98)] },
                build: |id, nodes, seed, p| process(Em3d::new(id, nodes, seed, p), id, nodes, p),
            },
            MacroApp::Moldyn => AppSpec {
                name: "moldyn",
                params: params(3, 1, Dur::us(20)),
                modes: &const {
                    [
                        mode(8, 0.05),
                        mode(12, 0.65),
                        mode(140, 0.27),
                        mode(3084, 0.02),
                    ]
                },
                build: |id, nodes, _, p| process(Moldyn::new(id, nodes, p), id, nodes, p),
            },
            MacroApp::Spsolve => AppSpec {
                name: "spsolve",
                params: params(4, 10, Dur::us(1)),
                modes: &const { [mode(8, 0.06), mode(12, 0.03), mode(20, 0.91)] },
                build: |id, nodes, _, p| process(Spsolve::new(id, nodes, p), id, nodes, p),
            },
            // The paper gives unstructured one mode at 8 B and a broad
            // 12-1812 B range averaging 351 B: the row keeps the mode, and
            // the range's average is [`UNSTRUCTURED_RANGE_MEAN`].
            MacroApp::Unstructured => AppSpec {
                name: "unstructured",
                params: params(4, 2, Dur::us(16)),
                modes: &const { [mode(8, 0.35)] },
                build: |id, nodes, seed, p| {
                    process(Unstructured::new(id, nodes, seed, p), id, nodes, p)
                },
            },
        }
    }

    /// Parses a [`name`](MacroApp::name) back into an app (sweep records
    /// and CLI flags are keyed on the paper's names).
    pub fn from_name(name: &str) -> Option<MacroApp> {
        MacroApp::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The benchmark's name as the paper prints it.
    pub const fn name(self) -> &'static str {
        self.spec().name
    }

    /// The row's default parameters.
    pub const fn default_params(self) -> AppParams {
        self.spec().params
    }
}

/// The parameters of a registry row.
const fn params(iterations: u32, intensity: u32, compute: Dur) -> AppParams {
    AppParams {
        iterations,
        intensity,
        compute,
    }
}

/// A Table 4 mode of a registry row.
const fn mode(bytes: u64, fraction: f64) -> SizeMode {
    SizeMode { bytes, fraction }
}

/// Node `id`'s process running `skeleton` for the run's iterations.
fn process(
    skeleton: impl Skeleton + 'static,
    id: NodeId,
    nodes: u32,
    p: AppParams,
) -> Box<dyn Process> {
    Box::new(SkeletonProcess::new(skeleton, id, nodes, p.iterations))
}

impl std::fmt::Display for MacroApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scale parameters of a macrobenchmark skeleton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppParams {
    /// Outer iterations (time steps).
    pub iterations: u32,
    /// Per-iteration communication intensity multiplier (requests per
    /// neighbour, updates per edge, sparks per node, ...).
    pub intensity: u32,
    /// Base computation per iteration per node.
    pub compute: Dur,
}

/// The machine factory for `app`, boxed — for callers that drive the
/// machine themselves (checkpoint slicing, kill-and-resume) and so need
/// to rebuild the identical factory on restore.
pub fn factory(
    app: MacroApp,
    nodes: u32,
    seed: u64,
    params: AppParams,
) -> Box<dyn FnMut(NodeId) -> Box<dyn Process>> {
    let build = app.spec().build;
    Box::new(move |id| build(id, nodes, seed, params))
}

/// Runs `app` on the machine described by `cfg` and returns the report.
pub fn run_app(app: MacroApp, cfg: &MachineConfig, params: &AppParams) -> MachineReport {
    let cfg = cfg.clone();
    let nodes = cfg.nodes;
    let seed = cfg.seed;
    let params = *params;
    let report = Machine::run(cfg, factory(app, nodes, seed, params));
    // A watchdog-stalled run carries its own diagnostics (the caller
    // inspects `status`/`stall`); anything else short of quiescence is
    // a simulator bug.
    assert!(
        report.all_quiescent || report.status == SimStatus::Stalled,
        "{app} did not reach quiescence (status {:?})",
        report.status
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::snapshot::{restore, save, SnapshotError};
    use nisim_core::{MachineSim, NiKind};
    use nisim_engine::Time;

    fn run_to_end(m: &mut Machine, sim: &mut MachineSim) -> String {
        let status = m.run_slice(sim, Time::from_ns(60_000_000_000), 500_000_000);
        format!("{:?}", m.report(sim, status))
    }

    #[test]
    fn em3d_and_spsolve_checkpoints_resume_identically() {
        let params = AppParams {
            iterations: 2,
            intensity: 4,
            compute: Dur::us(1),
        };
        for app in [MacroApp::Em3d, MacroApp::Spsolve] {
            let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(4);
            let mk = || factory(app, 4, cfg.seed, params);
            let mut golden = Machine::new(cfg.clone(), mk());
            let mut gsim = MachineSim::new();
            golden.start(&mut gsim);
            let golden_report = run_to_end(&mut golden, &mut gsim);
            for cut in [3u64, 50, 400] {
                let mut m = Machine::new(cfg.clone(), mk());
                let mut sim = MachineSim::new();
                m.start(&mut sim);
                m.run_slice(&mut sim, Time::from_ns(60_000_000_000), cut);
                let snap = save(&m, &mut sim).expect("snapshot");
                let (mut resumed, mut rsim) = restore(cfg.clone(), mk(), &snap).expect("restore");
                let resumed_report = run_to_end(&mut resumed, &mut rsim);
                assert_eq!(
                    resumed_report, golden_report,
                    "{app}: cut at {cut} diverged"
                );
            }
        }
    }

    #[test]
    fn apps_without_snapshot_support_fail_typed() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let mut m = Machine::new(
            cfg.clone(),
            factory(
                MacroApp::Barnes,
                4,
                cfg.seed,
                MacroApp::Barnes.default_params(),
            ),
        );
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        assert_eq!(
            save(&m, &mut sim).err(),
            Some(SnapshotError::UnsupportedWorkload { node: 0 })
        );
    }

    #[test]
    fn every_app_completes_on_the_reference_ni() {
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(16);
        for app in MacroApp::ALL {
            let r = run_app(app, &cfg, &app.default_params());
            assert!(r.app_messages > 50, "{app} sent too few messages");
        }
    }

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = MacroApp::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            [
                "appbt",
                "barnes",
                "dsmc",
                "em3d",
                "moldyn",
                "spsolve",
                "unstructured"
            ]
        );
    }

    #[test]
    fn paper_fractions_are_near_complete() {
        // Each row's listed fractions should cover most of the traffic
        // (the paper notes trivial fractions at other sizes).
        for app in MacroApp::ALL {
            if app == MacroApp::Unstructured {
                continue; // one mode + a range
            }
            let total: f64 = app.spec().modes.iter().map(|m| m.fraction).sum();
            assert!(total >= 0.9, "{app:?}: {total}");
        }
    }

    #[test]
    fn modes_are_sorted_and_positive() {
        for app in MacroApp::ALL {
            let modes = app.spec().modes;
            for w in modes.windows(2) {
                assert!(w[0].bytes < w[1].bytes);
            }
            for m in modes {
                assert!(m.fraction > 0.0 && m.fraction <= 1.0);
                assert!(m.bytes >= 8, "messages include an 8-byte header");
            }
        }
    }
}
