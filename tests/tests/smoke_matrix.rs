//! Smoke matrix: every macrobenchmark completes on every NI design at
//! several buffering levels, with consistent traffic volumes.

use nisim_core::{MachineConfig, NiKind};
use nisim_engine::Dur;
use nisim_net::BufferCount;
use nisim_workloads::apps::{run_app, AppParams, MacroApp};

fn small_params() -> AppParams {
    AppParams {
        iterations: 2,
        intensity: 2,
        compute: Dur::us(2),
    }
}

#[test]
fn every_app_on_every_ni_completes() {
    for app in MacroApp::ALL {
        for ni in NiKind::ALL {
            let cfg = MachineConfig::with_ni(ni).nodes(8);
            let r = run_app(app, &cfg, &small_params());
            assert!(r.all_quiescent, "{app} on {ni} not quiescent");
            assert!(r.app_messages > 0, "{app} on {ni} sent nothing");
        }
    }
}

#[test]
fn full_matrix_completes_through_the_sweep_harness() {
    use nisim_bench::{Patch, Sweep};

    // The full design-space cross product — every NI × every app × a
    // tight and a loose buffer level — at reduced node count and scale,
    // driven through the same parallel harness the experiment binaries
    // use. Time-bounded so a pathological slowdown fails rather than
    // hangs: the simulated work is tiny (the budget is wall-clock slack
    // for slow CI machines, not an expected runtime).
    let started = std::time::Instant::now();
    let sweep = Sweep::new("smoke-matrix")
        .apps(&MacroApp::ALL)
        .nis(&NiKind::ALL)
        .buffers(&[BufferCount::Finite(1), BufferCount::Infinite])
        .patches(vec![Patch {
            label: "small".into(),
            nodes: Some(8),
            params: Some(small_params()),
            ..Patch::default()
        }]);
    let records = sweep.run(nisim_bench::default_jobs());
    assert_eq!(records.len(), MacroApp::ALL.len() * NiKind::ALL.len() * 2);
    for r in &records {
        assert_eq!(r.status, "drained", "{}/{}/{}", r.work, r.ni, r.buffers);
        assert!(
            r.quiescent,
            "{}/{}/{} not quiescent",
            r.work, r.ni, r.buffers
        );
        assert!(r.stall.is_none(), "{}/{} stalled", r.work, r.ni);
        assert!(
            r.counter("app_messages") > 0,
            "{}/{} sent nothing",
            r.work,
            r.ni
        );
        // The four Figure 1 accounting categories partition accounted
        // processor time: their fractions must sum to exactly 1.
        assert!(
            r.accounted_ns() > 0,
            "{}/{} accounted nothing",
            r.work,
            r.ni
        );
        let total: f64 = nisim_core::TimeCategory::ALL
            .into_iter()
            .map(|c| r.fraction(c))
            .sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}/{}/{}: accounting fractions sum to {total}, not 1",
            r.work,
            r.ni,
            r.buffers
        );
    }
    // Belt and braces on top of the per-record status checks: the whole
    // matrix must contain zero watchdog-stalled runs.
    let stalled = records.iter().filter(|r| r.status == "stalled").count();
    assert_eq!(stalled, 0, "smoke matrix contains {stalled} stalled runs");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(120),
        "smoke matrix blew its time budget: {:?}",
        started.elapsed()
    );
}

#[test]
fn tight_buffers_never_lose_messages() {
    for app in MacroApp::ALL {
        let loose = run_app(
            app,
            &MachineConfig::with_ni(NiKind::Cm5)
                .nodes(8)
                .flow_buffers(BufferCount::Infinite),
            &small_params(),
        );
        let tight = run_app(
            app,
            &MachineConfig::with_ni(NiKind::Cm5)
                .nodes(8)
                .flow_buffers(BufferCount::Finite(1)),
            &small_params(),
        );
        assert_eq!(
            loose.app_messages, tight.app_messages,
            "{app}: message volume must not depend on buffering"
        );
    }
}

#[test]
fn message_volume_is_ni_independent() {
    // The NI design changes timing, never traffic volume (spsolve's
    // volume is mildly order-dependent through its accumulate-and-fire
    // elements, so it is checked with a tolerance).
    for app in MacroApp::ALL {
        let reference = run_app(
            app,
            &MachineConfig::with_ni(NiKind::Ap3000).nodes(8),
            &small_params(),
        )
        .app_messages;
        for ni in [NiKind::Cm5, NiKind::Cni32Qm] {
            let got =
                run_app(app, &MachineConfig::with_ni(ni).nodes(8), &small_params()).app_messages;
            if app == MacroApp::Spsolve {
                let ratio = got as f64 / reference as f64;
                assert!(
                    (0.8..=1.25).contains(&ratio),
                    "{app} volume drifted: {got} vs {reference}"
                );
            } else {
                assert_eq!(got, reference, "{app} volume differs on {ni}");
            }
        }
    }
}

#[test]
fn machine_scales_down_to_two_nodes() {
    for app in [MacroApp::Appbt, MacroApp::Em3d, MacroApp::Moldyn] {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(2);
        let r = run_app(app, &cfg, &small_params());
        assert!(r.all_quiescent, "{app} on 2 nodes");
    }
}

#[test]
fn machine_scales_up_to_more_nodes() {
    let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(32);
    let r = run_app(MacroApp::Dsmc, &cfg, &small_params());
    assert!(r.all_quiescent);
    assert_eq!(r.ledgers.len(), 32);
}

#[test]
fn topologies_complete_with_rankings_intact() {
    use nisim_net::Topology;
    // The paper's extrapolation claim: real fabrics slow things a little
    // but do not change the NI comparison. em3d is throughput-bound, so
    // the fabric's per-hop latency moves it only a few percent.
    for topo in [Topology::Ideal, Topology::Ring, Topology::Mesh2D] {
        let mut cfg_fast = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        cfg_fast.net.topology = topo;
        let fast = run_app(MacroApp::Em3d, &cfg_fast, &small_params());
        assert!(fast.all_quiescent, "{topo:?}");
        let mut cfg_slow = MachineConfig::with_ni(NiKind::Cm5).nodes(16);
        cfg_slow.net.topology = topo;
        let slow = run_app(MacroApp::Em3d, &cfg_slow, &small_params());
        assert!(
            slow.elapsed > fast.elapsed,
            "{topo:?}: the NI ranking must survive the fabric"
        );
    }
}

#[test]
fn mesh_distance_shows_up_in_latency() {
    use nisim_core::process::{Action, AppMessage, HandlerSpec, Process, SendSpec};
    use nisim_core::Machine;
    use nisim_engine::Time;
    use nisim_net::{NodeId, Topology};

    // One request from node 0 to the far corner of a 4x4 mesh (6 hops)
    // must take measurably longer to quiesce than one to a neighbour.
    struct One(u32, bool);
    impl Process for One {
        fn next_action(&mut self, _now: Time) -> Action {
            if self.1 {
                return Action::Done;
            }
            self.1 = true;
            Action::Send(SendSpec::new(NodeId(self.0), 64, 0))
        }
        fn on_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
            HandlerSpec::empty()
        }
        fn is_done(&self) -> bool {
            self.1
        }
    }
    struct Rest;
    impl Process for Rest {
        fn next_action(&mut self, _now: Time) -> Action {
            Action::Done
        }
        fn on_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
            HandlerSpec::empty()
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    let run_to = |dst: u32| {
        let mut cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        cfg.net.topology = Topology::Mesh2D;
        Machine::run(cfg, move |id| -> Box<dyn Process> {
            if id.0 == 0 {
                Box::new(One(dst, false))
            } else {
                Box::new(Rest)
            }
        })
        .elapsed
    };
    let near = run_to(1); // 1 hop
    let far = run_to(15); // 6 hops
    assert!(
        far.as_ns() >= near.as_ns() + 5 * 40,
        "six hops vs one: near {near}, far {far}"
    );
}
