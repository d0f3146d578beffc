//! Cross-crate property tests for the snapshot subsystem: the
//! reliability layer's dedup windows must survive the checkpoint file
//! round trip with their *behaviour* (not just their bytes) intact, a
//! snapshot must never restore into a machine whose configuration
//! fingerprint differs — whichever knob was turned — and a run cut at a
//! horizon or sliced by event budget must finish exactly as an
//! uninterrupted one.
//!
//! The container is offline (no proptest), so the generator is a small
//! hand-rolled LCG — deterministic, so failures reproduce exactly.

use nisim_core::snapshot::{restore, save, SnapshotError, SNAPSHOT_VERSION};
use nisim_core::{Machine, MachineConfig, MachineSim, NiKind};
use nisim_engine::codec::Codec;
use nisim_engine::{json, Dur, SimStatus, Time};
use nisim_net::{BufferCount, NodeId, ReceiverDedup, ReliabilityConfig, SeqNo};
use nisim_workloads::apps::{factory, AppParams, MacroApp};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Feeds a dedup window a random arrival pattern — in-order runs,
/// reorderings, and duplicates — then round-trips it through its JSON
/// codec (via printed text, as a checkpoint file would) and checks the
/// copy gives byte-identical snapshots *and* identical accept verdicts
/// on a shared tail of further arrivals.
#[test]
fn receiver_dedup_behaviour_survives_the_file_round_trip() {
    let mut rng = Lcg(0x5eed_3001);
    for case in 0..60 {
        let mut dedup = ReceiverDedup::default();
        for _ in 0..rng.below(200) {
            let src = NodeId(rng.below(4) as u32);
            // Mostly-advancing sequences with frequent repeats and gaps.
            let seq = SeqNo(rng.below(40));
            dedup.accept(src, seq);
        }

        let text = dedup.encode().to_compact();
        let parsed = json::parse(&text).unwrap();
        let mut copy = ReceiverDedup::decode(&parsed)
            .unwrap_or_else(|e| panic!("case {case}: restore rejected: {e}"));
        assert_eq!(
            copy.encode().to_compact(),
            text,
            "case {case}: snapshot not idempotent"
        );

        for i in 0..100 {
            let src = NodeId(rng.below(4) as u32);
            let seq = SeqNo(rng.below(60));
            assert_eq!(
                dedup.already_seen(src, seq),
                copy.already_seen(src, seq),
                "case {case}@{i}: seen-set diverged"
            );
            assert_eq!(
                dedup.accept(src, seq),
                copy.accept(src, seq),
                "case {case}@{i}: accept verdicts diverged"
            );
        }
    }
}

fn base_config() -> MachineConfig {
    MachineConfig::with_ni(NiKind::Cm5)
        .nodes(4)
        .flow_buffers(BufferCount::Finite(4))
}

fn snap_params() -> AppParams {
    AppParams {
        iterations: 2,
        intensity: 4,
        compute: Dur::us(1),
    }
}

fn mid_run_snapshot(cfg: &MachineConfig) -> nisim_engine::Json {
    let mut m = Machine::new(
        cfg.clone(),
        factory(MacroApp::Em3d, cfg.nodes, cfg.seed, snap_params()),
    );
    let mut sim = MachineSim::new();
    m.start(&mut sim);
    m.run_slice(&mut sim, Time::from_ns(60_000_000_000), 25);
    save(&m, &mut sim).expect("snapshot")
}

/// Every configuration knob that feeds the fingerprint — seed, buffer
/// budget, NI kind, node count, watchdog window, reliability — must make
/// restore fail with [`SnapshotError::ConfigMismatch`], never silently
/// reinterpret the state. The unchanged config must keep restoring.
#[test]
fn any_config_perturbation_is_rejected_at_restore() {
    let cfg = base_config();
    let snap = mid_run_snapshot(&cfg);

    // Control: the honest config restores.
    let mk = |c: &MachineConfig| factory(MacroApp::Em3d, c.nodes, c.seed, snap_params());
    assert!(restore(cfg.clone(), mk(&cfg), &snap).is_ok());

    let mut rng = Lcg(0x5eed_3002);
    type Perturb = Box<dyn Fn(&mut MachineConfig, &mut Lcg)>;
    let perturbations: Vec<Perturb> = vec![
        Box::new(|c, r| c.seed = c.seed.wrapping_add(1 + r.below(100))),
        Box::new(|c, _| c.flow_buffers = BufferCount::Finite(5)),
        Box::new(|c, _| c.flow_buffers = BufferCount::Infinite),
        Box::new(|c, _| c.ni = NiKind::Cni32Qm),
        Box::new(|c, _| c.nodes += 1),
        Box::new(|c, r| c.watchdog_window = Dur::us(1000 + r.below(1000))),
        Box::new(|c, _| c.reliability = ReliabilityConfig::on()),
        Box::new(|c, r| *c = c.clone().qp_cache_entries(16 + r.below(48) as u32)),
    ];
    for (i, perturb) in perturbations.iter().enumerate() {
        for round in 0..5 {
            let mut wrong = cfg.clone();
            perturb(&mut wrong, &mut rng);
            let got = restore(wrong.clone(), mk(&wrong), &snap);
            match got {
                Err(SnapshotError::ConfigMismatch { .. }) => {}
                other => panic!(
                    "perturbation {i} round {round}: wanted ConfigMismatch, got {:?}",
                    other.map(|_| "Ok(machine)")
                ),
            }
        }
    }
}

/// Version-6 snapshots drop a send's stored fragment list. A snapshot
/// stamped with an earlier version (5 wrote the list, 4 the bus's
/// queueing summary, 3 every cache line) must be rejected as a
/// [`SnapshotError::Version`], and a
/// wire `conn` forged past `u32::MAX`
/// must be rejected as [`SnapshotError::Malformed`] — never silently
/// truncated into a valid connection.
#[test]
fn stale_version_and_forged_conn_are_rejected() {
    let cfg = base_config();
    let snap = mid_run_snapshot(&cfg);
    let mk = |c: &MachineConfig| factory(MacroApp::Em3d, c.nodes, c.seed, snap_params());

    let current = format!("\"version\":{SNAPSHOT_VERSION}");
    let text = snap.to_compact();
    assert!(text.contains(&current));
    for old in [3, 4, 5] {
        let stale = json::parse(&text.replace(&current, &format!("\"version\":{old}"))).unwrap();
        assert_eq!(
            restore(cfg.clone(), mk(&cfg), &stale).err(),
            Some(SnapshotError::Version { found: old }),
            "a version-{old} stamp must be refused"
        );
    }

    // Tamper the first in-flight wire message's conn. Cuts grow until
    // one lands with a message on the wire (the key only appears there).
    let qcfg = MachineConfig::with_ni(NiKind::RdmaQp)
        .nodes(4)
        .flow_buffers(BufferCount::Finite(4));
    let mut tampered_once = false;
    for budget in [50u64, 200, 800, 3200, 12800] {
        let mut m = Machine::new(
            qcfg.clone(),
            factory(MacroApp::Em3d, qcfg.nodes, qcfg.seed, snap_params()),
        );
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        m.run_slice(&mut sim, Time::from_ns(60_000_000_000), budget);
        let text = save(&m, &mut sim).expect("snapshot").to_compact();
        let Some(forged) = forge_number(&text, "\"conn\":", "\"conn\":", u64::from(u32::MAX) + 1)
        else {
            continue;
        };
        let got = restore(qcfg.clone(), mk(&qcfg), &json::parse(&forged).unwrap());
        assert!(
            matches!(got, Err(SnapshotError::Malformed(_))),
            "an oversized conn must be malformed, got {:?}",
            got.map(|_| "Ok(machine)")
        );
        tampered_once = true;
        break;
    }
    assert!(
        tampered_once,
        "no cut caught a wire message in flight to tamper with"
    );
}

/// Replaces the number after the first `key` at or past the first
/// `anchor` in `text` with `value`; `None` if either is absent.
fn forge_number(text: &str, anchor: &str, key: &str, value: u64) -> Option<String> {
    let at = text.find(anchor)?;
    let digits = at + text[at..].find(key)? + key.len();
    let end = digits + text[digits..].find(|c: char| !c.is_ascii_digit())?;
    Some(format!("{}{value}{}", &text[..digits], &text[end..]))
}

/// A pending event that names a node the machine does not have — the
/// node a handler runs on, or either end of a wire message — must be
/// rejected as [`SnapshotError::Malformed`] at restore, not accepted and
/// left to index out of bounds once the resumed run fires it.
#[test]
fn forged_event_node_indices_are_rejected() {
    use nisim_net::{CrashWindow, FaultConfig};
    // A crash window far in the future keeps a node_crash event pending
    // at every cut.
    let cfg = base_config()
        .fault(FaultConfig {
            crash: vec![CrashWindow {
                start: Time::from_ns(50_000_000_000),
                end: Time::from_ns(50_000_001_000),
                node: NodeId(1),
            }],
            ..FaultConfig::default()
        })
        .reliability(ReliabilityConfig::on());
    let mk = || factory(MacroApp::Em3d, cfg.nodes, cfg.seed, snap_params());
    let targets = [
        ("\"t\":\"proc_run\"", "\"node\":"),
        ("\"t\":\"deposit_done\"", "\"dst\":"),
        ("\"t\":\"node_crash\"", "\"node\":"),
        ("\"t\":\"arrival\"", "\"src\":"),
        ("\"t\":\"arrival\"", "\"dst\":"),
    ];
    let mut forged_kinds = vec![false; targets.len()];
    for budget in [25u64, 100, 400, 1600, 6400] {
        let mut m = Machine::new(cfg.clone(), mk());
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        m.run_slice(&mut sim, Time::from_ns(60_000_000_000), budget);
        let text = save(&m, &mut sim).expect("snapshot").to_compact();
        assert!(restore(cfg.clone(), mk(), &json::parse(&text).unwrap()).is_ok());
        for (i, (anchor, key)) in targets.iter().enumerate() {
            let Some(forged) = forge_number(&text, anchor, key, 90) else {
                continue;
            };
            let got = restore(cfg.clone(), mk(), &json::parse(&forged).unwrap());
            assert!(
                matches!(got, Err(SnapshotError::Malformed(_))),
                "{anchor} {key}90 at budget {budget}: got {:?}",
                got.map(|_| "Ok(machine)")
            );
            forged_kinds[i] = true;
        }
    }
    for ((anchor, key), hit) in targets.iter().zip(forged_kinds) {
        assert!(hit, "no cut held a {anchor} event to forge {key} in");
    }
}

/// The fingerprint binds the snapshot to a *semantic* configuration, not
/// to observability settings: toggling metrics must not invalidate a
/// checkpoint taken without them.
#[test]
fn metrics_toggle_does_not_invalidate_a_snapshot() {
    let cfg = base_config();
    let snap = mid_run_snapshot(&cfg);
    let mut with_metrics = cfg.clone();
    with_metrics.metrics = nisim_engine::metrics::MetricsConfig::enabled();
    let got = restore(
        with_metrics.clone(),
        factory(MacroApp::Em3d, cfg.nodes, cfg.seed, snap_params()),
        &snap,
    );
    // Same fingerprint — but the snapshot has no metrics section while
    // the config demands one, so this is a *shape* error, not a
    // fingerprint rejection.
    assert!(
        !matches!(got, Err(SnapshotError::ConfigMismatch { .. })),
        "metrics must not change the fingerprint"
    );
}

/// Runs a machine to quiescence and renders its report, so two runs
/// compare byte for byte.
fn run_to_end(m: &mut Machine, sim: &mut MachineSim) -> String {
    let status = m.run_slice(sim, Time::from_ns(10_000_000_000), 500_000_000);
    assert_eq!(status, SimStatus::Drained);
    format!("{:?}", m.report(sim, status))
}

/// A run stopped at a horizon that falls between events (the clock is
/// clamped to the horizon, not to the last fired event) must snapshot
/// and resume exactly on every NI design: both the restored copy and the
/// paused original reproduce the uninterrupted report.
#[test]
fn horizon_cut_checkpoint_resumes_identically() {
    for ni in NiKind::ALL {
        let cfg = MachineConfig {
            ni,
            ..base_config()
        };
        let mk = || factory(MacroApp::Em3d, cfg.nodes, cfg.seed, snap_params());
        let mut golden = Machine::new(cfg.clone(), mk());
        let mut gsim = MachineSim::new();
        golden.start(&mut gsim);
        let golden_report = run_to_end(&mut golden, &mut gsim);

        // Cuts chosen off any round multiple, inside busy stretches.
        for cut_ns in [777u64, 3_333, 7_919] {
            let mut m = Machine::new(cfg.clone(), mk());
            let mut sim = MachineSim::new();
            m.start(&mut sim);
            let status = m.run_slice(&mut sim, Time::from_ns(cut_ns), 500_000_000);
            assert_eq!(status, SimStatus::HorizonReached, "{ni:?} cut {cut_ns}");
            assert_eq!(sim.now(), Time::from_ns(cut_ns));

            let text = save(&m, &mut sim).expect("snapshot").to_compact();
            let snap = json::parse(&text).expect("snapshot text parses");
            let (mut r, mut rsim) = restore(cfg.clone(), mk(), &snap).expect("restore");
            assert_eq!(
                golden_report,
                run_to_end(&mut r, &mut rsim),
                "{ni:?} cut {cut_ns}: resumed run diverged"
            );
            assert_eq!(
                golden_report,
                run_to_end(&mut m, &mut sim),
                "{ni:?} cut {cut_ns}: paused original diverged"
            );
        }
    }
}

/// Event-budget slicing (the chaos suite's kill-and-resume shape): a run
/// driven in 500-event `run_slice` calls must report exactly what an
/// uninterrupted run does.
#[test]
fn budget_sliced_run_matches_the_uninterrupted_run() {
    let cfg = MachineConfig::with_ni(NiKind::Cni32Qm)
        .nodes(4)
        .flow_buffers(BufferCount::Finite(4));
    let mk = || factory(MacroApp::Moldyn, 4, 3, MacroApp::Moldyn.default_params());
    let horizon = Time::from_ns(10_000_000_000);

    let mut whole = Machine::new(cfg.clone(), mk());
    let mut wsim = MachineSim::new();
    whole.start(&mut wsim);
    let whole_report = run_to_end(&mut whole, &mut wsim);

    let mut m = Machine::new(cfg, mk());
    let mut sim = MachineSim::new();
    m.start(&mut sim);
    let mut slices = 0;
    let status = loop {
        slices += 1;
        let status = m.run_slice(&mut sim, horizon, 500);
        if status != SimStatus::EventBudgetExhausted {
            break status;
        }
    };
    assert_eq!(status, SimStatus::Drained);
    assert!(slices > 2, "workload too small to slice meaningfully");
    assert_eq!(whole_report, format!("{:?}", m.report(&sim, status)));
}
