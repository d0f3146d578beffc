//! Cross-crate property tests for the snapshot subsystem: the
//! reliability layer's dedup windows must survive the checkpoint file
//! round trip with their *behaviour* (not just their bytes) intact, a
//! snapshot must never restore into a machine whose configuration
//! fingerprint differs — whichever knob was turned — and a run cut at a
//! horizon or sliced by event budget must finish exactly as an
//! uninterrupted one.
//!
//! Cases come from the shared hand-rolled `Lcg`, so failures reproduce.

use std::collections::BTreeMap;

use nisim_core::snapshot::{restore, save, SnapshotError, SNAPSHOT_VERSION};
use nisim_core::{Machine, MachineConfig, MachineSim, NiKind, RUN_HORIZON, RUN_MAX_EVENTS};
use nisim_engine::codec::Codec;
use nisim_engine::{json, Dur, Json, SimStatus, Time};
use nisim_integration::Lcg;
use nisim_net::{BufferCount, NodeId, ReceiverDedup, ReliabilityConfig, SeqNo};
use nisim_workloads::apps::{factory, AppParams, MacroApp};

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

/// Version-8 snapshots keep a skeleton's program loop on its process.
/// A snapshot stamped with an earlier version (7 kept it on the
/// skeleton, 6 wrote one array per cache line, 5 a send's fragment
/// list, 4 the bus's queueing summary, 3 every cache line) must be
/// rejected as a [`SnapshotError::Version`], and a
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
    for old in [3, 4, 5, 6, 7, 8] {
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

/// Save → restore → save is a byte fixed point on every NI design, at
/// three cuts of the run.
#[test]
fn save_restore_save_is_a_byte_fixed_point() {
    for ni in NiKind::ALL {
        let cfg = MachineConfig {
            ni,
            ..base_config()
        };
        let mk = || factory(MacroApp::Em3d, cfg.nodes, cfg.seed, snap_params());
        for budget in [25u64, 400, 1600] {
            let mut m = Machine::new(cfg.clone(), mk());
            let mut sim = MachineSim::new();
            m.start(&mut sim);
            m.run_slice(&mut sim, Time::from_ns(60_000_000_000), budget);
            let text = save(&m, &mut sim).expect("snapshot").to_compact();
            assert!(
                text.contains(r#""lines":{"slot":["#),
                "{ni:?}: no cache columns"
            );
            let snap = json::parse(&text).expect("snapshot text parses");
            let (r, mut rsim) = restore(cfg.clone(), mk(), &snap).expect("restore");
            let again = save(&r, &mut rsim).expect("snapshot").to_compact();
            assert!(
                again == text,
                "{ni:?} at {budget} events: not a fixed point"
            );
        }
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
    let status = m.run_slice(sim, RUN_HORIZON, RUN_MAX_EVENTS);
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
            let status = m.run_slice(&mut sim, Time::from_ns(cut_ns), RUN_MAX_EVENTS);
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
    let horizon = RUN_HORIZON;

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

/// The value under `key` of a JSON object, mutably.
fn field_mut<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match v {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The elements of a JSON array, mutably.
fn items_mut(v: &mut Json) -> Option<&mut Vec<Json>> {
    match v {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// Adds `by` to a JSON number in place; false if `v` is not one.
fn shift(v: &mut Json, by: u64) -> bool {
    match v {
        Json::Num(n) => {
            *n += by as f64;
            true
        }
        _ => false,
    }
}

/// Per node, the in-flight transfer ids of a snapshot's
/// `machine.transfer_started`.
fn transfer_ids_by_node(snap: &Json) -> BTreeMap<u64, Vec<u64>> {
    let starts = snap.get("machine").and_then(|m| m.get("transfer_started"));
    let mut by_node: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for entry in starts.and_then(Json::as_arr).unwrap_or_default() {
        let id = entry.as_arr().and_then(|e| e[0].as_u64()).unwrap();
        by_node.entry(id >> 40).or_default().push(id);
    }
    by_node
}

/// An id shifted 10^12 past its neighbours — one outstanding fragment's
/// key and wire id, or one in-flight transfer's id — names nothing its
/// node minted, so restore must reject it as
/// [`SnapshotError::Malformed`]. Restore files such ids in a bounded
/// window plus an ordered map; a window that grew with the id distance
/// would abort this test on the allocation instead.
#[test]
fn ids_shifted_far_past_their_window_are_rejected() {
    const FAR: u64 = 1_000_000_000_000;
    let cfg = base_config();
    let mk = || factory(MacroApp::Em3d, cfg.nodes, cfg.seed, snap_params());
    let mut forged = [false; 2];
    for budget in [25u64, 100, 400, 1600] {
        let mut m = Machine::new(cfg.clone(), mk());
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        m.run_slice(&mut sim, Time::from_ns(60_000_000_000), budget);
        let snap = save(&m, &mut sim).expect("snapshot");
        assert!(restore(cfg.clone(), mk(), &snap).is_ok(), "budget {budget}");

        // The last outstanding fragment of the first node that has one:
        // shifting it keeps the keys ascending and key == wire id.
        let mut outstanding = snap.clone();
        let nodes = field_mut(&mut outstanding, "machine").and_then(|m| field_mut(m, "nodes"));
        let last = (nodes.and_then(items_mut).into_iter().flatten())
            .filter_map(|n| field_mut(n, "ni").and_then(|ni| field_mut(ni, "outstanding")))
            .filter_map(|o| items_mut(o).and_then(|o| o.last_mut()))
            .find_map(items_mut);
        if let Some(entry) = last {
            let (key, frag) = entry.split_at_mut(1);
            let wire_id = field_mut(&mut frag[0], "wire").and_then(|w| field_mut(w, "id"));
            assert!(shift(&mut key[0], FAR) && wire_id.is_some_and(|id| shift(id, FAR)));
            forged[0] = true;
            let got = restore(cfg.clone(), mk(), &outstanding);
            assert!(
                matches!(got, Err(SnapshotError::Malformed(_))),
                "outstanding id + 10^12 at budget {budget}: got {:?}",
                got.map(|_| "Ok(machine)")
            );
        }

        let mut started = snap.clone();
        let starts =
            field_mut(&mut started, "machine").and_then(|m| field_mut(m, "transfer_started"));
        let last = starts.and_then(items_mut).and_then(|s| s.last_mut());
        if let Some(id) = last.and_then(items_mut).and_then(|e| e.first_mut()) {
            assert!(shift(id, FAR));
            forged[1] = true;
            let got = restore(cfg.clone(), mk(), &started);
            assert!(
                matches!(got, Err(SnapshotError::Malformed(_))),
                "transfer id + 10^12 at budget {budget}: got {:?}",
                got.map(|_| "Ok(machine)")
            );
        }
    }
    assert_eq!(
        forged, [true; 2],
        "no cut held an outstanding fragment and a transfer"
    );
}

/// em3d-long's runs (16 nodes, 8 buffers, on cm5 and cni32qm) cut at
/// seeded event counts: each cut is saved, and resumed from the first
/// cut whose in-flight transfer ids on one node lie more than 128 apart
/// (so restore files some start times below the id window) and from
/// every 50th cut. Every resumed run, and the sliced original, must
/// report exactly what the uninterrupted run reports. cni32qm's
/// transfers spread that far; cm5's stay within a few dozen ids.
#[test]
fn em3d_long_cuts_with_far_apart_transfers_resume_identically() {
    let params = AppParams {
        iterations: 12,
        intensity: 26,
        compute: Dur::us(3),
    };
    let horizon = RUN_HORIZON;
    let mut rng = Lcg(0x5eed_3003);
    let mut widest = 0;
    for ni in [NiKind::Cm5, NiKind::Cni32Qm] {
        let cfg = MachineConfig::with_ni(ni).flow_buffers(BufferCount::Finite(8));
        let mk = || factory(MacroApp::Em3d, cfg.nodes, cfg.seed, params);
        let mut whole = Machine::new(cfg.clone(), mk());
        let mut wsim = MachineSim::new();
        whole.start(&mut wsim);
        let whole_report = run_to_end(&mut whole, &mut wsim);

        let mut m = Machine::new(cfg.clone(), mk());
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        let (mut wide_resumed, mut resumed, mut cuts) = (false, 0, 0);
        let status = loop {
            let status = m.run_slice(&mut sim, horizon, 300 + rng.below(600));
            if status != SimStatus::EventBudgetExhausted {
                break status;
            }
            let snap = save(&m, &mut sim).expect("snapshot");
            let spread = (transfer_ids_by_node(&snap).values())
                .map(|ids| ids[ids.len() - 1] - ids[0])
                .max()
                .unwrap_or(0);
            widest = widest.max(spread);
            let wide = spread > 128 && !wide_resumed;
            cuts += 1;
            if !wide && cuts % 50 != 1 {
                continue;
            }
            wide_resumed |= wide;
            resumed += 1;
            let cut = sim.events_fired();
            let text = snap.to_compact();
            let snap = json::parse(&text).expect("snapshot text parses");
            let (mut r, mut rsim) = restore(cfg.clone(), mk(), &snap).expect("restore");
            assert_eq!(
                whole_report,
                run_to_end(&mut r, &mut rsim),
                "{ni:?} cut at event {cut} (transfer spread {spread}): resumed run diverged"
            );
        };
        assert_eq!(status, SimStatus::Drained);
        assert!(resumed > 1, "{ni:?}: too few cuts resumed");
        assert_eq!(whole_report, format!("{:?}", m.report(&sim, status)));
    }
    assert!(
        widest > 128,
        "no cut spread a node's in-flight transfers past 128 ids (widest {widest})"
    );
}
