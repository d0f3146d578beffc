//! Hostile-input tests for checkpoint restore: seeded mutants of the
//! chaos grid's checkpoints must each end in a typed error, in a resume
//! identical to the clean one, or in a different resume that changed
//! only fields no invariant constrains (the named list below). A panic,
//! or a resume that runs past the event bound, fails the test.
//!
//! The build is offline (no fuzzing crate), so mutants come from the
//! shared hand-rolled `Lcg` — deterministic, so failures reproduce
//! exactly.
//! Debug and release checkpoints differ (the cache's debug-only visit
//! bitmap), so the tests assert properties, not outcome counts.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nisim_bench::chaos::{self, ChaosPoint};
use nisim_core::snapshot::{restore, save, SnapshotError};
use nisim_core::{Machine, MachineSim, NiKind};
use nisim_engine::{json, Json, SimStatus, Time};
use nisim_integration::Lcg;
use nisim_workloads::apps::{factory, MacroApp};

/// Fields no restore check can pin, each with the reason. A survivor
/// (a mutant that restores and resumes differently) must have changed
/// only leaves under these paths; `[*]` matches any index.
const UNCONSTRAINED: &[(&str, &str)] = &[
    (
        "machine.nodes[*].hw.cache.hits",
        "statistic: hits + misses is only bounded by the clock",
    ),
    ("machine.nodes[*].hw.cache.misses", "statistic, as hits"),
    (
        "machine.nodes[*].hw.cache.dirty_evictions",
        "statistic: no state records past evictions",
    ),
    (
        "machine.nodes[*].hw.cache.snoop_invalidations",
        "statistic: no state records past snoops",
    ),
    (
        "machine.nodes[*].hw.cache.lines.tag[*]",
        "cache contents: another block of the same set may be resident",
    ),
    (
        "machine.nodes[*].hw.cache.lines.state[*]",
        "cache contents: a resident block's coherence state is recorded nowhere else",
    ),
    (
        "machine.nodes[*].hw.cache.lines.lru[*]",
        "LRU stamp: any past value of the clock",
    ),
    (
        "machine.nodes[*].hw.bus.free_at",
        "port reservation: bounded only from above, by the latest event plus busy time",
    ),
    (
        "machine.nodes[*].hw.egress.free_at",
        "port reservation, as the bus",
    ),
    (
        "machine.nodes[*].hw.ingress.free_at",
        "port reservation, as the bus",
    ),
    (
        "machine.fabric[*][2].free_at",
        "port reservation, as the bus",
    ),
    (
        "machine.nodes[*].hw.main_mem",
        "statistic: memory access counters feed only reports",
    ),
    ("machine.nodes[*].hw.ni_mem", "statistic, as main_mem"),
    (
        "machine.nodes[*].ni.fc.send_alloc_failures",
        "flow statistic: failed allocations leave no state",
    ),
    (
        "machine.nodes[*].ni.fc.recv_rejects",
        "flow statistic: a rejected arrival leaves no state",
    ),
    (
        "machine.nodes[*].ni.fc.returns_absorbed",
        "flow statistic: bounded below by retries only",
    ),
    (
        "machine.nodes[*].ni.fc.retries",
        "flow statistic: bounded above by returns only",
    ),
    (
        "machine.nodes[*].ni.fc.recv_allocs",
        "flow statistic: bounded below by the buffers held only",
    ),
    (
        "machine.nodes[*].ni.stats.fragments_received",
        "NI statistic: received fragments leave the queue when drained",
    ),
    (
        "machine.nodes[*].ni.stats.payload_bytes_sent",
        "NI statistic: sent payloads leave no state once acked",
    ),
    (
        "machine.nodes[*].ni.rel_rx",
        "dedup memory: which issued sequence numbers arrived is recorded nowhere else",
    ),
    (
        "machine.nodes[*].ni.rx_ready[*].tag",
        "application data: a message's tag is the program's to choose",
    ),
    (
        "machine.nodes[*].ni.outstanding[*][1].wire.tag",
        "application data",
    ),
    (
        "machine.nodes[*].proc.pending_resends[*].tag",
        "application data",
    ),
    ("sim.events[*][2].wire.tag", "application data"),
    (
        "machine.nodes[*].ni.rx_ready[*].transfer_id",
        "fragment identity: which of its sender's in-flight transfers a fragment joins",
    ),
    (
        "machine.nodes[*].ni.outstanding[*][1].wire.transfer_id",
        "fragment identity, as rx_ready",
    ),
    (
        "machine.nodes[*].proc.pending_resends[*].transfer_id",
        "fragment identity, as rx_ready",
    ),
    (
        "sim.events[*][2].wire.transfer_id",
        "fragment identity, as rx_ready",
    ),
    (
        "machine.nodes[*].proc.queued_sends",
        "program state: handler replies awaiting their turn, each one its process sends",
    ),
    (
        "machine.nodes[*].ni.rel_stats",
        "reliability statistics: discards and losses leave no state",
    ),
    (
        "machine.fault.offered",
        "fault statistic: only bounds the other fault counters",
    ),
    ("machine.fault.dropped", "fault statistic"),
    ("machine.fault.jittered", "fault statistic"),
    ("machine.fault.corrupted", "fault statistic"),
    ("machine.fault.duplicated", "fault statistic"),
    (
        "machine.msg_latency",
        "statistic: latency samples of completed messages",
    ),
    (
        "machine.msg_size_hist",
        "statistic: which sizes were sent (only the total is pinned)",
    ),
    (
        "machine.nodes[*].process.steps",
        "program state: any order of valid steps is a valid program",
    ),
    (
        "machine.nodes[*].process.iters_left",
        "program state: any count up to the run's iterations",
    ),
    (
        "machine.nodes[*].process.skeleton.acc",
        "program state: spsolve's operand counts below the in-degree",
    ),
    (
        "machine.nodes[*].process.skeleton.fired",
        "program state: spsolve's per-level fire counts",
    ),
    (
        "machine.transfer_started",
        "timestamps: a transfer's start is any past instant",
    ),
    (
        "sim.events[*][2].msg",
        "fragment identity: under faults an ack, timer or retry may be stale",
    ),
    (
        "machine.nodes[*].ni.outstanding[*][1].wire.seq",
        "sequence number: any number the sender issued to that peer",
    ),
    (
        "machine.nodes[*].ni.rx_ready[*].loc[1]",
        "queue slot: which slot of the region a fragment landed in is recorded nowhere else",
    ),
    (
        "machine.nodes[*].ni.model.send_cursor",
        "queue cursor: any point of the region is a valid next slot",
    ),
    (
        "machine.nodes[*].ni.model.recv_cursor",
        "queue cursor, as send",
    ),
    (
        "machine.nodes[*].process.barrier_arrivals",
        "program state: the root's arrivals counted so far this epoch",
    ),
    (
        "sim.events[*][0]",
        "timestamps: a pending event may lie arbitrarily far ahead",
    ),
];

/// A value in `0..n` from the generator's high 48 bits, the draw the
/// mutant stream has always used.
fn below(rng: &mut Lcg, n: u64) -> u64 {
    (rng.next_u64() >> 16) % n.max(1)
}

/// One checkpoint of a grid point plus its clean resume.
struct Checkpoint {
    point: ChaosPoint,
    text: String,
    clean: String,
    events: u64,
}

/// Where a mutant ended.
#[derive(Debug)]
enum Outcome {
    Rejected,
    Identical,
    Different(String),
}

fn new_machine(p: &ChaosPoint) -> (Machine, MachineSim) {
    let cfg = chaos::config(p);
    let mut m = Machine::new(
        cfg.clone(),
        factory(p.app, cfg.nodes, cfg.seed, chaos::params()),
    );
    let mut sim = MachineSim::new();
    m.start(&mut sim);
    (m, sim)
}

fn checkpoint(p: ChaosPoint, cut: u64) -> Checkpoint {
    let (mut m, mut sim) = new_machine(&p);
    m.run_slice(&mut sim, Time::from_ns(60_000_000_000), cut);
    let text = save(&m, &mut sim).expect("snapshot").to_compact();
    let (mut whole, mut wsim) = new_machine(&p);
    whole.run_slice(&mut wsim, Time::from_ns(60_000_000_000), u64::MAX);
    let events = wsim.events_fired();
    let clean = resume(&p, &text, events).expect("clean checkpoint resumes");
    Checkpoint {
        point: p,
        text,
        clean,
        events,
    }
}

/// Restores `text` and runs it to the end; `Err` is the typed error. The
/// run may fire at most twice the uninterrupted run's events.
fn resume(p: &ChaosPoint, text: &str, events: u64) -> Result<String, SnapshotError> {
    let v = json::parse(text).map_err(|e| SnapshotError::Malformed(format!("{e}")))?;
    let cfg = chaos::config(p);
    let (mut m, mut sim) = restore(
        cfg.clone(),
        factory(p.app, cfg.nodes, cfg.seed, chaos::params()),
        &v,
    )?;
    let status = m.run_slice(&mut sim, Time::from_ns(60_000_000_000), 2 * events);
    assert_ne!(
        status,
        SimStatus::EventBudgetExhausted,
        "a resume ran past the event bound"
    );
    Ok(chaos::record_of(p, &cfg, &m, &sim, status)
        .to_json()
        .to_compact())
}

fn outcome(ck: &Checkpoint, mutant: &[u8]) -> Outcome {
    let Ok(text) = std::str::from_utf8(mutant) else {
        return Outcome::Rejected; // a checkpoint file must be UTF-8
    };
    let run = catch_unwind(AssertUnwindSafe(|| resume(&ck.point, text, ck.events)));
    match run {
        Err(panic) => panic!(
            "{}: mutant panicked: {:?}\n{text}",
            label(&ck.point),
            panic.downcast_ref::<String>()
        ),
        Ok(Err(_)) => Outcome::Rejected,
        Ok(Ok(record)) if record == ck.clean => Outcome::Identical,
        Ok(Ok(record)) => Outcome::Different(record),
    }
}

fn label(p: &ChaosPoint) -> String {
    format!("{}/{}/{}", p.app.name(), p.ni.key(), p.crash)
}

/// The paths of the leaves (or the smallest subtrees, where the shape
/// differs) at which `a` and `b` differ.
fn diff(a: &Json, b: &Json, path: &str, out: &mut Vec<String>) {
    match (a, b) {
        (Json::Obj(x), Json::Obj(y))
            if x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.0 == q.0) =>
        {
            for ((k, u), (_, v)) in x.iter().zip(y) {
                let sub = if path.is_empty() {
                    k.to_string()
                } else {
                    format!("{path}.{k}")
                };
                diff(u, v, &sub, out);
            }
        }
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => {
            for (i, (u, v)) in x.iter().zip(y).enumerate() {
                diff(u, v, &format!("{path}[{i}]"), out);
            }
        }
        (u, v) if u == v => {}
        _ => out.push(path.to_string()),
    }
}

/// True if `path` lies at or under `pattern`, where `[*]` in the
/// pattern matches any one index.
fn under(pattern: &str, path: &str) -> bool {
    let (mut pat, mut p) = (pattern, path);
    loop {
        match pat.find("[*]") {
            None => {
                return p.starts_with(pat)
                    && matches!(p.as_bytes().get(pat.len()), None | Some(b'.' | b'['));
            }
            Some(star) => {
                if !p.starts_with(&pat[..star]) {
                    return false;
                }
                let rest = &p[star..];
                let Some(close) = rest.strip_prefix('[').and_then(|r| r.find(']')) else {
                    return false;
                };
                p = &rest[close + 2..];
                pat = &pat[star + 3..];
            }
        }
    }
}

fn numeric_leaves(v: &Json, path: &mut Vec<Seg>, out: &mut Vec<Vec<Seg>>) {
    match v {
        Json::Num(_) => out.push(path.clone()),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Seg::Index(i));
                numeric_leaves(item, path, out);
                path.pop();
            }
        }
        Json::Obj(pairs) => {
            for (k, item) in pairs {
                path.push(Seg::Key(k.to_string()));
                numeric_leaves(item, path, out);
                path.pop();
            }
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

#[derive(Clone, Debug)]
enum Seg {
    Key(String),
    Index(usize),
}

fn leaf_mut<'a>(v: &'a mut Json, path: &[Seg]) -> &'a mut Json {
    path.iter().fold(v, |v, seg| match (v, seg) {
        (Json::Obj(pairs), Seg::Key(k)) => {
            &mut pairs
                .iter_mut()
                .find(|(key, _)| **key == **k)
                .expect("key")
                .1
        }
        (Json::Arr(items), Seg::Index(i)) => &mut items[*i],
        _ => panic!("path does not fit"),
    })
}

/// Applies one number edit (±1, ×2^31, +10^12) at a random numeric leaf.
fn edit_number(text: &str, rng: &mut Lcg) -> Vec<u8> {
    let mut v = json::parse(text).expect("checkpoint parses");
    let mut leaves = Vec::new();
    numeric_leaves(&v, &mut Vec::new(), &mut leaves);
    let path = &leaves[below(rng, leaves.len() as u64) as usize];
    let leaf = leaf_mut(&mut v, path);
    let Json::Num(x) = *leaf else { unreachable!() };
    *leaf = Json::Num(match below(rng, 4) {
        0 => x + 1.0,
        1 => (x - 1.0).abs(),
        2 => x * 2f64.powi(31),
        _ => x + 1e12,
    });
    v.to_compact().into_bytes()
}

fn mutate(ck: &Checkpoint, others: &[Checkpoint], rng: &mut Lcg) -> Vec<u8> {
    let mut bytes = ck.text.clone().into_bytes();
    let len = bytes.len() as u64;
    match below(rng, 4) {
        0 => {
            bytes.truncate(below(rng, len) as usize);
            bytes
        }
        1 => {
            let at = below(rng, len) as usize;
            bytes[at] ^= 1 << below(rng, 8);
            bytes
        }
        2 => {
            let donor = others[below(rng, others.len() as u64) as usize]
                .text
                .as_bytes();
            let (a, n) = (below(rng, len) as usize, 1 + below(rng, 64) as usize);
            let (c, m) = (
                below(rng, donor.len() as u64) as usize,
                1 + below(rng, 64) as usize,
            );
            let end = (a + n).min(bytes.len());
            let donated = &donor[c..(c + m).min(donor.len())];
            bytes.splice(a..end, donated.iter().copied());
            bytes
        }
        _ => edit_number(&ck.text, rng),
    }
}

fn checkpoints() -> Vec<Checkpoint> {
    let mut out = Vec::new();
    for p in chaos::grid() {
        for cut in [40, 150, 300] {
            out.push(checkpoint(p, cut));
        }
    }
    out
}

#[test]
fn seeded_mutants_end_in_typed_error_identical_or_listed_resume() {
    let cks = checkpoints();
    let mut rng = Lcg(0x5eed_4d17);
    let (mut rejected, mut identical, mut listed) = (0, 0, 0);
    let total = 1200;
    for i in 0..total {
        let ck = &cks[i % cks.len()];
        let mutant = mutate(ck, &cks, &mut rng);
        match outcome(ck, &mutant) {
            Outcome::Rejected => rejected += 1,
            Outcome::Identical => identical += 1,
            Outcome::Different(record) => {
                let text = String::from_utf8(mutant).expect("restored, so UTF-8");
                let mut changed = Vec::new();
                diff(
                    &json::parse(&ck.text).unwrap(),
                    &json::parse(&text).unwrap(),
                    "",
                    &mut changed,
                );
                let unlisted: Vec<&String> = (changed.iter())
                    .filter(|p| !UNCONSTRAINED.iter().any(|(pat, _)| under(pat, p)))
                    .collect();
                assert!(
                    unlisted.is_empty(),
                    "mutant {i} of {} resumed differently after changing {unlisted:?}\n\
                     clean:  {}\nmutant: {record}",
                    label(&ck.point),
                    ck.clean
                );
                listed += 1;
            }
        }
    }
    eprintln!("{total} mutants: {rejected} rejected, {identical} identical, {listed} listed");
    assert_eq!(rejected + identical + listed, total);
}

/// The checkpoint of the grid point `(app, ni, crash)` cut at `cut`.
fn point_checkpoint(app: MacroApp, ni: NiKind, crash: bool, cut: u64) -> Checkpoint {
    checkpoint(ChaosPoint { app, ni, crash }, cut)
}

/// Sets the leaf at `path` (keys and indices) of `ck`'s checkpoint.
fn forged(ck: &Checkpoint, path: &[Seg], f: impl FnOnce(f64) -> f64) -> Vec<u8> {
    let mut v = json::parse(&ck.text).unwrap();
    let leaf = leaf_mut(&mut v, path);
    let Json::Num(x) = *leaf else {
        panic!("{path:?} is not a number")
    };
    *leaf = Json::Num(f(x));
    v.to_compact().into_bytes()
}

fn segs(path: &str) -> Vec<Seg> {
    path.split('.')
        .flat_map(|part| {
            let mut segs = Vec::new();
            let mut it = part.split('[');
            let key = it.next().unwrap();
            if !key.is_empty() {
                segs.push(Seg::Key(key.to_string()));
            }
            segs.extend(it.map(|i| Seg::Index(i.trim_end_matches(']').parse().unwrap())));
            segs
        })
        .collect()
}

fn assert_rejected(ck: &Checkpoint, mutant: &[u8], what: &str) {
    let got = outcome(ck, mutant);
    assert!(matches!(got, Outcome::Rejected), "{what}: got {got:?}");
}

/// The three survivor classes the ROADMAP reported, on the em3d/CNI_32Q_m
/// point cut at 150 events: an egress port reserved 1,000 s ahead, a
/// fragments-sent count scaled by about 2^31, and a cache tag one block
/// over.
#[test]
fn roadmap_survivor_classes_are_typed_errors() {
    let ck = point_checkpoint(MacroApp::Em3d, NiKind::Cni32Qm, false, 150);
    let free_at = segs("machine.nodes[1].hw.egress.free_at");
    assert_rejected(
        &ck,
        &forged(&ck, &free_at, |x| x + 1e12),
        "free_at + 1000 s",
    );
    let sent = segs("machine.nodes[1].ni.stats.fragments_sent");
    assert_rejected(
        &ck,
        &forged(&ck, &sent, |x| x * 2f64.powi(31) + 1.0),
        "fragments_sent",
    );
    let tag = segs("machine.nodes[1].hw.cache.lines.tag[0]");
    let text = String::from_utf8(forged(&ck, &tag, |x| x + 64.0)).unwrap();
    assert_eq!(
        resume(&ck.point, &text, ck.events).expect_err("cache tag + 64"),
        SnapshotError::Malformed(
            "machine.nodes[1].hw.cache.lines.tag[0]: tag is not a block that maps to this \
             slot's set"
                .into()
        )
    );
}

/// A program step that sends to its own node (or to one the machine
/// does not have) used to restore and then panic the resumed run.
#[test]
fn send_to_self_or_missing_node_is_rejected() {
    for cut in (20..2000).step_by(20) {
        let ck = point_checkpoint(MacroApp::Em3d, NiKind::Cm5, true, cut);
        let v = json::parse(&ck.text).unwrap();
        let Some(Json::Arr(steps)) = v
            .get("machine")
            .and_then(|m| m.get("nodes"))
            .and_then(|n| n.as_arr()?.get(2))
            .and_then(|n| n.get("process")?.get("steps"))
        else {
            continue;
        };
        let Some(k) = steps
            .iter()
            .position(|s| s.as_arr().and_then(|a| a[0].as_str()) == Some("send"))
        else {
            continue;
        };
        let dst = segs(&format!("machine.nodes[2].process.steps[{k}][1][0]"));
        assert_rejected(&ck, &forged(&ck, &dst, |_| 2.0), "send to itself");
        assert_rejected(&ck, &forged(&ck, &dst, |_| 9.0), "send to node 9 of 4");
        return;
    }
    panic!("no cut left node 2 with a send step queued");
}

/// The first cut of `app` on CM-5 at which node `node` has a step
/// queued that `pick` accepts, with that step's index.
fn queued_step(app: MacroApp, node: usize, pick: fn(&Json) -> bool) -> (Checkpoint, usize) {
    for cut in (20..2000).step_by(20) {
        let ck = point_checkpoint(app, NiKind::Cm5, false, cut);
        let mut v = json::parse(&ck.text).unwrap();
        let steps = leaf_mut(
            &mut v,
            &segs(&format!("machine.nodes[{node}].process.steps")),
        );
        if let Some(k) = steps.as_arr().and_then(|s| s.iter().position(pick)) {
            return (ck, k);
        }
    }
    panic!("no cut left node {node} of {} with such a step", app.name());
}

/// Restores the mutant `text` of `ck`, which must fail with exactly
/// `error`.
fn assert_malformed(ck: &Checkpoint, text: &str, error: &str) {
    assert_eq!(
        resume(&ck.point, text, ck.events).expect_err(error),
        SnapshotError::Malformed(error.into())
    );
}

/// The program loop's restore checks, each at its path: no more
/// iterations left than the run has, and no step the skeleton never
/// queues (em3d never waits; spsolve seeds only its next two
/// partitions).
#[test]
fn forged_program_loop_state_is_rejected_at_its_path() {
    let ck = point_checkpoint(MacroApp::Em3d, NiKind::Cm5, false, 150);
    let left = segs("machine.nodes[2].process.iters_left");
    let iterations = f64::from(chaos::params().iterations);
    let text = String::from_utf8(forged(&ck, &left, |x| x + iterations + 1.0)).unwrap();
    assert_malformed(
        &ck,
        &text,
        "machine.nodes[2].process.iters_left: more iterations left than the run has",
    );

    let (ck, k) = queued_step(MacroApp::Em3d, 2, |_| true);
    let mut v = json::parse(&ck.text).unwrap();
    let step = format!("machine.nodes[2].process.steps[{k}]");
    *leaf_mut(&mut v, &segs(&step)) = Json::Arr(vec![Json::from("wait")]);
    let error = format!("{step}: a step em3d never queues");
    assert_malformed(&ck, &v.to_compact(), &error);

    // Node 1 seeds nodes 2 and 3; node 0 is neither.
    let is_send = |s: &Json| s.as_arr().and_then(|a| a[0].as_str()) == Some("send");
    let (ck, k) = queued_step(MacroApp::Spsolve, 1, is_send);
    let mut v = json::parse(&ck.text).unwrap();
    let step = format!("machine.nodes[1].process.steps[{k}]");
    *leaf_mut(&mut v, &segs(&format!("{step}[1][0]"))) = Json::from(0u64);
    let error = format!("{step}: a step spsolve never queues");
    assert_malformed(&ck, &v.to_compact(), &error);
}

/// Receive buffers held below what queued work will free used to
/// restore and then panic the resumed run at the buffer release.
#[test]
fn receive_buffers_below_queued_work_are_rejected() {
    for cut in (10..3000).step_by(10) {
        let ck = point_checkpoint(MacroApp::Spsolve, NiKind::RdmaQp, false, cut);
        let mut v = json::parse(&ck.text).unwrap();
        for i in 0..4 {
            let path = segs(&format!("machine.nodes[{i}].ni.fc.recv_in_use"));
            let held = leaf_mut(&mut v, &path).as_u64().unwrap();
            if held >= 2 {
                assert_rejected(&ck, &forged(&ck, &path, |x| x - 2.0), "recv_in_use - 2");
                assert_rejected(&ck, &forged(&ck, &path, |x| x - 1.0), "recv_in_use - 1");
                return;
            }
        }
    }
    panic!("no cut held two receive buffers");
}

/// A corrupt leaf deep in the state is reported with its full JSON path.
#[test]
fn malformed_names_the_full_json_path() {
    let ck = point_checkpoint(MacroApp::Em3d, NiKind::Cni32Qm, false, 150);
    let state = segs("machine.nodes[2].hw.cache.lines.state[7]");
    let text = String::from_utf8(forged(&ck, &state, |_| 9.0)).unwrap();
    let err = resume(&ck.point, &text, ck.events).expect_err("bad state index");
    assert_eq!(
        err,
        SnapshotError::Malformed(
            "machine.nodes[2].hw.cache.lines.state[7]: unknown MOESI state index".into()
        )
    );
}

/// A send whose fragments all went out, and a transfer start naming a
/// node the machine does not have, are typed errors at their paths.
#[test]
fn sent_out_send_and_foreign_transfer_start_are_rejected() {
    for cut in (7..700).step_by(7) {
        let ck = point_checkpoint(MacroApp::Em3d, NiKind::Cm5, true, cut);
        let v = json::parse(&ck.text).unwrap();
        let machine = v.get("machine").unwrap();
        let nodes = machine.get("nodes").and_then(Json::as_arr).unwrap();
        let Some(i) = nodes.iter().position(|n| {
            n.get("proc")
                .and_then(|p| p.get("current_send"))
                .is_some_and(|s| !matches!(s, Json::Null))
        }) else {
            continue;
        };
        let starts = machine.get("transfer_started").and_then(Json::as_arr);
        let last = starts.map_or(0, |s| s.len()).saturating_sub(1);
        let error = |path: &str, f: fn(f64) -> f64| {
            let text = String::from_utf8(forged(&ck, &segs(path), f)).unwrap();
            resume(&ck.point, &text, ck.events).expect_err(path)
        };
        // No payload here takes a million fragments.
        let next = format!("machine.nodes[{i}].proc.current_send.next");
        assert_eq!(
            error(&next, |_| 1e6),
            SnapshotError::Malformed(format!(
                "machine.nodes[{i}].proc.current_send: no fragment left to send"
            ))
        );
        // The last id stays the largest, on node 9 of 4.
        let id = format!("machine.transfer_started[{last}][0]");
        assert_eq!(
            error(&id, |_| (9u64 << 40) as f64),
            SnapshotError::Malformed(format!(
                "machine.transfer_started[{last}]: id not minted by its node"
            ))
        );
        return;
    }
    panic!("no cut left a send in progress");
}

#[test]
fn path_patterns_match_at_segment_boundaries() {
    assert!(under("a.b[*].c", "a.b[12].c"));
    assert!(under("a.b[*].c", "a.b[3].c.d[1]"));
    assert!(under("sim.events[*][0]", "sim.events[4][0]"));
    assert!(!under("sim.events[*][0]", "sim.events[4][1]"));
    assert!(!under("a.b[*].c", "a.b[1].cd"));
    assert!(!under("a.b", "a.bc"));
}
