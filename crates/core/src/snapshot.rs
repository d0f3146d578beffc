//! Versioned machine checkpoints: deterministic save/restore of a
//! mid-run [`Machine`] plus its scheduler.
//!
//! A snapshot captures *everything* that determines the rest of the run:
//! the timing wheel's pending events (with their tie-breaking sequence
//! numbers), every node's processor/process/NI/cache/bus state, the
//! network fabric's link reservations, the fault plan's RNG stream, the
//! reliability layer's sequence windows, and (when enabled) the metrics
//! accumulators. Restoring a snapshot into a machine built from the same
//! configuration and continuing produces the **byte-identical**
//! [`MachineReport`](crate::machine::MachineReport) an uninterrupted run
//! would have produced — the property the chaos suite checks.
//!
//! Snapshots are guarded two ways:
//!
//! * a format [`SNAPSHOT_VERSION`], rejected with
//!   [`SnapshotError::Version`] on mismatch, and
//! * a [`config_fingerprint`] over the machine configuration's canonical
//!   `Debug` rendering, rejected with [`SnapshotError::ConfigMismatch`]
//!   when a resume is attempted against a different configuration.
//!
//! Trace collection (the message-lifecycle trace and the metrics span
//! sink) grows without bound and is deliberately not snapshotable:
//! saving a tracing machine fails with [`SnapshotError::UnsupportedTrace`]
//! rather than silently truncating the trace.

use std::collections::{BTreeMap, BTreeSet};

use nisim_engine::codec::{self, ensure, Codec, DecodeError, Fields, State};
use nisim_engine::json::{u64_from_hex, u64_hex};
use nisim_engine::{Dur, Json, Time};
use nisim_net::{fragment_count, Fragment, MsgId, NodeId};

use crate::config::MachineConfig;
use crate::event::MachineEvent;
use crate::machine::{Machine, MachineMetrics, MachineSim};
use crate::ni::{util, WireMsg};
use crate::node::ID_NODE_SHIFT;
use crate::process::{Process, SendSpec};
use crate::processor::ProcPhase;

/// Format version written into (and required of) every snapshot.
///
/// Version 2: message/transfer id counters and the fragment-assembly
/// table moved from the machine to the per-node objects (per-node id
/// spaces).
///
/// Version 3: wire messages and send specs carry the connection id the
/// connection-aware NIs (RDMA queue pairs) stage per fragment.
///
/// Version 4: cache lines stored sparsely — the slot count plus only the
/// slots that differ from an empty line, as `[slot, tag, state, lru]`.
///
/// Version 5: the bus no longer keeps (or stores) a queueing-delay
/// summary.
///
/// Version 6: a send in progress no longer stores its fragment list; the
/// payload, the network configuration and the next fragment's index
/// give every fragment.
///
/// Version 7: cache lines as four columns — `"lines": {"slot": [..],
/// "tag": [..], "state": [..], "lru": [..]}` — in place of one
/// `[slot, tag, state, lru]` array per line.
///
/// Version 8: a skeleton's iteration count and step queue live on
/// `SkeletonProcess` (`"iters_left"` and `"steps"` of the process), not
/// on the skeleton.
pub const SNAPSHOT_VERSION: u64 = 8;

/// Why a snapshot could not be saved or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by a different format version.
    Version {
        /// The version found in the file.
        found: u64,
    },
    /// The snapshot belongs to a different machine configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration the resume was attempted with.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The node's workload process does not implement
    /// [`Process::snapshot`].
    UnsupportedWorkload {
        /// The node whose process refused.
        node: u32,
    },
    /// The machine collects a trace (message lifecycle or metrics spans),
    /// which snapshots do not capture.
    UnsupportedTrace,
    /// The snapshot JSON is structurally invalid for this version.
    Malformed(String),
    /// The snapshot file could not be read or written.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Version { found } => {
                write!(f, "snapshot version {found} (expected {SNAPSHOT_VERSION})")
            }
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {} does not match {}",
                u64_hex(*found),
                u64_hex(*expected)
            ),
            SnapshotError::UnsupportedWorkload { node } => {
                write!(f, "node {node}: workload does not support checkpointing")
            }
            SnapshotError::UnsupportedTrace => {
                write!(f, "tracing runs cannot be checkpointed")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotError::Io(what) => write!(f, "snapshot io: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(e: DecodeError) -> SnapshotError {
    SnapshotError::Malformed(e.to_string())
}

/// FNV-1a fingerprint of the configuration's canonical `Debug` rendering
/// — also the bench harness's sweep-record fingerprint, so a snapshot
/// binds to exactly the identity its `RunRecord` would have. The
/// rendering is hashed as it is formatted, never held as a `String`.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    use std::fmt::Write;
    /// An FNV-1a hash of the text written to it.
    struct Fnv1a(u64);
    impl Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    // Infallible: the sink never returns an error.
    let _ = write!(h, "{cfg:?}");
    h.0
}

/// The scheduler's part of a snapshot: clock, next sequence number,
/// events fired, and the pending `(time, seq, event)` entries.
struct SimState {
    now: Time,
    seq: u64,
    fired: u64,
    events: Vec<(Time, u64, MachineEvent)>,
}

nisim_engine::struct_codec! { SimState { now, seq, fired, events } }

impl State for MachineMetrics {
    nisim_engine::state_fields! { { cycles, msg_rtt, frag_queue, rel_cycles: rel.cycles } }
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

/// Serialises a paused machine plus its scheduler into a snapshot value.
///
/// The scheduler's pending events are drained and re-inserted, so `sim`
/// is unchanged on return. Fails with a typed error if any node's
/// workload does not support checkpointing, or if tracing is on.
pub fn save(machine: &Machine, sim: &mut MachineSim) -> Result<Json, SnapshotError> {
    if machine.cfg.trace || machine.cfg.metrics.trace || machine.g.trace.is_some() {
        return Err(SnapshotError::UnsupportedTrace);
    }
    let events = sim.drain_entries();
    let sim_state = SimState {
        now: sim.now(),
        seq: sim.next_seq(),
        fired: sim.events_fired(),
        events,
    };
    let sim_json = sim_state.encode();
    // `drain_entries` is destructive: put the queue back before any
    // fallible per-node work below can bail out.
    sim.restore_entries(sim_state.events);

    let mut nodes = Vec::with_capacity(machine.nodes.len());
    for n in &machine.nodes {
        let process = n
            .process
            .snapshot()
            .ok_or(SnapshotError::UnsupportedWorkload { node: n.id.0 })?;
        nodes.push(n.snapshot(process));
    }
    let g = &machine.g;
    let mut mach = Json::obj()
        .set("msg_size_hist", g.msg_size_hist.encode())
        .set("transfer_started", g.transfer_started.snapshot())
        .set("app_messages", g.app_messages.encode())
        .set("msg_latency", g.msg_latency.encode())
        .set("fabric", g.fabric.snapshot())
        .set("violations", g.violations.encode())
        .set("progress", g.progress.encode())
        .set("nodes", Json::Arr(nodes));
    if let Some(plan) = &g.fault {
        mach = mach.set("fault", plan.snapshot());
    }
    if let Some(mm) = &g.metrics {
        mach = mach.set("metrics", mm.snapshot());
    }

    Ok(Json::obj()
        .set("version", SNAPSHOT_VERSION)
        .set(
            "config_fingerprint",
            u64_hex(config_fingerprint(&machine.cfg)),
        )
        .set("sim", sim_json)
        .set("machine", mach))
}

/// [`save`] straight to a file (canonical compact JSON plus a trailing
/// newline, so identical states produce identical bytes).
#[expect(
    clippy::disallowed_methods,
    reason = "checkpoints are the simulation's sanctioned way out to disk"
)]
pub fn save_to_file(
    machine: &Machine,
    sim: &mut MachineSim,
    path: &std::path::Path,
) -> Result<(), SnapshotError> {
    let v = save(machine, sim)?;
    let mut text = v.to_compact();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

/// Rebuilds a machine and scheduler from a snapshot.
///
/// `cfg` and `factory` must reproduce the run the snapshot was taken
/// from: the configuration is checked against the stored fingerprint,
/// and the factory's fresh processes are overwritten via
/// [`Process::restore`]. Every struct checks its own fields as it
/// decodes, then one pass checks what spans structs (DESIGN §6.6); a
/// failure is [`SnapshotError::Malformed`] naming
/// the JSON path. The returned pair is ready for `run_watched` — do
/// **not** call [`Machine::start`] on it (the scheduler already holds
/// the pending events).
pub fn restore(
    cfg: MachineConfig,
    factory: impl FnMut(NodeId) -> Box<dyn Process>,
    v: &Json,
) -> Result<(Machine, MachineSim), SnapshotError> {
    let mut f = Fields::of(v).map_err(malformed)?;
    let version: u64 = f.get("version").map_err(malformed)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version { found: version });
    }
    let expected = config_fingerprint(&cfg);
    let found = f
        .with("config_fingerprint", |j| {
            let hex = String::decode(j)?;
            u64_from_hex(&hex).ok_or_else(|| DecodeError::new("expected 16 hex digits"))
        })
        .map_err(malformed)?;
    if found != expected {
        return Err(SnapshotError::ConfigMismatch { expected, found });
    }
    if cfg.trace || cfg.metrics.trace {
        return Err(SnapshotError::UnsupportedTrace);
    }
    let mut machine = Machine::new(cfg, factory);
    let restored = (|| {
        let sim: SimState = f.get("sim")?;
        f.with("machine", |j| machine.restore_state(j))?;
        f.finish()?;
        check_restored(&machine, &sim)?;
        Ok(sim)
    })();
    let sim = restored.map_err(malformed)?;
    let sim = MachineSim::from_parts(sim.now, sim.seq, sim.fired, sim.events);
    Ok((machine, sim))
}

impl Machine {
    /// Restores the `machine` part of a snapshot into a machine freshly
    /// built from the same configuration. The fault plan and metrics
    /// keys must be present exactly when the configuration enables them.
    fn restore_state(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        let g = &mut self.g;
        g.msg_size_hist = f.get("msg_size_hist")?;
        f.with("transfer_started", |j| g.transfer_started.restore(j))?;
        g.app_messages = f.get("app_messages")?;
        g.msg_latency = f.get("msg_latency")?;
        f.with("fabric", |j| g.fabric.restore(j))?;
        g.violations = f.get("violations")?;
        g.progress = f.get("progress")?;
        f.with("nodes", |j| {
            let items = codec::array_of(j, self.nodes.len())?;
            for (i, (n, nj)) in self.nodes.iter_mut().zip(items).enumerate() {
                n.restore(nj).map_err(|e| e.in_index(i))?;
            }
            Ok(())
        })?;
        if let Some(plan) = &mut self.g.fault {
            f.with("fault", |j| plan.restore(j))?;
        }
        if let Some(mm) = &mut self.g.metrics {
            f.with("metrics", |j| mm.restore(j))?;
        }
        f.finish()
    }
}

/// The first failing `(condition, reason)` pair, as an error.
fn all(checks: &[(bool, &str)]) -> Result<(), DecodeError> {
    checks.iter().try_for_each(|&(ok, what)| ensure(ok, what))
}

/// `e` as seen from the snapshot root, under `machine.nodes[i].key`.
fn at_node(i: usize, key: &str, e: DecodeError) -> DecodeError {
    e.in_key(key).in_index(i).in_key("nodes").in_key("machine")
}

/// The cross-struct pass: invariants that tie a restored machine's parts
/// to each other and to the scheduler, which no single struct's decoder
/// can see. Each follows from how the event handlers move state; DESIGN
/// §6.6 gives the reasons.
fn check_restored(m: &Machine, sim: &SimState) -> Result<(), DecodeError> {
    let mut pending = Pending {
        runs: vec![Vec::new(); m.nodes.len()],
        ..Pending::default()
    };
    for (i, &(at, seq, ev)) in sim.events.iter().enumerate() {
        let fresh = seq < sim.seq && pending.seqs.insert(seq);
        all(&[
            (at >= sim.now, "event in the past"),
            (fresh, "sequence number reused"),
        ])
        .and_then(|()| check_event(m, &ev))
        .map_err(|e| e.in_index(i).in_key("events").in_key("sim"))?;
        match ev {
            MachineEvent::ProcRun { node } => pending.runs[node].push(at),
            MachineEvent::DepositDone { dst, frees_buffer } => {
                let held = pending.deposits.entry((dst, at)).or_default();
                *held += usize::from(frees_buffer);
            }
            MachineEvent::AckTimeout { src, msg, attempt } => {
                pending.timers.insert((src, msg, attempt));
            }
            MachineEvent::Arrival { wire, .. } | MachineEvent::ReturnArrival { wire } => {
                pending.carried.insert((wire.src, wire.id));
            }
            MachineEvent::AckArrival { src, msg } | MachineEvent::Retry { src, msg } => {
                pending.carried.insert((src, msg));
            }
            MachineEvent::NodeCrash { .. } => {}
        }
    }
    // A port's `free_at` ends a back-to-back run of transmissions that
    // began at a request time no later than the latest pending event
    // (or now), and that run is part of the port's `busy` time. The one
    // request no event follows is the injection of a fragment the fault
    // layer lost: its sender's bus and egress are then left unbounded.
    let horizon = sim.events.iter().map(|e| e.0).fold(sim.now, Time::max);
    let port = |free_at: Time, busy: Dur| ensure(free_at <= horizon + busy, "free_at too late");
    for (i, n) in m.nodes.iter().enumerate() {
        let hw = &n.hw;
        let resent = |id: MsgId| n.proc.pending_resends.iter().any(|w| w.id == id);
        let lost = (n.ni.outstanding.iter())
            .map(|(id, _)| MsgId(id))
            .any(|id| !pending.carried.contains(&(n.id, id)) && !resent(id));
        let sent = |free_at, busy| if lost { Ok(()) } else { port(free_at, busy) };
        sent(hw.bus.free_at(), hw.bus.stats().busy)
            .map_err(|e| e.in_key("bus"))
            .and_then(|()| {
                sent(hw.egress.free_at(), hw.egress.busy()).map_err(|e| e.in_key("egress"))
            })
            .and_then(|()| {
                port(hw.ingress.free_at(), hw.ingress.busy()).map_err(|e| e.in_key("ingress"))
            })
            .map_err(|e| at_node(i, "hw", e))?;
        check_ni(m, i, sim.now, &pending).map_err(|e| at_node(i, "ni", e))?;
        check_proc(m, i, &pending.runs[i]).map_err(|e| at_node(i, "proc", e))?;
        for (k, (&(src, transfer), &count)) in n.assembling.iter().enumerate() {
            ensure(
                count >= 1 && in_flight(m, transfer),
                "assembly of a transfer not in flight",
            )
            .and_then(|()| check_id(m, transfer, src as usize, IdKind::Transfer))
            .map_err(|e| at_node(i, "assembling", e.in_index(k)))?;
        }
    }
    let g = &m.g;
    let handled: u64 = m.nodes.iter().map(|n| n.proc.app_messages_handled).sum();
    let started: u64 = m.nodes.iter().map(|n| n.next_transfer_id).sum();
    let swallowed = g
        .fault
        .as_ref()
        .map_or(Vec::new(), |p| p.swallowed_sources().collect());
    all(&[
        (
            handled == g.app_messages,
            "app_messages != messages the nodes handled",
        ),
        (
            g.msg_latency.count() <= g.app_messages,
            "more latency samples than messages",
        ),
        (
            g.msg_size_hist.total() == started,
            "message sizes != transfers started",
        ),
        (
            g.violations.iter().all(|v| v.at <= sim.now),
            "violation in the future",
        ),
        (
            swallowed.iter().all(|n| n.index() < m.nodes.len()),
            "fault plan names a bad node",
        ),
    ])
    .map_err(|e| e.in_key("machine"))?;
    for (k, (id, at)) in g.transfer_started.iter().enumerate() {
        ensure(at <= sim.now, "transfer started in the future")
            .and_then(|()| check_id(m, id, (id >> ID_NODE_SHIFT) as usize, IdKind::Transfer))
            .map_err(|e| e.in_index(k).in_key("transfer_started").in_key("machine"))?;
    }
    for (k, (_, link)) in g.fabric.links().enumerate() {
        port(link.free_at(), link.busy())
            .map_err(|e| e.in_index(k).in_key("fabric").in_key("machine"))?;
    }
    Ok(())
}

/// The pending events node state must agree with.
#[derive(Default)]
struct Pending {
    /// Per node, the times of its pending processor runs.
    runs: Vec<Vec<Time>>,
    /// Per `(node, time)`, the pending deposits that release a buffer.
    deposits: BTreeMap<(usize, Time), usize>,
    /// Every armed ack timer, as `(sender, fragment, attempt)`.
    timers: BTreeSet<(NodeId, MsgId, u32)>,
    /// Every fragment an event still carries (on the wire, or its ack,
    /// return or retry), as `(sender, fragment)`.
    carried: BTreeSet<(NodeId, MsgId)>,
    seqs: BTreeSet<u64>,
}

/// Dedup (or a duplicate-free wire) makes every accepted fragment a
/// first delivery, so the transfer it belongs to has not completed.
fn in_flight(m: &Machine, transfer: u64) -> bool {
    let unique = m.cfg.reliability.enabled || m.cfg.fault.dup_p == 0.0;
    !unique || m.g.transfer_started.contains(transfer)
}

#[derive(Clone, Copy)]
enum IdKind {
    Msg,
    Transfer,
}

/// Checks that `id` was minted by `node`: it carries the node in its
/// high bits and its local part lies below the node's allocator.
fn check_id(m: &Machine, id: u64, node: usize, kind: IdKind) -> Result<(), DecodeError> {
    let minted = m.nodes.get(node).is_some_and(|n| {
        let next = match kind {
            IdKind::Msg => n.next_msg_id,
            IdKind::Transfer => n.next_transfer_id,
        };
        id >> ID_NODE_SHIFT == node as u64 && id & ((1 << ID_NODE_SHIFT) - 1) < next
    });
    ensure(minted, "id not minted by its node")
}

/// Checks fragment `frag` of a message `src` sent with ids `msg` and
/// `transfer`, and `spec` (the message as its sender asked for it): the
/// ids were minted by `src` — and since a node finishes one transfer
/// before it starts the next, every earlier transfer minted at least one
/// message id before this fragment's — the sender's process sends such
/// messages, and the fragment is the one [`nisim_net::fragment_payload`]
/// cuts at its index.
fn check_sent(
    m: &Machine,
    src: usize,
    (msg, transfer): (MsgId, u64),
    frag: &Fragment,
    spec: &SendSpec,
) -> Result<(), DecodeError> {
    check_id(m, msg.0, src, IdKind::Msg)?;
    check_id(m, transfer, src, IdKind::Transfer)?;
    let local = |id: u64| id & ((1 << ID_NODE_SHIFT) - 1);
    let ordered = local(msg.0) >= local(transfer) + u64::from(frag.index);
    ensure(ordered, "message id minted before its transfer's")?;
    m.nodes[src].process.check_send(spec)?;
    check_frag(m, frag, spec.payload_bytes)
}

/// Checks a wire message: both ends exist, it is a fragment its sender
/// sent ([`check_sent`]), and its sequence number was issued.
fn check_wire(m: &Machine, w: &WireMsg) -> Result<(), DecodeError> {
    let (src, dst) = (w.src.index(), w.dst.index());
    ensure(
        src < m.nodes.len() && dst < m.nodes.len(),
        "node out of range",
    )?;
    // Senders resolve connection 0 to `dst + 1` (`Machine::do_send_step`).
    let conn = if w.conn == w.dst.0 + 1 { 0 } else { w.conn };
    let spec = SendSpec::new(w.dst, w.total_payload, w.tag).on_conn(conn);
    check_sent(m, src, (w.id, w.transfer_id), &w.frag, &spec)?;
    let issued = m.nodes[src].ni.rel_tx.issued(w.dst);
    let seq_ok = match w.seq {
        Some(seq) => m.cfg.reliability.enabled && seq.0 < issued,
        None => !m.cfg.reliability.enabled,
    };
    ensure(seq_ok, "sequence number not issued")
}

/// A fragment must be exactly the one the messaging layer cuts from a
/// payload of `total` bytes at its index.
fn check_frag(m: &Machine, frag: &Fragment, total: u64) -> Result<(), DecodeError> {
    let max = m.cfg.net.max_payload_bytes();
    let count = fragment_count(&m.cfg.net, total);
    let fits = u64::from(frag.index) < count && u64::from(frag.of) == count && {
        let offset = u64::from(frag.index) * max;
        frag.offset == offset && frag.payload_bytes == (total - offset).min(max)
    };
    ensure(fits, "fragment geometry does not match its payload")
}

/// An event names nodes that exist and fragments their sender minted.
/// Without faults or retransmission nothing is lost, duplicated or
/// retried after its ack, so every message an arrival, ack, return or
/// retry carries is still awaiting that ack.
fn check_event(m: &Machine, ev: &MachineEvent) -> Result<(), DecodeError> {
    ensure(
        ev.node_of() < m.nodes.len(),
        "event names a node that does not exist",
    )?;
    let rel = m.cfg.reliability;
    let awaited = |src: NodeId, msg: MsgId| {
        let lossless = m.g.fault.is_none() && !rel.enabled;
        ensure(
            !lossless || m.nodes[src.index()].ni.outstanding.contains_key(msg.0),
            "message is not awaiting an ack",
        )
    };
    match *ev {
        MachineEvent::Arrival { wire, .. } | MachineEvent::ReturnArrival { wire } => {
            check_wire(m, &wire).map_err(|e| e.in_key("wire"))?;
            awaited(wire.src, wire.id)
        }
        MachineEvent::AckArrival { src, msg } | MachineEvent::Retry { src, msg } => {
            check_id(m, msg.0, src.index(), IdKind::Msg)?;
            awaited(src, msg)
        }
        MachineEvent::AckTimeout { src, msg, attempt } => {
            ensure(
                rel.enabled && attempt <= rel.max_retries,
                "ack timer out of range",
            )?;
            check_id(m, msg.0, src.index(), IdKind::Msg)
        }
        MachineEvent::DepositDone { dst, frees_buffer } => ensure(
            frees_buffer == m.nodes[dst].ni.model.frees_buffer_at_deposit(),
            "deposit releases its buffer at the wrong point for this design",
        ),
        MachineEvent::ProcRun { .. } | MachineEvent::NodeCrash { .. } => Ok(()),
    }
}

/// The NI of node `i` against the scheduler: the receive buffers held
/// are exactly those queued drains and deposits will free, every
/// fragment awaiting an ack holds one send buffer and (with reliability)
/// a live timer for its attempt, and every id it holds was minted.
fn check_ni(m: &Machine, i: usize, now: Time, pending: &Pending) -> Result<(), DecodeError> {
    let ni = &m.nodes[i].ni;
    for (k, e) in ni.rx_ready.iter().enumerate() {
        // Every design deposits a fragment into the blocks its wire size
        // needs, at a block-aligned slot.
        let wire_blocks = util::blocks(e.frag.payload_bytes + m.cfg.net.header_bytes);
        let slot_ok = e.loc.slot().is_none_or(|(base, blocks)| {
            base.raw().is_multiple_of(m.cfg.cache.block_bytes) && blocks == wire_blocks
        });
        let deposited = e.ready_at <= now || pending.deposits.contains_key(&(i, e.ready_at));
        let src = e.src.index();
        let spec = SendSpec::new(NodeId(i as u32), e.total_payload, e.tag);
        all(&[
            (src != i && src < m.nodes.len(), "bad source node"),
            (slot_ok, "deposit slot unaligned or of the wrong size"),
            (deposited, "ready later than any pending deposit"),
            (
                in_flight(m, e.transfer_id),
                "fragment of a transfer not in flight",
            ),
        ])
        .and_then(|()| check_sent(m, src, (e.msg_id, e.transfer_id), &e.frag, &spec))
        .map_err(|e| e.in_index(k).in_key("rx_ready"))?;
    }
    let held_to_drain = ni
        .rx_ready
        .iter()
        .filter(|e| e.frees_buffer_at_drain)
        .count();
    let held_to_deposit: usize = pending
        .deposits
        .range((i, Time::ZERO)..=(i, Time::MAX))
        .map(|d| d.1)
        .sum();
    all(&[
        (
            ni.fc.recv_in_use() as usize == held_to_drain + held_to_deposit,
            "receive buffers held != those queued drains and deposits will free",
        ),
        (
            ni.fc.send_in_use() as usize == ni.outstanding.len(),
            "send buffers held != fragments awaiting an ack",
        ),
    ])
    .map_err(|e| e.in_key("fc"))?;
    let (rel, cfg) = (m.cfg.reliability, &m.cfg);
    // A retry backoff starts at `retry_backoff` and doubles per return,
    // capped at `retry_backoff_max`.
    let (b0, cap) = (cfg.retry_backoff.as_ns(), cfg.retry_backoff_max.as_ns());
    let doubled = |b: u64| {
        b == b0
            || (b0 > 0
                && (b == cap || (b < cap && b.is_multiple_of(b0) && (b / b0).is_power_of_two())))
    };
    for (k, (id, o)) in ni.outstanding.iter().enumerate() {
        // Each attempt arms one timer; the current one is pending until
        // it fires, which retransmits or (at the cap) gives up.
        let timed = pending.timers.contains(&(o.wire.src, MsgId(id), o.attempt));
        let attempts_ok = if rel.enabled {
            o.attempt <= rel.max_retries
                && timed != o.gave_up
                && (!o.gave_up || o.attempt == rel.max_retries)
        } else {
            o.attempt == 0 && !o.gave_up
        };
        all(&[
            (
                o.wire.src.index() == i,
                "outstanding fragment sent by another node",
            ),
            (
                doubled(o.backoff.as_ns()),
                "backoff not reachable by doubling",
            ),
            (
                attempts_ok,
                "retransmission attempt disagrees with its timer",
            ),
        ])
        .and_then(|()| check_wire(m, &o.wire))
        .map_err(|e| e.in_index(k).in_key("outstanding"))?;
    }
    // A receiver can only have accepted sequence numbers its sender issued.
    let peer = |p: NodeId| p.index() < m.nodes.len() && p.index() != i;
    let issued = |src: NodeId| {
        ni.rel_rx.high_water(src) <= m.nodes[src.index()].ni.rel_tx.issued(NodeId(i as u32))
    };
    ensure(ni.rel_tx.peers().all(peer), "sequence state for a bad peer")
        .map_err(|e| e.in_key("rel_tx"))?;
    ensure(
        ni.rel_rx.peers().all(|p| peer(p) && issued(p)),
        "dedup window past what its peer issued",
    )
    .map_err(|e| e.in_key("rel_rx"))
}

/// The processor of node `i` against its pending runs: a busy processor
/// has exactly one, at the end of its busy period, where its ledger
/// stamp also stands; a waiting one has one exactly when a wake is
/// pending. Its sends go to other nodes, as its process sends them.
fn check_proc(m: &Machine, i: usize, runs: &[Time]) -> Result<(), DecodeError> {
    let n = &m.nodes[i];
    let p = &n.proc;
    let scheduled = match p.phase {
        ProcPhase::Busy => {
            runs == [p.busy_until] && n.ledger.stamp() == p.busy_until && !p.wake_pending
        }
        ProcPhase::Idle | ProcPhase::BlockedSend => runs.len() == usize::from(p.wake_pending),
    };
    all(&[
        (scheduled, "processor phase disagrees with its pending runs"),
        (
            !p.program_done || n.process.is_done(),
            "program done but its process is not",
        ),
    ])?;
    let spec_ok = |s: &SendSpec| {
        ensure(
            s.dst.index() < m.nodes.len() && s.dst.index() != i,
            "send to a bad node",
        )?;
        n.process.check_send(s)
    };
    for (k, s) in p.queued_sends.iter().enumerate() {
        spec_ok(s).map_err(|e| e.in_index(k).in_key("queued_sends"))?;
    }
    if let Some(s) = &p.current_send {
        // A send whose last fragment went out is dropped at once.
        let left = u64::from(s.next) < fragment_count(&m.cfg.net, s.spec.payload_bytes);
        spec_ok(&s.spec)
            .and_then(|()| check_id(m, s.transfer_id, i, IdKind::Transfer))
            .and_then(|()| ensure(left, "no fragment left to send"))
            .map_err(|e| e.in_key("current_send"))?;
    }
    for (k, w) in p.pending_resends.iter().enumerate() {
        ensure(w.src.index() == i, "resend of another node's fragment")
            .and_then(|()| check_wire(m, w))
            .map_err(|e| e.in_index(k).in_key("pending_resends"))?;
    }
    Ok(())
}

/// Reads and parses a snapshot file written by [`save_to_file`].
pub fn load_from_file(path: &std::path::Path) -> Result<Json, SnapshotError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    nisim_engine::json::parse(&text).map_err(|e| SnapshotError::Malformed(format!("json: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineReport, RUN_HORIZON, RUN_MAX_EVENTS};
    use crate::ni::NiKind;
    use crate::process::{Action, AppMessage, HandlerSpec};
    use nisim_engine::SimStatus;
    use nisim_net::BufferCount;

    /// A checkpointable echo workload: node 0 pings node 1 `count` times
    /// and waits for the echoes; every other node echoes.
    struct SnapEchoer {
        is_origin: bool,
        to_send: u32,
        echoes_left: u32,
        payload: u64,
        done: bool,
    }

    impl Process for SnapEchoer {
        fn next_action(&mut self, _now: Time) -> Action {
            if !self.is_origin {
                return Action::Done;
            }
            if self.to_send > 0 {
                self.to_send -= 1;
                Action::Send(SendSpec::new(NodeId(1), self.payload, 0))
            } else if self.echoes_left > 0 {
                Action::Wait
            } else {
                self.done = true;
                Action::Done
            }
        }

        fn on_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
            if msg.tag == 0 {
                HandlerSpec::reply(Dur::ns(20), SendSpec::new(msg.src, 8, 1))
            } else {
                self.echoes_left -= 1;
                HandlerSpec::compute(Dur::ns(10))
            }
        }

        fn is_done(&self) -> bool {
            self.done || !self.is_origin
        }

        fn snapshot(&self) -> Option<Json> {
            Some(self.snapshot())
        }

        fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
            self.restore(state)
        }
    }

    impl SnapEchoer {
        nisim_engine::state_fields! { { to_send, echoes_left, done } }
    }

    fn snap_factory(count: u32, payload: u64) -> impl FnMut(NodeId) -> Box<dyn Process> {
        move |id| {
            Box::new(SnapEchoer {
                is_origin: id.0 == 0,
                to_send: if id.0 == 0 { count } else { 0 },
                echoes_left: if id.0 == 0 { count } else { 0 },
                payload,
                done: false,
            })
        }
    }

    fn report_key(r: &MachineReport) -> String {
        format!(
            "{:?} {:?} {} {} {} {} {} {:?} {:?} {:?}",
            r.status,
            r.elapsed,
            r.events,
            r.app_messages,
            r.fragments_sent,
            r.retries,
            r.bus_transactions,
            r.msg_latency,
            r.rel_stats,
            r.violations,
        )
    }

    fn run_to_end(machine: &mut Machine, sim: &mut MachineSim) -> MachineReport {
        let window = machine.cfg.watchdog_window;
        let status = sim.run_watched(machine, RUN_HORIZON, RUN_MAX_EVENTS, window, |m| {
            m.g.progress
        });
        machine.report(sim, status)
    }

    #[test]
    fn cut_and_resume_matches_uninterrupted_run() {
        let cfg = || {
            MachineConfig::with_ni(NiKind::Cm5)
                .nodes(2)
                .flow_buffers(BufferCount::Finite(2))
        };
        // Golden: run to quiescence in one go.
        let mut golden = Machine::new(cfg(), snap_factory(6, 200));
        let mut gsim = MachineSim::new();
        golden.start(&mut gsim);
        let golden_report = run_to_end(&mut golden, &mut gsim);
        assert_eq!(golden_report.status, SimStatus::Drained);
        assert!(golden_report.all_quiescent);

        for cut in [1u64, 7, 25, 60] {
            let mut m = Machine::new(cfg(), snap_factory(6, 200));
            let mut sim = MachineSim::new();
            m.start(&mut sim);
            let window = m.cfg.watchdog_window;
            sim.run_watched(&mut m, RUN_HORIZON, cut, window, |x| x.g.progress);
            let snap = save(&m, &mut sim).expect("snapshot");
            // The snapshot itself round-trips through the serializer.
            let reparsed = nisim_engine::json::parse(&snap.to_compact()).expect("parse");
            let (mut resumed, mut rsim) =
                restore(cfg(), snap_factory(6, 200), &reparsed).expect("restore");
            let resumed_report = run_to_end(&mut resumed, &mut rsim);
            assert_eq!(
                report_key(&resumed_report),
                report_key(&golden_report),
                "cut at {cut} events diverged"
            );
            // And the paused original continues identically too.
            let continued = run_to_end(&mut m, &mut sim);
            assert_eq!(report_key(&continued), report_key(&golden_report));
        }
    }

    fn crash_cfg(start_ns: u64, end_ns: u64) -> MachineConfig {
        use nisim_net::{CrashWindow, FaultConfig, ReliabilityConfig};
        MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .flow_buffers(BufferCount::Finite(4))
            .fault(FaultConfig {
                crash: vec![CrashWindow {
                    start: Time::from_ns(start_ns),
                    end: Time::from_ns(end_ns),
                    node: NodeId(1),
                }],
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig::on())
    }

    #[test]
    fn crashed_run_resumes_identically_under_faults() {
        // The outage opens at t=0, before node 1 has accepted anything, so
        // every delivery into the window is swallowed pre-ack and the
        // reliability layer recovers all of them: exactly-once end to end.
        let cfg = || crash_cfg(0, 3_000);
        let mut golden = Machine::new(cfg(), snap_factory(8, 64));
        let mut gsim = MachineSim::new();
        golden.start(&mut gsim);
        let golden_report = run_to_end(&mut golden, &mut gsim);
        assert!(golden_report.all_quiescent, "{:?}", golden_report.stall);
        assert_eq!(golden_report.app_messages, 16);
        assert!(
            golden_report.rel_stats.retransmits > 0,
            "crash must force retransmissions: {:?}",
            golden_report.rel_stats
        );

        for cut in [10u64, 40, 90] {
            let mut m = Machine::new(cfg(), snap_factory(8, 64));
            let mut sim = MachineSim::new();
            m.start(&mut sim);
            let window = m.cfg.watchdog_window;
            sim.run_watched(&mut m, RUN_HORIZON, cut, window, |x| x.g.progress);
            let snap = save(&m, &mut sim).expect("snapshot");
            let (mut resumed, mut rsim) =
                restore(cfg(), snap_factory(8, 64), &snap).expect("restore");
            let resumed_report = run_to_end(&mut resumed, &mut rsim);
            assert_eq!(
                report_key(&resumed_report),
                report_key(&golden_report),
                "faulty cut at {cut} events diverged"
            );
        }
    }

    #[test]
    fn crash_loss_is_surfaced_never_duplicated() {
        // A mid-stream outage wipes receive state that was already
        // acknowledged: that data is gone for good. The contract is the
        // accounting one — every undelivered message shows up in
        // `crash_lost` (or `gave_up`), and nothing is delivered twice.
        let mut m = Machine::new(crash_cfg(4_000, 9_000), snap_factory(8, 64));
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        let report = run_to_end(&mut m, &mut sim);
        let rel = &report.rel_stats;
        assert!(rel.retransmits > 0, "{rel:?}");
        assert!(
            rel.crash_lost + rel.gave_up > 0,
            "mid-stream crash must lose something: {rel:?}"
        );
        assert!(report.app_messages < 16, "{report:?}");
        // Exactly-once bounds. Upper: nothing is delivered twice, so
        // deliveries plus losses never exceed the 16 offered messages.
        // Lower: each lost ping also forfeits the echo it would have
        // produced, so a loss removes at most two app messages.
        let lost = rel.crash_lost + rel.gave_up;
        assert!(report.app_messages + lost <= 16, "{report:?}");
        assert!(report.app_messages + 2 * lost >= 16, "{report:?}");
        // The wiped messages stall the echo workload, which the watchdog
        // reports rather than the run spinning forever.
        assert!(!report.all_quiescent);
        let stall = report.stall.as_ref().expect("stall report");
        assert!(stall
            .endpoints
            .iter()
            .any(|e| e.rel.crash_lost > 0 || e.retries_exhausted > 0));
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(2);
        let mut m = Machine::new(cfg, snap_factory(2, 64));
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        let snap = save(&m, &mut sim).expect("snapshot");
        let other = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let err = restore(other, snap_factory(2, 64), &snap).expect_err("must fail");
        assert!(
            matches!(err, SnapshotError::ConfigMismatch { expected, found } if expected != found),
            "{err}"
        );
    }

    #[test]
    fn version_and_trace_guards() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(2);
        let mut m = Machine::new(cfg.clone(), snap_factory(1, 8));
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        let snap = save(&m, &mut sim).expect("snapshot");
        let mut bad = snap.clone();
        if let Json::Obj(fields) = &mut bad {
            fields[0].1 = Json::from(99u64);
        }
        assert_eq!(
            restore(cfg.clone(), snap_factory(1, 8), &bad).err(),
            Some(SnapshotError::Version { found: 99 })
        );
        let mut traced = Machine::new(
            MachineConfig {
                trace: true,
                ..cfg.clone()
            },
            snap_factory(1, 8),
        );
        let mut tsim = MachineSim::new();
        traced.start(&mut tsim);
        assert_eq!(
            save(&traced, &mut tsim).err(),
            Some(SnapshotError::UnsupportedTrace)
        );
    }

    #[test]
    fn unsnapshotable_workload_is_a_typed_error() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(2);
        // The plain test Echoer does not implement Process::snapshot.
        let mut m = Machine::new(cfg, crate::machine::tests::echo_factory(1, 8));
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        assert_eq!(
            save(&m, &mut sim).err(),
            Some(SnapshotError::UnsupportedWorkload { node: 0 })
        );
        // The failed save must leave the scheduler intact.
        assert!(sim.pending() > 0);
    }

    #[test]
    fn metrics_state_survives_the_round_trip() {
        use nisim_engine::metrics::MetricsConfig;
        let cfg = || {
            MachineConfig::with_ni(NiKind::Cni32Qm)
                .nodes(2)
                .metrics(MetricsConfig::enabled())
        };
        let mut golden = Machine::new(cfg(), snap_factory(4, 200));
        let mut gsim = MachineSim::new();
        golden.start(&mut gsim);
        let golden_report = run_to_end(&mut golden, &mut gsim);
        let gb = golden_report.breakdown.as_ref().expect("breakdown");

        let mut m = Machine::new(cfg(), snap_factory(4, 200));
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        let window = m.cfg.watchdog_window;
        sim.run_watched(&mut m, RUN_HORIZON, 30, window, |x| x.g.progress);
        let snap = save(&m, &mut sim).expect("snapshot");
        let (mut resumed, mut rsim) = restore(cfg(), snap_factory(4, 200), &snap).expect("restore");
        let resumed_report = run_to_end(&mut resumed, &mut rsim);
        let rb = resumed_report.breakdown.as_ref().expect("breakdown");
        assert_eq!(gb.encode().to_compact(), rb.encode().to_compact());
        assert_eq!(report_key(&resumed_report), report_key(&golden_report));
    }

    #[test]
    fn fingerprint_is_stable_across_metrics_settings() {
        use nisim_engine::metrics::MetricsConfig;
        let plain = MachineConfig::default();
        let metered = MachineConfig::default().metrics(MetricsConfig::enabled());
        assert_eq!(config_fingerprint(&plain), config_fingerprint(&metered));
        let other = MachineConfig::default().seed(1);
        assert_ne!(config_fingerprint(&plain), config_fingerprint(&other));
    }
}
