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

use std::collections::{BTreeMap, VecDeque};

use nisim_engine::json::{u64_from_hex, u64_hex};
use nisim_engine::metrics::{ComponentCycles, Log2Hist};
use nisim_engine::stats::{Counter, Histogram, Summary};
use nisim_engine::{Dur, Json, Time};
use nisim_mem::{Addr, BlockGeometry};
use nisim_net::{MsgId, NodeId, SeqNo};

use crate::accounting::TimeLedger;
use crate::config::MachineConfig;
use crate::error::{ProtocolViolation, Violation};
use crate::event::MachineEvent;
use crate::machine::{Machine, MachineSim};
use crate::ni::{DepositLoc, OutstandingFrag, RxEntry, WireMsg};
use crate::process::{Process, SendSpec};
use crate::processor::{ProcPhase, SendInProgress};

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
pub const SNAPSHOT_VERSION: u64 = 4;

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

fn mal(what: &str) -> SnapshotError {
    SnapshotError::Malformed(what.to_string())
}

/// FNV-1a fingerprint of the configuration's canonical `Debug` rendering
/// — the same construction the bench harness uses for sweep records, so
/// a snapshot binds to exactly the identity its `RunRecord` would have.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Field codecs. Encoders are infallible; decoders return `Option` and
// are lifted to `SnapshotError::Malformed` at the restore boundary.
// ---------------------------------------------------------------------

fn as_bool(v: &Json) -> Option<bool> {
    if let Json::Bool(b) = v {
        Some(*b)
    } else {
        None
    }
}

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key).and_then(Json::as_u64)
}

fn node_id(raw: u64) -> Option<NodeId> {
    (raw <= u32::MAX as u64).then_some(NodeId(raw as u32))
}

fn frag_to_json(f: &nisim_net::Fragment) -> Json {
    Json::Arr(vec![
        Json::from(f.index),
        Json::from(f.of),
        Json::from(f.payload_bytes),
        Json::from(f.offset),
    ])
}

fn frag_from_json(v: &Json) -> Option<nisim_net::Fragment> {
    let [index, of, payload_bytes, offset] =
        v.as_arr().and_then(|a| <&[Json; 4]>::try_from(a).ok())?;
    let index = index.as_u64()?;
    let of = of.as_u64()?;
    if index > u32::MAX as u64 || of > u32::MAX as u64 {
        return None;
    }
    Some(nisim_net::Fragment {
        index: index as u32,
        of: of as u32,
        payload_bytes: payload_bytes.as_u64()?,
        offset: offset.as_u64()?,
    })
}

fn wire_to_json(w: &WireMsg) -> Json {
    Json::obj()
        .set("id", w.id.0)
        .set("src", w.src.0)
        .set("dst", w.dst.0)
        .set("transfer_id", w.transfer_id)
        .set("frag", frag_to_json(&w.frag))
        .set("tag", w.tag)
        .set("total_payload", w.total_payload)
        .set(
            "seq",
            match w.seq {
                Some(s) => Json::from(s.0),
                None => Json::Null,
            },
        )
        .set("conn", w.conn)
}

fn wire_from_json(v: &Json) -> Option<WireMsg> {
    let seq = match v.get("seq")? {
        Json::Null => None,
        s => Some(SeqNo(s.as_u64()?)),
    };
    let tag = get_u64(v, "tag")?;
    let conn = get_u64(v, "conn")?;
    if tag > u32::MAX as u64 || conn > u32::MAX as u64 {
        return None;
    }
    Some(WireMsg {
        id: MsgId(get_u64(v, "id")?),
        src: node_id(get_u64(v, "src")?)?,
        dst: node_id(get_u64(v, "dst")?)?,
        transfer_id: get_u64(v, "transfer_id")?,
        frag: frag_from_json(v.get("frag")?)?,
        tag: tag as u32,
        total_payload: get_u64(v, "total_payload")?,
        seq,
        conn: conn as u32,
    })
}

fn loc_to_json(loc: &DepositLoc) -> Json {
    let tagged = |tag: &str, base: nisim_mem::BlockAddr, blocks: u64| {
        Json::Arr(vec![
            Json::from(tag),
            Json::from(base.raw()),
            Json::from(blocks),
        ])
    };
    match loc {
        DepositLoc::NiFifo => Json::Arr(vec![Json::from("fifo")]),
        DepositLoc::Memory { base, blocks } => tagged("mem", *base, *blocks),
        DepositLoc::NiQueue { base, blocks } => tagged("niq", *base, *blocks),
        DepositLoc::NiCache { base, blocks } => tagged("nic", *base, *blocks),
    }
}

fn loc_from_json(v: &Json, geo: BlockGeometry) -> Option<DepositLoc> {
    let arr = v.as_arr()?;
    let tag = arr.first()?.as_str()?;
    if tag == "fifo" {
        return (arr.len() == 1).then_some(DepositLoc::NiFifo);
    }
    let [_, base, blocks] = <&[Json; 3]>::try_from(arr).ok()?;
    let raw = base.as_u64()?;
    let base = geo.block_of(Addr::new(raw));
    if base.raw() != raw {
        return None; // stored base must be block-aligned
    }
    let blocks = blocks.as_u64()?;
    match tag {
        "mem" => Some(DepositLoc::Memory { base, blocks }),
        "niq" => Some(DepositLoc::NiQueue { base, blocks }),
        "nic" => Some(DepositLoc::NiCache { base, blocks }),
        _other => None,
    }
}

fn rx_to_json(e: &RxEntry) -> Json {
    Json::obj()
        .set("msg_id", e.msg_id.0)
        .set("src", e.src.0)
        .set("transfer_id", e.transfer_id)
        .set("frag", frag_to_json(&e.frag))
        .set("tag", e.tag)
        .set("total_payload", e.total_payload)
        .set("ready_at", e.ready_at.as_ns())
        .set("loc", loc_to_json(&e.loc))
        .set("frees_buffer_at_drain", e.frees_buffer_at_drain)
}

fn rx_from_json(v: &Json, geo: BlockGeometry) -> Option<RxEntry> {
    let tag = get_u64(v, "tag")?;
    if tag > u32::MAX as u64 {
        return None;
    }
    Some(RxEntry {
        msg_id: MsgId(get_u64(v, "msg_id")?),
        src: node_id(get_u64(v, "src")?)?,
        transfer_id: get_u64(v, "transfer_id")?,
        frag: frag_from_json(v.get("frag")?)?,
        tag: tag as u32,
        total_payload: get_u64(v, "total_payload")?,
        ready_at: Time::from_ns(get_u64(v, "ready_at")?),
        loc: loc_from_json(v.get("loc")?, geo)?,
        frees_buffer_at_drain: as_bool(v.get("frees_buffer_at_drain")?)?,
    })
}

fn outstanding_to_json(o: &OutstandingFrag) -> Json {
    Json::obj()
        .set("wire", wire_to_json(&o.wire))
        .set("backoff", o.backoff.as_ns())
        .set("attempt", o.attempt)
        .set("gave_up", o.gave_up)
}

fn outstanding_from_json(v: &Json) -> Option<OutstandingFrag> {
    let attempt = get_u64(v, "attempt")?;
    if attempt > u32::MAX as u64 {
        return None;
    }
    Some(OutstandingFrag {
        wire: wire_from_json(v.get("wire")?)?,
        backoff: Dur::ns(get_u64(v, "backoff")?),
        attempt: attempt as u32,
        gave_up: as_bool(v.get("gave_up")?)?,
    })
}

fn spec_to_json(s: &SendSpec) -> Json {
    Json::Arr(vec![
        Json::from(s.dst.0),
        Json::from(s.payload_bytes),
        Json::from(s.tag),
        Json::from(s.conn),
    ])
}

fn spec_from_json(v: &Json) -> Option<SendSpec> {
    let [dst, payload, tag, conn] = v.as_arr().and_then(|a| <&[Json; 4]>::try_from(a).ok())?;
    let tag = tag.as_u64()?;
    let conn = conn.as_u64()?;
    if tag > u32::MAX as u64 || conn > u32::MAX as u64 {
        return None;
    }
    Some(SendSpec {
        dst: node_id(dst.as_u64()?)?,
        payload_bytes: payload.as_u64()?,
        tag: tag as u32,
        conn: conn as u32,
    })
}

fn event_to_json(ev: &MachineEvent) -> Json {
    match ev {
        MachineEvent::ProcRun { node } => Json::obj().set("t", "proc_run").set("node", *node),
        MachineEvent::Arrival { wire, corrupted } => Json::obj()
            .set("t", "arrival")
            .set("wire", wire_to_json(wire))
            .set("corrupted", *corrupted),
        MachineEvent::AckArrival { src, msg } => Json::obj()
            .set("t", "ack_arrival")
            .set("src", src.0)
            .set("msg", msg.0),
        MachineEvent::AckTimeout { src, msg, attempt } => Json::obj()
            .set("t", "ack_timeout")
            .set("src", src.0)
            .set("msg", msg.0)
            .set("attempt", *attempt),
        MachineEvent::DepositDone { dst, frees_buffer } => Json::obj()
            .set("t", "deposit_done")
            .set("dst", *dst)
            .set("frees_buffer", *frees_buffer),
        MachineEvent::ReturnArrival { wire } => Json::obj()
            .set("t", "return_arrival")
            .set("wire", wire_to_json(wire)),
        MachineEvent::Retry { src, msg } => Json::obj()
            .set("t", "retry")
            .set("src", src.0)
            .set("msg", msg.0),
        MachineEvent::NodeCrash { node } => Json::obj().set("t", "node_crash").set("node", *node),
    }
}

fn event_from_json(v: &Json) -> Option<MachineEvent> {
    let tag = v.get("t")?.as_str()?;
    match tag {
        "proc_run" => Some(MachineEvent::ProcRun {
            node: get_u64(v, "node")? as usize,
        }),
        "arrival" => Some(MachineEvent::Arrival {
            wire: wire_from_json(v.get("wire")?)?,
            corrupted: as_bool(v.get("corrupted")?)?,
        }),
        "ack_arrival" => Some(MachineEvent::AckArrival {
            src: node_id(get_u64(v, "src")?)?,
            msg: MsgId(get_u64(v, "msg")?),
        }),
        "ack_timeout" => {
            let attempt = get_u64(v, "attempt")?;
            if attempt > u32::MAX as u64 {
                return None;
            }
            Some(MachineEvent::AckTimeout {
                src: node_id(get_u64(v, "src")?)?,
                msg: MsgId(get_u64(v, "msg")?),
                attempt: attempt as u32,
            })
        }
        "deposit_done" => Some(MachineEvent::DepositDone {
            dst: get_u64(v, "dst")? as usize,
            frees_buffer: as_bool(v.get("frees_buffer")?)?,
        }),
        "return_arrival" => Some(MachineEvent::ReturnArrival {
            wire: wire_from_json(v.get("wire")?)?,
        }),
        "retry" => Some(MachineEvent::Retry {
            src: node_id(get_u64(v, "src")?)?,
            msg: MsgId(get_u64(v, "msg")?),
        }),
        "node_crash" => Some(MachineEvent::NodeCrash {
            node: get_u64(v, "node")? as usize,
        }),
        other => {
            let _ = other;
            None
        }
    }
}

/// True if every node `ev` names — the node its handler runs on, and
/// both ends of a wire message — is one of the machine's `nodes`.
fn event_nodes_in_range(ev: &MachineEvent, nodes: usize) -> bool {
    let wire_ok = |w: &WireMsg| w.src.index() < nodes && w.dst.index() < nodes;
    match ev {
        MachineEvent::Arrival { wire, .. } | MachineEvent::ReturnArrival { wire } => wire_ok(wire),
        MachineEvent::ProcRun { .. }
        | MachineEvent::AckArrival { .. }
        | MachineEvent::AckTimeout { .. }
        | MachineEvent::DepositDone { .. }
        | MachineEvent::Retry { .. }
        | MachineEvent::NodeCrash { .. } => ev.node_of() < nodes,
    }
}

fn violation_to_json(v: &Violation) -> Json {
    let base = Json::obj().set("at", v.at.as_ns());
    match v.kind {
        ProtocolViolation::SendStepWithoutCurrentSend { node } => {
            base.set("kind", "send_step").set("node", node.0)
        }
        ProtocolViolation::ResendWithoutPending { node } => {
            base.set("kind", "resend").set("node", node.0)
        }
        ProtocolViolation::DrainWithoutReady { node } => {
            base.set("kind", "drain").set("node", node.0)
        }
        ProtocolViolation::AckForUnknownFragment { node, msg } => base
            .set("kind", "unknown_ack")
            .set("node", node.0)
            .set("msg", msg.0),
        ProtocolViolation::ReturnForUnknownFragment { node, msg } => base
            .set("kind", "unknown_return")
            .set("node", node.0)
            .set("msg", msg.0),
        ProtocolViolation::RetryForUnknownFragment { node, msg } => base
            .set("kind", "unknown_retry")
            .set("node", node.0)
            .set("msg", msg.0),
        ProtocolViolation::EventScheduledInPast { at, now } => base
            .set("kind", "past_schedule")
            .set("sched_at", at.as_ns())
            .set("sched_now", now.as_ns()),
        ProtocolViolation::RetryCapExhausted {
            node,
            msg,
            attempts,
        } => base
            .set("kind", "retry_cap")
            .set("node", node.0)
            .set("msg", msg.0)
            .set("attempts", attempts),
    }
}

fn violation_from_json(v: &Json) -> Option<Violation> {
    let at = Time::from_ns(get_u64(v, "at")?);
    let node = || node_id(get_u64(v, "node")?);
    let msg = || Some(MsgId(get_u64(v, "msg")?));
    let kind = match v.get("kind")?.as_str()? {
        "send_step" => ProtocolViolation::SendStepWithoutCurrentSend { node: node()? },
        "resend" => ProtocolViolation::ResendWithoutPending { node: node()? },
        "drain" => ProtocolViolation::DrainWithoutReady { node: node()? },
        "unknown_ack" => ProtocolViolation::AckForUnknownFragment {
            node: node()?,
            msg: msg()?,
        },
        "unknown_return" => ProtocolViolation::ReturnForUnknownFragment {
            node: node()?,
            msg: msg()?,
        },
        "unknown_retry" => ProtocolViolation::RetryForUnknownFragment {
            node: node()?,
            msg: msg()?,
        },
        "past_schedule" => ProtocolViolation::EventScheduledInPast {
            at: Time::from_ns(get_u64(v, "sched_at")?),
            now: Time::from_ns(get_u64(v, "sched_now")?),
        },
        "retry_cap" => {
            let attempts = get_u64(v, "attempts")?;
            if attempts > u32::MAX as u64 {
                return None;
            }
            ProtocolViolation::RetryCapExhausted {
                node: node()?,
                msg: msg()?,
                attempts: attempts as u32,
            }
        }
        other => {
            let _ = other;
            return None;
        }
    };
    Some(Violation { at, kind })
}

fn send_in_progress_to_json(s: &SendInProgress) -> Json {
    Json::obj()
        .set("spec", spec_to_json(&s.spec))
        .set("transfer_id", s.transfer_id)
        .set(
            "frags",
            Json::Arr(s.frags.iter().map(frag_to_json).collect()),
        )
        .set("next", s.next)
        .set("checked_space", s.checked_space)
}

fn send_in_progress_from_json(v: &Json) -> Option<SendInProgress> {
    let frags = v
        .get("frags")?
        .as_arr()?
        .iter()
        .map(frag_from_json)
        .collect::<Option<Vec<_>>>()?;
    let next = get_u64(v, "next")? as usize;
    if next > frags.len() {
        return None;
    }
    Some(SendInProgress {
        spec: spec_from_json(v.get("spec")?)?,
        transfer_id: get_u64(v, "transfer_id")?,
        frags,
        next,
        checked_space: as_bool(v.get("checked_space")?)?,
    })
}

fn counter_from(v: u64) -> Counter {
    let mut c = Counter::new();
    c.add(v);
    c
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
    let entries = sim.drain_entries();
    let events: Vec<Json> = entries
        .iter()
        .map(|(at, seq, ev)| {
            Json::Arr(vec![
                Json::from(at.as_ns()),
                Json::from(*seq),
                event_to_json(ev),
            ])
        })
        .collect();
    let sim_json = Json::obj()
        .set("now", sim.now().as_ns())
        .set("seq", sim.next_seq())
        .set("fired", sim.events_fired())
        .set("events", Json::Arr(events));
    // `drain_entries` is destructive: put the queue back before any
    // fallible per-node work below can bail out.
    sim.restore_entries(entries);

    let mut nodes = Vec::with_capacity(machine.nodes.len());
    for n in &machine.nodes {
        let process = n
            .process
            .snapshot()
            .ok_or(SnapshotError::UnsupportedWorkload { node: n.id.0 })?;
        let model = n.ni.model.snapshot();
        let hw = Json::obj()
            .set("bus", n.hw.bus.snapshot())
            .set("cache", n.hw.cache.snapshot())
            .set("main_mem", n.hw.main_mem.snapshot())
            .set("ni_mem", n.hw.ni_mem.snapshot())
            .set("egress", n.hw.egress.snapshot())
            .set("ingress", n.hw.ingress.snapshot());
        let ni = Json::obj()
            .set("fc", n.ni.fc.snapshot())
            .set("model", model)
            .set(
                "rx_ready",
                Json::Arr(n.ni.rx_ready.iter().map(rx_to_json).collect()),
            )
            .set(
                "outstanding",
                Json::Arr(
                    n.ni.outstanding
                        .iter()
                        .map(|(id, o)| Json::Arr(vec![Json::from(id.0), outstanding_to_json(o)]))
                        .collect(),
                ),
            )
            .set(
                "stats",
                Json::obj()
                    .set("fragments_sent", n.ni.stats.fragments_sent.get())
                    .set("fragments_received", n.ni.stats.fragments_received.get())
                    .set("payload_bytes_sent", n.ni.stats.payload_bytes_sent.get()),
            )
            .set("rel_tx", n.ni.rel_tx.snapshot())
            .set("rel_rx", n.ni.rel_rx.snapshot())
            .set(
                "rel_stats",
                Json::obj()
                    .set("retransmits", n.ni.rel_stats.retransmits)
                    .set("dup_discards", n.ni.rel_stats.dup_discards)
                    .set("corrupt_discards", n.ni.rel_stats.corrupt_discards)
                    .set("gave_up", n.ni.rel_stats.gave_up)
                    .set("crash_lost", n.ni.rel_stats.crash_lost),
            );
        let proc = Json::obj()
            .set(
                "phase",
                match n.proc.phase {
                    ProcPhase::Busy => "busy",
                    ProcPhase::Idle => "idle",
                    ProcPhase::BlockedSend => "blocked-send",
                },
            )
            .set("busy_until", n.proc.busy_until.as_ns())
            .set("program_done", n.proc.program_done)
            .set(
                "current_send",
                match &n.proc.current_send {
                    Some(s) => send_in_progress_to_json(s),
                    None => Json::Null,
                },
            )
            .set(
                "queued_sends",
                Json::Arr(n.proc.queued_sends.iter().map(spec_to_json).collect()),
            )
            .set(
                "pending_resends",
                Json::Arr(n.proc.pending_resends.iter().map(wire_to_json).collect()),
            )
            .set("wake_pending", n.proc.wake_pending)
            .set("app_messages_handled", n.proc.app_messages_handled);
        let ledger = Json::obj()
            .set(
                "totals",
                Json::Arr(
                    n.ledger
                        .totals()
                        .iter()
                        .map(|d| Json::from(d.as_ns()))
                        .collect(),
                ),
            )
            .set("stamp", n.ledger.stamp().as_ns());
        nodes.push(
            Json::obj()
                .set("hw", hw)
                .set("ni", ni)
                .set("proc", proc)
                .set("ledger", ledger)
                .set("process", process)
                .set("next_msg_id", n.next_msg_id)
                .set("next_transfer_id", n.next_transfer_id)
                .set(
                    "assembling",
                    Json::Arr(
                        n.assembling
                            .iter()
                            .map(|(&(src, transfer), &count)| {
                                Json::Arr(vec![
                                    Json::from(src),
                                    Json::from(transfer),
                                    Json::from(count),
                                ])
                            })
                            .collect(),
                    ),
                ),
        );
    }

    let g = &machine.g;
    let mut mach = Json::obj()
        .set("msg_size_hist", g.msg_size_hist.to_json())
        .set(
            "transfer_started",
            Json::Arr(
                g.transfer_started
                    .iter()
                    .map(|(&id, &at)| Json::Arr(vec![Json::from(id), Json::from(at.as_ns())]))
                    .collect(),
            ),
        )
        .set("app_messages", g.app_messages)
        .set("msg_latency", g.msg_latency.to_json())
        .set("fabric", g.fabric.snapshot())
        .set(
            "violations",
            Json::Arr(g.violations.iter().map(violation_to_json).collect()),
        )
        .set("progress", g.progress)
        .set("nodes", Json::Arr(nodes));
    if let Some(plan) = &g.fault {
        mach = mach.set("fault", plan.snapshot());
    }
    if let Some(mm) = &g.metrics {
        mach = mach.set(
            "metrics",
            Json::obj()
                .set("cycles", mm.cycles.to_json())
                .set("msg_rtt", mm.msg_rtt.to_json())
                .set("frag_queue", mm.frag_queue.to_json())
                .set("rel_cycles", mm.rel.cycles.to_json()),
        );
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
/// [`Process::restore`]. The returned pair is ready for
/// `run_watched` — do **not** call [`Machine::start`] on it (the
/// scheduler already holds the pending events).
pub fn restore(
    cfg: MachineConfig,
    factory: impl FnMut(NodeId) -> Box<dyn Process>,
    v: &Json,
) -> Result<(Machine, MachineSim), SnapshotError> {
    let version = get_u64(v, "version").ok_or_else(|| mal("missing version"))?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Version { found: version });
    }
    let expected = config_fingerprint(&cfg);
    let found = v
        .get("config_fingerprint")
        .and_then(Json::as_str)
        .and_then(u64_from_hex)
        .ok_or_else(|| mal("missing config fingerprint"))?;
    if found != expected {
        return Err(SnapshotError::ConfigMismatch { expected, found });
    }
    if cfg.trace || cfg.metrics.trace {
        return Err(SnapshotError::UnsupportedTrace);
    }
    let geo = BlockGeometry::new(cfg.cache.block_bytes);
    let mut machine = Machine::new(cfg, factory);

    let m = v.get("machine").ok_or_else(|| mal("missing machine"))?;
    machine.g.msg_size_hist = m
        .get("msg_size_hist")
        .and_then(Histogram::from_json)
        .ok_or_else(|| mal("msg_size_hist"))?;
    let mut transfer_started = BTreeMap::new();
    for entry in m
        .get("transfer_started")
        .and_then(Json::as_arr)
        .ok_or_else(|| mal("transfer_started"))?
    {
        let [id, at] = entry
            .as_arr()
            .and_then(|a| <&[Json; 2]>::try_from(a).ok())
            .ok_or_else(|| mal("transfer_started entry"))?;
        let (Some(id), Some(at)) = (id.as_u64(), at.as_u64()) else {
            return Err(mal("transfer_started entry"));
        };
        transfer_started.insert(id, Time::from_ns(at));
    }
    machine.g.transfer_started = transfer_started;
    machine.g.app_messages = get_u64(m, "app_messages").ok_or_else(|| mal("app_messages"))?;
    machine.g.msg_latency = m
        .get("msg_latency")
        .and_then(Summary::from_json)
        .ok_or_else(|| mal("msg_latency"))?;
    if !machine
        .g
        .fabric
        .restore(m.get("fabric").ok_or_else(|| mal("fabric"))?)
    {
        return Err(mal("fabric"));
    }
    machine.g.violations = m
        .get("violations")
        .and_then(Json::as_arr)
        .ok_or_else(|| mal("violations"))?
        .iter()
        .map(violation_from_json)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| mal("violations"))?;
    machine.g.progress = get_u64(m, "progress").ok_or_else(|| mal("progress"))?;
    match (&mut machine.g.fault, m.get("fault")) {
        (Some(plan), Some(fj)) => {
            if !plan.restore(fj) {
                return Err(mal("fault plan"));
            }
        }
        (None, None) => {}
        _ => return Err(mal("fault presence mismatch")),
    }
    match (&mut machine.g.metrics, m.get("metrics")) {
        (Some(mm), Some(mj)) => {
            mm.cycles = mj
                .get("cycles")
                .and_then(ComponentCycles::from_json)
                .ok_or_else(|| mal("metrics cycles"))?;
            mm.msg_rtt = mj
                .get("msg_rtt")
                .and_then(Log2Hist::from_json)
                .ok_or_else(|| mal("metrics msg_rtt"))?;
            mm.frag_queue = mj
                .get("frag_queue")
                .and_then(Log2Hist::from_json)
                .ok_or_else(|| mal("metrics frag_queue"))?;
            mm.rel.cycles = mj
                .get("rel_cycles")
                .and_then(ComponentCycles::from_json)
                .ok_or_else(|| mal("metrics rel_cycles"))?;
        }
        (None, None) => {}
        _ => return Err(mal("metrics presence mismatch")),
    }

    let nodes = m
        .get("nodes")
        .and_then(Json::as_arr)
        .ok_or_else(|| mal("nodes"))?;
    if nodes.len() != machine.nodes.len() {
        return Err(mal("node count"));
    }
    for (n, nj) in machine.nodes.iter_mut().zip(nodes) {
        let nid = n.id.0;
        let hw = nj.get("hw").ok_or_else(|| mal("node hw"))?;
        let hw_ok = hw.get("bus").is_some_and(|j| n.hw.bus.restore(j))
            && hw.get("cache").is_some_and(|j| n.hw.cache.restore(j))
            && hw.get("main_mem").is_some_and(|j| n.hw.main_mem.restore(j))
            && hw.get("ni_mem").is_some_and(|j| n.hw.ni_mem.restore(j))
            && hw.get("egress").is_some_and(|j| n.hw.egress.restore(j))
            && hw.get("ingress").is_some_and(|j| n.hw.ingress.restore(j));
        if !hw_ok {
            return Err(mal("node hw"));
        }
        let ni = nj.get("ni").ok_or_else(|| mal("node ni"))?;
        if !ni.get("fc").is_some_and(|j| n.ni.fc.restore(j)) {
            return Err(mal("node flow control"));
        }
        let model = ni.get("model").ok_or_else(|| mal("node model"))?;
        if !n.ni.model.restore(model) {
            return Err(mal("node NI model"));
        }
        n.ni.rx_ready = ni
            .get("rx_ready")
            .and_then(Json::as_arr)
            .ok_or_else(|| mal("rx_ready"))?
            .iter()
            .map(|e| rx_from_json(e, geo))
            .collect::<Option<VecDeque<_>>>()
            .ok_or_else(|| mal("rx_ready"))?;
        let mut outstanding = BTreeMap::new();
        for entry in ni
            .get("outstanding")
            .and_then(Json::as_arr)
            .ok_or_else(|| mal("outstanding"))?
        {
            let [id, o] = entry
                .as_arr()
                .and_then(|a| <&[Json; 2]>::try_from(a).ok())
                .ok_or_else(|| mal("outstanding entry"))?;
            let id = id.as_u64().ok_or_else(|| mal("outstanding entry"))?;
            let o = outstanding_from_json(o).ok_or_else(|| mal("outstanding entry"))?;
            outstanding.insert(MsgId(id), o);
        }
        n.ni.outstanding = outstanding;
        let stats = ni.get("stats").ok_or_else(|| mal("ni stats"))?;
        let (Some(sent), Some(received), Some(payload)) = (
            get_u64(stats, "fragments_sent"),
            get_u64(stats, "fragments_received"),
            get_u64(stats, "payload_bytes_sent"),
        ) else {
            return Err(mal("ni stats"));
        };
        n.ni.stats.fragments_sent = counter_from(sent);
        n.ni.stats.fragments_received = counter_from(received);
        n.ni.stats.payload_bytes_sent = counter_from(payload);
        if !ni.get("rel_tx").is_some_and(|j| n.ni.rel_tx.restore(j)) {
            return Err(mal("rel_tx"));
        }
        if !ni.get("rel_rx").is_some_and(|j| n.ni.rel_rx.restore(j)) {
            return Err(mal("rel_rx"));
        }
        let rel = ni.get("rel_stats").ok_or_else(|| mal("rel_stats"))?;
        let (Some(retransmits), Some(dups), Some(corrupts), Some(gave_up), Some(crash_lost)) = (
            get_u64(rel, "retransmits"),
            get_u64(rel, "dup_discards"),
            get_u64(rel, "corrupt_discards"),
            get_u64(rel, "gave_up"),
            get_u64(rel, "crash_lost"),
        ) else {
            return Err(mal("rel_stats"));
        };
        n.ni.rel_stats.retransmits = retransmits;
        n.ni.rel_stats.dup_discards = dups;
        n.ni.rel_stats.corrupt_discards = corrupts;
        n.ni.rel_stats.gave_up = gave_up;
        n.ni.rel_stats.crash_lost = crash_lost;

        let proc = nj.get("proc").ok_or_else(|| mal("proc"))?;
        n.proc.phase = match proc.get("phase").and_then(Json::as_str) {
            Some("busy") => ProcPhase::Busy,
            Some("idle") => ProcPhase::Idle,
            Some("blocked-send") => ProcPhase::BlockedSend,
            _other => return Err(mal("proc phase")),
        };
        n.proc.busy_until =
            Time::from_ns(get_u64(proc, "busy_until").ok_or_else(|| mal("busy_until"))?);
        n.proc.program_done = proc
            .get("program_done")
            .and_then(as_bool)
            .ok_or_else(|| mal("program_done"))?;
        n.proc.current_send = match proc
            .get("current_send")
            .ok_or_else(|| mal("current_send"))?
        {
            Json::Null => None,
            s => Some(send_in_progress_from_json(s).ok_or_else(|| mal("current_send"))?),
        };
        n.proc.queued_sends = proc
            .get("queued_sends")
            .and_then(Json::as_arr)
            .ok_or_else(|| mal("queued_sends"))?
            .iter()
            .map(spec_from_json)
            .collect::<Option<VecDeque<_>>>()
            .ok_or_else(|| mal("queued_sends"))?;
        n.proc.pending_resends = proc
            .get("pending_resends")
            .and_then(Json::as_arr)
            .ok_or_else(|| mal("pending_resends"))?
            .iter()
            .map(wire_from_json)
            .collect::<Option<VecDeque<_>>>()
            .ok_or_else(|| mal("pending_resends"))?;
        n.proc.wake_pending = proc
            .get("wake_pending")
            .and_then(as_bool)
            .ok_or_else(|| mal("wake_pending"))?;
        n.proc.app_messages_handled =
            get_u64(proc, "app_messages_handled").ok_or_else(|| mal("app_messages_handled"))?;

        let ledger = nj.get("ledger").ok_or_else(|| mal("ledger"))?;
        let totals = ledger
            .get("totals")
            .and_then(Json::as_arr)
            .ok_or_else(|| mal("ledger totals"))?
            .iter()
            .map(|d| d.as_u64().map(Dur::ns))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| mal("ledger totals"))?;
        let totals: [Dur; 4] = totals.try_into().map_err(|_| mal("ledger totals"))?;
        let stamp = Time::from_ns(get_u64(ledger, "stamp").ok_or_else(|| mal("ledger stamp"))?);
        n.ledger = TimeLedger::from_parts(totals, stamp);

        let process = nj.get("process").ok_or_else(|| mal("process"))?;
        if !n.process.restore(process) {
            return Err(SnapshotError::UnsupportedWorkload { node: nid });
        }

        n.next_msg_id = get_u64(nj, "next_msg_id").ok_or_else(|| mal("next_msg_id"))?;
        n.next_transfer_id =
            get_u64(nj, "next_transfer_id").ok_or_else(|| mal("next_transfer_id"))?;
        let mut assembling = BTreeMap::new();
        for entry in nj
            .get("assembling")
            .and_then(Json::as_arr)
            .ok_or_else(|| mal("assembling"))?
        {
            let parts = entry
                .as_arr()
                .and_then(|a| <&[Json; 3]>::try_from(a).ok())
                .ok_or_else(|| mal("assembling entry"))?;
            let nums = parts
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| mal("assembling entry"))?;
            let [src, transfer, count] = nums[..] else {
                return Err(mal("assembling entry"));
            };
            if src > u32::MAX as u64 || count > u32::MAX as u64 {
                return Err(mal("assembling entry"));
            }
            assembling.insert((src as u32, transfer), count as u32);
        }
        n.assembling = assembling;
    }

    let sj = v.get("sim").ok_or_else(|| mal("missing sim"))?;
    let now = Time::from_ns(get_u64(sj, "now").ok_or_else(|| mal("sim now"))?);
    let seq = get_u64(sj, "seq").ok_or_else(|| mal("sim seq"))?;
    let fired = get_u64(sj, "fired").ok_or_else(|| mal("sim fired"))?;
    let mut entries = Vec::new();
    for e in sj
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| mal("sim events"))?
    {
        let [at, eseq, ev] = e
            .as_arr()
            .and_then(|a| <&[Json; 3]>::try_from(a).ok())
            .ok_or_else(|| mal("sim event"))?;
        let (Some(at), Some(eseq), Some(ev)) = (at.as_u64(), eseq.as_u64(), event_from_json(ev))
        else {
            return Err(mal("sim event"));
        };
        if !event_nodes_in_range(&ev, machine.nodes.len()) {
            return Err(mal("sim event node out of range"));
        }
        if Time::from_ns(at) < now {
            return Err(mal("sim event in the past"));
        }
        entries.push((Time::from_ns(at), eseq, ev));
    }
    let sim = MachineSim::from_parts(now, seq, fired, entries);
    Ok((machine, sim))
}

/// Reads and parses a snapshot file written by [`save_to_file`].
pub fn load_from_file(path: &std::path::Path) -> Result<Json, SnapshotError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
    nisim_engine::json::parse(&text).map_err(|e| mal(&format!("json: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineReport;
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
            Some(
                Json::obj()
                    .set("to_send", u64::from(self.to_send))
                    .set("echoes_left", u64::from(self.echoes_left))
                    .set("done", self.done),
            )
        }

        fn restore(&mut self, state: &Json) -> bool {
            let (Some(to_send), Some(echoes_left), Some(done)) = (
                get_u64(state, "to_send"),
                get_u64(state, "echoes_left"),
                state.get("done").and_then(as_bool),
            ) else {
                return false;
            };
            if to_send > u32::MAX as u64 || echoes_left > u32::MAX as u64 {
                return false;
            }
            self.to_send = to_send as u32;
            self.echoes_left = echoes_left as u32;
            self.done = done;
            true
        }
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
        let status = sim.run_watched(
            machine,
            Time::from_ns(10_000_000_000),
            500_000_000,
            window,
            |m| m.g.progress,
        );
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
            sim.run_watched(&mut m, Time::from_ns(10_000_000_000), cut, window, |x| {
                x.g.progress
            });
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
            sim.run_watched(&mut m, Time::from_ns(10_000_000_000), cut, window, |x| {
                x.g.progress
            });
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
        sim.run_watched(&mut m, Time::from_ns(10_000_000_000), 30, window, |x| {
            x.g.progress
        });
        let snap = save(&m, &mut sim).expect("snapshot");
        let (mut resumed, mut rsim) = restore(cfg(), snap_factory(4, 200), &snap).expect("restore");
        let resumed_report = run_to_end(&mut resumed, &mut rsim);
        let rb = resumed_report.breakdown.as_ref().expect("breakdown");
        assert_eq!(gb.to_json().to_compact(), rb.to_json().to_compact());
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
