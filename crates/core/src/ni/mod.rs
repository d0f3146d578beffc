//! The memory-bus network interface designs (§4, Table 2).
//!
//! Each design implements [`NiModel`]: four timing paths (send, deposit,
//! drain, detection) plus its buffering policy. The paths are built from
//! the coherent bus primitives of [`crate::node::NodeHw`] — so the
//! designs differ exactly along the paper's five taxonomy parameters:
//!
//! | model | module | abstracts |
//! |---|---|---|
//! | `NI_2w` | [`cm5`] | TMC CM-5 (uncached word FIFO window) |
//! | `NI_64w+Udma` | [`udma`] | Princeton user-level DMA |
//! | `NI_16w+Blkbuf` | [`ap3000`] | Fujitsu AP3000 (block load/store) |
//! | `CNI_0Q_m` | [`startjr`] | MIT StarT-JR (memory-homed queues) |
//! | `(NI_16w+Blkbuf)_S(CNI_0Q_m)_R` | [`memchannel`] | DEC Memory Channel |
//! | `CNI_512Q` | [`cni512q`] | Wisconsin CNI without a cache |
//! | `CNI_32Q_m` | [`cni32qm`] | Wisconsin CNI with a cache |
//!
//! Three modern design points extend the taxonomy past 1998 hardware:
//!
//! | model | module | abstracts |
//! |---|---|---|
//! | `RDMA_QP` | [`rdma_qp`] | InfiniBand-style doorbell + queue pairs |
//! | `URMA` | [`urma`] | connectionless NI, zero per-pair state |
//! | `SGDMA` | [`sgdma`] | descriptor-driven scatter-gather DMA engine |
//!
//! Every design, including the §6 variants and the coalescing
//! extension, has one registry row, [`NiKind::spec`]: its key, name,
//! class, NI memory and constructor. Every NI list and NI fact elsewhere
//! derives from those rows.

pub mod ap3000;
pub mod cm5;
pub mod cni32qm;
pub mod cni512q;
pub mod coalescing;
pub mod coherent;
pub mod memchannel;
pub mod rdma_qp;
pub mod sgdma;
pub mod startjr;
pub mod udma;
pub mod urma;

use std::collections::VecDeque;

use nisim_engine::codec::{self, Codec, DecodeError, State};
use nisim_engine::stats::Counter;
use nisim_engine::{Dur, Json, Time};
use nisim_mem::{BlockAddr, MemoryKind};
use nisim_net::{
    BufferCount, FlowControlEndpoint, Fragment, MsgId, NodeId, ReceiverDedup, RelStats,
    SenderReliability, SeqNo,
};

use crate::config::MachineConfig;
use crate::costs::CostModel;
use crate::id_window::IdWindow;
use crate::node::NodeHw;
use crate::taxonomy::NiDescriptor;

/// The NI designs evaluated in the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NiKind {
    /// `NI_2w`, CM-5-like: uncached word accesses to a 2-word FIFO window.
    Cm5,
    /// The single-cycle `NI_2w` of §6.3: the same design with NI registers
    /// reachable in one processor cycle (approximating a
    /// processor-register-mapped NI).
    Cm5SingleCycle,
    /// `NI_2w+Coal` (extension): CM-5-like with a coalescing store buffer
    /// — the third §2.1 block-transfer mechanism, which the paper
    /// describes but does not evaluate.
    Cm5Coalescing,
    /// `NI_64w+Udma`, Princeton UDMA-based.
    Udma,
    /// `NI_16w+Blkbuf`, Fujitsu AP3000-like block buffer NI.
    Ap3000,
    /// `CNI_0Q_m`, MIT StarT-JR-like: coherent queues homed in memory.
    StartJr,
    /// `(NI_16w+Blkbuf)_S(CNI_0Q_m)_R`, DEC Memory Channel-like hybrid.
    MemoryChannel,
    /// `CNI_512Q`: coherent NI, queues in 512 blocks of NI DRAM.
    Cni512Q,
    /// `CNI_32Q_m`: coherent NI with a 32-block cache per queue, homed in
    /// main memory.
    Cni32Qm,
    /// `CNI_32Q_m`+Throttle: the send-throttled variant of Table 5.
    Cni32QmThrottle,
    /// `RDMA_QP` (extension): doorbell-rung send/recv queue pairs with
    /// per-connection NI state held in a bounded LRU QP-state cache;
    /// eager path for small payloads, rendezvous above the crossover.
    RdmaQp,
    /// `URMA` (extension): connectionless NI with zero per-pair state,
    /// paying a per-message translation/match cost instead.
    Urma,
    /// `SGDMA` (extension): scatter-gather DMA engine driven by
    /// strided/indexed transfer descriptors.
    Sgdma,
}

/// Where a design sits relative to the paper's Table 2. Every NI list
/// the experiments iterate ([`NiKind::TABLE2`], [`NiKind::MODERN`], the
/// Figure 3a FIFO group, ...) is a class filter over [`NiKind::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NiClass {
    /// A FIFO-based Table 2 design (the Figure 3a group).
    Fifo,
    /// A coherent Table 2 design (the Figure 3b group).
    Coherent,
    /// A variant of a Table 2 design the paper evaluates in §6
    /// (single-cycle `NI_2w`, `CNI_32Q_m`+Throttle).
    PaperVariant,
    /// A mechanism the paper describes but does not evaluate.
    Extension,
    /// A post-1998 design point.
    Modern,
}

/// One NI design's registry row: everything the simulator knows about
/// the design outside its model file.
#[derive(Clone, Copy)]
pub struct NiSpec {
    /// Short machine-readable key (the CLI's spelling), stable across
    /// releases — sweep records and goldens are keyed on it.
    pub key: &'static str,
    /// The paper's informal name ("CM-5-like NI", ...).
    pub name: &'static str,
    /// The design's Table 2 class.
    pub class: NiClass,
    /// The node's dedicated NI memory: SRAM, or DRAM-class for the
    /// 512-block `CNI_512Q` queues (Table 3 footnote).
    pub ni_memory: MemoryKind,
    /// Builds one node's model.
    pub build: fn(&MachineConfig) -> Box<dyn NiModel>,
}

impl NiKind {
    /// Every design, in declaration order. Adding a design means a
    /// variant, an entry here and a [`NiKind::spec`] row.
    pub const ALL: [NiKind; 13] = [
        NiKind::Cm5,
        NiKind::Cm5SingleCycle,
        NiKind::Cm5Coalescing,
        NiKind::Udma,
        NiKind::Ap3000,
        NiKind::StartJr,
        NiKind::MemoryChannel,
        NiKind::Cni512Q,
        NiKind::Cni32Qm,
        NiKind::Cni32QmThrottle,
        NiKind::RdmaQp,
        NiKind::Urma,
        NiKind::Sgdma,
    ];

    /// The seven NIs of Table 2, in the paper's row order.
    pub const TABLE2: [NiKind; 7] = NiKind::of_classes(&[NiClass::Fifo, NiClass::Coherent]);

    /// The three post-paper design points, in sweep order.
    pub const MODERN: [NiKind; 3] = NiKind::of_classes(&[NiClass::Modern]);

    /// The design's registry row.
    pub const fn spec(self) -> NiSpec {
        use MemoryKind::{NiDram, NiSram};
        use NiClass::{Coherent, Extension, Fifo, Modern, PaperVariant};
        match self {
            NiKind::Cm5 => NiSpec {
                key: "cm5",
                name: "CM-5-like NI",
                class: Fifo,
                ni_memory: NiSram,
                build: |_| Box::new(cm5::Cm5Ni::new(false)),
            },
            NiKind::Cm5SingleCycle => NiSpec {
                key: "cm5-single-cycle",
                name: "single-cycle NI_2w",
                class: PaperVariant,
                ni_memory: NiSram,
                build: |_| Box::new(cm5::Cm5Ni::new(true)),
            },
            NiKind::Cm5Coalescing => NiSpec {
                key: "cm5-coalescing",
                name: "CM-5-like + coalescing",
                class: Extension,
                ni_memory: NiSram,
                build: |_| Box::new(coalescing::CoalescingNi::new()),
            },
            NiKind::Udma => NiSpec {
                key: "udma",
                name: "Udma-based NI",
                class: Fifo,
                ni_memory: NiSram,
                build: |_| Box::new(udma::UdmaNi::new()),
            },
            NiKind::Ap3000 => NiSpec {
                key: "ap3000",
                name: "AP3000-like NI",
                class: Fifo,
                ni_memory: NiSram,
                build: |_| Box::new(ap3000::Ap3000Ni::new()),
            },
            NiKind::StartJr => NiSpec {
                key: "startjr",
                name: "Start-JR-like NI",
                class: Coherent,
                ni_memory: NiSram,
                build: |cfg| Box::new(startjr::StartJrNi::new(cfg)),
            },
            NiKind::MemoryChannel => NiSpec {
                key: "memchannel",
                name: "Memory Channel-like NI",
                class: Coherent,
                ni_memory: NiSram,
                build: |cfg| Box::new(memchannel::MemoryChannelNi::new(cfg)),
            },
            NiKind::Cni512Q => NiSpec {
                key: "cni512q",
                name: "CNI_512Q",
                class: Coherent,
                ni_memory: NiDram,
                build: |cfg| Box::new(cni512q::Cni512QNi::new(cfg)),
            },
            NiKind::Cni32Qm => NiSpec {
                key: "cni32qm",
                name: "CNI_32Qm",
                class: Coherent,
                ni_memory: NiSram,
                build: |cfg| Box::new(cni32qm::Cni32QmNi::new(cfg, None)),
            },
            NiKind::Cni32QmThrottle => NiSpec {
                key: "cni32qm-throttle",
                name: "CNI_32Qm+Throttle",
                class: PaperVariant,
                ni_memory: NiSram,
                build: |cfg| Box::new(cni32qm::Cni32QmNi::new(cfg, Some(cfg.costs.throttle_delay))),
            },
            NiKind::RdmaQp => NiSpec {
                key: "rdma-qp",
                name: "RDMA queue-pair NI",
                class: Modern,
                ni_memory: NiSram,
                build: |cfg| Box::new(rdma_qp::RdmaQpNi::new(cfg)),
            },
            NiKind::Urma => NiSpec {
                key: "urma",
                name: "connectionless URMA NI",
                class: Modern,
                ni_memory: NiSram,
                build: |cfg| Box::new(urma::UrmaNi::new(cfg)),
            },
            NiKind::Sgdma => NiSpec {
                key: "sgdma",
                name: "scatter-gather DMA NI",
                class: Modern,
                ni_memory: NiSram,
                build: |cfg| Box::new(sgdma::SgdmaNi::new(cfg)),
            },
        }
    }

    /// The paper's informal name ("CM-5-like NI", ...).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The CLI key, which sweep records and goldens are keyed on.
    pub fn key(self) -> &'static str {
        self.spec().key
    }

    /// Parses a [`key`](NiKind::key) back into a kind.
    pub fn from_key(key: &str) -> Option<NiKind> {
        NiKind::ALL.into_iter().find(|k| k.key() == key)
    }

    /// The designs in any of `classes`, in declaration order. `N` must
    /// be exactly their count; a `const` that gets it wrong fails to
    /// compile.
    pub const fn of_classes<const N: usize>(classes: &[NiClass]) -> [NiKind; N] {
        let mut out = [NiKind::Cm5; N];
        let mut n = 0;
        let mut i = 0;
        while i < NiKind::ALL.len() {
            // `==` is not `const`: compare the class discriminants.
            let class = NiKind::ALL[i].spec().class as u8;
            let mut c = 0;
            while c < classes.len() {
                if classes[c] as u8 == class {
                    assert!(n < N, "more designs in these classes than N");
                    out[n] = NiKind::ALL[i];
                    n += 1;
                }
                c += 1;
            }
            i += 1;
        }
        assert!(n == N, "fewer designs in these classes than N");
        out
    }
}

impl std::fmt::Display for NiKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a deposited fragment physically lives, and therefore how the
/// processor drains it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepositLoc {
    /// The NI's FIFO window (CM-5, AP3000, UDMA): drained by the
    /// processor via uncached or block accesses.
    NiFifo,
    /// A memory-homed coherent queue: drained via cache misses to main
    /// memory.
    Memory {
        /// First block of the queue slot.
        base: BlockAddr,
        /// Blocks occupied.
        blocks: u64,
    },
    /// A queue homed on the NI (`CNI_512Q`): drained via cache misses
    /// served by the NI.
    NiQueue {
        /// First block of the queue slot.
        base: BlockAddr,
        /// Blocks occupied.
        blocks: u64,
    },
    /// The NI's receive cache (`CNI_32Q_m`): drained via fast NI-to-cache
    /// transfers.
    NiCache {
        /// First block of the queue slot.
        base: BlockAddr,
        /// Blocks occupied.
        blocks: u64,
    },
}

/// `["fifo"]`, or `[kind, base, blocks]` with kind `mem`, `niq` or `nic`.
impl Codec for DepositLoc {
    fn encode(&self) -> Json {
        let (tag, slot) = match *self {
            DepositLoc::NiFifo => return Json::Arr(vec![Json::from("fifo")]),
            DepositLoc::Memory { base, blocks } => ("mem", (base, blocks)),
            DepositLoc::NiQueue { base, blocks } => ("niq", (base, blocks)),
            DepositLoc::NiCache { base, blocks } => ("nic", (base, blocks)),
        };
        Json::Arr(vec![Json::from(tag), slot.0.encode(), slot.1.encode()])
    }
    fn decode(v: &Json) -> Result<DepositLoc, DecodeError> {
        let items = codec::array(v)?;
        let slot = || -> Result<(BlockAddr, u64), DecodeError> {
            let items = codec::array_of(v, 3)?;
            let base = BlockAddr::decode(&items[1]).map_err(|e| e.in_index(1))?;
            Ok((base, u64::decode(&items[2]).map_err(|e| e.in_index(2))?))
        };
        match items.first().and_then(Json::as_str) {
            Some("fifo") if items.len() == 1 => Ok(DepositLoc::NiFifo),
            Some("mem") => slot().map(|(base, blocks)| DepositLoc::Memory { base, blocks }),
            Some("niq") => slot().map(|(base, blocks)| DepositLoc::NiQueue { base, blocks }),
            Some("nic") => slot().map(|(base, blocks)| DepositLoc::NiCache { base, blocks }),
            _ => Err(DecodeError::new("unknown deposit location")),
        }
    }
}

impl DepositLoc {
    /// The queue slot the fragment occupies, if it has one.
    pub fn slot(&self) -> Option<(BlockAddr, u64)> {
        match *self {
            DepositLoc::NiFifo => None,
            DepositLoc::Memory { base, blocks }
            | DepositLoc::NiQueue { base, blocks }
            | DepositLoc::NiCache { base, blocks } => Some((base, blocks)),
        }
    }
}

/// Result of a send-path computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendPath {
    /// When the processor is free again.
    pub proc_release: Time,
    /// When the NI has the complete message and can start injecting.
    pub inject_ready: Time,
}

/// Result of a deposit-path computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepositPath {
    /// When the fragment is fully buffered and consumable.
    pub done: Time,
    /// Where it was put.
    pub loc: DepositLoc,
}

/// Timing and buffering model of one NI design.
///
/// All methods take the node's shared hardware so the paths can reserve
/// the bus and mutate cache state; they return completion times.
pub trait NiModel {
    /// The Table 2 classification of this design.
    fn descriptor(&self) -> NiDescriptor;

    /// Presents the logical connection and application tag of the
    /// fragment the *next* [`NiModel::send_fragment`] or
    /// [`NiModel::deposit_fragment`] call concerns. Connection-aware
    /// designs (the RDMA queue-pair NI keys its QP-state cache on `conn`;
    /// the scatter-gather engine decodes gather descriptors from `tag`)
    /// latch these; everything else ignores them (the default no-op).
    fn stage(&mut self, conn: u32, tag: u32) {
        let _ = (conn, tag);
    }

    /// Cost for the sending processor to verify there is send space
    /// (an uncached status read for FIFO NIs; a cached check for CNIs).
    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time;

    /// Processor-side send of one fragment (`payload_bytes` of user data,
    /// `wire_bytes` with header). The flow-control buffer is already
    /// held.
    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath;

    /// True if the NI can accept an incoming fragment of `wire_bytes`
    /// right now (beyond flow-control buffers — e.g. `CNI_512Q`'s queue
    /// capacity).
    fn has_room(&self, wire_bytes: u64) -> bool {
        let _ = wire_bytes;
        true
    }

    /// NI-side deposit of an accepted incoming fragment.
    fn deposit_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        payload_bytes: u64,
        wire_bytes: u64,
    ) -> DepositPath;

    /// True if the incoming flow-control buffer is released when the
    /// deposit completes (NI-managed buffering); false if it is held
    /// until the processor drains the message (processor-managed).
    fn frees_buffer_at_deposit(&self) -> bool;

    /// Cost for the processor to notice a consumable message.
    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time;

    /// Processor-side drain of one deposited fragment.
    fn drain_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        payload_bytes: u64,
        wire_bytes: u64,
        loc: &DepositLoc,
    ) -> Time;

    /// Mandatory inter-send delay (the `+Throttle` variant).
    fn throttle(&self) -> Option<Dur> {
        None
    }

    /// Warms the node state as if the NI had already been in use (e.g.
    /// coherent send-queue blocks resident in the processor cache from
    /// earlier laps), so runs measure steady-state behaviour from the
    /// first message.
    fn prewarm(&self, hw: &mut NodeHw) {
        let _ = hw;
    }

    /// Serialises the model's dynamic state (queue cursors, cache
    /// occupancy, ...) for checkpointing; stateless designs write an
    /// empty object. Implementations declare the state with
    /// [`nisim_engine::state_fields!`].
    fn snapshot(&self) -> Json;

    /// Restores state captured by [`NiModel::snapshot`] into a freshly
    /// built model (same configuration).
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch or an out-of-range value.
    fn restore(&mut self, state: &Json) -> Result<(), DecodeError>;
}

/// A fragment deposited at the receiving NI, awaiting the processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RxEntry {
    /// The fragment's wire identity (for tracing).
    pub msg_id: MsgId,
    /// Sending node.
    pub src: NodeId,
    /// Transfer this fragment belongs to.
    pub transfer_id: u64,
    /// Fragment geometry.
    pub frag: Fragment,
    /// Application tag of the transfer.
    pub tag: u32,
    /// Total payload of the whole transfer.
    pub total_payload: u64,
    /// When the deposit completes (consumable from then on).
    pub ready_at: Time,
    /// Where the fragment lives.
    pub loc: DepositLoc,
    /// True if draining must release the flow-control buffer.
    pub frees_buffer_at_drain: bool,
}

impl RxEntry {
    /// How long the deposited fragment has been sitting in NI buffering
    /// at `now` — the queueing delay the metrics layer records per drain
    /// ([`Component::NiResidency`](nisim_engine::metrics::Component) and
    /// the `frag_queue` histogram). Zero if the drain starts the moment
    /// the deposit completes.
    pub fn queueing_delay(&self, now: Time) -> Dur {
        now.saturating_since(self.ready_at)
    }
}

nisim_engine::struct_codec! {
    RxEntry {
        msg_id, src, transfer_id, frag, tag, total_payload, ready_at, loc, frees_buffer_at_drain
    }
}

/// One network message on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireMsg {
    /// Unique message identity (per fragment).
    pub id: MsgId,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Transfer this fragment belongs to.
    pub transfer_id: u64,
    /// Fragment geometry.
    pub frag: Fragment,
    /// Application tag.
    pub tag: u32,
    /// Total payload of the whole transfer.
    pub total_payload: u64,
    /// Logical connection the fragment travels on (already resolved by
    /// the sender: never 0 on the wire). Connection-aware receiving NIs
    /// key their per-connection state on it.
    pub conn: u32,
    /// End-to-end sequence number, assigned per `(src, dst)` pair when
    /// the reliability layer is enabled; `None` otherwise.
    pub seq: Option<SeqNo>,
}

impl WireMsg {
    /// Bytes on the wire (payload plus per-fragment header).
    pub fn wire_bytes(&self, header_bytes: u64) -> u64 {
        self.frag.payload_bytes + header_bytes
    }
}

// The connection is resolved by the sender, so it is never 0 on the
// wire, and a node never sends to itself (`Machine::start_send`).
nisim_engine::struct_codec! {
    WireMsg { id, src, dst, transfer_id, frag, tag, total_payload, seq, conn }
    check |w: &WireMsg| {
        codec::ensure(w.conn != 0, "connection 0 on the wire")?;
        codec::ensure(w.src != w.dst, "a node sends to itself")
    }
}

/// A sent fragment awaiting its ack (its flow-control buffer is held).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutstandingFrag {
    /// The fragment as sent (kept for returns/retries).
    pub wire: WireMsg,
    /// Current retry backoff (doubles per return, capped).
    pub backoff: Dur,
    /// Retransmission generation: incremented on every ack-timeout
    /// retransmit so stale timers (scheduled before the entry moved on)
    /// recognise themselves and fizzle.
    pub attempt: u32,
    /// True once the reliability layer has exhausted the retry cap. The
    /// entry stays outstanding — the machine can then never report
    /// quiescence, which is what surfaces the loss as a stall.
    pub gave_up: bool,
}

nisim_engine::struct_codec! { OutstandingFrag { wire, backoff, attempt, gave_up } }

/// NI-level statistics.
#[derive(Clone, Debug, Default)]
pub struct NiStats {
    /// Fragments injected (first attempts, not retries).
    pub fragments_sent: Counter,
    /// Fragments accepted and deposited.
    pub fragments_received: Counter,
    /// Payload bytes sent.
    pub payload_bytes_sent: Counter,
}

nisim_engine::struct_codec! { NiStats { fragments_sent, fragments_received, payload_bytes_sent } }

/// One node's NI: the design-specific model plus the design-independent
/// machinery (flow control endpoint, receive queue, statistics).
pub struct NiUnit {
    /// Which design this is.
    pub kind: NiKind,
    /// Return-to-sender flow control endpoint.
    pub fc: FlowControlEndpoint,
    /// The design-specific timing model.
    pub model: Box<dyn NiModel>,
    /// Deposited fragments awaiting the processor, in arrival order.
    pub rx_ready: VecDeque<RxEntry>,
    /// Sent fragments whose ack has not arrived yet, keyed by
    /// [`MsgId`]'s number.
    pub outstanding: IdWindow<OutstandingFrag>,
    /// Statistics.
    pub stats: NiStats,
    /// Sender-side sequence allocation (reliability layer).
    pub rel_tx: SenderReliability,
    /// Receiver-side duplicate suppression (reliability layer).
    pub rel_rx: ReceiverDedup,
    /// Reliability-layer counters for this node.
    pub rel_stats: RelStats,
}

impl NiUnit {
    /// Builds the NI of `cfg.ni` for one node.
    pub fn new(cfg: &MachineConfig) -> NiUnit {
        Self::with_kind(cfg, cfg.ni, cfg.flow_buffers)
    }

    /// Builds a specific NI kind (used by tests and ablations).
    pub fn with_kind(cfg: &MachineConfig, kind: NiKind, buffers: BufferCount) -> NiUnit {
        NiUnit {
            kind,
            fc: FlowControlEndpoint::new(buffers),
            model: (kind.spec().build)(cfg),
            rx_ready: VecDeque::new(),
            outstanding: IdWindow::default(),
            stats: NiStats::default(),
            rel_tx: SenderReliability::default(),
            rel_rx: ReceiverDedup::default(),
            rel_stats: RelStats::default(),
        }
    }

    /// The first consumable fragment at `now`, if any.
    pub fn peek_ready(&self, now: Time) -> Option<&RxEntry> {
        self.rx_ready.front().filter(|e| e.ready_at <= now)
    }

    /// Pops the first consumable fragment at `now`.
    pub fn pop_ready(&mut self, now: Time) -> Option<RxEntry> {
        if self.peek_ready(now).is_some() {
            self.rx_ready.pop_front()
        } else {
            None
        }
    }
}

impl State for Box<dyn NiModel> {
    fn snapshot(&self) -> Json {
        (**self).snapshot()
    }
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        (**self).restore(v)
    }
}

/// The NI's checkpoint state. Outstanding fragments are keyed by their
/// own wire id; rx_ready entries hold the flow-control buffer until the
/// drain exactly when the design does not free it at deposit.
impl State for NiUnit {
    nisim_engine::state_fields! {
        { fc, model, rx_ready, outstanding, stats, rel_tx, rel_rx, rel_stats }
        check |ni: &NiUnit| {
            let keyed = ni.outstanding.iter().all(|(id, o)| id == o.wire.id.0);
            codec::ensure(keyed, "outstanding entry not keyed by its wire id")?;
            let at_drain = !ni.model.frees_buffer_at_deposit();
            codec::ensure(
                ni.rx_ready.iter().all(|e| e.frees_buffer_at_drain == at_drain),
                "received fragment releases its buffer at the wrong point for this design",
            )
        }
    }
}

impl std::fmt::Debug for NiUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NiUnit")
            .field("kind", &self.kind)
            .field("rx_ready", &self.rx_ready.len())
            .finish_non_exhaustive()
    }
}

/// Helpers shared by the concrete models.
pub(crate) mod util {
    /// Uncached words of `word_bytes` needed for `bytes`.
    pub fn words_of(bytes: u64, word_bytes: u64) -> u64 {
        bytes.div_ceil(word_bytes)
    }

    /// 64-byte blocks needed for `bytes`.
    pub fn blocks(bytes: u64) -> u64 {
        bytes.div_ceil(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn every_kind_constructs() {
        let cfg = MachineConfig::default();
        for kind in NiKind::ALL {
            let ni = NiUnit::with_kind(&cfg, kind, BufferCount::Finite(2));
            assert_eq!(ni.kind, kind);
        }
    }

    #[test]
    fn keys_round_trip_for_every_kind() {
        for (i, kind) in NiKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in declaration order");
            assert_eq!(NiKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(NiKind::from_key("no-such-ni"), None);
    }

    #[test]
    fn modern_kinds_are_coherent_and_off_table2() {
        // Like the coherent Table 2 designs, the modern ones buffer
        // incoming messages NI-managed in plentiful host memory.
        let cfg = MachineConfig::default();
        for kind in NiKind::MODERN {
            assert_eq!(kind.spec().class, NiClass::Modern, "{kind:?}");
            let ni = NiUnit::with_kind(&cfg, kind, BufferCount::Finite(2));
            assert!(ni.model.frees_buffer_at_deposit(), "{kind:?}");
            assert!(!NiKind::TABLE2.contains(&kind), "{kind:?}");
        }
    }

    #[test]
    fn table2_order_and_coherence_split() {
        use NiClass::{Coherent, Fifo};
        let classes: Vec<NiClass> = NiKind::TABLE2.iter().map(|k| k.spec().class).collect();
        assert_eq!(
            classes,
            [Fifo, Fifo, Fifo, Coherent, Coherent, Coherent, Coherent]
        );
        assert_eq!(NiKind::TABLE2[3], NiKind::StartJr, "paper row order");
        assert_eq!(NiKind::TABLE2[4], NiKind::MemoryChannel);
    }

    #[test]
    fn util_rounding() {
        assert_eq!(util::words_of(16, 4), 4);
        assert_eq!(util::words_of(17, 4), 5);
        assert_eq!(util::words_of(16, 8), 2);
        assert_eq!(util::blocks(64), 1);
        assert_eq!(util::blocks(65), 2);
        assert_eq!(util::blocks(256), 4);
    }

    #[test]
    fn names_are_paperish() {
        assert_eq!(NiKind::Cm5.to_string(), "CM-5-like NI");
        assert_eq!(NiKind::Cni32Qm.to_string(), "CNI_32Qm");
    }

    #[test]
    fn throttle_only_on_throttled_variant() {
        let cfg = MachineConfig::default();
        let plain = NiUnit::with_kind(&cfg, NiKind::Cni32Qm, BufferCount::Finite(8));
        let throttled = NiUnit::with_kind(&cfg, NiKind::Cni32QmThrottle, BufferCount::Finite(8));
        assert!(plain.model.throttle().is_none());
        assert_eq!(throttled.model.throttle(), Some(cfg.costs.throttle_delay));
    }
}
