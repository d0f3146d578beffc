//! Per-node hardware: bus, processor cache, memories, link ports.
//!
//! [`NodeHw`] bundles one node's shared resources and provides the
//! *coherent access primitives* that both the processor model and the NI
//! models compose their data paths from. Each primitive performs the
//! required bus reservations and MOESI state changes and returns the
//! completion time.

use nisim_engine::codec::{ascending, decode_items, ensure, Codec, DecodeError, Fields, State};
use nisim_engine::{Dur, Json, Time};
use nisim_mem::{
    read_fill_state, snoop_transition, BlockAddr, Bus, Cache, MemoryDevice, MemoryKind, MoesiState,
    SnoopKind,
};
use nisim_mem::{BusGrant, BusOp};
use nisim_net::{Link, NodeId};

use crate::accounting::TimeLedger;
use crate::config::MachineConfig;
use crate::ni::{NiKind, NiUnit};
use crate::process::Process;
use crate::processor::ProcState;

/// Where a processor block-read miss is served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockSource {
    /// Main memory (120 ns) — e.g. queues homed in memory with no NI copy.
    MainMemory,
    /// The NI's memory or cache (60 ns SRAM, or 120 ns DRAM for
    /// `CNI_512Q`) supplying the block directly to the processor cache.
    Ni,
}

/// One node's shared hardware resources.
#[derive(Clone, Debug)]
pub struct NodeHw {
    /// The snooping memory bus.
    pub bus: Bus,
    /// The processor cache (1 MB direct-mapped by default).
    pub cache: Cache,
    /// Main memory.
    pub main_mem: MemoryDevice,
    /// Dedicated NI memory (SRAM, or DRAM for `CNI_512Q`).
    pub ni_mem: MemoryDevice,
    /// Network injection port.
    pub egress: Link,
    /// Network ejection port.
    pub ingress: Link,
    /// Latency for a snooping cache to supply a block cache-to-cache.
    pub c2c_latency: Dur,
    /// CPU clock period.
    pub cpu_period: Dur,
}

impl NodeHw {
    /// Builds the hardware for one node of `cfg`'s machine, with the NI
    /// memory of `ni`'s registry row (DRAM-class memory runs at
    /// main-memory speed).
    pub fn new(cfg: &MachineConfig, ni: NiKind) -> NodeHw {
        let kind = ni.spec().ni_memory;
        let latency = if kind == MemoryKind::NiDram {
            cfg.main_memory_latency
        } else {
            cfg.ni_memory_latency
        };
        let mut bus = Bus::new(cfg.bus);
        let mut cache = Cache::new(cfg.cache);
        if cfg.metrics.any() {
            bus.enable_metrics();
            cache.enable_metrics();
        }
        NodeHw {
            bus,
            cache,
            main_mem: MemoryDevice::with_latency(MemoryKind::Main, cfg.main_memory_latency),
            ni_mem: MemoryDevice::with_latency(kind, latency),
            egress: Link::new(),
            ingress: Link::new(),
            c2c_latency: cfg.cache_to_cache_latency,
            cpu_period: cfg.cpu_period,
        }
    }

    /// The hardware every node of `cfg`'s machine starts with:
    /// [`NodeHw::new`] for `cfg.ni`, warmed by that NI's
    /// [`NiModel::prewarm`](crate::ni::NiModel::prewarm), which depends
    /// on the configuration alone. `Machine::new` clones it into every
    /// node, and checkpoints store each node's cache as the lines that
    /// differ from it ([`NodeHw::snapshot`]).
    pub fn fresh(cfg: &MachineConfig) -> NodeHw {
        let mut hw = NodeHw::new(cfg, cfg.ni);
        (cfg.ni.spec().build)(cfg).prewarm(&mut hw);
        hw
    }

    /// Duration of `cycles` CPU cycles.
    pub fn cycles(&self, cycles: u64) -> Dur {
        Dur::cycles(cycles, self.cpu_period.as_ns())
    }

    /// Uncached read of ≤ 8 bytes from a device with `responder` latency
    /// (e.g. an NI status register). The processor stalls for the whole
    /// round trip.
    pub fn uncached_read(&mut self, now: Time, responder: Dur) -> Time {
        let g = self.bus.acquire(now, BusOp::WordRead);
        g.end + responder
    }

    /// Uncached (posted) write of ≤ 8 bytes; the processor is released
    /// when the bus transaction completes.
    pub fn uncached_write(&mut self, now: Time) -> Time {
        self.bus.acquire(now, BusOp::WordWrite).end
    }

    /// Processor write to a cacheable `block` (composing a message in a
    /// coherent queue). Applies MOESI: silent on M/E, BusUpgr on S/O,
    /// BusRdX + `miss_source` fill on I. Returns the completion time.
    pub fn proc_write_block(
        &mut self,
        now: Time,
        block: BlockAddr,
        miss_source: BlockSource,
    ) -> Time {
        match self.cache.lookup(block) {
            MoesiState::Modified => now,
            MoesiState::Exclusive => {
                self.cache.set_state(block, MoesiState::Modified);
                now
            }
            MoesiState::Shared | MoesiState::Owned => {
                let g = self.bus.acquire(now, BusOp::Upgrade);
                self.cache.set_state(block, MoesiState::Modified);
                self.cache.charge_upgrade_stall(g.end.saturating_since(now));
                g.end
            }
            MoesiState::Invalid => {
                let g = self.bus.acquire(now, BusOp::BlockReadExclusive);
                let fill_latency = self.miss_latency(miss_source);
                self.cache.charge_miss_stall(fill_latency);
                let done = g.end + fill_latency;
                self.fill(block, MoesiState::Modified, done);
                done
            }
        }
    }

    /// Processor read of a cacheable `block` (draining a message from a
    /// coherent queue). Hits are free at this granularity; misses fetch
    /// from `miss_source` and install `Shared` (the supplier retains a
    /// copy) via [`read_fill_state`] semantics.
    pub fn proc_read_block(
        &mut self,
        now: Time,
        block: BlockAddr,
        miss_source: BlockSource,
        supplier_keeps_copy: bool,
    ) -> Time {
        match self.cache.lookup(block) {
            MoesiState::Modified
            | MoesiState::Owned
            | MoesiState::Exclusive
            | MoesiState::Shared => now,
            MoesiState::Invalid => {
                let g = self.bus.acquire(now, BusOp::BlockRead);
                let fill_latency = self.miss_latency(miss_source);
                self.cache.charge_miss_stall(fill_latency);
                let done = g.end + fill_latency;
                self.fill(block, read_fill_state(supplier_keeps_copy), done);
                done
            }
        }
    }

    /// The NI reads `block` over the bus (fetching a composed message
    /// block). The processor cache snoops: if it holds the freshest copy
    /// it supplies cache-to-cache (M→O per MOESI); otherwise the block
    /// comes from `home`. Returns the completion time.
    pub fn ni_read_block(&mut self, now: Time, block: BlockAddr, home: BlockSource) -> Time {
        let g = self.bus.acquire(now, BusOp::BlockRead);
        let state = self.cache.state_of(block);
        let action = snoop_transition(state, SnoopKind::Read);
        if state.is_valid() {
            self.cache.set_state(block, action.next);
        }
        let responder = if action.supply {
            self.c2c_latency
        } else {
            self.miss_latency(home)
        };
        g.end + responder
    }

    /// The NI writes a whole `block` (depositing an incoming message into
    /// a memory-homed queue). Stale processor copies are invalidated; no
    /// writeback is needed because the whole block is overwritten.
    pub fn ni_write_block(&mut self, now: Time, block: BlockAddr) -> Time {
        let g = self.bus.acquire(now, BusOp::BlockWrite);
        self.cache.invalidate(block);
        self.main_mem.record_write();
        g.end
    }

    fn miss_latency(&mut self, source: BlockSource) -> Dur {
        match source {
            BlockSource::MainMemory => {
                self.main_mem.record_read();
                self.main_mem.read_latency()
            }
            BlockSource::Ni => {
                self.ni_mem.record_read();
                self.ni_mem.read_latency()
            }
        }
    }

    fn fill(&mut self, block: BlockAddr, state: MoesiState, at: Time) {
        if let Some(ev) = self.cache.insert(block, state) {
            if ev.state.dirty() {
                // Victim writeback occupies the bus after the fill.
                let _: BusGrant = self.bus.acquire(at, BusOp::BlockWrite);
                self.main_mem.record_write();
            }
        }
    }
}

/// Checkpoint state: the cache is stored against a base.
impl NodeHw {
    /// The node's hardware state, its cache as the lines that differ from
    /// `base`'s: the [`NodeHw::fresh`] hardware of the machine's
    /// configuration, which a restore writes over.
    pub(crate) fn snapshot(&self, base: &NodeHw) -> Json {
        Json::obj()
            .set("bus", self.bus.snapshot())
            .set("cache", self.cache.snapshot(&base.cache))
            .set("main_mem", self.main_mem.snapshot())
            .set("ni_mem", self.ni_mem.snapshot())
            .set("egress", self.egress.snapshot())
            .set("ingress", self.ingress.snapshot())
    }

    /// Restores [`NodeHw::snapshot`] state into the base it was taken
    /// against.
    ///
    /// # Errors
    ///
    /// Returns the path and reason of the first invalid value.
    pub(crate) fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        f.with("bus", |j| self.bus.restore(j))?;
        f.with("cache", |j| self.cache.restore(j))?;
        f.with("main_mem", |j| self.main_mem.restore(j))?;
        f.with("ni_mem", |j| self.ni_mem.restore(j))?;
        f.with("egress", |j| self.egress.restore(j))?;
        f.with("ingress", |j| self.ingress.restore(j))?;
        f.finish()
    }
}

/// One node of the simulated machine.
pub struct Node {
    /// The node's identity.
    pub id: NodeId,
    /// Shared hardware resources.
    pub hw: NodeHw,
    /// The network interface.
    pub ni: NiUnit,
    /// Processor execution state.
    pub proc: ProcState,
    /// Execution-time accounting.
    pub ledger: TimeLedger,
    /// The workload running on this node.
    pub process: Box<dyn Process>,
    /// Node-local counter behind [`Node::alloc_msg_id`].
    pub(crate) next_msg_id: u64,
    /// Node-local counter behind [`Node::alloc_transfer_id`].
    pub(crate) next_transfer_id: u64,
    /// Fragments drained so far per incoming `(src, transfer)` — the
    /// receive-side assembly state of application messages addressed to
    /// this node. Node-local so a node's event chain (including a crash
    /// wiping its partial assemblies) touches no shared state.
    pub(crate) assembling: std::collections::BTreeMap<(u32, u64), u32>,
}

/// Per-node identifier spaces: ids carry the allocating node in the high
/// bits so every node can mint message and transfer ids without touching
/// shared state — an id depends only on the allocating node's own event
/// chain. 24 bits of node (machines top out far below that) over 40 bits
/// of local counter.
pub(crate) const ID_NODE_SHIFT: u32 = 40;

impl Node {
    /// True when this node holds no unfinished work: its program is done
    /// and idle, no deposited fragments await draining, and no sent
    /// fragments await an ack. A machine is quiescent when every node is.
    pub fn is_quiescent(&self) -> bool {
        self.proc.is_locally_quiescent()
            && self.ni.rx_ready.is_empty()
            && self.ni.outstanding.is_empty()
    }

    /// Mints the next fragment id from this node's id space.
    pub(crate) fn alloc_msg_id(&mut self) -> nisim_net::MsgId {
        let local = self.next_msg_id;
        self.next_msg_id += 1;
        nisim_net::MsgId(((self.id.0 as u64) << ID_NODE_SHIFT) | local)
    }

    /// Mints the next transfer id from this node's id space.
    pub(crate) fn alloc_transfer_id(&mut self) -> u64 {
        let local = self.next_transfer_id;
        self.next_transfer_id += 1;
        ((self.id.0 as u64) << ID_NODE_SHIFT) | local
    }

    /// The node's checkpoint state, with its process's state (taken by
    /// the caller, which reports an unsnapshotable workload) under
    /// `process` and its hardware stored against `base`, the machine's
    /// [`NodeHw::fresh`] hardware. Assembly entries are stored as
    /// `[src, transfer, count]`.
    pub(crate) fn snapshot(&self, process: Json, base: &NodeHw) -> Json {
        let assembling: Vec<(u32, u64, u32)> = (self.assembling.iter())
            .map(|(&(src, transfer), &count)| (src, transfer, count))
            .collect();
        Json::obj()
            .set("hw", self.hw.snapshot(base))
            .set("ni", self.ni.snapshot())
            .set("proc", self.proc.encode())
            .set("ledger", self.ledger.encode())
            .set("process", process)
            .set("next_msg_id", self.next_msg_id.encode())
            .set("next_transfer_id", self.next_transfer_id.encode())
            .set("assembling", assembling.encode())
    }

    /// Restores [`Node::snapshot`] state into a node built by
    /// `Machine::new`, whose hardware is the base. Every first send of a
    /// fragment mints exactly one message id, so the node's fragments-sent
    /// count equals its message allocator; ids held locally lie below
    /// their allocators (the cross-struct pass in `snapshot.rs` checks
    /// the rest).
    pub(crate) fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        f.with("hw", |j| self.hw.restore(j))?;
        f.with("ni", |j| self.ni.restore(j))?;
        self.proc = f.get("proc")?;
        self.ledger = f.get("ledger")?;
        f.with("process", |j| self.process.restore(j))?;
        self.next_msg_id = f.get("next_msg_id")?;
        self.next_transfer_id = f.get("next_transfer_id")?;
        self.assembling = f.with("assembling", |j| {
            let entries = decode_items::<(u32, u64, u32)>(j)?;
            ascending(entries.map(|e| e.map(|(src, transfer, count)| ((src, transfer), count))))
        })?;
        f.finish()?;
        ensure(
            self.ni.stats.fragments_sent.get() == self.next_msg_id,
            "fragments sent != message ids minted",
        )?;
        ensure(
            self.next_msg_id < 1 << ID_NODE_SHIFT && self.next_transfer_id < 1 << ID_NODE_SHIFT,
            "id allocator past its node's id space",
        )
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("proc", &self.proc.phase)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_mem::Addr;

    fn hw() -> NodeHw {
        NodeHw::new(&MachineConfig::default(), NiKind::Cm5)
    }

    fn blk(hw: &NodeHw, a: u64) -> BlockAddr {
        hw.cache.geometry().block_of(Addr::new(a))
    }

    #[test]
    fn cni512q_gets_dram_ni_memory() {
        let cfg = MachineConfig::default();
        let slow = NodeHw::new(&cfg, NiKind::Cni512Q);
        let fast = NodeHw::new(&cfg, NiKind::Cni32Qm);
        assert_eq!(slow.ni_mem.read_latency(), Dur::ns(120));
        assert_eq!(fast.ni_mem.read_latency(), Dur::ns(60));
    }

    #[test]
    fn uncached_read_includes_responder() {
        let mut hw = hw();
        // 12 ns bus word read + 60 ns NI memory.
        let done = hw.uncached_read(Time::ZERO, Dur::ns(60));
        assert_eq!(done, Time::from_ns(72));
    }

    #[test]
    fn uncached_write_is_posted() {
        let mut hw = hw();
        assert_eq!(hw.uncached_write(Time::ZERO), Time::from_ns(12));
    }

    #[test]
    fn proc_write_miss_then_silent_hit() {
        let mut hw = hw();
        let b = blk(&hw, 0x10000);
        // Cold miss: BusRdX (16 ns) + memory (120 ns).
        let t1 = hw.proc_write_block(Time::ZERO, b, BlockSource::MainMemory);
        assert_eq!(t1, Time::from_ns(136));
        assert_eq!(hw.cache.state_of(b), MoesiState::Modified);
        // Hit in M: free.
        let t2 = hw.proc_write_block(t1, b, BlockSource::MainMemory);
        assert_eq!(t2, t1);
    }

    #[test]
    fn proc_write_on_owned_upgrades() {
        let mut hw = hw();
        let b = blk(&hw, 0x10000);
        hw.proc_write_block(Time::ZERO, b, BlockSource::MainMemory);
        // The NI reads the block: our cache supplies and demotes M -> O.
        let t = hw.ni_read_block(Time::from_ns(200), b, BlockSource::MainMemory);
        assert_eq!(hw.cache.state_of(b), MoesiState::Owned);
        // c2c supply: 16 ns bus + 30 ns cache-to-cache.
        assert_eq!(t, Time::from_ns(200 + 16 + 30));
        // Second-lap write: BusUpgr only (8 ns).
        let t2 = hw.proc_write_block(t, b, BlockSource::MainMemory);
        assert_eq!(t2 - t, Dur::ns(8));
        assert_eq!(hw.cache.state_of(b), MoesiState::Modified);
    }

    #[test]
    fn ni_read_from_home_when_cache_cold() {
        let mut hw = hw();
        let b = blk(&hw, 0x40);
        let t = hw.ni_read_block(Time::ZERO, b, BlockSource::Ni);
        // 16 ns bus + 60 ns NI memory home.
        assert_eq!(t, Time::from_ns(76));
    }

    #[test]
    fn proc_read_miss_installs_shared_when_supplier_keeps_copy() {
        let mut hw = hw();
        let b = blk(&hw, 0x40);
        let t = hw.proc_read_block(Time::ZERO, b, BlockSource::Ni, true);
        assert_eq!(t, Time::from_ns(16 + 60));
        assert_eq!(hw.cache.state_of(b), MoesiState::Shared);
        // Subsequent read hits.
        assert_eq!(hw.proc_read_block(t, b, BlockSource::Ni, true), t);
    }

    #[test]
    fn proc_read_installs_exclusive_from_memory() {
        let mut hw = hw();
        let b = blk(&hw, 0x40);
        hw.proc_read_block(Time::ZERO, b, BlockSource::MainMemory, false);
        assert_eq!(hw.cache.state_of(b), MoesiState::Exclusive);
        assert_eq!(hw.main_mem.reads(), 1);
    }

    #[test]
    fn ni_write_invalidates_processor_copy() {
        let mut hw = hw();
        let b = blk(&hw, 0x40);
        hw.proc_read_block(Time::ZERO, b, BlockSource::MainMemory, false);
        assert!(hw.cache.contains(b));
        let t = hw.ni_write_block(Time::from_ns(300), b);
        assert!(!hw.cache.contains(b));
        assert_eq!(t, Time::from_ns(316));
        assert_eq!(hw.main_mem.writes(), 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut hw = hw();
        // Two blocks that conflict in the direct-mapped cache (1 MB apart).
        let b0 = blk(&hw, 0x0);
        let b1 = blk(&hw, 1 << 20);
        hw.proc_write_block(Time::ZERO, b0, BlockSource::MainMemory);
        let before = hw.bus.stats().count(nisim_mem::BusOp::BlockWrite);
        hw.proc_write_block(Time::from_ns(500), b1, BlockSource::MainMemory);
        let after = hw.bus.stats().count(nisim_mem::BusOp::BlockWrite);
        assert_eq!(after - before, 1, "victim writeback expected");
    }

    #[test]
    fn bus_contention_is_shared_between_proc_and_ni() {
        let mut hw = hw();
        let b0 = blk(&hw, 0x40);
        let b1 = blk(&hw, 0x80);
        let t1 = hw.proc_read_block(Time::ZERO, b0, BlockSource::MainMemory, false);
        // An NI access requested at t=0 queues behind the processor's.
        let t2 = hw.ni_read_block(Time::ZERO, b1, BlockSource::MainMemory);
        assert!(t2 > t1 - Dur::ns(120), "NI transaction must queue");
        assert_eq!(hw.bus.stats().total(), 2);
    }

    #[test]
    fn cycles_at_1ghz() {
        assert_eq!(hw().cycles(12), Dur::ns(12));
    }

    #[test]
    fn id_spaces_are_per_node_and_disjoint() {
        use crate::process::Script;
        use crate::processor::ProcState;
        let cfg = MachineConfig::default();
        let mk = |i: u32| Node {
            id: NodeId(i),
            hw: NodeHw::new(&cfg, NiKind::Cm5),
            ni: NiUnit::new(&cfg),
            proc: ProcState::new(),
            ledger: TimeLedger::new(Time::ZERO),
            process: Box::new(Script::sink(Dur::ZERO)),
            next_msg_id: 0,
            next_transfer_id: 0,
            assembling: Default::default(),
        };
        let mut n0 = mk(0);
        let mut n1 = mk(1);
        // Node 0's first id is 0 (compatible with pre-parallel traces);
        // other nodes mint from disjoint high ranges, independent of
        // allocation interleaving.
        assert_eq!(n0.alloc_msg_id().0, 0);
        assert_eq!(n0.alloc_msg_id().0, 1);
        assert_eq!(n1.alloc_msg_id().0, 1 << 40);
        assert_eq!(n0.alloc_transfer_id(), 0);
        assert_eq!(n1.alloc_transfer_id(), 1 << 40);
        assert_eq!(n1.alloc_transfer_id(), (1 << 40) | 1);
    }

    #[test]
    fn metrics_enabled_hw_accounts_stalls_without_changing_timing() {
        use nisim_engine::metrics::{Component, MetricsConfig};
        let cfg = MachineConfig::default().metrics(MetricsConfig::enabled());
        let mut on = NodeHw::new(&cfg, NiKind::Cm5);
        let mut off = hw();
        let b = blk(&on, 0x10000);
        for hw in [&mut on, &mut off] {
            // Cold write miss (120 ns fill), NI read (M→O supply), then
            // a second-lap write that upgrades (8 ns BusUpgr).
            let t1 = hw.proc_write_block(Time::ZERO, b, BlockSource::MainMemory);
            let t2 = hw.ni_read_block(t1, b, BlockSource::MainMemory);
            let t3 = hw.proc_write_block(t2, b, BlockSource::MainMemory);
            assert_eq!(t3 - t2, Dur::ns(8));
        }
        assert_eq!(on.bus.free_at(), off.bus.free_at(), "timing unchanged");
        assert!(off.cache.metrics().is_none());
        let m = on.cache.metrics().unwrap();
        assert_eq!(m.cycles.get(Component::CacheMissStall), Dur::ns(120));
        assert_eq!(m.cycles.get(Component::CacheUpgradeStall), Dur::ns(8));
        let bus = on.bus.metrics().unwrap();
        assert_eq!(bus.cycles.get(Component::BusUpgrade), Dur::ns(8));
        assert_eq!(bus.grant_wait.count(), 3);
    }
}
