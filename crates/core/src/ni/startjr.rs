//! `CNI_0Q_m` — the MIT StarT-JR-like network interface.
//!
//! Both queues are coherent, cacheable circular buffers **homed in main
//! memory**; the NI caches nothing (`0` in the symbol). The processor
//! composes messages with ordinary cached stores and the NI:
//!
//! * on the send side, *polls* the memory-resident queue (it is not
//!   snoop-reactive like the true CNIs), then fetches the message blocks
//!   over the bus — the processor's cache supplies them cache-to-cache,
//! * on the receive side, deposits arriving messages straight into main
//!   memory and releases the flow-control buffer immediately — buffering
//!   is plentiful and NI-managed, so the design is insensitive to the
//!   flow-control buffer count (Figure 3b),
//! * the receiving processor pays a main-memory miss (120 ns) per block
//!   to read the message — the memory detour the true CNIs avoid.

use nisim_engine::codec::ensure;
use nisim_engine::Time;
use nisim_mem::BlockAddr;

use crate::config::MachineConfig;
use crate::costs::CostModel;
use crate::node::{BlockSource, NodeHw};
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::coherent::{layout, next_poll_tick, QueueRegion, SLOT_BLOCKS};
use super::util::blocks;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The StarT-JR-like `CNI_0Q_m` model.
#[derive(Clone, Debug)]
pub struct StartJrNi {
    send_q: QueueRegion,
    recv_q: QueueRegion,
    send_tail: BlockAddr,
    recv_tail: BlockAddr,
    /// Receive-queue blocks occupied by messages not yet drained.
    recv_used_blocks: u64,
}

impl StartJrNi {
    /// Creates the model with the standard queue layout.
    pub fn new(cfg: &MachineConfig) -> StartJrNi {
        let bb = cfg.cache.block_bytes;
        let send_q = QueueRegion::new(layout::SEND_BASE, layout::MEMORY_QUEUE_BLOCKS, bb);
        let recv_q = QueueRegion::new(layout::RECV_BASE, layout::MEMORY_QUEUE_BLOCKS, bb);
        let geo = nisim_mem::BlockGeometry::new(bb);
        StartJrNi {
            send_q,
            recv_q,
            send_tail: geo.block_of(layout::TAILS_BASE),
            recv_tail: geo.block_of(layout::TAILS_BASE.offset(bb)),
            recv_used_blocks: 0,
        }
    }

    /// True if the memory receive queue has a free message slot.
    pub(super) fn queue_has_room(&self) -> bool {
        self.recv_used_blocks + SLOT_BLOCKS <= layout::MEMORY_QUEUE_BLOCKS
    }

    /// Send-side composition shared with the Memory Channel receive model:
    /// cached stores into the memory-homed queue plus a tail update.
    pub(super) fn compose_send(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        wire_bytes: u64,
    ) -> (Time, BlockAddr, u64) {
        let n = blocks(wire_bytes);
        let base = self.send_q.alloc(n);
        let mut t = now + hw.cycles(cost.send_setup_cycles);
        for i in 0..n {
            let b = self.send_q.block_at(base, i);
            t = hw.proc_write_block(t, b, BlockSource::MainMemory);
            t += hw.cycles(cost.block_parse_cycles);
        }
        t = hw.proc_write_block(t, self.send_tail, BlockSource::MainMemory);
        t += hw.cycles(cost.cached_flag_check_cycles);
        (t, base, n)
    }

    /// Receive-side deposit shared with the Memory Channel model: the NI
    /// writes the message and the tail into main memory.
    pub(super) fn deposit_to_memory(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        wire_bytes: u64,
    ) -> DepositPath {
        let n = blocks(wire_bytes);
        let base = self.recv_q.alloc(SLOT_BLOCKS);
        self.recv_used_blocks += SLOT_BLOCKS;
        let mut t = now;
        for i in 0..n {
            t = hw.ni_write_block(t, self.recv_q.block_at(base, i));
        }
        t = hw.ni_write_block(t, self.recv_tail);
        DepositPath {
            done: t + cost.ni_deposit_overhead,
            loc: DepositLoc::Memory { base, blocks: n },
        }
    }

    /// Receive-side drain shared with the Memory Channel model: cache
    /// misses to main memory per block.
    pub(super) fn drain_from_memory(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        base: BlockAddr,
        nblocks: u64,
    ) -> Time {
        let geo = hw.cache.geometry();
        let mut t = now;
        for i in 0..nblocks {
            let b = geo.block_at(base, i);
            t = hw.proc_read_block(t, b, BlockSource::MainMemory, false);
            t += hw.cycles(cost.block_parse_cycles);
        }
        self.recv_used_blocks = self.recv_used_blocks.saturating_sub(SLOT_BLOCKS);
        t
    }
}

impl NiModel for StartJrNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "CNI_0Q_m",
            description: "MIT StarT-JR-like",
            send: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::CacheOrMemory,
            },
            receive: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::Memory,
            },
            buffer_location: BufferLocation::Memory,
            buffering: BufferingInvolvement::NiManaged,
        }
    }

    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        // Cached head/tail comparison — hits in the processor cache.
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn prewarm(&self, hw: &mut NodeHw) {
        // Steady state: the producer owns its send-queue blocks from
        // earlier laps (the NI's reads left them Owned).
        for b in self.send_q.all_blocks() {
            hw.cache.insert(b, nisim_mem::MoesiState::Owned);
        }
        hw.cache
            .insert(self.send_tail, nisim_mem::MoesiState::Owned);
    }

    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        let (t_tail, base, n) = self.compose_send(hw, cost, now, wire_bytes);
        // The NI discovers the send by polling the memory-based queue;
        // with the lazy-pointer + message-valid-bit optimisations the
        // poll reads the message blocks directly (no separate tail
        // fetch).
        let mut t_ni = next_poll_tick(t_tail, cost.ni_poll_interval);
        for i in 0..n {
            t_ni = hw.ni_read_block(t_ni, self.send_q.block_at(base, i), BlockSource::MainMemory);
        }
        SendPath {
            proc_release: t_tail,
            inject_ready: t_ni + cost.ni_inject_overhead,
        }
    }

    fn has_room(&self, _wire_bytes: u64) -> bool {
        self.queue_has_room()
    }

    fn deposit_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> DepositPath {
        self.deposit_to_memory(hw, cost, now, wire_bytes)
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        true
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        // Message-valid-bit optimisation: the poll that discovers the
        // message is the first read of the message block itself, charged
        // in the drain; only the cached check is extra.
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn drain_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        _wire_bytes: u64,
        loc: &DepositLoc,
    ) -> Time {
        match *loc {
            DepositLoc::Memory { base, blocks: n } => {
                self.drain_from_memory(hw, cost, now, base, n)
            }
            DepositLoc::NiFifo | DepositLoc::NiQueue { .. } | DepositLoc::NiCache { .. } => {
                unreachable!("StarT-JR deposits only to memory, got {loc:?}")
            }
        }
    }

    nisim_engine::state_fields! {
        { send_cursor: send_q, recv_cursor: recv_q, recv_used_blocks }
        check |n: &StartJrNi| {
            ensure(
                n.recv_used_blocks.is_multiple_of(SLOT_BLOCKS)
                    && n.recv_used_blocks <= n.recv_q.capacity_blocks(),
                "receive queue occupancy not in whole slots within capacity",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::NiKind;
    use nisim_engine::Json;
    use nisim_mem::BusOp;

    fn setup() -> (NodeHw, CostModel, StartJrNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::StartJr),
            cfg.costs,
            StartJrNi::new(&cfg),
        )
    }

    #[test]
    fn first_send_misses_then_second_lap_upgrades() {
        let (mut hw, cost, mut ni) = setup();
        let p1 = ni.send_fragment(&mut hw, &cost, Time::ZERO, 56, 64);
        let cold = hw.bus.stats().count(BusOp::BlockReadExclusive);
        assert!(cold >= 1, "cold composition must read-exclusive");
        // Wrap the whole region so the same slot comes around again.
        for _ in 0..(layout::MEMORY_QUEUE_BLOCKS - 1) {
            ni.send_q.alloc(1);
        }
        let before_upg = hw.bus.stats().count(BusOp::Upgrade);
        let p2 = ni.send_fragment(&mut hw, &cost, p1.inject_ready, 56, 64);
        let after_upg = hw.bus.stats().count(BusOp::Upgrade);
        assert!(
            after_upg > before_upg,
            "second lap should upgrade, not miss"
        );
        // And the steady-state send is cheaper for the processor.
        let first = p1.proc_release - Time::ZERO;
        let second = p2.proc_release - p1.inject_ready;
        assert!(second < first, "first {first}, second {second}");
    }

    #[test]
    fn ni_fetch_is_supplied_cache_to_cache() {
        let (mut hw, cost, mut ni) = setup();
        ni.send_fragment(&mut hw, &cost, Time::ZERO, 56, 64);
        // Exactly two memory reads: the cold BusRdX fills for the message
        // block and the tail block. The NI's own fetches (tail + message)
        // are supplied cache-to-cache and must add none.
        assert_eq!(
            hw.main_mem.reads(),
            2,
            "NI fetches should be cache-to-cache"
        );
    }

    #[test]
    fn poll_interval_delays_injection() {
        let (mut hw, cost, mut ni) = setup();
        let path = ni.send_fragment(&mut hw, &cost, Time::ZERO, 8, 16);
        let tick = next_poll_tick(path.proc_release, cost.ni_poll_interval);
        assert!(path.inject_ready >= tick);
    }

    #[test]
    fn deposit_goes_to_memory_and_frees_buffer() {
        let (mut hw, cost, mut ni) = setup();
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert!(matches!(d.loc, DepositLoc::Memory { blocks: 4, .. }));
        assert_eq!(hw.main_mem.writes(), 5); // 4 message blocks + tail
        assert!(ni.frees_buffer_at_deposit());
    }

    #[test]
    fn drain_pays_memory_latency_per_block() {
        let (mut hw, cost, mut ni) = setup();
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        let t = ni.drain_fragment(&mut hw, &cost, d.done, 248, 256, &d.loc);
        // 4 blocks x (16 ns bus + 120 ns memory + parse) at minimum.
        assert!((t - d.done).as_ns() >= 4 * 136);
        assert_eq!(hw.main_mem.reads(), 4);
    }

    #[test]
    fn deposit_invalidates_stale_processor_copies() {
        let (mut hw, cost, mut ni) = setup();
        // Drain a first message so its queue blocks are cached...
        let d1 = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 56, 64);
        ni.drain_fragment(&mut hw, &cost, d1.done, 56, 64, &d1.loc);
        // ...wrap the region so the same slot is reused...
        use super::super::coherent::SLOT_BLOCKS;
        for _ in 0..(layout::MEMORY_QUEUE_BLOCKS / SLOT_BLOCKS - 1) {
            ni.recv_q.alloc(SLOT_BLOCKS);
        }
        let before = hw.cache.stats().snoop_invalidations;
        ni.deposit_fragment(&mut hw, &cost, d1.done, 56, 64);
        assert!(hw.cache.stats().snoop_invalidations > before);
    }

    #[test]
    fn restore_rejects_out_of_range_state() {
        let (_, _, mut ni) = setup();
        let state = |send: u64, recv: u64, used: u64| {
            Json::obj()
                .set("send_cursor", send)
                .set("recv_cursor", recv)
                .set("recv_used_blocks", used)
        };
        let past_end = layout::MEMORY_QUEUE_BLOCKS + 1;
        ni.restore(&state(8, 4, 4)).unwrap();
        assert_eq!(ni.snapshot().to_compact(), state(8, 4, 4).to_compact());
        assert!(ni.restore(&state(past_end, 0, 0)).is_err());
        assert!(ni.restore(&state(0, past_end, 0)).is_err());
        assert!(ni.restore(&state(0, 0, past_end)).is_err());
        assert!(ni.restore(&Json::obj()).is_err());
    }

    #[test]
    fn descriptor_matches_table2() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.symbol, "CNI_0Q_m");
        assert_eq!(d.buffer_location, BufferLocation::Memory);
        assert_eq!(d.buffering, BufferingInvolvement::NiManaged);
        assert_eq!(d.receive.endpoint, TransferEndpoint::Memory);
    }
}
