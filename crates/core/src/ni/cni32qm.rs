//! `CNI_32Q_m` — the Wisconsin Coherent Network Interface with a cache.
//!
//! Queues are coherent circular buffers **homed in main memory**, cached
//! on the NI in 32-block SRAM caches per direction. The design optimises
//! all five taxonomy parameters (§6.2.2) and adds the paper's two §4
//! improvements:
//!
//! 1. **receive-cache bypass** — if the receive cache is full of live
//!    (unconsumed) messages, fresh arrivals are written directly to main
//!    memory, so the messages at the head of the queue keep being served
//!    by fast NI-cache-to-processor-cache transfers,
//! 2. **dead-block handling** — the NI updates the head pointer when it
//!    flushes messages, so blocks the processor has already consumed are
//!    recycled without pointless writebacks.
//!
//! Both improvements are ablatable ([`MachineConfig::cni_bypass`] and
//! [`MachineConfig::cni_dead_block_opt`]) to support the design-choice
//! benches. The `+Throttle` variant adds a fixed inter-send delay that
//! paces the sender to the receiver's consumption rate (Table 5).

use nisim_engine::codec::ensure;
use nisim_engine::{Dur, Time};
use nisim_mem::{BlockAddr, BlockGeometry, BusOp};

use crate::config::MachineConfig;
use crate::costs::CostModel;
use crate::node::{BlockSource, NodeHw};
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::cni512q::cni_send_compose;
use super::coherent::{layout, QueueRegion, SLOT_BLOCKS};
use super::util::blocks;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The `CNI_32Q_m` model (optionally throttled).
#[derive(Clone, Debug)]
pub struct Cni32QmNi {
    send_q: QueueRegion,
    recv_q: QueueRegion,
    send_tail: BlockAddr,
    /// Receive-cache blocks occupied by live (undrained) messages.
    rx_cache_used: u64,
    rx_cache_capacity: u64,
    /// Live blocks displaced to memory by deposits when bypass is off.
    displaced_blocks: u64,
    /// Dead blocks awaiting (unnecessary) writeback when the dead-block
    /// optimisation is off.
    dead_blocks_pending: u64,
    /// Total undrained blocks (NI cache + memory backlog).
    rx_backlog_blocks: u64,
    bypass: bool,
    dead_block_opt: bool,
    prefetch: bool,
    throttle: Option<Dur>,
}

impl Cni32QmNi {
    /// Creates the model; `throttle` selects the `+Throttle` variant.
    pub fn new(cfg: &MachineConfig, throttle: Option<Dur>) -> Cni32QmNi {
        let bb = cfg.cache.block_bytes;
        let geo = BlockGeometry::new(bb);
        Cni32QmNi {
            send_q: QueueRegion::new(layout::SEND_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            recv_q: QueueRegion::new(layout::RECV_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            send_tail: geo.block_of(layout::TAILS_BASE.offset(2 * bb)),
            rx_cache_used: 0,
            rx_cache_capacity: cfg.cni_cache_blocks as u64,
            displaced_blocks: 0,
            dead_blocks_pending: 0,
            rx_backlog_blocks: 0,
            bypass: cfg.cni_bypass,
            dead_block_opt: cfg.cni_dead_block_opt,
            prefetch: cfg.cni_prefetch,
            throttle,
        }
    }

    /// Receive-cache blocks currently holding live messages.
    pub fn rx_cache_used(&self) -> u64 {
        self.rx_cache_used
    }
}

impl NiModel for Cni32QmNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "CNI_32Q_m",
            description: "Wisconsin CNI with cache",
            send: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::CacheOrMemory,
            },
            receive: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::ProcessorCache,
            },
            buffer_location: BufferLocation::NiCacheAndMemory,
            buffering: BufferingInvolvement::NiManaged,
        }
    }

    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn prewarm(&self, hw: &mut NodeHw) {
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
        let (t_tail, last_fetch, _base, _n) = cni_send_compose(
            hw,
            cost,
            now,
            wire_bytes,
            &mut self.send_q,
            self.send_tail,
            BlockSource::MainMemory,
            self.prefetch,
        );
        // Fetched blocks stream through the fast NI send cache straight
        // into the injection path.
        hw.ni_mem.record_write();
        let inject_ready = last_fetch + cost.ni_inject_overhead;
        SendPath {
            proc_release: t_tail,
            inject_ready,
        }
    }

    fn has_room(&self, _wire_bytes: u64) -> bool {
        self.rx_backlog_blocks + SLOT_BLOCKS <= layout::MEMORY_QUEUE_BLOCKS
    }

    fn deposit_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> DepositPath {
        let n = blocks(wire_bytes);
        self.rx_backlog_blocks += SLOT_BLOCKS;
        let base = self.recv_q.alloc(SLOT_BLOCKS);
        let geo = hw.cache.geometry();
        let fits = self.rx_cache_used + SLOT_BLOCKS <= self.rx_cache_capacity;
        if fits || !self.bypass {
            // Deposit into the NI receive cache. Taking ownership of the
            // recycled queue blocks invalidates stale processor copies.
            let mut t = now;
            for i in 0..n {
                let b = geo.block_at(base, i);
                if hw.cache.contains(b) {
                    t = hw.bus.acquire(t, BusOp::Upgrade).end;
                    hw.cache.invalidate(b);
                }
            }
            if !self.dead_block_opt {
                // Without the head-update optimisation the NI writes dead
                // blocks back to memory before reusing their frames.
                let writebacks = self.dead_blocks_pending.min(n);
                self.dead_blocks_pending -= writebacks;
                for _ in 0..writebacks {
                    t = hw.bus.acquire(t, BusOp::BlockWrite).end;
                    hw.main_mem.record_write();
                }
            }
            if fits {
                self.rx_cache_used += SLOT_BLOCKS;
            } else {
                // Bypass disabled and the cache is full of live messages:
                // the fresh arrival evicts the *head-of-queue* blocks to
                // memory (the failure mode improvement 1 avoids), so the
                // oldest pending messages will drain at memory speed.
                for _ in 0..n {
                    t = hw.bus.acquire(t, BusOp::BlockWrite).end;
                    hw.main_mem.record_write();
                }
                self.displaced_blocks += SLOT_BLOCKS;
            }
            // The NI-cache write is pipelined with ejection.
            hw.ni_mem.record_write();
            DepositPath {
                done: t + cost.ni_deposit_overhead,
                loc: DepositLoc::NiCache { base, blocks: n },
            }
        } else {
            // Receive cache full of live messages: bypass to main memory
            // so head-of-queue messages keep coming from the NI cache.
            let mut t = now;
            for i in 0..n {
                t = hw.ni_write_block(t, geo.block_at(base, i));
            }
            DepositPath {
                done: t + cost.ni_deposit_overhead,
                loc: DepositLoc::Memory { base, blocks: n },
            }
        }
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        true
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
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
        let geo = hw.cache.geometry();
        match *loc {
            DepositLoc::NiCache { base, blocks: n } => {
                self.rx_backlog_blocks = self.rx_backlog_blocks.saturating_sub(SLOT_BLOCKS);
                // FIFO drains hit the head of the queue: if deposits have
                // displaced live head blocks (bypass-off), this entry is
                // one of them and reads from memory.
                let displaced = self.displaced_blocks >= SLOT_BLOCKS;
                if displaced {
                    self.displaced_blocks -= SLOT_BLOCKS;
                } else {
                    self.rx_cache_used = self.rx_cache_used.saturating_sub(SLOT_BLOCKS);
                }
                let src = if displaced {
                    BlockSource::MainMemory
                } else {
                    BlockSource::Ni
                };
                let mut t = now;
                for i in 0..n {
                    let b = geo.block_at(base, i);
                    t = hw.proc_read_block(t, b, src, true);
                    t += hw.cycles(cost.block_parse_cycles);
                }
                if !self.dead_block_opt {
                    self.dead_blocks_pending += n;
                }
                t
            }
            DepositLoc::Memory { base, blocks: n } => {
                self.rx_backlog_blocks = self.rx_backlog_blocks.saturating_sub(SLOT_BLOCKS);
                let mut t = now;
                for i in 0..n {
                    t = hw.proc_read_block(
                        t,
                        geo.block_at(base, i),
                        BlockSource::MainMemory,
                        false,
                    );
                    t += hw.cycles(cost.block_parse_cycles);
                }
                t
            }
            ref other => unreachable!("CNI_32Q_m does not deposit to {other:?}"),
        }
    }

    fn throttle(&self) -> Option<Dur> {
        self.throttle
    }

    // Occupancy moves in whole slots; displaced and dead blocks only
    // accumulate with their optimisation turned off.
    nisim_engine::state_fields! {
        {
            send_cursor: send_q, recv_cursor: recv_q, rx_cache_used, displaced_blocks,
            dead_blocks_pending, rx_backlog_blocks
        }
        check |n: &Cni32QmNi| {
            let slots = [n.rx_cache_used, n.displaced_blocks, n.rx_backlog_blocks];
            ensure(
                slots.iter().all(|b| b.is_multiple_of(SLOT_BLOCKS))
                    && n.rx_cache_used <= n.rx_cache_capacity
                    && n.rx_backlog_blocks <= layout::MEMORY_QUEUE_BLOCKS,
                "receive occupancy not in whole slots within capacity",
            )?;
            ensure(
                (n.displaced_blocks == 0 || !n.bypass)
                    && (n.dead_blocks_pending == 0 || !n.dead_block_opt),
                "blocks displaced or dead under the optimisation that prevents them",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::NiKind;

    fn setup() -> (NodeHw, CostModel, Cni32QmNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Cni32Qm),
            cfg.costs,
            Cni32QmNi::new(&cfg, None),
        )
    }

    #[test]
    fn deposits_fill_then_bypass() {
        let (mut hw, cost, mut ni) = setup();
        // 8 x 4-block fragments fill the 32-block cache.
        for _ in 0..8 {
            let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
            assert!(matches!(d.loc, DepositLoc::NiCache { .. }));
        }
        assert_eq!(ni.rx_cache_used(), 32);
        // The ninth bypasses to memory.
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert!(matches!(d.loc, DepositLoc::Memory { .. }));
        assert!(hw.main_mem.writes() >= 4);
    }

    #[test]
    fn drain_from_ni_cache_frees_space() {
        let (mut hw, cost, mut ni) = setup();
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert_eq!(ni.rx_cache_used(), 4);
        let before = hw.main_mem.reads();
        ni.drain_fragment(&mut hw, &cost, d.done, 248, 256, &d.loc);
        assert_eq!(ni.rx_cache_used(), 0);
        assert_eq!(hw.main_mem.reads(), before, "served by the NI cache");
    }

    #[test]
    fn cache_drain_is_faster_than_memory_drain() {
        let (mut hw, cost, mut ni) = setup();
        let d1 = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        let fast = ni.drain_fragment(&mut hw, &cost, d1.done, 248, 256, &d1.loc) - d1.done;
        // Fill and bypass.
        for _ in 0..8 {
            ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        }
        let d2 = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert!(matches!(d2.loc, DepositLoc::Memory { .. }));
        let t0 = d2.done.max(Time::from_ns(100_000));
        let slow = ni.drain_fragment(&mut hw, &cost, t0, 248, 256, &d2.loc) - t0;
        assert!(slow > fast, "memory {slow} should exceed NI cache {fast}");
    }

    #[test]
    fn bypass_off_displaces_live_blocks() {
        let cfg = MachineConfig {
            cni_bypass: false,
            ..MachineConfig::default()
        };
        let mut hw = NodeHw::new(&cfg, NiKind::Cni32Qm);
        let cost = cfg.costs;
        let mut ni = Cni32QmNi::new(&cfg, None);
        for _ in 0..8 {
            ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        }
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        // Still "in the cache", but four live blocks were pushed out.
        assert!(matches!(d.loc, DepositLoc::NiCache { .. }));
        assert_eq!(ni.displaced_blocks, 4);
        assert!(hw.main_mem.writes() >= 4);
    }

    #[test]
    fn dead_block_opt_off_causes_writebacks() {
        let cfg = MachineConfig {
            cni_dead_block_opt: false,
            ..MachineConfig::default()
        };
        let mut hw = NodeHw::new(&cfg, NiKind::Cni32Qm);
        let cost = cfg.costs;
        let mut ni = Cni32QmNi::new(&cfg, None);
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        ni.drain_fragment(&mut hw, &cost, d.done, 248, 256, &d.loc);
        assert_eq!(ni.dead_blocks_pending, 4);
        let writes_before = hw.main_mem.writes();
        ni.deposit_fragment(&mut hw, &cost, Time::from_ns(10_000), 248, 256);
        assert_eq!(hw.main_mem.writes() - writes_before, 4, "dead writebacks");
    }

    #[test]
    fn throttled_variant_reports_delay() {
        let cfg = MachineConfig::default();
        let ni = Cni32QmNi::new(&cfg, Some(Dur::ns(600)));
        assert_eq!(ni.throttle(), Some(Dur::ns(600)));
        assert_eq!(Cni32QmNi::new(&cfg, None).throttle(), None);
    }

    #[test]
    fn descriptor_matches_table2() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.symbol, "CNI_32Q_m");
        assert_eq!(d.buffer_location, BufferLocation::NiCacheAndMemory);
        assert_eq!(d.buffering, BufferingInvolvement::NiManaged);
        assert_eq!(d.receive.endpoint, TransferEndpoint::ProcessorCache);
    }
}
