//! `CNI_512Q` — the Wisconsin Coherent Network Interface without a cache.
//!
//! Send and receive queues are coherent circular buffers of 512 cache
//! blocks each, **homed on the NI** in DRAM-class memory (Table 3
//! footnote). The design's two distinguishing behaviours (§6.1.1):
//!
//! * **snoop-triggered send** — the NI participates in the bus coherence
//!   protocol, so it sees the processor's requests-for-exclusive on queue
//!   blocks and *prefetches* the previous block of the message while the
//!   processor composes the next one (the lazy-pointer optimisation).
//!   Message fetch overlaps message creation; only the final block's
//!   fetch is exposed.
//! * **direct NI-to-cache receive** — the processor's drain misses are
//!   served by the NI itself (it is the home), avoiding the main-memory
//!   detour of the StarT-JR-like design, though at DRAM speed because the
//!   512-block queue memory is too large for SRAM.
//!
//! Buffering is the 512-block on-NI queue; overflow falls back to
//! return-to-sender flow control (the paper classifies overflow handling
//! as processor-involved VM spill; it is rare at this queue size and we
//! model the overflow as network back-pressure instead — see DESIGN.md).

use nisim_engine::codec::ensure;
use nisim_engine::Time;
use nisim_mem::{BlockAddr, BlockGeometry};

use crate::config::MachineConfig;
use crate::costs::CostModel;
use crate::node::{BlockSource, NodeHw};
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::coherent::{layout, QueueRegion, SLOT_BLOCKS};
use super::util::blocks;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The `CNI_512Q` model.
#[derive(Clone, Debug)]
pub struct Cni512QNi {
    send_q: QueueRegion,
    recv_q: QueueRegion,
    send_tail: BlockAddr,
    recv_used_blocks: u64,
    capacity_blocks: u64,
    prefetch: bool,
}

impl Cni512QNi {
    /// Creates the model with `cfg.cni_queue_blocks`-block queues.
    pub fn new(cfg: &MachineConfig) -> Cni512QNi {
        let bb = cfg.cache.block_bytes;
        let geo = BlockGeometry::new(bb);
        let q = cfg.cni_queue_blocks as u64;
        assert!(
            q <= layout::CNI512_MAX_BLOCKS,
            "CNI_512Q queue of {q} blocks exceeds the address-layout maximum"
        );
        Cni512QNi {
            send_q: QueueRegion::new(layout::CNI512_SEND_BASE, q, bb),
            recv_q: QueueRegion::new(layout::CNI512_RECV_BASE, q, bb),
            send_tail: geo.block_of(layout::TAILS_BASE.offset(3 * bb)),
            recv_used_blocks: 0,
            capacity_blocks: q,
            prefetch: cfg.cni_prefetch,
        }
    }

    /// Blocks of receive queue currently occupied by pending messages.
    pub fn recv_used_blocks(&self) -> u64 {
        self.recv_used_blocks
    }
}

/// Shared CNI send path: cached composition with snoop-triggered NI
/// prefetch of all but the last block. Returns
/// `(proc_release, last_fetch_done, base, nblocks)`.
#[expect(
    clippy::too_many_arguments,
    reason = "both CNI designs share this path and differ in queue, home and prefetch"
)]
pub(super) fn cni_send_compose(
    hw: &mut NodeHw,
    cost: &CostModel,
    now: Time,
    wire_bytes: u64,
    send_q: &mut QueueRegion,
    send_tail: BlockAddr,
    home: BlockSource,
    prefetch: bool,
) -> (Time, Time, BlockAddr, u64) {
    let n = blocks(wire_bytes);
    let base = send_q.alloc(n);
    let mut t = now + hw.cycles(cost.send_setup_cycles);
    let mut fetch_done = t;
    for i in 0..n {
        let b = send_q.block_at(base, i);
        t = hw.proc_write_block(t, b, home);
        t += hw.cycles(cost.block_parse_cycles);
        if prefetch && i > 0 {
            // Lazy pointer: composing block i exposes block i-1 to the NI,
            // which prefetches it concurrently with further composition.
            let prev = send_q.block_at(base, i - 1);
            fetch_done = hw.ni_read_block(fetch_done.max(t), prev, home);
        }
    }
    let t_tail = hw.proc_write_block(t, send_tail, home) + hw.cycles(cost.cached_flag_check_cycles);
    let last_fetch = if prefetch {
        // The tail update triggers the fetch of the final block only.
        let last = send_q.block_at(base, n - 1);
        hw.ni_read_block(fetch_done.max(t_tail), last, home)
    } else {
        // Ablation: every block is fetched serially after the tail write.
        let mut f = t_tail;
        for i in 0..n {
            f = hw.ni_read_block(f, send_q.block_at(base, i), home);
        }
        f
    };
    (t_tail, last_fetch, base, n)
}

impl NiModel for Cni512QNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "CNI_512Q",
            description: "Wisconsin CNI with no cache",
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
            buffer_location: BufferLocation::NiAndVm,
            buffering: BufferingInvolvement::ProcessorInvolved,
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
            BlockSource::Ni,
            self.prefetch,
        );
        // Fetched blocks stream through the NI's injection path while
        // being written to the queue DRAM; injection readiness is not
        // serialised behind a queue-memory read.
        hw.ni_mem.record_write();
        let inject_ready = last_fetch + cost.ni_inject_overhead;
        SendPath {
            proc_release: t_tail,
            inject_ready,
        }
    }

    fn has_room(&self, _wire_bytes: u64) -> bool {
        self.recv_used_blocks + SLOT_BLOCKS <= self.capacity_blocks
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
        let base = self.recv_q.alloc(SLOT_BLOCKS);
        self.recv_used_blocks += SLOT_BLOCKS;
        // Stale processor copies of the recycled slot must be invalidated
        // before the NI (the home) rewrites it.
        let geo = hw.cache.geometry();
        let mut t = now;
        for i in 0..n {
            let b = geo.block_at(base, i);
            if hw.cache.contains(b) {
                t = hw.bus.acquire(t, nisim_mem::BusOp::Upgrade).end;
                hw.cache.invalidate(b);
            }
        }
        // The queue-DRAM write is pipelined with ejection from the
        // network, so it does not extend the critical path beyond the
        // fixed deposit overhead.
        hw.ni_mem.record_write();
        DepositPath {
            done: t + cost.ni_deposit_overhead,
            loc: DepositLoc::NiQueue { base, blocks: n },
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
        match *loc {
            DepositLoc::NiQueue { base, blocks: n } => {
                let geo = hw.cache.geometry();
                let mut t = now;
                for i in 0..n {
                    let b = geo.block_at(base, i);
                    // Miss served directly by the NI (the home) —
                    // NI-to-cache transfer at NI DRAM speed.
                    t = hw.proc_read_block(t, b, BlockSource::Ni, true);
                    t += hw.cycles(cost.block_parse_cycles);
                }
                let _ = n;
                self.recv_used_blocks = self.recv_used_blocks.saturating_sub(SLOT_BLOCKS);
                t
            }
            DepositLoc::NiFifo | DepositLoc::Memory { .. } | DepositLoc::NiCache { .. } => {
                unreachable!("CNI_512Q deposits only to its queue, got {loc:?}")
            }
        }
    }

    nisim_engine::state_fields! {
        { send_cursor: send_q, recv_cursor: recv_q, recv_used_blocks }
        check |n: &Cni512QNi| {
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
    use nisim_mem::BusOp;

    fn setup() -> (NodeHw, CostModel, Cni512QNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Cni512Q),
            cfg.costs,
            Cni512QNi::new(&cfg),
        )
    }

    #[test]
    fn ni_memory_is_dram_speed() {
        let cfg = MachineConfig::default();
        let hw = NodeHw::new(&cfg, NiKind::Cni512Q);
        assert_eq!(hw.ni_mem.read_latency(), cfg.main_memory_latency);
    }

    #[test]
    fn prefetch_overlaps_fetch_with_composition() {
        // For a 4-block message, the injection must not wait for 4 serial
        // fetches after the tail write: prefetching hides all but the
        // last.
        let (mut hw, cost, mut ni) = setup();
        let p = ni.send_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        let exposed = p.inject_ready - p.proc_release;
        // One fetch (16 ns bus + c2c 30 ns) + queue DRAM read + overhead,
        // but nowhere near 4 serial fetches + DRAM.
        assert!(
            exposed.as_ns() < 2 * (16 + 30) + 120 + 40 + 40,
            "exposed fetch too slow: {exposed}"
        );
        assert_eq!(hw.bus.stats().count(BusOp::BlockRead), 4);
    }

    #[test]
    fn no_poll_interval_on_send() {
        // Snoop-triggered: injection readiness is not quantised to the
        // poll interval (unlike StarT-JR).
        let (mut hw, cost, mut ni) = setup();
        let p = ni.send_fragment(&mut hw, &cost, Time::ZERO, 8, 16);
        let gap = p.inject_ready - p.proc_release;
        assert!(gap.as_ns() < cost.ni_poll_interval.as_ns() + 230);
    }

    #[test]
    fn queue_capacity_bounds_acceptance() {
        let (mut hw, cost, mut ni) = setup();
        assert!(ni.has_room(256));
        // Fill the receive queue.
        while ni.has_room(256) {
            ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        }
        assert_eq!(ni.recv_used_blocks(), 512);
        assert!(!ni.has_room(64));
        // Draining frees space.
        let d = DepositLoc::NiQueue {
            base: hw.cache.geometry().block_of(layout::CNI512_RECV_BASE),
            blocks: 4,
        };
        ni.drain_fragment(&mut hw, &cost, Time::ZERO, 248, 256, &d);
        assert!(ni.has_room(256));
    }

    #[test]
    fn drain_is_served_by_ni_not_memory() {
        let (mut hw, cost, mut ni) = setup();
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        let before = hw.main_mem.reads();
        ni.drain_fragment(&mut hw, &cost, d.done, 248, 256, &d.loc);
        assert_eq!(hw.main_mem.reads(), before, "no memory detour");
        assert!(hw.ni_mem.reads() > 0);
    }

    #[test]
    fn descriptor_matches_table2() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.symbol, "CNI_512Q");
        assert_eq!(d.receive.endpoint, TransferEndpoint::ProcessorCache);
        assert_eq!(d.buffer_location, BufferLocation::NiAndVm);
        assert_eq!(d.buffering, BufferingInvolvement::ProcessorInvolved);
    }
}
