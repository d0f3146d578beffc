//! `URMA` — a connectionless NI holding zero per-pair state (extension;
//! ROADMAP item 3).
//!
//! The opposite pole from [`rdma_qp`](super::rdma_qp), after OpenURMA
//! (arxiv 2605.28717): instead of caching per-connection queue-pair
//! contexts on the NI, every message carries enough addressing for the
//! NI to resolve it statelessly, paying a fixed per-message
//! translation/match cost ([`CostModel::urma_translate`]) on each side.
//! The trade is exact: no state means no state-capacity cliff, so the
//! connection-count sweep shows a flat curve where the queue-pair NI
//! falls off one — but every message pays the translation toll that the
//! QP design amortises into its (capacity-bounded) context cache.
//!
//! Data paths are otherwise the coherent NI-managed ones: the processor
//! composes into a cacheable send queue and rings a doorbell; deposits
//! land in plentiful host memory without processor involvement.

use nisim_engine::Time;

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

/// The connectionless URMA model.
#[derive(Clone, Debug)]
pub struct UrmaNi {
    send_q: QueueRegion,
    recv_q: QueueRegion,
}

impl UrmaNi {
    /// Creates the model from the machine configuration.
    pub fn new(cfg: &MachineConfig) -> UrmaNi {
        let bb = cfg.cache.block_bytes;
        UrmaNi {
            send_q: QueueRegion::new(layout::SEND_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            recv_q: QueueRegion::new(layout::RECV_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
        }
    }
}

impl NiModel for UrmaNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "URMA",
            description: "connectionless, zero per-pair state",
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
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn prewarm(&self, hw: &mut NodeHw) {
        for b in self.send_q.all_blocks() {
            hw.cache.insert(b, nisim_mem::MoesiState::Owned);
        }
    }

    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        let n = blocks(wire_bytes);
        let geo = hw.cache.geometry();
        let base = self.send_q.alloc(SLOT_BLOCKS);
        // The processor composes the message into the send queue and
        // rings the doorbell.
        let mut t = now;
        for i in 0..n {
            t = hw.proc_write_block(t, geo.block_at(base, i), BlockSource::MainMemory);
        }
        let bell = hw.uncached_write(t);
        let proc_release = bell + hw.cycles(cost.uncached_issue_cycles);
        // NI side: the stateless translation/match, then the fetch.
        let mut t_ni = bell + cost.urma_translate;
        for i in 0..n {
            t_ni = hw.ni_read_block(t_ni, geo.block_at(base, i), BlockSource::MainMemory);
        }
        SendPath {
            proc_release,
            inject_ready: t_ni + cost.ni_inject_overhead,
        }
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
        let geo = hw.cache.geometry();
        let base = self.recv_q.alloc(SLOT_BLOCKS);
        // Per-message translation on the receive side too, then the
        // deposit into plentiful host memory.
        let mut t = now + cost.urma_translate;
        for i in 0..n {
            t = hw.ni_write_block(t, geo.block_at(base, i));
        }
        DepositPath {
            done: t + cost.ni_deposit_overhead,
            loc: DepositLoc::Memory { base, blocks: n },
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
            DepositLoc::Memory { base, blocks: n } => {
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
            ref other => unreachable!("URMA does not deposit to {other:?}"),
        }
    }

    nisim_engine::state_fields! {
        { send_cursor: send_q, recv_cursor: recv_q }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::NiKind;
    use nisim_engine::Json;

    fn setup() -> (NodeHw, CostModel, UrmaNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Urma),
            cfg.costs,
            UrmaNi::new(&cfg),
        )
    }

    #[test]
    fn every_message_pays_the_translation_toll() {
        let (mut hw, cost, mut ni) = setup();
        let first = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 64, 72).done - Time::ZERO;
        assert!(first >= cost.urma_translate);
        // A hundred deposits later the cost is unchanged: no per-pair
        // state to warm, no per-pair state to thrash.
        let mut t = Time::from_ns(100_000);
        let mut last = first;
        for _ in 0..100 {
            let d = ni.deposit_fragment(&mut hw, &cost, t, 64, 72);
            last = d.done - t;
            t = d.done + nisim_engine::Dur::ns(1_000);
        }
        assert_eq!(last, first, "connectionless cost is flat");
    }

    #[test]
    fn deposit_lands_in_memory_and_drains_from_it() {
        let (mut hw, cost, mut ni) = setup();
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert!(matches!(d.loc, DepositLoc::Memory { .. }));
        let reads = hw.main_mem.reads();
        ni.drain_fragment(&mut hw, &cost, d.done, 248, 256, &d.loc);
        assert!(hw.main_mem.reads() > reads, "drain misses to main memory");
    }

    #[test]
    fn snapshot_round_trips() {
        let (mut hw, cost, mut ni) = setup();
        ni.send_fragment(&mut hw, &cost, Time::ZERO, 64, 72);
        ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 64, 72);
        let snap = ni.snapshot();
        let cfg = MachineConfig::default();
        let mut fresh = UrmaNi::new(&cfg);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.snapshot().to_compact(), snap.to_compact());
        assert!(fresh
            .restore(&Json::obj().set("send_cursor", 1u64))
            .is_err());
    }

    #[test]
    fn descriptor_is_memory_homed_ni_managed() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.symbol, "URMA");
        assert_eq!(d.buffer_location, BufferLocation::Memory);
        assert_eq!(d.buffering, BufferingInvolvement::NiManaged);
    }
}
