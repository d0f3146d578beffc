//! `RDMA_QP` — doorbell-rung send/receive queue pairs with bounded
//! per-connection NI state (extension; ROADMAP item 3).
//!
//! The model abstracts the InfiniBand-style host channel adapter of
//! MPICH2-over-InfiniBand (arxiv cs/0310059): the processor posts a work
//! queue entry into a cacheable send queue and rings a doorbell (one
//! posted uncached store); the NI picks the entry up and moves the data
//! itself. Two transfer disciplines share the interface:
//!
//! * **eager** (payload ≤ [`CostModel::rdma_eager_max_payload`]) — the
//!   payload travels inline with the work queue entry, so the processor
//!   writes it into the send queue and the NI streams it out,
//! * **rendezvous** (above the crossover) — the processor posts only an
//!   RTS descriptor and is released immediately; the NI performs the
//!   RTS/CTS handshake ([`CostModel::rdma_rendezvous_setup`]) and then
//!   pulls the payload from host memory without processor involvement.
//!
//! The design's defining cost is *where per-connection state lives*: each
//! queue pair's context (cursors, credits, translation) is fetched from a
//! memory-homed context table into a bounded on-chip **QP-state cache**
//! (LRU over [`MachineConfig::qp_cache_entries`] connections). Working
//! sets beyond the capacity thrash the cache and every message pays
//! [`CostModel::rdma_qp_fetch_blocks`] block reads from host memory — the
//! state-capacity cliff the connection-count sweep exposes, and the
//! modern restatement of the paper's "location of buffers" question.

use nisim_engine::codec::ensure;
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

/// The RDMA queue-pair model.
#[derive(Clone, Debug)]
pub struct RdmaQpNi {
    send_q: QueueRegion,
    recv_q: QueueRegion,
    /// QP contexts resident in the NI's state cache, least-recently-used
    /// first. A `Vec` keeps the LRU order explicit for snapshots.
    lru: Vec<u32>,
    capacity: u64,
    lookups: u64,
    hits: u64,
    misses: u64,
    /// Connection of the fragment the next send/deposit call concerns,
    /// latched by [`NiModel::stage`].
    staged_conn: u32,
    eager_max: u64,
    fetch_blocks: u64,
}

impl RdmaQpNi {
    /// Creates the model from the machine configuration.
    pub fn new(cfg: &MachineConfig) -> RdmaQpNi {
        let bb = cfg.cache.block_bytes;
        RdmaQpNi {
            send_q: QueueRegion::new(layout::SEND_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            recv_q: QueueRegion::new(layout::RECV_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            lru: Vec::new(),
            capacity: cfg.qp_cache_entries as u64,
            lookups: 0,
            hits: 0,
            misses: 0,
            staged_conn: 0,
            eager_max: cfg.costs.rdma_eager_max_payload,
            fetch_blocks: cfg.costs.rdma_qp_fetch_blocks,
        }
    }

    /// Looks `conn` up in the QP-state cache, updating LRU order and the
    /// hit/miss counters. Returns `true` on a hit. Public so the
    /// property suite can drive the cache directly.
    pub fn lookup(&mut self, conn: u32) -> bool {
        self.lookups += 1;
        if let Some(pos) = self.lru.iter().position(|&c| c == conn) {
            self.lru.remove(pos);
            self.lru.push(conn);
            self.hits += 1;
            true
        } else {
            if self.lru.len() as u64 >= self.capacity {
                self.lru.remove(0);
            }
            self.lru.push(conn);
            self.misses += 1;
            false
        }
    }

    /// `(lookups, hits, misses)` since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups, self.hits, self.misses)
    }

    /// Connections currently resident, least-recently-used first.
    pub fn cached(&self) -> &[u32] {
        &self.lru
    }

    /// QP-state cache capacity in connections.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Ensures the staged connection's QP context is on-chip at `t`:
    /// free on a cache hit, otherwise the NI fetches the context blocks
    /// from the memory-homed table.
    fn qp_state_ready(&mut self, hw: &mut NodeHw, t: Time) -> Time {
        if self.lookup(self.staged_conn) {
            return t;
        }
        let geo = hw.cache.geometry();
        let slot = (self.staged_conn as u64) % layout::QP_CTX_BLOCKS;
        let region = geo.block_of(layout::QP_CTX_BASE);
        let mut t = t;
        for i in 0..self.fetch_blocks {
            let b = geo.block_at(region, (slot + i) % layout::QP_CTX_BLOCKS);
            t = hw.ni_read_block(t, b, BlockSource::MainMemory);
        }
        t
    }
}

impl NiModel for RdmaQpNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "RDMA_QP",
            description: "InfiniBand-like queue pairs",
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
            buffer_location: BufferLocation::NiCacheAndMemory,
            buffering: BufferingInvolvement::NiManaged,
        }
    }

    fn stage(&mut self, conn: u32, _tag: u32) {
        self.staged_conn = conn;
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
        payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        let n = blocks(wire_bytes);
        let geo = hw.cache.geometry();
        let base = self.send_q.alloc(SLOT_BLOCKS);
        if payload_bytes <= self.eager_max {
            // Eager: the processor writes the work queue entry with the
            // payload inline, then rings the doorbell.
            let mut t = now;
            for i in 0..n {
                t = hw.proc_write_block(t, geo.block_at(base, i), BlockSource::MainMemory);
            }
            let bell = hw.uncached_write(t);
            let proc_release = bell + hw.cycles(cost.uncached_issue_cycles);
            // NI side: bring the QP context on-chip, then stream the
            // entry out of the send queue.
            let mut t_ni = self.qp_state_ready(hw, bell);
            for i in 0..n {
                t_ni = hw.ni_read_block(t_ni, geo.block_at(base, i), BlockSource::MainMemory);
            }
            SendPath {
                proc_release,
                inject_ready: t_ni + cost.ni_inject_overhead,
            }
        } else {
            // Rendezvous: the processor posts one RTS descriptor block
            // and is released; the NI handshakes and pulls the payload
            // from host memory itself.
            let t = hw.proc_write_block(now, base, BlockSource::MainMemory);
            let bell = hw.uncached_write(t);
            let proc_release = bell + hw.cycles(cost.uncached_issue_cycles);
            let mut t_ni = self.qp_state_ready(hw, bell) + cost.rdma_rendezvous_setup;
            for i in 0..n {
                t_ni = hw.ni_read_block(
                    t_ni,
                    geo.block_at(base, i % SLOT_BLOCKS),
                    BlockSource::MainMemory,
                );
            }
            SendPath {
                proc_release,
                inject_ready: t_ni + cost.ni_inject_overhead,
            }
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
        // Receive-side QP context must be on-chip before the remote
        // write can land.
        let mut t = self.qp_state_ready(hw, now);
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
        // Completion-queue poll: a cached flag check.
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
            DepositLoc::NiFifo | DepositLoc::NiQueue { .. } | DepositLoc::NiCache { .. } => {
                unreachable!("RDMA_QP does not deposit to {loc:?}")
            }
        }
    }

    // Every lookup is a hit or a miss, and a connection enters the LRU
    // list only on a miss and appears in it at most once.
    nisim_engine::state_fields! {
        {
            send_cursor: send_q, recv_cursor: recv_q, lru, lookups, hits, misses,
            staged_conn
        }
        check |n: &RdmaQpNi| {
            ensure(n.hits.checked_add(n.misses) == Some(n.lookups), "hits + misses != lookups")?;
            let distinct = n.lru.iter().collect::<std::collections::BTreeSet<_>>().len();
            ensure(
                distinct == n.lru.len() && n.lru.len() as u64 <= n.capacity.min(n.misses),
                "QP cache list repeats a connection or outgrows its capacity",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::NiKind;
    use nisim_engine::Json;

    fn setup() -> (NodeHw, CostModel, RdmaQpNi) {
        let cfg = MachineConfig::default().qp_cache_entries(4);
        (
            NodeHw::new(&cfg, NiKind::RdmaQp),
            cfg.costs,
            RdmaQpNi::new(&cfg),
        )
    }

    #[test]
    fn lru_evicts_oldest_and_counts_balance() {
        let (_, _, mut ni) = setup();
        for conn in 1..=4 {
            assert!(!ni.lookup(conn));
        }
        assert!(ni.lookup(1), "1 still resident");
        assert!(!ni.lookup(5), "5 evicts 2 (the LRU entry)");
        assert!(!ni.lookup(2), "2 was evicted");
        let (lookups, hits, misses) = ni.counters();
        assert_eq!(hits + misses, lookups);
        assert_eq!(ni.cached().len() as u64, ni.capacity());
    }

    #[test]
    fn miss_costs_context_fetch_hit_is_free() {
        let (mut hw, cost, mut ni) = setup();
        ni.stage(7, 0);
        let d1 = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 64, 72);
        // Same connection again: context resident, no fetch.
        ni.stage(7, 0);
        let t0 = d1.done.max(Time::from_ns(10_000));
        let d2 = ni.deposit_fragment(&mut hw, &cost, t0, 64, 72);
        assert!(d1.done - Time::ZERO > d2.done - t0, "miss must cost more");
    }

    #[test]
    fn rendezvous_releases_processor_earlier_but_injects_later() {
        let (mut hw, cost, mut ni) = setup();
        ni.prewarm(&mut hw);
        // Warm the connection context so both paths hit the QP cache and
        // the comparison isolates the transfer protocol itself.
        ni.lookup(1);
        ni.stage(1, 0);
        let eager = ni.send_fragment(&mut hw, &cost, Time::ZERO, 128, 136);
        ni.stage(1, 0);
        let t0 = Time::from_ns(100_000);
        let rdv = ni.send_fragment(&mut hw, &cost, t0, 129, 137);
        assert!(
            rdv.proc_release - t0 < eager.proc_release - Time::ZERO,
            "rendezvous posts one descriptor, eager copies the payload"
        );
        assert!(
            rdv.inject_ready - t0 > eager.inject_ready - Time::ZERO,
            "rendezvous pays the RTS/CTS handshake"
        );
    }

    #[test]
    fn snapshot_round_trips_and_rejects_nonsense() {
        let cfg = MachineConfig::default().qp_cache_entries(4);
        let mut ni = RdmaQpNi::new(&cfg);
        for conn in [3, 9, 3, 12] {
            ni.lookup(conn);
        }
        ni.stage(12, 0);
        let snap = ni.snapshot();
        let mut fresh = RdmaQpNi::new(&cfg);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.cached(), ni.cached());
        assert_eq!(fresh.counters(), ni.counters());
        // Books that don't balance are rejected.
        let forged = |lru: Vec<u32>, lookups: u64, hits: u64, misses: u64| {
            Json::obj()
                .set("send_cursor", 0u64)
                .set("recv_cursor", 0u64)
                .set("lru", Json::Arr(lru.into_iter().map(Json::from).collect()))
                .set("lookups", lookups)
                .set("hits", hits)
                .set("misses", misses)
                .set("staged_conn", 0u64)
        };
        assert!(RdmaQpNi::new(&cfg)
            .restore(&forged(vec![1], 1, 1, 1))
            .is_err());
        // An over-capacity LRU is rejected.
        assert!(RdmaQpNi::new(&cfg)
            .restore(&forged((0..9).collect(), 9, 0, 9))
            .is_err());
        // A well-formed forgery of the same shape is accepted.
        RdmaQpNi::new(&cfg)
            .restore(&forged(vec![1, 2], 2, 0, 2))
            .unwrap();
    }

    #[test]
    fn descriptor_is_ni_managed() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.symbol, "RDMA_QP");
        assert_eq!(d.buffering, BufferingInvolvement::NiManaged);
        assert_eq!(d.buffer_location, BufferLocation::NiCacheAndMemory);
    }
}
