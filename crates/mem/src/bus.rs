//! The snooping memory bus timing model.
//!
//! Table 3 of the paper fixes the bus at 256 bits wide and 250 MHz
//! (4 ns/cycle, 32 bytes per data cycle). The model charges every
//! transaction an arbitration + address phase and then data cycles sized by
//! the transfer:
//!
//! * an **uncached word** access (≤ 8 bytes) moves one data cycle —
//!   3 bus cycles (12 ns) total,
//! * a **block** transfer (64 bytes) moves two data cycles — 4 bus cycles
//!   (16 ns) total,
//! * an **upgrade/invalidate** carries no data — 2 bus cycles (8 ns).
//!
//! This is the arithmetic behind the paper's "size of transfer" parameter:
//! a 64-byte block costs only ~1.3× an 8-byte word on the bus, so designs
//! that move whole blocks amortise control overhead 8× better per byte.
//!
//! The bus is modelled as a serially-reusable resource ([`Bus::acquire`]):
//! requests queue in arrival order and the caller learns both when its
//! transaction starts (queueing delay = contention) and when the bus phase
//! completes. Responder latency (memory, NI memory, remote cache) is
//! layered on top by the caller, which matches a split-transaction bus —
//! the address/data phases occupy the bus, the DRAM access itself does not.

use nisim_engine::codec::{ensure, Codec, DecodeError, Fields, State};
use nisim_engine::metrics::{Component, ComponentCycles, Log2Hist};
use nisim_engine::stats::Counter;
use nisim_engine::{Dur, Json, Time};

/// The transaction types the study's NIs generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Uncached read of ≤ 8 bytes (e.g. a processor load of an NI status
    /// or FIFO register).
    WordRead,
    /// Uncached write of ≤ 8 bytes.
    WordWrite,
    /// Coherent read of one whole cache block (BusRd).
    BlockRead,
    /// Coherent read-for-ownership of one block (BusRdX).
    BlockReadExclusive,
    /// Write of one whole block (writeback, DMA store, block-buffer store).
    BlockWrite,
    /// Ownership upgrade / invalidation; no data phase (BusUpgr).
    Upgrade,
}

impl BusOp {
    /// Every transaction type, in declaration order — handy for sweeps
    /// and benchmarks that exercise the full occupancy mix.
    pub const ALL: [BusOp; 6] = [
        BusOp::WordRead,
        BusOp::WordWrite,
        BusOp::BlockRead,
        BusOp::BlockReadExclusive,
        BusOp::BlockWrite,
        BusOp::Upgrade,
    ];

    /// True if the transaction moves a whole cache block.
    pub fn is_block(self) -> bool {
        matches!(
            self,
            BusOp::BlockRead | BusOp::BlockReadExclusive | BusOp::BlockWrite
        )
    }

    /// Bytes of data moved by this transaction under `cfg`.
    pub fn data_bytes(self, cfg: &BusConfig) -> u64 {
        match self {
            BusOp::WordRead | BusOp::WordWrite => cfg.word_bytes,
            BusOp::BlockRead | BusOp::BlockReadExclusive | BusOp::BlockWrite => cfg.block_bytes,
            BusOp::Upgrade => 0,
        }
    }

    /// The metrics component this transaction class's occupancy is
    /// charged to.
    pub fn component(self) -> Component {
        match self {
            BusOp::WordRead => Component::BusWordRead,
            BusOp::WordWrite => Component::BusWordWrite,
            BusOp::BlockRead => Component::BusBlockRead,
            BusOp::BlockReadExclusive => Component::BusBlockReadExcl,
            BusOp::BlockWrite => Component::BusBlockWrite,
            BusOp::Upgrade => Component::BusUpgrade,
        }
    }
}

/// Bus geometry and per-phase costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BusConfig {
    /// Bus clock period; 4 ns = 250 MHz per Table 3.
    pub clock_period: Dur,
    /// Data width in bytes per bus cycle; 32 B = 256 bits per Table 3.
    pub width_bytes: u64,
    /// Cache-block size in bytes (shared with the caches).
    pub block_bytes: u64,
    /// Size of an uncached word access in bytes.
    pub word_bytes: u64,
    /// Arbitration phase, in bus cycles.
    pub arbitration_cycles: u64,
    /// Address/command phase, in bus cycles.
    pub address_cycles: u64,
}

impl Default for BusConfig {
    /// The paper's bus: 250 MHz, 256-bit, 64 B blocks, 8 B words, one
    /// cycle each of arbitration and address.
    fn default() -> Self {
        BusConfig {
            clock_period: Dur::ns(4),
            width_bytes: 32,
            block_bytes: 64,
            word_bytes: 8,
            arbitration_cycles: 1,
            address_cycles: 1,
        }
    }
}

impl BusConfig {
    /// Bus cycles of data phase for `bytes` of payload.
    pub fn data_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.width_bytes)
    }

    /// Total bus occupancy of one transaction of kind `op`.
    pub fn occupancy(&self, op: BusOp) -> Dur {
        let cycles =
            self.arbitration_cycles + self.address_cycles + self.data_cycles(op.data_bytes(self));
        Dur::cycles(cycles, self.clock_period.as_ns())
    }

    /// Peak data bandwidth in bytes per nanosecond.
    pub fn peak_bandwidth(&self) -> f64 {
        self.width_bytes as f64 / self.clock_period.as_ns() as f64
    }
}

/// The time window granted to one bus transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BusGrant {
    /// When the transaction won arbitration (≥ request time).
    pub start: Time,
    /// When its bus phases complete (the bus is free again).
    pub end: Time,
}

impl BusGrant {
    /// Queueing delay suffered before the transaction started.
    pub fn wait_since(&self, requested: Time) -> Dur {
        self.start.saturating_since(requested)
    }
}

/// Per-bus transaction statistics.
#[derive(Clone, Debug, Default)]
pub struct BusStats {
    /// Transactions by kind, indexed by [`BusStats::index_of`].
    counts: [Counter; 6],
    /// Total time the bus was occupied.
    pub busy: Dur,
    /// Total data bytes moved.
    pub data_bytes: Counter,
}

impl BusStats {
    fn index_of(op: BusOp) -> usize {
        match op {
            BusOp::WordRead => 0,
            BusOp::WordWrite => 1,
            BusOp::BlockRead => 2,
            BusOp::BlockReadExclusive => 3,
            BusOp::BlockWrite => 4,
            BusOp::Upgrade => 5,
        }
    }

    /// Number of transactions of kind `op` so far.
    pub fn count(&self, op: BusOp) -> u64 {
        self.counts[Self::index_of(op)].get()
    }

    /// Total transactions of any kind.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.get()).sum()
    }

    /// Total block transactions (reads, read-exclusives, writes).
    pub fn block_transactions(&self) -> u64 {
        self.count(BusOp::BlockRead)
            + self.count(BusOp::BlockReadExclusive)
            + self.count(BusOp::BlockWrite)
    }
}

/// A serially-reusable snooping memory bus.
///
/// # Example
///
/// ```
/// use nisim_engine::{Time, Dur};
/// use nisim_mem::{Bus, BusConfig, BusOp};
///
/// let mut bus = Bus::new(BusConfig::default());
/// // A block read occupies 4 bus cycles = 16 ns.
/// let g = bus.acquire(Time::ZERO, BusOp::BlockRead);
/// assert_eq!(g.end - g.start, Dur::ns(16));
/// // An uncached word write is 3 cycles = 12 ns and queues behind it.
/// let g2 = bus.acquire(Time::ZERO, BusOp::WordWrite);
/// assert_eq!(g2.start, g.end);
/// ```
#[derive(Clone, Debug)]
pub struct Bus {
    cfg: BusConfig,
    free_at: Time,
    stats: BusStats,
    metrics: Option<Box<BusMetrics>>,
}

/// Cycle accounting for one bus: arbitration wait and occupancy per
/// transaction class, plus the grant-wait latency histogram. Collected
/// only when [`Bus::enable_metrics`] was called; charged through the
/// typed handles of [`nisim_engine::metrics`].
#[derive(Clone, Debug, Default)]
pub struct BusMetrics {
    /// Arbitration wait plus per-class occupancy cycles.
    pub cycles: ComponentCycles,
    /// Grant-wait (request to arbitration win) distribution, ns.
    pub grant_wait: Log2Hist,
}

impl Bus {
    /// Creates an idle bus.
    pub fn new(cfg: BusConfig) -> Bus {
        Bus {
            cfg,
            free_at: Time::ZERO,
            stats: BusStats::default(),
            metrics: None,
        }
    }

    /// Turns on per-transaction cycle accounting. Observational only:
    /// grant timing is unchanged.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(Box::default());
    }

    /// The accumulated cycle accounting, if enabled.
    pub fn metrics(&self) -> Option<&BusMetrics> {
        self.metrics.as_deref()
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// When the bus next becomes free.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Reserves the bus for one transaction of kind `op` requested at
    /// `now`, returning the granted window. Requests are served in call
    /// order (the simulation's event order).
    pub fn acquire(&mut self, now: Time, op: BusOp) -> BusGrant {
        self.acquire_burst(now, op, 1, Dur::ZERO)
    }

    /// Reserves the bus for a run of `count` transactions of kind `op`:
    /// the first requested at `now`, each later one `gap` after the bus
    /// phase of the one before ends (`gap` zero: back to back, e.g. a
    /// multi-block DMA burst). The bus is free whenever a later one asks,
    /// so only the first can wait, and the run leaves exactly the state
    /// `count` calls of [`Bus::acquire`] would — grant times, stats and
    /// metrics — computed in O(1). Returns the window from the first
    /// grant to the last transaction's end.
    #[inline]
    pub fn acquire_burst(&mut self, now: Time, op: BusOp, count: u64, gap: Dur) -> BusGrant {
        assert!(count > 0, "burst must contain at least one transaction");
        let start = now.max(self.free_at);
        let occupancy = self.cfg.occupancy(op) * count;
        let end = start + occupancy + gap * (count - 1);
        self.free_at = end;
        self.stats.counts[BusStats::index_of(op)].add(count);
        self.stats.busy += occupancy;
        self.stats.data_bytes.add(op.data_bytes(&self.cfg) * count);
        let wait = start.saturating_since(now);
        if let Some(m) = &mut self.metrics {
            m.cycles.charge(Component::BusArbitration, wait);
            m.cycles.charge(op.component(), occupancy);
            m.grant_wait.record(wait.as_ns());
            m.grant_wait.record_n(0, count - 1);
        }
        BusGrant { start, end }
    }

    /// Fraction of `elapsed` the bus spent busy.
    pub fn utilization(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.stats.busy.as_ns() as f64 / elapsed.as_ns() as f64
        }
    }
}

/// The dynamic state: free time, per-class counts, busy time, data bytes
/// and, when enabled, the metrics. The configuration
/// is not included; the metrics keys must be present exactly when the
/// restoring bus has metrics enabled.
impl State for Bus {
    fn snapshot(&self) -> Json {
        let mut v = Json::obj()
            .set("free_at", self.free_at.encode())
            .set("counts", self.stats.counts.encode())
            .set("busy", self.stats.busy.encode())
            .set("data_bytes", self.stats.data_bytes.encode());
        if let Some(m) = &self.metrics {
            v = v
                .set("cycles", m.cycles.encode())
                .set("grant_wait", m.grant_wait.encode());
        }
        v
    }

    /// Every transaction adds its occupancy to `busy` and its data to
    /// `data_bytes` ([`Bus::acquire`]), so both must equal the per-class
    /// counts times the configured per-class cost.
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        self.free_at = f.get("free_at")?;
        self.stats.counts = f.get("counts")?;
        self.stats.busy = f.get("busy")?;
        self.stats.data_bytes = f.get("data_bytes")?;
        if let Some(m) = &mut self.metrics {
            m.cycles = f.get("cycles")?;
            m.grant_wait = f.get("grant_wait")?;
        }
        f.finish()?;
        let per_class = |cost: &dyn Fn(BusOp) -> u64| {
            BusOp::ALL.iter().try_fold(0u64, |sum, &op| {
                sum.checked_add(self.stats.count(op).checked_mul(cost(op))?)
            })
        };
        ensure(
            per_class(&|op| self.cfg.occupancy(op).as_ns()) == Some(self.stats.busy.as_ns()),
            "busy time does not match the transaction counts",
        )?;
        ensure(
            per_class(&|op| op.data_bytes(&self.cfg)) == Some(self.stats.data_bytes.get()),
            "data bytes do not match the transaction counts",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancies_match_table3_geometry() {
        let cfg = BusConfig::default();
        assert_eq!(cfg.occupancy(BusOp::WordRead), Dur::ns(12)); // 3 cycles
        assert_eq!(cfg.occupancy(BusOp::WordWrite), Dur::ns(12));
        assert_eq!(cfg.occupancy(BusOp::BlockRead), Dur::ns(16)); // 4 cycles
        assert_eq!(cfg.occupancy(BusOp::BlockWrite), Dur::ns(16));
        assert_eq!(cfg.occupancy(BusOp::Upgrade), Dur::ns(8)); // 2 cycles
    }

    #[test]
    fn blocks_amortise_control_overhead() {
        // Per-byte cost of a block transfer must be much lower than a word
        // transfer — the premise of the "size of transfer" parameter.
        let cfg = BusConfig::default();
        let word = cfg.occupancy(BusOp::WordWrite).as_ns() as f64 / cfg.word_bytes as f64;
        let block = cfg.occupancy(BusOp::BlockWrite).as_ns() as f64 / cfg.block_bytes as f64;
        assert!(word / block >= 4.0, "word {word} vs block {block}");
    }

    #[test]
    fn acquire_serialises_transactions() {
        let mut bus = Bus::new(BusConfig::default());
        let g1 = bus.acquire(Time::from_ns(0), BusOp::BlockRead);
        let g2 = bus.acquire(Time::from_ns(0), BusOp::BlockRead);
        let g3 = bus.acquire(Time::from_ns(100), BusOp::WordRead);
        assert_eq!(g1.start, Time::from_ns(0));
        assert_eq!(g2.start, g1.end);
        // The bus went idle before t=100, so g3 starts on request.
        assert_eq!(g3.start, Time::from_ns(100));
        assert_eq!(g2.wait_since(Time::ZERO), Dur::ns(16));
    }

    #[test]
    fn burst_reserves_back_to_back() {
        let mut bus = Bus::new(BusConfig::default());
        let g = bus.acquire_burst(Time::ZERO, BusOp::BlockWrite, 4, Dur::ZERO);
        assert_eq!(g.start, Time::ZERO);
        assert_eq!(g.end, Time::from_ns(64)); // 4 x 16 ns
        assert_eq!(bus.stats().count(BusOp::BlockWrite), 4);
    }

    #[test]
    fn burst_with_gap_equals_a_loop_of_acquires() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (lcg >> 33) % n
        };
        for case in 0..2_000 {
            let (mut burst, mut reference) = (
                Bus::new(BusConfig::default()),
                Bus::new(BusConfig::default()),
            );
            if case % 2 == 0 {
                burst.enable_metrics();
                reference.enable_metrics();
            }
            // Earlier traffic leaves `free_at` before or after `now`.
            for _ in 0..next(4) {
                let (at, op) = (Time::from_ns(next(200)), BusOp::ALL[next(6) as usize]);
                burst.acquire(at, op);
                reference.acquire(at, op);
            }
            let now = Time::from_ns(next(250));
            let op = BusOp::ALL[next(6) as usize];
            let (count, gap) = (1 + next(80), Dur::ns(next(3) * next(100)));
            let got = burst.acquire_burst(now, op, count, gap);
            let first = reference.acquire(now, op);
            let mut end = first.end;
            for _ in 1..count {
                end = reference.acquire(end + gap, op).end;
            }
            let what = format!("case {case}: {op:?} x{count} gap {gap:?} at {now:?}");
            assert_eq!(
                got,
                BusGrant {
                    start: first.start,
                    end
                },
                "{what}"
            );
            // The snapshot holds free_at, the stats and, with metrics on,
            // the cycle breakdown and the grant-wait histogram.
            assert_eq!(
                burst.snapshot().to_compact(),
                reference.snapshot().to_compact(),
                "{what}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one transaction")]
    fn empty_burst_panics() {
        Bus::new(BusConfig::default()).acquire_burst(Time::ZERO, BusOp::BlockWrite, 0, Dur::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = Bus::new(BusConfig::default());
        bus.acquire(Time::ZERO, BusOp::WordWrite);
        bus.acquire(Time::ZERO, BusOp::BlockRead);
        bus.acquire(Time::ZERO, BusOp::Upgrade);
        let s = bus.stats();
        assert_eq!(s.total(), 3);
        assert_eq!(s.count(BusOp::WordWrite), 1);
        assert_eq!(s.block_transactions(), 1);
        assert_eq!(s.busy, Dur::ns(12 + 16 + 8));
        assert_eq!(s.data_bytes.get(), 8 + 64);
    }

    #[test]
    fn metrics_account_arbitration_and_occupancy() {
        let mut bus = Bus::new(BusConfig::default());
        assert!(bus.metrics().is_none());
        bus.enable_metrics();
        bus.acquire(Time::ZERO, BusOp::BlockRead); // wait 0, occupancy 16
        bus.acquire(Time::ZERO, BusOp::Upgrade); // wait 16, occupancy 8
        let m = bus.metrics().unwrap();
        assert_eq!(m.cycles.get(Component::BusArbitration), Dur::ns(16));
        assert_eq!(m.cycles.get(Component::BusBlockRead), Dur::ns(16));
        assert_eq!(m.cycles.get(Component::BusUpgrade), Dur::ns(8));
        assert_eq!(m.cycles.total(), Dur::ns(40));
        assert_eq!(m.grant_wait.count(), 2);
        // The breakdown agrees with the untyped stats the bus always keeps.
        assert_eq!(
            m.cycles.total() - m.cycles.get(Component::BusArbitration),
            bus.stats().busy
        );
    }

    #[test]
    fn snapshot_round_trips_with_metrics() {
        let mut bus = Bus::new(BusConfig::default());
        bus.enable_metrics();
        bus.acquire(Time::ZERO, BusOp::BlockRead);
        bus.acquire(Time::ZERO, BusOp::WordWrite);
        bus.acquire(Time::from_ns(5), BusOp::Upgrade);
        let snap = bus.snapshot();

        let mut fresh = Bus::new(BusConfig::default());
        fresh.enable_metrics();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.free_at(), bus.free_at());
        assert_eq!(fresh.stats().count(BusOp::BlockRead), 1);
        assert_eq!(fresh.stats().busy, bus.stats().busy);
        assert_eq!(fresh.stats().data_bytes.get(), bus.stats().data_bytes.get());
        let (m, fm) = (bus.metrics().unwrap(), fresh.metrics().unwrap());
        assert_eq!(fm.cycles.total(), m.cycles.total());
        assert_eq!(fm.grant_wait.count(), m.grant_wait.count());
        // Re-serialising reproduces the same bytes.
        assert_eq!(fresh.snapshot().to_compact(), snap.to_compact());
        // Metrics-enablement mismatch is rejected both ways.
        let mut plain = Bus::new(BusConfig::default());
        assert!(plain.restore(&snap).is_err());
        let mut with = Bus::new(BusConfig::default());
        with.enable_metrics();
        assert!(with.restore(&plain.snapshot()).is_err());
        // Counts that disagree with the busy time are rejected.
        let Json::Obj(mut pairs) = snap else {
            unreachable!("bus snapshots are objects")
        };
        pairs[2].1 = Json::from(bus.stats().busy.as_ns() + 1);
        let err = fresh.restore(&Json::Obj(pairs)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "busy time does not match the transaction counts"
        );
    }

    #[test]
    fn utilization_fraction() {
        let mut bus = Bus::new(BusConfig::default());
        bus.acquire(Time::ZERO, BusOp::BlockRead); // 16 ns busy
        assert!((bus.utilization(Dur::ns(64)) - 0.25).abs() < 1e-12);
        assert_eq!(bus.utilization(Dur::ZERO), 0.0);
    }

    #[test]
    fn peak_bandwidth() {
        // 32 B / 4 ns = 8 B/ns = 8 GB/s.
        assert!((BusConfig::default().peak_bandwidth() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn data_cycles_round_up() {
        let cfg = BusConfig::default();
        assert_eq!(cfg.data_cycles(0), 0);
        assert_eq!(cfg.data_cycles(1), 1);
        assert_eq!(cfg.data_cycles(32), 1);
        assert_eq!(cfg.data_cycles(33), 2);
        assert_eq!(cfg.data_cycles(64), 2);
    }
}
