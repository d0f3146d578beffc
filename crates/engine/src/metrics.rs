//! Cycle-accounted observability: per-component cycle counters and
//! fixed-bucket log2 latency histograms.
//!
//! The paper's analysis hinges on *where the cycles go* — processor
//! overhead vs. bus occupancy vs. NI buffering is what explains why
//! `CNI_32Q_m` beats `NI_2w` (§4–5). This module provides the two
//! accumulators that the simulated machine charges against:
//!
//! * [`ComponentCycles`] — nanoseconds attributed to each [`Component`]
//!   of the machine, with a separately maintained total so the breakdown
//!   sums to the total *by construction* (property-tested, including
//!   under [`ComponentCycles::merge`]),
//! * [`Log2Hist`] — a fixed-bucket power-of-two latency histogram whose
//!   merge is exact (plain bucket addition), so the `--jobs` sweep
//!   harness can combine per-worker results without loss.
//!
//! The taxonomy of [`Component`] names machine-level parts (bus, cache,
//! NI) even though this crate knows nothing about them: it lives here so
//! that `nisim-mem`, `nisim-net` and `nisim-core` can all charge against
//! one shared enum without a dependency cycle.
//!
//! Everything here is observational: enabling metrics never changes
//! simulated behaviour, and [`MetricsConfig`] is deliberately excluded
//! from the config fingerprint that keys the committed goldens.
//!
//! # Instrumentation discipline
//!
//! Instrumented code must go through the typed charge methods
//! ([`ComponentCycles::charge`], [`Log2Hist::record`],
//! [`Log2Hist::record_n`]). The raw bucket additions they wrap are
//! private to this module, whose merge and decode paths are their only
//! other callers.

use crate::codec::{ensure, Codec, DecodeError, Fields};
use crate::stats::{interpolated_percentile, Percentiles};
use crate::{Dur, Json};

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, so bucket 64 holds `[2^63, u64::MAX]`.
pub const LOG2_BUCKETS: usize = 65;

/// The machine components cycles are attributed to.
///
/// One variant per row of the occupancy breakdown: processor send and
/// receive overhead, bus arbitration plus occupancy per `BusOp`-like
/// transaction class, cache stalls, NI buffer residency, link
/// serialization, and reliability-layer retransmissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// Processor-side send overhead (space check, store/DMA setup,
    /// throttle waits).
    ProcSend,
    /// Processor-side receive overhead (detection, drain, dispatch).
    ProcRecv,
    /// Bus arbitration: queueing delay before a transaction wins the bus.
    BusArbitration,
    /// Bus occupancy of uncached word reads.
    BusWordRead,
    /// Bus occupancy of uncached word writes.
    BusWordWrite,
    /// Bus occupancy of coherent block reads (BusRd).
    BusBlockRead,
    /// Bus occupancy of coherent read-for-ownership (BusRdX).
    BusBlockReadExcl,
    /// Bus occupancy of block writes (writebacks, DMA/block-buffer stores).
    BusBlockWrite,
    /// Bus occupancy of ownership upgrades (BusUpgr).
    BusUpgrade,
    /// Processor stall filling a cache miss (memory or NI responder time).
    CacheMissStall,
    /// Processor stall upgrading a shared/owned line to modified.
    CacheUpgradeStall,
    /// Time deposited fragments sit in NI buffering awaiting the drain.
    NiResidency,
    /// Link-port serialization time of fragments on the wire.
    LinkSerialization,
    /// Wire time spent on reliability-layer retransmissions.
    Retransmit,
}

impl Component {
    /// Every component, in reporting order.
    pub const ALL: [Component; 14] = [
        Component::ProcSend,
        Component::ProcRecv,
        Component::BusArbitration,
        Component::BusWordRead,
        Component::BusWordWrite,
        Component::BusBlockRead,
        Component::BusBlockReadExcl,
        Component::BusBlockWrite,
        Component::BusUpgrade,
        Component::CacheMissStall,
        Component::CacheUpgradeStall,
        Component::NiResidency,
        Component::LinkSerialization,
        Component::Retransmit,
    ];

    /// Dense index (position in [`Component::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Component::ProcSend => 0,
            Component::ProcRecv => 1,
            Component::BusArbitration => 2,
            Component::BusWordRead => 3,
            Component::BusWordWrite => 4,
            Component::BusBlockRead => 5,
            Component::BusBlockReadExcl => 6,
            Component::BusBlockWrite => 7,
            Component::BusUpgrade => 8,
            Component::CacheMissStall => 9,
            Component::CacheUpgradeStall => 10,
            Component::NiResidency => 11,
            Component::LinkSerialization => 12,
            Component::Retransmit => 13,
        }
    }

    /// Stable machine-readable key; breakdown records, goldens and trace
    /// track names are all spelled with these (no ad-hoc strings).
    pub fn key(self) -> &'static str {
        match self {
            Component::ProcSend => "proc_send",
            Component::ProcRecv => "proc_recv",
            Component::BusArbitration => "bus_arbitration",
            Component::BusWordRead => "bus_word_read",
            Component::BusWordWrite => "bus_word_write",
            Component::BusBlockRead => "bus_block_read",
            Component::BusBlockReadExcl => "bus_block_read_excl",
            Component::BusBlockWrite => "bus_block_write",
            Component::BusUpgrade => "bus_upgrade",
            Component::CacheMissStall => "cache_miss_stall",
            Component::CacheUpgradeStall => "cache_upgrade_stall",
            Component::NiResidency => "ni_residency",
            Component::LinkSerialization => "link_serialization",
            Component::Retransmit => "retransmit",
        }
    }

    /// Parses a [`key`](Component::key) back into a component.
    pub fn from_key(key: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.key() == key)
    }

    /// True for the bus transaction-class components.
    pub fn is_bus(self) -> bool {
        matches!(
            self,
            Component::BusArbitration
                | Component::BusWordRead
                | Component::BusWordWrite
                | Component::BusBlockRead
                | Component::BusBlockReadExcl
                | Component::BusBlockWrite
                | Component::BusUpgrade
        )
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Observability switches carried on the machine configuration.
///
/// Deliberately excluded from `MachineConfig`'s `Debug` rendering (and
/// therefore from the config fingerprint): flipping these must never
/// change a record's identity, only add a breakdown to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MetricsConfig {
    /// Collect per-component cycles and latency histograms.
    pub enabled: bool,
    /// Additionally record begin/end spans for the trace sink
    /// (implies `enabled` wherever it is honoured).
    pub trace: bool,
}

impl MetricsConfig {
    /// Metrics on, trace off.
    pub fn enabled() -> MetricsConfig {
        MetricsConfig {
            enabled: true,
            trace: false,
        }
    }

    /// Metrics and trace both on.
    pub fn traced() -> MetricsConfig {
        MetricsConfig {
            enabled: true,
            trace: true,
        }
    }

    /// True if any collection is requested.
    pub fn any(self) -> bool {
        self.enabled || self.trace
    }
}

/// Nanoseconds attributed to each [`Component`], plus a separately
/// maintained grand total.
///
/// [`charge`](ComponentCycles::charge) updates a bucket and the total
/// together, so `sum(buckets) == total` holds by construction — the
/// invariant the breakdown property tests pin down, including across
/// [`merge`](ComponentCycles::merge).
///
/// # Example
///
/// ```
/// use nisim_engine::metrics::{Component, ComponentCycles};
/// use nisim_engine::Dur;
/// let mut c = ComponentCycles::new();
/// c.charge(Component::ProcSend, Dur::ns(30));
/// c.charge(Component::BusUpgrade, Dur::ns(8));
/// assert_eq!(c.total(), Dur::ns(38));
/// assert_eq!(c.get(Component::ProcSend), Dur::ns(30));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentCycles {
    buckets: [u64; 14],
    total: u64,
}

impl Default for ComponentCycles {
    fn default() -> Self {
        ComponentCycles::new()
    }
}

impl ComponentCycles {
    /// Creates a zeroed breakdown.
    pub fn new() -> ComponentCycles {
        ComponentCycles {
            buckets: [0; 14],
            total: 0,
        }
    }

    /// Charges `dur` to `component` (and to the total).
    #[inline]
    pub fn charge(&mut self, component: Component, dur: Dur) {
        self.raw_add(component, dur.as_ns());
    }

    /// Raw bucket addition, for this module's merge and decode paths;
    /// instrumented code uses [`charge`](ComponentCycles::charge).
    #[inline]
    fn raw_add(&mut self, component: Component, ns: u64) {
        self.buckets[component.index()] += ns;
        self.total += ns;
    }

    /// Nanoseconds attributed to `component`.
    pub fn get(&self, component: Component) -> Dur {
        Dur::ns(self.buckets[component.index()])
    }

    /// Grand total across all components.
    pub fn total(&self) -> Dur {
        Dur::ns(self.total)
    }

    /// True if nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Fraction of the total attributed to `component` (0 if empty).
    pub fn fraction(&self, component: Component) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.buckets[component.index()] as f64 / self.total as f64
        }
    }

    /// Iterates `(component, nanoseconds)` in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, u64)> + '_ {
        Component::ALL
            .into_iter()
            .map(|c| (c, self.buckets[c.index()]))
    }

    /// Merges another breakdown into this one (exact).
    pub fn merge(&mut self, other: &ComponentCycles) {
        for (c, ns) in other.iter() {
            self.raw_add(c, ns);
        }
    }
}

/// `{component_key: ns, ...}` in reporting order, zeros omitted.
impl Codec for ComponentCycles {
    fn encode(&self) -> Json {
        let nonzero = self.iter().filter(|&(_, ns)| ns > 0);
        Json::Obj(
            nonzero
                .map(|(c, ns)| (c.key().into(), ns.encode()))
                .collect(),
        )
    }
    fn decode(v: &Json) -> Result<ComponentCycles, DecodeError> {
        let Json::Obj(pairs) = v else {
            return Err(DecodeError::new("expected an object"));
        };
        let mut cycles = ComponentCycles::new();
        for (key, ns) in pairs {
            let c = Component::from_key(key);
            let c = c.ok_or_else(|| DecodeError::new(format!("unknown component `{key}`")))?;
            cycles.raw_add(c, u64::decode(ns).map_err(|e| e.in_key(key))?);
        }
        Ok(cycles)
    }
}

/// A fixed-bucket power-of-two latency histogram over `u64` nanoseconds.
///
/// Bucket 0 counts exact zeros; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. With [`LOG2_BUCKETS`] buckets the full `u64` range
/// is covered, merge is plain bucket addition (exact, associative,
/// commutative), and the footprint is a flat array — cheap enough to
/// live on the simulation hot path.
///
/// # Example
///
/// ```
/// use nisim_engine::metrics::Log2Hist;
/// let mut h = Log2Hist::new();
/// h.record(0);
/// h.record(5);
/// h.record(7);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.bucket_count(0), 1); // the zero
/// assert_eq!(h.bucket_count(3), 2); // 4..8
/// ```
#[derive(Clone)]
pub struct Log2Hist {
    counts: [u64; LOG2_BUCKETS],
    total: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist::new()
    }
}

impl PartialEq for Log2Hist {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.counts[..] == other.counts[..]
    }
}

impl Eq for Log2Hist {}

impl std::fmt::Debug for Log2Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log2Hist")
            .field("count", &self.total)
            .field("nonzero", &self.nonzero().collect::<Vec<_>>())
            .finish()
    }
}

impl Log2Hist {
    /// Creates an empty histogram.
    pub fn new() -> Log2Hist {
        Log2Hist {
            counts: [0; LOG2_BUCKETS],
            total: 0,
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        assert!(i < LOG2_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.raw_record(Self::bucket_of(value), n);
    }

    /// Raw bucket addition, for this module's merge and decode paths;
    /// instrumented code uses [`record`](Log2Hist::record) or
    /// [`record_n`](Log2Hist::record_n).
    #[inline]
    fn raw_record(&mut self, bucket: usize, n: u64) {
        self.counts[bucket] += n;
        self.total += n;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Observations in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Iterates `(bucket, count)` over the non-empty buckets, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Exclusive upper bound of bucket `i` as a float (`2^i`; bucket 0
    /// is the point bucket for the value 0). Exact: `2^i` is a power of
    /// two representable in f64 for every `i < 65`.
    pub fn bucket_hi(i: usize) -> f64 {
        assert!(i < LOG2_BUCKETS, "bucket {i} out of range");
        if i == 0 {
            0.0
        } else {
            (1u128 << i) as f64
        }
    }

    /// Linearly interpolated percentile (`p` in `0..=1`) of the recorded
    /// values, resolved inside the power-of-two buckets — see
    /// [`interpolated_percentile`]. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        interpolated_percentile(
            self.total,
            p,
            self.nonzero()
                .map(|(i, c)| (Self::bucket_lo(i) as f64, Self::bucket_hi(i), c)),
        )
    }

    /// The p50/p99/p999 block the tail-latency studies report.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.percentile(0.50),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }

    /// Merges another histogram into this one (exact).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (i, c) in other.nonzero() {
            self.raw_record(i, c);
        }
    }
}

/// `{"count": n, "buckets": [[i, c], ...]}`, shared by breakdown records
/// and checkpoints; the bucket counts must sum to `count`.
impl Codec for Log2Hist {
    fn encode(&self) -> Json {
        let buckets: Vec<(usize, u64)> = self.nonzero().collect();
        Json::obj()
            .set("count", self.count())
            .set("buckets", buckets.encode())
    }
    fn decode(v: &Json) -> Result<Log2Hist, DecodeError> {
        let mut f = Fields::of(v)?;
        let count: u64 = f.get("count")?;
        let buckets: Vec<(usize, u64)> = f.get("buckets")?;
        f.finish()?;
        let mut h = Log2Hist::new();
        for (i, c) in buckets {
            ensure(i < LOG2_BUCKETS, "bucket index out of range")?;
            h.raw_record(i, c);
        }
        ensure(h.count() == count, "bucket counts do not sum to the count")?;
        Ok(h)
    }
}

/// The full observability payload of one run: the component cycle
/// breakdown plus the three latency histograms the study reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsBreakdown {
    /// Per-component cycles.
    pub cycles: ComponentCycles,
    /// Message round-trip latency (ns), send start to assembly drained.
    pub msg_rtt: Log2Hist,
    /// Fragment queueing delay (ns): deposit-complete to drain start.
    pub frag_queue: Log2Hist,
    /// Bus grant wait (ns): request to arbitration win.
    pub bus_grant_wait: Log2Hist,
}

impl MetricsBreakdown {
    /// Merges another breakdown into this one (exact).
    pub fn merge(&mut self, other: &MetricsBreakdown) {
        self.cycles.merge(&other.cycles);
        self.msg_rtt.merge(&other.msg_rtt);
        self.frag_queue.merge(&other.frag_queue);
        self.bus_grant_wait.merge(&other.bus_grant_wait);
    }
}

/// Total first, then every component (zeros included) in reporting
/// order, then the three histograms; the components must sum to the
/// total.
impl Codec for MetricsBreakdown {
    fn encode(&self) -> Json {
        let components = self
            .cycles
            .iter()
            .map(|(c, ns)| (c.key().into(), ns.encode()));
        Json::obj()
            .set("total_ns", self.cycles.total().as_ns())
            .set("components", Json::Obj(components.collect()))
            .set("msg_rtt", self.msg_rtt.encode())
            .set("frag_queue", self.frag_queue.encode())
            .set("bus_grant_wait", self.bus_grant_wait.encode())
    }
    fn decode(v: &Json) -> Result<MetricsBreakdown, DecodeError> {
        let mut f = Fields::of(v)?;
        let total: u64 = f.get("total_ns")?;
        let b = MetricsBreakdown {
            cycles: f.get("components")?,
            msg_rtt: f.get("msg_rtt")?,
            frag_queue: f.get("frag_queue")?,
            bus_grant_wait: f.get("bus_grant_wait")?,
        };
        f.finish()?;
        ensure(
            b.cycles.total().as_ns() == total,
            "components do not sum to the total",
        )?;
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_keys_round_trip() {
        for c in Component::ALL {
            assert_eq!(Component::from_key(c.key()), Some(c));
            assert_eq!(Component::ALL[c.index()], c);
        }
        assert_eq!(Component::from_key("bus"), None);
        assert!(Component::BusUpgrade.is_bus());
        assert!(!Component::ProcSend.is_bus());
    }

    #[test]
    fn cycles_sum_to_total() {
        let mut c = ComponentCycles::new();
        c.charge(Component::ProcSend, Dur::ns(10));
        c.charge(Component::ProcSend, Dur::ns(5));
        c.charge(Component::Retransmit, Dur::ns(7));
        assert_eq!(c.total(), Dur::ns(22));
        let sum: u64 = c.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, c.total().as_ns());
        assert!((c.fraction(Component::ProcSend) - 15.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_merge_is_exact() {
        let mut a = ComponentCycles::new();
        a.charge(Component::BusUpgrade, Dur::ns(8));
        let mut b = ComponentCycles::new();
        b.charge(Component::BusUpgrade, Dur::ns(2));
        b.charge(Component::NiResidency, Dur::ns(100));
        a.merge(&b);
        assert_eq!(a.get(Component::BusUpgrade), Dur::ns(10));
        assert_eq!(a.total(), Dur::ns(110));
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 1);
        assert_eq!(Log2Hist::bucket_of(2), 2);
        assert_eq!(Log2Hist::bucket_of(3), 2);
        assert_eq!(Log2Hist::bucket_of(4), 3);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Hist::bucket_lo(0), 0);
        assert_eq!(Log2Hist::bucket_lo(1), 1);
        assert_eq!(Log2Hist::bucket_lo(64), 1 << 63);
    }

    #[test]
    fn hist_counts_and_merge() {
        let mut a = Log2Hist::new();
        for v in [0, 1, 3, 900] {
            a.record(v);
        }
        let mut b = Log2Hist::new();
        b.record(900);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.bucket_count(Log2Hist::bucket_of(900)), 2);
        let sum: u64 = a.nonzero().map(|(_, c)| c).sum();
        assert_eq!(sum, a.count());
    }

    #[test]
    fn breakdown_json_round_trips() {
        let mut b = MetricsBreakdown::default();
        b.cycles.charge(Component::ProcRecv, Dur::ns(42));
        b.cycles.charge(Component::LinkSerialization, Dur::ns(9));
        b.msg_rtt.record(1_500);
        b.frag_queue.record(0);
        b.bus_grant_wait.record(16);
        let j = b.encode();
        let back = MetricsBreakdown::decode(&j).expect("parses");
        assert_eq!(back, b);
        // A corrupted total must be rejected, not silently accepted.
        let mut bad = j.clone();
        if let Json::Obj(pairs) = &mut bad {
            pairs[0].1 = Json::Num(1.0);
        }
        assert!(MetricsBreakdown::decode(&bad).is_err());
    }

    #[test]
    fn metrics_config_defaults_off() {
        assert!(!MetricsConfig::default().any());
        assert!(MetricsConfig::enabled().any());
        assert!(MetricsConfig::traced().trace);
    }
}
