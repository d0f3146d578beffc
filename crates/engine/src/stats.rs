//! Statistics primitives for experiment reporting.
//!
//! Three small accumulators cover everything the study reports:
//!
//! * [`Counter`] — named event counts (bus transactions, retries, …),
//! * [`Summary`] — online min/max/mean/variance of a sample stream
//!   (round-trip latencies, queue depths, …),
//! * [`Histogram`] — value histograms with caller-defined bucket edges
//!   (message-size distributions for Table 4).

use std::collections::BTreeMap;
use std::fmt;

use crate::codec::{ensure, Codec, DecodeError, Fields};
use crate::json::{f64_bits_hex, f64_from_bits_hex, Json};

/// The three tail percentiles the load/latency studies report, in
/// the unit of the underlying samples (nanoseconds for latency
/// histograms). Extracted by linear interpolation inside histogram
/// buckets — see [`interpolated_percentile`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl Percentiles {
    /// True iff `p50 ≤ p99 ≤ p999` — always holds for percentiles
    /// extracted from one histogram; asserted by the property tests.
    pub fn is_monotone(&self) -> bool {
        self.p50 <= self.p99 && self.p99 <= self.p999
    }
}

/// Linearly interpolated percentile over ordered histogram buckets.
///
/// `buckets` yields `(lo, hi, count)` triples in ascending value order,
/// where each bucket covers the half-open range `[lo, hi)` (a point
/// bucket has `lo == hi` and contributes its bound exactly); `total`
/// must equal the sum of the counts. The percentile rank `p` (clamped
/// to `0..=1`) is resolved to a fractional position inside the bucket
/// where the cumulative count crosses `p * total`:
///
/// ```text
/// value = lo + (hi - lo) * (rank - cum_before) / count
/// ```
///
/// Only IEEE-754 `+ - * /` arithmetic is used, so the result is
/// bit-identical on every platform — safe for committed goldens.
/// Returns 0 for an empty histogram.
pub fn interpolated_percentile<I>(total: u64, p: f64, buckets: I) -> f64
where
    I: Iterator<Item = (f64, f64, u64)>,
{
    if total == 0 {
        return 0.0;
    }
    let p = p.clamp(0.0, 1.0);
    let rank = p * total as f64;
    let mut seen = 0u64;
    let mut last_hi = 0.0f64;
    for (lo, hi, count) in buckets {
        if count == 0 {
            continue;
        }
        let before = seen as f64;
        seen += count;
        last_hi = hi.max(lo);
        if seen as f64 >= rank {
            if hi <= lo {
                return lo;
            }
            let frac = (rank - before) / count as f64;
            // rank == before happens at p = 0: report the bucket floor.
            return lo + (hi - lo) * frac.max(0.0);
        }
    }
    last_hi
}

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use nisim_engine::stats::Counter;
/// let mut c = Counter::new();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Online summary statistics (count, min, max, mean, variance) using
/// Welford's algorithm.
///
/// # Example
///
/// ```
/// use nisim_engine::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (0 if empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest sample (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over `u64` values with exact per-value counts.
///
/// Message-size distributions in the study have a handful of distinct modal
/// sizes, so we count exact values and let reporting group them.
///
/// # Example
///
/// ```
/// use nisim_engine::stats::Histogram;
/// let mut h = Histogram::new();
/// h.record(12);
/// h.record(12);
/// h.record(140);
/// assert_eq!(h.count_of(12), 2);
/// assert_eq!(h.total(), 3);
/// assert!((h.fraction_of(12) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of observations of exactly `value`.
    pub fn count_of(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Fraction of observations equal to `value` (0 if empty).
    pub fn fraction_of(&self, value: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_of(value) as f64 / self.total as f64
        }
    }

    /// Mean observed value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Iterates over `(value, count)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// The distinct values observed, ascending.
    pub fn values(&self) -> Vec<u64> {
        self.counts.keys().copied().collect()
    }

    /// The smallest value at or below which at least `p` (0..=1) of the
    /// observations fall (0 if empty).
    ///
    /// # Example
    ///
    /// ```
    /// use nisim_engine::stats::Histogram;
    /// let mut h = Histogram::new();
    /// for v in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] { h.record(v); }
    /// assert_eq!(h.percentile(0.5), 5);
    /// assert_eq!(h.percentile(0.9), 9);
    /// assert_eq!(h.percentile(1.0), 10);
    /// ```
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let mut value = 0;
        for (v, count) in self.iter() {
            value = v;
            seen += count;
            if seen >= target {
                break;
            }
        }
        value
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }
}

/// The exact internal state, floats as IEEE-754 bit patterns so the ±∞
/// min/max sentinels and the Welford `m2` accumulator survive
/// byte-exactly. No accumulator may be NaN, and a non-empty summary's
/// mean and range must be finite and ordered: reports print them, and
/// JSON cannot hold a non-finite number.
impl Codec for Summary {
    fn encode(&self) -> Json {
        let bits = |x: f64| Json::from(f64_bits_hex(x));
        Json::obj()
            .set("count", self.count)
            .set("mean", bits(self.mean))
            .set("m2", bits(self.m2))
            .set("min", bits(self.min))
            .set("max", bits(self.max))
            .set("sum", bits(self.sum))
    }
    fn decode(v: &Json) -> Result<Summary, DecodeError> {
        let mut f = Fields::of(v)?;
        let count = f.get("count")?;
        let mut bits = |key: &str| {
            let hex = |j: &Json| j.as_str().and_then(f64_from_bits_hex);
            f.with(key, |j| {
                hex(j).ok_or_else(|| DecodeError::new("expected 16 hex digits"))
            })
        };
        let s = Summary {
            count,
            mean: bits("mean")?,
            m2: bits("m2")?,
            min: bits("min")?,
            max: bits("max")?,
            sum: bits("sum")?,
        };
        f.finish()?;
        let no_nan = [s.mean, s.m2, s.min, s.max, s.sum]
            .iter()
            .all(|x| !x.is_nan());
        let shown = [s.mean, s.min, s.max].iter().all(|x| x.is_finite()) && s.min <= s.max;
        ensure(no_nan && (s.count == 0 || shown), "summary out of range")?;
        Ok(s)
    }
}

/// `[[value, count], ...]` in ascending value order; totals are rebuilt.
impl Codec for Histogram {
    fn encode(&self) -> Json {
        self.iter().collect::<Vec<_>>().encode()
    }
    fn decode(v: &Json) -> Result<Histogram, DecodeError> {
        let mut h = Histogram::new();
        for (value, count) in BTreeMap::<u64, u64>::decode(v)? {
            h.record_n(value, count);
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(5);
        assert_eq!(c.get(), 6);
        assert_eq!(c.to_string(), "6");
    }

    #[test]
    fn summary_mean_and_variance() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0, 3.0, 9.0];
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..3] {
            a.record(x);
        }
        for &x in &xs[3..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn histogram_counts_and_fractions() {
        let mut h = Histogram::new();
        h.record_n(12, 67);
        h.record_n(32, 32);
        h.record(999);
        assert_eq!(h.total(), 100);
        assert!((h.fraction_of(12) - 0.67).abs() < 1e-12);
        assert_eq!(h.count_of(777), 0);
        assert_eq!(h.values(), vec![12, 32, 999]);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new();
        h.record_n(10, 2);
        h.record_n(40, 2);
        assert!((h.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        h.record_n(10, 90);
        h.record_n(100, 9);
        h.record(1000);
        assert_eq!(h.percentile(0.5), 10);
        assert_eq!(h.percentile(0.95), 100);
        assert_eq!(h.percentile(0.999), 1000);
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn summary_json_round_trips_exactly() {
        let mut s = Summary::new();
        for x in [1.0, 5.5, -2.25, 1e300] {
            s.record(x);
        }
        let back = Summary::decode(&s.encode()).expect("parses");
        assert_eq!(back, s);
        // The empty summary's ±∞ sentinels survive the round trip.
        let empty = Summary::decode(&Summary::new().encode()).expect("parses");
        assert_eq!(empty, Summary::new());
        assert_eq!(empty.min(), f64::INFINITY);
        assert!(Summary::decode(&Json::obj()).is_err());
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        h.record_n(12, 67);
        h.record_n(32, 32);
        h.record(999);
        assert_eq!(Histogram::decode(&h.encode()), Ok(h));
        assert_eq!(Histogram::decode(&Json::Arr(vec![])), Ok(Histogram::new()));
        assert!(Histogram::decode(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record_n(8, 3);
        let mut b = Histogram::new();
        b.record_n(8, 2);
        b.record(16);
        a.merge(&b);
        assert_eq!(a.count_of(8), 5);
        assert_eq!(a.total(), 6);
    }
}
