//! Execution-time accounting (Figure 1 of the paper).
//!
//! Every processor nanosecond is attributed to exactly one category:
//!
//! * [`TimeCategory::Compute`] — application work and active-message
//!   handler bodies,
//! * [`TimeCategory::DataTransfer`] — messaging-layer software and the
//!   cycles the processor spends moving message data to/from the NI
//!   (including stalls on bus/NI accesses it issued),
//! * [`TimeCategory::Buffering`] — stalls caused by buffering limits:
//!   waiting for a free flow-control send buffer, throttling, and the
//!   extra work of processor-managed buffer draining,
//! * [`TimeCategory::Idle`] — waiting for messages to arrive
//!   (synchronisation).
//!
//! The ledger enforces completeness: charges must be contiguous in time,
//! so the category durations always sum to the span covered.

use std::fmt;

use nisim_engine::codec::ensure;
use nisim_engine::{Dur, Time};

/// Where a span of processor time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Application computation (including handler bodies).
    Compute,
    /// Message data transfer between processor and NI.
    DataTransfer,
    /// Stalls attributable to (lack of) buffering.
    Buffering,
    /// Waiting for work.
    Idle,
}

impl TimeCategory {
    /// All categories, in reporting order.
    pub const ALL: [TimeCategory; 4] = [
        TimeCategory::Compute,
        TimeCategory::DataTransfer,
        TimeCategory::Buffering,
        TimeCategory::Idle,
    ];

    fn index(self) -> usize {
        match self {
            TimeCategory::Compute => 0,
            TimeCategory::DataTransfer => 1,
            TimeCategory::Buffering => 2,
            TimeCategory::Idle => 3,
        }
    }
}

impl fmt::Display for TimeCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimeCategory::Compute => "compute",
            TimeCategory::DataTransfer => "data transfer",
            TimeCategory::Buffering => "buffering",
            TimeCategory::Idle => "idle",
        })
    }
}

/// A per-processor time ledger with contiguity checking.
///
/// # Example
///
/// ```
/// use nisim_engine::Time;
/// use nisim_core::accounting::{TimeCategory, TimeLedger};
///
/// let mut ledger = TimeLedger::new(Time::ZERO);
/// ledger.charge_to(Time::from_ns(100), TimeCategory::Compute);
/// ledger.charge_to(Time::from_ns(130), TimeCategory::DataTransfer);
/// assert_eq!(ledger.total().as_ns(), 130);
/// assert!((ledger.fraction(TimeCategory::Compute) - 100.0 / 130.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct TimeLedger {
    totals: [Dur; 4],
    stamp: Time,
}

impl TimeLedger {
    /// Creates a ledger whose coverage starts at `start`.
    pub fn new(start: Time) -> TimeLedger {
        TimeLedger {
            totals: [Dur::ZERO; 4],
            stamp: start,
        }
    }

    /// The end of the span covered so far.
    pub fn stamp(&self) -> Time {
        self.stamp
    }

    /// Charges the span from the current stamp up to `until` to
    /// `category`, advancing the stamp.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the current stamp (which would leave a
    /// hole or an overlap in the accounting).
    pub fn charge_to(&mut self, until: Time, category: TimeCategory) {
        assert!(
            until >= self.stamp,
            "accounting must be contiguous: stamp {:?}, until {:?}",
            self.stamp,
            until
        );
        self.totals[category.index()] += until - self.stamp;
        self.stamp = until;
    }

    /// Total time accumulated in `category`.
    pub fn get(&self, category: TimeCategory) -> Dur {
        self.totals[category.index()]
    }

    /// Total time covered (sum of all categories).
    pub fn total(&self) -> Dur {
        self.totals.iter().copied().sum()
    }

    /// Fraction of the covered span in `category` (0 if nothing charged).
    pub fn fraction(&self, category: TimeCategory) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.get(category).as_ns() as f64 / total.as_ns() as f64
        }
    }

    /// Merges another ledger's totals (for machine-wide aggregates).
    pub fn merge(&mut self, other: &TimeLedger) {
        for c in TimeCategory::ALL {
            self.totals[c.index()] += other.get(c);
        }
    }
}

// A checkpointed ledger covers its node's run from time zero, and every
// charge advances the stamp by exactly what it adds to one category.
nisim_engine::struct_codec! {
    TimeLedger { totals, stamp }
    check |l: &TimeLedger| {
        let covered = l.totals.iter().try_fold(0u64, |sum, d| sum.checked_add(d.as_ns()));
        ensure(covered == Some(l.stamp.as_ns()), "category totals do not sum to the stamp")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_are_contiguous_and_complete() {
        let mut l = TimeLedger::new(Time::from_ns(10));
        l.charge_to(Time::from_ns(50), TimeCategory::Compute);
        l.charge_to(Time::from_ns(50), TimeCategory::Idle); // zero-length ok
        l.charge_to(Time::from_ns(80), TimeCategory::Buffering);
        assert_eq!(l.get(TimeCategory::Compute), Dur::ns(40));
        assert_eq!(l.get(TimeCategory::Idle), Dur::ZERO);
        assert_eq!(l.get(TimeCategory::Buffering), Dur::ns(30));
        assert_eq!(l.total(), Dur::ns(70));
        assert_eq!(l.stamp(), Time::from_ns(80));
    }

    #[test]
    #[should_panic(expected = "accounting must be contiguous")]
    fn backwards_charge_panics() {
        let mut l = TimeLedger::new(Time::from_ns(100));
        l.charge_to(Time::from_ns(50), TimeCategory::Compute);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut l = TimeLedger::new(Time::ZERO);
        l.charge_to(Time::from_ns(25), TimeCategory::Compute);
        l.charge_to(Time::from_ns(50), TimeCategory::DataTransfer);
        l.charge_to(Time::from_ns(75), TimeCategory::Buffering);
        l.charge_to(Time::from_ns(100), TimeCategory::Idle);
        let sum: f64 = TimeCategory::ALL.iter().map(|&c| l.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for c in TimeCategory::ALL {
            assert!((l.fraction(c) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_ledger_fractions_zero() {
        let l = TimeLedger::new(Time::ZERO);
        assert_eq!(l.fraction(TimeCategory::Compute), 0.0);
    }

    #[test]
    fn merge_adds_totals() {
        let mut a = TimeLedger::new(Time::ZERO);
        a.charge_to(Time::from_ns(10), TimeCategory::Compute);
        let mut b = TimeLedger::new(Time::ZERO);
        b.charge_to(Time::from_ns(5), TimeCategory::Compute);
        b.charge_to(Time::from_ns(9), TimeCategory::Idle);
        a.merge(&b);
        assert_eq!(a.get(TimeCategory::Compute), Dur::ns(15));
        assert_eq!(a.get(TimeCategory::Idle), Dur::ns(4));
    }

    #[test]
    fn category_display() {
        assert_eq!(TimeCategory::DataTransfer.to_string(), "data transfer");
    }
}
