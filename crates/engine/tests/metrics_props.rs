//! Property tests for the observability primitives: log2 histograms and
//! component cycle counters must merge exactly (associative,
//! commutative, order-independent — the guarantee that lets per-node
//! accumulators be combined into one machine breakdown in any order),
//! and their internal invariants (buckets sum to the count, components
//! sum to the total) must hold under every operation sequence.
//!
//! The container is offline (no proptest), so the generator is a small
//! hand-rolled LCG — deterministic, so failures reproduce exactly.

use nisim_engine::metrics::{Component, ComponentCycles, Log2Hist, LOG2_BUCKETS};
use nisim_engine::Dur;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// A value spread across the histogram's whole log range: zeros,
    /// small integers, and large magnitudes are all common.
    fn spread(&mut self) -> u64 {
        match self.below(8) {
            0 => 0,
            1 => self.below(4),
            2 => self.below(1 << 10),
            _ => self.next() >> self.below(60),
        }
    }
}

fn arbitrary_hist(rng: &mut Lcg, max_obs: u64) -> Log2Hist {
    let mut h = Log2Hist::new();
    for _ in 0..rng.below(max_obs) {
        h.record(rng.spread());
    }
    h
}

fn arbitrary_cycles(rng: &mut Lcg, max_charges: u64) -> ComponentCycles {
    let mut c = ComponentCycles::new();
    for _ in 0..rng.below(max_charges) {
        let comp = Component::ALL[rng.below(Component::ALL.len() as u64) as usize];
        c.charge(comp, Dur::ns(rng.next() >> 24));
    }
    c
}

fn merged(a: &Log2Hist, b: &Log2Hist) -> Log2Hist {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn merged_cycles(a: &ComponentCycles, b: &ComponentCycles) -> ComponentCycles {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Bucket placement: every observation lands in the bucket whose range
/// contains it, and the zero bucket holds exactly the zeros.
#[test]
fn hist_buckets_contain_their_values() {
    let mut rng = Lcg(0x5eed_1001);
    for _ in 0..2000 {
        let v = rng.spread();
        let i = Log2Hist::bucket_of(v);
        assert!(i < LOG2_BUCKETS, "{v} -> bucket {i}");
        assert!(Log2Hist::bucket_lo(i) <= v, "{v} below bucket {i} lo");
        if i + 1 < LOG2_BUCKETS {
            assert!(v < Log2Hist::bucket_lo(i + 1), "{v} beyond bucket {i}");
        }
        assert_eq!(i == 0, v == 0, "only zero lands in bucket 0");
    }
    assert_eq!(Log2Hist::bucket_of(u64::MAX), LOG2_BUCKETS - 1);
}

/// Buckets sum to the count after any record sequence, and the
/// histogram equals the one built from the same multiset in any order.
#[test]
fn hist_buckets_sum_to_count_and_order_does_not_matter() {
    let mut rng = Lcg(0x5eed_1002);
    for case in 0..100 {
        let values: Vec<u64> = (0..rng.below(200)).map(|_| rng.spread()).collect();
        let mut forward = Log2Hist::new();
        for &v in &values {
            forward.record(v);
        }
        assert_eq!(forward.count(), values.len() as u64, "case {case}");
        let bucket_sum: u64 = forward.nonzero().map(|(_, c)| c).sum();
        assert_eq!(bucket_sum, forward.count(), "case {case}: buckets sum");

        let mut reversed = Log2Hist::new();
        for &v in values.iter().rev() {
            reversed.record(v);
        }
        assert_eq!(
            forward, reversed,
            "case {case}: record order must not matter"
        );
    }
}

/// Merge is associative, commutative, and has the empty histogram as
/// identity; merging equals recording the concatenated streams.
#[test]
fn hist_merge_is_exact_associative_and_commutative() {
    let mut rng = Lcg(0x5eed_1003);
    for case in 0..100 {
        let a = arbitrary_hist(&mut rng, 100);
        let b = arbitrary_hist(&mut rng, 100);
        let c = arbitrary_hist(&mut rng, 100);

        assert_eq!(merged(&a, &b), merged(&b, &a), "case {case}: commutative");
        assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c)),
            "case {case}: associative"
        );
        assert_eq!(merged(&a, &Log2Hist::new()), a, "case {case}: identity");
        let ab = merged(&a, &b);
        assert_eq!(ab.count(), a.count() + b.count(), "case {case}: counts add");
        for i in 0..LOG2_BUCKETS {
            assert_eq!(
                ab.bucket_count(i),
                a.bucket_count(i) + b.bucket_count(i),
                "case {case}: bucket {i} adds exactly"
            );
        }
    }
}

/// Components sum to the total after any charge sequence and any merge
/// tree — the invariant `MetricsBreakdown::decode` re-checks and the
/// breakdown experiment asserts on every record.
#[test]
fn cycles_components_sum_to_total_under_merges() {
    let mut rng = Lcg(0x5eed_1004);
    for case in 0..100 {
        let parts: Vec<ComponentCycles> = (0..rng.below(6) + 1)
            .map(|_| arbitrary_cycles(&mut rng, 50))
            .collect();
        let mut all = ComponentCycles::new();
        for p in &parts {
            let sum: u64 = p.iter().map(|(_, ns)| ns).sum();
            assert_eq!(sum, p.total().as_ns(), "case {case}: part sums to total");
            all.merge(p);
        }
        let sum: u64 = all.iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            sum,
            all.total().as_ns(),
            "case {case}: merged sums to total"
        );
        let part_total: u64 = parts.iter().map(|p| p.total().as_ns()).sum();
        assert_eq!(all.total().as_ns(), part_total, "case {case}: totals add");
        for c in Component::ALL {
            let part_sum: u64 = parts.iter().map(|p| p.get(c).as_ns()).sum();
            assert_eq!(all.get(c).as_ns(), part_sum, "case {case}: {c} adds");
        }
    }
}

/// Cycle merge is associative and commutative, like the histograms.
#[test]
fn cycles_merge_is_associative_and_commutative() {
    let mut rng = Lcg(0x5eed_1005);
    for case in 0..100 {
        let a = arbitrary_cycles(&mut rng, 60);
        let b = arbitrary_cycles(&mut rng, 60);
        let c = arbitrary_cycles(&mut rng, 60);
        assert_eq!(
            merged_cycles(&a, &b),
            merged_cycles(&b, &a),
            "case {case}: commutative"
        );
        assert_eq!(
            merged_cycles(&merged_cycles(&a, &b), &c),
            merged_cycles(&a, &merged_cycles(&b, &c)),
            "case {case}: associative"
        );
        assert_eq!(
            merged_cycles(&a, &ComponentCycles::new()),
            a,
            "case {case}: identity"
        );
    }
}

/// Fractions are well-formed: each in [0, 1], summing to 1 on non-empty
/// counters and to 0 on empty ones.
#[test]
fn cycles_fractions_partition_unity() {
    let mut rng = Lcg(0x5eed_1006);
    let empty = ComponentCycles::new();
    assert!(empty.is_empty());
    assert_eq!(
        Component::ALL
            .iter()
            .map(|&c| empty.fraction(c))
            .sum::<f64>(),
        0.0
    );
    for case in 0..100 {
        let c = arbitrary_cycles(&mut rng, 50);
        if c.is_empty() {
            continue;
        }
        let mut sum = 0.0;
        for comp in Component::ALL {
            let f = c.fraction(comp);
            assert!((0.0..=1.0).contains(&f), "case {case}: {comp} -> {f}");
            sum += f;
        }
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "case {case}: fractions sum to {sum}"
        );
    }
}
