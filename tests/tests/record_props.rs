//! Property tests for the machine-readable result records: JSON
//! serialization must be a lossless round trip AND a fixed point (the
//! bytes a parsed document re-serializes to are the bytes it came from —
//! the guarantee the golden byte-comparison and the `--jobs` determinism
//! tests lean on), and execution-time accounting must be complete.
//!
//! The container is offline (no proptest), so the generator is a small
//! hand-rolled LCG — deterministic, so failures reproduce exactly.

use nisim_bench::record::{
    document, parse_document, sweep_to_json, LatencyBrief, RunRecord, StallBrief, TenantBrief,
};
use nisim_bench::{Patch, Sweep};
use nisim_core::{NiKind, TimeCategory};
use nisim_engine::json::parse;
use nisim_engine::metrics::{Component, MetricsBreakdown};
use nisim_engine::Dur;
use nisim_net::BufferCount;
use nisim_workloads::apps::{AppParams, MacroApp};

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

    /// A finite, sign-varied f64 with both integral and fractional cases.
    fn float(&mut self) -> f64 {
        let numer = self.below(1 << 53) as f64;
        let denom = (self.below(1000) + 1) as f64;
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * numer / denom
    }
}

/// A synthetic observability payload, built through the safe
/// charge/record API so the sum-to-total invariant holds by
/// construction (as it must for `from_json` to accept it back).
fn arbitrary_breakdown(rng: &mut Lcg) -> MetricsBreakdown {
    let mut b = MetricsBreakdown::default();
    for _ in 0..rng.below(40) {
        let c = Component::ALL[rng.below(Component::ALL.len() as u64) as usize];
        b.cycles.charge(c, Dur::ns(rng.next() >> 24));
    }
    for _ in 0..rng.below(20) {
        b.msg_rtt.record(rng.next() >> rng.below(60));
        b.frag_queue.record(rng.below(1 << 20));
        b.bus_grant_wait.record(rng.below(4096));
    }
    b
}

fn arbitrary_record(rng: &mut Lcg) -> RunRecord {
    let statuses = ["drained", "horizon", "event-budget", "stalled"];
    let status = statuses[rng.below(4) as usize].to_string();
    let stall = if status == "stalled" {
        Some(StallBrief {
            at_ns: rng.next() >> 12,
            reason: format!("no progress for {} ns", rng.below(1_000_000)),
            wedged: rng.below(64),
        })
    } else {
        None
    };
    let counters = (0..rng.below(8))
        .map(|i| (format!("counter_{i}"), rng.next() >> 11))
        .collect();
    let msg_sizes = (0..rng.below(5))
        .map(|_| (rng.below(4096), rng.below(10_000)))
        .collect();
    let metrics = (0..rng.below(4))
        .map(|i| (format!("metric_{i}"), rng.float()))
        .collect();
    let count = rng.below(1000);
    RunRecord {
        work: format!("work:{}", rng.below(100)),
        ni: format!("ni{}", rng.below(10)),
        buffers: if rng.below(2) == 0 {
            "inf".to_string()
        } else {
            rng.below(64).to_string()
        },
        patch: if rng.below(2) == 0 {
            String::new()
        } else {
            format!("patch={}", rng.below(100))
        },
        fingerprint: format!("{:016x}", rng.next()),
        status,
        quiescent: rng.below(2) == 0,
        // Shifted into the f64-exact integer range the JSON layer allows.
        elapsed_ns: rng.next() >> 11,
        accounting_ns: [
            rng.next() >> 12,
            rng.next() >> 12,
            rng.next() >> 12,
            rng.next() >> 12,
        ],
        counters,
        msg_sizes,
        latency: if count == 0 {
            LatencyBrief {
                count: 0,
                mean_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
            }
        } else {
            LatencyBrief {
                count,
                mean_ns: rng.float().abs(),
                min_ns: rng.float().abs(),
                max_ns: rng.float().abs(),
            }
        },
        metrics,
        stall,
        breakdown: if rng.below(3) == 0 {
            Some(arbitrary_breakdown(rng))
        } else {
            None
        },
        tenants: (0..rng.below(4))
            .map(|i| {
                let mut hist = nisim_engine::metrics::Log2Hist::default();
                for _ in 0..rng.below(30) {
                    hist.record(rng.next() >> rng.below(50));
                }
                TenantBrief {
                    name: format!("tenant{i}"),
                    offered: rng.below(10_000),
                    delivered: rng.below(10_000),
                    p50_ns: rng.float().abs(),
                    p99_ns: rng.float().abs(),
                    p999_ns: rng.float().abs(),
                    hist,
                }
            })
            .collect(),
    }
}

/// serialize -> parse -> deserialize reproduces the record exactly, and
/// serialize(parse(text)) == text, over a wide space of synthetic
/// records (including stalled ones and awkward floats).
#[test]
fn json_round_trip_is_lossless_and_a_fixed_point() {
    let mut rng = Lcg(0x5eed_0001);
    for i in 0..200 {
        let record = arbitrary_record(&mut rng);
        let json = record.to_json();
        let text = json.to_pretty();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("case {i}: {e}"));
        assert_eq!(
            reparsed.to_pretty(),
            text,
            "case {i}: serialization must be a fixed point"
        );
        let back = RunRecord::from_json(&reparsed)
            .unwrap_or_else(|e| panic!("case {i}: deserialize: {e}"));
        assert_eq!(back, record, "case {i}: round trip must be lossless");
    }
}

/// Whole documents (multiple sweeps of synthetic records) survive the
/// parse_document round trip byte for byte.
#[test]
fn documents_round_trip_byte_for_byte() {
    let mut rng = Lcg(0x5eed_0002);
    for _ in 0..20 {
        let sections: Vec<(String, Vec<RunRecord>)> = (0..rng.below(4) + 1)
            .map(|s| {
                let records = (0..rng.below(6))
                    .map(|_| arbitrary_record(&mut rng))
                    .collect();
                (format!("sweep-{s}"), records)
            })
            .collect();
        let doc = document(sections.iter().map(|(n, r)| sweep_to_json(n, r)).collect());
        let text = doc.to_pretty();
        let parsed = parse_document(&text).expect("document parses");
        assert_eq!(parsed, sections);
        let again = document(parsed.iter().map(|(n, r)| sweep_to_json(n, r)).collect());
        assert_eq!(again.to_pretty(), text, "document must be a fixed point");
    }
}

/// Records produced by real runs account for every nanosecond: the four
/// category fractions sum to 1 (and each is within [0, 1]), across NIs,
/// buffer levels and seeds.
#[test]
fn real_records_account_for_all_time() {
    let params = AppParams {
        iterations: 2,
        intensity: 2,
        compute: Dur::us(2),
    };
    let patches = (0..3)
        .map(|i| Patch {
            label: format!("seed={i}"),
            nodes: Some(4),
            seed: Some(i),
            params: Some(params),
            ..Patch::default()
        })
        .collect();
    let sweep = Sweep::new("accounting-props")
        .apps(&[MacroApp::Em3d, MacroApp::Spsolve])
        .nis(&[NiKind::Cm5, NiKind::Cni32Qm])
        .buffers(&[BufferCount::Finite(1), BufferCount::Infinite])
        .patches(patches);
    let records = sweep.run(2);
    assert_eq!(records.len(), 2 * 2 * 2 * 3);
    for r in &records {
        assert!(
            r.accounted_ns() > 0,
            "{}/{} accounted nothing",
            r.work,
            r.ni
        );
        let mut sum = 0.0;
        for &cat in &TimeCategory::ALL {
            let f = r.fraction(cat);
            assert!((0.0..=1.0).contains(&f), "{}/{} {cat:?}: {f}", r.work, r.ni);
            sum += f;
        }
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}/{}/{}: fractions sum to {sum}",
            r.work,
            r.ni,
            r.patch
        );
        // And these real records round-trip too.
        let back = RunRecord::from_json(&r.to_json()).expect("round trip");
        assert_eq!(&back, r);
    }
}
