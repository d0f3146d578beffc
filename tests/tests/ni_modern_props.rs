//! Property tests for the three modern NI models (RDMA queue pairs,
//! connectionless URMA, scatter-gather DMA).
//!
//! Cases come from the shared hand-rolled `Lcg`, so failures reproduce.

use nisim_core::ni::rdma_qp::RdmaQpNi;
use nisim_core::ni::sgdma::{decode_gather_tag, encode_gather_tag, Descriptor};
use nisim_core::{MachineConfig, NiKind};
use nisim_integration::Lcg;
use nisim_workloads::micro::pingpong::measure_round_trip;

/// Round-trip latency on the RDMA queue-pair NI is monotone in the
/// payload: more blocks cost more inside either protocol, and crossing
/// the eager/rendezvous boundary only ever *adds* the handshake. A
/// non-monotonic pair would mean the crossover is set where rendezvous
/// undercuts eager — the kink the goldens assert would be an artefact.
#[test]
fn rdma_round_trip_is_monotone_across_the_crossover() {
    let cfg = MachineConfig::with_ni(NiKind::RdmaQp);
    let mut rng = Lcg(0x5eed_4001);
    let mut payloads: Vec<u64> = (0..12).map(|_| 1 + rng.below(248)).collect();
    // Always include the boundary itself and its far sides.
    payloads.extend([8, cfg.costs.rdma_eager_max_payload, 248]);
    payloads.sort_unstable();
    payloads.dedup();
    let rtts: Vec<(u64, f64)> = payloads
        .iter()
        .map(|&p| (p, measure_round_trip(&cfg, p).expect("drains").0.mean_us))
        .collect();
    for pair in rtts.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "rtt must not shrink with payload: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
}

/// The QP-state cache conserves its accounting under any lookup stream:
/// hits + misses == lookups, the resident set never exceeds capacity,
/// and a connection is only ever a hit if *that* connection (not a
/// neighbour) was touched within the last `capacity` distinct lookups.
#[test]
fn qp_cache_conserves_lookups_and_never_leaks_across_connections() {
    let mut rng = Lcg(0x5eed_4002);
    for case in 0..40 {
        let capacity = 1 + rng.below(32) as u32;
        let cfg = MachineConfig::with_ni(NiKind::RdmaQp).qp_cache_entries(capacity);
        let mut ni = RdmaQpNi::new(&cfg);
        // A reference LRU the model must agree with.
        let mut reference: Vec<u32> = Vec::new();
        for step in 0..400 {
            let conn = 1 + rng.below(48) as u32;
            let hit = ni.lookup(conn);
            let expect = reference.contains(&conn);
            assert_eq!(
                hit, expect,
                "case {case}@{step}: conn {conn} hit={hit} but reference says {expect}"
            );
            reference.retain(|&c| c != conn);
            reference.push(conn);
            if reference.len() as u64 > ni.capacity() {
                reference.remove(0);
            }

            let (lookups, hits, misses) = ni.counters();
            assert_eq!(
                hits + misses,
                lookups,
                "case {case}@{step}: accounting must conserve lookups"
            );
            assert!(
                ni.cached().len() as u64 <= ni.capacity(),
                "case {case}@{step}: resident set exceeds capacity"
            );
            assert_eq!(
                ni.cached(),
                &reference[..],
                "case {case}@{step}: LRU order diverged"
            );
        }
    }
}

/// Gather followed by scatter is the identity on the described elements:
/// for random base/stride/count/width, gathering from a pattern-filled
/// source and scattering into a zeroed destination reproduces exactly
/// the strided bytes and touches nothing else.
#[test]
fn descriptor_gather_scatter_round_trips_random_geometries() {
    let mut rng = Lcg(0x5eed_4003);
    for case in 0..200 {
        let count = 1 + rng.below(24);
        let elem_bytes = 1 + rng.below(32);
        let stride = elem_bytes + rng.below(48);
        let base = rng.below(64);
        let span = base + stride * (count - 1) + elem_bytes;
        let src: Vec<u8> = (0..span).map(|i| (i * 31 + case) as u8).collect();
        let desc = Descriptor {
            base,
            stride,
            elem_bytes,
            count,
        };
        let packed = desc
            .gather(&src)
            .unwrap_or_else(|| panic!("case {case}: in-range gather refused: {desc:?}"));
        assert_eq!(packed.len() as u64, desc.total_bytes());

        let mut dst = vec![0u8; span as usize];
        assert!(desc.scatter(&packed, &mut dst), "case {case}: {desc:?}");
        for e in 0..count {
            let at = (base + e * stride) as usize;
            let w = elem_bytes as usize;
            assert_eq!(
                &dst[at..at + w],
                &src[at..at + w],
                "case {case}: element {e} corrupted"
            );
        }
        // Bytes outside the described elements stay untouched (zero).
        let mut described = vec![false; span as usize];
        for e in 0..count {
            let at = (base + e * stride) as usize;
            described[at..at + elem_bytes as usize].fill(true);
        }
        for (i, hit) in described.iter().enumerate() {
            if !hit {
                assert_eq!(dst[i], 0, "case {case}: stray write at {i}");
            }
        }

        // The wire tag round-trips the same geometry when it fits.
        if count <= 0x3FFF && elem_bytes <= 0xFFFF {
            let tag = encode_gather_tag(count as u32, elem_bytes as u32);
            assert_eq!(decode_gather_tag(tag), Some((count, elem_bytes)));
        }
    }
}
