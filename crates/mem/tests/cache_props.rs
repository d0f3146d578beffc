//! Randomised property tests of the cache and coherence substrate:
//! capacity and associativity invariants under arbitrary access streams,
//! and MOESI single-writer safety across a pair of agents. Cases are
//! generated with the engine's seedable PRNG for exact reproducibility.

use nisim_engine::SplitMix64;
use nisim_mem::{
    read_fill_state, snoop_transition, Addr, Cache, CacheConfig, MoesiState, SnoopKind,
};

/// The cache never holds more lines than its capacity, never holds the
/// same block twice, and every set respects its associativity.
#[test]
fn capacity_and_uniqueness() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xCAC0 + case);
        // Set counts must be powers of two.
        let sets_log2 = rng.gen_range(3);
        let ways = 1 + rng.gen_range(4) as u32;
        let cfg = CacheConfig {
            size_bytes: (1u64 << sets_log2) * ways as u64 * 64,
            block_bytes: 64,
            ways,
        };
        let mut cache = Cache::new(cfg);
        let capacity = (cfg.size_bytes / cfg.block_bytes) as usize;
        let accesses = 1 + rng.gen_range(300) as usize;
        for _ in 0..accesses {
            let a = rng.gen_range(64);
            let block = cache.geometry().block_of(Addr::new(a * 64));
            if cache.lookup(block) == MoesiState::Invalid {
                cache.insert(block, MoesiState::Exclusive);
            }
            assert!(cache.valid_lines() <= capacity, "case {case}");
            let mut blocks: Vec<u64> = cache.iter().map(|(b, _)| b.raw()).collect();
            let len = blocks.len();
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), len, "duplicate resident block (case {case})");
        }
    }
}

/// A resident block survives until evicted or invalidated: lookups after
/// insert must hit until one of those happens.
#[test]
fn hits_until_eviction() {
    use std::collections::BTreeSet;
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x417 + case);
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 8 * 64,
            block_bytes: 64,
            ways: 2,
        });
        let mut resident: BTreeSet<u64> = BTreeSet::new();
        let accesses = 1 + rng.gen_range(200) as usize;
        for _ in 0..accesses {
            let a = rng.gen_range(32);
            let invalidate = rng.gen_bool(0.5);
            let block = cache.geometry().block_of(Addr::new(a * 64));
            if invalidate {
                cache.invalidate(block);
                resident.remove(&block.raw());
                assert!(!cache.contains(block));
                continue;
            }
            let hit = cache.lookup(block) != MoesiState::Invalid;
            assert_eq!(
                hit,
                resident.contains(&block.raw()),
                "model mismatch at {a} (case {case})"
            );
            if !hit {
                if let Some(ev) = cache.insert(block, MoesiState::Exclusive) {
                    resident.remove(&ev.block.raw());
                }
                resident.insert(block.raw());
            }
        }
    }
}

/// MOESI two-agent safety: replaying any interleaving of local writes
/// and remote snoops never leaves both agents with write permission, and
/// at most one agent supplies data.
#[test]
fn moesi_two_agent_safety() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x0E51 + case);
        // States of the same block in two caches, driven symmetrically.
        let mut a = MoesiState::Invalid;
        let mut b = MoesiState::Invalid;
        let ops = 1 + rng.gen_range(100) as usize;
        for _ in 0..ops {
            match rng.gen_range(4) {
                // A writes: B sees ReadExclusive/Upgrade, A becomes M.
                0 => {
                    let kind = if a.is_valid() {
                        SnoopKind::Upgrade
                    } else {
                        SnoopKind::ReadExclusive
                    };
                    b = snoop_transition(b, kind).next;
                    a = MoesiState::Modified;
                }
                // B writes.
                1 => {
                    let kind = if b.is_valid() {
                        SnoopKind::Upgrade
                    } else {
                        SnoopKind::ReadExclusive
                    };
                    a = snoop_transition(a, kind).next;
                    b = MoesiState::Modified;
                }
                // A reads: B snoops a Read; A fills per sharer state.
                2 => {
                    if !a.is_valid() {
                        let reply = snoop_transition(b, SnoopKind::Read);
                        b = reply.next;
                        a = read_fill_state(b.is_valid());
                    }
                }
                // B reads.
                _ => {
                    if !b.is_valid() {
                        let reply = snoop_transition(a, SnoopKind::Read);
                        a = reply.next;
                        b = read_fill_state(a.is_valid());
                    }
                }
            }
            assert!(
                !(a.writable() && b.writable()),
                "both agents writable: {a} {b}"
            );
            assert!(
                !(a.supplies_data() && b.supplies_data()),
                "two suppliers: {a} {b}"
            );
            // Exclusive-style states never coexist with a valid peer.
            if matches!(a, MoesiState::Modified | MoesiState::Exclusive) {
                assert!(!b.is_valid(), "peer valid beside {a}");
            }
            if matches!(b, MoesiState::Modified | MoesiState::Exclusive) {
                assert!(!a.is_valid(), "peer valid beside {b}");
            }
        }
    }
}
