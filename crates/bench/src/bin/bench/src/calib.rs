//! The benchmark's own host-speed calibration.
//!
//! Wall times on a shared host swing by 2x and more between sets of runs,
//! and the simulator's timing wheel cannot anchor them: it is code under
//! test, so a wheel speed-up would divide itself out. This loop calls no
//! simulator code. On every sweep thread at once, like the workloads, it
//! churns the allocator: hash a counter, allocate a block of 8 B to 2 KiB,
//! fill it, and drop one of 64 live blocks in its place. A rep's host
//! seconds are scaled by the geometric mean of the rates measured just
//! before and just after it, relative to [`CALIB_REF_MOPS`]; the result
//! is in seconds of the reference host ("calibrated seconds").
//!
//! Chosen by measurement on the reference host, with every workload's
//! reps run back to back for 100-150 s and candidate loops timed between
//! reps. Host seconds per rep spread by 13-25% between quartiles, and
//! the medians of 10-second windows by 6-19%. Scaled by this loop the
//! window medians spread by 2.1-6.2%; by random read-modify-writes over
//! 16 MiB, 3-13%; by a dependent pointer chase over 8 MiB, 5-12%; by a
//! small heap-driven event loop, 3-12%. A pure integer hash chain barely
//! slowed when the workloads did, and left 12-17%.

use std::hint::black_box;
use std::time::Instant;

use nisim_bench::parallel_map;

use crate::alloc;

/// The calibration rate (million steps per second, summed over the
/// threads) of the reference host: a 2-core Intel Xeon VM on which the
/// benchmark was defined.
pub const CALIB_REF_MOPS: f64 = 15.0;

/// Before/after rates differing by more than this share flag the rep:
/// the host changed speed while it ran.
pub const FLAG_SPREAD: f64 = 0.25;

/// Allocator steps per thread per calibration: about 20 ms on the
/// reference host.
const STEPS: u64 = 150_000;
/// Blocks kept alive by the churn.
const LIVE: usize = 64;

/// Runs the loop once on each of `jobs` threads and returns the summed
/// rate in million steps per second.
pub fn rate_mops(jobs: usize) -> f64 {
    let threads: Vec<usize> = (0..jobs.max(1)).collect();
    parallel_map(&threads, threads.len(), |_| {
        let t = Instant::now();
        black_box(churn(black_box(STEPS)));
        let rate = STEPS as f64 / t.elapsed().as_secs_f64() / 1e6;
        alloc::flush();
        rate
    })
    .iter()
    .sum()
}

fn mix(h: u64, k: u64) -> u64 {
    let h = (h ^ k).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

fn churn(steps: u64) -> u64 {
    let mut live: Vec<Box<[u64]>> = Vec::with_capacity(LIVE);
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    for k in 0..steps {
        h = mix(h, k);
        let words = 1 + (h >> 58) as usize * 4;
        let block = vec![k; words].into_boxed_slice();
        sum = sum.wrapping_add(block[words - 1]);
        if live.len() < LIVE {
            live.push(block);
        } else {
            live[(h >> 20) as usize % LIVE] = block;
        }
    }
    sum
}

/// Host seconds converted to calibrated seconds, given the calibration
/// rates measured just before and just after the timed work.
pub fn calibrated(host_s: f64, before_mops: f64, after_mops: f64) -> f64 {
    host_s * (before_mops * after_mops).sqrt() / CALIB_REF_MOPS
}

/// Relative difference between the before and after rates.
pub fn spread(before_mops: f64, after_mops: f64) -> f64 {
    (before_mops - after_mops).abs() / before_mops.min(after_mops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_seconds_scale_by_the_geometric_mean_rate() {
        // A host running at the reference rate reads unchanged.
        assert_eq!(calibrated(2.0, CALIB_REF_MOPS, CALIB_REF_MOPS), 2.0);
        // Half speed doubles host time; calibration halves it back.
        let half = CALIB_REF_MOPS / 2.0;
        assert!((calibrated(4.0, half, half) - 2.0).abs() < 1e-12);
        // Before and after combine geometrically: 0.5x and 2x cancel.
        let c = calibrated(3.0, CALIB_REF_MOPS * 0.5, CALIB_REF_MOPS * 2.0);
        assert!((c - 3.0).abs() < 1e-12);
    }

    #[test]
    fn spread_is_relative_to_the_slower_rate() {
        assert_eq!(spread(10.0, 10.0), 0.0);
        assert!((spread(10.0, 12.5) - 0.25).abs() < 1e-12);
        assert!((spread(12.5, 10.0) - 0.25).abs() < 1e-12);
        assert!(spread(10.0, 13.0) > FLAG_SPREAD);
    }
}
