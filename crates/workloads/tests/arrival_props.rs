//! Property tests for the open-loop arrival processes: empirical rates
//! track the configured means, schedules are deterministic per seed and
//! decorrelated across seeds/nodes/tenants, and the MMPP actually
//! bursts.

use nisim_net::NodeId;
use nisim_workloads::traffic::{arrival_schedule, ArrivalProcess, TenantSpec, TrafficPattern};

fn tenant(arrivals: ArrivalProcess, pattern: TrafficPattern) -> TenantSpec {
    TenantSpec {
        name: "probe",
        arrivals,
        pattern,
        payload_bytes: 64,
        messages_per_node: 1,
    }
}

/// Mean interarrival gap over a long schedule.
fn empirical_gap(schedule: &[u64]) -> f64 {
    assert!(schedule.len() >= 2);
    (schedule[schedule.len() - 1] - schedule[0]) as f64 / (schedule.len() - 1) as f64
}

/// Index of dispersion (variance/mean) of arrival counts in fixed
/// windows — 1 for Poisson, > 1 for bursty processes.
fn dispersion(schedule: &[u64], window_ns: u64) -> f64 {
    let horizon = *schedule.last().unwrap();
    let windows = (horizon / window_ns) as usize;
    assert!(windows >= 50, "need enough windows for a stable estimate");
    let mut counts = vec![0u64; windows];
    for &t in schedule {
        let w = (t / window_ns) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean) * (c as f64 - mean))
        .sum::<f64>()
        / n;
    var / mean
}

#[test]
fn poisson_empirical_rate_matches_configured_mean() {
    for mean_gap_ns in [500u64, 4_000, 25_600] {
        let spec = tenant(
            ArrivalProcess::Poisson { mean_gap_ns },
            TrafficPattern::Uniform,
        );
        let sched = arrival_schedule(spec, 0, NodeId(3), 0xA11CE, 20_000);
        let got = empirical_gap(&sched);
        let want = mean_gap_ns as f64;
        assert!(
            (got - want).abs() / want < 0.05,
            "gap {mean_gap_ns}: empirical {got} vs configured {want}"
        );
        // The configured long-run rate agrees too.
        let rate = spec.arrivals.mean_rate();
        assert!((rate * want - 1.0).abs() < 1e-12);
    }
}

#[test]
fn mmpp_empirical_rate_matches_dwell_weighted_mean() {
    let arrivals = ArrivalProcess::Mmpp {
        mean_gap_ns: [4_000, 250],
        mean_dwell_ns: [40_000, 10_000],
    };
    let spec = tenant(arrivals, TrafficPattern::Uniform);
    let sched = arrival_schedule(spec, 0, NodeId(0), 0xB0B, 50_000);
    let got_rate = 1.0 / empirical_gap(&sched);
    let want_rate = arrivals.mean_rate();
    assert!(
        (got_rate - want_rate).abs() / want_rate < 0.10,
        "empirical rate {got_rate} vs dwell-weighted {want_rate}"
    );
}

#[test]
fn mmpp_dwell_states_produce_bursts() {
    // With a 16x rate ratio between states, windowed arrival counts must
    // be overdispersed relative to Poisson (index of dispersion well
    // above 1); a Poisson stream at the same mean rate stays near 1.
    let mmpp = ArrivalProcess::Mmpp {
        mean_gap_ns: [4_000, 250],
        mean_dwell_ns: [40_000, 10_000],
    };
    let mmpp_sched = arrival_schedule(
        tenant(mmpp, TrafficPattern::Uniform),
        0,
        NodeId(1),
        0xD15,
        50_000,
    );
    let mean_gap = empirical_gap(&mmpp_sched);
    let pois = ArrivalProcess::Poisson {
        mean_gap_ns: mean_gap as u64,
    };
    let pois_sched = arrival_schedule(
        tenant(pois, TrafficPattern::Uniform),
        0,
        NodeId(1),
        0xD15,
        50_000,
    );
    let window = 20_000u64; // ~a dwell; long enough to hold several arrivals
    let d_mmpp = dispersion(&mmpp_sched, window);
    let d_pois = dispersion(&pois_sched, window);
    assert!(
        d_mmpp > 2.0,
        "MMPP should be overdispersed: got {d_mmpp:.2}"
    );
    assert!(
        d_pois < 1.5,
        "Poisson control should not be: got {d_pois:.2}"
    );
    assert!(d_mmpp > 2.0 * d_pois);
}

#[test]
fn schedules_are_deterministic_per_seed_and_distinct_across_streams() {
    let spec = tenant(
        ArrivalProcess::Poisson { mean_gap_ns: 1_000 },
        TrafficPattern::Uniform,
    );
    let base = arrival_schedule(spec, 0, NodeId(2), 42, 1_000);
    // Same (seed, node, tenant) replays the identical schedule.
    assert_eq!(base, arrival_schedule(spec, 0, NodeId(2), 42, 1_000));
    // Any change of seed, node or tenant index decorrelates the stream.
    assert_ne!(base, arrival_schedule(spec, 0, NodeId(2), 43, 1_000));
    assert_ne!(base, arrival_schedule(spec, 0, NodeId(3), 42, 1_000));
    assert_ne!(base, arrival_schedule(spec, 1, NodeId(2), 42, 1_000));
    // Schedules are strictly increasing (gaps are at least 1 ns).
    for w in base.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn incast_sink_has_an_empty_schedule() {
    let spec = tenant(
        ArrivalProcess::Poisson { mean_gap_ns: 1_000 },
        TrafficPattern::Incast { sink: 5 },
    );
    assert!(arrival_schedule(spec, 0, NodeId(5), 7, 100).is_empty());
    assert_eq!(arrival_schedule(spec, 0, NodeId(4), 7, 100).len(), 100);
}
