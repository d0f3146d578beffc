//! Experiment runners for every table and figure of the paper.
//!
//! Each experiment is described as a [`Sweep`] (the cartesian grid of
//! workloads × NI designs × buffer levels × config patches) and executed
//! through the parallel harness in [`crate::harness`]; the fold
//! functions (`*_from_records`) reduce the resulting [`RunRecord`]s back
//! to the paper's row/series structures. The rows of
//! [`crate::exp::EXPERIMENTS`] print them in the paper's layout (and
//! write the raw records as JSON with `nisim exp <name> --json`);
//! `EXPERIMENTS.md` records the paper-vs-measured comparison and
//! `tests/goldens/` pins the full machine-readable output.

use nisim_core::{NiClass, NiKind, TimeCategory};
use nisim_engine::metrics::Component;
use nisim_net::{BufferCount, Topology};
use nisim_workloads::apps::MacroApp;
use nisim_workloads::micro::connsweep::SWEEP_ENDPOINTS;
use nisim_workloads::micro::strided::StridedStrategy;

use crate::harness::{run_sweeps, Patch, Sweep, Work};
use crate::record::{lookup, RunRecord};

/// The round-trip payload sizes of Table 5 (bytes).
pub const RTT_PAYLOADS: [u64; 3] = [8, 64, 256];
/// The bandwidth payload sizes of Table 5 (bytes).
pub const BW_PAYLOADS: [u64; 4] = [8, 64, 256, 4096];

const B1: BufferCount = BufferCount::Finite(1);
const B8: BufferCount = BufferCount::Finite(8);

/// Finds a record in a sweep's results, panicking with the full grid key
/// if it is missing (a missing point is a harness bug, not data).
fn rec<'a>(
    records: &'a [RunRecord],
    work: &str,
    ni: NiKind,
    buffers: BufferCount,
    patch: &str,
) -> &'a RunRecord {
    lookup(records, work, ni.key(), &buffers.to_string(), patch).unwrap_or_else(|| {
        panic!(
            "missing record work={work:?} ni={:?} buffers={buffers} patch={patch:?}",
            ni.key()
        )
    })
}

fn metric(r: &RunRecord, name: &str) -> f64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("record {}/{} lacks metric {name:?}", r.work, r.ni))
}

/// One row of Table 5.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// The NI design.
    pub kind: NiKind,
    /// Round-trip latency (µs) for [`RTT_PAYLOADS`].
    pub rtt_us: [f64; 3],
    /// Bandwidth (MB/s) for [`BW_PAYLOADS`].
    pub bw_mb_s: [f64; 4],
}

/// The Table 5 grid: both §6.1 microbenchmarks across all seven NIs,
/// plus the throttled-bandwidth extra point.
pub fn table5_sweep() -> Sweep {
    let mut works: Vec<Work> = RTT_PAYLOADS.iter().map(|&p| Work::RoundTrip(p)).collect();
    works.extend(BW_PAYLOADS.iter().map(|&p| Work::Bandwidth(p)));
    Sweep::new("table5")
        .works(works)
        .nis(&NiKind::TABLE2)
        .point(
            Work::Bandwidth(4096),
            NiKind::Cni32QmThrottle,
            B8,
            Patch::default(),
        )
}

/// Folds Table 5 records into rows plus the throttled 4 KB bandwidth.
pub fn table5_from_records(records: &[RunRecord]) -> (Vec<Table5Row>, f64) {
    let rows = NiKind::TABLE2
        .iter()
        .map(|&kind| {
            let mut rtt = [0.0; 3];
            for (i, &p) in RTT_PAYLOADS.iter().enumerate() {
                rtt[i] = metric(
                    rec(records, &format!("rtt:{p}"), kind, B8, ""),
                    "rtt_mean_us",
                );
            }
            let mut bw = [0.0; 4];
            for (i, &p) in BW_PAYLOADS.iter().enumerate() {
                bw[i] = metric(rec(records, &format!("bw:{p}"), kind, B8, ""), "bw_mb_s");
            }
            Table5Row {
                kind,
                rtt_us: rtt,
                bw_mb_s: bw,
            }
        })
        .collect();
    let throttled = metric(
        rec(records, "bw:4096", NiKind::Cni32QmThrottle, B8, ""),
        "bw_mb_s",
    );
    (rows, throttled)
}

/// One bar of Figure 1: the execution-time decomposition of one
/// macrobenchmark on the CM-5-like NI with one flow-control buffer.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// The macrobenchmark.
    pub app: MacroApp,
    /// Fraction of processor time computing (program + handlers).
    pub compute: f64,
    /// Fraction moving message data (the "data transfer" bar segment).
    pub data_transfer: f64,
    /// Fraction stalled on buffering (the "buffering" bar segment).
    pub buffering: f64,
    /// Fraction idle (waiting for messages).
    pub idle: f64,
}

/// The Figure 1 grid: all seven macrobenchmarks, CM-5-like NI, one
/// flow-control buffer.
pub fn fig1_sweep() -> Sweep {
    Sweep::new("fig1")
        .apps(&MacroApp::ALL)
        .nis(&[NiKind::Cm5])
        .buffers(&[B1])
}

/// Folds Figure 1 records into per-app decompositions.
pub fn fig1_from_records(records: &[RunRecord]) -> Vec<Fig1Row> {
    MacroApp::ALL
        .iter()
        .map(|&app| {
            let r = rec(records, app.name(), NiKind::Cm5, B1, "");
            Fig1Row {
                app,
                compute: r.fraction(TimeCategory::Compute),
                data_transfer: r.fraction(TimeCategory::DataTransfer),
                buffering: r.fraction(TimeCategory::Buffering),
                idle: r.fraction(TimeCategory::Idle),
            }
        })
        .collect()
}

/// One macrobenchmark measurement point for the Figure 3/4 sweeps.
#[derive(Clone, Debug)]
pub struct MacroPoint {
    /// The macrobenchmark.
    pub app: MacroApp,
    /// The NI design.
    pub ni: NiKind,
    /// Flow-control buffers used.
    pub buffers: BufferCount,
    /// Execution time in nanoseconds.
    pub elapsed_ns: u64,
    /// Execution time normalised to the AP3000-like NI with 8 buffers.
    pub normalized: f64,
}

/// The buffer levels of Figure 3a, most to least generous.
pub const FIG3A_BUFFERS: [BufferCount; 4] = [
    BufferCount::Infinite,
    BufferCount::Finite(8),
    BufferCount::Finite(2),
    BufferCount::Finite(1),
];

/// The three FIFO-based NIs of Figure 3a.
pub const FIFO_NIS: [NiKind; 3] = NiKind::of_classes(&[NiClass::Fifo]);

/// The four coherent NIs of Figure 3b, in its bar order (Memory Channel
/// first); golden order, so not derived from the registry.
pub const COHERENT_NIS: [NiKind; 4] = [
    NiKind::MemoryChannel,
    NiKind::StartJr,
    NiKind::Cni512Q,
    NiKind::Cni32Qm,
];

/// The Figure 3a grid for `apps`: FIFO NIs × buffer levels. The
/// AP3000@8 normalisation baseline is itself a grid point.
pub fn fig3a_sweep(apps: &[MacroApp]) -> Sweep {
    Sweep::new("fig3a")
        .apps(apps)
        .nis(&FIFO_NIS)
        .buffers(&FIG3A_BUFFERS)
}

/// Folds one app's Figure 3a points out of the sweep records.
pub fn fig3a_from_records(records: &[RunRecord], app: MacroApp) -> Vec<MacroPoint> {
    let baseline = rec(records, app.name(), NiKind::Ap3000, B8, "").elapsed_ns;
    let mut out = Vec::new();
    for ni in FIFO_NIS {
        for b in FIG3A_BUFFERS {
            let r = rec(records, app.name(), ni, b, "");
            out.push(MacroPoint {
                app,
                ni,
                buffers: b,
                elapsed_ns: r.elapsed_ns,
                normalized: r.elapsed_ns as f64 / baseline as f64,
            });
        }
    }
    out
}

/// One Figure 3b row: a coherent NI at one buffer, plus the §6.2.2
/// memory-to-cache transaction count.
#[derive(Clone, Debug)]
pub struct Fig3bRow {
    /// The normalized execution-time point.
    pub point: MacroPoint,
    /// Main-memory block reads during the run (the memory-to-cache
    /// transfer metric of §6.2.2).
    pub mem_reads: u64,
}

/// The Figure 3b grid for `apps`: coherent NIs at one buffer (the
/// paper's configuration — they are insensitive to it), plus each app's
/// AP3000@8 baseline as an extra point.
pub fn fig3b_sweep(apps: &[MacroApp]) -> Sweep {
    let mut sweep = Sweep::new("fig3b")
        .apps(apps)
        .nis(&COHERENT_NIS)
        .buffers(&[B1]);
    for &app in apps {
        sweep = sweep.point(Work::Macro(app), NiKind::Ap3000, B8, Patch::default());
    }
    sweep
}

/// Folds one app's Figure 3b rows out of the sweep records.
pub fn fig3b_from_records(records: &[RunRecord], app: MacroApp) -> Vec<Fig3bRow> {
    let baseline = rec(records, app.name(), NiKind::Ap3000, B8, "").elapsed_ns;
    COHERENT_NIS
        .iter()
        .map(|&ni| {
            let r = rec(records, app.name(), ni, B1, "");
            Fig3bRow {
                point: MacroPoint {
                    app,
                    ni,
                    buffers: B1,
                    elapsed_ns: r.elapsed_ns,
                    normalized: r.elapsed_ns as f64 / baseline as f64,
                },
                mem_reads: r.counter("mem_reads"),
            }
        })
        .collect()
}

/// The buffer levels of Figure 4.
pub const FIG4_BUFFERS: [BufferCount; 4] = [
    BufferCount::Finite(1),
    BufferCount::Finite(2),
    BufferCount::Finite(8),
    BufferCount::Finite(32),
];

/// The Figure 4 grid for `apps`: the single-cycle `NI_2w` across buffer
/// levels, plus each app's `CNI_32Q_m` baseline (which is
/// buffer-insensitive) as an extra point.
pub fn fig4_sweep(apps: &[MacroApp]) -> Sweep {
    let mut sweep = Sweep::new("fig4")
        .apps(apps)
        .nis(&[NiKind::Cm5SingleCycle])
        .buffers(&FIG4_BUFFERS);
    for &app in apps {
        sweep = sweep.point(Work::Macro(app), NiKind::Cni32Qm, B1, Patch::default());
    }
    sweep
}

/// Folds one app's Figure 4 points out of the sweep records.
pub fn fig4_from_records(records: &[RunRecord], app: MacroApp) -> Vec<MacroPoint> {
    let baseline = rec(records, app.name(), NiKind::Cni32Qm, B1, "").elapsed_ns;
    FIG4_BUFFERS
        .iter()
        .map(|&b| {
            let r = rec(records, app.name(), NiKind::Cm5SingleCycle, b, "");
            MacroPoint {
                app,
                ni: NiKind::Cm5SingleCycle,
                buffers: b,
                elapsed_ns: r.elapsed_ns,
                normalized: r.elapsed_ns as f64 / baseline as f64,
            }
        })
        .collect()
}

/// The CNI send-side prefetch ablation grid.
pub fn ablation_prefetch_sweep() -> Sweep {
    Sweep::new("ablation-prefetch")
        .works(vec![Work::RoundTrip(256)])
        .nis(&[NiKind::Cni512Q])
        .patches(vec![
            Patch::default(),
            Patch {
                label: "prefetch-off".into(),
                cni_prefetch: Some(false),
                ..Patch::default()
            },
        ])
}

/// Folds the prefetch ablation to `(on, off)` round-trip times (µs).
pub fn ablation_prefetch_from_records(records: &[RunRecord]) -> (f64, f64) {
    let on = metric(
        rec(records, "rtt:256", NiKind::Cni512Q, B8, ""),
        "rtt_mean_us",
    );
    let off = metric(
        rec(records, "rtt:256", NiKind::Cni512Q, B8, "prefetch-off"),
        "rtt_mean_us",
    );
    (on, off)
}

/// The bursty workload the bypass ablation measures: 40 bursts of 48
/// 248-byte messages separated by 60 µs of computation.
pub const BYPASS_BURSTY: Work = Work::Bursty {
    bursts: 40,
    burst_len: 48,
    gap_ns: 60_000,
};

/// The `CNI_32Q_m` receive-cache bypass ablation grid (§4 improvement 1).
///
/// The bypass matters in the *bursty* regime: when a burst overflows the
/// receive cache, the bypass sends only the overflow to memory so the
/// rest still drains NI-cache-to-cache; without it, every fresh arrival
/// evicts live head-of-queue blocks and the whole backlog drains at
/// memory speed. The fold measures the receiving processor's
/// data-transfer time (µs, lower is better).
pub fn ablation_bypass_sweep() -> Sweep {
    Sweep::new("ablation-bypass")
        .works(vec![BYPASS_BURSTY])
        .nis(&[NiKind::Cni32Qm])
        .patches(vec![
            Patch::default(),
            Patch {
                label: "bypass-off".into(),
                cni_bypass: Some(false),
                ..Patch::default()
            },
        ])
}

/// Folds the bypass ablation to `(on, off)` receive-side data-transfer
/// times (µs).
pub fn ablation_bypass_from_records(records: &[RunRecord]) -> (f64, f64) {
    let key = BYPASS_BURSTY.key();
    let on = metric(
        rec(records, &key, NiKind::Cni32Qm, B8, ""),
        "recv_data_transfer_us",
    );
    let off = metric(
        rec(records, &key, NiKind::Cni32Qm, B8, "bypass-off"),
        "recv_data_transfer_us",
    );
    (on, off)
}

/// The dead-block head-update ablation grid (§4 improvement 2): 4 KB
/// bandwidth plus a fixed 60-message stream for writeback counting.
pub fn ablation_dead_block_sweep() -> Sweep {
    Sweep::new("ablation-dead-block")
        .works(vec![Work::Bandwidth(4096), Work::Stream(60)])
        .nis(&[NiKind::Cni32Qm])
        .patches(vec![
            Patch::default(),
            Patch {
                label: "dead-block-off".into(),
                cni_dead_block_opt: Some(false),
                ..Patch::default()
            },
        ])
}

/// Folds the dead-block ablation to `((bw_on, writebacks_on),
/// (bw_off, writebacks_off))`.
pub fn ablation_dead_block_from_records(records: &[RunRecord]) -> ((f64, u64), (f64, u64)) {
    let fold = |patch: &str| {
        let bw = metric(
            rec(records, "bw:4096", NiKind::Cni32Qm, B8, patch),
            "bw_mb_s",
        );
        let wb = rec(records, "stream:60", NiKind::Cni32Qm, B8, patch).counter("mem_writes");
        (bw, wb)
    };
    (fold(""), fold("dead-block-off"))
}

/// The send-throttle sweep grid for `CNI_32Q_m` (Table 5 footnote).
pub fn ablation_throttle_sweep(delays_ns: &[u64]) -> Sweep {
    Sweep::new("ablation-throttle")
        .works(vec![Work::Bandwidth(4096)])
        .nis(&[NiKind::Cni32QmThrottle])
        .patches(
            delays_ns
                .iter()
                .map(|&d| Patch {
                    label: format!("throttle={d}ns"),
                    throttle_delay_ns: Some(d),
                    ..Patch::default()
                })
                .collect(),
        )
}

/// Folds the throttle sweep to `(delay, bandwidth)` pairs.
pub fn ablation_throttle_from_records(records: &[RunRecord], delays_ns: &[u64]) -> Vec<(u64, f64)> {
    delays_ns
        .iter()
        .map(|&d| {
            let label = format!("throttle={d}ns");
            let r = rec(records, "bw:4096", NiKind::Cni32QmThrottle, B8, &label);
            (d, metric(r, "bw_mb_s"))
        })
        .collect()
}

/// The NI cache-size sweep grid bridging `CNI_32Q_m` towards
/// `CNI_512Q`-class capacity.
pub fn ablation_ni_cache_sweep(blocks: &[u32]) -> Sweep {
    Sweep::new("ablation-ni-cache")
        .works(vec![Work::RoundTrip(64), Work::Bandwidth(4096)])
        .nis(&[NiKind::Cni32Qm])
        .patches(
            blocks
                .iter()
                .map(|&b| Patch {
                    label: format!("cache={b}"),
                    cni_cache_blocks: Some(b),
                    ..Patch::default()
                })
                .collect(),
        )
}

/// Folds the cache-size sweep to `(blocks, rtt64_us, bw4096_mb_s)`.
pub fn ablation_ni_cache_from_records(
    records: &[RunRecord],
    blocks: &[u32],
) -> Vec<(u32, f64, f64)> {
    blocks
        .iter()
        .map(|&b| {
            let label = format!("cache={b}");
            let rtt = metric(
                rec(records, "rtt:64", NiKind::Cni32Qm, B8, &label),
                "rtt_mean_us",
            );
            let bw = metric(
                rec(records, "bw:4096", NiKind::Cni32Qm, B8, &label),
                "bw_mb_s",
            );
            (b, rtt, bw)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::default_jobs;

    #[test]
    fn table5_reproduces_the_papers_orderings() {
        let (rows, throttled) = table5_from_records(&table5_sweep().run(default_jobs()));
        let get = |k: NiKind| rows.iter().find(|r| r.kind == k).expect("row");
        let cm5 = get(NiKind::Cm5);
        let udma = get(NiKind::Udma);
        let ap = get(NiKind::Ap3000);
        let sj = get(NiKind::StartJr);
        let mc = get(NiKind::MemoryChannel);
        let c512 = get(NiKind::Cni512Q);
        let c32 = get(NiKind::Cni32Qm);

        // UDMA is the slowest at every latency point; the crossover with
        // the CM-5-like NI appears between 64 B and 256 B payloads.
        for i in 0..3 {
            assert!(udma.rtt_us[i] > ap.rtt_us[i], "udma vs ap at {i}");
        }
        assert!(udma.rtt_us[0] > cm5.rtt_us[0], "udma worse at 8 B");
        assert!(udma.rtt_us[2] < cm5.rtt_us[2], "udma better at 256 B");

        // The AP3000-like NI beats the UDMA-based NI substantially.
        assert!(ap.rtt_us[2] < 0.8 * udma.rtt_us[2]);

        // StarT-JR wins below 64 B against AP3000, loses at 256 B.
        assert!(sj.rtt_us[0] < ap.rtt_us[0], "StarT-JR faster at 8 B");
        assert!(sj.rtt_us[2] > ap.rtt_us[2], "AP3000 faster at 256 B");

        // The Memory Channel-like NI tracks StarT-JR's latency closely.
        for i in 0..3 {
            let ratio = mc.rtt_us[i] / sj.rtt_us[i];
            assert!((0.85..=1.15).contains(&ratio), "MC vs SJ at {i}: {ratio}");
        }

        // CNI_512Q beats StarT-JR at the larger payloads (prefetch +
        // direct NI-to-cache receive).
        assert!(c512.rtt_us[2] < sj.rtt_us[2]);

        // CNI_32Qm has the best latency everywhere.
        for other in [cm5, udma, ap, sj, mc, c512] {
            for i in 0..3 {
                assert!(
                    c32.rtt_us[i] <= other.rtt_us[i] * 1.001,
                    "CNI_32Qm not best vs {:?} at {i}",
                    other.kind
                );
            }
        }

        // Bandwidth shapes: CM-5 plateaus lowest of all at 4 KB; UDMA is
        // worst at 8 B; AP3000 is the best unthrottled block NI; the
        // throttled CNI_32Qm beats everything.
        for r in &rows {
            if r.kind != NiKind::Cm5 {
                assert!(r.bw_mb_s[3] > cm5.bw_mb_s[3], "{:?} vs cm5", r.kind);
            }
            assert!(udma.bw_mb_s[0] <= r.bw_mb_s[0], "udma worst at 8 B");
            if r.kind != NiKind::Ap3000 {
                assert!(ap.bw_mb_s[3] > r.bw_mb_s[3], "AP3000 top unthrottled");
            }
        }
        assert!(throttled > ap.bw_mb_s[3], "throttled CNI_32Qm is fastest");
        // Unthrottled CNI_32Qm is held back by receive-cache overflow to
        // roughly StarT-JR's class.
        let ratio = c32.bw_mb_s[3] / sj.bw_mb_s[3];
        assert!((0.8..=1.25).contains(&ratio), "c32 vs sj bw: {ratio}");
    }

    #[test]
    fn fig1_fractions_are_complete() {
        // One representative app to keep the test fast.
        let row = &fig1_from_records(&fig1_sweep().run(default_jobs()))[3]; // em3d
        let sum = row.compute + row.data_transfer + row.buffering + row.idle;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(row.buffering > 0.05, "em3d at B=1 must show buffering");
    }

    #[test]
    fn ablation_prefetch_helps_latency() {
        let (on, off) =
            ablation_prefetch_from_records(&ablation_prefetch_sweep().run(default_jobs()));
        assert!(on < off, "prefetch on {on} vs off {off}");
    }

    #[test]
    fn ablation_bypass_helps_bursty_receives() {
        let (on, off) = ablation_bypass_from_records(&ablation_bypass_sweep().run(default_jobs()));
        assert!(on < off, "bypass on {on} µs vs off {off} µs");
    }

    #[test]
    fn ablation_dead_block_saves_writebacks() {
        let ((_, wb_on), (_, wb_off)) =
            ablation_dead_block_from_records(&ablation_dead_block_sweep().run(default_jobs()));
        assert!(wb_off > wb_on, "dead-block opt must save writebacks");
    }
}

/// The UDMA-vs-uncached crossover grid: round trips per payload, pure
/// UDMA (the baseline patch) against the always-uncached fallback. The
/// paper's macrobenchmarks switch to the UDMA mechanism above a 96-byte
/// payload because below that its initiation overhead loses to uncached
/// transfers (§6.1.1); this grid finds the crossover empirically.
pub fn udma_crossover_sweep(payloads: &[u64]) -> Sweep {
    Sweep::new("udma-crossover")
        .works(payloads.iter().map(|&p| Work::RoundTrip(p)).collect())
        .nis(&[NiKind::Udma])
        .patches(vec![
            Patch::default(),
            Patch {
                label: "uncached".into(),
                udma_uncached_fallback: true,
                ..Patch::default()
            },
        ])
}

/// Folds the crossover sweep to `(payload, pure_rtt, fallback_rtt)`.
pub fn udma_crossover_from_records(
    records: &[RunRecord],
    payloads: &[u64],
) -> Vec<(u64, f64, f64)> {
    payloads
        .iter()
        .map(|&p| {
            let work = format!("rtt:{p}");
            let pure = metric(rec(records, &work, NiKind::Udma, B8, ""), "rtt_mean_us");
            let fb = metric(
                rec(records, &work, NiKind::Udma, B8, "uncached"),
                "rtt_mean_us",
            );
            (p, pure, fb)
        })
        .collect()
}

/// The §6.2.2 memory-gap grid: em3d on StarT-JR and `CNI_32Q_m` across
/// main-memory latencies. §6.2.2's forward-looking claim: as the
/// processor/memory gap widens, `CNI_32Q_m` (which avoids the
/// main-memory detour) pulls further ahead of the StarT-JR-like NI.
pub fn memory_gap_sweep(mem_latencies_ns: &[u64]) -> Sweep {
    Sweep::new("memory-gap")
        .apps(&[MacroApp::Em3d])
        .nis(&[NiKind::StartJr, NiKind::Cni32Qm])
        .patches(
            mem_latencies_ns
                .iter()
                .map(|&lat| Patch {
                    label: format!("mem={lat}ns"),
                    main_memory_latency_ns: Some(lat),
                    ..Patch::default()
                })
                .collect(),
        )
}

/// Folds the memory-gap sweep to `(latency, sj_time / cni_time)`.
pub fn memory_gap_from_records(records: &[RunRecord], mem_latencies_ns: &[u64]) -> Vec<(u64, f64)> {
    mem_latencies_ns
        .iter()
        .map(|&lat| {
            let label = format!("mem={lat}ns");
            let sj = rec(records, "em3d", NiKind::StartJr, B8, &label).elapsed_ns;
            let cni = rec(records, "em3d", NiKind::Cni32Qm, B8, &label).elapsed_ns;
            (lat, sj as f64 / cni as f64)
        })
        .collect()
}

/// The network-latency grid: 64 B round trips on the CM-5-like NI and
/// `CNI_32Q_m` across wire latencies. The paper's 40 ns network is
/// nearly free; this grid shows how the NI rankings react when the wire
/// dominates.
pub fn network_latency_sweep(latencies_ns: &[u64]) -> Sweep {
    Sweep::new("network-latency")
        .works(vec![Work::RoundTrip(64)])
        .nis(&[NiKind::Cm5, NiKind::Cni32Qm])
        .patches(
            latencies_ns
                .iter()
                .map(|&lat| Patch {
                    label: format!("wire={lat}ns"),
                    wire_latency_ns: Some(lat),
                    ..Patch::default()
                })
                .collect(),
        )
}

/// Folds the network-latency sweep to `(latency, cm5_rtt, cni_rtt)`.
pub fn network_latency_from_records(
    records: &[RunRecord],
    latencies_ns: &[u64],
) -> Vec<(u64, f64, f64)> {
    latencies_ns
        .iter()
        .map(|&lat| {
            let label = format!("wire={lat}ns");
            let cm5 = metric(
                rec(records, "rtt:64", NiKind::Cm5, B8, &label),
                "rtt_mean_us",
            );
            let cni = metric(
                rec(records, "rtt:64", NiKind::Cni32Qm, B8, &label),
                "rtt_mean_us",
            );
            (lat, cm5, cni)
        })
        .collect()
}

/// The LogP characterisation grid: all seven NIs at one payload.
pub fn logp_sweep(payload: u64) -> Sweep {
    Sweep::new("logp")
        .works(vec![Work::LogP(payload)])
        .nis(&NiKind::TABLE2)
}

/// The topology-extension grid: em3d across fabrics for three NI
/// classes.
pub fn topology_sweep() -> Sweep {
    Sweep::new("topology")
        .apps(&[MacroApp::Em3d])
        .nis(&[NiKind::Cm5, NiKind::Ap3000, NiKind::Cni32Qm])
        .patches(vec![
            Patch::default(),
            Patch {
                label: "ring".into(),
                topology: Some(Topology::Ring),
                ..Patch::default()
            },
            Patch {
                label: "mesh2d".into(),
                topology: Some(Topology::Mesh2D),
                ..Patch::default()
            },
        ])
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;
    use crate::harness::default_jobs;

    #[test]
    fn udma_crossover_is_between_8_and_256_bytes() {
        let records = udma_crossover_sweep(&[8, 256]).run(default_jobs());
        let probe = udma_crossover_from_records(&records, &[8, 256]);
        let (_, pure8, fb8) = probe[0];
        let (_, pure256, fb256) = probe[1];
        assert!(pure8 > fb8, "uncached must win at 8 B");
        assert!(pure256 < fb256, "UDMA must win at 256 B");
    }

    #[test]
    fn cni_edge_grows_with_memory_gap() {
        let records = memory_gap_sweep(&[120, 360]).run(default_jobs());
        let points = memory_gap_from_records(&records, &[120, 360]);
        assert!(
            points[1].1 > points[0].1,
            "wider memory gap should favour CNI_32Qm: {points:?}"
        );
    }
}

/// Figure 1 via the paper's differential methodology: the *buffering*
/// component is the time that disappears with infinite flow-control
/// buffering, and the *data transfer* component is the further time that
/// disappears when NI accesses become single-cycle (the register-mapped
/// approximation). What remains is computation + unavoidable
/// synchronisation.
#[derive(Clone, Debug)]
pub struct Fig1Differential {
    /// The macrobenchmark.
    pub app: MacroApp,
    /// Execution time on the CM-5-like NI with one buffer (ns) — the bar
    /// everything is a fraction of.
    pub total_ns: u64,
    /// Fraction eliminated by infinite buffering.
    pub buffering: f64,
    /// Fraction further eliminated by single-cycle NI access.
    pub data_transfer: f64,
    /// The remaining fraction (compute + synchronisation).
    pub base: f64,
}

/// The differential Figure 1 grid: CM-5 at 1/∞ buffers plus the
/// single-cycle NI at ∞ buffers, for every macrobenchmark.
pub fn fig1_differential_sweep() -> Sweep {
    let mut sweep = Sweep::new("fig1-differential")
        .apps(&MacroApp::ALL)
        .nis(&[NiKind::Cm5])
        .buffers(&[B1, BufferCount::Infinite]);
    for app in MacroApp::ALL {
        sweep = sweep.point(
            Work::Macro(app),
            NiKind::Cm5SingleCycle,
            BufferCount::Infinite,
            Patch::default(),
        );
    }
    sweep
}

/// Folds the differential decomposition out of the sweep records.
pub fn fig1_differential_from_records(records: &[RunRecord]) -> Vec<Fig1Differential> {
    MacroApp::ALL
        .iter()
        .map(|&app| {
            let t_b1 = rec(records, app.name(), NiKind::Cm5, B1, "").elapsed_ns;
            let t_inf = rec(records, app.name(), NiKind::Cm5, BufferCount::Infinite, "").elapsed_ns;
            let t_ideal = rec(
                records,
                app.name(),
                NiKind::Cm5SingleCycle,
                BufferCount::Infinite,
                "",
            )
            .elapsed_ns;
            let total = t_b1 as f64;
            let buffering = (t_b1.saturating_sub(t_inf)) as f64 / total;
            let data_transfer = (t_inf.saturating_sub(t_ideal)) as f64 / total;
            Fig1Differential {
                app,
                total_ns: t_b1,
                buffering,
                data_transfer,
                base: 1.0 - buffering - data_transfer,
            }
        })
        .collect()
}

/// The packet-loss levels of the fault study (percent).
pub const FAULT_DROPS_PCT: [u32; 5] = [0, 1, 2, 5, 10];

/// One fault-study measurement: a macrobenchmark under injected packet
/// loss with the retransmission layer recovering every drop.
#[derive(Clone, Debug)]
pub struct FaultPoint {
    /// The macrobenchmark.
    pub app: MacroApp,
    /// The NI design.
    pub ni: NiKind,
    /// Drop probability in percent.
    pub drop_pct: u32,
    /// Execution time in nanoseconds.
    pub elapsed_ns: u64,
    /// Execution time normalised to the zero-drop run of the same
    /// app/NI pair.
    pub normalized: f64,
    /// Fragments offered to the fault layer (0 when faults are off).
    pub offered: u64,
    /// Fragments the wire lost.
    pub dropped: u64,
    /// Retransmissions the reliability layer issued to recover them.
    pub retransmits: u64,
    /// Duplicate arrivals the receiver suppressed.
    pub dup_discards: u64,
    /// Fully delivered application messages.
    pub app_messages: u64,
    /// True iff the run drained cleanly with every endpoint quiescent —
    /// i.e. every lost fragment was recovered.
    pub recovered_all: bool,
}

/// The record label for a drop level (the baseline patch for 0%).
pub fn drop_label(pct: u32) -> String {
    if pct == 0 {
        String::new()
    } else {
        format!("drop={pct}%")
    }
}

/// The fault-study grid for one app/NI pair: the pristine baseline plus
/// one patched run per non-zero drop level (fault seed fixed, reliability
/// layer on wherever faults are). 0% is the pristine baseline: the fault
/// layer and reliability are fully off there.
pub fn fault_study_sweep(app: MacroApp, ni: NiKind, drops_pct: &[u32]) -> Sweep {
    let mut patches = vec![Patch::default()];
    for &pct in drops_pct {
        if pct > 0 {
            patches.push(Patch {
                label: drop_label(pct),
                drop_pct: Some(pct),
                ..Patch::default()
            });
        }
    }
    Sweep::new(format!("fault:{}:{}", app.name(), ni.key()))
        .apps(&[app])
        .nis(&[ni])
        .patches(patches)
}

/// Folds one app/NI fault sweep into per-drop-level points.
pub fn fault_study_from_records(
    records: &[RunRecord],
    app: MacroApp,
    ni: NiKind,
    drops_pct: &[u32],
) -> Vec<FaultPoint> {
    let baseline = rec(records, app.name(), ni, B8, "");
    let base_ns = baseline.elapsed_ns;
    let base_msgs = baseline.counter("app_messages");
    drops_pct
        .iter()
        .map(|&pct| {
            let r = rec(records, app.name(), ni, B8, &drop_label(pct));
            FaultPoint {
                app,
                ni,
                drop_pct: pct,
                elapsed_ns: r.elapsed_ns,
                normalized: r.elapsed_ns as f64 / base_ns as f64,
                offered: r.counter("fault_offered"),
                dropped: r.counter("fault_dropped") + r.counter("fault_blackholed"),
                retransmits: r.counter("rel_retransmits"),
                dup_discards: r.counter("rel_dup_discards"),
                app_messages: r.counter("app_messages"),
                recovered_all: r.status == "drained"
                    && r.quiescent
                    && r.counter("app_messages") == base_msgs,
            }
        })
        .collect()
}

/// One row of the fault-tolerant Figure 4 sweep: buffer sensitivity of
/// the single-cycle NI with and without 5% packet loss.
#[derive(Clone, Debug)]
pub struct FaultBufferPoint {
    /// Flow-control buffers.
    pub buffers: BufferCount,
    /// Loss-free execution time (ns).
    pub clean_ns: u64,
    /// Execution time under drop (ns).
    pub faulty_ns: u64,
    /// `faulty / clean` slowdown.
    pub slowdown: f64,
    /// Retransmissions under drop.
    pub retransmits: u64,
    /// Flow-control retries under drop (returned-message retries).
    pub retries: u64,
    /// True iff the faulty run recovered every message.
    pub recovered_all: bool,
}

/// The fault-tolerant Figure 4 grid: clean and lossy runs of the
/// single-cycle `NI_2w` across buffer levels. Tight flow-control
/// buffering and a lossy wire compound, because a dropped fragment pins
/// its buffer until the retransmit is acked.
pub fn fault_fig4_sweep(app: MacroApp, drop_pct: u32) -> Sweep {
    Sweep::new(format!("fault-fig4:{}", app.name()))
        .apps(&[app])
        .nis(&[NiKind::Cm5SingleCycle])
        .buffers(&FIG4_BUFFERS)
        .patches(vec![
            Patch::default(),
            Patch {
                label: drop_label(drop_pct),
                drop_pct: Some(drop_pct),
                ..Patch::default()
            },
        ])
}

/// Folds the fault-tolerant Figure 4 sweep into per-buffer points.
pub fn fault_fig4_from_records(
    records: &[RunRecord],
    app: MacroApp,
    drop_pct: u32,
) -> Vec<FaultBufferPoint> {
    FIG4_BUFFERS
        .iter()
        .map(|&b| {
            let clean = rec(records, app.name(), NiKind::Cm5SingleCycle, b, "");
            let faulty = rec(
                records,
                app.name(),
                NiKind::Cm5SingleCycle,
                b,
                &drop_label(drop_pct),
            );
            FaultBufferPoint {
                buffers: b,
                clean_ns: clean.elapsed_ns,
                faulty_ns: faulty.elapsed_ns,
                slowdown: faulty.elapsed_ns as f64 / clean.elapsed_ns as f64,
                retransmits: faulty.counter("rel_retransmits"),
                retries: faulty.counter("retries"),
                recovered_all: faulty.status == "drained"
                    && faulty.quiescent
                    && faulty.counter("app_messages") == clean.counter("app_messages"),
            }
        })
        .collect()
}

/// One row of the per-component occupancy breakdown: where one NI
/// design's accounted cycles go, as fractions of the breakdown total.
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// The NI design.
    pub ni: NiKind,
    /// Total accounted nanoseconds across every component.
    pub total_ns: u64,
    /// Processor overhead share (send + receive paths).
    pub proc_share: f64,
    /// Bus share (arbitration + occupancy of every transaction class).
    pub bus_share: f64,
    /// Cache stall share (miss fills + ownership upgrades).
    pub stall_share: f64,
    /// NI buffer-residency share (deposit-complete to drain).
    pub ni_share: f64,
    /// Wire share (link serialization + retransmissions).
    pub wire_share: f64,
}

/// The occupancy-breakdown grid: em3d across all seven Table 2 NIs with
/// cycle accounting on. The metrics patch keeps the empty label — the
/// metrics switch is excluded from the config fingerprint, so every
/// point stays directly comparable with its metrics-off golden twin.
pub fn breakdown_sweep() -> Sweep {
    Sweep::new("breakdown")
        .apps(&[MacroApp::Em3d])
        .nis(&breakdown_nis())
        .patches(vec![Patch {
            metrics: true,
            ..Patch::default()
        }])
}

/// Folds the breakdown sweep into per-NI occupancy rows.
///
/// # Panics
///
/// Panics if a record lacks its breakdown or the component cycles fail
/// the sum-to-total identity — either means the metrics layer is broken.
pub fn breakdown_from_records(records: &[RunRecord]) -> Vec<BreakdownRow> {
    breakdown_nis()
        .iter()
        .map(|&ni| {
            let r = rec(records, MacroApp::Em3d.name(), ni, B8, "");
            let b = r
                .breakdown
                .as_ref()
                .unwrap_or_else(|| panic!("{} record lacks a breakdown", ni.key()));
            let sum: u64 = b.cycles.iter().map(|(_, ns)| ns).sum();
            assert_eq!(
                sum,
                b.cycles.total().as_ns(),
                "{}: component cycles must sum to the total",
                ni.key()
            );
            let share = |components: &[Component]| -> f64 {
                components.iter().map(|&c| b.cycles.fraction(c)).sum()
            };
            BreakdownRow {
                ni,
                total_ns: b.cycles.total().as_ns(),
                proc_share: share(&[Component::ProcSend, Component::ProcRecv]),
                bus_share: Component::ALL
                    .iter()
                    .filter(|c| c.is_bus())
                    .map(|&c| b.cycles.fraction(c))
                    .sum(),
                stall_share: share(&[Component::CacheMissStall, Component::CacheUpgradeStall]),
                ni_share: share(&[Component::NiResidency]),
                wire_share: share(&[Component::LinkSerialization, Component::Retransmit]),
            }
        })
        .collect()
}

/// The breakdown grid: the seven Table 2 NIs plus the three modern
/// designs.
fn breakdown_nis() -> Vec<NiKind> {
    NiKind::TABLE2.into_iter().chain(NiKind::MODERN).collect()
}

/// Path of the committed breakdown golden (kept separate from the main
/// grid so metrics-off goldens stay byte-identical to the seed).
pub fn breakdown_golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/golden_breakdown.json")
}

/// Runs the breakdown sweep on `jobs` workers and builds the JSON
/// document `tests/goldens/golden_breakdown.json` pins.
pub fn breakdown_document(jobs: usize) -> nisim_engine::json::Json {
    crate::record::sections_document(&run_sweeps(&[breakdown_sweep()], jobs))
}

/// The connection-count sweep grid: the RDMA queue-pair NI against the
/// connectionless URMA NI across [`SWEEP_ENDPOINTS`], at the default
/// 64-entry QP-state cache. This is the state-capacity study: RDMA_QP
/// falls off a latency cliff once the endpoint count exceeds its cache,
/// URMA stays flat because it holds zero per-pair state.
pub fn conn_sweep() -> Sweep {
    Sweep::new("connsweep")
        .works(
            SWEEP_ENDPOINTS
                .iter()
                .map(|&e| Work::ConnSweep(e))
                .collect(),
        )
        .nis(&[NiKind::RdmaQp, NiKind::Urma])
}

/// One endpoint count of the connection sweep, folded.
#[derive(Clone, Debug)]
pub struct ConnSweepRow {
    /// Simulated logical endpoints.
    pub endpoints: u32,
    /// RDMA_QP p99 message latency (ns).
    pub rdma_p99_ns: f64,
    /// RDMA_QP mean message latency (ns).
    pub rdma_mean_ns: f64,
    /// URMA p99 message latency (ns).
    pub urma_p99_ns: f64,
    /// URMA mean message latency (ns).
    pub urma_mean_ns: f64,
}

/// Folds the connection sweep to per-endpoint-count latency rows.
pub fn conn_sweep_from_records(records: &[RunRecord]) -> Vec<ConnSweepRow> {
    SWEEP_ENDPOINTS
        .iter()
        .map(|&e| {
            let work = format!("connsweep:{e}");
            let rdma = rec(records, &work, NiKind::RdmaQp, B8, "");
            let urma = rec(records, &work, NiKind::Urma, B8, "");
            ConnSweepRow {
                endpoints: e,
                rdma_p99_ns: metric(rdma, "lat_p99_ns"),
                rdma_mean_ns: metric(rdma, "lat_mean_ns"),
                urma_p99_ns: metric(urma, "lat_p99_ns"),
                urma_mean_ns: metric(urma, "lat_mean_ns"),
            }
        })
        .collect()
}

/// The RDMA eager/rendezvous payload probe: round trips straddling the
/// default 128 B eager crossover. Below the crossover the RTT grows with
/// the per-block copy slope; at the crossover the rendezvous handshake
/// adds a visible step.
pub const RDMA_KINK_PAYLOADS: [u64; 4] = [32, 96, 160, 224];

/// The eager/rendezvous kink grid: RDMA_QP round trips across
/// [`RDMA_KINK_PAYLOADS`].
pub fn rdma_kink_sweep() -> Sweep {
    Sweep::new("rdma-kink")
        .works(
            RDMA_KINK_PAYLOADS
                .iter()
                .map(|&p| Work::RoundTrip(p))
                .collect(),
        )
        .nis(&[NiKind::RdmaQp])
}

/// Folds the kink sweep to `(payload, rtt_us)` pairs.
pub fn rdma_kink_from_records(records: &[RunRecord]) -> Vec<(u64, f64)> {
    RDMA_KINK_PAYLOADS
        .iter()
        .map(|&p| {
            let r = rec(records, &format!("rtt:{p}"), NiKind::RdmaQp, B8, "");
            (p, metric(r, "rtt_mean_us"))
        })
        .collect()
}

/// The strided-exchange grid: the scatter-gather NI under both software
/// strategies (one descriptor-driven send vs one send per row); the
/// gathered descriptor path must win.
pub fn strided_sweep() -> Sweep {
    Sweep::new("strided")
        .works(vec![
            Work::Strided(StridedStrategy::Gathered),
            Work::Strided(StridedStrategy::FragmentPerElement),
        ])
        .nis(&[NiKind::Sgdma])
}

/// Folds the strided sweep to `(gathered_ns, per_element_ns)`.
pub fn strided_from_records(records: &[RunRecord]) -> (f64, f64) {
    let g = metric(
        rec(records, "strided:gather", NiKind::Sgdma, B8, ""),
        "exchange_ns",
    );
    let f = metric(
        rec(records, "strided:per-elem", NiKind::Sgdma, B8, ""),
        "exchange_ns",
    );
    (g, f)
}

/// The golden shape-regression grid: every sweep whose qualitative
/// claims `EXPERIMENTS.md` records, at the default (paper-shaped)
/// parameters. `tests/goldens/golden_grid.json` pins the full output;
/// `nisim exp goldens` regenerates it and `tests/tests/golden_shapes.rs`
/// re-asserts every claim from the committed records.
pub fn golden_suite() -> Vec<Sweep> {
    // The two extra fig3b points back the coherent buffer-insensitivity
    // claim (em3d at 8 buffers vs the grid's 1).
    let fig3b = fig3b_sweep(&MacroApp::ALL)
        .point(
            Work::Macro(MacroApp::Em3d),
            NiKind::StartJr,
            B8,
            Patch::default(),
        )
        .point(
            Work::Macro(MacroApp::Em3d),
            NiKind::Cni32Qm,
            B8,
            Patch::default(),
        );
    vec![
        table5_sweep(),
        fig1_sweep(),
        fig1_differential_sweep(),
        fig3a_sweep(&MacroApp::ALL),
        fig3b,
        fig4_sweep(&MacroApp::ALL),
        fault_study_sweep(MacroApp::Em3d, NiKind::Cm5, &[0, 5]),
        conn_sweep(),
        rdma_kink_sweep(),
        strided_sweep(),
    ]
}

/// Path of the committed golden file (resolved from this crate's
/// manifest directory, so it works from any working directory).
pub fn golden_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/golden_grid.json")
}

/// Runs the golden suite on `jobs` workers and builds the one JSON
/// document `tests/goldens/golden_grid.json` pins.
pub fn golden_document(jobs: usize) -> nisim_engine::Json {
    crate::record::sections_document(&run_sweeps(&golden_suite(), jobs))
}

#[cfg(test)]
mod fault_study_tests {
    use super::*;
    use crate::harness::default_jobs;

    #[test]
    fn fault_study_recovers_every_message() {
        let (app, ni) = (MacroApp::Em3d, NiKind::Cm5);
        let records = fault_study_sweep(app, ni, &[0, 5]).run(default_jobs());
        let points = fault_study_from_records(&records, app, ni, &[0, 5]);
        let clean = &points[0];
        let lossy = &points[1];
        assert!(clean.recovered_all && lossy.recovered_all, "{points:?}");
        assert_eq!(clean.app_messages, lossy.app_messages);
        assert_eq!(clean.offered, 0, "0% must not build a fault plan");
        assert!(
            lossy.dropped > 0 && lossy.retransmits >= lossy.dropped,
            "{lossy:?}"
        );
    }

    #[test]
    fn fault_study_is_deterministic() {
        let (app, ni) = (MacroApp::Appbt, NiKind::Ap3000);
        let run = || {
            let records = fault_study_sweep(app, ni, &[5]).run(default_jobs());
            fault_study_from_records(&records, app, ni, &[5])
        };
        let (a, b) = (run(), run());
        assert_eq!(a[0].elapsed_ns, b[0].elapsed_ns);
        assert_eq!(a[0].dropped, b[0].dropped);
        assert_eq!(a[0].retransmits, b[0].retransmits);
    }
}

#[cfg(test)]
mod fig1_differential_tests {
    use super::*;
    use crate::harness::default_jobs;

    #[test]
    fn differential_components_are_sane() {
        let rows = fig1_differential_from_records(&fig1_differential_sweep().run(default_jobs()));
        for r in &rows {
            assert!(r.buffering >= 0.0 && r.data_transfer >= 0.0, "{r:?}");
            assert!(r.base > 0.0 && r.base <= 1.0, "{r:?}");
        }
        // em3d is the most buffering-bound app under this decomposition.
        let em3d = rows.iter().find(|r| r.app == MacroApp::Em3d).unwrap();
        for r in rows.iter().filter(|r| r.app != MacroApp::Em3d) {
            assert!(
                em3d.buffering >= r.buffering * 0.9,
                "em3d {} vs {} {}",
                em3d.buffering,
                r.app,
                r.buffering
            );
        }
        // Data transfer is a substantial component for every app.
        assert!(rows.iter().all(|r| r.data_transfer > 0.03), "{rows:?}");
    }
}
