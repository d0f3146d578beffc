//! Golden shape-regression suite: every qualitative claim EXPERIMENTS.md
//! records, re-asserted from the **committed** machine-readable results
//! in `tests/goldens/golden_grid.json` — plus a byte-for-byte comparison
//! against a fresh in-process rerun, so any behavioural drift in the
//! simulator shows up as a golden mismatch even if it happens to keep
//! every shape claim true.
//!
//! Regenerate the golden file after an intended behaviour change with
//!
//! ```text
//! cargo run --release -p nisim-bench --bin goldens -- --update-goldens
//! ```

use nisim_bench::record::{lookup, parse_document, RunRecord};
use nisim_bench::{
    breakdown_document, breakdown_from_records, breakdown_golden_path, conn_sweep_from_records,
    curves_from_records, default_jobs, fault_study_from_records, fig1_differential_from_records,
    fig1_from_records, fig3a_sweep, fig3b_from_records, fig4_from_records, golden_document,
    golden_path, loadlat_golden_path, rdma_kink_from_records, strided_from_records,
    table5_from_records, LoadCurve,
};
use nisim_core::{NiKind, TimeCategory};
use nisim_workloads::apps::MacroApp;
use nisim_workloads::traffic::TrafficKind;

fn committed() -> Vec<(String, Vec<RunRecord>)> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read the committed golden grid at {} ({e}); regenerate it with\n\
             `cargo run --release -p nisim-bench --bin goldens -- --update-goldens`",
            path.display()
        )
    });
    parse_document(&text).expect("committed golden grid parses")
}

fn section<'a>(doc: &'a [(String, Vec<RunRecord>)], name: &str) -> &'a [RunRecord] {
    &doc.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("golden grid lacks sweep {name:?}"))
        .1
}

fn elapsed(records: &[RunRecord], work: &str, ni: NiKind, buffers: &str) -> f64 {
    lookup(records, work, ni.key(), buffers, "")
        .unwrap_or_else(|| panic!("missing golden record {work}/{}/{buffers}", ni.key()))
        .elapsed_ns as f64
}

/// Satellite guarantee: no golden run may have stalled, run out of
/// budget, or left an endpoint non-quiescent — a surprise stall in any
/// sweep is a regression even if the shapes still hold.
#[test]
fn golden_runs_all_drained_without_stalls() {
    let doc = committed();
    assert!(!doc.is_empty());
    for (name, records) in &doc {
        assert!(!records.is_empty(), "sweep {name} is empty");
        for r in records {
            assert_eq!(
                r.status, "drained",
                "{name}: {}/{} did not drain",
                r.work, r.ni
            );
            assert!(r.quiescent, "{name}: {}/{} not quiescent", r.work, r.ni);
            assert!(
                r.stall.is_none(),
                "{name}: {}/{} reports an unexpected stall: {:?}",
                r.work,
                r.ni,
                r.stall
            );
            let sum: f64 = TimeCategory::ALL.iter().map(|&c| r.fraction(c)).sum();
            assert!(
                r.accounted_ns() == 0 || (sum - 1.0).abs() < 1e-9,
                "{name}: {}/{} accounting incomplete ({sum})",
                r.work,
                r.ni
            );
        }
    }
}

/// Table 5 orderings and crossovers (EXPERIMENTS.md "Table 5"), from the
/// committed records.
#[test]
fn golden_table5_orderings() {
    let doc = committed();
    let (rows, throttled) = table5_from_records(section(&doc, "table5"));
    let get = |k: NiKind| rows.iter().find(|r| r.kind == k).expect("row");
    let cm5 = get(NiKind::Cm5);
    let udma = get(NiKind::Udma);
    let ap = get(NiKind::Ap3000);
    let sj = get(NiKind::StartJr);
    let mc = get(NiKind::MemoryChannel);
    let c512 = get(NiKind::Cni512Q);
    let c32 = get(NiKind::Cni32Qm);

    // CM-5 <-> UDMA latency crossover between 64 B and 256 B payloads.
    assert!(udma.rtt_us[0] > cm5.rtt_us[0], "udma worse at 8 B");
    assert!(udma.rtt_us[2] < cm5.rtt_us[2], "udma better at 256 B");
    // UDMA is otherwise the slowest; AP3000 >> UDMA.
    for i in 0..3 {
        assert!(udma.rtt_us[i] > ap.rtt_us[i], "udma vs ap at {i}");
    }
    assert!(ap.rtt_us[2] < 0.8 * udma.rtt_us[2]);
    // StarT-JR beats AP3000 below 64 B, loses at 256 B; MC tracks SJ.
    assert!(sj.rtt_us[0] < ap.rtt_us[0]);
    assert!(sj.rtt_us[2] > ap.rtt_us[2]);
    for i in 0..3 {
        let ratio = mc.rtt_us[i] / sj.rtt_us[i];
        assert!((0.85..=1.15).contains(&ratio), "MC vs SJ at {i}: {ratio}");
    }
    // CNI_512Q beats StarT-JR at the larger payloads.
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
    // Bandwidth: CM-5 plateaus lowest; UDMA worst at 8 B; AP3000 best
    // unthrottled; throttled CNI_32Qm fastest of all.
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
    let ratio = c32.bw_mb_s[3] / sj.bw_mb_s[3];
    assert!((0.8..=1.25).contains(&ratio), "c32 vs sj bw: {ratio}");
}

/// Figure 1 decompositions (EXPERIMENTS.md "Figure 1"): complete
/// fractions, messaging-dominated bursty apps, compute-heavy solvers,
/// and the differential methodology's em3d-most-buffering-bound shape.
#[test]
fn golden_fig1_decompositions() {
    let doc = committed();
    let rows = fig1_from_records(section(&doc, "fig1"));
    assert_eq!(rows.len(), MacroApp::ALL.len());
    for r in &rows {
        let sum = r.compute + r.data_transfer + r.buffering + r.idle;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{}: fractions sum to {sum}",
            r.app
        );
    }
    let by = |app: MacroApp| rows.iter().find(|r| r.app == app).expect("row");
    let em3d = by(MacroApp::Em3d);
    assert!(em3d.data_transfer + em3d.buffering > 0.6, "em3d messaging");
    assert!(em3d.buffering > 0.15, "em3d buffering at B=1");
    assert!(by(MacroApp::Appbt).compute > 0.25, "appbt compute share");

    let diff = fig1_differential_from_records(section(&doc, "fig1-differential"));
    let em3d = diff.iter().find(|r| r.app == MacroApp::Em3d).expect("em3d");
    for r in &diff {
        assert!(r.buffering >= 0.0 && r.data_transfer > 0.03, "{:?}", r.app);
        assert!(r.base > 0.0 && r.base <= 1.0, "{:?}", r.app);
        if r.app != MacroApp::Em3d {
            assert!(
                em3d.buffering >= r.buffering * 0.9,
                "em3d must be the most buffering-bound (vs {:?})",
                r.app
            );
        }
    }
}

/// Figure 3a claims (EXPERIMENTS.md "Figure 3a"): the FIFO ordering at
/// infinite buffering, the 1→2 buffer win, em3d's deep-buffering appetite
/// and buffering monotonicity.
#[test]
fn golden_fig3a_fifo_buffer_shapes() {
    let doc = committed();
    let recs = section(&doc, "fig3a");
    // §6.2.1 ordering with infinite buffering.
    for app in ["appbt", "em3d", "unstructured"] {
        let cm5 = elapsed(recs, app, NiKind::Cm5, "inf");
        let udma = elapsed(recs, app, NiKind::Udma, "inf");
        let ap = elapsed(recs, app, NiKind::Ap3000, "inf");
        assert!(udma <= cm5 * 1.02, "{app}: udma {udma} vs cm5 {cm5}");
        assert!(ap < udma, "{app}: ap {ap} vs udma {udma}");
    }
    // 1 -> 2 buffers helps the communication-heavy apps on every FIFO NI.
    for app in ["barnes", "em3d"] {
        for ni in [NiKind::Cm5, NiKind::Ap3000] {
            let b1 = elapsed(recs, app, ni, "1");
            let b2 = elapsed(recs, app, ni, "2");
            assert!(b2 < b1, "{app} on {ni:?}: B=2 {b2} vs B=1 {b1}");
        }
    }
    // em3d keeps improving to infinity; appbt does not.
    let em3d_2 = elapsed(recs, "em3d", NiKind::Cm5, "2");
    let em3d_inf = elapsed(recs, "em3d", NiKind::Cm5, "inf");
    assert!(
        em3d_2 > 1.12 * em3d_inf,
        "em3d 2->inf: {em3d_2} vs {em3d_inf}"
    );
    let appbt_2 = elapsed(recs, "appbt", NiKind::Cm5, "2");
    let appbt_inf = elapsed(recs, "appbt", NiKind::Cm5, "inf");
    assert!(appbt_2 < 1.12 * appbt_inf, "appbt gains little beyond 2");
    // Shrinking finite buffering never helps the communication-bound
    // apps (appbt is compute-bound enough that its AP3000 series is flat
    // to within scheduling noise, so it is not held to monotonicity).
    for app in MacroApp::ALL {
        if app == MacroApp::Appbt {
            continue;
        }
        for ni in [NiKind::Cm5, NiKind::Udma, NiKind::Ap3000] {
            let series: Vec<f64> = ["8", "2", "1"]
                .iter()
                .map(|b| elapsed(recs, app.name(), ni, b))
                .collect();
            for w in series.windows(2) {
                assert!(
                    w[1] >= w[0] * 0.999,
                    "{app} on {ni:?}: fewer buffers must not help ({series:?})"
                );
            }
        }
    }
    // And unbounded buffering is never materially worse than the best
    // finite level on any app/NI.
    for app in MacroApp::ALL {
        for ni in [NiKind::Cm5, NiKind::Udma, NiKind::Ap3000] {
            let inf = elapsed(recs, app.name(), ni, "inf");
            let best = ["8", "2", "1"]
                .iter()
                .map(|b| elapsed(recs, app.name(), ni, b))
                .fold(f64::INFINITY, f64::min);
            assert!(
                inf <= best * 1.05,
                "{app} on {ni:?}: inf {inf} vs best finite {best}"
            );
        }
    }
}

/// Figure 3b claims (EXPERIMENTS.md "Figure 3b"): CNI_32Qm best of the
/// coherent NIs, the unstructured exception vs AP3000, coherent buffer
/// insensitivity, and the §6.2.2 memory-traffic reduction.
#[test]
fn golden_fig3b_coherent_shapes() {
    let doc = committed();
    let recs = section(&doc, "fig3b");
    for app in MacroApp::ALL {
        let rows = fig3b_from_records(recs, app);
        let by = |k: NiKind| rows.iter().find(|r| r.point.ni == k).expect("row");
        let c32 = by(NiKind::Cni32Qm);
        // MemoryChannel is excluded: EXPERIMENTS.md records that our MC
        // model ties or slightly beats StarT-JR (and on appbt edges out
        // the CNI) — a documented deviation from the paper's Figure 3b.
        for other in [NiKind::StartJr, NiKind::Cni512Q] {
            assert!(
                c32.point.normalized <= by(other).point.normalized * 1.02,
                "{app}: CNI_32Qm must be best of the queue-based coherent NIs (vs {other:?})"
            );
        }
    }
    // CNI_32Qm beats AP3000@8 everywhere except unstructured.
    for app in MacroApp::ALL {
        let c32 = fig3b_from_records(recs, app)
            .iter()
            .find(|r| r.point.ni == NiKind::Cni32Qm)
            .expect("row")
            .point
            .normalized;
        if app == MacroApp::Unstructured {
            assert!(c32 > 1.0, "unstructured favours the AP3000-like NI");
        } else if app == MacroApp::Barnes {
            // EXPERIMENTS.md's table has barnes as a near-tie (1.02).
            assert!(c32 <= 1.02, "barnes should be a near-tie ({c32})");
        } else {
            assert!(c32 < 1.0, "{app} should favour CNI_32Qm ({c32})");
        }
    }
    // Coherent designs are largely insensitive to flow-control buffers
    // (the golden grid carries em3d B=8 extras for exactly this check).
    for ni in [NiKind::StartJr, NiKind::Cni32Qm] {
        let b1 = elapsed(recs, "em3d", ni, "1");
        let b8 = elapsed(recs, "em3d", ni, "8");
        let ratio = b1 / b8;
        assert!((0.95..=1.2).contains(&ratio), "{ni:?} em3d B1/B8 = {ratio}");
    }
    // §6.2.2: CNI_32Qm sharply cuts main-memory block reads vs StarT-JR.
    let em3d = fig3b_from_records(recs, MacroApp::Em3d);
    let reads = |k: NiKind| {
        em3d.iter()
            .find(|r| r.point.ni == k)
            .expect("row")
            .mem_reads
    };
    assert!(
        (reads(NiKind::Cni32Qm) as f64) < 0.6 * reads(NiKind::StartJr) as f64,
        "CNI_32Qm {} vs StarT-JR {} memory reads",
        reads(NiKind::Cni32Qm),
        reads(NiKind::StartJr)
    );
    for app in MacroApp::ALL {
        let rows = fig3b_from_records(recs, app);
        let r = |k: NiKind| {
            rows.iter()
                .find(|r| r.point.ni == k)
                .expect("row")
                .mem_reads
        };
        assert!(
            r(NiKind::Cni32Qm) <= r(NiKind::StartJr),
            "{app}: the CNI must never read more memory than StarT-JR"
        );
    }
}

/// Figure 4 claims (EXPERIMENTS.md "Figure 4"): the register-mapped NI's
/// advantage erodes as buffering shrinks, and deep buffering restores it.
#[test]
fn golden_fig4_register_mapped_shapes() {
    let doc = committed();
    let recs = section(&doc, "fig4");
    for app in MacroApp::ALL {
        let points = fig4_from_records(recs, app);
        // Normalised time declines (or holds) from B=2 up; the 1->2 step
        // may invert by a hair (EXPERIMENTS.md's table shows ties and
        // sub-1% inversions there, e.g. em3d 0.94 -> 0.98), but the
        // endpoints must still order: B=32 beats B=1.
        for w in points[1..].windows(2) {
            assert!(
                w[1].normalized <= w[0].normalized * 1.001,
                "{app}: fig4 series must decline beyond B=2 ({points:?})"
            );
        }
        assert!(
            points[3].normalized <= points[0].normalized * 1.001,
            "{app}: B=32 must beat B=1 ({points:?})"
        );
        // At 32 buffers the register-mapped NI wins on every app.
        assert!(
            points[3].normalized < 0.9,
            "{app}: deep buffering should favour NI_2w ({})",
            points[3].normalized
        );
    }
    // em3d's buffering sensitivity: B=1 is >20% slower than B=32.
    let em3d = fig4_from_records(recs, MacroApp::Em3d);
    assert!(
        em3d[0].elapsed_ns as f64 > 1.2 * em3d[3].elapsed_ns as f64,
        "em3d on NI_2w: B=1 vs B=32"
    );
}

/// Fault-study claims: the 0% run builds no fault plan, the 5% run loses
/// fragments and recovers every one by retransmission.
#[test]
fn golden_fault_recovery_shapes() {
    let doc = committed();
    let points = fault_study_from_records(
        section(&doc, "fault:em3d:cm5"),
        MacroApp::Em3d,
        NiKind::Cm5,
        &[0, 5],
    );
    let (clean, lossy) = (&points[0], &points[1]);
    assert!(clean.recovered_all && lossy.recovered_all, "{points:?}");
    assert_eq!(clean.offered, 0, "0% must not build a fault plan");
    assert_eq!(clean.app_messages, lossy.app_messages);
    assert!(lossy.dropped > 0, "5% loss must drop fragments");
    assert!(lossy.retransmits >= lossy.dropped, "{lossy:?}");
    // Retransmission reshuffles event timing, so 5% loss may move the
    // elapsed time a percent either way — but it must stay bounded.
    assert!(
        (0.9..=1.5).contains(&lossy.normalized),
        "5% loss moved elapsed time out of bounds: {}",
        lossy.normalized
    );
}

/// The connection-count sweep (EXPERIMENTS.md "connection sweep"): the
/// RDMA queue-pair NI falls off the QP-state-capacity cliff — p99 at
/// least doubles once the endpoint count exceeds its 64-entry cache —
/// while the connectionless URMA NI stays within 1.2× of its 4-endpoint
/// baseline across the whole sweep.
#[test]
fn golden_connsweep_cliff_and_flat_line() {
    let doc = committed();
    let rows = conn_sweep_from_records(section(&doc, "connsweep"));
    let base = &rows[0];
    assert_eq!(base.endpoints, 4, "the sweep starts at 4 endpoints");
    for r in &rows {
        if r.endpoints <= 64 {
            assert!(
                r.rdma_p99_ns < 1.2 * base.rdma_p99_ns,
                "rdma-qp must stay flat within its cache ({} endpoints: {} vs {})",
                r.endpoints,
                r.rdma_p99_ns,
                base.rdma_p99_ns
            );
        } else {
            assert!(
                r.rdma_p99_ns >= 2.0 * base.rdma_p99_ns,
                "rdma-qp p99 must at least double past capacity ({} endpoints: {} vs {})",
                r.endpoints,
                r.rdma_p99_ns,
                base.rdma_p99_ns
            );
        }
        assert!(
            r.urma_p99_ns <= 1.2 * base.urma_p99_ns,
            "urma must be endpoint-count immune ({} endpoints: {} vs {})",
            r.endpoints,
            r.urma_p99_ns,
            base.urma_p99_ns
        );
    }
}

/// The RDMA eager/rendezvous payload kink (EXPERIMENTS.md "modern
/// NIs"): the round trip grows with payload, and the step across the
/// 128 B crossover — where the rendezvous handshake joins the bill — is
/// larger than either same-protocol step beside it.
#[test]
fn golden_rdma_payload_kink() {
    let doc = committed();
    let points = rdma_kink_from_records(section(&doc, "rdma-kink"));
    for w in points.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "rtt must grow with payload: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    // Payloads are equally spaced, so the slope step is visible directly.
    let step: Vec<f64> = points.windows(2).map(|w| w[1].1 - w[0].1).collect();
    assert!(
        step[1] > step[0] && step[1] > step[2],
        "the crossover step must dominate its neighbours: {step:?}"
    );
}

/// The strided-exchange claim (EXPERIMENTS.md "modern NIs"): one
/// gathered descriptor beats a fragment-per-element software loop on
/// the scatter-gather NI.
#[test]
fn golden_strided_gather_wins() {
    let doc = committed();
    let (gathered, per_elem) = strided_from_records(section(&doc, "strided"));
    assert!(
        gathered < per_elem,
        "the descriptor path must win: gathered {gathered} vs per-element {per_elem}"
    );
}

/// Cycle-occupancy breakdown claims, from the committed
/// `golden_breakdown.json`: the CM-5-style designs pay the most
/// processor overhead per accounted cycle, and the coherent CNI designs
/// shift that time off the processor and into NI buffer residency.
#[test]
fn golden_breakdown_occupancy_shapes() {
    let text = std::fs::read_to_string(breakdown_golden_path()).unwrap_or_else(|e| {
        panic!(
            "cannot read the committed breakdown golden ({e}); regenerate it with\n\
             `cargo run --release -p nisim-bench --bin breakdown -- --update-goldens`"
        )
    });
    let doc = parse_document(&text).expect("breakdown golden parses");
    let rows = breakdown_from_records(section(&doc, "breakdown"));
    assert_eq!(rows.len(), NiKind::TABLE2.len() + NiKind::MODERN.len());
    let by = |k: NiKind| rows.iter().find(|r| r.ni == k).expect("row");
    for r in &rows {
        assert!(r.total_ns > 0, "{:?} accounted nothing", r.ni);
        let sum = r.proc_share + r.bus_share + r.stall_share + r.ni_share + r.wire_share;
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "{:?}: shares sum to {sum} (a component escaped the grouping)",
            r.ni
        );
    }
    // CM-5: every word crosses the processor, so it pays the largest
    // processor-overhead share (UDMA ties it below the DMA threshold).
    let cm5 = by(NiKind::Cm5);
    for r in &rows {
        assert!(
            cm5.proc_share >= r.proc_share * 0.999,
            "{:?} out-paid CM-5 on processor overhead ({} vs {})",
            r.ni,
            r.proc_share,
            cm5.proc_share
        );
    }
    // The coherent CNI designs move data with block transfers instead of
    // programmed I/O: processor share collapses (well under half of
    // CM-5's) while the cycles shift into NI buffer residency.
    for k in [NiKind::Cni512Q, NiKind::Cni32Qm] {
        let cni = by(k);
        assert!(
            cni.proc_share < 0.5 * cm5.proc_share,
            "{k:?} proc share {} vs cm5 {}",
            cni.proc_share,
            cm5.proc_share
        );
        assert!(
            cni.ni_share > cm5.ni_share,
            "{k:?} ni share {} vs cm5 {}",
            cni.ni_share,
            cm5.ni_share
        );
    }
}

/// The breakdown golden's own drift tripwire: a fresh metrics-on rerun
/// must reproduce the committed file byte for byte.
#[test]
fn breakdown_golden_matches_a_fresh_rerun_byte_for_byte() {
    let committed_text =
        std::fs::read_to_string(breakdown_golden_path()).expect("committed breakdown golden");
    let fresh = breakdown_document(default_jobs()).to_pretty();
    assert!(
        committed_text == fresh,
        "the breakdown golden drifted from the simulator's current behaviour;\n\
         if the change is intended, regenerate with\n\
         `cargo run --release -p nisim-bench --bin breakdown -- --update-goldens`"
    );
}

fn committed_loadlat() -> Vec<(String, Vec<RunRecord>)> {
    let path = loadlat_golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read the committed load/latency golden at {} ({e}); regenerate it with\n\
             `cargo run --release -p nisim-bench --bin loadlat -- --update-goldens`",
            path.display()
        )
    });
    parse_document(&text).expect("committed loadlat golden parses")
}

fn by_ni(curves: &[LoadCurve], ni: NiKind) -> &LoadCurve {
    curves
        .iter()
        .find(|c| c.ni == ni.key())
        .unwrap_or_else(|| panic!("no curve for {}", ni.key()))
}

/// Open-loop hockey sticks (EXPERIMENTS.md "load/latency"): under
/// uniform Poisson arrivals every design's p99 curve rises monotonically
/// (to measurement noise) with offered load, every run drains, and the
/// knee ordering separates the buffering schemes — the CM-5-style
/// return-to-sender designs saturate first, the coherent queue designs
/// later, CNI_32Qm last.
#[test]
fn golden_loadlat_hockey_sticks() {
    let doc = committed_loadlat();
    let curves = curves_from_records(section(&doc, "loadlat"), TrafficKind::PoissonUniform, "uni");
    for c in &curves {
        assert_eq!(c.p99_ns.len(), 7, "{}: incomplete ladder", c.ni);
        for (i, s) in c.status.iter().enumerate() {
            assert_eq!(s, "drained", "{} L{}: arrivals are finite", c.ni, i + 1);
            assert!(c.delivery[i] >= 1.0, "{} L{}: lost messages", c.ni, i + 1);
        }
        // The latency curve must never fall materially as load rises.
        for (i, w) in c.p99_ns.windows(2).enumerate() {
            assert!(
                w[1] >= w[0] * 0.90,
                "{}: p99 fell from L{} to L{} ({:?})",
                c.ni,
                i + 1,
                i + 2,
                c.p99_ns
            );
        }
        // And it must actually hockey-stick: the top of the ladder is
        // far above the flat region.
        let knee = c.knee_level();
        assert!(
            knee.is_some(),
            "{}: no knee — the ladder never saturated ({:?})",
            c.ni,
            c.p99_ns
        );
        assert!(
            c.p99_ns[6] > 4.0 * c.p99_ns[0],
            "{}: top-of-ladder p99 not clearly saturated ({:?})",
            c.ni,
            c.p99_ns
        );
    }
    // Knee ordering: the programmed-I/O designs leave the flat region
    // strictly before the coherent designs, and CNI_32Qm holds out the
    // longest of all.
    let knee = |ni: NiKind| by_ni(&curves, ni).knee_level().unwrap();
    for fifo in [NiKind::Cm5, NiKind::Udma] {
        for coherent in [
            NiKind::Ap3000,
            NiKind::MemoryChannel,
            NiKind::StartJr,
            NiKind::Cni512Q,
            NiKind::Cni32Qm,
        ] {
            assert!(
                knee(fifo) < knee(coherent),
                "{fifo:?} (L{}) must saturate before {coherent:?} (L{})",
                knee(fifo),
                knee(coherent)
            );
        }
    }
    for other in [
        NiKind::Cm5,
        NiKind::Udma,
        NiKind::Ap3000,
        NiKind::MemoryChannel,
        NiKind::StartJr,
        NiKind::Cni512Q,
    ] {
        assert!(
            knee(NiKind::Cni32Qm) > knee(other),
            "CNI_32Qm must saturate last (L{} vs {other:?} L{})",
            knee(NiKind::Cni32Qm),
            knee(other)
        );
    }
    // SLO verdicts at the mid-ladder level are stable: the CM-5-style
    // designs have already blown the tail budget, everyone else passes.
    for c in &curves {
        let expect = !matches!(c.ni.as_str(), "cm5" | "udma");
        assert_eq!(
            c.meets_slo(),
            expect,
            "{}: SLO verdict flipped (p99@L4 = {:?})",
            c.ni,
            c.p99_at(4)
        );
    }
}

/// The incast separation (EXPERIMENTS.md "incast"): under N→1 fan-in the
/// return-to-sender schemes latency-collapse levels before the coherent
/// queue designs — CM-5's L2 p99 inflates two orders of magnitude over
/// CNI_32Qm's, which is still flat there.
#[test]
fn golden_incast_collapse_separation() {
    let doc = committed_loadlat();
    let curves = curves_from_records(
        section(&doc, "incast"),
        TrafficKind::PoissonIncast,
        "incast",
    );
    let cm5 = by_ni(&curves, NiKind::Cm5);
    let c32 = by_ni(&curves, NiKind::Cni32Qm);
    // CM-5 has collapsed by L2 while CNI_32Qm is still flat: > 100×
    // apart on p99 (the committed run records ~125×).
    let (cm5_l2, c32_l2) = (cm5.p99_at(2).unwrap(), c32.p99_at(2).unwrap());
    assert!(
        cm5_l2 > 100.0 * c32_l2,
        "incast L2 separation collapsed: cm5 {cm5_l2} vs cni32qm {c32_l2}"
    );
    // Return-to-sender retry storms are the mechanism: CM-5 burns
    // thousands of retries at L2, the deep coherent queue none.
    let l2 = |ni: NiKind| {
        let key = "traffic:pois-incast:2";
        lookup(section(&doc, "incast"), key, ni.key(), "8", "")
            .unwrap_or_else(|| panic!("missing incast L2 record for {}", ni.key()))
    };
    assert!(
        l2(NiKind::Cm5).counter("retries") > 1_000,
        "CM-5 incast must be a retry storm"
    );
    assert_eq!(
        l2(NiKind::Cni32Qm).counter("retries"),
        0,
        "CNI_32Qm absorbs L2 incast without a single retry"
    );
    // Knee ordering: no coherent design saturates before CM-5, and
    // CNI_32Qm strictly outlasts it.
    let cm5_knee = cm5.knee_level().unwrap();
    for c in &curves {
        assert!(
            c.knee_level().unwrap() >= cm5_knee,
            "{}: saturated before the return-to-sender baseline",
            c.ni
        );
    }
    assert!(c32.knee_level().unwrap() > cm5_knee);
}

/// The multi-tenant mix (EXPERIMENTS.md "mixes"): both services get
/// recorded percentile blocks, and the light web tenant's tail rides the
/// shared saturation — at the heavy level its p99 degrades alongside the
/// bulk tenant's on every design.
#[test]
fn golden_tenant_mix_percentiles() {
    let doc = committed_loadlat();
    let recs = section(&doc, "mixes");
    for ni in nisim_bench::LOADLAT_NIS {
        for level in [3u32, 6] {
            let key = format!("traffic:mix:{level}");
            let r = lookup(recs, &key, ni.key(), "8", "")
                .unwrap_or_else(|| panic!("missing {key} for {}", ni.key()));
            assert_eq!(r.tenants.len(), 2, "{key}/{}", ni.key());
            for t in ["web", "bulk"] {
                let t = r.tenant(t).unwrap();
                assert_eq!(t.delivered, t.offered, "{key}/{}: lost", ni.key());
                assert!(t.p50_ns > 0.0 && t.p50_ns <= t.p99_ns && t.p99_ns <= t.p999_ns);
            }
        }
        let web = |level: u32| {
            lookup(recs, &format!("traffic:mix:{level}"), ni.key(), "8", "")
                .unwrap()
                .tenant("web")
                .unwrap()
                .p99_ns
        };
        assert!(
            web(6) > web(3),
            "{}: the web tenant's tail must feel the shared saturation",
            ni.key()
        );
    }
}

/// The loadlat golden's own drift tripwire: a fresh in-process rerun of
/// all three traffic sweeps must reproduce the committed file byte for
/// byte.
#[test]
fn loadlat_golden_matches_a_fresh_rerun_byte_for_byte() {
    use nisim_bench::record::{document, sweep_to_json};
    use nisim_bench::{incast_sweep, loadlat_sweep, mixes_sweep};
    let committed_text =
        std::fs::read_to_string(loadlat_golden_path()).expect("committed loadlat golden");
    let jobs = default_jobs();
    let fresh = document(vec![
        sweep_to_json("loadlat", &loadlat_sweep().run(jobs)),
        sweep_to_json("incast", &incast_sweep().run(jobs)),
        sweep_to_json("mixes", &mixes_sweep().run(jobs)),
    ])
    .to_pretty();
    assert!(
        committed_text == fresh,
        "the loadlat golden drifted from the simulator's current behaviour;\n\
         if the change is intended, regenerate with\n\
         `cargo run --release -p nisim-bench --bin loadlat -- --update-goldens`"
    );
}

/// The drift tripwire: a fresh in-process rerun of the whole golden
/// suite must reproduce the committed file byte for byte.
#[test]
fn golden_matches_a_fresh_rerun_byte_for_byte() {
    let committed_text = std::fs::read_to_string(golden_path()).expect("committed golden grid");
    let fresh = golden_document(default_jobs()).to_pretty();
    assert!(
        committed_text == fresh,
        "the golden grid drifted from the simulator's current behaviour;\n\
         if the change is intended, regenerate with\n\
         `cargo run --release -p nisim-bench --bin goldens -- --update-goldens`"
    );
}

/// Satellite determinism guarantee: a sweep's JSON is byte-identical
/// whether it ran on one worker or eight.
#[test]
fn sweep_json_is_byte_identical_across_job_counts() {
    use nisim_bench::record::{document, sweep_to_json};
    let sweep = fig3a_sweep(&[MacroApp::Em3d]);
    let serial = sweep.run(1);
    let parallel = sweep.run(8);
    let a = document(vec![sweep_to_json(&sweep.name, &serial)]).to_pretty();
    let b = document(vec![sweep_to_json(&sweep.name, &parallel)]).to_pretty();
    assert!(
        !a.is_empty() && a == b,
        "jobs=1 and jobs=8 must emit identical bytes"
    );
}
