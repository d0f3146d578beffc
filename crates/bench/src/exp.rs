//! The experiment table: every table, figure and extension study this
//! repository regenerates, one [`EXPERIMENTS`] row each, run by
//! `nisim exp <name>`.
//!
//! A row pairs a name and a one-line summary with a [`Runner`]. The
//! runner prints the row's text into the caller's buffer, and its kind
//! fixes which output flags the row honours: text-only rows take
//! neither `--json` nor `--update-goldens`, record rows return the
//! sections `--json` writes, and golden rows return the document their
//! committed golden pins. Adding an experiment means one runner function
//! and one row.

use std::path::PathBuf;

use nisim_core::{MachineConfig, NiKind, NiUnit};
use nisim_engine::Dur;
use nisim_net::switch_survey::{
    buffer_wire_time_ns, max_survey_bytes, MODERN_SWITCH_SURVEY, SWITCH_SURVEY,
};
use nisim_net::BufferCount;
use nisim_workloads::apps::{run_app, MacroApp, UNSTRUCTURED_RANGE_MEAN};
use nisim_workloads::micro::bandwidth::bandwidth_for;
use nisim_workloads::micro::pingpong::round_trip_for;
use nisim_workloads::synthetic::{run_synthetic, Locality, SyntheticParams};
use nisim_workloads::traffic::{TrafficKind, TrafficSpec, MAX_LOAD_LEVEL};

use crate::chaos::{chaos_document, chaos_path};
use crate::experiments::*;
use crate::fmt::{norm, pct, TableWriter};
use crate::harness::run_sweeps;
use crate::loadlat::{
    curves_from_records, incast_sweep, loadlat_golden_path, loadlat_sweep, mixes_sweep,
    LOADLAT_NIS, SLO_LEVEL, SLO_P99_NS,
};
use crate::record::{lookup, sections_document, RunRecord};

/// One named list of records: a section of a `--json` document.
pub type Section = (String, Vec<RunRecord>);

/// One experiment: what `nisim exp <name>` runs and `nisim list` shows.
pub struct Experiment {
    /// The name `nisim exp` takes.
    pub name: &'static str,
    /// One line for the listing.
    pub summary: &'static str,
    /// How the row runs, which fixes the flags it accepts.
    pub runner: Runner,
}

/// How a row runs. Each runner takes the output buffer its text goes
/// into; the sweep-running kinds also take the worker count.
#[derive(Clone, Copy)]
pub enum Runner {
    /// Prints text only: the row takes neither `--json` nor
    /// `--update-goldens`.
    Text(fn(&mut String)),
    /// Prints text and returns the record sections `--json` writes.
    Records(fn(usize, &mut String) -> Vec<Section>),
    /// Prints text and builds the document a committed golden pins:
    /// `--json` writes it, `--update-goldens` rewrites the golden.
    Golden {
        /// Where the committed golden lives.
        path: fn() -> PathBuf,
        /// Names the golden in the match and drift messages.
        label: &'static str,
        /// Prints the row's text and returns the fresh document's
        /// bytes, or why the run failed a check of its own.
        run: fn(usize, &mut String) -> Result<String, String>,
    },
}

/// Every experiment, in listing order: the paper's tables and figures,
/// then the extension studies, then the golden-checked suites.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        summary: "Table 1: switch/router buffering, plus modern fabrics",
        runner: Runner::Text(table1),
    },
    Experiment {
        name: "table2",
        summary: "Table 2: taxonomy of the seven NIs and the modern designs",
        runner: Runner::Text(table2),
    },
    Experiment {
        name: "table3",
        summary: "Table 3: system parameters of the default machine",
        runner: Runner::Text(table3),
    },
    Experiment {
        name: "table4",
        summary: "Table 4: macrobenchmark message sizes, measured vs paper",
        runner: Runner::Text(table4),
    },
    Experiment {
        name: "table5",
        summary: "Table 5: round-trip latency and bandwidth per NI",
        runner: Runner::Records(table5),
    },
    Experiment {
        name: "fig1",
        summary: "Figure 1: execution-time decomposition on the CM-5-like NI",
        runner: Runner::Records(fig1),
    },
    Experiment {
        name: "fig3a",
        summary: "Figure 3a: FIFO NIs vs flow-control buffers",
        runner: Runner::Records(fig3a),
    },
    Experiment {
        name: "fig3b",
        summary: "Figure 3b: coherent NIs at one buffer, plus memory reads",
        runner: Runner::Records(fig3b),
    },
    Experiment {
        name: "fig4",
        summary: "Figure 4: single-cycle NI_2w vs CNI_32Qm across buffers",
        runner: Runner::Records(fig4),
    },
    Experiment {
        name: "ablations",
        summary: "CNI prefetch, bypass, dead-block, throttle, cache size",
        runner: Runner::Records(ablations),
    },
    Experiment {
        name: "sensitivity",
        summary: "UDMA crossover, memory gap and wire latency",
        runner: Runner::Records(sensitivity),
    },
    Experiment {
        name: "logp",
        summary: "LogP o/L/g of the seven NIs at 64 B",
        runner: Runner::Records(logp),
    },
    Experiment {
        name: "topology",
        summary: "em3d on ideal, ring and 2-D mesh fabrics",
        runner: Runner::Records(topology),
    },
    Experiment {
        name: "bus_study",
        summary: "bus transactions and utilisation per NI",
        runner: Runner::Text(bus_study),
    },
    Experiment {
        name: "coalescing",
        summary: "coalescing store buffer vs word and block NIs",
        runner: Runner::Text(coalescing),
    },
    Experiment {
        name: "multiprogramming",
        summary: "32 register-mapped buffers split across K processes",
        runner: Runner::Text(multiprogramming),
    },
    Experiment {
        name: "overflow_study",
        summary: "CNI_32Qm receive-cache overflow vs offered load",
        runner: Runner::Text(overflow_study),
    },
    Experiment {
        name: "fault_study",
        summary: "FIFO NIs and Figure 4 under packet loss",
        runner: Runner::Records(fault_study),
    },
    Experiment {
        name: "incast",
        summary: "N->1 incast collapse per NI",
        runner: Runner::Records(incast),
    },
    Experiment {
        name: "modern",
        summary: "QP connection sweep, RDMA eager/rendezvous kink, SGDMA",
        runner: Runner::Records(modern),
    },
    Experiment {
        name: "goldens",
        summary: "the golden shape-regression grid",
        runner: Runner::Golden {
            path: golden_path,
            label: "golden grid",
            run: goldens,
        },
    },
    Experiment {
        name: "breakdown",
        summary: "per-component cycle occupancy on em3d",
        runner: Runner::Golden {
            path: breakdown_golden_path,
            label: "breakdown golden",
            run: breakdown,
        },
    },
    Experiment {
        name: "loadlat",
        summary: "open-loop load/latency ladders, incast and mixes",
        runner: Runner::Golden {
            path: loadlat_golden_path,
            label: "loadlat golden",
            run: loadlat,
        },
    },
    Experiment {
        name: "chaos",
        summary: "kill-and-resume snapshot differential",
        runner: Runner::Golden {
            path: chaos_path,
            label: "kill-and-resume differential passed; chaos golden",
            run: chaos,
        },
    },
];

/// `println!` into a runner's output buffer (fixed text goes in with
/// `push_str`).
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

/// Table 1: buffering available in five commercial network
/// switches/routers — the motivation for NI-side buffering (§3) — plus
/// the modern-fabric extension rows the rdma-qp/urma design points
/// answer to.
fn table1(out: &mut String) {
    out.push_str("Table 1: switch/router buffering between an input and an output port\n\n");
    let mut t = TableWriter::new(vec![
        "Network Switch/Router".into(),
        "Maximum Buffering".into(),
    ]);
    for s in SWITCH_SURVEY {
        t.row(vec![s.name.into(), s.max_buffering.into()]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\nLargest per-port buffering: {} bytes — under two 256-byte network\n\
         messages, so NIs cannot rely on the network for buffering.",
        max_survey_bytes()
    );

    out.push_str("\nModern fabrics (extension): buffering normalised to wire time\n\n");
    let mut m = TableWriter::new(vec![
        "Network Switch/Router".into(),
        "Maximum Buffering".into(),
        "Wire time @100Gb/s".into(),
    ]);
    for s in MODERN_SWITCH_SURVEY {
        m.row(vec![
            s.name.into(),
            s.max_buffering.into(),
            format!("{} ns", buffer_wire_time_ns(s.approx_bytes, 100)),
        ]);
    }
    out.push_str(&m.render());
    out.push_str(
        "\nPer-port bytes grew ~256x, link rate grew ~100x: a virtual lane\n\
         still holds only microseconds of traffic, so the endpoint NI still\n\
         pays for buffering — with QP state (rdma-qp) or host memory (urma).\n",
    );
}

/// Table 2: the taxonomy classification of the seven NIs — plus the
/// three modern extension designs — generated from each NI model's
/// self-description.
fn table2(out: &mut String) {
    out.push_str("Table 2: data transfer and buffering parameters of the seven NIs\n\n");
    let cfg = MachineConfig::default();
    let mut t = TableWriter::new(vec![
        "NI".into(),
        "Description".into(),
        "S.Size".into(),
        "S.Mgr".into(),
        "S.Source".into(),
        "R.Size".into(),
        "R.Mgr".into(),
        "R.Dest".into(),
        "Buffers".into(),
        "Proc?".into(),
    ]);
    for kind in NiKind::TABLE2.into_iter().chain(NiKind::MODERN) {
        let ni = NiUnit::with_kind(&cfg, kind, BufferCount::Finite(8));
        let d = ni.model.descriptor();
        t.row(vec![
            d.symbol.into(),
            d.description.into(),
            d.send.size.to_string(),
            d.send.manager.to_string(),
            d.send.endpoint.to_string(),
            d.receive.size.to_string(),
            d.receive.manager.to_string(),
            d.receive.endpoint.to_string(),
            d.buffer_location.to_string(),
            d.buffering.to_string(),
        ]);
    }
    out.push_str(&t.render());
}

/// Table 3: the common system parameters, printed from the default
/// machine configuration every simulation uses.
fn table3(out: &mut String) {
    out.push_str("Table 3: system parameters (from MachineConfig::default())\n\n");
    let c = MachineConfig::default();
    let mut t = TableWriter::new(vec!["Parameter".into(), "Value".into()]);
    let rows: Vec<(&str, String)> = vec![
        ("Number of parallel machine nodes", c.nodes.to_string()),
        (
            "Processor speed",
            format!("{} GHz", 1_000 / c.cpu_period.as_ns().max(1) / 1_000),
        ),
        ("Cache block size", format!("{} bytes", c.cache.block_bytes)),
        (
            "Cache size",
            format!("{} megabyte", c.cache.size_bytes >> 20),
        ),
        (
            "Cache associativity",
            if c.cache.ways == 1 {
                "direct-mapped".into()
            } else {
                format!("{}-way", c.cache.ways)
            },
        ),
        (
            "Main memory access time",
            format!("{}", c.main_memory_latency),
        ),
        ("Memory bus coherence protocol", "MOESI".into()),
        (
            "Memory bus width",
            format!("{} bits", c.bus.width_bytes * 8),
        ),
        (
            "Memory bus clock",
            format!("{} MHz", 1_000 / c.bus.clock_period.as_ns()),
        ),
        (
            "Network message size",
            format!("{} bytes", c.net.max_message_bytes),
        ),
        ("Network latency", format!("{}", c.net.wire_latency)),
        (
            "NI memory access time",
            format!("{} (120 ns DRAM for CNI_512Q)", c.ni_memory_latency),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    out.push_str(&t.render());
}

/// Table 4: message-size distributions of the seven macrobenchmarks,
/// measured from simulated traffic on `CNI_32Q_m` and compared to the
/// paper's reported modes.
fn table4(out: &mut String) {
    out.push_str("Table 4: macrobenchmark message sizes (header included), measured vs paper\n\n");
    let mut t = TableWriter::new(vec![
        "Benchmark".into(),
        "Size (B)".into(),
        "Measured".into(),
        "Paper".into(),
    ]);
    let cfg = MachineConfig::with_ni(NiKind::Cni32Qm);
    for app in MacroApp::ALL {
        let hist = run_app(app, &cfg, &app.default_params()).msg_sizes;
        for (i, m) in app.spec().modes.iter().enumerate() {
            t.row(vec![
                if i == 0 {
                    app.name().into()
                } else {
                    String::new()
                },
                m.bytes.to_string(),
                format!("{:.0}%", 100.0 * hist.fraction_of(m.bytes)),
                format!("{:.0}%", 100.0 * m.fraction),
            ]);
        }
        if app == MacroApp::Unstructured {
            // The paper reports the bulk range 12-1812 B by its average.
            let (mut sum, mut n) = (0f64, 0f64);
            for (size, count) in hist.iter() {
                if size > 12 {
                    sum += (size * count) as f64;
                    n += count as f64;
                }
            }
            t.row(vec![
                String::new(),
                "12-1812".into(),
                format!("avg {:.0}", sum / n),
                format!("avg {UNSTRUCTURED_RANGE_MEAN:.0}"),
            ]);
        }
        t.row(vec![
            String::new(),
            "avg".into(),
            format!("{:.0}", hist.mean()),
            "19-230 (range over apps)".into(),
        ]);
    }
    out.push_str(&t.render());
}

/// Table 5: process-to-process round-trip latency (µs) and bandwidth
/// (MB/s) for the seven NIs plus CNI_32Qm+Throttle.
fn table5(jobs: usize, out: &mut String) -> Vec<Section> {
    out.push_str(
        "Table 5: round-trip latency (us) and bandwidth (MB/s), flow control buffers = 8\n\n",
    );
    let sections = run_sweeps(&[table5_sweep()], jobs);
    let (rows, throttled) = table5_from_records(&sections[0].1);
    let mut header = vec!["NI".to_string()];
    header.extend(RTT_PAYLOADS.iter().map(|p| format!("rtt{p}")));
    header.extend(BW_PAYLOADS.iter().map(|p| format!("bw{p}")));
    let mut t = TableWriter::new(header);
    for r in &rows {
        let mut cells = vec![r.kind.name().to_string()];
        cells.extend(r.rtt_us.iter().map(|x| format!("{x:.2}")));
        cells.extend(r.bw_mb_s.iter().map(|x| format!("{x:.0}")));
        t.row(cells);
    }
    let mut cells = vec!["CNI_32Qm+Throttle".to_string()];
    cells.extend(["n/a"; 3].iter().map(|s| s.to_string()));
    cells.extend(["-"; 3].iter().map(|s| s.to_string()));
    cells.push(format!("{throttled:.0}"));
    t.row(cells);
    out.push_str(&t.render());
    out.push_str("\nPaper reference (same layout):\n");
    out.push_str("  CM-5      2.41 5.25 15.11 | 17  54  63  69\n");
    out.push_str("  Udma      4.48 5.83 10.10 |  7  42  78 109\n");
    out.push_str("  AP3000    1.95 2.48  4.47 | 26 154 234 298\n");
    out.push_str("  StarT-JR  1.54 2.38  5.04 | 29 119 191 221\n");
    out.push_str("  MemChan   1.55 2.42  4.89 | 27 119 191 221\n");
    out.push_str("  CNI_512Q  1.56 2.22  4.17 | 28 134 209 259\n");
    out.push_str("  CNI_32Qm  1.29 1.78  3.42 | 36 120 189 209\n");
    out.push_str("  +Throttle                 | 36 158 272 351\n");
    sections
}

/// Figure 1: the execution-time decomposition (compute / data transfer
/// / buffering / idle) of the seven macrobenchmarks on the CM-5-like NI
/// with one flow-control buffer, by accounting and by the paper's
/// differential method.
fn fig1(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(&[fig1_sweep(), fig1_differential_sweep()], jobs);
    out.push_str(
        "Figure 1: execution-time decomposition, CM-5-like NI, flow control buffers = 1\n\n",
    );
    let mut t = TableWriter::new(vec![
        "Benchmark".into(),
        "Compute".into(),
        "Data transfer".into(),
        "Buffering".into(),
        "Idle".into(),
    ]);
    for row in fig1_from_records(&sections[0].1) {
        t.row(vec![
            row.app.name().into(),
            pct(row.compute),
            pct(row.data_transfer),
            pct(row.buffering),
            pct(row.idle),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(
        "\nDifferential decomposition (the paper's methodology): buffering =\n\
         time eliminated by infinite buffering; data transfer = time further\n\
         eliminated by single-cycle NI access:\n\n",
    );
    let mut d = TableWriter::new(vec![
        "Benchmark".into(),
        "Total (us)".into(),
        "Buffering".into(),
        "Data transfer".into(),
        "Compute+sync".into(),
    ]);
    for row in fig1_differential_from_records(&sections[1].1) {
        d.row(vec![
            row.app.name().into(),
            (row.total_ns / 1_000).to_string(),
            pct(row.buffering),
            pct(row.data_transfer),
            pct(row.base),
        ]);
    }
    out.push_str(&d.render());
    out.push_str(
        "\nPaper: data transfer and buffering account for up to 42% and 58%\n\
         of execution time respectively, with em3d and spsolve the most\n\
         buffering-bound applications.\n",
    );
    sections
}

/// Figure 3a: execution time of the three FIFO-based NIs across
/// flow-control buffer levels, normalised to the AP3000-like NI with 8
/// buffers.
fn fig3a(jobs: usize, out: &mut String) -> Vec<Section> {
    out.push_str("Figure 3a: FIFO NIs vs flow-control buffers (normalised to AP3000@8)\n\n");
    let sections = run_sweeps(&[fig3a_sweep(&MacroApp::ALL)], jobs);
    let mut t = TableWriter::new(vec![
        "Benchmark".into(),
        "NI".into(),
        "B=inf".into(),
        "B=8".into(),
        "B=2".into(),
        "B=1".into(),
    ]);
    for app in MacroApp::ALL {
        let points = fig3a_from_records(&sections[0].1, app);
        for chunk in points.chunks(4) {
            t.row(vec![
                if chunk[0].ni == NiKind::Cm5 {
                    app.name().into()
                } else {
                    String::new()
                },
                chunk[0].ni.name().into(),
                norm(chunk[0].normalized),
                norm(chunk[1].normalized),
                norm(chunk[2].normalized),
                norm(chunk[3].normalized),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper: with infinite buffering Udma beats CM-5 by 0-15% and AP3000\n\
         beats Udma by 11-44%; going from 1 to 2 buffers gains 6-40%; beyond\n\
         2 buffers gains are modest except for em3d and spsolve.\n",
    );
    sections
}

/// Figure 3b: execution time of the four coherent NIs with one
/// flow-control buffer, normalised to the AP3000-like NI with 8 buffers,
/// plus the §6.2.2 memory-to-cache transaction comparison.
fn fig3b(jobs: usize, out: &mut String) -> Vec<Section> {
    out.push_str("Figure 3b: coherent NIs at 1 flow-control buffer (normalised to AP3000@8)\n\n");
    let sections = run_sweeps(&[fig3b_sweep(&MacroApp::ALL)], jobs);
    let mut t = TableWriter::new(vec![
        "Benchmark".into(),
        "MC-like".into(),
        "StarT-JR".into(),
        "CNI_512Q".into(),
        "CNI_32Qm".into(),
        "mem reads SJ".into(),
        "mem reads 32Qm".into(),
        "saved".into(),
    ]);
    let mut total_sj = 0u64;
    let mut total_c32 = 0u64;
    for app in MacroApp::ALL {
        let rows = fig3b_from_records(&sections[0].1, app);
        let by = |k: NiKind| rows.iter().find(|r| r.point.ni == k).expect("row");
        let sj = by(NiKind::StartJr);
        let c32 = by(NiKind::Cni32Qm);
        total_sj += sj.mem_reads;
        total_c32 += c32.mem_reads;
        t.row(vec![
            app.name().into(),
            norm(by(NiKind::MemoryChannel).point.normalized),
            norm(sj.point.normalized),
            norm(by(NiKind::Cni512Q).point.normalized),
            norm(c32.point.normalized),
            sj.mem_reads.to_string(),
            c32.mem_reads.to_string(),
            format!(
                "{:.0}%",
                100.0 * (1.0 - c32.mem_reads as f64 / sj.mem_reads.max(1) as f64)
            ),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\nAverage memory-to-cache reduction CNI_32Qm vs StarT-JR: {:.0}% (paper: 54%)",
        100.0 * (1.0 - total_c32 as f64 / total_sj.max(1) as f64)
    );
    out.push_str(
        "Paper: the MC-like NI is the worst and CNI_32Qm the best of the four\n\
         (2-26% apart); CNI_32Qm beats AP3000@8 on everything but unstructured.\n",
    );
    sections
}

/// Figure 4: the single-cycle `NI_2w` (a processor-register-mapped NI
/// approximation) across flow-control buffer levels, normalised to
/// `CNI_32Q_m`.
fn fig4(jobs: usize, out: &mut String) -> Vec<Section> {
    out.push_str(
        "Figure 4: single-cycle NI_2w vs flow-control buffers (normalised to CNI_32Qm)\n\n",
    );
    let sections = run_sweeps(&[fig4_sweep(&MacroApp::ALL)], jobs);
    let mut t = TableWriter::new(vec![
        "Benchmark".into(),
        "B=1".into(),
        "B=2".into(),
        "B=8".into(),
        "B=32".into(),
    ]);
    for app in MacroApp::ALL {
        let points = fig4_from_records(&sections[0].1, app);
        t.row(vec![
            app.name().into(),
            norm(points[0].normalized),
            norm(points[1].normalized),
            norm(points[2].normalized),
            norm(points[3].normalized),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nPaper: CNI_32Qm beats the single-cycle NI_2w on spsolve below 32\n\
         buffers and matches it on em3d at 2 buffers; it is within ~15% on\n\
         the other five macrobenchmarks. Values > 1.0 mean the register-\n\
         mapped NI is slower than CNI_32Qm at that buffering level.\n",
    );
    sections
}

const THROTTLE_DELAYS: [u64; 6] = [0, 50, 100, 150, 200, 400];
const CACHE_BLOCKS: [u32; 4] = [8, 32, 128, 512];

/// Ablations of the design choices DESIGN.md calls out: CNI send-side
/// prefetch, `CNI_32Q_m` receive-cache bypass, the dead-block
/// head-update optimisation, send throttling, and NI cache size.
fn ablations(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(
        &[
            ablation_prefetch_sweep(),
            ablation_bypass_sweep(),
            ablation_dead_block_sweep(),
            ablation_throttle_sweep(&THROTTLE_DELAYS),
            ablation_ni_cache_sweep(&CACHE_BLOCKS),
        ],
        jobs,
    );
    out.push_str("Ablations of the paper's design choices\n\n");

    let (on, off) = ablation_prefetch_from_records(&sections[0].1);
    out.push_str("1. CNI send-side prefetch (lazy pointer), CNI_512Q rtt at 256 B:\n");
    outln!(
        out,
        "   on  {on:.2} us\n   off {off:.2} us   ({:+.0}% without prefetch)\n",
        100.0 * (off / on - 1.0)
    );

    let (on, off) = ablation_bypass_from_records(&sections[1].1);
    out.push_str("2. CNI_32Qm receive-cache bypass, receive-side processor time\n");
    out.push_str("   under bursty overload:\n");
    outln!(
        out,
        "   on  {on:.0} us\n   off {off:.0} us   ({:+.0}% without bypass)\n",
        100.0 * (off / on - 1.0)
    );

    let ((bw_on, wb_on), (bw_off, wb_off)) = ablation_dead_block_from_records(&sections[2].1);
    out.push_str("3. Dead-block head update, 4 KB stream:\n");
    outln!(out, "   on  {bw_on:.0} MB/s, {wb_on} memory writebacks");
    outln!(out, "   off {bw_off:.0} MB/s, {wb_off} memory writebacks\n");

    out.push_str("4. Send-throttle sweep, CNI_32Qm 4 KB stream (paper footnote):\n");
    for (d, bw) in ablation_throttle_from_records(&sections[3].1, &THROTTLE_DELAYS) {
        outln!(out, "   throttle {d:>4} ns -> {bw:.0} MB/s");
    }
    out.push('\n');

    out.push_str("5. NI cache size sweep (bridging CNI_32Qm -> CNI_512Q capacity):\n");
    for (b, rtt, bw) in ablation_ni_cache_from_records(&sections[4].1, &CACHE_BLOCKS) {
        outln!(
            out,
            "   {b:>4} blocks -> rtt64 {rtt:.2} us, bw4096 {bw:.0} MB/s"
        );
    }
    sections
}

const CROSSOVER_PAYLOADS: [u64; 7] = [8, 32, 64, 96, 128, 192, 256];
const MEM_LATENCIES: [u64; 4] = [60, 120, 240, 360];
const WIRE_LATENCIES: [u64; 3] = [40, 400, 4000];

/// Sensitivity studies beyond the paper's fixed Table 3 parameters: the
/// UDMA crossover point, the processor/memory-gap prediction of §6.2.2,
/// and network-latency scaling.
fn sensitivity(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(
        &[
            udma_crossover_sweep(&CROSSOVER_PAYLOADS),
            memory_gap_sweep(&MEM_LATENCIES),
            network_latency_sweep(&WIRE_LATENCIES),
        ],
        jobs,
    );
    out.push_str("1. UDMA mechanism vs uncached fallback (round trip, us):\n");
    out.push_str("   payload   pure-UDMA   uncached   winner\n");
    for (p, pure, fb) in udma_crossover_from_records(&sections[0].1, &CROSSOVER_PAYLOADS) {
        outln!(
            out,
            "   {p:>7}   {pure:>9.2}   {fb:>8.2}   {}",
            if pure < fb { "UDMA" } else { "uncached" }
        );
    }
    out.push_str("   (paper: the macrobenchmarks switch to UDMA above 96 B)\n\n");

    out.push_str("2. Memory-gap sensitivity (em3d, StarT-JR time / CNI_32Qm time):\n");
    for (lat, ratio) in memory_gap_from_records(&sections[1].1, &MEM_LATENCIES) {
        outln!(out, "   memory {lat:>4} ns -> {ratio:.3}x");
    }
    out.push_str("   (paper 6.2.2: the CNI edge should grow with the gap)\n\n");

    out.push_str("3. Network-latency sensitivity (64 B round trip, us):\n");
    out.push_str("   wire       CM-5   CNI_32Qm\n");
    for (lat, cm5, cni) in network_latency_from_records(&sections[2].1, &WIRE_LATENCIES) {
        outln!(out, "   {lat:>5} ns  {cm5:>6.2}   {cni:>7.2}");
    }
    out.push_str("   (NI design matters less as the wire starts to dominate)\n");
    sections
}

/// LogP-style characterisation of the seven NIs (§6.1 discussion): how
/// the "degree of processor involvement" parameter redistributes time
/// between processor occupancy (o) and latency (L).
fn logp(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(&[logp_sweep(64)], jobs);
    out.push_str("LogP-style characterisation at 64-byte payloads\n\n");
    let mut t = TableWriter::new(vec![
        "NI".into(),
        "o_send (us)".into(),
        "o_recv (us)".into(),
        "L (us)".into(),
        "g (us)".into(),
        "involvement".into(),
    ]);
    for kind in NiKind::TABLE2 {
        let r = lookup(&sections[0].1, "logp:64", kind.key(), "8", "").expect("logp record");
        let m = |name: &str| r.metric(name).expect("logp metric");
        t.row(vec![
            kind.name().into(),
            format!("{:.2}", m("o_send_us")),
            format!("{:.2}", m("o_recv_us")),
            format!("{:.2}", m("l_us")),
            format!("{:.2}", m("g_us")),
            format!("{:.0}%", 100.0 * m("involvement")),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe paper's point (§6.1): for processor-managed NIs the data\n\
         transfer lands in o; for NI-managed designs it rides in L — so\n\
         the two columns are not comparable across designs, but their sum\n\
         and the involvement ratio are.\n",
    );
    sections
}

/// Topology extension study: how the NI comparison reacts once the
/// network is no longer free (the Dai & Panda caveat the paper cites).
fn topology(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(&[topology_sweep()], jobs);
    out.push_str("Topology study: em3d execution time (us) under real fabrics\n\n");
    let mut t = TableWriter::new(vec![
        "NI".into(),
        "ideal".into(),
        "ring".into(),
        "mesh2d".into(),
        "mesh/ideal".into(),
    ]);
    for ni in [NiKind::Cm5, NiKind::Ap3000, NiKind::Cni32Qm] {
        let us = |patch: &str| {
            lookup(&sections[0].1, "em3d", ni.key(), "8", patch)
                .expect("topology record")
                .elapsed_ns
                / 1_000
        };
        let (base, ring, mesh) = (us(""), us("ring"), us("mesh2d"));
        t.row(vec![
            ni.name().to_string(),
            base.to_string(),
            ring.to_string(),
            mesh.to_string(),
            format!("{:.2}", mesh as f64 / base as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe paper argues its *relative* NI results extrapolate to real\n\
         networks; the fabric slows everything but the design ranking should\n\
         hold (and does, above).\n",
    );
    sections
}

/// Bus-economics study: the "size of transfer" parameter observed on
/// the wire — how the word-based CM-5 design wastes the 256-bit bus.
fn bus_study(out: &mut String) {
    let app = MacroApp::Unstructured; // the bulk-data app: bus economics dominate
    outln!(
        out,
        "Bus economics on {app} (16 nodes, 8 flow-control buffers)\n"
    );
    let mut t = TableWriter::new(vec![
        "NI".into(),
        "bus txns".into(),
        "block share".into(),
        "data MB".into(),
        "bus util".into(),
        "elapsed us".into(),
    ]);
    for ni in [
        NiKind::Cm5,
        NiKind::Udma,
        NiKind::Ap3000,
        NiKind::StartJr,
        NiKind::Cni512Q,
        NiKind::Cni32Qm,
    ] {
        let cfg = MachineConfig::with_ni(ni);
        let r = run_app(app, &cfg, &app.default_params());
        t.row(vec![
            ni.name().into(),
            r.bus_transactions.to_string(),
            format!("{:.0}%", 100.0 * r.block_transaction_share()),
            format!("{:.1}", r.bus_data_bytes as f64 / 1e6),
            format!("{:.1}%", 100.0 * r.bus_utilization()),
            (r.elapsed.as_ns() / 1_000).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe CM-5-like NI needs an order of magnitude more bus transactions\n\
         for the same traffic because every one moves at most a word — the\n\
         paper's case for using the memory bus's block-transfer mechanism.\n",
    );
}

/// The coalescing-store-buffer mechanism of §2.1, which the paper
/// describes as a block-transfer option but never evaluates, against
/// its parent (CM-5-like) and the block load/store design (AP3000-like).
fn coalescing(out: &mut String) {
    out.push_str("Coalescing store buffer vs word and block designs\n\n");
    let mut t = TableWriter::new(vec![
        "NI".into(),
        "rtt8".into(),
        "rtt256".into(),
        "bw256".into(),
        "bw4096".into(),
        "em3d us".into(),
        "unstructured us".into(),
    ]);
    for ni in [NiKind::Cm5, NiKind::Cm5Coalescing, NiKind::Ap3000] {
        let cfg = MachineConfig::with_ni(ni);
        let em3d = run_app(MacroApp::Em3d, &cfg, &MacroApp::Em3d.default_params());
        let unst = run_app(
            MacroApp::Unstructured,
            &cfg,
            &MacroApp::Unstructured.default_params(),
        );
        t.row(vec![
            ni.name().into(),
            format!("{:.2}", round_trip_for(ni, 8).mean_us),
            format!("{:.2}", round_trip_for(ni, 256).mean_us),
            format!("{:.0}", bandwidth_for(ni, 256).mb_per_s),
            format!("{:.0}", bandwidth_for(ni, 4096).mb_per_s),
            (em3d.elapsed.as_ns() / 1_000).to_string(),
            (unst.elapsed.as_ns() / 1_000).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nCoalescing fixes the send side (stores drain as blocks) but loads\n\
         cannot coalesce, so the receive path still pays a bus round trip per\n\
         word — it closes only part of the gap to the AP3000-like design.\n\
         This is why the paper's §2.1 treats block loads (or cache-block\n\
         transfers) as necessary, not just coalescing stores.\n",
    );
}

/// Multiprogramming (§3 motivation): NI buffers are divided among
/// processes, so with K processes per node each gets B/K flow-control
/// buffers. 32 register-resident buffers look generous until split 4
/// or 8 ways; the coherent NI's memory-backed buffering is indifferent.
fn multiprogramming(out: &mut String) {
    out.push_str("Multiprogramming: effective buffers = 32 / K processes (em3d)\n\n");
    let app = MacroApp::Em3d;
    let cni = {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).flow_buffers(BufferCount::Finite(1));
        run_app(app, &cfg, &app.default_params()).elapsed.as_ns()
    };
    let mut t = TableWriter::new(vec![
        "K (processes)".into(),
        "buffers/proc".into(),
        "single-cycle NI_2w (us)".into(),
        "vs CNI_32Qm".into(),
    ]);
    for k in [1u32, 2, 4, 8, 16, 32] {
        let per_proc = (32 / k).max(1);
        let cfg = MachineConfig::with_ni(NiKind::Cm5SingleCycle)
            .flow_buffers(BufferCount::Finite(per_proc));
        let r = run_app(app, &cfg, &app.default_params());
        t.row(vec![
            k.to_string(),
            per_proc.to_string(),
            (r.elapsed.as_ns() / 1_000).to_string(),
            format!("{:.2}x", r.elapsed.as_ns() as f64 / cni as f64),
        ]);
    }
    out.push_str(&t.render());
    outln!(
        out,
        "\n(CNI_32Qm baseline: {} us, independent of K — its buffering lives\n\
         in pageable main memory, not in per-process register space.)",
        cni / 1_000
    );
}

/// Revisits the Mackenzie et al. claim the paper debates in §7, that
/// buffering overflow past the NI is rare for realistic workloads:
/// sweeps the offered load of synthetic traffic on `CNI_32Q_m` and
/// measures how much receive traffic overflows the NI cache into memory
/// (the analogue of spilling to virtual memory).
fn overflow_study(out: &mut String) {
    out.push_str("Receive-cache overflow vs offered load (CNI_32Qm, 16 nodes)\n\n");
    outln!(
        out,
        "{:>10} {:>12} {:>14} {:>14}",
        "gap (ns)",
        "elapsed (us)",
        "overflow blks",
        "per message"
    );
    for gap in [20_000u64, 5_000, 2_000, 1_000, 500, 250, 100] {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(16);
        let params = SyntheticParams {
            mean_gap: Dur::ns(gap),
            // Half the traffic converges on one hot node, as a contended
            // server or reduction root would.
            locality: Locality::Hotspot(0.5),
            size_mix: vec![(132, 1.0)],
            ..SyntheticParams::default()
        };
        let r = run_synthetic(&cfg, &params);
        // CNI_32Qm writes main memory only when the receive cache
        // overflows (bypass) — mem_writes is the overflow volume.
        outln!(
            out,
            "{:>10} {:>12} {:>14} {:>14.2}",
            gap,
            r.elapsed.as_ns() / 1_000,
            r.mem_writes,
            r.mem_writes as f64 / r.app_messages as f64
        );
    }
    out.push_str(
        "\nAt relaxed loads overflow is rare (Mackenzie's claim); as the\n\
         offered load approaches the consumption rate it becomes routine —\n\
         the paper's counterpoint for its two bursty applications.\n",
    );
}

/// Reruns the Figure 3a and Figure 4 workloads under injected packet
/// loss (0–10%) with the retransmission layer on, and checks that every
/// run still delivers every message exactly once. The paper's network
/// is loss-free, so this is an extrapolation, not a reproduction.
fn fault_study(jobs: usize, out: &mut String) -> Vec<Section> {
    const APPS: [MacroApp; 2] = [MacroApp::Appbt, MacroApp::Em3d];
    let mut sweeps = Vec::new();
    for app in APPS {
        for ni in FIFO_NIS {
            sweeps.push(fault_study_sweep(app, ni, &FAULT_DROPS_PCT));
        }
    }
    sweeps.push(fault_fig4_sweep(MacroApp::Em3d, 5));
    let sections = run_sweeps(&sweeps, jobs);

    out.push_str(
        "Fault study: FIFO NIs under packet loss (normalised to each\n\
         app/NI pair's loss-free run; reliability layer on)\n\n",
    );
    let mut t = TableWriter::new(vec![
        "Benchmark".into(),
        "NI".into(),
        "0%".into(),
        "1%".into(),
        "2%".into(),
        "5%".into(),
        "10%".into(),
        "retx@5%".into(),
        "lost@5%".into(),
    ]);
    let mut unrecovered = 0u32;
    let mut sections_it = sections.iter();
    for app in APPS {
        for ni in FIFO_NIS {
            let (_, records) = sections_it.next().expect("one section per sweep");
            let points = fault_study_from_records(records, app, ni, &FAULT_DROPS_PCT);
            unrecovered += points.iter().filter(|p| !p.recovered_all).count() as u32;
            let at5 = points.iter().find(|p| p.drop_pct == 5).expect("5% point");
            let mut row = vec![
                if ni == FIFO_NIS[0] {
                    app.name().into()
                } else {
                    String::new()
                },
                ni.name().into(),
            ];
            row.extend(points.iter().map(|p| norm(p.normalized)));
            row.push(at5.retransmits.to_string());
            row.push(at5.dropped.to_string());
            t.row(row);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nFigure 4 under 5% loss: single-cycle NI_2w buffer sensitivity\n\
         (slowdown = lossy / loss-free at the same buffer level)\n\n",
    );
    let mut t = TableWriter::new(vec![
        "Buffers".into(),
        "clean us".into(),
        "5% drop us".into(),
        "slowdown".into(),
        "retransmits".into(),
        "fc retries".into(),
    ]);
    let (_, fig4_records) = sections_it.next().expect("the Figure 4 section");
    for p in fault_fig4_from_records(fig4_records, MacroApp::Em3d, 5) {
        if !p.recovered_all {
            unrecovered += 1;
        }
        t.row(vec![
            p.buffers.to_string(),
            (p.clean_ns / 1_000).to_string(),
            (p.faulty_ns / 1_000).to_string(),
            norm(p.slowdown),
            p.retransmits.to_string(),
            p.retries.to_string(),
        ]);
    }
    out.push_str(&t.render());
    if unrecovered == 0 {
        out.push_str("\nAll runs drained cleanly: every dropped fragment was recovered\n");
        out.push_str("by retransmission and no message was lost or duplicated.\n");
    } else {
        outln!(
            out,
            "\nWARNING: {unrecovered} run(s) failed to recover every message."
        );
    }
    sections
}

/// The N→1 incast study: every node fires Poisson traffic at node 0,
/// and the designs separate by how their buffering absorbs the fan-in —
/// return-to-sender schemes melt down (retry storms, 100×+ p99
/// inflation) levels before the coherent queueing designs leave their
/// flat region. The `loadlat` golden pins the same records.
fn incast(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(&[incast_sweep()], jobs);
    let records = &sections[0].1;
    let curves = curves_from_records(records, TrafficKind::PoissonIncast, "incast");

    // The flattest design at each level is the survival baseline.
    let best_p99: Vec<f64> = (0..curves[0].p99_ns.len())
        .map(|i| {
            curves
                .iter()
                .filter_map(|c| c.p99_ns.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();

    let mut t = TableWriter::new(
        [
            "NI",
            "knee",
            "p99@L2 (us)",
            "vs best",
            "retries@L2",
            "rejects@L2",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (curve, ni) in curves.iter().zip(LOADLAT_NIS) {
        let key = TrafficSpec {
            kind: TrafficKind::PoissonIncast,
            level: 2,
        }
        .key();
        let r = lookup(records, &key, ni.key(), "8", "").expect("grid point present");
        let p99 = curve.p99_at(2).unwrap_or(0.0);
        t.row(vec![
            curve.ni.clone(),
            curve
                .knee_level()
                .map_or("-".to_string(), |l| format!("L{l}")),
            format!("{:.1}", p99 / 1_000.0),
            format!("{:.0}x", p99 / best_p99[1].max(1.0)),
            r.counter("retries").to_string(),
            r.counter("recv_rejects").to_string(),
        ]);
    }
    out.push_str("N->1 incast onto node 0 (16 nodes, finite-8 flow buffers)\n");
    out.push_str(&t.render());
    out.push_str(
        "\nknee = first load level with p99 > 4x the level-1 baseline or\n\
         undelivered messages; 'vs best' compares each design's L2 p99\n\
         against the flattest design at that level.\n",
    );
    sections
}

/// The modern-NI study: the connection-count sweep (RDMA queue pairs vs
/// connectionless URMA), the RDMA eager/rendezvous payload kink, and
/// the scatter-gather strided-exchange comparison.
fn modern(jobs: usize, out: &mut String) -> Vec<Section> {
    let sections = run_sweeps(&[conn_sweep(), rdma_kink_sweep(), strided_sweep()], jobs);

    out.push_str("Connection-count sweep: message latency (ns) vs simulated endpoints\n");
    out.push_str("(RDMA_QP: 64-entry QP-state cache; URMA: connectionless)\n\n");
    let mut t = TableWriter::new(vec![
        "endpoints".into(),
        "rdma-qp p99".into(),
        "rdma-qp mean".into(),
        "urma p99".into(),
        "urma mean".into(),
    ]);
    for r in &conn_sweep_from_records(&sections[0].1) {
        t.row(vec![
            r.endpoints.to_string(),
            format!("{:.0}", r.rdma_p99_ns),
            format!("{:.0}", r.rdma_mean_ns),
            format!("{:.0}", r.urma_p99_ns),
            format!("{:.0}", r.urma_mean_ns),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\nRDMA eager/rendezvous payload kink: round-trip latency (us)\n\n");
    let mut t = TableWriter::new(vec!["payload".into(), "rtt_us".into()]);
    for (p, rtt) in rdma_kink_from_records(&sections[1].1) {
        t.row(vec![p.to_string(), format!("{rtt:.2}")]);
    }
    out.push_str(&t.render());

    out.push_str("\nStrided matrix-row exchange on SGDMA (16 rows x 15 B x 8 rounds)\n\n");
    let (gathered, per_elem) = strided_from_records(&sections[2].1);
    let mut t = TableWriter::new(vec!["strategy".into(), "exchange_ns".into()]);
    t.row(vec!["gathered descriptor".into(), format!("{gathered:.0}")]);
    t.row(vec![
        "fragment per element".into(),
        format!("{per_elem:.0}"),
    ]);
    out.push_str(&t.render());
    outln!(
        out,
        "\ngather speedup: {:.2}x",
        per_elem / gathered.max(f64::MIN_POSITIVE)
    );
    sections
}

/// Reruns every golden sweep: the grid the shape-regression suite pins.
fn goldens(jobs: usize, _out: &mut String) -> Result<String, String> {
    Ok(golden_document(jobs).to_pretty())
}

/// The per-component cycle-occupancy breakdown (§6 observability
/// layer): where each NI design spends its accounted cycles on em3d, as
/// shares of processor overhead, bus, cache stalls, NI buffer residency
/// and wire time.
fn breakdown(jobs: usize, out: &mut String) -> Result<String, String> {
    let sections = run_sweeps(&[breakdown_sweep()], jobs);
    let mut t = TableWriter::new(
        ["NI", "total (ms)", "proc", "bus", "stall", "ni", "wire"]
            .map(String::from)
            .to_vec(),
    );
    for row in &breakdown_from_records(&sections[0].1) {
        t.row(vec![
            row.ni.to_string(),
            format!("{:.2}", row.total_ns as f64 / 1e6),
            pct(row.proc_share),
            pct(row.bus_share),
            pct(row.stall_share),
            pct(row.ni_share),
            pct(row.wire_share),
        ]);
    }
    out.push_str("em3d cycle-occupancy breakdown (share of accounted cycles)\n");
    out.push_str(&t.render());
    Ok(sections_document(&sections).to_pretty())
}

/// The open-loop load/latency study: Poisson ladders, incast and the
/// tenant mixes across the ladder NIs, with per-level p99, knee levels
/// and SLO verdicts.
fn loadlat(jobs: usize, out: &mut String) -> Result<String, String> {
    let sections = run_sweeps(&[loadlat_sweep(), incast_sweep(), mixes_sweep()], jobs);
    for (title, records, kind, tenant) in [
        (
            "uniform Poisson",
            &sections[0].1,
            TrafficKind::PoissonUniform,
            "uni",
        ),
        (
            "N->1 incast",
            &sections[1].1,
            TrafficKind::PoissonIncast,
            "incast",
        ),
    ] {
        let mut header = vec!["NI".to_string()];
        header.extend((1..=MAX_LOAD_LEVEL).map(|l| format!("L{l} p99 (us)")));
        header.push("knee".into());
        header.push(format!("SLO@L{SLO_LEVEL}"));
        let mut t = TableWriter::new(header);
        for curve in curves_from_records(records, kind, tenant) {
            let mut row = vec![curve.ni.clone()];
            for (i, p99) in curve.p99_ns.iter().enumerate() {
                let marker = if curve.status[i] != "drained" || curve.delivery[i] < 1.0 {
                    "!"
                } else {
                    ""
                };
                row.push(format!("{:.1}{marker}", p99 / 1_000.0));
            }
            row.push(
                curve
                    .knee_level()
                    .map_or("-".to_string(), |l| format!("L{l}")),
            );
            row.push(if curve.meets_slo() { "pass" } else { "FAIL" }.to_string());
            t.row(row);
        }
        outln!(
            out,
            "{title}: p99 scheduled-arrival latency per offered-load level\n\
             (! = stalled or undelivered; SLO: p99 <= {:.0} us)",
            SLO_P99_NS / 1_000.0
        );
        out.push_str(&t.render());
        out.push('\n');
    }
    Ok(sections_document(&sections).to_pretty())
}

/// The kill-and-resume chaos suite: every grid point's checkpoint and
/// restore differential, failing on any divergence (see
/// [`crate::chaos`]).
fn chaos(_jobs: usize, _out: &mut String) -> Result<String, String> {
    chaos_document()
        .map(|doc| doc.to_pretty())
        .map_err(|msg| format!("chaos differential FAILED: {msg}"))
}
