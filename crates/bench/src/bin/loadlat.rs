//! The open-loop load/latency study: Poisson/MMPP ladders, incast and
//! the tenant mix across the seven Table 2 NIs, with per-tenant
//! p50/p99/p999, knee levels and SLO verdicts.
//!
//! - `loadlat --update-goldens` rewrites
//!   `tests/goldens/golden_loadlat.json` (all three sweeps).
//! - `loadlat` alone byte-compares the fresh document against the
//!   committed file, exiting non-zero on drift.
//! - `--json <path>` writes the fresh document elsewhere; `--jobs <n>`
//!   bounds worker threads.
use std::process::ExitCode;

use nisim_bench::fmt::TableWriter;
use nisim_bench::loadlat::{
    curves_from_records, incast_sweep, loadlat_golden_path, loadlat_sweep, mixes_sweep, SLO_LEVEL,
    SLO_P99_NS,
};
use nisim_bench::record::{document, sweep_to_json};
use nisim_bench::BenchArgs;
use nisim_workloads::traffic::{TrafficKind, MAX_LOAD_LEVEL};

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let loadlat = loadlat_sweep().run(args.jobs);
    let incast = incast_sweep().run(args.jobs);
    let mixes = mixes_sweep().run(args.jobs);

    for (title, records, kind, tenant) in [
        (
            "uniform Poisson",
            &loadlat,
            TrafficKind::PoissonUniform,
            "uni",
        ),
        ("N->1 incast", &incast, TrafficKind::PoissonIncast, "incast"),
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
        println!(
            "{title}: p99 scheduled-arrival latency per offered-load level\n\
             (! = stalled or undelivered; SLO: p99 <= {:.0} us)",
            SLO_P99_NS / 1_000.0
        );
        print!("{}", t.render());
        println!();
    }

    let doc = document(vec![
        sweep_to_json("loadlat", &loadlat),
        sweep_to_json("incast", &incast),
        sweep_to_json("mixes", &mixes),
    ]);
    let text = doc.to_pretty();
    args.check_golden(&text, &loadlat_golden_path(), "loadlat golden")
}
