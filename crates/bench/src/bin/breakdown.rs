//! Prints the per-component cycle-occupancy breakdown (§6 observability
//! layer): where each Table 2 NI design spends its accounted cycles on
//! em3d, as shares of processor overhead, bus, cache stalls, NI buffer
//! residency and wire time.
//!
//! - `breakdown --update-goldens` rewrites
//!   `tests/goldens/golden_breakdown.json`.
//! - `breakdown` alone byte-compares the fresh document against the
//!   committed file, exiting non-zero on drift.
//! - `--json <path>` writes the fresh document wherever you like;
//!   `--jobs <n>` bounds the worker threads.
use std::process::ExitCode;

use nisim_bench::fmt::{pct, TableWriter};
use nisim_bench::record::{document, sweep_to_json};
use nisim_bench::{breakdown_from_records, breakdown_golden_path, breakdown_sweep, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let records = breakdown_sweep().run(args.jobs);
    let rows = breakdown_from_records(&records);

    let mut t = TableWriter::new(
        ["NI", "total (ms)", "proc", "bus", "stall", "ni", "wire"]
            .map(String::from)
            .to_vec(),
    );
    for row in &rows {
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
    println!("em3d cycle-occupancy breakdown (share of accounted cycles)");
    print!("{}", t.render());

    let doc = document(vec![sweep_to_json("breakdown", &records)]);
    let text = doc.to_pretty();
    args.check_golden(&text, &breakdown_golden_path(), "breakdown golden")
}
