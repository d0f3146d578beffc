//! The N→1 incast study: every node fires Poisson traffic at node 0
//! and the seven Table 2 NI designs separate by how their buffering
//! absorbs the fan-in — return-to-sender schemes melt down (retry
//! storms, 100×+ p99 inflation) levels before the coherent queueing
//! designs leave their flat region.
//!
//! Prints the per-NI collapse analysis; the machine-readable records
//! are pinned by the `loadlat` golden binary. `--json <path>` writes
//! this run's records; `--jobs` as usual.
use nisim_bench::fmt::TableWriter;
use nisim_bench::loadlat::{curves_from_records, incast_sweep, LOADLAT_NIS};
use nisim_bench::record::lookup;
use nisim_bench::{emit_json, BenchArgs};
use nisim_workloads::traffic::{TrafficKind, TrafficSpec};

fn main() {
    let args = BenchArgs::parse();
    let records = incast_sweep().run(args.jobs);
    let curves = curves_from_records(&records, TrafficKind::PoissonIncast, "incast");

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
        let r = lookup(&records, &key, ni.key(), "8", "").expect("grid point present");
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
    println!("N->1 incast onto node 0 (16 nodes, finite-8 flow buffers)");
    print!("{}", t.render());
    println!(
        "\nknee = first load level with p99 > 4x the level-1 baseline or\n\
         undelivered messages; 'vs best' compares each design's L2 p99\n\
         against the flattest design at that level."
    );
    emit_json(&args, "incast", &records);
}
