//! `bench`: the nisim performance benchmark.
//!
//! Runs four workloads (see `README.md` beside this file) from one
//! process on at most two sweep threads, checks every output against a
//! reference, and reports end-to-end metrics as medians over reps, with
//! host time calibrated to a reference host. `--trace` adds the
//! per-layer cost model.
//!
//! ```text
//! bench [--workload <name>] [--seed <n>] [--seconds <n>] [--trace 0|1|<path>] [--json <path>]
//! bench --compare <a> <b>    (each a --json document or a directory of them)
//! bench --update-reference
//! ```
//!
//! The last line of standard output is a one-line JSON summary.

mod alloc;
mod calib;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nisim_bench::record::{self, RunRecord};
use nisim_engine::json;

use crate::calib::{calibrated, spread, FLAG_SPREAD};
use crate::report::{WorkloadResult, END_TO_END};
use crate::stats::{median, Summary};
use crate::trace::{Ctx, Recorder, Span};
use crate::workloads::{Plan, Tally, Workload, DEFAULT_SEED, JOBS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The run length `BENCHMARK.json` declares (`run_seconds`): the default
/// of `--seconds`, and the one the metrics' bounds were measured at.
const RUN_SECONDS: u32 = 25;
/// Set-ups per workload, spread evenly over its iterations so that they
/// meet the same host conditions as the reps; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untraced timed reps at least, however short `--seconds` is.
const MIN_REPS: usize = 5;

const USAGE: &str = "usage: bench [--workload <name>] [--seed <n>] [--seconds <n>] \
                     [--trace 0|1|<path>] [--json <path>]\n       \
                     bench --compare <a> <b>\n       \
                     bench --update-reference";

/// Whether, and where, the run is traced.
#[derive(Clone, Debug, PartialEq)]
enum Trace {
    Off,
    On,
    /// Traced, with the spans written to this JSONL file.
    File(PathBuf),
}

#[derive(Debug, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u32,
    trace: Trace,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    update_reference: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workloads: Workload::ALL.to_vec(),
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            trace: Trace::Off,
            json: None,
            compare: None,
            update_reference: false,
        };
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let v = value()?;
                    let w = Workload::from_name(&v).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {v:?} (one of {})", names.join(", "))
                    })?;
                    out.workloads = vec![w];
                }
                "--seed" => {
                    let v = value()?;
                    let parsed = match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    };
                    out.seed = parsed.map_err(|_| format!("bad --seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    out.seconds = v
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad --seconds {v:?}"))?;
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => Trace::Off,
                        "1" => Trace::On,
                        path => Trace::File(PathBuf::from(path)),
                    };
                }
                "--json" => out.json = Some(PathBuf::from(value()?)),
                "--compare" => {
                    let a = PathBuf::from(value()?);
                    let b = PathBuf::from(value()?);
                    out.compare = Some((a, b));
                }
                "--update-reference" => out.update_reference = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(JOBS));
    if args.update_reference {
        return match update_reference(jobs) {
            Ok(path) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let origin = Instant::now();
    let mut results = Vec::new();
    let mut spans = Vec::new();
    for &w in &args.workloads {
        match measure(w, &args, jobs, origin) {
            Ok((result, s)) => {
                print_result(&result, jobs);
                results.push(result);
                spans.extend(s);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::from(2);
            }
        }
    }
    if let Trace::File(path) = &args.trace {
        if let Err(e) = std::fs::write(path, trace::to_chrome_jsonl(&spans)) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {} spans to {}", spans.len(), path.display());
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report::document(&results).to_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    println!(
        "{}",
        report::summary_line(&results, args.trace != Trace::Off)
    );
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Samples of the timed reps.
#[derive(Default)]
struct Reps {
    wall: Vec<f64>,
    raw: Vec<f64>,
    heap_mb: Vec<f64>,
    fail: Vec<f64>,
    spreads: Vec<f64>,
}

/// The workload's iterations (set-ups and timed reps) for `seconds`: a
/// fixed count, so that two runs of one length compare the same number of
/// reps on any host. A traced run spends half its reps traced.
fn iterations(w: Workload, seconds: u32, traced: bool) -> usize {
    let fit = (f64::from(seconds) / w.rep_seconds()).round() as usize;
    fit.max(SETUPS + MIN_REPS * if traced { 2 } else { 1 })
}

/// Measures one workload over [`iterations`]: [`SETUPS`] of them, spread
/// evenly and the first among them, are set-ups; the rest are timed reps
/// (alternately untraced and traced in a traced run, which then measures
/// the layers too). Returns the result and the spans recorded.
fn measure(
    w: Workload,
    args: &Args,
    jobs: usize,
    origin: Instant,
) -> Result<(WorkloadResult, Vec<Span>), String> {
    let traced = args.trace != Trace::Off;
    let seed = args.seed;
    let ctx = |on: bool, rep: u32| Ctx {
        on,
        origin,
        workload: w.name(),
        rep,
    };
    let total = iterations(w, args.seconds, traced);
    let setup_at: Vec<usize> = (0..SETUPS).map(|k| k * total / SETUPS).collect();
    let mut tally = Tally::default();
    let mut spans = Vec::new();
    let mut setup = Vec::with_capacity(SETUPS);
    let mut reps = Reps::default();
    let mut traced_wall = Vec::new();
    let mut traced_tally = Tally::default();
    let mut prepared: Option<(Plan, Vec<String>)> = None;
    let mut before = calib::rate_mops(jobs);
    let mut rates = vec![before];

    for i in 0..total {
        if setup_at.contains(&i) {
            // Read and parse the reference, build the inputs, and run one
            // untimed warm-up rep, so work moved into lazy initialisation
            // still shows. A traced run traces its first set-up as rep 0.
            let mut rec = Recorder::new(ctx(traced && i == 0, 0));
            let t = Instant::now();
            let golden = rec.span("golden.parse", None, |_, _| workloads::load_reference(w))?;
            let plan = workloads::plan(w, seed);
            // At another seed than the goldens', the first warm-up's
            // output becomes the reference that every later rep must
            // reproduce.
            let reference = match &prepared {
                _ if seed == DEFAULT_SEED => Some(golden),
                Some((_, own)) => Some(own.clone()),
                None => None,
            };
            let out = workloads::run_rep(&plan, seed, reference.as_deref(), jobs, &mut rec);
            let host = t.elapsed().as_secs_f64();
            let after = calib::rate_mops(jobs);
            setup.push(calibrated(host, before, after));
            rates.push(after);
            before = after;
            tally.absorb(out.tally);
            spans.extend(rec.into_spans());
            prepared = Some((plan, reference.unwrap_or(out.bytes)));
            continue;
        }
        let (plan, reference) = prepared.as_ref().expect("the first iteration sets up");
        let trace_this = traced && reps.wall.len() > traced_wall.len();
        let mut rec = Recorder::new(ctx(trace_this, traced_wall.len() as u32 + 1));
        let live0 = alloc::reset_peak();
        let t = Instant::now();
        let out = workloads::run_rep(plan, seed, Some(reference), jobs, &mut rec);
        let host = t.elapsed().as_secs_f64();
        let peak = (alloc::peak_bytes() - live0).max(0);
        let fail = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
        // Free the outputs now, so every rep starts from the same heap.
        drop(out.bytes);
        let after = calib::rate_mops(jobs);
        let wall = calibrated(host, before, after);
        if trace_this {
            traced_wall.push(wall);
            spans.extend(rec.into_spans());
            traced_tally = out.tally.clone();
        } else {
            reps.wall.push(wall);
            reps.raw.push(host);
            reps.heap_mb.push(peak as f64 / (1u64 << 20) as f64);
            reps.fail.push(fail);
            reps.spreads.push(spread(before, after));
        }
        rates.push(after);
        before = after;
        tally.absorb(out.tally);
    }

    let wall = Summary::of(reps.wall);
    let max_spread = reps.spreads.iter().copied().fold(0.0, f64::max);
    let rates = Summary::of(rates);
    let layers = traced.then(|| {
        layers::measure(
            jobs,
            &layers::Traced {
                origin,
                spans: &spans,
                reps: traced_wall.len(),
                scale: rates.median / calib::CALIB_REF_MOPS,
                retries: traced_tally.retries,
                retransmits: traced_tally.retransmits,
                calib_mops: rates.median,
                calib_spread: max_spread,
                raw_wall_s: median(&reps.raw),
                trace_overhead: median(&traced_wall) / wall.median - 1.0,
            },
            seed,
        )
    });
    let layers = layers.map(|(metrics, probe_spans)| {
        spans.extend(probe_spans);
        metrics
    });
    let mut end_to_end = BTreeMap::new();
    end_to_end.insert("setup_s", Summary::of(setup));
    end_to_end.insert("wall_s", wall);
    end_to_end.insert("heap_peak_mb", Summary::of(reps.heap_mb));
    end_to_end.insert("fail_frac", Summary::of(reps.fail));
    let result = WorkloadResult {
        workload: w,
        seed,
        tally,
        end_to_end,
        raw_wall: Summary::of(reps.raw),
        calib: rates,
        max_spread,
        flagged: reps.spreads.iter().filter(|&&s| s > FLAG_SPREAD).count(),
        layers,
    };
    Ok((result, spans))
}

fn print_result(r: &WorkloadResult, jobs: usize) {
    let w = r.workload;
    println!("== {}: {}", w.name(), w.why());
    let checked = if r.seed == DEFAULT_SEED {
        let path = w.reference_path();
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        format!("outputs checked against {file}")
    } else {
        "holdout seed: outputs checked for invariants and rep-to-rep identity".to_string()
    };
    println!(
        "   closed loop, {jobs} sweep thread(s) each running one simulation at a time; \
         seed {}; {checked}",
        r.seed
    );
    println!(
        "   {:<16} {:>12} {:>12} {:>12} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for m in &END_TO_END {
        let s = &r.end_to_end[m.name];
        println!(
            "   {:<16} {:>12.6} {:>12.6} {:>12.6} {:>4}  {}",
            m.name,
            s.median,
            s.q1,
            s.q3,
            s.samples.len(),
            m.unit
        );
    }
    println!(
        "   runs: {} attempted, {} failed",
        r.tally.attempted, r.tally.failed
    );
    for p in &r.tally.problems {
        println!("   FAILED {p}");
    }
    println!(
        "   host: calibration {:.3} Mops median (reference {}), max before/after spread {:.3}, \
         {} rep(s) flagged over {:.0}%; raw wall {:.4} s median",
        r.calib.median,
        calib::CALIB_REF_MOPS,
        r.max_spread,
        r.flagged,
        FLAG_SPREAD * 100.0,
        r.raw_wall.median
    );
    if let Some(layers) = &r.layers {
        println!("   per-layer (traced run):");
        for (name, unit, _) in layers::specs() {
            println!("   {name:<34} {:>14.4} {unit}", layers[&name]);
        }
        for (name, unit) in layers::DIAGNOSTICS {
            println!("   {name:<34} {:>14.4} {unit} (diagnostic)", layers[name]);
        }
    }
}

/// Regenerates `reference.json`, em3d-long's reference output, at the
/// default seed.
fn update_reference(jobs: usize) -> Result<PathBuf, String> {
    let w = Workload::Em3dLong;
    let plan = workloads::plan(w, DEFAULT_SEED);
    let mut rec = Recorder::new(Ctx {
        on: false,
        origin: Instant::now(),
        workload: w.name(),
        rep: 0,
    });
    let out = workloads::run_rep(&plan, DEFAULT_SEED, None, jobs, &mut rec);
    if out.tally.failed > 0 {
        return Err(format!("runs failed: {:?}", out.tally.problems));
    }
    let records = out
        .bytes
        .iter()
        .map(|b| {
            json::parse(b)
                .map_err(|e| e.to_string())
                .and_then(|v| RunRecord::from_json(&v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let path = w.reference_path();
    let doc = record::document(vec![record::sweep_to_json(w.name(), &records)]);
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(xs: &[&str]) -> Result<Args, String> {
        Args::parse(xs.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_for_one_workload_and_for_all() {
        let a = parse(&[
            "--workload",
            "em3d-long",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("the one-workload form parses");
        assert_eq!(a.workloads, vec![Workload::Em3dLong]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, Trace::Off));
        assert_eq!(parse(&["--trace", "1"]).expect("on").trace, Trace::On);
        assert_eq!(
            parse(&["--trace", "t.jsonl"]).expect("file").trace,
            Trace::File(PathBuf::from("t.jsonl"))
        );
        assert_eq!(
            parse(&["--seed", "0x5eed"]).expect("hex").seed,
            DEFAULT_SEED
        );
        let all = parse(&[]).expect("defaults");
        assert_eq!(all.workloads, Workload::ALL.to_vec());
        assert_eq!((all.seed, all.seconds), (DEFAULT_SEED, RUN_SECONDS));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "2.5"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
