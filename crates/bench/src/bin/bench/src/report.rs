//! End-to-end metric definitions, the machine-readable outputs and
//! `--compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use nisim_engine::json::{self, Json};

use crate::calib::CALIB_REF_MOPS;
use crate::layers;
use crate::stats::Summary;
use crate::workloads::{Tally, Workload, JOBS};

/// One end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Relative share of the baseline median by which the metric may get
    /// worse before a change counts as a regression; 0 for `fail_frac`,
    /// where any increase is a regression.
    pub bound: f64,
}

/// Every end-to-end metric, all lower-is-better. Times are calibrated
/// seconds: host seconds scaled to the reference host's speed.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.10,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.10,
    },
    EndToEnd {
        name: "heap_peak_mb",
        unit: "MiB",
        bound: 0.08,
    },
    EndToEnd {
        name: "fail_frac",
        unit: "ratio",
        bound: 0.0,
    },
];

/// `fail_frac` is 0 on every correct run, so `BENCHMARK.json` (whose
/// metrics must never read 0) carries it as the summary's `correct`,
/// `attempted` and `failed` instead.
pub fn in_benchmark_json(m: &EndToEnd) -> bool {
    m.name != "fail_frac"
}

/// Everything measured for one workload.
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// The seed its runs used.
    pub seed: u64,
    /// Checks over every rep, set-ups included.
    pub tally: Tally,
    /// Samples of each [`END_TO_END`] metric, by name.
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Raw host seconds per timed rep.
    pub raw_wall: Summary,
    /// Calibration rates measured (Mops).
    pub calib: Summary,
    /// Largest before/after calibration spread of any rep.
    pub max_spread: f64,
    /// Reps whose calibration spread exceeded the flag threshold.
    pub flagged: usize,
    /// Per-layer metrics, in a traced run.
    pub layers: Option<BTreeMap<String, f64>>,
}

impl WorkloadResult {
    /// True if every run passed its checks.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

/// The last stdout line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Untraced, the metrics are the end-to-end
/// medians; traced, the per-layer values. With several workloads each
/// name is prefixed by the workload's.
pub fn summary_line(results: &[WorkloadResult], traced: bool) -> String {
    let prefix = |w: Workload, name: &str| {
        if results.len() == 1 {
            name.to_string()
        } else {
            format!("{}.{name}", w.name())
        }
    };
    let mut metrics = Json::obj();
    for r in results {
        if traced {
            let l = r.layers.as_ref().expect("a traced run measures its layers");
            for (name, unit, _) in layers::specs() {
                metrics = metrics.set(&prefix(r.workload, &name), value(l[&name], unit));
            }
        } else {
            for m in END_TO_END.iter().filter(|m| in_benchmark_json(m)) {
                metrics = metrics.set(
                    &prefix(r.workload, m.name),
                    value(r.end_to_end[m.name].median, m.unit),
                );
            }
        }
    }
    Json::obj()
        .set("correct", results.iter().all(WorkloadResult::correct))
        .set(
            "attempted",
            results.iter().map(|r| r.tally.attempted).sum::<u64>(),
        )
        .set(
            "failed",
            results.iter().map(|r| r.tally.failed).sum::<u64>(),
        )
        .set("metrics", metrics)
        .to_compact()
}

fn value(v: f64, unit: &str) -> Json {
    Json::obj().set("value", v).set("unit", unit)
}

fn summary_json(s: &Summary) -> Json {
    Json::obj()
        .set("median", s.median)
        .set("q1", s.q1)
        .set("q3", s.q3)
        .set("n", s.samples.len())
        .set(
            "samples",
            Json::Arr(s.samples.iter().map(|&x| Json::from(x)).collect()),
        )
}

/// The full `--json` document.
pub fn document(results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let mut e2e = Json::obj();
            for m in &END_TO_END {
                e2e = e2e.set(
                    m.name,
                    summary_json(&r.end_to_end[m.name])
                        .set("unit", m.unit)
                        .set("better", "lower")
                        .set("bound", m.bound),
                );
            }
            let mut w = Json::obj()
                .set("name", r.workload.name())
                .set("seed", r.seed)
                .set("correct", r.correct())
                .set("attempted", r.tally.attempted)
                .set("failed", r.tally.failed)
                .set(
                    "problems",
                    Json::Arr(
                        r.tally
                            .problems
                            .iter()
                            .map(|p| Json::from(p.as_str()))
                            .collect(),
                    ),
                )
                .set("end_to_end", e2e)
                .set("raw_wall_s", summary_json(&r.raw_wall))
                .set("calib_mops", summary_json(&r.calib))
                .set("calib_max_spread", r.max_spread)
                .set("flagged_reps", r.flagged);
            if let Some(l) = &r.layers {
                let mut per_layer = Json::obj();
                for (name, unit, better) in layers::specs() {
                    per_layer = per_layer.set(&name, value(l[&name], unit).set("better", better));
                }
                let mut diagnostics = Json::obj();
                for (name, unit) in layers::DIAGNOSTICS {
                    diagnostics = diagnostics.set(name, value(l[name], unit));
                }
                w = w
                    .set("per_layer", per_layer)
                    .set("diagnostics", diagnostics);
            }
            w
        })
        .collect();
    Json::obj()
        .set("schema", 1u64)
        .set("generator", "nisim-bench perf")
        .set("jobs", JOBS)
        .set("calib_ref_mops", CALIB_REF_MOPS)
        .set("workloads", Json::Arr(workloads))
}

/// A change's verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the baseline's own spread on nine tenths of the
    /// paired samples.
    Better,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The samples spread wider than the bound, so no call can be made.
    Unresolved,
}

impl Verdict {
    fn key(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares change `b` against baseline `a` for a lower-is-better metric
/// with relative `bound` (an absolute bound of 0 when `bound` is 0). The
/// run-to-run spread is the two sides' quartile spreads averaged: both
/// sample the same host's noise, and pooling them keeps one unlucky set
/// of samples from making every verdict unresolved.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let a_max = a.samples.iter().copied().fold(f64::MIN, f64::max);
    let a_min = a.samples.iter().copied().fold(f64::MAX, f64::min);
    let b_max = b.samples.iter().copied().fold(f64::MIN, f64::max);
    if bound == 0.0 {
        return if b_max > a_max {
            Verdict::Worse
        } else if b_max < a_max {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
    }
    let all_better = b_max < a_min;
    if (a.rel_iqr() + b.rel_iqr()) / 2.0 > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.median - a.median) / a.median.abs();
    if change > bound {
        return Verdict::Worse;
    }
    let pairs = a.samples.len().min(b.samples.len());
    let wins = a
        .samples
        .iter()
        .zip(&b.samples)
        .filter(|(x, y)| y < x)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && a.median - b.median > a.q3 - a.q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))
}

/// The `--json` documents of one side of a comparison: the file at
/// `path`, or every `.json` file in the directory at `path`, one per run,
/// in name order (the order runs are paired in).
fn read_side(path: &Path) -> Result<Vec<Json>, String> {
    if !path.is_dir() {
        return Ok(vec![read_doc(path)?]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    if files.is_empty() {
        return Err(format!("{} holds no .json document", path.display()));
    }
    files.sort();
    files.iter().map(|p| read_doc(p)).collect()
}

fn summary_from(v: &Json) -> Option<Summary> {
    let samples: Vec<f64> = v
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Option<_>>()?;
    (!samples.is_empty()).then(|| Summary::of(samples))
}

/// One side's samples of a (workload, metric). With several runs they
/// are the runs' medians, so the spread is the run-to-run spread the
/// verdict is about; a single run can only offer its reps.
fn side_samples(docs: &[Json], workload: &str, metric: &str) -> Option<Summary> {
    let runs: Vec<Summary> = docs
        .iter()
        .filter_map(|d| {
            d.get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
                .get("end_to_end")?
                .get(metric)
                .and_then(summary_from)
        })
        .collect();
    if runs.len() > 1 {
        Some(Summary::of(runs.iter().map(|s| s.median).collect()))
    } else {
        runs.into_iter().next()
    }
}

/// `bench --compare <a> <b>`, each side a `--json` document or a
/// directory of them: prints, for every workload and end-to-end metric
/// both sides hold, both medians, quartiles and sample counts, the bound
/// and a verdict. Returns true if any pair got worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_side(a_path)?, read_side(b_path)?);
    let kind = |docs: &[Json]| {
        if docs.len() > 1 {
            "run medians"
        } else {
            "reps of one run"
        }
    };
    println!(
        "a: {} ({}); b: {} ({})",
        a_path.display(),
        kind(&a),
        b_path.display(),
        kind(&b)
    );
    println!(
        "{:<15} {:<13} {:>11} {:>23} {:>4} {:>11} {:>23} {:>4} {:>6}  verdict",
        "workload", "metric", "a median", "a q1..q3", "n", "b median", "b q1..q3", "n", "bound"
    );
    let mut worse = false;
    let mut compared = 0;
    for w in Workload::ALL {
        let name = w.name();
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side_samples(&a, name, m.name),
                side_samples(&b, name, m.name),
            ) else {
                continue;
            };
            let v = verdict(&sa, &sb, m.bound);
            worse |= v == Verdict::Worse;
            compared += 1;
            println!(
                "{name:<15} {:<13} {:>11.5} {:>23} {:>4} {:>11.5} {:>23} {:>4} {:>5.0}%  {}",
                m.name,
                sa.median,
                format!("{:.5}..{:.5}", sa.q1, sa.q3),
                sa.samples.len(),
                sb.median,
                format!("{:.5}..{:.5}", sb.q1, sb.q3),
                sb.samples.len(),
                m.bound * 100.0,
                v.key()
            );
        }
    }
    if compared == 0 {
        return Err("the two sides share no workload".into());
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(xs: &[f64]) -> Summary {
        Summary::of(xs.to_vec())
    }

    #[test]
    fn verdicts_follow_bounds_spread_and_pair_wins() {
        let base = s(&[1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]);
        // Within the bound and not a clear win.
        let same = s(&[1.01, 1.00, 1.00, 0.99, 1.01, 1.00, 1.02, 0.99, 1.00, 1.01]);
        assert_eq!(verdict(&base, &same, 0.08), Verdict::Unchanged);
        // 10% slower against an 8% bound.
        let slow: Vec<f64> = base.samples.iter().map(|x| x * 1.10).collect();
        assert_eq!(verdict(&base, &s(&slow), 0.08), Verdict::Worse);
        // 5% faster on every pair, beyond the baseline's quartile spread.
        let fast: Vec<f64> = base.samples.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&base, &s(&fast), 0.08), Verdict::Better);
        // Reps spread wider than the bound: unresolved, not unchanged.
        let noisy = s(&[0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.85, 1.15]);
        assert_eq!(verdict(&base, &noisy, 0.08), Verdict::Unresolved);
        // ...unless every change rep beats every baseline rep.
        let wild_but_faster = s(&[0.1, 0.5, 0.2, 0.45, 0.15, 0.4, 0.3, 0.35, 0.25, 0.5]);
        assert_eq!(verdict(&base, &wild_but_faster, 0.08), Verdict::Better);
    }

    #[test]
    fn a_set_of_runs_compares_run_medians_and_one_run_its_reps() {
        let doc = |samples: &[f64]| {
            let wall = Json::obj().set(
                "samples",
                Json::Arr(samples.iter().map(|&x| Json::from(x)).collect()),
            );
            let w = Json::obj()
                .set("name", "em3d-long")
                .set("end_to_end", Json::obj().set("wall_s", wall));
            Json::obj().set("workloads", Json::Arr(vec![w]))
        };
        let one = [doc(&[1.0, 2.0, 9.0])];
        let reps = side_samples(&one, "em3d-long", "wall_s").expect("one run");
        assert_eq!(reps.samples, vec![1.0, 2.0, 9.0]);
        let set = [doc(&[1.0, 2.0, 9.0]), doc(&[3.0, 4.0, 5.0])];
        let runs = side_samples(&set, "em3d-long", "wall_s").expect("two runs");
        assert_eq!(runs.samples, vec![2.0, 4.0]);
        assert!(side_samples(&set, "paper-grid", "wall_s").is_none());
    }

    #[test]
    fn an_absolute_zero_bound_flags_any_increase() {
        let clean = s(&[0.0, 0.0, 0.0]);
        assert_eq!(verdict(&clean, &clean, 0.0), Verdict::Unchanged);
        assert_eq!(verdict(&clean, &s(&[0.0, 0.01, 0.0]), 0.0), Verdict::Worse);
        assert_eq!(verdict(&s(&[0.0, 0.01, 0.0]), &clean, 0.0), Verdict::Better);
    }

    /// `BENCHMARK.json` at the repository root must name exactly these
    /// metrics, units and bounds, and the run length the bounds hold at.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(u64::from(crate::RUN_SECONDS))
        );
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        let ours: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| in_benchmark_json(m)).collect();
        assert_eq!(e2e.len(), ours.len());
        for (j, m) in e2e.iter().zip(ours) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some("lower"));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let per_layer = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        let specs = layers::specs();
        assert_eq!(per_layer.len(), specs.len());
        for (j, (name, unit, better)) in per_layer.iter().zip(&specs) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name.as_str()));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(j.get("better").and_then(Json::as_str), Some(*better));
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
