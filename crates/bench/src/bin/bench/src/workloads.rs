//! The four workloads, their reference outputs and the output checks.
//!
//! On the host side every workload is a closed loop: at most [`JOBS`]
//! sweep threads, each running one simulation at a time. Every output is
//! reduced to canonical JSON bytes and compared against a reference: the
//! committed goldens (and this directory's `reference.json`) at the seed
//! they were made with, and the first set-up rep's own output at any
//! other seed. Invariants are checked at every seed.

use std::path::PathBuf;

use nisim_bench::chaos::{self, ChaosPoint, CHAOS_SEED, CUTS_PER_POINT};
use nisim_bench::harness::run_point;
use nisim_bench::loadlat::{incast_sweep, loadlat_golden_path, loadlat_sweep, mixes_sweep};
use nisim_bench::record::{fingerprint, RunRecord};
use nisim_bench::{golden_path, golden_suite, parallel_map, Sweep, SweepPoint};
use nisim_core::snapshot::{restore, save};
use nisim_core::{Machine, MachineConfig, MachineReport, MachineSim, NiKind};
use nisim_engine::json::{self, Json};
use nisim_engine::{Dur, SimStatus, SplitMix64, Time};
use nisim_net::BufferCount;
use nisim_workloads::apps::{factory, AppParams, MacroApp};

use crate::alloc;
use crate::trace::{Recorder, Span};

/// The seed every golden was generated with (`MachineConfig`'s default).
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Sweep threads: the benchmark never runs more simulations at once.
pub const JOBS: usize = 2;

/// `Machine::run`'s safety bounds, which the golden runs used.
pub const HORIZON: Time = Time::from_ns(10_000_000_000);
const MAX_EVENTS: u64 = 500_000_000;

/// em3d-long's runs: 16 nodes, 8 buffers, 12 iterations each.
pub const EM3D_LONG: AppParams = AppParams {
    iterations: 12,
    intensity: 26,
    compute: Dur::us(3),
};
/// em3d-long runs this many seeds per NI. One em3d graph's event count
/// moves about 6% with the seed; eight graphs per NI keep a rep's work
/// (about 2.4M events) nearly the same at every seed.
const EM3D_SEEDS: u64 = 8;

/// The chaos grid's run shape; `nisim_bench::chaos` keeps these private,
/// and the golden check at the default seed proves they still match.
pub const CHAOS_PARAMS: AppParams = AppParams {
    iterations: 2,
    intensity: 4,
    compute: Dur::us(1),
};
/// The chaos grid's horizon.
pub const CHAOS_HORIZON: Time = Time::from_ns(60_000_000_000);

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every section of the golden suite.
    PaperGrid,
    /// Sixteen 16-node em3d runs: eight seeds on each of two NIs.
    Em3dLong,
    /// The open-loop load ladders.
    TrafficLadder,
    /// Kill-and-resume through snapshots.
    ChaosResume,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::Em3dLong,
        Workload::TrafficLadder,
        Workload::ChaosResume,
    ];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::Em3dLong => "em3d-long",
            Workload::TrafficLadder => "traffic-ladder",
            Workload::ChaosResume => "chaos-resume",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the workload runs and why it is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperGrid => {
                "every golden_suite section: hundreds of short runs, so machine build, record \
                 encoding and the sweep harness carry much of the time"
            }
            Workload::Em3dLong => {
                "16-node em3d on cm5 and cni32qm, 2.4M events per rep: the event loop, wheel, \
                 bus and NI send/deposit paths do nearly all the work"
            }
            Workload::TrafficLadder => {
                "open-loop Poisson/MMPP load ladders: injectors, histograms and cm5 incast \
                 retry storms the macro apps never exercise"
            }
            Workload::ChaosResume => {
                "kill-and-resume through snapshots: state is written out and read back, so \
                 snapshot, JSON and crash recovery dominate"
            }
        }
    }

    /// Calibrated seconds one rep and the calibration after it take on
    /// the reference host. `--seconds` ÷ this fixes the workload's
    /// iterations, so a run lasts about `--seconds` there.
    pub fn rep_seconds(self) -> f64 {
        match self {
            Workload::PaperGrid => 0.80,
            Workload::Em3dLong => 0.35,
            Workload::TrafficLadder => 0.45,
            Workload::ChaosResume => 0.68,
        }
    }

    /// The reference file checked at the default seed.
    pub fn reference_path(self) -> PathBuf {
        match self {
            Workload::PaperGrid => golden_path(),
            Workload::Em3dLong => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference.json"),
            Workload::TrafficLadder => loadlat_golden_path(),
            Workload::ChaosResume => chaos::chaos_path(),
        }
    }
}

/// What one workload runs, built from the seed.
pub enum Plan {
    /// Named sweep sections, each run through `parallel_map`.
    Sections(Vec<(String, Vec<SweepPoint>)>),
    /// em3d runs, by NI and seed.
    Em3d(Vec<(NiKind, u64)>),
    /// The chaos grid, with each point's index.
    Chaos(Vec<(usize, ChaosPoint)>),
}

/// The workload's inputs at `seed`, which every run gets as its
/// `MachineConfig::seed` (em3d-long's eight runs per NI get `seed` to
/// `seed + 7`).
pub fn plan(w: Workload, seed: u64) -> Plan {
    let sections = |sweeps: Vec<Sweep>| {
        Plan::Sections(
            sweeps
                .into_iter()
                .map(|s| {
                    let mut points = s.points();
                    for p in &mut points {
                        p.patch.seed = Some(seed);
                    }
                    (s.name, points)
                })
                .collect(),
        )
    };
    match w {
        Workload::PaperGrid => sections(golden_suite()),
        Workload::TrafficLadder => sections(vec![loadlat_sweep(), incast_sweep(), mixes_sweep()]),
        Workload::Em3dLong => Plan::Em3d(
            [NiKind::Cm5, NiKind::Cni32Qm]
                .into_iter()
                .flat_map(|ni| (0..EM3D_SEEDS).map(move |k| (ni, seed.wrapping_add(k))))
                .collect(),
        ),
        Workload::ChaosResume => Plan::Chaos(chaos::grid().into_iter().enumerate().collect()),
    }
}

/// Reads and parses the workload's reference file into the canonical
/// bytes of each output, in plan order.
pub fn load_reference(w: Workload) -> Result<Vec<String>, String> {
    let path = w.reference_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{} does not parse: {e}", path.display()))?;
    let malformed = || format!("{} is not a {} reference", path.display(), w.name());
    if w == Workload::ChaosResume {
        let points = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or_else(malformed)?;
        return Ok(points.iter().map(Json::to_compact).collect());
    }
    let mut out = Vec::new();
    for sweep in doc
        .get("sweeps")
        .and_then(Json::as_arr)
        .ok_or_else(malformed)?
    {
        let records = sweep
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(malformed)?;
        out.extend(records.iter().map(Json::to_compact));
    }
    Ok(out)
}

/// One checked output: a record, or a chaos point with its resumed runs.
pub struct Unit {
    label: String,
    runs: u64,
    failed: u64,
    problem: Option<String>,
    retries: u64,
    retransmits: u64,
    bytes: String,
}

impl Unit {
    fn failure(&mut self, problem: String) {
        self.failed += 1;
        self.problem.get_or_insert(problem);
    }
}

/// A run's invariant breach, if any: every run must end quiescent with
/// no protocol violation, and every open-loop tenant must deliver all
/// it offered.
pub fn invariant_problem(r: &RunRecord) -> Option<String> {
    if !r.quiescent {
        return Some(format!("not quiescent (status {})", r.status));
    }
    let violations = r.counter("violations");
    if violations > 0 {
        return Some(format!("{violations} protocol violations"));
    }
    r.tenants
        .iter()
        .find(|t| t.delivered != t.offered)
        .map(|t| {
            format!(
                "tenant {} delivered {} of {}",
                t.name, t.delivered, t.offered
            )
        })
}

/// Encodes one record as an output unit and checks its invariants.
pub fn record_unit(label: String, r: &RunRecord) -> Unit {
    let problem = invariant_problem(r);
    Unit {
        label,
        runs: 1,
        failed: u64::from(problem.is_some()),
        problem,
        retries: r.counter("retries"),
        retransmits: r.counter("rel_retransmits"),
        bytes: r.to_json().to_compact(),
    }
}

/// Outcome of checking one rep's outputs.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Simulation runs attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Return-to-sender retries summed over the rep's records.
    pub retries: u64,
    /// Reliability-layer retransmits summed over the rep's records.
    pub retransmits: u64,
}

impl Tally {
    fn note(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.retransmits += other.retransmits;
        for p in other.problems {
            self.note(p);
        }
    }
}

/// Checks outputs against the reference (when there is one): a run fails
/// if it broke an invariant or its bytes differ from the reference's.
pub fn check(units: &[Unit], reference: Option<&[String]>) -> Tally {
    let mut t = Tally::default();
    if let Some(reference) = reference {
        if reference.len() != units.len() {
            t.note(format!(
                "{} outputs, but the reference has {}",
                units.len(),
                reference.len()
            ));
        }
        // Runs the reference expects but the plan never made count as
        // attempted and failed.
        let missing = reference.len().saturating_sub(units.len()) as u64;
        t.attempted += missing;
        t.failed += missing;
    }
    for (i, u) in units.iter().enumerate() {
        t.attempted += u.runs;
        t.retries += u.retries;
        t.retransmits += u.retransmits;
        let mut failed = u.failed;
        if let Some(p) = &u.problem {
            t.note(format!("{}: {p}", u.label));
        }
        let expected = reference.map(|r| r.get(i));
        if matches!(expected, Some(e) if e != Some(&u.bytes)) {
            failed = failed.max(1);
            t.note(format!("{}: output differs from the reference", u.label));
        }
        t.failed += failed;
    }
    t
}

/// One rep's checked output.
pub struct RepOutput {
    /// Check results.
    pub tally: Tally,
    /// Each output's canonical bytes, in plan order: the reference for
    /// later reps at a non-default seed.
    pub bytes: Vec<String>,
}

/// Runs one rep of a workload and checks it against `reference`.
pub fn run_rep(
    plan: &Plan,
    seed: u64,
    reference: Option<&[String]>,
    jobs: usize,
    rec: &mut Recorder,
) -> RepOutput {
    rec.span("rep", None, |rec, rep| {
        let mut units = Vec::new();
        match plan {
            Plan::Sections(sections) => {
                for (name, points) in sections {
                    let records = section(rec, rep, points, jobs, |r, sec, p| {
                        r.span("point", sec, |_, _| run_point(p))
                    });
                    rec.span("golden.compare", rep, |_, _| {
                        for (p, r) in points.iter().zip(&records) {
                            let label = format!(
                                "{name}/{}/{}/{}/{}",
                                r.work, r.ni, r.buffers, p.patch.label
                            );
                            units.push(record_unit(label, r));
                        }
                    });
                }
            }
            Plan::Em3d(nis) => {
                units = section(rec, rep, nis, jobs, |r, sec, &(ni, seed)| {
                    r.span("point", sec, |r, pt| em3d_long(ni, seed, r, pt))
                });
            }
            Plan::Chaos(points) => {
                units = section(rec, rep, points, jobs, |r, sec, (idx, p)| {
                    r.span("point", sec, |r, pt| chaos_point(*idx, p, seed, r, pt))
                });
            }
        }
        let tally = rec.span("golden.compare", rep, |_, _| check(&units, reference));
        RepOutput {
            tally,
            bytes: units.into_iter().map(|u| u.bytes).collect(),
        }
    })
}

/// Runs `items` through `parallel_map` inside a `section` span; each
/// sweep thread records into its own recorder and returns its spans
/// with its result.
fn section<P: Sync, R: Send>(
    rec: &mut Recorder,
    parent: Option<u64>,
    items: &[P],
    jobs: usize,
    f: impl Fn(&mut Recorder, Option<u64>, &P) -> R + Sync,
) -> Vec<R> {
    rec.span("section", parent, |rec, sec| {
        let ctx = rec.ctx();
        let done: Vec<(R, Vec<Span>)> = parallel_map(items, jobs, |p| {
            let mut r = Recorder::new(ctx);
            let out = f(&mut r, sec, p);
            alloc::flush();
            (out, r.into_spans())
        });
        done.into_iter()
            .map(|(out, spans)| {
                rec.absorb(spans);
                out
            })
            .collect()
    })
}

/// Builds and starts a machine inside a `machine.build` span.
pub fn build(
    cfg: &MachineConfig,
    app: MacroApp,
    params: AppParams,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> (Machine, MachineSim) {
    rec.span("machine.build", parent, |_, _| {
        let mut m = Machine::new(cfg.clone(), factory(app, cfg.nodes, cfg.seed, params));
        let mut sim = MachineSim::new();
        m.start(&mut sim);
        (m, sim)
    })
}

/// Runs a machine inside a `machine.run` span counting the events fired.
pub fn run(
    m: &mut Machine,
    sim: &mut MachineSim,
    horizon: Time,
    max_events: u64,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> SimStatus {
    rec.counted("machine.run", parent, |_, _| {
        let before = sim.events_fired();
        let status = m.run_slice(sim, horizon, max_events);
        (status, sim.events_fired() - before)
    })
}

/// Reports a machine inside a `machine.report` span counting the run's
/// bus transactions.
pub fn report(
    m: &Machine,
    sim: &MachineSim,
    status: SimStatus,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> MachineReport {
    rec.counted("machine.report", parent, |_, _| {
        let r = m.report(sim, status);
        let txns = r.bus_transactions;
        (r, txns)
    })
}

/// Builds, runs to completion and reports one machine.
pub fn simulate(
    cfg: &MachineConfig,
    app: MacroApp,
    params: AppParams,
    horizon: Time,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> MachineReport {
    let (mut m, mut sim) = build(cfg, app, params, rec, parent);
    let status = run(&mut m, &mut sim, horizon, MAX_EVENTS, rec, parent);
    report(&m, &sim, status, rec, parent)
}

/// The configuration of an em3d-long run.
pub fn em3d_long_config(ni: NiKind, seed: u64) -> MachineConfig {
    MachineConfig::with_ni(ni)
        .flow_buffers(BufferCount::Finite(8))
        .seed(seed)
}

fn em3d_long(ni: NiKind, seed: u64, rec: &mut Recorder, parent: Option<u64>) -> Unit {
    let cfg = em3d_long_config(ni, seed);
    let report = simulate(&cfg, MacroApp::Em3d, EM3D_LONG, HORIZON, rec, parent);
    rec.span("record.build", parent, |_, _| {
        let r = RunRecord::from_report(
            "em3d".to_string(),
            ni.key().to_string(),
            "8".to_string(),
            "long".to_string(),
            fingerprint(&cfg),
            &report,
            Vec::new(),
        );
        record_unit(format!("em3d-long/{}/seed {seed}", ni.key()), &r)
    })
}

/// The chaos configuration of one grid point at `seed`.
pub fn chaos_config(p: &ChaosPoint, seed: u64) -> MachineConfig {
    chaos::config(p).seed(seed)
}

fn chaos_record(p: &ChaosPoint, cfg: &MachineConfig, report: &MachineReport) -> RunRecord {
    RunRecord::from_report(
        p.app.name().to_string(),
        p.ni.key().to_string(),
        "4".to_string(),
        if p.crash { "crash" } else { "" }.to_string(),
        fingerprint(cfg),
        report,
        Vec::new(),
    )
}

/// One chaos point: the uninterrupted run, then [`CUTS_PER_POINT`]
/// seeded kill-and-resume runs, each of which must reproduce it byte for
/// byte. The unit's bytes are the point's entry in `golden_chaos.json`.
fn chaos_point(
    idx: usize,
    p: &ChaosPoint,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> Unit {
    let cfg = chaos_config(p, seed);
    let label = format!(
        "chaos/{}/{}/{}",
        p.app.name(),
        p.ni.key(),
        if p.crash { "crash" } else { "" }
    );
    let report0 = simulate(&cfg, p.app, CHAOS_PARAMS, CHAOS_HORIZON, rec, parent);
    let events = report0.events;
    let (golden, mut unit) = rec.span("record.build", parent, |_, _| {
        let r = chaos_record(p, &cfg, &report0);
        let unit = record_unit(label, &r);
        (r.to_json(), unit)
    });
    unit.runs += CUTS_PER_POINT as u64;

    // The golden's cut stream at the default seed, a different one at
    // any other.
    let mut rng = SplitMix64::new(CHAOS_SEED ^ idx as u64 ^ seed ^ DEFAULT_SEED);
    let cuts: Vec<u64> = (0..CUTS_PER_POINT)
        .map(|_| 1 + rng.gen_range(events.saturating_sub(2).max(1)))
        .collect();
    for &cut in &cuts {
        match resume_at(&cfg, p.app, cut, rec, parent) {
            Ok(resumed) => {
                let bytes = rec.span("record.build", parent, |_, _| {
                    chaos_record(p, &cfg, &resumed).to_json().to_compact()
                });
                if bytes != unit.bytes {
                    unit.failure(format!(
                        "run resumed at event {cut} differs from the uninterrupted run"
                    ));
                }
            }
            Err(e) => unit.failure(e),
        }
    }
    unit.bytes = Json::obj()
        .set("work", p.app.name())
        .set("ni", p.ni.key())
        .set("patch", if p.crash { "crash" } else { "" })
        .set("events", events)
        .set(
            "cuts",
            Json::Arr(cuts.iter().map(|&c| Json::from(c)).collect()),
        )
        .set("golden", golden)
        .to_compact();
    unit
}

/// Runs a fresh machine to event `cut`, snapshots it, serialises and
/// re-parses the snapshot as a process restart would, restores it into
/// a fresh machine and runs that to completion.
pub fn resume_at(
    cfg: &MachineConfig,
    app: MacroApp,
    cut: u64,
    rec: &mut Recorder,
    parent: Option<u64>,
) -> Result<MachineReport, String> {
    let (mut m, mut sim) = build(cfg, app, CHAOS_PARAMS, rec, parent);
    run(&mut m, &mut sim, CHAOS_HORIZON, cut, rec, parent);
    let snap = rec
        .span("snapshot.save", parent, |_, _| save(&m, &mut sim))
        .map_err(|e| format!("snapshot at event {cut} failed: {e}"))?;
    let text = rec.counted("json.encode", parent, |_, _| {
        let text = snap.to_compact();
        let bytes = text.len() as u64;
        (text, bytes)
    });
    drop((snap, m, sim));
    let parsed = rec
        .counted("json.parse", parent, |_, _| {
            (json::parse(&text), text.len() as u64)
        })
        .map_err(|e| format!("snapshot at event {cut} does not re-parse: {e}"))?;
    let (mut m, mut sim) = rec
        .span("snapshot.restore", parent, |_, _| {
            restore(
                cfg.clone(),
                factory(app, cfg.nodes, cfg.seed, CHAOS_PARAMS),
                &parsed,
            )
        })
        .map_err(|e| format!("restore at event {cut} failed: {e}"))?;
    let status = run(&mut m, &mut sim, CHAOS_HORIZON, MAX_EVENTS, rec, parent);
    Ok(report(&m, &sim, status, rec, parent))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_workloads::apps::run_app;

    fn small_record() -> RunRecord {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let params = AppParams {
            iterations: 2,
            intensity: 2,
            compute: Dur::us(2),
        };
        let report = run_app(MacroApp::Em3d, &cfg, &params);
        RunRecord::from_report(
            "em3d".into(),
            "cm5".into(),
            "8".into(),
            String::new(),
            fingerprint(&cfg),
            &report,
            Vec::new(),
        )
    }

    #[test]
    fn a_record_with_one_counter_changed_is_caught() {
        let record = small_record();
        let reference = vec![record.to_json().to_compact()];
        let clean = check(&[record_unit("r".into(), &record)], Some(&reference));
        assert_eq!(
            (clean.attempted, clean.failed),
            (1, 0),
            "{:?}",
            clean.problems
        );

        let mut changed = record.clone();
        let retries = changed
            .counters
            .iter_mut()
            .find(|(name, _)| name == "retries")
            .expect("records carry a retries counter");
        retries.1 += 1;
        let caught = check(&[record_unit("r".into(), &changed)], Some(&reference));
        assert_eq!((caught.attempted, caught.failed), (1, 1));
        assert!(
            caught.problems[0].contains("differs"),
            "{:?}",
            caught.problems
        );
    }

    #[test]
    fn invariants_are_checked_without_a_reference() {
        let record = small_record();
        assert_eq!(check(&[record_unit("r".into(), &record)], None).failed, 0);

        let mut violated = record.clone();
        for (name, v) in &mut violated.counters {
            if name == "violations" {
                *v = 1;
            }
        }
        let t = check(&[record_unit("r".into(), &violated)], None);
        assert_eq!(t.failed, 1);
        assert!(t.problems[0].contains("violation"), "{:?}", t.problems);

        let mut stuck = record;
        stuck.quiescent = false;
        assert_eq!(check(&[record_unit("r".into(), &stuck)], None).failed, 1);
    }

    #[test]
    fn a_missing_output_is_reported() {
        let record = small_record();
        let bytes = record.to_json().to_compact();
        let t = check(
            &[record_unit("r".into(), &record)],
            Some(&[bytes.clone(), bytes]),
        );
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(
            t.problems[0].contains("reference has 2"),
            "{:?}",
            t.problems
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
