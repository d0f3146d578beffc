//! Library behind the `nisim` command-line tool (separated so the parser
//! and command runners are unit-testable).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use nisim_core::snapshot::{load_from_file, restore, save_to_file};
use nisim_core::{
    Machine, MachineConfig, MachineReport, MachineSim, NiClass, NiKind, TimeCategory, RUN_HORIZON,
    RUN_MAX_EVENTS,
};
use nisim_engine::metrics::MetricsConfig;
use nisim_engine::{Dur, SimStatus, Time};
use nisim_net::{BufferCount, CrashWindow, DownWindow, NodeId, Topology};
use nisim_workloads::apps::{factory, MacroApp};
use nisim_workloads::micro::bandwidth::measure_bandwidth;
use nisim_workloads::micro::pingpong::measure_round_trip;
use nisim_workloads::micro::Undrained;
use nisim_workloads::traffic::{
    level_gap_ns, multi_tenant_params, run_traffic, TrafficKind, TrafficSpec, MAX_LOAD_LEVEL,
};

use nisim_bench::exp::{Runner, EXPERIMENTS};
use nisim_bench::record::{self, RunRecord};
use nisim_bench::{default_jobs, parallel_map};

/// Builds the machine-readable record the `--json` flag emits for a
/// macrobenchmark run.
fn record_for(
    app: MacroApp,
    ni: NiKind,
    cfg: &MachineConfig,
    report: &nisim_core::MachineReport,
) -> RunRecord {
    RunRecord::from_report(
        app.name().to_string(),
        ni.key().to_string(),
        cfg.flow_buffers.to_string(),
        String::new(),
        record::fingerprint(cfg),
        report,
        Vec::new(),
    )
}

/// Writes `text` to `path`, reporting failures as CLI errors rather
/// than panics.
#[expect(
    clippy::disallowed_methods,
    reason = "the CLI's one writer of --json documents and goldens"
)]
fn write_file(path: impl AsRef<Path>, text: &str) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, text).map_err(|e| err(format!("writing {path:?}: {e}")))
}

/// Writes a one-section record document.
fn write_records(path: &str, section: &str, records: &[RunRecord]) -> Result<(), CliError> {
    let doc = record::document(vec![record::sweep_to_json(section, records)]);
    write_file(path, &doc.to_pretty())
}

/// The command and flag summary that [`usage`] opens with.
const USAGE: &str = "\
usage:
  nisim list
  nisim rtt   --ni <ni> [--payload <bytes>] [--buffers <n|inf>]
  nisim bw    --ni <ni> [--payload <bytes>] [--buffers <n|inf>]
  nisim run   --app <app> --ni <ni> [--buffers <n|inf>] [--nodes <n>]
              [--topology ideal|ring|mesh] [--seed <n>] [--json <path>]
  nisim sweep --app <app> [--buffers <n|inf>] [--jobs <n>] [--json <path>]
  nisim traffic --ni <ni> [--traffic <shape>] [--load <1..7>]
              [--tenants <n>] [--buffers <n|inf>] [--nodes <n>]
              [--seed <n>] [--json <path>]
  nisim exp <name> [--jobs <n>] [--json <path>] [--update-goldens]

open-loop traffic (traffic only):
  --traffic <shape>    arrival/destination shape: pois-uni (default),
                       pois-incast, mmpp-uni, mix
  --load <level>       offered-load level 1..7; each level doubles the
                       per-node Poisson arrival rate (default 4)
  --tenants <n>        replace the shape with n competing uniform
                       Poisson tenants at staggered rates and message
                       sizes (2..16)

checkpoint/restore (run only):
  --checkpoint <path>        write a snapshot of the live machine here,
                             refreshed every --checkpoint-every events
  --checkpoint-every <n>     checkpoint cadence, in fired events
  --resume <path>            restore from a snapshot instead of starting
                             fresh (the config flags must match the
                             checkpointed run exactly)

observability (any command that builds a machine):
  --metrics <on|off>   per-component cycle accounting (default: off;
                       pure observation — timing is unchanged)
  --trace <path>       write a Chrome-trace JSONL span log (run only;
                       implies --metrics on)

fault injection (any command that builds a machine):
  --fault-drop <p>     drop probability, 0..=1
  --fault-dup <p>      duplication probability, 0..=1
  --fault-corrupt <p>  corruption probability, 0..=1
  --fault-jitter <ns>  max extra delivery latency, ns
  --fault-down <a-b[@node][,..]>  outage window(s), ns since start
  --crash <a-b@node[,..]>  node-crash window(s), ns since start: the
                       node's in-flight NI state is wiped at a and it
                       warm-restarts at b
  --fault-seed <n>     fault-stream seed
  --reliable <on|off>  retransmission layer (default: on iff faults on)
  --rel-timeout <ns>   initial ack timeout before retransmit
  --rel-retries <n>    retransmissions before giving up
  --watchdog-us <n>    no-progress watchdog window, microseconds";

/// Heads the experiment listing in [`usage`].
const EXP_HEADING: &str = "experiments (nisim exp <name>): text rows print only, records rows also
take --json, golden rows --json and --update-goldens:";

/// The listing's word for a row's kind, which fixes the flags it takes.
fn kind(runner: &Runner) -> &'static str {
    match runner {
        Runner::Text(_) => "text",
        Runner::Records(_) => "records",
        Runner::Golden { .. } => "golden",
    }
}

/// Usage text shown by `list` and on parse errors: the flag summary,
/// every NI key and app name from their registries, then every row of
/// [`EXPERIMENTS`].
pub fn usage() -> String {
    let keys: Vec<&str> = NiKind::ALL.iter().map(|ni| ni.key()).collect();
    let rows: Vec<String> = keys.chunks(6).map(|row| row.join(", ")).collect();
    let apps: Vec<&str> = MacroApp::ALL.iter().map(|app| app.name()).collect();
    let exps: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<17}{:<8} {}", e.name, kind(&e.runner), e.summary))
        .collect();
    format!(
        "{USAGE}\n\nNIs:  {}\napps: {}\n\n{EXP_HEADING}\n{}",
        rows.join(",\n      "),
        apps.join(", "),
        exps.join("\n")
    )
}

/// A CLI failure.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Bad arguments or a failed read or write: `nisim` prints the
    /// message and the usage text, and exits 2.
    Usage(String),
    /// A check the command ran did not pass (golden drift, a diverging
    /// chaos differential): `nisim` prints `output`, then the message,
    /// and exits 1.
    Failed {
        /// What the command printed before the check failed.
        output: String,
        /// Why the check failed.
        msg: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed { msg, .. } => f.write_str(msg),
        }
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Every flag [`USAGE`] documents: [`parse_flags`] rejects any other, so
/// a misspelt flag is an error instead of a silently ignored no-op.
const FLAGS: [&str; 29] = [
    "ni",
    "payload",
    "buffers",
    "app",
    "nodes",
    "topology",
    "seed",
    "json",
    "jobs",
    "traffic",
    "load",
    "tenants",
    "checkpoint",
    "checkpoint-every",
    "resume",
    "metrics",
    "trace",
    "fault-drop",
    "fault-dup",
    "fault-corrupt",
    "fault-jitter",
    "fault-down",
    "crash",
    "fault-seed",
    "reliable",
    "rel-timeout",
    "rel-retries",
    "watchdog-us",
    "update-goldens",
];

/// The one flag that takes no value.
const SWITCH: &str = "update-goldens";

/// Parses `--key value` pairs (and the bare [`SWITCH`]) after the
/// subcommand.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, CliError> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(err(format!("expected a --flag, got {key:?}")));
        };
        if !FLAGS.contains(&name) {
            return Err(err(format!("unknown flag --{name}")));
        }
        let value = if name == SWITCH {
            String::new()
        } else {
            let Some(value) = it.next() else {
                return Err(err(format!("--{name} needs a value")));
            };
            value.clone()
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

/// The worker count: `--jobs` if given, else [`default_jobs`].
fn jobs_from(flags: &BTreeMap<String, String>) -> Result<usize, CliError> {
    match flags.get("jobs") {
        None => Ok(default_jobs()),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err(format!("bad --jobs {v:?} (want a positive integer)"))),
    }
}

/// The NI design named by the required `--ni` flag.
fn ni_from(flags: &BTreeMap<String, String>) -> Result<NiKind, CliError> {
    let name = required(flags, "ni")?;
    NiKind::from_key(name).ok_or_else(|| err(format!("unknown NI {name:?}")))
}

/// Parses a macrobenchmark name.
pub fn parse_app(name: &str) -> Result<MacroApp, CliError> {
    MacroApp::from_name(name).ok_or_else(|| err(format!("unknown app {name:?}")))
}

/// Parses a buffer count (`inf` or a positive integer).
pub fn parse_buffers(value: &str) -> Result<BufferCount, CliError> {
    if value == "inf" {
        return Ok(BufferCount::Infinite);
    }
    value
        .parse::<u32>()
        .ok()
        .filter(|&n| n > 0)
        .map(BufferCount::Finite)
        .ok_or_else(|| err(format!("bad buffer count {value:?}")))
}

/// Parses a topology name.
pub fn parse_topology(value: &str) -> Result<Topology, CliError> {
    Ok(match value {
        "ideal" => Topology::Ideal,
        "ring" => Topology::Ring,
        "mesh" => Topology::Mesh2D,
        other => return Err(err(format!("unknown topology {other:?}"))),
    })
}

/// Parses a probability in `0..=1`.
pub fn parse_prob(name: &str, value: &str) -> Result<f64, CliError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| err(format!("bad --{name} {value:?} (want 0..=1)")))
}

/// Parses outage windows: comma-separated `start-end` pairs in
/// nanoseconds, each optionally scoped to one node with `@node`
/// (e.g. `10000-20000,50000-60000@3`).
pub fn parse_down(value: &str) -> Result<Vec<DownWindow>, CliError> {
    let bad = || err(format!("bad --fault-down {value:?} (want a-b[@node],..)"));
    value
        .split(',')
        .map(|w| {
            let (range, node) = match w.split_once('@') {
                Some((r, n)) => (r, Some(NodeId(n.parse().map_err(|_| bad())?))),
                None => (w, None),
            };
            let (a, b) = range.split_once('-').ok_or_else(bad)?;
            let start: u64 = a.parse().map_err(|_| bad())?;
            let end: u64 = b.parse().map_err(|_| bad())?;
            if start >= end {
                return Err(bad());
            }
            Ok(DownWindow {
                start: Time::from_ns(start),
                end: Time::from_ns(end),
                node,
            })
        })
        .collect()
}

/// Parses node-crash windows: comma-separated `start-end@node` triples
/// in nanoseconds (e.g. `0-4000@1`). Unlike an outage window the node is
/// mandatory — a crash wipes one node's volatile NI state.
pub fn parse_crash(value: &str) -> Result<Vec<CrashWindow>, CliError> {
    let bad = || err(format!("bad --crash {value:?} (want a-b@node[,..])"));
    value
        .split(',')
        .map(|w| {
            let (range, node) = w.split_once('@').ok_or_else(bad)?;
            let node = NodeId(node.parse().map_err(|_| bad())?);
            let (a, b) = range.split_once('-').ok_or_else(bad)?;
            let start: u64 = a.parse().map_err(|_| bad())?;
            let end: u64 = b.parse().map_err(|_| bad())?;
            if start >= end {
                return Err(bad());
            }
            Ok(CrashWindow {
                start: Time::from_ns(start),
                end: Time::from_ns(end),
                node,
            })
        })
        .collect()
}

fn fault_config_from(
    flags: &BTreeMap<String, String>,
    cfg: &mut MachineConfig,
) -> Result<(), CliError> {
    if let Some(v) = flags.get("fault-drop") {
        cfg.fault.drop_p = parse_prob("fault-drop", v)?;
    }
    if let Some(v) = flags.get("fault-dup") {
        cfg.fault.dup_p = parse_prob("fault-dup", v)?;
    }
    if let Some(v) = flags.get("fault-corrupt") {
        cfg.fault.corrupt_p = parse_prob("fault-corrupt", v)?;
    }
    if let Some(v) = flags.get("fault-jitter") {
        cfg.fault.jitter_max = parse_dur("fault-jitter", v, "ns", 0)?;
    }
    if let Some(v) = flags.get("fault-down") {
        cfg.fault.down = parse_down(v)?;
    }
    if let Some(v) = flags.get("crash") {
        cfg.fault.crash = parse_crash(v)?;
    }
    let down = cfg
        .fault
        .down
        .iter()
        .filter_map(|w| Some(("fault-down", w.node?)));
    let crash = cfg.fault.crash.iter().map(|w| ("crash", w.node));
    if let Some((flag, node)) = down.chain(crash).find(|(_, n)| n.0 >= cfg.nodes) {
        return Err(err(format!(
            "--{flag} node {} is out of range (machine has {} nodes)",
            node.0, cfg.nodes
        )));
    }
    if let Some(v) = flags.get("fault-seed") {
        cfg.fault.seed = v
            .parse()
            .map_err(|_| err(format!("bad --fault-seed {v:?}")))?;
    }
    // Injecting faults without a recovery layer wedges the run, so the
    // reliability layer follows the fault knobs unless overridden.
    cfg.reliability.enabled = cfg.fault.is_active();
    if let Some(v) = flags.get("rel-timeout") {
        cfg.reliability.enabled = true;
        cfg.reliability.ack_timeout = parse_dur("rel-timeout", v, "ns", 1)?;
    }
    if let Some(v) = flags.get("rel-retries") {
        cfg.reliability.enabled = true;
        cfg.reliability.max_retries = v
            .parse()
            .map_err(|_| err(format!("bad --rel-retries {v:?}")))?;
    }
    if let Some(v) = flags.get("reliable") {
        cfg.reliability.enabled = match v.as_str() {
            "on" | "yes" | "true" | "1" => true,
            "off" | "no" | "false" | "0" => false,
            other => return Err(err(format!("bad --reliable {other:?} (want on|off)"))),
        };
    }
    if let Some(v) = flags.get("watchdog-us") {
        cfg.watchdog_window = parse_dur("watchdog-us", v, "us", 1)?;
    }
    Ok(())
}

/// Parses a duration flag counted in `unit`s (`"ns"` or `"us"`): at
/// least `min` and at most the [`RUN_HORIZON`], so no timer the flag
/// sets can carry the clock past the range of `u64` nanoseconds.
fn parse_dur(name: &str, value: &str, unit: &str, min: u64) -> Result<Dur, CliError> {
    let scale = if unit == "us" { 1_000 } else { 1 };
    let max = RUN_HORIZON.as_ns() / scale;
    value
        .parse::<u64>()
        .ok()
        .filter(|n| (min..=max).contains(n))
        .map(|n| Dur::ns(n * scale))
        .ok_or_else(|| {
            err(format!(
                "bad --{name} {value:?} (want {min}..={max} {unit})"
            ))
        })
}

/// The machine configuration `flags` give `ni`. `fixed_nodes` is the
/// node count of a command whose machine size `--nodes` cannot change:
/// `rtt` and `bw` run on `run_pair`'s two nodes, so their fault windows
/// must name one of those two.
fn config_from(
    flags: &BTreeMap<String, String>,
    ni: NiKind,
    fixed_nodes: Option<u32>,
) -> Result<MachineConfig, CliError> {
    let mut cfg = MachineConfig::with_ni(ni);
    if let Some(b) = flags.get("buffers") {
        cfg.flow_buffers = parse_buffers(b)?;
    }
    if let Some(n) = flags.get("nodes") {
        let n: u32 = n
            .parse()
            .ok()
            .filter(|&n| n >= 2)
            .ok_or_else(|| err(format!("bad node count {n:?}")))?;
        cfg.nodes = n;
    }
    if let Some(n) = fixed_nodes {
        cfg.nodes = n;
    }
    if let Some(t) = flags.get("topology") {
        cfg.net.topology = parse_topology(t)?;
    }
    if let Some(s) = flags.get("seed") {
        cfg.seed = s.parse().map_err(|_| err(format!("bad seed {s:?}")))?;
    }
    if let Some(v) = flags.get("metrics") {
        cfg.metrics.enabled = match v.as_str() {
            "on" | "yes" | "true" | "1" => true,
            "off" | "no" | "false" | "0" => false,
            other => return Err(err(format!("bad --metrics {other:?} (want on|off)"))),
        };
    }
    if flags.contains_key("trace") {
        cfg.metrics = MetricsConfig::traced();
    }
    fault_config_from(flags, &mut cfg)?;
    Ok(cfg)
}

fn required<'a>(flags: &'a BTreeMap<String, String>, name: &str) -> Result<&'a String, CliError> {
    flags
        .get(name)
        .ok_or_else(|| err(format!("--{name} is required")))
}

/// Extracts the periodic-checkpoint request, insisting the two flags
/// arrive together (a path with no cadence — or vice versa — is a typo).
fn checkpoint_plan(flags: &BTreeMap<String, String>) -> Result<Option<(String, u64)>, CliError> {
    match (flags.get("checkpoint"), flags.get("checkpoint-every")) {
        (None, None) => Ok(None),
        (Some(_), None) => Err(err("--checkpoint needs --checkpoint-every <events>")),
        (None, Some(_)) => Err(err("--checkpoint-every needs --checkpoint <path>")),
        (Some(path), Some(v)) => {
            let every = v.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                err(format!(
                    "bad --checkpoint-every {v:?} (want a positive event count)"
                ))
            })?;
            Ok(Some((path.clone(), every)))
        }
    }
}

/// Runs `app` driving the machine/scheduler pair explicitly: optionally
/// restored from a snapshot, optionally writing a refreshed checkpoint
/// every `every` fired events. Returns the report plus the number of
/// checkpoints written.
///
/// Healthy runs report exactly what
/// [`run_app`](nisim_workloads::apps::run_app) would: slicing only
/// pauses the event loop, and the watchdog never fires on a run that is
/// making progress. Unlike `run_app`, a run that ends undrained is
/// reported, not a panic: the caller prints its status.
fn run_app_driven(
    app: MacroApp,
    cfg: &MachineConfig,
    resume: Option<&str>,
    ckpt: Option<&(String, u64)>,
) -> Result<(MachineReport, u64), CliError> {
    let params = app.default_params();
    let mk = || factory(app, cfg.nodes, cfg.seed, params);
    let (mut machine, mut sim) = match resume {
        Some(path) => {
            let snap = load_from_file(std::path::Path::new(path))
                .map_err(|e| err(format!("--resume {path}: {e}")))?;
            restore(cfg.clone(), mk(), &snap).map_err(|e| err(format!("--resume {path}: {e}")))?
        }
        None => {
            let mut m = Machine::new(cfg.clone(), mk());
            let mut sim = MachineSim::new();
            m.start(&mut sim);
            (m, sim)
        }
    };
    let mut written = 0u64;
    // Sliced runs stop at the bounds `Machine::run` applies, so they
    // report the same outcome as uninterrupted ones.
    let status = loop {
        let slice = match ckpt {
            Some(&(_, every)) => every,
            None => RUN_MAX_EVENTS,
        };
        let status = machine.run_slice(&mut sim, RUN_HORIZON, slice);
        if status != SimStatus::EventBudgetExhausted || sim.events_fired() >= RUN_MAX_EVENTS {
            break status;
        }
        let Some((path, _)) = ckpt else { break status };
        save_to_file(&machine, &mut sim, std::path::Path::new(path))
            .map_err(|e| err(format!("--checkpoint {path}: {e}")))?;
        written += 1;
    };
    Ok((machine.report(&sim, status), written))
}

/// What `run` and `traffic` print about a run that did not drain: the
/// stall dump, or a status line for a run a safety bound ended.
fn undrained_lines(r: &MachineReport) -> String {
    let why = match r.status {
        SimStatus::HorizonReached => "horizon reached",
        SimStatus::EventBudgetExhausted => "event budget exhausted",
        SimStatus::Drained | SimStatus::Stalled => {
            return r
                .stall
                .as_ref()
                .map(ToString::to_string)
                .unwrap_or_default();
        }
    };
    format!("  status         {why}: the run ended undrained\n")
}

/// The flags `exp` takes; the rest belong to the simulation subcommands.
const EXP_FLAGS: [&str; 3] = ["jobs", "json", SWITCH];

/// Runs the [`EXPERIMENTS`] row `name`: its text, then the `--json`
/// document, then (golden rows) the check or rewrite of its golden.
/// Flags the row cannot honour are rejected before anything runs.
fn run_exp(name: &str, flags: &BTreeMap<String, String>) -> Result<String, CliError> {
    let exp = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        err(format!(
            "unknown experiment {name:?} (one of: {})",
            names.join(", ")
        ))
    })?;
    if let Some(flag) = flags
        .keys()
        .filter(|f| !EXP_FLAGS.contains(&f.as_str()))
        .min()
    {
        return Err(err(format!("--{flag} does not apply to exp")));
    }
    let json = flags.get("json");
    if json.is_some() && matches!(exp.runner, Runner::Text(_)) {
        return Err(err(format!("--json: {name} prints text only")));
    }
    let update = flags.contains_key(SWITCH);
    if update && !matches!(exp.runner, Runner::Golden { .. }) {
        return Err(err(format!("--update-goldens: {name} has no golden")));
    }
    let jobs = jobs_from(flags)?;
    let mut out = String::new();
    match exp.runner {
        Runner::Text(run) => run(&mut out),
        Runner::Records(run) => {
            let sections = run(jobs, &mut out);
            if let Some(path) = json {
                write_file(path, &record::sections_document(&sections).to_pretty())?;
                let n: usize = sections.iter().map(|(_, records)| records.len()).sum();
                out.push_str(&format!("wrote {n} records to {path}\n"));
            }
        }
        Runner::Golden { path, label, run } => {
            let text = match run(jobs, &mut out) {
                Ok(text) => text,
                Err(msg) => return Err(CliError::Failed { output: out, msg }),
            };
            if let Some(path) = json {
                write_file(path, &text)?;
                out.push_str(&format!("wrote {path}\n"));
            }
            return check_golden(&path(), label, &text, update, out);
        }
    }
    Ok(out)
}

/// Finishes a golden row's `out`: rewrites the committed golden at
/// `path` with `text` under `--update-goldens`, otherwise byte-compares
/// the two, failing on drift. `label` names the golden.
fn check_golden(
    path: &Path,
    label: &str,
    text: &str,
    update: bool,
    mut out: String,
) -> Result<String, CliError> {
    if update {
        write_file(path, text)?;
        out.push_str(&format!("updated {}\n", path.display()));
        return Ok(out);
    }
    let committed = std::fs::read_to_string(path).map_err(|e| {
        err(format!(
            "cannot read {} ({e}); run with --update-goldens to create it",
            path.display()
        ))
    })?;
    if committed != text {
        return Err(CliError::Failed {
            output: out,
            msg: format!(
                "{label} DRIFTED from {} — inspect the diff and rerun\n\
                 with --update-goldens if the change is intended",
                path.display()
            ),
        });
    }
    out.push_str(&format!("{label} matches {}\n", path.display()));
    Ok(out)
}

/// The largest `--payload`: every NI completes `rtt` and `bw` at 1 MiB
/// well inside the run horizon.
const MAX_PAYLOAD: u64 = 1 << 20;

fn payload_from(flags: &BTreeMap<String, String>) -> Result<u64, CliError> {
    match flags.get("payload") {
        None => Ok(64),
        Some(p) => p.parse().ok().filter(|&n| n <= MAX_PAYLOAD).ok_or_else(|| {
            err(format!(
                "bad --payload {p:?} (want 0..={MAX_PAYLOAD} bytes)"
            ))
        }),
    }
}

/// Runs the CLI against `args` (without the program name) and returns the
/// output text.
///
/// # Errors
///
/// Returns [`CliError`] on unknown subcommands, flags or values.
pub fn main_with_args(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(err("missing subcommand"));
    };
    if cmd == "exp" {
        // The experiment name comes before the flags.
        let Some((name, rest)) = rest.split_first() else {
            return Err(err("exp needs an experiment name (see `nisim list`)"));
        };
        return run_exp(name, &parse_flags(rest)?);
    }
    let flags = parse_flags(rest)?;
    match cmd.as_str() {
        "list" => Ok(format!("{}\n", usage())),
        "rtt" | "bw" => {
            let ni = ni_from(&flags)?;
            let payload = payload_from(&flags)?;
            let cfg = config_from(&flags, ni, Some(2))?.for_microbenchmark();
            // A run that cannot drain prints its stall dump and fails.
            let undrained = |e: Undrained| CliError::Failed {
                output: e
                    .stall
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_default(),
                msg: format!("{cmd}: {e}"),
            };
            let line = if cmd == "rtt" {
                let (r, _) = measure_round_trip(&cfg, payload).map_err(undrained)?;
                format!(
                    "round trip = {:.2} us (min {:.2}, max {:.2})",
                    r.mean_us, r.min_us, r.max_us
                )
            } else {
                let (r, _) = measure_bandwidth(&cfg, payload).map_err(undrained)?;
                format!("stream = {:.0} MB/s", r.mb_per_s)
            };
            Ok(format!("{}: {payload} B {line}\n", ni.name()))
        }
        "run" => {
            let ni = ni_from(&flags)?;
            let app = parse_app(required(&flags, "app")?)?;
            let cfg = config_from(&flags, ni, None)?;
            let ckpt = checkpoint_plan(&flags)?;
            let resume = flags.get("resume");
            let (r, written) =
                run_app_driven(app, &cfg, resume.map(String::as_str), ckpt.as_ref())?;
            let mut out = format!(
                "{app} on {} ({} nodes, buffers {}):\n\
                 \x20 elapsed        {} us\n\
                 \x20 events         {}\n\
                 \x20 compute        {:.1}%\n\
                 \x20 data transfer  {:.1}%\n\
                 \x20 buffering      {:.1}%\n\
                 \x20 idle           {:.1}%\n\
                 \x20 messages       {} ({} fragments, {} retries)\n\
                 \x20 bus            {} txns, {:.0}% block, {:.1}% utilised\n",
                ni.name(),
                cfg.nodes,
                cfg.flow_buffers,
                r.elapsed.as_ns() / 1_000,
                r.events,
                100.0 * r.fraction(TimeCategory::Compute),
                100.0 * r.fraction(TimeCategory::DataTransfer),
                100.0 * r.fraction(TimeCategory::Buffering),
                100.0 * r.fraction(TimeCategory::Idle),
                r.app_messages,
                r.fragments_sent,
                r.retries,
                r.bus_transactions,
                100.0 * r.block_transaction_share(),
                100.0 * r.bus_utilization(),
            );
            if cfg.fault.is_active() {
                out.push_str(&format!("  faults         {}\n", r.fault_stats));
            }
            if cfg.reliability.enabled {
                out.push_str(&format!("  reliability    {}\n", r.rel_stats));
            }
            if !r.violations.is_empty() {
                out.push_str(&format!(
                    "  violations     {} (first: {})\n",
                    r.violations.len(),
                    r.violations[0]
                ));
            }
            out.push_str(&undrained_lines(&r));
            if let Some(path) = resume {
                out.push_str(&format!("  resumed from {path}\n"));
            }
            if let Some((path, every)) = &ckpt {
                out.push_str(&format!(
                    "  wrote {written} checkpoints to {path} (every {every} events)\n"
                ));
            }
            if let Some(b) = &r.breakdown {
                out.push_str(&format!(
                    "  cycle breakdown ({} us accounted):\n",
                    b.cycles.total().as_ns() / 1_000
                ));
                for (c, ns) in b.cycles.iter() {
                    if ns > 0 {
                        out.push_str(&format!(
                            "    {:<20} {:>5.1}%\n",
                            c.key(),
                            100.0 * b.cycles.fraction(c)
                        ));
                    }
                }
            }
            if let Some(path) = flags.get("trace") {
                let sink = r
                    .trace
                    .as_ref()
                    .ok_or_else(|| err("--trace was set but the run produced no trace"))?;
                write_file(path, &sink.to_chrome_jsonl())?;
                out.push_str(&format!("  wrote {} trace spans to {path}\n", sink.len()));
            }
            if let Some(path) = flags.get("json") {
                write_records(path, "run", &[record_for(app, ni, &cfg, &r)])?;
                out.push_str(&format!("  wrote record to {path}\n"));
            }
            Ok(out)
        }
        "sweep" => {
            let app = parse_app(required(&flags, "app")?)?;
            let jobs = jobs_from(&flags)?;
            // Every design but the paper's §6 variants of Table 2 rows.
            let configs = NiKind::ALL
                .into_iter()
                .filter(|ni| ni.spec().class != NiClass::PaperVariant)
                .map(|ni| Ok((ni, config_from(&flags, ni, None)?)))
                .collect::<Result<Vec<_>, CliError>>()?;
            // Driven like `run`, so a run that cannot drain marks its row
            // instead of panicking.
            let reports = parallel_map(&configs, jobs, |(_, cfg)| {
                run_app_driven(app, cfg, None, None).map(|(r, _)| r)
            })
            .into_iter()
            .collect::<Result<Vec<_>, CliError>>()?;
            let mut out = format!("{app} across the design space:\n");
            for ((ni, _), r) in configs.iter().zip(&reports) {
                let undrained = if r.status == SimStatus::Drained {
                    String::new()
                } else {
                    format!("  undrained ({:?})", r.status)
                };
                out.push_str(&format!(
                    "  {:<24} {:>8} us  buffering {:>5.1}%{undrained}\n",
                    ni.name(),
                    r.elapsed.as_ns() / 1_000,
                    100.0 * r.fraction(TimeCategory::Buffering)
                ));
            }
            if let Some(path) = flags.get("json") {
                let records: Vec<RunRecord> = configs
                    .iter()
                    .zip(&reports)
                    .map(|((ni, cfg), r)| record_for(app, *ni, cfg, r))
                    .collect();
                write_records(path, "sweep", &records)?;
                out.push_str(&format!("  wrote records to {path}\n"));
            }
            Ok(out)
        }
        "traffic" => {
            let ni = ni_from(&flags)?;
            let kind = match flags.get("traffic") {
                None => TrafficKind::PoissonUniform,
                Some(k) => TrafficKind::from_key(k)
                    .ok_or_else(|| err(format!("bad --traffic {k:?} (see `nisim list`)")))?,
            };
            let level = match flags.get("load") {
                None => 4,
                Some(v) => v
                    .parse::<u32>()
                    .ok()
                    .filter(|&l| (1..=MAX_LOAD_LEVEL).contains(&l))
                    .ok_or_else(|| err(format!("bad --load {v:?} (want 1..={MAX_LOAD_LEVEL})")))?,
            };
            let cfg = config_from(&flags, ni, None)?;
            let spec = TrafficSpec { kind, level };
            let (work, params) = match flags.get("tenants") {
                None => (spec.key(), spec.params(cfg.nodes)),
                Some(v) => {
                    let n = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| (2..=16).contains(&n))
                        .ok_or_else(|| err(format!("bad --tenants {v:?} (want 2..=16)")))?;
                    (
                        format!("traffic:tenants{n}:{level}"),
                        multi_tenant_params(n, level),
                    )
                }
            };
            let r = run_traffic(&cfg, &params);
            let mut out = format!(
                "{work} on {} ({} nodes, buffers {}, base gap {} ns):\n\
                 \x20 elapsed        {} us\n\
                 \x20 events         {}\n\
                 \x20 messages       {} ({} fragments, {} retries)\n",
                ni.name(),
                cfg.nodes,
                cfg.flow_buffers,
                level_gap_ns(level),
                r.elapsed.as_ns() / 1_000,
                r.events,
                r.app_messages,
                r.fragments_sent,
                r.retries,
            );
            out.push_str("  tenant        offered  delivered    p50 us    p99 us   p999 us\n");
            for t in &r.tenants {
                let p = t.percentiles();
                out.push_str(&format!(
                    "  {:<12} {:>8} {:>10} {:>9.2} {:>9.2} {:>9.2}\n",
                    t.name,
                    t.offered,
                    t.delivered,
                    p.p50 / 1_000.0,
                    p.p99 / 1_000.0,
                    p.p999 / 1_000.0,
                ));
            }
            out.push_str(&undrained_lines(&r));
            if let Some(path) = flags.get("json") {
                let rec = RunRecord::from_report(
                    work,
                    ni.key().to_string(),
                    cfg.flow_buffers.to_string(),
                    String::new(),
                    record::fingerprint(&cfg),
                    &r,
                    vec![("offered_gap_ns".to_string(), level_gap_ns(level) as f64)],
                );
                write_records(path, "traffic", &[rec])?;
                out.push_str(&format!("  wrote record to {path}\n"));
            }
            Ok(out)
        }
        other => Err(err(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests make scratch directories for the files the CLI writes"
)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        main_with_args(&args)
    }

    /// The message of the usage error (exit 2) `args` must produce.
    fn usage_error(args: &[&str]) -> String {
        match run(args) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_all_ni_names() {
        // `list` names every design, in registry order, by its key.
        let list = run(&["list"]).unwrap();
        let (_, tail) = list.split_once("NIs:").unwrap();
        let (nis, _) = tail.split_once("apps:").unwrap();
        let listed: Vec<Option<NiKind>> = nis
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|name| !name.is_empty())
            .map(NiKind::from_key)
            .collect();
        assert_eq!(listed, NiKind::ALL.map(Some));
        let e = usage_error(&["rtt", "--ni", "cm6"]);
        assert!(e.contains("unknown NI \"cm6\""), "{e}");
    }

    #[test]
    fn parses_buffers_and_topology() {
        assert_eq!(parse_buffers("8").unwrap(), BufferCount::Finite(8));
        assert_eq!(parse_buffers("inf").unwrap(), BufferCount::Infinite);
        assert!(parse_buffers("0").is_err());
        assert!(parse_buffers("-1").is_err());
        assert_eq!(parse_topology("mesh").unwrap(), Topology::Mesh2D);
        assert!(parse_topology("torus").is_err());
    }

    #[test]
    fn rtt_command_reports_microseconds() {
        let out = run(&["rtt", "--ni", "cni32qm", "--payload", "8"]).unwrap();
        assert!(out.contains("8 B round trip"), "{out}");
        assert!(out.contains("us"));
    }

    #[test]
    fn run_command_reports_decomposition() {
        let out = run(&[
            "run",
            "--app",
            "appbt",
            "--ni",
            "ap3000",
            "--nodes",
            "4",
            "--buffers",
            "2",
        ])
        .unwrap();
        assert!(out.contains("appbt on AP3000-like NI"), "{out}");
        assert!(out.contains("data transfer"));
        assert!(out.contains("4 nodes, buffers 2"));
        assert!(out.contains("events"), "{out}");
    }

    #[test]
    fn missing_flags_are_reported() {
        assert!(usage_error(&["rtt"]).contains("--ni is required"));
        assert!(usage_error(&["nope"]).contains("unknown subcommand"));
        assert!(usage_error(&["rtt", "--ni"]).contains("needs a value"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn bad_values_are_reported() {
        assert!(run(&["run", "--app", "em3d", "--ni", "cm5", "--nodes", "1"]).is_err());
        assert!(run(&["rtt", "--ni", "cm5", "--payload", "many"]).is_err());
        assert!(run(&["run", "--app", "quake", "--ni", "cm5"]).is_err());
        // Values that would carry the clock past u64 nanoseconds.
        const MAX: &str = "18446744073709551615";
        let em3d = ["run", "--app", "em3d", "--ni", "cm5", "--nodes", "4"];
        for flag in ["--fault-jitter", "--rel-timeout", "--watchdog-us"] {
            let e = usage_error(&[&em3d[..], &[flag, MAX]].concat());
            assert!(e.contains(flag), "{e}");
        }
        let e = usage_error(&["rtt", "--ni", "cm5", "--payload", MAX]);
        assert!(e.contains("--payload"), "{e}");
        let e = usage_error(&[&em3d[..], &["--fault-down", "0-10@99"]].concat());
        assert!(e.contains("--fault-down node 99 is out of range"), "{e}");
        // `rtt` and `bw` run two nodes whatever the configured count.
        for cmd in ["rtt", "bw"] {
            for (flag, window) in [("--crash", "0-10@5"), ("--fault-down", "0-10@9")] {
                for nodes in [&[][..], &["--nodes", "16"]] {
                    let args = [&[cmd, "--ni", "cm5", flag, window][..], nodes].concat();
                    let e = usage_error(&args);
                    assert!(e.contains("out of range (machine has 2 nodes)"), "{e}");
                }
            }
        }
        // Every fragment is lost, so neither microbenchmark can drain.
        for cmd in ["rtt", "bw"] {
            match run(&[cmd, "--ni", "cm5", "--fault-drop", "1"]) {
                Err(CliError::Failed { output, msg }) => {
                    assert!(output.starts_with("STALLED"), "{output}");
                    assert_eq!(msg, format!("{cmd}: the run ended undrained (Stalled)"));
                }
                other => panic!("{cmd} must fail undrained, got {other:?}"),
            }
        }
    }

    #[test]
    fn runs_that_cannot_drain_say_so() {
        // With a 10 s ack timeout a lost message is never resent before
        // the horizon: `run`, `sweep` and `traffic` say so.
        let lossy: Vec<&str> = "--app em3d --nodes 4 --fault-drop 0.01 --rel-timeout 10000000000"
            .split(' ')
            .collect();
        let out = run(&[&["run", "--ni", "cm5"][..], &lossy].concat()).unwrap();
        assert!(
            out.contains("horizon reached: the run ended undrained"),
            "{out}"
        );
        let out = run(&[&["sweep", "--jobs", "1"][..], &lossy].concat()).unwrap();
        assert!(out.contains("undrained (HorizonReached)"), "{out}");
        let out = run(&[&["traffic", "--ni", "cm5"][..], &lossy[2..]].concat()).unwrap();
        assert!(
            out.contains("horizon reached: the run ended undrained"),
            "{out}"
        );
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        for (args, flag) in [
            (
                &["run", "--app", "em3d", "--ni", "cm5", "--workers", "4"][..],
                "--workers",
            ),
            (
                &["rtt", "--ni", "cm5", "--fualt-drop", "0.5"][..],
                "--fualt-drop",
            ),
        ] {
            let e = usage_error(args);
            assert!(e.contains(&format!("unknown flag {flag}")), "{e}");
        }
    }

    #[test]
    fn every_documented_flag_is_accepted() {
        use std::collections::BTreeSet;
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|t| t.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .collect();
        for name in &documented {
            let mut args = vec![format!("--{name}")];
            if *name != SWITCH {
                args.push("x".to_string());
            }
            assert!(parse_flags(&args).is_ok(), "--{name} is documented");
        }
        assert_eq!(
            documented,
            FLAGS.into_iter().collect(),
            "FLAGS and USAGE list the same flags"
        );
    }

    #[test]
    fn parses_fault_probabilities_and_windows() {
        assert_eq!(parse_prob("fault-drop", "0.05").unwrap(), 0.05);
        assert!(parse_prob("fault-drop", "1.5").is_err());
        assert!(parse_prob("fault-drop", "-0.1").is_err());
        assert!(parse_prob("fault-drop", "lots").is_err());

        let down = parse_down("10000-20000,50000-60000@3").unwrap();
        assert_eq!(down.len(), 2);
        assert_eq!(
            down[0],
            DownWindow::fabric(Time::from_ns(10_000), Time::from_ns(20_000))
        );
        assert_eq!(down[1].node, Some(NodeId(3)));
        assert!(parse_down("20000-10000").is_err(), "inverted window");
        assert!(parse_down("nonsense").is_err());
    }

    #[test]
    fn fault_flags_configure_the_machine() {
        let flags = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<BTreeMap<_, _>>()
        };
        let cfg = config_from(
            &flags(&[
                ("fault-drop", "0.05"),
                ("fault-jitter", "30"),
                ("fault-seed", "9"),
                ("rel-retries", "4"),
                ("watchdog-us", "500"),
            ]),
            NiKind::Cm5,
            None,
        )
        .unwrap();
        assert_eq!(cfg.fault.drop_p, 0.05);
        assert_eq!(cfg.fault.jitter_max, Dur::ns(30));
        assert_eq!(cfg.fault.seed, 9);
        assert!(cfg.reliability.enabled, "faults imply reliability");
        assert_eq!(cfg.reliability.max_retries, 4);
        assert_eq!(cfg.watchdog_window, Dur::us(500));

        // Faults with reliability explicitly off (to watch the stall).
        let cfg = config_from(
            &flags(&[("fault-drop", "0.05"), ("reliable", "off")]),
            NiKind::Cm5,
            None,
        )
        .unwrap();
        assert!(cfg.fault.is_active());
        assert!(!cfg.reliability.enabled);

        // Reliability alone, no faults.
        let cfg = config_from(&flags(&[("rel-timeout", "8000")]), NiKind::Cm5, None).unwrap();
        assert!(!cfg.fault.is_active());
        assert!(cfg.reliability.enabled);
        assert_eq!(cfg.reliability.ack_timeout, Dur::ns(8000));

        assert!(config_from(&flags(&[("fault-dup", "2")]), NiKind::Cm5, None).is_err());
        assert!(config_from(&flags(&[("reliable", "maybe")]), NiKind::Cm5, None).is_err());
    }

    #[test]
    fn run_and_sweep_emit_json_records() {
        let dir = std::env::temp_dir().join("nisim-cli-json-test");
        std::fs::create_dir_all(&dir).unwrap();

        let path = dir.join("run.json");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "run", "--app", "em3d", "--ni", "cm5", "--nodes", "4", "--json", path_str,
        ])
        .unwrap();
        assert!(out.contains("wrote record"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let sections = nisim_bench::record::parse_document(&text).unwrap();
        assert_eq!(sections[0].0, "run");
        assert_eq!(sections[0].1.len(), 1);
        assert_eq!(sections[0].1[0].work, "em3d");
        assert_eq!(sections[0].1[0].ni, "cm5");
        assert_eq!(sections[0].1[0].status, "drained");

        // The sweep's JSON is byte-identical no matter the worker count.
        let (p1, p8) = (dir.join("sweep1.json"), dir.join("sweep8.json"));
        for (p, jobs) in [(&p1, "1"), (&p8, "8")] {
            run(&[
                "sweep",
                "--app",
                "em3d",
                "--nodes",
                "4",
                "--jobs",
                jobs,
                "--json",
                p.to_str().unwrap(),
            ])
            .unwrap();
        }
        let (a, b) = (
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p8).unwrap(),
        );
        assert!(
            !a.is_empty() && a == b,
            "sweep JSON must not depend on --jobs"
        );
        assert!(run(&["sweep", "--app", "em3d", "--jobs", "0"]).is_err());
    }

    #[test]
    fn list_names_every_experiment_and_cheap_rows_run() {
        let list = run(&["list"]).unwrap();
        let (_, rows) = list.split_once(EXP_HEADING).unwrap();
        let listed: Vec<&str> = rows
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(listed, names);
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), EXPERIMENTS.len(), "experiment names repeat");

        for (name, headline) in [
            ("table1", "Table 1: switch/router buffering"),
            ("table2", "Table 2: data transfer and buffering parameters"),
            ("table3", "Table 3: system parameters"),
            ("logp", "LogP-style characterisation at 64-byte payloads"),
            ("modern", "Connection-count sweep: message latency"),
        ] {
            let out = run(&["exp", name, "--jobs", "2"]).unwrap();
            assert!(out.starts_with(headline), "{name}: {out}");
        }
    }

    #[test]
    fn exp_rejects_what_a_row_cannot_honour() {
        let msg = usage_error(&["exp", "table9"]);
        assert!(msg.contains("unknown experiment \"table9\""), "{msg}");
        assert!(EXPERIMENTS.iter().all(|e| msg.contains(e.name)), "{msg}");
        assert!(usage_error(&["exp"]).contains("experiment name"));
        for (args, needle) in [
            (
                &["exp", "table1", "--frobnicate", "x"][..],
                "unknown flag --frobnicate",
            ),
            (
                &["exp", "table1", "--ni", "cm5"][..],
                "--ni does not apply to exp",
            ),
            (&["exp", "table1", "--json", "x.json"][..], "--json: table1"),
            (
                &["exp", "fig3a", "--update-goldens"][..],
                "--update-goldens: fig3a",
            ),
            (&["exp", "logp", "--jobs"][..], "--jobs needs a value"),
            (&["exp", "logp", "--jobs", "0"][..], "bad --jobs \"0\""),
        ] {
            let msg = usage_error(args);
            assert!(msg.contains(needle), "{args:?}: {msg}");
        }
    }

    #[test]
    fn exp_json_holds_every_section_of_the_row() {
        let dir = std::env::temp_dir().join("nisim-cli-exp-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("modern.json");
        let out = run(&["exp", "modern", "--json", path.to_str().unwrap()]).unwrap();
        assert!(
            out.ends_with(&format!("wrote 16 records to {}\n", path.display())),
            "{out}"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let sections = nisim_bench::record::parse_document(&text).unwrap();
        let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["connsweep", "rdma-kink", "strided"]);
        let counts: Vec<usize> = sections.iter().map(|(_, r)| r.len()).collect();
        assert_eq!(counts, [10, 4, 2]);
    }

    #[test]
    fn exp_output_write_failures_are_errors_not_panics() {
        let missing = std::env::temp_dir().join("nisim-cli-no-such-dir/x.json");
        let missing = missing.to_str().unwrap();
        for name in ["logp", "breakdown"] {
            match run(&["exp", name, "--json", missing]) {
                Err(CliError::Usage(msg)) => assert!(msg.contains(missing), "{msg}"),
                other => panic!("{name}: expected a write error, got {other:?}"),
            }
        }
    }

    #[test]
    fn metrics_flags_configure_the_machine() {
        let flags = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<BTreeMap<_, _>>()
        };
        let cfg = config_from(&flags(&[]), NiKind::Cm5, None).unwrap();
        assert!(!cfg.metrics.any(), "metrics default off");
        let cfg = config_from(&flags(&[("metrics", "on")]), NiKind::Cm5, None).unwrap();
        assert!(cfg.metrics.enabled && !cfg.metrics.trace);
        let cfg = config_from(&flags(&[("trace", "/tmp/t.jsonl")]), NiKind::Cm5, None).unwrap();
        assert!(
            cfg.metrics.enabled && cfg.metrics.trace,
            "trace implies metrics"
        );
        assert!(config_from(&flags(&[("metrics", "maybe")]), NiKind::Cm5, None).is_err());
    }

    #[test]
    fn run_command_reports_cycle_breakdown_only_when_asked() {
        let base = ["run", "--app", "em3d", "--ni", "cm5", "--nodes", "4"];
        let off = run(&base).unwrap();
        assert!(!off.contains("cycle breakdown"), "{off}");

        let mut on_args = base.to_vec();
        on_args.extend(["--metrics", "on"]);
        let on = run(&on_args).unwrap();
        assert!(on.contains("cycle breakdown"), "{on}");
        assert!(on.contains("proc_send"), "{on}");
        // Observation only: the simulated numbers are identical.
        let elapsed = |s: &str| {
            s.lines()
                .find(|l| l.contains("elapsed"))
                .map(str::to_string)
                .unwrap()
        };
        assert_eq!(elapsed(&off), elapsed(&on));
    }

    #[test]
    fn trace_flag_writes_chrome_jsonl() {
        let dir = std::env::temp_dir().join("nisim-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "run", "--app", "em3d", "--ni", "cm5", "--nodes", "4", "--trace", path_str,
        ])
        .unwrap();
        assert!(out.contains("trace spans"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.lines().next().expect("trace must be non-empty");
        let ev = nisim_engine::json::parse(first).unwrap();
        assert!(ev.get("ph").is_some() && ev.get("ts").is_some(), "{first}");
    }

    #[test]
    fn crash_flag_configures_node_crash_windows() {
        let flags = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<BTreeMap<_, _>>()
        };
        let cfg = config_from(
            &flags(&[("nodes", "4"), ("crash", "0-4000@1")]),
            NiKind::Cm5,
            None,
        )
        .unwrap();
        assert_eq!(cfg.fault.crash.len(), 1);
        assert_eq!(cfg.fault.crash[0].node, NodeId(1));
        assert_eq!(cfg.fault.crash[0].start, Time::ZERO);
        assert_eq!(cfg.fault.crash[0].end, Time::from_ns(4000));
        assert!(cfg.reliability.enabled, "a crash implies reliability");

        assert!(parse_crash("4000-0@1").is_err(), "inverted window");
        assert!(parse_crash("0-4000").is_err(), "node is mandatory");
        assert!(parse_crash("nonsense").is_err());
        let out_of_range = config_from(
            &flags(&[("nodes", "4"), ("crash", "0-4000@9")]),
            NiKind::Cm5,
            None,
        );
        assert!(out_of_range
            .unwrap_err()
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn run_command_recovers_from_a_node_crash() {
        let out = run(&[
            "run", "--app", "em3d", "--ni", "cm5", "--nodes", "4", "--crash", "0-4000@1",
        ])
        .unwrap();
        assert!(out.contains("faults"), "{out}");
        assert!(out.contains("reliability"), "{out}");
        assert!(!out.contains("STALLED"), "{out}");
    }

    #[test]
    fn run_reports_a_run_that_ends_undrained() {
        // The crash window opens after the 10 s horizon, so its event is
        // still pending when the run stops.
        let args = [
            "run",
            "--app",
            "em3d",
            "--ni",
            "cm5",
            "--nodes",
            "4",
            "--crash",
            "20000000000-20000001000@1",
            "--reliable",
            "on",
        ];
        let out = run(&args).unwrap();
        assert!(out.contains("elapsed        10000000 us"), "{out}");
        assert!(
            out.contains("status         horizon reached: the run ended undrained"),
            "{out}"
        );
        let drained = run(&["run", "--app", "em3d", "--ni", "cm5", "--nodes", "4"]).unwrap();
        assert!(!drained.contains("status"), "{drained}");
    }

    #[test]
    fn checkpoint_flags_must_be_paired_and_positive() {
        let base = ["run", "--app", "em3d", "--ni", "cm5", "--nodes", "4"];
        let with = |extra: &[&str]| {
            let mut v = base.to_vec();
            v.extend_from_slice(extra);
            run(&v)
        };
        assert!(with(&["--checkpoint", "/tmp/ck.json"])
            .unwrap_err()
            .to_string()
            .contains("--checkpoint-every"));
        assert!(with(&["--checkpoint-every", "100"])
            .unwrap_err()
            .to_string()
            .contains("--checkpoint"));
        assert!(with(&["--checkpoint", "/tmp/ck.json", "--checkpoint-every", "0"]).is_err());
        assert!(with(&["--checkpoint", "/tmp/ck.json", "--checkpoint-every", "lots"]).is_err());
    }

    #[test]
    fn checkpoint_and_resume_reproduce_the_uninterrupted_run() {
        let dir = std::env::temp_dir().join("nisim-cli-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        let ck_str = ck.to_str().unwrap();

        // Both snapshotable skeletons: em3d keeps no state of its own,
        // spsolve its operand counts.
        for app in ["em3d", "spsolve"] {
            let base = ["run", "--app", app, "--ni", "cm5", "--nodes", "4"];
            let golden = run(&base).unwrap();

            let mut ckpt_args = base.to_vec();
            ckpt_args.extend(["--checkpoint", ck_str, "--checkpoint-every", "200"]);
            let ckpt_out = run(&ckpt_args).unwrap();
            assert!(ckpt_out.contains("checkpoints to"), "{ckpt_out}");
            assert!(
                !ckpt_out.contains("wrote 0 checkpoints"),
                "the run must be long enough to checkpoint: {ckpt_out}"
            );

            // Slicing the run for checkpoints must not perturb it.
            let line = |s: &str, key: &str| {
                s.lines()
                    .find(|l| l.trim_start().starts_with(key))
                    .map(str::to_string)
                    .unwrap_or_else(|| panic!("no {key} line in {s}"))
            };
            for key in ["elapsed", "events", "messages", "bus"] {
                assert_eq!(line(&golden, key), line(&ckpt_out, key));
            }

            // Resuming from the last mid-run checkpoint finishes the same run.
            let mut resume_args = base.to_vec();
            resume_args.extend(["--resume", ck_str]);
            let resumed = run(&resume_args).unwrap();
            assert!(resumed.contains("resumed from"), "{resumed}");
            for key in ["elapsed", "events", "messages", "bus"] {
                assert_eq!(line(&golden, key), line(&resumed, key));
            }

            // The same snapshot against a different config is rejected.
            let mut wrong = resume_args.clone();
            wrong.extend(["--buffers", "2"]);
            let e = usage_error(&wrong);
            assert!(e.contains("config"), "{e}");
        }

        // Apps whose skeleton cannot snapshot fail with a typed error.
        let barnes = [
            "run",
            "--app",
            "barnes",
            "--ni",
            "cm5",
            "--nodes",
            "4",
            "--checkpoint",
            ck_str,
            "--checkpoint-every",
            "10",
        ];
        let e = usage_error(&barnes);
        assert!(e.contains("workload"), "{e}");
    }

    #[test]
    fn resume_rejects_unbounded_nesting() {
        let dir = std::env::temp_dir().join("nisim-cli-deep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deep.json");
        write_file(&path, &("[".repeat(200_000) + &"]".repeat(200_000))).unwrap();
        let run = ["run", "--app", "em3d", "--ni", "cm5", "--nodes", "4"];
        let e = usage_error(&[&run[..], &["--resume", path.to_str().unwrap()]].concat());
        assert!(e.contains("nesting"), "{e}");
    }

    #[test]
    fn run_command_reports_fault_recovery() {
        let out = run(&[
            "run",
            "--app",
            "em3d",
            "--ni",
            "cm5",
            "--nodes",
            "4",
            "--fault-drop",
            "0.02",
        ])
        .unwrap();
        assert!(out.contains("faults         offered"), "{out}");
        assert!(out.contains("reliability    "), "{out}");
        assert!(!out.contains("STALLED"), "{out}");
    }

    #[test]
    fn traffic_command_reports_per_tenant_percentiles() {
        let out = run(&["traffic", "--ni", "cni32qm", "--nodes", "4", "--load", "3"]).unwrap();
        assert!(out.contains("traffic:pois-uni:3 on"), "{out}");
        assert!(out.contains("p99 us"), "{out}");
        assert!(out.contains("uni "), "tenant row expected: {out}");
        assert!(!out.contains("STALLED"), "{out}");
    }

    #[test]
    fn traffic_tenants_flag_reports_every_competing_service() {
        let out = run(&[
            "traffic",
            "--ni",
            "cni32qm",
            "--nodes",
            "4",
            "--load",
            "2",
            "--tenants",
            "3",
        ])
        .unwrap();
        assert!(out.contains("traffic:tenants3:2 on"), "{out}");
        for name in ["t0 ", "t1 ", "t2 "] {
            assert!(
                out.contains(&format!("  {name}")),
                "missing {name} row: {out}"
            );
        }
    }

    #[test]
    fn traffic_flags_are_validated() {
        assert!(usage_error(&["traffic"]).contains("--ni is required"));
        assert!(
            usage_error(&["traffic", "--ni", "cm5", "--traffic", "ddos"]).contains("bad --traffic")
        );
        assert!(usage_error(&["traffic", "--ni", "cm5", "--load", "0"]).contains("bad --load"));
        assert!(run(&["traffic", "--ni", "cm5", "--load", "9"]).is_err());
        assert!(
            usage_error(&["traffic", "--ni", "cm5", "--tenants", "1"]).contains("bad --tenants")
        );
    }

    #[test]
    fn traffic_json_records_every_tenant() {
        let dir = std::env::temp_dir().join("nisim-cli-traffic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        run(&[
            "traffic",
            "--ni",
            "cni32qm",
            "--nodes",
            "4",
            "--load",
            "3",
            "--traffic",
            "mix",
            "--json",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let a = std::fs::read_to_string(&path).unwrap();
        let sections = nisim_bench::record::parse_document(&a).unwrap();
        assert_eq!(sections[0].0, "traffic");
        let rec = &sections[0].1[0];
        assert_eq!(rec.work, "traffic:mix:3");
        assert_eq!(rec.tenants.len(), 2, "mix runs two tenants");
        assert!(rec.tenant("web").is_some() && rec.tenant("bulk").is_some());
    }
}
