//! Per-layer metrics for the traced run.
//!
//! Three sources, all timed from outside the simulator crates:
//!
//! * the traced reps' spans (machine build/run/report, snapshots, the
//!   sweep harness) and their records' counters;
//! * fixed probes, for span metrics a workload does not produce itself:
//!   paper-grid and traffic-ladder build their machines inside
//!   `run_point`, and only chaos-resume takes snapshots. The machine
//!   probe repeats one em3d-long cm5 run; the snapshot probe cuts and
//!   resumes the first chaos point;
//! * microbenchmarks of single public functions of each crate.
//!
//! Every host time is calibrated like the end-to-end metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use nisim_bench::loadlat::LOADLAT_NIS;
use nisim_bench::record::{fingerprint, parse_document, RunRecord};
use nisim_bench::{chaos, golden_path};
use nisim_core::ni::DepositLoc;
use nisim_core::snapshot::save;
use nisim_core::{MachineConfig, MachineReport, NiKind, NiUnit, NodeHw};
use nisim_engine::json::{self, Json};
use nisim_engine::metrics::Log2Hist;
use nisim_engine::{Dur, Event, Sim, SplitMix64, Time};
use nisim_mem::{Addr, Bus, BusConfig, BusOp, Cache, CacheConfig, MoesiState};
use nisim_net::{
    fragment_payload, BufferCount, FaultConfig, FaultPlan, FlowControlEndpoint, NetConfig, NodeId,
    ReceiverDedup, ReliabilityConfig, SeqNo,
};
use nisim_workloads::apps::{factory, MacroApp};
use nisim_workloads::traffic::{arrival_schedule, TrafficKind, TrafficSpec};

use crate::alloc;
use crate::calib::{self, CALIB_REF_MOPS};
use crate::stats::{median, percentile};
use crate::trace::{self, Ctx, Recorder, Span};
use crate::workloads::{self, JOBS};

/// A per-layer metric: name, unit, and which direction is better
/// (`"lower"` or `"higher"`).
pub type Spec = (String, &'static str, &'static str);

/// Every per-layer metric, in report order.
pub fn specs() -> Vec<Spec> {
    const LOWER: &str = "lower";
    const HIGHER: &str = "higher";
    let fixed = |rows: &[(&str, &'static str, &'static str)]| -> Vec<Spec> {
        rows.iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect()
    };
    let mut out = fixed(&[
        ("engine.sim.event_ns", "ns", LOWER),
        ("engine.sim.burst_event_ns", "ns", LOWER),
        ("engine.wheel.far_event_ns", "ns", LOWER),
        ("engine.metrics.hist_record_ns", "ns", LOWER),
        ("engine.json.encode_ns_per_kb", "ns/KiB", LOWER),
        ("engine.json.parse_ns_per_kb", "ns/KiB", LOWER),
        ("engine.json.parse_allocs_per_kb", "count/KiB", LOWER),
        ("mem.bus.acquire_ns", "ns", LOWER),
        ("mem.cache.access_ns", "ns", LOWER),
        ("net.fragment_ns", "ns", LOWER),
        ("net.flow.cycle_ns", "ns", LOWER),
        ("net.rel.accept_ns", "ns", LOWER),
        ("net.fault.deliveries_ns", "ns", LOWER),
        ("net.fault.allocs_per_msg", "count/msg", LOWER),
    ]);
    for ni in LOADLAT_NIS {
        out.push((format!("core.ni.{}.send_ns", ni.key()), "ns", LOWER));
        out.push((format!("core.ni.{}.deposit_ns", ni.key()), "ns", LOWER));
    }
    out.extend(fixed(&[
        ("core.machine.build_us", "us", LOWER),
        ("core.machine.event_ns", "ns", LOWER),
        ("core.machine.vs_wheel", "ratio", HIGHER),
        ("core.machine.allocs_per_event", "count/event", LOWER),
        ("core.machine.report_us", "us", LOWER),
        ("core.snapshot.save_us", "us", LOWER),
        ("core.snapshot.restore_us", "us", LOWER),
        ("core.snapshot.bytes", "bytes", LOWER),
        ("workloads.traffic.arrival_ns", "ns", LOWER),
        ("workloads.apps.factory_us", "us", LOWER),
        ("bench.record.build_us", "us", LOWER),
        ("bench.record.parse_ms", "ms", LOWER),
        ("bench.harness.parallel_eff", "ratio", HIGHER),
        ("bench.harness.barrier_s", "s", LOWER),
        ("bench.harness.point_ms_p50", "ms", LOWER),
        ("bench.harness.point_ms_p90", "ms", LOWER),
        ("host.raw_wall_s", "s", LOWER),
        ("host.trace_overhead", "ratio", LOWER),
    ]));
    out
}

/// Printed beside the per-layer metrics but not among them, so with no
/// better direction: simulated counts, which the output checks pin to the
/// reference at the default seed, and the host's own speed.
pub const DIAGNOSTICS: [(&str, &str); 5] = [
    ("mem.bus.txns_per_event", "count/event"),
    ("net.flow.retries", "count"),
    ("net.rel.retransmits", "count"),
    ("host.calib_mops", "Mops"),
    ("host.calib_spread", "ratio"),
];

/// What the traced reps of one workload left behind.
pub struct Traced<'a> {
    /// Time zero of the run's spans.
    pub origin: Instant,
    /// Spans of the traced reps (rep ≥ 1) and the traced set-up (rep 0).
    pub spans: &'a [Span],
    /// Traced reps run.
    pub reps: usize,
    /// Host seconds × this = calibrated seconds, for the reps' spans.
    pub scale: f64,
    /// Return-to-sender retries in one rep's records.
    pub retries: u64,
    /// Reliability retransmits in one rep's records.
    pub retransmits: u64,
    /// Median calibration rate of the run.
    pub calib_mops: f64,
    /// Largest before/after calibration spread of any rep.
    pub calib_spread: f64,
    /// Median host seconds of the untraced reps.
    pub raw_wall_s: f64,
    /// Traced ÷ untraced median `wall_s`, minus 1.
    pub trace_overhead: f64,
}

/// Runs the probes and microbenchmarks and derives every per-layer
/// metric and diagnostic, keyed by name. Also returns the probes' spans.
/// `jobs` is the calibration's thread count.
pub fn measure(jobs: usize, traced: &Traced, seed: u64) -> (BTreeMap<String, f64>, Vec<Span>) {
    let before = calib::rate_mops(jobs);
    let mut rec = Recorder::new(Ctx {
        on: true,
        origin: traced.origin,
        workload: "layers",
        rep: 0,
    });
    let probe_report = machine_probe(seed, &mut rec);
    let (snap, text) = snapshot_probe(seed, &mut rec);
    let probe_spans = rec.into_spans();

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("engine.sim.event_ns", stream_ns(Stream::BusLink));
    put("engine.sim.burst_event_ns", stream_ns(Stream::Bursts));
    put("engine.wheel.far_event_ns", stream_ns(Stream::Far));
    put("engine.metrics.hist_record_ns", hist_record_ns());
    let kib = text.len() as f64 / 1024.0;
    put(
        "engine.json.encode_ns_per_kb",
        ns_per_op(1, || snap.to_compact().len() as u64) / kib,
    );
    put(
        "engine.json.parse_ns_per_kb",
        ns_per_op(1, || parsed_len(&text)) / kib,
    );
    let a0 = alloc::thread_calls();
    black_box(parsed_len(&text));
    put(
        "engine.json.parse_allocs_per_kb",
        (alloc::thread_calls() - a0) as f64 / kib,
    );
    put("mem.bus.acquire_ns", bus_acquire_ns());
    put("mem.cache.access_ns", cache_access_ns());
    put("net.fragment_ns", fragment_ns());
    put("net.flow.cycle_ns", flow_cycle_ns());
    put("net.rel.accept_ns", dedup_accept_ns());
    let (deliveries_ns, allocs_per_msg) = fault_deliveries();
    put("net.fault.deliveries_ns", deliveries_ns);
    put("net.fault.allocs_per_msg", allocs_per_msg);
    for ni in LOADLAT_NIS {
        let (send, deposit) = ni_paths(ni);
        put(&format!("core.ni.{}.send_ns", ni.key()), send);
        put(&format!("core.ni.{}.deposit_ns", ni.key()), deposit);
    }
    put("workloads.traffic.arrival_ns", arrival_ns(seed));
    put("workloads.apps.factory_us", factory_ns(seed) / 1e3);
    put(
        "bench.record.build_us",
        record_build_ns(&probe_report) / 1e3,
    );
    put("bench.record.parse_ms", record_parse_ns() / 1e6);
    let after = calib::rate_mops(jobs);
    // Calibrate every host time above; allocation counts stay as counted.
    let micro_scale = (before * after).sqrt() / CALIB_REF_MOPS;
    for (name, v) in m.iter_mut() {
        if !name.contains("allocs") {
            *v *= micro_scale;
        }
    }

    // Span metrics: the workload's own spans where it has them, else the
    // probes'.
    let own = |name: &str| traced.spans.iter().any(|s| s.name == name && s.rep > 0);
    let (machine, mscale) = if own("machine.run") {
        (traced.spans, traced.scale)
    } else {
        (&probe_spans[..], micro_scale)
    };
    let machine_self = self_by_id(machine);
    let runs = named(machine, "machine.run");
    let events: u64 = runs.iter().map(|s| s.count).sum::<u64>().max(1);
    let run_self: u64 = runs.iter().map(|s| machine_self[&s.id]).sum();
    let event_ns = run_self as f64 / events as f64 * mscale;
    m.insert("core.machine.event_ns".into(), event_ns);
    m.insert(
        "core.machine.vs_wheel".into(),
        m["engine.sim.event_ns"] / event_ns,
    );
    m.insert(
        "core.machine.allocs_per_event".into(),
        runs.iter().map(|s| s.allocs).sum::<u64>() as f64 / events as f64,
    );
    m.insert(
        "core.machine.build_us".into(),
        median_us(machine, "machine.build", mscale),
    );
    m.insert(
        "core.machine.report_us".into(),
        median_us(machine, "machine.report", mscale),
    );
    let txns: u64 = named(machine, "machine.report")
        .iter()
        .map(|s| s.count)
        .sum();
    m.insert("mem.bus.txns_per_event".into(), txns as f64 / events as f64);

    let (snaps, sscale) = if own("snapshot.save") {
        (traced.spans, traced.scale)
    } else {
        (&probe_spans[..], micro_scale)
    };
    m.insert(
        "core.snapshot.save_us".into(),
        median_us(snaps, "snapshot.save", sscale),
    );
    m.insert(
        "core.snapshot.restore_us".into(),
        median_us(snaps, "snapshot.restore", sscale),
    );
    let sizes: Vec<f64> = named(snaps, "json.encode")
        .iter()
        .map(|s| s.count as f64)
        .collect();
    m.insert("core.snapshot.bytes".into(), median(&sizes));

    // The sweep harness: sections and their parallel points.
    let sections = named(traced.spans, "section");
    let points = named(traced.spans, "point");
    let section_ns: u64 = sections.iter().map(|s| s.dur_ns()).sum();
    let point_ns: u64 = points.iter().map(|s| s.dur_ns()).sum();
    m.insert(
        "bench.harness.parallel_eff".into(),
        point_ns as f64 / (JOBS as f64 * section_ns.max(1) as f64),
    );
    m.insert(
        "bench.harness.barrier_s".into(),
        (section_ns as f64 - point_ns as f64 / JOBS as f64) / traced.reps.max(1) as f64 / 1e9
            * traced.scale,
    );
    let point_ms: Vec<f64> = points
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e6 * traced.scale)
        .collect();
    m.insert(
        "bench.harness.point_ms_p50".into(),
        percentile(&point_ms, 0.5),
    );
    m.insert(
        "bench.harness.point_ms_p90".into(),
        percentile(&point_ms, 0.9),
    );

    m.insert("net.flow.retries".into(), traced.retries as f64);
    m.insert("net.rel.retransmits".into(), traced.retransmits as f64);
    m.insert("host.calib_mops".into(), traced.calib_mops);
    m.insert("host.calib_spread".into(), traced.calib_spread);
    m.insert("host.raw_wall_s".into(), traced.raw_wall_s);
    m.insert("host.trace_overhead".into(), traced.trace_overhead);
    (m, probe_spans)
}

/// The spans called `name`: a workload's from its traced reps only (not
/// the traced set-up, rep 0), a probe's all.
fn named<'a>(spans: &'a [Span], name: &str) -> Vec<&'a Span> {
    spans
        .iter()
        .filter(|s| s.name == name && (s.rep > 0 || s.workload == "layers"))
        .collect()
}

fn self_by_id(spans: &[Span]) -> BTreeMap<u64, u64> {
    spans
        .iter()
        .zip(trace::self_times(spans))
        .map(|(s, t)| (s.id, t))
        .collect()
}

fn median_us(spans: &[Span], name: &str, scale: f64) -> f64 {
    let us: Vec<f64> = named(spans, name)
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e3 * scale)
        .collect();
    if us.is_empty() {
        0.0
    } else {
        median(&us)
    }
}

/// Timed batches per microbenchmark (after one warm-up batch).
const BATCHES: usize = 7;

/// Median host ns per operation of `batch`, which performs `ops`
/// operations and returns a value kept from the optimiser.
fn ns_per_op(ops: u64, mut batch: impl FnMut() -> u64) -> f64 {
    black_box(batch());
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        black_box(batch());
        per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

fn parsed_len(text: &str) -> u64 {
    json::parse(text).map_or(0, |v| v.as_arr().map_or(1, <[Json]>::len) as u64)
}

/// The machine probe: em3d-long's cm5 run at `seed`, three times.
/// Returns the last report for the record microbenchmark.
fn machine_probe(seed: u64, rec: &mut Recorder) -> MachineReport {
    let cfg = workloads::em3d_long_config(NiKind::Cm5, seed);
    let mut last = None;
    for _ in 0..3 {
        last = Some(workloads::simulate(
            &cfg,
            MacroApp::Em3d,
            workloads::EM3D_LONG,
            workloads::HORIZON,
            rec,
            None,
        ));
    }
    last.expect("the probe ran")
}

/// The snapshot probe: the first chaos point cut halfway, five times.
/// Returns one such snapshot and its compact bytes for the JSON
/// microbenchmarks.
fn snapshot_probe(seed: u64, rec: &mut Recorder) -> (Json, String) {
    let point = chaos::grid()[0];
    let cfg = workloads::chaos_config(&point, seed);
    let mut off = Recorder::new(Ctx {
        on: false,
        ..rec.ctx()
    });
    let (params, horizon) = (workloads::CHAOS_PARAMS, workloads::CHAOS_HORIZON);
    let full = workloads::simulate(&cfg, point.app, params, horizon, &mut off, None);
    let cut = (full.events / 2).max(1);
    for _ in 0..5 {
        // A failure here also fails chaos-resume's own checks; the probe
        // only needs the timings.
        let _ = workloads::resume_at(&cfg, point.app, cut, rec, None);
    }
    let (mut m, mut sim) = workloads::build(&cfg, point.app, params, &mut off, None);
    workloads::run(&mut m, &mut sim, horizon, cut, &mut off, None);
    let snap = save(&m, &mut sim).unwrap_or(Json::Null);
    let text = snap.to_compact();
    (snap, text)
}

/// Self-timed event streams shaped like the machine's: chains at bus and
/// link delays (the stream `BENCH_7`/`BENCH_8` anchored on), the same
/// with 1 in 8 delays a reliability-backoff horizon, and 16-event
/// same-instant bursts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stream {
    BusLink,
    Far,
    Bursts,
}

const STREAM_EVENTS: u64 = 200_000;
const CHAINS: u64 = 512;
const BURST: u64 = 16;

struct Chains {
    rng: SplitMix64,
    near: Vec<Dur>,
    far: Vec<Dur>,
    beyond: Dur,
    sink: u64,
}

impl Chains {
    fn new() -> Chains {
        let bus = BusConfig::default();
        let net = NetConfig::default();
        let rel = ReliabilityConfig::on();
        let mut near: Vec<Dur> = BusOp::ALL.iter().map(|&op| bus.occupancy(op)).collect();
        near.push(net.serialisation(net.wire_bytes(net.max_payload_bytes())));
        near.push(net.serialisation(net.wire_bytes(64)));
        near.push(net.wire_latency);
        Chains {
            rng: SplitMix64::new(0xB175),
            near,
            far: (0..5).map(|a| rel.timeout_for(a)).collect(),
            beyond: rel.max_timeout() * 400,
            sink: 0,
        }
    }

    fn delay(&mut self, far: bool) -> Dur {
        if far && self.rng.gen_range(8) == 0 {
            // Now and then beyond the wheel's in-window span, so the
            // overflow heap and its promotion stay on the measured path.
            if self.rng.gen_range(64) == 0 {
                return self.beyond;
            }
            return self.far[self.rng.gen_range(self.far.len() as u64) as usize];
        }
        self.near[self.rng.gen_range(self.near.len() as u64) as usize]
    }
}

/// A `WireMsg`-sized payload rides inline in every event, as in the
/// machine.
enum StreamEvent {
    Chain { stamp: [u64; 4], far: bool },
    Head { stamp: [u64; 4] },
    Leaf { stamp: [u64; 4] },
}

impl Event<Chains> for StreamEvent {
    fn fire(self, m: &mut Chains, sim: &mut Sim<Chains, StreamEvent>) {
        match self {
            StreamEvent::Chain { stamp, far } => {
                m.sink = m.sink.wrapping_add(stamp[0] ^ stamp[1]);
                let d = m.delay(far);
                let stamp = [stamp[0] + 1, stamp[1], stamp[2], stamp[3]];
                sim.schedule_event_in(d, StreamEvent::Chain { stamp, far });
            }
            StreamEvent::Head { stamp } => {
                for k in 0..BURST {
                    let leaf = [stamp[0], k, stamp[2], stamp[3]];
                    sim.schedule_event_in(Dur::ZERO, StreamEvent::Leaf { stamp: leaf });
                }
                let d = m.delay(false);
                let stamp = [stamp[0] + 1, stamp[1], stamp[2], stamp[3]];
                sim.schedule_event_in(d, StreamEvent::Head { stamp });
            }
            StreamEvent::Leaf { stamp } => m.sink = m.sink.wrapping_add(stamp[1]),
        }
    }
}

fn stream_ns(kind: Stream) -> f64 {
    ns_per_op(STREAM_EVENTS, || {
        let mut m = Chains::new();
        let mut sim: Sim<Chains, StreamEvent> = Sim::new();
        let heads = if kind == Stream::Bursts {
            CHAINS / 8
        } else {
            CHAINS
        };
        for i in 0..heads {
            let stamp = [i, i ^ 0x5A5A, 64, 8];
            let ev = if kind == Stream::Bursts {
                StreamEvent::Head { stamp }
            } else {
                StreamEvent::Chain {
                    stamp,
                    far: kind == Stream::Far,
                }
            };
            sim.schedule_event_at(Time::from_ns(i), ev)
                .expect("seeding from t=0 is never in the past");
        }
        sim.run_bounded(&mut m, Time::MAX, STREAM_EVENTS);
        m.sink ^ sim.events_fired()
    })
}

fn hist_record_ns() -> f64 {
    let mut rng = SplitMix64::new(0x415);
    let values: Vec<u64> = (0..4096)
        .map(|_| (1u64 << rng.gen_range(30)) + rng.gen_range(1024))
        .collect();
    let mut h = Log2Hist::new();
    ns_per_op(16 * values.len() as u64, || {
        for _ in 0..16 {
            for &v in &values {
                h.record(v);
            }
        }
        h.count()
    })
}

const OPS: u64 = 1 << 14;

fn bus_acquire_ns() -> f64 {
    let mut bus = Bus::new(BusConfig::default());
    let mut now = Time::ZERO;
    ns_per_op(OPS, || {
        for i in 0..OPS as usize {
            now = bus.acquire(now, BusOp::ALL[i % BusOp::ALL.len()]).end;
        }
        now.as_ns()
    })
}

fn cache_access_ns() -> f64 {
    let cfg = CacheConfig::default();
    let mut cache = Cache::new(cfg);
    let geo = cache.geometry();
    // Random blocks over four times the cache: mostly misses, each
    // followed by an insert that evicts.
    let span = 4 * cfg.size_bytes / cfg.block_bytes;
    let mut rng = SplitMix64::new(0xCAC4E);
    let blocks: Vec<_> = (0..OPS)
        .map(|_| geo.block_of(Addr::new(rng.gen_range(span) * cfg.block_bytes)))
        .collect();
    ns_per_op(OPS, || {
        let mut hits = 0;
        for &b in &blocks {
            if cache.lookup(b) == MoesiState::Invalid {
                cache.insert(b, MoesiState::Exclusive);
            } else {
                hits += 1;
            }
        }
        hits
    })
}

fn fragment_ns() -> f64 {
    let net = NetConfig::default();
    ns_per_op(1024, || {
        (0..1024)
            .map(|_| fragment_payload(&net, black_box(4096)).len() as u64)
            .sum()
    })
}

fn flow_cycle_ns() -> f64 {
    let mut fc = FlowControlEndpoint::new(BufferCount::Finite(8));
    ns_per_op(OPS, || {
        let mut ok = 0;
        for _ in 0..OPS {
            ok += u64::from(fc.try_alloc_send());
            fc.ack_received();
        }
        ok
    })
}

fn dedup_accept_ns() -> f64 {
    const SOURCES: usize = 16;
    let mut dedup = ReceiverDedup::default();
    let mut next = [0u64; SOURCES];
    let mut i = 0usize;
    ns_per_op(OPS, || {
        let mut fresh = 0;
        for _ in 0..OPS {
            let src = i % SOURCES;
            // One arrival in eight repeats the source's last sequence.
            let seq = if i % 8 == 7 && next[src] > 0 {
                next[src] - 1
            } else {
                next[src] += 1;
                next[src] - 1
            };
            fresh += u64::from(dedup.accept(NodeId(src as u32), SeqNo(seq)));
            i += 1;
        }
        fresh
    })
}

fn fault_deliveries() -> (f64, f64) {
    let mut plan = FaultPlan::new(FaultConfig {
        drop_p: 0.02,
        dup_p: 0.02,
        corrupt_p: 0.01,
        jitter_max: Dur::ns(20),
        ..FaultConfig::default()
    });
    let mut now = 0u64;
    let mut batch = || {
        let mut copies = 0;
        for i in 0..OPS {
            let src = NodeId((i % 16) as u32);
            let dst = NodeId(((i + 1) % 16) as u32);
            copies += plan.deliveries(Time::from_ns(now), src, dst).len() as u64;
            now += 50;
        }
        copies
    };
    let a0 = alloc::thread_calls();
    black_box(batch());
    let allocs = (alloc::thread_calls() - a0) as f64 / OPS as f64;
    (ns_per_op(OPS, batch), allocs)
}

/// Payload and wire bytes of the 256-byte fragment the NI paths move.
const PAYLOAD: u64 = 248;
const WIRE: u64 = 256;
/// Deposits between drains in the deposit microbenchmark.
const DEPOSIT_RUN: usize = 8;

/// (send, deposit) ns per fragment of one NI design: `stage` cycles over
/// 16 connections, and `now` advances past each completion. Deposits are
/// timed in runs of [`DEPOSIT_RUN`]; the processor drains each run
/// untimed so buffering stays in steady state.
fn ni_paths(kind: NiKind) -> (f64, f64) {
    let cfg = MachineConfig::with_ni(kind);
    let costs = cfg.costs;
    let fresh = || {
        let mut hw = NodeHw::new(&cfg, kind);
        let ni = NiUnit::with_kind(&cfg, kind, cfg.flow_buffers);
        ni.model.prewarm(&mut hw);
        (hw, ni)
    };

    let (mut hw, mut ni) = fresh();
    let mut now = Time::ZERO;
    let mut conn = 0u32;
    let send = ns_per_op(OPS, || {
        for _ in 0..OPS {
            conn = conn % 16 + 1;
            ni.model.stage(conn, 0);
            let p = ni.model.send_fragment(&mut hw, &costs, now, PAYLOAD, WIRE);
            now = p.proc_release.max(p.inject_ready);
        }
        now.as_ns()
    });

    let (mut hw, mut ni) = fresh();
    let mut now = Time::ZERO;
    let mut locs = [DepositLoc::NiFifo; DEPOSIT_RUN];
    let mut per_op = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let mut spent = 0u128;
        for _ in 0..OPS as usize / DEPOSIT_RUN {
            let t = Instant::now();
            for loc in &mut locs {
                conn = conn % 16 + 1;
                ni.model.stage(conn, 0);
                let d = ni
                    .model
                    .deposit_fragment(&mut hw, &costs, now, PAYLOAD, WIRE);
                now = d.done;
                *loc = d.loc;
            }
            spent += t.elapsed().as_nanos();
            for loc in &locs {
                let t = ni.model.detection(&mut hw, &costs, now);
                now = ni
                    .model
                    .drain_fragment(&mut hw, &costs, t, PAYLOAD, WIRE, loc);
            }
        }
        if batch > 0 {
            per_op.push(spent as f64 / OPS as f64);
        }
    }
    (send, median(&per_op))
}

fn arrival_ns(seed: u64) -> f64 {
    const ARRIVALS: u32 = 4096;
    let specs = [TrafficKind::PoissonUniform, TrafficKind::MmppUniform]
        .map(|kind| TrafficSpec { kind, level: 4 }.params(16).tenants[0]);
    ns_per_op(2 * ARRIVALS as u64, || {
        specs
            .iter()
            .map(|&s| {
                arrival_schedule(s, 0, NodeId(1), seed, ARRIVALS)
                    .last()
                    .copied()
                    .unwrap_or(0)
            })
            .sum()
    })
}

/// ns per application: its `factory` plus the 16 process builds of a
/// paper-sized machine, averaged over the seven macro apps.
fn factory_ns(seed: u64) -> f64 {
    ns_per_op(MacroApp::ALL.len() as u64, || {
        let mut built = 0;
        for app in MacroApp::ALL {
            let mut f = factory(app, 16, seed, app.default_params());
            for n in 0..16 {
                black_box(f(NodeId(n)));
                built += 1;
            }
        }
        built
    })
}

/// ns to turn one report into a record and its canonical bytes.
fn record_build_ns(report: &MachineReport) -> f64 {
    let cfg = MachineConfig::default();
    let fp = fingerprint(&cfg);
    ns_per_op(16, || {
        (0..16)
            .map(|_| {
                let r = RunRecord::from_report(
                    "em3d".into(),
                    "cm5".into(),
                    "8".into(),
                    String::new(),
                    fp.clone(),
                    report,
                    Vec::new(),
                );
                r.to_json().to_compact().len() as u64
            })
            .sum()
    })
}

/// ns to parse the committed golden grid into typed records.
fn record_parse_ns() -> f64 {
    let text = std::fs::read_to_string(golden_path()).unwrap_or_default();
    ns_per_op(1, || parse_document(&text).map_or(0, |d| d.len() as u64))
}
