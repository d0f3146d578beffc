//! Sweep execution: parallel grid runs.
//!
//! The heart of this module is [`Sweep`] — a declarative descriptor of a
//! cartesian experiment grid (workloads × NI designs × buffer levels ×
//! config patches). Points execute concurrently on scoped worker threads
//! ([`parallel_map`]) and the collected [`RunRecord`]s come back in grid
//! order, so the output is bit-identical no matter how many workers ran
//! it — `--jobs 1` and `--jobs 8` produce the same JSON bytes. Every
//! experiment row and the golden shape-regression suite execute through
//! this one path.
//!
//! The worker count comes from `--jobs`, the `NISIM_JOBS` environment
//! variable, or the machine's available parallelism, in that order of
//! precedence ([`default_jobs`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nisim_core::{MachineConfig, NiKind, TimeCategory};
use nisim_engine::Dur;
use nisim_net::{BufferCount, ReliabilityConfig, Topology};
use nisim_workloads::apps::{run_app, AppParams, MacroApp};
use nisim_workloads::micro::bandwidth::measure_bandwidth;
use nisim_workloads::micro::connsweep::measure_conn_sweep;
use nisim_workloads::micro::logp::measure_logp;
use nisim_workloads::micro::pingpong::measure_round_trip;
use nisim_workloads::micro::strided::{measure_strided, StridedStrategy};
use nisim_workloads::micro::{bursty_report, stream_report, table5_config};
use nisim_workloads::traffic::{level_gap_ns, run_traffic, TrafficSpec};

use crate::record::{self, RunRecord};

/// One workload a sweep point can run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Work {
    /// A macrobenchmark skeleton at its default (or patched) parameters.
    Macro(MacroApp),
    /// Ping-pong round-trip latency at this payload (bytes).
    RoundTrip(u64),
    /// Streaming bandwidth at this payload (bytes).
    Bandwidth(u64),
    /// LogP characterisation at this payload (bytes). Runs the fixed
    /// Table 5 configuration for the point's NI; buffer level and
    /// patches other than the label are ignored.
    LogP(u64),
    /// A bursty 2-node exchange: `bursts` bursts of `burst_len`
    /// 248-byte messages separated by `gap_ns` of computation.
    Bursty {
        /// Number of bursts.
        bursts: u32,
        /// Messages per burst.
        burst_len: u32,
        /// Computation gap between bursts (ns).
        gap_ns: u64,
    },
    /// A fixed stream of `n` 4096-byte messages (writeback counting).
    Stream(u32),
    /// Open-loop traffic: a preset arrival/destination shape at an
    /// offered-load level (see [`nisim_workloads::traffic`]).
    Traffic(TrafficSpec),
    /// Connection-count sweep: a fixed 512-message stream whose
    /// connection labels cycle over this many simulated endpoints (the
    /// QP-state-capacity study).
    ConnSweep(u32),
    /// Strided matrix-row exchange (16 rows x 15 B x 8 rounds) under
    /// this software strategy.
    Strided(StridedStrategy),
}

impl Work {
    /// The record key for this workload (`"em3d"`, `"rtt:64"`, ...).
    pub fn key(self) -> String {
        match self {
            Work::Macro(app) => app.name().to_string(),
            Work::RoundTrip(p) => format!("rtt:{p}"),
            Work::Bandwidth(p) => format!("bw:{p}"),
            Work::LogP(p) => format!("logp:{p}"),
            Work::Bursty {
                bursts, burst_len, ..
            } => format!("bursty:{bursts}x{burst_len}"),
            Work::Stream(n) => format!("stream:{n}"),
            Work::Traffic(spec) => spec.key(),
            Work::ConnSweep(endpoints) => format!("connsweep:{endpoints}"),
            Work::Strided(StridedStrategy::Gathered) => "strided:gather".to_string(),
            Work::Strided(StridedStrategy::FragmentPerElement) => "strided:per-elem".to_string(),
        }
    }
}

/// A labelled set of configuration overrides applied on top of the grid
/// point's base `MachineConfig`. The empty label is the baseline (no
/// overrides); every other patch names itself so records stay
/// addressable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Patch {
    /// Record key for this patch (`""` = baseline).
    pub label: String,
    /// Override the node count.
    pub nodes: Option<u32>,
    /// Override the workload seed.
    pub seed: Option<u64>,
    /// Override macrobenchmark scale parameters.
    pub params: Option<AppParams>,
    /// Inject this percentage of packet drops (reliability layer comes
    /// on automatically when > 0).
    pub drop_pct: Option<u32>,
    /// Override the network topology.
    pub topology: Option<Topology>,
    /// Override main-memory latency (ns).
    pub main_memory_latency_ns: Option<u64>,
    /// Override the wire latency (ns).
    pub wire_latency_ns: Option<u64>,
    /// Override the send-throttle delay (ns).
    pub throttle_delay_ns: Option<u64>,
    /// Override the `CNI_32Q_m` cache size (blocks).
    pub cni_cache_blocks: Option<u32>,
    /// Toggle the CNI send-side prefetch.
    pub cni_prefetch: Option<bool>,
    /// Toggle the `CNI_32Q_m` receive-cache bypass.
    pub cni_bypass: Option<bool>,
    /// Toggle the `CNI_32Q_m` dead-block head-update optimisation.
    pub cni_dead_block_opt: Option<bool>,
    /// Override the RDMA queue-pair NI's QP-state cache capacity.
    pub qp_cache_entries: Option<u32>,
    /// Force the UDMA NI to always use uncached transfers (overrides
    /// the pure-UDMA cost model the micro works otherwise select).
    pub udma_uncached_fallback: bool,
    /// Collect the per-component cycle breakdown for this point. Pure
    /// observation: it adds a `breakdown` field to the record but is
    /// excluded from the config fingerprint, so a metrics-on point stays
    /// comparable field-by-field with its metrics-off golden twin.
    pub metrics: bool,
}

impl Patch {
    /// An empty patch with a record label.
    pub fn named(label: impl Into<String>) -> Patch {
        Patch {
            label: label.into(),
            ..Patch::default()
        }
    }

    /// Applies the overrides to `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` overrides below 2.
    pub fn apply(&self, cfg: &mut MachineConfig) {
        if let Some(n) = self.nodes {
            assert!(n >= 2, "a parallel machine needs at least two nodes");
            cfg.nodes = n;
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        if let Some(t) = self.topology {
            cfg.net.topology = t;
        }
        if let Some(ns) = self.main_memory_latency_ns {
            cfg.main_memory_latency = Dur::ns(ns);
        }
        if let Some(ns) = self.wire_latency_ns {
            cfg.net.wire_latency = Dur::ns(ns);
        }
        if let Some(ns) = self.throttle_delay_ns {
            cfg.costs.throttle_delay = Dur::ns(ns);
        }
        if let Some(b) = self.cni_cache_blocks {
            cfg.cni_cache_blocks = b;
        }
        if let Some(v) = self.cni_prefetch {
            cfg.cni_prefetch = v;
        }
        if let Some(v) = self.cni_bypass {
            cfg.cni_bypass = v;
        }
        if let Some(v) = self.cni_dead_block_opt {
            cfg.cni_dead_block_opt = v;
        }
        if let Some(n) = self.qp_cache_entries {
            cfg.qp_cache_entries = n;
        }
        if self.udma_uncached_fallback {
            cfg.costs.udma_threshold_payload = u64::MAX;
        }
        if self.metrics {
            cfg.metrics.enabled = true;
        }
        if let Some(pct) = self.drop_pct {
            if pct > 0 {
                cfg.fault.drop_p = pct as f64 / 100.0;
                cfg.reliability = ReliabilityConfig::on();
            }
        }
    }
}

/// One fully specified grid point.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// The workload.
    pub work: Work,
    /// The NI design.
    pub ni: NiKind,
    /// Flow-control buffer level.
    pub buffers: BufferCount,
    /// Config overrides.
    pub patch: Patch,
}

/// A cartesian experiment grid: `works × nis × buffers × patches`, plus
/// any number of explicitly appended extra points (normalisation
/// baselines and one-off comparisons ride along in the same run).
///
/// Points are enumerated in a fixed nesting order (work, then NI, then
/// buffers, then patch, then extras), and [`Sweep::run`] returns records
/// in exactly that order regardless of worker count.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The sweep's name (used as the JSON section name).
    pub name: String,
    works: Vec<Work>,
    nis: Vec<NiKind>,
    buffers: Vec<BufferCount>,
    patches: Vec<Patch>,
    extra: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty sweep at the Table 5 default buffer level (8) with the
    /// baseline (empty) patch.
    pub fn new(name: impl Into<String>) -> Sweep {
        Sweep {
            name: name.into(),
            works: Vec::new(),
            nis: Vec::new(),
            buffers: vec![BufferCount::Finite(8)],
            patches: vec![Patch::default()],
            extra: Vec::new(),
        }
    }

    /// Sets the workload axis.
    pub fn works(mut self, works: Vec<Work>) -> Sweep {
        self.works = works;
        self
    }

    /// Sets the workload axis to these macrobenchmarks.
    pub fn apps(self, apps: &[MacroApp]) -> Sweep {
        self.works(apps.iter().map(|&a| Work::Macro(a)).collect())
    }

    /// Sets the NI axis.
    pub fn nis(mut self, nis: &[NiKind]) -> Sweep {
        self.nis = nis.to_vec();
        self
    }

    /// Sets the buffer-level axis.
    pub fn buffers(mut self, buffers: &[BufferCount]) -> Sweep {
        self.buffers = buffers.to_vec();
        self
    }

    /// Sets the patch axis.
    pub fn patches(mut self, patches: Vec<Patch>) -> Sweep {
        self.patches = patches;
        self
    }

    /// Appends one extra point outside the cartesian grid.
    pub fn point(mut self, work: Work, ni: NiKind, buffers: BufferCount, patch: Patch) -> Sweep {
        self.extra.push(SweepPoint {
            work,
            ni,
            buffers,
            patch,
        });
        self
    }

    /// Enumerates every point in grid order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::new();
        for &work in &self.works {
            for &ni in &self.nis {
                for &buffers in &self.buffers {
                    for patch in &self.patches {
                        out.push(SweepPoint {
                            work,
                            ni,
                            buffers,
                            patch: patch.clone(),
                        });
                    }
                }
            }
        }
        out.extend(self.extra.iter().cloned());
        out
    }

    /// Runs every point on `jobs` worker threads and returns the records
    /// in grid order.
    pub fn run(&self, jobs: usize) -> Vec<RunRecord> {
        let points = self.points();
        parallel_map(&points, jobs, run_point)
    }
}

/// Runs each sweep on `jobs` workers: one named record list per sweep,
/// in order.
pub fn run_sweeps(sweeps: &[Sweep], jobs: usize) -> Vec<(String, Vec<RunRecord>)> {
    sweeps
        .iter()
        .map(|s| (s.name.clone(), s.run(jobs)))
        .collect()
}

/// Why a microbenchmark point may panic: one that does not drain is a
/// simulator bug, not data.
const DRAINS: &str = "a sweep point's microbenchmark drains";

/// Executes one grid point and builds its record.
pub fn run_point(point: &SweepPoint) -> RunRecord {
    let mut cfg = MachineConfig::with_ni(point.ni).flow_buffers(point.buffers);
    // The macro apps use the UDMA NI's threshold-switching form unchanged.
    if matches!(point.work, Work::RoundTrip(_) | Work::Bandwidth(_)) {
        cfg = cfg.for_microbenchmark();
    }
    point.patch.apply(&mut cfg);
    // `measure_logp` fixes its own configuration; fingerprint the
    // equivalent so the record stays honest.
    let fingerprint = match point.work {
        Work::LogP(_) => record::fingerprint(&table5_config(point.ni)),
        _ => record::fingerprint(&cfg),
    };
    let (report, metrics) = match point.work {
        Work::Macro(app) => {
            let params = point.patch.params.unwrap_or_else(|| app.default_params());
            (run_app(app, &cfg, &params), Vec::new())
        }
        Work::RoundTrip(payload) => {
            let (r, report) = measure_round_trip(&cfg, payload).expect(DRAINS);
            let metrics = vec![
                ("rtt_mean_us".to_string(), r.mean_us),
                ("rtt_min_us".to_string(), r.min_us),
                ("rtt_max_us".to_string(), r.max_us),
            ];
            (report, metrics)
        }
        Work::Bandwidth(payload) => {
            let (r, report) = measure_bandwidth(&cfg, payload).expect(DRAINS);
            let metrics = vec![("bw_mb_s".to_string(), r.mb_per_s)];
            (report, metrics)
        }
        Work::LogP(payload) => {
            let (r, report) = measure_logp(point.ni, payload).expect(DRAINS);
            let metrics = vec![
                ("o_send_us".to_string(), r.o_send_us),
                ("o_recv_us".to_string(), r.o_recv_us),
                ("l_us".to_string(), r.l_us),
                ("g_us".to_string(), r.g_us),
                ("involvement".to_string(), r.involvement()),
            ];
            (report, metrics)
        }
        Work::Bursty {
            bursts,
            burst_len,
            gap_ns,
        } => {
            let report = bursty_report(&cfg, bursts, burst_len, Dur::ns(gap_ns)).expect(DRAINS);
            let recv_dt =
                report.ledgers[1].get(TimeCategory::DataTransfer).as_ns() as f64 / 1_000.0;
            let metrics = vec![("recv_data_transfer_us".to_string(), recv_dt)];
            (report, metrics)
        }
        Work::Stream(n) => (stream_report(&cfg, n).expect(DRAINS), Vec::new()),
        Work::Traffic(spec) => {
            let report = run_traffic(&cfg, &spec.params(cfg.nodes));
            let metrics = vec![(
                "offered_gap_ns".to_string(),
                level_gap_ns(spec.level) as f64,
            )];
            (report, metrics)
        }
        Work::ConnSweep(endpoints) => {
            let (r, report) = measure_conn_sweep(&cfg, endpoints, 512, 64).expect(DRAINS);
            let metrics = vec![
                ("lat_p50_ns".to_string(), r.p50_ns),
                ("lat_p99_ns".to_string(), r.p99_ns),
                ("lat_mean_ns".to_string(), r.mean_ns),
            ];
            (report, metrics)
        }
        Work::Strided(strategy) => {
            let (r, report) = measure_strided(&cfg, strategy, 16, 15, 8).expect(DRAINS);
            let metrics = vec![("exchange_ns".to_string(), r.elapsed_ns as f64)];
            (report, metrics)
        }
    };
    RunRecord::from_report(
        point.work.key(),
        point.ni.key().to_string(),
        point.buffers.to_string(),
        point.patch.label.clone(),
        fingerprint,
        &report,
        metrics,
    )
}

/// Maps `f` over `items` on `jobs` scoped worker threads, returning the
/// results in input order. A single job (or a single item) runs inline.
/// Workers pull the next unclaimed index from a shared counter, so load
/// balances dynamically while the output order stays deterministic.
///
/// # Panics
///
/// Propagates any panic raised by `f`.
#[expect(
    clippy::disallowed_methods,
    reason = "the one place threads start: each worker runs whole, disjoint simulations"
)]
pub fn parallel_map<P, R, F>(items: &[P], jobs: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker filled every slot")
        })
        .collect()
}

/// The default worker count: `NISIM_JOBS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("NISIM_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 8, 200] {
            assert_eq!(parallel_map(&items, jobs, |&x| x * x), expect);
        }
        let empty: Vec<u64> = Vec::new();
        assert_eq!(parallel_map(&empty, 4, |&x: &u64| x), Vec::<u64>::new());
    }

    #[test]
    fn sweep_points_enumerate_in_grid_order() {
        let sweep = Sweep::new("demo")
            .works(vec![Work::RoundTrip(8), Work::RoundTrip(64)])
            .nis(&[NiKind::Cm5, NiKind::Ap3000])
            .buffers(&[BufferCount::Finite(1), BufferCount::Finite(8)])
            .point(
                Work::Bandwidth(4096),
                NiKind::Cni32Qm,
                BufferCount::Finite(8),
                Patch::named("extra"),
            );
        let points = sweep.points();
        assert_eq!(points.len(), 2 * 2 * 2 + 1);
        // Innermost axis varies fastest: buffers, then NI, then work.
        assert_eq!(points[0].work, Work::RoundTrip(8));
        assert_eq!(points[0].ni, NiKind::Cm5);
        assert_eq!(points[0].buffers, BufferCount::Finite(1));
        assert_eq!(points[1].buffers, BufferCount::Finite(8));
        assert_eq!(points[2].ni, NiKind::Ap3000);
        assert_eq!(points[4].work, Work::RoundTrip(64));
        assert_eq!(points[8].patch.label, "extra");
    }

    #[test]
    fn work_keys_are_stable() {
        assert_eq!(Work::Macro(MacroApp::Em3d).key(), "em3d");
        assert_eq!(Work::RoundTrip(64).key(), "rtt:64");
        assert_eq!(Work::Bandwidth(4096).key(), "bw:4096");
        assert_eq!(Work::LogP(64).key(), "logp:64");
        assert_eq!(
            Work::Bursty {
                bursts: 40,
                burst_len: 48,
                gap_ns: 60_000
            }
            .key(),
            "bursty:40x48"
        );
        assert_eq!(Work::Stream(60).key(), "stream:60");
        assert_eq!(Work::ConnSweep(256).key(), "connsweep:256");
        assert_eq!(
            Work::Strided(StridedStrategy::Gathered).key(),
            "strided:gather"
        );
        assert_eq!(
            Work::Strided(StridedStrategy::FragmentPerElement).key(),
            "strided:per-elem"
        );
        assert_eq!(
            Work::Traffic(TrafficSpec {
                kind: nisim_workloads::traffic::TrafficKind::PoissonIncast,
                level: 3
            })
            .key(),
            "traffic:pois-incast:3"
        );
    }

    #[test]
    fn patch_applies_every_override() {
        let patch = Patch {
            label: "kitchen-sink".into(),
            nodes: Some(4),
            seed: Some(7),
            drop_pct: Some(5),
            topology: Some(Topology::Ring),
            main_memory_latency_ns: Some(240),
            wire_latency_ns: Some(80),
            throttle_delay_ns: Some(900),
            cni_cache_blocks: Some(64),
            cni_prefetch: Some(false),
            cni_bypass: Some(false),
            cni_dead_block_opt: Some(false),
            qp_cache_entries: Some(16),
            udma_uncached_fallback: true,
            metrics: true,
            ..Patch::default()
        };
        let mut cfg = MachineConfig::with_ni(NiKind::Cni32Qm);
        patch.apply(&mut cfg);
        assert!(cfg.metrics.enabled && !cfg.metrics.trace);
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.net.topology, Topology::Ring);
        assert_eq!(cfg.main_memory_latency, Dur::ns(240));
        assert_eq!(cfg.net.wire_latency, Dur::ns(80));
        assert_eq!(cfg.costs.throttle_delay, Dur::ns(900));
        assert_eq!(cfg.cni_cache_blocks, 64);
        assert!(!cfg.cni_prefetch && !cfg.cni_bypass && !cfg.cni_dead_block_opt);
        assert_eq!(cfg.costs.udma_threshold_payload, u64::MAX);
        assert_eq!(cfg.qp_cache_entries, 16);
        assert_eq!(cfg.fault.drop_p, 0.05);
        assert!(cfg.reliability.enabled);
    }

    #[test]
    fn sweep_run_is_identical_across_job_counts() {
        // A tiny real sweep: the byte-identical `--jobs` guarantee.
        let params = AppParams {
            iterations: 2,
            intensity: 2,
            compute: Dur::us(2),
        };
        let sweep = Sweep::new("tiny")
            .apps(&[MacroApp::Em3d])
            .nis(&[NiKind::Cm5, NiKind::Cni32Qm])
            .buffers(&[BufferCount::Finite(2)])
            .patches(vec![Patch {
                label: "small".into(),
                nodes: Some(4),
                params: Some(params),
                ..Patch::default()
            }]);
        let serial = sweep.run(1);
        let parallel = sweep.run(4);
        assert_eq!(serial, parallel);
        let a = record::document(vec![record::sweep_to_json("tiny", &serial)]);
        let b = record::document(vec![record::sweep_to_json("tiny", &parallel)]);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
