//! Structured, machine-readable results for sweep points.
//!
//! Every point a [`Sweep`](crate::harness::Sweep) executes yields one
//! [`RunRecord`]: the config fingerprint, elapsed cycles, per-component
//! execution-time accounting, the simulator's counters and histograms,
//! fault/reliability activity and — when the watchdog fired — the stall
//! diagnostics. Records serialize to JSON through
//! [`nisim_engine::json`] (deterministic bytes, so identical sweeps
//! diff cleanly regardless of `--jobs`), and the golden shape-regression
//! suite re-asserts the paper's qualitative claims from these records
//! instead of ad-hoc floats.

use nisim_core::{MachineConfig, MachineReport, TimeCategory};
use nisim_engine::json::{self, Json};
use nisim_engine::metrics::{Log2Hist, MetricsBreakdown};
use nisim_engine::SimStatus;

/// The schema version stamped into every sweep JSON document.
pub const SCHEMA_VERSION: u64 = 1;

/// The counters every record carries, in serialization order.
pub const COUNTER_NAMES: [&str; 22] = [
    "nodes",
    "app_messages",
    "fragments_sent",
    "retries",
    "recv_rejects",
    "send_stalls",
    "mem_reads",
    "mem_writes",
    "bus_transactions",
    "bus_block_transactions",
    "bus_busy_ns",
    "bus_data_bytes",
    "violations",
    "fault_offered",
    "fault_dropped",
    "fault_blackholed",
    "fault_duplicated",
    "fault_corrupted",
    "fault_jittered",
    "rel_retransmits",
    "rel_dup_discards",
    "rel_gave_up",
];

/// A compact stall diagnostic, carried when the watchdog fired.
#[derive(Clone, Debug, PartialEq)]
pub struct StallBrief {
    /// Simulated time of the stall (ns).
    pub at_ns: u64,
    /// The watchdog's reason, rendered.
    pub reason: String,
    /// Endpoints still holding unfinished work.
    pub wedged: u64,
}

/// End-to-end message-latency summary (zeros when no messages).
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyBrief {
    /// Messages measured.
    pub count: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Fastest message (ns).
    pub min_ns: f64,
    /// Slowest message (ns).
    pub max_ns: f64,
}

/// One tenant's open-loop traffic outcome: delivery counts, the
/// interpolated tail percentiles, and the full latency histogram they
/// were extracted from (so goldens can be re-derived and merged).
#[derive(Clone, Debug, PartialEq)]
pub struct TenantBrief {
    /// Tenant name (`"uni"`, `"web"`, ...).
    pub name: String,
    /// Messages the arrival schedule offered.
    pub offered: u64,
    /// Messages dispatched to handlers.
    pub delivered: u64,
    /// Median scheduled-arrival → dispatch latency (ns).
    pub p50_ns: f64,
    /// 99th percentile (ns).
    pub p99_ns: f64,
    /// 99.9th percentile (ns).
    pub p999_ns: f64,
    /// The full per-tenant latency histogram.
    pub latency: Log2Hist,
}

/// One sweep point's structured result.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload key (`"em3d"`, `"rtt:64"`, `"bw:4096"`, ...).
    pub work: String,
    /// NI design key ([`NiKind::key`](nisim_core::NiKind::key)).
    pub ni: String,
    /// Flow-control buffers (`"8"` or `"inf"`).
    pub buffers: String,
    /// Config-override label (`""` for the baseline).
    pub patch: String,
    /// FNV-1a hash of the full machine configuration, hex.
    pub fingerprint: String,
    /// Why the run ended (`"drained"`, `"stalled"`, ...).
    pub status: String,
    /// True iff every node finished with no pending work.
    pub quiescent: bool,
    /// Simulated execution time (ns).
    pub elapsed_ns: u64,
    /// Machine-wide execution-time accounting, ns per
    /// [`TimeCategory::ALL`] order (compute, data transfer, buffering,
    /// idle).
    pub accounting_ns: [u64; 4],
    /// Named event counters, in [`COUNTER_NAMES`] order.
    pub counters: Vec<(String, u64)>,
    /// Application message-size histogram as `(bytes, count)` pairs.
    pub msg_sizes: Vec<(u64, u64)>,
    /// End-to-end message latency summary.
    pub latency: LatencyBrief,
    /// Workload-specific scalar metrics (`rtt_mean_us`, `bw_mb_s`, ...).
    pub metrics: Vec<(String, f64)>,
    /// Stall diagnostics, when `status` is `"stalled"`.
    pub stall: Option<StallBrief>,
    /// Per-component cycle breakdown, carried only by metrics-enabled
    /// runs. Serialized as a trailing key that is *omitted* when absent,
    /// so metrics-off sweeps stay byte-identical to pre-metrics goldens.
    pub breakdown: Option<MetricsBreakdown>,
    /// Per-tenant open-loop traffic outcomes. Like `breakdown`, a
    /// trailing key omitted when empty: closed-loop records keep their
    /// seed-era bytes.
    pub tenants: Vec<TenantBrief>,
}

impl RunRecord {
    /// Builds a record from a completed run.
    pub fn from_report(
        work: String,
        ni: String,
        buffers: String,
        patch: String,
        fingerprint: String,
        report: &MachineReport,
        metrics: Vec<(String, f64)>,
    ) -> RunRecord {
        let ledger = report.combined_ledger();
        let mut accounting_ns = [0u64; 4];
        for (i, c) in TimeCategory::ALL.into_iter().enumerate() {
            accounting_ns[i] = ledger.get(c).as_ns();
        }
        let values: [u64; 22] = [
            report.ledgers.len() as u64,
            report.app_messages,
            report.fragments_sent,
            report.retries,
            report.recv_rejects,
            report.send_stalls,
            report.mem_reads,
            report.mem_writes,
            report.bus_transactions,
            report.bus_block_transactions,
            report.bus_busy.as_ns(),
            report.bus_data_bytes,
            report.violations.len() as u64,
            report.fault_stats.offered,
            report.fault_stats.dropped,
            report.fault_stats.blackholed,
            report.fault_stats.duplicated,
            report.fault_stats.corrupted,
            report.fault_stats.jittered,
            report.rel_stats.retransmits,
            report.rel_stats.dup_discards,
            report.rel_stats.gave_up,
        ];
        let latency = if report.msg_latency.count() == 0 {
            LatencyBrief {
                count: 0,
                mean_ns: 0.0,
                min_ns: 0.0,
                max_ns: 0.0,
            }
        } else {
            LatencyBrief {
                count: report.msg_latency.count(),
                mean_ns: report.msg_latency.mean(),
                min_ns: report.msg_latency.min(),
                max_ns: report.msg_latency.max(),
            }
        };
        RunRecord {
            work,
            ni,
            buffers,
            patch,
            fingerprint,
            status: status_key(report.status).to_string(),
            quiescent: report.all_quiescent,
            elapsed_ns: report.elapsed.as_ns(),
            accounting_ns,
            counters: COUNTER_NAMES
                .iter()
                .zip(values)
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            msg_sizes: report.msg_sizes.iter().collect(),
            latency,
            metrics,
            stall: report.stall.as_ref().map(|s| StallBrief {
                at_ns: s.at.as_ns(),
                reason: s.reason.to_string(),
                wedged: s.wedged_endpoints().count() as u64,
            }),
            breakdown: report.breakdown.clone(),
            tenants: report
                .tenants
                .iter()
                .map(|t| {
                    let ps = t.percentiles();
                    TenantBrief {
                        name: t.name.clone(),
                        offered: t.offered,
                        delivered: t.delivered,
                        p50_ns: ps.p50,
                        p99_ns: ps.p99,
                        p999_ns: ps.p999,
                        latency: t.latency.clone(),
                    }
                })
                .collect(),
        }
    }

    /// The named tenant's outcome, if this record carries traffic.
    pub fn tenant(&self, name: &str) -> Option<&TenantBrief> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// A named counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// A named metric's value, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Total accounted processor time (ns).
    pub fn accounted_ns(&self) -> u64 {
        self.accounting_ns.iter().sum()
    }

    /// Fraction of accounted processor time in `category` (0 when the
    /// ledger is empty).
    pub fn fraction(&self, category: TimeCategory) -> f64 {
        let total = self.accounted_ns();
        if total == 0 {
            return 0.0;
        }
        let i = TimeCategory::ALL
            .into_iter()
            .position(|c| c == category)
            .expect("known category");
        self.accounting_ns[i] as f64 / total as f64
    }

    /// Serializes to a JSON object (deterministic key order).
    pub fn to_json(&self) -> Json {
        let pairs_u64 = |items: &[(u64, u64)]| -> Json {
            Json::Arr(
                items
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::from(a), Json::from(b)]))
                    .collect(),
            )
        };
        let mut v = Json::obj()
            .set("work", self.work.as_str())
            .set("ni", self.ni.as_str())
            .set("buffers", self.buffers.as_str())
            .set("patch", self.patch.as_str())
            .set("fingerprint", self.fingerprint.as_str())
            .set("status", self.status.as_str())
            .set("quiescent", self.quiescent)
            .set("elapsed_ns", self.elapsed_ns)
            .set(
                "accounting_ns",
                Json::Arr(self.accounting_ns.iter().map(|&x| Json::from(x)).collect()),
            );
        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters = counters.set(name, *value);
        }
        v = v.set("counters", counters);
        v = v.set("msg_sizes", pairs_u64(&self.msg_sizes));
        v = v.set(
            "latency",
            Json::obj()
                .set("count", self.latency.count)
                .set("mean_ns", self.latency.mean_ns)
                .set("min_ns", self.latency.min_ns)
                .set("max_ns", self.latency.max_ns),
        );
        let mut metrics = Json::obj();
        for (name, value) in &self.metrics {
            metrics = metrics.set(name, *value);
        }
        v = v.set("metrics", metrics);
        v = v.set(
            "stall",
            match &self.stall {
                None => Json::Null,
                Some(s) => Json::obj()
                    .set("at_ns", s.at_ns)
                    .set("reason", s.reason.as_str())
                    .set("wedged", s.wedged),
            },
        );
        // The breakdown key is appended only when present: metrics-off
        // records must serialize to the exact bytes of the seed schema.
        if let Some(b) = &self.breakdown {
            v = v.set("breakdown", b.to_json());
        }
        // Likewise the traffic block: only open-loop records carry it.
        if !self.tenants.is_empty() {
            v = v.set(
                "tenants",
                Json::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            Json::obj()
                                .set("name", t.name.as_str())
                                .set("offered", t.offered)
                                .set("delivered", t.delivered)
                                .set("p50_ns", t.p50_ns)
                                .set("p99_ns", t.p99_ns)
                                .set("p999_ns", t.p999_ns)
                                .set("hist", t.latency.to_json())
                        })
                        .collect(),
                ),
            );
        }
        v
    }

    /// Rebuilds a record from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        let text = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record field {key:?} missing or not a string"))
        };
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("record field {key:?} missing or not a u64"))
        };
        let accounting = v
            .get("accounting_ns")
            .and_then(Json::as_arr)
            .filter(|a| a.len() == 4)
            .ok_or("accounting_ns must be a 4-element array")?;
        let mut accounting_ns = [0u64; 4];
        for (i, x) in accounting.iter().enumerate() {
            accounting_ns[i] = x.as_u64().ok_or("accounting_ns entries must be u64")?;
        }
        let counters = match v.get("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, x)| {
                    x.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("counter {k:?} not a u64"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("counters must be an object".into()),
        };
        let msg_sizes = v
            .get("msg_sizes")
            .and_then(Json::as_arr)
            .ok_or("msg_sizes must be an array")?
            .iter()
            .map(|p| {
                let p = p.as_arr().filter(|p| p.len() == 2);
                match p {
                    Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                        (Some(a), Some(b)) => Ok((a, b)),
                        _ => Err("msg_sizes entries must be u64 pairs".to_string()),
                    },
                    _ => Err("msg_sizes entries must be pairs".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let latency = {
            let l = v.get("latency").ok_or("latency missing")?;
            let f = |key: &str| -> Result<f64, String> {
                l.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("latency field {key:?} missing"))
            };
            LatencyBrief {
                count: l
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("latency count missing")?,
                mean_ns: f("mean_ns")?,
                min_ns: f("min_ns")?,
                max_ns: f("max_ns")?,
            }
        };
        let metrics = match v.get("metrics") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, x)| {
                    x.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("metric {k:?} not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("metrics must be an object".into()),
        };
        let breakdown = match v.get("breakdown") {
            None | Some(Json::Null) => None,
            Some(b) => Some(
                MetricsBreakdown::from_json(b)
                    .ok_or("breakdown malformed or sum-to-total violated")?,
            ),
        };
        let tenants = match v.get("tenants") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|t| {
                    let tf = |key: &str| -> Result<f64, String> {
                        t.get(key)
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("tenant field {key:?} missing"))
                    };
                    Ok(TenantBrief {
                        name: t
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("tenant name missing")?
                            .to_string(),
                        offered: t
                            .get("offered")
                            .and_then(Json::as_u64)
                            .ok_or("tenant offered missing")?,
                        delivered: t
                            .get("delivered")
                            .and_then(Json::as_u64)
                            .ok_or("tenant delivered missing")?,
                        p50_ns: tf("p50_ns")?,
                        p99_ns: tf("p99_ns")?,
                        p999_ns: tf("p999_ns")?,
                        latency: t
                            .get("hist")
                            .and_then(Log2Hist::from_json)
                            .ok_or("tenant hist malformed")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            Some(_) => return Err("tenants must be an array".into()),
        };
        let stall = match v.get("stall") {
            None | Some(Json::Null) => None,
            Some(s) => Some(StallBrief {
                at_ns: s.get("at_ns").and_then(Json::as_u64).ok_or("stall at_ns")?,
                reason: s
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or("stall reason")?
                    .to_string(),
                wedged: s
                    .get("wedged")
                    .and_then(Json::as_u64)
                    .ok_or("stall wedged")?,
            }),
        };
        Ok(RunRecord {
            work: text("work")?,
            ni: text("ni")?,
            buffers: text("buffers")?,
            patch: text("patch")?,
            fingerprint: text("fingerprint")?,
            status: text("status")?,
            quiescent: v
                .get("quiescent")
                .and_then(Json::as_bool)
                .ok_or("quiescent missing")?,
            elapsed_ns: num("elapsed_ns")?,
            accounting_ns,
            counters,
            msg_sizes,
            latency,
            metrics,
            stall,
            breakdown,
            tenants,
        })
    }
}

fn status_key(status: SimStatus) -> &'static str {
    match status {
        SimStatus::Drained => "drained",
        SimStatus::HorizonReached => "horizon",
        SimStatus::EventBudgetExhausted => "event-budget",
        SimStatus::Stalled => "stalled",
    }
}

/// FNV-1a hash of the full machine configuration (via its `Debug`
/// rendering, which covers every field), as a hex string. Two sweep
/// points share a fingerprint iff they ran the identical configuration.
pub fn fingerprint(cfg: &MachineConfig) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{cfg:?}").bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Wraps one named sweep's records as a JSON document section.
pub fn sweep_to_json(name: &str, records: &[RunRecord]) -> Json {
    Json::obj()
        .set("name", name)
        .set("points", records.len() as u64)
        .set(
            "records",
            Json::Arr(records.iter().map(RunRecord::to_json).collect()),
        )
}

/// Wraps a set of sweep sections as a complete JSON document.
pub fn document(sweeps: Vec<Json>) -> Json {
    Json::obj()
        .set("schema", SCHEMA_VERSION)
        .set("generator", "nisim-bench")
        .set("sweeps", Json::Arr(sweeps))
}

/// Wraps named record lists, in order, as a complete JSON document: the
/// inverse of [`parse_document`].
pub fn sections_document(sections: &[(String, Vec<RunRecord>)]) -> Json {
    document(
        sections
            .iter()
            .map(|(name, records)| sweep_to_json(name, records))
            .collect(),
    )
}

/// Parses a document produced by [`document`] back into named record
/// lists, in file order.
///
/// # Errors
///
/// Returns a message describing the first structural mismatch.
pub fn parse_document(text: &str) -> Result<Vec<(String, Vec<RunRecord>)>, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let schema = v
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or("document schema missing")?;
    if schema != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema {schema} (expected {SCHEMA_VERSION})"
        ));
    }
    v.get("sweeps")
        .and_then(Json::as_arr)
        .ok_or("document sweeps missing")?
        .iter()
        .map(|s| {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or("sweep name missing")?
                .to_string();
            let records = s
                .get("records")
                .and_then(Json::as_arr)
                .ok_or("sweep records missing")?
                .iter()
                .map(RunRecord::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok((name, records))
        })
        .collect()
}

/// Finds the record for one grid point.
pub fn lookup<'a>(
    records: &'a [RunRecord],
    work: &str,
    ni: &str,
    buffers: &str,
    patch: &str,
) -> Option<&'a RunRecord> {
    records
        .iter()
        .find(|r| r.work == work && r.ni == ni && r.buffers == buffers && r.patch == patch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::NiKind;
    use nisim_net::BufferCount;
    use nisim_workloads::apps::{run_app, AppParams, MacroApp};

    fn sample_record() -> RunRecord {
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(4)
            .flow_buffers(BufferCount::Finite(2));
        let params = AppParams {
            iterations: 2,
            intensity: 2,
            compute: nisim_engine::Dur::us(2),
        };
        let report = run_app(MacroApp::Em3d, &cfg, &params);
        RunRecord::from_report(
            "em3d".into(),
            NiKind::Cm5.key().into(),
            "2".into(),
            String::new(),
            fingerprint(&cfg),
            &report,
            vec![("extra".into(), 1.25)],
        )
    }

    #[test]
    fn record_json_round_trips_exactly() {
        let r = sample_record();
        let v = r.to_json();
        let back = RunRecord::from_json(&v).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_pretty(), v.to_pretty());
    }

    #[test]
    fn record_carries_the_reports_numbers() {
        let r = sample_record();
        assert!(r.elapsed_ns > 0);
        assert!(r.counter("app_messages") > 0);
        assert_eq!(r.counter("nodes"), 4);
        assert_eq!(r.status, "drained");
        assert!(r.quiescent);
        assert!(r.stall.is_none());
        assert_eq!(r.metric("extra"), Some(1.25));
        assert_eq!(r.metric("missing"), None);
        let total: f64 = TimeCategory::ALL.iter().map(|&c| r.fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_off_records_omit_the_breakdown_key() {
        let r = sample_record();
        assert!(r.breakdown.is_none());
        assert!(
            !r.to_json().to_compact().contains("\"breakdown\""),
            "absent breakdown must not appear in the serialized bytes"
        );
        assert!(
            !r.to_json().to_compact().contains("\"tenants\""),
            "non-traffic runs must not grow a tenants key"
        );
    }

    #[test]
    fn traffic_record_round_trips_per_tenant_percentiles() {
        use nisim_workloads::traffic::{run_traffic, TrafficKind, TrafficSpec};
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm)
            .nodes(4)
            .flow_buffers(BufferCount::Finite(8));
        let spec = TrafficSpec {
            kind: TrafficKind::TenantMix,
            level: 3,
        };
        let report = run_traffic(&cfg, &spec.params(cfg.nodes));
        let r = RunRecord::from_report(
            spec.key(),
            NiKind::Cni32Qm.key().into(),
            "8".into(),
            String::new(),
            fingerprint(&cfg),
            &report,
            Vec::new(),
        );
        assert_eq!(r.tenants.len(), 2, "the mix preset runs two tenants");
        let web = r.tenant("web").expect("web tenant recorded");
        assert!(web.offered > 0 && web.delivered == web.offered);
        assert!(web.p50_ns > 0.0 && web.p50_ns <= web.p99_ns && web.p99_ns <= web.p999_ns);
        assert!(r.tenant("bulk").is_some() && r.tenant("nope").is_none());
        let back = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_pretty(), r.to_json().to_pretty());
    }

    #[test]
    fn metrics_on_record_round_trips_with_breakdown() {
        use nisim_engine::metrics::MetricsConfig;
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(4)
            .flow_buffers(BufferCount::Finite(2))
            .metrics(MetricsConfig::enabled());
        let params = AppParams {
            iterations: 2,
            intensity: 2,
            compute: nisim_engine::Dur::us(2),
        };
        let report = run_app(MacroApp::Em3d, &cfg, &params);
        let r = RunRecord::from_report(
            "em3d".into(),
            NiKind::Cm5.key().into(),
            "2".into(),
            String::new(),
            fingerprint(&cfg),
            &report,
            Vec::new(),
        );
        let b = r.breakdown.as_ref().expect("metrics-on run has breakdown");
        assert!(!b.cycles.is_empty());
        let back = RunRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // The metrics field must not perturb the config fingerprint.
        assert_eq!(
            r.fingerprint,
            fingerprint(
                &MachineConfig::with_ni(NiKind::Cm5)
                    .nodes(4)
                    .flow_buffers(BufferCount::Finite(2))
            )
        );
    }

    #[test]
    fn document_round_trips() {
        let r = sample_record();
        let doc = document(vec![sweep_to_json("demo", std::slice::from_ref(&r))]);
        let parsed = parse_document(&doc.to_pretty()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "demo");
        assert_eq!(parsed[0].1, vec![r]);
    }

    #[test]
    fn lookup_matches_all_four_keys() {
        let r = sample_record();
        let records = [r];
        assert!(lookup(&records, "em3d", "cm5", "2", "").is_some());
        assert!(lookup(&records, "em3d", "cm5", "8", "").is_none());
        assert!(lookup(&records, "em3d", "udma", "2", "").is_none());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let a = MachineConfig::with_ni(NiKind::Cm5);
        let b = MachineConfig::with_ni(NiKind::Udma);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(parse_document("not json").is_err());
        assert!(parse_document("{}").is_err());
        assert!(parse_document(r#"{"schema": 99, "sweeps": []}"#).is_err());
        let missing = r#"{"schema": 1, "sweeps": [{"name": "x", "records": [{}]}]}"#;
        assert!(parse_document(missing).is_err());
    }
}
