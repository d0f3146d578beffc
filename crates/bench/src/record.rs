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

use nisim_core::{config_fingerprint, MachineConfig, MachineReport, TimeCategory};
use nisim_engine::codec::{ensure, Codec, DecodeError, Fields};
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
    pub hist: Log2Hist,
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
                        hist: t.latency.clone(),
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
        self.encode()
    }

    /// Rebuilds a record from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the JSON path and reason of the first invalid field.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        RunRecord::decode(v).map_err(|e| e.to_string())
    }
}

nisim_engine::struct_codec! { StallBrief { at_ns, reason, wedged } }
nisim_engine::struct_codec! { LatencyBrief { count, mean_ns, min_ns, max_ns } }

nisim_engine::struct_codec! {
    TenantBrief { name, offered, delivered, p50_ns, p99_ns, p999_ns, hist }
}

/// A list of named values, stored as one JSON object.
fn named<T: Codec>(items: &[(String, T)]) -> Json {
    Json::Obj(
        items
            .iter()
            .map(|(k, x)| (k.as_str().into(), x.encode()))
            .collect(),
    )
}

fn named_from<T: Codec>(v: &Json) -> Result<Vec<(String, T)>, DecodeError> {
    let Json::Obj(pairs) = v else {
        return Err(DecodeError::new("expected an object"));
    };
    pairs
        .iter()
        .map(|(k, x)| {
            Ok((
                k.as_str().to_owned(),
                T::decode(x).map_err(|e| e.in_key(k))?,
            ))
        })
        .collect()
}

/// The breakdown and tenant keys are appended only when present, so
/// metrics-off and closed-loop records keep the bytes of the seed schema.
impl Codec for RunRecord {
    fn encode(&self) -> Json {
        let mut v = Json::obj()
            .set("work", self.work.encode())
            .set("ni", self.ni.encode())
            .set("buffers", self.buffers.encode())
            .set("patch", self.patch.encode())
            .set("fingerprint", self.fingerprint.encode())
            .set("status", self.status.encode())
            .set("quiescent", self.quiescent.encode())
            .set("elapsed_ns", self.elapsed_ns.encode())
            .set("accounting_ns", self.accounting_ns.encode())
            .set("counters", named(&self.counters))
            .set("msg_sizes", self.msg_sizes.encode())
            .set("latency", self.latency.encode())
            .set("metrics", named(&self.metrics))
            .set("stall", self.stall.encode());
        if let Some(b) = &self.breakdown {
            v = v.set("breakdown", b.encode());
        }
        if !self.tenants.is_empty() {
            v = v.set("tenants", self.tenants.encode());
        }
        v
    }

    fn decode(v: &Json) -> Result<RunRecord, DecodeError> {
        let mut f = Fields::of(v)?;
        let r = RunRecord {
            work: f.get("work")?,
            ni: f.get("ni")?,
            buffers: f.get("buffers")?,
            patch: f.get("patch")?,
            fingerprint: f.get("fingerprint")?,
            status: f.get("status")?,
            quiescent: f.get("quiescent")?,
            elapsed_ns: f.get("elapsed_ns")?,
            accounting_ns: f.get("accounting_ns")?,
            counters: f.with("counters", named_from)?,
            msg_sizes: f.get("msg_sizes")?,
            latency: f.get("latency")?,
            metrics: f.with("metrics", named_from)?,
            stall: f.get("stall")?,
            breakdown: f
                .optional("breakdown")
                .map(Codec::decode)
                .transpose()
                .map_err(|e| e.in_key("breakdown"))?,
            tenants: f
                .optional("tenants")
                .map_or(Ok(Vec::new()), Codec::decode)
                .map_err(|e| e.in_key("tenants"))?,
        };
        f.finish().map(|()| r)
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
/// rendering, which covers every field), as a hex string: the
/// [`config_fingerprint`] a checkpoint carries. Two sweep points share a
/// fingerprint iff they ran the identical configuration.
pub fn fingerprint(cfg: &MachineConfig) -> String {
    json::u64_hex(config_fingerprint(cfg))
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
    let doc = Document::decode(&v).map_err(|e| e.to_string())?;
    if doc.schema != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema {} (expected {SCHEMA_VERSION})",
            doc.schema
        ));
    }
    Ok(doc
        .sweeps
        .into_iter()
        .map(|s| (s.name, s.records))
        .collect())
}

/// The document [`document`] writes.
struct Document {
    schema: u64,
    generator: String,
    sweeps: Vec<Section>,
}

/// One named section [`sweep_to_json`] writes.
struct Section {
    name: String,
    points: u64,
    records: Vec<RunRecord>,
}

nisim_engine::struct_codec! { Document { schema, generator, sweeps } }
nisim_engine::struct_codec! {
    Section { name, points, records }
    check |s: &Section| ensure(s.points == s.records.len() as u64, "points != records")
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
