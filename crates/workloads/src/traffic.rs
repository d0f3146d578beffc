//! Open-loop traffic: seeded arrival processes driving per-node
//! message injectors.
//!
//! Every other workload in this crate is *closed-loop* — a program
//! issues its next send only after the previous action completed, so
//! offered load self-throttles to the machine's service rate. This
//! module is the open-loop complement: each node draws message arrival
//! times from a seeded stochastic process (Poisson, or a bursty 2-state
//! MMPP) fixed **before** the run, and injects messages as close to
//! those instants as the processor allows. When the machine falls
//! behind, arrivals back up and are issued back-to-back; latency is
//! measured from the *scheduled* arrival instant to handler dispatch,
//! so sender-side backlog counts — exactly the quantity that produces
//! the hockey-stick load/latency curve and separates the NI designs'
//! flow control under saturation.
//!
//! A run carries one or more **tenants** — competing services with
//! their own arrival process, destination pattern (uniform /
//! permutation / N→1 incast) and message size, sharing one machine.
//! Per-tenant scheduled-to-dispatch latency lands in a [`Log2Hist`]
//! whose merge is exact, so results are byte-identical at any worker
//! count, and the p50/p99/p999 blocks come out via the interpolated
//! percentile extraction in `nisim_engine::stats`.
//!
//! The scheduled instant rides *inside the message tag* (tenant index
//! in the top bits, arrival time modulo 2²⁷ ns below), so no
//! cross-node lookup table exists to checkpoint: in-flight messages
//! restore for free through the machine snapshot.

use std::cell::RefCell;
use std::rc::Rc;

use nisim_core::process::{Action, AppMessage, HandlerSpec, Process, SendSpec};
use nisim_core::{Machine, MachineConfig, MachineReport, TenantSummary};
use nisim_engine::codec::{ensure, restore_each, Codec, DecodeError, Fields, State};
use nisim_engine::json::Json;
use nisim_engine::metrics::Log2Hist;
use nisim_engine::{Dur, SplitMix64, Time};
use nisim_net::NodeId;

/// Bits of the message tag holding the scheduled arrival time
/// (nanoseconds modulo 2²⁷ ≈ 134 ms — far beyond any single message's
/// latency, so the wrapped difference is exact).
const TAG_TIME_BITS: u32 = 27;
const TAG_TIME_MASK: u32 = (1 << TAG_TIME_BITS) - 1;
/// Maximum tenants per run (tag budget: 4 tenant bits keeps the tag
/// below the machine's reserved barrier range at `0xFFFF_0000`).
pub const MAX_TENANTS: usize = 16;

/// Seed salt separating the traffic RNG streams from the other
/// workload families.
const TRAFFIC_SALT: u64 = 0x7_4AFF_1C5A_1700;

/// Polling quantum (ns): the injector sleeps toward its next arrival in
/// chunks of at most this, because the processor model only drains
/// received messages between program actions (CM-5-style polling). The
/// quantum bounds the receive-dispatch slop a sleeping node adds — it
/// must stay well under the lightest-load interarrival gap and is part
/// of the deterministic schedule, not tunable noise.
const POLL_QUANTUM_NS: u64 = 400;

fn encode_tag(tenant: usize, sched_ns: u64) -> u32 {
    ((tenant as u32) << TAG_TIME_BITS) | (sched_ns as u32 & TAG_TIME_MASK)
}

fn decode_tag(tag: u32) -> (usize, u32) {
    ((tag >> TAG_TIME_BITS) as usize, tag & TAG_TIME_MASK)
}

/// Scheduled-arrival → now latency from a wrapped 27-bit timestamp.
fn tag_latency_ns(now_ns: u64, sched_wrapped: u32) -> u64 {
    ((now_ns as u32).wrapping_sub(sched_wrapped) & TAG_TIME_MASK) as u64
}

// ---------------------------------------------------------------------------
// Deterministic sampling
// ---------------------------------------------------------------------------

/// Natural log over `(0, 1]`, built from IEEE-754 `+ - * /` only so
/// sampled interarrival gaps are bit-identical on every platform (the
/// committed goldens depend on it; `f64::ln` goes through libm, whose
/// last-bit behaviour varies between hosts).
///
/// Decomposes `x = m · 2^e` with `m ∈ [1, 2)` via the bit pattern, then
/// `ln m = 2·atanh t` with `t = (m−1)/(m+1) ≤ 1/3` by a fixed-length
/// odd series (truncation ≤ 10⁻¹¹ absolute — sampling noise dwarfs it,
/// determinism is what matters).
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "det_ln domain: {x}");
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = t
        * (1.0
            + t2 * (1.0 / 3.0
                + t2 * (1.0 / 5.0
                    + t2 * (1.0 / 7.0
                        + t2 * (1.0 / 9.0
                            + t2 * (1.0 / 11.0
                                + t2 * (1.0 / 13.0
                                    + t2 * (1.0 / 15.0
                                        + t2 * (1.0 / 17.0 + t2 * (1.0 / 19.0))))))))));
    2.0 * series + e as f64 * std::f64::consts::LN_2
}

/// One exponential interarrival gap with the given mean, in whole
/// nanoseconds (at least 1).
fn exp_gap_ns(rng: &mut SplitMix64, mean_ns: u64) -> u64 {
    let u = rng.gen_f64(); // [0, 1): 1 - u is in (0, 1], never zero
    let gap = -det_ln(1.0 - u) * mean_ns.max(1) as f64;
    (gap as u64).max(1)
}

// ---------------------------------------------------------------------------
// Traffic description
// ---------------------------------------------------------------------------

/// A seeded message-arrival process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponential interarrivals with this mean gap.
    Poisson {
        /// Mean interarrival gap (ns) per node.
        mean_gap_ns: u64,
    },
    /// A 2-state Markov-modulated Poisson process: exponential
    /// interarrivals whose mean switches between two states, each held
    /// for an exponential dwell. State 0 is the quiet state, state 1
    /// the burst.
    Mmpp {
        /// Mean interarrival gap (ns) per state.
        mean_gap_ns: [u64; 2],
        /// Mean state dwell (ns) per state.
        mean_dwell_ns: [u64; 2],
    },
}

impl ArrivalProcess {
    /// The long-run mean arrival rate (messages per ns) this process
    /// offers — for Poisson simply `1/gap`, for MMPP the dwell-weighted
    /// average of the state rates.
    pub fn mean_rate(self) -> f64 {
        match self {
            ArrivalProcess::Poisson { mean_gap_ns } => 1.0 / mean_gap_ns.max(1) as f64,
            ArrivalProcess::Mmpp {
                mean_gap_ns,
                mean_dwell_ns,
            } => {
                let d0 = mean_dwell_ns[0].max(1) as f64;
                let d1 = mean_dwell_ns[1].max(1) as f64;
                let r0 = 1.0 / mean_gap_ns[0].max(1) as f64;
                let r1 = 1.0 / mean_gap_ns[1].max(1) as f64;
                (d0 * r0 + d1 * r1) / (d0 + d1)
            }
        }
    }
}

/// Where a tenant's messages go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniformly random over the other nodes.
    Uniform,
    /// A fixed rotation: node `i` always sends to `(i + shift) % nodes`
    /// (`shift % nodes` must be non-zero so no node talks to itself).
    Permutation {
        /// Ring offset.
        shift: u32,
    },
    /// N→1 fan-in: every node sends to `sink`; the sink node does not
    /// inject for this tenant.
    Incast {
        /// The victim node.
        sink: u32,
    },
}

/// One tenant: an arrival process, a destination pattern and a message
/// size, replicated on every node of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// Stable record key (`"uni"`, `"web"`, ...).
    pub name: &'static str,
    /// The arrival process each node runs for this tenant.
    pub arrivals: ArrivalProcess,
    /// Destination selection.
    pub pattern: TrafficPattern,
    /// Application payload per message (bytes).
    pub payload_bytes: u64,
    /// Messages each injecting node sends before this tenant drains
    /// (the run length knob — arrival *times* stay open-loop).
    pub messages_per_node: u32,
}

/// A full open-loop traffic configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficParams {
    /// The competing services sharing the machine.
    pub tenants: Vec<TenantSpec>,
    /// Handler computation per received message.
    pub handler_compute: Dur,
}

// ---------------------------------------------------------------------------
// Named presets (the bench/CLI surface)
// ---------------------------------------------------------------------------

/// The preset traffic shapes the load ladder sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficKind {
    /// One Poisson tenant, uniform destinations.
    PoissonUniform,
    /// One Poisson tenant, N→1 fan-in onto node 0.
    PoissonIncast,
    /// One bursty MMPP tenant, uniform destinations.
    MmppUniform,
    /// Two competing tenants (fine-grain uniform + bulk permutation).
    TenantMix,
}

impl TrafficKind {
    /// Every preset, in reporting order.
    pub const ALL: [TrafficKind; 4] = [
        TrafficKind::PoissonUniform,
        TrafficKind::PoissonIncast,
        TrafficKind::MmppUniform,
        TrafficKind::TenantMix,
    ];

    /// Stable record-key fragment.
    pub fn key(self) -> &'static str {
        match self {
            TrafficKind::PoissonUniform => "pois-uni",
            TrafficKind::PoissonIncast => "pois-incast",
            TrafficKind::MmppUniform => "mmpp-uni",
            TrafficKind::TenantMix => "mix",
        }
    }

    /// Parses a [`key`](TrafficKind::key) back.
    pub fn from_key(key: &str) -> Option<TrafficKind> {
        TrafficKind::ALL.into_iter().find(|k| k.key() == key)
    }
}

/// One point on the offered-load ladder: a preset shape at a load
/// level. `Copy`, so it can ride inside the bench harness's `Work`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficSpec {
    /// The traffic shape.
    pub kind: TrafficKind,
    /// Offered-load level, `1..=`[`MAX_LOAD_LEVEL`] (each level doubles
    /// the per-node arrival rate).
    pub level: u32,
}

/// Levels on the offered-load ladder.
pub const MAX_LOAD_LEVEL: u32 = 7;
/// Mean per-node interarrival gap at level 1 (ns); level `l` halves it
/// `l - 1` times, so the ladder spans a 64× load range.
pub const BASE_GAP_NS: u64 = 25_600;

/// The mean per-node interarrival gap at a ladder level.
pub fn level_gap_ns(level: u32) -> u64 {
    let level = level.clamp(1, MAX_LOAD_LEVEL);
    BASE_GAP_NS >> (level - 1)
}

impl TrafficSpec {
    /// The record key (`"traffic:pois-uni:3"`).
    pub fn key(self) -> String {
        format!("traffic:{}:{}", self.kind.key(), self.level)
    }

    /// Expands the preset into full parameters for an `nodes`-node
    /// machine.
    pub fn params(self, nodes: u32) -> TrafficParams {
        let gap = level_gap_ns(self.level);
        let tenants = match self.kind {
            TrafficKind::PoissonUniform => vec![TenantSpec {
                name: "uni",
                arrivals: ArrivalProcess::Poisson { mean_gap_ns: gap },
                pattern: TrafficPattern::Uniform,
                payload_bytes: 64,
                messages_per_node: 48,
            }],
            TrafficKind::PoissonIncast => vec![TenantSpec {
                name: "incast",
                arrivals: ArrivalProcess::Poisson { mean_gap_ns: gap },
                pattern: TrafficPattern::Incast { sink: 0 },
                payload_bytes: 64,
                messages_per_node: 48,
            }],
            TrafficKind::MmppUniform => vec![TenantSpec {
                name: "mmpp",
                // Quiet state at 2× the ladder gap, bursts at 1/4 of it,
                // dwells weighted so the long-run rate tracks the ladder.
                arrivals: ArrivalProcess::Mmpp {
                    mean_gap_ns: [gap * 2, (gap / 4).max(1)],
                    mean_dwell_ns: [gap * 24, gap * 8],
                },
                pattern: TrafficPattern::Uniform,
                payload_bytes: 64,
                messages_per_node: 48,
            }],
            TrafficKind::TenantMix => vec![
                TenantSpec {
                    name: "web",
                    arrivals: ArrivalProcess::Poisson { mean_gap_ns: gap },
                    pattern: TrafficPattern::Uniform,
                    payload_bytes: 64,
                    messages_per_node: 48,
                },
                TenantSpec {
                    name: "bulk",
                    arrivals: ArrivalProcess::Poisson {
                        mean_gap_ns: gap.saturating_mul(4),
                    },
                    pattern: TrafficPattern::Permutation {
                        shift: (nodes / 2).max(1),
                    },
                    payload_bytes: 1024,
                    messages_per_node: 12,
                },
            ],
        };
        TrafficParams {
            tenants,
            handler_compute: Dur::ns(200),
        }
    }
}

/// Stable tenant names for parameterised multi-tenant runs (TenantSpec
/// names are `'static` so the spec stays `Copy`).
pub const TENANT_NAMES: [&str; MAX_TENANTS] = [
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10", "t11", "t12", "t13", "t14",
    "t15",
];

/// A parameterised multi-tenant mix: `tenants` competing uniform
/// Poisson services with staggered rates and message sizes (tenant `i`
/// cycles through 1×/½×/¼× the ladder rate at 64/256/1024-byte
/// payloads). The CLI's `--tenants` flag builds its runs from this.
///
/// # Panics
///
/// Panics unless `1 <= tenants <= MAX_TENANTS`.
pub fn multi_tenant_params(tenants: usize, level: u32) -> TrafficParams {
    assert!(
        (1..=MAX_TENANTS).contains(&tenants),
        "1..={MAX_TENANTS} tenants required, got {tenants}"
    );
    let gap = level_gap_ns(level);
    let tenants = (0..tenants)
        .map(|i| {
            let class = (i % 3) as u32;
            TenantSpec {
                name: TENANT_NAMES[i],
                arrivals: ArrivalProcess::Poisson {
                    mean_gap_ns: gap << class,
                },
                pattern: TrafficPattern::Uniform,
                payload_bytes: 64u64 << (2 * class),
                messages_per_node: 48 >> class,
            }
        })
        .collect();
    TrafficParams {
        tenants,
        handler_compute: Dur::ns(200),
    }
}

// ---------------------------------------------------------------------------
// The injector process
// ---------------------------------------------------------------------------

/// One tenant's arrival stream on one node.
struct Injector {
    spec: TenantSpec,
    rng: SplitMix64,
    /// Scheduled arrival of the next message (ns). Meaningful only
    /// while `sent < messages_per_node` and the injector is active.
    next_at: u64,
    sent: u32,
    /// MMPP modulation state (always 0 for Poisson).
    state: u8,
    /// When the current MMPP state expires (ns).
    state_until: u64,
    /// False on nodes that do not inject this tenant (the incast sink).
    active: bool,
}

impl Injector {
    fn new(spec: TenantSpec, tenant: usize, me: NodeId, seed: u64) -> Injector {
        let active = match spec.pattern {
            TrafficPattern::Incast { sink } => me.0 != sink,
            _ => true,
        };
        let mut inj = Injector {
            spec,
            rng: SplitMix64::new(
                seed ^ TRAFFIC_SALT ^ ((tenant as u64) << 40) ^ ((me.0 as u64) << 8),
            ),
            next_at: 0,
            sent: 0,
            state: 0,
            state_until: 0,
            active,
        };
        if active {
            if let ArrivalProcess::Mmpp { mean_dwell_ns, .. } = spec.arrivals {
                inj.state_until = exp_gap_ns(&mut inj.rng, mean_dwell_ns[0]);
            }
            inj.schedule_next();
        }
        inj
    }

    /// True once this injector will send nothing further.
    fn exhausted(&self) -> bool {
        !self.active || self.sent >= self.spec.messages_per_node
    }

    /// Samples the next arrival instant after the current `next_at`.
    /// MMPP uses the memorylessness of the exponential: a gap that
    /// crosses the state boundary is discarded and redrawn at the new
    /// state's rate from the switch instant — an exact simulation of
    /// the modulated process, not an approximation.
    fn schedule_next(&mut self) {
        match self.spec.arrivals {
            ArrivalProcess::Poisson { mean_gap_ns } => {
                self.next_at += exp_gap_ns(&mut self.rng, mean_gap_ns);
            }
            ArrivalProcess::Mmpp {
                mean_gap_ns,
                mean_dwell_ns,
            } => {
                let mut t = self.next_at;
                loop {
                    let gap = exp_gap_ns(&mut self.rng, mean_gap_ns[self.state as usize]);
                    if t + gap <= self.state_until {
                        self.next_at = t + gap;
                        return;
                    }
                    t = self.state_until;
                    self.state ^= 1;
                    self.state_until =
                        t + exp_gap_ns(&mut self.rng, mean_dwell_ns[self.state as usize]);
                }
            }
        }
    }

    fn pick_dst(&mut self, me: NodeId, nodes: u32) -> NodeId {
        match self.spec.pattern {
            TrafficPattern::Uniform => loop {
                let n = NodeId(self.rng.gen_range(nodes as u64) as u32);
                if n != me {
                    return n;
                }
            },
            TrafficPattern::Permutation { shift } => {
                NodeId(((me.0 as u64 + shift as u64) % nodes as u64) as u32)
            }
            TrafficPattern::Incast { sink } => NodeId(sink),
        }
    }
}

/// Replays the first `count` scheduled arrival instants (ns) a tenant's
/// injector on `node` would produce under `seed` — the exact schedule
/// the machine run injects against, independent of machine state. The
/// incast sink node returns an empty schedule (it does not inject).
/// Ignores `messages_per_node`: the arrival process itself is infinite.
pub fn arrival_schedule(
    spec: TenantSpec,
    tenant: usize,
    node: NodeId,
    seed: u64,
    count: u32,
) -> Vec<u64> {
    let mut inj = Injector::new(spec, tenant, node, seed);
    if !inj.active {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(inj.next_at);
        inj.schedule_next();
    }
    out
}

/// Machine-wide accumulators, merged from every node's handlers
/// (bucket/counter additions only, so the total does not depend on the
/// order nodes report in).
#[derive(Default)]
struct TrafficSink {
    offered: Vec<u64>,
    delivered: Vec<u64>,
    latency: Vec<Log2Hist>,
}

impl TrafficSink {
    fn with_tenants(n: usize) -> TrafficSink {
        TrafficSink {
            offered: vec![0; n],
            delivered: vec![0; n],
            latency: vec![Log2Hist::new(); n],
        }
    }
}

/// The per-node open-loop process: all tenants' injectors plus the
/// receive side. Owns its full dynamic state (checkpointable) and
/// mirrors every count into the shared sink for end-of-run reporting.
struct TrafficProcess {
    me: NodeId,
    nodes: u32,
    handler_compute: Dur,
    injectors: Vec<Injector>,
    /// Per-tenant receive latency, owned (snapshot state).
    recv: Vec<Log2Hist>,
    offered: Vec<u64>,
    delivered: Vec<u64>,
    sink: Rc<RefCell<TrafficSink>>,
}

impl TrafficProcess {
    fn new(
        me: NodeId,
        nodes: u32,
        seed: u64,
        params: &TrafficParams,
        sink: Rc<RefCell<TrafficSink>>,
    ) -> TrafficProcess {
        let n = params.tenants.len();
        TrafficProcess {
            me,
            nodes,
            handler_compute: params.handler_compute,
            injectors: params
                .tenants
                .iter()
                .enumerate()
                .map(|(t, &spec)| Injector::new(spec, t, me, seed))
                .collect(),
            recv: vec![Log2Hist::new(); n],
            offered: vec![0; n],
            delivered: vec![0; n],
            sink,
        }
    }
}

impl Process for TrafficProcess {
    fn next_action(&mut self, now: Time) -> Action {
        let now_ns = now.as_ns();
        // The earliest pending arrival across tenants (ties to the
        // lowest tenant index — deterministic).
        let next = self
            .injectors
            .iter()
            .enumerate()
            .filter(|(_, inj)| !inj.exhausted())
            .min_by_key(|(i, inj)| (inj.next_at, *i))
            .map(|(i, _)| i);
        let Some(t) = next else {
            return Action::Done;
        };
        let at = self.injectors[t].next_at;
        if at > now_ns {
            return Action::Compute(Dur::ns((at - now_ns).min(POLL_QUANTUM_NS)));
        }
        // The arrival is due (or backlogged): inject now, stamped with
        // its *scheduled* instant so the receiver measures open-loop
        // latency including any sender-side queueing.
        let inj = &mut self.injectors[t];
        let dst = inj.pick_dst(self.me, self.nodes);
        let payload = inj.spec.payload_bytes;
        inj.sent += 1;
        inj.schedule_next();
        self.offered[t] += 1;
        self.sink.borrow_mut().offered[t] += 1;
        Action::Send(SendSpec::new(dst, payload, encode_tag(t, at)))
    }

    fn on_message(&mut self, msg: &AppMessage, now: Time) -> HandlerSpec {
        let (t, sched) = decode_tag(msg.tag);
        debug_assert!(t < self.recv.len(), "tenant bits out of range");
        let lat = tag_latency_ns(now.as_ns(), sched);
        self.recv[t].record(lat);
        self.delivered[t] += 1;
        {
            let mut s = self.sink.borrow_mut();
            s.latency[t].record(lat);
            s.delivered[t] += 1;
        }
        HandlerSpec::compute(self.handler_compute)
    }

    fn is_done(&self) -> bool {
        self.injectors.iter().all(Injector::exhausted)
    }

    /// Each message carries its tenant in the tag and that tenant's
    /// payload.
    fn check_send(&self, spec: &SendSpec) -> Result<(), DecodeError> {
        let (tenant, _) = decode_tag(spec.tag);
        let fits = self
            .injectors
            .get(tenant)
            .is_some_and(|inj| *spec == SendSpec::new(spec.dst, inj.spec.payload_bytes, spec.tag));
        ensure(fits, "a message no tenant sends")
    }

    fn snapshot(&self) -> Option<Json> {
        Some(self.snapshot())
    }

    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        self.restore(state)?;
        // Fold the restored history into the fresh sink exactly once,
        // so a resumed run's machine-wide totals equal the
        // uninterrupted run's (later deliveries add on top).
        let mut s = self.sink.borrow_mut();
        for t in 0..self.injectors.len() {
            s.offered[t] += self.offered[t];
            s.delivered[t] += self.delivered[t];
            s.latency[t].merge(&self.recv[t]);
        }
        Ok(())
    }
}

/// One injector's dynamic state, `[next_at, sent, state, state_until,
/// rng]`; its spec comes from the traffic parameters.
impl State for Injector {
    fn snapshot(&self) -> Json {
        (
            self.next_at,
            self.sent,
            self.state,
            self.state_until,
            self.rng.clone(),
        )
            .encode()
    }

    /// An injector never sends past its quota, and only an MMPP injector
    /// leaves modulation state 0 (of two).
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        (
            self.next_at,
            self.sent,
            self.state,
            self.state_until,
            self.rng,
        ) = Codec::decode(v)?;
        let mmpp = matches!(self.spec.arrivals, ArrivalProcess::Mmpp { .. });
        ensure(
            self.sent <= self.spec.messages_per_node
                && (self.state == 0 || (mmpp && self.state == 1)),
            "injector past its quota or in an unknown modulation state",
        )
    }
}

impl TrafficProcess {
    fn snapshot(&self) -> Json {
        let injectors = self.injectors.iter().map(State::snapshot).collect();
        Json::obj()
            .set("injectors", Json::Arr(injectors))
            .set("offered", self.offered.encode())
            .set("delivered", self.delivered.encode())
            .set("recv", self.recv.encode())
    }

    /// Per tenant: one offer per injected message, one delivery per
    /// recorded latency.
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        f.with("injectors", |j| restore_each(&mut self.injectors, j))?;
        self.offered = f.get("offered")?;
        self.delivered = f.get("delivered")?;
        self.recv = f.get("recv")?;
        f.finish()?;
        let n = self.injectors.len();
        ensure(
            self.offered.len() == n && self.delivered.len() == n && self.recv.len() == n,
            "per-tenant state of the wrong length",
        )?;
        let offers =
            (self.injectors.iter().zip(&self.offered)).all(|(i, &o)| u64::from(i.sent) == o);
        let deliveries = self
            .recv
            .iter()
            .zip(&self.delivered)
            .all(|(h, &d)| h.count() == d);
        ensure(
            offers && deliveries,
            "per-tenant counts disagree with the injectors or histograms",
        )
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Builds traffic processes for a machine and collects the per-tenant
/// summaries afterwards. Split from [`run_traffic`] so sliced drivers
/// (checkpoint/chaos, the CLI) can own the machine loop themselves.
pub struct TrafficDriver {
    nodes: u32,
    seed: u64,
    params: TrafficParams,
    sink: Rc<RefCell<TrafficSink>>,
}

impl TrafficDriver {
    /// Prepares a driver for `cfg`'s node count and seed.
    ///
    /// # Panics
    ///
    /// Panics if the tenant list is empty or exceeds [`MAX_TENANTS`].
    pub fn new(cfg: &MachineConfig, params: &TrafficParams) -> TrafficDriver {
        assert!(
            !params.tenants.is_empty() && params.tenants.len() <= MAX_TENANTS,
            "1..={MAX_TENANTS} tenants required, got {}",
            params.tenants.len()
        );
        TrafficDriver {
            nodes: cfg.nodes,
            seed: cfg.seed,
            params: params.clone(),
            sink: Rc::new(RefCell::new(TrafficSink::with_tenants(
                params.tenants.len(),
            ))),
        }
    }

    /// The per-node process factory for [`Machine::new`] / [`Machine::run`].
    pub fn factory(&self) -> Box<dyn FnMut(NodeId) -> Box<dyn Process>> {
        let nodes = self.nodes;
        let seed = self.seed;
        let params = self.params.clone();
        let sink = self.sink.clone();
        Box::new(move |id| Box::new(TrafficProcess::new(id, nodes, seed, &params, sink.clone())))
    }

    /// Attaches the per-tenant summaries to a finished run's report.
    pub fn attach(&self, report: &mut MachineReport) {
        let s = self.sink.borrow();
        report.tenants = self
            .params
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| TenantSummary {
                name: spec.name.to_string(),
                offered: s.offered[t],
                delivered: s.delivered[t],
                latency: s.latency[t].clone(),
            })
            .collect();
    }
}

/// Runs open-loop traffic under `cfg` and returns the report with the
/// per-tenant latency blocks attached. Unlike the closed-loop runners
/// this does **not** insist on quiescence: a saturated design may stall
/// (a legitimate, reportable outcome of an overload study).
pub fn run_traffic(cfg: &MachineConfig, params: &TrafficParams) -> MachineReport {
    let driver = TrafficDriver::new(cfg, params);
    let mut report = Machine::run(cfg.clone(), driver.factory());
    driver.attach(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::NiKind;
    use nisim_net::BufferCount;

    #[test]
    fn det_ln_matches_std_ln() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            let x = 1.0 - u;
            let (a, b) = (det_ln(x), x.ln());
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "det_ln({x}) = {a}, std = {b}"
            );
        }
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn tag_round_trips_tenant_and_time() {
        for tenant in [0usize, 3, 15] {
            for sched in [0u64, 1, 12_345, (1 << 27) - 1, 1 << 30] {
                let tag = encode_tag(tenant, sched);
                assert!(tag < 0xFFFF_0000, "tag must stay below the barrier range");
                let (t, s) = decode_tag(tag);
                assert_eq!(t, tenant);
                assert_eq!(s as u64, sched & TAG_TIME_MASK as u64);
                // Latency decoding survives the 27-bit wrap.
                let lat = 77_000u64;
                assert_eq!(tag_latency_ns(sched + lat, s), lat);
            }
        }
    }

    #[test]
    fn traffic_run_delivers_every_message() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm)
            .nodes(8)
            .flow_buffers(BufferCount::Finite(8));
        let spec = TrafficSpec {
            kind: TrafficKind::PoissonUniform,
            level: 2,
        };
        let r = run_traffic(&cfg, &spec.params(8));
        assert!(r.all_quiescent, "light load must drain: {:?}", r.status);
        assert_eq!(r.tenants.len(), 1);
        let t = &r.tenants[0];
        assert_eq!(t.name, "uni");
        assert_eq!(t.offered, 8 * 48);
        assert_eq!(t.delivered, t.offered);
        assert_eq!(t.latency.count(), t.delivered);
        assert!(t.percentiles().is_monotone());
        assert!(t.percentiles().p50 > 0.0);
    }

    #[test]
    fn incast_sink_node_never_injects() {
        let cfg = MachineConfig::with_ni(NiKind::Cni512Q).nodes(4);
        let spec = TrafficSpec {
            kind: TrafficKind::PoissonIncast,
            level: 1,
        };
        let r = run_traffic(&cfg, &spec.params(4));
        assert_eq!(r.tenants[0].offered, 3 * 48);
        // Every message lands on node 0.
        assert_eq!(r.per_node[0].messages_handled, 3 * 48);
        for n in &r.per_node[1..] {
            assert_eq!(n.messages_handled, 0);
        }
    }

    #[test]
    fn tenant_mix_reports_both_tenants() {
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(8);
        let spec = TrafficSpec {
            kind: TrafficKind::TenantMix,
            level: 2,
        };
        let r = run_traffic(&cfg, &spec.params(8));
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].name, "web");
        assert_eq!(r.tenants[1].name, "bulk");
        assert_eq!(r.tenants[0].offered, 8 * 48);
        assert_eq!(r.tenants[1].offered, 8 * 12);
        for t in &r.tenants {
            assert_eq!(t.delivered, t.offered);
        }
    }

    #[test]
    fn higher_load_levels_raise_tail_latency() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(8)
            .flow_buffers(BufferCount::Finite(8));
        let p99 = |level: u32| {
            let spec = TrafficSpec {
                kind: TrafficKind::PoissonUniform,
                level,
            };
            run_traffic(&cfg, &spec.params(8)).tenants[0]
                .latency
                .percentile(0.99)
        };
        let (light, heavy) = (p99(1), p99(MAX_LOAD_LEVEL));
        assert!(
            heavy > 2.0 * light,
            "overload must blow up the tail: light {light}, heavy {heavy}"
        );
    }

    #[test]
    fn traffic_keys_are_stable() {
        let spec = TrafficSpec {
            kind: TrafficKind::PoissonIncast,
            level: 3,
        };
        assert_eq!(spec.key(), "traffic:pois-incast:3");
        for k in TrafficKind::ALL {
            assert_eq!(TrafficKind::from_key(k.key()), Some(k));
        }
        assert_eq!(TrafficKind::from_key("nope"), None);
        assert_eq!(level_gap_ns(1), BASE_GAP_NS);
        assert_eq!(level_gap_ns(2), BASE_GAP_NS / 2);
    }
}
