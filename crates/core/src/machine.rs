//! The simulated parallel machine: N nodes, the network, and the event
//! logic that ties processors, NIs and flow control together.
//!
//! The moving parts:
//!
//! * every processor is driven by `proc_run` events — it
//!   alternates between draining received fragments (handlers) and its
//!   program's actions,
//! * sends fragment the payload, allocate a flow-control buffer per
//!   fragment, run the NI-specific send path, and schedule the wire
//!   arrival at the destination,
//! * arrivals either deposit (and ack the sender) or are returned to the
//!   sender, which retries with exponential backoff — the
//!   return-to-sender scheme of §5.1.2,
//! * the simulation ends at quiescence (no events left) or when the
//!   caller's horizon/event budget runs out.

use std::collections::BTreeMap;

use nisim_engine::codec::{Codec, DecodeError, State};
use nisim_engine::metrics::{Component, ComponentCycles, Log2Hist, MetricsBreakdown};
use nisim_engine::stats::{Histogram, Summary};
use nisim_engine::trace::TraceSink;
use nisim_engine::{Dur, Json, Sim, SimStatus, Time};
use nisim_net::{Fabric, FaultPlan, FaultStats, MsgId, NodeId, RelMetrics, RelStats};

use crate::accounting::{TimeCategory, TimeLedger};
use crate::config::MachineConfig;
use crate::error::{EndpointSnapshot, ProtocolViolation, StallReason, StallReport, Violation};
use crate::event::MachineEvent;
use crate::id_window::IdWindow;
use crate::ni::{NiUnit, OutstandingFrag, RxEntry, WireMsg};
use crate::node::{Node, NodeHw, ID_NODE_SHIFT};
use crate::process::{Action, AppMessage, Process, SendSpec};
use crate::processor::{ProcPhase, ProcState, SendInProgress};

/// The scheduler type used with [`Machine`]: typed [`MachineEvent`]s
/// over the engine's timing wheel — no per-event allocation.
pub type MachineSim = Sim<Machine, MachineEvent>;

/// The simulated-time horizon of [`Machine::run`]: a run still going at
/// 10 s ends with [`SimStatus::HorizonReached`].
pub const RUN_HORIZON: Time = Time::from_ns(10_000_000_000);

/// The event budget of [`Machine::run`]: a run that fires this many
/// events ends with [`SimStatus::EventBudgetExhausted`].
pub const RUN_MAX_EVENTS: u64 = 500_000_000;

/// A point in one network fragment's lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// The sending processor started the fragment's send path.
    SendStart,
    /// The fragment was put on the wire.
    Inject,
    /// The fragment was accepted at the destination NI.
    Accept,
    /// The fragment was rejected (no flow-control buffer) and returned.
    Reject,
    /// The receiving processor drained the fragment.
    Drain,
    /// The whole application message completed and its handler ran.
    Handler,
    /// The ack released the sender's flow-control buffer.
    Ack,
    /// The returned fragment arrived back at the sender.
    Return,
    /// The fragment was re-injected after a return.
    Retry,
    /// The fragment was retransmitted after an ack timeout (reliability
    /// layer).
    Retransmit,
    /// The fragment vanished on the wire (fault injection).
    WireDrop,
    /// The arrival was discarded as a duplicate (reliability layer).
    DupDiscard,
    /// The arrival was discarded as corrupted (fault injection).
    CorruptDiscard,
}

/// One record of a message-lifecycle trace (enable with
/// [`MachineConfig::trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Time,
    /// The node where it happened.
    pub node: NodeId,
    /// The fragment involved.
    pub msg: MsgId,
    /// What happened.
    pub kind: TraceKind,
}

/// The simulated machine.
pub struct Machine {
    /// The configuration it was built from.
    pub cfg: MachineConfig,
    /// The nodes.
    pub nodes: Vec<Node>,
    /// Machine-global mutable state (everything an event handler touches
    /// that is not owned by the one node the event targets).
    pub(crate) g: Globals,
}

/// Machine-global mutable state, split out of [`Machine`] so an event
/// handler can hold its target node and these globals mutably at once
/// (the two borrows in [`EvCtx`]). Every field here is mutated only by
/// event handlers through [`EvCtx`] (or report/snapshot plumbing between
/// events).
pub(crate) struct Globals {
    /// Application message sizes seen so far (payload + 8 B header), the
    /// data behind Table 4.
    pub(crate) msg_size_hist: Histogram,
    /// When each in-flight transfer's send began (for latency stats).
    pub(crate) transfer_started: TransferStarts,
    pub(crate) app_messages: u64,
    /// End-to-end application message latency (send start to handler
    /// dispatch), in nanoseconds.
    pub(crate) msg_latency: Summary,
    /// Message-lifecycle trace, when enabled.
    pub(crate) trace: Option<Vec<TraceEvent>>,
    /// The network fabric carrying data messages (ideal by default;
    /// ring/mesh fabrics add hop latency and link contention).
    pub(crate) fabric: Fabric,
    /// The fault injector, present only when [`MachineConfig::fault`] is
    /// active — so default runs never consult it.
    pub(crate) fault: Option<FaultPlan>,
    /// Protocol violations recorded instead of panicking.
    pub(crate) violations: Vec<Violation>,
    /// Forward-progress counter sampled by the no-progress watchdog.
    /// Bumped on accepts, drains, known acks, program steps and fragment
    /// injections — NOT on returns, retries or retransmissions, so a
    /// retry storm that delivers nothing trips the watchdog.
    pub(crate) progress: u64,
    /// Cycle-accounting state, present only when
    /// [`MachineConfig::metrics`] requests collection — so default runs
    /// pay a single branch per charge site.
    pub(crate) metrics: Option<Box<MachineMetrics>>,
}

/// Observability state of a metrics-enabled machine: the machine-level
/// cycle accumulators and latency histograms, the reliability layer's
/// retransmit-cycle handle, and the optional span trace sink. Per-node
/// bus and cache counters live on the node hardware and are merged into
/// the [`MetricsBreakdown`] at report time.
pub(crate) struct MachineMetrics {
    pub(crate) cycles: ComponentCycles,
    pub(crate) msg_rtt: Log2Hist,
    pub(crate) frag_queue: Log2Hist,
    pub(crate) rel: RelMetrics,
    pub(crate) sink: Option<TraceSink>,
}

/// When each in-flight transfer began: one [`IdWindow`] of start times
/// per sending node. A node mints increasing transfer ids, so a start
/// is a push at its window's back, and the windows in node order list
/// every id ascending.
pub(crate) struct TransferStarts(Vec<IdWindow<Time>>);

impl TransferStarts {
    fn new(nodes: usize) -> TransferStarts {
        TransferStarts((0..nodes).map(|_| IdWindow::default()).collect())
    }

    /// Records that node `src` began transfer `id` at `at`.
    fn start(&mut self, src: usize, id: u64, at: Time) {
        self.0[src].insert(id, at);
    }

    /// Removes transfer `id` of node `src`, returning when it began.
    fn finish(&mut self, src: usize, id: u64) -> Option<Time> {
        self.0.get_mut(src)?.remove(id)
    }

    /// True if transfer `id` began and has not completed.
    pub(crate) fn contains(&self, id: u64) -> bool {
        (self.0.get((id >> ID_NODE_SHIFT) as usize)).is_some_and(|w| w.contains_key(id))
    }

    /// Every `(transfer id, start)`, ids ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, Time)> + '_ {
        (self.0.iter()).flat_map(|w| w.iter().map(|(id, &at)| (id, at)))
    }
}

/// `[[id, start], ...]` with ids strictly ascending, where every id
/// names a node that exists.
impl State for TransferStarts {
    fn snapshot(&self) -> Json {
        Json::Arr(self.iter().map(|e| e.encode()).collect())
    }

    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let starts: BTreeMap<u64, Time> = Codec::decode(v)?;
        self.0.fill_with(IdWindow::default);
        for (k, (id, at)) in starts.into_iter().enumerate() {
            let w = self.0.get_mut((id >> ID_NODE_SHIFT) as usize);
            w.ok_or_else(|| DecodeError::new("id not minted by its node").in_index(k))?
                .insert(id, at);
        }
        Ok(())
    }
}

/// Per-node summary within a [`MachineReport`].
#[derive(Clone, Debug)]
pub struct NodeSummary {
    /// The node.
    pub node: NodeId,
    /// Execution-time ledger.
    pub ledger: TimeLedger,
    /// Application messages this node's handlers consumed.
    pub messages_handled: u64,
    /// Network fragments this node injected (excluding retries).
    pub fragments_sent: u64,
    /// Arrivals this node's NI rejected (returned to their senders).
    pub recv_rejects: u64,
    /// Processor cache hits / misses.
    pub cache_hits: u64,
    /// Processor cache misses.
    pub cache_misses: u64,
    /// This node's main-memory block reads.
    pub mem_reads: u64,
    /// This node's bus busy time.
    pub bus_busy: Dur,
}

/// Per-tenant traffic summary within a [`MachineReport`]: one entry per
/// competing service of an open-loop traffic run. The machine itself
/// never populates these — the traffic workload driver
/// (`nisim_workloads::traffic`) attaches them after the run, merging its
/// per-node accumulators. Empty for every other workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSummary {
    /// Tenant name (stable record key, e.g. `"web"`).
    pub name: String,
    /// Messages injected by this tenant's arrival processes.
    pub offered: u64,
    /// Messages fully delivered to this tenant's handlers.
    pub delivered: u64,
    /// Scheduled-arrival to handler-dispatch latency (ns): the open-loop
    /// end-to-end latency, including sender-side backlog queueing.
    pub latency: Log2Hist,
}

impl TenantSummary {
    /// The interpolated p50/p99/p999 block of this tenant's latency.
    pub fn percentiles(&self) -> nisim_engine::stats::Percentiles {
        self.latency.percentiles()
    }
}

/// Summary of one simulation run.
#[derive(Clone, Debug)]
pub struct MachineReport {
    /// Simulated time at the end of the run.
    pub elapsed: Dur,
    /// Scheduler events fired during the run (the denominator of the
    /// engine's events/sec throughput figure).
    pub events: u64,
    /// Why the run ended.
    pub status: SimStatus,
    /// True if every node finished its program and no work was pending.
    pub all_quiescent: bool,
    /// Per-node execution-time ledgers.
    pub ledgers: Vec<TimeLedger>,
    /// Per-node detail (hot-node analysis).
    pub per_node: Vec<NodeSummary>,
    /// Fully delivered application messages.
    pub app_messages: u64,
    /// Network fragments injected (excluding retries).
    pub fragments_sent: u64,
    /// Retries of returned fragments.
    pub retries: u64,
    /// Arrivals rejected for lack of a flow-control buffer.
    pub recv_rejects: u64,
    /// Failed outgoing buffer allocations (sender stalls).
    pub send_stalls: u64,
    /// Main-memory block reads (the §6.2.2 memory-to-cache metric).
    pub mem_reads: u64,
    /// Main-memory block writes.
    pub mem_writes: u64,
    /// Total bus transactions across all nodes.
    pub bus_transactions: u64,
    /// Total block-sized bus transactions across all nodes.
    pub bus_block_transactions: u64,
    /// Total bus busy time summed across all nodes' buses.
    pub bus_busy: Dur,
    /// Total data bytes moved over the buses.
    pub bus_data_bytes: u64,
    /// Application message size histogram (payload + header).
    pub msg_sizes: Histogram,
    /// End-to-end application message latency (send start to handler
    /// dispatch), nanoseconds.
    pub msg_latency: Summary,
    /// Per-tenant latency blocks, populated only by the open-loop
    /// traffic workloads (empty otherwise).
    pub tenants: Vec<TenantSummary>,
    /// Protocol violations recorded during the run (empty in healthy
    /// loss-free runs).
    pub violations: Vec<Violation>,
    /// Diagnostic snapshot, present when `status` is
    /// [`SimStatus::Stalled`].
    pub stall: Option<StallReport>,
    /// Per-component cycle breakdown and latency histograms, present
    /// when [`MachineConfig::metrics`] requested collection. The
    /// component cycles sum to `breakdown.cycles.total()` exactly.
    pub breakdown: Option<MetricsBreakdown>,
    /// The component span trace, present when span tracing was
    /// requested ([`MetricsConfig::traced`](nisim_engine::metrics::MetricsConfig::traced)).
    pub trace: Option<TraceSink>,
    /// What the fault injector did (all zeros when faults are off).
    pub fault_stats: FaultStats,
    /// Reliability-layer activity summed over all nodes.
    pub rel_stats: RelStats,
    /// Union of MOESI states the processor caches passed through, as a
    /// bitmap indexed by `MoesiState::index()`. Populated in debug builds
    /// only (zero in release) — the static-vs-dynamic agreement test
    /// compares it against the model checker's reachable set.
    pub moesi_visited: u8,
}

impl MachineReport {
    /// Machine-wide ledger (all nodes merged).
    pub fn combined_ledger(&self) -> TimeLedger {
        let mut total = TimeLedger::new(Time::ZERO);
        for l in &self.ledgers {
            total.merge(l);
        }
        total
    }

    /// Machine-wide fraction of processor time in `cat`.
    pub fn fraction(&self, cat: TimeCategory) -> f64 {
        self.combined_ledger().fraction(cat)
    }

    /// Average per-node memory-bus utilisation over the run.
    pub fn bus_utilization(&self) -> f64 {
        let nodes = self.ledgers.len().max(1) as f64;
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bus_busy.as_ns() as f64 / (self.elapsed.as_ns() as f64 * nodes)
    }

    /// Fraction of bus transactions that moved whole blocks — the
    /// paper's "size of transfer" parameter observed on the wire.
    pub fn block_transaction_share(&self) -> f64 {
        if self.bus_transactions == 0 {
            return 0.0;
        }
        self.bus_block_transactions as f64 / self.bus_transactions as f64
    }
}

impl Machine {
    /// Builds a machine; `factory(node)` supplies each node's process.
    pub fn new(cfg: MachineConfig, mut factory: impl FnMut(NodeId) -> Box<dyn Process>) -> Machine {
        let trace_enabled = cfg.trace;
        let fabric = Fabric::new(cfg.net.topology, cfg.nodes, cfg.net.wire_latency);
        let fault = cfg
            .fault
            .is_active()
            .then(|| FaultPlan::new(cfg.fault.clone()));
        let metrics = cfg.metrics.any().then(|| {
            Box::new(MachineMetrics {
                cycles: ComponentCycles::new(),
                msg_rtt: Log2Hist::new(),
                frag_queue: Log2Hist::new(),
                rel: RelMetrics::default(),
                sink: cfg.metrics.trace.then(TraceSink::new),
            })
        });
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let id = NodeId(i);
                let mut hw = NodeHw::new(&cfg, cfg.ni);
                let ni = NiUnit::new(&cfg);
                ni.model.prewarm(&mut hw);
                Node {
                    id,
                    hw,
                    ni,
                    proc: ProcState::new(),
                    ledger: TimeLedger::new(Time::ZERO),
                    process: factory(id),
                    next_msg_id: 0,
                    next_transfer_id: 0,
                    assembling: BTreeMap::new(),
                }
            })
            .collect::<Vec<_>>();
        let transfer_started = TransferStarts::new(nodes.len());
        Machine {
            cfg,
            nodes,
            g: Globals {
                msg_size_hist: Histogram::new(),
                transfer_started,
                app_messages: 0,
                msg_latency: Summary::new(),
                trace: if trace_enabled {
                    Some(Vec::new())
                } else {
                    None
                },
                fabric,
                fault,
                violations: Vec::new(),
                progress: 0,
                metrics,
            },
        }
    }

    /// The message-lifecycle trace recorded so far (sorted by time), if
    /// tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Vec<TraceEvent>> {
        let mut t = self.g.trace.take();
        if let Some(t) = &mut t {
            t.sort_by_key(|e| (e.at, e.msg.0));
        }
        t
    }

    /// Builds the machine, runs it to quiescence (or the safety bounds)
    /// and reports.
    ///
    /// The safety bounds are [`RUN_HORIZON`] and [`RUN_MAX_EVENTS`].
    /// Runs that hit them are reported via [`MachineReport::status`].
    pub fn run(
        cfg: MachineConfig,
        factory: impl FnMut(NodeId) -> Box<dyn Process>,
    ) -> MachineReport {
        Self::run_bounded(cfg, factory, RUN_HORIZON, RUN_MAX_EVENTS)
    }

    /// [`Machine::run`] that also returns the message-lifecycle trace
    /// (forces [`MachineConfig::trace`] on).
    pub fn run_traced(
        mut cfg: MachineConfig,
        factory: impl FnMut(NodeId) -> Box<dyn Process>,
    ) -> (MachineReport, Vec<TraceEvent>) {
        cfg.trace = true;
        let mut machine = Machine::new(cfg, factory);
        let mut sim = MachineSim::new();
        machine.start(&mut sim);
        let status = machine.drive(&mut sim, RUN_HORIZON, RUN_MAX_EVENTS);
        let report = machine.report(&sim, status);
        let trace = machine.take_trace().unwrap_or_default();
        (report, trace)
    }

    /// [`Machine::run`] with explicit horizon and event budget.
    pub fn run_bounded(
        cfg: MachineConfig,
        factory: impl FnMut(NodeId) -> Box<dyn Process>,
        horizon: Time,
        max_events: u64,
    ) -> MachineReport {
        let mut machine = Machine::new(cfg, factory);
        let mut sim = MachineSim::new();
        machine.start(&mut sim);
        let status = machine.drive(&mut sim, horizon, max_events);
        machine.report(&sim, status)
    }

    /// Runs up to `max_events` further events with the no-progress
    /// watchdog armed — the same loop [`Machine::run`] uses, for callers
    /// driving an explicit machine/scheduler pair (checkpoint slicing,
    /// kill-and-resume).
    pub fn run_slice(&mut self, sim: &mut MachineSim, horizon: Time, max_events: u64) -> SimStatus {
        self.drive(sim, horizon, max_events)
    }

    /// Drives the scheduler within the given bounds, with the
    /// no-progress watchdog sampling [`Globals::progress`].
    fn drive(&mut self, sim: &mut MachineSim, horizon: Time, max_events: u64) -> SimStatus {
        let window = self.cfg.watchdog_window;
        sim.run_watched(self, horizon, max_events, window, |m| m.g.progress)
    }

    /// Schedules the initial processor step on every node, plus one
    /// [`MachineEvent::NodeCrash`] per configured crash window. Crash-free
    /// configurations schedule nothing extra, so their event streams (and
    /// goldens) are untouched.
    pub fn start(&mut self, sim: &mut MachineSim) {
        for i in 0..self.nodes.len() {
            Machine::sched(self, sim, Time::ZERO, MachineEvent::ProcRun { node: i });
        }
        let crashes: Vec<(Time, usize)> = self
            .cfg
            .fault
            .crash
            .iter()
            .filter(|w| w.node.index() < self.nodes.len())
            .map(|w| (w.start, w.node.index()))
            .collect();
        for (at, node) in crashes {
            Machine::sched(self, sim, at, MachineEvent::NodeCrash { node });
        }
    }

    /// Schedules a machine event, converting a past-timestamp request
    /// into a recorded [`ProtocolViolation::EventScheduledInPast`] (the
    /// event is dropped) instead of aborting the run.
    fn sched(m: &mut Machine, sim: &mut MachineSim, at: Time, ev: MachineEvent) {
        sched_global(&mut m.g, sim, at, ev);
    }

    /// Builds the end-of-run report.
    pub fn report(&self, sim: &MachineSim, status: SimStatus) -> MachineReport {
        let all_quiescent = self.nodes.iter().all(Node::is_quiescent);
        // Under faults, a drained queue with work still held means the
        // machine is wedged (e.g. the retry cap ran out and the sender's
        // buffer will never be released): report it as a stall, not as a
        // clean drain. Loss-free runs are untouched.
        let mut status = status;
        let mut stall_reason = StallReason::NoProgress {
            window: self.cfg.watchdog_window,
        };
        if status == SimStatus::Drained
            && !all_quiescent
            && (self.g.fault.is_some() || self.cfg.reliability.enabled)
        {
            status = SimStatus::Stalled;
            stall_reason = StallReason::WedgedNotQuiescent;
        }
        let stall =
            (status == SimStatus::Stalled).then(|| self.stall_report(sim.now(), stall_reason));
        let mut rel_stats = RelStats::default();
        for n in &self.nodes {
            rel_stats.absorb(n.ni.rel_stats);
        }
        let mut retries = 0;
        let mut recv_rejects = 0;
        let mut send_stalls = 0;
        let mut fragments_sent = 0;
        let mut mem_reads = 0;
        let mut mem_writes = 0;
        let mut bus_transactions = 0;
        let mut bus_block_transactions = 0;
        let mut bus_busy = Dur::ZERO;
        let mut bus_data_bytes = 0;
        for n in &self.nodes {
            let f = n.ni.fc.stats();
            retries += f.retries;
            recv_rejects += f.recv_rejects;
            send_stalls += f.send_alloc_failures;
            fragments_sent += n.ni.stats.fragments_sent.get();
            mem_reads += n.hw.main_mem.reads();
            mem_writes += n.hw.main_mem.writes();
            let bus = n.hw.bus.stats();
            bus_transactions += bus.total();
            bus_block_transactions += bus.block_transactions();
            bus_busy += bus.busy;
            bus_data_bytes += bus.data_bytes.get();
        }
        let breakdown = self.g.metrics.as_ref().map(|mm| {
            let mut b = MetricsBreakdown {
                cycles: mm.cycles.clone(),
                msg_rtt: mm.msg_rtt.clone(),
                frag_queue: mm.frag_queue.clone(),
                bus_grant_wait: Log2Hist::new(),
            };
            b.cycles.merge(&mm.rel.cycles);
            for n in &self.nodes {
                if let Some(bus) = n.hw.bus.metrics() {
                    b.cycles.merge(&bus.cycles);
                    b.bus_grant_wait.merge(&bus.grant_wait);
                }
                if let Some(cache) = n.hw.cache.metrics() {
                    b.cycles.merge(&cache.cycles);
                }
            }
            b
        });
        let trace = self.g.metrics.as_ref().and_then(|mm| mm.sink.clone());
        let per_node = self
            .nodes
            .iter()
            .map(|n| NodeSummary {
                node: n.id,
                ledger: n.ledger.clone(),
                messages_handled: n.proc.app_messages_handled,
                fragments_sent: n.ni.stats.fragments_sent.get(),
                recv_rejects: n.ni.fc.stats().recv_rejects,
                cache_hits: n.hw.cache.stats().hits,
                cache_misses: n.hw.cache.stats().misses,
                mem_reads: n.hw.main_mem.reads(),
                bus_busy: n.hw.bus.stats().busy,
            })
            .collect();
        MachineReport {
            elapsed: sim.now() - Time::ZERO,
            events: sim.events_fired(),
            status,
            all_quiescent,
            ledgers: self.nodes.iter().map(|n| n.ledger.clone()).collect(),
            per_node,
            app_messages: self.g.app_messages,
            fragments_sent,
            retries,
            recv_rejects,
            send_stalls,
            mem_reads,
            mem_writes,
            bus_transactions,
            bus_block_transactions,
            bus_busy,
            bus_data_bytes,
            msg_sizes: self.g.msg_size_hist.clone(),
            msg_latency: self.g.msg_latency.clone(),
            tenants: Vec::new(),
            violations: self.g.violations.clone(),
            stall,
            breakdown,
            trace,
            fault_stats: self.g.fault.as_ref().map(|p| p.stats()).unwrap_or_default(),
            rel_stats,
            moesi_visited: self
                .nodes
                .iter()
                .fold(0u8, |m, n| m | n.hw.cache.visited_mask()),
        }
    }

    /// Protocol violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.g.violations
    }

    /// Snapshots every endpoint's flow-control and retransmit state for
    /// the stall diagnostic.
    fn stall_report(&self, at: Time, reason: StallReason) -> StallReport {
        use crate::processor::ProcPhase;
        let endpoints = self
            .nodes
            .iter()
            .map(|n| EndpointSnapshot {
                node: n.id,
                phase: match n.proc.phase {
                    ProcPhase::Idle => "idle",
                    ProcPhase::BlockedSend => "blocked-send",
                    ProcPhase::Busy => "busy",
                },
                program_done: n.proc.program_done,
                send_in_use: n.ni.fc.send_in_use(),
                recv_in_use: n.ni.fc.recv_in_use(),
                outstanding: n.ni.outstanding.len(),
                gave_up: n.ni.outstanding.iter().filter(|(_, o)| o.gave_up).count(),
                rx_queued: n.ni.rx_ready.len(),
                pending_resends: n.proc.pending_resends.len(),
                queued_sends: n.proc.queued_sends.len(),
                flow: n.ni.fc.stats(),
                rel: n.ni.rel_stats,
                outage_swallowed: self
                    .g
                    .fault
                    .as_ref()
                    .map(|p| p.swallowed_from(n.id))
                    .unwrap_or(0),
                retries_exhausted: n.ni.rel_stats.gave_up,
            })
            .collect();
        StallReport {
            at,
            reason,
            endpoints,
            violations: self.g.violations.clone(),
        }
    }

    /// Runs one event's handler against `ctx`. Callers must hand in
    /// exactly the node [`MachineEvent::node_of`] names — every handler
    /// touches only that node's state plus the global effect routes.
    pub(crate) fn dispatch(ctx: &mut EvCtx<'_>, ev: MachineEvent) {
        match ev {
            MachineEvent::ProcRun { .. } => Machine::proc_run(ctx),
            MachineEvent::Arrival { wire, corrupted } => Machine::arrival(ctx, wire, corrupted),
            MachineEvent::AckArrival { src, msg } => Machine::ack_arrival(ctx, src, msg),
            MachineEvent::AckTimeout { src, msg, attempt } => {
                Machine::ack_timeout(ctx, src, msg, attempt)
            }
            MachineEvent::DepositDone { frees_buffer, .. } => {
                Machine::deposit_done(ctx, frees_buffer)
            }
            MachineEvent::ReturnArrival { wire } => Machine::return_arrival(ctx, wire),
            MachineEvent::Retry { src, msg } => Machine::retry(ctx, src, msg),
            MachineEvent::NodeCrash { .. } => Machine::node_crash(ctx),
        }
    }

    /// Wakes a waiting processor (idle or blocked on a send buffer). The
    /// wake is scheduled no earlier than the processor's accounting stamp:
    /// a sender blocked on flow control has already paid (and been charged
    /// for) its failed status check, so it cannot resume mid-check.
    /// No-op for busy processors; deduplicated.
    fn try_wake(ctx: &mut EvCtx<'_>) {
        let at = ctx.now.max(ctx.node.ledger.stamp());
        let proc = &mut ctx.node.proc;
        if matches!(proc.phase, ProcPhase::Idle | ProcPhase::BlockedSend) && !proc.wake_pending {
            proc.wake_pending = true;
            ctx.sched(at, MachineEvent::ProcRun { node: ctx.nid });
        }
    }

    /// The processor's main dispatch: called when it becomes free or is
    /// woken.
    pub(crate) fn proc_run(ctx: &mut EvCtx<'_>) {
        let now = ctx.now;
        {
            let node = &mut *ctx.node;
            node.proc.wake_pending = false;
            // Charge the waiting gap since the last stamp, if any.
            let cat = match node.proc.phase {
                ProcPhase::Idle => TimeCategory::Idle,
                ProcPhase::BlockedSend => TimeCategory::Buffering,
                ProcPhase::Busy => TimeCategory::DataTransfer,
            };
            if node.ledger.stamp() < now {
                node.ledger.charge_to(now, cat);
            }
        }

        // 1. Handle a consumable received fragment, if any.
        if ctx.node.ni.peek_ready(now).is_some() {
            Machine::do_drain(ctx);
            return;
        }

        // 2. Re-send returned fragments (FIFO NIs only).
        if !ctx.node.proc.pending_resends.is_empty() {
            Machine::do_resend(ctx);
            return;
        }

        // 3. Continue an in-progress send.
        if ctx.node.proc.current_send.is_some() {
            Machine::do_send_step(ctx);
            return;
        }

        // 4. Start a handler-queued send.
        if let Some(spec) = ctx.node.proc.queued_sends.pop_front() {
            Machine::start_send(ctx, spec);
            return;
        }

        // 5. Ask the program.
        if ctx.node.proc.program_done {
            ctx.node.proc.phase = ProcPhase::Idle;
            return;
        }
        ctx.g.progress += 1;
        let action = ctx.node.process.next_action(now);
        match action {
            Action::Compute(d) => {
                let until = now + d;
                let node = &mut *ctx.node;
                node.ledger.charge_to(until, TimeCategory::Compute);
                node.proc.phase = ProcPhase::Busy;
                node.proc.busy_until = until;
                ctx.sched(until, MachineEvent::ProcRun { node: ctx.nid });
            }
            Action::Send(spec) => Machine::start_send(ctx, spec),
            Action::Wait => {
                ctx.node.proc.phase = ProcPhase::Idle;
            }
            Action::Done => {
                let node = &mut *ctx.node;
                node.proc.program_done = true;
                node.proc.phase = ProcPhase::Idle;
            }
        }
    }

    /// Sets up the fragmentation of one application send and injects its
    /// first fragment.
    fn start_send(ctx: &mut EvCtx<'_>, spec: SendSpec) {
        assert_ne!(
            spec.dst.index(),
            ctx.nid,
            "node {} attempted to send to itself",
            ctx.nid
        );
        assert!(
            spec.dst.index() < ctx.nodes_len,
            "send to nonexistent node {:?}",
            spec.dst
        );
        let transfer_id = ctx.node.alloc_transfer_id();
        ctx.g.transfer_started.start(ctx.nid, transfer_id, ctx.now);
        ctx.g
            .msg_size_hist
            .record(spec.payload_bytes + ctx.cfg.net.header_bytes);
        ctx.node.proc.current_send = Some(SendInProgress {
            spec,
            transfer_id,
            next: 0,
            checked_space: false,
        });
        Machine::do_send_step(ctx);
    }

    /// Injects the next fragment of the current send, or blocks on flow
    /// control.
    fn do_send_step(ctx: &mut EvCtx<'_>) {
        let now = ctx.now;
        let nid = ctx.nid;
        let costs = &ctx.cfg.costs;
        let header = ctx.cfg.net.header_bytes;
        let backoff0 = ctx.cfg.retry_backoff;
        let rel_on = ctx.cfg.reliability.enabled;

        if ctx.node.proc.current_send.is_none() {
            ctx.g.violation(
                now,
                ProtocolViolation::SendStepWithoutCurrentSend {
                    node: NodeId(nid as u32),
                },
            );
            return;
        }
        let (wire, inject_ready, release, proc_release) = {
            let node = &mut *ctx.node;
            let Some(send) = node.proc.current_send.as_mut() else {
                return;
            };
            let frag = send.fragment(&ctx.cfg.net);
            let mut t = now;
            if !send.checked_space {
                t = node.ni.model.check_send_space(&mut node.hw, costs, now);
                send.checked_space = true;
                node.ledger.charge_to(t, TimeCategory::DataTransfer);
            }
            if !node.ni.fc.try_alloc_send() {
                // Stall until an ack releases a buffer.
                node.proc.phase = ProcPhase::BlockedSend;
                return;
            }
            let wire_bytes = frag.payload_bytes + header;
            // Resolve the connection: 0 in the spec means unassigned,
            // and the machine derives a stable per-destination one (so
            // connection-aware NIs see one connection per peer).
            let conn = if send.spec.conn != 0 {
                send.spec.conn
            } else {
                send.spec.dst.0 + 1
            };
            node.ni.model.stage(conn, send.spec.tag);
            let path =
                node.ni
                    .model
                    .send_fragment(&mut node.hw, costs, t, frag.payload_bytes, wire_bytes);
            node.ledger
                .charge_to(path.proc_release, TimeCategory::DataTransfer);
            let mut release = path.proc_release;
            if let Some(delay) = node.ni.model.throttle() {
                release += delay;
                node.ledger.charge_to(release, TimeCategory::Buffering);
            }
            node.ni.stats.fragments_sent.inc();
            node.ni.stats.payload_bytes_sent.add(frag.payload_bytes);
            let spec = send.spec;
            let transfer_id = send.transfer_id;
            send.next += 1;
            send.checked_space = false;
            if frag.is_last() {
                node.proc.current_send = None;
            }
            let seq = rel_on.then(|| node.ni.rel_tx.next_seq(spec.dst));
            (
                WireMsg {
                    id: MsgId(0), // assigned below
                    src: NodeId(nid as u32),
                    dst: spec.dst,
                    transfer_id,
                    frag,
                    tag: spec.tag,
                    total_payload: spec.payload_bytes,
                    seq,
                    conn,
                },
                path.inject_ready,
                release,
                path.proc_release,
            )
        };
        let mut wire = wire;
        wire.id = ctx.node.alloc_msg_id();
        ctx.g
            .charge_span(Component::ProcSend, NodeId(nid as u32), now, proc_release);
        ctx.g.record(now, wire.src, wire.id, TraceKind::SendStart);
        ctx.node.ni.outstanding.insert(
            wire.id.0,
            OutstandingFrag {
                wire,
                backoff: backoff0,
                attempt: 0,
                gave_up: false,
            },
        );
        ctx.g.progress += 1;
        if rel_on {
            Machine::schedule_ack_timer(ctx, NodeId(nid as u32), wire.id, 0);
        }
        ctx.inject(wire, inject_ready, Component::LinkSerialization);

        let node = &mut *ctx.node;
        node.proc.phase = ProcPhase::Busy;
        node.proc.busy_until = release;
        ctx.sched(release, MachineEvent::ProcRun { node: nid });
    }

    /// Arms the ack timer for an outstanding fragment's retransmission
    /// attempt (reliability layer).
    fn schedule_ack_timer(ctx: &mut EvCtx<'_>, src: NodeId, id: MsgId, attempt: u32) {
        let timeout = ctx.cfg.reliability.timeout_for(attempt);
        ctx.sched(
            ctx.now + timeout,
            MachineEvent::AckTimeout {
                src,
                msg: id,
                attempt,
            },
        );
    }

    /// An ack timer fired: if the fragment is still unacked and this
    /// timer is current (not superseded by a later retransmission),
    /// retransmit or give up.
    pub(crate) fn ack_timeout(ctx: &mut EvCtx<'_>, src: NodeId, id: MsgId, attempt: u32) {
        let rel = ctx.cfg.reliability;
        let Some(entry) = ctx.node.ni.outstanding.get_mut(id.0) else {
            return; // acked in the meantime — stale timer
        };
        if entry.gave_up || entry.attempt != attempt {
            return; // abandoned, or a newer timer generation owns it
        }
        if entry.attempt >= rel.max_retries {
            entry.gave_up = true;
            ctx.node.ni.rel_stats.gave_up += 1;
            ctx.g.violation(
                ctx.now,
                ProtocolViolation::RetryCapExhausted {
                    node: src,
                    msg: id,
                    attempts: attempt,
                },
            );
            return;
        }
        entry.attempt += 1;
        let next_attempt = entry.attempt;
        let wire = entry.wire;
        ctx.node.ni.rel_stats.retransmits += 1;
        ctx.g.record(ctx.now, src, id, TraceKind::Retransmit);
        ctx.inject(wire, ctx.now, Component::Retransmit);
        Machine::schedule_ack_timer(ctx, src, id, next_attempt);
    }

    /// A data fragment arrives at its destination NI.
    pub(crate) fn arrival(ctx: &mut EvCtx<'_>, wire: WireMsg, corrupted: bool) {
        let now = ctx.now;
        let net = ctx.cfg.net;
        let costs = &ctx.cfg.costs;
        let bytes = wire.wire_bytes(net.header_bytes);

        let (eject_start, ejected) = ctx.node.hw.ingress.transmit(&net, now, bytes);
        ctx.g
            .charge_span(Component::LinkSerialization, wire.dst, eject_start, ejected);

        // A corrupted payload fails the checksum after ejection: it has
        // consumed wire bandwidth but is neither deposited, acked nor
        // returned — end-to-end it behaves like a late drop, and the
        // sender's ack timeout recovers it.
        if corrupted {
            ctx.node.ni.rel_stats.corrupt_discards += 1;
            ctx.g
                .record(ejected, wire.dst, wire.id, TraceKind::CorruptDiscard);
            return;
        }

        // Duplicate suppression (reliability layer): a replayed sequence
        // number is discarded but still acked — the duplicate usually
        // means the original's ack was lost, and the sender needs one.
        if let Some(seq) = wire.seq {
            if ctx.node.ni.rel_rx.already_seen(wire.src, seq) {
                ctx.node.ni.rel_stats.dup_discards += 1;
                ctx.g
                    .record(ejected, wire.dst, wire.id, TraceKind::DupDiscard);
                let (_, ack_end) = ctx
                    .node
                    .hw
                    .egress
                    .transmit(&net, ejected, costs.ack_wire_bytes);
                let ack_at = ack_end + net.wire_latency;
                ctx.sched(
                    ack_at,
                    MachineEvent::AckArrival {
                        src: wire.src,
                        msg: wire.id,
                    },
                );
                return;
            }
        }

        let node = &mut *ctx.node;
        let accepted = node.ni.model.has_room(bytes) && node.ni.fc.try_alloc_recv();
        {
            let kind = if accepted {
                TraceKind::Accept
            } else {
                TraceKind::Reject
            };
            ctx.g.record(ejected, wire.dst, wire.id, kind);
        }
        if accepted {
            ctx.g.progress += 1;
        }
        let node = &mut *ctx.node;
        if accepted {
            // Commit the sequence number only now: a rejected fragment
            // is returned and retried, and its retry must not be
            // mistaken for a duplicate.
            if let Some(seq) = wire.seq {
                node.ni.rel_rx.accept(wire.src, seq);
            }
            // Ack the sender on the (guaranteed) second network.
            let (_, ack_end) = node.hw.egress.transmit(&net, ejected, costs.ack_wire_bytes);
            let ack_at = ack_end + net.wire_latency;
            ctx.sched(
                ack_at,
                MachineEvent::AckArrival {
                    src: wire.src,
                    msg: wire.id,
                },
            );

            let node = &mut *ctx.node;
            node.ni.model.stage(wire.conn, wire.tag);
            let dep = node.ni.model.deposit_fragment(
                &mut node.hw,
                costs,
                ejected,
                wire.frag.payload_bytes,
                bytes,
            );
            let frees_at_deposit = node.ni.model.frees_buffer_at_deposit();
            node.ni.rx_ready.push_back(RxEntry {
                msg_id: wire.id,
                src: wire.src,
                transfer_id: wire.transfer_id,
                frag: wire.frag,
                tag: wire.tag,
                total_payload: wire.total_payload,
                ready_at: dep.done,
                loc: dep.loc,
                frees_buffer_at_drain: !frees_at_deposit,
            });
            node.ni.stats.fragments_received.inc();
            ctx.sched(
                dep.done,
                MachineEvent::DepositDone {
                    dst: ctx.nid,
                    frees_buffer: frees_at_deposit,
                },
            );
        } else {
            // Return to sender on the guaranteed channel.
            let (_, ret_end) = node.hw.egress.transmit(&net, ejected, bytes);
            let back_at = ret_end + net.wire_latency;
            ctx.sched(back_at, MachineEvent::ReturnArrival { wire });
        }
    }

    /// The NI finished depositing an accepted fragment: release the
    /// flow-control buffer if this NI frees at deposit, and wake the
    /// receiving processor to drain.
    pub(crate) fn deposit_done(ctx: &mut EvCtx<'_>, frees: bool) {
        if frees {
            ctx.node.ni.fc.free_recv();
        }
        Machine::try_wake(ctx);
    }

    /// A crash window opens on `node` (fault injection): the NI warm-
    /// restarts, losing every deposited-but-undrained fragment and every
    /// partial message assembly addressed to the node. The wire-side
    /// blackhole for the window's span is enforced by the fault plan
    /// (`CrashWindow::swallows`); this handler models the state loss at
    /// the window's opening edge.
    ///
    /// Sender-side state everywhere (outstanding fragments, ack timers,
    /// sequence allocation) and the receiver's dedup memory survive — the
    /// reliability layer's retransmissions re-deliver what the crash ate
    /// off the wire, dedup suppresses re-deliveries of fragments that had
    /// already been accepted, and anything unrecoverable is surfaced in
    /// [`RelStats::crash_lost`] rather than silently dropped.
    pub(crate) fn node_crash(ctx: &mut EvCtx<'_>) {
        let node = &mut *ctx.node;
        let wiped = std::mem::take(&mut node.ni.rx_ready);
        for e in &wiped {
            node.ni.rel_stats.crash_lost += 1;
            // Processor-managed buffering holds the flow-control buffer
            // until drain; the reboot releases it. NI-managed entries
            // free theirs via their (still pending or already fired)
            // DepositDone event, so freeing here would double-release.
            if e.frees_buffer_at_drain {
                node.ni.fc.free_recv();
            }
        }
        // Partial assemblies lived in the crashed node's memory: the
        // drained fragments are gone, and their seqs are already in the
        // dedup window, so the transfer can never complete. Count each
        // abandoned transfer as crash-lost.
        let abandoned = std::mem::take(&mut node.assembling);
        node.ni.rel_stats.crash_lost += abandoned.len() as u64;
    }

    /// An ack arrives back at the sender: release the outgoing buffer.
    ///
    /// An ack for a fragment that is no longer outstanding is expected
    /// with the reliability layer on (a duplicate's re-ack racing the
    /// original ack) and is absorbed; in a loss-free run it is a
    /// protocol violation, recorded instead of panicking.
    pub(crate) fn ack_arrival(ctx: &mut EvCtx<'_>, src: NodeId, id: MsgId) {
        if !ctx.node.ni.outstanding.discard(id.0) {
            if !ctx.cfg.reliability.enabled {
                ctx.g.violation(
                    ctx.now,
                    ProtocolViolation::AckForUnknownFragment { node: src, msg: id },
                );
            }
            return;
        }
        ctx.node.ni.fc.ack_received();
        ctx.g.progress += 1;
        ctx.g.record(ctx.now, src, id, TraceKind::Ack);
        Machine::try_wake(ctx);
    }

    /// A returned fragment arrives back at the sender: absorb it and
    /// schedule a retry with exponential backoff.
    ///
    /// NIs with NI-managed buffering retry autonomously; the FIFO NIs
    /// (processor-involved buffering) hand the returned fragment to the
    /// sending *processor*, which must re-push it through the full send
    /// path — the §3.2 cost of processor-managed buffering.
    pub(crate) fn return_arrival(ctx: &mut EvCtx<'_>, wire: WireMsg) {
        let max_backoff = ctx.cfg.retry_backoff_max;
        ctx.g.record(ctx.now, wire.src, wire.id, TraceKind::Return);
        // Under duplication one copy can be accepted (and acked) while
        // the other is rejected and returned; the late return then finds
        // no outstanding entry and its buffer already released. Absorb
        // it; without the reliability layer it is a recorded violation.
        let node = &mut *ctx.node;
        let Some(entry) = node.ni.outstanding.get_mut(wire.id.0) else {
            if !ctx.cfg.reliability.enabled {
                ctx.g.violation(
                    ctx.now,
                    ProtocolViolation::ReturnForUnknownFragment {
                        node: wire.src,
                        msg: wire.id,
                    },
                );
            }
            return;
        };
        node.ni.fc.return_absorbed();
        let backoff = entry.backoff;
        entry.backoff = (backoff * 2).min(max_backoff);
        ctx.sched(
            ctx.now + backoff,
            MachineEvent::Retry {
                src: wire.src,
                msg: wire.id,
            },
        );
    }

    /// Retries a previously returned fragment once its backoff elapses.
    pub(crate) fn retry(ctx: &mut EvCtx<'_>, src: NodeId, id: MsgId) {
        let node = &mut *ctx.node;
        let wire = match node.ni.outstanding.get(id.0) {
            None => {
                // Acked while the backoff ran (duplicate races).
                if !ctx.cfg.reliability.enabled {
                    ctx.g.violation(
                        ctx.now,
                        ProtocolViolation::RetryForUnknownFragment { node: src, msg: id },
                    );
                }
                return;
            }
            Some(entry) if entry.gave_up => return,
            Some(entry) => entry.wire,
        };
        ctx.g.record(ctx.now, src, id, TraceKind::Retry);
        node.ni.fc.retried();
        if node.ni.model.frees_buffer_at_deposit() {
            // NI-managed buffering: the NI re-injects on its own.
            ctx.inject(wire, ctx.now, Component::LinkSerialization);
        } else {
            // Processor-managed buffering: queue a software re-send.
            node.proc.pending_resends.push_back(wire);
            Machine::try_wake(ctx);
        }
    }

    /// Software re-send of a returned fragment on a FIFO NI: the
    /// processor must first *consume* the returned message out of the
    /// network FIFO and then pay the full send path again — all of it
    /// buffering time (§3.2, §5.1.2: "the sender must consume the
    /// returning message from the network into the previously allocated
    /// buffer and retry the send later").
    fn do_resend(ctx: &mut EvCtx<'_>) {
        let now = ctx.now;
        let costs = &ctx.cfg.costs;
        let header = ctx.cfg.net.header_bytes;
        if ctx.node.proc.pending_resends.is_empty() {
            ctx.g.violation(
                now,
                ProtocolViolation::ResendWithoutPending {
                    node: NodeId(ctx.nid as u32),
                },
            );
            return;
        }
        let (wire, inject_ready, release) = {
            let node = &mut *ctx.node;
            let Some(wire) = node.proc.pending_resends.pop_front() else {
                return;
            };
            let wire_bytes = wire.wire_bytes(header);
            let consumed = node.ni.model.drain_fragment(
                &mut node.hw,
                costs,
                now,
                wire.frag.payload_bytes,
                wire_bytes,
                &crate::ni::DepositLoc::NiFifo,
            );
            node.ni.model.stage(wire.conn, wire.tag);
            let path = node.ni.model.send_fragment(
                &mut node.hw,
                costs,
                consumed,
                wire.frag.payload_bytes,
                wire_bytes,
            );
            node.ledger
                .charge_to(path.proc_release, TimeCategory::Buffering);
            (wire, path.inject_ready, path.proc_release)
        };
        ctx.inject(wire, inject_ready, Component::LinkSerialization);
        let node = &mut *ctx.node;
        node.proc.phase = ProcPhase::Busy;
        node.proc.busy_until = release;
        ctx.sched(release, MachineEvent::ProcRun { node: ctx.nid });
    }

    /// Drains the oldest consumable fragment and runs the handler if it
    /// completes an application message.
    fn do_drain(ctx: &mut EvCtx<'_>) {
        let now = ctx.now;
        let nid = ctx.nid;
        let costs = &ctx.cfg.costs;
        let header = ctx.cfg.net.header_bytes;

        if ctx.node.ni.peek_ready(now).is_none() {
            ctx.g.violation(
                now,
                ProtocolViolation::DrainWithoutReady {
                    node: NodeId(nid as u32),
                },
            );
            return;
        }
        ctx.g.progress += 1;
        let (entry, drained_at) = {
            let node = &mut *ctx.node;
            let Some(entry) = node.ni.pop_ready(now) else {
                return;
            };
            let wire_bytes = entry.frag.payload_bytes + header;
            let t = node.ni.model.detection(&mut node.hw, costs, now);
            let t = node.ni.model.drain_fragment(
                &mut node.hw,
                costs,
                t,
                entry.frag.payload_bytes,
                wire_bytes,
                &entry.loc,
            );
            node.ledger.charge_to(t, TimeCategory::DataTransfer);
            if entry.frees_buffer_at_drain {
                node.ni.fc.free_recv();
            }
            (entry, t)
        };

        ctx.g.charge_span(
            Component::NiResidency,
            NodeId(nid as u32),
            entry.ready_at,
            now,
        );
        ctx.g
            .charge_span(Component::ProcRecv, NodeId(nid as u32), now, drained_at);
        if let Some(mm) = &mut ctx.g.metrics {
            mm.frag_queue.record(entry.queueing_delay(now).as_ns());
        }
        ctx.g.record(
            drained_at,
            NodeId(nid as u32),
            entry.msg_id,
            TraceKind::Drain,
        );

        // Assembly: the application message completes when all its
        // fragments are drained. The assembly map is keyed per receiving
        // node by (source node, transfer id) — transfer ids are unique
        // per source (node-tagged in the high bits), so the key cannot
        // collide across senders. A single-fragment message completes at
        // its one drain without entering the map.
        let complete = entry.frag.of == 1 || {
            let key = (entry.src.0, entry.transfer_id);
            let drained = self_entry_increment(&mut ctx.node.assembling, key);
            if drained == entry.frag.of {
                ctx.node.assembling.remove(&key);
            }
            drained == entry.frag.of
        };
        let finish = if complete {
            ctx.g.app_messages += 1;
            let src = entry.src.index();
            if let Some(started) = ctx.g.transfer_started.finish(src, entry.transfer_id) {
                let ns = drained_at.saturating_since(started).as_ns();
                ctx.g.msg_latency.record(ns as f64);
                if let Some(mm) = &mut ctx.g.metrics {
                    mm.msg_rtt.record(ns);
                }
            }
            let node = &mut *ctx.node;
            let dispatch_done = drained_at
                + node
                    .hw
                    .cycles(costs.recv_dispatch_cycles + costs.handler_entry_cycles);
            node.ledger
                .charge_to(dispatch_done, TimeCategory::DataTransfer);
            let msg = AppMessage {
                src: entry.src,
                payload_bytes: entry.total_payload,
                tag: entry.tag,
            };
            let handler = node.process.on_message(&msg, dispatch_done);
            let handler_done = dispatch_done + handler.compute;
            node.ledger.charge_to(handler_done, TimeCategory::Compute);
            node.proc.queued_sends.extend(handler.sends);
            node.proc.app_messages_handled += 1;
            let msg_id = entry.msg_id;
            ctx.g.charge_span(
                Component::ProcRecv,
                NodeId(nid as u32),
                drained_at,
                dispatch_done,
            );
            ctx.g.record(
                dispatch_done,
                NodeId(nid as u32),
                msg_id,
                TraceKind::Handler,
            );
            handler_done
        } else {
            drained_at
        };

        let node = &mut *ctx.node;
        node.proc.phase = ProcPhase::Busy;
        node.proc.busy_until = finish;
        ctx.sched(finish, MachineEvent::ProcRun { node: nid });
    }
}

fn self_entry_increment(map: &mut BTreeMap<(u32, u64), u32>, key: (u32, u64)) -> u32 {
    let v = map.entry(key).or_insert(0);
    *v += 1;
    *v
}

impl Globals {
    /// Charges the closed span `[start, end)` to `component` — and to
    /// its trace track when tracing. Retransmit wire time routes through
    /// the reliability layer's [`RelMetrics`] handle so it is never
    /// conflated with first-transmission serialization. No-op (one
    /// branch) when metrics are off.
    pub(crate) fn charge_span(
        &mut self,
        component: Component,
        node: NodeId,
        start: Time,
        end: Time,
    ) {
        let Some(mm) = &mut self.metrics else {
            return;
        };
        let dur = end.saturating_since(start);
        if component == Component::Retransmit {
            mm.rel.charge_retransmit(dur);
        } else {
            mm.cycles.charge(component, dur);
        }
        if let Some(sink) = &mut mm.sink {
            sink.span(component, node.0, start, end);
        }
    }

    pub(crate) fn record(&mut self, at: Time, node: NodeId, msg: MsgId, kind: TraceKind) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                at,
                node,
                msg,
                kind,
            });
        }
    }

    pub(crate) fn violation(&mut self, at: Time, kind: ProtocolViolation) {
        self.violations.push(Violation { at, kind });
    }
}

/// Schedules a machine event, converting a past-timestamp request into a
/// recorded [`ProtocolViolation::EventScheduledInPast`] (the event is
/// dropped) instead of aborting the run.
pub(crate) fn sched_global(g: &mut Globals, sim: &mut MachineSim, at: Time, ev: MachineEvent) {
    if let Err(e) = sim.schedule_event_at(at, ev) {
        g.violation(
            e.now,
            ProtocolViolation::EventScheduledInPast {
                at: e.at,
                now: e.now,
            },
        );
    }
}

/// The wire-side tail of a fragment injection: fault-plan resolution,
/// fabric transit and arrival scheduling. It touches only machine-global
/// state (the fault plan's RNG draws, the fabric's link state and the
/// scheduler), never the sending node, so it takes [`Globals`] rather
/// than an [`EvCtx`].
pub(crate) fn wire_handoff(
    net: &nisim_net::NetConfig,
    g: &mut Globals,
    sim: &mut MachineSim,
    wire: WireMsg,
    end: Time,
) {
    let bytes = wire.wire_bytes(net.header_bytes);
    let Some(plan) = &mut g.fault else {
        let arrive = g.fabric.transit(net, end, wire.src, wire.dst, bytes);
        sched_global(
            g,
            sim,
            arrive,
            MachineEvent::Arrival {
                wire,
                corrupted: false,
            },
        );
        return;
    };
    let deliveries = plan.deliveries(end, wire.src, wire.dst);
    if deliveries.is_empty() {
        g.record(end, wire.src, wire.id, TraceKind::WireDrop);
        return;
    }
    for d in deliveries {
        let arrive = g.fabric.transit(net, end, wire.src, wire.dst, bytes) + d.extra_delay;
        sched_global(
            g,
            sim,
            arrive,
            MachineEvent::Arrival {
                wire,
                corrupted: d.corrupted,
            },
        );
    }
}

/// The execution context of one event handler: the single node the event
/// targets, the config, and the machine-global state and scheduler that
/// every cross-node effect goes through.
pub(crate) struct EvCtx<'a> {
    /// The event's firing time (`sim.now()`).
    pub(crate) now: Time,
    /// The target node's index.
    pub(crate) nid: usize,
    /// Total node count (for the send-target bounds assert).
    pub(crate) nodes_len: usize,
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) node: &'a mut Node,
    pub(crate) g: &'a mut Globals,
    pub(crate) sim: &'a mut MachineSim,
}

impl EvCtx<'_> {
    fn sched(&mut self, at: Time, ev: MachineEvent) {
        sched_global(self.g, self.sim, at, ev);
    }

    /// Puts a fragment on the wire from this node's egress port and
    /// schedules the arrival(s) — the fault layer may drop, duplicate,
    /// corrupt or delay the message.
    ///
    /// `charge_as` says which component the egress serialization time is
    /// accounted to: [`Component::LinkSerialization`] for first sends and
    /// flow-control retries, [`Component::Retransmit`] for
    /// reliability-layer retransmissions.
    fn inject(&mut self, wire: WireMsg, ready: Time, charge_as: Component) {
        debug_assert_eq!(wire.src.index(), self.nid);
        let net = self.cfg.net;
        let bytes = wire.wire_bytes(net.header_bytes);
        let (start, end) = self.node.hw.egress.transmit(&net, ready, bytes);
        self.g.charge_span(charge_as, wire.src, start, end);
        self.g.record(start, wire.src, wire.id, TraceKind::Inject);
        wire_handoff(&net, self.g, self.sim, wire, end);
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.nodes.len())
            .field("ni", &self.cfg.ni)
            .field("app_messages", &self.g.app_messages)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ni::NiKind;
    use crate::process::{HandlerSpec, Process, Script};
    use nisim_net::BufferCount;

    /// Node 0 sends `count` messages of `payload` bytes to node 1 and
    /// waits for `tag=1` echoes; node 1 echoes every message.
    pub(crate) struct Echoer {
        is_origin: bool,
        to_send: u32,
        echoes_left: u32,
        payload: u64,
        done: bool,
    }

    impl Process for Echoer {
        fn next_action(&mut self, _now: Time) -> Action {
            if !self.is_origin {
                return Action::Done;
            }
            if self.to_send > 0 {
                self.to_send -= 1;
                Action::Send(SendSpec::new(NodeId(1), self.payload, 0))
            } else if self.echoes_left > 0 {
                Action::Wait
            } else {
                self.done = true;
                Action::Done
            }
        }

        fn on_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
            if msg.tag == 0 {
                HandlerSpec::reply(Dur::ns(20), SendSpec::new(msg.src, 8, 1))
            } else {
                self.echoes_left -= 1;
                HandlerSpec::compute(Dur::ns(10))
            }
        }

        fn is_done(&self) -> bool {
            self.done || !self.is_origin
        }
    }

    pub(crate) fn echo_factory(count: u32, payload: u64) -> impl FnMut(NodeId) -> Box<dyn Process> {
        move |id| {
            Box::new(Echoer {
                is_origin: id.0 == 0,
                to_send: if id.0 == 0 { count } else { 0 },
                echoes_left: if id.0 == 0 { count } else { 0 },
                payload,
                done: false,
            })
        }
    }

    fn run_kind(kind: NiKind, buffers: BufferCount, count: u32, payload: u64) -> MachineReport {
        let cfg = MachineConfig::with_ni(kind).nodes(2).flow_buffers(buffers);
        Machine::run(cfg, echo_factory(count, payload))
    }

    #[test]
    fn echo_completes_on_every_ni_kind() {
        for kind in NiKind::ALL {
            let r = run_kind(kind, BufferCount::Finite(8), 4, 64);
            assert_eq!(r.status, SimStatus::Drained, "{kind}");
            assert!(r.all_quiescent, "{kind} not quiescent");
            assert_eq!(r.app_messages, 8, "{kind}: 4 pings + 4 echoes");
        }
    }

    #[test]
    fn single_buffer_still_completes() {
        for kind in [NiKind::Cm5, NiKind::Ap3000, NiKind::Cni32Qm] {
            let r = run_kind(kind, BufferCount::Finite(1), 8, 32);
            assert!(r.all_quiescent, "{kind}");
            assert_eq!(r.app_messages, 16);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_kind(NiKind::Cm5, BufferCount::Finite(2), 6, 100);
        let b = run_kind(NiKind::Cm5, BufferCount::Finite(2), 6, 100);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.bus_transactions, b.bus_transactions);
        assert_eq!(a.retries, b.retries);
    }

    #[test]
    fn accounting_covers_each_nodes_active_span() {
        let r = run_kind(NiKind::Ap3000, BufferCount::Finite(2), 4, 64);
        for ledger in &r.ledgers {
            // Each node's ledger must cover exactly the span up to its
            // last stamp, with all categories summing to it.
            assert_eq!(
                ledger.total(),
                ledger.stamp() - Time::ZERO,
                "ledger has holes"
            );
        }
    }

    #[test]
    fn fragmentation_round_trips_large_payloads() {
        // 1000 B payload -> 5 fragments each way, one app message each way.
        let r = run_kind(NiKind::Cni32Qm, BufferCount::Finite(8), 1, 1000);
        assert_eq!(r.app_messages, 2);
        assert_eq!(r.fragments_sent, 5 + 1);
        assert!(r.all_quiescent);
    }

    #[test]
    fn message_size_histogram_records_header_inclusive_sizes() {
        let r = run_kind(NiKind::Cm5, BufferCount::Finite(8), 3, 56);
        // 3 pings of 56+8 and 3 echoes of 8+8.
        assert_eq!(r.msg_sizes.count_of(64), 3);
        assert_eq!(r.msg_sizes.count_of(16), 3);
    }

    #[test]
    fn infinite_buffers_never_stall_or_reject() {
        let r = run_kind(NiKind::Cm5, BufferCount::Infinite, 16, 128);
        assert_eq!(r.send_stalls, 0);
        assert_eq!(r.recv_rejects, 0);
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn tight_buffers_cause_buffering_time() {
        let loose = run_kind(NiKind::Cm5, BufferCount::Infinite, 32, 200);
        let tight = run_kind(NiKind::Cm5, BufferCount::Finite(1), 32, 200);
        // With one buffer the sender must stall between injections; with
        // infinite buffers it never does. (Elapsed time can go either way
        // for this tiny two-node pattern — stalled senders drain echoes —
        // so the claim is about where the time is charged.)
        let tight_buf = tight.combined_ledger().get(TimeCategory::Buffering);
        let loose_buf = loose.combined_ledger().get(TimeCategory::Buffering);
        assert!(
            tight_buf > loose_buf,
            "tight {tight_buf} vs loose {loose_buf}"
        );
        assert!(tight.send_stalls > 0);
    }

    #[test]
    fn coherent_ni_insensitive_to_buffer_count() {
        // The Figure 3b property: StarT-JR-like NIs free flow buffers at
        // deposit, so B=1 vs B=8 barely matters.
        let b1 = run_kind(NiKind::StartJr, BufferCount::Finite(1), 16, 64);
        let b8 = run_kind(NiKind::StartJr, BufferCount::Finite(8), 16, 64);
        let ratio = b1.elapsed.as_ns() as f64 / b8.elapsed.as_ns() as f64;
        assert!(
            ratio < 1.25,
            "StarT-JR should be buffer-insensitive: {ratio}"
        );
    }

    #[test]
    fn trace_records_message_lifecycles() {
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(2);
        let (report, trace) = Machine::run_traced(cfg, echo_factory(3, 64));
        assert!(report.all_quiescent);
        // 3 pings + 3 echoes, one fragment each.
        let count = |k: TraceKind| trace.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(TraceKind::SendStart), 6);
        assert_eq!(count(TraceKind::Inject), 6);
        assert_eq!(count(TraceKind::Accept), 6);
        assert_eq!(count(TraceKind::Drain), 6);
        assert_eq!(count(TraceKind::Handler), 6);
        assert_eq!(count(TraceKind::Ack), 6);
        assert_eq!(count(TraceKind::Reject), 0);
        // Sorted by time, and each fragment's lifecycle is ordered.
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        let first = trace.iter().filter(|e| e.msg.0 == 0);
        let kinds: Vec<TraceKind> = first.map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                TraceKind::SendStart,
                TraceKind::Inject,
                TraceKind::Accept,
                TraceKind::Ack,
                TraceKind::Drain,
                TraceKind::Handler,
            ]
        );
    }

    #[test]
    fn trace_is_off_by_default() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(2);
        let mut machine = Machine::new(cfg, echo_factory(1, 8));
        assert!(machine.take_trace().is_none());
    }

    #[test]
    fn trace_captures_rejects_under_tight_buffers() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .flow_buffers(BufferCount::Finite(1));
        let (report, trace) = Machine::run_traced(cfg, echo_factory(16, 200));
        let rejects = trace.iter().filter(|e| e.kind == TraceKind::Reject).count() as u64;
        let returns = trace.iter().filter(|e| e.kind == TraceKind::Return).count() as u64;
        assert_eq!(rejects, report.recv_rejects);
        assert_eq!(returns, report.recv_rejects);
    }

    #[test]
    fn metrics_breakdown_sums_and_leaves_timing_unchanged() {
        use nisim_engine::metrics::{Component, MetricsConfig};
        let base = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .flow_buffers(BufferCount::Finite(8));
        let off = Machine::run(base.clone(), echo_factory(4, 64));
        let on = Machine::run(base.metrics(MetricsConfig::enabled()), echo_factory(4, 64));
        assert!(off.breakdown.is_none());
        assert!(off.trace.is_none());
        assert_eq!(off.elapsed, on.elapsed, "metrics must not change timing");
        assert_eq!(off.events, on.events);
        assert_eq!(off.bus_transactions, on.bus_transactions);
        let b = on.breakdown.expect("metrics-on run carries a breakdown");
        let sum: u64 = b.cycles.iter().map(|(_, ns)| ns).sum();
        assert_eq!(sum, b.cycles.total().as_ns(), "components sum to total");
        for c in [
            Component::ProcSend,
            Component::ProcRecv,
            Component::LinkSerialization,
            Component::NiResidency,
        ] {
            assert!(b.cycles.get(c) > Dur::ZERO, "{c} should be charged");
        }
        assert_eq!(b.cycles.get(Component::Retransmit), Dur::ZERO);
        // Loss-free: every sent fragment is drained exactly once, every
        // app message completes exactly once.
        assert_eq!(b.msg_rtt.count(), on.app_messages);
        assert_eq!(b.frag_queue.count(), on.fragments_sent);
        assert!(on.trace.is_none(), "spans need the trace switch");
    }

    #[test]
    fn traced_run_collects_spans() {
        use nisim_engine::metrics::MetricsConfig;
        let cfg = MachineConfig::with_ni(NiKind::Ap3000)
            .nodes(2)
            .metrics(MetricsConfig::traced());
        let r = Machine::run(cfg, echo_factory(2, 64));
        let sink = r.trace.expect("traced run carries spans");
        assert!(!sink.is_empty());
        assert!(sink.spans().iter().all(|s| s.end_ns >= s.start_ns));
        // The sink sees the machine-level spans; node-local bus/cache
        // charges are counters only, so span count < total charges.
        let b = r.breakdown.expect("trace implies metrics");
        assert!(!b.cycles.is_empty());
    }

    #[test]
    fn retransmissions_are_charged_to_the_retransmit_component() {
        use nisim_engine::metrics::{Component, MetricsConfig};
        use nisim_net::{FaultConfig, ReliabilityConfig};
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .fault(FaultConfig {
                drop_p: 0.3,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig::on())
            .metrics(MetricsConfig::enabled());
        let r = Machine::run(cfg, echo_factory(8, 64));
        assert!(r.rel_stats.retransmits > 0);
        let b = r.breakdown.expect("breakdown present");
        assert!(
            b.cycles.get(Component::Retransmit) > Dur::ZERO,
            "retransmit wire time must be accounted separately"
        );
    }

    #[test]
    fn default_run_has_clean_error_channel() {
        let r = run_kind(NiKind::Cm5, BufferCount::Finite(8), 4, 64);
        assert!(r.violations.is_empty());
        assert!(r.stall.is_none());
        assert_eq!(r.fault_stats, nisim_net::FaultStats::default());
        assert_eq!(r.rel_stats, nisim_net::RelStats::default());
    }

    #[test]
    fn drops_are_recovered_by_retransmission() {
        use nisim_net::{FaultConfig, ReliabilityConfig};
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .flow_buffers(BufferCount::Finite(8))
            .fault(FaultConfig {
                drop_p: 0.3,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig::on());
        let r = Machine::run(cfg, echo_factory(16, 64));
        assert_eq!(r.status, SimStatus::Drained);
        assert!(r.all_quiescent, "retransmits must recover every drop");
        assert_eq!(r.app_messages, 32, "16 pings + 16 echoes, exactly once");
        assert!(r.fault_stats.dropped > 0, "{:?}", r.fault_stats);
        assert!(r.rel_stats.retransmits > 0, "{:?}", r.rel_stats);
        assert!(r.violations.is_empty());
    }

    #[test]
    fn duplication_delivers_exactly_once() {
        use nisim_net::{FaultConfig, ReliabilityConfig};
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .flow_buffers(BufferCount::Finite(8))
            .fault(FaultConfig {
                dup_p: 0.5,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig::on());
        let r = Machine::run(cfg, echo_factory(12, 64));
        assert!(r.all_quiescent);
        assert_eq!(r.app_messages, 24, "duplicates must be suppressed");
        assert!(r.fault_stats.duplicated > 0);
        assert!(r.rel_stats.dup_discards > 0, "{:?}", r.rel_stats);
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        use nisim_net::{FaultConfig, ReliabilityConfig};
        let cfg = MachineConfig::with_ni(NiKind::Ap3000)
            .nodes(2)
            .fault(FaultConfig {
                corrupt_p: 0.4,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig::on());
        let r = Machine::run(cfg, echo_factory(12, 64));
        assert!(r.all_quiescent);
        assert_eq!(r.app_messages, 24);
        assert!(r.rel_stats.corrupt_discards > 0, "{:?}", r.rel_stats);
    }

    #[test]
    fn faulty_runs_are_deterministic_for_a_fixed_seed() {
        use nisim_net::{FaultConfig, ReliabilityConfig};
        let run = || {
            let cfg = MachineConfig::with_ni(NiKind::Cm5)
                .nodes(2)
                .fault(FaultConfig {
                    drop_p: 0.2,
                    dup_p: 0.1,
                    jitter_max: Dur::ns(30),
                    seed: 99,
                    ..FaultConfig::default()
                })
                .reliability(ReliabilityConfig::on());
            Machine::run(cfg, echo_factory(10, 64))
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.rel_stats, b.rel_stats);
        assert_eq!(a.app_messages, b.app_messages);
    }

    #[test]
    fn total_loss_exhausts_retry_cap_and_reports_stall() {
        use crate::error::{ProtocolViolation, StallReason};
        use nisim_net::{FaultConfig, ReliabilityConfig};
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .fault(FaultConfig {
                drop_p: 1.0,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig {
                enabled: true,
                max_retries: 3,
                ..ReliabilityConfig::default()
            });
        let r = Machine::run(cfg, echo_factory(1, 64));
        assert_eq!(
            r.status,
            SimStatus::Stalled,
            "must not report a clean drain"
        );
        assert!(!r.all_quiescent);
        assert_eq!(r.app_messages, 0);
        assert_eq!(r.rel_stats.gave_up, 1);
        assert!(r.violations.iter().any(|v| matches!(
            v.kind,
            ProtocolViolation::RetryCapExhausted { attempts: 3, .. }
        )));
        let stall = r.stall.expect("stall report must be attached");
        assert_eq!(stall.reason, StallReason::WedgedNotQuiescent);
        let wedged: Vec<_> = stall.wedged_endpoints().collect();
        assert!(
            wedged
                .iter()
                .any(|e| e.node == NodeId(0) && e.outstanding == 1 && e.gave_up == 1),
            "sender must show its abandoned fragment: {stall}"
        );
    }

    #[test]
    fn retransmit_churn_trips_the_no_progress_watchdog() {
        use crate::error::StallReason;
        use nisim_net::{FaultConfig, ReliabilityConfig};
        // An effectively unbounded retry cap: the sender retransmits
        // forever into a black hole. The watchdog must cut the run off
        // after one progress-free window instead of spinning to the
        // event budget.
        let cfg = MachineConfig::with_ni(NiKind::Cm5)
            .nodes(2)
            .fault(FaultConfig {
                drop_p: 1.0,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig {
                enabled: true,
                max_retries: 1_000_000,
                ..ReliabilityConfig::default()
            })
            .watchdog_window(Dur::us(200));
        let r = Machine::run(cfg, echo_factory(1, 64));
        assert_eq!(r.status, SimStatus::Stalled);
        let stall = r.stall.expect("stall report must be attached");
        assert_eq!(
            stall.reason,
            StallReason::NoProgress {
                window: Dur::us(200)
            }
        );
        assert!(r.rel_stats.retransmits > 0);
        // Cut off promptly: a handful of backoff doublings, not seconds.
        assert!(r.elapsed < Dur::ms(2), "elapsed {:?}", r.elapsed);
    }

    #[test]
    fn past_schedule_is_recorded_not_fatal() {
        // A buggy timing model asking for an event in the past must
        // surface as a recorded violation (and a dropped event), not
        // abort the run.
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(2);
        let mut machine = Machine::new(cfg, echo_factory(1, 8));
        let mut sim = MachineSim::new();
        machine.start(&mut sim);
        let status = sim.run(&mut machine);
        assert_eq!(status, SimStatus::Drained);
        let now = sim.now();
        assert!(now > Time::ZERO);
        Machine::sched(
            &mut machine,
            &mut sim,
            Time::ZERO,
            MachineEvent::ProcRun { node: 0 },
        );
        assert_eq!(sim.pending(), 0, "the past event must be dropped");
        assert!(
            machine.violations().iter().any(|v| v.kind
                == ProtocolViolation::EventScheduledInPast {
                    at: Time::ZERO,
                    now
                }),
            "violation channel must record the bad schedule: {:?}",
            machine.violations()
        );
        // The run can continue and the report carries the diagnostic.
        let status = sim.run(&mut machine);
        let report = machine.report(&sim, status);
        assert!(!report.violations.is_empty());
    }

    #[test]
    fn report_counts_scheduler_events() {
        let r = run_kind(NiKind::Cm5, BufferCount::Finite(8), 4, 64);
        // Every fragment involves at least a send, arrival, deposit and
        // ack event, so the event count strictly exceeds the fragment
        // count; and it is deterministic.
        assert!(r.events > r.fragments_sent, "{} events", r.events);
        let again = run_kind(NiKind::Cm5, BufferCount::Finite(8), 4, 64);
        assert_eq!(r.events, again.events);
    }

    #[test]
    #[should_panic(expected = "send to itself")]
    fn self_send_is_rejected() {
        let cfg = MachineConfig::default().nodes(2);
        Machine::run(cfg, |_| {
            let send = Action::Send(SendSpec::new(NodeId(0), 8, 0));
            Box::new(Script::new([send], Dur::ZERO))
        });
    }
}

#[cfg(test)]
mod latency_tests {
    use super::tests::echo_factory;
    use super::*;
    use crate::ni::NiKind;
    use nisim_net::BufferCount;

    #[test]
    fn message_latency_is_recorded_per_app_message() {
        let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(2);
        let r = Machine::run(cfg, echo_factory(5, 64));
        assert_eq!(r.msg_latency.count(), r.app_messages);
        // One-way latency of a 64 B message is sub-5 µs on this design.
        assert!(r.msg_latency.mean() > 100.0);
        assert!(r.msg_latency.max() < 20_000.0, "{:?}", r.msg_latency);
    }

    #[test]
    fn deep_buffering_trades_stalls_for_queueing_delay() {
        // With infinite buffers an open-loop burst queues up at the
        // receiver, so per-message latency grows with queue depth
        // (Little's law); with one buffer the sender stalls instead and
        // each message's network latency stays near the unloaded value.
        let tight = Machine::run(
            MachineConfig::with_ni(NiKind::Cm5)
                .nodes(2)
                .flow_buffers(BufferCount::Finite(1)),
            echo_factory(24, 200),
        );
        let loose = Machine::run(
            MachineConfig::with_ni(NiKind::Cm5)
                .nodes(2)
                .flow_buffers(BufferCount::Infinite),
            echo_factory(24, 200),
        );
        assert_eq!(tight.msg_latency.count(), loose.msg_latency.count());
        assert!(
            loose.msg_latency.max() > 2.0 * loose.msg_latency.min(),
            "queueing should spread the loose latency distribution: {:?}",
            loose.msg_latency
        );
        assert!(
            loose.msg_latency.max() > tight.msg_latency.min(),
            "deep buffering must show queueing delay"
        );
    }
}
