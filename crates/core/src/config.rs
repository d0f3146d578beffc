//! Machine configuration (Table 3 of the paper).
//!
//! [`MachineConfig::default`] reproduces the paper's system parameters
//! exactly; the builder methods support the sensitivity sweeps in the
//! benchmark harness.

use nisim_engine::metrics::MetricsConfig;
use nisim_engine::Dur;
use nisim_mem::{BusConfig, CacheConfig};
use nisim_net::{BufferCount, FaultConfig, NetConfig, ReliabilityConfig};

use crate::costs::CostModel;
use crate::ni::NiKind;

/// Full configuration of the simulated parallel machine.
#[derive(Clone)]
pub struct MachineConfig {
    /// Number of nodes. 16 per Table 3.
    pub nodes: u32,
    /// CPU clock period; 1 ns = 1 GHz per Table 3.
    pub cpu_period: Dur,
    /// Processor cache geometry (1 MB direct-mapped, 64 B blocks).
    pub cache: CacheConfig,
    /// Memory bus geometry (256-bit, 250 MHz, MOESI).
    pub bus: BusConfig,
    /// Main memory access time; 120 ns.
    pub main_memory_latency: Dur,
    /// Dedicated NI memory access time; 60 ns (the `CNI_512Q` model
    /// overrides this with 120 ns DRAM itself).
    pub ni_memory_latency: Dur,
    /// Latency for a snooping cache to supply a block cache-to-cache.
    pub cache_to_cache_latency: Dur,
    /// Network geometry and timing (40 ns, 256 B messages, 8 B headers).
    pub net: NetConfig,
    /// Which NI design each node uses.
    pub ni: NiKind,
    /// Flow-control buffers per direction per NI.
    pub flow_buffers: BufferCount,
    /// Initial retry backoff after a returned message.
    pub retry_backoff: Dur,
    /// Maximum retry backoff (exponential doubling is capped here).
    pub retry_backoff_max: Dur,
    /// Messaging-layer software costs.
    pub costs: CostModel,
    /// `CNI_32Q_m` cache size per queue, in blocks (paper: 32). Sweeping
    /// this towards 512 bridges `CNI_32Q_m` and `CNI_512Q`.
    pub cni_cache_blocks: u32,
    /// `CNI_512Q` queue size, in blocks (paper: 512).
    pub cni_queue_blocks: u32,
    /// Receive-cache bypass improvement of `CNI_32Q_m` (§4, improvement
    /// 1); off only for ablation.
    pub cni_bypass: bool,
    /// Snoop-triggered send-side prefetch of the CNIs (lazy pointer,
    /// §6.1.1); off only for ablation — without it the NI fetches every
    /// message block serially after the tail update.
    pub cni_prefetch: bool,
    /// Dead-block head-update improvement of `CNI_32Q_m` (§4, improvement
    /// 2); off only for ablation.
    pub cni_dead_block_opt: bool,
    /// Queue-pair contexts the RDMA NI's on-chip QP-state cache holds
    /// (LRU). Connection counts beyond this thrash the cache — the
    /// state-capacity cliff the connection-count sweep exposes.
    pub qp_cache_entries: u32,
    /// Seed for workload randomness.
    pub seed: u64,
    /// Record a message-lifecycle trace (see
    /// [`TraceEvent`](crate::machine::TraceEvent)). Off by default: traces
    /// grow with traffic.
    pub trace: bool,
    /// Fault injection on the data network (drops, duplication,
    /// corruption, jitter, outages). Inert by default: a default-config
    /// run executes the exact same event sequence as one without the
    /// fault layer.
    pub fault: FaultConfig,
    /// End-to-end reliability (sequence numbers, ack-timeout
    /// retransmission, receiver dedup). Disabled by default.
    pub reliability: ReliabilityConfig,
    /// No-progress watchdog window: if events keep firing for this much
    /// simulated time without any forward progress (accepts, drains,
    /// acks, program steps), the run is reported as
    /// [`SimStatus::Stalled`](nisim_engine::SimStatus::Stalled) with a
    /// diagnostic [`StallReport`](crate::error::StallReport). Event-free
    /// gaps (long computes) never trip it.
    pub watchdog_window: Dur,
    /// Observability switches (per-component cycle metrics and the span
    /// trace sink). Off by default, purely observational, and excluded
    /// from the `Debug` rendering so config fingerprints — and therefore
    /// the committed goldens — are unaffected by observability settings.
    pub metrics: MetricsConfig,
}

impl std::fmt::Debug for MachineConfig {
    /// Renders exactly like the derived impl did before `metrics` was
    /// added (same fields, same order, `metrics` omitted): the sweep
    /// fingerprint hashes this rendering, and enabling observability must
    /// never change a record's identity.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineConfig")
            .field("nodes", &self.nodes)
            .field("cpu_period", &self.cpu_period)
            .field("cache", &self.cache)
            .field("bus", &self.bus)
            .field("main_memory_latency", &self.main_memory_latency)
            .field("ni_memory_latency", &self.ni_memory_latency)
            .field("cache_to_cache_latency", &self.cache_to_cache_latency)
            .field("net", &self.net)
            .field("ni", &self.ni)
            .field("flow_buffers", &self.flow_buffers)
            .field("retry_backoff", &self.retry_backoff)
            .field("retry_backoff_max", &self.retry_backoff_max)
            .field("costs", &self.costs)
            .field("cni_cache_blocks", &self.cni_cache_blocks)
            .field("cni_queue_blocks", &self.cni_queue_blocks)
            .field("cni_bypass", &self.cni_bypass)
            .field("cni_prefetch", &self.cni_prefetch)
            .field("cni_dead_block_opt", &self.cni_dead_block_opt)
            .field("qp_cache_entries", &self.qp_cache_entries)
            .field("seed", &self.seed)
            .field("trace", &self.trace)
            .field("fault", &self.fault)
            .field("reliability", &self.reliability)
            .field("watchdog_window", &self.watchdog_window)
            .finish()
    }
}

impl Default for MachineConfig {
    /// The paper's Table 3 configuration with a CM-5-like NI and 8 flow
    /// control buffers (the baseline of Table 5).
    fn default() -> Self {
        MachineConfig {
            nodes: 16,
            cpu_period: Dur::ns(1),
            cache: CacheConfig::default(),
            bus: BusConfig::default(),
            main_memory_latency: Dur::ns(120),
            ni_memory_latency: Dur::ns(60),
            cache_to_cache_latency: Dur::ns(30),
            net: NetConfig::default(),
            ni: NiKind::Cm5,
            flow_buffers: BufferCount::Finite(8),
            retry_backoff: Dur::ns(200),
            retry_backoff_max: Dur::ns(800),
            costs: CostModel::default(),
            cni_cache_blocks: 32,
            cni_queue_blocks: 512,
            cni_bypass: true,
            cni_prefetch: true,
            cni_dead_block_opt: true,
            qp_cache_entries: 64,
            seed: 0x5eed,
            trace: false,
            fault: FaultConfig::default(),
            reliability: ReliabilityConfig::default(),
            watchdog_window: Dur::ms(1),
            metrics: MetricsConfig::default(),
        }
    }
}

impl MachineConfig {
    /// Configuration with the given NI design, otherwise Table 3 defaults.
    pub fn with_ni(ni: NiKind) -> MachineConfig {
        MachineConfig {
            ni,
            ..MachineConfig::default()
        }
    }

    /// Sets the number of nodes.
    pub fn nodes(mut self, nodes: u32) -> MachineConfig {
        assert!(nodes >= 2, "a parallel machine needs at least two nodes");
        self.nodes = nodes;
        self
    }

    /// Sets the flow-control buffer count.
    pub fn flow_buffers(mut self, buffers: BufferCount) -> MachineConfig {
        self.flow_buffers = buffers;
        self
    }

    /// Sets the RDMA NI's QP-state cache capacity.
    pub fn qp_cache_entries(mut self, entries: u32) -> MachineConfig {
        assert!(entries >= 1, "the QP cache needs at least one entry");
        self.qp_cache_entries = entries;
        self
    }

    /// Sets the workload seed.
    pub fn seed(mut self, seed: u64) -> MachineConfig {
        self.seed = seed;
        self
    }

    /// Sets the fault-injection configuration.
    pub fn fault(mut self, fault: FaultConfig) -> MachineConfig {
        self.fault = fault;
        self
    }

    /// Sets the reliability-layer configuration.
    pub fn reliability(mut self, reliability: ReliabilityConfig) -> MachineConfig {
        self.reliability = reliability;
        self
    }

    /// Sets the no-progress watchdog window.
    pub fn watchdog_window(mut self, window: Dur) -> MachineConfig {
        self.watchdog_window = window;
        self
    }

    /// Sets the observability switches.
    pub fn metrics(mut self, metrics: MetricsConfig) -> MachineConfig {
        self.metrics = metrics;
        self
    }

    /// This configuration as the micro-benchmarks run it: Table 5
    /// characterises the pure UDMA mechanism, so the UDMA-based NI never
    /// switches to uncached transfers for small messages. Every other
    /// design is unchanged.
    pub fn for_microbenchmark(mut self) -> MachineConfig {
        if self.ni == NiKind::Udma {
            self.costs = self.costs.pure_udma();
        }
        self
    }

    /// Duration of `cycles` CPU cycles.
    pub fn cpu_cycles(&self, cycles: u64) -> Dur {
        Dur::cycles(cycles, self.cpu_period.as_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let cfg = MachineConfig::default();
        assert_eq!(cfg.nodes, 16);
        assert_eq!(cfg.cpu_period, Dur::ns(1));
        assert_eq!(cfg.cache.size_bytes, 1 << 20);
        assert_eq!(cfg.cache.ways, 1);
        assert_eq!(cfg.cache.block_bytes, 64);
        assert_eq!(cfg.bus.clock_period, Dur::ns(4));
        assert_eq!(cfg.bus.width_bytes, 32);
        assert_eq!(cfg.main_memory_latency, Dur::ns(120));
        assert_eq!(cfg.ni_memory_latency, Dur::ns(60));
        assert_eq!(cfg.net.wire_latency, Dur::ns(40));
        assert_eq!(cfg.net.max_message_bytes, 256);
        assert_eq!(cfg.flow_buffers, BufferCount::Finite(8));
    }

    #[test]
    fn builder_chains() {
        let cfg = MachineConfig::with_ni(NiKind::Ap3000)
            .nodes(4)
            .flow_buffers(BufferCount::Infinite)
            .seed(7);
        assert_eq!(cfg.ni, NiKind::Ap3000);
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.flow_buffers, BufferCount::Infinite);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn cpu_cycles_at_1ghz() {
        assert_eq!(MachineConfig::default().cpu_cycles(250), Dur::ns(250));
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        MachineConfig::default().nodes(1);
    }

    #[test]
    fn debug_rendering_ignores_metrics() {
        // The fingerprint hashes the Debug rendering, so observability
        // settings must be invisible to it.
        let off = MachineConfig::default();
        let on = MachineConfig::default().metrics(MetricsConfig::traced());
        assert!(on.metrics.any());
        assert_eq!(format!("{off:?}"), format!("{on:?}"));
        assert!(!format!("{off:?}").contains("metrics"));
    }

    #[test]
    fn fault_and_reliability_default_off() {
        let cfg = MachineConfig::default();
        assert!(!cfg.fault.is_active());
        assert!(!cfg.reliability.enabled);
        assert_eq!(cfg.watchdog_window, Dur::ms(1));
    }

    #[test]
    fn fault_builders_chain() {
        let cfg = MachineConfig::default()
            .fault(FaultConfig {
                drop_p: 0.05,
                ..FaultConfig::default()
            })
            .reliability(ReliabilityConfig::on())
            .watchdog_window(Dur::us(500));
        assert!(cfg.fault.is_active());
        assert!(cfg.reliability.enabled);
        assert_eq!(cfg.watchdog_window, Dur::us(500));
    }
}
