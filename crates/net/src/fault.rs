//! Deterministic fault injection for the network substrate.
//!
//! The paper's network abstraction (§5.1.2) is loss-free: every injected
//! message arrives after a constant latency. A [`FaultPlan`] perturbs
//! that ideal wire — dropping, duplicating, corrupting, or delaying
//! messages, and blacking out links over scheduled windows — so the
//! reliability layer ([`crate::reliability`]) and the machine's
//! retransmit machinery can be exercised and measured.
//!
//! Everything is driven by one seedable [`SplitMix64`] stream. Because
//! the simulator itself is deterministic, the sequence of calls into the
//! plan is deterministic too, so a given seed reproduces the exact same
//! fault schedule run after run.

use std::collections::BTreeMap;
use std::fmt;

use nisim_engine::codec::{ensure, State};
use nisim_engine::{Dur, SplitMix64, Time};

use crate::msg::NodeId;

/// A scheduled window during which a link (or the whole fabric) is down.
///
/// Messages injected while a window is active are silently dropped —
/// they never reach the destination, exactly like a cable pull.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DownWindow {
    /// First instant of the outage (inclusive).
    pub start: Time,
    /// End of the outage (exclusive).
    pub end: Time,
    /// Restrict the outage to traffic touching this node; `None` takes
    /// the whole fabric down.
    pub node: Option<NodeId>,
}

impl DownWindow {
    /// A whole-fabric outage over `[start, end)`.
    pub fn fabric(start: Time, end: Time) -> Self {
        DownWindow {
            start,
            end,
            node: None,
        }
    }

    /// True if a message from `src` to `dst` injected at `now` is lost
    /// to this outage.
    pub fn swallows(&self, now: Time, src: NodeId, dst: NodeId) -> bool {
        if now < self.start || now >= self.end {
            return false;
        }
        match self.node {
            None => true,
            Some(n) => n == src || n == dst,
        }
    }
}

/// A scheduled node crash: over `[start, end)` the node is dead — all
/// traffic touching it is lost, and at `start` the machine discards the
/// node's in-flight NI state (receive queue, partially assembled
/// transfers). Unlike a [`DownWindow`], which only silences the wire, a
/// crash also wipes volatile state, so recovery exercises the
/// retransmit/dedup path end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// First instant of the crash (inclusive).
    pub start: Time,
    /// End of the crash — the node warm-restarts here (exclusive).
    pub end: Time,
    /// The node that crashes.
    pub node: NodeId,
}

impl CrashWindow {
    /// True if a message from `src` to `dst` injected at `now` is lost
    /// because one endpoint is crashed.
    pub fn swallows(&self, now: Time, src: NodeId, dst: NodeId) -> bool {
        now >= self.start && now < self.end && (self.node == src || self.node == dst)
    }
}

/// Knobs of the fault model. All default to "off": the default config
/// injects no faults and perturbs nothing.
#[derive(Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that a message vanishes in flight.
    pub drop_p: f64,
    /// Probability that a message is delivered twice.
    pub dup_p: f64,
    /// Probability that a message arrives with a corrupted payload. A
    /// corrupted message still consumes wire and ejection bandwidth; the
    /// receiver detects it (checksum) and discards it, so end-to-end it
    /// behaves like a late drop.
    pub corrupt_p: f64,
    /// Maximum extra latency added to a delivery, drawn uniformly from
    /// `[0, jitter_max]`.
    pub jitter_max: Dur,
    /// Scheduled outages.
    pub down: Vec<DownWindow>,
    /// Per-link drop probability overrides, keyed by `(src, dst)`. Links
    /// without an entry use [`drop_p`](FaultConfig::drop_p).
    pub link_drop: BTreeMap<(NodeId, NodeId), f64>,
    /// Scheduled node crashes.
    pub crash: Vec<CrashWindow>,
    /// Seed of the fault stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_p: 0.0,
            dup_p: 0.0,
            corrupt_p: 0.0,
            jitter_max: Dur::ZERO,
            down: Vec::new(),
            link_drop: BTreeMap::new(),
            crash: Vec::new(),
            seed: 0xFA_17,
        }
    }
}

impl fmt::Debug for FaultConfig {
    /// Hand-rolled so the representation — which feeds the config
    /// fingerprint guarding checkpoints and golden records — is stable:
    /// the `crash` field only appears when crashes are scheduled, keeping
    /// crash-free configs byte-identical to those of builds that predate
    /// the field.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("FaultConfig");
        d.field("drop_p", &self.drop_p)
            .field("dup_p", &self.dup_p)
            .field("corrupt_p", &self.corrupt_p)
            .field("jitter_max", &self.jitter_max)
            .field("down", &self.down)
            .field("link_drop", &self.link_drop);
        if !self.crash.is_empty() {
            d.field("crash", &self.crash);
        }
        d.field("seed", &self.seed).finish()
    }
}

impl FaultConfig {
    /// True if any knob can actually perturb traffic. When inactive the
    /// machine skips the fault layer entirely, so default-configured
    /// runs execute the exact same event sequence as a build without
    /// fault injection.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0
            || self.dup_p > 0.0
            || self.corrupt_p > 0.0
            || self.jitter_max > Dur::ZERO
            || !self.down.is_empty()
            || !self.crash.is_empty()
            || self.link_drop.values().any(|&p| p > 0.0)
    }

    /// Effective drop probability on the `src -> dst` link.
    pub fn drop_p_for(&self, src: NodeId, dst: NodeId) -> f64 {
        self.link_drop
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.drop_p)
    }
}

/// One physical delivery of an injected message (a duplicated message
/// yields two of these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Extra latency beyond the configured wire latency.
    pub extra_delay: Dur,
    /// True if the payload was corrupted in flight; the receiver must
    /// discard it after ejection.
    pub corrupted: bool,
}

/// The physical deliveries of one injected message — none (lost), one,
/// or two (duplicated) — held inline, so deciding a message's fate never
/// allocates. Derefs to the slice of [`Delivery`] values; a slot past
/// the length is never written, so comparing the whole value compares
/// the slices.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deliveries {
    slots: [Delivery; 2],
    len: u8,
}

impl Deliveries {
    fn push(&mut self, d: Delivery) {
        self.slots[usize::from(self.len)] = d;
        self.len += 1;
    }
}

impl std::ops::Deref for Deliveries {
    type Target = [Delivery];

    fn deref(&self) -> &[Delivery] {
        &self.slots[..usize::from(self.len)]
    }
}

impl IntoIterator for Deliveries {
    type Item = Delivery;
    type IntoIter = std::iter::Take<std::array::IntoIter<Delivery, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().take(usize::from(self.len))
    }
}

/// Counters of what the fault layer did to traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages offered to the fault layer.
    pub offered: u64,
    /// Messages dropped by the random drop draw.
    pub dropped: u64,
    /// Messages swallowed by a scheduled outage.
    pub blackholed: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Deliveries whose payload was corrupted.
    pub corrupted: u64,
    /// Deliveries that received nonzero jitter.
    pub jittered: u64,
}

impl FaultStats {
    /// Messages that never produced a clean delivery (dropped,
    /// blackholed — corruption is counted at the receiver).
    pub fn lost(&self) -> u64 {
        self.dropped + self.blackholed
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered {} dropped {} blackholed {} duplicated {} corrupted {} jittered {}",
            self.offered,
            self.dropped,
            self.blackholed,
            self.duplicated,
            self.corrupted,
            self.jittered
        )
    }
}

/// The stateful fault injector: a [`FaultConfig`] plus the PRNG stream
/// and counters. One plan serves the whole machine.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
    /// Messages swallowed by a scheduled outage or crash, per source
    /// node — lets the stall report say *whose* traffic an outage ate.
    swallowed: BTreeMap<NodeId, u64>,
}

impl FaultPlan {
    /// Builds a plan; the PRNG is seeded from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = SplitMix64::new(cfg.seed);
        FaultPlan {
            cfg,
            rng,
            stats: FaultStats::default(),
            swallowed: BTreeMap::new(),
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True if the plan can perturb traffic at all.
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Messages from `src` swallowed by scheduled outages or crashes
    /// so far.
    pub fn swallowed_from(&self, src: NodeId) -> u64 {
        self.swallowed.get(&src).copied().unwrap_or(0)
    }

    /// The source nodes with traffic swallowed so far, ascending.
    pub fn swallowed_sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.swallowed.keys().copied()
    }

    /// Decides the fate of a message injected at `now` on `src -> dst`.
    ///
    /// Returns the physical deliveries the wire should perform: none
    /// means the message was lost, two mean it was duplicated. Each
    /// delivery carries its own jitter and corruption verdict.
    pub fn deliveries(&mut self, now: Time, src: NodeId, dst: NodeId) -> Deliveries {
        self.stats.offered += 1;
        let mut out = Deliveries::default();
        if !self.cfg.is_active() {
            out.push(Delivery::default());
            return out;
        }
        if self.cfg.down.iter().any(|w| w.swallows(now, src, dst))
            || self.cfg.crash.iter().any(|c| c.swallows(now, src, dst))
        {
            self.stats.blackholed += 1;
            *self.swallowed.entry(src).or_insert(0) += 1;
            return out;
        }
        let drop_p = self.cfg.drop_p_for(src, dst);
        if drop_p > 0.0 && self.rng.gen_bool(drop_p) {
            self.stats.dropped += 1;
            return out;
        }
        out.push(self.one_delivery());
        if self.cfg.dup_p > 0.0 && self.rng.gen_bool(self.cfg.dup_p) {
            self.stats.duplicated += 1;
            out.push(self.one_delivery());
        }
        out
    }

    fn one_delivery(&mut self) -> Delivery {
        let corrupted = self.cfg.corrupt_p > 0.0 && self.rng.gen_bool(self.cfg.corrupt_p);
        if corrupted {
            self.stats.corrupted += 1;
        }
        let extra_delay = if self.cfg.jitter_max > Dur::ZERO {
            let span = self.cfg.jitter_max.as_ns() + 1;
            let j = Dur::ns(self.rng.gen_range(span));
            if j > Dur::ZERO {
                self.stats.jittered += 1;
            }
            j
        } else {
            Dur::ZERO
        };
        Delivery {
            extra_delay,
            corrupted,
        }
    }
}

/// The PRNG position, the counters and the per-source swallow map. The
/// config is not included: the restoring side builds the plan from the
/// same [`FaultConfig`]. The counters must agree with each other the
/// way [`FaultPlan::deliveries`] moves them.
impl State for FaultPlan {
    nisim_engine::state_fields! {
        {
            rng, offered: stats.offered, dropped: stats.dropped, blackholed: stats.blackholed,
            duplicated: stats.duplicated, corrupted: stats.corrupted, jittered: stats.jittered,
            swallowed
        }
        check |p: &FaultPlan| {
            let s = p.stats;
            let swallowed = p.swallowed.values().try_fold(0u64, |sum, &n| sum.checked_add(n));
            ensure(swallowed == Some(s.blackholed), "swallow map does not sum to blackholed")?;
            let passed = s.offered.checked_sub(s.lost()).filter(|&n| s.duplicated <= n);
            let deliveries = passed.and_then(|n| n.checked_add(s.duplicated));
            ensure(
                deliveries.is_some_and(|d| s.corrupted <= d && s.jittered <= d),
                "fault counters exceed the messages offered",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        let mut plan = FaultPlan::new(cfg);
        for i in 0..100 {
            let d = plan.deliveries(Time::from_ns(i), A, B);
            assert_eq!(*d, [Delivery::default()]);
        }
        assert_eq!(plan.stats().lost(), 0);
        assert_eq!(plan.stats().offered, 100);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            drop_p: 0.3,
            dup_p: 0.2,
            corrupt_p: 0.1,
            jitter_max: Dur::ns(50),
            ..FaultConfig::default()
        };
        let mut p1 = FaultPlan::new(cfg.clone());
        let mut p2 = FaultPlan::new(cfg);
        for i in 0..500 {
            let now = Time::from_ns(i * 13);
            assert_eq!(p1.deliveries(now, A, B), p2.deliveries(now, A, B));
        }
        assert_eq!(p1.stats(), p2.stats());
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let cfg = FaultConfig {
            drop_p: 0.25,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        let mut lost = 0u64;
        for i in 0..4000 {
            if plan.deliveries(Time::from_ns(i), A, B).is_empty() {
                lost += 1;
            }
        }
        assert!((800..1200).contains(&lost), "lost {lost} of 4000");
        assert_eq!(plan.stats().dropped, lost);
    }

    #[test]
    fn down_window_swallows_everything_in_span() {
        let cfg = FaultConfig {
            down: vec![DownWindow::fabric(Time::from_ns(100), Time::from_ns(200))],
            ..FaultConfig::default()
        };
        assert!(cfg.is_active());
        let mut plan = FaultPlan::new(cfg);
        assert!(!plan.deliveries(Time::from_ns(99), A, B).is_empty());
        assert!(plan.deliveries(Time::from_ns(100), A, B).is_empty());
        assert!(plan.deliveries(Time::from_ns(199), A, B).is_empty());
        assert!(!plan.deliveries(Time::from_ns(200), A, B).is_empty());
        assert_eq!(plan.stats().blackholed, 2);
    }

    #[test]
    fn node_scoped_window_spares_other_links() {
        let w = DownWindow {
            start: Time::ZERO,
            end: Time::from_ns(1000),
            node: Some(B),
        };
        assert!(w.swallows(Time::from_ns(5), A, B));
        assert!(w.swallows(Time::from_ns(5), B, A));
        assert!(!w.swallows(Time::from_ns(5), A, NodeId(2)));
    }

    #[test]
    fn per_link_override_beats_global() {
        let mut link_drop = BTreeMap::new();
        link_drop.insert((A, B), 1.0);
        let cfg = FaultConfig {
            drop_p: 0.0,
            link_drop,
            ..FaultConfig::default()
        };
        assert!(cfg.is_active());
        assert_eq!(cfg.drop_p_for(A, B), 1.0);
        assert_eq!(cfg.drop_p_for(B, A), 0.0);
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.deliveries(Time::ZERO, A, B).is_empty());
        assert!(!plan.deliveries(Time::ZERO, B, A).is_empty());
    }

    #[test]
    fn duplication_yields_two_deliveries() {
        let cfg = FaultConfig {
            dup_p: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        let d = plan.deliveries(Time::ZERO, A, B);
        assert_eq!(d.len(), 2);
        assert_eq!(plan.stats().duplicated, 1);
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let cfg = FaultConfig {
            jitter_max: Dur::ns(64),
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        for i in 0..1000 {
            for d in plan.deliveries(Time::from_ns(i), A, B) {
                assert!(d.extra_delay <= Dur::ns(64));
            }
        }
        assert!(plan.stats().jittered > 0);
    }

    #[test]
    fn crash_window_swallows_and_counts_per_source() {
        let cfg = FaultConfig {
            crash: vec![CrashWindow {
                start: Time::from_ns(100),
                end: Time::from_ns(200),
                node: B,
            }],
            ..FaultConfig::default()
        };
        assert!(cfg.is_active());
        let mut plan = FaultPlan::new(cfg);
        assert!(!plan.deliveries(Time::from_ns(99), A, B).is_empty());
        assert!(plan.deliveries(Time::from_ns(100), A, B).is_empty());
        assert!(plan.deliveries(Time::from_ns(150), B, A).is_empty());
        assert!(!plan.deliveries(Time::from_ns(150), A, NodeId(2)).is_empty());
        assert!(!plan.deliveries(Time::from_ns(200), A, B).is_empty());
        assert_eq!(plan.stats().blackholed, 2);
        assert_eq!(plan.swallowed_from(A), 1);
        assert_eq!(plan.swallowed_from(B), 1);
    }

    #[test]
    fn debug_repr_omits_empty_crash_list() {
        // The Debug form feeds the config fingerprint; a crash-free
        // config must render exactly as it did before the field existed.
        let plain = format!("{:?}", FaultConfig::default());
        assert!(!plain.contains("crash"));
        let crashing = format!(
            "{:?}",
            FaultConfig {
                crash: vec![CrashWindow {
                    start: Time::ZERO,
                    end: Time::from_ns(1),
                    node: A,
                }],
                ..FaultConfig::default()
            }
        );
        assert!(crashing.contains("crash"));
        assert_ne!(plain, crashing);
    }

    #[test]
    fn plan_snapshot_resumes_rng_stream() {
        let cfg = FaultConfig {
            drop_p: 0.3,
            dup_p: 0.2,
            corrupt_p: 0.1,
            jitter_max: Dur::ns(50),
            down: vec![DownWindow::fabric(Time::from_ns(40), Time::from_ns(80))],
            ..FaultConfig::default()
        };
        let mut golden = FaultPlan::new(cfg.clone());
        let mut cut = FaultPlan::new(cfg.clone());
        for i in 0..200 {
            let now = Time::from_ns(i * 7);
            golden.deliveries(now, A, B);
            cut.deliveries(now, A, B);
        }
        let snap = cut.snapshot();
        let mut resumed = FaultPlan::new(cfg);
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.stats(), cut.stats());
        for i in 200..400 {
            let now = Time::from_ns(i * 7);
            assert_eq!(golden.deliveries(now, A, B), resumed.deliveries(now, A, B));
        }
        assert_eq!(golden.stats(), resumed.stats());
        assert_eq!(golden.swallowed_from(A), resumed.swallowed_from(A));
        let bad_rng = nisim_engine::Json::obj().set("rng", "xyz");
        assert_eq!(
            resumed.restore(&bad_rng).unwrap_err().to_string(),
            "rng: expected 16 hex digits"
        );
    }

    #[test]
    fn corruption_marks_but_delivers() {
        let cfg = FaultConfig {
            corrupt_p: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        let d = plan.deliveries(Time::ZERO, A, B);
        assert_eq!(d.len(), 1);
        assert!(d[0].corrupted);
    }
}
