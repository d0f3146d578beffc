//! End-to-end reliability over a faulty wire.
//!
//! The paper's return-to-sender flow control (§5.1.2) already guarantees
//! delivery *given a loss-free network*: a rejected message is returned
//! on a guaranteed channel and retried. Fault injection
//! ([`crate::fault`]) breaks that premise — a dropped message produces
//! neither an ack nor a return, and a duplicated one arrives twice.
//!
//! This module supplies the missing pieces, deliberately split from the
//! flow-control layer so the two compose instead of replacing each
//! other:
//!
//! * per-`(sender, receiver)` sequence numbers ([`SenderReliability`]),
//! * ack-timeout–driven retransmission with exponential backoff and a
//!   retry cap ([`ReliabilityConfig::timeout_for`]),
//! * receiver-side duplicate suppression ([`ReceiverDedup`]) so
//!   retransmits and wire duplicates deliver exactly once.
//!
//! The layer is off by default ([`ReliabilityConfig::enabled`]); when
//! disabled no timers are scheduled and no sequence state is consulted,
//! so fault-free runs are bit-identical to builds without it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use nisim_engine::codec::{ascending, decode_items, ensure, Codec, DecodeError};
use nisim_engine::metrics::{Component, ComponentCycles};
use nisim_engine::{Dur, Json};

use crate::msg::NodeId;

/// A per-`(sender, receiver)` message sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNo(pub u64);

impl Codec for SeqNo {
    fn encode(&self) -> Json {
        self.0.encode()
    }
    fn decode(v: &Json) -> Result<SeqNo, DecodeError> {
        u64::decode(v).map(SeqNo)
    }
}

impl fmt::Debug for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq{}", self.0)
    }
}

impl fmt::Display for SeqNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Tuning of the retransmission machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Master switch. Disabled by default: the machine then schedules no
    /// ack timers and performs no dedup, preserving the exact event
    /// sequence of the original loss-free simulator.
    pub enabled: bool,
    /// Base ack timeout (attempt 0). Should comfortably exceed one
    /// round trip; 4 µs ≈ 20× the paper's 190 ns best-case one-way.
    pub ack_timeout: Dur,
    /// Ceiling of the exponential backoff.
    pub timeout_max: Dur,
    /// Retransmissions attempted before the sender gives up and reports
    /// the fragment as undeliverable (the machine then surfaces a
    /// `RetryCapExhausted` violation and the watchdog declares a stall
    /// instead of spinning forever).
    pub max_retries: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            enabled: false,
            ack_timeout: Dur::us(4),
            timeout_max: Dur::us(64),
            max_retries: 10,
        }
    }
}

impl ReliabilityConfig {
    /// An enabled config with the default timing.
    pub fn on() -> Self {
        ReliabilityConfig {
            enabled: true,
            ..ReliabilityConfig::default()
        }
    }

    /// The ack timeout for retransmission attempt `attempt` (0-based):
    /// `ack_timeout · 2^attempt`, capped at `timeout_max`.
    ///
    /// `checked_shl` alone is not enough: it only fails for shifts
    /// ≥ 64, while smaller shifts silently drop high bits and would
    /// wrap the timeout back toward zero. The round-trip shift detects
    /// that and saturates instead.
    pub fn timeout_for(&self, attempt: u32) -> Dur {
        let base = self.ack_timeout.as_ns();
        let shifted = base
            .checked_shl(attempt)
            .filter(|s| s >> attempt == base)
            .unwrap_or(u64::MAX);
        Dur::ns(shifted.min(self.timeout_max.as_ns().max(base)))
    }

    /// The longest timeout the backoff can ever produce — the ceiling the
    /// exponential schedule saturates at. This is the far edge of the
    /// timer horizon the scheduler must cover for reliability traffic.
    pub fn max_timeout(&self) -> Dur {
        Dur::ns(self.timeout_max.as_ns().max(self.ack_timeout.as_ns()))
    }
}

/// Sender-side sequence allocation: one monotone counter per receiver.
#[derive(Clone, Debug, Default)]
pub struct SenderReliability {
    next: BTreeMap<NodeId, u64>,
}

impl SenderReliability {
    /// Allocates the next sequence number for traffic to `dst`.
    pub fn next_seq(&mut self, dst: NodeId) -> SeqNo {
        let c = self.next.entry(dst).or_insert(0);
        let s = *c;
        *c += 1;
        SeqNo(s)
    }

    /// The destinations sequence numbers were issued towards, ascending.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.next.keys().copied()
    }

    /// Sequence numbers handed out towards `dst` so far.
    pub fn issued(&self, dst: NodeId) -> u64 {
        self.next.get(&dst).copied().unwrap_or(0)
    }
}

/// The per-destination counters, as `[dst, next]` pairs.
impl Codec for SenderReliability {
    fn encode(&self) -> Json {
        self.next.encode()
    }
    fn decode(v: &Json) -> Result<SenderReliability, DecodeError> {
        Ok(SenderReliability {
            next: Codec::decode(v)?,
        })
    }
}

/// Receiver-side duplicate suppression, one window per sender.
///
/// Each window keeps a `floor` (every sequence below it has been
/// accepted) plus the sparse set of accepted sequences at or above it,
/// compacted whenever the floor advances. Out-of-order arrival is fine;
/// memory stays proportional to the reorder window, not the run length.
#[derive(Clone, Debug, Default)]
pub struct ReceiverDedup {
    windows: BTreeMap<NodeId, SeqWindow>,
}

#[derive(Clone, Debug, Default)]
struct SeqWindow {
    floor: u64,
    seen: BTreeSet<u64>,
}

impl ReceiverDedup {
    /// Records an arrival of `seq` from `src`. Returns `true` if this is
    /// the first time (deliver it), `false` if it is a duplicate
    /// (discard it, but still ack — the sender's ack may have been the
    /// thing that was lost).
    pub fn accept(&mut self, src: NodeId, seq: SeqNo) -> bool {
        let w = self.windows.entry(src).or_default();
        if seq.0 < w.floor || !w.seen.insert(seq.0) {
            return false;
        }
        while w.seen.remove(&w.floor) {
            w.floor += 1;
        }
        true
    }

    /// True if `seq` from `src` has already been accepted.
    pub fn already_seen(&self, src: NodeId, seq: SeqNo) -> bool {
        self.windows
            .get(&src)
            .is_some_and(|w| seq.0 < w.floor || w.seen.contains(&seq.0))
    }

    /// The senders a window is kept for, ascending.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.windows.keys().copied()
    }

    /// One past the highest sequence number accepted from `src` (0 if
    /// none): every accepted number lies below it.
    pub fn high_water(&self, src: NodeId) -> u64 {
        self.windows
            .get(&src)
            .map_or(0, |w| w.seen.last().map_or(w.floor, |&s| s + 1))
    }

    /// Entries currently tracked above the floor for `src` (diagnostic:
    /// the size of the reorder window).
    pub fn pending_window(&self, src: NodeId) -> usize {
        self.windows.get(&src).map_or(0, |w| w.seen.len())
    }
}

/// Every window as `[src, floor, [accepted...]]`. The accepted set is
/// compacted whenever the floor advances ([`ReceiverDedup::accept`]), so
/// every entry lies strictly above the floor.
impl Codec for ReceiverDedup {
    fn encode(&self) -> Json {
        Json::Arr(
            (self.windows.iter())
                .map(|(&src, w)| (src, w.floor, w.seen.clone()).encode())
                .collect(),
        )
    }
    fn decode(v: &Json) -> Result<ReceiverDedup, DecodeError> {
        let windows = decode_items::<(NodeId, u64, BTreeSet<u64>)>(v)?
            .enumerate()
            .map(|(i, w)| {
                let (src, floor, seen) = w?;
                let compact = seen.first().is_none_or(|&s| s > floor);
                ensure(compact, "accepted entry at or below the floor")
                    .map_err(|e| e.in_index(i))?;
                Ok((src, SeqWindow { floor, seen }))
            });
        Ok(ReceiverDedup {
            windows: ascending(windows)?,
        })
    }
}

/// Counters of the reliability layer's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelStats {
    /// Ack timeouts that fired and triggered a retransmission.
    pub retransmits: u64,
    /// Arrivals discarded as duplicates (wire duplication or a
    /// retransmit racing its original).
    pub dup_discards: u64,
    /// Arrivals discarded because the payload was corrupted in flight.
    pub corrupt_discards: u64,
    /// Fragments abandoned after the retry cap.
    pub gave_up: u64,
    /// In-flight receive state (queued arrivals, partial reassemblies)
    /// wiped by a node crash. Each wiped fragment is recovered by the
    /// sender's retransmit timer or ends up in `gave_up` — never both.
    pub crash_lost: u64,
}

impl RelStats {
    /// Merges another node's counters into this one.
    pub fn absorb(&mut self, other: RelStats) {
        self.retransmits += other.retransmits;
        self.dup_discards += other.dup_discards;
        self.corrupt_discards += other.corrupt_discards;
        self.gave_up += other.gave_up;
        self.crash_lost += other.crash_lost;
    }
}

nisim_engine::struct_codec! {
    RelStats {
        retransmits, dup_discards, corrupt_discards, gave_up, crash_lost
    }
}

/// Cycle accounting for the reliability layer: wire time consumed by
/// ack-timeout retransmissions (charged to
/// [`Component::Retransmit`] so the occupancy breakdown separates
/// recovery traffic from first-attempt serialization). Collected only
/// when the machine's metrics are enabled; mutation goes through the
/// typed [`charge_retransmit`](RelMetrics::charge_retransmit) handle.
#[derive(Clone, Debug, Default)]
pub struct RelMetrics {
    /// Retransmission wire cycles.
    pub cycles: ComponentCycles,
}

impl RelMetrics {
    /// Charges the serialization span of one retransmitted fragment.
    #[inline]
    pub fn charge_retransmit(&mut self, dur: Dur) {
        self.cycles.charge(Component::Retransmit, dur);
    }
}

impl fmt::Display for RelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retransmits {} dup-discards {} corrupt-discards {} gave-up {} crash-lost {}",
            self.retransmits,
            self.dup_discards,
            self.corrupt_discards,
            self.gave_up,
            self.crash_lost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn disabled_by_default() {
        assert!(!ReliabilityConfig::default().enabled);
        assert!(ReliabilityConfig::on().enabled);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ReliabilityConfig {
            enabled: true,
            ack_timeout: Dur::ns(100),
            timeout_max: Dur::ns(750),
            max_retries: 10,
        };
        assert_eq!(cfg.timeout_for(0), Dur::ns(100));
        assert_eq!(cfg.timeout_for(1), Dur::ns(200));
        assert_eq!(cfg.timeout_for(2), Dur::ns(400));
        assert_eq!(cfg.timeout_for(3), Dur::ns(750));
        assert_eq!(cfg.timeout_for(40), Dur::ns(750));
        assert_eq!(cfg.timeout_for(200), Dur::ns(750)); // shift overflow
    }

    #[test]
    fn backoff_saturates_through_partial_shift_overflow() {
        // Shifts below 64 that still overflow drop high bits rather
        // than failing `checked_shl`; the schedule must saturate at the
        // ceiling instead of wrapping back toward zero (found by the
        // nisim-analysis backoff check).
        let cfg = ReliabilityConfig::on();
        for attempt in 0..80 {
            assert!(
                cfg.timeout_for(attempt) >= cfg.timeout_for(attempt.saturating_sub(1)),
                "attempt {attempt} shrank"
            );
        }
        assert_eq!(cfg.timeout_for(59), cfg.max_timeout());
        assert_eq!(cfg.timeout_for(63), cfg.max_timeout());
    }

    #[test]
    fn max_timeout_is_the_backoff_ceiling() {
        let cfg = ReliabilityConfig::on();
        assert_eq!(cfg.max_timeout(), cfg.timeout_max);
        // Every attempt's timeout stays at or below the ceiling.
        for attempt in 0..40 {
            assert!(cfg.timeout_for(attempt) <= cfg.max_timeout());
        }
        // A degenerate config whose base exceeds the cap still reports a
        // ceiling that covers what timeout_for can produce.
        let odd = ReliabilityConfig {
            ack_timeout: Dur::us(100),
            timeout_max: Dur::us(1),
            ..ReliabilityConfig::on()
        };
        assert_eq!(odd.max_timeout(), Dur::us(100));
    }

    #[test]
    fn sequences_are_per_destination() {
        let mut tx = SenderReliability::default();
        assert_eq!(tx.next_seq(B), SeqNo(0));
        assert_eq!(tx.next_seq(B), SeqNo(1));
        assert_eq!(tx.next_seq(A), SeqNo(0));
        assert_eq!(tx.issued(B), 2);
        assert_eq!(tx.issued(A), 1);
        assert_eq!(tx.issued(NodeId(9)), 0);
    }

    #[test]
    fn dedup_accepts_once() {
        let mut rx = ReceiverDedup::default();
        assert!(rx.accept(A, SeqNo(0)));
        assert!(!rx.accept(A, SeqNo(0)));
        assert!(rx.accept(A, SeqNo(1)));
        assert!(!rx.accept(A, SeqNo(1)));
        // Distinct senders have independent spaces.
        assert!(rx.accept(B, SeqNo(0)));
    }

    #[test]
    fn dedup_handles_out_of_order_and_compacts() {
        let mut rx = ReceiverDedup::default();
        assert!(rx.accept(A, SeqNo(2)));
        assert!(rx.accept(A, SeqNo(1)));
        assert_eq!(rx.pending_window(A), 2);
        assert!(rx.accept(A, SeqNo(0)));
        // Floor advanced past 2; the sparse set is empty again.
        assert_eq!(rx.pending_window(A), 0);
        assert!(!rx.accept(A, SeqNo(0)));
        assert!(!rx.accept(A, SeqNo(2)));
        assert!(rx.already_seen(A, SeqNo(1)));
        assert!(!rx.already_seen(A, SeqNo(3)));
    }

    #[test]
    fn dedup_is_exactly_once_under_random_replay() {
        use nisim_engine::SplitMix64;
        let mut rng = SplitMix64::new(0x5E9);
        let mut rx = ReceiverDedup::default();
        let total = 200u64;
        let mut delivered = vec![0u32; total as usize];
        // Replay every sequence 1-4 times in a shuffled order.
        let mut arrivals: Vec<u64> = Vec::new();
        for s in 0..total {
            for _ in 0..(1 + rng.gen_range(4)) {
                arrivals.push(s);
            }
        }
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        for s in arrivals {
            if rx.accept(A, SeqNo(s)) {
                delivered[s as usize] += 1;
            }
        }
        assert!(delivered.iter().all(|&c| c == 1));
        assert_eq!(rx.pending_window(A), 0);
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = RelStats {
            retransmits: 1,
            dup_discards: 2,
            corrupt_discards: 3,
            gave_up: 4,
            crash_lost: 5,
        };
        a.absorb(RelStats {
            retransmits: 10,
            dup_discards: 20,
            corrupt_discards: 30,
            gave_up: 40,
            crash_lost: 50,
        });
        assert_eq!(a.retransmits, 11);
        assert_eq!(a.dup_discards, 22);
        assert_eq!(a.corrupt_discards, 33);
        assert_eq!(a.gave_up, 44);
        assert_eq!(a.crash_lost, 55);
    }

    #[test]
    fn dedup_snapshot_round_trips_mid_reorder() {
        let mut rx = ReceiverDedup::default();
        rx.accept(A, SeqNo(0));
        rx.accept(A, SeqNo(2));
        rx.accept(A, SeqNo(5)); // floor 1, seen {2, 5}
        rx.accept(B, SeqNo(0));
        let snap = rx.encode();

        let mut fresh = ReceiverDedup::decode(&snap).unwrap();
        assert_eq!(fresh.pending_window(A), 2);
        assert!(fresh.already_seen(A, SeqNo(0)));
        assert!(fresh.already_seen(A, SeqNo(2)));
        assert!(!fresh.already_seen(A, SeqNo(1)));
        // The restored window keeps deduplicating exactly like the
        // original.
        assert!(!fresh.accept(A, SeqNo(2)));
        assert!(fresh.accept(A, SeqNo(1))); // floor compacts past 2
        assert_eq!(fresh.pending_window(A), 1);
        assert!(ReceiverDedup::decode(&Json::from(3u64)).is_err());
        // An accepted entry at the floor cannot be: accept compacts it.
        let stale = Json::Arr(vec![(A, 1u64, BTreeSet::from([1u64])).encode()]);
        assert!(ReceiverDedup::decode(&stale).is_err());
    }

    #[test]
    fn sender_snapshot_round_trips() {
        let mut tx = SenderReliability::default();
        tx.next_seq(A);
        tx.next_seq(B);
        tx.next_seq(B);
        let mut fresh = SenderReliability::decode(&tx.encode()).unwrap();
        assert_eq!(fresh.issued(A), 1);
        assert_eq!(fresh.issued(B), 2);
        assert_eq!(fresh.next_seq(B), SeqNo(2));
    }
}
