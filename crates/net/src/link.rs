//! Injection/ejection link ports.
//!
//! Each NI has one egress port into the network and one ingress port out of
//! it. A port serialises messages at the link rate; like the memory bus it
//! is modelled as a serially-reusable resource.

use nisim_engine::stats::Counter;
use nisim_engine::{Dur, Time};

use crate::msg::NetConfig;

/// A serially-reusable link port.
///
/// # Example
///
/// ```
/// use nisim_engine::Time;
/// use nisim_net::{Link, NetConfig};
///
/// let cfg = NetConfig::default();
/// let mut port = Link::new();
/// let (s1, e1) = port.transmit(&cfg, Time::ZERO, 256);
/// let (s2, _) = port.transmit(&cfg, Time::ZERO, 256);
/// assert_eq!(s1, Time::ZERO);
/// assert_eq!(s2, e1); // the second message waits for the first
/// ```
#[derive(Clone, Debug, Default)]
pub struct Link {
    free_at: Time,
    messages: Counter,
    bytes: Counter,
    busy: Dur,
}

impl Link {
    /// Creates an idle port.
    pub fn new() -> Link {
        Link::default()
    }

    /// Serialises a message of `wire_bytes` through the port, starting no
    /// earlier than `now`. Returns `(start, end)` of the serialisation.
    pub fn transmit(&mut self, cfg: &NetConfig, now: Time, wire_bytes: u64) -> (Time, Time) {
        let start = now.max(self.free_at);
        let occupancy = cfg.serialisation(wire_bytes);
        let end = start + occupancy;
        self.free_at = end;
        self.messages.inc();
        self.bytes.add(wire_bytes);
        self.busy += occupancy;
        (start, end)
    }

    /// When the port next becomes free.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Messages transmitted so far.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Wire bytes transmitted so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Total busy time so far.
    pub fn busy(&self) -> Dur {
        self.busy
    }

    /// Fraction of `elapsed` the port spent serialising (0 when `elapsed`
    /// is zero). Useful for reporting link pressure in sweeps and
    /// benchmarks without re-deriving it from the raw counters.
    pub fn utilisation(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_ns() as f64 / elapsed.as_ns() as f64
        }
    }
}

nisim_engine::struct_codec! { Link { free_at, messages, bytes, busy } }

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_engine::codec::Codec;
    use nisim_engine::Json;

    #[test]
    fn serialises_back_to_back() {
        let cfg = NetConfig::default();
        let mut port = Link::new();
        let (s1, e1) = port.transmit(&cfg, Time::ZERO, 100);
        assert_eq!(s1, Time::ZERO);
        assert_eq!(e1, Time::from_ns(100));
        let (s2, e2) = port.transmit(&cfg, Time::from_ns(10), 50);
        assert_eq!(s2, e1);
        assert_eq!(e2, Time::from_ns(150));
    }

    #[test]
    fn idle_gap_resets_start() {
        let cfg = NetConfig::default();
        let mut port = Link::new();
        port.transmit(&cfg, Time::ZERO, 10);
        let (s, _) = port.transmit(&cfg, Time::from_ns(500), 10);
        assert_eq!(s, Time::from_ns(500));
    }

    #[test]
    fn utilisation_is_busy_over_elapsed() {
        let cfg = NetConfig::default();
        let mut port = Link::new();
        assert_eq!(port.utilisation(Dur::ZERO), 0.0);
        port.transmit(&cfg, Time::ZERO, 50);
        assert!((port.utilisation(Dur::ns(100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trips() {
        let cfg = NetConfig::default();
        let mut port = Link::new();
        port.transmit(&cfg, Time::ZERO, 100);
        port.transmit(&cfg, Time::ZERO, 28);
        let fresh = Link::decode(&port.encode()).unwrap();
        assert_eq!(fresh.free_at(), port.free_at());
        assert_eq!(fresh.messages(), 2);
        assert_eq!(fresh.bytes(), 128);
        assert_eq!(fresh.busy(), port.busy());
        assert!(Link::decode(&Json::obj().set("free_at", 1u64)).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let cfg = NetConfig::default();
        let mut port = Link::new();
        port.transmit(&cfg, Time::ZERO, 100);
        port.transmit(&cfg, Time::ZERO, 28);
        assert_eq!(port.messages(), 2);
        assert_eq!(port.bytes(), 128);
        assert_eq!(port.busy(), Dur::ns(128));
    }
}
