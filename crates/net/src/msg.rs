//! Network geometry, node/message identities, and fragmentation.

use std::fmt;

use nisim_engine::codec::{ensure, Codec, DecodeError};
use nisim_engine::{Dur, Json};

/// Identity of one node of the parallel machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl Codec for NodeId {
    fn encode(&self) -> Json {
        self.0.encode()
    }
    fn decode(v: &Json) -> Result<NodeId, DecodeError> {
        u32::decode(v).map(NodeId)
    }
}

/// Unique identity of one network message (one fragment on the wire).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MsgId(pub u64);

impl Codec for MsgId {
    fn encode(&self) -> Json {
        self.0.encode()
    }
    fn decode(v: &Json) -> Result<MsgId, DecodeError> {
        u64::decode(v).map(MsgId)
    }
}

/// Network timing and message geometry (Table 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetConfig {
    /// Constant wire latency: injection of the last byte at the source to
    /// arrival of the first byte at the destination. 40 ns per Table 3.
    pub wire_latency: Dur,
    /// Maximum network message size including the header. 256 B per
    /// Table 3.
    pub max_message_bytes: u64,
    /// Per-message header size. 8 B per §6.1.1.
    pub header_bytes: u64,
    /// Link rate in bytes per nanosecond for injection/ejection
    /// serialisation. 1 B/ns (= 1 GB/s) by default — fast enough that the
    /// NI, not the wire, is always the bottleneck, matching the paper's
    /// focus.
    pub link_bytes_per_ns: f64,
    /// Network shape. [`Topology::Ideal`](crate::topology::Topology::Ideal)
    /// (the paper's abstraction) by
    /// default; ring and mesh fabrics add per-hop latency and link
    /// contention.
    pub topology: crate::topology::Topology,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            wire_latency: Dur::ns(40),
            max_message_bytes: 256,
            header_bytes: 8,
            link_bytes_per_ns: 1.0,
            topology: crate::topology::Topology::Ideal,
        }
    }
}

impl NetConfig {
    /// The largest payload one network message can carry.
    pub fn max_payload_bytes(&self) -> u64 {
        self.max_message_bytes - self.header_bytes
    }

    /// Time to serialise `bytes` onto (or off) a link: the quotient
    /// rounded up to whole nanoseconds. At the default 1 B/ns and below
    /// 2^53 bytes, where the float quotient is exact, that is `bytes`,
    /// with no float conversion or division per fragment. Otherwise the
    /// ceiling of the float quotient is taken in integers (`as` truncates
    /// and saturates), so no libm `ceil` call sits on the per-fragment
    /// path; a zero link rate gives `u64::MAX` ns.
    pub fn serialisation(&self, bytes: u64) -> Dur {
        if self.link_bytes_per_ns == 1.0 && bytes < 1 << 53 {
            return Dur::ns(bytes);
        }
        let x = bytes as f64 / self.link_bytes_per_ns;
        let q = x as u64;
        Dur::ns(if (q as f64) < x {
            q.saturating_add(1)
        } else {
            q
        })
    }

    /// Total wire size of a message carrying `payload` bytes.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        payload + self.header_bytes
    }
}

/// One network message produced by fragmenting a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fragment {
    /// Index of this fragment within its transfer.
    pub index: u32,
    /// Total fragments in the transfer.
    pub of: u32,
    /// Payload bytes carried by this fragment (header excluded).
    pub payload_bytes: u64,
    /// Byte offset of this fragment's payload within the whole payload.
    pub offset: u64,
}

nisim_engine::struct_codec! {
    Fragment [index, of, payload_bytes, offset]
    check |f: &Fragment| ensure(f.index < f.of, "fragment index not below its count")
}

impl Fragment {
    /// True for the final fragment of its transfer.
    pub fn is_last(&self) -> bool {
        self.index + 1 == self.of
    }
}

/// Splits a payload of `payload_bytes` into network messages under `cfg`.
///
/// A zero-byte payload still produces one (header-only) message — sends
/// must reach the receiver to have any effect.
///
/// # Example
///
/// ```
/// use nisim_net::{fragment_payload, NetConfig};
/// let cfg = NetConfig::default(); // 256 B messages, 8 B headers
/// let frags = fragment_payload(&cfg, 500);
/// assert_eq!(frags.len(), 3); // 248 + 248 + 4
/// assert_eq!(frags[0].payload_bytes, 248);
/// assert_eq!(frags[2].payload_bytes, 4);
/// assert_eq!(frags[2].offset, 496);
/// assert!(frags[2].is_last());
/// ```
pub fn fragment_payload(cfg: &NetConfig, payload_bytes: u64) -> Vec<Fragment> {
    let count = fragment_count(cfg, payload_bytes);
    (0..count)
        .map(|i| cut(cfg, payload_bytes, count, i as u32))
        .collect()
}

/// How many network messages a payload of `payload_bytes` takes under
/// `cfg`: at least one, since a zero-byte payload still sends its header.
pub fn fragment_count(cfg: &NetConfig, payload_bytes: u64) -> u64 {
    let max = cfg.max_payload_bytes();
    assert!(max > 0, "header leaves no payload room");
    payload_bytes.div_ceil(max).max(1)
}

/// Fragment `index` of a payload of `payload_bytes` under `cfg` — the
/// element of [`fragment_payload`] at `index`, computed without building
/// the list.
///
/// # Panics
///
/// Panics if the payload has no fragment `index`.
///
/// # Example
///
/// ```
/// use nisim_net::{fragment_at, NetConfig};
/// let last = fragment_at(&NetConfig::default(), 500, 2);
/// assert_eq!((last.of, last.payload_bytes, last.offset), (3, 4, 496));
/// ```
pub fn fragment_at(cfg: &NetConfig, payload_bytes: u64, index: u32) -> Fragment {
    let count = fragment_count(cfg, payload_bytes);
    assert!(u64::from(index) < count, "no fragment {index} of {count}");
    cut(cfg, payload_bytes, count, index)
}

/// Fragment `index` of the `count` a payload of `payload_bytes` takes.
fn cut(cfg: &NetConfig, payload_bytes: u64, count: u64, index: u32) -> Fragment {
    let max = cfg.max_payload_bytes();
    let offset = u64::from(index) * max;
    Fragment {
        index,
        of: count as u32,
        payload_bytes: (payload_bytes - offset).min(max),
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.wire_latency, Dur::ns(40));
        assert_eq!(cfg.max_message_bytes, 256);
        assert_eq!(cfg.header_bytes, 8);
        assert_eq!(cfg.max_payload_bytes(), 248);
    }

    #[test]
    fn small_payload_single_fragment() {
        let cfg = NetConfig::default();
        let frags = fragment_payload(&cfg, 100);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload_bytes, 100);
        assert_eq!(frags[0].offset, 0);
        assert!(frags[0].is_last());
    }

    #[test]
    fn zero_payload_still_sends_header() {
        let frags = fragment_payload(&NetConfig::default(), 0);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload_bytes, 0);
    }

    #[test]
    fn exact_multiple_fragments_cleanly() {
        let cfg = NetConfig::default();
        let frags = fragment_payload(&cfg, 496); // 2 x 248
        assert_eq!(frags.len(), 2);
        assert!(frags.iter().all(|f| f.payload_bytes == 248));
    }

    #[test]
    fn fragments_cover_payload_exactly() {
        let cfg = NetConfig::default();
        for size in [1u64, 247, 248, 249, 4096, 10_000] {
            let frags = fragment_payload(&cfg, size);
            let total: u64 = frags.iter().map(|f| f.payload_bytes).sum();
            assert_eq!(total, size, "size {size}");
            let mut expect_offset = 0;
            for f in &frags {
                assert_eq!(f.offset, expect_offset);
                assert!(f.payload_bytes <= cfg.max_payload_bytes());
                expect_offset += f.payload_bytes;
            }
            assert_eq!(frags.last().unwrap().of as usize, frags.len());
        }
    }

    #[test]
    fn serialisation_rounds_up() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.serialisation(256), Dur::ns(256));
        assert_eq!(cfg.serialisation(0), Dur::ZERO);
        let fast = NetConfig {
            link_bytes_per_ns: 2.0,
            ..cfg
        };
        assert_eq!(fast.serialisation(15), Dur::ns(8));
    }

    #[test]
    fn serialisation_is_the_float_ceiling() {
        let two53 = 1u64 << 53;
        let rates = [1.0, 2.0, 3.0, 7.0, 0.3, 1.0 / 3.0, 0.0];
        // Rates one ulp either side of the 1 B/ns path, other whole and
        // fractional rates, large, negative and not finite ones.
        let (above, below) = (1.0 + f64::EPSILON, 1.0 - f64::EPSILON / 2.0);
        let edges = [above, below, 1.5, 4.0, 1e15, 3e300];
        let odd = [-1.0, -2.0, f64::INFINITY, f64::NAN, 5e-324];
        for rate in rates.into_iter().chain(edges).chain(odd) {
            let cfg = NetConfig {
                link_bytes_per_ns: rate,
                ..NetConfig::default()
            };
            let near_2_53 = (two53 - 300..two53 + 300).step_by(7);
            for bytes in (0..=4096u64).chain(near_2_53).chain([u64::MAX]) {
                let ceil = (bytes as f64 / rate).ceil() as u64;
                assert_eq!(
                    cfg.serialisation(bytes),
                    Dur::ns(ceil),
                    "{bytes} B at {rate}"
                );
            }
        }
    }

    #[test]
    fn wire_bytes_include_header() {
        assert_eq!(NetConfig::default().wire_bytes(100), 108);
    }

    #[test]
    fn node_id_formats() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(format!("{:?}", NodeId(3)), "n3");
        assert_eq!(NodeId(7).index(), 7);
    }
}
