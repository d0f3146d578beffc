//! `SGDMA` — a scatter-gather DMA engine driven by strided/indexed
//! transfer descriptors (extension; ROADMAP item 3).
//!
//! Modelled after the descriptor-driven streaming engines of sPIN-class
//! NICs (arxiv 1908.08590): the processor posts a *descriptor list*
//! describing a non-contiguous transfer (base, stride, element size,
//! count) and rings a doorbell; the NI walks the descriptors itself,
//! paying [`CostModel::sgdma_descriptor_cycles`] per element plus the
//! block reads, and injects the gathered elements as one wire message.
//! The receive side scatters symmetrically. For non-contiguous data
//! (strided matrix-row exchange) this replaces one send — and one
//! [`CostModel::send_setup_cycles`]-sized software path — *per element*
//! with a single posted descriptor, which is exactly the comparison the
//! strided-workload golden locks in.
//!
//! Workloads request a gather by encoding the element geometry into the
//! application tag ([`encode_gather_tag`]); the machine presents the tag
//! through [`NiModel::stage`] before each send/deposit, and the engine
//! decodes it with [`decode_gather_tag`]. Tags without the marker bit
//! fall back to a plain contiguous DMA.
//!
//! [`Descriptor`] is the pure address arithmetic of the engine —
//! gather/scatter over byte buffers — used by the property suite to
//! prove the round trip (gathered bytes == strided source bytes).

use nisim_engine::codec::ensure;
use nisim_engine::Time;

use crate::config::MachineConfig;
use crate::costs::CostModel;
use crate::node::{BlockSource, NodeHw};
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::coherent::{layout, QueueRegion, SLOT_BLOCKS};
use super::util::blocks;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// Tag bit marking a send as a descriptor-driven gather. Traffic tags
/// use at most bits 0..=30 (27 bits of schedule plus 4 of tenant) and
/// never set it. The skeleton barrier tags (`0xFFFF_0000..`) set bit 31
/// *and* bit 30, so a gather tag additionally keeps bit 30 clear — the
/// count field is 14 bits — and [`decode_gather_tag`] rejects anything
/// in the barrier range.
pub const GATHER_TAG_FLAG: u32 = 1 << 31;

/// Bit 30: set by barrier tags, never by gather tags.
const GATHER_TAG_EXCLUDE: u32 = 1 << 30;

/// Packs `(count, elem_bytes)` into a gather tag: the flag bit, 14 bits
/// of element count, 16 bits of element size. Values are masked to
/// their fields.
pub fn encode_gather_tag(count: u32, elem_bytes: u32) -> u32 {
    GATHER_TAG_FLAG | ((count & 0x3FFF) << 16) | (elem_bytes & 0xFFFF)
}

/// Unpacks a gather tag into `(count, elem_bytes)`; `None` for plain
/// tags, barrier-range tags, or degenerate geometry.
pub fn decode_gather_tag(tag: u32) -> Option<(u64, u64)> {
    if tag & GATHER_TAG_FLAG == 0 || tag & GATHER_TAG_EXCLUDE != 0 {
        return None;
    }
    let count = ((tag >> 16) & 0x3FFF) as u64;
    let elem = (tag & 0xFFFF) as u64;
    if count == 0 || elem == 0 {
        return None;
    }
    Some((count, elem))
}

/// One strided transfer descriptor: `count` elements of `elem_bytes`,
/// the `i`th starting at byte `base + i * stride`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Descriptor {
    /// Byte offset of the first element in the source/destination buffer.
    pub base: u64,
    /// Byte distance between consecutive element starts.
    pub stride: u64,
    /// Bytes per element.
    pub elem_bytes: u64,
    /// Number of elements.
    pub count: u64,
}

impl Descriptor {
    /// Total bytes the descriptor moves.
    pub fn total_bytes(&self) -> u64 {
        self.elem_bytes * self.count
    }

    /// Gathers the described elements from `src` into one contiguous
    /// buffer; `None` if any element falls outside `src`.
    pub fn gather(&self, src: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.total_bytes() as usize);
        for i in 0..self.count {
            let start = (self.base + i * self.stride) as usize;
            let end = start + self.elem_bytes as usize;
            out.extend_from_slice(src.get(start..end)?);
        }
        Some(out)
    }

    /// Scatters `data` (one contiguous buffer of
    /// [`total_bytes`](Descriptor::total_bytes)) into `dst` at the
    /// described offsets. `false` if the shapes don't fit.
    pub fn scatter(&self, data: &[u8], dst: &mut [u8]) -> bool {
        if data.len() as u64 != self.total_bytes() {
            return false;
        }
        for i in 0..self.count {
            let start = (self.base + i * self.stride) as usize;
            let end = start + self.elem_bytes as usize;
            let from = (i * self.elem_bytes) as usize;
            let Some(slot) = dst.get_mut(start..end) else {
                return false;
            };
            slot.copy_from_slice(&data[from..from + self.elem_bytes as usize]);
        }
        true
    }
}

/// The scatter-gather DMA engine.
#[derive(Clone, Debug)]
pub struct SgdmaNi {
    send_q: QueueRegion,
    recv_q: QueueRegion,
    /// `(count, elem_bytes)` of the staged gather, latched from the tag
    /// by [`NiModel::stage`]; `None` for contiguous transfers.
    staged: Option<(u64, u64)>,
}

impl SgdmaNi {
    /// Creates the model from the machine configuration.
    pub fn new(cfg: &MachineConfig) -> SgdmaNi {
        let bb = cfg.cache.block_bytes;
        SgdmaNi {
            send_q: QueueRegion::new(layout::SEND_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            recv_q: QueueRegion::new(layout::RECV_BASE, layout::MEMORY_QUEUE_BLOCKS, bb),
            staged: None,
        }
    }
}

impl NiModel for SgdmaNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "SGDMA",
            description: "descriptor-driven scatter-gather DMA",
            send: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::CacheOrMemory,
            },
            receive: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::Memory,
            },
            buffer_location: BufferLocation::Memory,
            buffering: BufferingInvolvement::NiManaged,
        }
    }

    fn stage(&mut self, _conn: u32, tag: u32) {
        self.staged = decode_gather_tag(tag);
    }

    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn prewarm(&self, hw: &mut NodeHw) {
        for b in self.send_q.all_blocks() {
            hw.cache.insert(b, nisim_mem::MoesiState::Owned);
        }
    }

    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        let n = blocks(wire_bytes);
        let geo = hw.cache.geometry();
        let base = self.send_q.alloc(SLOT_BLOCKS);
        match self.staged {
            Some((count, elem)) => {
                // Gather: the processor posts the descriptor list (16 B
                // per element) and rings the doorbell — one software
                // send regardless of element count.
                let desc_blocks = blocks(count * 16).min(SLOT_BLOCKS);
                let mut t = now;
                for i in 0..desc_blocks {
                    t = hw.proc_write_block(t, geo.block_at(base, i), BlockSource::MainMemory);
                }
                let bell = hw.uncached_write(t);
                let proc_release = bell + hw.cycles(cost.uncached_issue_cycles);
                // NI side: walk the descriptors, one strided element
                // read per entry.
                let mut t_ni = bell;
                for i in 0..count {
                    t_ni += hw.cycles(cost.sgdma_descriptor_cycles);
                    for j in 0..blocks(elem) {
                        t_ni = hw.ni_read_block(
                            t_ni,
                            geo.block_at(base, (i + j) % SLOT_BLOCKS),
                            BlockSource::MainMemory,
                        );
                    }
                }
                SendPath {
                    proc_release,
                    inject_ready: t_ni + cost.ni_inject_overhead,
                }
            }
            None => {
                // Contiguous: a single-entry descriptor, then the NI
                // streams the payload blocks.
                let t = hw.proc_write_block(now, base, BlockSource::MainMemory);
                let bell = hw.uncached_write(t);
                let proc_release = bell + hw.cycles(cost.uncached_issue_cycles);
                let mut t_ni = bell + hw.cycles(cost.sgdma_descriptor_cycles);
                for i in 0..n {
                    t_ni = hw.ni_read_block(
                        t_ni,
                        geo.block_at(base, i % SLOT_BLOCKS),
                        BlockSource::MainMemory,
                    );
                }
                SendPath {
                    proc_release,
                    inject_ready: t_ni + cost.ni_inject_overhead,
                }
            }
        }
    }

    fn deposit_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> DepositPath {
        let n = blocks(wire_bytes);
        let geo = hw.cache.geometry();
        let base = self.recv_q.alloc(SLOT_BLOCKS);
        let mut t = now;
        if let Some((count, _elem)) = self.staged {
            // Scatter: per-element descriptor processing before the
            // blocks land at their strided destinations.
            t += hw.cycles(cost.sgdma_descriptor_cycles * count);
        } else {
            t += hw.cycles(cost.sgdma_descriptor_cycles);
        }
        for i in 0..n {
            t = hw.ni_write_block(t, geo.block_at(base, i));
        }
        DepositPath {
            done: t + cost.ni_deposit_overhead,
            loc: DepositLoc::Memory { base, blocks: n },
        }
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        true
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn drain_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        _wire_bytes: u64,
        loc: &DepositLoc,
    ) -> Time {
        let geo = hw.cache.geometry();
        match *loc {
            DepositLoc::Memory { base, blocks: n } => {
                let mut t = now;
                for i in 0..n {
                    t = hw.proc_read_block(
                        t,
                        geo.block_at(base, i),
                        BlockSource::MainMemory,
                        false,
                    );
                    t += hw.cycles(cost.block_parse_cycles);
                }
                t
            }
            DepositLoc::NiFifo | DepositLoc::NiQueue { .. } | DepositLoc::NiCache { .. } => {
                unreachable!("SGDMA does not deposit to {loc:?}")
            }
        }
    }

    // A staged descriptor was decoded from a gather tag, which never
    // yields a zero count or element size.
    nisim_engine::state_fields! {
        { send_cursor: send_q, recv_cursor: recv_q, staged }
        check |n: &SgdmaNi| {
            ensure(
                n.staged.is_none_or(|(count, elem)| count > 0 && elem > 0),
                "staged descriptor with a zero count or element size",
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::NiKind;
    use nisim_engine::Json;

    fn setup() -> (NodeHw, CostModel, SgdmaNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Sgdma),
            cfg.costs,
            SgdmaNi::new(&cfg),
        )
    }

    #[test]
    fn gather_tag_round_trips() {
        let tag = encode_gather_tag(12, 40);
        assert_eq!(decode_gather_tag(tag), Some((12, 40)));
        assert_eq!(decode_gather_tag(7), None, "plain tags are not gathers");
        assert_eq!(decode_gather_tag(encode_gather_tag(0, 40)), None);
        assert_eq!(decode_gather_tag(encode_gather_tag(12, 0)), None);
    }

    #[test]
    fn barrier_tags_are_never_gathers() {
        // The skeleton barrier reserves 0xFFFF_0000.. — those tags set
        // bits 31 and 30 and must fall through to the contiguous path,
        // not decode as a 16k-element descriptor walk.
        for tag in [0xFFFF_0000u32, 0xFFFF_0001, 0xFFFF_FFFF] {
            assert_eq!(decode_gather_tag(tag), None, "barrier tag {tag:#x}");
        }
        // Every encodable gather stays outside the barrier range.
        let max = encode_gather_tag(u32::MAX, u32::MAX);
        assert!(max < 0xFFFF_0000, "gather tags stay below barrier tags");
        assert_eq!(decode_gather_tag(max), Some((0x3FFF, 0xFFFF)));
    }

    #[test]
    fn descriptor_gathers_and_scatters_round_trip() {
        let d = Descriptor {
            base: 3,
            stride: 10,
            elem_bytes: 4,
            count: 5,
        };
        let src: Vec<u8> = (0..64).collect();
        let gathered = d.gather(&src).unwrap();
        assert_eq!(gathered.len() as u64, d.total_bytes());
        assert_eq!(&gathered[..4], &src[3..7]);
        let mut dst = vec![0u8; src.len()];
        assert!(d.scatter(&gathered, &mut dst));
        assert_eq!(d.gather(&dst).unwrap(), gathered);
    }

    #[test]
    fn out_of_range_descriptor_is_refused_not_panicked() {
        let d = Descriptor {
            base: 60,
            stride: 10,
            elem_bytes: 8,
            count: 2,
        };
        assert_eq!(d.gather(&[0u8; 64]), None);
        assert!(!d.scatter(&[0u8; 16], &mut [0u8; 64]));
        assert!(!d.scatter(&[0u8; 3], &mut [0u8; 1024]), "length mismatch");
    }

    #[test]
    fn gather_posts_one_descriptor_send() {
        let (mut hw, cost, mut ni) = setup();
        ni.prewarm(&mut hw);
        // A 16-element gather of 15-byte rows (240 B payload)...
        ni.stage(0, encode_gather_tag(16, 15));
        let g = ni.send_fragment(&mut hw, &cost, Time::ZERO, 240, 248);
        // ...releases the processor roughly as fast as a contiguous
        // send, while the element walk happens on the NI.
        ni.stage(0, 0);
        let t0 = Time::from_ns(100_000);
        let c = ni.send_fragment(&mut hw, &cost, t0, 240, 248);
        assert!(g.inject_ready - Time::ZERO > c.inject_ready - t0);
        assert!(g.proc_release < g.inject_ready);
    }

    #[test]
    fn snapshot_round_trips_staged_descriptor() {
        let cfg = MachineConfig::default();
        let mut ni = SgdmaNi::new(&cfg);
        ni.stage(0, encode_gather_tag(8, 32));
        let snap = ni.snapshot();
        let mut fresh = SgdmaNi::new(&cfg);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.staged, Some((8, 32)));
        assert!(fresh
            .restore(&Json::obj().set("send_cursor", 0u64))
            .is_err());
        let bad = Json::obj()
            .set("send_cursor", 0u64)
            .set("recv_cursor", 0u64)
            .set(
                "staged",
                Json::Arr(vec![Json::from(0u64), Json::from(4u64)]),
            );
        assert!(fresh.restore(&bad).is_err(), "degenerate geometry rejected");
    }

    #[test]
    fn descriptor_is_memory_homed_ni_managed() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.symbol, "SGDMA");
        assert_eq!(d.buffer_location, BufferLocation::Memory);
        assert_eq!(d.buffering, BufferingInvolvement::NiManaged);
    }
}
