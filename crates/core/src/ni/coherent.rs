//! Shared machinery for the coherent network interfaces (CNIs).
//!
//! The CNI designs expose their send and receive queues as *cacheable,
//! block-aligned circular regions* of the physical address space (§2.2.1,
//! §4). [`QueueRegion`] hands out block-aligned slots so the cache and bus
//! models operate on real block identities — that is what makes the CNI
//! behaviours (cache-to-cache supply, send-side prefetch, second-lap
//! upgrade instead of miss) fall out of the MOESI machinery instead of
//! being hard-coded.

use nisim_engine::codec::{ensure, Codec, DecodeError, State};
use nisim_engine::{Dur, Json, Time};
use nisim_mem::{Addr, BlockAddr, BlockGeometry};

/// A circular, block-aligned queue region of the physical address space.
///
/// Slots are contiguous runs of blocks; a slot that would straddle the
/// wrap point is allocated from the start instead (message slots never
/// wrap mid-message).
#[derive(Clone, Debug)]
pub struct QueueRegion {
    base: Addr,
    blocks: u64,
    next: u64,
    geo: BlockGeometry,
}

impl QueueRegion {
    /// Creates a region of `blocks` cache blocks starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not block-aligned or `blocks` is zero.
    pub fn new(base: Addr, blocks: u64, block_bytes: u64) -> QueueRegion {
        let geo = BlockGeometry::new(block_bytes);
        assert_eq!(
            geo.offset_in_block(base),
            0,
            "queue region base must be block-aligned"
        );
        assert!(blocks > 0, "queue region must have at least one block");
        QueueRegion {
            base,
            blocks,
            next: 0,
            geo,
        }
    }

    /// Total capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.blocks
    }

    /// Allocates a slot of `nblocks` contiguous blocks, wrapping
    /// circularly. Returns the slot's first block.
    ///
    /// # Panics
    ///
    /// Panics if `nblocks` exceeds the region size or is zero.
    pub fn alloc(&mut self, nblocks: u64) -> BlockAddr {
        assert!(
            (1..=self.blocks).contains(&nblocks),
            "slot of {nblocks} blocks does not fit a {}-block region",
            self.blocks
        );
        if self.next + nblocks > self.blocks {
            self.next = 0; // never straddle the wrap point
        }
        let first = self.base.offset(self.next * self.geo.block_bytes());
        self.next += nblocks;
        self.geo.block_of(first)
    }

    /// The `i`th block after `base` (for iterating a slot).
    pub fn block_at(&self, base: BlockAddr, i: u64) -> BlockAddr {
        self.geo.block_at(base, i)
    }

    /// Iterates over every block of the region (for pre-warming).
    pub fn all_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        let first = self.geo.block_of(self.base);
        (0..self.blocks).map(move |i| self.geo.block_at(first, i))
    }
}

/// A region's checkpoint state is its allocation cursor, which lies
/// within the region.
impl State for QueueRegion {
    fn snapshot(&self) -> Json {
        self.next.encode()
    }
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        self.next = u64::decode(v)?;
        ensure(
            self.next <= self.blocks,
            "queue cursor past the end of its region",
        )
    }
}

/// Queue slot size in blocks: one maximum-size network message (256 B)
/// per slot, like the hardware CNI queues. Fixed-size slots keep the
/// circular allocator aligned so slot reuse distance equals queue
/// capacity.
pub const SLOT_BLOCKS: u64 = 4;

/// Rounds `t` up to the next multiple of `interval` (NI poll quantisation
/// for designs that discover work by polling a memory queue).
pub fn next_poll_tick(t: Time, interval: Dur) -> Time {
    let iv = interval.as_ns();
    if iv == 0 {
        return t;
    }
    let ns = t.as_ns();
    Time::from_ns(ns.div_ceil(iv) * iv)
}

/// Standard queue layout: per-node address map used by the CNI models.
///
/// All queue regions and tail blocks live inside **one 1 MB window**
/// (the processor cache size), so every block maps to a distinct
/// direct-mapped set — no region conflicts with another or with the tail
/// pointers.
pub mod layout {
    use nisim_mem::Addr;

    /// Base of the memory-homed send queue region (128 KB).
    pub const SEND_BASE: Addr = Addr::new(0x1000_0000);
    /// Base of the memory-homed receive queue region (128 KB).
    pub const RECV_BASE: Addr = Addr::new(0x1002_0000);
    /// Base of the `CNI_512Q` send queue region (up to 256 KB).
    pub const CNI512_SEND_BASE: Addr = Addr::new(0x1004_0000);
    /// Base of the `CNI_512Q` receive queue region (up to 256 KB).
    pub const CNI512_RECV_BASE: Addr = Addr::new(0x1008_0000);
    /// Base of the tail-pointer blocks.
    pub const TAILS_BASE: Addr = Addr::new(0x100C_0000);
    /// Base of the memory-homed queue-pair context table the RDMA NI
    /// fetches QP state from on a QP-cache miss (64 KB).
    pub const QP_CTX_BASE: Addr = Addr::new(0x100D_0000);
    /// Size of a memory-homed queue region, in blocks (32 KB = 128
    /// message slots — plentiful relative to the flow-control buffers).
    pub const MEMORY_QUEUE_BLOCKS: u64 = 512;
    /// Largest supported `CNI_512Q` queue, in blocks (256 KB).
    pub const CNI512_MAX_BLOCKS: u64 = 4096;
    /// Blocks in the QP context table: contexts of distinct connections
    /// map onto it modulo this, so arbitrarily many logical connections
    /// still touch a bounded, block-aligned region.
    pub const QP_CTX_BLOCKS: u64 = 1024;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_advances_contiguously() {
        let mut q = QueueRegion::new(Addr::new(0x1000), 8, 64);
        let a = q.alloc(2);
        let b = q.alloc(2);
        assert_eq!(a.raw(), 0x1000);
        assert_eq!(b.raw(), 0x1000 + 128);
        assert_eq!(q.block_at(a, 1).raw(), 0x1040);
    }

    #[test]
    fn alloc_wraps_without_straddling() {
        let mut q = QueueRegion::new(Addr::new(0x1000), 4, 64);
        q.alloc(3);
        // Only one block left at the end; a 2-block slot wraps to base.
        let s = q.alloc(2);
        assert_eq!(s.raw(), 0x1000);
    }

    #[test]
    fn wraparound_reuses_addresses() {
        let mut q = QueueRegion::new(Addr::new(0x2000), 4, 64);
        let first = q.alloc(4);
        let second = q.alloc(4);
        assert_eq!(first, second, "full-region slots must reuse addresses");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_slot_panics() {
        QueueRegion::new(Addr::new(0x1000), 4, 64).alloc(5);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn unaligned_base_panics() {
        QueueRegion::new(Addr::new(0x1004), 4, 64);
    }

    #[test]
    fn poll_tick_rounds_up() {
        let iv = Dur::ns(100);
        assert_eq!(next_poll_tick(Time::from_ns(0), iv), Time::from_ns(0));
        assert_eq!(next_poll_tick(Time::from_ns(1), iv), Time::from_ns(100));
        assert_eq!(next_poll_tick(Time::from_ns(100), iv), Time::from_ns(100));
        assert_eq!(next_poll_tick(Time::from_ns(101), iv), Time::from_ns(200));
        assert_eq!(
            next_poll_tick(Time::from_ns(37), Dur::ZERO),
            Time::from_ns(37)
        );
    }

    #[test]
    fn layout_regions_are_disjoint_and_fit_one_cache_window() {
        use layout::*;
        let regions = [
            (SEND_BASE.raw(), MEMORY_QUEUE_BLOCKS * 64),
            (RECV_BASE.raw(), MEMORY_QUEUE_BLOCKS * 64),
            (CNI512_SEND_BASE.raw(), CNI512_MAX_BLOCKS * 64),
            (CNI512_RECV_BASE.raw(), CNI512_MAX_BLOCKS * 64),
            (TAILS_BASE.raw(), 4 * 64),
            (QP_CTX_BASE.raw(), QP_CTX_BLOCKS * 64),
        ];
        for (i, &(base_i, len_i)) in regions.iter().enumerate() {
            for &(base_j, _) in &regions[i + 1..] {
                assert!(base_i + len_i <= base_j, "regions overlap");
            }
        }
        // Everything must live inside one 1 MB window so no two blocks
        // share a direct-mapped set.
        let first = regions[0].0;
        let last = regions.last().unwrap();
        assert!(last.0 + last.1 - first <= 1 << 20, "layout exceeds 1 MB");
    }
}
