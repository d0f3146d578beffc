//! Physical addresses and cache-block arithmetic.
//!
//! Every queue, buffer and status word the simulated NIs expose is mapped at
//! a concrete physical address so the coherence machinery can operate on
//! real block identities (the CNI designs depend on observing, prefetching
//! and replacing specific blocks).

use std::fmt;

use nisim_engine::codec::{Codec, DecodeError};
use nisim_engine::Json;

/// A physical byte address.
///
/// # Example
///
/// ```
/// use nisim_mem::{Addr, BlockGeometry};
/// let geo = BlockGeometry::new(64);
/// let a = Addr::new(0x1234);
/// assert_eq!(geo.block_of(a).base(), Addr::new(0x1200));
/// assert_eq!(geo.offset_in_block(a), 0x34);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(raw: u64) -> Addr {
        Addr(raw)
    }

    /// The raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The address `bytes` past this one.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A block-aligned address: the identity of one cache block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Reconstructs a block address from a raw, already block-aligned base
    /// address (cache tags store raw bases).
    pub(crate) const fn from_raw(raw: u64) -> BlockAddr {
        BlockAddr(raw)
    }

    /// The block's base byte address.
    #[inline]
    pub const fn base(self) -> Addr {
        Addr(self.0)
    }

    /// The raw base address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// The raw base address. Decoding cannot know the block size, so the
/// restoring side checks alignment against its geometry.
impl Codec for BlockAddr {
    fn encode(&self) -> Json {
        self.0.encode()
    }
    fn decode(v: &Json) -> Result<BlockAddr, DecodeError> {
        u64::decode(v).map(BlockAddr)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:#x})", self.0)
    }
}

/// Cache-block geometry: the block size shared by caches, bus and NIs.
///
/// Block size must be a power of two (64 bytes in the study).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockGeometry {
    block_bytes: u64,
}

impl BlockGeometry {
    /// Creates a geometry with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two.
    pub fn new(block_bytes: u64) -> BlockGeometry {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two, got {block_bytes}"
        );
        BlockGeometry { block_bytes }
    }

    /// Block size in bytes.
    #[inline]
    pub const fn block_bytes(self) -> u64 {
        self.block_bytes
    }

    /// The block containing `addr`.
    #[inline]
    pub fn block_of(self, addr: Addr) -> BlockAddr {
        BlockAddr(addr.0 & !(self.block_bytes - 1))
    }

    /// Byte offset of `addr` within its block.
    #[inline]
    pub fn offset_in_block(self, addr: Addr) -> u64 {
        addr.0 & (self.block_bytes - 1)
    }

    /// The `i`th block after `block`.
    #[inline]
    pub fn block_at(self, block: BlockAddr, i: u64) -> BlockAddr {
        BlockAddr(block.0 + i * self.block_bytes)
    }

    /// Number of blocks touched by a region of `len` bytes starting at
    /// `addr` (zero-length regions touch zero blocks).
    pub fn blocks_spanned(self, addr: Addr, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = self.block_of(addr).0;
        let last = self.block_of(Addr(addr.0 + len - 1)).0;
        (last - first) / self.block_bytes + 1
    }

    /// Iterates over the blocks touched by the region `[addr, addr+len)`.
    pub fn blocks_of_region(self, addr: Addr, len: u64) -> impl Iterator<Item = BlockAddr> {
        let first = self.block_of(addr);
        let n = self.blocks_spanned(addr, len);
        (0..n).map(move |i| self.block_at(first, i))
    }

    /// Number of whole blocks needed to hold `len` bytes (block-aligned
    /// data, e.g. a message copied into a block-aligned queue slot).
    pub fn blocks_for_len(self, len: u64) -> u64 {
        len.div_ceil(self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_alignment() {
        let geo = BlockGeometry::new(64);
        assert_eq!(geo.block_of(Addr::new(0)).raw(), 0);
        assert_eq!(geo.block_of(Addr::new(63)).raw(), 0);
        assert_eq!(geo.block_of(Addr::new(64)).raw(), 64);
        assert_eq!(geo.offset_in_block(Addr::new(65)), 1);
    }

    #[test]
    fn blocks_spanned_counts_straddles() {
        let geo = BlockGeometry::new(64);
        assert_eq!(geo.blocks_spanned(Addr::new(0), 0), 0);
        assert_eq!(geo.blocks_spanned(Addr::new(0), 1), 1);
        assert_eq!(geo.blocks_spanned(Addr::new(0), 64), 1);
        assert_eq!(geo.blocks_spanned(Addr::new(0), 65), 2);
        assert_eq!(geo.blocks_spanned(Addr::new(60), 8), 2);
        assert_eq!(geo.blocks_spanned(Addr::new(64), 128), 2);
    }

    #[test]
    fn blocks_of_region_enumerates() {
        let geo = BlockGeometry::new(64);
        let blocks: Vec<u64> = geo
            .blocks_of_region(Addr::new(60), 70)
            .map(|b| b.raw())
            .collect();
        assert_eq!(blocks, vec![0, 64, 128]);
    }

    #[test]
    fn blocks_for_len_rounds_up() {
        let geo = BlockGeometry::new(64);
        assert_eq!(geo.blocks_for_len(0), 0);
        assert_eq!(geo.blocks_for_len(1), 1);
        assert_eq!(geo.blocks_for_len(64), 1);
        assert_eq!(geo.blocks_for_len(65), 2);
        assert_eq!(geo.blocks_for_len(256), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_panics() {
        BlockGeometry::new(48);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(format!("{:?}", Addr::new(0x40)), "Addr(0x40)");
        let geo = BlockGeometry::new(64);
        assert_eq!(
            format!("{:?}", geo.block_of(Addr::new(0x47))),
            "Block(0x40)"
        );
    }

    #[test]
    fn block_at_strides() {
        let geo = BlockGeometry::new(64);
        let b = geo.block_of(Addr::new(0x1000));
        assert_eq!(geo.block_at(b, 3).raw(), 0x1000 + 192);
    }
}
