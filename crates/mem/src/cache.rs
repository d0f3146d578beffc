//! Set-associative cache model with MOESI line states.
//!
//! The study's processor cache is 1 MB, direct-mapped, 64-byte blocks
//! ([`CacheConfig::default`]). The same structure models the small NI
//! caches of the coherent network interfaces (e.g. the 32-entry,
//! fully-associative receive cache of `CNI_32Q_m`), so associativity is a
//! parameter.
//!
//! The cache tracks *tags and states only* — simulated programs have no
//! data values, the timing model only needs to know where the freshest copy
//! of each block lives.

use nisim_engine::codec::{array, ensure, Codec, DecodeError, Fields};
use nisim_engine::metrics::{Component, ComponentCycles};
use nisim_engine::{Dur, Json};

use crate::addr::{Addr, BlockAddr, BlockGeometry};
use crate::moesi::MoesiState;

/// Cache geometry and policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes; must match the bus geometry.
    pub block_bytes: u64,
    /// Associativity; 1 = direct-mapped. Use `ways == size/block` for a
    /// fully-associative cache.
    pub ways: u32,
}

impl Default for CacheConfig {
    /// The paper's processor cache: 1 MB, direct-mapped, 64 B blocks.
    fn default() -> Self {
        CacheConfig {
            size_bytes: 1 << 20,
            block_bytes: 64,
            ways: 1,
        }
    }
}

impl CacheConfig {
    /// A fully-associative cache of `entries` blocks of `block_bytes`.
    pub fn fully_associative(entries: u32, block_bytes: u64) -> CacheConfig {
        CacheConfig {
            size_bytes: entries as u64 * block_bytes,
            block_bytes,
            ways: entries,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.block_bytes / self.ways as u64
    }
}

/// A block evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Eviction {
    /// The evicted block.
    pub block: BlockAddr,
    /// Its state at eviction; dirty states require a writeback.
    pub state: MoesiState,
}

/// Hit/miss/writeback counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a valid line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Evictions of dirty lines.
    pub dirty_evictions: u64,
    /// Lines invalidated by snoops.
    pub snoop_invalidations: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    tag: u64,
    state: MoesiState,
    /// Monotonic last-use stamp for LRU victim selection.
    lru: u64,
}

const EMPTY: Line = Line {
    tag: 0,
    state: MoesiState::Invalid,
    lru: 0,
};

/// Lines per page of a cache's line table, rounded down to a power of
/// two of whole sets; a set wider than this is a page of its own.
const PAGE_LINES: usize = 64;

/// A cache's line table, allocated a page at a time: a page holds a
/// power of two of whole sets, at most [`PAGE_LINES`] lines unless one
/// set is wider, and is allocated on its first write; every line of a
/// page never written reads as [`EMPTY`]. A run pays only for the lines
/// it touches, where a 1 MB cache would otherwise write 16,384 empty
/// lines at construction. No set spans pages, so each set is one slice,
/// and the last page holds only the slots below `len`.
#[derive(Clone, Debug)]
struct Lines {
    pages: Vec<Option<Box<[Line]>>>,
    ways: usize,
    /// log2 of the sets per page.
    shift: u32,
    len: usize,
}

impl Lines {
    fn new(len: usize, ways: usize) -> Lines {
        let shift = (PAGE_LINES / ways).max(1).ilog2();
        Lines {
            pages: vec![None; len.div_ceil(ways << shift)],
            ways,
            shift,
            len,
        }
    }

    /// Where `set` starts within its page.
    fn offset(&self, set: usize) -> usize {
        (set & ((1 << self.shift) - 1)) * self.ways
    }

    /// The valid line of `set` that holds `tag`, if any.
    fn find(&self, set: usize, tag: u64) -> Option<&Line> {
        let page = self.pages[set >> self.shift].as_deref()?;
        let start = self.offset(set);
        (page[start..start + self.ways].iter()).find(|l| l.state.is_valid() && l.tag == tag)
    }

    /// [`Lines::find`], for writing.
    fn find_mut(&mut self, set: usize, tag: u64) -> Option<&mut Line> {
        let start = self.offset(set);
        let page = self.pages[set >> self.shift].as_deref_mut()?;
        (page[start..start + self.ways].iter_mut()).find(|l| l.state.is_valid() && l.tag == tag)
    }

    /// The lines of `set`, allocating its page on first write.
    fn set_mut(&mut self, set: usize) -> &mut [Line] {
        let (page, start, ways) = (set >> self.shift, self.offset(set), self.ways);
        let page_len = ways << self.shift;
        let room = self.len - page * page_len;
        let lines = self.pages[page].get_or_insert_with(|| vec![EMPTY; page_len.min(room)].into());
        &mut lines[start..start + ways]
    }

    /// Every line of the written pages, with its slot, in slot order.
    fn written(&self) -> impl Iterator<Item = (usize, &Line)> {
        let page_len = self.ways << self.shift;
        (self.pages.iter().enumerate())
            .filter_map(move |(i, p)| Some((i * page_len, p.as_deref()?)))
            .flat_map(|(base, p)| p.iter().enumerate().map(move |(k, l)| (base + k, l)))
    }

    /// Every slot whose line differs from the same slot of `base`, a
    /// table of the same shape, with its line, in slot order. Pages
    /// neither table wrote are skipped whole.
    fn changed<'a>(&'a self, base: &'a Lines) -> impl Iterator<Item = (usize, &'a Line)> {
        let page_len = self.ways << self.shift;
        let line = |page: Option<&'a [Line]>, k: usize| page.map_or(&EMPTY, |p| &p[k]);
        (self.pages.iter().zip(&base.pages).enumerate()).flat_map(move |(i, (page, old))| {
            let (page, old) = (page.as_deref(), old.as_deref());
            let len = page.or(old).map_or(0, <[Line]>::len);
            (0..len).filter_map(move |k| {
                let l = line(page, k);
                (*l != *line(old, k)).then_some((i * page_len + k, l))
            })
        })
    }
}

/// A set-associative, MOESI-state cache (tags only).
///
/// # Example
///
/// ```
/// use nisim_mem::{Cache, CacheConfig, MoesiState, Addr};
/// let mut c = Cache::new(CacheConfig::fully_associative(2, 64));
/// let geo = c.geometry();
/// let b0 = geo.block_of(Addr::new(0));
/// let b1 = geo.block_of(Addr::new(64));
/// let b2 = geo.block_of(Addr::new(128));
/// assert!(c.insert(b0, MoesiState::Exclusive).is_none());
/// assert!(c.insert(b1, MoesiState::Modified).is_none());
/// // Third insert into a 2-entry cache evicts the LRU block (b0).
/// let ev = c.insert(b2, MoesiState::Shared).unwrap();
/// assert_eq!(ev.block, b0);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    geo: BlockGeometry,
    /// log2 of the block size and the set count minus one: a block's set
    /// is `(addr >> block_shift) & set_mask`, both being powers of two.
    block_shift: u32,
    set_mask: u64,
    lines: Lines,
    clock: u64,
    stats: CacheStats,
    /// Bitmap of every [`MoesiState`] a line of this cache has ever
    /// held (bit = [`MoesiState::index`]). Maintained in debug builds
    /// only; the static-vs-dynamic agreement test compares it against
    /// the model checker's reachable-state set.
    visited: u8,
    metrics: Option<Box<CacheMetrics>>,
}

/// Cycle accounting for one cache: processor stall time attributed to
/// miss fills and ownership upgrades. The cache itself only tracks tags,
/// so the *durations* are charged by the caller that computed them (the
/// node's coherent access primitives) through these typed handles;
/// collected only when [`Cache::enable_metrics`] was called.
#[derive(Clone, Debug, Default)]
pub struct CacheMetrics {
    /// Miss-fill and upgrade stall cycles.
    pub cycles: ComponentCycles,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two block size,
    /// capacity not divisible into `ways` equal sets, or zero ways).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.ways > 0, "cache must have at least one way");
        let geo = BlockGeometry::new(cfg.block_bytes);
        let blocks = cfg.size_bytes / cfg.block_bytes;
        assert!(
            blocks.is_multiple_of(cfg.ways as u64) && blocks > 0,
            "cache capacity must divide into an integral number of sets"
        );
        let sets = blocks / cfg.ways as u64;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two, got {sets}"
        );
        let mut cache = Cache {
            cfg,
            geo,
            block_shift: cfg.block_bytes.ilog2(),
            set_mask: sets - 1,
            lines: Lines::new(blocks as usize, cfg.ways as usize),
            clock: 0,
            stats: CacheStats::default(),
            visited: 0,
            metrics: None,
        };
        // Every line starts Invalid, so Invalid is visited by construction.
        cache.note_visit(MoesiState::Invalid);
        cache
    }

    /// Records a state a line takes on, for the debug-build visit bitmap.
    #[inline]
    fn note_visit(&mut self, state: MoesiState) {
        if cfg!(debug_assertions) {
            self.visited |= 1 << state.index();
        }
    }

    /// The set of [`MoesiState`]s lines of this cache have held, as a
    /// bitmap over [`MoesiState::index`]. Always 0 in release builds.
    pub fn visited_mask(&self) -> u8 {
        self.visited
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The block geometry shared with the bus.
    pub fn geometry(&self) -> BlockGeometry {
        self.geo
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Turns on stall-cycle accounting. Observational only.
    pub fn enable_metrics(&mut self) {
        self.metrics = Some(Box::default());
    }

    /// The accumulated stall accounting, if enabled.
    pub fn metrics(&self) -> Option<&CacheMetrics> {
        self.metrics.as_deref()
    }

    /// Charges a miss-fill stall of `dur` (the responder time the caller
    /// computed for the fill). No-op unless metrics are enabled.
    #[inline]
    pub fn charge_miss_stall(&mut self, dur: Dur) {
        if let Some(m) = &mut self.metrics {
            m.cycles.charge(Component::CacheMissStall, dur);
        }
    }

    /// Charges an ownership-upgrade stall of `dur`. No-op unless metrics
    /// are enabled.
    #[inline]
    pub fn charge_upgrade_stall(&mut self, dur: Dur) {
        if let Some(m) = &mut self.metrics {
            m.cycles.charge(Component::CacheUpgradeStall, dur);
        }
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        ((block.raw() >> self.block_shift) & self.set_mask) as usize
    }

    /// The MOESI state of `block` (`Invalid` if not present).
    pub fn state_of(&self, block: BlockAddr) -> MoesiState {
        (self.lines.find(self.set_index(block), block.raw()))
            .map_or(MoesiState::Invalid, |l| l.state)
    }

    /// True if the block is present in a valid state.
    pub fn contains(&self, block: BlockAddr) -> bool {
        (self.lines.find(self.set_index(block), block.raw())).is_some()
    }

    /// Looks up `block`, recording a hit or miss and refreshing LRU on hit.
    /// Returns the state found (`Invalid` on miss).
    pub fn lookup(&mut self, block: BlockAddr) -> MoesiState {
        self.clock += 1;
        match self.lines.find_mut(self.set_index(block), block.raw()) {
            Some(line) => {
                self.stats.hits += 1;
                line.lru = self.clock;
                line.state
            }
            None => {
                self.stats.misses += 1;
                MoesiState::Invalid
            }
        }
    }

    /// Sets the state of a resident block (e.g. after a snoop or an
    /// upgrade). Setting `Invalid` removes the line.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn set_state(&mut self, block: BlockAddr, state: MoesiState) {
        (self.lines.find_mut(self.set_index(block), block.raw()))
            .unwrap_or_else(|| panic!("set_state on non-resident {block:?}"))
            .state = state;
        self.note_visit(state);
    }

    /// Invalidates `block` if present, returning its prior state.
    pub fn invalidate(&mut self, block: BlockAddr) -> MoesiState {
        match self.lines.find_mut(self.set_index(block), block.raw()) {
            Some(line) => {
                self.stats.snoop_invalidations += 1;
                std::mem::replace(&mut line.state, MoesiState::Invalid)
            }
            None => MoesiState::Invalid,
        }
    }

    /// Inserts `block` with `state`, evicting the set's LRU valid line if
    /// the set is full. Returns the eviction, if any.
    ///
    /// Inserting a block that is already resident just updates its state.
    pub fn insert(&mut self, block: BlockAddr, state: MoesiState) -> Option<Eviction> {
        self.clock += 1;
        self.note_visit(state);
        let set = self.set_index(block);
        let line = Line {
            tag: block.raw(),
            state,
            lru: self.clock,
        };
        if let Some(resident) = self.lines.find_mut(set, block.raw()) {
            *resident = line;
            return None;
        }
        let set = self.lines.set_mut(set);
        // Prefer an invalid slot; otherwise evict the least-recently-used.
        let way = set
            .iter()
            .position(|l| !l.state.is_valid())
            .unwrap_or_else(|| {
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(i, _)| i)
                    .expect("cache set cannot be empty")
            });
        let victim = std::mem::replace(&mut set[way], line);
        victim.state.is_valid().then(|| {
            if victim.state.dirty() {
                self.stats.dirty_evictions += 1;
            }
            Eviction {
                block: BlockAddr::from_raw(victim.tag),
                state: victim.state,
            }
        })
    }

    /// Number of valid lines currently resident.
    pub fn valid_lines(&self) -> usize {
        self.iter().count()
    }

    /// Iterates over all resident `(block, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, MoesiState)> + '_ {
        (self.lines.written())
            .filter(|(_, l)| l.state.is_valid())
            .map(|(_, l)| (BlockAddr::from_raw(l.tag), l.state))
    }

    /// The block that `addr` falls in, for convenience.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        self.geo.block_of(addr)
    }
}

/// Checkpoint state. A cache is stored against a base: the cache of
/// the same configuration that the restoring side holds before it
/// restores. A node's base is the fresh hardware every node of its
/// machine starts as (`NodeHw::fresh` in nisim-core), so a checkpoint
/// holds only the lines its run changed; a standalone cache's base is an
/// empty cache of its configuration.
impl Cache {
    /// The dynamic state against `base` — the slot count, every slot
    /// whose line differs from `base`'s in ascending slot order (the
    /// public [`Cache::iter`] loses LRU order), the LRU clock, the stats,
    /// the visit bitmap and, when enabled, the stall metrics. Geometry
    /// comes from the config and is not included. The stored lines are
    /// four columns of one length, `"lines": {"slot": [..], "tag": [..],
    /// "state": [..], "lru": [..]}`, so a snapshot holds four arrays per
    /// cache, not one per line.
    ///
    /// A base line the run invalidated, re-stamped or changed the state
    /// of is stored, and so is an invalid line that kept a stale tag or
    /// lru: lookups ignore it, but storing it makes save → restore → save
    /// a byte-for-byte fixed point.
    ///
    /// # Panics
    ///
    /// Panics if `base` has another configuration.
    pub fn snapshot(&self, base: &Cache) -> Json {
        assert_eq!(
            self.cfg, base.cfg,
            "a cache snapshots against its own config"
        );
        let changed = || self.lines.changed(&base.lines);
        let n = changed().count();
        let mut columns: [Vec<Json>; 4] = std::array::from_fn(|_| Vec::with_capacity(n));
        let [slots, tags, states, lrus] = &mut columns;
        for (slot, l) in changed() {
            slots.push(slot.encode());
            tags.push(l.tag.encode());
            states.push(l.state.encode());
            lrus.push(l.lru.encode());
        }
        let [slots, tags, states, lrus] = columns.map(Json::Arr);
        let lines = Json::obj()
            .set("slot", slots)
            .set("tag", tags)
            .set("state", states)
            .set("lru", lrus);
        let mut v = Json::obj()
            .set("slots", self.lines.len.encode())
            .set("lines", lines)
            .set("clock", self.clock.encode())
            .set("hits", self.stats.hits.encode())
            .set("misses", self.stats.misses.encode())
            .set("dirty_evictions", self.stats.dirty_evictions.encode())
            .set(
                "snoop_invalidations",
                self.stats.snoop_invalidations.encode(),
            )
            .set("visited", self.visited.encode());
        if let Some(m) = &self.metrics {
            v = v.set("metrics", m.cycles.encode());
        }
        v
    }

    /// Restores [`Cache::snapshot`] state into this cache, which must be
    /// the base the snapshot was taken against: each stored line is
    /// written over the base's line in its slot, and every other line
    /// keeps the base's value.
    ///
    /// Every stored line was placed by [`Cache::insert`], so its tag is a
    /// block base that maps to the line's set, and it differs from the
    /// base's line in its slot, so every cache state has one encoding.
    /// Every line the cache then holds, stored or kept, has an LRU stamp
    /// that is a past value of the clock and a state the visit bitmap
    /// records. The four columns have one length, slots come in strictly
    /// ascending order, and the metrics key must be present exactly when
    /// the restoring cache has metrics enabled.
    ///
    /// # Errors
    ///
    /// Returns the path and reason of the first invalid value; the cache
    /// is then unspecified and must be discarded.
    pub fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        let slots: usize = f.get("slots")?;
        if slots != self.lines.len {
            let has = self.lines.len;
            return Err(DecodeError::new(format!(
                "{slots} slots, this cache has {has}"
            )));
        }
        let ways = self.lines.ways;
        f.with("lines", |j| {
            let mut columns = Fields::of(j)?;
            let slots = columns.with("slot", array)?;
            let tags = columns.with("tag", array)?;
            let states = columns.with("state", array)?;
            let lrus = columns.with("lru", array)?;
            columns.finish()?;
            let n = slots.len();
            ensure(
                tags.len() == n && states.len() == n && lrus.len() == n,
                "columns of unequal length",
            )?;
            let mut next = 0; // lowest slot the next entry may name
            let rows = slots.iter().zip(tags).zip(states).zip(lrus);
            for (i, (((slot, tag), state), lru)) in rows.enumerate() {
                let at = |column| move |e: DecodeError| e.in_index(i).in_key(column);
                let slot = self.check_slot(next, slot).map_err(at("slot"))?;
                let tag = self.check_tag(slot, tag).map_err(at("tag"))?;
                let state = MoesiState::decode(state).map_err(at("state"))?;
                let lru = u64::decode(lru).map_err(at("lru"))?;
                let stored = Line { tag, state, lru };
                let line = &mut self.lines.set_mut(slot / ways)[slot % ways];
                ensure(*line != stored, "line equals the base's line in this slot")
                    .map_err(at("slot"))?;
                (*line, next) = (stored, slot + 1);
            }
            Ok(())
        })?;
        self.clock = f.get("clock")?;
        self.stats.hits = f.get("hits")?;
        self.stats.misses = f.get("misses")?;
        self.stats.dirty_evictions = f.get("dirty_evictions")?;
        self.stats.snoop_invalidations = f.get("snoop_invalidations")?;
        self.visited = f.get("visited")?;
        if let Some(m) = &mut self.metrics {
            m.cycles = f.get("metrics")?;
        }
        f.finish()?;
        // Every line held now: the stored ones and those kept from the base.
        let (max_lru, seen) = (self.lines.written()).fold(
            (0, 1u8 << MoesiState::Invalid.index()),
            |(lru, seen), (_, l)| (lru.max(l.lru), seen | 1 << l.state.index()),
        );
        let lookups = self.stats.hits.checked_add(self.stats.misses);
        ensure(
            max_lru <= self.clock && lookups.is_some_and(|n| n <= self.clock),
            "LRU stamps or lookups ahead of the clock",
        )?;
        ensure(
            if cfg!(debug_assertions) {
                self.visited & seen == seen && self.visited >> MoesiState::ALL.len() == 0
            } else {
                self.visited == 0
            },
            "visit bitmap disagrees with the stored lines",
        )
    }

    /// Decodes one stored slot: in range and after the previous one.
    fn check_slot(&self, next: usize, slot: &Json) -> Result<usize, DecodeError> {
        let slot = usize::decode(slot)?;
        ensure(
            (next..self.lines.len).contains(&slot),
            "slot out of range or out of ascending order",
        )?;
        Ok(slot)
    }

    /// Decodes one stored tag: a block base that maps to `slot`'s set.
    fn check_tag(&self, slot: usize, tag: &Json) -> Result<u64, DecodeError> {
        let tag = u64::decode(tag)?;
        ensure(
            tag.is_multiple_of(self.cfg.block_bytes)
                && self.set_index(BlockAddr::from_raw(tag)) == slot / self.lines.ways,
            "tag is not a block that maps to this slot's set",
        )?;
        Ok(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 1 way x 64 B = 256 B direct-mapped.
        Cache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 64,
            ways: 1,
        })
    }

    fn block(c: &Cache, addr: u64) -> BlockAddr {
        c.geometry().block_of(Addr::new(addr))
    }

    /// `c`'s snapshot as a standalone cache: against an empty base.
    fn standalone(c: &Cache) -> Json {
        c.snapshot(&Cache::new(c.config()))
    }

    #[test]
    fn stall_charges_require_enablement() {
        let mut c = small();
        c.charge_miss_stall(Dur::ns(120)); // silently dropped while off
        assert!(c.metrics().is_none());
        c.enable_metrics();
        c.charge_miss_stall(Dur::ns(120));
        c.charge_upgrade_stall(Dur::ns(8));
        let m = c.metrics().unwrap();
        assert_eq!(m.cycles.get(Component::CacheMissStall), Dur::ns(120));
        assert_eq!(m.cycles.get(Component::CacheUpgradeStall), Dur::ns(8));
        assert_eq!(m.cycles.total(), Dur::ns(128));
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_order() {
        let mut c = Cache::new(CacheConfig::fully_associative(2, 64));
        let b0 = block(&c, 0x00);
        let b1 = block(&c, 0x40);
        let b2 = block(&c, 0x80);
        c.insert(b0, MoesiState::Modified);
        c.insert(b1, MoesiState::Shared);
        c.lookup(b0); // b1 becomes LRU
        let snap = standalone(&c);

        let mut fresh = Cache::new(CacheConfig::fully_associative(2, 64));
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.stats(), c.stats());
        assert_eq!(fresh.visited_mask(), c.visited_mask());
        assert_eq!(fresh.lookup(b0), MoesiState::Modified);
        assert_eq!(fresh.lookup(b1), MoesiState::Shared);
        // LRU order survived: the next conflict insert must evict b1.
        let mut replay = Cache::new(CacheConfig::fully_associative(2, 64));
        replay.restore(&snap).unwrap();
        let ev = replay.insert(b2, MoesiState::Exclusive).unwrap();
        assert_eq!(ev.block, b1);
        // Mismatched geometry and truncated snapshots are rejected.
        let mut wrong = Cache::new(CacheConfig::fully_associative(4, 64));
        assert!(wrong.restore(&snap).is_err());
        let mut again = Cache::new(CacheConfig::fully_associative(2, 64));
        assert!(again.restore(&Json::obj().set("clock", 1u64)).is_err());
    }

    /// `snap` with the value under `key` replaced.
    fn with_field(snap: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(pairs) = snap else {
            panic!("cache snapshot is an object");
        };
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
                .collect(),
        )
    }

    /// The `lines` object of a snapshot, from its four columns.
    fn columns(slot: &[u64], tag: &[u64], state: &[u64], lru: &[u64]) -> Json {
        let column = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| Json::from(x)).collect());
        Json::obj()
            .set("slot", column(slot))
            .set("tag", column(tag))
            .set("state", column(state))
            .set("lru", column(lru))
    }

    #[test]
    fn sparse_snapshot_round_trips_stale_invalid_lines() {
        // 8 sets x 1 way; the base holds slots 1-4.
        let cfg = CacheConfig {
            size_bytes: 512,
            block_bytes: 64,
            ways: 1,
        };
        let mut base = Cache::new(cfg);
        let b = |slot: u64| block(&base, slot * 0x40);
        let (b1, b2, b3, b4, b5) = (b(1), b(2), b(3), b(4), b(5));
        base.insert(b1, MoesiState::Exclusive);
        base.insert(b2, MoesiState::Shared);
        base.insert(b3, MoesiState::Owned);
        base.insert(b4, MoesiState::Owned);
        let mut c = base.clone();
        c.lookup(b1); // slot 1 re-stamped
        c.set_state(b2, MoesiState::Modified); // slot 2 changes state
        c.invalidate(b3); // slot 3 keeps its tag and lru while Invalid
        c.insert(b5, MoesiState::Shared); // slot 5, which the base never wrote
        let snap = c.snapshot(&base);
        let state = |s: MoesiState| s.index() as u64;
        let (ex, md, inv, sh) = (
            state(MoesiState::Exclusive),
            state(MoesiState::Modified),
            state(MoesiState::Invalid),
            state(MoesiState::Shared),
        );
        assert_eq!(snap.get("slots").and_then(Json::as_u64), Some(8));
        // Slot 4 is the base's line, so it is not stored.
        assert_eq!(
            snap.get("lines").unwrap().to_compact(),
            columns(
                &[1, 2, 3, 5],
                &[0x40, 0x80, 0xC0, 0x140],
                &[ex, md, inv, sh],
                &[5, 2, 3, 6]
            )
            .to_compact()
        );

        // Restored over the base, the cache is the one saved.
        let text = snap.to_compact();
        let mut fresh = base.clone();
        fresh
            .restore(&nisim_engine::json::parse(&text).unwrap())
            .unwrap();
        assert_eq!(
            fresh.snapshot(&base).to_compact(),
            text,
            "save-restore-save"
        );
        assert_eq!(standalone(&fresh).to_compact(), standalone(&c).to_compact());
        assert_eq!(fresh.state_of(b2), MoesiState::Modified);
        assert_eq!(fresh.state_of(b4), MoesiState::Owned, "kept from the base");
        assert!(!fresh.contains(b3));
        assert_eq!(fresh.valid_lines(), 4);

        // Every state has one encoding: a stored line equal to the
        // base's is refused, here the base's own lines stored against an
        // empty cache and restored over the base.
        assert_eq!(
            base.clone()
                .restore(&standalone(&base))
                .map_err(|e| e.to_string()),
            Err("lines.slot[0]: line equals the base's line in this slot".into())
        );
        // The clock must pass the stamps of the lines kept from the base
        // too: slot 4 was stamped at 4, and no stored line is above 1.
        let mut early = base.clone();
        early.lookup(b1);
        let early = with_field(&early.snapshot(&base), "lines", columns(&[], &[], &[], &[]));
        assert_eq!(
            base.clone()
                .restore(&with_field(&early, "clock", Json::from(3u64)))
                .map_err(|e| e.to_string()),
            Err("LRU stamps or lookups ahead of the clock".into())
        );

        // A cache equal to its base, like an empty one, stores four
        // empty columns.
        let none = r#"{"slot":[],"tag":[],"state":[],"lru":[]}"#;
        assert_eq!(
            base.snapshot(&base).get("lines").unwrap().to_compact(),
            none
        );
        assert_eq!(
            standalone(&small()).get("lines").unwrap().to_compact(),
            none
        );
    }

    #[test]
    fn sparse_restore_rejects_malformed_lines() {
        let mut c = small();
        c.insert(block(&c, 0x40), MoesiState::Exclusive);
        let snap = standalone(&c);
        let ex = MoesiState::Exclusive.index() as u64;
        let invalid = MoesiState::Invalid.index() as u64;
        let lines = |v: Json| with_field(&snap, "lines", v);
        let without = |v: &Json, key: &str| {
            let Json::Obj(pairs) = v else {
                unreachable!("snapshots are objects")
            };
            Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect())
        };
        let one = |slot, tag, state, lru| lines(columns(&[slot], &[tag], &[state], &[lru]));
        let cases = [
            (
                "wrong slots",
                with_field(&snap, "slots", Json::from(8u64)),
                "8 slots, this cache has 4",
            ),
            (
                "missing slots",
                without(&snap, "slots"),
                "missing key `slots`",
            ),
            (
                "out-of-range slot",
                one(4, 0x100, ex, 1),
                "lines.slot[0]: slot out of range or out of ascending order",
            ),
            (
                "repeated slot",
                lines(columns(&[1, 1], &[0x40, 0x140], &[ex, ex], &[1, 2])),
                "lines.slot[1]: slot out of range or out of ascending order",
            ),
            (
                "descending slot",
                lines(columns(&[2, 1], &[0x80, 0x40], &[ex, ex], &[2, 1])),
                "lines.slot[1]: slot out of range or out of ascending order",
            ),
            (
                "bad state index",
                one(1, 0x40, 99, 1),
                "lines.state[0]: unknown MOESI state index",
            ),
            // A tag one block over maps to the next set, not this slot's.
            (
                "tag of another set",
                one(1, 0x80, ex, 1),
                "lines.tag[0]: tag is not a block that maps to this slot's set",
            ),
            (
                "unaligned tag",
                one(1, 0x41, ex, 1),
                "lines.tag[0]: tag is not a block that maps to this slot's set",
            ),
            (
                "lru ahead of the clock",
                one(1, 0x40, ex, 99),
                "LRU stamps or lookups ahead of the clock",
            ),
            // The empty base's line in slot 0.
            (
                "line equal to the base's",
                one(0, 0, invalid, 0),
                "lines.slot[0]: line equals the base's line in this slot",
            ),
            // The column form of a short and a long `[slot, tag, state,
            // lru]` entry: a column missing, and a fifth column.
            (
                "missing column",
                lines(without(&columns(&[1], &[0x40], &[ex], &[1]), "lru")),
                "lines: missing key `lru`",
            ),
            (
                "extra column",
                lines(columns(&[1], &[0x40], &[ex], &[1]).set("dirty", Json::Arr(vec![]))),
                "lines: unexpected key `dirty`",
            ),
            (
                "columns of unequal length",
                lines(columns(&[1, 2], &[0x40, 0x80], &[ex, ex], &[1])),
                "lines: columns of unequal length",
            ),
        ];
        let mut fresh = small();
        fresh.restore(&snap).expect("control snapshot must restore");
        for (what, bad, error) in cases {
            let got = small().restore(&bad).map_err(|e| e.to_string());
            assert_eq!(got, Err(error.to_string()), "{what} must be rejected");
        }
    }

    #[test]
    fn restore_replaces_pages_written_elsewhere() {
        // 64 sets x 4 ways: pages of 16 sets, four pages.
        let cfg = CacheConfig {
            size_bytes: 256 * 64,
            block_bytes: 64,
            ways: 4,
        };
        let fill = |c: &mut Cache, sets: &[u64], lap: u64| {
            for (k, &set) in sets.iter().enumerate() {
                let b = block(c, (set + 64 * (k as u64 + lap)) * 64);
                c.insert(b, MoesiState::Modified);
                c.lookup(b);
            }
        };
        // The base writes pages 0 and 2; the run adds lines to pages 1,
        // 2 and 3 and leaves the base's lines alone.
        let mut base = Cache::new(cfg);
        fill(&mut base, &[0, 1, 40], 0);
        let mut a = base.clone();
        fill(&mut a, &[17, 33, 63, 63], 4);
        let snap = a.snapshot(&base);
        let stored = snap.get("lines").and_then(|l| l.get("slot"));
        assert_eq!(stored.and_then(Json::as_arr).map(<[Json]>::len), Some(4));

        let mut b = base.clone();
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot(&base).to_compact(), snap.to_compact());
        assert_eq!(b.valid_lines(), 7);
        // The base's lines were kept, the run's restored, and the sets
        // nobody wrote miss.
        fn resident(sets: &[u64], lap: u64) -> impl Iterator<Item = u64> + '_ {
            (sets.iter().enumerate()).map(move |(k, &set)| (set + 64 * (k as u64 + lap)) * 64)
        }
        for addr in resident(&[0, 1, 40], 0).chain(resident(&[17, 33, 63, 63], 4)) {
            assert_eq!(b.lookup(block(&b, addr)), MoesiState::Modified, "{addr:#x}");
        }
        for set in (16..32).chain(48..64) {
            assert_eq!(
                b.lookup(block(&b, set * 64)),
                MoesiState::Invalid,
                "set {set}"
            );
        }

        // Restored over a cache that is not its base, the snapshot keeps
        // that cache's other lines instead: the base is part of the
        // contract.
        let mut other = Cache::new(cfg);
        other.restore(&snap).unwrap();
        assert_eq!(other.valid_lines(), 4);
    }

    #[test]
    fn pages_hold_whole_sets_within_the_line_count() {
        // A 100-way set is a page of its own. A page of 24-way sets holds
        // two, but this cache has one: its page must stop at 24 slots.
        for ways in [100u32, 24] {
            let mut c = Cache::new(CacheConfig::fully_associative(ways, 64));
            let n = u64::from(ways);
            for k in 0..n {
                assert!(c.insert(block(&c, k * 64), MoesiState::Exclusive).is_none());
            }
            assert_eq!(c.valid_lines(), ways as usize);
            c.lookup(block(&c, 0)); // block 1 becomes LRU
            let ev = c.insert(block(&c, n * 64), MoesiState::Shared).unwrap();
            assert_eq!(ev.block, block(&c, 64), "{ways} ways");
            let snap = standalone(&c);
            let slots: Vec<u64> = (snap.get("lines").and_then(|l| l.get("slot")))
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|s| s.as_u64().unwrap())
                .collect();
            assert_eq!(slots, (0..n).collect::<Vec<_>>(), "{ways} ways");
        }
    }

    #[test]
    fn empty_paper_cache_snapshot_is_compact() {
        let text = standalone(&Cache::new(CacheConfig::default())).to_compact();
        assert!(text.len() < 256, "{} bytes: {text}", text.len());
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.size_bytes, 1 << 20);
        assert_eq!(cfg.block_bytes, 64);
        assert_eq!(cfg.ways, 1);
        assert_eq!(cfg.sets(), 16384);
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = small();
        let b = block(&c, 0x40);
        assert_eq!(c.lookup(b), MoesiState::Invalid);
        c.insert(b, MoesiState::Exclusive);
        assert_eq!(c.lookup(b), MoesiState::Exclusive);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = small();
        let b0 = block(&c, 0x00);
        let b_conflict = block(&c, 0x100); // same set (4 sets * 64 B = 256 B stride)
        c.insert(b0, MoesiState::Modified);
        let ev = c.insert(b_conflict, MoesiState::Exclusive).unwrap();
        assert_eq!(ev.block, b0);
        assert_eq!(ev.state, MoesiState::Modified);
        assert!(!c.contains(b0));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        c.insert(block(&c, 0x00), MoesiState::Shared);
        assert!(c.insert(block(&c, 0x40), MoesiState::Shared).is_none());
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn fully_associative_lru() {
        let mut c = Cache::new(CacheConfig::fully_associative(2, 64));
        let b = |a| c.geometry().block_of(Addr::new(a));
        let (b0, b1, b2) = (b(0), b(64), b(128));
        c.insert(b0, MoesiState::Exclusive);
        c.insert(b1, MoesiState::Exclusive);
        c.lookup(b0); // refresh b0; b1 becomes LRU
        let ev = c.insert(b2, MoesiState::Exclusive).unwrap();
        assert_eq!(ev.block, b1);
        assert!(c.contains(b0) && c.contains(b2));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = small();
        let b = block(&c, 0x80);
        c.insert(b, MoesiState::Shared);
        assert!(c.insert(b, MoesiState::Modified).is_none());
        assert_eq!(c.state_of(b), MoesiState::Modified);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        let b = block(&c, 0x40);
        c.insert(b, MoesiState::Owned);
        assert_eq!(c.invalidate(b), MoesiState::Owned);
        assert!(!c.contains(b));
        assert_eq!(c.invalidate(b), MoesiState::Invalid);
        assert_eq!(c.stats().snoop_invalidations, 1);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = small();
        let b = block(&c, 0xC0);
        c.insert(b, MoesiState::Exclusive);
        c.set_state(b, MoesiState::Shared);
        assert_eq!(c.state_of(b), MoesiState::Shared);
        c.set_state(b, MoesiState::Invalid);
        assert!(!c.contains(b));
    }

    #[test]
    #[should_panic(expected = "set_state on non-resident")]
    fn set_state_missing_panics() {
        let mut c = small();
        let b = block(&c, 0x40);
        c.set_state(b, MoesiState::Shared);
    }

    #[test]
    fn iter_lists_resident_blocks() {
        let mut c = small();
        c.insert(block(&c, 0), MoesiState::Modified);
        c.insert(block(&c, 64), MoesiState::Shared);
        let mut blocks: Vec<u64> = c.iter().map(|(b, _)| b.raw()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 64]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn visit_bitmap_tracks_states() {
        let mut c = small();
        let b = block(&c, 0x40);
        assert_eq!(c.visited_mask(), 1 << MoesiState::Invalid.index());
        c.insert(b, MoesiState::Exclusive);
        c.set_state(b, MoesiState::Owned);
        c.set_state(b, MoesiState::Modified);
        let want = [
            MoesiState::Invalid,
            MoesiState::Exclusive,
            MoesiState::Owned,
            MoesiState::Modified,
        ]
        .iter()
        .fold(0u8, |m, s| m | 1 << s.index());
        assert_eq!(c.visited_mask(), want);
        assert_eq!(c.visited_mask() & (1 << MoesiState::Shared.index()), 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        Cache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 64,
            ways: 0,
        });
    }
}
