//! Event-queue backends: a hierarchical timing wheel and the reference
//! binary heap it replaced.
//!
//! Both structures are priority queues of `(Time, seq, payload)` entries
//! popped in ascending `(time, seq)` order — the global FIFO-at-equal-
//! instants contract that makes simulation runs exactly reproducible.
//!
//! [`TimerWheel`] is the production backend. The study's event traffic is
//! dominated by short, fixed latencies (bus transactions are 8–16 ns,
//! a link hop is 40 ns, memory is 120 ns, ack timers are a few µs), so
//! almost every event lands within a few hundred nanoseconds of `now`.
//! The wheel makes those O(1): three levels of 256 slots at 1 ns /
//! 256 ns / 65 µs granularity cover a ~16.8 ms horizon, and anything
//! beyond that waits in a far-future binary heap until the wheel's
//! window reaches it (overflow promotion). Entries live inline in
//! per-slot deques whose capacity is reused across laps — a slab per
//! slot — so steady-state scheduling allocates nothing per event, and
//! a level-0 slot (a single nanosecond, hence a single instant) drains
//! FIFO straight off the bucket front.
//!
//! [`BinaryHeapQueue`] is the original `BinaryHeap` scheduler, retained
//! as the reference implementation: the differential property suite
//! (`tests/tests/scheduler_equiv.rs`) drives both backends with
//! randomized streams and asserts identical pop sequences.
//!
//! # Ordering invariant
//!
//! `pop` always returns the entry with the smallest `(time, seq)` pair.
//! Sequence numbers are assigned by the caller in scheduling order, so
//! among events scheduled for the same instant the earliest-scheduled
//! fires first (FIFO tie-break), including events scheduled *during*
//! the instant being drained: they receive larger sequence numbers and
//! join the same slot behind every event already pending there.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Slots per wheel level (2^8).
const SLOT_BITS: u32 = 8;
/// Number of slots at each level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels (granularities 1 ns, 256 ns, 65536 ns).
const LEVELS: usize = 3;
/// Words of occupancy bitmap per level.
const OCC_WORDS: usize = SLOTS / 64;
/// Horizon of each level, in nanoseconds from the level's window base.
const SPAN: [u64; LEVELS] = [1 << SLOT_BITS, 1 << (2 * SLOT_BITS), 1 << (3 * SLOT_BITS)];

/// One queued entry.
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

/// Heap adapter: min-order on `(at, seq)` (payload ignored).
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest.
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// A two-level scheduler queue: hierarchical timing wheel for the near
/// future, binary-heap overflow for the far future.
///
/// # Example
///
/// ```
/// use nisim_engine::wheel::TimerWheel;
/// use nisim_engine::Time;
///
/// let mut q: TimerWheel<&'static str> = TimerWheel::new();
/// q.push(Time::from_ns(40), 0, "hop");
/// q.push(Time::from_ns(12), 1, "bus");
/// q.push(Time::from_ns(40), 2, "hop2");
/// assert_eq!(q.pop(), Some((Time::from_ns(12), 1, "bus")));
/// assert_eq!(q.pop(), Some((Time::from_ns(40), 0, "hop")));
/// assert_eq!(q.pop(), Some((Time::from_ns(40), 2, "hop2")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct TimerWheel<T> {
    /// `LEVELS × SLOTS` slot buckets, level-major.
    ///
    /// A level-0 slot covers exactly one nanosecond, so a level-0 bucket
    /// holds a single instant — and every path that fills a bucket
    /// (monotone-seq pushes, cascades, overflow promotion) preserves
    /// ascending `seq` among same-instant entries, so the bucket front
    /// is always the FIFO-correct next event. See `insert`.
    slots: Vec<VecDeque<Entry<T>>>,
    /// Occupancy bitmaps, one bit per slot.
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Window base of each level, aligned to the level's span.
    base: [u64; LEVELS],
    /// Far-future entries (beyond the level-2 horizon).
    overflow: BinaryHeap<HeapEntry<T>>,
    /// Scratch bucket reused by `cascade` so redistributions don't
    /// allocate in steady state.
    scratch: VecDeque<Entry<T>>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel anchored at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [[0; OCC_WORDS]; LEVELS],
            base: [0; LEVELS],
            overflow: BinaryHeap::new(),
            scratch: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of pending entries (wheel levels plus overflow).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` to pop at `(at, seq)` order position.
    ///
    /// `seq` must be unique; the caller (the [`Sim`](crate::Sim) loop)
    /// assigns it from a monotone counter in scheduling order, which is
    /// what produces the FIFO tie-break at equal instants.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        let at = at.as_ns();
        self.len += 1;
        if self.len == 1 {
            // Empty queue: re-anchor so the entry lands at level 0.
            self.anchor(at);
        } else if at < self.base[0] {
            // Out the front of the current window. This happens when a
            // horizon-bounded run left the wheel cascaded into the far
            // future and the caller then scheduled a near event: pull
            // every wheel entry out, re-anchor at the new front, and
            // re-distribute. Rare, and O(pending) when it happens.
            self.reanchor_before(at);
        }
        self.insert(Entry { at, seq, item });
    }

    /// The earliest pending `(time, seq)`, or `None` when empty. Takes
    /// `&mut self` because finding the front may promote entries from
    /// outer levels (or the overflow heap) into level 0.
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        let slot = self.advance()?;
        self.slots[slot]
            .front()
            .map(|e| (Time::from_ns(e.at), e.seq))
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        let slot = self.advance()?;
        let bucket = &mut self.slots[slot];
        debug_assert!(
            bucket
                .iter()
                .zip(bucket.iter().skip(1))
                .all(|(a, b)| a.at == b.at && a.seq < b.seq),
            "level-0 bucket lost its single-instant / ascending-seq invariant"
        );
        let e = bucket.pop_front()?;
        if bucket.is_empty() {
            clear_bit(&mut self.occ[0], slot);
        }
        self.len -= 1;
        Some((Time::from_ns(e.at), e.seq, e.item))
    }

    /// Aligns every window base to `at`.
    fn anchor(&mut self, at: u64) {
        for (level, base) in self.base.iter_mut().enumerate() {
            *base = at & !(SPAN[level] - 1);
        }
    }

    /// Handles a push in front of the current level-0 window: drains all
    /// wheel levels, re-anchors at `at`, and re-distributes. Entries
    /// remaining in the overflow heap are all later than anything that
    /// was in the wheel, so they stay put.
    fn reanchor_before(&mut self, at: u64) {
        let mut stash: Vec<Entry<T>> = Vec::new();
        for level in 0..LEVELS {
            while let Some(slot) = self.first_occupied(level) {
                let idx = level * SLOTS + slot;
                stash.extend(self.slots[idx].drain(..));
                clear_bit(&mut self.occ[level], slot);
            }
        }
        self.anchor(at);
        for e in stash {
            self.insert(e);
        }
    }

    /// Places an entry in the innermost level whose window contains it,
    /// or the overflow heap. Does not touch `len`.
    ///
    /// Appending keeps every bucket ordered by arrival, which keeps
    /// same-instant entries in ascending `seq` order end to end: direct
    /// pushes carry a monotone `seq`; a cascade replays an outer bucket
    /// in its stored order (and same-instant entries always share a
    /// bucket, because the window bases every level-choice reads only
    /// move when the covering slot is drained whole); the overflow heap
    /// promotes in `(at, seq)` order into an empty wheel. `pop` relies
    /// on this to take the bucket front without scanning.
    fn insert(&mut self, e: Entry<T>) {
        debug_assert!(e.at >= self.base[0], "entry in front of the wheel window");
        for (level, &span) in SPAN.iter().enumerate() {
            if e.at - self.base[level] < span {
                let slot = ((e.at >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
                self.slots[level * SLOTS + slot].push_back(e);
                set_bit(&mut self.occ[level], slot);
                return;
            }
        }
        self.overflow.push(HeapEntry(e));
    }

    /// Ensures the globally earliest entry sits at level 0, cascading
    /// outer levels (and promoting overflow entries) as their windows
    /// are reached. Returns the first occupied level-0 slot index, or
    /// `None` when the queue is empty.
    fn advance(&mut self) -> Option<usize> {
        loop {
            if let Some(slot) = self.first_occupied(0) {
                return Some(slot);
            }
            // Level-0 window exhausted: cascade the next occupied slot
            // of the innermost non-empty outer level into the levels
            // below it. Slot index order is time order (bases are
            // span-aligned), so the first occupied slot is the earliest.
            if let Some(slot) = self.first_occupied(1) {
                self.base[0] = self.base[1] + ((slot as u64) << SLOT_BITS);
                self.cascade(1, slot);
                continue;
            }
            if let Some(slot) = self.first_occupied(2) {
                self.base[1] = self.base[2] + ((slot as u64) << (2 * SLOT_BITS));
                self.cascade(2, slot);
                continue;
            }
            // Wheel fully drained: promote the overflow window holding
            // the earliest far-future entry.
            let head = self.overflow.peek()?;
            let new_base = head.0.at & !(SPAN[2] - 1);
            self.base[2] = new_base;
            while self
                .overflow
                .peek()
                .is_some_and(|head| head.0.at - new_base < SPAN[2])
            {
                if let Some(HeapEntry(e)) = self.overflow.pop() {
                    self.insert(e);
                }
            }
        }
    }

    /// Moves every entry of `(level, slot)` down into the level below
    /// (whose window base the caller just set), preserving stored order.
    fn cascade(&mut self, level: usize, slot: usize) {
        let idx = level * SLOTS + slot;
        debug_assert!(self.scratch.is_empty());
        // Swap rather than take: the slot keeps a reusable buffer and
        // the drained entries ride in `scratch`, so no allocation churn.
        std::mem::swap(&mut self.slots[idx], &mut self.scratch);
        clear_bit(&mut self.occ[level], slot);
        while let Some(e) = self.scratch.pop_front() {
            self.insert(e);
        }
    }

    /// First occupied slot index at `level`, if any.
    fn first_occupied(&self, level: usize) -> Option<usize> {
        for (w, word) in self.occ[level].iter().enumerate() {
            if *word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

fn set_bit(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot / 64] |= 1 << (slot % 64);
}

fn clear_bit(occ: &mut [u64; OCC_WORDS], slot: usize) {
    occ[slot / 64] &= !(1 << (slot % 64));
}

/// The original binary-heap event queue, retained as the reference
/// scheduler for differential testing.
///
/// Same contract as [`TimerWheel`]: pops in ascending `(time, seq)`.
pub struct BinaryHeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T> Default for BinaryHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BinaryHeapQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `item` at `(at, seq)`.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        self.heap.push(HeapEntry(Entry {
            at: at.as_ns(),
            seq,
            item,
        }));
    }

    /// The earliest pending `(time, seq)` (`&mut` only for API symmetry
    /// with [`TimerWheel::peek`]).
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        self.heap.peek().map(|h| (Time::from_ns(h.0.at), h.0.seq))
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.heap
            .pop()
            .map(|HeapEntry(e)| (Time::from_ns(e.at), e.seq, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops the whole queue, asserting (time, seq) monotonicity.
    fn drain(q: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s)) = q.peek() {
            let (pt, ps, item) = q.pop().unwrap();
            assert_eq!((pt, ps), (t, s), "peek/pop disagree");
            out.push((pt.as_ns(), ps, item));
        }
        for w in out.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "order violated: {w:?}");
        }
        out
    }

    #[test]
    fn orders_across_all_levels_and_overflow() {
        let mut q = TimerWheel::new();
        // One entry per scale: level 0, level 1, level 2, overflow.
        let times = [
            3u64,
            700,
            100_000,
            50_000_000,
            1 << 30,
            u64::MAX,
            255,
            256,
            257,
            65_535,
            65_536,
            (1 << 24) - 1,
            1 << 24,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i as u64, i as u32);
        }
        let got: Vec<u64> = drain(&mut q).iter().map(|e| e.0).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn same_instant_pops_in_seq_order_even_after_cascade() {
        let mut q = TimerWheel::new();
        // seq 0 goes far (lands in level 1 initially), seq 1 goes near.
        // After the near event pops and the wheel cascades, the slot for
        // t=500 must still fire seq 0 before a later-scheduled seq 2.
        q.push(Time::from_ns(500), 0, 0);
        q.push(Time::from_ns(10), 1, 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ns(500), 2, 2);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn near_push_after_far_promotion_reanchors() {
        let mut q = TimerWheel::new();
        q.push(Time::from_ns(10_000_000_000), 0, 0);
        // Peeking promotes the far entry's window.
        assert_eq!(q.peek().unwrap().0, Time::from_ns(10_000_000_000));
        // A near event must still come out first.
        q.push(Time::from_ns(5), 1, 1);
        q.push(Time::from_ns(800), 2, 2);
        let order: Vec<u64> = drain_any(&mut q);
        assert_eq!(order, [5, 800, 10_000_000_000]);
    }

    fn drain_any(q: &mut TimerWheel<u32>) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((t, _, _)) = q.pop() {
            out.push(t.as_ns());
        }
        out
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q: TimerWheel<()> = TimerWheel::new();
        assert!(q.is_empty());
        for i in 0..100u64 {
            q.push(Time::from_ns(i * 97 % 3_000_000), i, ());
        }
        assert_eq!(q.len(), 100);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_queue_matches_wheel_on_a_mixed_stream() {
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeapQueue::new();
        let mut x = 0x2545F4914F6CDD1Du64;
        for seq in 0..2_000u64 {
            // xorshift64*: cheap deterministic mixed-horizon stream.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let t = match seq % 4 {
                0 => x % 256,
                1 => x % 65_536,
                2 => x % (1 << 25),
                _ => 777, // same-instant burst
            };
            wheel.push(Time::from_ns(t), seq, seq as u32);
            heap.push(Time::from_ns(t), seq, seq as u32);
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a.map(|e| (e.0, e.1)), b.map(|e| (e.0, e.1)));
            if a.is_none() {
                break;
            }
        }
    }
}
