//! The event queue: a hierarchical timing wheel over one node slab.
//!
//! [`TimerWheel`] is a priority queue of `(Time, seq, payload)` entries
//! popped in ascending `(time, seq)` order — the global FIFO-at-equal-
//! instants contract that makes simulation runs exactly reproducible.
//!
//! The study's event traffic is dominated by short, fixed latencies (bus
//! transactions are 8–16 ns, a link hop is 40 ns, memory is 120 ns, ack
//! timers are a few µs), so almost every event lands within a few hundred
//! nanoseconds of `now`. The wheel makes those O(1): three levels of 256
//! slots at 1 ns / 256 ns / 65 µs granularity cover a ~16.8 ms horizon,
//! and anything beyond that waits in a far-future binary heap until the
//! wheel's window reaches it (overflow promotion).
//!
//! Every pending entry is stored once, in a node of one slab; a slot is
//! a linked list of node indices, and the overflow heap orders node
//! indices by `(time, seq)`. A push writes its node, a pop reads it, and
//! a cascade or promotion relinks nodes without moving them. Freed nodes
//! go on a LIFO free list, so the next push reuses the node the last pop
//! freed, and the slab only grows to the peak number of pending entries:
//! steady-state scheduling allocates nothing. A level-0 slot (a single
//! nanosecond, hence a single instant) drains FIFO straight off its
//! list's head.
//!
//! The differential suite (`tests/tests/scheduler_equiv.rs`) drives the
//! wheel against a reference `BinaryHeap` queue with randomized streams
//! and asserts identical pop sequences.
//!
//! # Ordering invariant
//!
//! `pop` always returns the entry with the smallest `(time, seq)` pair.
//! Sequence numbers are assigned by the caller in scheduling order, so
//! among events scheduled for the same instant the earliest-scheduled
//! fires first (FIFO tie-break), including events scheduled *during*
//! the instant being drained: they receive larger sequence numbers and
//! join the same slot behind every event already pending there.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// The node index that names no node: the end of a list.
const NIL: u32 = u32::MAX;

/// One slab node: a pending entry and the index of the next node in its
/// slot's list (or in the free list, when `item` is `None`).
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    item: Option<T>,
}

/// A slot's list of nodes, oldest first; `NIL` at both ends when empty.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: NIL,
        tail: NIL,
    };
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
/// assert_eq!(q.pop_due(Time::from_ns(39)), None);
/// assert_eq!(q.pop(), Some((Time::from_ns(40), 0, "hop")));
/// assert_eq!(q.pop(), Some((Time::from_ns(40), 2, "hop2")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct TimerWheel<T> {
    /// Every pending entry, plus the freed nodes awaiting reuse.
    nodes: Vec<Node<T>>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free: u32,
    /// `LEVELS × SLOTS` slot lists, level-major.
    ///
    /// A level-0 slot covers exactly one nanosecond, so a level-0 list
    /// holds a single instant — and every path that fills a list
    /// (monotone-seq pushes, cascades, overflow promotion) preserves
    /// ascending `seq` among same-instant entries, so the list head is
    /// always the FIFO-correct next event. See `insert`.
    slots: Vec<Slot>,
    /// Occupancy bitmaps, one bit per slot.
    occ: [[u64; OCC_WORDS]; LEVELS],
    /// Window base of each level, aligned to the level's span.
    base: [u64; LEVELS],
    /// Far-future entries (beyond the level-2 horizon), as
    /// `(at, seq, node)`: a min-heap on `(at, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
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
            nodes: Vec::new(),
            free: NIL,
            slots: vec![Slot::EMPTY; LEVELS * SLOTS],
            occ: [[0; OCC_WORDS]; LEVELS],
            base: [0; LEVELS],
            overflow: BinaryHeap::new(),
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
            // future and the caller then scheduled a near event: unlink
            // every wheel entry, re-anchor at the new front, and
            // re-distribute. Rare, and O(pending) when it happens.
            self.reanchor_before(at);
        }
        let node = Node {
            at,
            seq,
            next: NIL,
            item: Some(item),
        };
        let idx = if self.free == NIL {
            // Every index must fit a `u32` below `NIL`; reaching it would
            // take 2^32 pending events, hundreds of GiB of slab.
            assert!(self.nodes.len() < NIL as usize, "timer wheel slab full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            idx
        };
        self.insert(idx);
    }

    /// The earliest pending `(time, seq)`, or `None` when empty. Takes
    /// `&mut self` because finding the front may promote entries from
    /// outer levels (or the overflow heap) into level 0.
    pub fn peek(&mut self) -> Option<(Time, u64)> {
        let slot = self.advance()?;
        let node = &self.nodes[self.slots[slot].head as usize];
        Some((Time::from_ns(node.at), node.seq))
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.pop_due(Time::MAX)
    }

    /// Removes and returns the earliest pending entry if it is due at or
    /// before `horizon`. `None` means the queue is empty or its earliest
    /// entry is later than `horizon`; [`TimerWheel::is_empty`] tells the
    /// two apart. One `advance` finds the entry and, when due, takes it.
    pub fn pop_due(&mut self, horizon: Time) -> Option<(Time, u64, T)> {
        let slot = self.advance()?;
        let idx = self.slots[slot].head;
        let node = &mut self.nodes[idx as usize];
        if node.at > horizon.as_ns() {
            return None;
        }
        let item = node.item.take()?;
        let (at, seq, next) = (node.at, node.seq, node.next);
        node.next = self.free;
        self.free = idx;
        debug_assert!(
            (self.nodes.get(next as usize)).is_none_or(|n| n.at == at && n.seq > seq),
            "level-0 list lost its single-instant / ascending-seq invariant"
        );
        let list = &mut self.slots[slot];
        list.head = next;
        if next == NIL {
            list.tail = NIL;
            clear_bit(&mut self.occ[0], slot);
        }
        self.len -= 1;
        Some((Time::from_ns(at), seq, item))
    }

    /// Aligns every window base to `at`.
    fn anchor(&mut self, at: u64) {
        for (level, base) in self.base.iter_mut().enumerate() {
            *base = at & !(SPAN[level] - 1);
        }
    }

    /// Handles a push in front of the current level-0 window: unlinks
    /// every wheel list into one chain (level by level, slots in order),
    /// re-anchors at `at`, and re-distributes the chain through `insert`
    /// — which sends entries beyond the new level-2 window back to the
    /// overflow heap. Entries already in the overflow heap are all later
    /// than anything that was in the wheel, so they stay put.
    fn reanchor_before(&mut self, at: u64) {
        let mut chain = Slot::EMPTY;
        for level in 0..LEVELS {
            while let Some(slot) = self.first_occupied(level) {
                let list = std::mem::replace(&mut self.slots[level * SLOTS + slot], Slot::EMPTY);
                clear_bit(&mut self.occ[level], slot);
                match chain.tail {
                    NIL => chain.head = list.head,
                    tail => self.nodes[tail as usize].next = list.head,
                }
                chain.tail = list.tail;
            }
        }
        self.anchor(at);
        self.relink(chain.head);
    }

    /// Places node `idx` at the tail of the innermost level whose window
    /// contains it, or in the overflow heap. Does not touch `len`.
    ///
    /// Appending keeps every list ordered by arrival, which keeps
    /// same-instant entries in ascending `seq` order end to end: direct
    /// pushes carry a monotone `seq`; a cascade replays an outer list
    /// in its stored order (and same-instant entries always share a
    /// list, because the window bases every level-choice reads only
    /// move when the covering slot is drained whole); the overflow heap
    /// promotes in `(at, seq)` order into an empty wheel. `pop_due`
    /// relies on this to take the list head without scanning.
    fn insert(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        let at = node.at;
        debug_assert!(at >= self.base[0], "entry in front of the wheel window");
        for (level, &span) in SPAN.iter().enumerate() {
            if at - self.base[level] < span {
                node.next = NIL;
                let slot = ((at >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
                let list = &mut self.slots[level * SLOTS + slot];
                match list.tail {
                    NIL => list.head = idx,
                    tail => self.nodes[tail as usize].next = idx,
                }
                list.tail = idx;
                set_bit(&mut self.occ[level], slot);
                return;
            }
        }
        self.overflow.push(Reverse((at, node.seq, idx)));
    }

    /// Inserts every node of the chain starting at `head`, in chain
    /// order. `insert` rewrites each node's link, so read it first.
    fn relink(&mut self, head: u32) {
        let mut cur = head;
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            self.insert(cur);
            cur = next;
        }
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
            let &Reverse((head_at, _, _)) = self.overflow.peek()?;
            let new_base = head_at & !(SPAN[2] - 1);
            self.base[2] = new_base;
            while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
                if at - new_base >= SPAN[2] {
                    break;
                }
                self.overflow.pop();
                self.insert(idx);
            }
        }
    }

    /// Relinks every node of `(level, slot)` into the level below (whose
    /// window base the caller just set), preserving stored order.
    fn cascade(&mut self, level: usize, slot: usize) {
        let list = std::mem::replace(&mut self.slots[level * SLOTS + slot], Slot::EMPTY);
        clear_bit(&mut self.occ[level], slot);
        self.relink(list.head);
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
    fn popped_nodes_are_reused() {
        // A leaked node shows only as heap growth, never as a wrong pop
        // order, so count the slab: it must stay at the peak pending.
        let mut q = TimerWheel::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut now = 0;
        for seq in 0..10_000u64 {
            // xorshift64: near, mid and past-the-wheel delays.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let delay = match x % 8 {
                0 => x % (1 << 26),
                1..=2 => x % 65_536,
                _ => x % 256,
            };
            q.push(Time::from_ns(now + delay), seq, seq as u32);
            if q.len() == 64 || x.is_multiple_of(3) {
                now = q.pop().unwrap().0.as_ns();
            }
            assert!(q.len() < 64);
        }
        assert!(q.nodes.len() <= 64, "{} nodes allocated", q.nodes.len());
        drain(&mut q);
        assert!(q.nodes.len() <= 64, "{} nodes allocated", q.nodes.len());
    }
}
