//! The event queue: one rolling window of nanosecond slots over one node
//! slab, with a binary heap for everything outside the window.
//!
//! [`TimerWheel`] is a priority queue of `(Time, seq, payload)` entries
//! popped in ascending `(time, seq)` order — the global FIFO-at-equal-
//! instants contract that makes simulation runs exactly reproducible.
//!
//! The study's event traffic is dominated by short, fixed latencies (bus
//! transactions are 8–16 ns, a link hop is 40 ns, memory is 120 ns, ack
//! timers are a few µs), so almost every event lands within a few
//! microseconds of `now`. The window makes those O(1): 8,192 slots of one
//! nanosecond each cover `[cursor, cursor + 8192)`, where the cursor is
//! never later than the earliest entry in the window. Slot `at & 8191`
//! holds a single instant, and circular slot order starting at the
//! cursor's slot is time order. Anything outside the window — 8,192 ns
//! or more ahead of the cursor, or before it — goes to a binary heap,
//! and pops straight from there: no entry ever moves between the two.
//!
//! Every pending entry is stored once, in a node of one slab; a slot is
//! a linked list of node indices, and the heap orders node indices by
//! `(time, seq)`. A push writes its node, a pop reads it. Freed nodes go
//! on a LIFO free list, so the next push reuses the node the last pop
//! freed, and the slab only grows to the peak number of pending entries:
//! steady-state scheduling allocates nothing.
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

/// log2 of the window's width in nanosecond slots.
const SLOT_BITS: u32 = 13;
/// Slots in the window, one nanosecond each.
const SLOTS: usize = 1 << SLOT_BITS;
/// Words of the occupancy bitmap, one bit per slot.
const OCC_WORDS: usize = SLOTS / 64;
/// Words of the summary bitmap, one bit per occupancy word.
const SUMMARY_WORDS: usize = OCC_WORDS / 64;
/// The node index that names no node: the end of a list.
const NIL: u32 = u32::MAX;

/// One slab node: a pending entry and the index of the next node in its
/// slot's list (or in the free list, when `item` is `None`). A list's
/// head node also holds the index of the list's tail.
struct Node<T> {
    at: u64,
    seq: u64,
    next: u32,
    tail: u32,
    item: Option<T>,
}

/// A scheduler queue: a rolling window of nanosecond slots for the near
/// future, a binary heap for everything outside it.
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
    /// The head node of each slot's list, oldest first; valid only where
    /// the slot's occupancy bit is set. Every entry in a list shares one
    /// instant and was pushed in ascending `seq` order, so the head is
    /// the FIFO-correct next event. See `push`.
    heads: Vec<u32>,
    /// Occupancy bitmap, one bit per slot.
    occ: [u64; OCC_WORDS],
    /// One bit per non-zero word of `occ`.
    summary: [u64; SUMMARY_WORDS],
    /// The window's start: every entry in a slot lies in
    /// `[cursor, cursor + SLOTS)`.
    cursor: u64,
    /// Entries outside the window, as `(at, seq, node)`: a min-heap on
    /// `(at, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty queue whose window starts at time zero.
    pub fn new() -> Self {
        TimerWheel {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; SLOTS],
            occ: [0; OCC_WORDS],
            summary: [0; SUMMARY_WORDS],
            cursor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending entries (window plus heap).
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
    ///
    /// An instant's entries can be split between the heap and the window
    /// only if the heap's were pushed first: an instant leaves the heap's
    /// range ahead of the window only as the cursor moves up to it, and
    /// the cursor never passes an entry still in the window. So each
    /// list grows in `seq` order, and comparing the window's front with
    /// the heap's top on `(at, seq)` pops the heap's share first.
    pub fn push(&mut self, at: Time, seq: u64, item: T) {
        let at = at.as_ns();
        if self.len == 0 {
            // Empty queue: start the window at the entry.
            self.cursor = at;
        }
        self.len += 1;
        let node = Node {
            at,
            seq,
            next: NIL,
            tail: NIL,
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
        // Before the cursor, the difference wraps past the window too.
        if at.wrapping_sub(self.cursor) >= SLOTS as u64 {
            self.overflow.push(Reverse((at, seq, idx)));
            return;
        }
        let slot = at as usize & (SLOTS - 1);
        let (word, bit) = (slot / 64, 1 << (slot % 64));
        if self.occ[word] & bit == 0 {
            self.occ[word] |= bit;
            self.summary[word / 64] |= 1 << (word % 64);
            self.heads[slot] = idx;
            self.nodes[idx as usize].tail = idx;
        } else {
            let head = self.heads[slot] as usize;
            let tail = std::mem::replace(&mut self.nodes[head].tail, idx);
            self.nodes[tail as usize].next = idx;
        }
    }

    /// The earliest pending `(time, seq)`, or `None` when empty.
    pub fn peek(&self) -> Option<(Time, u64)> {
        let (at, seq, _, _) = self.front()?;
        Some((Time::from_ns(at), seq))
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.pop_due(Time::MAX)
    }

    /// Removes and returns the earliest pending entry if it is due at or
    /// before `horizon`. `None` means the queue is empty or its earliest
    /// entry is later than `horizon`; [`TimerWheel::is_empty`] tells the
    /// two apart.
    // Inlined into each run loop: called out of line, this writes the
    // 104-byte result (for the machine's event type) with stores the
    // caller then reloads out of step, the run loop's hottest line.
    #[inline(always)]
    pub fn pop_due(&mut self, horizon: Time) -> Option<(Time, u64, T)> {
        let (at, seq, idx, slot) = self.front()?;
        if at > horizon.as_ns() {
            return None;
        }
        let node = &mut self.nodes[idx as usize];
        let item = node.item.take()?;
        let (next, tail) = (node.next, node.tail);
        node.next = self.free;
        self.free = idx;
        match slot {
            // Lowering the cursor to a heap entry before it could push a
            // window entry out of the window.
            None => {
                self.overflow.pop();
                self.cursor = self.cursor.max(at);
            }
            Some(slot) => {
                self.cursor = at;
                if next == NIL {
                    let word = slot / 64;
                    self.occ[word] &= !(1 << (slot % 64));
                    if self.occ[word] == 0 {
                        self.summary[word / 64] &= !(1 << (word % 64));
                    }
                } else {
                    let new_head = &mut self.nodes[next as usize];
                    debug_assert!(
                        new_head.at == at && new_head.seq > seq,
                        "slot list lost its single-instant / ascending-seq invariant"
                    );
                    new_head.tail = tail;
                    self.heads[slot] = next;
                }
            }
        }
        self.len -= 1;
        Some((Time::from_ns(at), seq, item))
    }

    /// The earliest pending entry as `(at, seq, node, slot)`, with `slot`
    /// `None` when the entry is the heap's top.
    // Inlined for `pop_due`'s reason: its result would be reloaded too.
    #[inline(always)]
    fn front(&self) -> Option<(u64, u64, u32, Option<usize>)> {
        let window = self.first_slot().map(|slot| {
            let idx = self.heads[slot];
            let node = &self.nodes[idx as usize];
            (node.at, node.seq, idx, Some(slot))
        });
        match self.overflow.peek() {
            Some(&Reverse((at, seq, idx)))
                if window.is_none_or(|(w_at, w_seq, ..)| (at, seq) < (w_at, w_seq)) =>
            {
                Some((at, seq, idx, None))
            }
            _ => window,
        }
    }

    /// The occupied slot that comes first in circular order from the
    /// cursor's slot: the cursor's own word at and above the cursor, then
    /// the words after it, then the words from the first one up to and
    /// including the cursor's own (where only bits below it are left).
    // Inlined with `front`, so the common hit in the cursor's own word
    // costs no call.
    #[inline(always)]
    fn first_slot(&self) -> Option<usize> {
        let start = self.cursor as usize & (SLOTS - 1);
        let word = start / 64;
        let above = self.occ[word] & (!0 << (start % 64));
        if above != 0 {
            return Some(word * 64 + above.trailing_zeros() as usize);
        }
        let word = first_set(&self.summary, word + 1).or_else(|| first_set(&self.summary, 0))?;
        Some(word * 64 + self.occ[word].trailing_zeros() as usize)
    }
}

/// The index of the first set bit at or after `from`, if any.
fn first_set(words: &[u64; SUMMARY_WORDS], from: usize) -> Option<usize> {
    let mut i = from / 64;
    let mut bits = words.get(i)? & (!0 << (from % 64));
    loop {
        if bits != 0 {
            return Some(i * 64 + bits.trailing_zeros() as usize);
        }
        i += 1;
        bits = *words.get(i)?;
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
        // Times on both sides of the window's edge, far past it, and on
        // both sides of powers of two up to 2^24.
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
            8_191,
            8_192,
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
        // seq 1 goes to t, seqs 0 and 2 go earlier and pop first; seq 3
        // joins t afterwards and must fire after seq 1. At t=500 both
        // share one window slot. At t=9000 seq 1 went past the window
        // into the heap, and seq 3 lands in the window once the cursor
        // has moved up to t/2.
        for t in [500, 9_000] {
            let mut q = TimerWheel::new();
            q.push(Time::from_ns(10), 0, 0);
            q.push(Time::from_ns(t), 1, 1);
            q.push(Time::from_ns(t / 2), 2, 2);
            assert_eq!(q.pop().unwrap().1, 0);
            assert_eq!(q.pop().unwrap().1, 2);
            q.push(Time::from_ns(t), 3, 3);
            assert_eq!(q.overflow.len(), usize::from(t > 8_192));
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 3);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn near_push_after_far_promotion_reanchors() {
        let mut q = TimerWheel::new();
        q.push(Time::from_ns(10_000_000_000), 0, 0);
        // The first push started the window at the far entry.
        assert_eq!(q.peek().unwrap().0, Time::from_ns(10_000_000_000));
        // Near events land before the cursor, in the heap, and must
        // still come out first.
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
            // xorshift64: near, mid and past-the-window delays.
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

    #[test]
    fn entries_on_either_side_of_the_window_edge_pop_in_order() {
        let mut q = TimerWheel::new();
        q.push(Time::from_ns(1_000), 0, 0);
        assert_eq!(q.cursor, 1_000);
        // The window's last slot, then its first instant past the edge.
        q.push(Time::from_ns(1_000 + 8_192), 1, 1);
        q.push(Time::from_ns(1_000 + 8_191), 2, 2);
        assert_eq!(q.overflow.len(), 1);
        let order: Vec<u64> = drain(&mut q).iter().map(|e| e.0).collect();
        assert_eq!(order, [1_000, 9_191, 9_192]);
    }

    #[test]
    fn a_push_before_the_cursor_pops_first() {
        let mut q = TimerWheel::new();
        q.push(Time::from_ns(500), 0, 0);
        q.push(Time::from_ns(600), 1, 1);
        assert_eq!(q.cursor, 500);
        q.push(Time::from_ns(499), 2, 2);
        q.push(Time::from_ns(100), 3, 3);
        assert_eq!(q.overflow.len(), 2);
        let order: Vec<u64> = drain(&mut q).iter().map(|e| e.0).collect();
        assert_eq!(order, [100, 499, 500, 600]);
        // The heap pops never lowered the cursor below a window entry.
        assert_eq!(q.cursor, 600);
    }

    #[test]
    fn a_push_into_an_emptied_queue_restarts_the_window() {
        let mut q = TimerWheel::new();
        q.push(Time::from_ns(1_000_000), 0, 0);
        q.push(Time::from_ns(1_000_100), 1, 1);
        drain(&mut q);
        // Earlier than the old cursor, but the queue is empty: the
        // window starts over at the new front, as restoring a drained
        // snapshot's entries relies on.
        for (seq, t) in [20u64, 20, 30, 8_000].into_iter().enumerate() {
            q.push(Time::from_ns(t), seq as u64 + 2, seq as u32);
        }
        assert_eq!(q.cursor, 20);
        assert!(q.overflow.is_empty());
        let got: Vec<(u64, u64)> = drain(&mut q).iter().map(|e| (e.0, e.1)).collect();
        assert_eq!(got, [(20, 2), (20, 3), (30, 4), (8_000, 5)]);
    }

    #[test]
    fn slots_reused_across_windows_pop_in_order() {
        // Every step lands one instant 3,000–5,999 ns ahead of the last
        // pop (in the window) and one that shares its slot a full window
        // later (in the heap), then pops down to two pending entries. The
        // cursor crosses dozens of windows, so window slots are reused by
        // instants whole windows apart.
        let mut q = TimerWheel::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut popped = Vec::new();
        while now < 40 * SLOTS as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = now + 3_000 + x % 3_000;
            for t in [at, at + SLOTS as u64] {
                q.push(Time::from_ns(t), seq, seq as u32);
                seq += 1;
            }
            while q.len() > 2 {
                let (t, s, _) = q.pop().unwrap();
                popped.push((t.as_ns(), s));
                now = t.as_ns();
            }
        }
        assert!(q.cursor > 3 * SLOTS as u64);
        popped.extend(drain(&mut q).iter().map(|e| (e.0, e.1)));
        let mut want = popped.clone();
        want.sort_unstable();
        assert_eq!(popped, want);
        assert_eq!(popped.len() as u64, seq);
    }
}
