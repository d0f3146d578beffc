//! Counting global allocator.
//!
//! Wraps the system allocator and tracks, in static atomics and without
//! locks, the number of allocator calls, the live heap bytes and the peak
//! live heap bytes. Each thread first counts into its own cells and adds
//! them to the atomics only once its pending bytes reach [`FLUSH_BYTES`]
//! (or on [`flush`]): updating shared atomics on every call made two
//! sweep threads contend for one cache line and nearly doubled
//! chaos-resume's wall time. The peak can therefore miss up to
//! `FLUSH_BYTES` per thread. The per-thread call count also lets a span
//! attribute allocations to the thread that ran it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator the benchmark binary installs as `#[global_allocator]`.
pub struct Counting;

/// Pending bytes (either sign) a thread holds back before flushing.
const FLUSH_BYTES: i64 = 64 << 10;

// Statistics that publish no other data, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without destructors: touching them from
    // inside the allocator never allocates or registers anything.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
    static PENDING_CALLS: Cell<u64> = const { Cell::new(0) };
    static PENDING_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, bytes: i64) {
    let _ = THREAD_CALLS.try_with(|c| c.set(c.get() + calls));
    let _ = PENDING_CALLS.try_with(|c| c.set(c.get() + calls));
    let pending = PENDING_BYTES.try_with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    if pending.is_ok_and(|p| p.abs() >= FLUSH_BYTES) {
        flush();
    }
}

/// Adds the current thread's pending counts to the shared totals. Sweep
/// threads call it when they finish an item, so nothing is left pending
/// when they exit.
pub fn flush() {
    let calls = PENDING_CALLS.try_with(|c| c.replace(0)).unwrap_or(0);
    let bytes = PENDING_BYTES.try_with(|c| c.replace(0)).unwrap_or(0);
    if calls > 0 {
        CALLS.fetch_add(calls, Relaxed);
    }
    if bytes != 0 {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        if bytes > 0 {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and const thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(1, size(layout.size()));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(1, size(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with this `layout`, as `dealloc`'s contract requires.
        unsafe { System.dealloc(ptr, layout) };
        note(0, -size(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(1, size(new_size) - size(layout.size()));
        }
        p
    }
}

/// Allocator calls (alloc, alloc_zeroed, realloc) made by the current
/// thread so far.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    flush();
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live bytes, which it returns.
pub fn reset_peak() -> i64 {
    flush();
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending_bytes() -> i64 {
        PENDING_BYTES.with(Cell::get)
    }

    #[test]
    fn a_vec_is_counted_when_allocated_and_when_freed() {
        const BYTES: usize = 4096;
        flush();
        let calls0 = thread_calls();
        let v: Vec<u8> = Vec::with_capacity(BYTES);
        assert_eq!(thread_calls(), calls0 + 1);
        assert_eq!(pending_bytes(), BYTES as i64);
        let global0 = CALLS.load(Relaxed);
        flush();
        assert_eq!(pending_bytes(), 0);
        assert!(CALLS.load(Relaxed) > global0);
        drop(std::hint::black_box(v));
        assert_eq!(thread_calls(), calls0 + 1, "a free is not an allocation");
        assert_eq!(pending_bytes(), -(BYTES as i64));
        flush();
    }

    #[test]
    fn a_large_allocation_reaches_the_shared_peak_at_once() {
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        // Other test threads may hold back up to FLUSH_BYTES each.
        assert!(PEAK.load(Relaxed) >= (1 << 20) - 16 * FLUSH_BYTES);
        drop(std::hint::black_box(v));
    }

    #[test]
    fn growth_counts_the_realloc_and_the_size_change() {
        let mut v: Vec<u64> = Vec::with_capacity(4);
        flush();
        let calls0 = thread_calls();
        v.reserve_exact(1024);
        assert_eq!(thread_calls(), calls0 + 1);
        assert_eq!(pending_bytes(), (1024 - 4) * 8);
        drop(std::hint::black_box(v));
        flush();
    }
}
