//! Return-to-sender flow control (paper §5.1.2).
//!
//! Each NI allocates **flow control buffers**: B outgoing buffers and B
//! incoming buffers. The protocol:
//!
//! 1. To inject a message, the sending NI must hold a free *outgoing*
//!    buffer; the buffer stays allocated until the receiver acknowledges.
//! 2. An arriving message needs a free *incoming* buffer. If one is free,
//!    the receiver occupies it and sends an **ack**, releasing the
//!    sender's outgoing buffer. The incoming buffer is freed when the
//!    message is drained out of the NI (consumed by the processor or
//!    deposited in memory, depending on the NI design).
//! 3. If no incoming buffer is free, the message is **returned to the
//!    sender** on a guaranteed channel; the sender absorbs it back into
//!    the (still-allocated) outgoing buffer and retries later.
//!
//! The scheme is scalable because buffer count is independent of machine
//! size; the cost is that small B turns bursty traffic into return/retry
//! storms — exactly the effect Figures 3a and 4 of the paper measure.
//!
//! [`FlowControlEndpoint`] does the buffer accounting for one NI and
//! enforces the conservation invariants; the NI models drive the protocol.

use std::fmt;

use nisim_engine::codec::{ensure, DecodeError, State};

/// Number of flow-control buffers in each direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BufferCount {
    /// A finite buffer pool (must be ≥ 1).
    Finite(u32),
    /// Unlimited buffering — the "infinite flow control buffering" bars of
    /// Figure 3a.
    Infinite,
}

impl BufferCount {
    /// True if `in_use` buffers leave at least one free. Public so the
    /// `nisim-analysis` model checker drives the exact predicate the
    /// endpoints use.
    pub fn has_free(self, in_use: u32) -> bool {
        match self {
            BufferCount::Finite(cap) => in_use < cap,
            BufferCount::Infinite => true,
        }
    }
}

impl fmt::Display for BufferCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferCount::Finite(n) => write!(f, "{n}"),
            BufferCount::Infinite => write!(f, "inf"),
        }
    }
}

impl BufferCount {
    /// Parses the [`Display`](fmt::Display) form back (`"inf"` or a
    /// positive integer) — used by the CLI and by sweep records.
    pub fn from_key(key: &str) -> Option<BufferCount> {
        if key == "inf" {
            return Some(BufferCount::Infinite);
        }
        key.parse::<u32>()
            .ok()
            .filter(|&n| n > 0)
            .map(BufferCount::Finite)
    }
}

/// Flow-control statistics for one endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Outgoing buffers successfully allocated.
    pub send_allocs: u64,
    /// Failed outgoing allocations (sender had to stall).
    pub send_alloc_failures: u64,
    /// Incoming buffers successfully allocated.
    pub recv_allocs: u64,
    /// Arrivals rejected for lack of an incoming buffer (messages
    /// returned to their senders).
    pub recv_rejects: u64,
    /// Acks processed (outgoing buffers released by the receiver).
    pub acks: u64,
    /// Returned-to-sender messages absorbed back at this endpoint.
    pub returns_absorbed: u64,
    /// Retries of previously returned messages.
    pub retries: u64,
}

/// Buffer accounting for one NI's return-to-sender endpoint.
///
/// # Example
///
/// ```
/// use nisim_net::{BufferCount, FlowControlEndpoint};
///
/// let mut fc = FlowControlEndpoint::new(BufferCount::Finite(1));
/// assert!(fc.try_alloc_send());
/// assert!(!fc.try_alloc_send()); // only one outgoing buffer
/// fc.ack_received();             // receiver acked; buffer released
/// assert!(fc.try_alloc_send());
/// ```
#[derive(Clone, Debug)]
pub struct FlowControlEndpoint {
    buffers: BufferCount,
    send_in_use: u32,
    recv_in_use: u32,
    stats: FlowStats,
}

impl FlowControlEndpoint {
    /// Creates an endpoint with `buffers` outgoing and `buffers` incoming
    /// buffers (the paper varies them together).
    ///
    /// # Panics
    ///
    /// Panics on `BufferCount::Finite(0)` — the protocol cannot make
    /// progress without at least one buffer per direction.
    pub fn new(buffers: BufferCount) -> FlowControlEndpoint {
        if let BufferCount::Finite(0) = buffers {
            panic!("flow control requires at least one buffer per direction");
        }
        FlowControlEndpoint {
            buffers,
            send_in_use: 0,
            recv_in_use: 0,
            stats: FlowStats::default(),
        }
    }

    /// The configured buffer count.
    pub fn buffers(&self) -> BufferCount {
        self.buffers
    }

    /// Statistics so far.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// Outgoing buffers currently held.
    pub fn send_in_use(&self) -> u32 {
        self.send_in_use
    }

    /// Incoming buffers currently held.
    pub fn recv_in_use(&self) -> u32 {
        self.recv_in_use
    }

    /// Attempts to allocate an outgoing buffer for a new injection.
    pub fn try_alloc_send(&mut self) -> bool {
        if self.buffers.has_free(self.send_in_use) {
            self.send_in_use += 1;
            self.stats.send_allocs += 1;
            true
        } else {
            self.stats.send_alloc_failures += 1;
            false
        }
    }

    /// Attempts to allocate an incoming buffer for an arriving message.
    /// On failure the caller must return the message to its sender.
    pub fn try_alloc_recv(&mut self) -> bool {
        if self.buffers.has_free(self.recv_in_use) {
            self.recv_in_use += 1;
            self.stats.recv_allocs += 1;
            true
        } else {
            self.stats.recv_rejects += 1;
            false
        }
    }

    /// Releases an outgoing buffer because its message was acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if no outgoing buffer is held (protocol violation).
    pub fn ack_received(&mut self) {
        assert!(self.send_in_use > 0, "ack without an outstanding send");
        self.send_in_use -= 1;
        self.stats.acks += 1;
    }

    /// Notes a returned message being absorbed back into its outgoing
    /// buffer (the buffer stays allocated for the retry).
    ///
    /// # Panics
    ///
    /// Panics if no outgoing buffer is held.
    pub fn return_absorbed(&mut self) {
        assert!(self.send_in_use > 0, "return without an outstanding send");
        self.stats.returns_absorbed += 1;
    }

    /// Notes a retry of a previously returned message.
    pub fn retried(&mut self) {
        self.stats.retries += 1;
    }

    /// Releases an incoming buffer because its message was drained.
    ///
    /// # Panics
    ///
    /// Panics if no incoming buffer is held (protocol violation).
    pub fn free_recv(&mut self) {
        assert!(
            self.recv_in_use > 0,
            "freeing an unallocated receive buffer"
        );
        self.recv_in_use -= 1;
    }

    /// Checks the conservation invariants: holds stay within capacity,
    /// every send buffer held is an allocation not yet acked (a return
    /// keeps its buffer), and retries never outnumber returns.
    ///
    /// # Errors
    ///
    /// Names the first invariant that does not hold.
    pub fn check_invariants(&self) -> Result<(), DecodeError> {
        let s = self.stats;
        ensure(
            self.buffers.has_free(self.send_in_use.saturating_sub(1))
                && self.buffers.has_free(self.recv_in_use.saturating_sub(1)),
            "buffers held over capacity",
        )?;
        ensure(
            s.acks.checked_add(u64::from(self.send_in_use)) == Some(s.send_allocs),
            "send buffers held != allocations - acks",
        )?;
        ensure(
            u64::from(self.recv_in_use) <= s.recv_allocs && s.retries <= s.returns_absorbed,
            "flow statistics inconsistent with the buffers held",
        )
    }
}

/// The held-buffer counts and statistics; the capacity comes from the
/// configuration.
impl State for FlowControlEndpoint {
    nisim_engine::state_fields! {
        {
            send_in_use, recv_in_use, send_allocs: stats.send_allocs,
            send_alloc_failures: stats.send_alloc_failures, recv_allocs: stats.recv_allocs,
            recv_rejects: stats.recv_rejects, acks: stats.acks,
            returns_absorbed: stats.returns_absorbed, retries: stats.retries
        }
        check FlowControlEndpoint::check_invariants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_engine::Json;

    #[test]
    fn send_buffers_bound_injections() {
        let mut fc = FlowControlEndpoint::new(BufferCount::Finite(2));
        assert!(fc.try_alloc_send());
        assert!(fc.try_alloc_send());
        assert!(!fc.try_alloc_send());
        assert_eq!(fc.stats().send_alloc_failures, 1);
        fc.ack_received();
        assert!(fc.try_alloc_send());
        fc.check_invariants().unwrap();
    }

    #[test]
    fn recv_rejects_count_returns() {
        let mut fc = FlowControlEndpoint::new(BufferCount::Finite(1));
        assert!(fc.try_alloc_recv());
        assert!(!fc.try_alloc_recv());
        assert_eq!(fc.stats().recv_rejects, 1);
        fc.free_recv();
        assert!(fc.try_alloc_recv());
        fc.check_invariants().unwrap();
    }

    #[test]
    fn infinite_never_fails() {
        let mut fc = FlowControlEndpoint::new(BufferCount::Infinite);
        for _ in 0..10_000 {
            assert!(fc.try_alloc_send());
            assert!(fc.try_alloc_recv());
        }
        assert_eq!(fc.stats().send_alloc_failures, 0);
        assert_eq!(fc.stats().recv_rejects, 0);
    }

    #[test]
    fn return_keeps_buffer_allocated() {
        let mut fc = FlowControlEndpoint::new(BufferCount::Finite(1));
        assert!(fc.try_alloc_send());
        fc.return_absorbed();
        assert!(
            !fc.try_alloc_send(),
            "returned message still owns the buffer"
        );
        fc.retried();
        fc.ack_received();
        assert!(fc.try_alloc_send());
        assert_eq!(fc.stats().returns_absorbed, 1);
        assert_eq!(fc.stats().retries, 1);
    }

    #[test]
    #[should_panic(expected = "ack without an outstanding send")]
    fn spurious_ack_panics() {
        FlowControlEndpoint::new(BufferCount::Finite(1)).ack_received();
    }

    #[test]
    #[should_panic(expected = "unallocated receive buffer")]
    fn spurious_recv_free_panics() {
        FlowControlEndpoint::new(BufferCount::Finite(1)).free_recv();
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_buffers_panics() {
        FlowControlEndpoint::new(BufferCount::Finite(0));
    }

    #[test]
    fn snapshot_round_trips_and_rejects_over_capacity() {
        let mut fc = FlowControlEndpoint::new(BufferCount::Finite(2));
        fc.try_alloc_send();
        fc.try_alloc_send();
        fc.try_alloc_send(); // failure
        fc.try_alloc_recv();
        fc.ack_received();
        fc.return_absorbed();
        fc.retried();
        let snap = fc.snapshot();

        let mut fresh = FlowControlEndpoint::new(BufferCount::Finite(2));
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.send_in_use(), fc.send_in_use());
        assert_eq!(fresh.recv_in_use(), fc.recv_in_use());
        assert_eq!(fresh.stats(), fc.stats());
        fresh.check_invariants().unwrap();
        // Counts over the endpoint's capacity are rejected.
        let mut crowded = FlowControlEndpoint::new(BufferCount::Finite(4));
        for _ in 0..3 {
            crowded.try_alloc_send();
        }
        let over = crowded.snapshot();
        assert!(FlowControlEndpoint::new(BufferCount::Finite(2))
            .restore(&over)
            .is_err());
        FlowControlEndpoint::new(BufferCount::Finite(4))
            .restore(&over)
            .unwrap();
        // A held count the allocations and acks do not account for is
        // rejected too.
        let Json::Obj(mut pairs) = snap else {
            unreachable!("flow snapshots are objects")
        };
        pairs[0].1 = Json::from(0u64);
        assert_eq!(
            fresh.restore(&Json::Obj(pairs)).unwrap_err().to_string(),
            "send buffers held != allocations - acks"
        );
    }

    #[test]
    fn buffer_count_display() {
        assert_eq!(BufferCount::Finite(8).to_string(), "8");
        assert_eq!(BufferCount::Infinite.to_string(), "inf");
    }
}
