//! Memory devices: main memory and dedicated NI memory.
//!
//! A [`MemoryDevice`] is a latency provider with access statistics. Table 3
//! of the paper gives the latencies:
//!
//! * main memory (DRAM): 120 ns,
//! * NI memory (SRAM): 60 ns,
//! * the large `CNI_512Q` queue memory: 120 ns (it is big enough that it
//!   would be built from commodity DRAM).

use nisim_engine::codec::State;
use nisim_engine::stats::Counter;
use nisim_engine::Dur;

/// What a memory device models; affects the default latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// Node main memory (DRAM, 120 ns).
    Main,
    /// Small, fast dedicated NI memory (SRAM, 60 ns).
    NiSram,
    /// Large dedicated NI memory (DRAM-class, 120 ns) — `CNI_512Q`.
    NiDram,
}

impl MemoryKind {
    /// The paper's access latency for this kind of memory.
    pub fn default_latency(self) -> Dur {
        match self {
            MemoryKind::Main => Dur::ns(120),
            MemoryKind::NiSram => Dur::ns(60),
            MemoryKind::NiDram => Dur::ns(120),
        }
    }
}

/// A fixed-latency memory device with access counters.
///
/// # Example
///
/// ```
/// use nisim_engine::Dur;
/// use nisim_mem::{MemoryDevice, MemoryKind};
///
/// let mut mem = MemoryDevice::new(MemoryKind::Main);
/// assert_eq!(mem.read_latency(), Dur::ns(120));
/// mem.record_read();
/// assert_eq!(mem.reads(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryDevice {
    kind: MemoryKind,
    latency: Dur,
    reads: Counter,
    writes: Counter,
}

impl MemoryDevice {
    /// Creates a device with the paper's default latency for `kind`.
    pub fn new(kind: MemoryKind) -> MemoryDevice {
        Self::with_latency(kind, kind.default_latency())
    }

    /// Creates a device with an explicit latency (for sensitivity sweeps).
    pub fn with_latency(kind: MemoryKind, latency: Dur) -> MemoryDevice {
        MemoryDevice {
            kind,
            latency,
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// The device kind.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Latency to fetch data from this device (after the bus address
    /// phase, before the data phase on a split-transaction bus).
    pub fn read_latency(&self) -> Dur {
        self.latency
    }

    /// Records one read access.
    pub fn record_read(&mut self) {
        self.reads.inc();
    }

    /// Records one write access.
    pub fn record_write(&mut self) {
        self.writes.inc();
    }

    /// Reads recorded so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Writes recorded so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }
}

/// The access counters; kind and latency come from the configuration.
impl State for MemoryDevice {
    nisim_engine::state_fields! { { reads, writes } }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies() {
        assert_eq!(MemoryKind::Main.default_latency(), Dur::ns(120));
        assert_eq!(MemoryKind::NiSram.default_latency(), Dur::ns(60));
        assert_eq!(MemoryKind::NiDram.default_latency(), Dur::ns(120));
    }

    #[test]
    fn custom_latency() {
        let m = MemoryDevice::with_latency(MemoryKind::Main, Dur::ns(200));
        assert_eq!(m.read_latency(), Dur::ns(200));
        assert_eq!(m.kind(), MemoryKind::Main);
    }

    #[test]
    fn counters() {
        let mut m = MemoryDevice::new(MemoryKind::NiSram);
        m.record_read();
        m.record_read();
        m.record_write();
        assert_eq!(m.reads(), 2);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut m = MemoryDevice::new(MemoryKind::Main);
        m.record_read();
        m.record_read();
        m.record_write();
        let snap = m.snapshot();
        let mut fresh = MemoryDevice::new(MemoryKind::Main);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.reads(), 2);
        assert_eq!(fresh.writes(), 1);
        let truncated = nisim_engine::Json::obj().set("reads", 1u64);
        assert_eq!(
            fresh.restore(&truncated).unwrap_err().to_string(),
            "missing key `writes`"
        );
    }
}
