//! `NI_16w+Blkbuf` — the Fujitsu AP3000-like network interface.
//!
//! The processor moves data in 64-byte blocks between a dedicated on-chip
//! **block buffer** and the NI, modelling the UltraSPARC block load/store
//! instructions (§2.1, §4):
//!
//! * **size of transfer**: blocks — the bus is used efficiently,
//! * **manager**: the processor — block loads/stores stall it until the
//!   transfer completes,
//! * **endpoints**: the fast block buffer next to the processor, so
//!   received data never detours through main memory,
//! * **buffering**: the NI FIFO (flow-control buffers), processor-drained.
//!
//! The paper charges 12 processor cycles to flush or load the block
//! buffer; we take those constants verbatim.

use nisim_engine::Time;

use crate::costs::CostModel;
use crate::node::NodeHw;
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::util::blocks;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The AP3000-like `NI_16w+Blkbuf` model.
#[derive(Clone, Debug, Default)]
pub struct Ap3000Ni;

impl Ap3000Ni {
    /// Creates the model.
    pub fn new() -> Ap3000Ni {
        Ap3000Ni
    }
}

impl NiModel for Ap3000Ni {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "NI_16w+Blkbuf",
            description: "Fujitsu AP3000-like",
            send: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Processor,
                endpoint: TransferEndpoint::BlockBuffer,
            },
            receive: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Processor,
                endpoint: TransferEndpoint::BlockBuffer,
            },
            buffer_location: BufferLocation::NiAndVm,
            buffering: BufferingInvolvement::ProcessorInvolved,
        }
    }

    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        // Uncached read of the NI status register.
        let issued = now + hw.cycles(cost.uncached_issue_cycles);
        hw.uncached_read(issued, cost.status_read_response)
    }

    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        let mut t = now + hw.cycles(cost.send_setup_cycles);
        for _ in 0..blocks(wire_bytes) {
            // Compose the block in the buffer, flush it, and block-store
            // it to the NI; the block store stalls the processor until
            // the bus transaction completes (§2.2.2).
            t += hw.cycles(cost.block_parse_cycles + cost.block_buffer_flush_cycles);
            let grant = hw.bus.acquire(t, nisim_mem::BusOp::BlockWrite);
            hw.ni_mem.record_write();
            t = grant.end;
        }
        SendPath {
            proc_release: t,
            inject_ready: t + cost.ni_inject_overhead,
        }
    }

    fn deposit_fragment(
        &mut self,
        _hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        _wire_bytes: u64,
    ) -> DepositPath {
        DepositPath {
            done: now + cost.ni_deposit_overhead,
            loc: DepositLoc::NiFifo,
        }
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        false
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        let issued = now + hw.cycles(cost.uncached_issue_cycles);
        hw.uncached_read(issued, cost.status_read_response)
    }

    fn drain_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
        loc: &DepositLoc,
    ) -> Time {
        debug_assert_eq!(*loc, DepositLoc::NiFifo);
        let mut t = now;
        for i in 0..blocks(wire_bytes) {
            // Block-load from the NI into the block buffer (stalls until
            // the NI supplies the data), then read it out. The NI stages
            // the FIFO head at its bus interface, so blocks after the
            // first see staging-buffer latency rather than a full NI
            // memory access.
            t += hw.cycles(cost.block_buffer_load_cycles);
            let grant = hw.bus.acquire(t, nisim_mem::BusOp::BlockRead);
            hw.ni_mem.record_read();
            let supply = if i == 0 {
                hw.ni_mem.read_latency()
            } else {
                hw.c2c_latency
            };
            t = grant.end + supply;
            t += hw.cycles(cost.block_parse_cycles);
        }
        t
    }

    // The block buffer empties within each send/drain call, so there is
    // no dynamic state to checkpoint.
    nisim_engine::state_fields! { {} }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::ni::cm5::Cm5Ni;
    use crate::ni::NiKind;

    fn setup() -> (NodeHw, CostModel, Ap3000Ni) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Ap3000),
            cfg.costs,
            Ap3000Ni::new(),
        )
    }

    #[test]
    fn block_transfer_beats_uncached_for_large_messages() {
        // The core "size of transfer" result: at 256 B the AP3000 path
        // must be far cheaper than the CM-5 word path.
        let (mut hw_a, cost, mut ap) = setup();
        let cfg = MachineConfig::default();
        let mut hw_c = NodeHw::new(&cfg, NiKind::Cm5);
        let mut cm5 = Cm5Ni::new(false);
        let ap_t = ap.drain_fragment(&mut hw_a, &cost, Time::ZERO, 248, 256, &DepositLoc::NiFifo)
            - Time::ZERO;
        let cm_t = cm5.drain_fragment(&mut hw_c, &cost, Time::ZERO, 248, 256, &DepositLoc::NiFifo)
            - Time::ZERO;
        assert!(
            cm_t.as_ns() > 2 * ap_t.as_ns(),
            "cm5 {cm_t:?} vs ap3000 {ap_t:?}"
        );
    }

    #[test]
    fn send_uses_block_writes() {
        let (mut hw, cost, mut ni) = setup();
        ni.send_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert_eq!(hw.bus.stats().count(nisim_mem::BusOp::BlockWrite), 4);
        assert_eq!(hw.bus.stats().count(nisim_mem::BusOp::WordWrite), 0);
    }

    #[test]
    fn flush_cost_matches_paper_constant() {
        let cost = CostModel::default();
        assert_eq!(cost.block_buffer_flush_cycles, 12);
        assert_eq!(cost.block_buffer_load_cycles, 12);
    }

    #[test]
    fn buffer_held_until_drain() {
        assert!(!Ap3000Ni::new().frees_buffer_at_deposit());
    }

    #[test]
    fn descriptor_matches_table2() {
        let d = Ap3000Ni::new().descriptor();
        assert_eq!(d.symbol, "NI_16w+Blkbuf");
        assert_eq!(d.send.size, TransferSize::Block);
        assert_eq!(d.send.manager, TransferManager::Processor);
        assert_eq!(d.send.endpoint, TransferEndpoint::BlockBuffer);
        assert_eq!(d.buffering, BufferingInvolvement::ProcessorInvolved);
    }
}
