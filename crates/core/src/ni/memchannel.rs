//! `(NI_16w+Blkbuf)_S (CNI_0Q_m)_R` — the DEC Memory Channel-like hybrid.
//!
//! The send interface behaves like the AP3000's (processor-managed block
//! stores through a block buffer), and the receive interface behaves like
//! the StarT-JR's (the NI deposits straight into memory-homed queues and
//! buffering is NI-managed and plentiful). The paper moves the design to
//! the memory bus and drops multicast so the comparison isolates the data
//! transfer and buffering parameters (§4).

use nisim_engine::codec::DecodeError;
use nisim_engine::{Json, Time};

use crate::config::MachineConfig;
use crate::costs::CostModel;
use crate::node::NodeHw;
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::ap3000::Ap3000Ni;
use super::startjr::StartJrNi;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The Memory Channel-like hybrid model.
#[derive(Debug)]
pub struct MemoryChannelNi {
    send_side: Ap3000Ni,
    recv_side: StartJrNi,
}

impl MemoryChannelNi {
    /// Creates the model with the standard queue layout.
    pub fn new(cfg: &MachineConfig) -> MemoryChannelNi {
        MemoryChannelNi {
            send_side: Ap3000Ni::new(),
            recv_side: StartJrNi::new(cfg),
        }
    }
}

impl NiModel for MemoryChannelNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "(NI_16w+Blkbuf)_S(CNI_0Q_m)_R",
            description: "DEC Memory Channel NI-like",
            send: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Processor,
                endpoint: TransferEndpoint::BlockBuffer,
            },
            receive: TransferParams {
                size: TransferSize::Block,
                manager: TransferManager::Ni,
                endpoint: TransferEndpoint::Memory,
            },
            buffer_location: BufferLocation::Memory,
            buffering: BufferingInvolvement::NiManaged,
        }
    }

    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        self.send_side.check_send_space(hw, cost, now)
    }

    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        self.send_side
            .send_fragment(hw, cost, now, payload_bytes, wire_bytes)
    }

    fn has_room(&self, _wire_bytes: u64) -> bool {
        self.recv_side.queue_has_room()
    }

    fn deposit_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> DepositPath {
        self.recv_side.deposit_to_memory(hw, cost, now, wire_bytes)
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        true
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        now + hw.cycles(cost.cached_flag_check_cycles)
    }

    fn drain_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        _wire_bytes: u64,
        loc: &DepositLoc,
    ) -> Time {
        match *loc {
            DepositLoc::Memory { base, blocks } => self
                .recv_side
                .drain_from_memory(hw, cost, now, base, blocks),
            ref other => unreachable!("Memory Channel deposits only to memory, got {other:?}"),
        }
    }

    // The AP3000-like send side holds no state between calls.
    fn snapshot(&self) -> Json {
        self.recv_side.snapshot()
    }

    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        self.recv_side.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::NiKind;
    use nisim_mem::BusOp;

    fn setup() -> (NodeHw, CostModel, MemoryChannelNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::MemoryChannel),
            cfg.costs,
            MemoryChannelNi::new(&cfg),
        )
    }

    #[test]
    fn send_matches_ap3000_behaviour() {
        let (mut hw, cost, mut ni) = setup();
        ni.send_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        // Block stores like the AP3000, no cached-queue traffic.
        assert_eq!(hw.bus.stats().count(BusOp::BlockWrite), 4);
        assert_eq!(hw.bus.stats().count(BusOp::BlockReadExclusive), 0);
    }

    #[test]
    fn receive_matches_startjr_behaviour() {
        let (mut hw, cost, mut ni) = setup();
        let d = ni.deposit_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert!(matches!(d.loc, DepositLoc::Memory { .. }));
        assert!(ni.frees_buffer_at_deposit());
        let t = ni.drain_fragment(&mut hw, &cost, d.done, 248, 256, &d.loc);
        assert!(t > d.done);
        assert_eq!(hw.main_mem.reads(), 4);
    }

    #[test]
    fn descriptor_is_the_hybrid_row() {
        let (_, _, ni) = setup();
        let d = ni.descriptor();
        assert_eq!(d.send.manager, TransferManager::Processor);
        assert_eq!(d.send.endpoint, TransferEndpoint::BlockBuffer);
        assert_eq!(d.receive.manager, TransferManager::Ni);
        assert_eq!(d.receive.endpoint, TransferEndpoint::Memory);
        assert_eq!(d.buffering, BufferingInvolvement::NiManaged);
        assert_eq!(d.buffer_location, BufferLocation::Memory);
    }
}
