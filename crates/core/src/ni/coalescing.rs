//! `NI_2w+Coal` — a CM-5-like NI behind a coalescing store buffer
//! (extension).
//!
//! §2.1 of the paper lists *three* mechanisms by which processors can use
//! the memory bus's block-transfer capability: coalescing load/store
//! buffers, block load/store instructions, and cache blocks. The paper
//! evaluates the latter two (AP3000, CNIs) but no coalescing design; this
//! model fills that corner of the design space.
//!
//! The send side is the CM-5 programming model — the processor writes the
//! message word by word — but consecutive uncached stores coalesce in a
//! write buffer and drain to the NI as whole blocks, so the *processor*
//! cost stays word-granular while the *bus* cost becomes block-granular.
//! Loads cannot be coalesced (a read must return data), so the receive
//! side is unchanged from the CM-5 design — which is exactly why
//! coalescing alone cannot reach AP3000-class performance.

use nisim_engine::codec::DecodeError;
use nisim_engine::{Json, Time};
use nisim_mem::BusOp;

use crate::costs::CostModel;
use crate::node::NodeHw;
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::cm5::Cm5Ni;
use super::util::{blocks, words_of};
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The coalescing-store-buffer variant of the CM-5-like NI.
#[derive(Clone, Debug)]
pub struct CoalescingNi {
    /// Receive path and status registers are plain CM-5.
    base: Cm5Ni,
}

impl CoalescingNi {
    /// Creates the model.
    pub fn new() -> CoalescingNi {
        CoalescingNi {
            base: Cm5Ni::new(false),
        }
    }
}

impl Default for CoalescingNi {
    fn default() -> Self {
        Self::new()
    }
}

impl NiModel for CoalescingNi {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "NI_2w+Coal",
            description: "CM-5-like with coalescing stores",
            send: TransferParams {
                // Word-granular at the processor, block-granular on the
                // bus; the taxonomy classifies the bus behaviour.
                size: TransferSize::Block,
                manager: TransferManager::Processor,
                endpoint: TransferEndpoint::ProcessorRegisters,
            },
            receive: TransferParams {
                size: TransferSize::Uncached,
                manager: TransferManager::Processor,
                endpoint: TransferEndpoint::ProcessorRegisters,
            },
            buffer_location: BufferLocation::NiAndVm,
            buffering: BufferingInvolvement::ProcessorInvolved,
        }
    }

    fn check_send_space(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        self.base.check_send_space(hw, cost, now)
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
        // The processor issues the same word stores, but they land in the
        // coalescing buffer at register speed...
        let store_cycles =
            (cost.word_copy_cycles + 1) * words_of(wire_bytes, cost.uncached_word_bytes);
        t += hw.cycles(store_cycles);
        // ...and drain to the NI as block writes. The final (possibly
        // partial) block flushes when the processor touches the NI status
        // to complete the send, stalling it for that last bus transaction.
        let mut drain = t;
        for _ in 0..blocks(wire_bytes) {
            drain = hw.bus.acquire(drain, BusOp::BlockWrite).end;
            hw.ni_mem.record_write();
        }
        SendPath {
            proc_release: drain,
            inject_ready: drain + cost.ni_inject_overhead,
        }
    }

    fn deposit_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        payload_bytes: u64,
        wire_bytes: u64,
    ) -> DepositPath {
        self.base
            .deposit_fragment(hw, cost, now, payload_bytes, wire_bytes)
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        false
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        self.base.detection(hw, cost, now)
    }

    fn drain_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        payload_bytes: u64,
        wire_bytes: u64,
        loc: &DepositLoc,
    ) -> Time {
        // Loads cannot coalesce: the receive path is word-by-word CM-5.
        self.base
            .drain_fragment(hw, cost, now, payload_bytes, wire_bytes, loc)
    }

    // The store buffer drains within each send call; the only other
    // state is the CM-5 base's.
    fn snapshot(&self) -> Json {
        self.base.snapshot()
    }

    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        self.base.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::ni::NiKind;

    fn setup() -> (NodeHw, CostModel, CoalescingNi) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Cm5),
            cfg.costs,
            CoalescingNi::new(),
        )
    }

    #[test]
    fn sends_use_block_writes() {
        let (mut hw, cost, mut ni) = setup();
        ni.send_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        assert_eq!(hw.bus.stats().count(BusOp::BlockWrite), 4);
        assert_eq!(hw.bus.stats().count(BusOp::WordWrite), 0);
    }

    #[test]
    fn send_is_faster_than_plain_cm5() {
        let cfg = MachineConfig::default();
        let (mut hw_c, cost, mut coal) = setup();
        let mut hw_p = NodeHw::new(&cfg, NiKind::Cm5);
        let mut plain = Cm5Ni::new(false);
        let c = coal.send_fragment(&mut hw_c, &cost, Time::ZERO, 248, 256);
        let p = plain.send_fragment(&mut hw_p, &cost, Time::ZERO, 248, 256);
        assert!(
            c.proc_release.as_ns() * 2 < p.proc_release.as_ns(),
            "coalescing {c:?} vs plain {p:?}"
        );
    }

    #[test]
    fn receive_is_unchanged_from_cm5() {
        let cfg = MachineConfig::default();
        let (mut hw_c, cost, mut coal) = setup();
        let mut hw_p = NodeHw::new(&cfg, NiKind::Cm5);
        let mut plain = Cm5Ni::new(false);
        let loc = DepositLoc::NiFifo;
        let c = coal.drain_fragment(&mut hw_c, &cost, Time::ZERO, 248, 256, &loc);
        let p = plain.drain_fragment(&mut hw_p, &cost, Time::ZERO, 248, 256, &loc);
        assert_eq!(c, p, "loads cannot coalesce");
    }

    #[test]
    fn descriptor_reflects_the_asymmetry() {
        let d = CoalescingNi::new().descriptor();
        assert_eq!(d.send.size, TransferSize::Block);
        assert_eq!(d.receive.size, TransferSize::Uncached);
        assert_eq!(d.buffering, BufferingInvolvement::ProcessorInvolved);
    }
}
