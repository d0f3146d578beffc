//! `NI_2w` — the CM-5-like network interface.
//!
//! The processor sees a two-word window onto the NI's send and receive
//! FIFOs and moves every word of every message itself with uncached loads
//! and stores (§4). This is the classic program-controlled-I/O design:
//!
//! * **size of transfer**: uncached words — each access pays a full bus
//!   word transaction, so wide buses are wasted,
//! * **manager**: the processor — it is occupied for the whole transfer,
//! * **endpoints**: processor registers on both sides,
//! * **buffering**: the NI FIFO (the flow-control buffers) with
//!   processor-managed overflow to virtual memory.
//!
//! The same model with `single_cycle = true` is the §6.3 approximation of
//! a processor-register-mapped NI: every NI access costs one processor
//! cycle and no bus transaction, but buffering stays as limited.

use nisim_engine::{Dur, Time};
use nisim_mem::BusOp;

use crate::costs::CostModel;
use crate::node::NodeHw;
use crate::taxonomy::{
    BufferLocation, BufferingInvolvement, NiDescriptor, TransferEndpoint, TransferManager,
    TransferParams, TransferSize,
};

use super::util::words_of;
use super::{DepositLoc, DepositPath, NiModel, SendPath};

/// The CM-5-like `NI_2w` model.
#[derive(Clone, Debug)]
pub struct Cm5Ni {
    single_cycle: bool,
}

impl Cm5Ni {
    /// Creates the model; `single_cycle` selects the §6.3 register-mapped
    /// approximation.
    pub fn new(single_cycle: bool) -> Cm5Ni {
        Cm5Ni { single_cycle }
    }

    /// Moves `wire_bytes` through the NI FIFO data window from `now`, one
    /// uncached word at a time: each word is a register copy, then an
    /// uncached access of `op` whose device turnaround `after` (store
    /// accept, or read response) stalls the processor. The two-word
    /// window is a register file staged at the NI bus interface, so the
    /// read response is register-class, not NI-memory-class.
    ///
    /// Word k+1 is requested one turnaround, copy and issue after word
    /// k's bus phase ends, on a bus this processor alone drives in the
    /// meantime, so only the first word can wait: the run is one
    /// [`Bus::acquire_burst`](nisim_mem::Bus::acquire_burst).
    fn window_run(
        &self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        wire_bytes: u64,
        op: BusOp,
        after: Dur,
    ) -> Time {
        let words = words_of(wire_bytes, cost.uncached_word_bytes);
        let copy = hw.cycles(cost.word_copy_cycles);
        if self.single_cycle || words == 0 {
            return now + (copy + hw.cycles(1)) * words;
        }
        let issue = hw.cycles(cost.uncached_issue_cycles);
        let requested = now + copy + issue;
        hw.bus
            .acquire_burst(requested, op, words, after + copy + issue)
            .end
            + after
    }

    /// Uncached read of the NI status register (send space / message
    /// present); pays the device-controller turnaround.
    pub(super) fn status_read(&self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        if self.single_cycle {
            now + hw.cycles(1)
        } else {
            let issued = now + hw.cycles(cost.uncached_issue_cycles);
            hw.uncached_read(issued, cost.status_read_response)
        }
    }
}

impl NiModel for Cm5Ni {
    fn descriptor(&self) -> NiDescriptor {
        NiDescriptor {
            symbol: "NI_2w",
            description: "TMC CM-5 NI-like",
            send: TransferParams {
                size: TransferSize::Uncached,
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
        self.status_read(hw, cost, now)
    }

    fn send_fragment(
        &mut self,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        _payload_bytes: u64,
        wire_bytes: u64,
    ) -> SendPath {
        let start = now + hw.cycles(cost.send_setup_cycles);
        let accept = cost.fifo_store_accept;
        let t = self.window_run(hw, cost, start, wire_bytes, BusOp::WordWrite, accept);
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
        // The message lands in the NI FIFO; nothing moves until the
        // processor pops it.
        DepositPath {
            done: now + cost.ni_deposit_overhead,
            loc: DepositLoc::NiFifo,
        }
    }

    fn frees_buffer_at_deposit(&self) -> bool {
        false
    }

    fn detection(&mut self, hw: &mut NodeHw, cost: &CostModel, now: Time) -> Time {
        // Poll the NI status register.
        self.status_read(hw, cost, now)
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
        let response = cost.fifo_window_response;
        self.window_run(hw, cost, now, wire_bytes, BusOp::WordRead, response)
    }

    // The FIFO window model carries no dynamic state beyond the machine's
    // shared queues, so its checkpoint payload is empty.
    nisim_engine::state_fields! { {} }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::ni::NiKind;
    use nisim_engine::codec::State;

    fn setup(single: bool) -> (NodeHw, CostModel, Cm5Ni) {
        let cfg = MachineConfig::default();
        (
            NodeHw::new(&cfg, NiKind::Cm5),
            cfg.costs,
            Cm5Ni::new(single),
        )
    }

    /// The reference for `window_run`: one bus transaction per word,
    /// each requested after the one before completes.
    fn per_word(
        ni: &Cm5Ni,
        hw: &mut NodeHw,
        cost: &CostModel,
        now: Time,
        wire: u64,
        store: bool,
    ) -> Time {
        let mut t = now;
        for _ in 0..words_of(wire, cost.uncached_word_bytes) {
            t += hw.cycles(cost.word_copy_cycles);
            t = if ni.single_cycle {
                t + hw.cycles(1)
            } else {
                let issued = t + hw.cycles(cost.uncached_issue_cycles);
                if store {
                    hw.uncached_write(issued) + cost.fifo_store_accept
                } else {
                    hw.uncached_read(issued, cost.fifo_window_response)
                }
            };
        }
        t
    }

    #[test]
    fn word_runs_match_the_per_word_loop() {
        let cfg = MachineConfig {
            metrics: nisim_engine::metrics::MetricsConfig::enabled(),
            ..MachineConfig::default()
        };
        let (cost, loc) = (cfg.costs, DepositLoc::NiFifo);
        for wire in 8..=256 {
            for (single, busy) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut ni = Cm5Ni::new(single);
                let mut hw = NodeHw::new(&cfg, NiKind::Cm5);
                let mut reference = NodeHw::new(&cfg, NiKind::Cm5);
                // On a busy bus, 12+ block writes (16 ns each) queued when
                // the run starts hold it past the first word's request
                // (150 setup + 10 copy and issue cycles into a send).
                let occupy = |hw: &mut NodeHw, reference: &mut NodeHw, at: Time| {
                    for _ in 0..if busy { wire % 7 + 12 } else { 0 } {
                        hw.bus.acquire(at, BusOp::BlockWrite);
                        reference.bus.acquire(at, BusOp::BlockWrite);
                    }
                };
                let what = format!("{wire} B, single_cycle {single}, busy {busy}");
                let now = Time::from_ns(3);
                occupy(&mut hw, &mut reference, now);
                let sent = ni.send_fragment(&mut hw, &cost, now, wire - 8, wire);
                let setup = now + reference.cycles(cost.send_setup_cycles);
                let want = per_word(&ni, &mut reference, &cost, setup, wire, true);
                assert_eq!(sent.proc_release, want, "send {what}");
                occupy(&mut hw, &mut reference, want);
                let drained = ni.drain_fragment(&mut hw, &cost, want, wire - 8, wire, &loc);
                let want = per_word(&ni, &mut reference, &cost, want, wire, false);
                assert_eq!(drained, want, "drain {what}");
                // Grant times, stats, cycle breakdown and grant-wait histogram.
                let (got, expected) = (hw.bus.snapshot(), reference.bus.snapshot());
                assert_eq!(got.to_compact(), expected.to_compact(), "{what}");
            }
        }
    }

    #[test]
    fn drain_scales_with_words() {
        let (mut hw, cost, mut ni) = setup(false);
        let loc = DepositLoc::NiFifo;
        let t16 = ni.drain_fragment(&mut hw, &cost, Time::ZERO, 8, 16, &loc);
        let (mut hw2, cost2, mut ni2) = setup(false);
        let t64 = ni2.drain_fragment(&mut hw2, &cost2, Time::ZERO, 56, 64, &loc);
        // 16 B = 2 words, 64 B = 8 words: cost is per word.
        assert_eq!((t64 - Time::ZERO).as_ns(), 4 * (t16 - Time::ZERO).as_ns());
    }

    #[test]
    fn single_cycle_is_much_faster() {
        let (mut hw, cost, mut ni) = setup(false);
        let (mut hws, costs, mut nis) = setup(true);
        let loc = DepositLoc::NiFifo;
        let bus = ni.drain_fragment(&mut hw, &cost, Time::ZERO, 56, 64, &loc);
        let reg = nis.drain_fragment(&mut hws, &costs, Time::ZERO, 56, 64, &loc);
        assert!(
            (bus - Time::ZERO).as_ns() > 5 * (reg - Time::ZERO).as_ns(),
            "bus {bus:?} vs single-cycle {reg:?}"
        );
    }

    #[test]
    fn single_cycle_uses_no_bus() {
        let (mut hw, cost, mut ni) = setup(true);
        ni.send_fragment(&mut hw, &cost, Time::ZERO, 8, 16);
        ni.detection(&mut hw, &cost, Time::ZERO);
        assert_eq!(hw.bus.stats().total(), 0);
    }

    #[test]
    fn send_occupies_processor_throughout() {
        let (mut hw, cost, mut ni) = setup(false);
        let path = ni.send_fragment(&mut hw, &cost, Time::ZERO, 248, 256);
        // Processor-managed: release coincides with the message being
        // complete at the NI (injection follows).
        assert_eq!(
            path.inject_ready,
            path.proc_release + cost.ni_inject_overhead
        );
        // 32 words of uncached stores dominate.
        assert!(path.proc_release - Time::ZERO > Dur::ns(32 * 12));
    }

    #[test]
    fn buffer_held_until_drain() {
        let (_, _, ni) = setup(false);
        assert!(!ni.frees_buffer_at_deposit());
    }

    #[test]
    fn descriptor_matches_table2() {
        let (_, _, ni) = setup(false);
        let d = ni.descriptor();
        assert_eq!(d.symbol, "NI_2w");
        assert_eq!(d.send.size, TransferSize::Uncached);
        assert_eq!(d.send.manager, TransferManager::Processor);
        assert_eq!(d.receive.endpoint, TransferEndpoint::ProcessorRegisters);
        assert_eq!(d.buffer_location, BufferLocation::NiAndVm);
        assert_eq!(d.buffering, BufferingInvolvement::ProcessorInvolved);
    }
}
