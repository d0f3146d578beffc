//! The §6.1 microbenchmarks: round-trip latency and bandwidth (Table 5),
//! plus the modern-NI studies (connection-count sweep, strided
//! scatter-gather exchange) and the two fixed streams the ablations use.
//!
//! Every microbenchmark is a two-node run through [`run_pair`]: node 0
//! runs the sender, node 1 the receiver. A node whose program ignores
//! what it receives is a [`Script`]; only the ping-pong and the
//! bandwidth sink's arrival log are processes of their own.

use std::fmt;

use nisim_core::process::{Action, Process, Script, SendSpec};
use nisim_core::{Machine, MachineConfig, MachineReport, NiKind, StallReport};
use nisim_engine::{Dur, SimStatus};
use nisim_net::{BufferCount, NodeId};

pub mod bandwidth;
pub mod connsweep;
pub mod logp;
pub mod pingpong;
pub mod strided;

/// A two-node run that ended before both programs finished and the
/// network emptied, so it yields no measurement.
#[derive(Clone, Debug)]
pub struct Undrained {
    /// Why the event loop stopped.
    pub status: SimStatus,
    /// The no-progress watchdog's dump, when `status` is a stall.
    pub stall: Option<StallReport>,
}

impl fmt::Display for Undrained {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the run ended undrained ({:?})", self.status)
    }
}

/// Builds the two-node machine `cfg` describes (its node count is
/// overridden), runs `sender` on node 0 and `receiver` on node 1, and
/// returns the report of a run that drained.
///
/// # Errors
///
/// [`Undrained`] when the run stalled, hit a safety bound, or left a
/// program unfinished.
pub fn run_pair(
    cfg: &MachineConfig,
    sender: impl Process + 'static,
    receiver: impl Process + 'static,
) -> Result<MachineReport, Undrained> {
    let mut pair: [Option<Box<dyn Process>>; 2] =
        [Some(Box::new(sender)), Some(Box::new(receiver))];
    let report = Machine::run(cfg.clone().nodes(2), |id| {
        pair[id.index()]
            .take()
            .expect("the machine builds each of its two nodes once")
    });
    if report.status == SimStatus::Drained && report.all_quiescent {
        Ok(report)
    } else {
        Err(Undrained {
            status: report.status,
            stall: report.stall,
        })
    }
}

/// [`run_pair`] with `program` on node 0 and an idle sink on node 1.
fn run_to_sink(
    cfg: &MachineConfig,
    program: impl Iterator<Item = Action> + 'static,
) -> Result<MachineReport, Undrained> {
    run_pair(
        cfg,
        Script::new(program, Dur::ZERO),
        Script::sink(Dur::ZERO),
    )
}

/// The Table 5 configuration of `kind`: 8 flow-control buffers, and
/// pure UDMA for the UDMA-based NI.
pub fn table5_config(kind: NiKind) -> MachineConfig {
    MachineConfig::with_ni(kind)
        .flow_buffers(BufferCount::Finite(8))
        .for_microbenchmark()
}

/// `count` back-to-back sends of `spec`: node 0's program in every
/// stream.
fn stream(spec: SendSpec, count: u32) -> impl Iterator<Item = Action> {
    std::iter::repeat_n(Action::Send(spec), count as usize)
}

/// A bursty two-node exchange: `bursts` bursts of `burst_len` 248-byte
/// messages, each burst preceded by `gap` of computation; the receiver's
/// handler computes for 200 ns per message.
///
/// # Errors
///
/// [`Undrained`] if the run does not drain.
pub fn bursty_report(
    cfg: &MachineConfig,
    bursts: u32,
    burst_len: u32,
    gap: Dur,
) -> Result<MachineReport, Undrained> {
    let burst = SendSpec::new(NodeId(1), 248, 0);
    let program = (0..bursts)
        .flat_map(move |_| std::iter::once(Action::Compute(gap)).chain(stream(burst, burst_len)));
    run_pair(
        cfg,
        Script::new(program, Dur::ZERO),
        Script::sink(Dur::ns(200)),
    )
}

/// A fixed two-node stream of `n` 4096-byte messages (the dead-block
/// ablation counts its writebacks).
///
/// # Errors
///
/// [`Undrained`] if the run does not drain.
pub fn stream_report(cfg: &MachineConfig, n: u32) -> Result<MachineReport, Undrained> {
    run_to_sink(cfg, stream(SendSpec::new(NodeId(1), 4096, 0), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_are_separated_by_their_gap() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5);
        let r = bursty_report(&cfg, 3, 4, Dur::us(5)).expect("drains");
        assert_eq!(r.app_messages, 12);
        assert!(r.elapsed >= Dur::us(15), "three 5 us gaps: {}", r.elapsed);
    }
}
