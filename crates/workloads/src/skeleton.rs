//! The shared workload framework.
//!
//! A macrobenchmark skeleton describes *what the program does* as a
//! sequence of [`Step`]s plus an active-message handler; the generic
//! [`SkeletonProcess`] adapts it to the simulator's
//! [`Process`] interface and supplies a **real message-based barrier**
//! (all-to-root arrival + root broadcast release), so synchronisation
//! traffic exercises the NI under test exactly like application traffic —
//! the paper's runs do the same through Tempest.

use nisim_core::process::{Action, AppMessage, HandlerSpec, Process, SendSpec};
use nisim_engine::codec::{self, Codec, DecodeError, Fields};
use nisim_engine::{Dur, Json, Time};
use nisim_net::NodeId;

/// Application tags at or above this value are reserved for the barrier.
pub const BARRIER_TAG_BASE: u32 = 0xFFFF_0000;
/// Tag of a barrier arrival message (node → root).
pub const TAG_BARRIER_ARRIVE: u32 = BARRIER_TAG_BASE;
/// Tag of a barrier release message (root → nodes).
pub const TAG_BARRIER_RELEASE: u32 = BARRIER_TAG_BASE + 1;
/// Wire payload of a barrier message (4 B: 12 B on the wire with the
/// header — the small control messages visible in Table 4).
pub const BARRIER_PAYLOAD: u64 = 4;

/// One step of a skeleton's program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Compute for the given duration.
    Compute(Dur),
    /// Send one application message.
    Send(SendSpec),
    /// Wait until the skeleton reports readiness via
    /// [`Skeleton::ready_to_proceed`] (e.g. all replies arrived).
    WaitUntilReady,
    /// Synchronise all nodes with a message barrier.
    Barrier,
    /// The program is finished.
    Done,
}

/// `["compute", ns]`, `["send", spec]`, `["wait"]`, `["barrier"]` or
/// `["done"]`.
impl Codec for Step {
    fn encode(&self) -> Json {
        let tag = |t: &str| Json::from(t);
        Json::Arr(match self {
            Step::Compute(d) => vec![tag("compute"), d.encode()],
            Step::Send(spec) => vec![tag("send"), spec.encode()],
            Step::WaitUntilReady => vec![tag("wait")],
            Step::Barrier => vec![tag("barrier")],
            Step::Done => vec![tag("done")],
        })
    }
    fn decode(v: &Json) -> Result<Step, DecodeError> {
        let items = codec::array(v)?;
        let arg = || {
            items
                .get(1)
                .ok_or_else(|| DecodeError::new("missing step argument"))
        };
        let step = match (items.first().and_then(Json::as_str), items.len()) {
            (Some("compute"), 2) => Step::Compute(Dur::decode(arg()?).map_err(|e| e.in_index(1))?),
            (Some("send"), 2) => Step::Send(SendSpec::decode(arg()?).map_err(|e| e.in_index(1))?),
            (Some("wait"), 1) => Step::WaitUntilReady,
            (Some("barrier"), 1) => Step::Barrier,
            (Some("done"), 1) => Step::Done,
            _ => return Err(DecodeError::new("unknown program step")),
        };
        Ok(step)
    }
}

/// A macrobenchmark communication skeleton for one node.
pub trait Skeleton {
    /// The next program step. Called when the previous step completed
    /// (for [`Step::WaitUntilReady`]: when readiness was reached).
    fn next_step(&mut self, now: Time) -> Step;

    /// Handler for an application (non-barrier) message.
    fn on_app_message(&mut self, msg: &AppMessage, now: Time) -> HandlerSpec;

    /// Whether a pending [`Step::WaitUntilReady`] can proceed. Re-polled
    /// after every handled message.
    fn ready_to_proceed(&self) -> bool {
        true
    }

    /// Checks an application send of the skeleton's steps or handler
    /// replies (see [`Process::check_send`]). The default accepts any.
    ///
    /// # Errors
    ///
    /// Describes why the skeleton never sends `spec`.
    fn check_send(&self, spec: &SendSpec) -> Result<(), DecodeError> {
        let _ = spec;
        Ok(())
    }

    /// Serialises the skeleton's dynamic state for checkpointing. `None`
    /// (the default) marks the workload unsnapshotable; machine
    /// checkpoints then fail with a typed error.
    fn snapshot(&self) -> Option<Json> {
        None
    }

    /// Restores state captured by [`Skeleton::snapshot`] into a freshly
    /// constructed skeleton (same node, same parameters).
    ///
    /// # Errors
    ///
    /// Fails on a shape mismatch or an out-of-range value, and always
    /// for an unsnapshotable skeleton (the default).
    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        let _ = state;
        Err(DecodeError::new("workload does not support checkpointing"))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Executing ordinary steps.
    Stepping,
    /// Waiting for the skeleton's readiness condition.
    Waiting,
    /// In the barrier: sends queued / waiting for release.
    InBarrier,
    /// Finished.
    Finished,
}

impl Codec for Mode {
    fn encode(&self) -> Json {
        Json::from(match self {
            Mode::Stepping => "stepping",
            Mode::Waiting => "waiting",
            Mode::InBarrier => "in-barrier",
            Mode::Finished => "finished",
        })
    }
    fn decode(v: &Json) -> Result<Mode, DecodeError> {
        match v.as_str() {
            Some("stepping") => Ok(Mode::Stepping),
            Some("waiting") => Ok(Mode::Waiting),
            Some("in-barrier") => Ok(Mode::InBarrier),
            Some("finished") => Ok(Mode::Finished),
            _ => Err(DecodeError::new("unknown skeleton mode")),
        }
    }
}

/// Adapts a [`Skeleton`] to the simulator's [`Process`] interface and
/// implements the message barrier.
pub struct SkeletonProcess<S> {
    skeleton: S,
    node: NodeId,
    nodes: u32,
    mode: Mode,
    /// Barrier sends not yet issued (arrive or release messages).
    barrier_sends: Vec<SendSpec>,
    /// Root only: arrivals (including self) in the current epoch.
    barrier_arrivals: u32,
    /// True once this node's current barrier epoch has been released.
    barrier_released: bool,
    /// Handler cost charged for barrier bookkeeping.
    barrier_handler_cost: Dur,
}

impl<S: Skeleton> SkeletonProcess<S> {
    /// Wraps `skeleton` for `node` of a `nodes`-node machine.
    pub fn new(skeleton: S, node: NodeId, nodes: u32) -> SkeletonProcess<S> {
        SkeletonProcess {
            skeleton,
            node,
            nodes,
            mode: Mode::Stepping,
            barrier_sends: Vec::new(),
            barrier_arrivals: 0,
            barrier_released: false,
            barrier_handler_cost: Dur::ns(30),
        }
    }

    /// Access to the wrapped skeleton (for result extraction).
    pub fn skeleton(&self) -> &S {
        &self.skeleton
    }

    fn is_root(&self) -> bool {
        self.node.0 == 0
    }

    fn enter_barrier(&mut self) {
        self.mode = Mode::InBarrier;
        self.barrier_released = false;
        if self.is_root() {
            self.barrier_arrivals += 1; // count ourselves
            self.check_barrier_release();
        } else {
            self.barrier_sends.push(SendSpec::new(
                NodeId(0),
                BARRIER_PAYLOAD,
                TAG_BARRIER_ARRIVE,
            ));
        }
    }

    /// Root: if everyone arrived, queue the release broadcast.
    fn check_barrier_release(&mut self) {
        if self.is_root() && self.barrier_arrivals == self.nodes {
            self.barrier_arrivals = 0;
            for i in 1..self.nodes {
                self.barrier_sends.push(SendSpec::new(
                    NodeId(i),
                    BARRIER_PAYLOAD,
                    TAG_BARRIER_RELEASE,
                ));
            }
            self.barrier_released = true;
        }
    }

    fn barrier_passed(&self) -> bool {
        self.barrier_released && self.barrier_sends.is_empty()
    }
}

impl<S: Skeleton> Process for SkeletonProcess<S> {
    fn next_action(&mut self, now: Time) -> Action {
        loop {
            match self.mode {
                Mode::Finished => return Action::Done,
                Mode::InBarrier => {
                    if let Some(send) = self.barrier_sends.pop() {
                        return Action::Send(send);
                    }
                    if self.barrier_passed() {
                        self.mode = Mode::Stepping;
                        continue;
                    }
                    return Action::Wait;
                }
                Mode::Waiting => {
                    if self.skeleton.ready_to_proceed() {
                        self.mode = Mode::Stepping;
                        continue;
                    }
                    return Action::Wait;
                }
                Mode::Stepping => match self.skeleton.next_step(now) {
                    Step::Compute(d) => return Action::Compute(d),
                    Step::Send(spec) => return Action::Send(spec),
                    Step::WaitUntilReady => {
                        self.mode = Mode::Waiting;
                        continue;
                    }
                    Step::Barrier => {
                        self.enter_barrier();
                        continue;
                    }
                    Step::Done => {
                        self.mode = Mode::Finished;
                        return Action::Done;
                    }
                },
            }
        }
    }

    fn on_message(&mut self, msg: &AppMessage, now: Time) -> HandlerSpec {
        match msg.tag {
            TAG_BARRIER_ARRIVE => {
                debug_assert!(self.is_root(), "arrival at non-root");
                self.barrier_arrivals += 1;
                self.check_barrier_release();
                let sends = std::mem::take(&mut self.barrier_sends);
                HandlerSpec {
                    compute: self.barrier_handler_cost,
                    sends,
                }
            }
            TAG_BARRIER_RELEASE => {
                self.barrier_released = true;
                HandlerSpec::compute(self.barrier_handler_cost)
            }
            _ => self.skeleton.on_app_message(msg, now),
        }
    }

    fn is_done(&self) -> bool {
        self.mode == Mode::Finished
    }

    /// Barrier messages go from every other node to the root and back;
    /// everything else is the skeleton's.
    fn check_send(&self, spec: &SendSpec) -> Result<(), DecodeError> {
        if spec.tag < BARRIER_TAG_BASE {
            return self.skeleton.check_send(spec);
        }
        let (tag, to_root) = if self.is_root() {
            (TAG_BARRIER_RELEASE, false)
        } else {
            (TAG_BARRIER_ARRIVE, true)
        };
        codec::ensure(
            *spec == SendSpec::new(spec.dst, BARRIER_PAYLOAD, tag) && (spec.dst.0 == 0) == to_root,
            "a barrier message this node never sends",
        )
    }

    fn snapshot(&self) -> Option<Json> {
        let skeleton = self.skeleton.snapshot()?;
        Some(
            Json::obj()
                .set("mode", self.mode.encode())
                .set("barrier_sends", self.barrier_sends.encode())
                .set("barrier_arrivals", self.barrier_arrivals.encode())
                .set("barrier_released", self.barrier_released.encode())
                .set("skeleton", skeleton),
        )
    }

    /// Only the root counts arrivals, and it resets the count as soon as
    /// every node has arrived; queued barrier messages go to other nodes.
    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(state)?;
        self.mode = f.get("mode")?;
        self.barrier_sends = f.get("barrier_sends")?;
        self.barrier_arrivals = f.get("barrier_arrivals")?;
        self.barrier_released = f.get("barrier_released")?;
        f.with("skeleton", |j| self.skeleton.restore(j))?;
        f.finish()?;
        let arrivals_ok = if self.is_root() {
            self.barrier_arrivals < self.nodes
        } else {
            self.barrier_arrivals == 0
        };
        codec::ensure(arrivals_ok, "barrier arrival count out of range")?;
        let (me, nodes) = (self.node, self.nodes);
        for s in &self.barrier_sends {
            codec::ensure(
                s.dst != me && s.dst.0 < nodes,
                "barrier message to a bad node",
            )?;
            codec::ensure(
                s.tag >= BARRIER_TAG_BASE,
                "application message in the barrier queue",
            )?;
            self.check_send(s)?;
        }
        Ok(())
    }
}

/// Builds a machine factory from a per-node skeleton constructor.
pub fn skeleton_factory<S: Skeleton + 'static>(
    nodes: u32,
    mut make: impl FnMut(NodeId) -> S,
) -> impl FnMut(NodeId) -> Box<dyn Process> {
    move |id| Box::new(SkeletonProcess::new(make(id), id, nodes)) as Box<dyn Process>
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::{Machine, MachineConfig, NiKind};

    /// A skeleton that computes, barriers, computes, and finishes.
    struct TwoPhases {
        phase: u32,
    }

    impl Skeleton for TwoPhases {
        fn next_step(&mut self, _now: Time) -> Step {
            self.phase += 1;
            match self.phase {
                1 => Step::Compute(Dur::ns(500)),
                2 => Step::Barrier,
                3 => Step::Compute(Dur::ns(100)),
                _ => Step::Done,
            }
        }

        fn on_app_message(&mut self, _msg: &AppMessage, _now: Time) -> HandlerSpec {
            HandlerSpec::empty()
        }
    }

    #[test]
    fn barrier_synchronises_all_nodes() {
        for nodes in [2u32, 4, 16] {
            let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(nodes);
            let report = Machine::run(cfg, skeleton_factory(nodes, |_| TwoPhases { phase: 0 }));
            assert!(report.all_quiescent, "{nodes} nodes");
            // Barrier traffic: (nodes-1) arrivals + (nodes-1) releases.
            assert_eq!(report.app_messages as u32, 2 * (nodes - 1));
        }
    }

    #[test]
    fn repeated_barriers_stay_in_step() {
        struct ManyBarriers {
            left: u32,
        }
        impl Skeleton for ManyBarriers {
            fn next_step(&mut self, _now: Time) -> Step {
                if self.left == 0 {
                    return Step::Done;
                }
                self.left -= 1;
                Step::Barrier
            }
            fn on_app_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
                HandlerSpec::empty()
            }
        }
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let report = Machine::run(cfg, skeleton_factory(4, |_| ManyBarriers { left: 10 }));
        assert!(report.all_quiescent);
        assert_eq!(report.app_messages, 10 * 2 * 3);
    }

    #[test]
    fn barrier_messages_are_small_control_messages() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let report = Machine::run(cfg, skeleton_factory(4, |_| TwoPhases { phase: 0 }));
        // All barrier messages are 12 B on the wire (4 B payload + 8 B
        // header), matching the small-message peaks of Table 4.
        assert_eq!(report.msg_sizes.count_of(12), report.app_messages);
    }

    #[test]
    fn wait_until_ready_blocks_until_message() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct Producer {
            sent: bool,
        }
        impl Skeleton for Producer {
            fn next_step(&mut self, _now: Time) -> Step {
                if self.sent {
                    Step::Done
                } else {
                    self.sent = true;
                    Step::Send(SendSpec::new(NodeId(1), 64, 7))
                }
            }
            fn on_app_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
                HandlerSpec::empty()
            }
        }
        struct Consumer {
            got: Rc<Cell<bool>>,
        }
        impl Skeleton for Consumer {
            fn next_step(&mut self, _now: Time) -> Step {
                if self.got.get() {
                    Step::Done
                } else {
                    Step::WaitUntilReady
                }
            }
            fn on_app_message(&mut self, msg: &AppMessage, _now: Time) -> HandlerSpec {
                assert_eq!(msg.tag, 7);
                assert_eq!(msg.payload_bytes, 64);
                self.got.set(true);
                HandlerSpec::compute(Dur::ns(5))
            }
            fn ready_to_proceed(&self) -> bool {
                self.got.get()
            }
        }

        let got = Rc::new(Cell::new(false));
        let got2 = got.clone();
        let cfg = MachineConfig::with_ni(NiKind::Ap3000).nodes(2);
        let report = Machine::run(cfg, move |id| -> Box<dyn Process> {
            if id.0 == 0 {
                Box::new(SkeletonProcess::new(Producer { sent: false }, id, 2))
            } else {
                Box::new(SkeletonProcess::new(Consumer { got: got2.clone() }, id, 2))
            }
        });
        assert!(report.all_quiescent);
        assert!(got.get());
    }
}
