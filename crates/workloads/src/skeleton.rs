//! The shared workload framework.
//!
//! A macrobenchmark skeleton describes *what one iteration of the
//! program does* as a list of [`Step`]s plus an active-message handler;
//! the generic [`SkeletonProcess`] runs the program loop (the iteration
//! count, the iterations left and the step queue), adapts it to the
//! simulator's [`Process`] interface and supplies a **real message-based
//! barrier** (all-to-root arrival + root broadcast release), so
//! synchronisation traffic exercises the NI under test exactly like
//! application traffic — the paper's runs do the same through Tempest.

use std::collections::VecDeque;

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

/// One step of a skeleton's program. The program ends when the last
/// iteration's steps have run.
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
}

/// `["compute", ns]`, `["send", spec]`, `["wait"]` or `["barrier"]`.
impl Codec for Step {
    fn encode(&self) -> Json {
        let tag = |t: &str| Json::from(t);
        Json::Arr(match self {
            Step::Compute(d) => vec![tag("compute"), d.encode()],
            Step::Send(spec) => vec![tag("send"), spec.encode()],
            Step::WaitUntilReady => vec![tag("wait")],
            Step::Barrier => vec![tag("barrier")],
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
            _ => return Err(DecodeError::new("unknown program step")),
        };
        Ok(step)
    }
}

/// A macrobenchmark communication skeleton for one node.
pub trait Skeleton {
    /// Queues one iteration's steps onto `steps`. Called when the
    /// previous iteration's steps have all completed; `left` is the
    /// number of iterations still to come after this one, so the last
    /// iteration sees 0.
    fn iteration(&mut self, left: u32, steps: &mut VecDeque<Step>);

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

    /// Checks a restored queued step: `Ok` only for a step
    /// [`Skeleton::iteration`] can queue on this node. The default
    /// rejects every step, as only a snapshotable skeleton needs this.
    ///
    /// # Errors
    ///
    /// Describes why the skeleton never queues `step`.
    fn check_step(&self, step: &Step) -> Result<(), DecodeError> {
        let _ = step;
        Err(DecodeError::new("a step this workload never queues"))
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

/// Runs a [`Skeleton`]'s program loop as a simulator [`Process`] and
/// implements the message barrier.
pub struct SkeletonProcess<S> {
    skeleton: S,
    node: NodeId,
    nodes: u32,
    /// Iterations the whole run has.
    iterations: u32,
    /// Iterations not yet queued.
    iters_left: u32,
    /// The current iteration's steps not yet run.
    steps: VecDeque<Step>,
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
    /// Wraps `skeleton` for `node` of a `nodes`-node machine, to run
    /// `iterations` iterations.
    pub fn new(skeleton: S, node: NodeId, nodes: u32, iterations: u32) -> SkeletonProcess<S> {
        SkeletonProcess {
            skeleton,
            node,
            nodes,
            iterations,
            iters_left: iterations,
            steps: VecDeque::new(),
            mode: Mode::Stepping,
            barrier_sends: Vec::new(),
            barrier_arrivals: 0,
            barrier_released: false,
            barrier_handler_cost: Dur::ns(30),
        }
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
    fn next_action(&mut self, _now: Time) -> Action {
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
                Mode::Stepping => match self.steps.pop_front() {
                    Some(Step::Compute(d)) => return Action::Compute(d),
                    Some(Step::Send(spec)) => return Action::Send(spec),
                    Some(Step::WaitUntilReady) => self.mode = Mode::Waiting,
                    Some(Step::Barrier) => self.enter_barrier(),
                    None if self.iters_left == 0 => {
                        self.mode = Mode::Finished;
                        return Action::Done;
                    }
                    None => {
                        self.iters_left -= 1;
                        self.skeleton.iteration(self.iters_left, &mut self.steps);
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
                .set("iters_left", self.iters_left.encode())
                .set("steps", self.steps.encode())
                .set("barrier_sends", self.barrier_sends.encode())
                .set("barrier_arrivals", self.barrier_arrivals.encode())
                .set("barrier_released", self.barrier_released.encode())
                .set("skeleton", skeleton),
        )
    }

    /// At most the run's iterations are left, and every queued step is
    /// one the skeleton queues. A finished program has no step, iteration
    /// or barrier send left. Only the root counts arrivals, and it resets
    /// the count as soon as every node has arrived; queued barrier
    /// messages go to other nodes.
    fn restore(&mut self, state: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(state)?;
        self.mode = f.get("mode")?;
        self.iters_left = f.with("iters_left", |j| {
            let left = u32::decode(j)?;
            codec::ensure(
                left <= self.iterations,
                "more iterations left than the run has",
            )?;
            Ok(left)
        })?;
        self.steps = f.get("steps")?;
        self.barrier_sends = f.get("barrier_sends")?;
        self.barrier_arrivals = f.get("barrier_arrivals")?;
        self.barrier_released = f.get("barrier_released")?;
        f.with("skeleton", |j| self.skeleton.restore(j))?;
        f.finish()?;
        // The loop finishes only on an empty queue with no iteration
        // left, and barrier sends are issued before a barrier is passed.
        let idle = self.steps.is_empty() && self.iters_left == 0 && self.barrier_sends.is_empty();
        codec::ensure(
            self.mode != Mode::Finished || idle,
            "finished with steps, iterations or barrier sends left",
        )?;
        for (i, step) in self.steps.iter().enumerate() {
            self.skeleton
                .check_step(step)
                .map_err(|e| e.in_index(i).in_key("steps"))?;
        }
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

/// Builds a machine factory from a per-node skeleton constructor: every
/// node runs `iterations` iterations.
pub fn skeleton_factory<S: Skeleton + 'static>(
    nodes: u32,
    iterations: u32,
    mut make: impl FnMut(NodeId) -> S,
) -> impl FnMut(NodeId) -> Box<dyn Process> {
    move |id| Box::new(SkeletonProcess::new(make(id), id, nodes, iterations)) as Box<dyn Process>
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_core::{Machine, MachineConfig, NiKind};

    /// A one-iteration skeleton that computes, barriers and computes.
    struct TwoPhases;

    impl Skeleton for TwoPhases {
        fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
            steps.push_back(Step::Compute(Dur::ns(500)));
            steps.push_back(Step::Barrier);
            steps.push_back(Step::Compute(Dur::ns(100)));
        }

        fn on_app_message(&mut self, _msg: &AppMessage, _now: Time) -> HandlerSpec {
            HandlerSpec::empty()
        }
    }

    #[test]
    fn barrier_synchronises_all_nodes() {
        for nodes in [2u32, 4, 16] {
            let cfg = MachineConfig::with_ni(NiKind::Cni32Qm).nodes(nodes);
            let report = Machine::run(cfg, skeleton_factory(nodes, 1, |_| TwoPhases));
            assert!(report.all_quiescent, "{nodes} nodes");
            // Barrier traffic: (nodes-1) arrivals + (nodes-1) releases.
            assert_eq!(report.app_messages as u32, 2 * (nodes - 1));
        }
    }

    #[test]
    fn repeated_barriers_stay_in_step() {
        struct ManyBarriers;
        impl Skeleton for ManyBarriers {
            fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
                steps.push_back(Step::Barrier);
            }
            fn on_app_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
                HandlerSpec::empty()
            }
        }
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let report = Machine::run(cfg, skeleton_factory(4, 10, |_| ManyBarriers));
        assert!(report.all_quiescent);
        assert_eq!(report.app_messages, 10 * 2 * 3);
    }

    #[test]
    fn barrier_messages_are_small_control_messages() {
        let cfg = MachineConfig::with_ni(NiKind::Cm5).nodes(4);
        let report = Machine::run(cfg, skeleton_factory(4, 1, |_| TwoPhases));
        // All barrier messages are 12 B on the wire (4 B payload + 8 B
        // header), matching the small-message peaks of Table 4.
        assert_eq!(report.msg_sizes.count_of(12), report.app_messages);
    }

    #[test]
    fn the_loop_runs_each_iteration_once_and_then_ends() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Records each `left` it is called with; queues one compute step
        /// on even counts and nothing on odd ones.
        struct EvenComputes(Rc<RefCell<Vec<u32>>>);
        impl Skeleton for EvenComputes {
            fn iteration(&mut self, left: u32, steps: &mut VecDeque<Step>) {
                self.0.borrow_mut().push(left);
                if left.is_multiple_of(2) {
                    steps.push_back(Step::Compute(Dur::ns(u64::from(left) + 1)));
                }
            }
            fn on_app_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
                HandlerSpec::empty()
            }
        }

        let lefts = Rc::new(RefCell::new(Vec::new()));
        // One node: its barriers pass at once.
        let mut p = SkeletonProcess::new(EvenComputes(lefts.clone()), NodeId(0), 1, 5);
        let mut actions = Vec::new();
        while !p.is_done() {
            actions.push(p.next_action(Time::ZERO));
            assert!(actions.len() <= 5, "the program outlived its iterations");
        }
        // Iterations 3 and 1 queue nothing: the loop moves straight on.
        assert_eq!(*lefts.borrow(), [4, 3, 2, 1, 0]);
        assert_eq!(
            actions,
            [
                Action::Compute(Dur::ns(5)),
                Action::Compute(Dur::ns(3)),
                Action::Compute(Dur::ns(1)),
                Action::Done,
            ]
        );
        assert_eq!(p.next_action(Time::ZERO), Action::Done);
        assert_eq!(lefts.borrow().len(), 5, "no iteration after the last");
    }

    #[test]
    fn wait_until_ready_blocks_until_message() {
        use std::cell::Cell;
        use std::rc::Rc;

        struct Producer;
        impl Skeleton for Producer {
            fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
                steps.push_back(Step::Send(SendSpec::new(NodeId(1), 64, 7)));
            }
            fn on_app_message(&mut self, _m: &AppMessage, _now: Time) -> HandlerSpec {
                HandlerSpec::empty()
            }
        }
        struct Consumer {
            got: Rc<Cell<bool>>,
        }
        impl Skeleton for Consumer {
            fn iteration(&mut self, _left: u32, steps: &mut VecDeque<Step>) {
                steps.push_back(Step::WaitUntilReady);
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
                Box::new(SkeletonProcess::new(Producer, id, 2, 1))
            } else {
                Box::new(SkeletonProcess::new(
                    Consumer { got: got2.clone() },
                    id,
                    2,
                    1,
                ))
            }
        });
        assert!(report.all_quiescent);
        assert!(got.get());
    }
}
