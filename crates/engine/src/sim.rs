//! The event scheduler.
//!
//! [`Sim<M, E>`] owns a priority queue of events scheduled against a model
//! of type `M`. An event is any type implementing [`Event<M>`]; firing an
//! event may mutate the model and schedule further events. Events scheduled
//! for the same instant fire in the order they were scheduled (FIFO), which
//! makes runs exactly reproducible.
//!
//! The queue is a rolling window of nanosecond slots with a binary heap
//! for everything outside it (see [`crate::wheel`]): the dense
//! short-horizon traffic a hardware model generates — bus transactions,
//! link hops, memory accesses — schedules and pops in O(1) instead of
//! O(log n).
//!
//! Simulation models define a plain `enum` of their event kinds and
//! dispatch in [`Event::fire`]; the events are stored inline in the wheel's
//! node slab, so the steady state allocates nothing per event. For quick
//! experiments and tests, the default event type [`ClosureEvent`] keeps the
//! original boxed-closure API: `Sim<M>` means `Sim<M, ClosureEvent<M>>`,
//! and [`Sim::schedule_at`] / [`Sim::schedule_in`] accept plain closures.

use std::marker::PhantomData;

use crate::time::{Dur, Time};
use crate::wheel::TimerWheel;

/// A scheduled event: fires against the model and may schedule more events.
///
/// Implement this on an `enum` of the model's event kinds to get
/// allocation-free scheduling; see [`ClosureEvent`] for the boxed-closure
/// escape hatch.
pub trait Event<M>: Sized {
    /// Consumes the event, mutating the model and possibly scheduling
    /// follow-up events.
    fn fire(self, model: &mut M, sim: &mut Sim<M, Self>);
}

/// The default event type: a boxed `FnOnce(&mut M, &mut Sim<M>)` closure.
///
/// This is the pre-wheel API, kept for tests, examples, and models whose
/// event shapes don't justify a dedicated enum. Each event costs one heap
/// allocation; hot paths should define a typed event enum instead.
pub struct ClosureEvent<M>(BoxedHandler<M>);

/// The boxed form a [`ClosureEvent`] stores.
type BoxedHandler<M> = Box<dyn FnOnce(&mut M, &mut Sim<M>)>;

impl<M> ClosureEvent<M> {
    /// Wraps a closure as a schedulable event.
    pub fn new(f: impl FnOnce(&mut M, &mut Sim<M>) + 'static) -> Self {
        ClosureEvent(Box::new(f))
    }
}

impl<M> Event<M> for ClosureEvent<M> {
    fn fire(self, model: &mut M, sim: &mut Sim<M>) {
        (self.0)(model, sim)
    }
}

/// A schedule request named a timestamp earlier than the current time.
///
/// Scheduling into the past is always a model bug, but one buggy design
/// point should surface as a diagnostic, not abort a whole sweep: callers
/// route this into their violation channel (the machine layer records a
/// `ProtocolViolation` and drops the event) instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ScheduleError {
    /// The requested (past) fire time.
    pub at: Time,
    /// The scheduler's current time when the request was made.
    pub now: Time,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot schedule event in the past: at={:?} now={:?}",
            self.at, self.now
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Why a [`Sim::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimStatus {
    /// The event queue drained completely.
    Drained,
    /// The time horizon passed with events still pending.
    HorizonReached,
    /// The event budget was exhausted with events still pending.
    EventBudgetExhausted,
    /// The no-progress watchdog fired: events kept firing, but the
    /// model's progress counter did not advance for the configured
    /// window of simulated time (see [`Sim::run_watched`]).
    Stalled,
}

/// A deterministic discrete-event scheduler over a model `M`.
///
/// # Example
///
/// ```
/// use nisim_engine::{Sim, Dur};
///
/// let mut log = Vec::new();
/// let mut sim: Sim<Vec<&'static str>> = Sim::new();
/// sim.schedule_in(Dur::ns(10), |m: &mut Vec<&'static str>, _| m.push("b"));
/// sim.schedule_in(Dur::ns(5), |m: &mut Vec<&'static str>, _| m.push("a"));
/// sim.run(&mut log);
/// assert_eq!(log, ["a", "b"]);
/// ```
///
/// Typed events avoid the per-event allocation:
///
/// ```
/// use nisim_engine::{Event, Sim, Time};
///
/// enum Ev {
///     Add(u64),
/// }
/// impl Event<u64> for Ev {
///     fn fire(self, model: &mut u64, _sim: &mut Sim<u64, Self>) {
///         let Ev::Add(n) = self;
///         *model += n;
///     }
/// }
/// let mut total = 0u64;
/// let mut sim: Sim<u64, Ev> = Sim::new();
/// sim.schedule_event_at(Time::from_ns(3), Ev::Add(2)).unwrap();
/// sim.run(&mut total);
/// assert_eq!(total, 2);
/// ```
pub struct Sim<M, E: Event<M> = ClosureEvent<M>> {
    now: Time,
    seq: u64,
    fired: u64,
    queue: TimerWheel<E>,
    _model: PhantomData<fn(&mut M)>,
}

impl<M, E: Event<M>> Default for Sim<M, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M, E: Event<M>> Sim<M, E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Sim {
            now: Time::ZERO,
            seq: 0,
            fired: 0,
            queue: TimerWheel::new(),
            _model: PhantomData,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events fired so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The next sequence number the scheduler would assign. Part of a
    /// checkpoint: restoring it keeps same-instant FIFO order stable
    /// across a save/resume boundary.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Removes every pending event, returning `(at, seq, event)` triples
    /// in canonical pop order (ascending time, FIFO within an instant).
    ///
    /// Snapshotting uses this destructively: serialise the triples, then
    /// hand them back through [`Sim::restore_entries`] to keep the live
    /// run going, or [`Sim::from_parts`] to rebuild a run later.
    pub fn drain_entries(&mut self) -> Vec<(Time, u64, E)> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(entry) = self.queue.pop() {
            out.push(entry);
        }
        out
    }

    /// Re-queues entries drained by [`Sim::drain_entries`] with their
    /// original sequence numbers, preserving same-instant order.
    pub fn restore_entries(&mut self, entries: Vec<(Time, u64, E)>) {
        for (at, seq, event) in entries {
            self.queue.push(at, seq, event);
        }
    }

    /// Rebuilds a scheduler from checkpointed parts: the saved clock, the
    /// sequence counter, the fired-event count and the pending entries.
    pub fn from_parts(now: Time, seq: u64, fired: u64, entries: Vec<(Time, u64, E)>) -> Self {
        let mut sim = Sim {
            now,
            seq,
            fired,
            queue: TimerWheel::new(),
            _model: PhantomData,
        };
        sim.restore_entries(entries);
        sim
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Returns a [`ScheduleError`] (and queues nothing) if `at` is before
    /// [`Sim::now`].
    pub fn schedule_event_at(&mut self, at: Time, event: E) -> Result<(), ScheduleError> {
        if at < self.now {
            return Err(ScheduleError { at, now: self.now });
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, event);
        Ok(())
    }

    /// Schedules `event` to fire `delay` after the current time. Cannot
    /// fail: `now + delay` is never in the past.
    pub fn schedule_event_in(&mut self, delay: Dur, event: E) {
        let at = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, event);
    }

    /// Runs until the queue drains. Returns [`SimStatus::Drained`].
    pub fn run(&mut self, model: &mut M) -> SimStatus {
        self.run_bounded(model, Time::MAX, u64::MAX)
    }

    /// Runs until the queue drains or simulated time would pass `horizon`.
    ///
    /// Events scheduled exactly at `horizon` do fire; the first event
    /// strictly after it is left pending and `now` is clamped to `horizon`.
    pub fn run_until(&mut self, model: &mut M, horizon: Time) -> SimStatus {
        self.run_bounded(model, horizon, u64::MAX)
    }

    /// Runs until drained, `horizon` passes, or `max_events` have fired.
    pub fn run_bounded(&mut self, model: &mut M, horizon: Time, max_events: u64) -> SimStatus {
        self.run_loop(model, horizon, max_events, |_, _| false)
    }

    /// [`Sim::run_bounded`] with a no-progress watchdog.
    ///
    /// `progress` extracts a monotone progress counter from the model
    /// (delivered messages, completed work items — anything that only
    /// moves when the system does useful work). After every event the
    /// counter is sampled; if events keep firing but the counter stays
    /// flat while simulated time advances by at least `window`, the run
    /// aborts with [`SimStatus::Stalled`] — turning an event-churning
    /// live-lock (e.g. an endless reject/return/retry storm) into a
    /// reportable outcome instead of a hang.
    ///
    /// Healthy runs are unaffected: the watchdog never fires on a drained
    /// queue, and a gap with *no* events (a long compute) only trips it
    /// if the event ending the gap also fails to advance the counter.
    pub fn run_watched(
        &mut self,
        model: &mut M,
        horizon: Time,
        max_events: u64,
        window: Dur,
        mut progress: impl FnMut(&M) -> u64,
    ) -> SimStatus {
        let mut last_value = progress(model);
        let mut last_change = self.now;
        self.run_loop(model, horizon, max_events, |model, now| {
            let value = progress(model);
            if value != last_value {
                last_value = value;
                last_change = now;
                false
            } else {
                now.saturating_since(last_change) >= window
            }
        })
    }

    /// The run loop behind [`Sim::run_bounded`] and [`Sim::run_watched`]:
    /// one `pop_due`, inlined here, per event finds and takes it. After
    /// each event, `stalled(model, now)` returning true ends the run as
    /// [`SimStatus::Stalled`].
    fn run_loop(
        &mut self,
        model: &mut M,
        horizon: Time,
        max_events: u64,
        mut stalled: impl FnMut(&M, Time) -> bool,
    ) -> SimStatus {
        let mut budget = max_events;
        loop {
            if budget == 0 {
                return match self.queue.peek() {
                    None => SimStatus::Drained,
                    Some((at, _)) if at > horizon => self.horizon_reached(horizon),
                    Some(_) => SimStatus::EventBudgetExhausted,
                };
            }
            let Some((at, _, event)) = self.queue.pop_due(horizon) else {
                return if self.queue.is_empty() {
                    SimStatus::Drained
                } else {
                    self.horizon_reached(horizon)
                };
            };
            budget -= 1;
            debug_assert!(at >= self.now, "event queue returned stale event");
            self.now = at;
            self.fired += 1;
            event.fire(model, self);
            if stalled(model, self.now) {
                return SimStatus::Stalled;
            }
        }
    }

    /// Ends a run whose next event lies past `horizon`: the clock stops
    /// at the horizon.
    fn horizon_reached(&mut self, horizon: Time) -> SimStatus {
        self.now = horizon;
        SimStatus::HorizonReached
    }
}

impl<M> Sim<M> {
    /// Schedules a closure to fire at absolute time `at`.
    ///
    /// Returns a [`ScheduleError`] (and queues nothing) if `at` is before
    /// [`Sim::now`].
    pub fn schedule_at(
        &mut self,
        at: Time,
        event: impl FnOnce(&mut M, &mut Sim<M>) + 'static,
    ) -> Result<(), ScheduleError> {
        self.schedule_event_at(at, ClosureEvent::new(event))
    }

    /// Schedules a closure to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Dur, event: impl FnOnce(&mut M, &mut Sim<M>) + 'static) {
        self.schedule_event_in(delay, ClosureEvent::new(event));
    }
}

impl<M, E: Event<M>> std::fmt::Debug for Sim<M, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("fired", &self.fired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut out: Vec<u64> = Vec::new();
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &[30u64, 10, 20] {
            sim.schedule_at(Time::from_ns(t), move |m: &mut Vec<u64>, _| m.push(t))
                .unwrap();
        }
        assert_eq!(sim.run(&mut out), SimStatus::Drained);
        assert_eq!(out, [10, 20, 30]);
        assert_eq!(sim.now(), Time::from_ns(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut out: Vec<u32> = Vec::new();
        let mut sim: Sim<Vec<u32>> = Sim::new();
        for i in 0..100u32 {
            sim.schedule_at(Time::from_ns(7), move |m: &mut Vec<u32>, _| m.push(i))
                .unwrap();
        }
        sim.run(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut count = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        fn chain(n: u64) -> impl FnOnce(&mut u64, &mut Sim<u64>) {
            move |m, sim| {
                *m += 1;
                if n > 0 {
                    sim.schedule_in(Dur::ns(1), chain(n - 1));
                }
            }
        }
        sim.schedule_at(Time::ZERO, chain(9)).unwrap();
        sim.run(&mut count);
        assert_eq!(count, 10);
        assert_eq!(sim.now(), Time::from_ns(9));
        assert_eq!(sim.events_fired(), 10);
    }

    #[test]
    fn typed_events_dispatch_without_boxing() {
        enum Ev {
            Add(u64),
            Fork,
        }
        impl Event<u64> for Ev {
            fn fire(self, model: &mut u64, sim: &mut Sim<u64, Self>) {
                match self {
                    Ev::Add(n) => *model += n,
                    Ev::Fork => {
                        sim.schedule_event_in(Dur::ns(1), Ev::Add(10));
                        sim.schedule_event_in(Dur::ns(2), Ev::Add(100));
                    }
                }
            }
        }
        let mut total = 0u64;
        let mut sim: Sim<u64, Ev> = Sim::new();
        sim.schedule_event_at(Time::from_ns(5), Ev::Fork).unwrap();
        sim.schedule_event_at(Time::from_ns(1), Ev::Add(1)).unwrap();
        assert_eq!(sim.run(&mut total), SimStatus::Drained);
        assert_eq!(total, 111);
        assert_eq!(sim.now(), Time::from_ns(7));
        assert_eq!(sim.events_fired(), 4);
    }

    #[test]
    fn horizon_stops_run_and_clamps_now() {
        let mut hits = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        sim.schedule_at(Time::from_ns(5), |m: &mut u64, _| *m += 1)
            .unwrap();
        sim.schedule_at(Time::from_ns(10), |m: &mut u64, _| *m += 1)
            .unwrap();
        sim.schedule_at(Time::from_ns(50), |m: &mut u64, _| *m += 1)
            .unwrap();
        let status = sim.run_until(&mut hits, Time::from_ns(10));
        assert_eq!(status, SimStatus::HorizonReached);
        assert_eq!(hits, 2); // the event at exactly the horizon fires
        assert_eq!(sim.now(), Time::from_ns(10));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn event_budget_stops_run() {
        let mut hits = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        for i in 0..10 {
            sim.schedule_at(Time::from_ns(i), |m: &mut u64, _| *m += 1)
                .unwrap();
        }
        let status = sim.run_bounded(&mut hits, Time::MAX, 4);
        assert_eq!(status, SimStatus::EventBudgetExhausted);
        assert_eq!(hits, 4);
        assert_eq!(sim.pending(), 6);
    }

    #[test]
    fn scheduling_in_the_past_returns_a_typed_error() {
        let mut model = ();
        let mut sim: Sim<()> = Sim::new();
        sim.schedule_at(Time::from_ns(10), |_, _| {}).unwrap();
        sim.run(&mut model);
        let err = sim.schedule_at(Time::from_ns(5), |_, _| {}).unwrap_err();
        assert_eq!(
            err,
            ScheduleError {
                at: Time::from_ns(5),
                now: Time::from_ns(10)
            }
        );
        assert!(err.to_string().contains("past"), "{err}");
        // The rejected event was not queued; the run stays healthy.
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.run(&mut model), SimStatus::Drained);
    }

    #[test]
    fn rescheduling_after_a_bounded_run_lands_in_order() {
        // A horizon-bounded run leaves the queue holding only a far-future
        // event; scheduling near `now` afterwards must still fire first.
        let mut out: Vec<u64> = Vec::new();
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule_at(Time::from_ns(1_000_000), |m: &mut Vec<u64>, _| {
            m.push(1_000_000)
        })
        .unwrap();
        let status = sim.run_until(&mut out, Time::from_ns(100));
        assert_eq!(status, SimStatus::HorizonReached);
        sim.schedule_at(Time::from_ns(101), |m: &mut Vec<u64>, _| m.push(101))
            .unwrap();
        sim.schedule_at(Time::from_ns(500), |m: &mut Vec<u64>, _| m.push(500))
            .unwrap();
        assert_eq!(sim.run(&mut out), SimStatus::Drained);
        assert_eq!(out, [101, 500, 1_000_000]);
    }

    #[test]
    fn debug_is_nonempty() {
        let sim: Sim<()> = Sim::new();
        assert!(format!("{sim:?}").contains("Sim"));
    }

    /// An event chain that reschedules itself forever without advancing
    /// the progress counter: the watchdog must fire once `window` of
    /// simulated time passes without progress.
    #[test]
    fn watchdog_fires_on_progressless_churn() {
        fn churn(m: &mut u64, sim: &mut Sim<u64>) {
            let _ = m; // no progress
            sim.schedule_in(Dur::ns(10), churn);
        }
        let mut model = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        sim.schedule_at(Time::ZERO, churn).unwrap();
        let status = sim.run_watched(&mut model, Time::MAX, u64::MAX, Dur::ns(500), |m| *m);
        assert_eq!(status, SimStatus::Stalled);
        assert!(sim.now() >= Time::from_ns(500));
        assert!(sim.now() <= Time::from_ns(600), "fired promptly: {sim:?}");
    }

    #[test]
    fn watchdog_tolerates_progressing_churn() {
        fn work(m: &mut u64, sim: &mut Sim<u64>) {
            *m += 1;
            if *m < 200 {
                sim.schedule_in(Dur::ns(10), work);
            }
        }
        let mut model = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        sim.schedule_at(Time::ZERO, work).unwrap();
        let status = sim.run_watched(&mut model, Time::MAX, u64::MAX, Dur::ns(15), |m| *m);
        assert_eq!(status, SimStatus::Drained);
        assert_eq!(model, 200);
    }

    #[test]
    fn watchdog_tolerates_idle_gap_ending_in_progress() {
        // A long progress-free gap (one compute) ends with an event that
        // does advance the counter: no stall.
        let mut model = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        sim.schedule_at(Time::from_ns(10_000), |m: &mut u64, _| *m += 1)
            .unwrap();
        let status = sim.run_watched(&mut model, Time::MAX, u64::MAX, Dur::ns(100), |m| *m);
        assert_eq!(status, SimStatus::Drained);
    }

    #[test]
    fn watchdog_respects_horizon_and_budget() {
        let mut model = 0u64;
        let mut sim: Sim<u64> = Sim::new();
        for i in 0..10 {
            sim.schedule_at(Time::from_ns(i), |m: &mut u64, _| *m += 1)
                .unwrap();
        }
        let status = sim.run_watched(&mut model, Time::from_ns(4), u64::MAX, Dur::ns(100), |m| *m);
        assert_eq!(status, SimStatus::HorizonReached);
        let status = sim.run_watched(&mut model, Time::MAX, 2, Dur::ns(100), |m| *m);
        assert_eq!(status, SimStatus::EventBudgetExhausted);
    }
}
