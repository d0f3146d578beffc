//! Differential property suite: the timing-wheel scheduler against a
//! reference `BinaryHeap` queue.
//!
//! The wheel ([`nisim_engine::wheel::TimerWheel`]) replaced the original
//! boxed-closure `BinaryHeap` scheduler, which lives on here as
//! [`BinaryHeapQueue`]: the executable definition of the ordering
//! contract. Its FIFO-at-equal-instants contract is what makes every run
//! byte-reproducible, so the two backends are driven here with seeded
//! randomized streams — mixed near/far horizons, same-instant bursts,
//! scheduling from within a firing event, and runs cut into bounded
//! slices — and must produce identical `(time, seq)` pop sequences,
//! identical event counts, and identical final clocks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nisim_engine::wheel::TimerWheel;
use nisim_engine::{Dur, Event, Sim, SimStatus, SplitMix64, Time};

/// The original binary-heap event queue: pops in ascending `(time, seq)`,
/// the contract [`TimerWheel`] must reproduce.
struct BinaryHeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

/// Heap adapter: min-order on `(at, seq)`, payload ignored.
struct HeapEntry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> BinaryHeapQueue<T> {
    fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, at: Time, seq: u64, item: T) {
        let at = at.as_ns();
        self.heap.push(HeapEntry { at, seq, item });
    }

    fn peek(&self) -> Option<(Time, u64)> {
        (self.heap.peek()).map(|e| (Time::from_ns(e.at), e.seq))
    }

    fn pop(&mut self) -> Option<(Time, u64, T)> {
        (self.heap.pop()).map(|e| (Time::from_ns(e.at), e.seq, e.item))
    }
}

/// Pops both queues in lockstep, asserting identical `(time, seq)`
/// sequences until both drain.
fn assert_queues_equal(wheel: &mut TimerWheel<u64>, heap: &mut BinaryHeapQueue<u64>, label: &str) {
    assert_eq!(wheel.len(), heap.len(), "{label}: length mismatch");
    let mut popped = 0u64;
    loop {
        let peeked = wheel.peek();
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(
            a.as_ref().map(|e| (e.0, e.1)),
            peeked,
            "{label}: wheel peek/pop disagree at pop {popped}"
        );
        assert_eq!(
            a.as_ref().map(|e| (e.0, e.1)),
            b.as_ref().map(|e| (e.0, e.1)),
            "{label}: backends diverged at pop {popped}"
        );
        if a.is_none() {
            break;
        }
        popped += 1;
    }
}

/// The width of the wheel's window in nanoseconds: an entry this far
/// ahead of the cursor, or more, waits in the heap.
const WINDOW: u64 = 8_192;

/// A delay drawn from the machine's characteristic horizons: mostly
/// bus/link-scale nanoseconds, some µs-scale ack timers, some within
/// 64 ns of the window's edge, occasionally far past it (heap), with
/// same-instant zeros mixed in.
fn mixed_delay(rng: &mut SplitMix64) -> u64 {
    match rng.gen_range(16) {
        0 => 0,                                   // same instant
        1..=2 => rng.gen_range(64_000) + 256,     // window or heap
        3 => rng.gen_range(16_000_000),           // mostly heap
        4 => 16_800_000 + rng.gen_range(1 << 34), // far heap
        5 => WINDOW - 64 + rng.gen_range(128),    // window edge
        _ => rng.gen_range(256),                  // near window
    }
}

#[test]
fn mixed_horizon_streams_pop_identically() {
    for case in 0..20u64 {
        let mut rng = SplitMix64::new(0x5EED + case);
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeapQueue::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        // Interleave pushes and pops so the wheel's cursor actually moves:
        // every pop advances `now`, and later pushes land relative to it.
        for _ in 0..600 {
            let burst = rng.gen_range(4) + 1;
            for _ in 0..burst {
                let at = now + mixed_delay(&mut rng);
                wheel.push(Time::from_ns(at), seq, seq);
                heap.push(Time::from_ns(at), seq, seq);
                seq += 1;
            }
            if rng.gen_range(3) == 0 {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(
                    a.as_ref().map(|e| (e.0, e.1)),
                    b.as_ref().map(|e| (e.0, e.1)),
                    "case {case}: diverged mid-stream"
                );
                if let Some((t, _, _)) = a {
                    now = t.as_ns();
                }
            }
        }
        assert_queues_equal(&mut wheel, &mut heap, &format!("case {case}"));
    }
}

/// A push into an empty queue starts the window at that push's instant,
/// so a later push can land before the cursor and go to the heap, which
/// must pop it ahead of the window's entries; a peek in between must
/// see it first and change nothing. Random push/pop/peek streams with
/// few pending entries empty the queue, and reach that path, often.
#[test]
fn pushes_in_front_of_a_peeked_window_pop_identically() {
    for case in 0..200u64 {
        let mut rng = SplitMix64::new(0xBEEF + case);
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeapQueue::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..300 {
            match rng.gen_range(5) {
                0 => assert_eq!(wheel.peek(), heap.peek(), "case {case}: peek diverged"),
                1 => {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(
                        a.as_ref().map(|e| (e.0, e.1)),
                        b.as_ref().map(|e| (e.0, e.1)),
                        "case {case}: pop diverged"
                    );
                    if let Some((t, _, _)) = a {
                        now = t.as_ns();
                    }
                }
                _ => {
                    let at = now + mixed_delay(&mut rng);
                    wheel.push(Time::from_ns(at), seq, seq);
                    heap.push(Time::from_ns(at), seq, seq);
                    seq += 1;
                }
            }
        }
        assert_queues_equal(&mut wheel, &mut heap, &format!("case {case}"));
    }
}

#[test]
fn same_instant_bursts_preserve_fifo_across_backends() {
    for case in 0..10u64 {
        let mut rng = SplitMix64::new(0xF1F0 + case);
        let mut wheel = TimerWheel::new();
        let mut heap = BinaryHeapQueue::new();
        // A handful of instants, each receiving a large interleaved burst.
        let instants: Vec<u64> = (0..8).map(|_| rng.gen_range(1 << 22)).collect();
        for seq in 0..400u64 {
            let at = instants[rng.gen_range(instants.len() as u64) as usize];
            wheel.push(Time::from_ns(at), seq, seq);
            heap.push(Time::from_ns(at), seq, seq);
        }
        assert_queues_equal(&mut wheel, &mut heap, &format!("case {case}"));
    }
}

#[test]
fn heap_queue_matches_wheel_on_a_mixed_stream() {
    let mut wheel = TimerWheel::new();
    let mut heap = BinaryHeapQueue::new();
    let mut x = 0x2545F4914F6CDD1Du64;
    for seq in 0..2_000u64 {
        // xorshift64*: cheap deterministic mixed-horizon stream.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let t = match seq % 4 {
            0 => x % 256,
            1 => x % 65_536,
            2 => x % (1 << 25),
            _ => 777, // same-instant burst
        };
        wheel.push(Time::from_ns(t), seq, seq);
        heap.push(Time::from_ns(t), seq, seq);
    }
    assert_queues_equal(&mut wheel, &mut heap, "mixed stream");
}

/// The Sim-level half of the differential: the same recursive workload
/// run through the typed-event wheel `Sim` and through a closure replay
/// over the reference heap must agree on fire order, count, and clock.
///
/// Each fired event re-schedules 0–2 successors (drawn from a seeded
/// RNG shared by construction), exercising schedule-from-within-fire on
/// the wheel's window, its edge and its heap.
struct EquivCtx {
    rng: SplitMix64,
    fired_log: Vec<(u64, u32)>,
    spawned: u64,
    cap: u64,
}

#[derive(Clone, Copy)]
struct Spawn {
    id: u32,
}

impl Event<EquivCtx> for Spawn {
    fn fire(self, m: &mut EquivCtx, sim: &mut Sim<EquivCtx, Spawn>) {
        m.fired_log.push((sim.now().as_ns(), self.id));
        let kids = m.rng.gen_range(4);
        for _ in 0..kids {
            if m.spawned >= m.cap {
                break;
            }
            let d = mixed_delay(&mut m.rng);
            let id = m.spawned as u32;
            m.spawned += 1;
            sim.schedule_event_in(Dur::ns(d), Spawn { id });
        }
    }
}

/// The workload's model and its wheel `Sim`, seeded with eight events.
fn typed_sim(seed: u64, cap: u64) -> (EquivCtx, Sim<EquivCtx, Spawn>) {
    let mut m = EquivCtx {
        rng: SplitMix64::new(seed),
        fired_log: Vec::new(),
        spawned: 0,
        cap,
    };
    let mut sim: Sim<EquivCtx, Spawn> = Sim::new();
    for _ in 0..8 {
        let id = m.spawned as u32;
        m.spawned += 1;
        sim.schedule_event_at(Time::from_ns(id as u64), Spawn { id })
            .unwrap();
    }
    (m, sim)
}

fn run_typed(seed: u64, cap: u64) -> (Vec<(u64, u32)>, u64, u64) {
    let (mut m, mut sim) = typed_sim(seed, cap);
    assert_eq!(sim.run(&mut m), SimStatus::Drained);
    (m.fired_log, sim.events_fired(), sim.now().as_ns())
}

/// The pre-wheel design: boxed closures over the reference heap. A
/// replay must make exactly the same RNG calls in exactly the same fire
/// order to reproduce the typed run.
type BoxedFire = Box<dyn FnOnce(&mut EquivCtx, &mut Replay)>;

struct Replay {
    now: u64,
    seq: u64,
    fired: u64,
    queue: BinaryHeapQueue<BoxedFire>,
}

impl Replay {
    fn schedule(&mut self, at: u64, f: impl FnOnce(&mut EquivCtx, &mut Replay) + 'static) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Time::from_ns(at), seq, Box::new(f));
    }

    /// `Sim::run_bounded` as documented, over the reference heap: fire
    /// events due at or before `horizon` until `budget` runs out; a next
    /// event past the horizon stops the clock at the horizon.
    fn run_bounded(&mut self, m: &mut EquivCtx, horizon: u64, budget: u64) -> SimStatus {
        let mut budget = budget;
        loop {
            match self.queue.peek() {
                None => return SimStatus::Drained,
                Some((at, _)) if at.as_ns() > horizon => {
                    self.now = horizon;
                    return SimStatus::HorizonReached;
                }
                Some(_) if budget == 0 => return SimStatus::EventBudgetExhausted,
                Some(_) => {}
            }
            budget -= 1;
            let (at, _, f) = self.queue.pop().unwrap();
            self.now = at.as_ns();
            self.fired += 1;
            f(m, self);
        }
    }
}

fn spawn(id: u32) -> impl FnOnce(&mut EquivCtx, &mut Replay) {
    move |m, sim| {
        m.fired_log.push((sim.now, id));
        let kids = m.rng.gen_range(4);
        for _ in 0..kids {
            if m.spawned >= m.cap {
                break;
            }
            let d = mixed_delay(&mut m.rng);
            let id = m.spawned as u32;
            m.spawned += 1;
            let at = sim.now + d;
            sim.schedule(at, spawn(id));
        }
    }
}

/// The workload's model and its reference replay, seeded as
/// [`typed_sim`] seeds the wheel.
fn closure_replay(seed: u64, cap: u64) -> (EquivCtx, Replay) {
    let mut m = EquivCtx {
        rng: SplitMix64::new(seed),
        fired_log: Vec::new(),
        spawned: 0,
        cap,
    };
    let mut sim = Replay {
        now: 0,
        seq: 0,
        fired: 0,
        queue: BinaryHeapQueue::new(),
    };
    for _ in 0..8 {
        let id = m.spawned as u32;
        m.spawned += 1;
        sim.schedule(id as u64, spawn(id));
    }
    (m, sim)
}

fn run_closure_replay(seed: u64, cap: u64) -> (Vec<(u64, u32)>, u64, u64) {
    let (mut m, mut sim) = closure_replay(seed, cap);
    assert_eq!(
        sim.run_bounded(&mut m, u64::MAX, u64::MAX),
        SimStatus::Drained
    );
    (m.fired_log, sim.fired, sim.now)
}

#[test]
fn sim_runs_match_a_closure_replay_over_the_reference_heap() {
    for case in 0..8u64 {
        let seed = 0xD1FF + case;
        let (log_a, fired_a, now_a) = run_typed(seed, 3_000);
        let (log_b, fired_b, now_b) = run_closure_replay(seed, 3_000);
        assert_eq!(fired_a, fired_b, "case {case}: events_fired diverged");
        assert_eq!(now_a, now_b, "case {case}: final clock diverged");
        assert_eq!(log_a, log_b, "case {case}: fire order diverged");
        assert!(
            fired_a >= 3_000,
            "case {case}: workload too small to mean much"
        );
    }
}

/// About 16.8 ms, thousands of windows: a horizon this far past an
/// event's instant lets one slice pop far entries from the heap and
/// carry the cursor across many windows.
const LEVEL2_SPAN: u64 = 1 << 24;

/// A slice horizon, given the instants still to fire (`ahead`, from a
/// one-shot run) and the clock: exactly on an event's instant, strictly
/// between two instants, within 64 ns of a window's width past an
/// instant, far past it, or before the next event.
fn slice_horizon(rng: &mut SplitMix64, ahead: &[(u64, u32)], now: u64) -> u64 {
    let Some(&(next, _)) = ahead.first() else {
        return now;
    };
    let r = rng.gen_range(ahead.len().min(16) as u64) as usize;
    let on = ahead[r].0;
    match rng.gen_range(5) {
        0 => on,
        1 => match ahead.get(r + 1) {
            Some(&(after, _)) if after > on + 1 => on + 1 + rng.gen_range(after - on - 1),
            _ => on + 1,
        },
        2 => on + LEVEL2_SPAN + rng.gen_range(LEVEL2_SPAN),
        3 => on + WINDOW - 64 + rng.gen_range(128),
        _ if next > now => now + rng.gen_range(next - now),
        _ => on,
    }
}

/// A slice event budget: none, a few, a few dozen, or unlimited.
fn slice_budget(rng: &mut SplitMix64) -> u64 {
    match rng.gen_range(4) {
        0 => 0,
        1 => rng.gen_range(4) + 1,
        2 => rng.gen_range(64),
        _ => u64::MAX,
    }
}

/// The workload cut into a chain of `run_bounded` slices must fire
/// exactly what one `Sim::run` fires, and every slice must end with the
/// status, event count and clock of the reference heap's replay of the
/// same slice. Between slices the wheel keeps its cursor where the last
/// pop left it, and entries split between its window and its heap, so
/// the next slice resumes from there.
#[test]
fn sliced_runs_match_one_run_and_the_reference_heap() {
    for case in 0..6u64 {
        let seed = 0x511C + case;
        let (log, fired, now) = run_typed(seed, 3_000);
        let (mut m, mut sim) = typed_sim(seed, 3_000);
        let (mut rm, mut replay) = closure_replay(seed, 3_000);
        let mut plan = SplitMix64::new(seed ^ 0xA5A5);
        // Slices that stopped at the horizon, on the budget, or had none.
        let (mut at_horizon, mut on_budget, mut zero_budget) = (0, 0, 0);
        for slice in 0.. {
            assert!(slice < 100_000, "case {case}: slices never drained");
            let ahead = log.get(sim.events_fired() as usize..).unwrap_or(&[]);
            let horizon = slice_horizon(&mut plan, ahead, sim.now().as_ns());
            let budget = slice_budget(&mut plan);
            let status = sim.run_bounded(&mut m, Time::from_ns(horizon), budget);
            let label = format!("case {case} slice {slice} (horizon {horizon}, budget {budget})");
            assert_eq!(
                status,
                replay.run_bounded(&mut rm, horizon, budget),
                "{label}"
            );
            assert_eq!(sim.events_fired(), replay.fired, "{label}: events_fired");
            assert_eq!(sim.now().as_ns(), replay.now, "{label}: clock");
            match status {
                SimStatus::Drained => break,
                SimStatus::HorizonReached => at_horizon += 1,
                SimStatus::EventBudgetExhausted => on_budget += 1,
                SimStatus::Stalled => panic!("{label}: no watchdog here"),
            }
            zero_budget += u32::from(budget == 0);
        }
        assert_eq!(m.fired_log, log, "case {case}: fire order diverged");
        assert_eq!(rm.fired_log, log, "case {case}: replay fire order diverged");
        assert_eq!(
            sim.events_fired(),
            fired,
            "case {case}: events_fired diverged"
        );
        assert_eq!(sim.now().as_ns(), now, "case {case}: final clock diverged");
        assert!(
            at_horizon > 0 && on_budget > 0 && zero_budget > 0,
            "case {case}: a slice kind never came up: \
             {at_horizon} at the horizon, {on_budget} on the budget, {zero_budget} with none"
        );
    }
}
