//! Property tests for the checkpointing primitives the snapshot
//! subsystem is built on: draining and rebuilding the timing-wheel
//! scheduler must be invisible to the simulation (pop order, same-instant
//! FIFO, far events in the wheel's heap, sequence continuity), RNG
//! streams must resume mid-stream from a captured state, and the metrics
//! containers must survive their JSON codecs exactly.
//!
//! The container is offline (no proptest), so the generator is a small
//! hand-rolled LCG — deterministic, so failures reproduce exactly.

use nisim_engine::codec::Codec;
use nisim_engine::metrics::{Component, ComponentCycles, Log2Hist};
use nisim_engine::{json, Event, Sim, SimStatus, SplitMix64, Time};

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The test model: an append-only log of `(fire_time_ns, tag)` plus a
/// deterministic RNG that event handlers draw follow-up delays from.
/// The model is carried across the checkpoint cut unchanged — only the
/// scheduler is torn down and rebuilt — so any log divergence is a
/// scheduler-restore bug.
struct ChainModel {
    log: Vec<(u64, u64)>,
    rng: SplitMix64,
}

/// An event that logs itself and (while `depth` remains) schedules a
/// successor a small random delay ahead — zero included, so restored
/// runs must also reproduce same-instant FIFO interleavings.
#[derive(Clone, Copy, Debug)]
struct Chain {
    tag: u64,
    depth: u32,
}

impl Event<ChainModel> for Chain {
    fn fire(self, model: &mut ChainModel, sim: &mut Sim<ChainModel, Self>) {
        model.log.push((sim.now().as_ns(), self.tag));
        if self.depth > 0 {
            let delay = model.rng.gen_range(50);
            let next = Chain {
                tag: self.tag.wrapping_mul(31).wrapping_add(1),
                depth: self.depth - 1,
            };
            sim.schedule_event_at(Time::from_ns(sim.now().as_ns() + delay), next)
                .unwrap();
        }
    }
}

/// Seeds one randomized workload: a few chains starting near t=0, some
/// same-instant collisions, and a handful of far-future events that land
/// in the wheel's overflow list rather than its near levels.
fn seed_workload(sim: &mut Sim<ChainModel, Chain>, rng: &mut Lcg) {
    for i in 0..(2 + rng.below(4)) {
        let t = rng.below(30);
        let depth = 10 + rng.below(30) as u32;
        sim.schedule_event_at(
            Time::from_ns(t),
            Chain {
                tag: 1000 + i,
                depth,
            },
        )
        .unwrap();
    }
    // Deliberate same-instant collisions: FIFO order among these is part
    // of the contract.
    let t = rng.below(20);
    for i in 0..3 {
        sim.schedule_event_at(
            Time::from_ns(t),
            Chain {
                tag: 2000 + i,
                depth: 0,
            },
        )
        .unwrap();
    }
    // Far-future events: these wait in the wheel's heap, so a
    // cut-and-rebuild puts entries on both sides of the window's edge.
    for i in 0..(1 + rng.below(3)) {
        let t = 1_000_000_000 + rng.below(1_000_000_000);
        sim.schedule_event_at(
            Time::from_ns(t),
            Chain {
                tag: 3000 + i,
                depth: 2,
            },
        )
        .unwrap();
    }
}

fn fresh(seed: u64, rng: &mut Lcg) -> (ChainModel, Sim<ChainModel, Chain>) {
    let model = ChainModel {
        log: Vec::new(),
        rng: SplitMix64::new(seed),
    };
    let mut sim: Sim<ChainModel, Chain> = Sim::new();
    seed_workload(&mut sim, rng);
    (model, sim)
}

/// Cutting a run at any event count — draining the wheel and rebuilding
/// it with [`Sim::from_parts`] — must leave the completed run's log,
/// clock, and counters byte-identical to the uninterrupted run's.
#[test]
fn drain_and_from_parts_are_invisible_at_any_cut() {
    let mut rng = Lcg(0x5eed_2001);
    for case in 0..40 {
        let seed = rng.next();
        let seeder = Lcg(rng.next());
        let (mut gold_model, mut gold_sim) = fresh(seed, &mut seeder.clone_state());
        assert_eq!(gold_sim.run(&mut gold_model), SimStatus::Drained);

        let total = gold_sim.events_fired();
        assert!(total > 10, "case {case}: workload too small ({total})");
        let cut = 1 + rng.below(total - 1);

        let (mut model, mut sim) = fresh(seed, &mut seeder.clone_state());
        let status = sim.run_bounded(&mut model, Time::MAX, cut);
        assert_eq!(status, SimStatus::EventBudgetExhausted, "case {case}");

        // The cut: tear the scheduler down to parts and rebuild it.
        let (now, seq, fired) = (sim.now(), sim.next_seq(), sim.events_fired());
        let entries = sim.drain_entries();
        for w in entries.windows(2) {
            assert!(
                (w[0].0, w[0].1) < (w[1].0, w[1].1),
                "case {case}: drain order not canonical"
            );
        }
        drop(sim);
        let mut resumed: Sim<ChainModel, Chain> = Sim::from_parts(now, seq, fired, entries);

        assert_eq!(resumed.run(&mut model), SimStatus::Drained, "case {case}");
        assert_eq!(
            model.log, gold_model.log,
            "case {case}: cut at {cut}/{total}"
        );
        assert_eq!(resumed.now(), gold_sim.now(), "case {case}: clock");
        assert_eq!(
            resumed.events_fired(),
            gold_sim.events_fired(),
            "case {case}"
        );
        assert_eq!(resumed.next_seq(), gold_sim.next_seq(), "case {case}: seq");
    }
}

impl Lcg {
    /// An independent copy at the current position, so the golden and the
    /// cut run can seed identical workloads.
    fn clone_state(&self) -> Lcg {
        Lcg(self.0)
    }
}

/// Events scheduled *after* a rebuild must queue behind restored events
/// at the same instant: the restored sequence counter keeps FIFO order
/// seamless across the boundary.
#[test]
fn post_restore_events_queue_behind_restored_same_instant_ones() {
    let mut model = ChainModel {
        log: Vec::new(),
        rng: SplitMix64::new(7),
    };
    let mut sim: Sim<ChainModel, Chain> = Sim::new();
    let t = Time::from_ns(100);
    for i in 0..4 {
        sim.schedule_event_at(t, Chain { tag: i, depth: 0 })
            .unwrap();
    }
    let (now, seq, fired) = (sim.now(), sim.next_seq(), sim.events_fired());
    let entries = sim.drain_entries();
    let mut resumed: Sim<ChainModel, Chain> = Sim::from_parts(now, seq, fired, entries);
    resumed
        .schedule_event_at(t, Chain { tag: 99, depth: 0 })
        .unwrap();
    assert_eq!(resumed.run(&mut model), SimStatus::Drained);
    let tags: Vec<u64> = model.log.iter().map(|&(_, tag)| tag).collect();
    assert_eq!(tags, [0, 1, 2, 3, 99], "restored events keep their place");
}

/// A captured RNG state resumes the exact stream, from any position, for
/// both the raw and the bounded draw APIs.
#[test]
fn rng_stream_resumes_from_captured_state() {
    let mut rng = Lcg(0x5eed_2002);
    for case in 0..100 {
        let mut stream = SplitMix64::new(rng.next());
        for _ in 0..rng.below(100) {
            stream.next_u64();
        }
        let state = stream.state();
        let mut resumed = SplitMix64::from_state(state);
        for i in 0..20 {
            assert_eq!(stream.next_u64(), resumed.next_u64(), "case {case}@{i}");
        }
        let bound = 1 + rng.below(1000);
        for i in 0..20 {
            assert_eq!(
                stream.gen_range(bound),
                resumed.gen_range(bound),
                "case {case}@{i}: bounded draws"
            );
        }
        assert_eq!(stream.state(), resumed.state(), "case {case}: final state");
    }
}

/// Histograms survive serialise → print → parse → deserialise exactly —
/// the round trip a checkpoint file actually performs.
#[test]
fn log2_hist_round_trips_through_its_json_codec() {
    let mut rng = Lcg(0x5eed_2003);
    for case in 0..100 {
        let mut h = Log2Hist::new();
        for _ in 0..rng.below(300) {
            // Spread across the whole log range, zeros included.
            let v = match rng.below(4) {
                0 => 0,
                1 => rng.below(16),
                _ => rng.next() >> rng.below(60),
            };
            h.record(v);
        }
        let text = h.encode().to_compact();
        let back = Log2Hist::decode(&json::parse(&text).unwrap()).ok();
        assert_eq!(back, Some(h), "case {case}");
    }
}

/// Component cycle counters survive the same file round trip.
#[test]
fn component_cycles_round_trip_through_their_json_codec() {
    let mut rng = Lcg(0x5eed_2004);
    for case in 0..100 {
        let mut c = ComponentCycles::new();
        for _ in 0..rng.below(80) {
            let comp = Component::ALL[rng.below(Component::ALL.len() as u64) as usize];
            c.charge(comp, nisim_engine::Dur::ns(rng.next() >> 24));
        }
        let text = c.encode().to_compact();
        let back = ComponentCycles::decode(&json::parse(&text).unwrap()).ok();
        assert_eq!(back, Some(c), "case {case}");
    }
}
