//! Randomised property tests of the simulator's end-to-end protocol
//! invariants: message conservation, quiescence, accounting completeness
//! and determinism under arbitrary traffic patterns. Plans are generated
//! with the engine's seedable PRNG for exact reproducibility.

use nisim_core::process::{Action, Process, Script, SendSpec};
use nisim_core::{Machine, MachineConfig, MachineReport, NiKind};
use nisim_engine::{Dur, SimStatus, SplitMix64, Time};
use nisim_net::{BufferCount, FaultConfig, NodeId, ReliabilityConfig};

/// One random traffic plan: per node, a list of (dst offset, payload).
#[derive(Clone, Debug)]
struct Plan {
    nodes: u32,
    sends: Vec<Vec<(u32, u64)>>,
}

fn random_plan(rng: &mut SplitMix64) -> Plan {
    let nodes = 2 + rng.gen_range(4) as u32;
    let sends = (0..nodes)
        .map(|_| {
            let n = rng.gen_range(12) as usize;
            (0..n)
                .map(|_| {
                    (
                        1 + rng.gen_range((nodes - 1) as u64) as u32,
                        rng.gen_range(600),
                    )
                })
                .collect()
        })
        .collect();
    Plan { nodes, sends }
}

const BUFFERINGS: [BufferCount; 4] = [
    BufferCount::Finite(1),
    BufferCount::Finite(2),
    BufferCount::Finite(8),
    BufferCount::Infinite,
];

fn random_ni(rng: &mut SplitMix64) -> NiKind {
    NiKind::ALL[rng.gen_range(NiKind::ALL.len() as u64) as usize]
}

fn random_buffers(rng: &mut SplitMix64) -> BufferCount {
    BUFFERINGS[rng.gen_range(BUFFERINGS.len() as u64) as usize]
}

fn run_plan(plan: &Plan, ni: NiKind, buffers: BufferCount) -> MachineReport {
    let (fault, rel) = (FaultConfig::default(), ReliabilityConfig::default());
    run_plan_faulty(plan, ni, buffers, fault, rel)
}

/// Every sent message is delivered exactly once, on every NI design,
/// at every buffering level, and the machine reaches quiescence.
#[test]
fn messages_are_conserved() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xC0A5E0 + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let b = random_buffers(&mut rng);
        let total_sends: u64 = plan.sends.iter().map(|s| s.len() as u64).sum();
        let report = run_plan(&plan, ni, b);
        assert_eq!(report.status, SimStatus::Drained, "case {case} on {ni}");
        assert!(report.all_quiescent, "not quiescent on {ni} (case {case})");
        assert_eq!(report.app_messages, total_sends, "case {case} on {ni}");
    }
}

/// Per-node accounting is complete: the category durations sum to the
/// span the ledger covers (no holes, no double counting).
#[test]
fn accounting_is_complete() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xACC0 + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let report = run_plan(&plan, ni, BufferCount::Finite(2));
        for ledger in &report.ledgers {
            assert_eq!(
                ledger.total(),
                ledger.stamp() - Time::ZERO,
                "case {case} on {ni}"
            );
        }
    }
}

/// The simulation is deterministic: identical inputs give identical
/// timing and traffic, bit for bit.
#[test]
fn runs_are_deterministic() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xDE7E12 + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let b = random_buffers(&mut rng);
        let a = run_plan(&plan, ni, b);
        let c = run_plan(&plan, ni, b);
        assert_eq!(a.elapsed, c.elapsed, "case {case} on {ni}");
        assert_eq!(a.bus_transactions, c.bus_transactions, "case {case}");
        assert_eq!(a.retries, c.retries, "case {case}");
        assert_eq!(a.mem_reads, c.mem_reads, "case {case}");
    }
}

/// Infinite buffering never stalls, rejects, or retries.
#[test]
fn infinite_buffers_are_frictionless() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x1F1F + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let report = run_plan(&plan, ni, BufferCount::Infinite);
        assert_eq!(report.send_stalls, 0, "case {case} on {ni}");
        assert_eq!(report.recv_rejects, 0, "case {case} on {ni}");
        assert_eq!(report.retries, 0, "case {case} on {ni}");
    }
}

/// A random drop/duplicate/corrupt/jitter schedule for the fault layer.
fn random_fault(rng: &mut SplitMix64) -> FaultConfig {
    FaultConfig {
        drop_p: 0.3 * rng.gen_f64(),
        dup_p: 0.3 * rng.gen_f64(),
        corrupt_p: 0.2 * rng.gen_f64(),
        jitter_max: Dur::ns(rng.gen_range(80)),
        seed: rng.next_u64(),
        ..FaultConfig::default()
    }
}

fn run_plan_faulty(
    plan: &Plan,
    ni: NiKind,
    buffers: BufferCount,
    fault: FaultConfig,
    rel: ReliabilityConfig,
) -> MachineReport {
    let cfg = MachineConfig::with_ni(ni)
        .nodes(plan.nodes)
        .flow_buffers(buffers)
        .fault(fault)
        .reliability(rel);
    // Each node plays its sends back to back; each arrival runs a 30 ns
    // handler.
    Machine::run(cfg, |id| -> Box<dyn Process> {
        let program: Vec<Action> = plan.sends[id.index()]
            .iter()
            .map(|&(off, payload)| {
                let dst = NodeId((id.0 + off) % plan.nodes);
                Action::Send(SendSpec::new(dst, payload, 0))
            })
            .collect();
        Box::new(Script::new(program, Dur::ns(30)))
    })
}

/// Exactly-once delivery under ANY drop/duplicate/corrupt/jitter fault
/// schedule: with the reliability layer on, every sent message is
/// delivered exactly once (retransmission recovers drops, receiver
/// dedup suppresses duplicates), the run drains to quiescence, and the
/// typed error channel stays clean.
#[test]
fn exactly_once_under_random_fault_schedules() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xFA5731 + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let b = random_buffers(&mut rng);
        let fault = random_fault(&mut rng);
        let total_sends: u64 = plan.sends.iter().map(|s| s.len() as u64).sum();
        let report = run_plan_faulty(&plan, ni, b, fault.clone(), ReliabilityConfig::on());
        assert_eq!(
            report.status,
            SimStatus::Drained,
            "case {case} on {ni} with {fault:?}"
        );
        assert!(report.all_quiescent, "case {case} on {ni} with {fault:?}");
        assert_eq!(
            report.app_messages, total_sends,
            "case {case} on {ni} with {fault:?}: lost or duplicated messages"
        );
        assert!(
            report.violations.is_empty(),
            "case {case} on {ni}: {:?}",
            report.violations
        );
    }
}

/// A fixed fault seed reproduces the exact same faulty run, bit for bit.
#[test]
fn faulty_runs_are_deterministic() {
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0xFADE7E + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let fault = random_fault(&mut rng);
        let run = || {
            run_plan_faulty(
                &plan,
                ni,
                BufferCount::Finite(2),
                fault.clone(),
                ReliabilityConfig::on(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed, b.elapsed, "case {case} on {ni}");
        assert_eq!(a.fault_stats, b.fault_stats, "case {case} on {ni}");
        assert_eq!(a.rel_stats, b.rel_stats, "case {case} on {ni}");
        assert_eq!(a.app_messages, b.app_messages, "case {case} on {ni}");
    }
}

/// The watchdog fires on a wedged endpoint instead of hanging or lying:
/// when every fragment vanishes and the retry cap runs out, the run is
/// reported `Stalled` with a diagnostic snapshot naming the wedged
/// sender.
#[test]
fn watchdog_reports_wedged_endpoints() {
    let mut rng = SplitMix64::new(0x57A11);
    let plan = random_plan(&mut rng);
    let total_sends: u64 = plan.sends.iter().map(|s| s.len() as u64).sum();
    if total_sends == 0 {
        panic!("seed must generate traffic");
    }
    let fault = FaultConfig {
        drop_p: 1.0,
        ..FaultConfig::default()
    };
    let rel = ReliabilityConfig {
        enabled: true,
        max_retries: 2,
        ..ReliabilityConfig::default()
    };
    let report = run_plan_faulty(&plan, NiKind::Cm5, BufferCount::Finite(8), fault, rel);
    assert_eq!(report.status, SimStatus::Stalled);
    assert!(!report.all_quiescent);
    assert_eq!(report.app_messages, 0, "nothing can get through");
    assert!(report.rel_stats.gave_up > 0);
    let stall = report.stall.expect("stall report must be attached");
    assert!(
        stall.wedged_endpoints().next().is_some(),
        "the dump must name at least one wedged endpoint:\n{stall}"
    );
    assert!(
        !stall.violations.is_empty(),
        "retry-cap violations recorded"
    );
}

/// Tighter buffering never delivers fewer messages (reliability is
/// independent of buffer count) and never changes how much traffic the
/// application offers.
#[test]
fn reliability_is_buffer_independent() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xB0FF + case);
        let plan = random_plan(&mut rng);
        let ni = random_ni(&mut rng);
        let tight = run_plan(&plan, ni, BufferCount::Finite(1));
        let loose = run_plan(&plan, ni, BufferCount::Infinite);
        assert_eq!(
            tight.app_messages, loose.app_messages,
            "case {case} on {ni}"
        );
        assert_eq!(
            tight.fragments_sent, loose.fragments_sent,
            "case {case} on {ni}"
        );
    }
}
