//! Integration test support crate for nisim (tests live in `tests/tests`).

use nisim_core::snapshot::save;
use nisim_core::{Machine, MachineConfig, MachineSim, NiKind, RUN_HORIZON, RUN_MAX_EVENTS};
use nisim_engine::SimStatus;
use nisim_workloads::apps::{factory, MacroApp};

/// The file `nisim run --app <app> --ni <ni> --nodes 4
/// --checkpoint-every 500 --checkpoint <path>` leaves: the run sliced
/// every 500 events, the snapshot after each full slice written over the
/// last, as compact JSON and a newline.
pub fn cli_checkpoint(app: MacroApp, ni: NiKind) -> String {
    let mut cfg = MachineConfig::with_ni(ni);
    cfg.nodes = 4;
    let mut m = Machine::new(
        cfg.clone(),
        factory(app, cfg.nodes, cfg.seed, app.default_params()),
    );
    let mut sim = MachineSim::new();
    m.start(&mut sim);
    let mut last = None;
    loop {
        let status = m.run_slice(&mut sim, RUN_HORIZON, 500);
        if status != SimStatus::EventBudgetExhausted || sim.events_fired() >= RUN_MAX_EVENTS {
            break;
        }
        last = Some(save(&m, &mut sim).expect("snapshot"));
    }
    let mut text = last.expect("the run outlasts one slice").to_compact();
    text.push('\n');
    text
}

/// The property tests' generator: a hand-rolled LCG, since the build is
/// offline (no proptest) — deterministic, so failures reproduce exactly.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next 64-bit state.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// A value in `0..n` (0 when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A finite, sign-varied f64 with both integral and fractional cases.
    pub fn float(&mut self) -> f64 {
        let numer = self.below(1 << 53) as f64;
        let denom = (self.below(1000) + 1) as f64;
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * numer / denom
    }
}
