//! The checkpoint bytes `nisim run --app em3d --nodes 4
//! --checkpoint-every 500 --checkpoint <path>` leaves on cm5 and
//! cni32qm, pinned by length and FNV-1a hash, so nothing moves them
//! unseen. They move on a format change (a key, a field's order, a
//! value's shape), which also bumps `SNAPSHOT_VERSION`, and on a change
//! of behaviour alone (NI timing, a workload, random draws), which keeps
//! the format and its version. The test cannot tell the two apart: it
//! fails until the pins are taken again, and the pins carry the version
//! they were taken at, so each re-pin states which format it holds.
//! Debug and release builds pin different bytes, because the cache's
//! visit bitmap is kept in debug builds only.

use nisim_core::snapshot::{save, SNAPSHOT_VERSION};
use nisim_core::{Machine, MachineConfig, MachineSim, NiKind, RUN_HORIZON, RUN_MAX_EVENTS};
use nisim_engine::SimStatus;
use nisim_workloads::apps::{factory, MacroApp};

/// The `SNAPSHOT_VERSION` the pins below were taken at.
const PINNED_VERSION: u64 = 7;

/// `(NI, length in bytes, FNV-1a hash)` of each pinned checkpoint, for
/// the profile this test was built in.
const PINNED: [(NiKind, usize, u64); 2] = if cfg!(debug_assertions) {
    [
        (NiKind::Cm5, 10269, 0x8d89_4b59_2286_9c8f),
        (NiKind::Cni32Qm, 67047, 0x5ff5_548c_f993_e31a),
    ]
} else {
    [
        (NiKind::Cm5, 10265, 0x016c_2c7c_b979_9db5),
        (NiKind::Cni32Qm, 67043, 0x073d_d557_96b7_b036),
    ]
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The file the CLI's `run` leaves: the run sliced every 500 events,
/// the snapshot after each full slice written over the last, as compact
/// JSON and a newline.
fn last_checkpoint(ni: NiKind) -> String {
    let mut cfg = MachineConfig::with_ni(ni);
    cfg.nodes = 4;
    let app = MacroApp::Em3d;
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

#[test]
fn em3d_checkpoints_keep_their_pinned_bytes() {
    let found: Vec<(NiKind, usize, u64)> = (PINNED.iter())
        .map(|&(ni, _, _)| {
            let text = last_checkpoint(ni);
            (ni, text.len(), fnv1a(text.as_bytes()))
        })
        .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let lines = |pins: &[(NiKind, usize, u64)]| -> String {
        (pins.iter())
            .map(|(ni, len, hash)| format!("\n    (NiKind::{ni:?}, {len}, {hash:#018x}),"))
            .collect()
    };
    assert!(
        found == PINNED && SNAPSHOT_VERSION == PINNED_VERSION,
        "the {profile} checkpoints at version {SNAPSHOT_VERSION} differ from the pins of \
         version {PINNED_VERSION}.\n  found:{}\n  pinned:{}\n\
         A change of keys or shape is a format change and bumps SNAPSHOT_VERSION; a change \
         of behaviour alone keeps the format and its version. Either way pin the new lengths \
         and hashes for both profiles, with PINNED_VERSION set to SNAPSHOT_VERSION.",
        lines(&found),
        lines(&PINNED)
    );
}
