//! The checkpoint bytes `nisim run --app em3d --nodes 4
//! --checkpoint-every 500 --checkpoint <path>` leaves on cm5 and
//! cni32qm, and `--app spsolve` leaves on cni32qm, pinned by length and
//! FNV-1a hash, so nothing moves them unseen. The two apps are the
//! snapshotable skeletons: em3d keeps no state of its own, spsolve its
//! DAG operand counts. They move on a format change (a key, a field's order, a
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
const PINNED_VERSION: u64 = 8;

/// One pinned checkpoint: app, NI, length in bytes and FNV-1a hash.
type Pin = (MacroApp, NiKind, usize, u64);

/// Every pinned checkpoint, for the profile this test was built in.
const PINNED: [Pin; 3] = if cfg!(debug_assertions) {
    [
        (MacroApp::Em3d, NiKind::Cm5, 10273, 0x1e6c_3c52_570a_842e),
        (
            MacroApp::Em3d,
            NiKind::Cni32Qm,
            67051,
            0x716a_452b_d224_2063,
        ),
        (
            MacroApp::Spsolve,
            NiKind::Cni32Qm,
            66110,
            0x76c4_c698_e85b_b265,
        ),
    ]
} else {
    [
        (MacroApp::Em3d, NiKind::Cm5, 10269, 0x2337_b5e1_ef21_3698),
        (
            MacroApp::Em3d,
            NiKind::Cni32Qm,
            67047,
            0x974e_db7f_d43b_209b,
        ),
        (
            MacroApp::Spsolve,
            NiKind::Cni32Qm,
            66106,
            0x8a1d_2bc1_255a_d1b5,
        ),
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
fn last_checkpoint(app: MacroApp, ni: NiKind) -> String {
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

/// Compares `app`'s pinned checkpoints with fresh ones.
fn assert_pinned(app: MacroApp) {
    let pinned: Vec<Pin> = PINNED.into_iter().filter(|p| p.0 == app).collect();
    let found: Vec<Pin> = (pinned.iter())
        .map(|&(app, ni, _, _)| {
            let text = last_checkpoint(app, ni);
            (app, ni, text.len(), fnv1a(text.as_bytes()))
        })
        .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let lines = |pins: &[Pin]| -> String {
        (pins.iter())
            .map(|(app, ni, len, hash)| {
                format!("\n    (MacroApp::{app:?}, NiKind::{ni:?}, {len}, {hash:#018x}),")
            })
            .collect()
    };
    assert!(
        found == pinned && SNAPSHOT_VERSION == PINNED_VERSION,
        "the {profile} checkpoints at version {SNAPSHOT_VERSION} differ from the pins of \
         version {PINNED_VERSION}.\n  found:{}\n  pinned:{}\n\
         A change of keys or shape is a format change and bumps SNAPSHOT_VERSION; a change \
         of behaviour alone keeps the format and its version. Either way pin the new lengths \
         and hashes for both profiles, with PINNED_VERSION set to SNAPSHOT_VERSION.",
        lines(&found),
        lines(&pinned)
    );
}

#[test]
fn em3d_checkpoints_keep_their_pinned_bytes() {
    assert_pinned(MacroApp::Em3d);
}

#[test]
fn spsolve_checkpoint_keeps_its_pinned_bytes() {
    assert_pinned(MacroApp::Spsolve);
}
