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

use nisim_core::snapshot::SNAPSHOT_VERSION;
use nisim_core::NiKind;
use nisim_integration::cli_checkpoint;
use nisim_workloads::apps::MacroApp;

/// The `SNAPSHOT_VERSION` the pins below were taken at.
const PINNED_VERSION: u64 = 9;

/// One pinned checkpoint: app, NI, length in bytes and FNV-1a hash.
type Pin = (MacroApp, NiKind, usize, u64);

/// Every pinned checkpoint, for the profile this test was built in.
const PINNED: [Pin; 3] = if cfg!(debug_assertions) {
    [
        (MacroApp::Em3d, NiKind::Cm5, 10273, 0xbe6b_7c30_e521_6487),
        (
            MacroApp::Em3d,
            NiKind::Cni32Qm,
            45951,
            0x7dbf_92bb_91db_3dd9,
        ),
        (
            MacroApp::Spsolve,
            NiKind::Cni32Qm,
            63230,
            0x3fae_f869_63dd_0af6,
        ),
    ]
} else {
    [
        (MacroApp::Em3d, NiKind::Cm5, 10269, 0x1d06_7198_bb2d_a5e5),
        (
            MacroApp::Em3d,
            NiKind::Cni32Qm,
            45947,
            0x4ec4_9474_828d_5531,
        ),
        (
            MacroApp::Spsolve,
            NiKind::Cni32Qm,
            63226,
            0x7727_cf18_299d_820a,
        ),
    ]
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares `app`'s pinned checkpoints with fresh ones.
fn assert_pinned(app: MacroApp) {
    let pinned: Vec<Pin> = PINNED.into_iter().filter(|p| p.0 == app).collect();
    let found: Vec<Pin> = (pinned.iter())
        .map(|&(app, ni, _, _)| {
            let text = cli_checkpoint(app, ni);
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
