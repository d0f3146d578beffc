//! The determinism rules are clippy configuration (DESIGN §6.4). These
//! tests run clippy on `seeded/`, a package of its own holding one
//! violation per rule, and require each rule to report it. Clippy finds
//! its configuration by searching upward from the package, so this
//! checks the real root `clippy.toml`.

use std::path::Path;
use std::process::Command;

/// Asserts that clippy's `lint` reports the seeded line containing
/// `marker`. The tests share one target directory, so after the first
/// run cargo replays the cached diagnostics. The exit status is not
/// checked: under `RUSTFLAGS=-D warnings` the same diagnostics arrive
/// as errors.
fn assert_fires(lint: &str, marker: &str) {
    let seeded = Path::new(env!("CARGO_MANIFEST_DIR")).join("seeded/Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--quiet", "--offline", "--locked"])
        .args(["--message-format", "json", "--manifest-path"])
        .arg(seeded)
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-seeded"))
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo runs");
    let json = String::from_utf8_lossy(&out.stdout);
    // A clippy.toml path that names nothing only warns, leaving its rule off.
    assert!(!json.contains("does not refer to"), "{json}");
    let code = format!("\"code\":\"clippy::{lint}\"");
    assert!(
        json.lines()
            .any(|l| l.contains(&code) && l.contains(marker)),
        "clippy::{lint} did not report `{marker}` (is clippy installed?):\n{json}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Asserts that each named crate's `lib.rs` carries `attribute`.
fn assert_denied(attribute: &str, crates: &[&str]) {
    for name in crates {
        let lib = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../{name}/src/lib.rs"));
        let src = std::fs::read_to_string(&lib).expect("lib.rs reads");
        assert!(
            src.lines().any(|l| l == attribute),
            "{name} lacks {attribute}"
        );
    }
}

#[test]
fn hash_rule_fires() {
    assert_fires("disallowed_types", "std::collections::HashMap");
}

#[test]
fn wall_clock_rule_fires() {
    assert_fires("disallowed_methods", "std::time::Instant::now");
}

#[test]
fn panic_rule_fires() {
    let deny = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    assert_denied(deny, &["core", "engine"]);
    assert_fires("unwrap_used", "a.unwrap()");
    assert_fires("expect_used", "a.expect(");
    assert_fires("panic", "panic!(");
}

#[test]
fn wildcard_rule_fires() {
    assert_denied(
        "#![deny(clippy::wildcard_enum_match_arm)]",
        &["core", "mem"],
    );
    assert_fires(
        "wildcard_enum_match_arm",
        "Dispatch::Deposit | Dispatch::Drain",
    );
}

#[test]
fn fs_write_rule_fires() {
    assert_fires("disallowed_methods", "std::fs::write");
}

#[test]
fn float_transcendental_rule_fires() {
    assert_fires("disallowed_methods", "f64::ln");
}

#[test]
fn sync_rule_fires() {
    assert_fires("disallowed_types", "std::sync::Mutex");
}

#[test]
fn thread_spawn_rule_fires() {
    assert_fires("disallowed_methods", "std::thread::spawn");
}
