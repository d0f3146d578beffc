//! One seeded violation of each determinism rule. The workspace never
//! builds this package: `crates/analysis/tests/clippy_rules.rs` runs
//! clippy on it and requires every rule to report its violation.

// The lints nisim-core, nisim-engine and nisim-mem deny, at `warn` so a
// single run reports every rule.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::wildcard_enum_match_arm)]

use std::collections::HashMap;
use std::sync::Mutex;

pub enum Dispatch {
    Send,
    Deposit,
    Drain,
}

pub fn hash_sync_float(m: &HashMap<u32, f64>, lock: &Mutex<f64>) -> f64 {
    m.len() as f64 + lock.try_lock().map_or(0.0, |x| x.ln())
}

pub fn clock_fs_thread() {
    let _ = std::time::Instant::now();
    let _ = std::fs::write("seeded.txt", b"state");
    std::thread::spawn(|| {});
}

pub fn panic_wildcard(d: Dispatch, a: Option<u32>) -> u32 {
    match d {
        Dispatch::Send => a.unwrap(),
        _ if a.is_none() => panic!("seeded"),
        _ => a.expect("seeded"),
    }
}
