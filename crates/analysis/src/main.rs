//! `nisim-analysis` command line: model check, lint, and the seeded
//! mutant self-test. Exit status is nonzero on any finding, so CI can
//! gate on it directly.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nisim_analysis::moesi_check::MoesiChecker;
use nisim_analysis::{lint, protocol_check};

/// The repository root, resolved from this crate's manifest directory
/// so the binary works from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analysis sits two levels below the repo root")
        .to_path_buf()
}

fn run_check() -> bool {
    let moesi = MoesiChecker::new().check();
    println!(
        "model check: MOESI cross-product + bus search: {} states, {} transitions",
        moesi.states, moesi.transitions
    );
    let proto = protocol_check::check();
    println!(
        "model check: reliability x flow-control: {} states, {} transitions",
        proto.states, proto.transitions
    );
    let mut ok = true;
    for v in moesi.violations.iter().chain(&proto.violations) {
        println!("VIOLATION: {v}");
        ok = false;
    }
    if ok {
        println!("model check: all invariants hold");
    }
    ok
}

fn run_lint() -> bool {
    let root = repo_root();
    let allow_path = root.join("crates/analysis/lint-allow.txt");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => lint::parse_allowlist(&text),
        Err(_) => Default::default(),
    };
    let out = lint::lint_tree(&root, &allow);
    println!(
        "lint: {} files, {} findings, {} stale allowlist entries",
        out.files,
        out.findings.len(),
        out.stale_allows.len()
    );
    for f in &out.findings {
        println!("FINDING: {f}");
    }
    for s in &out.stale_allows {
        println!("STALE ALLOWLIST ENTRY: {s} (remove it from lint-allow.txt)");
    }
    out.is_clean()
}

/// Regenerates `lint-allow.txt` from an allowlist-free run, so the
/// committed suppressions track line-number drift mechanically. The
/// rewritten file still needs human review before committing.
fn run_write_allow() -> bool {
    let root = repo_root();
    let raw = lint::lint_tree(&root, &Default::default());
    let text = lint::render_allowlist(&raw.findings);
    let allow_path = root.join("crates/analysis/lint-allow.txt");
    match std::fs::write(&allow_path, &text) {
        Ok(()) => {
            println!(
                "lint: wrote {} suppression(s) to {}",
                raw.findings.len(),
                allow_path.display()
            );
            for f in &raw.findings {
                println!("ALLOWED: {f}");
            }
            true
        }
        Err(e) => {
            eprintln!("lint: cannot write {}: {e}", allow_path.display());
            false
        }
    }
}

/// Proves the checker catches regressions: the clean protocol must
/// pass and the seeded mutant (a `Modified` holder surrendering
/// ownership on a read snoop) must fail.
fn run_selftest() -> bool {
    let mut ok = true;
    let clean = MoesiChecker::new().check();
    if clean.violations.is_empty() {
        println!("selftest: clean protocol passes ({} states)", clean.states);
    } else {
        println!("selftest: FAIL — clean protocol reported violations:");
        for v in &clean.violations {
            println!("  {v}");
        }
        ok = false;
    }
    let mutant = MoesiChecker::with_mutant().check();
    if mutant.violations.is_empty() {
        println!("selftest: FAIL — seeded MOESI mutant went undetected");
        ok = false;
    } else {
        println!(
            "selftest: seeded mutant caught ({} violations), e.g.:",
            mutant.violations.len()
        );
        if let Some(v) = mutant.violations.first() {
            println!("  {v}");
        }
    }
    // The protocol checker must likewise be able to find a deadlock: an
    // adversary with one more drop than the sender has transmissions
    // wedges the handshake.
    let wedge = protocol_check::ProtocolConfig {
        fragments: 1,
        buffers: 1,
        drop_budget: 3,
        dup_budget: 0,
        max_retries: 2,
    };
    let out = protocol_check::explore(&wedge);
    if out.violations.iter().any(|v| v.contains("deadlock")) {
        println!("selftest: over-budget drop adversary deadlock detected");
    } else {
        println!("selftest: FAIL — expected deadlock went undetected");
        ok = false;
    }
    // The lint must likewise catch a seeded violation of every rule it
    // would actually fire on in the tree — here, a raw metrics-counter
    // mutation smuggled outside the metrics module.
    let seeded = lint::lint_source(
        "crates/core/src/machine.rs",
        "fn sneak(c: &mut ComponentCycles) { c.raw_add(Component::ProcSend, 1); }",
    );
    if seeded.iter().any(|f| f.rule == "metrics-raw") {
        println!("selftest: seeded raw-counter mutation caught by metrics-raw lint");
    } else {
        println!("selftest: FAIL — seeded metrics-raw violation went undetected");
        ok = false;
    }
    // And a sim-crate filesystem write smuggled outside the sanctioned
    // snapshot/trace serialisation modules.
    let seeded = lint::lint_source(
        "crates/net/src/reliability.rs",
        "fn sneak() { let _ = std::fs::write(\"/tmp/x\", b\"state\"); }",
    );
    if seeded.iter().any(|f| f.rule == "fs-write") {
        println!("selftest: seeded sim-crate filesystem write caught by fs-write lint");
    } else {
        println!("selftest: FAIL — seeded fs-write violation went undetected");
        ok = false;
    }
    // A libm transcendental smuggled into a sim crate.
    let seeded = lint::lint_source(
        "crates/core/src/node.rs",
        "fn sneak(x: f64) -> f64 { x.ln() }",
    );
    if seeded.iter().any(|f| f.rule == "float-transcendental") {
        println!("selftest: seeded f64::ln call caught by float-transcendental lint");
    } else {
        println!("selftest: FAIL — seeded float-transcendental violation went undetected");
        ok = false;
    }
    // A thread started outside the sweep harness.
    let seeded = lint::lint_source(
        "crates/workloads/src/apps/em3d.rs",
        "fn sneak() { std::thread::spawn(|| {}); }",
    );
    if seeded.iter().any(|f| f.rule == "thread-spawn") {
        println!("selftest: seeded thread::spawn caught by thread-spawn lint");
    } else {
        println!("selftest: FAIL — seeded thread-spawn violation went undetected");
        ok = false;
    }
    // A shared-state cell in a workload.
    let seeded = lint::lint_source(
        "crates/workloads/src/apps/moldyn.rs",
        "struct S { cell: Arc<Mutex<u64>> }",
    );
    if seeded.iter().any(|f| f.rule == "arc-mutex") {
        println!("selftest: seeded Arc<Mutex> sink caught by arc-mutex lint");
    } else {
        println!("selftest: FAIL — seeded arc-mutex violation went undetected");
        ok = false;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("all");
    let ok = match mode {
        "check" => run_check(),
        "lint" if args.iter().any(|a| a == "--write-allow") => run_write_allow(),
        "lint" => run_lint(),
        "selftest" => run_selftest(),
        "all" => {
            let c = run_check();
            let l = run_lint();
            let s = run_selftest();
            c && l && s
        }
        other => {
            eprintln!(
                "unknown subcommand `{other}`; use check | lint [--write-allow] | \
                 selftest | all"
            );
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
