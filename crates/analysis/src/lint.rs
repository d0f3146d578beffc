//! Determinism and robustness lint for the simulator sources.
//!
//! A hand-rolled Rust tokenizer (comments, strings, char-vs-lifetime
//! disambiguation) feeding ten token-level rules:
//!
//! * `hash-collections` — `HashMap`/`HashSet` are banned in the crates
//!   whose state feeds sweep records and golden files
//!   (`engine`/`mem`/`net`/`core`/`workloads`/`bench`): their iteration
//!   order is seeded per-process, so any aggregation or serialization
//!   walking one is a nondeterminism hazard. Use `BTreeMap`/`BTreeSet`
//!   or an indexed `Vec`. (`cli` is exempt: its only maps hold parsed
//!   command-line flags, which are looked up by key and never
//!   iterated into output.)
//! * `wall-clock` — `Instant::now`/`SystemTime`/ambient randomness are
//!   banned in `core`/`engine`/`mem`/`net`: simulated time must be the
//!   only clock, and every run must be bit-reproducible. (`bench`
//!   measures real elapsed time by design and is exempt.)
//! * `panic-path` — `.unwrap()`/`.expect()`/`panic!` are banned in the
//!   simulation hot paths (the event loop, the timing wheel, the id
//!   window, and the machine/NI dispatch) outside the committed
//!   allowlist; a mid-sweep panic loses the whole parallel run.
//! * `wildcard-dispatch` — `_ =>` arms are banned in matches that
//!   dispatch over `MachineEvent`, `BusOp`, `MoesiState`, `SnoopKind`
//!   or `NiKind`, so adding a variant (e.g. a new NI model) fails to
//!   compile instead of silently falling through.
//! * `metrics-raw` — `.raw_add()`/`.raw_record()` calls are banned
//!   outside `crates/engine/src/metrics.rs`: they bypass the
//!   sum-to-total invariant the observability layer's safe API
//!   (`charge`/`record`) maintains, and exist only for the metrics
//!   module's own merge/deserialize paths.
//! * `fs-write` — filesystem mutation (`fs::write`, `File::create`,
//!   `OpenOptions`, directory surgery) is banned in the simulation
//!   crates (`engine`/`mem`/`net`/`core`/`workloads`) outside the two
//!   sanctioned serialisation exits, the snapshot and trace modules: a
//!   hidden write is a side channel no golden or record tracks, and a
//!   re-run that silently appends to one is no longer reproducible.
//!   (`bench` and `cli` write goldens, records and traces by design.)
//! * `sync-primitives` — `std::sync` locks, atomics, channels and
//!   lazy-init cells are banned in the sim-state crates
//!   (`engine`/`mem`/`net`/`core`): every simulation runs on one
//!   thread, and a lock or atomic there would let thread-timing-ordered
//!   state leak into records and goldens. (`workloads` and `bench` are
//!   covered by `thread-spawn` and `arc-mutex` instead.)
//! * `float-transcendental` — `.ln()`/`.exp()`/`.powf()` and friends
//!   are banned in the sim crates outside
//!   `crates/workloads/src/traffic.rs`: transcendentals go through
//!   libm, whose last-bit rounding varies across platforms and libc
//!   versions, so any timing derived from one de-synchronizes goldens.
//!   The traffic module owns `det_ln`, the deterministic polynomial
//!   alternative. (IEEE-exact operations — `sqrt`, arithmetic — stay
//!   legal.)
//! * `thread-spawn` — `thread::spawn`/`thread::scope`/`thread::Builder`
//!   are banned everywhere except the sweep harness
//!   (`crates/bench/src/harness.rs`), whose workers each run their own
//!   disjoint simulations: a thread started anywhere else could share
//!   one simulation's state.
//! * `arc-mutex` — `Arc<Mutex<...>>`/`Arc<RwLock<...>>` are banned in
//!   `workloads`/`bench` (the crates `sync-primitives` does not cover):
//!   a simulation and its result sinks live on one thread, so a sink is
//!   an `Rc<RefCell<...>>`.
//!
//! `#[cfg(test)]` items are skipped everywhere: tests may unwrap.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One token of Rust source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (also `_`).
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// String/char/number literal (content irrelevant to the rules).
    Lit,
}

/// A token plus the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Tokenizes Rust source, skipping whitespace and comments and
/// collapsing literals. Lifetimes (`'a`) are dropped entirely; char
/// literals become [`Tok::Lit`].
pub fn tokenize(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start = line;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Token {
                    tok: Tok::Lit,
                    line: start,
                });
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime is `'` + ident
                // with no closing quote.
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: consume to the closing quote.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    toks.push(Token {
                        tok: Tok::Lit,
                        line,
                    });
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                    toks.push(Token {
                        tok: Tok::Lit,
                        line,
                    });
                } else {
                    // Lifetime: skip the quote and its identifier.
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                // A `.` continues the literal only before another digit,
                // so `x.0.unwrap()` keeps `unwrap` as its own token.
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Lit,
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let ident = &src[start..i];
                // Raw and byte string prefixes: r"..", r#".."#, b"..", br"..".
                if matches!(ident, "r" | "b" | "br" | "rb") {
                    let mut hashes = 0;
                    let mut j = i;
                    while b.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&b'"') {
                        j += 1;
                        'scan: while j < b.len() {
                            if b[j] == b'\n' {
                                line += 1;
                            } else if b[j] == b'"' {
                                let mut k = 0;
                                while k < hashes && b.get(j + 1 + k) == Some(&b'#') {
                                    k += 1;
                                }
                                if k == hashes {
                                    j += 1 + hashes;
                                    break 'scan;
                                }
                            } else if ident.starts_with('b') && hashes == 0 && b[j] == b'\\' {
                                j += 1;
                            }
                            j += 1;
                        }
                        i = j;
                        toks.push(Token {
                            tok: Tok::Lit,
                            line,
                        });
                        continue;
                    }
                    if ident == "b" && b.get(i) == Some(&b'\'') {
                        i += 1; // opening quote of a byte literal
                        if b.get(i) == Some(&b'\\') {
                            i += 1;
                        }
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                        i += 1;
                        toks.push(Token {
                            tok: Tok::Lit,
                            line,
                        });
                        continue;
                    }
                }
                toks.push(Token {
                    tok: Tok::Ident(ident.to_string()),
                    line,
                });
            }
            c => {
                toks.push(Token {
                    tok: Tok::Punct(c as char),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    pub line: u32,
    /// Rule slug.
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// The exact-match key an allowlist entry must equal to suppress
    /// this finding.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.rule)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Marks the token index ranges covered by `#[cfg(test)]` items so the
/// rules can skip them. Returns a bool per token: true = excluded.
fn test_cfg_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].tok == Tok::Punct('#')
            && toks[i + 1].tok == Tok::Punct('[')
            && toks[i + 2].tok == Tok::Ident("cfg".into())
            && toks[i + 3].tok == Tok::Punct('(')
            && toks[i + 4].tok == Tok::Ident("test".into())
            && toks[i + 5].tok == Tok::Punct(')')
            && toks[i + 6].tok == Tok::Punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Exclude from the attribute to the end of the annotated item:
        // either the matching `}` of its first brace block, or the next
        // `;` at depth zero (e.g. a gated `use`).
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut entered = false;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('{') => {
                    depth += 1;
                    entered = true;
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if entered && depth == 0 {
                        break;
                    }
                }
                Tok::Punct(';') if !entered => break,
                _ => {}
            }
            j += 1;
        }
        for m in mask.iter_mut().take((j + 1).min(toks.len())).skip(i) {
            *m = true;
        }
        i = j + 1;
    }
    mask
}

/// Crates whose iteration order can leak into records/goldens.
const HASH_SCOPE: [&str; 6] = [
    "crates/engine/src/",
    "crates/mem/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/workloads/src/",
    "crates/bench/src/",
];

/// Crates that must be wall-clock- and entropy-free. (`bench` and `cli`
/// stay exempt: they measure real elapsed time by design.)
const CLOCK_SCOPE: [&str; 6] = [
    "crates/core/src/",
    "crates/engine/src/",
    "crates/mem/src/",
    "crates/net/src/",
    "crates/workloads/src/",
    "crates/analysis/src/",
];

/// The only file allowed to touch the raw metrics counters.
const METRICS_MODULE: &str = "crates/engine/src/metrics.rs";

/// Simulation hot paths: a panic here kills a whole parallel sweep.
const HOT_PATHS: [&str; 7] = [
    "crates/engine/src/sim.rs",
    "crates/engine/src/wheel.rs",
    "crates/core/src/machine.rs",
    "crates/core/src/event.rs",
    "crates/core/src/id_window.rs",
    "crates/core/src/node.rs",
    "crates/core/src/ni/",
];

/// Enums whose dispatch matches must stay exhaustive.
const DISPATCH_ENUMS: [&str; 5] = ["MachineEvent", "BusOp", "MoesiState", "SnoopKind", "NiKind"];

/// Crates whose code must not mutate the filesystem: any state a sim
/// crate persists must flow through a sanctioned serialisation exit.
const FS_SCOPE: [&str; 5] = [
    "crates/engine/src/",
    "crates/mem/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/workloads/src/",
];

/// The sanctioned serialisation exits: checkpoint files and trace logs.
const FS_WRITERS: [&str; 2] = ["crates/core/src/snapshot.rs", "crates/engine/src/trace.rs"];

/// Crates whose state drives the simulation and therefore must not hold
/// thread-synchronization primitives: a simulation runs on one thread.
const SYNC_SCOPE: [&str; 4] = [
    "crates/engine/src/",
    "crates/mem/src/",
    "crates/net/src/",
    "crates/core/src/",
];

/// `std::sync` types whose mere presence in sim state is a
/// nondeterminism hazard. Atomics are caught by prefix (`Atomic*`).
const SYNC_PRIMITIVES: [&str; 7] = [
    "Mutex", "RwLock", "Condvar", "Barrier", "OnceLock", "LazyLock", "mpsc",
];

/// `std::fs` functions that mutate the filesystem (reads stay legal).
const FS_MUTATORS: [&str; 9] = [
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "set_permissions",
];

/// Crates whose arithmetic feeds timing, records and goldens, and so
/// must avoid platform-dependent libm rounding.
const FLOAT_SCOPE: [&str; 5] = [
    "crates/engine/src/",
    "crates/mem/src/",
    "crates/net/src/",
    "crates/core/src/",
    "crates/workloads/src/",
];

/// Home of `det_ln`, the deterministic polynomial logarithm; the one
/// module allowed to reference libm transcendentals (its tests compare
/// against them).
const FLOAT_MODULE: &str = "crates/workloads/src/traffic.rs";

/// `f64`/`f32` methods routed through libm, whose last-bit rounding is
/// platform-dependent. IEEE-exact operations (`sqrt`, arithmetic,
/// `abs`, `powi`-free integer math) are not listed and stay legal.
const TRANSCENDENTALS: [&str; 24] = [
    "ln", "log", "log2", "log10", "ln_1p", "exp", "exp2", "exp_m1", "powf", "sin", "cos", "tan",
    "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh", "cbrt",
    "hypot",
];

/// The only file allowed to start OS threads: the sweep harness, whose
/// workers run disjoint configs.
const THREAD_MODULE: &str = "crates/bench/src/harness.rs";

/// Crates outside `sync-primitives` whose shared-state cells the
/// `arc-mutex` rule bans.
const ARC_SCOPE: [&str; 2] = ["crates/workloads/src/", "crates/bench/src/"];

fn in_scope(file: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| file.starts_with(p))
}

/// Runs every rule over one file's source.
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    let toks = tokenize(src);
    let excluded = test_cfg_mask(&toks);
    let mut findings = Vec::new();
    let ident = |i: usize| -> Option<&str> {
        match &toks.get(i)?.tok {
            Tok::Ident(s) if !excluded[i] => Some(s),
            _ => None,
        }
    };
    let punct_at = |i: usize, c: char| toks.get(i).map(|t| t.tok == Tok::Punct(c)) == Some(true);

    if in_scope(file, &HASH_SCOPE) {
        for (i, t) in toks.iter().enumerate() {
            if let Some(name @ ("HashMap" | "HashSet")) = ident(i) {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "hash-collections",
                    message: format!(
                        "{name} has seeded iteration order; use BTreeMap/BTreeSet or a Vec"
                    ),
                });
            }
        }
    }

    if in_scope(file, &CLOCK_SCOPE) {
        for (i, t) in toks.iter().enumerate() {
            let bad = match ident(i) {
                Some("SystemTime") => Some("SystemTime reads the wall clock"),
                Some("thread_rng") | Some("from_entropy") | Some("RandomState") => {
                    Some("ambient randomness breaks reproducibility")
                }
                Some("Instant")
                    if punct_at(i + 1, ':')
                        && punct_at(i + 2, ':')
                        && ident(i + 3) == Some("now") =>
                {
                    Some("Instant::now reads the wall clock")
                }
                _ => None,
            };
            if let Some(message) = bad {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "wall-clock",
                    message: format!("{message}; simulated time is the only clock"),
                });
            }
        }
    }

    if in_scope(file, &HOT_PATHS) {
        for (i, t) in toks.iter().enumerate() {
            let hit = match ident(i) {
                Some(name @ ("unwrap" | "expect")) if i > 0 && punct_at(i - 1, '.') => {
                    Some(format!(".{name}() can panic mid-sweep"))
                }
                Some("panic") if punct_at(i + 1, '!') => {
                    Some("panic! aborts the whole parallel sweep".to_string())
                }
                _ => None,
            };
            if let Some(message) = hit {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "panic-path",
                    message,
                });
            }
        }
    }

    if file != METRICS_MODULE {
        for (i, t) in toks.iter().enumerate() {
            if let Some(name @ ("raw_add" | "raw_record")) = ident(i) {
                if i > 0 && punct_at(i - 1, '.') && punct_at(i + 1, '(') {
                    findings.push(Finding {
                        file: file.into(),
                        line: t.line,
                        rule: "metrics-raw",
                        message: format!(
                            ".{name}() bypasses the sum-to-total invariant; use the \
                             charge/record API (raw counters live in {METRICS_MODULE} only)"
                        ),
                    });
                }
            }
        }
    }

    if in_scope(file, &FS_SCOPE) && !FS_WRITERS.contains(&file) {
        for (i, t) in toks.iter().enumerate() {
            let hit = match ident(i) {
                Some("fs") if punct_at(i + 1, ':') && punct_at(i + 2, ':') => match ident(i + 3) {
                    Some(name) if FS_MUTATORS.contains(&name) => {
                        Some(format!("fs::{name} mutates the filesystem"))
                    }
                    _ => None,
                },
                Some("File")
                    if punct_at(i + 1, ':')
                        && punct_at(i + 2, ':')
                        && matches!(ident(i + 3), Some("create") | Some("options")) =>
                {
                    Some("File::create opens a file for writing".to_string())
                }
                Some("OpenOptions") => Some("OpenOptions can open files for writing".to_string()),
                _ => None,
            };
            if let Some(message) = hit {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "fs-write",
                    message: format!(
                        "{message}; sim crates persist state through the snapshot/trace \
                         modules only"
                    ),
                });
            }
        }
    }

    if in_scope(file, &SYNC_SCOPE) {
        for (i, t) in toks.iter().enumerate() {
            if let Some(name) = ident(i) {
                if SYNC_PRIMITIVES.contains(&name)
                    || (name.starts_with("Atomic") && name.len() > "Atomic".len())
                {
                    findings.push(Finding {
                        file: file.into(),
                        line: t.line,
                        rule: "sync-primitives",
                        message: format!(
                            "{name} in sim state orders events by thread timing; simulations \
                             run on one thread"
                        ),
                    });
                }
            }
        }
    }

    if in_scope(file, &FLOAT_SCOPE) && file != FLOAT_MODULE {
        for (i, t) in toks.iter().enumerate() {
            let Some(name) = ident(i) else { continue };
            if !TRANSCENDENTALS.contains(&name) {
                continue;
            }
            // Method form `x.ln()` or path form `f64::ln(x)`; a bare
            // identifier (a variable named `exp`, a field `log`) is not
            // a libm call and stays quiet.
            let method = i > 0 && punct_at(i - 1, '.') && punct_at(i + 1, '(');
            let path = i >= 3
                && punct_at(i - 1, ':')
                && punct_at(i - 2, ':')
                && matches!(ident(i - 3), Some("f64") | Some("f32"));
            if method || path {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "float-transcendental",
                    message: format!(
                        "{name} goes through libm, whose rounding varies by platform; use \
                         traffic::det_ln or integer math so goldens stay portable"
                    ),
                });
            }
        }
    }

    if file != THREAD_MODULE {
        for (i, t) in toks.iter().enumerate() {
            if ident(i) == Some("thread")
                && punct_at(i + 1, ':')
                && punct_at(i + 2, ':')
                && matches!(
                    ident(i + 3),
                    Some("spawn") | Some("scope") | Some("Builder")
                )
            {
                let target = ident(i + 3).unwrap_or("spawn");
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "thread-spawn",
                    message: format!(
                        "thread::{target} outside the sweep harness could share one \
                         simulation's state across threads"
                    ),
                });
            }
        }
    }

    if in_scope(file, &ARC_SCOPE) {
        for (i, t) in toks.iter().enumerate() {
            if ident(i) == Some("Arc")
                && punct_at(i + 1, '<')
                && matches!(ident(i + 2), Some("Mutex") | Some("RwLock"))
            {
                let inner = ident(i + 2).unwrap_or("Mutex");
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "arc-mutex",
                    message: format!(
                        "Arc<{inner}<...>> in workloads/bench; a simulation's result sinks \
                         live on its one thread, so use Rc<RefCell<...>>"
                    ),
                });
            }
        }
    }

    // wildcard-dispatch applies everywhere: find each `match` body and,
    // if it mentions a dispatch enum, forbid bare `_ =>` arms inside it.
    for i in 0..toks.len() {
        if excluded[i] || toks[i].tok != Tok::Ident("match".into()) {
            continue;
        }
        let Some(open) = (i + 1..toks.len()).find(|&j| toks[j].tok == Tok::Punct('{')) else {
            continue;
        };
        let mut depth = 0usize;
        let mut close = open;
        for (j, t) in toks.iter().enumerate().skip(open) {
            match t.tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &toks[open..=close.min(toks.len() - 1)];
        let mentions = body.iter().any(|t| match &t.tok {
            Tok::Ident(s) => DISPATCH_ENUMS.contains(&s.as_str()),
            _ => false,
        });
        if !mentions {
            continue;
        }
        for (k, t) in body.iter().enumerate() {
            if excluded[open + k] {
                continue;
            }
            if t.tok == Tok::Ident("_".into())
                && body.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('='))
                && body.get(k + 2).map(|t| &t.tok) == Some(&Tok::Punct('>'))
            {
                findings.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "wildcard-dispatch",
                    message: "wildcard arm in a dispatch match; enumerate the variants so new \
                              ones fail loudly"
                        .into(),
                });
            }
        }
    }

    findings.sort();
    findings.dedup();
    findings
}

/// Result of a full lint run.
#[derive(Clone, Debug, Default)]
pub struct LintOutcome {
    /// Findings not suppressed by the allowlist, sorted.
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched no finding (stale suppressions).
    pub stale_allows: Vec<String>,
    /// Files scanned.
    pub files: usize,
}

impl LintOutcome {
    /// True when the tree is clean and the allowlist exact.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allows.is_empty()
    }
}

/// Parses the allowlist: one `file:line:rule` key per line; `#` starts
/// a comment; blank lines are skipped.
pub fn parse_allowlist(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// Renders a fresh allowlist from the findings of an allowlist-free
/// lint run: one exact `file:line:rule` key per line, sorted, under a
/// header explaining the contract. `lint --write-allow` writes this so
/// the committed file regenerates mechanically instead of rotting when
/// line numbers shift.
pub fn render_allowlist(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# nisim lint allowlist — exact file:line:rule suppressions.\n\
         # Regenerate with `cargo run -p nisim-analysis -- lint --write-allow`\n\
         # after reviewing each entry; stale entries fail the lint.\n",
    );
    let mut keys: Vec<String> = findings.iter().map(Finding::key).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        out.push_str(&key);
        out.push('\n');
    }
    out
}

/// Deterministic recursive listing of the `.rs` files under `dir`,
/// repo-relative. Directories named `tests` are skipped — integration
/// tests may unwrap and iterate however they like.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "tests") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints every simulator source file under `repo_root` and applies the
/// allowlist.
pub fn lint_tree(repo_root: &Path, allowlist: &BTreeSet<String>) -> LintOutcome {
    let mut files = Vec::new();
    rust_files(&repo_root.join("crates"), &mut files);
    let mut out = LintOutcome::default();
    let mut used: BTreeSet<String> = BTreeSet::new();
    for path in files {
        let rel = path
            .strip_prefix(repo_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        out.files += 1;
        for finding in lint_source(&rel, &src) {
            let key = finding.key();
            if allowlist.contains(&key) {
                used.insert(key);
            } else {
                out.findings.push(finding);
            }
        }
    }
    out.stale_allows = allowlist.difference(&used).cloned().collect();
    out.findings.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tokenizer_skips_comments_strings_and_lifetimes() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in /* a nested */ block */
            fn f<'unwrap>(x: &'unwrap str) -> u32 {
                let s = "HashMap::unwrap()";
                let r = r#"SystemTime "quoted" here"#;
                let c = 'x';
                let esc = '\n';
                let b = b"panic!";
                s.len() as u32 + r.len() as u32
            }
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"len".to_string()));
    }

    #[test]
    fn tokenizer_tracks_lines() {
        let toks = tokenize("a\nbb\n\ncc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn hash_rule_fires() {
        let f = lint_source(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert!(f
            .iter()
            .any(|f| f.rule == "hash-collections" && f.line == 1));
        // Out of scope: same source in the cli crate is fine.
        assert!(lint_source("crates/cli/src/x.rs", "use std::collections::HashMap;").is_empty());
    }

    #[test]
    fn wall_clock_rule_fires() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = lint_source("crates/engine/src/x.rs", src);
        assert!(f.iter().any(|f| f.rule == "wall-clock"));
        let f = lint_source("crates/net/src/x.rs", "use std::time::SystemTime;");
        assert!(f.iter().any(|f| f.rule == "wall-clock"));
        // `Instant` alone (e.g. in a type) is fine; only `::now` is banned.
        assert!(lint_source("crates/engine/src/x.rs", "fn f(t: Instant) {}").is_empty());
        // bench is exempt: it measures real time by design.
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_fires_only_in_hot_paths() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint_source("crates/engine/src/sim.rs", src);
        assert!(f.iter().any(|f| f.rule == "panic-path"));
        let f = lint_source("crates/core/src/ni/cm5.rs", "fn f() { panic!(\"boom\") }");
        assert!(f.iter().any(|f| f.rule == "panic-path"));
        // `unwrap_or` is a different identifier and must not fire.
        assert!(lint_source(
            "crates/engine/src/sim.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }"
        )
        .is_empty());
        // Outside the hot paths the rule stays quiet.
        assert!(lint_source("crates/mem/src/cache.rs", src).is_empty());
    }

    #[test]
    fn wildcard_rule_fires_on_dispatch_matches_only() {
        let dispatch = "fn f(e: MachineEvent) { match e { MachineEvent::Tick => (), _ => () } }";
        let f = lint_source("crates/core/src/x.rs", dispatch);
        assert!(f.iter().any(|f| f.rule == "wildcard-dispatch"));
        // A match over something else may use wildcards freely.
        let other = "fn f(x: u32) -> u32 { match x { 0 => 1, _ => 2 } }";
        assert!(lint_source("crates/core/src/x.rs", other).is_empty());
        // NiKind is a dispatch enum too: a wildcard arm would silently
        // swallow a newly added NI model.
        let ni = "fn f(k: NiKind) -> u32 { match k { NiKind::Cm5 => 1, _ => 0 } }";
        assert!(lint_source("crates/core/src/ni/mod.rs", ni)
            .iter()
            .any(|f| f.rule == "wildcard-dispatch"));
        // Tuple patterns with `_` components are not bare wildcard arms.
        let tuple = "fn f(s: MoesiState, k: SnoopKind) { match (s, k) { (_, SnoopKind::Read) => (), (s2, _) => { let _ = s2; } } }";
        assert!(lint_source("crates/mem/src/x.rs", tuple).is_empty());
    }

    #[test]
    fn metrics_raw_rule_fires_everywhere_but_the_metrics_module() {
        let src = "fn f(c: &mut ComponentCycles) { c.raw_add(Component::ProcSend, 5); }";
        for file in [
            "crates/core/src/machine.rs",
            "crates/bench/src/harness.rs",
            "crates/engine/src/trace.rs",
        ] {
            let f = lint_source(file, src);
            assert!(f.iter().any(|f| f.rule == "metrics-raw"), "{file}");
        }
        let hist = "fn f(h: &mut Log2Hist) { h.raw_record(3, 1); }";
        assert!(lint_source("crates/net/src/reliability.rs", hist)
            .iter()
            .any(|f| f.rule == "metrics-raw"));
        // The metrics module itself owns the raw counters.
        assert!(lint_source("crates/engine/src/metrics.rs", src).is_empty());
        // The safe API and mere mentions of the name do not fire.
        assert!(lint_source(
            "crates/core/src/machine.rs",
            "fn f(c: &mut ComponentCycles) { c.charge(Component::ProcSend, Dur::ns(5)); }"
        )
        .is_empty());
        assert!(lint_source("crates/core/src/machine.rs", "fn raw_add() {}").is_empty());
    }

    #[test]
    fn fs_write_rule_fires_outside_the_sanctioned_modules() {
        let src = "fn f() { std::fs::write(\"x\", b\"y\").ok(); }";
        for file in [
            "crates/net/src/x.rs",
            "crates/core/src/machine.rs",
            "crates/engine/src/sim.rs",
            "crates/workloads/src/skeleton.rs",
        ] {
            assert!(
                lint_source(file, src).iter().any(|f| f.rule == "fs-write"),
                "{file}"
            );
        }
        // The two sanctioned serialisation exits are exempt.
        assert!(lint_source("crates/core/src/snapshot.rs", src).is_empty());
        assert!(lint_source("crates/engine/src/trace.rs", src).is_empty());
        // bench and cli write goldens, records and traces by design.
        assert!(lint_source("crates/bench/src/bin/goldens.rs", src).is_empty());
        assert!(lint_source("crates/cli/src/lib.rs", src).is_empty());
        // Reads stay legal everywhere.
        assert!(lint_source(
            "crates/core/src/x.rs",
            "fn f() { let _ = std::fs::read_to_string(\"x\"); }"
        )
        .is_empty());
        // File::create and OpenOptions are writes too.
        assert!(lint_source(
            "crates/net/src/x.rs",
            "fn f() { let _ = std::fs::File::create(\"x\"); }"
        )
        .iter()
        .any(|f| f.rule == "fs-write"));
        assert!(
            lint_source("crates/mem/src/x.rs", "use std::fs::OpenOptions;")
                .iter()
                .any(|f| f.rule == "fs-write")
        );
        // `write` without the fs:: path (fmt::Write, io buffers) is fine.
        assert!(lint_source(
            "crates/net/src/x.rs",
            "fn f(w: &mut String) { w.write_str(\"x\").ok(); }"
        )
        .is_empty());
        // Tests may write scratch files.
        assert!(lint_source(
            "crates/net/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::fs::write(\"x\", b\"y\").ok(); } }"
        )
        .is_empty());
    }

    #[test]
    fn sync_rule_fires_in_every_sim_state_module() {
        // Seeded violations: each primitive smuggled into a sim-state
        // crate must fire.
        for src in [
            "use std::sync::Mutex;\nstruct S { m: Mutex<u32> }",
            "use std::sync::RwLock;",
            "use std::sync::atomic::AtomicU64;\nstatic N: AtomicU64 = AtomicU64::new(0);",
            "use std::sync::atomic::AtomicBool;",
            "use std::sync::mpsc;",
            "use std::sync::{Condvar, OnceLock};",
        ] {
            for file in [
                "crates/engine/src/sim.rs",
                "crates/mem/src/cache.rs",
                "crates/net/src/fabric.rs",
                "crates/core/src/machine.rs",
            ] {
                assert!(
                    lint_source(file, src)
                        .iter()
                        .any(|f| f.rule == "sync-primitives"),
                    "{file}: {src}"
                );
            }
        }
        // workloads/bench are outside this rule's scope (a bare Mutex
        // there is arc-mutex's business only when shared through Arc).
        assert!(lint_source("crates/workloads/src/x.rs", "use std::sync::Mutex;").is_empty());
        assert!(lint_source("crates/bench/src/harness.rs", "use std::sync::Mutex;").is_empty());
        // `Ordering` (cmp or atomic) and bare `Arc` sharing are fine.
        assert!(lint_source(
            "crates/core/src/machine.rs",
            "use std::sync::Arc;\nfn f(a: Ordering) -> Ordering { a }"
        )
        .is_empty());
        // Tests inside sim crates may synchronize however they like.
        assert!(lint_source(
            "crates/engine/src/sim.rs",
            "#[cfg(test)]\nmod tests { use std::sync::Mutex; }"
        )
        .is_empty());
    }

    #[test]
    fn wall_clock_scope_covers_workloads_and_analysis() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert!(lint_source("crates/workloads/src/apps.rs", src)
            .iter()
            .any(|f| f.rule == "wall-clock"));
        assert!(lint_source("crates/analysis/src/x.rs", src)
            .iter()
            .any(|f| f.rule == "wall-clock"));
        // bench and cli still measure real time by design.
        assert!(lint_source("crates/cli/src/lib.rs", src).is_empty());
    }

    #[test]
    fn float_transcendental_rule_fires_in_sim_crates() {
        let method = "fn f(x: f64) -> f64 { x.ln() + x.powf(2.5) }";
        for file in [
            "crates/engine/src/sim.rs",
            "crates/net/src/fabric.rs",
            "crates/core/src/machine.rs",
            "crates/workloads/src/apps/em3d.rs",
        ] {
            let f = lint_source(file, method);
            assert!(f.iter().any(|f| f.rule == "float-transcendental"), "{file}");
        }
        // Path form is caught too.
        assert!(lint_source(
            "crates/mem/src/cache.rs",
            "fn f(x: f64) -> f64 { f64::exp(x) }"
        )
        .iter()
        .any(|f| f.rule == "float-transcendental"));
        // The traffic module owns det_ln and its libm comparison tests.
        assert!(lint_source("crates/workloads/src/traffic.rs", method).is_empty());
        // IEEE-exact operations stay legal.
        assert!(lint_source(
            "crates/engine/src/sim.rs",
            "fn f(x: f64) -> f64 { x.sqrt() + x.abs() }"
        )
        .is_empty());
        // A field or variable that happens to share a name is not a call.
        assert!(lint_source(
            "crates/engine/src/sim.rs",
            "struct S { exp: u32, log: Vec<u32> }\nfn f(s: &S) -> u32 { s.exp }"
        )
        .is_empty());
        // Out of scope: analysis/cli/bench may use libm freely.
        assert!(lint_source("crates/analysis/src/x.rs", method).is_empty());
    }

    #[test]
    fn thread_spawn_rule_fires_outside_the_sanctioned_modules() {
        for src in [
            "fn f() { std::thread::spawn(|| {}); }",
            "fn f() { std::thread::scope(|s| { let _ = s; }); }",
            "fn f() { let b = std::thread::Builder::new(); let _ = b; }",
        ] {
            for file in [
                "crates/engine/src/sim.rs",
                "crates/workloads/src/traffic.rs",
                "crates/cli/src/lib.rs",
            ] {
                assert!(
                    lint_source(file, src)
                        .iter()
                        .any(|f| f.rule == "thread-spawn"),
                    "{file}: {src}"
                );
            }
        }
        // The sweep harness owns the threads.
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }";
        assert!(lint_source("crates/bench/src/harness.rs", src).is_empty());
        // A variable named `thread` is not a spawn.
        assert!(lint_source(
            "crates/engine/src/sim.rs",
            "fn f(thread: u32) -> u32 { thread }"
        )
        .is_empty());
        // Tests may spawn helper threads.
        assert!(lint_source(
            "crates/engine/src/sim.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }"
        )
        .is_empty());
    }

    #[test]
    fn arc_mutex_rule_confines_shared_sinks() {
        let src = "use std::sync::{Arc, Mutex};\nstruct S { sink: Arc<Mutex<Vec<u32>>> }";
        // No result sink is exempt.
        for file in [
            "crates/workloads/src/apps/moldyn.rs",
            "crates/bench/src/sweep.rs",
            "crates/workloads/src/traffic.rs",
            "crates/workloads/src/micro/pingpong.rs",
            "crates/workloads/src/micro/bandwidth.rs",
        ] {
            assert!(
                lint_source(file, src).iter().any(|f| f.rule == "arc-mutex"),
                "{file}"
            );
        }
        assert!(lint_source(
            "crates/workloads/src/x.rs",
            "fn f(l: Arc<RwLock<u32>>) { let _ = l; }"
        )
        .iter()
        .any(|f| f.rule == "arc-mutex"));
        // Arc alone (immutable sharing) is fine.
        assert!(lint_source(
            "crates/workloads/src/x.rs",
            "fn f(t: Arc<Vec<u32>>) { let _ = t; }"
        )
        .is_empty());
        // Sim-state crates are sync-primitives territory, not arc-mutex.
        let f = lint_source("crates/core/src/machine.rs", src);
        assert!(f.iter().all(|f| f.rule != "arc-mutex"));
        assert!(f.iter().any(|f| f.rule == "sync-primitives"));
    }

    #[test]
    fn render_allowlist_round_trips_through_the_parser() {
        let findings = vec![
            Finding {
                file: "crates/core/src/machine.rs".into(),
                line: 400,
                rule: "panic-path",
                message: String::new(),
            },
            Finding {
                file: "crates/core/src/machine.rs".into(),
                line: 12,
                rule: "panic-path",
                message: String::new(),
            },
        ];
        let text = render_allowlist(&findings);
        let allow = parse_allowlist(&text);
        assert_eq!(allow.len(), 2);
        assert!(allow.contains("crates/core/src/machine.rs:400:panic-path"));
        // Sorted: the line-12 entry renders before line 400 textually.
        let body: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(body.len(), 2);
        assert!(render_allowlist(&[]).lines().all(|l| l.starts_with('#')));
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "
            fn live() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let x: Option<u32> = None; x.unwrap(); }
            }
        ";
        assert!(lint_source("crates/engine/src/sim.rs", src).is_empty());
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allowlist_parses_and_round_trips() {
        let text = "
            # suppressions are exact file:line:rule keys
            crates/core/src/machine.rs:336:panic-path  # trace forced on above
\t
        ";
        let allow = parse_allowlist(text);
        assert_eq!(allow.len(), 1);
        assert!(allow.contains("crates/core/src/machine.rs:336:panic-path"));
        let f = Finding {
            file: "crates/core/src/machine.rs".into(),
            line: 336,
            rule: "panic-path",
            message: String::new(),
        };
        assert_eq!(f.key(), "crates/core/src/machine.rs:336:panic-path");
        assert!(allow.contains(&f.key()));
    }

    #[test]
    fn stale_allowlist_entries_are_reported() {
        // Lint an empty temp tree with a non-empty allowlist: every
        // entry is stale and must be surfaced.
        let allow = parse_allowlist("crates/engine/src/nonexistent.rs:1:panic-path");
        let dir = std::env::temp_dir().join("nisim-analysis-stale-test");
        let _ = std::fs::create_dir_all(dir.join("crates"));
        let out = lint_tree(&dir, &allow);
        assert!(!out.is_clean());
        assert_eq!(
            out.stale_allows,
            vec!["crates/engine/src/nonexistent.rs:1:panic-path".to_string()]
        );
    }
}
