//! Bounded explicit-state model checking of the MOESI protocol.
//!
//! Two engines, both driving the *real* transition functions from
//! `nisim-mem` (not a re-implementation):
//!
//! 1. [`MoesiChecker::cross_product`] — exhaustively enumerates every
//!    `(MoesiState, SnoopKind)` pair plus the write-hit and read-fill
//!    transitions, asserting local properties of each transition
//!    (suppliers hold the freshest copy, dirty ownership survives read
//!    snoops, invalidating transactions actually invalidate, …).
//!
//! 2. [`MoesiChecker::explore`] — BFS over a small system model: N caches (2 and 3)
//!    sharing one block over a snooping bus, with an explicit
//!    "memory is stale" bit. Each bus transaction is atomic. The
//!    search asserts the global invariants (SWMR, exactly one owner
//!    for dirty data, memory staleness implies an owner) in every
//!    reachable state and proves convergence: every reachable state
//!    can drain back to the quiescent all-Invalid/memory-fresh state.
//!
//! A deliberately broken transition is available behind
//! [`MoesiChecker::with_mutant`]: `(Modified, Read)` then surrenders
//! ownership (`-> Shared`) while still supplying cache-to-cache, so
//! memory is never updated and the dirty data loses its owner. The
//! `mutant_is_caught_*` tests prove both engines report it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use nisim_mem::{
    read_fill_state, snoop_transition, write_hit_transition, MoesiState, SnoopAction, SnoopKind,
};

/// All snoopable bus-transaction kinds, in a fixed order.
pub const SNOOP_KINDS: [SnoopKind; 3] = [
    SnoopKind::Read,
    SnoopKind::ReadExclusive,
    SnoopKind::Upgrade,
];

/// Outcome of a model-checking run.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Human-readable violation reports; empty means the check passed.
    pub violations: Vec<String>,
    /// Distinct system states reached across all searches.
    pub states: usize,
    /// Transitions examined across all searches.
    pub transitions: usize,
    /// Bitmap (by [`MoesiState::index`]) of per-cache states any cache
    /// attains in any reachable system state — the static half of the
    /// static-vs-dynamic agreement test.
    pub reachable_mask: u8,
}

impl CheckOutcome {
    fn merge(&mut self, other: CheckOutcome) {
        self.violations.extend(other.violations);
        self.states += other.states;
        self.transitions += other.transitions;
        self.reachable_mask |= other.reachable_mask;
    }
}

/// The checker; `mutant` swaps in the deliberately broken transition.
#[derive(Clone, Copy, Debug)]
pub struct MoesiChecker {
    mutant: bool,
}

impl Default for MoesiChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl MoesiChecker {
    /// Checks the real protocol.
    pub fn new() -> MoesiChecker {
        MoesiChecker { mutant: false }
    }

    /// Checks a protocol with a seeded bug: on a read snoop, a
    /// `Modified` holder supplies the block but demotes itself to
    /// `Shared` instead of `Owned`, so the dirty data has no owner and
    /// memory is never brought up to date.
    pub fn with_mutant() -> MoesiChecker {
        MoesiChecker { mutant: true }
    }

    /// The snoop transition under test.
    fn snoop(&self, state: MoesiState, kind: SnoopKind) -> SnoopAction {
        if self.mutant && state == MoesiState::Modified && kind == SnoopKind::Read {
            return SnoopAction {
                next: MoesiState::Shared,
                supply: true,
            };
        }
        snoop_transition(state, kind)
    }

    /// Runs every check: the transition cross-product plus the 2- and
    /// 3-cache bus searches.
    pub fn check(&self) -> CheckOutcome {
        let mut out = self.cross_product();
        out.merge(self.explore(2));
        out.merge(self.explore(3));
        out
    }

    /// Exhaustive enumeration of the `(MoesiState × SnoopKind)`
    /// cross-product plus the write-hit and read-fill transitions.
    pub fn cross_product(&self) -> CheckOutcome {
        let mut out = CheckOutcome::default();
        for s in MoesiState::ALL {
            for k in SNOOP_KINDS {
                out.transitions += 1;
                let a = self.snoop(s, k);
                let mut fail = |why: &str| {
                    out.violations.push(format!(
                        "cross-product: ({s}, {k:?}) -> ({}, supply={}) {why}",
                        a.next, a.supply
                    ));
                };
                if a.supply && !s.supplies_data() {
                    fail("supplies without holding the freshest copy");
                }
                if k == SnoopKind::Read && s.dirty() && !(a.supply && a.next.dirty()) {
                    fail("dirty data loses its owner on a read snoop (memory is not updated)");
                }
                if k == SnoopKind::Read && s.is_valid() && !a.next.is_valid() {
                    fail("a read snoop must not invalidate the observed copy");
                }
                if k == SnoopKind::Read && a.next.writable() {
                    fail("copy stays writable although another cache now holds the block");
                }
                if k == SnoopKind::ReadExclusive && a.next != MoesiState::Invalid {
                    fail("BusRdX must invalidate every other copy");
                }
                if k == SnoopKind::ReadExclusive && a.supply != s.supplies_data() {
                    fail("exactly the freshest-copy holders supply on BusRdX");
                }
                if k == SnoopKind::Upgrade && (a.next != MoesiState::Invalid || a.supply) {
                    fail("BusUpgr must invalidate without a data phase");
                }
                if s == MoesiState::Invalid && (a.next != MoesiState::Invalid || a.supply) {
                    fail("a cache without the block must not react");
                }
            }
        }
        for s in MoesiState::ALL {
            if !s.is_valid() {
                continue; // write_hit_transition is defined (as a panic) only off Invalid
            }
            out.transitions += 1;
            let (next, upgrade) = write_hit_transition(s);
            if next != MoesiState::Modified {
                out.violations
                    .push(format!("cross-product: write hit on {s} must end Modified"));
            }
            let sharers_possible = matches!(s, MoesiState::Shared | MoesiState::Owned);
            if upgrade != sharers_possible {
                out.violations.push(format!(
                    "cross-product: write hit on {s} must upgrade iff other copies may exist"
                ));
            }
        }
        out.transitions += 2;
        if read_fill_state(false) != MoesiState::Exclusive {
            out.violations
                .push("cross-product: sole read fill must install Exclusive".into());
        }
        if read_fill_state(true) != MoesiState::Shared {
            out.violations
                .push("cross-product: shared read fill must install Shared".into());
        }
        out
    }

    /// BFS over `n` caches sharing one block on a snooping bus.
    ///
    /// System state: one `MoesiState` per cache plus a "memory stale"
    /// bit. Operations (each an atomic bus transaction): per-cache read
    /// miss (BusRd), write miss (BusRdX), write hit (silent or BusUpgr)
    /// and eviction (with writeback when dirty).
    pub fn explore(&self, n: usize) -> CheckOutcome {
        assert!((2..=3).contains(&n), "bounded search covers 2-3 caches");
        let mut out = CheckOutcome::default();
        let initial = SysState {
            caches: vec![MoesiState::Invalid; n],
            mem_stale: false,
        };
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut edges: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut violations: BTreeSet<String> = BTreeSet::new();
        seen.insert(initial.encode());
        queue.push_back(initial.clone());
        while let Some(st) = queue.pop_front() {
            for c in &st.caches {
                out.reachable_mask |= 1 << c.index();
            }
            for v in st.invariant_violations(n) {
                violations.insert(v);
            }
            let succs = self.successors(&st, &mut violations);
            out.transitions += succs.len();
            let entry = edges.entry(st.encode()).or_default();
            for next in succs {
                let code = next.encode();
                entry.push(code);
                if seen.insert(code) {
                    queue.push_back(next);
                }
            }
        }
        out.states = seen.len();
        // Convergence: every reachable state must be able to drain back
        // to quiescence (all caches Invalid, memory fresh) — evictions
        // with writeback guarantee it for the real protocol.
        let quiescent = initial.encode();
        let mut reverse: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (from, tos) in &edges {
            for to in tos {
                reverse.entry(*to).or_default().push(*from);
            }
        }
        let mut can_drain: BTreeSet<u64> = BTreeSet::new();
        let mut rq = VecDeque::new();
        if seen.contains(&quiescent) {
            can_drain.insert(quiescent);
            rq.push_back(quiescent);
        }
        while let Some(code) = rq.pop_front() {
            if let Some(preds) = reverse.get(&code) {
                for p in preds {
                    if can_drain.insert(*p) {
                        rq.push_back(*p);
                    }
                }
            }
        }
        for code in &seen {
            if !can_drain.contains(code) {
                violations.insert(format!(
                    "{n}-cache search: state {} cannot drain back to quiescence",
                    SysState::decode(*code, n)
                ));
            }
        }
        out.violations.extend(violations);
        out
    }

    /// All successor states of `st`, recording per-transition violations.
    fn successors(&self, st: &SysState, violations: &mut BTreeSet<String>) -> Vec<SysState> {
        let n = st.caches.len();
        let mut succs = Vec::new();
        for i in 0..n {
            let s = st.caches[i];
            if s == MoesiState::Invalid {
                // Read miss: BusRd. Everyone else snoops; at most one
                // cache supplies; with no supplier the fill comes from
                // memory, which must then be up to date.
                let mut next = st.clone();
                let mut suppliers = 0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let a = self.snoop(next.caches[j], SnoopKind::Read);
                    next.caches[j] = a.next;
                    suppliers += usize::from(a.supply);
                }
                if suppliers > 1 {
                    violations.insert(format!(
                        "{n}-cache search: {st}: BusRd by cache {i} finds {suppliers} suppliers"
                    ));
                }
                if suppliers == 0 && st.mem_stale {
                    violations.insert(format!(
                        "{n}-cache search: {st}: BusRd by cache {i} served from stale memory"
                    ));
                }
                let sharers = (0..n).any(|j| j != i && next.caches[j].is_valid());
                next.caches[i] = read_fill_state(sharers);
                succs.push(next);

                // Write miss: BusRdX. Every other copy invalidates;
                // dirty holders supply on the way out.
                let mut next = st.clone();
                let mut suppliers = 0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let a = self.snoop(next.caches[j], SnoopKind::ReadExclusive);
                    next.caches[j] = a.next;
                    suppliers += usize::from(a.supply);
                }
                if suppliers > 1 {
                    violations.insert(format!(
                        "{n}-cache search: {st}: BusRdX by cache {i} finds {suppliers} suppliers"
                    ));
                }
                if suppliers == 0 && st.mem_stale {
                    violations.insert(format!(
                        "{n}-cache search: {st}: BusRdX by cache {i} served from stale memory"
                    ));
                }
                next.caches[i] = MoesiState::Modified;
                next.mem_stale = true;
                succs.push(next);
            } else {
                // Write hit: silent on writable copies, BusUpgr first
                // when other copies may exist.
                let (wnext, upgrade) = write_hit_transition(s);
                let mut next = st.clone();
                if upgrade {
                    for j in 0..n {
                        if j == i {
                            continue;
                        }
                        let a = self.snoop(next.caches[j], SnoopKind::Upgrade);
                        next.caches[j] = a.next;
                    }
                } else if !s.writable() {
                    violations.insert(format!(
                        "{n}-cache search: {st}: silent write by cache {i} on a non-writable copy"
                    ));
                }
                next.caches[i] = wnext;
                next.mem_stale = true;
                succs.push(next);

                // Eviction; dirty victims write back, refreshing memory.
                let mut next = st.clone();
                next.caches[i] = MoesiState::Invalid;
                if s.dirty() {
                    next.mem_stale = false;
                }
                succs.push(next);
            }
        }
        succs
    }
}

/// One system state of the bounded bus model.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SysState {
    caches: Vec<MoesiState>,
    mem_stale: bool,
}

impl SysState {
    /// Mixed-radix encoding: cache states base 5, staleness on top.
    fn encode(&self) -> u64 {
        let mut code = 0u64;
        for c in self.caches.iter().rev() {
            code = code * 5 + c.index() as u64;
        }
        code * 2 + u64::from(self.mem_stale)
    }

    fn decode(code: u64, n: usize) -> SysState {
        let mem_stale = code % 2 == 1;
        let mut rest = code / 2;
        let mut caches = Vec::with_capacity(n);
        for _ in 0..n {
            caches.push(MoesiState::ALL[(rest % 5) as usize]);
            rest /= 5;
        }
        SysState { caches, mem_stale }
    }

    /// The global safety invariants, checked in every reachable state.
    fn invariant_violations(&self, n: usize) -> Vec<String> {
        let mut v = Vec::new();
        let writers = self.caches.iter().filter(|c| c.writable()).count();
        let valid = self.caches.iter().filter(|c| c.is_valid()).count();
        if writers > 0 && valid > writers {
            v.push(format!(
                "{n}-cache search: {self}: SWMR violated (writable copy coexists with another copy)"
            ));
        }
        if writers > 1 {
            v.push(format!("{n}-cache search: {self}: two writable copies"));
        }
        let owners = self.caches.iter().filter(|c| c.dirty()).count();
        if owners > 1 {
            v.push(format!(
                "{n}-cache search: {self}: dirty data has {owners} owners"
            ));
        }
        if self.mem_stale != (owners == 1) {
            v.push(format!(
                "{n}-cache search: {self}: memory staleness disagrees with ownership \
                 (stale={}, owners={owners})",
                self.mem_stale
            ));
        }
        v
    }
}

impl std::fmt::Display for SysState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for c in &self.caches {
            write!(f, "{c}")?;
        }
        write!(
            f,
            "|mem {}]",
            if self.mem_stale { "stale" } else { "fresh" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_protocol_has_no_violations() {
        let out = MoesiChecker::new().check();
        assert_eq!(out.violations, Vec::<String>::new());
        assert!(out.states > 0 && out.transitions > 0);
    }

    #[test]
    fn every_cache_state_is_reachable() {
        let out = MoesiChecker::new().check();
        assert_eq!(out.reachable_mask, 0b1_1111, "all five MOESI states");
    }

    #[test]
    fn mutant_is_caught_by_cross_product() {
        let out = MoesiChecker::with_mutant().cross_product();
        assert!(
            out.violations.iter().any(|v| v.contains("loses its owner")),
            "got: {:?}",
            out.violations
        );
    }

    #[test]
    fn mutant_is_caught_by_the_bus_search() {
        let out = MoesiChecker::with_mutant().explore(2);
        assert!(
            out.violations
                .iter()
                .any(|v| v.contains("staleness disagrees with ownership")),
            "got: {:?}",
            out.violations
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        for code in 0..(5u64 * 5 * 5 * 2) {
            let st = SysState::decode(code, 3);
            assert_eq!(st.encode(), code);
        }
    }

    #[test]
    fn state_spaces_are_fully_bounded() {
        let two = MoesiChecker::new().explore(2);
        let three = MoesiChecker::new().explore(3);
        assert!(two.states <= 5 * 5 * 2);
        assert!(three.states <= 5 * 5 * 5 * 2);
    }
}
