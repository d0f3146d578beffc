//! The MOESI cache-coherence protocol (Table 3: "Memory bus coherence
//! protocol — MOESI").
//!
//! The protocol logic is written as pure transition functions so it can be
//! tested exhaustively, independent of cache or bus structure:
//!
//! * [`write_hit_transition`] — local write to a valid line,
//! * [`read_fill_state`] — state installed by a read miss fill,
//! * [`snoop_transition`] — a remote agent's bus transaction observed by a
//!   cache holding the line.
//!
//! MOESI matters to the study because the coherent NIs (`CNI_*`) behave
//! like an extra cache on the memory bus: they supply message blocks
//! cache-to-cache (Owned state), observe the processor's
//! requests-for-exclusive to trigger send-side prefetch, and absorb
//! writebacks of replaced queue blocks.

use std::fmt;

use nisim_engine::codec::{Codec, DecodeError};
use nisim_engine::Json;

/// The five MOESI states. `Invalid` doubles as "not present".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MoesiState {
    /// Dirty, exclusive: this cache has the only copy and it differs from
    /// memory.
    Modified,
    /// Dirty, shared: this cache must supply the data; other caches may
    /// hold `Shared` copies.
    Owned,
    /// Clean, exclusive: only copy, identical to memory; may be written
    /// without a bus transaction.
    Exclusive,
    /// Clean (with respect to the owner), shared.
    Shared,
    /// Not present.
    #[default]
    Invalid,
}

/// A state is its [`MoesiState::index`].
impl Codec for MoesiState {
    fn encode(&self) -> Json {
        self.index().encode()
    }
    fn decode(v: &Json) -> Result<MoesiState, DecodeError> {
        MoesiState::ALL
            .get(usize::decode(v)?)
            .copied()
            .ok_or_else(|| DecodeError::new("unknown MOESI state index"))
    }
}

impl MoesiState {
    /// Every state, in declaration (M, O, E, S, I) order — the
    /// enumeration base for exhaustive checks and the visit bitmap.
    pub const ALL: [MoesiState; 5] = [
        MoesiState::Modified,
        MoesiState::Owned,
        MoesiState::Exclusive,
        MoesiState::Shared,
        MoesiState::Invalid,
    ];

    /// This state's position in [`MoesiState::ALL`] (also its bit in a
    /// visit bitmap).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MoesiState::Modified => 0,
            MoesiState::Owned => 1,
            MoesiState::Exclusive => 2,
            MoesiState::Shared => 3,
            MoesiState::Invalid => 4,
        }
    }

    /// True for any state that can satisfy a local read.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != MoesiState::Invalid
    }

    /// True if this cache is responsible for supplying the block's data
    /// on a snoop (it holds the freshest copy).
    #[inline]
    pub fn supplies_data(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }

    /// True if a local write can proceed without a bus transaction.
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Exclusive)
    }

    /// True if the block's data differs from main memory (a replacement
    /// must write it back).
    #[inline]
    pub fn dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }
}

impl fmt::Display for MoesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            MoesiState::Modified => 'M',
            MoesiState::Owned => 'O',
            MoesiState::Exclusive => 'E',
            MoesiState::Shared => 'S',
            MoesiState::Invalid => 'I',
        };
        write!(f, "{c}")
    }
}

/// The coherence-relevant kinds of bus transactions another agent can issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SnoopKind {
    /// Another agent reads the block (BusRd).
    Read,
    /// Another agent reads the block for exclusive ownership (BusRdX).
    ReadExclusive,
    /// Another agent upgrades a shared copy to exclusive without data
    /// transfer (BusUpgr); also used for pure invalidations.
    Upgrade,
}

/// What a snooping cache must do in response to an observed transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnoopAction {
    /// The line's next state.
    pub next: MoesiState,
    /// True if this cache supplies the data (cache-to-cache transfer).
    pub supply: bool,
}

/// State transition for a local **write hit** on a valid line.
///
/// Returns `(next_state, needs_upgrade)`: `needs_upgrade` is true when the
/// write requires a BusUpgr transaction first (`Shared`/`Owned` copies may
/// exist elsewhere).
///
/// # Panics
///
/// Panics if called with [`MoesiState::Invalid`] (a write miss is not a
/// write hit; use a BusRdX fill instead).
pub fn write_hit_transition(state: MoesiState) -> (MoesiState, bool) {
    match state {
        MoesiState::Modified => (MoesiState::Modified, false),
        MoesiState::Exclusive => (MoesiState::Modified, false),
        MoesiState::Owned | MoesiState::Shared => (MoesiState::Modified, true),
        MoesiState::Invalid => panic!("write hit on invalid line"),
    }
}

/// State installed by a **read miss** fill: `Exclusive` if no other agent
/// held the block, `Shared` otherwise.
pub fn read_fill_state(other_sharers: bool) -> MoesiState {
    if other_sharers {
        MoesiState::Shared
    } else {
        MoesiState::Exclusive
    }
}

/// Transition for a cache holding `state` that observes a remote
/// transaction of kind `kind` on the same block.
pub fn snoop_transition(state: MoesiState, kind: SnoopKind) -> SnoopAction {
    use MoesiState::*;
    use SnoopKind::*;
    match (state, kind) {
        (Invalid, _) => SnoopAction {
            next: Invalid,
            supply: false,
        },
        // A remote read demotes exclusive copies and makes dirty copies
        // responsible for supplying data (M -> O keeps ownership here).
        (Modified, Read) => SnoopAction {
            next: Owned,
            supply: true,
        },
        (Owned, Read) => SnoopAction {
            next: Owned,
            supply: true,
        },
        (Exclusive, Read) => SnoopAction {
            next: Shared,
            supply: false,
        },
        (Shared, Read) => SnoopAction {
            next: Shared,
            supply: false,
        },
        // A remote read-exclusive invalidates every copy; dirty holders
        // supply the data on the way out.
        (Modified, ReadExclusive) | (Owned, ReadExclusive) => SnoopAction {
            next: Invalid,
            supply: true,
        },
        (Exclusive, ReadExclusive) | (Shared, ReadExclusive) => SnoopAction {
            next: Invalid,
            supply: false,
        },
        // An upgrade carries no data; everyone else just invalidates.
        (_, Upgrade) => SnoopAction {
            next: Invalid,
            supply: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::MoesiState::*;
    use super::SnoopKind::*;
    use super::*;

    const ALL: [MoesiState; 5] = [Modified, Owned, Exclusive, Shared, Invalid];

    #[test]
    fn predicates() {
        assert!(Modified.is_valid() && !Invalid.is_valid());
        assert!(Modified.supplies_data() && Owned.supplies_data());
        assert!(!Exclusive.supplies_data() && !Shared.supplies_data());
        assert!(Modified.writable() && Exclusive.writable());
        assert!(!Shared.writable() && !Owned.writable() && !Invalid.writable());
        assert!(Modified.dirty() && Owned.dirty());
        assert!(!Exclusive.dirty() && !Shared.dirty());
    }

    #[test]
    fn write_hits() {
        assert_eq!(write_hit_transition(Modified), (Modified, false));
        assert_eq!(write_hit_transition(Exclusive), (Modified, false));
        assert_eq!(write_hit_transition(Shared), (Modified, true));
        assert_eq!(write_hit_transition(Owned), (Modified, true));
    }

    #[test]
    #[should_panic(expected = "write hit on invalid line")]
    fn write_hit_on_invalid_panics() {
        write_hit_transition(Invalid);
    }

    #[test]
    fn read_fill() {
        assert_eq!(read_fill_state(false), Exclusive);
        assert_eq!(read_fill_state(true), Shared);
    }

    #[test]
    fn snoop_read_keeps_dirty_ownership() {
        assert_eq!(
            snoop_transition(Modified, Read),
            SnoopAction {
                next: Owned,
                supply: true
            }
        );
        assert_eq!(
            snoop_transition(Owned, Read),
            SnoopAction {
                next: Owned,
                supply: true
            }
        );
        assert_eq!(
            snoop_transition(Exclusive, Read),
            SnoopAction {
                next: Shared,
                supply: false
            }
        );
    }

    #[test]
    fn snoop_read_exclusive_invalidates_all() {
        for s in ALL {
            let a = snoop_transition(s, ReadExclusive);
            assert_eq!(a.next, Invalid);
            assert_eq!(a.supply, s.supplies_data());
        }
    }

    #[test]
    fn snoop_upgrade_invalidates_without_supply() {
        for s in ALL {
            let a = snoop_transition(s, Upgrade);
            assert_eq!(a.next, Invalid);
            assert!(!a.supply);
        }
    }

    #[test]
    fn invalid_never_reacts() {
        for k in [Read, ReadExclusive, Upgrade] {
            let a = snoop_transition(Invalid, k);
            assert_eq!(a.next, Invalid);
            assert!(!a.supply);
        }
    }

    #[test]
    fn no_transition_creates_two_suppliers() {
        // After any snoop, at most the snooped cache supplies; and a read
        // leaves at most one dirty owner in the system (the supplier).
        for s in ALL {
            let a = snoop_transition(s, Read);
            if a.supply {
                assert_eq!(a.next, Owned);
            } else {
                assert!(!a.next.dirty());
            }
        }
    }

    #[test]
    fn all_and_index_agree() {
        assert_eq!(MoesiState::ALL, ALL);
        for (i, s) in MoesiState::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn display_letters() {
        let letters: String = ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(letters, "MOESI");
    }
}
