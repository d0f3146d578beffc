//! [`IdWindow`]: values keyed by the ids one node mints in ascending
//! order, found by offset instead of by search.
//!
//! A node's in-flight fragments and transfers are keyed by ids it
//! allocates one after another, and at any moment the live ones are
//! nearly all among the newest few dozen. So the window keeps a slot for
//! each of the newest [`WINDOW`] ids, at index `id - base`, and an
//! ordered map for the rare live id older than that: a fragment the
//! reliability layer gave up on, or a transfer that outlived many newer
//! ones. Memory follows the live entries, never the distance between
//! ids: at most [`WINDOW`] slots plus the older entries, however far
//! apart two ids are (restore decodes ids from outside input).

use std::collections::{BTreeMap, VecDeque};

use nisim_engine::codec::{self, Codec, DecodeError};
use nisim_engine::Json;

/// How many of the newest ids get a slot. On the benchmark's four
/// workloads one node's live outstanding fragments never span more than
/// 99 ids, so every ack, return and retry indexes a slot. Its in-flight
/// transfers span up to 439 ids (paper grid); the few start times left
/// behind wait in the older map: 411 per em3d-long rep, 3,311 per
/// paper-grid rep, none on traffic-ladder. Larger windows were not
/// measured.
pub const WINDOW: usize = 128;

/// A map from ascending node-minted ids to values: slots for ids in
/// `[base, base + slots.len())`, an ordered map for live ids below
/// `base`. Iteration, and so the encoding, is ascending by id.
#[derive(Debug)]
pub struct IdWindow<V> {
    /// The id of `slots[0]`.
    base: u64,
    /// At most [`WINDOW`] slots; the first and last are occupied
    /// whenever there are any.
    slots: VecDeque<Option<V>>,
    /// Live ids below `base`.
    older: BTreeMap<u64, V>,
    /// Live ids in `slots` and `older` together.
    len: usize,
}

impl<V> Default for IdWindow<V> {
    fn default() -> IdWindow<V> {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            older: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<V> IdWindow<V> {
    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot of `id`, if `id` lies inside the window.
    fn slot(&self, id: u64) -> Option<&Option<V>> {
        let at = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get(at)
    }

    fn slot_mut(&mut self, id: u64) -> Option<&mut Option<V>> {
        let at = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(at)
    }

    /// The value of `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        if id < self.base {
            self.older.get(&id)
        } else {
            self.slot(id)?.as_ref()
        }
    }

    /// The value of `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        if id < self.base {
            self.older.get_mut(&id)
        } else {
            self.slot_mut(id)?.as_mut()
        }
    }

    /// True if `id` is live.
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Sets `id` to `value`, returning the value it replaces. The next
    /// id past the window is one push; an id [`WINDOW`] or more past
    /// `base` slides the window up to it, and an id below `base` goes to
    /// the older map.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let Some(mut at) = id.checked_sub(self.base) else {
            let old = self.older.insert(id, value);
            self.len += usize::from(old.is_none());
            return old;
        };
        if self.slots.is_empty() {
            self.base = id;
            at = 0;
        } else if at >= WINDOW as u64 {
            self.slide(id);
            at = id - self.base;
        }
        // `at < WINDOW` here, so the cast cannot truncate.
        let at = at as usize;
        if let Some(slot) = self.slots.get_mut(at) {
            let old = slot.replace(value);
            self.len += usize::from(old.is_none());
            return old;
        }
        self.slots.resize_with(at, || None);
        self.slots.push_back(Some(value));
        self.len += 1;
        None
    }

    /// Moves the window's front up until `id` fits in it, moving the
    /// live slots that fall out to the older map; a window left empty
    /// jumps straight to `id`. Touches at most [`WINDOW`] slots.
    fn slide(&mut self, id: u64) {
        let front = id - (WINDOW as u64 - 1);
        while self.base < front {
            match self.slots.pop_front() {
                Some(Some(value)) => {
                    self.older.insert(self.base, value);
                }
                Some(None) => {}
                None => break,
            }
            self.base += 1;
        }
        self.trim();
        if self.slots.is_empty() {
            self.base = id;
        }
    }

    /// Removes `id`, returning its value.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let value = if id < self.base {
            self.older.remove(&id)
        } else {
            let value = self.slot_mut(id)?.take();
            self.trim();
            value
        };
        self.len -= usize::from(value.is_some());
        value
    }

    /// Removes `id` without moving its value out; true if it was live.
    pub fn discard(&mut self, id: u64) -> bool {
        let found = if id < self.base {
            self.older.remove(&id).is_some()
        } else {
            match self.slot_mut(id) {
                Some(slot) if slot.is_some() => {
                    *slot = None;
                    self.trim();
                    true
                }
                _ => false,
            }
        };
        self.len -= usize::from(found);
        found
    }

    /// Drops empty slots from both ends, advancing `base` past the
    /// front ones.
    fn trim(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base = self.base.saturating_add(1);
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
    }

    /// Every live `(id, value)`, ids ascending: the older map, then the
    /// slots.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let slots = self.slots.iter().enumerate();
        let slots = slots.filter_map(|(i, v)| Some((self.base + i as u64, v.as_ref()?)));
        self.older.iter().map(|(&id, v)| (id, v)).chain(slots)
    }
}

impl<V> FromIterator<(u64, V)> for IdWindow<V> {
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(entries: I) -> IdWindow<V> {
        let mut window = IdWindow::default();
        for (id, value) in entries {
            window.insert(id, value);
        }
        window
    }
}

/// Encoded as a `BTreeMap<u64, V>` is: `[[id, value], …]`, ids strictly
/// ascending.
impl<V: Codec> Codec for IdWindow<V> {
    fn encode(&self) -> Json {
        let entry = |(id, v): (u64, &V)| Json::Arr(vec![id.encode(), v.encode()]);
        Json::Arr(self.iter().map(entry).collect())
    }

    fn decode(v: &Json) -> Result<IdWindow<V>, DecodeError> {
        codec::ascending(codec::decode_items::<(u64, V)>(v)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisim_engine::json;

    /// The hand-rolled generator of the repo's property tests: seeded,
    /// so a failing stream reproduces exactly.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// The window's own invariants: a bounded slot deque whose ends are
    /// occupied, older ids below `base`, and a `len` that counts both.
    fn assert_shape(w: &IdWindow<u64>, at: &str) {
        assert!(w.slots.len() <= WINDOW, "{at}: {} slots", w.slots.len());
        let ends = [w.slots.front(), w.slots.back()];
        assert!(
            ends.iter().all(|e| e.is_none_or(Option::is_some)),
            "{at}: empty end slot"
        );
        assert!(
            w.older.keys().all(|&id| id < w.base),
            "{at}: older id at or past base"
        );
        let live = w.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(w.len, live + w.older.len(), "{at}: len miscounts");
    }

    /// `w` holds exactly `reference`: same length, same ascending
    /// iteration, and a codec round trip through the text a checkpoint
    /// file holds gives the reference map's bytes back.
    fn assert_matches(w: &IdWindow<u64>, reference: &BTreeMap<u64, u64>, at: &str) {
        assert_shape(w, at);
        assert_eq!(w.len(), reference.len(), "{at}: len");
        assert_eq!(w.is_empty(), reference.is_empty(), "{at}: is_empty");
        let entries: Vec<(u64, u64)> = w.iter().map(|(id, &v)| (id, v)).collect();
        let expected: Vec<(u64, u64)> = reference.iter().map(|(&id, &v)| (id, v)).collect();
        assert_eq!(entries, expected, "{at}: iteration");
        let text = w.encode().to_compact();
        assert_eq!(text, reference.encode().to_compact(), "{at}: encoding");
        let decoded = json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|j| IdWindow::<u64>::decode(&j).map_err(|e| e.to_string()));
        let round = decoded.map(|d| d.iter().map(|(id, &v)| (id, v)).collect::<Vec<_>>());
        assert_eq!(round, Ok(expected), "{at}: codec round trip");
    }

    /// Seeded streams of every operation against a `BTreeMap` reference:
    /// next-id inserts, gaps, jumps past the window and past 2^40,
    /// re-inserts of old ids, removals of live, oldest, stale and
    /// never-inserted ids, and `get`/`get_mut`, checked after every step.
    #[test]
    fn matches_a_btreemap_on_random_streams() {
        let mut rng = Lcg(0x1d_5eed);
        for case in 0..16 {
            let mut w = IdWindow::default();
            let mut reference = BTreeMap::new();
            // Ids as a node mints them: its index in the high bits.
            let mut next = (rng.below(16) << 40) + rng.below(1 << 20);
            for step in 0..1000 {
                let at = format!("case {case} step {step}");
                // Values stay below 2^53, which JSON numbers hold exactly.
                let value = rng.below(1 << 32);
                let pick = rng.below(100);
                if pick < 33 || reference.is_empty() {
                    // The node's next id, after a gap now and then.
                    next += match rng.below(20) {
                        0 => rng.below(40),
                        1 => WINDOW as u64 + rng.below(300),
                        2 if rng.below(8) == 0 => (1 << 40) + rng.below(1000),
                        _ => 0,
                    };
                    assert_eq!(w.insert(next, value), reference.insert(next, value), "{at}");
                    next += 1;
                } else if pick < 37 {
                    // An old id, live or not: replaced or filed below base.
                    let id = next - 1 - rng.below(next.min(600));
                    assert_eq!(w.insert(id, value), reference.insert(id, value), "{at}");
                } else if pick < 85 {
                    let id = match rng.below(4) {
                        // A live id.
                        0 | 1 => {
                            let k = rng.below(reference.len() as u64) as usize;
                            reference.keys().nth(k).copied().unwrap_or(next)
                        }
                        // The oldest live id.
                        2 => reference.keys().next().copied().unwrap_or(next),
                        // Removed already, skipped in a gap, or never minted.
                        _ => next - 1 - rng.below(next.min(400)) + rng.below(3) * 200,
                    };
                    let want = reference.remove(&id);
                    if rng.below(2) == 0 {
                        assert_eq!(w.remove(id), want, "{at}: remove {id}");
                    } else {
                        assert_eq!(w.discard(id), want.is_some(), "{at}: discard {id}");
                    }
                } else {
                    let id = if rng.below(2) == 0 {
                        let k = rng.below(reference.len() as u64) as usize;
                        reference.keys().nth(k).copied().unwrap_or(next)
                    } else {
                        next - rng.below(next.min(300))
                    };
                    assert_eq!(w.get(id), reference.get(&id), "{at}: get {id}");
                    assert_eq!(w.contains_key(id), reference.contains_key(&id), "{at}");
                    if let (Some(a), Some(b)) = (w.get_mut(id), reference.get_mut(&id)) {
                        *a ^= value;
                        *b ^= value;
                    }
                    assert_eq!(w.get(id), reference.get(&id), "{at}: get_mut {id}");
                }
                assert_matches(&w, &reference, &at);
            }
        }
    }

    /// A slide keeps a slot for each of the newest [`WINDOW`] ids and
    /// files only the older live ones in the map.
    #[test]
    fn the_newest_ids_keep_their_slots() {
        let mut w = IdWindow::default();
        for id in 0..3 * WINDOW as u64 {
            w.insert(id, id);
            let slotted = (id + 1).min(WINDOW as u64);
            assert_eq!((w.slots.len() as u64, w.base), (slotted, id + 1 - slotted));
        }
        assert!(w.iter().map(|(id, _)| id).eq(0..3 * WINDOW as u64));
    }

    /// Memory follows the live entries, not the distance between ids: two
    /// ids 10^12 apart cost one slot and one older entry.
    #[test]
    fn far_apart_ids_cost_no_slots_between_them() {
        let mut w = IdWindow::default();
        w.insert(5, 1u64);
        w.insert(5 + 1_000_000_000_000, 2);
        assert_eq!((w.slots.len(), w.older.len(), w.len()), (1, 1, 2));
        assert_eq!((w.get(5), w.get(1_000_000_000_005)), (Some(&1), Some(&2)));
        // Emptying the window lets the next id start it afresh.
        assert!(w.discard(1_000_000_000_005));
        w.insert(2_000_000_000_000, 3);
        assert_eq!((w.slots.len(), w.base), (1, 2_000_000_000_000));
    }

    /// Restore reads the same array a `BTreeMap` would, with the same
    /// errors on every malformed input.
    #[test]
    fn decode_errors_match_the_btreemap_codec() {
        for text in [
            "[[3,1],[2,1]]",
            "[[2,1],[2,1]]",
            "[[1,1],[1000000000000,1],[7,1]]",
            "{}",
            "[[1]]",
            "[[1,-1]]",
            "[[1,1],[2,\"x\"]]",
        ] {
            let v = json::parse(text).map_err(|e| e.to_string());
            let window = v
                .clone()
                .map(|v| IdWindow::<u64>::decode(&v).map(|w| w.len()));
            let map = v.map(|v| BTreeMap::<u64, u64>::decode(&v).map(|m| m.len()));
            assert_eq!(window, map, "{text}");
            assert!(matches!(window, Ok(Err(_))), "{text} must be rejected");
        }
    }
}
