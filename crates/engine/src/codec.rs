//! The checkpoint state codec: one [`Codec`] trait for values that
//! encode to and decode from [`Json`], and the [`state_fields!`](crate::state_fields) field
//! list that gives a struct both directions from one list of fields.
//!
//! Decoding is strict and canonical: objects must hold exactly the
//! listed keys in the listed order, map keys must ascend, and narrowed
//! integers must fit. A failure is a [`DecodeError`] that carries the
//! JSON path to the offending value, built up as the error unwinds
//! (`machine.nodes[2].hw.cache.lines[7]: ...`), so hostile input yields
//! a typed error naming where it went wrong instead of a panic.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::json::{u64_from_hex, u64_hex, Json};
use crate::rng::SplitMix64;
use crate::stats::Counter;
use crate::time::{Dur, Time};

/// A decode failure: what was wrong, and the JSON path where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    path: String,
    what: String,
}

impl DecodeError {
    /// An error at the current value.
    pub fn new(what: impl Into<String>) -> DecodeError {
        DecodeError {
            path: String::new(),
            what: what.into(),
        }
    }

    /// The same error, seen from the object holding it under `key`.
    pub fn in_key(self, key: &str) -> DecodeError {
        self.within(key.to_string())
    }

    /// The same error, seen from the array holding it at `index`.
    pub fn in_index(self, index: usize) -> DecodeError {
        self.within(format!("[{index}]"))
    }

    fn within(mut self, segment: String) -> DecodeError {
        let dot = !self.path.is_empty() && !self.path.starts_with('[');
        self.path = format!("{segment}{}{}", if dot { "." } else { "" }, self.path);
        self
    }

    /// The JSON path, e.g. `machine.nodes[2].hw` (empty at the root).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.as_str() {
            "" => f.write_str(&self.what),
            path => write!(f, "{path}: {}", self.what),
        }
    }
}

impl std::error::Error for DecodeError {}

/// `Ok(())` if `cond` holds, else a [`DecodeError`] saying `what`.
pub fn ensure(cond: bool, what: impl Into<String>) -> Result<(), DecodeError> {
    if cond {
        Ok(())
    } else {
        Err(DecodeError::new(what))
    }
}

/// A value with one JSON encoding and a decoder that accepts exactly
/// the canonical encodings of valid values.
pub trait Codec: Sized {
    /// The JSON encoding.
    fn encode(&self) -> Json;
    /// Parses [`Codec::encode`] output back.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on any value `encode` cannot produce.
    fn decode(v: &Json) -> Result<Self, DecodeError>;
}

/// Codecs for values stored as one non-negative integer: the value's
/// `u64`, and a constructor that fails on numbers out of range.
macro_rules! integer_codec {
    ($($ty:ty: $to:expr, $from:expr;)*) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Json {
                Json::from(($to)(self))
            }
            fn decode(v: &Json) -> Result<$ty, DecodeError> {
                let n = v.as_u64();
                let n = n.ok_or_else(|| DecodeError::new("expected a non-negative integer"))?;
                let range = concat!("out of range for ", stringify!($ty));
                ($from)(n).ok_or_else(|| DecodeError::new(range))
            }
        }
    )*};
}

integer_codec! {
    u64: |x: &u64| *x, Some;
    u32: |x: &u32| u64::from(*x), |n| u32::try_from(n).ok();
    u8: |x: &u8| u64::from(*x), |n| u8::try_from(n).ok();
    usize: |x: &usize| *x as u64, |n| usize::try_from(n).ok();
    Time: |t: &Time| t.as_ns(), |n| Some(Time::from_ns(n));
    Dur: |d: &Dur| d.as_ns(), |n| Some(Dur::ns(n));
    Counter: |c: &Counter| c.get(), |n| {
        let mut c = Counter::new();
        c.add(n);
        Some(c)
    };
}

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(v: &Json) -> Result<bool, DecodeError> {
        v.as_bool()
            .ok_or_else(|| DecodeError::new("expected a bool"))
    }
}

impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }
    fn decode(v: &Json) -> Result<f64, DecodeError> {
        v.as_f64()
            .ok_or_else(|| DecodeError::new("expected a number"))
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(v: &Json) -> Result<String, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DecodeError::new("expected a string"))
    }
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }
    fn decode(v: &Json) -> Result<Option<T>, DecodeError> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

/// Checkpoint state restored in place, into a value already built from
/// the configuration (a cache keeps its geometry, a bus its timing).
/// Every [`Codec`] value is trivially one: it is replaced whole.
pub trait State {
    /// Serialises the state.
    fn snapshot(&self) -> Json;
    /// Restores state written by [`State::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns the path and reason of the first invalid value; `self`
    /// is then unspecified and must be discarded.
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError>;
}

impl<T: Codec> State for T {
    fn snapshot(&self) -> Json {
        self.encode()
    }
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        *self = T::decode(v)?;
        Ok(())
    }
}

/// Restores each of `items` in place from the same-length array `v`.
///
/// # Errors
///
/// Fails on a length mismatch or on the first element that fails,
/// naming its index.
pub fn restore_each<T: State>(items: &mut [T], v: &Json) -> Result<(), DecodeError> {
    let values = array_of(v, items.len())?;
    for (i, (item, value)) in items.iter_mut().zip(values).enumerate() {
        item.restore(value).map_err(|e| e.in_index(i))?;
    }
    Ok(())
}

/// The elements of a JSON array, or a [`DecodeError`].
pub fn array(v: &Json) -> Result<&[Json], DecodeError> {
    v.as_arr()
        .ok_or_else(|| DecodeError::new("expected an array"))
}

/// The elements of a JSON array of exactly `len` elements.
pub fn array_of(v: &Json, len: usize) -> Result<&[Json], DecodeError> {
    let items = array(v)?;
    if items.len() == len {
        Ok(items)
    } else {
        let found = items.len();
        Err(DecodeError::new(format!(
            "expected {len} elements, found {found}"
        )))
    }
}

/// Decodes every element of an array, naming a failing element's index.
pub fn decode_items<'a, T: Codec + 'a>(
    v: &'a Json,
) -> Result<impl Iterator<Item = Result<T, DecodeError>> + 'a, DecodeError> {
    let items = array(v)?.iter().enumerate();
    Ok(items.map(|(i, item)| T::decode(item).map_err(|e| e.in_index(i))))
}

macro_rules! sequence_codec {
    ($($seq:ident),*) => {$(
        impl<T: Codec> Codec for $seq<T> {
            fn encode(&self) -> Json {
                Json::Arr(self.iter().map(T::encode).collect())
            }
            fn decode(v: &Json) -> Result<$seq<T>, DecodeError> {
                decode_items(v)?.collect()
            }
        }
    )*};
}

sequence_codec!(Vec, VecDeque);

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Json) -> Result<[T; N], DecodeError> {
        let items: Vec<T> = Codec::decode(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DecodeError::new(format!("expected {N} elements, found {len}")))
    }
}

/// A map is an array of `[key, value]` pairs in strictly ascending key
/// order — the order a `BTreeMap` iterates in, so a repeated or
/// reordered key is rejected rather than silently merged.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.encode(), v.encode()]))
                .collect(),
        )
    }
    fn decode(v: &Json) -> Result<BTreeMap<K, V>, DecodeError> {
        ascending(decode_items::<(K, V)>(v)?)
    }
}

/// A set is an array in strictly ascending order.
impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Json) -> Result<BTreeSet<T>, DecodeError> {
        let map: BTreeMap<T, ()> = ascending(decode_items::<T>(v)?.map(|r| r.map(|t| (t, ()))))?;
        Ok(map.into_keys().collect())
    }
}

/// Collects decoded `(key, value)` entries into a map, rejecting any key
/// that does not strictly ascend.
pub fn ascending<K: Ord, V, C: FromIterator<(K, V)>>(
    entries: impl Iterator<Item = Result<(K, V), DecodeError>>,
) -> Result<C, DecodeError> {
    let mut out: Vec<(K, V)> = Vec::new();
    for (i, entry) in entries.enumerate() {
        let (k, v) = entry?;
        if out.last().is_some_and(|(prev, _)| *prev >= k) {
            return Err(DecodeError::new("key out of ascending order").in_index(i));
        }
        out.push((k, v));
    }
    Ok(out.into_iter().collect())
}

macro_rules! tuple_codec {
    ($n:literal; $($t:ident $i:tt),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn encode(&self) -> Json {
                Json::Arr(vec![$(self.$i.encode()),+])
            }
            fn decode(v: &Json) -> Result<Self, DecodeError> {
                let items = array_of(v, $n)?;
                Ok(($($t::decode(&items[$i]).map_err(|e| e.in_index($i))?,)+))
            }
        }
    };
}
tuple_codec!(2; A 0, B 1);
tuple_codec!(3; A 0, B 1, C 2);
tuple_codec!(4; A 0, B 1, C 2, D 3);
tuple_codec!(5; A 0, B 1, C 2, D 3, E 4);

/// The generator state, as the 16-hex-digit string of [`u64_hex`] (JSON
/// numbers stop at 2^53).
impl Codec for SplitMix64 {
    fn encode(&self) -> Json {
        Json::Str(u64_hex(self.state()))
    }
    fn decode(v: &Json) -> Result<SplitMix64, DecodeError> {
        v.as_str()
            .and_then(u64_from_hex)
            .map(SplitMix64::from_state)
            .ok_or_else(|| DecodeError::new("expected 16 hex digits"))
    }
}

/// A strict reader over one JSON object: each key must be asked for in
/// the order it was written, and [`Fields::finish`] rejects leftovers.
pub struct Fields<'a> {
    pairs: &'a [(String, Json)],
    next: usize,
}

impl<'a> Fields<'a> {
    /// Starts reading `v`, which must be an object.
    pub fn of(v: &'a Json) -> Result<Fields<'a>, DecodeError> {
        match v {
            Json::Obj(pairs) => Ok(Fields { pairs, next: 0 }),
            _ => Err(DecodeError::new("expected an object")),
        }
    }

    /// The raw value under `key`, if `key` is the next key.
    pub fn optional(&mut self, key: &str) -> Option<&'a Json> {
        let (k, v) = self.pairs.get(self.next)?;
        (k == key).then(|| {
            self.next += 1;
            v
        })
    }

    /// Runs `f` on the value under `key`, which must be the next key;
    /// an error from `f` is reported under `key`.
    pub fn with<T>(
        &mut self,
        key: &str,
        f: impl FnOnce(&'a Json) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let v = self
            .optional(key)
            .ok_or_else(|| DecodeError::new(format!("missing key `{key}`")))?;
        f(v).map_err(|e| e.in_key(key))
    }

    /// The string under `key` (an enum's variant tag), which must be the
    /// next key.
    pub fn tag(&mut self, key: &str) -> Result<&'a str, DecodeError> {
        self.with(key, |j| {
            j.as_str()
                .ok_or_else(|| DecodeError::new("expected a string"))
        })
    }

    /// Decodes the value under `key`, which must be the next key.
    pub fn get<T: Codec>(&mut self, key: &str) -> Result<T, DecodeError> {
        self.with(key, T::decode)
    }

    /// Ends the read, failing if a key was left unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.pairs.get(self.next) {
            None => Ok(()),
            Some((k, _)) => Err(DecodeError::new(format!("unexpected key `{k}`"))),
        }
    }
}

/// Declares a struct's checkpoint state as one field list and expands
/// to both directions: `snapshot(&self) -> Json` writes an object with
/// one key per entry, in order, and `restore(&mut self, &Json)` reads
/// exactly those keys back into place. Use it inside an `impl` block
/// (inherent or trait); a leading `pub` applies to both methods.
///
/// Each entry is `key` (stored at `self.key`) or `key: a.b` (stored at
/// `self.a.b`); every stored type implements [`State`] — any [`Codec`]
/// value, or a part restored in place. An optional
/// trailing `check |s| ...` validates the restored value as a whole and
/// is where a type keeps its own invariants, beside its field list.
///
/// ```
/// use nisim_engine::codec::{ensure, DecodeError};
/// use nisim_engine::{state_fields, Json, Time};
///
/// #[derive(Default)]
/// struct Port { free_at: Time, stats: Stats }
/// #[derive(Default)]
/// struct Stats { sent: u64, acked: u64 }
///
/// impl Port {
///     state_fields!(pub { free_at, sent: stats.sent, acked: stats.acked }
///         check |p: &Port| ensure(p.stats.acked <= p.stats.sent, "more acks than sends"));
/// }
///
/// let mut p = Port::default();
/// p.stats.sent = 3;
/// let snap = p.snapshot();
/// assert_eq!(snap.to_compact(), r#"{"free_at":0,"sent":3,"acked":0}"#);
/// let mut q = Port::default();
/// q.restore(&snap).unwrap();
/// assert_eq!(q.stats.sent, 3);
/// let bad = nisim_engine::json::parse(r#"{"free_at":0,"sent":1,"acked":2}"#).unwrap();
/// assert_eq!(q.restore(&bad).unwrap_err().to_string(), "more acks than sends");
/// ```
#[macro_export]
macro_rules! state_fields {
    (pub { $($body:tt)* } $($rest:tt)*) => {
        $crate::state_fields!(@impl (pub) { $($body)* } $($rest)*);
    };
    ({ $($body:tt)* } $($rest:tt)*) => {
        $crate::state_fields!(@impl () { $($body)* } $($rest)*);
    };
    (@impl ($($vis:tt)*) { $($key:ident $(: $($place:ident).+)?),* $(,)? }
        $(check $check:expr)?) => {
        /// Serialises the checkpoint state (see [`state_fields!`]).
        $($vis)* fn snapshot(&self) -> $crate::Json {
            $crate::Json::Obj(vec![$((
                stringify!($key).to_string(),
                $crate::codec::State::snapshot(&$crate::state_place!(self, $key $(, $($place).+)?)),
            )),*])
        }

        /// Restores state written by `snapshot` into a value built from
        /// the same configuration.
        ///
        /// # Errors
        ///
        /// Returns the path and reason of the first invalid value.
        $($vis)* fn restore(
            &mut self,
            v: &$crate::Json,
        ) -> ::std::result::Result<(), $crate::codec::DecodeError> {
            #[allow(unused_mut, reason = "a field list with no entries never mutates `fields`")]
            let mut fields = $crate::codec::Fields::of(v)?;
            $(fields.with(stringify!($key), |j| {
                let place = &mut $crate::state_place!(self, $key $(, $($place).+)?);
                $crate::codec::State::restore(place, j)
            })?;)*
            fields.finish()?;
            $(($check)(&*self)?;)?
            Ok(())
        }
    };
}

/// The place one [`state_fields!`] entry names (an implementation
/// detail of that macro).
#[doc(hidden)]
#[macro_export]
macro_rules! state_place {
    ($s:ident, $key:ident) => {
        $s.$key
    };
    ($s:ident, $key:ident, $($place:ident).+) => {
        $s.$($place).+
    };
}

/// Implements [`Codec`] for a plain struct whose every field is listed:
/// `{ a, b }` encodes as an object with those keys, `[a, b]` as an
/// array in that order. An optional trailing `check |v| ...` validates
/// the decoded value.
#[macro_export]
macro_rules! struct_codec {
    ($ty:ident { $($field:ident),* $(,)? } $(check $check:expr)?) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::Json {
                $crate::Json::Obj(vec![$((
                    stringify!($field).to_string(),
                    $crate::codec::Codec::encode(&self.$field),
                )),*])
            }
            fn decode(v: &$crate::Json) -> ::std::result::Result<$ty, $crate::codec::DecodeError> {
                let mut fields = $crate::codec::Fields::of(v)?;
                let value = $ty { $($field: fields.get(stringify!($field))?),* };
                fields.finish()?;
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
    ($ty:ident [ $($field:ident),* $(,)? ] $(check $check:expr)?) => {
        impl $crate::codec::Codec for $ty {
            fn encode(&self) -> $crate::Json {
                $crate::Json::Arr(vec![$($crate::codec::Codec::encode(&self.$field)),*])
            }
            fn decode(v: &$crate::Json) -> ::std::result::Result<$ty, $crate::codec::DecodeError> {
                let mut at = $crate::codec::array_of(v, [$(stringify!($field)),*].len())?
                    .iter()
                    .enumerate();
                let mut next = || at.next().ok_or_else(|| $crate::codec::DecodeError::new("short array"));
                let value = $ty {
                    $($field: {
                        let (i, item) = next()?;
                        $crate::codec::Codec::decode(item).map_err(|e| e.in_index(i))?
                    }),*
                };
                $(($check)(&value)?;)?
                Ok(value)
            }
        }
    };
}
