//! A minimal hand-rolled JSON value type, serializer and parser.
//!
//! The workspace has no dependencies outside the standard library, so the
//! machine-readable sweep results (`--json`) and checkpoints use this
//! instead of serde. Design constraints, in order:
//!
//! 1. **Deterministic bytes** — object keys keep insertion order and
//!    numbers have one canonical rendering, so two identical sweeps (at
//!    any `--jobs` level) serialize byte-identically and goldens diff
//!    cleanly.
//! 2. **Round-trip fixed point** — `serialize(parse(serialize(v)))`
//!    equals `serialize(v)`: integers in the safe `i64`/f64 range print
//!    without a fraction, everything else uses Rust's shortest-round-trip
//!    `f64` formatting.
//! 3. **Cheap on the checkpoint path** — a checkpoint is tens of
//!    kilobytes, mostly small integers (a cache's lines are four columns
//!    of numbers: slot, tag, state and LRU stamp), written on every save
//!    and read back on every resume. Building, parsing and dropping a
//!    tree costs one allocation per container and per string value, and
//!    none per object key:
//!    - an object key is a [`Key`], which holds up to 22 bytes inline
//!      (every key nisim writes fits: the longest,
//!      `bus_block_transactions`, is 22) and puts a longer one on the
//!      heap;
//!    - the parser collects each open array's elements and each open
//!      object's members in a scratch vector, taken from one of two pools
//!      and returned empty with its capacity, and when the container
//!      closes moves them in one copy into a vector of exactly their
//!      number, so no container grows by reallocation or keeps spare
//!      capacity.
//!
//!    The common cases of text take fast paths:
//!    - an integral number of magnitude at most 2^53 is written from a
//!      stack digit buffer in one append, without `core::fmt`;
//!    - the parser reads an optional `-` and 1–15 digits that no `.`,
//!      `e` or `E` follows straight into an integer, which is exact in
//!      an `f64`; every other number goes through `str::parse::<f64>`;
//!    - a string without escapes is written with one `push_str`, and a
//!      parsed string is built from slices of the input `&str`, which is
//!      UTF-8 already;
//!    - integrality is a round trip through an integer type, so neither
//!      side calls libm's `trunc` (`f64::fract`).
//!
//!    The fast paths change no byte written and no value or error read:
//!    `tests/tests/json_reference.rs` keeps the plain writer and parser
//!    they replaced and compares both directions against it on seeded
//!    documents, their truncations and bit flips, keys on both sides of
//!    the inline limit, and the four committed goldens. No streaming, no
//!    SIMD, no `unsafe`.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Deref;

/// A JSON value. Objects preserve insertion order (determinism).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values are rejected at serialization time.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(Key, Json)>),
}

/// The longest [`Key`] stored inline, in bytes.
const INLINE_KEY: usize = 22;

/// An object key: a string of up to 22 bytes is stored inline, a longer
/// one on the heap. It reads as a `str` ([`Deref`]), compares by its
/// bytes and prints as a `String` would.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    /// The first `len` bytes of `bytes` are the key's UTF-8.
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY],
    },
    Heap(Box<str>),
}

impl Key {
    /// The key as a string slice.
    #[expect(
        clippy::expect_used,
        reason = "an inline key is a copy of a whole `str`"
    )]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyRepr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline keys hold UTF-8")
            }
            KeyRepr::Heap(s) => s,
        }
    }

    /// The key's UTF-8 bytes, read without the check `as_str` makes.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            KeyRepr::Heap(s) => s.as_bytes(),
        }
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        if s.len() > INLINE_KEY {
            return Key(KeyRepr::Heap(s.into()));
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        // At most 22, so the length fits a `u8`.
        let len = s.len() as u8;
        Key(KeyRepr::Inline { len, bytes })
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        if s.len() <= INLINE_KEY {
            Key::from(s.as_str())
        } else {
            Key(KeyRepr::Heap(s.into_boxed_str()))
        }
    }
}

impl Deref for Key {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a key/value pair (builder style). Panics on non-objects.
    #[expect(
        clippy::panic,
        reason = "documented: set on a non-object is a caller bug, never bad input"
    )]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((Key::from(key), value.into())),
            other => panic!("set on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `as` truncates toward zero, so only an integer survives the
            // round trip; NaN fails the range test.
            Json::Num(x) if (0.0..=MAX_SAFE_INT).contains(x) => {
                let n = *x as u64;
                (n as f64 == *x).then_some(n)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format committed goldens use, chosen so `git diff` stays
    /// readable.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_string(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, indent, depth + 1);
            }),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Largest integer exactly representable in an `f64`.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Encodes a `u64` as a fixed-width hex string.
///
/// JSON numbers here are `f64`-backed and therefore capped at 2^53;
/// checkpoints use this for full-range values (RNG state, config
/// fingerprints) that must round-trip bit-exactly.
pub fn u64_hex(x: u64) -> String {
    format!("{x:016x}")
}

/// Parses a [`u64_hex`] string back. Rejects anything that is not
/// exactly 16 hex digits, so the encoding stays canonical.
pub fn u64_from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Encodes an `f64` as the hex bit pattern of its IEEE-754
/// representation. The serializer rejects non-finite numbers, and a
/// decimal rendering would lose the ±∞ sentinels and exact accumulator
/// values checkpoints must preserve — the bit pattern loses nothing.
pub fn f64_bits_hex(x: f64) -> String {
    u64_hex(x.to_bits())
}

/// Parses an [`f64_bits_hex`] string back, bit-exactly.
pub fn f64_from_bits_hex(s: &str) -> Option<f64> {
    u64_from_hex(s).map(f64::from_bits)
}

fn write_number(out: &mut String, x: f64) {
    assert!(x.is_finite(), "JSON cannot represent {x}");
    if x.abs() <= MAX_SAFE_INT && (x as i64) as f64 == x {
        // Canonical integer rendering ("5", never "5.0"), so
        // serialize -> parse -> serialize is a fixed point.
        write_integer(out, x as i64);
    } else {
        // Rust's shortest-round-trip rendering is itself a fixed point.
        let _ = write!(out, "{x}");
    }
}

/// The two ASCII digits of each of 00..=99, in order.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `n` in decimal, as `{}` would: the digits are produced two at
/// a time, back to front, into a stack buffer that is appended at once.
/// The ASCII bytes go in as `char`s, so no UTF-8 check runs.
fn write_integer(out: &mut String, n: i64) {
    // A sign and the 19 digits of `i64::MIN`.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + rest as u8;
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Plain bytes are copied a run at a time. Every byte that needs an
    // escape is ASCII, so each run starts and ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `n` spaces without allocating.
fn write_indent(out: &mut String, mut n: usize) {
    const SPACES: &str = "                                ";
    while n > SPACES.len() {
        out.push_str(SPACES);
        n -= SPACES.len();
    }
    out.push_str(&SPACES[..n]);
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            write_indent(out, step * (depth + 1));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        write_indent(out, step * depth);
    }
    out.push(close);
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

/// The deepest nesting [`parse`] accepts. The parser recurses once per
/// array or object, so unbounded input would overflow the stack; every
/// document nisim writes nests at most 10 deep.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (exactly one value plus whitespace).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, trailing garbage or
/// arrays and objects nested more than 128 deep.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        items: Vec::new(),
        members: Vec::new(),
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// Empty scratch vectors for the elements of an open array, kept
    /// with their capacity; an array takes one and gives it back.
    items: Vec<Vec<Json>>,
    /// The same for the members of an open object.
    members: Vec<Vec<(Key, Json)>>,
}

/// The entries of `scratch`, moved into a vector of exactly their
/// number; `scratch` goes back to `pool` empty, keeping its capacity.
fn take_exact<T>(mut scratch: Vec<T>, pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(scratch.len());
    out.append(&mut scratch);
    pool.push(scratch);
    out
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    /// The error of a failed [`Parser::expect`], kept out of line (and
    /// its `format!` with it) so the check itself stays small.
    #[cold]
    fn expected(&self, b: u8) -> JsonError {
        self.err(&format!("expected {:?}", b as char))
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, JsonError>) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    /// Parses an array; [`Parser::value`] has seen its `[`.
    fn array(&mut self) -> Result<Json, JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let mut items = self.items.pop().unwrap_or_default();
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(take_exact(items, &mut self.items)));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parses an object; [`Parser::value`] has seen its `{`.
    fn object(&mut self) -> Result<Json, JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let mut members = self.members.pop().unwrap_or_default();
        loop {
            self.skip_ws();
            let key = match self.string()? {
                Cow::Borrowed(s) => Key::from(s),
                Cow::Owned(s) => Key::from(s),
            };
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(take_exact(members, &mut self.members)));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Reads a string: a slice of the input when it has no escapes, else
    /// the unescaped copy.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // A run starts and ends beside an ASCII byte (or at the end
            // of the input), so it is a slice on char boundaries.
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    // `s` is empty only before the first escape: a string
                    // without escapes is its one run.
                    if s.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    s.push_str(run);
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    s.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by our writer;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 3; // the final +1 below covers the 4th
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut n: u64 = 0;
        while let Some(c) = self.peek().filter(u8::is_ascii_digit) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
            self.pos += 1;
        }
        // An integer of at most 15 digits is below 2^53, so `n` is exact
        // in an f64 and is the value `str::parse` would round to ("-0"
        // included: it negates to -0.0).
        if (1..=15).contains(&(self.pos - digits))
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))
        {
            let x = n as f64;
            return Ok(Json::Num(if negative { -x } else { x }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_access() {
        let v = Json::obj()
            .set("name", "fig3a")
            .set("n", 3u64)
            .set("ok", true)
            .set("items", Json::Arr(vec![Json::Num(1.5), Json::Null]));
        assert_eq!(v.get("name").unwrap().as_str(), Some("fig3a"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(5.0).to_compact(), "5");
        assert_eq!(Json::Num(-2.0).to_compact(), "-2");
        assert_eq!(Json::Num(0.5).to_compact(), "0.5");
        // Rust's f64 Display is always decimal notation; huge integral
        // values fall through to it (decimal still parses back exactly).
        let huge = Json::Num(1e300).to_compact();
        assert!(huge.starts_with('1') && huge.len() == 301, "{huge}");
        assert_eq!(parse(&huge).unwrap(), Json::Num(1e300));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f→";
        let out = Json::Str(s.to_string()).to_compact();
        assert_eq!(parse(&out).unwrap().as_str(), Some(s));
    }

    #[test]
    fn parse_accepts_standard_forms() {
        let v = parse(r#" { "a": [1, 2.5, -3e2], "b": {"c": null}, "d": false } "#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(false));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::obj());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        let limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&limit).is_ok());
        let ten = "[".repeat(9) + r#"{"k":1}"# + &"]".repeat(9);
        assert!(parse(&ten).is_ok());
    }

    #[test]
    fn serialize_parse_serialize_is_a_fixed_point() {
        let v = Json::obj()
            .set("int", 42u64)
            .set("neg", Json::Num(-7.0))
            .set("frac", 0.1 + 0.2)
            .set("tiny", 1.0e-12)
            .set("s", "x\"\\\ny")
            .set(
                "nest",
                Json::Arr(vec![Json::obj().set("k", 3.25), Json::Bool(false)]),
            );
        for render in [Json::to_compact, Json::to_pretty] {
            let once = render(&v);
            let twice = render(&parse(&once).unwrap());
            assert_eq!(once, twice);
        }
    }

    #[test]
    fn pretty_is_parseable_and_indented() {
        let v = Json::obj().set("a", Json::Arr(vec![Json::Num(1.0)]));
        let s = v.to_pretty();
        assert!(s.contains("\n  \"a\": [\n    1\n  ]\n"), "{s}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn u64_bounds() {
        assert_eq!(Json::Num(9007199254740992.0).as_u64(), Some(1 << 53));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    #[should_panic(expected = "JSON cannot represent")]
    fn non_finite_numbers_panic() {
        let _ = Json::Num(f64::NAN).to_compact();
    }

    #[test]
    fn hex_codecs_round_trip_bit_exactly() {
        for x in [0u64, 1, u64::MAX, 0x5eed, 1 << 63] {
            assert_eq!(u64_from_hex(&u64_hex(x)), Some(x));
        }
        for f in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1e-300] {
            let back = f64_from_bits_hex(&f64_bits_hex(f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
        assert_eq!(u64_from_hex("abc"), None, "short strings rejected");
        assert_eq!(u64_from_hex("00000000000000zz"), None);
        assert_eq!(u64_from_hex("+000000000000001"), None, "signs rejected");
    }
}
