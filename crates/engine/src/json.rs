//! A minimal hand-rolled JSON value type, serializer and parser.
//!
//! The build container has no access to crates.io, so the machine-readable
//! sweep results (`--json`) use this instead of serde. Design constraints,
//! in order:
//!
//! 1. **Deterministic bytes** — object keys keep insertion order and
//!    numbers have one canonical rendering, so two identical sweeps (at
//!    any `--jobs` level) serialize byte-identically and goldens diff
//!    cleanly.
//! 2. **Round-trip fixed point** — `serialize(parse(serialize(v)))`
//!    equals `serialize(v)`: integers in the safe `i64`/f64 range print
//!    without a fraction, everything else uses Rust's shortest-round-trip
//!    `f64` formatting.
//! 3. **Small** — just enough JSON for the sweep records; no streaming,
//!    no SIMD, no tricks.

use std::fmt::Write as _;

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
    Obj(Vec<(String, Json)>),
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
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
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
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_SAFE_INT => Some(*x as u64),
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
    if x.fract() == 0.0 && x.abs() <= MAX_SAFE_INT {
        // Canonical integer rendering ("5", never "5.0"), so
        // serialize -> parse -> serialize is a fixed point.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest-round-trip rendering is itself a fixed point.
        let _ = write!(out, "{x}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
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
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
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
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
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

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
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
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
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
