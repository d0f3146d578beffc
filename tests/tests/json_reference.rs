//! The JSON writer and parser against the plain implementation their
//! fast paths replaced. `nisim_engine::json` writes integers from a
//! digit buffer, reads short integers without the float parser, copies
//! strings a run at a time, tests integrality without `f64::fract`,
//! keeps short object keys inline and sizes each parsed container from
//! scratch stacks; [`reference`] keeps the plain version (`core::fmt` for
//! every number written, `str::parse::<f64>` for every number read,
//! strings one `char` at a time, keys read as `String`s, containers grown
//! by `push`). Both must give the same bytes, the same values (numbers
//! compared by bit pattern) and the same errors, on seeded documents,
//! hand-picked number, string and key texts, truncated and bit-flipped
//! texts, nesting at the depth limit and the four committed goldens.
//! Every array and object the parser returns must hold no spare
//! capacity.
//!
//! Cases come from the shared hand-rolled `Lcg`, so failures reproduce.

use nisim_engine::codec::Fields;
use nisim_engine::json::{parse, Json, JsonError};
use nisim_integration::Lcg;

/// The writer and parser as they were before the fast paths.
mod reference {
    use std::fmt::Write as _;

    use nisim_engine::json::{Json, JsonError};

    const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0; // 2^53
    const MAX_DEPTH: usize = 128;

    pub fn as_u64(v: &Json) -> Option<u64> {
        match v {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_SAFE_INT => Some(*x as u64),
            _ => None,
        }
    }

    pub fn to_compact(v: &Json) -> String {
        let mut out = String::new();
        write(v, &mut out, None, 0);
        out
    }

    pub fn to_pretty(v: &Json) -> String {
        let mut out = String::new();
        write(v, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(v: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                write(&items[i], out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                write_string(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write(&pairs[i].1, out, indent, depth + 1);
            }),
        }
    }

    fn write_number(out: &mut String, x: f64) {
        assert!(x.is_finite(), "JSON cannot represent {x}");
        if x.fract() == 0.0 && x.abs() <= MAX_SAFE_INT {
            let _ = write!(out, "{}", x as i64);
        } else {
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
        depth: usize,
    }

    impl Parser<'_> {
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

        fn nested(
            &mut self,
            f: fn(&mut Self) -> Result<Json, JsonError>,
        ) -> Result<Json, JsonError> {
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
                pairs.push((key.into(), value));
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
                                s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                                self.pos += 3;
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
}

const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Numbers on either side of every boundary the fast paths test.
const EDGE_NUMBERS: [f64; 30] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    9.0,
    10.0,
    99.0,
    100.0,
    TWO_53,
    -TWO_53,
    TWO_53 - 1.0,
    -(TWO_53 - 1.0),
    TWO_53 + 1.0, // rounds to 2^53
    -(TWO_53 + 1.0),
    TWO_53 + 2.0,
    -(TWO_53 + 2.0),
    999_999_999_999_999.0,
    1e15,
    1e16,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN,
    0.1 + 0.2,
    1e-12,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE,
    0.5,
    -1.5,
];

/// A finite number: an edge case, an integer of random magnitude, a
/// fraction, or any finite bit pattern.
fn number(rng: &mut Lcg) -> f64 {
    match rng.below(5) {
        0 => EDGE_NUMBERS[rng.below(EDGE_NUMBERS.len() as u64) as usize],
        1 => {
            let n = (rng.next_u64() >> rng.below(64)) as f64;
            if rng.below(2) == 0 {
                n
            } else {
                -n
            }
        }
        2 => rng.float(),
        3 => rng.below(1000) as f64,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// Pieces a string is drawn from: plain text, every escape class the
/// writer knows, every other control byte, DEL and non-ASCII text of
/// every UTF-8 length.
const PIECES: [&str; 16] = [
    "plain",
    " ",
    "\"",
    "\\",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{8}\u{c}",
    "\u{0}\u{1}\u{1f}",
    "\u{7f}",
    "é",
    "→",
    "\u{80}\u{7ff}\u{800}\u{ffff}",
    "😀\u{10ffff}",
    "\u{fffd}",
];

fn string(rng: &mut Lcg) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(6) {
        match rng.below(3) {
            0 => s.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]),
            1 => s.push(char::from(rng.below(0x80) as u8)),
            _ => s.push(char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('x')),
        }
    }
    s
}

/// A document of up to `depth` more levels of arrays and objects.
fn value(rng: &mut Lcg, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.below(kinds) {
        0 => [Json::Null, Json::Bool(true), Json::Bool(false)][rng.below(3) as usize].clone(),
        1 | 2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..rng.below(6)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(6))
                .map(|_| (string(rng).into(), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Structural equality with numbers compared by bit pattern, so -0.0
/// differs from 0.0.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

/// True if every array and object in `v` has exactly the capacity of
/// its length.
fn exactly_sized(v: &Json) -> bool {
    match v {
        Json::Arr(items) => items.capacity() == items.len() && items.iter().all(exactly_sized),
        Json::Obj(pairs) => {
            pairs.capacity() == pairs.len() && pairs.iter().all(|(_, v)| exactly_sized(v))
        }
        _ => true,
    }
}

/// `parse` and the reference parser agree on `text`: the same value, or
/// the same error message at the same byte. A value `parse` returns
/// holds no spare capacity.
fn parses_alike(text: &str) {
    let ours = parse(text);
    let theirs = reference::parse(text);
    let alike = match (&ours, &theirs) {
        (Ok(a), Ok(b)) => same(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    assert!(alike, "{text:?}: {ours:?} vs reference {theirs:?}");
    if let Ok(v) = &ours {
        assert!(exactly_sized(v), "{text:?}: a container has spare capacity");
    }
}

/// Both writers give the same bytes, and both parsers read them alike.
fn round_trips_alike(v: &Json) {
    for (ours, theirs) in [
        (v.to_compact(), reference::to_compact(v)),
        (v.to_pretty(), reference::to_pretty(v)),
    ] {
        assert_eq!(ours, theirs, "{v:?}");
        parses_alike(&ours);
    }
}

#[test]
fn numbers_write_and_read_as_the_reference_does() {
    let mut rng = Lcg(0x150a);
    for x in EDGE_NUMBERS
        .into_iter()
        .chain((0..20_000).map(|_| number(&mut rng)))
    {
        round_trips_alike(&Json::Num(x));
        round_trips_alike(&Json::Arr(vec![Json::Num(x), Json::Num(-x)]));
    }
    // Integer texts on both sides of the 15-digit fast path, zeros and
    // signs, and every form that leaves it.
    for text in [
        "0",
        "-0",
        "00",
        "-00",
        "007",
        "-007",
        "123456789012345",
        "-123456789012345",
        "999999999999999",
        "1000000000000000",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901234567890",
        "0.0",
        "-0.0",
        "1.",
        "1.5",
        "-.5",
        "1e5",
        "1E5",
        "1e+5",
        "-1e-5",
        "1e",
        "1e+",
        "0e0",
        "-0e0",
        "-",
        "--1",
        "-x",
        "1x",
        "1-",
        "1.5.5",
        "1e5e5",
        "+1",
        ".5",
    ] {
        for wrapped in [
            text.to_string(),
            format!(" {text} "),
            format!("[{text}]"),
            format!("[{text},1]"),
            format!("{{\"k\":{text}}}"),
        ] {
            parses_alike(&wrapped);
        }
    }
}

#[test]
fn integral_decodes_match_the_fract_test() {
    let mut rng = Lcg(0xa564);
    let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for x in specials
        .into_iter()
        .chain(EDGE_NUMBERS)
        .chain((0..20_000).map(|_| number(&mut rng)))
    {
        let v = Json::Num(x);
        assert_eq!(v.as_u64(), reference::as_u64(&v), "{x:e}");
    }
}

#[test]
fn strings_write_and_read_as_the_reference_does() {
    let mut rng = Lcg(0x5761);
    for piece in PIECES {
        round_trips_alike(&Json::Str(piece.to_string()));
    }
    for c in (0..0x80u8).map(char::from) {
        round_trips_alike(&Json::Str(format!("a{c}b")));
    }
    for _ in 0..5_000 {
        let s = string(&mut rng);
        round_trips_alike(&Json::Str(s.clone()));
        round_trips_alike(&Json::obj().set(&s, Json::Str(s.clone())));
    }
    // Escapes the writer never produces, malformed escapes and raw
    // control bytes.
    for text in [
        r#""\/\b\f""#,
        r#""Aé→""#,
        r#""\u+041""#,
        r#""😀""#,
        r#""\ud800x""#,
        r#""\u12""#,
        r#""\u12é""#,
        r#""\u""#,
        r#""\x""#,
        r#""\"#,
        "\"a\u{1}b\"",
        "\"a\nb\"",
        "\"é→😀",
        "\"",
        r#""\uzzzz""#,
    ] {
        parses_alike(text);
        parses_alike(&format!("[{text}]"));
        parses_alike(&format!("{{{text}:1}}"));
    }
}

#[test]
fn documents_write_and_read_as_the_reference_does() {
    let mut rng = Lcg(0xd0c);
    for _ in 0..2_000 {
        round_trips_alike(&value(&mut rng, 4));
    }
}

#[test]
fn truncated_and_bit_flipped_texts_fail_alike() {
    let mut rng = Lcg(0xb17);
    for i in 0..60 {
        let v = value(&mut rng, 3);
        let text = if i % 2 == 0 {
            v.to_compact()
        } else {
            v.to_pretty()
        };
        for end in 0..text.len() {
            if let Some(prefix) = text.get(..end) {
                parses_alike(prefix);
            }
        }
        for _ in 0..200 {
            let mut bytes = text.clone().into_bytes();
            if bytes.is_empty() {
                break;
            }
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
            if let Ok(flipped) = String::from_utf8(bytes) {
                parses_alike(&flipped);
            }
        }
    }
}

#[test]
fn nesting_at_the_depth_limit_reads_alike() {
    let mut rng = Lcg(0xdee);
    for depth in [127, 128, 129] {
        // Alternate arrays and objects down to `depth` levels.
        let mut v = Json::Num(number(&mut rng));
        for level in 0..depth {
            v = if level % 2 == 0 {
                Json::Arr(vec![Json::Num(1.0), v])
            } else {
                Json::obj().set("k", v)
            };
        }
        for text in [v.to_compact(), v.to_pretty()] {
            assert_eq!(parse(&text).is_ok(), depth <= 128, "depth {depth}");
            parses_alike(&text);
        }
        assert_eq!(v.to_compact(), reference::to_compact(&v));
        assert_eq!(v.to_pretty(), reference::to_pretty(&v));
    }
}

#[test]
fn every_golden_renders_back_to_its_bytes() {
    for name in [
        "golden_grid.json",
        "golden_chaos.json",
        "golden_breakdown.json",
        "golden_loadlat.json",
    ] {
        let path = format!("{}/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("the golden is readable");
        let v = parse(&text).unwrap_or_else(|e: JsonError| panic!("{name}: {e}"));
        assert!(v.to_pretty() == text, "{name} does not render back");
        parses_alike(&text);
    }
}

/// Keys on both sides of the 22-byte inline limit: ASCII of 0, 1, 21,
/// 22, 23 and 64 bytes, and multi-byte characters that end at, straddle
/// or start past byte 22.
fn edge_keys() -> Vec<String> {
    let mut keys: Vec<String> = [0, 1, 21, 22, 23, 64].map(|n| "k".repeat(n)).into();
    for (pad, c) in [
        (20, 'é'),
        (21, 'é'),
        (20, '→'),
        (19, '→'),
        (19, '😀'),
        (21, '😀'),
    ] {
        keys.push(format!("{}{c}", "a".repeat(pad)));
    }
    keys.push("é".repeat(11)); // 22 bytes, all two-byte characters
    keys.push("😀".repeat(6)); // 24 bytes: the sixth starts at byte 20
    keys
}

#[test]
fn keys_on_both_sides_of_the_inline_limit_read_as_the_reference_does() {
    let keys = edge_keys();
    for (i, key) in keys.iter().enumerate() {
        let v = Json::obj().set(key, i as u64);
        round_trips_alike(&v);
        let parsed = parse(&v.to_compact()).unwrap();
        assert_eq!(
            parsed.get(key).and_then(Json::as_u64),
            Some(i as u64),
            "{key:?}"
        );
        let Json::Obj(pairs) = &parsed else {
            unreachable!("an object parses to an object")
        };
        assert_eq!(pairs[0].0.as_str(), key.as_str());
        assert_eq!(&*pairs[0].0, key.as_str(), "deref reads the key");
        assert_eq!(format!("{:?}", pairs[0].0), format!("{key:?}"));
        assert_eq!(pairs[0].0.to_string(), *key);
        // A key one character shorter or longer is another key.
        let longer = format!("{key}x");
        assert!(parsed.get(&longer).is_none(), "{key:?}");
        if let Some((cut, _)) = key.char_indices().last() {
            assert!(parsed.get(&key[..cut]).is_none(), "{key:?}");
        }
    }

    // One object holding every key, in order, read back by `Fields`.
    let all = keys
        .iter()
        .enumerate()
        .fold(Json::obj(), |v, (i, k)| v.set(k, i as u64));
    round_trips_alike(&all);
    let parsed = parse(&all.to_pretty()).unwrap();
    let mut fields = Fields::of(&parsed).unwrap();
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(fields.get::<u64>(key), Ok(i as u64), "{key:?}");
    }
    fields.finish().unwrap();
    let mut out_of_order = Fields::of(&parsed).unwrap();
    assert!(out_of_order.get::<u64>(&keys[1]).is_err());
}

#[test]
fn escaped_and_repeated_keys_read_as_the_reference_does() {
    // Escapes whose text is longer than the key they decode to, and keys
    // that decode to either side of the inline limit.
    let escaped = [
        r#""\u0041\u0042""#,
        r#""\"q\"""#,
        r#""tab\there""#,
        r#""\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9\u00e9""#,
        r#""\u0041aaaaaaaaaaaaaaaaaaaaa""#,
        r#""\u0041aaaaaaaaaaaaaaaaaaaaaa""#,
        r#""aaaaaaaaaaaaaaaaaaaaa\n""#,
        r#""aaaaaaaaaaaaaaaaaaaaaa\n""#,
        r#""\ud800""#,
        r#""\/\b\f\r""#,
    ];
    for key in escaped {
        for text in [
            format!("{{{key}:1}}"),
            format!("{{{key}:1,{key}:2}}"),
            format!("[{{\"a\":[]}},{{{key}:{{{key}:null}}}}]"),
        ] {
            parses_alike(&text);
            let v = parse(&text).unwrap();
            round_trips_alike(&v);
        }
    }
    for key in edge_keys() {
        let v = Json::obj().set(&key, 1u64).set("b", 2u64).set(&key, 3u64);
        round_trips_alike(&v);
        let parsed = parse(&v.to_compact()).unwrap();
        assert_eq!(
            parsed.get(&key).and_then(Json::as_u64),
            Some(1),
            "the first wins"
        );
        let Json::Obj(pairs) = &parsed else {
            unreachable!("an object parses to an object")
        };
        assert!(pairs[0].0 == pairs[2].0 && pairs[0].0 != pairs[1].0);
        let mut fields = Fields::of(&parsed).unwrap();
        assert_eq!(fields.get::<u64>(&key), Ok(1));
        assert_eq!(fields.get::<u64>("b"), Ok(2));
        let err = fields.finish().unwrap_err();
        assert_eq!(err.to_string(), format!("unexpected key `{key}`"));
    }
}

#[test]
fn parsed_containers_hold_no_spare_capacity() {
    // Lengths around the growth steps a `push`-built vector takes.
    for n in [0usize, 1, 3, 4, 5, 8, 9, 100, 1000, 1025] {
        let arr = Json::Arr((0..n).map(|i| Json::from(i as u64)).collect());
        let obj = (0..n).fold(Json::obj(), |v, i| v.set(&format!("k{i}"), i));
        let nested = Json::obj().set("a", arr.clone()).set("o", obj.clone());
        let doc = Json::Arr(vec![arr, obj, Json::Arr(vec![nested])]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            parses_alike(&text);
        }
    }
}
