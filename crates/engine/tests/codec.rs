//! The checkpoint codec: canonical round trips for every primitive a
//! snapshot stores, typed errors for everything else, and error paths
//! that name the offending value.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;

use nisim_engine::codec::{Codec, DecodeError, Fields};
use nisim_engine::json::{f64_bits_hex, parse};
use nisim_engine::stats::Summary;
use nisim_engine::{state_fields, Dur, Json, Time};

fn round<T: Codec + PartialEq + Debug>(x: T) {
    let text = x.encode().to_compact();
    assert_eq!(T::decode(&parse(&text).unwrap()).unwrap(), x, "{text}");
}

#[test]
fn primitives_round_trip() {
    round(7u64);
    round(u32::MAX);
    round(true);
    round(Some(3u8));
    round(None::<u8>);
    round(vec![1u64, 2, 3]);
    round(VecDeque::from([4usize, 5]));
    round([Dur::ns(1), Dur::ns(2)]);
    round((1u32, 2u64, false));
    round(BTreeMap::from([(1u32, 10u64), (3, 30)]));
    round(BTreeSet::from([2u64, 9]));
    round(Time::from_ns(40));
    round(String::from("fifo"));
}

#[test]
fn narrowing_and_shape_errors_are_typed() {
    let v = |s: &str| parse(s).unwrap();
    assert!(u32::decode(&v("4294967296")).is_err());
    assert!(u8::decode(&v("256")).is_err());
    assert!(u64::decode(&v("-1")).is_err());
    assert!(u64::decode(&v("1.5")).is_err());
    assert!(
        u64::decode(&v("1e300")).is_err(),
        "past 2^53 is not an integer"
    );
    assert!(<[u64; 2]>::decode(&v("[1,2,3]")).is_err());
    assert!(<(u64, u64)>::decode(&v("[1]")).is_err());
    assert!(BTreeMap::<u64, u64>::decode(&v("[[2,0],[1,0]]")).is_err());
    assert!(BTreeMap::<u64, u64>::decode(&v("[[1,0],[1,5]]")).is_err());
    assert!(BTreeSet::<u64>::decode(&v("[1,1]")).is_err());
}

struct Inner {
    lines: Vec<(u64, u8)>,
}

impl Inner {
    state_fields! { { lines } }
}

struct Outer {
    inner: Inner,
}

impl Outer {
    fn restore(&mut self, v: &Json) -> Result<(), DecodeError> {
        let mut f = Fields::of(v)?;
        f.with("inner", |j| self.inner.restore(j))?;
        f.finish()
    }
}

#[test]
fn errors_carry_the_json_path() {
    let mut o = Outer {
        inner: Inner { lines: Vec::new() },
    };
    let bad = parse(r#"{"inner":{"lines":[[1,2],[3,300]]}}"#).unwrap();
    let err = o.restore(&bad).unwrap_err();
    assert_eq!(err.path(), "inner.lines[1][1]");
    assert_eq!(err.to_string(), "inner.lines[1][1]: out of range for u8");
    assert_eq!(o.inner.snapshot().to_compact(), r#"{"lines":[]}"#);
    let extra = parse(r#"{"inner":{"lines":[]},"x":1}"#).unwrap();
    assert_eq!(
        o.restore(&extra).unwrap_err().to_string(),
        "unexpected key `x`"
    );
    let missing = parse(r#"{"inner":{}}"#).unwrap();
    assert_eq!(
        o.restore(&missing).unwrap_err().to_string(),
        "inner: missing key `lines`"
    );
    let reordered = parse(r#"{"x":1,"inner":{"lines":[]}}"#).unwrap();
    assert!(o.restore(&reordered).is_err(), "keys must come in order");
}

#[test]
fn summaries_must_be_finite_and_ordered() {
    let mut s = Summary::new();
    s.record(3.0);
    assert_eq!(Summary::decode(&s.encode()).unwrap(), s);
    assert_eq!(
        Summary::decode(&Summary::new().encode()).unwrap(),
        Summary::new()
    );
    let nan = s
        .encode()
        .to_compact()
        .replace(&f64_bits_hex(3.0), &f64_bits_hex(f64::NAN));
    assert!(Summary::decode(&parse(&nan).unwrap()).is_err());
}
