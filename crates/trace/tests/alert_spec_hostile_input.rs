//! Property tests: `alert::parse_specs` answers hostile alert files with
//! `Ok` or `Err`, never a panic, and every spec it accepts can run: a
//! finite trip/clear band that opens toward recovery, `for` ≥ 1, and both
//! counts within what the packed alert state holds. Two kinds of input:
//! random spec documents, and edits of a valid four-spec file. The
//! proptest shim seeds each test from its name, so every run draws the
//! same cases.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fairprep_trace::alert::{parse_specs, AlertSpec, Direction, COUNTER_MASK};
use fairprep_trace::json::{parse, Value};
use proptest::prelude::*;

/// The rolling windows the scoring service offers.
const WINDOWS: [&str; 2] = ["1k", "10k"];

/// Four alerts: a falling metric with a band and both counts, a PSI
/// column, an explicit direction, and one on defaults only.
const VALID: &str = r#"{"alerts": [
    {"name": "di-floor", "metric": "disparate_impact", "window": "10k",
     "trip": 0.8, "clear": 0.9, "for": 25, "min_hold": 100},
    {"name": "age-drift", "metric": "psi", "column": "age", "window": "1k",
     "trip": 0.2, "clear": 0.1, "for": 5},
    {"name": "p99", "metric": "p99_latency_us", "direction": "above",
     "trip": 5000, "clear": 2500, "min_hold": 50},
    {"name": "errors", "metric": "error_rate", "trip": 0.05}
]}"#;

/// Every key a spec reads.
const KEYS: [&str; 9] = [
    "name",
    "metric",
    "column",
    "window",
    "trip",
    "clear",
    "direction",
    "for",
    "min_hold",
];

/// Values a member may take: every JSON kind; the names a spec accepts
/// and one it does not; plausible thresholds; counts at and past the
/// counter's limit, as numbers and as the decimal strings counts may
/// also be written as; 2^53, negative, fractional and huge numbers.
const VALUES: usize = 31;

fn value(pick: usize) -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    match pick % VALUES {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::Arr(Vec::new()),
        3 => Value::Obj(Vec::new()),
        4 => text(""),
        5 => text("age"),
        6 => text("disparate_impact"),
        7 => text("psi"),
        8 => text("error_rate"),
        9 => text("p99_latency_us"),
        10 => text("canary_divergence"),
        11 => text("1k"),
        12 => text("10k"),
        13 => text("above"),
        14 => text("below"),
        15 => text("sideways"),
        16 => Value::Num(0.1),
        17 => Value::Num(0.9),
        18 => Value::Num(1.0),
        19 => Value::Num(25.0),
        20 => Value::Num(0.0),
        21 => Value::Num(-1.0),
        22 => Value::Num(0.5),
        23 => Value::Num(2_147_483_647.0),
        24 => Value::Num(2_147_483_648.0),
        25 => Value::Num(4_294_967_295.0),
        26 => Value::Num(9_007_199_254_740_992.0),
        27 => Value::Num(-1e300),
        28 => text("2147483648"),
        29 => text("18446744073709551615"),
        _ => Value::Num(1e300),
    }
}

/// Parses `text` and fails the case if the parser panics or accepts a
/// spec that cannot run.
fn check(text: &str) -> Result<(), TestCaseError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_specs(text, &WINDOWS)));
    prop_assert!(outcome.is_ok(), "parse_specs panicked on {text}");
    if let Ok(Ok(specs)) = outcome {
        for spec in &specs {
            runnable(spec, text)?;
        }
    }
    Ok(())
}

fn runnable(spec: &AlertSpec, text: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        spec.trip.is_finite() && spec.clear.is_finite(),
        "non-finite band {spec:?} from {text}"
    );
    let recovers = match spec.direction {
        Direction::Above => spec.clear <= spec.trip,
        Direction::Below => spec.clear >= spec.trip,
    };
    prop_assert!(
        recovers,
        "band opens away from recovery {spec:?} from {text}"
    );
    prop_assert!(spec.for_count >= 1, "for = 0 in {spec:?} from {text}");
    prop_assert!(
        u64::from(spec.for_count) <= COUNTER_MASK && u64::from(spec.min_hold) <= COUNTER_MASK,
        "a count past the counter in {spec:?} from {text}"
    );
    Ok(())
}

/// The specs array of a document shaped like [`VALID`].
fn specs_of(doc: &mut Value) -> &mut Vec<Value> {
    match doc {
        Value::Obj(members) => match members.first_mut() {
            Some((_, Value::Arr(specs))) => specs,
            _ => unreachable!("VALID starts with its alerts array"),
        },
        _ => unreachable!("VALID is an object"),
    }
}

/// Sets `key` of `spec` to `to`, or deletes it when `to` is `None`.
fn set(spec: &mut Value, key: &str, to: Option<Value>) {
    if let Value::Obj(members) = spec {
        let at = members.iter().position(|(k, _)| k == key);
        match (at, to) {
            (Some(i), Some(v)) => members[i].1 = v,
            (Some(i), None) => {
                members.remove(i);
            }
            (None, Some(v)) => members.push((key.to_string(), v)),
            (None, None) => {}
        }
    }
}

#[test]
fn the_edited_file_is_valid() {
    let specs = parse_specs(VALID, &WINDOWS).unwrap();
    assert_eq!(specs.len(), 4);
    assert_eq!(specs[0].direction, Direction::Below);
    assert_eq!((specs[0].for_count, specs[0].min_hold), (25, 100));
    assert_eq!((specs[3].for_count, specs[3].min_hold), (1, 0));
    assert!(VALID.is_ascii(), "byte edits below assume ASCII");
}

/// `for` and `min_hold` reach the counter's limit and no further.
#[test]
fn counts_past_the_counter_are_refused() {
    for key in ["for", "min_hold"] {
        let spec = |n: u64| {
            format!(r#"[{{"name": "a", "metric": "error_rate", "trip": 0.5, "{key}": {n}}}]"#)
        };
        assert!(parse_specs(&spec(COUNTER_MASK), &WINDOWS).is_ok(), "{key}");
        let err = parse_specs(&spec(COUNTER_MASK + 1), &WINDOWS).unwrap_err();
        assert!(err.contains(&format!("'{key}' must be at most")), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Up to three specs, each a minimal valid one (name, metric, trip)
    /// with up to three members set to a value from [`value`], as a bare
    /// array or under `alerts`.
    #[test]
    fn random_documents_give_specs_or_an_error(
        specs in prop::collection::vec(
            prop::collection::vec((0..KEYS.len(), 0..VALUES), 0..=3),
            0..=3,
        ),
        wrapped in any::<bool>(),
    ) {
        let specs: Vec<Value> = specs
            .iter()
            .enumerate()
            .map(|(i, members)| {
                let mut spec = Value::Obj(vec![
                    ("name".to_string(), Value::Str(format!("a{i}"))),
                    ("metric".to_string(), value(8)),
                    ("trip".to_string(), value(22)),
                ]);
                for &(key, pick) in members {
                    set(&mut spec, KEYS[key], Some(value(pick)));
                }
                spec
            })
            .collect();
        let doc = if wrapped {
            Value::Obj(vec![("alerts".to_string(), Value::Arr(specs))])
        } else {
            Value::Arr(specs)
        };
        check(&doc.to_json())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// One to three edits of [`VALID`]: a deleted member, a member set to
    /// a value of another kind or out of range, a duplicated, deleted or
    /// wrong-kind spec; then optionally the text truncated or a number
    /// replaced by a literal that overflows, underflows or runs to
    /// hundreds of digits.
    #[test]
    fn edited_file_gives_specs_or_an_error(
        edits in prop::collection::vec((0_usize..5, 0_usize..4, 0..KEYS.len(), 0..VALUES), 1..=3),
        text_edit in (0_usize..3, 0_usize..1024, 0_usize..4),
    ) {
        let mut doc = parse(VALID).unwrap();
        for (kind, spec, key, pick) in edits {
            let specs = specs_of(&mut doc);
            let Some(at) = spec.checked_rem(specs.len()) else { continue };
            match kind {
                0 => set(&mut specs[at], KEYS[key], None),
                1 => set(&mut specs[at], KEYS[key], Some(value(pick))),
                2 => specs.push(specs[at].clone()),
                3 => {
                    specs.remove(at);
                }
                _ => specs[at] = value(pick),
            }
        }
        let mut text = doc.to_json();
        let (kind, at, variant) = text_edit;
        let at = at % (text.len() + 1);
        match kind {
            0 => text.truncate(at),
            1 => {
                if let Some(start) = text[at..].find(|c: char| c.is_ascii_digit()).map(|n| at + n) {
                    let end = text[start..]
                        .find(|c: char| !c.is_ascii_digit() && c != '.')
                        .map_or(text.len(), |n| start + n);
                    let literal = ["1e999", "-1e999", "1e-999", &"9".repeat(400)][variant].to_string();
                    text.replace_range(start..end, &literal);
                }
            }
            _ => {}
        }
        check(&text)?;
    }
}
