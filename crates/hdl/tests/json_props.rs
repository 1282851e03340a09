//! Hostile-input properties of the one JSON codec every report goes
//! through: [`Json::parse`] must never panic, and every error it returns
//! must name the byte offset where parsing stopped. Inputs are arbitrary
//! bytes, JSON-shaped token soup, every truncation and single-byte
//! mutations of rendered documents (generated values and the checked-in
//! `PROVE_REPORT.json`), plus pinned regressions: an unpaired surrogate
//! escape, a million nested brackets, and a signed `\u` escape.

use hdl::json::{Json, MAX_DEPTH};
use proptest::collection::vec;
use proptest::prelude::*;

/// A report the prover guard wrote: the deepest document in the repo.
const PROVE_REPORT: &str = include_str!("../../../PROVE_REPORT.json");

/// Parses `text`; an error is fine, a panic or an error without a byte
/// offset is not.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = Json::parse(text) {
        prop_assert!(e.contains("byte"), "error names no byte offset: {e}");
    }
    Ok(())
}

fn assert_rejected(text: &str) -> String {
    let err = Json::parse(text).expect_err("hostile input must be rejected");
    assert!(err.contains("byte"), "error names no byte offset: {err}");
    err
}

fn arb_string() -> impl Strategy<Value = String> {
    const AWKWARD: [char; 7] = ['"', '\\', '\n', '\u{1}', 'é', '→', '\u{1f600}'];
    let c = prop_oneof![
        (0x20u8..0x7f).prop_map(char::from),
        (0..AWKWARD.len()).prop_map(|i| AWKWARD[i]),
    ];
    vec(c, 0..8).prop_map(String::from_iter)
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::U64),
        // Non-finite bit patterns render as `0`, so they cannot round-trip.
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_map(|x| Json::F64(if x.is_finite() { x } else { 0.5 })),
        arb_string().prop_map(Json::Str),
    ]
    .boxed();
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Json::Arr),
            vec((arb_string(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

/// JSON fragments, biased towards the escape and nesting paths a
/// uniform byte string rarely reaches.
const TOKENS: [&str; 20] = [
    "[", "]", "{", "}", "\"", ":", ",", "\\", "\\u", "D800", "DC00", "+041", "0", "-1", ".5", "e9",
    "true", "nul", " ", "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(picks in vec(0..TOKENS.len(), 0..48)) {
        check(&picks.iter().map(|&i| TOKENS[i]).collect::<String>())?;
    }

    #[test]
    fn every_truncation_of_a_rendered_document_is_handled(value in arb_json()) {
        let text = value.render();
        prop_assert_eq!(Json::parse(&text).expect("rendered value parses"), value);
        for end in 0..text.len() {
            check(&String::from_utf8_lossy(&text.as_bytes()[..end]))?;
        }
    }

    #[test]
    fn single_byte_mutations_are_handled(
        value in arb_json(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        for doc in [value.render(), PROVE_REPORT.to_string()] {
            let mut bytes = doc.into_bytes();
            let i = at % bytes.len();
            bytes[i] = byte;
            check(&String::from_utf8_lossy(&bytes))?;
        }
    }
}

#[test]
fn checked_in_report_parses_and_every_truncation_is_handled() {
    Json::parse(PROVE_REPORT).expect("PROVE_REPORT.json parses");
    for end in 0..PROVE_REPORT.len() {
        check(&String::from_utf8_lossy(&PROVE_REPORT.as_bytes()[..end])).unwrap();
    }
}

#[test]
fn unpaired_surrogates_are_rejected() {
    for text in [
        r#""\uD800\uD800""#,
        r#""\uD800""#,
        r#""\uD800x""#,
        r#""\uD800A""#,
        r#""\uDC00""#,
        r#""\uD800\u0041""#,
    ] {
        let err = assert_rejected(text);
        assert!(err.contains("escape"), "{text}: {err}");
    }
    assert_eq!(
        Json::parse(r#""\uD83D\uDE00""#).unwrap(),
        Json::Str("\u{1f600}".into())
    );
}

#[test]
fn nesting_is_capped() {
    let err = assert_rejected(&"[".repeat(1_000_000));
    assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
    assert_rejected(&"{\"a\":".repeat(1_000_000));
    let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&at_cap).is_ok());
    let past_cap = format!("[{at_cap}]");
    assert_rejected(&past_cap);
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    for text in [
        r#""\u+041""#,
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u04"#,
        r#""\u00é0""#,
    ] {
        assert_rejected(text);
    }
    assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
}

#[test]
fn every_error_names_a_byte_offset() {
    for text in ["", "   ", "\"abc", "[1,", "{\"a\"", "tru", "-", "1 2"] {
        assert_rejected(text);
    }
}
