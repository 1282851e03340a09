//! The JSON value, emitter, and strict parser behind every report the
//! workspace writes or reads: lint findings and SARIF, prover verdicts,
//! mutation campaigns, farm metrics, fuzz corpora, and telemetry.
//!
//! Hand-rolled like the rest of the repo (the build environment is
//! offline; no serde). Three properties matter more than generality:
//!
//! * **u64-exact integers** — cycle counts and event timestamps are
//!   64-bit and must survive a round trip without an `f64` detour
//!   (`2^53` is only ~104 days of microseconds, but a cycle counter
//!   blows past it immediately in adversarial tests).
//! * **no non-finite floats** — NaN/inf have no JSON spelling; the
//!   emitter maps them to `0` so a degenerate rate can never corrupt an
//!   artifact ([`Json::F64`] documents the guarantee, the farm metrics
//!   rely on it).
//! * **hostile input is an error, never a panic** — nesting is capped at
//!   [`MAX_DEPTH`], `\u` escapes take exactly four hex digits and paired
//!   surrogates only, and every error names the byte offset it stopped
//!   at.
//!
//! Finite floats render via Rust's shortest-round-trip `Display` and
//! parse back with `str::parse::<f64>`, so `F64` round-trips exactly.
//! Object keys keep insertion order — emitters control field order, and
//! the round-trip property tests pin it.

use std::fmt::Write as _;

/// How deeply arrays and objects may nest before [`Json::parse`] gives
/// up. The deepest report the workspace writes nests 8 levels; the cap
/// only exists so a hostile document cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, parsed and rendered exactly.
    U64(u64),
    /// A float. Non-finite values render as `0`; finite values render
    /// shortest-round-trip and parse back bit-exact.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key a schema requires.
    ///
    /// # Errors
    ///
    /// `missing field '<key>'` when the value is not an object or lacks
    /// the key.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// A required field read through an accessor such as
    /// [`Json::as_u64`].
    ///
    /// # Errors
    ///
    /// Names the key when it is missing or `read` rejects its value.
    pub fn field_as<'a, T>(
        &'a self,
        key: &str,
        read: fn(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        read(self.field(key)?).ok_or_else(|| format!("field '{key}' has the wrong type"))
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let mut s = format!("{x}");
                    // `Display` prints integral floats without a marker;
                    // keep the float-ness visible so the parser gives the
                    // value back as `F64`, not `U64`.
                    if !s.contains(['.', 'e']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    // Non-finite floats have no JSON spelling; emit a
                    // harmless zero rather than an invalid token.
                    out.push('0');
                }
            }
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (strict: one value, nothing but
    /// whitespace after it).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, naming
    /// the byte offset where parsing stopped.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Writes `s` as a JSON string literal, escaping quotes, backslashes
/// and control characters.
fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err(format!("unexpected end of input at byte {}", *pos)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are UTF-8");
    if text.is_empty() || text == "-" {
        return Err(format!("expected a number at byte {start}"));
    }
    if is_float || text.starts_with('-') {
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    } else {
        // Pure digit runs are u64-exact; anything wider than u64 is not
        // something our emitters produce, so reject rather than silently
        // losing precision through a float detour.
        text.parse::<u64>()
            .map(Json::U64)
            .map_err(|e| format!("integer {text:?} at byte {start} out of u64 range: {e}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    expect(bytes, pos, b'"')?;
    // Collect raw bytes: the input is a `&str` and escapes append whole
    // UTF-8 encodings, so the buffer stays valid UTF-8 (multi-byte
    // sequences never contain the ASCII `"` or `\` the loop stops at).
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("unterminated string starting at byte {start}")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out)
                    .map_err(|_| format!("invalid UTF-8 in string starting at byte {start}"));
            }
            Some(b'\\') => {
                *pos += 1;
                let c = match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => parse_unicode_escape(bytes, pos)?,
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                };
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
        }
    }
}

/// Decodes the `\uXXXX` escape whose `u` sits at `*pos` (plus its low
/// half when it opens a surrogate pair), leaving `*pos` on the last hex
/// digit consumed.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos - 1;
    let hi = parse_hex4(bytes, *pos + 1)?;
    *pos += 4;
    let cp = if (0xD800..0xDC00).contains(&hi) {
        let lo = if bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
            parse_hex4(bytes, *pos + 3)?
        } else {
            0
        };
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(format!("unpaired surrogate escape at byte {at}"));
        }
        *pos += 6;
        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
    } else {
        hi
    };
    char::from_u32(cp).ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

/// Exactly four ASCII hex digits at `start`.
fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    bytes
        .get(start..start + 4)
        .and_then(|digits| {
            digits.iter().try_fold(0, |acc, &b| {
                char::from(b).to_digit(16).map(|d| (acc << 4) | d)
            })
        })
        .ok_or_else(|| format!("bad \\u escape at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_is_exact() {
        let v = Json::U64(u64::MAX);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.5, 1.0, 3.0e300, 1e-12, -2.75] {
            let v = Json::F64(x);
            let parsed = Json::parse(&v.render()).unwrap();
            assert_eq!(parsed.as_f64(), Some(x), "render was {}", v.render());
        }
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(x).render(), "0");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let v = Json::Str("a\"b\\c\ncontrol\u{1}é→".into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::U64(1), Json::Null])),
            ("b", Json::obj(vec![("x", Json::Bool(true))])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn key_order_is_preserved() {
        let doc = "{\"z\":1,\"a\":2}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
    }
}
