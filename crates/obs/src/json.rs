//! The workspace's one JSON module: an emitter ([`escape`], [`number`])
//! and a small recursive-descent parser ([`parse`] into [`Value`]).
//!
//! The workspace is std-only by policy, so both halves are hand-rolled.
//! Every JSON document the workspace writes (`smg check --format json`,
//! the daemon's replies, `smg lint --format json`, `--metrics json` and
//! `--trace-convergence`) encodes through this module: strings escaped
//! per RFC 8259, finite numbers in Rust's shortest round-trip form
//! (`{:?}`, so `4.0` and `1e-12`), and non-finite numbers as the strings
//! `"Infinity"` / `"-Infinity"` / `"NaN"`, since JSON has no literals for
//! them. [`Value::as_f64`] reads all three back. The daemon parses its
//! request bodies with [`parse`]; tests and clients decode the documents
//! with it.
//!
//! ```
//! use smg_obs::json;
//! let doc = format!("[{}, {}]", json::number(0.5), json::number(f64::INFINITY));
//! assert_eq!(doc, "[0.5, \"Infinity\"]");
//! let v = json::parse(&doc).unwrap();
//! assert_eq!(v.as_array().unwrap()[1].as_f64(), Some(f64::INFINITY));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string into a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON value: a number when finite (shortest
/// representation that round-trips), a quoted string otherwise.
pub fn number(v: f64) -> String {
    if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v.is_infinite() {
        if v > 0.0 {
            "\"Infinity\"".to_string()
        } else {
            "\"-Infinity\"".to_string()
        }
    } else {
        // `{:?}` keeps a decimal point or exponent, so the value parses
        // back as a float, not an integer.
        format!("{v:?}")
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order is irrelevant to the protocol).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The float content of a number, or of one of the emitter's
    /// non-finite string encodings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            Value::String(s) => match s.as_str() {
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                "NaN" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The content of a number that is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The content of a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The content of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so a request body of a few thousand
/// `[` would otherwise overflow a thread's stack and abort the process;
/// the deepest document the workspace writes nests 5 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// A human-readable message naming the first offending byte, also for a
/// document nested deeper than [`MAX_DEPTH`].
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate and the `\u` low surrogate after
                        // it spell one character (RFC 8259 §7); a lone
                        // surrogate of either kind is no character.
                        if (0xD800..0xDC00).contains(&code)
                            && b.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            let low = hex4(b, *pos + 3)?;
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).ok_or_else(|| {
                            format!("lone surrogate \\u escape at byte {}", *pos - 3)
                        })?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain characters up to the next quote or
                // backslash, copied at once: both are ASCII, so the run
                // ends on a character boundary of the `&str` input.
                let start = *pos;
                while b.get(*pos).is_some_and(|&c| c != b'"' && c != b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The code unit of the four hex digits at `at` (a `\u` escape takes
/// exactly four, no sign); errors name the byte of the first.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b
        .get(at..at + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    digits.iter().try_fold(0, |code, &d| {
        let digit = char::from(d).to_digit(16);
        digit
            .map(|v| code * 16 + v)
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_round_trip_the_awkward_cases() {
        for s in [
            "",
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "tab\there\n",
            "\u{1}",
        ] {
            let parsed = parse(&escape(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "{s:?}");
        }
    }

    /// A string at the daemon's 4 MiB body cap once took minutes to
    /// parse: every character re-validated the rest of the input.
    #[test]
    fn long_strings_parse_in_one_pass() {
        let s = "plain é ∑ \"quoted\" back\\slash\n".repeat(1 << 13);
        let started = std::time::Instant::now();
        let parsed = parse(&escape(&s)).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_str(), Some(s.as_str()));
        assert!(
            elapsed.as_secs_f64() < 1.0,
            "{elapsed:?} for {} bytes",
            s.len()
        );
    }

    #[test]
    fn numbers_round_trip_including_non_finite() {
        for v in [0.0, 1.0, -2.5, 1e-12, 0.3333333333333333, 1e300] {
            let parsed = parse(&number(v)).unwrap();
            assert_eq!(parsed.as_f64(), Some(v), "{v}");
        }
        assert_eq!(
            parse(&number(f64::INFINITY)).unwrap().as_f64(),
            Some(f64::INFINITY)
        );
        assert_eq!(
            parse(&number(f64::NEG_INFINITY)).unwrap().as_f64(),
            Some(f64::NEG_INFINITY)
        );
        assert!(parse(&number(f64::NAN)).unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn typed_accessors_discriminate() {
        let v = parse(r#"{"a": [1, 2.5, null], "b": true, "n": 7, "s": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_u64(), None);
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn parser_handles_structures_and_rejects_garbage() {
        let v = parse(r#"{"a": [1, 2.5, null], "b": {"c": true}, "d": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x"));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_pair_surrogates() {
        // Python's `json.dumps` spells U+1F600 as a surrogate pair.
        let pair = parse(r#""\ud83d\ude00 \u0041\u00e9""#).unwrap();
        assert_eq!(pair.as_str(), Some("\u{1F600} Aé"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83d x""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            let err = parse(lone).unwrap_err();
            assert!(err.starts_with("lone surrogate"), "{lone}: {err}");
        }
        // `u32::from_str_radix` would read "+041" as 0x41.
        assert_eq!(
            parse(r#""\u+041""#).unwrap_err(),
            "bad \\u escape at byte 3"
        );
        assert!(parse(r#""\u00""#).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped_at_the_byte_that_opens_one_level_too_many() {
        let arrays = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let objects =
            |levels: usize| format!("{}1{}", "{\"k\": ".repeat(levels), "}".repeat(levels));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&arrays(MAX_DEPTH + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        assert_eq!(
            parse(&objects(MAX_DEPTH + 1)).unwrap_err(),
            format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                6 * MAX_DEPTH
            )
        );
        // Far past the cap the parser stops at the cap, never near the
        // stack's end.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    proptest! {
        /// Any printable string survives escape → parse.
        #[test]
        fn escape_round_trips(s in "\\PC*") {
            let parsed = parse(&escape(&s)).unwrap();
            prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        }

        /// Finite floats survive number → parse bit-exactly — the
        /// property the daemon's "bit-identical over HTTP" contract
        /// rests on.
        #[test]
        fn number_round_trips(v in -1.0e15f64..1.0e15) {
            let parsed = parse(&number(v)).unwrap();
            prop_assert_eq!(parsed.as_f64().unwrap().to_bits(), v.to_bits());
        }
    }
}
