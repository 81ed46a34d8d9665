//! A minimal JSON reader/writer for checkpoint shards and manifests.
//!
//! The build environment is offline (no serde), so the checkpoint
//! format is served by this deliberately small module: a
//! recursive-descent parser into [`Json`] values and escape-correct
//! string writing. Two properties matter more than generality:
//!
//! * **Exactness** — numbers keep their raw token text, so `u64` seeds
//!   and `f64` bit patterns round-trip without any float parsing in
//!   the way (callers store floats via [`f64::to_bits`]).
//! * **Named errors** — a corrupt shard produces a position-stamped
//!   message for [`crate::error::DcnrError::Checkpoint`], never a
//!   panic. Nesting is capped at [`MAX_DEPTH`], so a crafted document
//!   cannot overflow the parser's stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed JSON value. Numbers keep their raw token so integer
/// precision is never laundered through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token text (e.g. `"42"`, `"-1.5e3"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (sorted map); the writer
    /// side of the checkpoint format emits fields explicitly.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(map) => map.get(key).ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected an object while reading {key:?}")),
        }
    }

    /// The value as a `u64` (integer token required).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("expected an unsigned integer, got {raw:?}")),
            other => Err(format!("expected a number, got {}", other.kind())),
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, String> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a bool, got {}", other.kind())),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {}", other.kind())),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected an array, got {}", other.kind())),
        }
    }

    /// An `f64` stored as its IEEE-754 bit pattern (a `u64` field).
    pub fn as_f64_bits(&self) -> Result<f64, String> {
        self.as_u64().map(f64::from_bits)
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// How deeply arrays and objects may nest. Checkpoint and bench
/// documents nest about four levels; the cap bounds the parser's
/// recursion, so a crafted document is an error, not a stack overflow.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b) if *b == want => {
            *pos += 1;
            Ok(())
        }
        Some(_) => Err(format!("expected {:?} at byte {}", char::from(want), *pos)),
        None => Err(format!(
            "unexpected end of input (wanted {:?})",
            char::from(want)
        )),
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays
/// and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", char::from(*c), *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("malformed number at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("sliced on ASCII boundaries");
    // Validate the token parses as *some* number so garbage like
    // "1.2.3" is rejected at read time, not when a field is accessed.
    if raw.parse::<f64>().is_err() && raw.parse::<u64>().is_err() {
        return Err(format!("malformed number {raw:?} at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "malformed \\u escape")?;
                        // Checkpoint writers only escape control chars,
                        // so surrogate pairs are out of scope; reject
                        // rather than mis-decode.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one full UTF-8 character, validating only its
                // own bytes (the lead byte gives the width).
                let width = match bytes[*pos] {
                    b if b < 0x80 => 1,
                    b if b >= 0xF0 => 4,
                    b if b >= 0xE0 => 3,
                    _ => 2,
                };
                let ch = bytes
                    .get(*pos..*pos + width)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .and_then(|c| c.chars().next())
                    .ok_or_else(|| format!("invalid UTF-8 at byte {}", *pos))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
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

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect_byte(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect_byte(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "s": "x"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(v.get("b").unwrap().get("c").unwrap().as_bool().unwrap());
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "x");
    }

    #[test]
    fn u64_precision_survives() {
        let big = u64::MAX;
        let v = parse(&format!("{{\"seed\": {big}}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64().unwrap(), big);
    }

    #[test]
    fn f64_bits_round_trip() {
        for f in [0.0, -1.5, std::f64::consts::PI, 1e-300, f64::MAX] {
            let v = parse(&format!("{{\"x\": {}}}", f.to_bits())).unwrap();
            let back = v.get("x").unwrap().as_f64_bits().unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn f64_bits_round_trip_ieee_edge_cases() {
        // Values plain decimal JSON numbers cannot carry (NaN,
        // infinities) or would silently normalize (-0.0, subnormals):
        // the bit-pattern path must keep every one exact.
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324, // smallest positive subnormal
            -5e-324,
            f64::MIN_POSITIVE,                     // smallest positive normal
            f64::MIN_POSITIVE / 2.0,               // a mid-range subnormal
            f64::from_bits(0x7FF8_DEAD_BEEF_0001), // NaN with payload
        ];
        for f in edges {
            let v = parse(&format!("{{\"x\": {}}}", f.to_bits())).unwrap();
            let back = v.get("x").unwrap().as_f64_bits().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "bits must be exact for {f}");
        }
        // Sign-sensitive checks decimal round-trips typically lose.
        let v = parse(&format!("{{\"x\": {}}}", (-0.0f64).to_bits())).unwrap();
        assert!(v
            .get("x")
            .unwrap()
            .as_f64_bits()
            .unwrap()
            .is_sign_negative());
        let v = parse(&format!("{{\"x\": {}}}", f64::NAN.to_bits())).unwrap();
        assert!(v.get("x").unwrap().as_f64_bits().unwrap().is_nan());
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "a \"quoted\" \\ back\nnew\ttab \u{1} control µ";
        let mut doc = String::from("{\"k\": ");
        write_str(&mut doc, nasty);
        doc.push('}');
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), nasty);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Validating the rest of the document for every character made
        // this ~10^10 byte checks; one pass over 300 kB is milliseconds.
        let long = "µ".repeat(150_000);
        let started = std::time::Instant::now();
        let v = parse(&format!("{{\"k\": \"{long}\"}}")).unwrap();
        assert_eq!(v.get("k").unwrap().as_str().unwrap(), long);
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn named_errors_for_malformed_documents() {
        assert!(parse("{").unwrap_err().contains("unexpected end"));
        assert!(parse("[1,]").unwrap_err().contains("byte"));
        assert!(parse("{\"a\": 1} x").unwrap_err().contains("trailing"));
        assert!(parse("tru").unwrap_err().contains("literal"));
        assert!(parse("\"abc").unwrap_err().contains("unterminated"));
        assert!(parse("1.2.3").unwrap_err().contains("malformed number"));
    }

    #[test]
    fn nesting_past_the_cap_is_a_named_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"k\": ".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // Far past any stack: fails fast at the cap.
        assert!(parse(&"[".repeat(2_000_000))
            .unwrap_err()
            .contains("nesting"));
    }

    proptest::proptest! {
        #[test]
        fn parse_never_panics_on_arbitrary_bytes(
            raw in proptest::collection::vec(proptest::strategy::any::<u8>(), 0..512),
            opened in 0usize..200_000,
            brackets in proptest::collection::vec(
                proptest::sample::select(b"[]{}\":, 1".to_vec()),
                0..4096,
            ),
        ) {
            // Raw bytes as a checkpoint reader sees them (lossy UTF-8),
            // and bracket-heavy text that mostly nests past the cap.
            let _ = parse(&String::from_utf8_lossy(&raw));
            let mut deep = "[".repeat(opened).into_bytes();
            deep.extend_from_slice(&brackets);
            let _ = parse(&String::from_utf8_lossy(&deep));
        }
    }

    #[test]
    fn field_access_errors_are_named() {
        let v = parse("{\"n\": 1.5}").unwrap();
        assert!(v.get("missing").unwrap_err().contains("missing"));
        assert!(v.get("n").unwrap().as_u64().unwrap_err().contains("1.5"));
        assert!(v.get("n").unwrap().as_str().unwrap_err().contains("number"));
    }
}
