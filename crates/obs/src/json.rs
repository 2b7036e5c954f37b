//! The workspace's one JSON writer, [`JsonValue`], and a strict validator,
//! [`validate`].
//!
//! The workspace is dependency-free, so there is no serde. Every
//! machine-readable report — the trace dump, the metrics snapshot, the
//! figure runner's ledger and the smoke gate's counts — builds a
//! [`JsonValue`] tree and renders it with [`std::fmt::Display`], so the
//! escaping and number rules live here and nowhere else. The `smoke obs`
//! gate uses [`validate`], a tiny recursive-descent checker, to prove the
//! output actually parses.

use std::fmt;

/// A JSON value. Construct with the enum variants or the [`JsonValue::num`],
/// [`JsonValue::int`] and [`JsonValue::str`] shorthands, render with
/// `to_string()` / `{}`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered exactly: counts and nanosecond timestamps are
    /// `u64` and would round above 2^53 as an `f64`.
    Int(i128),
    /// A number. Non-finite values render as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A number from anything convertible to `f64`.
    pub fn num(value: impl Into<f64>) -> Self {
        JsonValue::Num(value.into())
    }

    /// An exact integer from any `u64` or `i64` (or narrower).
    pub fn int(value: impl Into<i128>) -> Self {
        JsonValue::Int(value.into())
    }

    /// A string value.
    pub fn str(value: impl Into<String>) -> Self {
        JsonValue::Str(value.into())
    }

    /// An object from key/value pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => write!(f, "null"),
            JsonValue::Str(s) => escape_into(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(pairs) => {
                write!(f, "{{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape_into(f, key)?;
                    write!(f, ":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Writes `s` to `out` as a JSON string literal (with quotes), escaping
/// control characters, quotes, and backslashes.
fn escape_into(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Checks that `input` is one complete, syntactically valid JSON value
/// (object, array, string, number, `true`, `false`, or `null`), with
/// nothing but whitespace after it. Returns the byte offset and a short
/// message on failure.
pub fn validate(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!(
            "unexpected byte {c:#04x} at offset {pos}",
            pos = *pos
        )),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {}", *pos));
    }
    *pos += 1;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match bytes.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad unicode escape at offset {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at offset {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0usize;
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("expected digits at offset {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0usize;
        while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("expected fraction digits at offset {}", *pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0usize;
        while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("expected exponent digits at offset {}", *pos));
        }
    }
    Ok(())
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &[u8]) -> Result<(), String> {
    if bytes.len() >= *pos + literal.len() && &bytes[*pos..*pos + literal.len()] == literal {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "  -12.5e+3  ",
            r#"{"a":[1,2,{"b":"c\n\"d\""}],"e":null}"#,
            r#"["é", 0.5, false]"#,
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "truefalse",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'single':1}",
            "1.",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let mut out = String::new();
        escape_into(&mut out, "line\nbreak \"quoted\" back\\slash \u{1}")
            .expect("writing to a String cannot fail");
        validate(&out).expect("escaped string must be valid JSON");
    }

    #[test]
    fn renders_every_variant() {
        let value = JsonValue::object([
            ("null", JsonValue::Null),
            ("flag", JsonValue::Bool(true)),
            ("int", JsonValue::num(3u32)),
            ("float", JsonValue::num(0.5)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("count", JsonValue::int(-7i64)),
            ("text", JsonValue::str("a\"b\\c\nd")),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::num(1u32), JsonValue::str("x")]),
            ),
        ]);
        let rendered = value.to_string();
        assert_eq!(
            rendered,
            "{\"null\":null,\"flag\":true,\"int\":3,\"float\":0.5,\"nan\":null,\"count\":-7,\
             \"text\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,\"x\"]}"
        );
        validate(&rendered).expect("the writer's output parses");
    }

    #[test]
    fn control_characters_are_escaped() {
        let rendered = JsonValue::str("a\u{1}b").to_string();
        assert_eq!(rendered, "\"a\\u0001b\"");
        validate(&rendered).expect("the writer's output parses");
    }

    #[test]
    fn reports_render_integers_exactly() {
        let mut metrics = crate::MetricsSnapshot::default();
        metrics.counters.insert("requests".to_string(), u64::MAX);
        let json = metrics.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"requests\":18446744073709551615},\"gauges\":{},\"histograms\":{}}"
        );
        validate(&json).expect("snapshot JSON must parse");

        let start_ns = (1u64 << 53) + 1;
        let dump = crate::TraceDump {
            events: vec![crate::TraceEvent {
                kind: crate::SpanKind::WalFsync,
                thread: 0,
                start_ns,
                end_ns: start_ns + 3,
                detail: 1,
            }],
            dropped: 0,
        };
        let json = dump.to_json();
        assert_eq!(
            json,
            "{\"dropped\":0,\"events\":[{\"kind\":\"wal_fsync\",\"thread\":0,\
             \"start_ns\":9007199254740993,\"dur_ns\":3,\"detail\":1}]}"
        );
        validate(&json).expect("trace dump must parse");
    }
}
