//! Minimal JSON helpers: string escaping for the emitters in this crate
//! and a strict validator for smoke tests.
//!
//! The workspace is dependency-free, so there is no serde; the trace dump
//! and metrics snapshot build their JSON by hand and the `smoke obs`
//! gate uses [`validate`] — a tiny recursive-descent checker — to prove the
//! output actually parses.

/// Appends `s` to `out` as a JSON string literal (with quotes), escaping
/// control characters, quotes, and backslashes.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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
        escape_into(&mut out, "line\nbreak \"quoted\" back\\slash \u{1}");
        validate(&out).expect("escaped string must be valid JSON");
    }
}
