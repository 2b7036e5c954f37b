//! A minimal JSON writer for the machine-readable bench reports.
//!
//! The build environment is offline, so instead of `serde_json` this module
//! provides just what the harness needs: build a [`JsonValue`] tree and
//! render it with [`std::fmt::Display`]. There is deliberately no parser.

use std::fmt;

/// A JSON value. Construct with the enum variants or the [`JsonValue::num`] /
/// [`JsonValue::str`] shorthands, render with `to_string()` / `{}`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
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

    /// A string value.
    pub fn str(value: impl Into<String>) -> Self {
        JsonValue::Str(value.into())
    }

    /// An object from key/value pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// Renders `s` as a JSON string literal through the workspace's one
/// escaper, [`clic_obs::json::escape_into`].
fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let mut literal = String::with_capacity(s.len() + 2);
    clic_obs::json::escape_into(&mut literal, s);
    out.write_str(&literal)
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_variant() {
        let value = JsonValue::object([
            ("null", JsonValue::Null),
            ("flag", JsonValue::Bool(true)),
            ("int", JsonValue::num(3u32)),
            ("float", JsonValue::num(0.5)),
            ("nan", JsonValue::Num(f64::NAN)),
            ("text", JsonValue::str("a\"b\\c\nd")),
            (
                "arr",
                JsonValue::Array(vec![JsonValue::num(1u32), JsonValue::str("x")]),
            ),
        ]);
        let rendered = value.to_string();
        assert_eq!(
            rendered,
            "{\"null\":null,\"flag\":true,\"int\":3,\"float\":0.5,\"nan\":null,\
             \"text\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,\"x\"]}"
        );
        clic_obs::json::validate(&rendered).expect("the writer's output parses");
    }

    #[test]
    fn control_characters_are_escaped() {
        let rendered = JsonValue::str("a\u{1}b").to_string();
        assert_eq!(rendered, "\"a\\u0001b\"");
        clic_obs::json::validate(&rendered).expect("the writer's output parses");
    }
}
