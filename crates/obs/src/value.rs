//! Field values attached to spans and events.

use std::fmt::{self, Write as _};

/// A structured field value: the small scalar set every span/event field
/// must fit into so records render losslessly as JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (counts, ids).
    U64(u64),
    /// A float (seconds, scores). Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
}

impl Value {
    /// The unsigned payload, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The float payload (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Append this value as a JSON fragment.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => {
                out.push_str(&n.to_string());
            }
            Value::F64(x) => {
                if x.is_finite() {
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(s, out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(n) => write!(f, "{n}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::U64(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::U64(u64::from(n))
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::U64(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// Append `s` as a JSON string literal to `out`. `"`, `\`, `\n`, `\r` and
/// `\t` get their short escapes and other bytes below 0x20 become `\u00xx`;
/// runs of bytes that need no escape are copied whole.
#[inline]
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        // every byte that needs escaping is ASCII, so `run..i` is whole
        // chars
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            // `fmt::Write` for `String` never fails
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::from(3usize).as_u64(), Some(3));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from(7u64).as_f64(), Some(7.0));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(1.0).as_u64(), None);
    }

    #[test]
    fn json_escaping_is_safe() {
        let mut out = String::new();
        Value::from("a\"b\\c\nd\u{1}").write_json(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut out = String::new();
        Value::F64(f64::NAN).write_json(&mut out);
        assert_eq!(out, "null");
    }
}
