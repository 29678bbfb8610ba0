//! A minimal JSON value, parser, and writer.
//!
//! The wire protocol and incident spool need structured interchange but the
//! workspace builds fully offline with zero third-party dependencies, so
//! this module hand-rolls the small JSON subset rapd speaks: objects,
//! arrays, strings (with escapes), finite numbers, booleans, and null.

use std::fmt::{self, Write as _};

use obs::write_json_string;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite — JSON has no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a key of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Move the value of an object's key out, leaving `null` in its place
    /// (`None` for a missing key or another variant).
    pub(crate) fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The owned string payload, if this is a string.
    pub(crate) fn into_string(self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The owned elements, if this is an array.
    pub(crate) fn into_arr(self) -> Option<Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact single-line JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

// `fmt::Write` for `String` never fails, so the `write!` results below are
// discarded.
fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON cannot express NaN/Infinity; null is the lossless-ish fallback
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Parse one JSON document, requiring it to span the whole input.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("number '{text}' overflows a double"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both delimiters are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            self.pos += self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // A high surrogate combines only with a
                            // following low-surrogate escape; otherwise it
                            // degrades to U+FFFD and whatever follows is
                            // decoded on its own.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.low_surrogate().and_then(|lo| {
                                    char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                                })
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
            }
        }
    }

    /// Consume a `\uXXXX` escape in `DC00..E000` if one comes next.
    fn low_surrogate(&mut self) -> Option<u32> {
        let esc = self.bytes.get(self.pos..self.pos + 6)?;
        let hex = std::str::from_utf8(esc.strip_prefix(b"\\u")?).ok()?;
        let lo = u32::from_str_radix(hex, 16).ok()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return None;
        }
        self.pos += 6;
        Some(lo)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid utf-8 in \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape '{hex}'"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let text = r#"{"type":"observe","rows":[[["L1","S1"],42.5],[["L2","S2"],0]],"ok":true,"none":null}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("observe"));
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_arr().unwrap()[1].as_f64(), Some(42.5));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Json::str("a\"b\\c\nd\te\u{1}é€");
        let back = parse(&original.render()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::str("é"));
        // surrogate pair for 😀 (U+1F600)
        assert_eq!(parse(r#""😀""#).unwrap(), Json::str("😀"));
        // lone high surrogate degrades to the replacement character
        assert_eq!(parse(r#""\ud83dx""#).unwrap(), Json::str("\u{FFFD}x"));
        // a high surrogate followed by a non-low escape keeps that escape
        assert_eq!(parse(r#""\ud83dA""#).unwrap(), Json::str("\u{FFFD}A"));
        assert_eq!(parse(r#""\ud83d\n""#).unwrap(), Json::str("\u{FFFD}\n"));
        // a lone low surrogate is not a scalar value either
        assert_eq!(parse(r#""\ude00""#).unwrap(), Json::str("\u{FFFD}"));
    }

    /// The char-at-a-time writer this module used before it copied
    /// unescaped runs; the bytes it produced are what spools, WALs and
    /// replies already hold.
    fn reference_escaped(s: &str) -> String {
        let mut out = String::from("\"");
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
        out
    }

    /// Seeded random strings mixing ASCII, multibyte chars, quotes,
    /// backslashes and control characters (splitmix64; no dependency).
    fn random_strings(seed: u64, count: usize) -> Vec<String> {
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', '€', '中', '😀', '\u{FFFD}',
        ];
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as usize
        };
        (0..count)
            .map(|_| {
                let len = next() % 40;
                (0..len)
                    .map(|_| ALPHABET[next() % ALPHABET.len()])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn random_strings_roundtrip_through_render_and_parse() {
        for s in random_strings(0x5EED, 2000) {
            let v = Json::str(s.clone());
            let text = v.render();
            assert_eq!(text, reference_escaped(&s), "writer bytes for {s:?}");
            assert_eq!(parse(&text).unwrap(), v, "round trip of {s:?}");
            // as an object key and inside an array too
            let doc = Json::Obj(vec![(s.clone(), Json::Arr(vec![v.clone(), Json::Null]))]);
            assert_eq!(parse(&doc.render()).unwrap(), doc);
        }
    }

    #[test]
    fn writer_bytes_match_the_reference_on_numbers_and_escapes() {
        let doc = Json::Obj(vec![
            ("tenant\t\"q\"".to_string(), Json::str("a\\b\u{2}é")),
            (
                "rows".to_string(),
                Json::Arr(vec![
                    Json::Num(0.0),
                    Json::Num(-0.0),
                    Json::Num(42.0),
                    Json::Num(-7.0),
                    Json::Num(1e15),
                    Json::Num(123_456_789_012_345.0),
                    Json::Num(0.1),
                    Json::Num(-2.5),
                    Json::Num(1.0 / 3.0),
                    Json::Num(1e-7),
                    Json::Num(f64::INFINITY),
                ]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            concat!(
                r#"{"tenant\t\"q\"":"a\\b\u0002é","rows":"#,
                r#"[0,0,42,-7,1000000000000000,123456789012345,"#,
                r#"0.1,-2.5,0.3333333333333333,0.0000001,null]}"#
            )
        );
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let body = "é-ab".repeat(200_000);
        let text = format!("[\"{body}\",\"{body}\\n\"]");
        assert!(text.len() > 1_000_000);
        let started = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(v.as_arr().unwrap()[0].as_str(), Some(body.as_str()));
        // a quadratic scan needs minutes here; a linear one milliseconds
        assert!(elapsed.as_secs_f64() < 5.0, "took {elapsed:?}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nan",
            "1e999",
            "{'single':1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-0.5).render(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
