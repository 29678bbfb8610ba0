//! A minimal JSON value, parser, and writer.
//!
//! The wire protocol and incident spool need structured interchange but the
//! workspace builds fully offline with zero third-party dependencies, so
//! this module hand-rolls the small JSON subset rapd speaks: objects,
//! arrays, strings (with escapes), finite numbers, booleans, and null.

use std::borrow::Cow;
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
            Json::Num(n) => exact_u64(*n),
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

/// Append `n` as [`Json::Num`] renders it: an integer without a fraction
/// below 1e15, otherwise Rust's shortest round-trip form, and `null` for
/// NaN and the infinities.
pub(crate) fn write_number(n: f64, out: &mut String) {
    // `fmt::Write` for `String` never fails, so the `write!` results are
    // discarded.
    if !n.is_finite() {
        // JSON cannot express NaN/Infinity; null is the lossless-ish fallback
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `n` as a non-negative integer, if it is one exactly.
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// Parse one JSON document, requiring it to span the whole input.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut s = Scanner::new(input);
    s.skip_ws();
    let v = s.value()?;
    s.finish()?;
    Ok(v)
}

/// The one JSON tokenizer: a cursor over a document that reads it token
/// by token. [`parse`] builds its tree from these steps, and the observe
/// reader (`proto::read_request`) walks an observe line with the same
/// ones, so the two accept the same documents and report the same first
/// error at the same byte.
///
/// A container is read with [`Scanner::open`], then one value (preceded
/// by [`Scanner::key`] in an object) per [`Scanner::next`] that returns
/// `true`; every step leaves the cursor on the next token.
///
/// Containers nest at most [`MAX_DEPTH`] deep: a deeper one is a syntax
/// error, so no reader recurses further than that on untrusted input.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

/// How deep containers may nest. The deepest document rapd reads or writes
/// is a detect-mode checkpoint, 7 levels (`engine.leaves[i][1].forecaster.
/// seasonal`); an incident line is 5, an observe or WAL line 4.
const MAX_DEPTH: usize = 128;

impl<'a> Scanner<'a> {
    /// A cursor at byte `pos` of `text`, which must be a token boundary
    /// an earlier scan recorded with [`Scanner::pos`].
    pub(crate) fn at(text: &'a str, pos: usize) -> Self {
        Scanner {
            text,
            bytes: text.as_bytes(),
            pos,
            depth: 0,
        }
    }

    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Scanner::at(text, 0)
    }

    /// The cursor's byte offset.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The byte under the cursor.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Only whitespace may follow the document.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Enter an array (`open` `[`, `close` `]`) or an object (`{`, `}`):
    /// `true` when a member follows, with the cursor on it, `false` after
    /// the close of an empty one.
    pub(crate) fn open(&mut self, open: u8, close: u8) -> Result<bool, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        self.depth += 1;
        Ok(true)
    }

    /// After a member: `true` when a comma and another member follow,
    /// with the cursor on it, `false` after the container's `close`.
    pub(crate) fn next(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// An object member's key and its colon; the cursor ends on the value.
    pub(crate) fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Consume one value, checking it as [`parse`] would, without
    /// building it.
    pub(crate) fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                if self.open(b'{', b'}')? {
                    loop {
                        self.key()?;
                        self.skip_value()?;
                        if !self.next(b'}')? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'[') => {
                if self.open(b'[', b']')? {
                    loop {
                        self.skip_value()?;
                        if !self.next(b']')? {
                            break;
                        }
                    }
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                if self.open(b'{', b'}')? {
                    loop {
                        let key = self.key()?.into_owned();
                        pairs.push((key, self.value()?));
                        if !self.next(b'}')? {
                            break;
                        }
                    }
                }
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                if self.open(b'[', b']')? {
                    loop {
                        items.push(self.value()?);
                        if !self.next(b']')? {
                            break;
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// A literal word: `true`, `false` or `null`.
    pub(crate) fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// A number; JSON has no NaN or infinity, so it is always finite.
    pub(crate) fn number(&mut self) -> Result<f64, String> {
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
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
        if !n.is_finite() {
            return Err(format!("number '{text}' overflows a double"));
        }
        Ok(n)
    }

    /// A string, borrowed from the text unless it holds an escape.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Runs end at the next quote or backslash. Both delimiters are
        // ASCII, so every run ends on a char boundary.
        let run = |s: &Self| {
            s.bytes[s.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(s.bytes.len() - s.pos)
        };
        self.pos += run(self);
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
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
            let start = self.pos;
            self.pos += run(self);
            out.push_str(&self.text[start..self.pos]);
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
    fn nesting_past_the_cap_is_a_syntax_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
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
