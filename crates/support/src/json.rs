//! A dependency-free JSON value, writer helpers and parser.
//!
//! The workspace emits machine-readable artifacts in two places — the
//! versioned [`AnalysisReport::to_json`] structured report and the
//! `BENCH_pipeline.json` perf trajectory — and consumes them in shard
//! reducers, round-trip tests and the `bench_diff` regression gate. All
//! of that flows through this module: [`escape`] for writers and
//! [`parse`]/[`Json`] for readers. No external crate is involved; the
//! grammar is plain RFC 8259 JSON (objects, arrays, strings, numbers,
//! booleans, null) with `\uXXXX` escapes and surrogate pairs.
//!
//! [`AnalysisReport::to_json`]: ../../ffisafe_core/driver/struct.AnalysisReport.html#method.to_json
//!
//! # Examples
//!
//! ```
//! use ffisafe_support::json::{escape, parse, Json};
//!
//! let v = parse(r#"{"schema_version": 1, "counts": [2, 3], "tool": "ffisafe"}"#).unwrap();
//! assert_eq!(v.get("schema_version").and_then(Json::as_u64), Some(1));
//! assert_eq!(v.get("counts").and_then(Json::as_array).map(|a| a.len()), Some(2));
//! assert_eq!(v.get("tool").and_then(Json::as_str), Some("ffisafe"));
//! assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
//! ```

use std::fmt;

/// Maximum nesting depth [`parse`] accepts; deeper documents are rejected
/// rather than risking a stack overflow on adversarial input.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
///
/// Objects preserve key order (a `Vec` of pairs, not a map): the emitters
/// in this workspace write keys in a stable order and the round-trip tests
/// assert against it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers round-trip exactly up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source key order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A parse failure: byte offset into the input plus a short message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser had reached.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters use the short escapes where JSON defines
/// them and `\u00XX` otherwise.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to an existing buffer.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = &self.bytes[self.pos..self.pos + 4];
        // from_str_radix would accept a leading `+`, which JSON does not.
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let text = std::str::from_utf8(digits).expect("hex digits are ASCII");
        let code = u16::from_str_radix(text, 16).expect("4 hex digits fit in u16");
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // surrogate pair: a \uXXXX low half must follow
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000
                                    + (((hi as u32) - 0xd800) << 10)
                                    + ((lo as u32) - 0xdc00);
                                char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue; // pos already advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte at once. The stop bytes are ASCII, so the
                    // run ends on a character boundary of the input.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Consumes one or more ASCII digits; errors if none are present.
    fn digits(&mut self, context: &'static str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(context));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        // The full RFC 8259 grammar, enforced here rather than delegated
        // to f64::from_str (which would accept "007", "1." and "1.e5").
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zeros are not allowed"));
            }
        } else {
            self.digits("expected a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected a digit after `.`")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected a digit in the exponent")?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn containers_preserve_order() {
        let v = parse(r#"{"b": [1, 2, {"c": null}], "a": true}"#).unwrap();
        let pairs = v.as_object().unwrap();
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" back\\ nl\n tab\t cr\r bell\u{07} nul\u{0} uni→☃ 𝄞";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(r#""\ud834\udd1e""#).unwrap(), Json::Str("𝄞".into()));
        assert!(parse(r#""\ud834""#).is_err(), "unpaired surrogate");
        assert!(parse(r#""\ud834\u0041""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "tru",
            "nul",
            "1e",
            "--1",
            "\u{7}",
            "[1 2]",
            "{\"a\":1,}",
            "\"\\q\"",
            "01x",
            "[]]",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn number_grammar_is_rfc_8259_strict() {
        // f64::from_str is laxer than JSON; the scanner must not be.
        for bad in ["007", "01", "-01", "1.", "1.e5", ".5", "-.5", "1e", "1e+", "+1", "1.2.3"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(parse("-0.5e-2").unwrap(), Json::Num(-0.005));
        assert_eq!(parse("10").unwrap(), Json::Num(10.0));
        // a `+` smuggled into a \u escape is rejected too
        assert!(parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn numbers_as_u64_guard() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1.0").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn long_strings_decode_in_one_pass() {
        // ASCII runs, two- and three-byte scalars and escapes, ~200 KB.
        let unit = "plain ascii run é ☃ \\n";
        let n = 200_000 / unit.len();
        let doc = format!("\"{}\"", unit.repeat(n));
        let started = std::time::Instant::now();
        let decoded = parse(&doc).unwrap();
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "{} bytes took {elapsed:?}",
            doc.len()
        );
        assert_eq!(decoded, Json::Str("plain ascii run é ☃ \n".repeat(n)));

        // A control byte deep inside a long run errors at its own offset.
        let run = "é".repeat(75_000);
        let doc = format!("\"{run}\u{1}{}\"", "b".repeat(1_000));
        let err = parse(&doc).unwrap_err();
        let expected = (1 + run.len(), "unescaped control character");
        assert_eq!((err.offset, err.message.as_str()), expected);
    }

    #[test]
    fn trailing_garbage_rejected_whitespace_ok() {
        assert!(parse("{} {}").is_err());
        assert!(parse("  {\"a\": 1}\n\t").is_ok());
    }
}
