//! Minimal hand-rolled JSON for the line-delimited serve protocol.
//!
//! The repository takes no external crates, so the protocol layer parses and
//! emits its frames with this module: a recursive-descent parser into [`Value`]
//! plus the [`escape`] helper for emission. It accepts exactly the JSON the
//! protocol produces (objects, strings with standard escapes, finite numbers,
//! booleans, null, arrays) and rejects everything else with a message.

/// A parsed JSON value. Objects preserve key order as a pair list — the
/// protocol never needs map semantics beyond [`Value::get`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol never needs more than `f64` range).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered `(key, value)` list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed input.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut parser = Parser { bytes: input.as_bytes(), pos: 0 };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing characters at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// The member `key` of an object (`None` for other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => {
                members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // `u64::MAX as f64` rounds up to 2^64, one past the range: the bound is strict.
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes a string for emission inside JSON quotes: backslash, quote, and
/// control characters (the short escapes where JSON has them, `\u00XX` otherwise).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Nesting depth cap: the protocol is at most two levels deep, and a recursion
/// bound turns adversarial input into an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        // The slice is ASCII by construction of the loop above.
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| "invalid UTF-8 in string".to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let c = self.unicode_escape()?;
                            let mut buffer = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buffer).as_bytes());
                        }
                        other => {
                            return Err(format!("invalid escape \\{}", other as char))
                        }
                    }
                }
                Some(&byte) => {
                    if byte < 0x20 {
                        return Err("unescaped control character in string".to_string());
                    }
                    out.push(byte);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let text = std::str::from_utf8(chunk).map_err(|_| "invalid \\u escape")?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes `\uXXXX` (already past the `\u`), pairing surrogates.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&high) {
            // A high surrogate must be followed by `\uXXXX` with a low surrogate.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("unpaired surrogate in \\u escape".to_string());
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err("unpaired surrogate in \\u escape".to_string());
            }
            0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| "invalid \\u code point".to_string())
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
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
    fn parses_the_protocol_shapes() {
        let value = Value::parse(
            r#"{"cmd": "analyze", "id": "q1", "degree": 2, "stream": true,
                "new": "proc f(n) { tick(1); }", "empty": [], "null": null,
                "nested": {"a": [1, -2.5, 3e2]}}"#,
        )
        .unwrap();
        assert_eq!(value.get("cmd").and_then(Value::as_str), Some("analyze"));
        assert_eq!(value.get("degree").and_then(Value::as_u64), Some(2));
        assert_eq!(value.get("stream").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("null"), Some(&Value::Null));
        assert_eq!(value.get("missing"), None);
        let nested = value.get("nested").and_then(|n| n.get("a")).unwrap();
        assert_eq!(
            nested,
            &Value::Arr(vec![Value::Num(1.0), Value::Num(-2.5), Value::Num(300.0)])
        );
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a \"quoted\" line\nwith\ttabs, a backslash \\ and unicode: λ → ∞";
        let wire = format!("\"{}\"", escape(original));
        assert_eq!(Value::parse(&wire).unwrap().as_str(), Some(original));
        // Control characters take the \u00XX form and parse back.
        let control = "\u{1}\u{2}";
        let wire = format!("\"{}\"", escape(control));
        assert!(wire.contains("\\u0001"));
        assert_eq!(Value::parse(&wire).unwrap().as_str(), Some(control));
        // Surrogate pairs decode.
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "\"unterminated",
            "\"bad \\q escape\"", "\"lone \\ud800 surrogate\"", "{} trailing",
            "nan", "1e999",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Deep nesting errors out instead of overflowing the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("3".into()).as_u64(), None);
        // 2^64 is out of range; the largest `f64` below it (2^64 − 2048) is not.
        assert_eq!(Value::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(Value::Num(18446744073709549568.0).as_u64(), Some(18446744073709549568));
    }
}
