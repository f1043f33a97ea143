//! Minimal JSON value model, parser and writer.
//!
//! The offline container has no serde, so the workspace carries its own
//! JSON implementation: a [`Value`] tree, a recursive-descent parser
//! with depth guards (hostile input reaches it straight off the wire or
//! from untrusted files), and a writer whose output round-trips through
//! the parser. A number is exact or a float: an integer literal that
//! fits `i128` parses to [`Value::Int`], so request ids up to
//! `u64::MAX`, ±2^64 absint brackets and 32×32 worst-case errors (past
//! 2^53) survive a round trip digit for digit; any other literal (a
//! fraction, an exponent, or an integer past `i128`) parses to
//! [`Value::Num`]. The writer prints both as plain decimals (so an
//! integral float reads back as an `Int`), and a reader that asks
//! [`Value::as_f64`] or [`Value::as_u64`] need not care which one it
//! holds. 64-bit LUT INITs still travel as hex
//! strings (see [`crate::axnl`]). This module started life inside
//! `axmul-serve`; it lives here so the interchange formats, the wire
//! protocol and the JSON views of analysis results share one model,
//! and `axmul-serve` re-exports it unchanged.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: u32 = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exactly.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap), so rendering is
    /// deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (an integer rounds to
    /// the nearest `f64`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (no fraction, no overflow; a float only up to 2^53).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// String value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Float value.
    #[must_use]
    pub fn num(n: impl Into<f64>) -> Value {
        Value::Num(n.into())
    }

    /// Exact integer value.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit `i128`, which only a `u128` above
    /// `i128::MAX` can fail to do.
    #[must_use]
    pub fn int<T: TryInto<i128>>(n: T) -> Value {
        match n.try_into() {
            Ok(n) => Value::Int(n),
            Err(_) => panic!("integer does not fit i128"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Inf; degrade to null.
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte {other:#04x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        let integral = !matches!(self.peek(), Some(b'.' | b'e' | b'E'));
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("unparseable number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            // hex4 leaves pos just past the last digit;
                            // skip the shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 is passed through verbatim; the
                    // input is already a &str, so slicing on a char
                    // boundary is guaranteed by walking chars.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::Str("a\nb".into()));
        assert_eq!(
            parse(r#"[1, "two", [3], {}]"#).unwrap(),
            Value::Arr(vec![
                Value::Int(1),
                Value::Str("two".into()),
                Value::Arr(vec![Value::Int(3)]),
                Value::Obj(BTreeMap::new()),
            ])
        );
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é""#).unwrap(), Value::Str("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "}", "[1,", "[1 2]", "{\"a\"}", "{\"a\":}", "nul", "tru", "01x", "\"", "1 2",
            "--1", "1.", "1e", "[,]",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn rejects_hostile_nesting_depth() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn writer_output_round_trips() {
        let v = Value::obj([
            (
                "s",
                Value::str("quote \" backslash \\ newline \n ünïcødé 😀"),
            ),
            ("n", Value::num(0.1f64)),
            ("i", Value::int(65536u32)),
            ("neg", Value::int(-7)),
            ("u64_max", Value::int(u64::MAX)),
            ("neg_u64_max", Value::int(-i128::from(u64::MAX))),
            ("past_f64", Value::int((1u64 << 53) + 1)),
            ("zero", Value::int(0)),
            ("b", Value::Bool(false)),
            ("z", Value::Null),
            (
                "a",
                Value::Arr(vec![Value::int(1), Value::str("x"), Value::Null]),
            ),
        ]);
        let text = v.to_string();
        assert!(text.contains("\"u64_max\":18446744073709551615"), "{text}");
        assert!(text.contains("\"past_f64\":9007199254740993"), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn fractions_and_exponents_stay_floats() {
        assert_eq!(parse("7").unwrap(), Value::Int(7));
        assert_eq!(parse("-0").unwrap(), Value::Int(0));
        assert_eq!(parse("7.0").unwrap(), Value::Num(7.0));
        assert_eq!(parse("7e0").unwrap(), Value::Num(7.0));
        assert_eq!(parse("1E3").unwrap(), Value::Num(1000.0));
        // Past i128 an integer literal is still a number, as a float.
        let huge = "1".repeat(40);
        assert_eq!(
            parse(&huge).unwrap(),
            Value::Num(1.111_111_111_111_111_2e39)
        );
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(5.0).as_u64(), Some(5));
        assert_eq!(Value::Num(5.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::str("5").as_u64(), None);
        assert_eq!(Value::Int(5).as_u64(), Some(5));
        assert_eq!(Value::int(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Value::Int(i128::from(u64::MAX) + 1).as_u64(), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
        assert_eq!(Value::Int(-1).as_f64(), Some(-1.0));
    }
}
