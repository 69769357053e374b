//! Serde-free JSON: the writers every emitter uses and the one reader
//! every JSON document in the workspace goes through.
//!
//! The telemetry crate must not pull external dependencies (the build
//! container is offline), so JSON is assembled by hand through
//! [`push_str_escaped`] / [`push_f64`] and read back by [`parse`] — the
//! `POST /ingest` body, a shard's `/healthz` as the router's prober sees
//! it, and telemetry's own output when tests check it.
//!
//! [`parse`] is a recursive-descent reader with a nesting bound of
//! [`MAX_DEPTH`]. Numbers take the RFC 8259 shape (`-`, digits, an
//! optional `.digits`, an optional exponent; leading zeros are
//! tolerated) and are converted by `str::parse::<f64>`. Strings decode
//! every escape, including `\u` surrogate pairs; a lone surrogate is an
//! error. Errors read `invalid JSON at byte N: …`.

use std::fmt::Write;

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number. Non-finite values (not representable in
/// JSON) are encoded as strings: `"NaN"`, `"inf"`, `"-inf"` — keeping the
/// document parseable while preserving the signal that a value went bad.
///
/// An integer below `10¹⁵` in magnitude is written as one; any other value
/// with `|v| < 10⁻⁵` or `|v| ≥ 10¹⁶` in `{:e}` form (`1e300`,
/// `-1.2345678901234567e-300`), the rest as `Display` writes them. Every
/// form is the shortest that reads back to the same `f64`, so [`parse`]
/// returns the bits written, except that `-0.0` is written `0`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else if v.abs() < 1e-5 || v.abs() >= 1e16 {
        let _ = write!(out, "{v:e}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// One parsed JSON value. Object fields keep document order, duplicates
/// included.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first field named `key`; `None` when absent or when `self`
    /// is not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An integral number in `0..=2^53` (every integer in that range is
    /// exact in an `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(n) if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The text of a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Bounds its
/// recursion: a hostile document of repeated `[`/`{` would otherwise
/// overflow the stack, and stack overflow aborts the process — it is not
/// an unwinding panic, so the `catch_unwind` isolation around request
/// handling cannot contain it.
pub const MAX_DEPTH: usize = 64;

/// Parses `s` as exactly one JSON value, surrounding whitespace allowed.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        s,
        b: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing bytes after the JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth >= MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    /// Advances past a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut ok = self.digits();
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = self.digits();
        }
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok = self.digits();
        }
        match self.s[start..self.pos].parse::<f64>() {
            Ok(n) if ok => Ok(Value::Num(n)),
            _ => Err(self.err("malformed number")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before either ends on a
            // char boundary and is copied through as it stands.
            let run = self.b[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else {
                self.pos = self.b.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.s[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.b[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return Err(self.err("bad escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The char of a `\u` escape whose `\u` is already consumed: one
    /// BMP code point, or a high surrogate followed by `\u` and a low one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let cp = self.hex4()?;
        let cp = if (0xd800..0xdc00).contains(&cp) {
            if !self.b[self.pos..].starts_with(b"\\u") {
                return Err(self.err("lone surrogate in \\u escape"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("lone surrogate in \\u escape"));
            }
            0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            cp
        };
        char::from_u32(cp).ok_or_else(|| self.err("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Four ASCII hex digits: the slice below is on char boundaries
        // and `from_str_radix` sees no sign.
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let v = u32::from_str_radix(&self.s[self.pos..self.pos + 4], 16);
        self.pos += 4;
        v.map_err(|_| self.err("bad \\u escape"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_validator() {
        let mut out = String::from("{");
        push_str_escaped(&mut out, "key\"with\\weird\nchars\u{1}");
        out.push(':');
        push_f64(&mut out, 1.25);
        out.push('}');
        let parsed = parse(&out).unwrap_or_else(|e| panic!("{out}: {e}"));
        let want = Value::Obj(vec![(
            "key\"with\\weird\nchars\u{1}".to_string(),
            Value::Num(1.25),
        )]);
        assert_eq!(parsed, want);
    }

    #[test]
    fn numbers_format_compactly() {
        let mut s = String::new();
        push_f64(&mut s, 3.0);
        assert_eq!(s, "3");
        s.clear();
        push_f64(&mut s, 0.5);
        assert_eq!(s, "0.5");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "\"NaN\"");
        s.clear();
        push_f64(&mut s, f64::NEG_INFINITY);
        assert_eq!(s, "\"-inf\"");
    }

    /// `push_f64`'s rule written with `format!` temporaries: the
    /// reference the in-place writer must match byte for byte.
    fn push_f64_by_format(out: &mut String, v: f64) {
        if v.is_nan() {
            out.push_str("\"NaN\"");
        } else if v.is_infinite() {
            out.push_str(if v > 0.0 { "\"inf\"" } else { "\"-inf\"" });
        } else if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{}", v as i64));
        } else if v.abs() < 1e-5 || v.abs() >= 1e16 {
            out.push_str(&format!("{v:e}"));
        } else {
            out.push_str(&format!("{v}"));
        }
    }

    /// The `f64` corpus both number tests run: edge values and seeded
    /// random bit patterns.
    fn number_corpus() -> Vec<f64> {
        let two53 = 9_007_199_254_740_992.0;
        let mut corpus = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::EPSILON,
            1e15,
            -1e15,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15 - 0.5,
            1e15 + 2.0,
            999_999_999_999_999.9,
            two53,
            two53 - 1.0,
            two53 + 2.0,
            -two53,
            i64::MAX as f64,
            i64::MIN as f64,
            u64::MAX as f64,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            -2.5,
            123.0,
            -1.234_567_890_123_456_7,
        ];
        // Seeded random bit patterns (splitmix64): every exponent, NaN
        // payloads and subnormals included.
        let mut state = 0x5eed_u64;
        corpus.extend((0..20_000).map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            f64::from_bits(z ^ (z >> 31))
        }));
        corpus.extend([
            1e-5,
            -1e-5,
            1e-5f64.next_down(),
            1e16,
            1e16 - 2.0,
            1e300,
            1.5e-7,
        ]);
        corpus
    }

    #[test]
    fn numbers_write_the_bytes_format_wrote() {
        let (mut have, mut want) = (String::new(), String::new());
        for v in number_corpus() {
            have.clear();
            want.clear();
            push_f64(&mut have, v);
            push_f64_by_format(&mut want, v);
            assert_eq!(have, want, "bits {:#018x}", v.to_bits());
        }
        let mut escaped = String::new();
        push_str_escaped(&mut escaped, "\u{0}\u{1f}\u{7f}");
        assert_eq!(escaped, "\"\\u0000\\u001f\u{7f}\"");
    }

    /// Every finite value reads back through [`parse`] to the bits it was
    /// written from (`-0.0` to `0.0`, its one exception), and no form is
    /// longer than the 24 bytes of `-1.2345678901234568e-300`.
    #[test]
    fn numbers_read_back_to_their_bits() {
        let mut text = String::new();
        for v in number_corpus().into_iter().filter(|v| v.is_finite()) {
            text.clear();
            push_f64(&mut text, v);
            let back = match parse(&text) {
                Ok(Value::Num(x)) => x,
                other => panic!("{text} parsed as {other:?}"),
            };
            let want = if v == 0.0 { 0.0f64 } else { v };
            assert_eq!(
                back.to_bits(),
                want.to_bits(),
                "{text} from {:#018x}",
                v.to_bits()
            );
            assert!(text.len() <= 24, "{text} from {:#018x}", v.to_bits());
        }
        text.clear();
        push_f64(&mut text, -1.234_567_890_123_456_8e-300);
        assert_eq!(text, "-1.2345678901234568e-300");
    }

    #[test]
    fn validator_accepts_typical_documents() {
        for ok in [
            "{}",
            "[]",
            "{\"a\": [1, 2.5, -3e-2], \"b\": {\"c\": null}, \"d\": \"x\\ny\"}",
            "  {\"nested\": [{\"deep\": true}]} ",
            "-0.25",
            "\"plain\"",
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "01x",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{'single':1}",
            "1.",
            "1.e0",
            "-",
            "1e",
            "\"\\u+123\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn accessors_read_paths() {
        let v = parse(r#"{"a":{"n":7,"s":"x\"y","f":1.5,"neg":-1},"a":2}"#).unwrap();
        let a = v.get("a").expect("first match wins");
        assert_eq!(a.get("n").and_then(Value::as_u64), Some(7));
        assert_eq!(a.get("s").and_then(Value::as_str), Some("x\"y"));
        assert_eq!(a.get("f").and_then(Value::as_u64), None);
        assert_eq!(a.get("neg").and_then(Value::as_u64), None);
        assert_eq!(a.get("n").and_then(Value::as_str), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("a"), None);
        assert_eq!(Value::Num(9_007_199_254_740_992.0).as_u64(), Some(1 << 53));
        assert_eq!(Value::Num(18_014_398_509_481_984.0).as_u64(), None);
    }
}
