//! Hand-rolled JSON encoder/decoder — std-only.
//!
//! The workspace builds in hermetic environments with no crates.io access,
//! so campaign artifacts are serialized with this small module instead
//! of serde. Two properties matter more than generality:
//!
//! * **Deterministic output** — objects keep insertion order (a `Vec` of
//!   pairs, not a map), floats render with Rust's shortest round-trip
//!   `Display`, and indentation is fixed. Encoding the same value twice,
//!   on any thread, yields identical bytes; the campaign's determinism
//!   test diffs artifacts byte-for-byte.
//! * **Round-tripping** — `Json::parse(v.render())` reconstructs `v`
//!   exactly (floats included, thanks to shortest-repr printing), which
//!   the workspace smoke test asserts end to end.
//! * **Linear time** — strings decode and encode as *runs*: the decoder
//!   copies everything up to the next `"` or `\` as one slice of the
//!   input, and the encoder copies everything up to the next byte that
//!   needs escaping (`"`, `\`, or a control byte below 0x20) in one
//!   `push_str`. Every delimiter is ASCII, so run boundaries always fall
//!   on char boundaries and no per-character UTF-8 work is needed. Chunk
//!   encode, chunk decode on `--resume` and the summary render all cost
//!   time proportional to their size.
//! * **Bounded nesting** — the decoder recurses once per array/object
//!   level, so an input like a million `[` would overflow the stack and
//!   abort the process. Nesting deeper than `MAX_DEPTH` (64) levels is a
//!   [`JsonError`] at the offending bracket instead. Everything this
//!   workspace writes (artifacts, `BENCH_kernels.json`) nests three
//!   deep.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve insertion order for deterministic output.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integer (counters, seeds). Kept separate from `Num` so
    /// u64 seeds survive the round trip exactly.
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Floats print via Rust's shortest round-trip `Display`, with `.0`
/// appended to integral values so they re-parse as `Num`, not `Int`.
/// Non-finite values have no JSON representation; emit null.
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Quote `s`, copying each run of bytes that needs no escape with one
/// `push_str`. The bytes that end a run are ASCII, so they never sit
/// inside a multi-byte char and every run is a valid `&str` slice.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next delimiter as one slice.
            // `pos` starts on a char boundary (after `"` or a complete
            // escape, all ASCII) and the run stops at `"`, `\` or the end
            // of input, so the slice is valid UTF-8 by construction.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped on `\`: decode one escape sequence.
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Called with `pos` on the 'u'; consumes "uXXXX" (and a low surrogate
    /// pair if present). Returns the decoded char.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1; // consume 'u'
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            offset: start,
            message: "malformed number".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn render_parse_roundtrip() {
        let v = obj(vec![
            ("name", Json::Str("fig09 \"quoted\"\nline".into())),
            ("seed", Json::Int(u64::MAX)),
            ("wall_ms", Json::Num(12.375)),
            ("integral", Json::Num(4.0)),
            ("passed", Json::Bool(true)),
            ("panic", Json::Null),
            (
                "runs",
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Num(-2.5),
                    Json::Str("µs — dash".into()),
                ]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("round trip parses");
        assert_eq!(back, v);
    }

    #[test]
    fn rendering_is_deterministic() {
        let v = obj(vec![("b", Json::Int(2)), ("a", Json::Int(1))]);
        assert_eq!(v.render(), v.render());
        // Insertion order preserved, not sorted.
        let text = v.render();
        assert!(text.find("\"b\"").expect("b") < text.find("\"a\"").expect("a"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aébA 😀 \t""#).expect("escapes");
        assert_eq!(v, Json::Str("aébA 😀 \t".into()));
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(Json::parse("42").expect("int"), Json::Int(42));
        assert_eq!(Json::parse("-3").expect("neg"), Json::Num(-3.0));
        assert_eq!(Json::parse("2.5e3").expect("exp"), Json::Num(2500.0));
        assert_eq!(
            Json::parse("18446744073709551615").expect("u64 max"),
            Json::Int(u64::MAX)
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn float_roundtrip_exact() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123_456_789.123_456_79, f64::MAX] {
            let text = Json::Num(x).render();
            let back = Json::parse(&text).expect("parses");
            assert_eq!(back.as_f64().expect("num"), x, "float {x} drifted");
        }
    }

    #[test]
    fn escaping_is_pinned_byte_for_byte() {
        // Artifact bytes are hashed into the resume ledger, so the encoder
        // may never change what it emits: quotes, backslashes and control
        // bytes escape, everything else (DEL, multi-byte chars) is copied.
        let s = "\"a\\b\n\r\t\u{1}\u{1f} é😀\u{7f}\"";
        assert_eq!(
            Json::Str(s.into()).render(),
            "\"\\\"a\\\\b\\n\\r\\t\\u0001\\u001f é😀\u{7f}\\\"\"\n"
        );
        assert_eq!(
            Json::parse(&Json::Str(s.into()).render()),
            Ok(Json::Str(s.into()))
        );
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // Unbounded recursion on a million unclosed brackets would overflow
        // the stack: an abort that `catch_unwind` cannot contain.
        let err = Json::parse(&"[".repeat(1_000_000)).expect_err("too deep");
        assert_eq!(
            err.offset, MAX_DEPTH,
            "error points at the first bracket past the cap"
        );
        let nest = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(
            Json::parse(&nest(MAX_DEPTH)).is_ok(),
            "exactly at the cap parses"
        );
        assert_eq!(
            Json::parse(&nest(MAX_DEPTH + 1))
                .expect_err("one past")
                .offset,
            MAX_DEPTH
        );
        // Objects count towards the same limit.
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            Json::parse(&objects).expect_err("objects too deep").offset,
            5 * MAX_DEPTH
        );
    }

    #[test]
    fn get_and_accessors() {
        let v = obj(vec![("k", Json::Int(7))]);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(7));
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Int(7).as_f64(), Some(7.0));
        assert!(Json::Null.as_str().is_none());
    }
}
