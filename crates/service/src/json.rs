//! Hand-rolled JSON: a value type, a recursive-descent parser, and a
//! deterministic renderer.
//!
//! The workspace builds fully offline with no registry dependencies
//! (`tests/no_registry_deps.rs`), so the daemon's wire format is
//! implemented here rather than pulled from serde. Two properties the
//! protocol layer leans on:
//!
//! * **Insertion-ordered objects** — [`Json::Obj`] is a `Vec` of pairs,
//!   not a map, so a rendered response's key order is exactly the order
//!   the handler pushed keys. Golden-transcript tests diff responses
//!   byte-for-byte; a hash map would shuffle them.
//! * **Bounded recursion** — [`parse`] caps nesting depth at
//!   [`MAX_DEPTH`], so a hostile `[[[[...` line cannot blow the daemon's
//!   stack (the framing layer already caps line length).

use std::fmt::Write as _;

/// Maximum nesting depth [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order (see module docs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload widened to `u64`, if nonnegative.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders this value as compact JSON (no whitespace), with object
    /// keys in insertion order — deterministic for transcript diffing.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => render_int(*n, out),
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit an unparsable token.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `n` in decimal, without going through `fmt`.
fn render_int(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    render_u64(n.unsigned_abs(), out);
}

/// Writes `n` in decimal, without going through `fmt`.
pub(crate) fn render_u64(n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Writes `s` as a JSON string. Every character that needs an escape
/// is ASCII, so the text between two of them is copied as one run.
pub(crate) fn render_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses one JSON document, requiring it to span the whole input
/// (trailing whitespace allowed).
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at byte {}", b as char, *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    // Fast path: up to 18 plain digits cannot overflow an `i64`. Any
    // other text (more digits, a fraction, an exponent, a stray sign)
    // goes on to the general scan below, from where this one stopped.
    let digits_start = *pos;
    let mut value = 0i64;
    while let Some(&b) = bytes.get(*pos) {
        if !b.is_ascii_digit() || *pos - digits_start == 18 {
            break;
        }
        value = value * 10 + i64::from(b - b'0');
        *pos += 1;
    }
    if *pos > digits_start
        && !matches!(
            bytes.get(*pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        )
    {
        return Ok(Json::Int(if negative { -value } else { value }));
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    if !fractional {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))
}

fn read_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let hex = bytes
        .get(start..start + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one piece.
        // Both are ASCII, so a run of valid UTF-8 input ends on a
        // character boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        if run > 0 {
            let text = std::str::from_utf8(&bytes[*pos..*pos + run]).expect("input is valid utf-8");
            out.push_str(text);
            *pos += run;
        }
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = read_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by an escaped low
                        // surrogate is one astral-plane scalar (JSON
                        // strings are UTF-16 on the wire). Lone or
                        // mismatched surrogates degrade to U+FFFD; the
                        // protocol never emits them.
                        let scalar = if (0xD800..0xDC00).contains(&code)
                            && bytes.get(*pos + 1) == Some(&b'\\')
                            && bytes.get(*pos + 2) == Some(&b'u')
                        {
                            match read_hex4(bytes, *pos + 3) {
                                Ok(low) if (0xDC00..0xE000).contains(&low) => {
                                    *pos += 6;
                                    0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                _ => code,
                            }
                        } else {
                            code
                        };
                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_representative_document() {
        let text = r#"{"verb":"define","name":"x","n":3,"neg":-7,"rate":0.5,"ok":true,"none":null,"arr":[1,"two",[]],"esc":"a\"b\\c\ndA"}"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("define"));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("neg"), Some(&Json::Int(-7)));
        assert_eq!(doc.get("rate"), Some(&Json::Float(0.5)));
        assert_eq!(doc.get("esc").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        // Render → reparse is identity (render is canonical, so the
        // rendered text differs from the input only in escapes).
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn key_order_is_preserved_in_render() {
        let doc = Json::obj(vec![
            ("zebra", Json::Int(1)),
            ("alpha", Json::Int(2)),
            ("mid", Json::Bool(false)),
        ]);
        assert_eq!(doc.render(), r#"{"zebra":1,"alpha":2,"mid":false}"#);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "{\"a\":1} extra",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut text = String::new();
        for _ in 0..(MAX_DEPTH + 2) {
            text.push('[');
        }
        for _ in 0..(MAX_DEPTH + 2) {
            text.push(']');
        }
        let err = parse(&text).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
        // Lone or mismatched surrogates degrade to U+FFFD without
        // corrupting the surrounding text.
        assert_eq!(
            parse("\"a\\ud83db\"").unwrap(),
            Json::Str("a\u{fffd}b".to_string())
        );
        assert_eq!(
            parse("\"\\ude00\"").unwrap(),
            Json::Str("\u{fffd}".to_string())
        );
        assert_eq!(
            parse("\"\\ud83d\\ud83d\"").unwrap(),
            Json::Str("\u{fffd}\u{fffd}".to_string())
        );
    }

    #[test]
    fn control_characters_render_escaped() {
        let doc = Json::Str("a\u{1}b".to_string());
        assert_eq!(doc.render(), "\"a\\u0001b\"");
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    /// A character-at-a-time parser and renderer: every string
    /// character is decoded on its own, every number goes through
    /// `str::parse` and every integer through `fmt`. The tests below
    /// hold the module to exactly its values, error messages and
    /// rendered bytes.
    mod reference {
        use super::{Json, MAX_DEPTH};
        use std::fmt::Write as _;

        pub fn render(value: &Json) -> String {
            let mut out = String::new();
            render_into(value, &mut out);
            out
        }

        fn render_into(value: &Json, out: &mut String) {
            match value {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                Json::Float(x) => {
                    if x.is_finite() {
                        let _ = write!(out, "{x}");
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => render_string(s, out),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render_into(item, out);
                    }
                    out.push(']');
                }
                Json::Obj(pairs) => {
                    out.push('{');
                    for (i, (key, value)) in pairs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        render_string(key, out);
                        out.push(':');
                        render_into(value, out);
                    }
                    out.push('}');
                }
            }
        }

        fn render_string(s: &str, out: &mut String) {
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

        pub fn parse(input: &str) -> Result<Json, String> {
            let bytes = input.as_bytes();
            let mut pos = 0usize;
            let value = parse_value(bytes, &mut pos, 0)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing content at byte {pos}"));
            }
            Ok(value)
        }

        fn skip_ws(bytes: &[u8], pos: &mut usize) {
            while let Some(&b) = bytes.get(*pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    *pos += 1;
                } else {
                    break;
                }
            }
        }

        fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
            if depth > MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
            }
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                None => Err("unexpected end of input".to_string()),
                Some(b'{') => parse_object(bytes, pos, depth),
                Some(b'[') => parse_array(bytes, pos, depth),
                Some(b'"') => parse_string(bytes, pos).map(Json::Str),
                Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
                Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
                Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
                Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
                Some(&b) => Err(format!("unexpected byte {:?} at byte {}", b as char, *pos)),
            }
        }

        fn parse_keyword(
            bytes: &[u8],
            pos: &mut usize,
            word: &str,
            value: Json,
        ) -> Result<Json, String> {
            if bytes[*pos..].starts_with(word.as_bytes()) {
                *pos += word.len();
                Ok(value)
            } else {
                Err(format!("malformed literal at byte {}", *pos))
            }
        }

        fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
            let start = *pos;
            if bytes.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            let mut fractional = false;
            while let Some(&b) = bytes.get(*pos) {
                match b {
                    b'0'..=b'9' => *pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        fractional = true;
                        *pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
            if !fractional {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Json::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("malformed number `{text}` at byte {start}"))
        }

        fn read_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
            let hex = bytes
                .get(start..start + 4)
                .ok_or_else(|| "truncated \\u escape".to_string())?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape".to_string())?;
            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
        }

        fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let code = read_hex4(bytes, *pos + 1)?;
                                *pos += 4;
                                let scalar = if (0xD800..0xDC00).contains(&code)
                                    && bytes.get(*pos + 1) == Some(&b'\\')
                                    && bytes.get(*pos + 2) == Some(&b'u')
                                {
                                    match read_hex4(bytes, *pos + 3) {
                                        Ok(low) if (0xDC00..0xE000).contains(&low) => {
                                            *pos += 6;
                                            0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                        }
                                        _ => code,
                                    }
                                } else {
                                    code
                                };
                                out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape at byte {}", *pos)),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        let rest =
                            std::str::from_utf8(&bytes[*pos..]).expect("input is valid utf-8");
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }

        fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => {
                        *pos += 1;
                    }
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }

        fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {}", *pos));
                }
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {}", *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => {
                        *pos += 1;
                    }
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
    }

    /// `parse` and `render` agree with the reference on `text`: the
    /// same value or the same message, and the same rendered bytes.
    /// NaN never parses, so `==` on the values is exact.
    fn agrees_with_reference(text: &str) {
        let got = parse(text);
        assert_eq!(got, reference::parse(text), "parse of {text:?}");
        if let Ok(value) = got {
            assert_eq!(
                value.render(),
                reference::render(&value),
                "render of {text:?}"
            );
        }
    }

    #[test]
    fn edge_cases_match_the_reference() {
        let cases = [
            // Escapes, surrogate pairs and lone surrogates.
            r#""\"\\\/\b\f\n\r\t""#,
            r#""\u0041\u00e9\u4e2d\ud83d\ude00""#,
            r#""\ud83d""#,
            r#""\ude00x""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d\ude00""#,
            r#""\ud83d\""#,
            r#""\ud83d\u12""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\uzzzz""#,
            r#""\q""#,
            "\"\\u00\u{e9}\"",
            "\"\\u0\u{e9}\"",
            "\"\\\u{e9}\"",
            "\"\\",
            r#""\"#,
            r#""abc\"#,
            // Non-ASCII runs and raw control characters.
            "\"h\u{e9}llo w\u{f6}rld \u{4e2d}\u{6587} \u{1f600}\"",
            "\"\u{1}\u{1f}\u{7f}\t\n\u{0}\"",
            "{\"k\u{e9}y\":\"\u{1f600}\",\"\u{0}\":[\"\u{fffd}\"]}",
            "\"unterminated \u{e9}",
            // Integers of 18, 19 and 20 digits, and at the i64 bounds.
            "123456789012345678",
            "-123456789012345678",
            "999999999999999999",
            "1234567890123456789",
            "-1234567890123456789",
            "12345678901234567890",
            "-12345678901234567890",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "000000000000000000000042",
            "[1,-2,30,0,-0,007]",
            // Number texts at the edge of the grammar.
            "-0",
            "-",
            "01",
            "1-2",
            "1e5",
            "1E5",
            "1e+5",
            "1.5e-3",
            "-1.25",
            "1.",
            ".5",
            "-.5",
            "1e",
            "--1",
            "-a",
            "1e400",
            "0.1",
            "123456789012345678.5",
            "[12345678901234567890123]",
            "{\"n\":-}",
            // Literals, structure and whitespace.
            "true",
            "tru",
            "nul",
            "null ",
            " \t\r\n[ 1 , { } , [ ] , \"\" ] ",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{1:2}",
            "",
            "   ",
            "x",
            "{\"a\":1} extra",
        ];
        for text in cases {
            agrees_with_reference(text);
        }
        for n in [
            0,
            1,
            -1,
            9,
            10,
            -10,
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
        ] {
            let value = Json::Int(n);
            assert_eq!(value.render(), reference::render(&value), "{n}");
        }
        let all_controls: String = (0u8..0x80).map(char::from).collect();
        let value = Json::Str(all_controls);
        assert_eq!(value.render(), reference::render(&value));
        agrees_with_reference(&value.render());
    }

    /// Characters a random string or mutation draws from: everything
    /// the scanners treat specially, plus multi-byte UTF-8.
    const POOL: &[&str] = &[
        "a",
        "Z",
        " ",
        "\"",
        "\\",
        "/",
        "\\u",
        "\\ud83d",
        "\\ude00",
        "0",
        "7",
        "-",
        "+",
        ".",
        "e",
        "E",
        "[",
        "]",
        "{",
        "}",
        ",",
        ":",
        "\n",
        "\t",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "\u{e9}",
        "\u{4e2d}",
        "\u{1f600}",
        "t",
        "n",
        "null",
        "true",
    ];

    fn random_value(rng: &mut sl_support::SplitMix, depth: usize) -> Json {
        match rng.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.flip()),
            2 => Json::Int(match rng.below(4) {
                0 => rng.next_u64() as i64,
                1 => rng.below(1000) as i64 - 500,
                2 => (rng.next_u64() % 1_000_000_000_000_000_000) as i64,
                _ => -((rng.next_u64() >> 1) as i64),
            }),
            3 => Json::Str(
                (0..rng.below(12))
                    .map(|_| POOL[rng.below(POOL.len())])
                    .collect(),
            ),
            4 => Json::Float((rng.below(2001) as f64 - 1000.0) / 16.0),
            5 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn seeded_random_documents_match_the_reference() {
        let mut rng = sl_support::SplitMix::new(0x6a73_6f6e);
        for _ in 0..3000 {
            let text = reference::render(&random_value(&mut rng, 3));
            agrees_with_reference(&text);
            // Mutations: splice pool characters in, cut characters out.
            let mut chars: Vec<String> = text.chars().map(String::from).collect();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(chars.len() + 1);
                if rng.flip() || chars.is_empty() {
                    chars.insert(at, POOL[rng.below(POOL.len())].to_string());
                } else {
                    chars.remove(at.min(chars.len() - 1));
                }
            }
            agrees_with_reference(&chars.concat());
        }
    }

    #[test]
    fn a_string_just_under_the_line_cap_parses_in_linear_time() {
        // One string filling a 1 MiB request line. A scan that
        // re-validates the rest of the line for every character takes
        // tens of seconds on it; a linear scan takes milliseconds.
        let body = "\u{e9}abcdefghijklmn\\n".repeat(((1 << 20) - 16) / 18);
        let line = format!("{{\"s\":\"{body}\"}}");
        assert!(line.len() < 1 << 20);
        let started = std::time::Instant::now();
        let doc = parse(&line).unwrap();
        let elapsed = started.elapsed();
        let parsed = doc.get("s").and_then(Json::as_str).unwrap();
        assert_eq!(parsed.len(), body.len() - body.len() / 18);
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "a {}-byte string took {elapsed:?} to parse",
            line.len()
        );
    }
}
