//! A minimal, dependency-free JSON value with a deterministic printer and
//! a strict parser — the workspace's only one.
//!
//! The workspace builds offline (no serde); the `symple-lint --json`
//! report and the `benchmark/` result files need only objects, arrays,
//! strings, numbers, and booleans. Object keys keep insertion order so
//! that serialization is byte-deterministic — the property the
//! golden-file tests pin down. It lives here because `symple-obs` is the
//! dependency-free leaf every machine-readable surface already links.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64` (every quantity emitted fits in the
/// 53-bit integer range; 64-bit hashes travel as hex strings).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    /// Deterministic: same value → same bytes.
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
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
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
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    debug_assert!(n.is_finite(), "JSON numbers must be finite");
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", char::from(c), *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!(
            "unexpected byte '{}' at offset {}",
            char::from(*c),
            *pos
        )),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("invalid number '{text}' at offset {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at offset {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = b.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if *pos + 4 > b.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex =
                            std::str::from_utf8(&b[*pos..*pos + 4]).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape '{hex}'"))?;
                        *pos += 4;
                        // Surrogate pairs are not needed by any schema
                        // here; map lone surrogates to the replacement
                        // character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    c => return Err(format!("invalid escape '\\{}'", char::from(c))),
                }
            }
            c if c < 0x20 => return Err("raw control character in string".to_string()),
            c => {
                // Re-assemble multi-byte UTF-8 sequences.
                let len = match c {
                    0x00..=0x7f => 0,
                    0xc0..=0xdf => 1,
                    0xe0..=0xef => 2,
                    _ => 3,
                };
                let start = *pos - 1;
                *pos += len;
                if *pos > b.len() {
                    return Err("truncated UTF-8 sequence".to_string());
                }
                let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(s);
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

/// Convenience: builds an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = obj(vec![
            ("name", Json::Str("bench \"quoted\"\n".into())),
            ("n", Json::Num(42.0)),
            ("pi", Json::Num(3.5)),
            ("neg", Json::Num(-17.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // Deterministic: render ∘ parse ∘ render is a fixed point.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(1234567890.0).render(), "1234567890\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} tail").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn lookup_helpers() {
        let v = Json::parse(r#"{"a": 3, "b": "x", "c": [1], "d": -1}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("d").unwrap().as_u64(), None, "negative is not u64");
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("søkväg → 終".to_string());
        let back = Json::parse(&v.render()).unwrap();
        assert_eq!(back, v);
        let esc = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(esc.as_str(), Some("Aé"));
    }
}
