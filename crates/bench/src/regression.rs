//! A minimal JSON parser: [`parse_json`] and the [`Json`] value it returns.
//!
//! The workspace has no `serde_json` (its `serde` is a derive-only stand-in),
//! so the end-to-end benchmark reads its own reports, `BENCHMARK.json` and
//! its traces through this recursive-descent parser. The module holds
//! nothing else; its name is pinned by the benchmark's import
//! (`fedft_bench::regression::{parse_json, Json}`) until the parser moves
//! into the benchmark itself.

use std::collections::BTreeMap;

/// A parsed JSON value: all of JSON, minus any number-precision subtleties
/// beyond `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; a sorted map keeps reports deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
}

/// How many arrays and objects may enclose one another. The benchmark's
/// documents nest 4–5 deep; an unoptimised build spends ~1.2 KB of stack a
/// level, so a 2 MB test-thread stack overflows near 1,700 levels.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) on malformed input,
/// arrays and objects nested more than 128 deep, or trailing non-whitespace.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", char::from(byte), *pos))
    }
}

/// `depth` counts the arrays and objects that enclose the value.
///
/// Every parser below advances `pos` past whole ASCII tokens or whole
/// string runs, so `pos` always sits on a character boundary of `input`.
fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(input, pos, depth + 1),
        Some(b'[') => parse_array(input, pos, depth + 1),
        Some(b'"') => parse_string(input, pos).map(Json::String),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                        // Surrogate pairs do not occur in the benchmark's
                        // documents; map lone surrogates to the replacement
                        // character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            _ => {
                // Copy the run up to the next quote or backslash in one
                // piece. Both are ASCII, so the run ends on a character
                // boundary and multi-byte characters pass through unchanged.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |run| *pos + run);
                out.push_str(&input[*pos..end]);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_array(input: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(input, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(input: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(input, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(input, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_the_artifact_shapes() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y"}, "d": null, "e": true}"#)
            .unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::Number(-300.0)
            ])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert_eq!(parse_json("\"\\u00e9\"").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn a_long_multibyte_string_round_trips() {
        // 2-, 3- and 4-byte characters, with escapes between the runs. Long
        // enough that re-validating the rest of the input per character,
        // a quadratic walk, would take minutes.
        let text: String = "é€𝄞".chars().cycle().take(200_000).collect();
        let doc = format!("[\"{text}\", \"{text}\\n{text}\\\"\"]");
        let Json::Array(items) = parse_json(&doc).unwrap() else {
            panic!("not an array")
        };
        assert_eq!(items[0].as_str(), Some(text.as_str()));
        assert_eq!(
            items[1].as_str(),
            Some(format!("{text}\n{text}\"").as_str())
        );
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error() {
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );

        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        for nested in [arrays, objects] {
            assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
            let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.starts_with("nesting deeper"), "{err}");
        }
    }
}
