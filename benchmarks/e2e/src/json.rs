//! JSON writer for the benchmark's reports.
//!
//! The workspace has no `serde_json` (its `serde` is a derive-only stand-in),
//! so reports are built as [`Json`] values, the type the repository's own
//! parser (`fedft_bench::regression::parse_json`) returns, and written here.
//! Object keys come out sorted, which keeps result files diffable.

pub use fedft_bench::regression::{parse_json, Json};
use std::fmt::Write;

/// An object from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn num(value: f64) -> Json {
    Json::Number(value)
}

pub fn text(value: impl Into<String>) -> Json {
    Json::String(value.into())
}

/// Serialises `value` on one line. Numbers keep every digit `f64` needs to
/// read back exactly; a non-finite number has no JSON form and becomes
/// `null`.
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) if n.is_finite() => write!(out, "{n}").expect("writing to a String"),
        Json::Number(_) => out.push_str("null"),
        Json::String(s) => write_string(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_value_kind() {
        let doc = obj([
            ("b", Json::Bool(true)),
            ("a", Json::Array(vec![num(1.0), num(-0.5), Json::Null])),
            ("s", text("x")),
        ]);
        assert_eq!(to_string(&doc), r#"{"a":[1,-0.5,null],"b":true,"s":"x"}"#);
        assert_eq!(to_string(&Json::Array(vec![])), "[]");
        assert_eq!(to_string(&obj([])), "{}");
    }

    #[test]
    fn whole_numbers_have_no_fraction_and_non_finite_is_null() {
        assert_eq!(to_string(&num(1000.0)), "1000");
        assert_eq!(to_string(&num(f64::NAN)), "null");
        assert_eq!(to_string(&num(f64::INFINITY)), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            to_string(&text("a\"b\\c\nd\u{1}é")),
            "\"a\\\"b\\\\c\\nd\\u0001é\""
        );
    }

    #[test]
    fn output_reads_back_through_the_repository_parser() {
        let doc = obj([
            ("value", num(0.1 + 0.2)),
            ("tiny", num(1.5e-9)),
            ("name", text("tab\there \"quoted\"")),
            (
                "nested",
                obj([("list", Json::Array(vec![num(3.0), text("é")]))]),
            ),
        ]);
        assert_eq!(parse_json(&to_string(&doc)).unwrap(), doc);
    }
}
