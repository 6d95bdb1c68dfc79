//! Bench-regression gate: compare a fresh `CRITERION_JSON` run against the
//! committed `BENCH_micro_ops.json` baseline.
//!
//! The criterion shim emits JSON Lines (one object per benchmark) and the
//! committed baseline is a nested JSON document; the real `serde_json` is
//! unavailable offline (the workspace `serde` shim is derive-only), so this
//! module carries a minimal recursive-descent JSON parser — just enough for
//! those two documents — plus the comparison logic the
//! `bench_regression` binary runs in CI.
//!
//! The gate is deliberately *coarse*: CI hardware is shared and differs
//! from the host that recorded the baseline, and the fast bench profile
//! takes few samples, so only gross regressions (default threshold 3× the
//! baseline `min_ns`) fail the job. A benchmark present in the baseline but
//! missing from the fresh run also fails — silently skipped benches are
//! precisely what the gate exists to catch.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value (the subset of JSON the bench artifacts use — which
/// is all of JSON, minus any number-precision subtleties beyond `f64`).
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
    /// An object; insertion order is irrelevant for the gate, so a sorted
    /// map keeps reports deterministic.
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

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message (with byte offset) on malformed input
/// or trailing non-whitespace.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::String),
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

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
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
                        // Surrogate pairs do not occur in bench names; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_start = *pos;
                let s = std::str::from_utf8(&bytes[ch_start..]).map_err(|e| e.to_string())?;
                let ch = s.chars().next().ok_or("unexpected end of string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
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

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
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

/// Extracts `bench name → min_ns` from a fresh `CRITERION_JSON` run (JSON
/// Lines, one object per benchmark, as the criterion shim appends them).
/// Re-runs of the same benchmark keep the *smallest* `min_ns` seen.
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn fresh_min_ns(jsonl: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let name = value
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing `bench` field", lineno + 1))?;
        let min_ns = value
            .get("min_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("line {}: missing `min_ns` field", lineno + 1))?;
        let entry = out.entry(name.to_string()).or_insert(min_ns);
        *entry = entry.min(min_ns);
    }
    Ok(out)
}

/// Extracts `bench name → min_ns` from the committed baseline document
/// (`BENCH_micro_ops.json`): the `"after"` object records the tuned
/// kernels, which is what a fresh build is compared against.
///
/// # Errors
///
/// Returns a message on malformed input or a missing/invalid `after` block.
pub fn baseline_min_ns(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let value = parse_json(json)?;
    let after = value
        .get("after")
        .ok_or("baseline document has no `after` object")?;
    let Json::Object(entries) = after else {
        return Err("baseline `after` is not an object".into());
    };
    let mut out = BTreeMap::new();
    for (name, stats) in entries {
        let min_ns = stats
            .get("min_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline bench `{name}` has no numeric min_ns"))?;
        out.insert(name.clone(), min_ns);
    }
    Ok(out)
}

/// Verdict for one benchmark of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fresh time within the threshold of the baseline.
    Ok,
    /// Fresh time exceeded `threshold ×` the baseline `min_ns`.
    Regressed,
    /// Benchmark recorded in the baseline but absent from the fresh run.
    MissingFresh,
    /// Benchmark in the fresh run with no committed baseline (informational).
    NewBench,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::MissingFresh => "MISSING",
            Verdict::NewBench => "new (no baseline)",
        };
        f.write_str(s)
    }
}

/// One row of the regression report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Benchmark id.
    pub name: String,
    /// Baseline `min_ns` (absent for new benches).
    pub baseline_ns: Option<f64>,
    /// Fresh `min_ns` (absent when the bench went missing).
    pub fresh_ns: Option<f64>,
    /// `fresh / baseline` when both sides exist.
    pub ratio: Option<f64>,
    /// The verdict for this benchmark.
    pub verdict: Verdict,
}

/// Result of comparing a fresh run against the committed baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Per-benchmark rows, sorted by name.
    pub rows: Vec<BenchComparison>,
    /// The `fresh / baseline` ratio above which a bench counts as regressed.
    pub threshold: f64,
}

impl RegressionReport {
    /// Whether the gate should fail CI: any regressed or missing benchmark.
    pub fn failed(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::MissingFresh))
    }

    /// Renders the verdict as an aligned plain-text table plus a one-line
    /// summary — the artifact CI uploads.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench-regression gate (fail when fresh min_ns > {:.1}x baseline)\n",
            self.threshold
        ));
        out.push_str(&format!(
            "{:<44} {:>14} {:>14} {:>8}  verdict\n",
            "benchmark", "baseline_ns", "fresh_ns", "ratio"
        ));
        for row in &self.rows {
            let fmt_ns = |v: Option<f64>| v.map_or("-".to_string(), |n| format!("{n:.1}"));
            let ratio = row.ratio.map_or("-".to_string(), |r| format!("{r:.2}"));
            out.push_str(&format!(
                "{:<44} {:>14} {:>14} {:>8}  {}\n",
                row.name,
                fmt_ns(row.baseline_ns),
                fmt_ns(row.fresh_ns),
                ratio,
                row.verdict
            ));
        }
        let verdict = if self.failed() { "FAIL" } else { "PASS" };
        out.push_str(&format!("verdict: {verdict}\n"));
        out
    }
}

/// Compares a fresh run against the baseline with the given ratio threshold.
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    threshold: f64,
) -> RegressionReport {
    let mut rows = Vec::new();
    for (name, &base_ns) in baseline {
        match fresh.get(name) {
            Some(&fresh_ns) => {
                let ratio = fresh_ns / base_ns;
                rows.push(BenchComparison {
                    name: name.clone(),
                    baseline_ns: Some(base_ns),
                    fresh_ns: Some(fresh_ns),
                    ratio: Some(ratio),
                    verdict: if ratio > threshold {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    },
                });
            }
            None => rows.push(BenchComparison {
                name: name.clone(),
                baseline_ns: Some(base_ns),
                fresh_ns: None,
                ratio: None,
                verdict: Verdict::MissingFresh,
            }),
        }
    }
    for (name, &fresh_ns) in fresh {
        if !baseline.contains_key(name) {
            rows.push(BenchComparison {
                name: name.clone(),
                baseline_ns: None,
                fresh_ns: Some(fresh_ns),
                ratio: None,
                verdict: Verdict::NewBench,
            });
        }
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    RegressionReport { rows, threshold }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
    fn fresh_lines_keep_the_smallest_min() {
        let jsonl = concat!(
            "{\"bench\":\"matmul\",\"min_ns\":120.0,\"mean_ns\":130.0}\n",
            "\n",
            "{\"bench\":\"softmax\",\"min_ns\":55.5}\n",
            "{\"bench\":\"matmul\",\"min_ns\":100.0}\n",
        );
        let fresh = fresh_min_ns(jsonl).unwrap();
        assert_eq!(fresh["matmul"], 100.0);
        assert_eq!(fresh["softmax"], 55.5);
        assert!(fresh_min_ns("{\"min_ns\": 1}\n").is_err());
        assert!(fresh_min_ns("not json\n").is_err());
    }

    #[test]
    fn baseline_reads_the_after_block() {
        let doc = r#"{
            "method": "irrelevant",
            "before": {"matmul": {"min_ns": 400.0}},
            "after": {"matmul": {"min_ns": 100.0, "max_ns": 140.0},
                      "softmax": {"min_ns": 50.0}}
        }"#;
        let base = baseline_min_ns(doc).unwrap();
        assert_eq!(base.len(), 2);
        assert_eq!(base["matmul"], 100.0);
        assert!(baseline_min_ns("{}").is_err());
    }

    /// Every name `benches/micro_ops.rs` passes to `bench_function`, read
    /// from its source; each is a plain string literal.
    fn micro_ops_bench_names() -> BTreeSet<String> {
        let src = include_str!("../benches/micro_ops.rs");
        let mut names = BTreeSet::new();
        for call in src.split("bench_function(").skip(1) {
            let name = call
                .trim_start()
                .strip_prefix('"')
                .and_then(|lit| lit.split_once('"'))
                .expect("bench name is a string literal")
                .0;
            assert!(!name.contains('{'), "templated bench name {name}");
            names.insert(name.to_string());
        }
        names
    }

    #[test]
    fn committed_baseline_document_parses() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_micro_ops.json"
        ))
        .expect("committed baseline readable");
        let base = baseline_min_ns(&doc).unwrap();
        // A bench added or deleted without touching the baseline (or the
        // other way round) must fail here, not only in CI's bench-smoke
        // job, where a dropped bench reads `MISSING` and an unrecorded one
        // passes as `NewBench`.
        let recorded: BTreeSet<String> = base.keys().cloned().collect();
        assert_eq!(recorded, micro_ops_bench_names());
        assert!(base.values().all(|&ns| ns > 0.0));
    }

    #[test]
    fn compare_flags_regressions_and_missing_benches() {
        let baseline = BTreeMap::from([("a".to_string(), 100.0), ("b".to_string(), 100.0)]);
        let ok = BTreeMap::from([("a".to_string(), 250.0), ("b".to_string(), 90.0)]);
        let report = compare(&baseline, &ok, 3.0);
        assert!(!report.failed());
        assert!(report.render().contains("PASS"));

        let slow = BTreeMap::from([("a".to_string(), 301.0), ("b".to_string(), 90.0)]);
        let report = compare(&baseline, &slow, 3.0);
        assert!(report.failed());
        assert_eq!(report.rows[0].verdict, Verdict::Regressed);
        assert!(report.render().contains("REGRESSED"));

        let missing = BTreeMap::from([("a".to_string(), 100.0)]);
        let report = compare(&baseline, &missing, 3.0);
        assert!(report.failed());
        assert!(report.render().contains("MISSING"));

        let extra = BTreeMap::from([
            ("a".to_string(), 100.0),
            ("b".to_string(), 100.0),
            ("c".to_string(), 1.0),
        ]);
        let report = compare(&baseline, &extra, 3.0);
        assert!(
            !report.failed(),
            "new benches are informational, not failures"
        );
        assert!(report.render().contains("new (no baseline)"));
    }
}
