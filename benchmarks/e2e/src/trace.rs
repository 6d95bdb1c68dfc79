//! In-memory spans recorded by the harness around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! Everything is recorded from the calling thread, so spans nest strictly:
//! a span's parent is the innermost span open when it started, and its self
//! time is its duration minus its children's.

use crate::json::{num, obj, text, to_string, Json};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a traced run's root.
    pub parent: Option<u32>,
    /// Which traced run of this process the span belongs to.
    pub rep: u32,
    pub round: Option<u32>,
    pub client: Option<u32>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Spans recorded from now on belong to traced run `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, round: Option<usize>) -> u32 {
        let id = self.push(name, round, None);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Records a span around `f`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        round: Option<usize>,
        client: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.push(name, round, client);
        let value = f();
        self.spans[id as usize].end_ns = self.now_ns();
        value
    }

    /// Renames the span recorded last, for a call whose kind (cache hit or
    /// miss) is only known once it has returned.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    fn push(&mut self, name: &'static str, round: Option<usize>, client: Option<usize>) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            rep: self.rep,
            round: round.map(|r| r as u32),
            client: client.map(|c| c as u32),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e3).collect()
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Total self time of spans called `name`: their durations minus their
    /// direct children's.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, covered)| s.ns().saturating_sub(covered))
            .sum()
    }

    /// Writes one JSON object per span; `id` is the span's index, which is
    /// what `parent` refers to.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let optional = |v: Option<u32>| v.map_or(Json::Null, |v| num(f64::from(v)));
        for (id, span) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", num(id as f64)),
                ("name", text(span.name)),
                ("start_ns", num(span.start_ns as f64)),
                ("end_ns", num(span.end_ns as f64)),
                ("parent", optional(span.parent)),
                ("rep", num(f64::from(span.rep))),
                ("round", optional(span.round)),
                ("client", optional(span.client)),
            ]);
            writeln!(out, "{}", to_string(&line))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let run = t.open("run", None);
        let round = t.open("round", Some(0));
        t.leaf("work", Some(0), Some(7), || std::hint::black_box(1 + 1));
        t.leaf("lookup", Some(0), Some(7), || ());
        t.rename_last("miss");
        t.close(round);
        t.close(run);
        t
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let t = sample();
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| (s.name, s.parent)).collect::<Vec<_>>(),
            [
                ("run", None),
                ("round", Some(0)),
                ("work", Some(1)),
                ("miss", Some(1))
            ]
        );
        assert_eq!((s[2].round, s[2].client), (Some(0), Some(7)));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = sample();
        // Pin the clock readings so the arithmetic is exact.
        for (span, (start, end)) in t
            .spans
            .iter_mut()
            .zip([(0, 100), (10, 90), (20, 50), (60, 70)])
        {
            (span.start_ns, span.end_ns) = (start, end);
        }
        assert_eq!(t.self_ns("run"), 20);
        assert_eq!(t.self_ns("round"), 40);
        assert_eq!(t.self_ns("work"), 30);
        assert_eq!(t.total_ns("round"), 80);
        assert_eq!(t.durations_us("miss"), [0.01]);
        assert_eq!(t.self_ns("absent"), 0);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.open("outer", None);
        let _inner = t.open("inner", None);
        t.close(outer);
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let t = sample();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<Json> = written.lines().map(|l| parse_json(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3].get("name").and_then(Json::as_str), Some("miss"));
        assert_eq!(lines[3].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[2].get("client").and_then(Json::as_f64), Some(7.0));
    }
}
