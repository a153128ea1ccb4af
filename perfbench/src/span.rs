//! Spans recorded from outside the program.
//!
//! Every span wraps one call the benchmark makes into a crate's `pub` API
//! (or a replay of such a call). A span has a name, a start, an end, the
//! span that caused it, and the id of the request or study it belongs to.
//! Spans stay in memory until the run ends and are then written out as
//! tab-separated lines.
//!
//! Calls the program makes inside its own functions cannot be timed from
//! outside. They are replayed instead, on the same inputs, under a root
//! span named `replay:X`, where `X` is the span whose time they explain.

use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

/// Prefix of a replay root's name.
pub const REPLAY: &str = "replay:";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `worldgen.build`.
    pub name: &'static str,
    /// The request or study this span belongs to; shared by all its spans.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `>= start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. Open spans form a stack: a span entered
/// while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, trace: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Rename span `idx`, for a span whose class is known only once it ends.
    pub fn rename(&mut self, idx: usize, name: &'static str) {
        self.spans[idx].name = name;
    }

    /// Run `f` inside a leaf span and return its result.
    pub fn time<R>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, trace);
        let out = f();
        self.exit(idx);
        out
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Write every span as `trace  index  parent  name  start_ns  end_ns`,
    /// with `-` for a span without a parent.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "trace\tindex\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per span: the nanoseconds of it that its children cover, counting time
/// where children overlap once.
pub fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// The spans of one name that have children, summed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parent {
    /// The span name.
    pub name: &'static str,
    /// How many spans of this name there are.
    pub spans: usize,
    /// Their summed duration.
    pub total_ns: u64,
    /// The part of it their children cover.
    pub covered_ns: u64,
}

impl Parent {
    /// Self time: duration minus the part children cover.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.covered_ns
    }

    /// The share of the duration that children explain.
    pub fn explained(&self) -> f64 {
        self.covered_ns as f64 / self.total_ns.max(1) as f64
    }
}

/// Every span name that has children, with its summed duration and child
/// cover, sorted by name. Replay roots are left out: their children are
/// what [`replayed`] relates to the spans they explain.
pub fn parents(spans: &[Span]) -> Vec<Parent> {
    let has_children: BTreeSet<&'static str> = spans
        .iter()
        .filter_map(|s| s.parent.map(|p| spans[p].name))
        .filter(|name| !name.starts_with(REPLAY))
        .collect();
    let mut by_name: BTreeMap<&'static str, Parent> = Default::default();
    for (s, covered) in spans.iter().zip(child_cover_ns(spans)) {
        if !has_children.contains(s.name) {
            continue;
        }
        let p = by_name.entry(s.name).or_insert(Parent {
            name: s.name,
            spans: 0,
            total_ns: 0,
            covered_ns: 0,
        });
        p.spans += 1;
        p.total_ns += s.duration_ns();
        p.covered_ns += covered;
    }
    by_name.into_values().collect()
}

/// A span name whose time replayed calls explain.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// The explained span name: `X` of the replay roots `replay:X`.
    pub name: &'static str,
    /// Spans named `name`.
    pub spans: usize,
    /// Their median duration.
    pub median_ns: f64,
    /// Each replayed call under a `replay:X` root, by name, with its
    /// median duration, sorted by name.
    pub children: Vec<(&'static str, f64)>,
}

impl Replayed {
    /// The share of the median that the replayed calls' medians add up to.
    pub fn explained(&self) -> f64 {
        self.children.iter().map(|&(_, m)| m).sum::<f64>() / self.median_ns
    }
}

/// Every span name that has replay roots and spans of its own, sorted by
/// name.
pub fn replayed(spans: &[Span]) -> Vec<Replayed> {
    let mut calls: BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for s in spans {
        let Some(explained) = s.parent.and_then(|p| spans[p].name.strip_prefix(REPLAY)) else {
            continue;
        };
        calls
            .entry(explained)
            .or_default()
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
    }
    let median = |v: Vec<f64>| stats::median(&stats::sorted(v));
    calls
        .into_iter()
        .filter_map(|(name, children)| {
            let own: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect();
            Some(Replayed {
                name,
                spans: own.len(),
                median_ns: median(own)?,
                children: children
                    .into_iter()
                    .filter_map(|(c, d)| Some((c, median(d)?)))
                    .collect(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40, and
        // a third child 90..120 runs past the parent's end.
        let spans = vec![
            span("parent", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
        ];
        // Covered: 10..60 (50) + 90..100 (10) = 60.
        assert_eq!(child_cover_ns(&spans), vec![60, 0, 0, 0]);
        let p = parents(&spans);
        assert_eq!(p.len(), 1, "only `parent` has children");
        assert_eq!((p[0].name, p[0].spans, p[0].self_ns()), ("parent", 1, 40));
        assert_eq!(p[0].explained(), 0.6);
    }

    #[test]
    fn nested_children_do_not_count_against_the_grandparent_twice() {
        let spans = vec![
            span("root", None, 0, 100),
            span("mid", Some(0), 0, 50),
            span("leaf", Some(1), 10, 20),
            span("mid", Some(0), 60, 70),
        ];
        let p = parents(&spans);
        let self_of = |name: &str| p.iter().find(|p| p.name == name).map(Parent::self_ns);
        assert_eq!(self_of("root"), Some(40));
        assert_eq!(self_of("mid"), Some(50), "two mid spans, 60 ns, 10 covered");
        assert_eq!(self_of("leaf"), None, "leaves are not parents");
    }

    #[test]
    fn replayed_calls_explain_the_median_of_the_span_they_replay() {
        let spans = vec![
            span("handle", None, 0, 100),
            span("handle", None, 200, 260),
            span("handle", None, 300, 380),
            span("replay:handle", None, 400, 450),
            span("parse", Some(3), 400, 410),
            span("encode", Some(3), 420, 440),
            span("replay:handle", None, 500, 550),
            span("parse", Some(6), 500, 530),
            span("encode", Some(6), 530, 540),
        ];
        let r = replayed(&spans);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].name, r[0].spans, r[0].median_ns), ("handle", 3, 80.0));
        // Nearest-rank medians: parse of {10, 30} is 10, encode of {20, 10} is 10.
        assert_eq!(r[0].children, vec![("encode", 10.0), ("parse", 10.0)]);
        assert_eq!(r[0].explained(), 0.25);
        assert!(parents(&spans).is_empty(), "replay roots are not parents");
    }

    #[test]
    fn tracer_links_parents_by_nesting() {
        let mut t = Tracer::new();
        let root = t.enter("root", 1);
        t.time("leaf", 1, || std::hint::black_box(3 + 4));
        t.exit(root);
        t.time("other", 2, || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_tsv(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(2)
            .expect("leaf line")
            .contains("\t0\tleaf\t"));
    }
}
