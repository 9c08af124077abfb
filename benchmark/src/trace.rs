//! Spans recorded from the benchmark's side of each layer boundary.  They
//! stay in memory while the workload runs and are written once at exit.

use std::time::Instant;

use serde::Value;

use crate::json::{obj, text};

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, the layer being the crate the call enters.
    pub name: &'static str,
    pub id: usize,
    /// The span that caused this one; `None` for an iteration's root.
    pub parent: Option<usize>,
    /// Spans of one traced sort share its iteration number.
    pub iteration: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (records, probes, words, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, iteration: usize) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            iteration,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Seconds covered by the direct children of span `id`.  The replay's
    /// children run one after another, so their sum is the covered part of
    /// the parent and `parent − sum` is its self time.
    pub fn children_seconds(&self, id: usize) -> f64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::seconds).sum()
    }

    /// The trace file: every span, in the order they were opened.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let counts = s.counts.iter().map(|&(k, v)| (k, Value::UInt(v))).collect();
                obj(vec![
                    ("name", text(s.name)),
                    ("id", Value::UInt(s.id as u64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("iteration", Value::UInt(s.iteration as u64)),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    ("counts", obj(counts)),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("workload", text(workload)),
            ("seed", Value::UInt(seed)),
            ("spans", Value::Array(spans)),
        ]);
        serde_json::to_string(&doc).expect("the stub serializer is total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_part_of_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin("sort", None, 0);
        let a = t.begin("lsort.local_sort", Some(root), 0);
        t.count(a, "records", 7);
        t.end(a);
        let b = t.begin("partition.merge", Some(root), 0);
        t.end(b);
        let other = t.begin("sort", None, 1);
        t.end(other);
        let root_s = t.end(root);
        let covered = t.children_seconds(root);
        assert!(covered <= root_s, "{covered} > {root_s}");
        assert_eq!(covered, t.spans[a].seconds() + t.spans[b].seconds());
        let json = t.to_json("u64-fat", 9);
        assert!(json.contains("\"parent\":null") && json.contains("\"records\":7"), "{json}");
    }
}
