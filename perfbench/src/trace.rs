//! Benchmark-owned spans around every public call the benchmark makes.
//!
//! Spans live in memory and are written out once, at the end of the run.
//! A span's *self* time is its duration minus the time its children
//! cover; per-layer times are sums of self time by span name, so nested
//! layers are never counted twice.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer's origin.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    /// The solve, pass or batch the span belongs to.
    id: u64,
    /// Laid out from durations the program reported (`IterationStats`)
    /// rather than measured by the benchmark's own clock.
    derived: bool,
}

/// A span recorder. A disabled tracer records nothing and every call is
/// one branch, so the timed code path is the same either way.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            id,
            derived: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span now.
    pub fn end(&mut self, span: SpanId) {
        if let Some(i) = span {
            self.spans[i].end = self.now();
        }
    }

    /// Records a child of `parent` whose length the program reported;
    /// it starts `offset` seconds after the parent does.
    pub fn derived(&mut self, name: &'static str, parent: SpanId, offset: f64, secs: f64) {
        if let Some(p) = parent {
            let start = self.spans[p].start + offset;
            let id = self.spans[p].id;
            self.spans.push(Span {
                name,
                start,
                end: start + secs,
                parent,
                id,
                derived: true,
            });
        }
    }

    /// Σ self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_cover = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start - cover;
        }
        out
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"id\":{},\"derived\":{}}}",
                s.name, s.start, s.end, s.id, s.derived
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        let root = t.begin("solve", None, 7);
        t.end(root);
        // Force a known duration for the parent.
        t.spans[0].end = t.spans[0].start + 1.0;
        t.derived("assign", root, 0.0, 0.25);
        t.derived("color", root, 0.25, 0.5);
        let times = t.self_times();
        assert!((times["solve"] - 0.25).abs() < 1e-12);
        assert!((times["assign"] - 0.25).abs() < 1e-12);
        assert_eq!(t.count("color"), 1);
        assert!(t.to_json().contains("\"derived\":true"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("solve", None, 1);
        t.derived("assign", s, 0.0, 1.0);
        t.end(s);
        assert!(t.self_times().is_empty());
    }
}
