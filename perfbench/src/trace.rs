//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its own calls into each
//! layer's public functions; the program's telemetry stays off. A span
//! has a name, start, end, the span that caused it, and the identifier
//! shared by every span of one study or request. Spans stay in memory
//! and are written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `topology.blast_oracle`.
    pub name: &'static str,
    /// Identifier shared by all spans of one study or request.
    pub trace: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (`0` while open).
    pub end_ns: u64,
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (e.g. on a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, trace, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6
    }

    /// Summed duration (ms) of `parent`'s direct children named `name`.
    pub fn child_ms(&self, parent: usize, name: &str) -> f64 {
        self.children(parent)
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.ms(i))
            .sum()
    }

    /// Summed duration (ms) of every span named `name` below `ancestor`.
    pub fn within_ms(&self, ancestor: usize, name: &str) -> f64 {
        (ancestor + 1..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.descends(i, ancestor))
            .map(|i| self.ms(i))
            .sum()
    }

    fn descends(&self, mut i: usize, ancestor: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == ancestor {
                return true;
            }
            i = p;
        }
        false
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn all_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.ms(i))
            .collect()
    }

    /// Share of span `id` covered by its direct children (the layer
    /// spans of one study).
    pub fn coverage(&self, id: usize) -> f64 {
        let covered: f64 = self.children(id).map(|i| self.ms(i)).sum();
        covered / self.ms(id)
    }

    fn children(&self, parent: usize) -> impl Iterator<Item = usize> + '_ {
        (parent + 1..self.spans.len()).filter(move |&i| self.spans[i].parent == Some(parent))
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_sums_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.open("study", 1, None);
        let a = t.open("a", 1, Some(root));
        let nested = t.open("a.inner", 1, Some(a));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(nested);
        t.close(a);
        t.close(root);
        let c = t.coverage(root);
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
        assert_eq!(t.child_ms(root, "a.inner"), 0.0);
        assert_eq!(t.within_ms(root, "a.inner"), t.ms(nested));
        assert!(t.child_ms(a, "a.inner") > 0.0);
        assert_eq!(t.all_ms("a").len(), 1);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
