//! In-memory spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created), the span that was open when it started, and the identifier of the
//! request (engine call) it belongs to. Nothing inside the program under test
//! is instrumented: every span wraps a public function call made from this
//! crate. Spans stay in memory and are summarised when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `workloads.solve_batch_with_plan_timed`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request.
    pub request: u64,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name digest of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the time child spans cover), nanoseconds.
    pub self_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it); returns its duration.
    pub fn exit(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_ns()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Summed duration of every span called `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Human-readable per-name table (count, total and self milliseconds).
    pub fn summary(&self) -> String {
        let mut out = String::from(
            "span                                        count   total_ms    self_ms\n",
        );
        for (name, t) in self.totals() {
            out.push_str(&format!(
                "{name:<42} {:>7} {:>10.3} {:>10.3}\n",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut tracer = Tracer::default();
        let outer = tracer.enter("outer", 1);
        let inner = tracer.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.exit(inner);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        let totals = tracer.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.total_ns, o.self_ns + i.total_ns);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(tracer.total_ns("inner"), i.total_ns);
    }

    #[test]
    fn exiting_a_parent_closes_children_left_open() {
        let mut tracer = Tracer::default();
        let outer = tracer.enter("outer", 0);
        let _leaked = tracer.enter("leaked", 0);
        tracer.exit(outer);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let next = tracer.enter("next", 0);
        assert_eq!(tracer.spans()[next].parent, None);
    }
}
