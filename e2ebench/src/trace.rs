//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end relative to the trace origin, and
//! the span that caused it. Spans are kept in memory and written out once
//! the run ends. Worker-side spans of a fan-out are timed in the worker
//! and attached to the fan-out span afterwards, in item order.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `polysemy.fit`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, milliseconds since the trace origin.
    pub start_ms: f64,
    /// End, milliseconds since the trace origin.
    pub end_ms: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// A span timed on a worker: name, start and end.
pub type WorkerSpan = (&'static str, Instant, Instant);

/// Spans plus named counters.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Trace {
    /// Run `f` inside a top-level span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.push(name, None, start, Instant::now());
        r
    }

    /// Record a span that ran from `start` to `end`; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e3;
        self.spans.push(Span {
            name,
            parent,
            start_ms: at(start),
            end_ms: at(end),
        });
        self.spans.len() - 1
    }

    /// Record a top-level span from `start` to `end` and the worker spans
    /// that ran inside it, as its children.
    pub fn push_fanout(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: impl IntoIterator<Item = WorkerSpan>,
    ) {
        let parent = self.push(name, None, start, end);
        for (child, s, e) in children {
            self.push(child, Some(parent), s, e);
        }
    }

    /// Add `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Counter value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Summed duration of the top-level spans, in milliseconds.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ms)
            .sum()
    }

    /// The spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as one JSON object: spans and counters.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"parent\":{},\"start_ms\":{},\"end_ms\":{}}}",
                    s.name,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.start_ms,
                    s.end_ms
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"spans\":[{}],\"counters\":{{{}}}}}",
            spans.join(","),
            counters.join(",")
        )
    }
}

/// Share of the available worker time a fan-out kept busy:
/// `busy_ms / (wall_ms × threads)`. 0 for an empty fan-out.
pub fn fanout_efficiency(busy_ms: f64, wall_ms: f64, threads: usize) -> f64 {
    if wall_ms <= 0.0 || threads == 0 {
        return 0.0;
    }
    busy_ms / (wall_ms * threads as f64)
}

/// What a run's wall time leaves after its layer spans:
/// `run_ms − Σ layer_ms`. Negative when the layers ran slower than the
/// run they are compared with.
pub fn unaccounted_ms(run_ms: f64, layer_ms: &[f64]) -> f64 {
    run_ms - layer_ms.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn efficiency_is_busy_over_wall_times_threads() {
        assert_eq!(fanout_efficiency(300.0, 200.0, 2), 0.75);
        assert_eq!(fanout_efficiency(200.0, 200.0, 1), 1.0);
        assert_eq!(fanout_efficiency(5.0, 0.0, 2), 0.0);
    }

    #[test]
    fn layers_plus_unaccounted_sum_to_the_run() {
        let layers = [12.5, 30.25, 7.0];
        let rest = unaccounted_ms(50.0, &layers);
        assert_eq!(rest, 0.25);
        assert_eq!(layers.iter().sum::<f64>() + rest, 50.0);
        assert!(unaccounted_ms(40.0, &layers) < 0.0);
    }

    #[test]
    fn spans_sum_by_name_and_children_nest() {
        let mut t = Trace::default();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        t.push("a", None, t0, t0 + ms(4));
        t.push_fanout(
            "fan",
            t0 + ms(4),
            t0 + ms(10),
            [
                ("item", t0 + ms(4), t0 + ms(9)),
                ("item", t0 + ms(5), t0 + ms(10)),
            ],
        );
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(t.total_ms("item"), 10.0));
        assert!(close(t.top_level_ms(), 10.0));
        assert_eq!(t.spans()[2].parent, Some(1));
        t.count("n", 2.0);
        t.count("n", 1.0);
        assert_eq!(t.counter("n"), 3.0);
        assert_eq!(t.counter("missing"), 0.0);
        assert!(t.to_json().contains("\"counters\":{\"n\":3}"));
    }
}
