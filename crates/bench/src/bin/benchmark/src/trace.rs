//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced run records one root span per operation (`op`) and a child
//! span per layer call under it. Spans stay in memory and are written out
//! as JSON lines when the run ends; the per-layer metrics are read back
//! from them, so the file and the printed numbers cannot disagree.

use crate::json::quote;
use std::io::Write;
use std::time::{Duration, Instant};

/// The root span name: one whole operation as the workload times it.
pub const OP: &str = "op";

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Operation index within the run.
    pub op: u64,
    /// Layer call, e.g. `decomp.distribution`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, microseconds after the run began.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// An in-memory span log. When off, recording is a no-op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`, with span start times
    /// counted from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span that began at `start` and lasted `dur`; returns its
    /// index for use as a parent.
    pub fn span(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.span_us(op, name, parent, start_us, dur.as_secs_f64() * 1e6)
    }

    /// Records a span from a start offset and duration in microseconds
    /// (for stages the program reports itself, such as a server reply's
    /// `trace.*` tokens).
    pub fn span_us(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start_us: f64,
        dur_us: f64,
    ) -> usize {
        if self.on {
            self.spans.push(Span {
                op,
                name,
                parent,
                start_us,
                dur_us,
            });
        }
        self.spans.len().saturating_sub(1)
    }

    /// Microseconds since the run began, for [`Tracer::span_us`].
    pub fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Scales every span's duration by `factor(seconds into the run at the
    /// start of the span's root)`: one factor per operation, so its layer
    /// spans still add up to it when they cross into the next window.
    pub fn rescale(&mut self, factor: impl Fn(f64) -> f64) {
        let mut of = Vec::with_capacity(self.spans.len());
        for s in &mut self.spans {
            // a parent is recorded before its children
            let f = match s.parent {
                Some(p) => of[p],
                None => factor(s.start_us / 1e6),
            };
            s.dur_us *= f;
            of.push(f);
        }
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// Share of root-span time that the roots' direct children account
    /// for: 1.0 when the layer calls add up to the operation.
    pub fn coverage(&self) -> f64 {
        let mut root = vec![0.0f64; self.spans.len()];
        let mut total = 0.0;
        let mut covered = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                None if s.name == OP => {
                    root[i] = 1.0;
                    total += s.dur_us;
                }
                Some(p) if root[p] > 0.0 => covered += s.dur_us,
                _ => {}
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"name\": {}, \"parent\": {parent}, \"start_us\": {:.1}, \"dur_us\": {:.1}}}",
                s.op,
                quote(s.name),
                s.start_us,
                s.dur_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_child_time_over_root_time() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.span_us(0, OP, None, 0.0, 10.0);
        t.span_us(0, "a", Some(root), 0.0, 4.0);
        t.span_us(0, "b", Some(root), 4.0, 5.0);
        assert!((t.coverage() - 0.9).abs() < 1e-12);
        assert_eq!(t.durations_ms("a"), vec![0.004]);
        // "b" starts in a slower window than its root, yet takes the root's
        // factor, so the layers still add up to the operation
        t.rescale(|at| if at < 4e-6 { 2.0 } else { 3.0 });
        assert!((t.coverage() - 0.9).abs() < 1e-12);
        assert_eq!(t.durations_ms("b"), vec![0.01]);
        let off = Tracer::new(false, Instant::now());
        assert_eq!(off.coverage(), 0.0);
    }
}
