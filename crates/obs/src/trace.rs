//! [`SolveTrace`]: the structured per-solve profile.
//!
//! One `SolveTrace` summarises a single solve end to end: disjoint
//! wall-clock stages (their sum approximates total wall time), overlapping
//! CPU totals (per-tree DP/repair nanoseconds summed across workers, which
//! can exceed wall time under parallelism), named counts (DP table sizes,
//! prune drops, cache facts, queue wait), and the raw [`SpanRecord`]s
//! harvested from a [`TraceSink`].
//!
//! The same structure is carried by `HgpReport`/`TreeSolveReport`,
//! rendered to `trace.*` wire tokens by the server, and read by the
//! `benchmark` package's per-layer metrics in place of private timers.

use crate::span::{SpanRecord, TraceSink};

/// A named nanosecond total: one pipeline stage's wall or CPU time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageNanos {
    /// Stage name (`"distribution"`, `"sweep"`, `"dp-cpu"`, …).
    pub name: &'static str,
    /// Nanoseconds attributed to the stage.
    pub nanos: u64,
}

/// Structured profile of one solve. See the module docs for the split
/// between `stages`, `cpu`, and `counts`.
#[derive(Clone, Debug, Default)]
pub struct SolveTrace {
    /// Disjoint wall-clock stages, in pipeline order. Their sum is the
    /// traced portion of the solve's wall time.
    pub stages: Vec<StageNanos>,
    /// Overlapping CPU totals (summed across parallel workers); these may
    /// exceed wall time and must not be added to `stages`.
    pub cpu: Vec<StageNanos>,
    /// Named event counts (`"dp-entries"`, `"dp-pruned"`,
    /// `"trees-solved"`, `"queue-wait-us"`, …).
    pub counts: Vec<(&'static str, u64)>,
    /// Raw spans harvested from the sink, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to ring-buffer overflow before harvesting.
    pub dropped_spans: u64,
}

impl SolveTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a wall-clock stage.
    pub fn stage(&mut self, name: &'static str, nanos: u64) {
        self.stages.push(StageNanos { name, nanos });
    }

    /// Appends an overlapping CPU total.
    pub fn cpu(&mut self, name: &'static str, nanos: u64) {
        self.cpu.push(StageNanos { name, nanos });
    }

    /// Appends a named count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counts.push((name, value));
    }

    /// Wall nanoseconds of the named stage, if recorded.
    pub fn stage_nanos(&self, name: &str) -> Option<u64> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.nanos)
    }

    /// CPU nanoseconds of the named total, if recorded.
    pub fn cpu_nanos(&self, name: &str) -> Option<u64> {
        self.cpu.iter().find(|s| s.name == name).map(|s| s.nanos)
    }

    /// Value of the named count, if recorded.
    pub fn count_of(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Sum of all wall-clock stages — the traced portion of wall time.
    pub fn stage_sum_nanos(&self) -> u64 {
        self.stages.iter().map(|s| s.nanos).sum()
    }

    /// Moves the sink's completed spans (and its drop count) into the
    /// trace.
    pub fn absorb_sink(&mut self, sink: &TraceSink) {
        self.spans = sink.records();
        self.dropped_spans = sink.dropped();
    }

    /// Renders the trace as wire tokens, each prefixed with `prefix`
    /// (the server uses `"trace."`): stages as `<name>-us`, CPU totals as
    /// `<name>-us`, counts verbatim. Spans are not rendered — they are a
    /// programmatic surface.
    pub fn wire_tokens(&self, prefix: &str) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(" {prefix}{}-us={}", s.name, s.nanos / 1_000));
        }
        for s in &self.cpu {
            out.push_str(&format!(" {prefix}{}-us={}", s.name, s.nanos / 1_000));
        }
        for (n, v) in &self.counts {
            out.push_str(&format!(" {prefix}{n}={v}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_accounting_and_lookup() {
        let mut t = SolveTrace::new();
        t.stage("distribution", 2_000_000);
        t.stage("sweep", 3_000_000);
        t.cpu("dp-cpu", 9_000_000);
        t.count("dp-entries", 1234);
        assert_eq!(t.stage_sum_nanos(), 5_000_000);
        assert_eq!(t.stage_nanos("sweep"), Some(3_000_000));
        assert_eq!(t.stage_nanos("nope"), None);
        assert_eq!(t.cpu_nanos("dp-cpu"), Some(9_000_000));
        assert_eq!(t.count_of("dp-entries"), Some(1234));
    }

    #[test]
    fn wire_tokens_are_prefixed_microseconds() {
        let mut t = SolveTrace::new();
        t.stage("sweep", 1_500_000);
        t.cpu("dp-cpu", 2_500_000);
        t.count("cache-hit", 1);
        assert_eq!(
            t.wire_tokens("trace."),
            " trace.sweep-us=1500 trace.dp-cpu-us=2500 trace.cache-hit=1"
        );
    }

    #[cfg(feature = "capture")]
    #[test]
    fn absorb_sink_moves_spans_and_drop_count() {
        let sink = TraceSink::new(2);
        for _ in 0..3 {
            sink.span("s");
        }
        let mut t = SolveTrace::new();
        t.absorb_sink(&sink);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.dropped_spans, 1);
    }
}
