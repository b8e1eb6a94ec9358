//! Typed metrics: counters, gauges, log-scale histograms, and a registry
//! that renders versioned `key=value` snapshots.
//!
//! Everything records through plain atomics so hot paths (solver workers,
//! connection threads) never serialise on a lock; the registry's `Mutex`
//! guards only registration and snapshot rendering, both off the hot
//! path. Histograms use fixed power-of-two buckets — bucket `b` holds
//! values in `[2^(b-1), 2^b)`, with 0 and 1 sharing bucket 1 — which is
//! coarse but monotone: quantiles come back as bucket upper bounds, clamped
//! to the largest observation so no quantile ever exceeds the maximum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of buckets in a [`Histogram`] (one per power of two of `u64`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Fresh counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (open sessions, live workers, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Fresh gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-footprint power-of-two histogram over `u64` observations
/// (the server records latencies in microseconds).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: bucket `b` holds `[2^(b-1), 2^b)`, so
    /// `b = floor(log2(v)) + 1`. Zero shares bucket 1 with one, and
    /// everything ≥ 2^62 is clamped into the last bucket. Quantiles
    /// report `2^b`, the bucket's exclusive upper bound, capped at
    /// [`Histogram::max`].
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.counts[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds.
    pub fn record_duration_us(&self, elapsed: Duration) {
        self.record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound of the bucket containing the `q`-quantile, capped at
    /// the largest observation, or 0 on an empty histogram. `q` in
    /// `[0, 1]`. Monotone in `q`: the bucket bound is, and the cap is the
    /// same for every `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        let snapshot: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let mut bound = 1u64 << (HISTOGRAM_BUCKETS - 1);
        for (b, &c) in snapshot.iter().enumerate() {
            seen += c;
            if seen >= rank {
                bound = 1u64 << b;
                break;
            }
        }
        bound.min(self.max())
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// An ordered, named collection of metrics that renders the versioned
/// `stats2` snapshot.
///
/// Registration returns `Arc` handles the hot path holds on to; looking a
/// name up again returns the same instance, so a registry can be shared
/// across components without coordinating ownership. Snapshot order is
/// registration order, which keeps the wire output stable.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<(&'static str, Metric)>>,
}

impl Registry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter under `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            match m {
                Metric::Counter(c) => return Arc::clone(c),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let c = Arc::new(Counter::new());
        entries.push((name, Metric::Counter(Arc::clone(&c))));
        c
    }

    /// Registers (or retrieves) a gauge under `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            match m {
                Metric::Gauge(g) => return Arc::clone(g),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let g = Arc::new(Gauge::new());
        entries.push((name, Metric::Gauge(Arc::clone(&g))));
        g
    }

    /// Registers (or retrieves) a histogram under `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, m)) = entries.iter().find(|(n, _)| *n == name) {
            match m {
                Metric::Histogram(h) => return Arc::clone(h),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push((name, Metric::Histogram(Arc::clone(&h))));
        h
    }

    /// Renders the versioned snapshot: `version=<v>` followed by one
    /// `name=value` token per counter/gauge in registration order.
    /// Histograms expand to `<name>-p50`, `<name>-p99`, `<name>-max` and
    /// `<name>-count` tokens.
    pub fn render(&self, version: u32) -> String {
        let entries = self.entries.lock().unwrap();
        let mut out = format!("version={version}");
        for (name, m) in entries.iter() {
            match m {
                Metric::Counter(c) => {
                    out.push_str(&format!(" {name}={}", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(" {name}={}", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        " {name}-p50={} {name}-p99={} {name}-max={} {name}-count={}",
                        h.quantile(0.50),
                        h.quantile(0.99),
                        h.max(),
                        h.count(),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        // bucket b holds [2^(b-1), 2^b); 0 shares bucket 1 with 1
        assert_eq!(Histogram::bucket_of(0), 1);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(2047), 11);
        assert_eq!(Histogram::bucket_of(2048), 12);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_monotone_bucket_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 700, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
        assert_eq!(h.max(), 1_000_000);
        // p50 of {1,2,3,700,1e6} lands in the bucket holding 3
        assert_eq!(h.quantile(0.5), 4);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max() {
        // 2931 sits in bucket [2048, 4096): the bucket bound alone would
        // report p50 = 4096 above max = 2931
        let h = Histogram::new();
        h.record(2931);
        assert_eq!(h.quantile(0.5), 2931);
        assert_eq!(h.quantile(0.99), 2931);
        assert_eq!(h.max(), 2931);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let g = Gauge::new();
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn registry_renders_in_registration_order() {
        let reg = Registry::new();
        let a = reg.counter("req.lines");
        let g = reg.gauge("sessions.open");
        let h = reg.histogram("solve.latency-us");
        a.add(3);
        g.set(2);
        h.record(100);
        let line = reg.render(2);
        // one observation: the bucket bound 128 is capped at the max
        assert!(
            line.starts_with("version=2 req.lines=3 sessions.open=2"),
            "{line}"
        );
        assert!(line.contains("solve.latency-us-p50=100"), "{line}");
        assert!(line.contains("solve.latency-us-count=1"), "{line}");
    }

    #[test]
    fn registry_returns_same_instance_for_same_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
