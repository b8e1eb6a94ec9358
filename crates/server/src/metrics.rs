//! Service metrics on the `hgp-obs` registry: typed counters, gauges and
//! histograms behind stable wire names.
//!
//! Every metric lives in a [`Registry`] and is recorded through the typed
//! `hgp-obs` handles (plain atomics — hot paths never serialise on a
//! lock). The registry renders the versioned `stats2` reply directly;
//! the key reference is in `docs/PROTOCOL.md`.

use hgp_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// The server-wide metrics registry, shared by all threads.
///
/// Each field is an [`Arc`] handle into the embedded [`Registry`], so hot
/// paths record through field access (`metrics.solve_ok.inc()`) while the
/// `stats2` reply renders straight from the registry in registration
/// order.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    /// Request lines received (parse failures included). Wire: `req.lines`.
    pub requests: Arc<Counter>,
    /// Requests rejected as unparseable or semantically invalid.
    /// Wire: `req.bad`.
    pub bad_requests: Arc<Counter>,
    /// Solves answered from the full pipeline within deadline.
    /// Wire: `solve.ok`.
    pub solve_ok: Arc<Counter>,
    /// Solves answered degraded (baseline fallback or partial
    /// distribution). Wire: `solve.degraded`.
    pub solve_degraded: Arc<Counter>,
    /// Solves that failed outright (infeasible, disconnected, …).
    /// Wire: `solve.err`.
    pub solve_err: Arc<Counter>,
    /// Solves rejected because the queue was full. Wire: `solve.overloaded`.
    pub overloaded: Arc<Counter>,
    /// `place-incremental` operations applied successfully. Wire: `incr.ops`.
    pub incr_ops: Arc<Counter>,
    /// Sessions currently open. Wire: `sessions.open`.
    pub sessions_open: Arc<Gauge>,
    /// Solver-pool workers currently alive (maintained by the pool
    /// supervisor). Wire: `pool.workers-alive`.
    pub workers_alive: Arc<Gauge>,
    /// Worker threads that died (escaped the panic-isolation boundary) and
    /// were respawned by the supervisor. Wire: `pool.worker-deaths`.
    pub worker_deaths: Arc<Counter>,
    /// Solves that panicked and were caught at the isolation boundary
    /// (answered `err internal`; the worker survived).
    /// Wire: `pool.solve-panics`.
    pub solve_panics: Arc<Counter>,
    /// Decomposition-cache hits, mirrored from the cache's own counters at
    /// snapshot time. Wire: `cache.hits`.
    cache_hits: Arc<Gauge>,
    /// Decomposition-cache misses, mirrored like `cache_hits`.
    /// Wire: `cache.misses`.
    cache_misses: Arc<Gauge>,
    /// Distribution builds actually executed. Unlike `cache.misses` —
    /// which counts *lookups* that missed — this counts the expensive
    /// `Solve::distribution` calls themselves, so
    /// `misses − builds` is the work single-flight coalescing saved.
    /// Wire: `cache.builds`.
    pub cache_builds: Arc<Counter>,
    /// Solves that joined an in-flight build as a follower and reused the
    /// leader's distribution (reply tagged `cache=shared`).
    /// Wire: `cache.coalesced`.
    pub cache_coalesced: Arc<Counter>,
    /// Cumulative microseconds workers spent executing solves (not
    /// idle-waiting on the queue). Worker utilization over a window is
    /// `Δbusy-us / (workers × Δwall-us)`. Wire: `pool.busy-us`.
    pub pool_busy_us: Arc<Counter>,
    /// Client connections currently open, as counted by the event
    /// loop's connection table.
    /// Wire: `conns.open`.
    pub conns_open: Arc<Gauge>,
    /// Mutations committed through the transactional session API (each
    /// element of a `mutate` batch). Wire: `session.mutations`.
    pub session_mutations: Arc<Counter>,
    /// `resolve` operations that reused the session's cached tree
    /// distribution (replied `warm=1`). Wire: `session.warm-solves`.
    pub session_warm_solves: Arc<Counter>,
    /// Placement moves session operations incurred (arrivals, overflow
    /// relocations, drain evacuations, resolve commits) — the fleet-wide
    /// re-pinning churn. Wire: `session.moves`.
    pub session_moves: Arc<Counter>,
    /// End-to-end solve latency (enqueue to reply), successful solves
    /// only, in microseconds. Wire: `solve.latency-us`.
    pub solve_latency: Arc<Histogram>,
    /// Time a solve job spent queued before a worker picked it up, in
    /// microseconds — the backpressure signal. Wire: `queue.wait-us`.
    pub queue_wait: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh registry with all metrics at zero.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter("req.lines");
        let bad_requests = registry.counter("req.bad");
        let solve_ok = registry.counter("solve.ok");
        let solve_degraded = registry.counter("solve.degraded");
        let solve_err = registry.counter("solve.err");
        let overloaded = registry.counter("solve.overloaded");
        let incr_ops = registry.counter("incr.ops");
        let sessions_open = registry.gauge("sessions.open");
        let workers_alive = registry.gauge("pool.workers-alive");
        let worker_deaths = registry.counter("pool.worker-deaths");
        let solve_panics = registry.counter("pool.solve-panics");
        let cache_hits = registry.gauge("cache.hits");
        let cache_misses = registry.gauge("cache.misses");
        let cache_builds = registry.counter("cache.builds");
        let cache_coalesced = registry.counter("cache.coalesced");
        let pool_busy_us = registry.counter("pool.busy-us");
        let conns_open = registry.gauge("conns.open");
        let session_mutations = registry.counter("session.mutations");
        let session_warm_solves = registry.counter("session.warm-solves");
        let session_moves = registry.counter("session.moves");
        let solve_latency = registry.histogram("solve.latency-us");
        let queue_wait = registry.histogram("queue.wait-us");
        Self {
            registry,
            requests,
            bad_requests,
            solve_ok,
            solve_degraded,
            solve_err,
            overloaded,
            incr_ops,
            sessions_open,
            workers_alive,
            worker_deaths,
            solve_panics,
            cache_hits,
            cache_misses,
            cache_builds,
            cache_coalesced,
            pool_busy_us,
            conns_open,
            session_mutations,
            session_warm_solves,
            session_moves,
            solve_latency,
            queue_wait,
        }
    }

    /// Renders the versioned `stats2` reply body: `version=2` followed by
    /// every registered metric in registration order, histograms expanded
    /// to `-p50`/`-p99`/`-max`/`-count` tokens.
    pub fn stats2_line(&self, cache_hits: u64, cache_misses: u64) -> String {
        self.cache_hits.set(cache_hits);
        self.cache_misses.set(cache_misses);
        self.registry.render(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stats2_line_carries_version_and_renamed_keys() {
        let m = Metrics::new();
        m.requests.inc();
        m.solve_ok.inc();
        m.solve_latency
            .record_duration_us(Duration::from_micros(100));
        m.queue_wait.record_duration_us(Duration::from_micros(7));
        m.cache_builds.inc();
        m.cache_coalesced.inc();
        m.pool_busy_us.add(250);
        m.conns_open.set(12);
        m.session_mutations.add(4);
        m.session_warm_solves.inc();
        m.session_moves.add(9);
        let line = m.stats2_line(5, 2);
        assert!(line.starts_with("version=2 req.lines=1"), "{line}");
        for tok in [
            "solve.ok=1",
            "cache.hits=5",
            "cache.misses=2",
            "cache.builds=1",
            "cache.coalesced=1",
            "pool.busy-us=250",
            "conns.open=12",
            "session.mutations=4",
            "session.warm-solves=1",
            "session.moves=9",
            // single observations: the quantile is capped at the max
            "solve.latency-us-p50=100",
            "solve.latency-us-count=1",
            "queue.wait-us-p50=7",
            "queue.wait-us-count=1",
        ] {
            assert!(line.contains(tok), "missing {tok}: {line}");
        }
    }
}
