//! The TCP front end: configuration, start-up and shutdown.
//!
//! Deliberately `std`-only (no async runtime is vendored). One
//! `hgp-event` thread runs a readiness loop that owns the listener and
//! every connection through a private `poll(2)` shim, parses lines,
//! answers `stats2`/`place-incremental`/`shutdown` inline, and dispatches
//! `solve` into the bounded [`SolverPool`], flushing replies as workers
//! complete.

use crate::cache::DecompCache;
use crate::event::Completions;
use crate::metrics::Metrics;
use crate::pool::SolverPool;
use crate::session::SessionTable;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server construction knobs.
///
/// Marked `#[non_exhaustive]`: construct via [`ServerConfig::default`]
/// plus field mutation, or fluently through [`ServerConfig::builder`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Bounded solve-queue depth; a full queue answers `overloaded`.
    pub queue_capacity: usize,
    /// Worker width each individual solve fans its tree sampling and
    /// per-tree DPs across (`hgp serve --threads`). Peak thread demand is
    /// `workers × parallelism`; results never depend on it.
    pub parallelism: hgp_core::Parallelism,
    /// Decomposition-cache capacity (distributions, not bytes).
    pub cache_capacity: usize,
    /// Maximum concurrently open incremental sessions.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            parallelism: hgp_core::Parallelism::Auto,
            cache_capacity: 32,
            max_sessions: 256,
        }
    }
}

impl ServerConfig {
    /// Fluent builder seeded with [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }

    /// Builder seeded with this configuration's current values.
    pub fn to_builder(self) -> ServerConfigBuilder {
        ServerConfigBuilder { config: self }
    }
}

/// Fluent builder for [`ServerConfig`].
///
/// ```
/// use hgp_server::ServerConfig;
///
/// let config = ServerConfig::builder()
///     .addr("127.0.0.1:0")
///     .workers(2)
///     .queue_capacity(16)
///     .build();
/// assert_eq!(config.workers, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the bind address (`127.0.0.1:0` picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Sets the solver worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the bounded solve-queue depth.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the per-solve fan-out width.
    pub fn parallelism(mut self, par: hgp_core::Parallelism) -> Self {
        self.config.parallelism = par;
        self
    }

    /// Sets the decomposition-cache capacity (distributions, not bytes).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Sets the maximum number of concurrently open incremental sessions.
    pub fn max_sessions(mut self, max: usize) -> Self {
        self.config.max_sessions = max;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

pub(crate) struct Shared {
    pub(crate) pool: parking_lot::Mutex<SolverPool>,
    pub(crate) sessions: SessionTable,
    pub(crate) cache: Arc<DecompCache>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) completions: Arc<Completions>,
    pub(crate) stop: AtomicBool,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Idempotent shutdown trigger: raises the flag, wakes the event loop
    /// through its wake pipe, and drains the solver pool.
    pub(crate) fn trigger_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.completions.wake();
        self.pool.lock().shutdown();
    }
}

/// A running placement service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the event loop. Returns once the listener is live;
    /// a listener that cannot be made non-blocking, or a wake pipe that
    /// cannot be created, is an `Err` here.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let completions = Arc::new(Completions::new()?);
        let cache = Arc::new(DecompCache::new(config.cache_capacity));
        let metrics = Arc::new(Metrics::new());
        let pool = SolverPool::new(
            config.workers,
            config.queue_capacity,
            config.parallelism,
            Arc::clone(&cache),
            Arc::clone(&metrics),
        );
        let shared = Arc::new(Shared {
            pool: parking_lot::Mutex::new(pool),
            sessions: SessionTable::new(config.max_sessions),
            cache,
            metrics,
            completions,
            stop: AtomicBool::new(false),
        });
        let loop_shared = Arc::clone(&shared);
        let event_thread = std::thread::Builder::new()
            .name("hgp-event".to_string())
            .spawn(move || crate::event::event_loop(listener, loop_shared))?;
        Ok(Server {
            addr,
            shared,
            event_thread: Some(event_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stops accepting, fails queued solves with
    /// `err shutting-down`, and drains the workers.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until the event loop has exited (call [`Server::shutdown`]
    /// first, or from another thread). The loop flushes pending replies
    /// — the `ok draining=1` answer to a wire `shutdown` in particular —
    /// for a bounded time and closes every connection before it returns.
    pub fn join(&mut self) {
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn roundtrip(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim().to_string()
    }

    #[test]
    fn serves_a_basic_conversation() {
        let server = Server::start(ServerConfig::builder().workers(2).build()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

        let r = roundtrip(&mut c, "solve graph=edges:4:0-1:3.0,1-2:1.0,2-3:3.0 machine=2x2:4,1,0 demand=0.4 trees=2 seed=1");
        assert!(r.starts_with("ok cost="), "{r}");
        assert!(!r.contains("trace."), "untraced reply must stay clean: {r}");

        let r = roundtrip(&mut c, "place-incremental new machine=2x2:4,1,0");
        assert!(r.starts_with("ok session="), "{r}");

        let r = roundtrip(&mut c, "bogus");
        assert!(r.starts_with("err bad-request"), "{r}");

        let r = roundtrip(&mut c, "stats");
        assert!(r.starts_with("err bad-request"), "{r}");

        let r = roundtrip(&mut c, "stats2");
        assert!(r.starts_with("ok version=2 req.lines=5"), "{r}");
        for tok in ["solve.ok=1", "cache.misses=1", "solve.latency-us-count=1"] {
            assert!(r.contains(tok), "missing {tok}: {r}");
        }

        server.shutdown();
    }

    #[test]
    fn traced_solve_appends_trace_tokens() {
        let server = Server::start(ServerConfig::builder().workers(1).build()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

        let line =
            "solve graph=gen:clustered:2x4:5 machine=2x2:4,1,0 demand=0.4 trees=4 seed=7 trace=1";
        let r = roundtrip(&mut c, line);
        assert!(r.starts_with("ok cost="), "{r}");
        for tok in [
            "trace.queue-wait-us=",
            "trace.distribution-us=",
            "trace.sweep-us=",
            "trace.dp-cpu-us=",
            "trace.repair-cpu-us=",
            "trace.cache-hit=0",
            "trace.trees-total=4",
            "trace.trees-solved=4",
            "trace.dp-entries=",
            "trace.dp-pruned=",
        ] {
            assert!(r.contains(tok), "missing {tok}: {r}");
        }
        // repeat request: the distribution now comes from the cache
        let r2 = roundtrip(&mut c, line);
        assert!(r2.contains("trace.cache-hit=1"), "{r2}");
        // tracing must not change the answer
        let cost = |s: &str| {
            s.split_whitespace()
                .find_map(|kv| kv.strip_prefix("cost="))
                .unwrap()
                .to_string()
        };
        assert_eq!(cost(&r), cost(&r2));

        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let mut server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.addr();
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let r = roundtrip(&mut c, "shutdown");
        assert_eq!(r, "ok draining=1");
        server.shutdown();
        server.shutdown();
        server.join();
        // new connections are refused or go unanswered once draining
        std::thread::sleep(Duration::from_millis(50));
    }
}
