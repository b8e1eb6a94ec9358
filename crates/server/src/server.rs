//! The TCP front ends: event-driven multiplexing (default) or legacy
//! thread-per-connection, over one shared request router.
//!
//! Deliberately `std`-only (no async runtime is vendored). The default
//! front end is the `event` readiness loop: one thread owns
//! every connection through a private `poll(2)` shim, parses lines,
//! answers `stats2`/`place-incremental`/`shutdown` inline, and
//! dispatches `solve` into the bounded [`SolverPool`], flushing replies
//! as workers complete. The legacy mode (`ServerConfig::legacy_threads`,
//! `hgp serve --legacy-threads`) keeps the original thread per
//! connection with 200 ms read timeouts; it remains wire-byte-compatible
//! and is the only mode on non-unix targets. Both front ends route
//! through `route_inline`, so request semantics cannot drift between
//! them.

use crate::cache::DecompCache;
use crate::metrics::Metrics;
use crate::pool::{channel_reply, SolveJob, SolverPool};
use crate::protocol::{ErrCode, Request, SolveSpec, WireError};
use crate::session::SessionTable;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Use the legacy thread-per-connection front end instead of the
    /// event-driven readiness loop (`hgp serve --legacy-threads`). The
    /// wire protocol is byte-identical either way; legacy mode caps
    /// practical concurrency at OS thread scale and is the automatic
    /// fallback on non-unix targets.
    pub legacy_threads: bool,
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
            legacy_threads: false,
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

    /// Selects the legacy thread-per-connection front end.
    pub fn legacy_threads(mut self, legacy: bool) -> Self {
        self.config.legacy_threads = legacy;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

pub(crate) struct Shared {
    pub(crate) addr: SocketAddr,
    pub(crate) pool: parking_lot::Mutex<SolverPool>,
    pub(crate) sessions: SessionTable,
    pub(crate) cache: Arc<DecompCache>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) stop: AtomicBool,
    pub(crate) conns: AtomicU64,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Bookkeeping for an accepted connection (drain counter + gauge).
    pub(crate) fn conn_opened(&self) {
        let now = self.conns.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.conns_open.set(now);
    }

    /// Bookkeeping for a closed connection.
    pub(crate) fn conn_closed(&self) {
        let now = self.conns.fetch_sub(1, Ordering::Release) - 1;
        self.metrics.conns_open.set(now);
    }

    /// Idempotent shutdown trigger: raises the flag, wakes the front end
    /// with a self-connect, and drains the solver pool.
    pub(crate) fn trigger_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        self.pool.lock().shutdown();
    }
}

/// A running placement service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Returns once the listener is live.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
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
            addr,
            pool: parking_lot::Mutex::new(pool),
            sessions: SessionTable::new(config.max_sessions),
            cache,
            metrics,
            stop: AtomicBool::new(false),
            conns: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        // non-unix targets have no netpoll shim: always fall back to the
        // legacy threaded front end there
        let legacy = config.legacy_threads || !cfg!(unix);
        let accept_thread = if legacy {
            std::thread::Builder::new()
                .name("hgp-accept".to_string())
                .spawn(move || accept_loop(listener, accept_shared))?
        } else {
            #[cfg(unix)]
            {
                std::thread::Builder::new()
                    .name("hgp-event".to_string())
                    .spawn(move || crate::event::event_loop(listener, accept_shared))?
            }
            #[cfg(not(unix))]
            {
                unreachable!("non-unix targets always take the legacy branch")
            }
        };
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown: stops accepting, drains workers, and lets
    /// connection threads notice on their next read timeout.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until the accept loop has exited and live connections have
    /// drained (call [`Server::shutdown`] first, or from another thread).
    ///
    /// The connection drain is bounded: threads notice the stop flag within
    /// one read timeout, so waiting a few seconds is enough to let in-flight
    /// replies — the `ok draining=1` answer to a wire `shutdown` in
    /// particular — reach their clients before the process exits.
    pub fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

pub(crate) fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = Arc::clone(&shared);
        shared.conn_opened();
        let _ = std::thread::Builder::new()
            .name("hgp-conn".to_string())
            .spawn(move || {
                // catch_unwind so the connection gauge is decremented even
                // if the handler has a bug — a leaked count would make
                // `join` wait out its full drain deadline forever after
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = handle_connection(stream, &conn_shared);
                }));
                conn_shared.conn_closed();
            });
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    // Timeouts keep this thread responsive to shutdown even on idle
    // connections.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.stopping() {
            return Ok(());
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
        if line.trim().is_empty() {
            continue;
        }
        // the one-reply-per-line invariant holds even if a handler panics:
        // the panic is converted into an `err internal` reply
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_line(line.trim(), shared)
        }))
        .unwrap_or_else(|_| {
            WireError::new(ErrCode::Internal, "request handler panicked").to_line()
        });
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// What [`route_inline`] decided about one request line.
pub(crate) enum Routed {
    /// The reply is ready — `stats2`, `place-incremental`,
    /// `shutdown`, and every error are answered without touching the
    /// solver pool (so metrics stay readable even when the pool is
    /// saturated).
    Inline(String),
    /// A `solve`: the caller owns dispatching it into the pool (blocking
    /// in the legacy front end, completion-queue async in the event loop).
    Solve(Box<SolveSpec>),
}

/// The single request router both front ends share: parses the line,
/// answers everything except `solve` inline, and hands `solve` specs
/// back to the caller for pool dispatch. Keeping this common is what
/// guarantees the two modes stay wire-byte-compatible.
pub(crate) fn route_inline(line: &str, shared: &Shared) -> Routed {
    let metrics = &shared.metrics;
    metrics.requests.inc();
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            metrics.bad_requests.inc();
            return Routed::Inline(e.to_line());
        }
    };
    Routed::Inline(match request {
        Request::Solve(spec) => {
            if shared.stopping() {
                return Routed::Inline(
                    WireError::new(ErrCode::ShuttingDown, "server is draining").to_line(),
                );
            }
            return Routed::Solve(spec);
        }
        Request::Incr(op) => match shared.sessions.apply(op) {
            Ok(out) => {
                metrics.incr_ops.inc();
                metrics
                    .sessions_open
                    .set(shared.sessions.open_count() as u64);
                metrics.session_mutations.add(out.mutations);
                metrics.session_moves.add(out.moves);
                if out.warm_solve {
                    metrics.session_warm_solves.inc();
                }
                format!("ok {}", out.reply)
            }
            Err(e) => {
                if e.code == ErrCode::BadRequest {
                    metrics.bad_requests.inc();
                }
                e.to_line()
            }
        },
        Request::Stats2 => {
            metrics
                .sessions_open
                .set(shared.sessions.open_count() as u64);
            format!(
                "ok {}",
                metrics.stats2_line(shared.cache.hits(), shared.cache.misses())
            )
        }
        Request::Shutdown => {
            shared.trigger_shutdown();
            "ok draining=1".to_string()
        }
    })
}

/// Legacy-mode line handler: routes, then blocks the connection thread
/// on the solve reply (one in-flight solve per connection by design).
fn handle_line(line: &str, shared: &Shared) -> String {
    let spec = match route_inline(line, shared) {
        Routed::Inline(reply) => return reply,
        Routed::Solve(spec) => spec,
    };
    let (tx, rx) = mpsc::channel();
    let now = Instant::now();
    let deadline = spec.deadline_ms.map(|ms| now + Duration::from_millis(ms));
    let job = SolveJob::new(*spec, now, deadline, channel_reply(tx));
    let submitted = shared.pool.lock().submit(job);
    match submitted {
        Ok(()) => match rx.recv() {
            Ok(reply) => reply,
            // worker dropped the job on the floor mid-drain
            Err(_) => WireError::new(ErrCode::ShuttingDown, "server is draining").to_line(),
        },
        Err(e) => {
            if e.code == ErrCode::Overloaded {
                shared.metrics.overloaded.inc();
            }
            e.to_line()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

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
