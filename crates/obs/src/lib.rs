//! # hgp-obs — structured observability for the hgp workspace
//!
//! A zero-dependency, allocation-light tracing and metrics core shared by
//! every layer of the pipeline (decomposition, DP solver, repair, server,
//! bench harness). It has three parts:
//!
//! * [`mod@span`] — hierarchical spans with monotonic timing. A [`TraceSink`]
//!   is a thread-safe fixed-capacity ring buffer; [`SpanGuard`]s record on
//!   drop. When the `capture` cargo feature is disabled the whole layer
//!   compiles down to no-ops (zero-sized guards, empty sinks), so
//!   instrumented call sites cost nothing in builds that opt out.
//! * [`metrics`] — a typed registry of [`Counter`]s, [`Gauge`]s and
//!   log-scale [`Histogram`]s, replacing loose `AtomicU64` fields. The
//!   registry renders a versioned `key=value` snapshot for the wire
//!   `stats2` endpoint.
//! * [`trace`] — [`SolveTrace`], the structured per-solve profile (stage
//!   wall times, overlapping CPU totals, DP table/prune counts, cache and
//!   queue facts, raw spans) carried by `HgpReport`/`TreeSolveReport` and
//!   consumed by the `benchmark` package's per-layer metrics and the
//!   server's `trace=1` replies.
//!
//! Everything here is plain `std`: atomics on the hot paths, one `Mutex`
//! around the span ring (taken only at guard drop and snapshot time).
//!
//! ## Quick start
//!
//! ```
//! use hgp_obs::{span, Registry, SolveTrace, TraceSink};
//!
//! let sink = TraceSink::new(1024);
//! {
//!     let _solve = sink.span("solve");
//!     let _dp = span!(Some(&sink), "dp.node_fold");
//!     // ... work ...
//! }
//! let mut trace = SolveTrace::new();
//! trace.stage("dp", 1_500_000);
//! trace.count("dp-entries", 42);
//! trace.absorb_sink(&sink);
//!
//! let reg = Registry::new();
//! let solves = reg.counter("solve.ok");
//! solves.inc();
//! assert!(reg.render(2).starts_with("version=2"));
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod names;
pub mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};
pub use span::{SpanGuard, SpanRecord, TraceSink, NO_PARENT};
pub use trace::{SolveTrace, StageNanos};

/// Whether span capture is compiled into this build (`capture` feature).
///
/// When `false`, every [`TraceSink`] is a no-op and [`SpanRecord`]s are
/// never produced; metrics and [`SolveTrace`] bookkeeping still work.
pub const fn capture_enabled() -> bool {
    cfg!(feature = "capture")
}
