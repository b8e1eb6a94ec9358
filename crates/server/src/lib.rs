//! `hgp-server`: a long-running concurrent placement service.
//!
//! The paper's pipeline is an offline algorithm; the deployments that
//! motivate it (stream-processing operators on NUMA boxes and clusters,
//! §1 of the paper) need placement *as a service*: many callers, repeat
//! topologies, latency budgets, and task churn between full solves. This
//! crate wraps the `hgp-core` solver in exactly that shape:
//!
//! * [`protocol`] — a newline-delimited text protocol over TCP
//!   (`solve` with an opt-in `trace=1` profile, `place-incremental`,
//!   the versioned `stats2`, `shutdown`);
//! * [`pool`] — a bounded solver pool: admission control via
//!   `overloaded`, per-request deadlines with graceful degradation to the
//!   `hgp-baselines` k-way + refine path (replies tagged `degraded=1`);
//! * [`cache`] — an LRU over Räcke tree distributions keyed by the
//!   structural fingerprints in `hgp_core::fingerprint`, so repeat
//!   topologies skip the expensive embedding;
//! * [`session`] — server-held elastic [`hgp_core::Session`]s for task
//!   churn (typed `mutate` batches, bounded-churn `resolve`), with
//!   wire-safe validation;
//! * [`metrics`] — typed `hgp-obs` counters, gauges and histograms in a
//!   registry behind `stats2` (versioned);
//! * [`flight`] — single-flight coalescing: concurrent solves sharing a
//!   distribution fingerprint join one in-flight build (leader builds,
//!   followers park and reuse, replies tagged `cache=shared`);
//! * `netpoll` (private) — a vendored-style shim over POSIX
//!   `poll(2)`/`pipe(2)` (the workspace is crates.io-free) powering the
//!   event loop;
//! * [`server`] — the std-only TCP front end tying it together: one
//!   event-driven readiness loop multiplexing thousands of non-blocking
//!   connections on one thread.
//!
//! The crate is unix-only, because that loop is built on `poll(2)` and
//! `pipe(2)`.
//!
//! Everything is deterministic given request seeds: two identical `solve`
//! lines return identical costs, whether the distribution was built
//! fresh, served from cache, or shared from a coalesced in-flight build.

#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("hgp-server is unix-only: its event loop is built on poll(2) and pipe(2)");

pub mod cache;
mod event;
pub mod flight;
pub mod metrics;
mod netpoll;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::DecompCache;
pub use flight::{FlightError, FlightGroup, FollowerOutcome, Ticket};
pub use metrics::Metrics;
pub use pool::{ReplySink, SolveJob, SolverPool};
pub use protocol::{ErrCode, GraphSpec, IncrOp, Request, SolveSpec, WireError};
pub use server::{Server, ServerConfig, ServerConfigBuilder};
pub use session::SessionTable;
