//! Hierarchical graph partitioning — the SPAA'14 algorithm.
//!
//! This crate implements the paper's primary contribution end to end:
//!
//! * [`Instance`] / [`Assignment`] — problem and solution types with the
//!   Equation-1 cost and per-level capacity diagnostics;
//! * [`Rounding`] — the `(1+ε)` demand grid (Theorem 2's rounding step);
//! * [`relaxed`] — the signature dynamic program solving the relaxed
//!   problem RHGPT exactly on rounded demands (Theorem 4);
//! * [`laminar`] — reconstruction of the level-set family `S⁽⁰⁾…S⁽ʰ⁾`
//!   (Definition 4) from the DP's edge labelling;
//! * [`repair`] — Theorem 5's fan-out repair via LPT packing, giving the
//!   `(1+h)` capacity factor;
//! * [`tree_solver`] — the full HGPT pipeline for tree-shaped
//!   communication graphs;
//! * [`solver`] — HGP on arbitrary graphs: embed into a distribution of
//!   decomposition trees (Theorem 6/7), solve each tree, keep the best
//!   assignment when mapped back to `G` (Theorem 1);
//! * [`Solve`] — the one request façade over both pipelines;
//! * [`elastic`] — the transactional mutation + warm re-solve layer for
//!   long-lived placements: [`Session::apply`] validates and applies
//!   batches of typed [`Mutation`]s all-or-nothing, and
//!   [`Session::resolve`] re-places under a [`ChurnBudget`] reusing the
//!   cached tree distribution when the mutations left the topology alone;
//! * [`fm`] — the shared hierarchy-aware FM pass scoring moves by
//!   Equation-1 level costs (used by `hgp-multilevel` refinement and
//!   bounded-churn re-solves);
//! * [`exact`] — a branch-and-bound reference optimum for small instances;
//! * [`cost`] — Equation-3 mirror costs and minimum leaf-separating tree
//!   cuts, used to validate Lemmas 1–2 and Corollaries 2–3.
//!
//! Failures a caller can trigger are typed ([`HgpError`]), never panics —
//! the taxonomy distinguishes input errors from solve-time outcomes so
//! service boundaries (`hgp-server`) can map them to wire codes.
//!
//! The expensive layers are parallel but deterministic: distribution
//! sampling and the per-tree DP sweep fan out across [`Parallelism`]
//! scoped workers, and a fixed seed returns bit-identical results at any
//! width (DESIGN.md §8).

#![deny(missing_docs)]

mod assignment;
pub mod bounds;
pub mod cost;
pub mod elastic;
pub mod error;
pub mod exact;
pub mod facade;
pub mod fingerprint;
pub mod fm;
mod instance;
pub mod kbgp;
pub mod laminar;
pub mod relaxed;
pub mod repair;
mod rounding;
pub mod solver;
pub mod tree_solver;

pub use assignment::{Assignment, ViolationReport};
pub use elastic::{
    ChurnBudget, Delta, Mutation, MutationError, ReplaceOptions, ReplaceOptionsBuilder,
    ResolveChoice, ResolveReport, Session, SessionSnapshot,
};
pub use error::HgpError;
pub use facade::Solve;
pub use hgp_decomp::Parallelism;
pub use hgp_obs::{SolveTrace, SpanRecord, StageNanos, TraceSink};
pub use instance::{Infeasibility, Instance};
pub use rounding::Rounding;
pub use solver::{HgpReport, MultilevelOptions, SolverOptions, SolverOptionsBuilder};
pub use tree_solver::{SolveError, TreeSolveReport};
