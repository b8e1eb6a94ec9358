//! Graph substrate for hierarchical graph partitioning.
//!
//! This crate provides everything the partitioning layers need from a graph
//! library, built from scratch so the workspace has no heavyweight external
//! dependencies:
//!
//! * [`Graph`] — an immutable weighted undirected graph in compressed sparse
//!   row (CSR) form, constructed through [`GraphBuilder`]. Node ids are dense
//!   `u32` values wrapped in [`NodeId`].
//! * [`traversal`] — BFS/DFS orders and connected components.
//! * [`flow`] — Dinic's max-flow / s-t min-cut on a derived residual network.
//! * [`mincut`] — Stoer–Wagner global minimum cut.
//! * [`tree`] — rooted trees with parent/child indexing, Euler tours and
//!   binary-lifting LCA; used both for decomposition trees over `G` and for
//!   the hierarchy tree `H`.
//! * [`generators`] — deterministic, seedable instance generators
//!   (Erdős–Rényi, Barabási–Albert, grids, random geometric, trees).
//! * [`io`] — METIS `.graph` and plain edge-list readers/writers.
//!
//! All floating point weights are `f64`; all generators take an explicit
//! RNG so experiments are reproducible bit-for-bit.

#![warn(missing_docs)]

pub mod flow;
pub mod generators;
pub mod gomoryhu;
mod graph;
pub mod io;
pub mod mincut;
pub mod partition;
pub mod spectral;
pub mod traversal;
pub mod tree;
pub mod unionfind;

pub use graph::{EdgeId, Graph, GraphBuilder, NodeId, SubgraphScratch};
