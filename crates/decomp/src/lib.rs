//! Decomposition trees and Räcke-style tree distributions (§4 of the
//! paper).
//!
//! A *decomposition tree* `T` for a graph `G` is a laminar hierarchy of
//! vertex clusters: the root is `V(G)`, leaves are singletons (bijective
//! with `V(G)`), and the weight of the tree edge above a cluster `C` is the
//! total weight of `G` edges leaving `C` — exactly the weighting the paper
//! prescribes, which makes Proposition 1 (`w_T(CUT_T(P_T)) ≥
//! w(CUT(m(P_T)))`) hold unconditionally.
//!
//! [`build_decomp_tree`] constructs one tree by recursive demand-balanced
//! bisection (multilevel + FM refinement from `hgp-graph`).
//! [`racke_distribution`] builds a *distribution* of trees with a
//! multiplicative-weights loop over measured edge congestion, our practical
//! stand-in for Räcke's optimal congestion-minimising embedding (Theorem 6)
//! — see DESIGN.md §3 for the substitution argument. The realised quality
//! is *measured* (experiment F2) rather than assumed: [`hop_congestion`]
//! reports, per `G` edge, how many tree edges its endpoints' leaf-to-leaf
//! path uses, which is exactly the congestion its own weight imposes under
//! the boundary routing of tree-edge flows.
//!
//! Sampling is parallel but deterministic: [`racke_distribution_par`]
//! draws per-tree seed streams up front and runs the MWU loop in waves
//! ([`DecompOpts::mwu_wave`]), so any [`Parallelism`] width returns trees
//! bit-identical to the serial path. [`par_map_indexed`] is the shared
//! deterministic fan-out primitive the solver layers reuse.

#![deny(missing_docs)]

mod build;
mod distribution;
mod parallel;

pub use build::{build_decomp_tree, CutOracle, DecompOpts, DecompTree};
pub use distribution::{
    hop_congestion, racke_distribution, racke_distribution_par, CongestionStats, Distribution,
};
pub use parallel::{par_map_indexed, Parallelism};
