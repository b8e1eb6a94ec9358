//! Canonical span and trace names shared across the workspace.
//!
//! Span names are `&'static str` by construction ([`crate::TraceSink::span`]
//! takes a static string); instrumented crates should reference these
//! constants instead of re-typing the literals so consumers — the bench
//! harness, the server's `trace=1` replies, DESIGN.md §9's span table —
//! never drift from the producers.
//!
//! The multilevel front-end (`hgp-multilevel`) emits one span per V-cycle
//! stage ([`ML_COARSEN`], [`ML_CORE`], [`ML_REFINE`]) and records two
//! structural facts in its [`crate::SolveTrace`] counts: [`ML_LEVELS`]
//! (how many coarsening levels the ladder built) and [`ML_COARSEST_NODES`]
//! (the node count handed to the exact core solve; the reduction ratio is
//! `n / coarsest`).

/// Coarsening-ladder stage of the multilevel V-cycle.
pub const ML_COARSEN: &str = "ml.coarsen";

/// Exact core solve on the coarsest graph (full distribution + DP).
pub const ML_CORE: &str = "ml.core";

/// Uncoarsening + hierarchy-aware FM refinement stage.
pub const ML_REFINE: &str = "ml.refine";

/// Trace count: number of coarsening levels in the ladder.
pub const ML_LEVELS: &str = "ml-levels";

/// Trace count: nodes in the coarsest graph the core solve received.
pub const ML_COARSEST_NODES: &str = "ml-coarsest-nodes";

/// Trace count: `1` when the k-way + refine seed beat the exact core's
/// placement on the coarsest instance and seeded the uncoarsening,
/// `0` when the core's own placement won.
pub const ML_SEEDED_BY_KWAY: &str = "ml-seeded-by-kway";

/// One MWU wave of the distribution sampler (`arg` = index of the wave's
/// first tree).
pub const DECOMP_WAVE: &str = "decomp.wave";

/// One decomposition-tree build inside a wave (`arg` = tree index,
/// parented on its [`DECOMP_WAVE`] span).
pub const DECOMP_TREE: &str = "decomp.tree";
