//! The unified solve façade: one documented entry point for every way of
//! running the pipeline.
//!
//! [`Solve`] covers the full pipeline, the cache-friendly split into a
//! reusable distribution plus a per-machine sweep, and the §3 reduction
//! for tree-shaped communication graphs, behind one request type.
//!
//! ```
//! use hgp_core::{Instance, Solve};
//! use hgp_core::solver::SolverOptions;
//! use hgp_hierarchy::presets;
//! use hgp_graph::Graph;
//!
//! let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
//! let inst = Instance::uniform(g, 1.0);
//! let machine = presets::multicore(2, 2, 4.0, 1.0);
//!
//! // full pipeline, default options
//! let report = Solve::new(&inst, &machine).run().unwrap();
//!
//! // with options and a reusable distribution
//! let opts = SolverOptions::builder().trees(4).seed(7).build();
//! let request = Solve::new(&inst, &machine).options(opts);
//! let dist = request.distribution().unwrap();
//! let again = request.run_on(&dist).unwrap();
//! assert_eq!(report.assignment.num_tasks(), again.assignment.num_tasks());
//!
//! // tree-shaped communication graph: the exact §3 reduction
//! let tree_report = Solve::new(&inst, &machine).run_tree().unwrap();
//! assert!(tree_report.cost.is_finite());
//! ```

use crate::solver::{
    build_distribution_impl, solve_impl, solve_on_distribution_impl, HgpReport, SolverOptions,
};
use crate::tree_solver::{solve_tree_shaped_impl, SolveError, TreeSolveReport};
use crate::Instance;
use hgp_decomp::Distribution;
use hgp_hierarchy::Hierarchy;

/// A solve request: an instance, a machine hierarchy, and options.
///
/// Build one with [`Solve::new`], optionally attach [`SolverOptions`]
/// via [`Solve::options`], then pick an execution shape:
///
/// * [`run`](Solve::run) — the full Theorem-1 pipeline (embed into a
///   tree distribution, sweep, keep the best mapped assignment);
/// * [`distribution`](Solve::distribution) +
///   [`run_on`](Solve::run_on) — the cache-friendly split: the
///   distribution depends only on the topology and construction knobs,
///   so it can be reused across hierarchies and requests;
/// * [`run_tree`](Solve::run_tree) — the §3 reduction for instances
///   whose communication graph is itself a tree (exact, Theorem 2).
///
/// The request is `Copy` and borrows its inputs, so it can be kept
/// around and re-run cheaply.
#[derive(Clone, Copy, Debug)]
pub struct Solve<'a> {
    inst: &'a Instance,
    machine: &'a Hierarchy,
    opts: SolverOptions,
}

impl<'a> Solve<'a> {
    /// New request with default [`SolverOptions`].
    pub fn new(inst: &'a Instance, machine: &'a Hierarchy) -> Self {
        Self {
            inst,
            machine,
            opts: SolverOptions::default(),
        }
    }

    /// Replaces the request's options.
    pub fn options(mut self, opts: SolverOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The options this request will run with.
    pub fn opts(&self) -> &SolverOptions {
        &self.opts
    }

    /// Runs the full pipeline: distribution construction plus the
    /// per-tree sweep. With [`SolverOptions::trace`] set, the report's
    /// `trace` carries `distribution` and `sweep` wall stages, DP/repair
    /// CPU totals, table/prune counts, and the captured spans.
    pub fn run(&self) -> Result<HgpReport, SolveError> {
        solve_impl(self.inst, self.machine, &self.opts)
    }

    /// Builds just the Räcke tree distribution — the expensive,
    /// *hierarchy-independent* half of [`run`](Solve::run). Callers
    /// serving many requests cache it keyed by
    /// [`crate::fingerprint::distribution_fingerprint`] and feed it back
    /// through [`run_on`](Solve::run_on).
    pub fn distribution(&self) -> Result<Distribution, SolveError> {
        build_distribution_impl(self.inst, &self.opts, None)
    }

    /// Runs the per-tree sweep on a pre-built distribution.
    pub fn run_on(&self, dist: &Distribution) -> Result<HgpReport, SolveError> {
        solve_on_distribution_impl(self.inst, self.machine, dist, &self.opts)
    }

    /// Runs the §3 reduction for tree-shaped communication graphs
    /// (exact on such instances — Theorem 2). Uses the request's
    /// rounding and trace options; the distribution knobs
    /// (`num_trees`, `decomp`, `seed`, `parallelism`) are irrelevant
    /// here and ignored.
    pub fn run_tree(&self) -> Result<TreeSolveReport, SolveError> {
        solve_tree_shaped_impl(self.inst, self.machine, self.opts.rounding, self.opts.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;

    fn path_instance(n: u32) -> Instance {
        let edges: Vec<(u32, u32, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        Instance::uniform(Graph::from_edges(n as usize, &edges), 1.0)
    }

    #[test]
    fn run_matches_distribution_then_run_on() {
        let inst = path_instance(8);
        let h = presets::multicore(2, 4, 4.0, 1.0);
        let opts = SolverOptions::builder().trees(4).seed(42).build();

        let via_run = Solve::new(&inst, &h).options(opts).run().unwrap();
        let dist = Solve::new(&inst, &h).options(opts).distribution().unwrap();
        let on_dist = Solve::new(&inst, &h).options(opts).run_on(&dist).unwrap();
        assert_eq!(on_dist.cost.to_bits(), via_run.cost.to_bits());
        assert_eq!(on_dist.assignment, via_run.assignment);
    }

    #[test]
    fn traced_run_carries_stage_timings() {
        let inst = path_instance(10);
        let h = presets::multicore(2, 5, 4.0, 1.0);
        let opts = SolverOptions::builder().trees(4).trace(true).build();
        let rep = Solve::new(&inst, &h).options(opts).run().unwrap();
        let tr = rep.trace.expect("trace requested");
        assert!(tr.stage_nanos("distribution").is_some());
        assert!(tr.stage_nanos("sweep").is_some());
        assert_eq!(tr.count_of("trees-total"), Some(4));
        assert_eq!(tr.count_of("dp-entries"), Some(rep.dp_entries_total as u64));
        assert_eq!(tr.count_of("dp-pruned"), Some(rep.dp_pruned_total as u64));
        if hgp_obs::capture_enabled() {
            assert!(tr.spans.iter().any(|s| s.name == "tree.dp"));
            assert!(tr.spans.iter().any(|s| s.name == "decomp.tree"));
        }
        // untraced run: no trace, same answer
        let plain = Solve::new(&inst, &h)
            .options(opts.to_builder().trace(false).build())
            .run()
            .unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(plain.cost.to_bits(), rep.cost.to_bits());
    }

    #[test]
    fn traced_tree_run_carries_dp_and_repair_stages() {
        let inst = path_instance(6);
        let h = presets::multicore(2, 3, 4.0, 1.0);
        let opts = SolverOptions::builder().trace(true).build();
        let rep = Solve::new(&inst, &h).options(opts).run_tree().unwrap();
        let tr = rep.trace.expect("trace requested");
        assert_eq!(tr.stage_nanos("dp"), Some(rep.dp_nanos));
        assert_eq!(tr.stage_nanos("repair"), Some(rep.repair_nanos));
        assert_eq!(tr.count_of("dp-entries"), Some(rep.dp_entries as u64));
    }
}
