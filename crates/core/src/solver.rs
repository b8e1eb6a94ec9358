//! HGP on arbitrary graphs — Theorem 1.
//!
//! The pipeline of §4: embed `G` into a distribution of decomposition trees
//! (Theorem 6, via `hgp-decomp`), solve HGPT on every tree with the
//! Theorem-2 machinery, map each tree solution back to `G` through the leaf
//! bijection, and keep the one with the smallest *actual* Equation-1 cost
//! (Theorem 7 picks by tree cost; evaluating the mapped cost — which
//! Proposition 1 upper-bounds by the tree cost — can only do better).
//!
//! Both expensive stages are embarrassingly parallel and share the
//! deterministic fan-out of [`hgp_decomp::par_map_indexed`]: tree sampling
//! proceeds in MWU waves ([`racke_distribution_par`]) and the per-tree DPs
//! run on a crossbeam scope with work stealing. Results are reduced in tree
//! order (cost ties broken by tree index), so the output is bit-identical
//! for every [`Parallelism`] setting — see DESIGN.md §8.

use crate::tree_solver::{solve_rooted_traced, SolveError, TreeSolveReport};
use crate::{Assignment, Instance, Rounding, ViolationReport};
use hgp_decomp::{par_map_indexed, racke_distribution_par, DecompOpts, Distribution, Parallelism};
use hgp_hierarchy::Hierarchy;
use hgp_obs::{SolveTrace, StageNanos, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ring capacity of the per-solve [`TraceSink`]: two spans per tree of
/// the distribution plus per-wave decomposition spans fit comfortably;
/// overflow just drops the oldest spans and bumps
/// `SolveTrace::dropped_spans`.
pub(crate) const SPAN_CAPACITY: usize = 1024;

/// Options for the solve pipeline (the [`crate::Solve`] façade).
///
/// Construct via [`SolverOptions::builder`] — the struct is
/// `#[non_exhaustive]` so new knobs (like [`trace`](Self::trace)) can be
/// added without breaking downstream crates. [`Default`] remains
/// available, and existing values can be tweaked through
/// [`SolverOptions::to_builder`].
#[non_exhaustive]
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Number of decomposition trees in the distribution (`p`).
    pub num_trees: usize,
    /// Demand-rounding grid for the per-tree DP.
    pub rounding: Rounding,
    /// Decomposition-tree construction options.
    pub decomp: DecompOpts,
    /// Worker width for tree sampling and the per-tree DPs. Defaults to
    /// [`Parallelism::Auto`] (one worker per core); [`Parallelism::serial`]
    /// pins everything to the calling thread. Never affects the result.
    pub parallelism: Parallelism,
    /// RNG seed (the whole pipeline is deterministic given this seed).
    pub seed: u64,
    /// Capture a [`SolveTrace`] (stage timings, DP table/prune counts,
    /// spans) into the report. Observational only: it never changes the
    /// solution and never feeds the distribution fingerprint. Defaults off.
    pub trace: bool,
    /// Multilevel V-cycle front-end knobs (see the `hgp-multilevel`
    /// crate, which consumes them). Plain data here so every entry point
    /// — CLI flag, wire token, bench — can carry the request through
    /// [`SolverOptions`] without `hgp-core` depending on the driver.
    /// Defaults to disabled.
    pub multilevel: MultilevelOptions,
}

/// Knobs for the multilevel (coarsen → solve → uncoarsen + refine)
/// front-end. `hgp-core` itself never reads them: the V-cycle driver
/// lives in `hgp-multilevel` and inspects
/// [`SolverOptions::multilevel`] on the options handed to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultilevelOptions {
    /// Route the solve through the V-cycle (default `false`).
    pub enabled: bool,
    /// Stop coarsening once the graph has at most this many nodes; the
    /// coarsest graph is what the exact pipeline solves. When this is
    /// `>=` the instance size no coarsening happens and the multilevel
    /// solve is bit-identical to the direct solve.
    pub coarsen_until: usize,
    /// Maximum hierarchy-aware FM passes per uncoarsening level.
    pub refine_passes: usize,
}

impl Default for MultilevelOptions {
    fn default() -> Self {
        Self {
            enabled: false,
            coarsen_until: 192,
            refine_passes: 4,
        }
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            num_trees: 8,
            rounding: Rounding::with_units(8),
            decomp: DecompOpts::default(),
            parallelism: Parallelism::Auto,
            seed: 0xC0FFEE,
            trace: false,
            multilevel: MultilevelOptions::default(),
        }
    }
}

impl SolverOptions {
    /// Starts a builder at the defaults.
    ///
    /// ```
    /// use hgp_core::solver::SolverOptions;
    /// use hgp_core::Parallelism;
    /// let opts = SolverOptions::builder()
    ///     .trees(8)
    ///     .threads(Parallelism::Auto)
    ///     .build();
    /// assert_eq!(opts.num_trees, 8);
    /// ```
    pub fn builder() -> SolverOptionsBuilder {
        SolverOptionsBuilder::default()
    }

    /// Re-opens these options as a builder (for tweaking a copy).
    pub fn to_builder(self) -> SolverOptionsBuilder {
        SolverOptionsBuilder { opts: self }
    }
}

/// Builder for [`SolverOptions`] — the supported way to construct them
/// from outside this crate.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverOptionsBuilder {
    opts: SolverOptions,
}

impl SolverOptionsBuilder {
    /// Number of decomposition trees (`p`; default 8).
    pub fn trees(mut self, p: usize) -> Self {
        self.opts.num_trees = p;
        self
    }

    /// Demand-rounding grid (default 8 units per leaf).
    pub fn rounding(mut self, r: Rounding) -> Self {
        self.opts.rounding = r;
        self
    }

    /// Shorthand for `.rounding(Rounding::with_units(units))`.
    pub fn units(self, units: u32) -> Self {
        self.rounding(Rounding::with_units(units))
    }

    /// Decomposition-tree construction options.
    pub fn decomp(mut self, d: DecompOpts) -> Self {
        self.opts.decomp = d;
        self
    }

    /// Worker width (default [`Parallelism::Auto`]; never affects the
    /// result).
    pub fn threads(mut self, p: Parallelism) -> Self {
        self.opts.parallelism = p;
        self
    }

    /// Pipeline RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.opts.seed = s;
        self
    }

    /// Capture a [`SolveTrace`] into the report (default off).
    pub fn trace(mut self, on: bool) -> Self {
        self.opts.trace = on;
        self
    }

    /// Multilevel V-cycle knobs (default disabled).
    pub fn multilevel(mut self, ml: MultilevelOptions) -> Self {
        self.opts.multilevel = ml;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> SolverOptions {
        self.opts
    }
}

/// Outcome of [`Solve::run`](crate::Solve::run).
#[derive(Clone, Debug)]
pub struct HgpReport {
    /// Best assignment found.
    pub assignment: Assignment,
    /// Its Equation-1 cost in `G`.
    pub cost: f64,
    /// Its per-level capacity diagnostics.
    pub violation: ViolationReport,
    /// Index of the winning decomposition tree.
    pub best_tree: usize,
    /// Mapped Equation-1 cost per tree (`None` where the DP failed —
    /// capacity-infeasible, or a caught per-tree fault).
    pub per_tree_costs: Vec<Option<f64>>,
    /// Certificate (tree) cost of the winning tree — `cost` never exceeds
    /// it on normalised multipliers (Proposition 1).
    pub certificate: f64,
    /// Total DP table entries across all trees.
    pub dp_entries_total: usize,
    /// Summed wall-clock nanoseconds the signature DPs consumed across all
    /// trees (CPU time, not elapsed time — trees overlap under
    /// parallelism). Diagnostic for the bench harness.
    pub dp_nanos_total: u64,
    /// Summed wall-clock nanoseconds Theorem-5 repair consumed across all
    /// trees. Diagnostic, like [`HgpReport::dp_nanos_total`].
    pub repair_nanos_total: u64,
    /// Entries dropped by dominance pruning across all trees.
    pub dp_pruned_total: usize,
    /// Structured profile of this solve, populated when
    /// [`SolverOptions::trace`] was set; `None` otherwise. Observational
    /// only — never part of the solution or its fingerprint.
    pub trace: Option<SolveTrace>,
}

/// Solves HGP on an arbitrary (connected) communication graph.
pub(crate) fn solve_impl(
    inst: &Instance,
    h: &Hierarchy,
    opts: &SolverOptions,
) -> Result<HgpReport, SolveError> {
    inst.check_feasible(h).map_err(SolveError::Infeasible)?;
    // one sink spans both stages, so decomposition spans and sweep spans
    // land in the same ring
    let sink = opts.trace.then(|| TraceSink::new(SPAN_CAPACITY));
    let t_dist = std::time::Instant::now();
    let dist = build_distribution_impl(inst, opts, sink.as_ref())?;
    let dist_nanos = t_dist.elapsed().as_nanos() as u64;
    let mut rep = solve_on_distribution_sink(inst, h, &dist, opts, sink.as_ref())?;
    if let Some(tr) = rep.trace.as_mut() {
        // prepend so the disjoint wall stages read in pipeline order
        tr.stages.insert(
            0,
            StageNanos {
                name: "distribution",
                nanos: dist_nanos,
            },
        );
    }
    Ok(rep)
}

/// Builds the Räcke tree distribution for an instance — the expensive,
/// *hierarchy-independent* half of [`solve_impl`].
///
/// The distribution depends only on the communication topology and the
/// construction knobs in `opts` (`num_trees`, `decomp`, `seed`) — not on
/// the machine it will later be solved against — so callers serving many
/// requests (e.g. `hgp-server`) cache the result keyed by
/// [`crate::fingerprint::distribution_fingerprint`] and feed it back
/// through [`solve_on_distribution_impl`], skipping the embedding entirely
/// on repeat topologies.
pub(crate) fn build_distribution_impl(
    inst: &Instance,
    opts: &SolverOptions,
    sink: Option<&TraceSink>,
) -> Result<Distribution, SolveError> {
    if !hgp_graph::traversal::is_connected(inst.graph()) {
        return Err(SolveError::Disconnected);
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    Ok(racke_distribution_par(
        inst.graph(),
        inst.demands(),
        opts.num_trees,
        &opts.decomp,
        opts.parallelism,
        &mut rng,
        sink,
    ))
}

/// Solves HGP given a pre-built distribution (lets experiments reuse
/// distributions across hierarchies and ablations).
pub(crate) fn solve_on_distribution_impl(
    inst: &Instance,
    h: &Hierarchy,
    dist: &Distribution,
    opts: &SolverOptions,
) -> Result<HgpReport, SolveError> {
    let sink = opts.trace.then(|| TraceSink::new(SPAN_CAPACITY));
    solve_on_distribution_sink(inst, h, dist, opts, sink.as_ref())
}

/// The per-tree DP sweep. When `sink` is attached (caller asked for
/// tracing) the report gains a [`SolveTrace`] with the `sweep` wall
/// stage, DP/repair CPU totals, table/prune counts, and the sink's spans.
fn solve_on_distribution_sink(
    inst: &Instance,
    h: &Hierarchy,
    dist: &Distribution,
    opts: &SolverOptions,
    sink: Option<&TraceSink>,
) -> Result<HgpReport, SolveError> {
    inst.check_feasible(h).map_err(SolveError::Infeasible)?;
    let p = dist.trees.len();
    type TreeOutcome = Result<TreeSolveReport, SolveError>;

    let t_sweep = std::time::Instant::now();
    // A per-tree panic is caught at the worker boundary and recorded as
    // `HgpError::Internal`, so one poisoned tree cannot take down the
    // whole distribution (or, transitively, a service worker thread).
    let results: Vec<TreeOutcome> = par_map_indexed(opts.parallelism, p, |i| {
        let dt = &dist.trees[i];
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_rooted_traced(
                &dt.tree,
                &dt.task_of_leaf,
                inst,
                h,
                opts.rounding,
                sink,
                i as u64,
            )
        }))
        .unwrap_or_else(|payload| Err(SolveError::from_panic(payload)))
    });
    let sweep_nanos = t_sweep.elapsed().as_nanos() as u64;

    let per_tree_costs: Vec<Option<f64>> = results
        .iter()
        .map(|r| r.as_ref().ok().map(|r| r.cost))
        .collect();
    let best = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().map(|rep| (i, rep)))
        // total_cmp instead of partial_cmp().unwrap(): a NaN cost (which
        // would previously panic the reduction) now just sorts last
        .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost).then(a.0.cmp(&b.0)));
    let (best_tree, best) = match best {
        Some(found) => found,
        None => {
            // every tree failed: surface an input-class error when one
            // exists (it explains *why*, e.g. lane overflow on every
            // tree), otherwise the first non-trivial failure
            let errs = || results.iter().filter_map(|r| r.as_ref().err());
            let chosen = errs()
                .find(|e| e.is_input_error())
                .or_else(|| errs().find(|e| !matches!(e, SolveError::CapacityInfeasible)))
                .cloned()
                .unwrap_or(SolveError::CapacityInfeasible);
            return Err(chosen);
        }
    };
    let ok_reports = || results.iter().filter_map(|r| r.as_ref().ok());
    let dp_entries_total = ok_reports().map(|r| r.dp_entries).sum();
    let dp_nanos_total: u64 = ok_reports().map(|r| r.dp_nanos).sum();
    let repair_nanos_total: u64 = ok_reports().map(|r| r.repair_nanos).sum();
    let dp_pruned_total: usize = ok_reports().map(|r| r.dp_pruned).sum();
    let trace = sink.map(|s| {
        let mut tr = SolveTrace::new();
        tr.stage("sweep", sweep_nanos);
        tr.cpu("dp-cpu", dp_nanos_total);
        tr.cpu("repair-cpu", repair_nanos_total);
        tr.count("trees-total", p as u64);
        tr.count("trees-solved", ok_reports().count() as u64);
        tr.count("dp-entries", dp_entries_total as u64);
        tr.count("dp-pruned", dp_pruned_total as u64);
        tr.absorb_sink(s);
        tr
    });
    Ok(HgpReport {
        assignment: best.assignment.clone(),
        cost: best.cost,
        violation: best.violation.clone(),
        best_tree,
        per_tree_costs,
        certificate: best.certificate,
        dp_entries_total,
        dp_nanos_total,
        repair_nanos_total,
        dp_pruned_total,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solve;
    use hgp_graph::generators;
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solves_a_small_clustered_graph() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::planted_clusters(&mut rng, 2, 4, 0.9, 4.0, 0.05, 0.5);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let rep = Solve::new(&inst, &h).run().unwrap();
        // planted blocks should stay socket-local: every intra-block edge
        // at multiplier <= 1
        let worst = rep.violation.worst_factor();
        assert!(worst <= (1.0 + 2.0) * 1.2, "violation {worst}");
        assert!(rep.per_tree_costs.iter().flatten().count() >= 1);
        assert!(
            rep.cost
                <= rep
                    .per_tree_costs
                    .iter()
                    .flatten()
                    .fold(f64::INFINITY, |a, &b| a.min(b))
                    + 1e-9
        );
    }

    #[test]
    fn cost_never_exceeds_certificate_on_normalized_cm() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::gnp_connected(&mut rng, 18, 0.25, 0.5, 2.0);
        let inst = Instance::uniform(g, 0.3);
        let h = presets::multicore(2, 3, 5.0, 1.0);
        let rep = Solve::new(&inst, &h).run().unwrap();
        assert!(
            rep.cost <= rep.certificate + 1e-9,
            "Proposition 1 violated: mapped cost {} > certificate {}",
            rep.cost,
            rep.certificate
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnp_connected(&mut rng, 16, 0.3, 0.5, 2.0);
        let inst = Instance::uniform(g, 0.2);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let o1 = SolverOptions {
            parallelism: Parallelism::serial(),
            ..Default::default()
        };
        let o4 = SolverOptions {
            parallelism: Parallelism::Fixed(4),
            ..Default::default()
        };
        let r1 = Solve::new(&inst, &h).options(o1).run().unwrap();
        let r4 = Solve::new(&inst, &h).options(o4).run().unwrap();
        assert_eq!(r1.best_tree, r4.best_tree);
        assert!((r1.cost - r4.cost).abs() < 1e-12);
        assert_eq!(r1.assignment, r4.assignment);
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::flat(4);
        assert_eq!(
            Solve::new(&inst, &h).run().unwrap_err(),
            SolveError::Disconnected
        );
    }

    #[test]
    fn flat_hierarchy_behaves_like_kbgp() {
        // dumbbell: flat 2-way partitioning should find the bridge
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 5.0),
                (1, 2, 5.0),
                (0, 2, 5.0),
                (3, 4, 5.0),
                (4, 5, 5.0),
                (3, 5, 5.0),
                (2, 3, 1.0),
            ],
        );
        let inst = Instance::kbgp(g, 2);
        let h = presets::bisection();
        let rep = Solve::new(&inst, &h).run().unwrap();
        assert!(
            (rep.cost - 1.0).abs() < 1e-9,
            "expected the bridge cut, got {}",
            rep.cost
        );
    }
}
