//! End-to-end HGPT: the Theorem 2 pipeline on trees.
//!
//! `solve_rooted` runs rounding → relaxed DP → laminar reconstruction →
//! Theorem-5 repair → leaf assignment on an arbitrary rooted tree whose
//! leaves carry tasks. [`crate::Solve::run_tree`] additionally performs the
//! §3 reduction for instances whose *communication graph is itself a tree*
//! (every node is a job): each node gets a dummy leaf attached with an
//! infinite-weight (uncuttable) edge, making "partition the leaves"
//! equivalent to "partition all nodes".

use crate::laminar::build_level_sets;
use crate::relaxed::solve_relaxed;
use crate::repair::{repair_assignment, RepairStats};
use crate::{Assignment, Instance, Rounding, ViolationReport};
use hgp_graph::traversal;
use hgp_graph::tree::RootedTree;
use hgp_graph::NodeId;
use hgp_hierarchy::Hierarchy;
use hgp_obs::{SolveTrace, TraceSink, NO_PARENT};

/// Failure modes of the tree pipeline — an alias of the crate-wide
/// [`HgpError`](crate::HgpError) taxonomy, kept for source compatibility
/// (the variants the tree pipeline produces are unchanged).
pub type SolveError = crate::HgpError;

/// Full output of the tree pipeline.
#[derive(Clone, Debug)]
pub struct TreeSolveReport {
    /// The task-to-leaf assignment.
    pub assignment: Assignment,
    /// Equation-1 cost of `assignment` under the original multipliers.
    pub cost: f64,
    /// The DP's certificate cost (normalised multipliers). On tree
    /// instances this equals `cost - cm(h)·Σw`; in general it upper-bounds
    /// the normalised cost (Corollary 2).
    pub certificate: f64,
    /// Capacity diagnostics; `worst_factor()` is bounded by
    /// `(1+ε)(1+h)` (Theorem 2).
    pub violation: ViolationReport,
    /// DP table entries (running-time diagnostic).
    pub dp_entries: usize,
    /// Theorem-5 packing statistics.
    pub repair: RepairStats,
    /// Number of sets per level in the relaxed laminar family.
    pub level_set_counts: Vec<usize>,
    /// Wall-clock nanoseconds spent in the signature DP (rounding setup,
    /// [`solve_relaxed`], laminar reconstruction). Diagnostic only —
    /// feeds the server's `trace.dp-cpu-us` and the solve's DP-CPU total;
    /// never part of the solution.
    pub dp_nanos: u64,
    /// Wall-clock nanoseconds spent in Theorem-5 repair
    /// ([`repair_assignment`]). Diagnostic only, like
    /// [`TreeSolveReport::dp_nanos`].
    pub repair_nanos: u64,
    /// Entries dropped by dominance pruning.
    pub dp_pruned: usize,
    /// Structured profile of this solve, populated when the caller asked
    /// for tracing (`SolverOptions::trace` via the [`crate::Solve`]
    /// façade); `None` otherwise. Observational only — never part of the
    /// solution or its fingerprint.
    pub trace: Option<SolveTrace>,
}

/// Solves HGPT on a rooted tree. `task_of_leaf[v]` gives the task hosted by
/// tree leaf `v` (`u32::MAX` on internal nodes); every leaf must carry a
/// task and every task must appear exactly once.
pub fn solve_rooted(
    tree: &RootedTree,
    task_of_leaf: &[u32],
    inst: &Instance,
    h: &Hierarchy,
    rounding: Rounding,
) -> Result<TreeSolveReport, SolveError> {
    solve_rooted_traced(tree, task_of_leaf, inst, h, rounding, None, 0)
}

/// [`solve_rooted`] plus span capture: with a sink attached, the DP
/// phase records a `tree.dp` span and repair a `tree.repair` span, both
/// carrying `tree_idx` as their argument (the sweep over a distribution
/// tags each tree's spans with its index). Tracing never changes the
/// result.
pub(crate) fn solve_rooted_traced(
    tree: &RootedTree,
    task_of_leaf: &[u32],
    inst: &Instance,
    h: &Hierarchy,
    rounding: Rounding,
    sink: Option<&TraceSink>,
    tree_idx: u64,
) -> Result<TreeSolveReport, SolveError> {
    inst.check_feasible(h).map_err(SolveError::Infeasible)?;
    let n = tree.num_nodes();
    assert_eq!(task_of_leaf.len(), n);

    // rounded units and true demands on tree leaves
    let mut leaf_units = vec![0u32; n];
    let mut leaf_demand = vec![0.0f64; n];
    let mut seen = vec![false; inst.num_tasks()];
    for v in 0..n {
        if tree.is_leaf(v) {
            let t = task_of_leaf[v];
            assert!(t != u32::MAX, "leaf {v} carries no task");
            assert!(!seen[t as usize], "task {t} appears on two leaves");
            seen[t as usize] = true;
            leaf_units[v] = rounding.round(inst.demand(t as usize));
            leaf_demand[v] = inst.demand(t as usize);
        }
    }
    assert!(seen.iter().all(|&s| s), "every task must sit on a leaf");

    let dp_span = sink.map(|s| s.span_with("tree.dp", NO_PARENT, tree_idx));
    let t_dp = std::time::Instant::now();
    let caps = rounding.level_caps(h)?;
    let deltas: Vec<f64> = (0..h.height())
        .map(|k| h.cost_multiplier(k) - h.cost_multiplier(k + 1))
        .collect();

    let relaxed = solve_relaxed(tree, &leaf_units, &caps, &deltas)?;
    let level_sets = build_level_sets(tree, &relaxed.cut_level, h.height());
    debug_assert!(level_sets.check_laminar(tree.leaves().len()).is_ok());
    let dp_nanos = t_dp.elapsed().as_nanos() as u64;
    drop(dp_span);
    let repair_span = sink.map(|s| s.span_with("tree.repair", NO_PARENT, tree_idx));
    let t_repair = std::time::Instant::now();
    let (leaf_of_tree, repair) = repair_assignment(&level_sets, &leaf_demand, h);
    let repair_nanos = t_repair.elapsed().as_nanos() as u64;
    drop(repair_span);

    let mut task_leaf = vec![u32::MAX; inst.num_tasks()];
    for v in 0..n {
        if tree.is_leaf(v) {
            task_leaf[task_of_leaf[v] as usize] = leaf_of_tree[v];
        }
    }
    let assignment = Assignment::new(task_leaf, h);
    let cost = assignment.cost(inst, h);
    let violation = assignment.violation_report(inst, h);
    let level_set_counts = (1..=h.height())
        .map(|j| level_sets.count_at_level(j))
        .collect();
    Ok(TreeSolveReport {
        assignment,
        cost,
        certificate: relaxed.cost,
        violation,
        dp_entries: relaxed.table_entries,
        repair,
        level_set_counts,
        dp_nanos,
        repair_nanos,
        dp_pruned: relaxed.pruned_entries,
        trace: None,
    })
}

/// Builds the rooted, dummy-leaf-augmented tree for a tree-shaped
/// communication graph: original nodes become internal, each holding its
/// task on a pendant leaf with an uncuttable edge. Returns
/// `(tree, task_of_leaf)` in the convention of [`solve_rooted`].
pub fn rooted_with_dummies(inst: &Instance) -> Result<(RootedTree, Vec<u32>), SolveError> {
    let g = inst.graph();
    let n = g.num_nodes();
    if !traversal::is_connected(g) {
        return Err(SolveError::Disconnected);
    }
    if g.num_edges() != n.saturating_sub(1) {
        return Err(SolveError::NotATree);
    }
    // orient via BFS from node 0
    let order = traversal::bfs_order(g, NodeId(0));
    let mut parent = vec![0u32; 2 * n];
    let mut weight = vec![0.0f64; 2 * n];
    let mut placed = vec![false; n];
    placed[0] = true;
    for &v in &order {
        for (u, w, _) in g.neighbors(v) {
            if !placed[u.index()] {
                placed[u.index()] = true;
                parent[u.index()] = v.0;
                weight[u.index()] = w;
            }
        }
    }
    // dummy leaves n..2n: dummy of node v is n+v
    let mut task_of_leaf = vec![u32::MAX; 2 * n];
    for v in 0..n {
        parent[n + v] = v as u32;
        weight[n + v] = f64::INFINITY;
        task_of_leaf[n + v] = v as u32;
    }
    let tree = RootedTree::from_parents(0, parent, weight);
    Ok((tree, task_of_leaf))
}

/// HGPT for instances whose communication graph is a tree: the §3 reduction
/// plus [`solve_rooted`], behind [`crate::Solve::run_tree`]. On such
/// instances the DP certificate is *exact* (equal to the Equation-1 cost of
/// the produced assignment, up to the Lemma-1 normalisation shift), so the
/// result is optimal in cost among capacity-respecting assignments
/// (Theorem 2).
pub(crate) fn solve_tree_shaped_impl(
    inst: &Instance,
    h: &Hierarchy,
    rounding: Rounding,
    trace: bool,
) -> Result<TreeSolveReport, SolveError> {
    let (tree, task_of_leaf) = rooted_with_dummies(inst)?;
    if !trace {
        return solve_rooted(&tree, &task_of_leaf, inst, h, rounding);
    }
    let sink = TraceSink::new(crate::solver::SPAN_CAPACITY);
    let mut rep = solve_rooted_traced(&tree, &task_of_leaf, inst, h, rounding, Some(&sink), 0)?;
    let mut tr = SolveTrace::new();
    tr.stage("dp", rep.dp_nanos);
    tr.stage("repair", rep.repair_nanos);
    tr.count("dp-entries", rep.dp_entries as u64);
    tr.count("dp-pruned", rep.dp_pruned as u64);
    tr.absorb_sink(&sink);
    rep.trace = Some(tr);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverOptions;
    use crate::Solve;
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;

    fn solve_tree(
        inst: &Instance,
        h: &Hierarchy,
        rounding: Rounding,
    ) -> Result<TreeSolveReport, SolveError> {
        let opts = SolverOptions::builder().rounding(rounding).build();
        Solve::new(inst, h).options(opts).run_tree()
    }

    #[test]
    fn path_on_two_sockets_cuts_once() {
        // path 0-1-2-3 (unit weights), 2 sockets x 2 cores, remote 4 shared 1
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let r = Rounding::with_units(4);
        let rep = solve_tree(&inst, &h, r).unwrap();
        // optimal: {0,1} on one socket, {2,3} on the other, each task its own
        // core: cost = 1*4 (middle edge remote) + 1 + 1 (intra-socket) = 6
        assert!((rep.cost - 6.0).abs() < 1e-9, "cost {}", rep.cost);
        assert!(rep.violation.worst_factor() <= 1.0 + 1e-9);
        // certificate equals Eq-1 cost (cm already normalised)
        assert!((rep.certificate - rep.cost).abs() < 1e-9);
    }

    #[test]
    fn heavy_pair_shares_a_core_when_demands_allow() {
        // two tasks with a heavy edge and small demands should share a leaf
        let g = Graph::from_edges(2, &[(0, 1, 10.0)]);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let rep = solve_tree(&inst, &h, Rounding::with_units(4)).unwrap();
        assert!(rep.cost.abs() < 1e-9);
        assert_eq!(rep.assignment.leaf(0), rep.assignment.leaf(1));
    }

    #[test]
    fn star_splits_cheapest_spokes() {
        // star: hub 0 with spokes of weights 5, 1, 1, 1; all demand 1;
        // flat 2-way (cap 3+... k=5 leaves? use flat(5): every task its own
        // leaf: all edges cut at level 0: cost = sum)
        let g = Graph::from_edges(5, &[(0, 1, 5.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::flat(5);
        let rep = solve_tree(&inst, &h, Rounding::with_units(2)).unwrap();
        assert!((rep.cost - 8.0).abs() < 1e-9);
        // with capacity 2 per part on 3 parts: keep the 5-edge together
        let h3 = hgp_hierarchy::Hierarchy::new(vec![3], vec![1.0, 0.0]);
        let inst2 = Instance::uniform(inst.graph().clone(), 0.5);
        let rep2 = solve_tree(&inst2, &h3, Rounding::with_units(4)).unwrap();
        // {0,1} together, {2,3} together, {4}: cut cost 1+1+1 = 3
        assert!((rep2.cost - 3.0).abs() < 1e-9, "cost {}", rep2.cost);
        let a = &rep2.assignment;
        assert_eq!(a.leaf(0), a.leaf(1));
    }

    #[test]
    fn rejects_non_trees() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::flat(3);
        assert_eq!(
            solve_tree(&inst, &h, Rounding::with_units(2)).unwrap_err(),
            SolveError::NotATree
        );
        let g2 = Graph::from_edges(3, &[(0, 1, 1.0)]);
        let inst2 = Instance::uniform(g2, 1.0);
        assert_eq!(
            solve_tree(&inst2, &h, Rounding::with_units(2)).unwrap_err(),
            SolveError::Disconnected
        );
    }

    #[test]
    fn four_level_hierarchy_runs() {
        // h = 4 (MAX_HEIGHT): 2x2x2x2 machine, 16 leaves
        let edges: Vec<(u32, u32, f64)> =
            (0..15).map(|i| (i, i + 1, 1.0 + (i % 3) as f64)).collect();
        let g = Graph::from_edges(16, &edges);
        let inst = Instance::uniform(g, 0.9);
        let h = hgp_hierarchy::Hierarchy::new(vec![2, 2, 2, 2], vec![16.0, 8.0, 4.0, 1.0, 0.0]);
        let rep = solve_tree(&inst, &h, Rounding::with_units(2)).unwrap();
        assert!(rep.cost > 0.0);
        assert_eq!(rep.level_set_counts.len(), 4);
        assert!(rep.violation.worst_factor() <= (1.0 + 4.0) * 1.5 + 1e-9);
        // certificate stays an upper bound
        assert!(rep.cost <= rep.certificate + 1e-9);
    }

    #[test]
    fn reports_total_demand_infeasible() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::flat(1);
        assert!(matches!(
            solve_tree(&inst, &h, Rounding::with_units(2)).unwrap_err(),
            SolveError::Infeasible(_)
        ));
    }

    #[test]
    fn three_level_hierarchy_runs() {
        // path of 8 tasks on a 2x2x2 machine
        let edges: Vec<(u32, u32, f64)> =
            (0..7).map(|i| (i, i + 1, 1.0 + i as f64 * 0.1)).collect();
        let g = Graph::from_edges(8, &edges);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::hyperthreaded(2, 2, 2, 8.0, 2.0, 1.0);
        let rep = solve_tree(&inst, &h, Rounding::with_units(2)).unwrap();
        assert!(rep.cost > 0.0);
        assert!(rep.violation.worst_factor() <= (1.0 + 3.0) * 1.5 + 1e-9);
        assert_eq!(rep.level_set_counts.len(), 3);
    }
}
