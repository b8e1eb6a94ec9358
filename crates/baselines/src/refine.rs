//! Architecture-aware local refinement (Moulitsas–Karypis style).
//!
//! Improves an existing assignment with respect to the *true* hierarchical
//! objective (Equation 1) using two move types:
//!
//! * single-task relocation to any leaf with room,
//! * pairwise swaps of tasks on different leaves (needed when leaves are
//!   saturated and no single move is feasible).
//!
//! Each pass applies strictly-improving moves; refinement stops when a full
//! pass finds none (or after `max_passes`). Capacity is respected up to a
//! caller-chosen factor so the refiner can polish bicriteria solutions
//! without repairing their violations away.
//!
//! The swap scan is quadratic in the task count, so its marginals are
//! memoised (`SwapMemo`): a pair of tasks that share no edge costs one
//! fresh marginal instead of four, and every value used is bit-identical
//! to the one the plain scan would compute.

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
use hgp_core::{Assignment, Instance};
use hgp_graph::NodeId;
use hgp_hierarchy::Hierarchy;

/// Options for [`refine`].
#[derive(Clone, Copy, Debug)]
pub struct RefineOpts {
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Leaf loads may stay/grow up to this multiple of capacity (1.0 =
    /// strictly feasible moves only).
    pub capacity_factor: f64,
    /// Also try pairwise swaps (quadratic per pass, but escapes saturated
    /// configurations).
    pub swaps: bool,
}

impl Default for RefineOpts {
    fn default() -> Self {
        Self {
            max_passes: 8,
            capacity_factor: 1.0,
            swaps: true,
        }
    }
}

/// Most tasks for which [`RefineOpts::for_tasks`] turns pair swaps on.
/// The swap scan is quadratic in the task count: seconds per pass at
/// 8 100 tasks, minutes at 65 536.
pub const SWAP_MAX_TASKS: usize = 4_096;

impl RefineOpts {
    /// The default settings for an `n`-task instance: pair swaps only up
    /// to [`SWAP_MAX_TASKS`] tasks, single-task moves at any size.
    pub fn for_tasks(n: usize) -> Self {
        Self {
            swaps: n <= SWAP_MAX_TASKS,
            ..Self::default()
        }
    }
}

/// Marginal Equation-1 cost of `task` if placed on `leaf`, against the
/// current placement of its neighbours (the `skip` task is ignored, for
/// swap evaluation).
fn marginal(
    inst: &Instance,
    h: &Hierarchy,
    leaf_of: &[u32],
    task: usize,
    leaf: usize,
    skip: usize,
) -> f64 {
    let mut c = 0.0;
    for (u, w, _) in inst.graph().neighbors(NodeId(task as u32)) {
        if u.index() == skip {
            continue;
        }
        c += w * h.edge_multiplier(leaf, leaf_of[u.index()] as usize);
    }
    c
}

/// Memoised marginals for one swap scan, in O(n + k) memory.
///
/// For tasks `a`, `b` that share no edge, `marginal(a, l, skip = b)` adds
/// exactly the terms of `marginal(a, l, skip = none)` in the same order,
/// so a remembered unskipped value is bit-identical to what the scan
/// would compute afresh. Two memos serve a pair (a, b):
///
/// * `cur[x] = marginal(x, leaf_of[x])` per task, stale once `x` or a
///   neighbour of `x` moves (the terms read the leaves of `x`'s
///   neighbours and, through the target, `x`'s own);
/// * `row[l] = marginal(a, l)` over leaves for the scan's outer task `a`,
///   stale once a neighbour of `a` moves; a new outer task starts a new
///   row.
///
/// Adjacent pairs skip their shared edge and are scored directly.
struct SwapMemo {
    cur: Vec<f64>,
    cur_fresh: Vec<bool>,
    row: Vec<f64>,
    /// `row[l]` is current iff `row_tag[l] == tag`.
    row_tag: Vec<u64>,
    tag: u64,
    /// `nbr_of[u] == a` iff `u` is a neighbour of the outer task `a`.
    nbr_of: Vec<usize>,
}

impl SwapMemo {
    fn new(n: usize, k: usize) -> Self {
        Self {
            cur: vec![0.0; n],
            cur_fresh: vec![false; n],
            row: vec![0.0; k],
            row_tag: vec![0; k],
            tag: 0,
            nbr_of: vec![usize::MAX; n],
        }
    }

    /// Forgets every `cur` value (the single-move phase moved tasks).
    fn reset(&mut self) {
        self.cur_fresh.iter_mut().for_each(|f| *f = false);
    }

    /// Starts the row of outer task `a`.
    fn begin(&mut self, inst: &Instance, a: usize) {
        self.tag += 1;
        for (u, _, _) in inst.graph().neighbors(NodeId(a as u32)) {
            self.nbr_of[u.index()] = a;
        }
    }

    fn adjacent(&self, a: usize, b: usize) -> bool {
        self.nbr_of[b] == a
    }

    /// `marginal(x, leaf_of[x])`.
    fn cur(&mut self, inst: &Instance, h: &Hierarchy, leaf_of: &[u32], x: usize) -> f64 {
        if !self.cur_fresh[x] {
            self.cur[x] = marginal(inst, h, leaf_of, x, leaf_of[x] as usize, usize::MAX);
            self.cur_fresh[x] = true;
        }
        self.cur[x]
    }

    /// `marginal(a, leaf)` for the outer task `a`.
    fn row(
        &mut self,
        inst: &Instance,
        h: &Hierarchy,
        leaf_of: &[u32],
        a: usize,
        leaf: usize,
    ) -> f64 {
        if self.row_tag[leaf] != self.tag {
            self.row[leaf] = marginal(inst, h, leaf_of, a, leaf, usize::MAX);
            self.row_tag[leaf] = self.tag;
        }
        self.row[leaf]
    }

    /// Task `x` changed leaf while `a` is the outer task.
    fn moved(&mut self, inst: &Instance, a: usize, x: usize) {
        self.cur_fresh[x] = false;
        for (u, _, _) in inst.graph().neighbors(NodeId(x as u32)) {
            self.cur_fresh[u.index()] = false;
            if u.index() == a {
                self.tag += 1;
            }
        }
    }
}

/// Refines `assignment` in place; returns the total cost improvement.
pub fn refine(
    assignment: &mut Assignment,
    inst: &Instance,
    h: &Hierarchy,
    opts: &RefineOpts,
) -> f64 {
    let n = inst.num_tasks();
    let k = h.num_leaves();
    let mut leaf_of: Vec<u32> = assignment.leaves().to_vec();
    let mut load = vec![0.0f64; k];
    for t in 0..n {
        load[leaf_of[t] as usize] += inst.demand(t);
    }
    let cap = opts.capacity_factor;
    let mut total_gain = 0.0;
    let mut memo = opts.swaps.then(|| SwapMemo::new(n, k));

    for _ in 0..opts.max_passes {
        let mut improved = false;
        // single moves
        for t in 0..n {
            let from = leaf_of[t] as usize;
            let d = inst.demand(t);
            let cur = marginal(inst, h, &leaf_of, t, from, usize::MAX);
            let mut best_leaf = from;
            let mut best_cost = cur;
            for leaf in 0..k {
                if leaf == from || load[leaf] + d > cap + 1e-9 {
                    continue;
                }
                let c = marginal(inst, h, &leaf_of, t, leaf, usize::MAX);
                if c < best_cost - 1e-12 {
                    best_cost = c;
                    best_leaf = leaf;
                }
            }
            if best_leaf != from {
                load[from] -= d;
                load[best_leaf] += d;
                leaf_of[t] = best_leaf as u32;
                total_gain += cur - best_cost;
                improved = true;
            }
        }
        // pairwise swaps
        if let Some(memo) = memo.as_mut() {
            memo.reset();
            for a in 0..n {
                memo.begin(inst, a);
                for b in (a + 1)..n {
                    let (la, lb) = (leaf_of[a] as usize, leaf_of[b] as usize);
                    if la == lb {
                        continue;
                    }
                    let (da, db) = (inst.demand(a), inst.demand(b));
                    if load[la] - da + db > cap + 1e-9 || load[lb] - db + da > cap + 1e-9 {
                        continue;
                    }
                    let (old, new) = if memo.adjacent(a, b) {
                        // the (a,b) edge multiplier is unchanged by a swap,
                        // so skipping both directions keeps the delta exact
                        (
                            marginal(inst, h, &leaf_of, a, la, b)
                                + marginal(inst, h, &leaf_of, b, lb, a),
                            marginal(inst, h, &leaf_of, a, lb, b)
                                + marginal(inst, h, &leaf_of, b, la, a),
                        )
                    } else {
                        (
                            memo.cur(inst, h, &leaf_of, a) + memo.cur(inst, h, &leaf_of, b),
                            memo.row(inst, h, &leaf_of, a, lb)
                                + marginal(inst, h, &leaf_of, b, la, usize::MAX),
                        )
                    };
                    if new < old - 1e-12 {
                        load[la] += db - da;
                        load[lb] += da - db;
                        leaf_of.swap(a, b);
                        memo.moved(inst, a, a);
                        memo.moved(inst, a, b);
                        total_gain += old - new;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    *assignment = Assignment::new(leaf_of, h);
    total_gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::{generators, Graph};
    use hgp_hierarchy::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixes_an_obviously_bad_placement() {
        // path 0-1-2-3 placed interleaved across sockets
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let mut a = Assignment::new(vec![0, 2, 1, 3], &h);
        let before = a.cost(&inst, &h);
        let gain = refine(&mut a, &inst, &h, &RefineOpts::default());
        let after = a.cost(&inst, &h);
        assert!((before - after - gain).abs() < 1e-9, "gain accounting");
        assert!(
            (after - 6.0).abs() < 1e-9,
            "should reach the optimum 6, got {after}"
        );
    }

    #[test]
    fn swap_needed_when_leaves_are_full() {
        // unit demands fill every leaf: only swaps can improve
        let g = Graph::from_edges(4, &[(0, 1, 10.0), (2, 3, 10.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        // 0 and 1 on different sockets, 2 and 3 on different sockets
        let mut a = Assignment::new(vec![0, 2, 1, 3], &h);
        let no_swaps = RefineOpts {
            swaps: false,
            ..Default::default()
        };
        let mut a2 = a.clone();
        let g0 = refine(&mut a2, &inst, &h, &no_swaps);
        assert_eq!(g0, 0.0, "single moves cannot improve a saturated layout");
        let gain = refine(&mut a, &inst, &h, &RefineOpts::default());
        assert!(gain > 0.0);
        assert_eq!(a.leaf(0) / 2, a.leaf(1) / 2, "pair should share a socket");
    }

    #[test]
    fn respects_capacity_factor() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(&mut rng, 12, 0.3, 1.0, 2.0);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::flat(8);
        let mut a = crate::mapping::random_placement(&inst, &h, &mut rng);
        refine(&mut a, &inst, &h, &RefineOpts::default());
        assert!(a.is_feasible(&inst, &h, 1.0));
    }

    #[test]
    fn never_increases_cost() {
        let mut rng = StdRng::seed_from_u64(6);
        for seed in 0..5 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = generators::barabasi_albert(&mut r, 20, 2, 0.5, 3.0);
            let inst = Instance::uniform(g, 0.4);
            let h = presets::multicore(2, 4, 6.0, 1.0);
            let mut a = crate::mapping::random_placement(&inst, &h, &mut rng);
            let before = a.cost(&inst, &h);
            refine(&mut a, &inst, &h, &RefineOpts::default());
            let after = a.cost(&inst, &h);
            assert!(after <= before + 1e-9);
        }
    }
}
