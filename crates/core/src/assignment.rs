//! Task-to-leaf assignments and their cost/violation diagnostics.

use crate::Instance;
use hgp_hierarchy::Hierarchy;

/// A solution to HGP: task `v` runs on leaf `leaf_of[v]` of the hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    leaf_of: Vec<u32>,
}

/// Per-level capacity diagnostics for an assignment, produced by
/// [`Assignment::violation_report`].
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// `max_load[j]` = the maximum total demand placed under any Level-`j`
    /// node (index 0 = level 1 … index h-1 = level h, i.e. leaves).
    pub max_load: Vec<f64>,
    /// `factor[j]` = `max_load[j] / CP(j)`: ≤ 1 means the level is within
    /// capacity; the paper's bound guarantees ≤ (1+ε)(1+h) at every level.
    pub factor: Vec<f64>,
}

impl ViolationReport {
    /// The worst violation factor over all levels (1.0 = perfectly within
    /// capacity).
    pub fn worst_factor(&self) -> f64 {
        self.factor.iter().copied().fold(1.0, f64::max)
    }
}

impl Assignment {
    /// Wraps a leaf index per task.
    ///
    /// # Panics
    /// Panics if any leaf index is out of range for `h`.
    pub fn new(leaf_of: Vec<u32>, h: &Hierarchy) -> Self {
        assert!(
            leaf_of.iter().all(|&l| (l as usize) < h.num_leaves()),
            "leaf index out of range"
        );
        Self { leaf_of }
    }

    /// The leaf hosting task `v`.
    #[inline]
    pub fn leaf(&self, v: usize) -> usize {
        self.leaf_of[v] as usize
    }

    /// The raw leaf vector.
    #[inline]
    pub fn leaves(&self) -> &[u32] {
        &self.leaf_of
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.leaf_of.len()
    }

    /// Equation 1: total communication cost
    /// `Σ_(u,v)∈E cm(LCA(p(u), p(v))) · w(u,v)`.
    ///
    /// The fold starts from `+0.0`, so an edgeless instance costs `0`,
    /// not the `-0.0` that `Iterator::sum` starts from.
    pub fn cost(&self, inst: &Instance, h: &Hierarchy) -> f64 {
        assert_eq!(self.leaf_of.len(), inst.num_tasks());
        inst.graph()
            .edges()
            .map(|(_, u, v, w)| w * h.edge_multiplier(self.leaf(u.index()), self.leaf(v.index())))
            .fold(0.0, |acc, c| acc + c)
    }

    /// Per-leaf loads (total demand assigned to each leaf).
    pub fn leaf_loads(&self, inst: &Instance, h: &Hierarchy) -> Vec<f64> {
        let mut loads = vec![0.0; h.num_leaves()];
        for (v, &l) in self.leaf_of.iter().enumerate() {
            loads[l as usize] += inst.demand(v);
        }
        loads
    }

    /// Capacity diagnostics across every level of the hierarchy.
    pub fn violation_report(&self, inst: &Instance, h: &Hierarchy) -> ViolationReport {
        let leaf_loads = self.leaf_loads(inst, h);
        let height = h.height();
        let mut max_load = Vec::with_capacity(height);
        let mut factor = Vec::with_capacity(height);
        for j in 1..=height {
            let groups = h.nodes_at_level(j);
            let mut loads = vec![0.0f64; groups];
            for (leaf, &load) in leaf_loads.iter().enumerate() {
                loads[h.ancestor_at_level(leaf, j)] += load;
            }
            let m = loads.iter().copied().fold(0.0, f64::max);
            max_load.push(m);
            factor.push(m / h.capacity(j) as f64);
        }
        ViolationReport { max_load, factor }
    }

    /// True if no leaf (and hence no internal node) exceeds its capacity by
    /// more than `tolerance` (multiplicative).
    pub fn is_feasible(&self, inst: &Instance, h: &Hierarchy, tolerance: f64) -> bool {
        self.violation_report(inst, h).worst_factor() <= tolerance + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;

    fn setup() -> (Instance, Hierarchy) {
        // path of 4 tasks, 2 sockets x 2 cores, remote=4 shared=1
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        (
            Instance::uniform(g, 1.0),
            presets::multicore(2, 2, 4.0, 1.0),
        )
    }

    #[test]
    fn cost_eq1_examples() {
        let (inst, h) = setup();
        // contiguous placement: 0,1 on socket0, 2,3 on socket1
        let a = Assignment::new(vec![0, 1, 2, 3], &h);
        // edges: (0,1) same socket -> 1, (1,2) cross socket -> 4, (2,3) -> 1
        assert!((a.cost(&inst, &h) - 6.0).abs() < 1e-12);
        // interleaved placement: 0,2 socket0; 1,3 socket1 -> every edge remote
        let b = Assignment::new(vec![0, 2, 1, 3], &h);
        assert!((b.cost(&inst, &h) - 12.0).abs() < 1e-12);
        // all on one leaf: free, but infeasible
        let c = Assignment::new(vec![0, 0, 0, 0], &h);
        assert!((c.cost(&inst, &h) - 0.0).abs() < 1e-12);
        assert!(!c.is_feasible(&inst, &h, 1.0));
    }

    #[test]
    fn edgeless_cost_is_positive_zero() {
        let (_, h) = setup();
        let inst = Instance::uniform(Graph::from_edges(2, &[]), 0.5);
        let a = Assignment::new(vec![0, 3], &h);
        assert_eq!(a.cost(&inst, &h).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn violation_report_levels() {
        let (inst, h) = setup();
        let a = Assignment::new(vec![0, 0, 1, 2], &h);
        let rep = a.violation_report(&inst, &h);
        // level 1 (sockets): socket0 holds tasks 0,1,2 -> load 3 of cap 2
        assert!((rep.max_load[0] - 3.0).abs() < 1e-12);
        assert!((rep.factor[0] - 1.5).abs() < 1e-12);
        // level 2 (leaves): leaf 0 holds 2 of cap 1
        assert!((rep.max_load[1] - 2.0).abs() < 1e-12);
        assert!((rep.worst_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn feasible_assignment_reports_factor_one() {
        let (inst, h) = setup();
        let a = Assignment::new(vec![0, 1, 2, 3], &h);
        assert!(a.is_feasible(&inst, &h, 1.0));
        assert!((a.violation_report(&inst, &h).worst_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn rejects_bad_leaf() {
        let (_, h) = setup();
        Assignment::new(vec![0, 9], &h);
    }
}
