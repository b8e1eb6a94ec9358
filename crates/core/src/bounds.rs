//! Certified lower bounds on the HGP cost.
//!
//! Exact optima (branch-and-bound) stop scaling around a dozen tasks; these
//! bounds certify solution quality at any size. Both are elementary but
//! *sound*: every feasible assignment (even one using the full bicriteria
//! capacity slack `slack ≥ 1`) costs at least the bound.
//!
//! **Component-count bound.** At level `j`, a feasible assignment splits
//! the tasks into groups of demand at most `slack · CP(j)`, so at least
//! `m_j = ⌈D / (slack·CP(j))⌉` groups exist. Splitting a connected graph
//! into `m` non-empty groups costs at least `m·λ/2` in boundary weight
//! (every group's boundary is at least the global min cut `λ`, and each
//! cut edge has two sides), and by the Lemma-2 telescoping each level
//! contributes independently:
//! `cost ≥ Σ_j (cm(j-1) - cm(j)) · max(0, m_j · λ / 2 ... )` — we use the
//! slightly tighter per-level form below.
//!
//! **Demand-pair bound** (levels with `CP(j)` < total demand): any single
//! group leaves at least `D - slack·CP(j)` demand outside it; if the graph
//! is an expander this forces cuts, but without expansion assumptions the
//! component-count bound is what is certifiable — so that is what we ship.

use crate::Instance;
use hgp_graph::mincut::stoer_wagner;
use hgp_graph::traversal::is_connected;
use hgp_hierarchy::Hierarchy;

/// A certified lower bound on the cost of any assignment whose per-level
/// loads stay within `slack ×` capacity (use `slack = (1+ε)(1+h)` to bound
/// against bicriteria solutions, `slack = 1.0` against strictly feasible
/// ones).
///
/// Returns 0 for graphs where the bound gives nothing (disconnected, or
/// everything fits one group at every level).
pub fn component_count_bound(inst: &Instance, h: &Hierarchy, slack: f64) -> f64 {
    assert!(slack >= 1.0);
    let g = inst.graph();
    if g.num_nodes() < 2 || !is_connected(g) {
        return 0.0;
    }
    let (lambda, _) = stoer_wagner(g);
    let total = inst.total_demand();
    let mut bound = 0.0;
    for j in 1..=h.height() {
        let cap = slack * h.capacity(j) as f64;
        let m = (total / cap).ceil();
        if m >= 2.0 {
            // m groups, each with boundary >= lambda, each cut edge shared
            // by exactly two group boundaries
            let delta = h.cost_multiplier(j - 1) - h.cost_multiplier(j);
            bound += delta * m * lambda / 2.0;
        }
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact, ExactOptions};
    use crate::Solve;
    use hgp_graph::{generators, Graph};
    use hgp_hierarchy::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bound_is_sound_against_exact_optimum() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..6 {
            let g = generators::gnp_connected(&mut rng, 8, 0.4, 0.5, 2.0);
            let inst = Instance::uniform(g, 0.9);
            let h = presets::multicore(2, 4, 4.0, 1.0);
            let lb = component_count_bound(&inst, &h, 1.0);
            let (_, opt) = solve_exact(&inst, &h, ExactOptions::default()).unwrap();
            assert!(
                lb <= opt + 1e-9,
                "lower bound {lb} exceeds the optimum {opt}"
            );
        }
    }

    #[test]
    fn bound_is_sound_against_bicriteria_solutions() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = generators::random_tree(&mut rng, 16, 0.5, 2.0);
        let inst = Instance::uniform(g, 0.45);
        let h = presets::multicore(2, 4, 4.0, 1.0);
        // default options round on the 8-units-per-leaf grid
        let rep = Solve::new(&inst, &h).run_tree().unwrap();
        let slack = rep.violation.worst_factor().max(1.0);
        let lb = component_count_bound(&inst, &h, slack);
        assert!(lb <= rep.cost + 1e-9, "bound {lb} vs achieved {}", rep.cost);
    }

    #[test]
    fn bound_is_positive_when_splitting_is_forced() {
        // 8 unit-demand tasks on a ring, 4 leaves: every level must split
        let edges: Vec<(u32, u32, f64)> = (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect();
        let g = Graph::from_edges(8, &edges);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::flat(8);
        let lb = component_count_bound(&inst, &h, 1.0);
        // lambda = 2 (two ring edges), m = 8 -> bound = 1 * 8 * 2/2 = 8
        assert!((lb - 8.0).abs() < 1e-9, "got {lb}");
    }

    #[test]
    fn bound_is_zero_when_everything_fits() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let inst = Instance::uniform(g, 0.2);
        let h = presets::flat(2);
        assert_eq!(component_count_bound(&inst, &h, 1.0), 0.0);
    }

    #[test]
    fn disconnected_graphs_bound_zero() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 1.0);
        let h = presets::flat(4);
        assert_eq!(component_count_bound(&inst, &h, 1.0), 0.0);
    }
}
