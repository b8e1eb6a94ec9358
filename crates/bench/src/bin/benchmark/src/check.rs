//! Output checks applied to every operation of every run. A failed check
//! names the operation; the run then reports `correct: false` and exits
//! non-zero.

use hgp_core::{Assignment, Instance};
use hgp_hierarchy::Hierarchy;

/// The reported cost must equal a fresh Equation-1 evaluation of the
/// reported placement, bit for bit.
pub fn cost_is_eq1(
    op: &str,
    reported: f64,
    leaves: &[u32],
    inst: &Instance,
    h: &Hierarchy,
) -> Result<(), String> {
    let fresh = Assignment::new(leaves.to_vec(), h).cost(inst, h);
    if reported.to_bits() == fresh.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{op}: reported cost {reported} but Equation 1 gives {fresh}"
        ))
    }
}

/// The paper's capacity guarantee: every level within `(1+ε)(1+h)` of
/// its capacity, with `ε = 1/units` (Theorems 2 and 5).
pub fn within_bicriteria(op: &str, worst: f64, units: u32, height: usize) -> Result<(), String> {
    let limit = (1.0 + 1.0 / f64::from(units)) * (1.0 + height as f64);
    within(op, worst, limit)
}

/// `worst <= limit`, up to rounding.
pub fn within(op: &str, worst: f64, limit: f64) -> Result<(), String> {
    if worst <= limit + 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "{op}: capacity violation {worst} exceeds the limit {limit}"
        ))
    }
}

/// Two values that should agree up to accumulated rounding.
pub fn close(op: &str, what: &str, a: f64, b: f64) -> Result<(), String> {
    if (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0) {
        Ok(())
    } else {
        Err(format!("{op}: {what} {a} but a recompute gives {b}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_core::Solve;
    use hgp_graph::Graph;
    use hgp_hierarchy::presets;

    #[test]
    fn a_corrupted_cost_is_caught() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]);
        let inst = Instance::uniform(g, 0.5);
        let h = presets::multicore(2, 2, 4.0, 1.0);
        let rep = Solve::new(&inst, &h).run().unwrap();
        let leaves = rep.assignment.leaves();
        cost_is_eq1("op 0", rep.cost, leaves, &inst, &h).unwrap();
        let corrupted = f64::from_bits(rep.cost.to_bits() + 1);
        let err = cost_is_eq1("op 7", corrupted, leaves, &inst, &h).unwrap_err();
        assert!(err.starts_with("op 7:"), "{err}");
        assert!(within_bicriteria("op 1", 3.0, 8, 2).is_ok());
        assert!(within_bicriteria("op 1", 3.5, 8, 2).is_err());
        assert!(close("op 2", "cost", 1.0, 1.0 + 1e-12).is_ok());
        assert!(close("op 2", "cost", 1.0, 1.001).is_err());
    }
}
