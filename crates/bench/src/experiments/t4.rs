//! T4 — running-time scaling of the DP (§3: `O(n · D^{3h+2})` worst case;
//! measured growth is far milder thanks to Pareto pruning and
//! subtree-bounded signatures), on one machine per height `h = 1..=4`.

use super::common;
use crate::table::{f2, Table};
use crate::timed;
use hgp_core::solver::SolverOptions;
use hgp_core::Solve;
use hgp_hierarchy::{presets, Hierarchy};

/// One machine per height: `(h, name, machine)`.
fn machines() -> [(usize, &'static str, Hierarchy); 4] {
    [
        (1, "flat(8)", presets::flat(8)),
        (2, "multicore(2,4)", presets::multicore(2, 4, 4.0, 1.0)),
        (
            3,
            "datacenter(2,2,4)",
            presets::datacenter(2, 2, 4, 12.0, 4.0, 1.0),
        ),
        (
            4,
            "2x2x2x2",
            Hierarchy::new(vec![2; 4], vec![27.0, 9.0, 3.0, 1.0, 0.0]),
        ),
    ]
}

/// A random `n`-node tree at 80 % load on `machine`, solved at `units` per
/// leaf → `(milliseconds, DP table entries)`.
pub(crate) fn measure(n: usize, units: u32, machine: &Hierarchy) -> (f64, usize) {
    let demand = (0.8 * machine.num_leaves() as f64 / n as f64).min(1.0);
    let inst = common::random_tree_instance(4000 + n as u64, n, demand);
    let req = Solve::new(&inst, machine).options(SolverOptions::builder().units(units).build());
    let (rep, ms) = timed(|| req.run_tree().unwrap());
    (ms, rep.dp_entries)
}

/// Runs T4 and renders the tables.
pub fn run() -> String {
    let mut out = String::from("## T4 — DP running time scaling\n\n");
    let header = || {
        Table::new(vec![
            "h",
            "machine",
            "n",
            "units/leaf",
            "time (ms)",
            "dp entries",
        ])
    };
    let row = |t: &mut Table, h: usize, name: &str, n: usize, units: u32, machine: &Hierarchy| {
        let (ms, entries) = measure(n, units, machine);
        t.row(vec![
            h.to_string(),
            name.into(),
            n.to_string(),
            units.to_string(),
            f2(ms),
            entries.to_string(),
        ]);
    };

    let mut t = header();
    for (h, name, machine) in &machines() {
        for n in [16usize, 32, 64, 128, 256] {
            row(&mut t, *h, name, n, 8, machine);
        }
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut t = header();
    for (h, name, machine) in machines().iter().skip(1) {
        let grids: &[u32] = if *h == 2 {
            &[2, 4, 8, 16, 32, 64]
        } else {
            &[2, 4, 8, 16]
        };
        for &units in grids {
            row(&mut t, *h, name, 64, units, machine);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nExpected shape: near-linear growth in n at fixed grid; polynomial \
         growth in the grid resolution (the paper's D), flattened by Pareto \
         pruning, at every height.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_grow_with_n() {
        let machine = presets::multicore(2, 4, 4.0, 1.0);
        let (_, e16) = measure(16, 8, &machine);
        let (_, e128) = measure(128, 8, &machine);
        assert!(e128 > e16, "DP size must grow with n: {e16} vs {e128}");
    }

    #[test]
    fn entries_grow_with_grid() {
        let machine = presets::multicore(2, 4, 4.0, 1.0);
        let (_, coarse) = measure(64, 2, &machine);
        let (_, fine) = measure(64, 32, &machine);
        assert!(
            fine >= coarse,
            "finer grids cannot shrink the DP: {coarse} vs {fine}"
        );
    }

    #[test]
    fn entries_grow_with_n_at_h3() {
        let machine = presets::datacenter(2, 2, 4, 12.0, 4.0, 1.0);
        let (_, e16) = measure(16, 8, &machine);
        let (_, e128) = measure(128, 8, &machine);
        assert!(e128 > e16, "DP size must grow with n: {e16} vs {e128}");
    }
}
