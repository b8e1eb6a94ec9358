//! F6 — the multilevel front-end from 10³ to 10⁶ tasks. Each point solves
//! the three scale families of `hgp-workloads` (2-D mesh, Barabási–Albert
//! power law, sparse planted clusters; seed `0x5CA1_2014`) on the 16-leaf
//! `multicore(4, 4)` machine twice: through the `hgp-multilevel` V-cycle,
//! and through flat k-way partitioning followed by the Eq.-1 refiner with
//! pairwise swaps off (they are quadratic per pass and do not scale past
//! ~10⁴ nodes). Costs are deterministic for the seed; times are not.

use crate::table::{f2, Table};
use crate::timed;
use hgp_baselines::kway::{kway_partition, KwayOpts};
use hgp_baselines::refine::{refine, RefineOpts};
use hgp_core::{Assignment, MultilevelOptions, SolverOptions};
use hgp_hierarchy::presets;
use hgp_multilevel::solve_multilevel;
use hgp_workloads::suite::scale_suite_sized;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The sweep sizes.
pub const SIZES: [usize; 5] = [1_000, 10_000, 20_000, 100_000, 1_000_000];

const SEED: u64 = 0x5CA1_2014;

/// One family at one size: both arms on the same instance.
pub(crate) struct Point {
    pub name: String,
    pub nodes: usize,
    pub edges: usize,
    pub ml_cost: f64,
    pub flat_cost: f64,
    pub ml_ms: f64,
    pub flat_ms: f64,
    pub levels: usize,
}

impl Point {
    /// Multilevel cost over flat cost; below 1 means multilevel wins.
    fn ratio(&self) -> f64 {
        self.ml_cost / self.flat_cost
    }

    /// The acceptance bar: multilevel never loses to flat.
    fn ml_not_worse(&self) -> bool {
        self.ml_cost <= self.flat_cost * (1.0 + 1e-9)
    }
}

pub(crate) fn collect(sizes: &[usize]) -> Vec<Point> {
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let opts = SolverOptions::builder()
        .trees(4)
        .units(4)
        .seed(SEED)
        .multilevel(MultilevelOptions {
            enabled: true,
            ..Default::default()
        })
        .build();
    let refine_opts = RefineOpts {
        swaps: false,
        ..Default::default()
    };
    let mut out = Vec::new();
    for &n in sizes {
        for w in scale_suite_sized(SEED, h.num_leaves(), n) {
            let inst = &w.inst;
            let (ml, ml_ms) = timed(|| solve_multilevel(inst, &h, &opts));
            let ml = ml.unwrap_or_else(|e| panic!("{}: multilevel solve failed: {e}", w.name));
            let (flat, flat_ms) = timed(|| {
                let part = kway_partition(
                    inst.graph(),
                    inst.demands(),
                    h.num_leaves(),
                    &KwayOpts::default(),
                    &mut StdRng::seed_from_u64(SEED),
                );
                let mut a = Assignment::new(part, &h);
                refine(&mut a, inst, &h, &refine_opts);
                a
            });
            out.push(Point {
                name: w.name,
                nodes: inst.num_tasks(),
                edges: inst.graph().num_edges(),
                ml_cost: ml.cost,
                flat_cost: flat.cost(inst, &h),
                ml_ms,
                flat_ms,
                levels: ml.levels,
            });
        }
    }
    out
}

/// Runs F6 over [`SIZES`] and renders the table.
pub fn run() -> String {
    let mut t = Table::new(vec![
        "instance",
        "nodes",
        "edges",
        "multilevel cost",
        "flat cost",
        "ratio",
        "multilevel s",
        "flat s",
        "levels",
        "ml ≤ flat",
    ]);
    for p in collect(&SIZES) {
        t.row(vec![
            p.name.clone(),
            p.nodes.to_string(),
            p.edges.to_string(),
            f2(p.ml_cost),
            f2(p.flat_cost),
            format!("{:.4}", p.ratio()),
            f2(p.ml_ms / 1e3),
            f2(p.flat_ms / 1e3),
            p.levels.to_string(),
            if p.ml_not_worse() { "yes" } else { "NO" }.into(),
        ]);
    }
    format!(
        "## F6 — multilevel vs flat k-way + refine from 10³ to 10⁶ tasks (4x4:4,1,0)\n\n{}\n\
         Expected shape: multilevel is never costlier than flat (ratio ≤ 1 \
         everywhere); about 2x cheaper on power-law graphs from 10⁴ up, \
         0.7–12 % cheaper on meshes, near-ties on planted clusters from \
         2·10⁴ up. Costs are deterministic; times are the measuring host's.\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multilevel_is_never_worse_at_the_smallest_size() {
        let pts = collect(&SIZES[..1]);
        assert_eq!(pts.len(), 3, "three families");
        for p in &pts {
            assert!(p.levels >= 1, "{}: must actually coarsen", p.name);
            assert!(
                p.ml_not_worse(),
                "{}: multilevel {} vs flat {}",
                p.name,
                p.ml_cost,
                p.flat_cost
            );
        }
    }
}
