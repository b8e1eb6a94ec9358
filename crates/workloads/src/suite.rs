//! Named instances and machine topologies for the experiment suite.

use crate::stream::{stream_dag, StreamOpts};
use hgp_core::Instance;
use hgp_graph::generators;
use hgp_hierarchy::{presets, Hierarchy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A workload with a stable name for experiment tables.
pub struct NamedInstance {
    /// Table label.
    pub name: String,
    /// The instance.
    pub inst: Instance,
}

/// Draws per-task demands in `[lo, hi]`.
fn demands<R: Rng + ?Sized>(rng: &mut R, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// The standard workload suite used by experiments T2/T3/A1–A3:
///
/// | name          | shape                              | demands      |
/// |---------------|------------------------------------|--------------|
/// | `stream-N`    | streaming-operator DAG             | volume-based |
/// | `mesh-RxC`    | 2-D grid (scientific kernel)       | uniform draw |
/// | `powerlaw-N`  | Barabási–Albert service graph      | uniform draw |
/// | `clustered-N` | planted modules + sparse backbone  | uniform draw |
///
/// All instances are sized so they fit the 8–16-leaf machines of
/// [`machines`] with headroom factor ~0.6.
pub fn standard_suite(seed: u64) -> Vec<NamedInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();

    let stream = stream_dag(
        &mut rng,
        &StreamOpts {
            queries: 6,
            depth: 4,
            max_width: 3,
            join_prob: 0.2,
            max_demand: 0.35,
            ..Default::default()
        },
    );
    out.push(NamedInstance {
        name: format!("stream-{}", stream.num_tasks()),
        inst: stream,
    });

    let mesh = generators::grid2d(&mut rng, 8, 8, 0.5, 2.0);
    let d = demands(&mut rng, 64, 0.05, 0.18);
    out.push(NamedInstance {
        name: "mesh-8x8".into(),
        inst: Instance::new(mesh, d),
    });

    let pl = generators::barabasi_albert(&mut rng, 64, 2, 0.5, 3.0);
    let d = demands(&mut rng, 64, 0.05, 0.18);
    out.push(NamedInstance {
        name: "powerlaw-64".into(),
        inst: Instance::new(pl, d),
    });

    let cl = generators::planted_clusters(&mut rng, 8, 8, 0.5, 3.0, 0.02, 0.3);
    let d = demands(&mut rng, 64, 0.05, 0.18);
    out.push(NamedInstance {
        name: "clustered-64".into(),
        inst: Instance::new(cl, d),
    });

    out
}

/// Large-scale workloads for the multilevel front-end (experiment F6 in
/// EXPERIMENTS.md): three generator families at
/// `n >= 1e5`, built with bulk edge insertion so constructing the graph is
/// not the bottleneck. Demands are drawn to total ~60 % of `leaves`, so
/// every preset fits any machine with that many leaves.
///
/// | name              | shape                                  |
/// |-------------------|----------------------------------------|
/// | `grid2d-100k`     | 2-D mesh, 317 × 316                    |
/// | `powerlaw-100k`   | Barabási–Albert, m = 2                 |
/// | `clustered-100k`  | sparse planted clusters, 100 × 1000    |
///
/// Seeds are fixed per preset (derived from `seed`), so two calls with the
/// same argument return identical instances.
pub fn scale_suite(seed: u64, leaves: usize) -> Vec<NamedInstance> {
    scale_suite_sized(seed, leaves, 100_000)
}

/// [`scale_suite`] at an arbitrary target size (experiment F6 sweeps
/// `n ∈ {1e3, 1e4, 2e4, 1e5, 1e6}`). `n` must be at least 1000.
pub fn scale_suite_sized(seed: u64, leaves: usize, n: usize) -> Vec<NamedInstance> {
    assert!(n >= 1000, "scale presets start at n = 1000");
    let label = |family: &str| {
        if n.is_multiple_of(1_000_000) {
            format!("{family}-{}m", n / 1_000_000)
        } else if n.is_multiple_of(1_000) {
            format!("{family}-{}k", n / 1_000)
        } else {
            format!("{family}-{n}")
        }
    };
    let mut out = Vec::new();

    // near-square mesh with exactly >= n nodes, trimmed to rows*cols
    let rows = (n as f64).sqrt().ceil() as usize;
    let cols = n.div_ceil(rows);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d65_7368);
    let g = generators::grid2d(&mut rng, rows, cols, 0.5, 2.0);
    let nn = g.num_nodes();
    let d = scaled_demands(&mut rng, nn, leaves);
    out.push(NamedInstance {
        name: label("grid2d"),
        inst: Instance::new(g, d),
    });

    let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_7765);
    let g = generators::barabasi_albert(&mut rng, n, 2, 0.5, 2.0);
    let d = scaled_demands(&mut rng, n, leaves);
    out.push(NamedInstance {
        name: label("powerlaw"),
        inst: Instance::new(g, d),
    });

    let clusters = (n / 1000).max(4);
    let size = n / clusters;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636c_7573);
    let g = generators::planted_clusters_sparse(&mut rng, clusters, size, 6.0, 0.5, 2.0, 0.5);
    let nn = g.num_nodes();
    let d = scaled_demands(&mut rng, nn, leaves);
    out.push(NamedInstance {
        name: label("clustered"),
        inst: Instance::new(g, d),
    });

    out
}

/// Demands totalling ~60 % of `leaves`, spread uniformly within ±50 % of
/// the mean (clamped into the `Instance` demand domain `(0, 1]`).
fn scaled_demands<R: Rng + ?Sized>(rng: &mut R, n: usize, leaves: usize) -> Vec<f64> {
    let mean = (0.6 * leaves as f64 / n as f64).min(0.5);
    demands(rng, n, (0.5 * mean).max(1e-9), (1.5 * mean).min(1.0))
}

/// The machine topologies experiments sweep over, with stable labels.
pub fn machines() -> Vec<(String, Hierarchy)> {
    vec![
        ("flat-8".into(), presets::flat(8)),
        ("2x4-socket".into(), presets::multicore(2, 4, 4.0, 1.0)),
        ("4x4-socket".into(), presets::multicore(4, 4, 6.0, 1.0)),
        (
            "2x2x4-cluster".into(),
            presets::datacenter(2, 2, 4, 12.0, 4.0, 1.0),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_instances_fit_suite_machines() {
        let suite = standard_suite(42);
        assert_eq!(suite.len(), 4);
        for (mname, h) in machines() {
            for w in &suite {
                assert!(
                    w.inst.check_feasible(&h).is_ok(),
                    "{} does not fit {}: total demand {}",
                    w.name,
                    mname,
                    w.inst.total_demand()
                );
            }
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = standard_suite(7);
        let b = standard_suite(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.inst.demands(), y.inst.demands());
        }
    }

    #[test]
    fn suite_names_are_unique() {
        let suite = standard_suite(1);
        let mut names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn scale_suite_is_sized_fitted_and_deterministic() {
        // keep the test itself cheap: the 1e5/1e6 presets are the same code
        // at a bigger n
        let suite = scale_suite_sized(42, 16, 2_000);
        assert_eq!(suite.len(), 3);
        let h = presets::multicore(4, 4, 4.0, 1.0);
        for w in &suite {
            assert!(w.inst.num_tasks() >= 2_000, "{} too small", w.name);
            assert!(
                w.inst.check_feasible(&h).is_ok(),
                "{} does not fit 16 leaves: total {}",
                w.name,
                w.inst.total_demand()
            );
        }
        let names: Vec<&str> = suite.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["grid2d-2k", "powerlaw-2k", "clustered-2k"]);
        let again = scale_suite_sized(42, 16, 2_000);
        for (a, b) in suite.iter().zip(&again) {
            assert_eq!(a.inst.demands(), b.inst.demands());
            assert_eq!(a.inst.graph().num_edges(), b.inst.graph().num_edges());
        }
    }

    #[test]
    fn machines_have_nondecreasing_multipliers_inward() {
        for (name, h) in machines() {
            for j in 0..h.height() {
                assert!(
                    h.cost_multiplier(j) >= h.cost_multiplier(j + 1),
                    "{name}: multipliers must decrease with depth"
                );
            }
        }
    }
}
