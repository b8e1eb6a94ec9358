//! Distributions of decomposition trees via multiplicative weights over
//! measured congestion — the practical stand-in for Theorem 6.
//!
//! Every entry point samples through [`racke_distribution_par`]. The
//! allocating sampler that predates its scratch arenas is a test oracle
//! in the root test tree (`tests/oracle/alloc_sampler.rs`), and
//! `tests/determinism.rs` requires the two to sample bit-identical
//! distributions.

use crate::build::{build_decomp_tree_prescaled_with, DecompOpts, DecompScratch, DecompTree};
use crate::parallel::{par_map_indexed_scratch, Parallelism};
use hgp_graph::tree::LcaIndex;
use hgp_graph::Graph;
use hgp_obs::{names, span, TraceSink, NO_PARENT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MWU learning rate: each tree stretches every edge it congests by up to
/// `1 + ETA` (relative to the tree's own max congestion).
const ETA: f64 = 0.5;

/// A convex combination of decomposition trees (`Σ λᵢ = 1`).
#[derive(Clone, Debug)]
pub struct Distribution {
    /// The trees.
    pub trees: Vec<DecompTree>,
    /// Their convex multipliers.
    pub lambdas: Vec<f64>,
}

/// Congestion diagnostics of one decomposition tree, from the boundary
/// routing of tree-edge flows: each `G` edge `f` carries load
/// `w(f) × (number of tree edges on the leaf path of f's endpoints)`, so
/// its congestion is exactly that hop count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CongestionStats {
    /// Maximum hop congestion over edges.
    pub max: f64,
    /// Weight-averaged hop congestion.
    pub weighted_avg: f64,
}

/// Hop congestion of every `G` edge under `dt` (path length between the
/// leaves of its endpoints), plus summary stats.
pub fn hop_congestion(dt: &DecompTree, g: &Graph) -> (Vec<f64>, CongestionStats) {
    let leaf_of = dt.leaf_of_task(g.num_nodes());
    let lca = LcaIndex::new(&dt.tree);
    let mut per_edge = Vec::with_capacity(g.num_edges());
    let mut max = 0.0f64;
    let mut acc = 0.0;
    let mut wsum = 0.0;
    for (_, u, v, w) in g.edges() {
        let (lu, lv) = (leaf_of[u.index()] as usize, leaf_of[v.index()] as usize);
        let anc = lca.lca(lu, lv);
        let hops = (dt.tree.depth(lu) + dt.tree.depth(lv) - 2 * dt.tree.depth(anc)) as f64;
        per_edge.push(hops);
        max = max.max(hops);
        acc += hops * w;
        wsum += w;
    }
    let weighted_avg = if wsum > 0.0 { acc / wsum } else { 0.0 };
    (per_edge, CongestionStats { max, weighted_avg })
}

/// Builds a distribution of `num_trees` decomposition trees (serially).
///
/// Equivalent to [`racke_distribution_par`] with [`Parallelism::serial`] —
/// and, by the determinism contract documented there, *bit-identical* to it
/// at any other width.
///
/// `num_trees = 0` returns the well-formed empty distribution (no trees,
/// no multipliers) rather than panicking or emitting `λ`-less trees.
pub fn racke_distribution<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    num_trees: usize,
    opts: &DecompOpts,
    rng: &mut R,
) -> Distribution {
    racke_distribution_par(g, node_w, num_trees, opts, Parallelism::serial(), rng, None)
}

/// Builds a distribution of `num_trees` decomposition trees, sampling up to
/// [`DecompOpts::mwu_wave`] of them concurrently.
///
/// Wave-structured multiplicative weights: trees are sampled in waves of
/// `opts.mwu_wave`. Every tree in a wave bisects against the same
/// edge-*length* snapshot, so the trees of a wave are mutually independent
/// and are fanned across `par` workers. After a wave lands, each of its
/// trees multiplies every `G` edge's length by
/// `(1 + η · congestion/max_congestion)` (η = 0.5), in tree order; the next
/// wave's bisections minimise length-scaled weights, steering them away
/// from edges that previous waves stretched. The first wave starts from
/// uniform lengths, and every sampled tree is kept at `λᵢ = 1/p`.
///
/// Determinism: `rng` is consumed only to derive one seed per tree, up
/// front; tree `i` is then built from its own `StdRng` stream. Together
/// with the fixed wave schedule (which never depends on `par`) and the
/// index-ordered reduction of [`par_map_indexed`](crate::par_map_indexed),
/// the returned distribution is **bit-identical for every `par`** — thread
/// count is a throughput knob, never a semantic one.
///
/// Span capture: when `sink` is attached, each MWU wave records a
/// [`names::DECOMP_WAVE`] span (`arg` = index of the first tree in the
/// wave) and each tree build records a [`names::DECOMP_TREE`] span (`arg`
/// = tree index, parented on its wave). Tracing is observational only —
/// the returned distribution is bit-identical with or without a sink.
///
/// With `num_trees = 1` this degenerates to a single unscaled tree
/// (ablation A1's control arm).
pub fn racke_distribution_par<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    num_trees: usize,
    opts: &DecompOpts,
    par: Parallelism,
    rng: &mut R,
    sink: Option<&TraceSink>,
) -> Distribution {
    if num_trees == 0 {
        return Distribution {
            trees: Vec::new(),
            lambdas: Vec::new(),
        };
    }
    let seeds: Vec<u64> = (0..num_trees).map(|_| rng.gen()).collect();
    let wave = opts.mwu_wave.max(1);
    let mut lengths = vec![1.0f64; g.num_edges()];

    // one scratch arena per worker, reused across every wave; sized for the
    // widest wave so the per-call assert can never trip on the tail wave
    let mut scratches: Vec<DecompScratch> = (0..par.workers(wave.min(num_trees)))
        .map(|_| DecompScratch::new())
        .collect();
    let mut trees = Vec::with_capacity(num_trees);
    let mut scaled_buf = Graph::default();
    let mut start = 0;
    while start < num_trees {
        let end = (start + wave).min(num_trees);
        // every tree of a wave bisects against the same length snapshot, so
        // the length-scaled graph is written once into a reused buffer and
        // shared by the whole wave (the first wave sees all-ones lengths —
        // the graph itself, unscaled)
        let scaled: &Graph = if start == 0 {
            g
        } else {
            g.rescale_into(&lengths, &mut scaled_buf);
            &scaled_buf
        };
        let wave_span = span!(
            sink,
            names::DECOMP_WAVE,
            parent = NO_PARENT,
            arg = start as u64
        );
        let wave_id = wave_span.as_ref().map_or(NO_PARENT, |s| s.id());
        let built = par_map_indexed_scratch(par, end - start, &mut scratches, |k, scratch| {
            let i = start + k;
            let _tree_span = sink.map(|s| s.span_with(names::DECOMP_TREE, wave_id, i as u64));
            let mut tree_rng = StdRng::seed_from_u64(seeds[i]);
            let dt =
                build_decomp_tree_prescaled_with(g, scaled, node_w, opts, &mut tree_rng, scratch);
            let congestion = hop_congestion(&dt, g);
            (dt, congestion)
        });
        drop(wave_span);
        for (dt, (per_edge, stats)) in built {
            if stats.max > 0.0 {
                for (len, c) in lengths.iter_mut().zip(&per_edge) {
                    *len *= 1.0 + ETA * c / stats.max;
                }
                // renormalise to dodge overflow on long runs
                let mean: f64 = lengths.iter().sum::<f64>() / lengths.len() as f64;
                if mean > 0.0 {
                    for len in lengths.iter_mut() {
                        *len /= mean;
                    }
                }
            }
            trees.push(dt);
        }
        start = end;
    }

    let p = trees.len();
    Distribution {
        trees,
        lambdas: vec![1.0 / p as f64; p],
    }
}

impl Distribution {
    /// Expected (λ-weighted) average congestion across the distribution.
    pub fn expected_congestion(&self, g: &Graph) -> f64 {
        self.trees
            .iter()
            .zip(&self.lambdas)
            .map(|(t, &l)| l * hop_congestion(t, g).1.weighted_avg)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_decomp_tree;
    use hgp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_distributions_bit_identical(a: &Distribution, b: &Distribution) {
        assert_eq!(a.trees.len(), b.trees.len());
        for (la, lb) in a.lambdas.iter().zip(&b.lambdas) {
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        for (x, y) in a.trees.iter().zip(&b.trees) {
            assert_eq!(x.task_of_leaf, y.task_of_leaf);
            assert_eq!(x.tree.num_nodes(), y.tree.num_nodes());
            for v in 0..x.tree.num_nodes() {
                assert_eq!(x.tree.children(v), y.tree.children(v));
                assert_eq!(
                    x.tree.edge_weight(v).to_bits(),
                    y.tree.edge_weight(v).to_bits()
                );
            }
        }
    }

    #[test]
    fn congestion_of_path_graph_tree() {
        // P3: 0-1-2; any binary decomposition tree has depth 2, so hop
        // congestion of each edge is at most 4
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let dt = build_decomp_tree(&g, &[1.0; 3], None, &DecompOpts::default(), &mut rng);
        let (per_edge, stats) = hop_congestion(&dt, &g);
        assert_eq!(per_edge.len(), 2);
        assert!(stats.max <= 4.0);
        assert!(
            stats.weighted_avg >= 2.0,
            "adjacent leaves are >= 2 hops apart"
        );
    }

    #[test]
    fn distribution_has_uniform_lambdas() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp_connected(&mut rng, 20, 0.2, 1.0, 2.0);
        let d = racke_distribution(&g, &[1.0; 20], 4, &DecompOpts::default(), &mut rng);
        assert_eq!(d.trees.len(), 4);
        assert!((d.lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(d.lambdas.iter().all(|&l| (l - 0.25).abs() < 1e-12));
        assert!(d.expected_congestion(&g) >= 2.0);
    }

    #[test]
    fn zero_trees_yields_the_empty_distribution() {
        // trees = 0 must come back well-formed (no trees, no lambdas) —
        // not panic, not a λ-less tree list
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnp_connected(&mut rng, 10, 0.3, 1.0, 2.0);
        let d = racke_distribution(&g, &[1.0; 10], 0, &DecompOpts::default(), &mut rng);
        assert!(d.trees.is_empty());
        assert!(d.lambdas.is_empty());
    }

    #[test]
    fn single_node_graph_yields_singleton_trees() {
        let g = Graph::from_edges(1, &[]);
        let mut rng = StdRng::seed_from_u64(22);
        let d = racke_distribution(&g, &[1.0], 3, &DecompOpts::default(), &mut rng);
        assert_eq!(d.trees.len(), 3);
        assert!((d.lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for t in &d.trees {
            assert_eq!(t.tree.num_nodes(), 1);
            assert_eq!(t.task_of_leaf, vec![0]);
            let (per_edge, stats) = hop_congestion(t, &g);
            assert!(per_edge.is_empty());
            assert_eq!(stats.max, 0.0);
        }
        assert_eq!(d.expected_congestion(&g), 0.0);
    }

    #[test]
    fn congestion_is_bounded_by_twice_depth() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::grid2d(&mut rng, 6, 6, 1.0, 1.0);
        let d = racke_distribution(&g, &[1.0; 36], 3, &DecompOpts::default(), &mut rng);
        for t in &d.trees {
            let depth = t
                .tree
                .leaves()
                .iter()
                .map(|&l| t.tree.depth(l))
                .max()
                .unwrap();
            let (_, stats) = hop_congestion(t, &g);
            assert!(stats.max <= 2.0 * depth as f64);
        }
    }

    #[test]
    fn mwu_lengths_spread_cuts() {
        // On an expander-ish graph, later trees should not be identical to
        // the first (the length updates must change at least one split).
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp_connected(&mut rng, 24, 0.4, 1.0, 1.0);
        let d = racke_distribution(&g, &[1.0; 24], 3, &DecompOpts::default(), &mut rng);
        let sig = |t: &DecompTree| -> Vec<Vec<u32>> {
            let kids = t.tree.children(t.tree.root());
            let mut sides: Vec<Vec<u32>> = kids
                .iter()
                .map(|&c| {
                    let mut s: Vec<u32> = t
                        .tree
                        .leaves_under(c as usize)
                        .iter()
                        .map(|&l| t.task_of_leaf[l])
                        .collect();
                    s.sort_unstable();
                    s
                })
                .collect();
            sides.sort();
            sides
        };
        let s0 = sig(&d.trees[0]);
        let distinct = d.trees.iter().skip(1).any(|t| sig(t) != s0);
        // (random restarts alone could make them differ; this asserts the
        // pipeline produces a genuine ensemble, not p copies of one tree)
        assert!(distinct, "all trees in the distribution are identical");
    }

    #[test]
    fn parallel_sampling_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnp_connected(&mut rng, 30, 0.2, 0.5, 2.0);
        let opts = DecompOpts::default();
        let build = |par: Parallelism| {
            let mut r = StdRng::seed_from_u64(99);
            racke_distribution_par(&g, &[1.0; 30], 6, &opts, par, &mut r, None)
        };
        let serial = build(Parallelism::serial());
        for par in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(4),
            Parallelism::Auto,
        ] {
            let d = build(par);
            assert_eq!(d.lambdas, serial.lambdas);
            assert_distributions_bit_identical(&d, &serial);
        }
    }

    #[test]
    fn wave_width_changes_the_mwu_schedule_not_validity() {
        // mwu_wave is an algorithm knob: different widths may sample
        // different (but equally valid) distributions
        let g = generators::grid2d(&mut StdRng::seed_from_u64(8), 5, 5, 1.0, 1.0);
        for wave in [1, 2, 8] {
            let opts = DecompOpts {
                mwu_wave: wave,
                ..Default::default()
            };
            let mut r = StdRng::seed_from_u64(5);
            let d = racke_distribution(&g, &[1.0; 25], 5, &opts, &mut r);
            assert_eq!(d.trees.len(), 5);
            assert!((d.lambdas.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }
}
