//! The allocating decomposition-tree builder and MWU tree sampler that
//! `hgp_decomp` ran before its scratch arenas: every wave rebuilds the
//! length-scaled graph through a fresh [`GraphBuilder`], and every tree
//! build allocates its own buffers and keeps each bisection's full
//! [`Bisection`] record. `hgp_decomp::racke_distribution_par` and
//! `hgp_decomp::build_decomp_tree` must stay bit-identical to
//! [`racke_distribution_ref`] and [`build_decomp_tree_prescaled`].

use super::alloc_bisection::{fm_refine, multilevel_bisection, Bisection};
use hgp::decomp::{
    hop_congestion, par_map_indexed, CutOracle, DecompOpts, DecompTree, Distribution, Parallelism,
};
use hgp::graph::spectral::{spectral_bisection, SpectralOpts};
use hgp::graph::tree::RootedTree;
use hgp::graph::{Graph, GraphBuilder, NodeId, SubgraphScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The MWU learning rate of `hgp_decomp`'s sampler: each tree stretches
/// every edge it congests by up to `1 + ETA` (relative to the tree's own
/// max congestion).
const ETA: f64 = 0.5;

/// Runs the configured oracle on one cluster's induced subgraph.
fn bisect_cluster<R: Rng + ?Sized>(
    sub: &Graph,
    sub_w: &[f64],
    opts: &DecompOpts,
    rng: &mut R,
) -> Bisection {
    match opts.oracle {
        CutOracle::Multilevel => multilevel_bisection(sub, sub_w, &opts.bisect, rng),
        CutOracle::Spectral => {
            let mut side = spectral_bisection(
                sub,
                sub_w,
                &SpectralOpts {
                    target0_frac: opts.bisect.target0_frac,
                    ..Default::default()
                },
            );
            if !opts.bisect.no_refine {
                let total: f64 = sub_w.iter().sum();
                let cap = 0.5 * total * (1.0 + opts.bisect.eps);
                fm_refine(sub, sub_w, &mut side, cap, cap, opts.bisect.fm_passes);
            }
            let cut = sub.cut_weight(&side);
            let mut w0 = 0.0;
            let mut w1 = 0.0;
            for (v, &s) in side.iter().enumerate() {
                if s {
                    w1 += sub_w[v];
                } else {
                    w0 += sub_w[v];
                }
            }
            Bisection {
                side,
                cut,
                weight0: w0,
                weight1: w1,
            }
        }
    }
}

/// Builds the MWU length-scaled bisection graph `w(e) · scale(e)` as one
/// fresh [`Graph`].
pub fn scale_graph(g: &Graph, edge_scale: &[f64]) -> Graph {
    assert_eq!(edge_scale.len(), g.num_edges());
    let mut b = GraphBuilder::new(g.num_nodes());
    for (e, u, v, w) in g.edges() {
        b.add_edge(u, v, w * edge_scale[e.index()]);
    }
    b.build()
}

/// Tree builder over an already-scaled bisection graph: `scaled` must
/// have the same node count and edge set as `g` (pass `g` itself when no
/// MWU scaling applies). Bisections run on `scaled`; tree-edge weights
/// always come from `g`.
pub fn build_decomp_tree_prescaled<R: Rng + ?Sized>(
    g: &Graph,
    scaled: &Graph,
    node_w: &[f64],
    opts: &DecompOpts,
    rng: &mut R,
) -> DecompTree {
    let n = g.num_nodes();
    assert!(n >= 1, "cannot decompose the empty graph");
    assert_eq!(node_w.len(), n);
    assert_eq!(scaled.num_nodes(), n);
    assert_eq!(scaled.num_edges(), g.num_edges());

    let mut parent: Vec<u32> = vec![0];
    let mut weight: Vec<f64> = vec![0.0];
    let mut task_of_leaf: Vec<u32> = vec![u32::MAX];

    // members arena: every cluster is a contiguous ascending range of this
    // vector, identified on the stack by (tree node id, lo, hi)
    let mut members: Vec<u32> = (0..n as u32).collect();
    let mut stack: Vec<(usize, usize, usize)> = vec![(0, 0, n)];

    let mut sub_scratch = SubgraphScratch::new();
    let mut sub_w: Vec<f64> = Vec::new();
    let mut side_buf: Vec<u32> = Vec::new();
    let mut mark: Vec<u8> = vec![0; n]; // 0 = outside cluster, 1 = side 0, 2 = side 1

    while let Some((id, lo, hi)) = stack.pop() {
        if hi - lo == 1 {
            task_of_leaf[id] = members[lo];
            continue;
        }
        // bisect the cluster on the scaled graph
        scaled.induced_subgraph_into(&members[lo..hi], &mut sub_scratch);
        sub_w.clear();
        sub_w.extend(sub_scratch.map().iter().map(|v| node_w[v.index()]));
        let bis = bisect_cluster(sub_scratch.graph(), &sub_w, opts, rng);

        // stable in-place partition: side-0 members compact to the front,
        // side-1 members go to the back, both keeping ascending order
        side_buf.clear();
        let mut w = lo;
        for (i, &s) in bis.side.iter().enumerate() {
            let v = members[lo + i];
            if s {
                side_buf.push(v);
            } else {
                members[w] = v;
                w += 1;
            }
        }
        members[w..hi].copy_from_slice(&side_buf);
        let mut mid = w;
        // degenerate bisection (can happen on tiny/odd clusters): the range
        // is untouched — still ascending — so force an even split
        if mid == lo || mid == hi {
            mid = lo + (hi - lo) / 2;
        }

        // boundary weights of both sides from one marking pass over `g`
        for &v in &members[lo..mid] {
            mark[v as usize] = 1;
        }
        for &v in &members[mid..hi] {
            mark[v as usize] = 2;
        }
        let mut bw = [0.0f64; 2];
        for (side_ix, range) in [(0usize, lo..mid), (1usize, mid..hi)] {
            let own = side_ix as u8 + 1;
            let mut acc = 0.0;
            for &v in &members[range] {
                for (u, wt, _) in g.neighbors(NodeId(v)) {
                    if mark[u.index()] != own {
                        acc += wt;
                    }
                }
            }
            bw[side_ix] = acc;
        }
        for &v in &members[lo..hi] {
            mark[v as usize] = 0;
        }

        for (side_ix, (slo, shi)) in [(0usize, (lo, mid)), (1, (mid, hi))] {
            let child = parent.len();
            parent.push(id as u32);
            weight.push(bw[side_ix]);
            task_of_leaf.push(u32::MAX);
            stack.push((child, slo, shi));
        }
    }

    let tree = RootedTree::from_parents(0, parent, weight);
    DecompTree { tree, task_of_leaf }
}

/// Samples `num_trees` decomposition trees with wave-structured
/// multiplicative weights, exactly as `hgp_decomp::racke_distribution_par`
/// specifies: per-tree seeds drawn up front, `opts.mwu_wave` trees per
/// length snapshot, lengths updated between waves in tree order, every
/// tree kept at `λ = 1/p`.
pub fn racke_distribution_ref<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    num_trees: usize,
    opts: &DecompOpts,
    par: Parallelism,
    rng: &mut R,
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
    let mut trees = Vec::with_capacity(num_trees);
    let mut start = 0;
    let mut scaled_store: Option<Graph>;
    while start < num_trees {
        let end = (start + wave).min(num_trees);
        let scaled: &Graph = if start == 0 {
            g
        } else {
            scaled_store = Some(scale_graph(g, &lengths));
            scaled_store.as_ref().unwrap()
        };
        let built = par_map_indexed(par, end - start, |k| {
            let mut tree_rng = StdRng::seed_from_u64(seeds[start + k]);
            let dt = build_decomp_tree_prescaled(g, scaled, node_w, opts, &mut tree_rng);
            let congestion = hop_congestion(&dt, g);
            (dt, congestion)
        });
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
