//! Building a single decomposition tree by recursive balanced bisection.
//!
//! Every tree is built by [`build_decomp_tree_prescaled_with`], which
//! runs each cluster's bisection through a reusable [`DecompScratch`].
//! The allocating builder that predates the scratch is a test oracle in
//! the root test tree (`tests/oracle/alloc_sampler.rs`), and
//! `tests/determinism.rs` requires the two to build bit-identical trees.

use hgp_graph::partition::{fm_refine, multilevel_bisection, BisectOpts, BisectScratch};
use hgp_graph::spectral::{spectral_bisection, SpectralOpts};
use hgp_graph::tree::RootedTree;
use hgp_graph::{Graph, NodeId, SubgraphScratch};
use rand::Rng;

/// Which bisection oracle drives the recursive decomposition
/// (ablation A4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CutOracle {
    /// Multilevel heavy-edge-matching coarsening + FM (default).
    #[default]
    Multilevel,
    /// Fiedler-vector split, FM-polished.
    Spectral,
}

/// A decomposition tree over a graph `G`: a rooted tree whose leaves are in
/// bijection with `V(G)` and whose edge weights are `G`-boundary weights of
/// the corresponding clusters.
#[derive(Clone, Debug)]
pub struct DecompTree {
    /// The tree (root = the whole vertex set).
    pub tree: RootedTree,
    /// `task_of_leaf[t]` = the `G` node represented by tree leaf `t`
    /// (`u32::MAX` on internal nodes). This is the paper's `m_V` bijection
    /// restricted to leaves.
    pub task_of_leaf: Vec<u32>,
}

impl DecompTree {
    /// `leaf_of_task[v]` = the tree leaf representing `G` node `v`
    /// (inverse of [`DecompTree::task_of_leaf`], the paper's `m'_V`).
    pub fn leaf_of_task(&self, num_tasks: usize) -> Vec<u32> {
        let mut out = vec![u32::MAX; num_tasks];
        for (leaf, &t) in self.task_of_leaf.iter().enumerate() {
            if t != u32::MAX {
                out[t as usize] = leaf as u32;
            }
        }
        debug_assert!(out.iter().all(|&l| l != u32::MAX));
        out
    }
}

/// Options for [`build_decomp_tree`] and the distribution builder.
#[derive(Clone, Copy, Debug)]
pub struct DecompOpts {
    /// Bisection options (balance tolerance, FM passes, …).
    pub bisect: BisectOpts,
    /// Which cut oracle performs the recursive splits.
    pub oracle: CutOracle,
    /// Wave width of the multiplicative-weights schedule in
    /// `racke_distribution`: trees within a wave see the same edge-length
    /// snapshot and are mutually independent (so a wave can be sampled
    /// concurrently); length updates are applied between waves, in tree
    /// order. `1` reproduces a fully sequential MWU. This is part of the
    /// *algorithm* configuration — deliberately not derived from the
    /// thread count — so the sampled distribution is identical for every
    /// `Parallelism` setting.
    pub mwu_wave: usize,
}

impl Default for DecompOpts {
    fn default() -> Self {
        Self {
            bisect: BisectOpts::default(),
            oracle: CutOracle::Multilevel,
            mwu_wave: 4,
        }
    }
}

/// Reusable arena for [`build_decomp_tree_prescaled_with`]: every buffer
/// the recursive tree builder needs, including the multilevel bisection
/// ladder, so that building a tree in steady state costs only the
/// allocations of the returned [`DecompTree`] itself.
///
/// One scratch serves any number of sequential builds over graphs of any
/// size (buffers grow to the high-water mark and stay). A scratch is an
/// *allocation* cache, never a *value* cache: a build returns the same
/// tree whatever was built through the scratch before — pinned by the
/// scratch-reuse test in `tests/determinism.rs`.
#[derive(Debug, Default)]
pub(crate) struct DecompScratch {
    sub: SubgraphScratch,
    sub_w: Vec<f64>,
    side_buf: Vec<u32>,
    mark: Vec<u8>,
    members: Vec<u32>,
    stack: Vec<(usize, usize, usize)>,
    bisect: BisectScratch,
    bis_side: Vec<bool>,
}

impl DecompScratch {
    /// An empty scratch; buffers are grown on first use.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

/// Runs the configured oracle on one cluster's induced subgraph, leaving
/// the chosen side in `side`. The builder consumes only the side, so the
/// multilevel arm's cut statistics are dropped.
fn bisect_cluster_with<R: Rng + ?Sized>(
    sub: &Graph,
    sub_w: &[f64],
    opts: &DecompOpts,
    rng: &mut R,
    bisect: &mut BisectScratch,
    side: &mut Vec<bool>,
) {
    match opts.oracle {
        CutOracle::Multilevel => {
            multilevel_bisection(sub, sub_w, &opts.bisect, rng, bisect, side);
        }
        CutOracle::Spectral => {
            let mut s = spectral_bisection(
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
                fm_refine(sub, sub_w, &mut s, cap, cap, opts.bisect.fm_passes, bisect);
            }
            side.clear();
            side.extend_from_slice(&s);
        }
    }
}

/// Core tree builder over an already-scaled bisection graph: `scaled` must
/// have the same node count and edge set as `g` (only the weights may
/// differ — pass `g` itself when no MWU scaling applies). Bisections run
/// on `scaled`; tree-edge weights always come from `g`.
///
/// The recursion is allocation-free in steady state: cluster membership
/// lives in one arena partitioned in place (each side keeps ascending node
/// order, so the induced-subgraph extraction never sorts), every buffer
/// lives in `scratch`, and both children's boundary weights come from a
/// single marking pass. This is the distribution sampler's hot path.
///
/// # Panics
/// Panics if `g` is empty or slice lengths disagree.
pub(crate) fn build_decomp_tree_prescaled_with<R: Rng + ?Sized>(
    g: &Graph,
    scaled: &Graph,
    node_w: &[f64],
    opts: &DecompOpts,
    rng: &mut R,
    scratch: &mut DecompScratch,
) -> DecompTree {
    let n = g.num_nodes();
    assert!(n >= 1, "cannot decompose the empty graph");
    assert_eq!(node_w.len(), n);
    assert_eq!(scaled.num_nodes(), n);
    assert_eq!(scaled.num_edges(), g.num_edges());

    let mut parent: Vec<u32> = vec![0];
    let mut weight: Vec<f64> = vec![0.0];
    let mut task_of_leaf: Vec<u32> = vec![u32::MAX];

    let DecompScratch {
        sub,
        sub_w,
        side_buf,
        mark,
        members,
        stack,
        bisect,
        bis_side,
    } = scratch;
    members.clear();
    members.extend(0..n as u32);
    stack.clear();
    stack.push((0, 0, n));
    mark.clear();
    mark.resize(n, 0); // 0 = outside cluster, 1 = side 0, 2 = side 1

    while let Some((id, lo, hi)) = stack.pop() {
        if hi - lo == 1 {
            task_of_leaf[id] = members[lo];
            continue;
        }
        // bisect the cluster on the scaled graph
        scaled.induced_subgraph_into(&members[lo..hi], sub);
        sub_w.clear();
        sub_w.extend(sub.map().iter().map(|v| node_w[v.index()]));
        bisect_cluster_with(sub.graph(), sub_w, opts, rng, bisect, bis_side);

        // stable in-place partition: side-0 members compact to the front,
        // side-1 members go to the back, both keeping ascending order (the
        // write cursor never overtakes the read index)
        side_buf.clear();
        let mut w = lo;
        for (i, &s) in bis_side.iter().enumerate() {
            let v = members[lo + i];
            if s {
                side_buf.push(v);
            } else {
                members[w] = v;
                w += 1;
            }
        }
        members[w..hi].copy_from_slice(side_buf);
        let mut mid = w;
        // degenerate bisection (can happen on tiny/odd clusters): the range
        // is untouched — still ascending — so force an even split at the
        // midpoint, exactly the legacy sort-then-halve behaviour
        if mid == lo || mid == hi {
            mid = lo + (hi - lo) / 2;
        }

        // boundary weights of both sides from one marking pass over `g`;
        // per side, additions run in ascending-member adjacency order, the
        // same float order as a per-side recomputation
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

/// Builds one decomposition tree of `g`.
///
/// * `node_w[v]` — balance weights for the bisections (use task demands so
///   clusters track capacity).
/// * `edge_scale` — optional per-edge multipliers applied to the weights
///   the *bisection* minimises (the MWU lengths); tree-edge weights are
///   always computed from the **original** `g` weights, as the paper's
///   definition requires.
///
/// # Panics
/// Panics if `g` is empty or slice lengths disagree.
pub fn build_decomp_tree<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    edge_scale: Option<&[f64]>,
    opts: &DecompOpts,
    rng: &mut R,
) -> DecompTree {
    let mut scratch = DecompScratch::new();
    match edge_scale {
        None => build_decomp_tree_prescaled_with(g, g, node_w, opts, rng, &mut scratch),
        Some(s) => {
            let mut scaled = Graph::default();
            g.rescale_into(s, &mut scaled);
            build_decomp_tree_prescaled_with(g, &scaled, node_w, opts, rng, &mut scratch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_structure(dt: &DecompTree, n: usize) {
        // leaves biject with G nodes
        let leaves = dt.tree.leaves();
        assert_eq!(leaves.len(), n);
        let mut tasks: Vec<u32> = leaves.iter().map(|&l| dt.task_of_leaf[l]).collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..n as u32).collect::<Vec<_>>());
        // internal nodes have exactly two children (or are the singleton root)
        for v in 0..dt.tree.num_nodes() {
            let c = dt.tree.children(v).len();
            assert!(c == 0 || c == 2, "node {v} has {c} children");
        }
    }

    #[test]
    fn singleton_graph() {
        let g = Graph::from_edges(1, &[]);
        let mut rng = StdRng::seed_from_u64(1);
        let dt = build_decomp_tree(&g, &[1.0], None, &DecompOpts::default(), &mut rng);
        assert_eq!(dt.tree.num_nodes(), 1);
        assert_eq!(dt.task_of_leaf[0], 0);
    }

    #[test]
    fn tree_edge_weights_are_boundaries() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp_connected(&mut rng, 24, 0.2, 0.5, 2.0);
        let w = vec![1.0; 24];
        let dt = build_decomp_tree(&g, &w, None, &DecompOpts::default(), &mut rng);
        check_structure(&dt, 24);
        // verify each tree edge weight equals the boundary of its leaf set
        for v in 1..dt.tree.num_nodes() {
            let leaves = dt.tree.leaves_under(v);
            let mut side = vec![false; g.num_nodes()];
            for l in leaves {
                side[dt.task_of_leaf[l] as usize] = true;
            }
            let expect = g.cut_weight(&side);
            assert!(
                (dt.tree.edge_weight(v) - expect).abs() < 1e-9,
                "node {v}: weight {} vs boundary {expect}",
                dt.tree.edge_weight(v)
            );
        }
    }

    #[test]
    fn balanced_depth_is_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::grid2d(&mut rng, 8, 8, 1.0, 1.0);
        let w = vec![1.0; 64];
        let dt = build_decomp_tree(&g, &w, None, &DecompOpts::default(), &mut rng);
        check_structure(&dt, 64);
        let max_depth = (0..dt.tree.num_nodes())
            .filter(|&v| dt.tree.is_leaf(v))
            .map(|v| dt.tree.depth(v))
            .max()
            .unwrap();
        assert!(max_depth <= 14, "depth {max_depth} too deep for 64 nodes");
    }

    #[test]
    fn planted_structure_found_near_top() {
        // two dense blobs: the root split should separate them
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::planted_clusters(&mut rng, 2, 16, 0.5, 4.0, 0.02, 0.25);
        let w = vec![1.0; 32];
        let dt = build_decomp_tree(&g, &w, None, &DecompOpts::default(), &mut rng);
        let root_kids = dt.tree.children(dt.tree.root());
        let left: Vec<usize> = dt.tree.leaves_under(root_kids[0] as usize);
        let blocks: Vec<usize> = left
            .iter()
            .map(|&l| (dt.task_of_leaf[l] / 16) as usize)
            .collect();
        // all leaves on one side should come from the same planted block
        assert!(
            blocks.iter().all(|&b| b == blocks[0]),
            "root split mixes planted blocks"
        );
    }

    #[test]
    fn edge_scale_changes_bisection_not_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp_connected(&mut rng, 16, 0.3, 1.0, 2.0);
        let w = vec![1.0; 16];
        let scale = vec![3.0; g.num_edges()];
        let dt = build_decomp_tree(&g, &w, Some(&scale), &DecompOpts::default(), &mut rng);
        // uniform scaling must not change boundary weights (original graph)
        for v in 1..dt.tree.num_nodes() {
            let leaves = dt.tree.leaves_under(v);
            let mut side = vec![false; g.num_nodes()];
            for l in leaves {
                side[dt.task_of_leaf[l] as usize] = true;
            }
            assert!((dt.tree.edge_weight(v) - g.cut_weight(&side)).abs() < 1e-9);
        }
    }

    #[test]
    fn unit_edge_scale_is_bitwise_equivalent_to_none() {
        // scale 1.0 goes through rescale_into + the prescaled path with a
        // rebuilt graph; None passes `g` itself. `w * 1.0 == w` bitwise, so
        // every bisection, RNG draw and boundary sum must coincide exactly.
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp_connected(&mut rng, 28, 0.25, 0.5, 2.0);
        let w = vec![1.0; 28];
        let ones = vec![1.0; g.num_edges()];
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        let a = build_decomp_tree(&g, &w, None, &DecompOpts::default(), &mut r1);
        let b = build_decomp_tree(&g, &w, Some(&ones), &DecompOpts::default(), &mut r2);
        assert_eq!(a.task_of_leaf, b.task_of_leaf);
        assert_eq!(a.tree.num_nodes(), b.tree.num_nodes());
        for v in 0..a.tree.num_nodes() {
            assert_eq!(a.tree.children(v), b.tree.children(v));
            assert_eq!(
                a.tree.edge_weight(v).to_bits(),
                b.tree.edge_weight(v).to_bits()
            );
        }
    }

    #[test]
    fn leaf_of_task_inverts() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::random_tree(&mut rng, 12, 1.0, 2.0);
        let w = vec![1.0; 12];
        let dt = build_decomp_tree(&g, &w, None, &DecompOpts::default(), &mut rng);
        let inv = dt.leaf_of_task(12);
        for v in 0..12u32 {
            assert_eq!(dt.task_of_leaf[inv[v as usize] as usize], v);
        }
    }
}
