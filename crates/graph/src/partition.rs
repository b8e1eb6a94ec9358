//! Balanced two-way partitioning: the multilevel bisection engine and the
//! graph contractions of the multilevel placement ladder.
//!
//! [`multilevel_bisection`] coarsens by heavy-edge matching, grows an
//! initial partition on the coarsest graph, then projects it back up,
//! refining with Fiduccia–Mattheyses passes at every level. It is the one
//! bisection in the workspace: the decomposition-tree builder
//! (`hgp-decomp`) and the k-way baselines (`hgp-baselines`) both call it,
//! and it draws every buffer from a reusable [`BisectScratch`]. Graphs are
//! *node-weighted*: `node_w[v]` is the demand of `v`, and a bisection
//! targets a prescribed fraction of total demand on side 0 within a
//! multiplicative tolerance.
//!
//! The ladder of `hgp-multilevel` contracts with [`coarsen_capped`] (the
//! engine's heavy-edge matcher under a node-weight cap) and
//! [`coarsen_lp`] (size-constrained label propagation).

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
use crate::{Graph, GraphBuilder, NodeId};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// Max-heap candidate ordered by key then node id — shared by the greedy
// grower and the FM pass.
#[derive(Debug, PartialEq)]
struct Cand(f64, u32);
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Cand {
    fn cmp(&self, o: &Self) -> Ordering {
        self.0
            .partial_cmp(&o.0)
            .unwrap_or(Ordering::Equal)
            .then(self.1.cmp(&o.1))
    }
}

/// Result of one coarsening step.
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// The coarse graph.
    pub graph: Graph,
    /// `map[v]` = coarse node containing fine node `v`.
    pub map: Vec<u32>,
    /// Coarse node weights (sums of merged fine weights).
    pub node_w: Vec<f64>,
}

/// Weight-aware heavy-edge matching coarsening: visit nodes in a random
/// order, match each unmatched node with its unmatched neighbour of
/// maximum edge weight, and contract matched pairs — but only when the
/// merged node weight stays within `max_node_w`, so contracted nodes never
/// outgrow a capacity bound the caller must respect downstream (the
/// multilevel placement front-end uses the leaf capacity `CP(1) = 1`).
/// Nodes whose every heavy neighbour would overflow the bound stay
/// unmatched and survive to the coarse graph unchanged, which makes the
/// ladder stall — rather than violate the bound — on graphs of
/// near-capacity nodes.
///
/// This is the allocating front end of the matcher the bisection engine
/// runs (with an infinite cap) on every level of its ladder.
pub fn coarsen_capped<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    max_node_w: f64,
    rng: &mut R,
) -> Coarsening {
    let mut level = LevelScratch::default();
    let mut builder = GraphBuilder::with_edge_capacity(0, g.num_edges());
    coarsen_capped_into(
        g,
        node_w,
        max_node_w,
        rng,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut builder,
        &mut level,
    );
    let LevelScratch {
        graph, map, node_w, ..
    } = level;
    Coarsening { graph, map, node_w }
}

/// Size-constrained label-propagation clustering coarsening (the KaHIP
/// social-network recipe of Meyerhenke–Sanders–Schulz): every node starts
/// as its own cluster, then for `rounds` rounds each node — visited in a
/// random order — moves to the neighbouring cluster with the largest total
/// incident edge weight whose node weight stays within `max_node_w`.
/// Surviving clusters are contracted exactly like a matching step.
///
/// Pairwise heavy-edge matching shrinks a graph by at most 2× per level
/// and tears hub-and-spoke neighbourhoods apart one pair at a time; label
/// propagation contracts a whole hub with its spokes in one move, which is
/// what makes multilevel schemes work on power-law graphs. Clustering
/// stops early once the live cluster count reaches `min_clusters`, so a
/// ladder can bound its per-level shrink factor and keep intermediate
/// resolutions for refinement.
pub fn coarsen_lp<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    max_node_w: f64,
    min_clusters: usize,
    rounds: usize,
    rng: &mut R,
) -> Coarsening {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    assert!(max_node_w > 0.0, "max_node_w must be positive");
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut cluster_w: Vec<f64> = node_w.to_vec();
    let mut live = n;
    let mut order: Vec<usize> = (0..n).collect();
    // dense per-label accumulator plus a touched list keeps each visit
    // O(deg) and — unlike a hash map — deterministic to iterate
    let mut acc = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    'rounds: for _ in 0..rounds {
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut moved = false;
        for &v in &order {
            if live <= min_clusters {
                break 'rounds;
            }
            let lv = label[v];
            touched.clear();
            for (u, w, _) in g.neighbors(NodeId(v as u32)) {
                let l = label[u.index()];
                if acc[l as usize] == 0.0 {
                    touched.push(l);
                }
                acc[l as usize] += w;
            }
            let stay = acc[lv as usize];
            let mut best = (stay, lv);
            for &l in &touched {
                let w = acc[l as usize];
                // strict improvement plus a smallest-label tie-break keeps
                // the sweep deterministic and oscillation-free
                if l != lv
                    && cluster_w[l as usize] + node_w[v] <= max_node_w + 1e-12
                    && (w > best.0 + 1e-12 || (w > best.0 - 1e-12 && l < best.1 && best.1 != lv))
                {
                    best = (w, l);
                }
            }
            for &l in &touched {
                acc[l as usize] = 0.0;
            }
            if best.1 != lv && best.0 > stay + 1e-12 {
                cluster_w[lv as usize] -= node_w[v];
                cluster_w[best.1 as usize] += node_w[v];
                if cluster_w[lv as usize] <= 1e-12 {
                    live -= 1;
                }
                label[v] = best.1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    // compact cluster ids in first-appearance order, then contract
    let mut map = vec![u32::MAX; n];
    let mut remap = vec![u32::MAX; n];
    let mut coarse_w = Vec::new();
    for v in 0..n {
        let l = label[v] as usize;
        if remap[l] == u32::MAX {
            remap[l] = coarse_w.len() as u32;
            coarse_w.push(0.0);
        }
        map[v] = remap[l];
        coarse_w[remap[l] as usize] += node_w[v];
    }
    let mut b = GraphBuilder::with_edge_capacity(coarse_w.len(), g.num_edges());
    for (_, u, v, w) in g.edges() {
        let (cu, cv) = (map[u.index()], map[v.index()]);
        if cu != cv {
            b.add_edge(NodeId(cu), NodeId(cv), w);
        }
    }
    Coarsening {
        graph: b.build(),
        map,
        node_w: coarse_w,
    }
}

/// Options for [`multilevel_bisection`].
#[derive(Clone, Copy, Debug)]
pub struct BisectOpts {
    /// Fraction of total node weight targeted for side 0 (e.g. 0.5).
    pub target0_frac: f64,
    /// Allowed multiplicative imbalance: each side may carry up to
    /// `(1 + eps) ×` its target weight.
    pub eps: f64,
    /// Maximum FM passes per level.
    pub fm_passes: usize,
    /// Number of random initial growings tried on the coarsest graph.
    pub tries: usize,
    /// Stop coarsening below this many nodes.
    pub coarsen_until: usize,
    /// Skip FM refinement entirely (ablation A2).
    pub no_refine: bool,
}

impl Default for BisectOpts {
    fn default() -> Self {
        Self {
            target0_frac: 0.5,
            eps: 0.10,
            fm_passes: 6,
            tries: 4,
            coarsen_until: 48,
            no_refine: false,
        }
    }
}

/// Cut weight and per-side node weights of a bisection whose `side`
/// vector lives in a caller-supplied buffer.
#[derive(Clone, Copy, Debug)]
pub struct SideStats {
    /// Total weight of edges crossing the partition.
    pub cut: f64,
    /// Total node weight on side 0.
    pub weight0: f64,
    /// Total node weight on side 1.
    pub weight1: f64,
}

#[derive(Debug, Default)]
struct FmScratch {
    gain: Vec<f64>,
    moved: Vec<bool>,
    history: Vec<u32>,
    heap_buf: Vec<Cand>,
}

#[derive(Debug, Default)]
struct GrowScratch {
    attraction: Vec<f64>,
    in0: Vec<bool>,
    heap_buf: Vec<Cand>,
}

#[derive(Debug, Default)]
struct LevelScratch {
    graph: Graph,
    map: Vec<u32>,
    node_w: Vec<f64>,
    side: Vec<bool>,
}

/// Reusable buffers for [`multilevel_bisection`] and [`fm_refine`].
///
/// One scratch serves any sequence of bisections of any sizes — the
/// decomposition-tree recursion performs thousands per tree, and a k-way
/// partition one per part — and reusing this arena instead of allocating
/// per call is what removes the bisection's allocator traffic. A scratch
/// is an *allocation* cache, never a *value* cache: it carries no
/// information between calls that could influence an output.
#[derive(Debug, Default)]
pub struct BisectScratch {
    fm: FmScratch,
    grow: GrowScratch,
    // coarsening ladder: levels[d] holds the graph at depth d+1 plus the
    // map from depth-d node ids and the side vector being refined there
    levels: Vec<LevelScratch>,
    caps: Vec<(f64, f64, f64)>, // (target0, cap0, cap1) per level
    order: Vec<usize>,
    mate: Vec<u32>,
    builder: GraphBuilder,
    cand_side: Vec<bool>,
    best_side: Vec<bool>,
}

impl BisectScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

// One Fiduccia–Mattheyses pass with rollback to the best prefix: moves
// nodes (each at most once) between sides in order of decreasing gain,
// subject to the side capacities `cap0`/`cap1` (maximum node weight per
// side), then rewinds to the prefix with the smallest cut seen. Returns
// the cut improvement (≥ 0); `side` is updated in place.
fn fm_pass_with(
    g: &Graph,
    node_w: &[f64],
    side: &mut [bool],
    cap0: f64,
    cap1: f64,
    s: &mut FmScratch,
) -> f64 {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    assert_eq!(side.len(), n);
    let FmScratch {
        gain,
        moved,
        history,
        heap_buf,
    } = s;

    gain.clear();
    gain.resize(n, 0.0);
    for (_, u, v, w) in g.edges() {
        if side[u.index()] != side[v.index()] {
            gain[u.index()] += w;
            gain[v.index()] += w;
        } else {
            gain[u.index()] -= w;
            gain[v.index()] -= w;
        }
    }
    let mut w0 = 0.0;
    let mut w1 = 0.0;
    for v in 0..n {
        if side[v] {
            w1 += node_w[v];
        } else {
            w0 += node_w[v];
        }
    }

    heap_buf.clear();
    heap_buf.extend((0..n).map(|v| Cand(gain[v], v as u32)));
    let mut heap = BinaryHeap::from(std::mem::take(heap_buf));
    moved.clear();
    moved.resize(n, false);
    history.clear();
    let mut cum = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0usize;

    while let Some(Cand(gn, v)) = heap.pop() {
        let v = v as usize;
        if moved[v] || (gn - gain[v]).abs() > 1e-12 {
            continue; // stale entry
        }
        let fits = if side[v] {
            w0 + node_w[v] <= cap0
        } else {
            w1 + node_w[v] <= cap1
        };
        if !fits {
            continue; // cannot move v this pass
        }
        moved[v] = true;
        history.push(v as u32);
        cum += gain[v];
        if side[v] {
            w1 -= node_w[v];
            w0 += node_w[v];
        } else {
            w0 -= node_w[v];
            w1 += node_w[v];
        }
        side[v] = !side[v];
        for (u, w, _) in g.neighbors(NodeId(v as u32)) {
            let u = u.index();
            if moved[u] {
                continue;
            }
            if side[u] == side[v] {
                gain[u] -= 2.0 * w;
            } else {
                gain[u] += 2.0 * w;
            }
            heap.push(Cand(gain[u], u as u32));
        }
        if cum > best_cum + 1e-12 {
            best_cum = cum;
            best_len = history.len();
        }
    }

    for &v in history[best_len..].iter().rev() {
        side[v as usize] = !side[v as usize];
    }
    *heap_buf = heap.into_vec();
    heap_buf.clear();
    best_cum
}

// `fm_refine` on the FM buffers alone, for the engine, which holds the
// rest of the scratch borrowed.
fn fm_refine_with(
    g: &Graph,
    node_w: &[f64],
    side: &mut [bool],
    cap0: f64,
    cap1: f64,
    max_passes: usize,
    s: &mut FmScratch,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..max_passes {
        let imp = fm_pass_with(g, node_w, side, cap0, cap1, s);
        total += imp;
        if imp <= 1e-12 {
            break;
        }
    }
    total
}

/// Repeated Fiduccia–Mattheyses passes over a given bisection until a pass
/// yields no improvement (or `max_passes`). Each pass moves nodes (each at
/// most once) between sides in order of decreasing gain, subject to the
/// side capacities `cap0`/`cap1` (maximum node weight per side), and
/// rewinds to the prefix with the smallest cut seen. `side` is updated in
/// place; returns the total cut improvement (≥ 0).
pub fn fm_refine(
    g: &Graph,
    node_w: &[f64],
    side: &mut [bool],
    cap0: f64,
    cap1: f64,
    max_passes: usize,
    scratch: &mut BisectScratch,
) -> f64 {
    fm_refine_with(g, node_w, side, cap0, cap1, max_passes, &mut scratch.fm)
}

// Greedy BFS growing into `side`: grow side 0 from `seed` by repeatedly
// absorbing the frontier node with the largest attraction (edge weight
// into side 0) until side 0's node weight reaches `target0`. Remaining
// nodes form side 1.
fn grow_bisection_into(
    g: &Graph,
    node_w: &[f64],
    target0: f64,
    seed: NodeId,
    side: &mut Vec<bool>,
    s: &mut GrowScratch,
) {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    side.clear();
    side.resize(n, true); // everything starts on side 1
    let GrowScratch {
        attraction,
        in0,
        heap_buf,
    } = s;
    attraction.clear();
    attraction.resize(n, 0.0);
    in0.clear();
    in0.resize(n, false);
    heap_buf.clear();
    let mut heap = BinaryHeap::from(std::mem::take(heap_buf));
    let mut w0 = 0.0;
    let absorb = |v: usize,
                  heap: &mut BinaryHeap<Cand>,
                  in0: &mut Vec<bool>,
                  side: &mut Vec<bool>,
                  attraction: &mut Vec<f64>,
                  w0: &mut f64| {
        in0[v] = true;
        side[v] = false;
        *w0 += node_w[v];
        for (u, w, _) in g.neighbors(NodeId(v as u32)) {
            if !in0[u.index()] {
                attraction[u.index()] += w;
                heap.push(Cand(attraction[u.index()], u.0));
            }
        }
    };

    absorb(seed.index(), &mut heap, in0, side, attraction, &mut w0);
    while w0 < target0 {
        // pull the best still-valid candidate; fall back to any unabsorbed node
        let next = loop {
            match heap.pop() {
                Some(Cand(a, v)) => {
                    let v = v as usize;
                    if !in0[v] && (a - attraction[v]).abs() < 1e-12 {
                        break Some(v);
                    }
                }
                None => break None,
            }
        };
        let v = match next.or_else(|| (0..n).find(|&v| !in0[v])) {
            Some(v) => v,
            None => break, // everything absorbed
        };
        absorb(v, &mut heap, in0, side, attraction, &mut w0);
    }
    *heap_buf = heap.into_vec();
    heap_buf.clear();
}

// Heavy-edge matching into a ladder level's reusable buffers: visit nodes
// in a random order, match each unmatched node with its unmatched
// neighbour of maximum edge weight whose merged node weight stays within
// `max_node_w`, and contract matched pairs. The bisection engine passes an
// infinite cap, which every pair of finite weights meets; the cap test
// comes last so that it costs an addition only for a heavier neighbour.
#[allow(clippy::too_many_arguments)]
fn coarsen_capped_into<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    max_node_w: f64,
    rng: &mut R,
    order: &mut Vec<usize>,
    mate: &mut Vec<u32>,
    builder: &mut GraphBuilder,
    out: &mut LevelScratch,
) {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    assert!(max_node_w > 0.0, "max_node_w must be positive");
    order.clear();
    order.extend(0..n);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    mate.clear();
    mate.resize(n, u32::MAX);
    for &v in order.iter() {
        if mate[v] != u32::MAX {
            continue;
        }
        let mut best = u32::MAX;
        let mut best_w = f64::NEG_INFINITY;
        for (u, w, _) in g.neighbors(NodeId(v as u32)) {
            if mate[u.index()] == u32::MAX
                && u.index() != v
                && w > best_w
                && node_w[v] + node_w[u.index()] <= max_node_w
            {
                best_w = w;
                best = u.0;
            }
        }
        if best != u32::MAX {
            mate[v] = best;
            mate[best as usize] = v as u32;
        } else {
            mate[v] = v as u32; // matched with itself
        }
    }
    // assign coarse ids
    out.map.clear();
    out.map.resize(n, u32::MAX);
    out.node_w.clear();
    for v in 0..n {
        if out.map[v] != u32::MAX {
            continue;
        }
        let id = out.node_w.len() as u32;
        let m = mate[v] as usize;
        out.map[v] = id;
        let mut w = node_w[v];
        if m != v {
            out.map[m] = id;
            w += node_w[m];
        }
        out.node_w.push(w);
    }
    builder.reset(out.node_w.len());
    for (_, u, v, w) in g.edges() {
        let (cu, cv) = (out.map[u.index()], out.map[v.index()]);
        if cu != cv {
            builder.add_edge(NodeId(cu), NodeId(cv), w);
        }
    }
    builder.build_into(&mut out.graph);
}

// Randomised initial bisection into `out`: `opts.tries` greedy growings
// from random seeds, each FM-refined, keeping the smallest cut.
#[allow(clippy::too_many_arguments)]
fn initial_bisection_into<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    target0: f64,
    cap0: f64,
    cap1: f64,
    opts: &BisectOpts,
    rng: &mut R,
    fm: &mut FmScratch,
    grow: &mut GrowScratch,
    cand: &mut Vec<bool>,
    best: &mut Vec<bool>,
    out: &mut Vec<bool>,
) {
    let n = g.num_nodes();
    if n <= 1 {
        // degenerate: nothing to split — everything (if anything) on side 0
        out.clear();
        out.resize(n, false);
        return;
    }
    let mut best_cut = f64::INFINITY;
    for t in 0..opts.tries.max(1) {
        let seed = NodeId(rng.gen_range(0..n as u32));
        grow_bisection_into(g, node_w, target0, seed, cand, grow);
        if !opts.no_refine {
            fm_refine_with(g, node_w, cand, cap0, cap1, opts.fm_passes, fm);
        }
        let c = g.cut_weight(cand);
        // seeding with the first try keeps this total: NaN cuts (from
        // pathological weights) can never talk us out of every candidate
        if t == 0 || c < best_cut {
            best_cut = c;
            std::mem::swap(cand, best);
        }
    }
    out.clear();
    out.extend_from_slice(best);
}

/// Multilevel balanced bisection: coarsen by heavy-edge matching, grow an
/// initial partition on the coarsest graph, then project back up refining
/// with FM at every level. Deterministic given the RNG state.
///
/// The side vector lands in `out_side` (`false` = side 0) and every
/// intermediate buffer (ladder graphs, FM heaps, growth frontiers) comes
/// from `scratch`, reused across calls. The V-cycle is an explicit loop:
/// coarsen down until a level has at most `opts.coarsen_until` nodes or
/// stalls, bisect the coarsest level, then project and refine back up. It
/// reproduces the recursive allocating formulation that is kept as a test
/// oracle bit for bit: side vector, cut, side weights and RNG draws.
///
/// Total on degenerate inputs: an empty graph yields the empty bisection
/// (zero cut, zero weights) and a single node lands on side 0.
pub fn multilevel_bisection<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    opts: &BisectOpts,
    rng: &mut R,
    scratch: &mut BisectScratch,
    out_side: &mut Vec<bool>,
) -> SideStats {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    out_side.clear();
    if n == 0 {
        // `cut_weight` of an edgeless side is an empty f64 sum, i.e. -0.0;
        // go through it so the bits match every other cut
        return SideStats {
            cut: g.cut_weight(out_side),
            weight0: 0.0,
            weight1: 0.0,
        };
    }
    let BisectScratch {
        fm,
        grow,
        levels,
        caps,
        order,
        mate,
        builder,
        cand_side,
        best_side,
    } = scratch;
    caps.clear();

    // downward pass: coarsen until the size threshold or a stall
    let mut d = 0usize;
    loop {
        let (n_d, total) = if d == 0 {
            (n, node_w.iter().sum::<f64>())
        } else {
            let l = &levels[d - 1];
            (l.graph.num_nodes(), l.node_w.iter().sum::<f64>())
        };
        let target0 = opts.target0_frac * total;
        let cap0 = target0 * (1.0 + opts.eps);
        let cap1 = (total - target0) * (1.0 + opts.eps);
        caps.push((target0, cap0, cap1));

        if n_d <= opts.coarsen_until.max(2) {
            break;
        }
        if levels.len() == d {
            levels.push(LevelScratch::default());
        }
        let (lo, hi) = levels.split_at_mut(d);
        let (cur_g, cur_w): (&Graph, &[f64]) = if d == 0 {
            (g, node_w)
        } else {
            (&lo[d - 1].graph, &lo[d - 1].node_w)
        };
        coarsen_capped_into(
            cur_g,
            cur_w,
            f64::INFINITY,
            rng,
            order,
            mate,
            builder,
            &mut hi[0],
        );
        if hi[0].graph.num_nodes() as f64 > 0.95 * n_d as f64 {
            // coarsening stalled (e.g. star graphs): solve level d directly
            // (the stalled level has consumed its RNG draws all the same)
            break;
        }
        d += 1;
    }

    // initial bisection on the coarsest retained level
    {
        let (target0, cap0, cap1) = caps[d];
        if d == 0 {
            initial_bisection_into(
                g, node_w, target0, cap0, cap1, opts, rng, fm, grow, cand_side, best_side, out_side,
            );
        } else {
            let LevelScratch {
                graph,
                node_w: lw,
                side,
                ..
            } = &mut levels[d - 1];
            initial_bisection_into(
                graph, lw, target0, cap0, cap1, opts, rng, fm, grow, cand_side, best_side, side,
            );
        }
    }

    // upward pass: project each coarse side one level down and FM-refine
    for lv in (0..d).rev() {
        let (lo, hi) = levels.split_at_mut(lv);
        let coarse = &hi[0]; // level lv+1: its side and the map from lv
        let (fine_g, fine_w, fine_side): (&Graph, &[f64], &mut Vec<bool>) = if lv == 0 {
            (g, node_w, &mut *out_side)
        } else {
            let LevelScratch {
                graph,
                node_w: lw,
                side,
                ..
            } = &mut lo[lv - 1];
            (&*graph, &lw[..], side)
        };
        fine_side.clear();
        fine_side.extend(coarse.map.iter().map(|&m| coarse.side[m as usize]));
        if !opts.no_refine {
            let (_, cap0, cap1) = caps[lv];
            fm_refine_with(fine_g, fine_w, fine_side, cap0, cap1, opts.fm_passes, fm);
        }
    }

    // stats of the level-0 side
    let cut = g.cut_weight(out_side);
    let mut w0 = 0.0;
    let mut w1 = 0.0;
    for (v, &s) in out_side.iter().enumerate() {
        if s {
            w1 += node_w[v];
        } else {
            w0 += node_w[v];
        }
    }
    SideStats {
        cut,
        weight0: w0,
        weight1: w1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // The engine's bisection of `g` as an owned side plus its stats.
    fn bisect(g: &Graph, w: &[f64], opts: &BisectOpts, rng: &mut StdRng) -> (Vec<bool>, SideStats) {
        let mut side = Vec::new();
        let stats = multilevel_bisection(g, w, opts, rng, &mut BisectScratch::new(), &mut side);
        (side, stats)
    }

    #[test]
    fn degenerate_graphs_bisect_without_panicking() {
        let mut rng = StdRng::seed_from_u64(5);
        let empty = Graph::from_edges(0, &[]);
        let (side, b) = bisect(&empty, &[], &BisectOpts::default(), &mut rng);
        assert!(side.is_empty());
        assert_eq!(b.cut, 0.0);

        let single = Graph::from_edges(1, &[]);
        let (side, b) = bisect(&single, &[1.0], &BisectOpts::default(), &mut rng);
        assert_eq!(side, vec![false]);
        assert_eq!(b.weight0, 1.0);

        // zero tries must still produce a bisection (documented fallback)
        let pair = Graph::from_edges(2, &[(0, 1, 1.0)]);
        let opts = BisectOpts {
            tries: 0,
            ..Default::default()
        };
        let (side, _) = bisect(&pair, &[1.0, 1.0], &opts, &mut rng);
        assert_eq!(side.len(), 2);
    }

    #[test]
    fn grow_reaches_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::grid2d(&mut rng, 6, 6, 1.0, 1.0);
        let w = vec![1.0; 36];
        let mut side = Vec::new();
        grow_bisection_into(
            &g,
            &w,
            18.0,
            NodeId(0),
            &mut side,
            &mut GrowScratch::default(),
        );
        let weight0: f64 = (0..36).filter(|&v| !side[v]).map(|v| w[v]).sum();
        assert!(weight0 >= 18.0);
        assert!(weight0 <= 19.0 + 1e-9); // one node overshoot max
    }

    #[test]
    fn fm_improves_a_bad_split() {
        // dumbbell: two K4's joined by a weak edge; start from a bad split
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v, 10.0));
                edges.push((u + 4, v + 4, 10.0));
            }
        }
        edges.push((3, 4, 1.0));
        let g = Graph::from_edges(8, &edges);
        let w = vec![1.0; 8];
        // bad split: {0,1,4,5} vs {2,3,6,7}
        let mut side = vec![false, false, true, true, false, false, true, true];
        let before = g.cut_weight(&side);
        // caps allow one node of slack per side, as real callers always do
        fm_refine(&g, &w, &mut side, 5.0, 5.0, 8, &mut BisectScratch::new());
        let after = g.cut_weight(&side);
        assert!(after < before);
        assert!(
            (after - 1.0).abs() < 1e-9,
            "should find the bridge cut, got {after}"
        );
    }

    #[test]
    fn fm_respects_capacity() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp_connected(&mut rng, 20, 0.3, 1.0, 2.0);
        let w: Vec<f64> = (0..20).map(|_| rng.gen_range(0.5..1.5)).collect();
        let mut side: Vec<bool> = (0..20).map(|v| v % 2 == 0).collect();
        let cap = 0.6 * w.iter().sum::<f64>();
        fm_refine(&g, &w, &mut side, cap, cap, 6, &mut BisectScratch::new());
        let w1: f64 = (0..20).filter(|&v| side[v]).map(|v| w[v]).sum();
        let w0: f64 = w.iter().sum::<f64>() - w1;
        assert!(w0 <= cap + 1e-9);
        assert!(w1 <= cap + 1e-9);
    }

    #[test]
    fn coarsen_preserves_totals() {
        // the bisection ladder's matcher: no weight cap
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp_connected(&mut rng, 40, 0.15, 1.0, 3.0);
        let w = vec![1.0; 40];
        let c = coarsen_capped(&g, &w, f64::INFINITY, &mut rng);
        assert!(c.graph.num_nodes() < 40);
        assert!((c.node_w.iter().sum::<f64>() - 40.0).abs() < 1e-9);
        // each coarse node holds 1 or 2 fine nodes
        let mut counts = vec![0usize; c.graph.num_nodes()];
        for &m in &c.map {
            counts[m as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn coarsen_capped_respects_the_weight_bound() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp_connected(&mut rng, 60, 0.12, 1.0, 3.0);
        let w: Vec<f64> = (0..60).map(|_| rng.gen_range(0.2..0.9)).collect();
        let total: f64 = w.iter().sum();
        let c = coarsen_capped(&g, &w, 1.0, &mut rng);
        assert!((c.node_w.iter().sum::<f64>() - total).abs() < 1e-9);
        assert!(
            c.node_w.iter().all(|&cw| cw <= 1.0 + 1e-12),
            "a merged node exceeded the cap: {:?}",
            c.node_w.iter().cloned().fold(f64::MIN, f64::max)
        );
        // near-capacity nodes cannot merge at all: the ladder stalls
        // instead of overflowing
        let heavy = vec![0.9; 60];
        let c = coarsen_capped(&g, &heavy, 1.0, &mut rng);
        assert_eq!(c.graph.num_nodes(), 60);
        assert!(c.node_w.iter().all(|&cw| (cw - 0.9).abs() < 1e-12));
    }

    #[test]
    fn coarsen_lp_clusters_within_the_weight_bound() {
        let mut rng = StdRng::seed_from_u64(11);
        // hub-and-spoke: the structure pairwise matching handles worst
        let g = generators::barabasi_albert(&mut rng, 400, 2, 0.5, 2.0);
        let w: Vec<f64> = (0..400).map(|_| rng.gen_range(0.005..0.02)).collect();
        let total: f64 = w.iter().sum();
        let c = coarsen_lp(&g, &w, 0.2, 16, 3, &mut rng);
        assert!((c.node_w.iter().sum::<f64>() - total).abs() < 1e-9);
        assert!(
            c.node_w.iter().all(|&cw| cw <= 0.2 + 1e-9),
            "a cluster outgrew the cap: {}",
            c.node_w.iter().cloned().fold(f64::MIN, f64::max)
        );
        // label propagation shrinks a power-law graph far faster than the
        // ~2x of a matching, but never past the requested floor
        assert!(c.graph.num_nodes() >= 16);
        assert!(c.graph.num_nodes() < 200, "lp barely coarsened");
        // every fine node maps to a live coarse id
        assert!(c.map.iter().all(|&m| (m as usize) < c.graph.num_nodes()));
        // same seed, same ladder: the clustering sweep is deterministic
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut rng2 = StdRng::seed_from_u64(77);
        let a = coarsen_lp(&g, &w, 0.2, 16, 3, &mut rng1);
        let b = coarsen_lp(&g, &w, 0.2, 16, 3, &mut rng2);
        assert_eq!(a.map, b.map);
    }

    #[test]
    fn multilevel_finds_planted_cut() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::planted_clusters(&mut rng, 2, 30, 0.4, 5.0, 0.02, 0.2);
        let w = vec![1.0; 60];
        let (_, b) = bisect(&g, &w, &BisectOpts::default(), &mut rng);
        // planted cut weight
        let part: Vec<bool> = (0..60).map(|v| v >= 30).collect();
        let planted = g.cut_weight(&part);
        assert!(
            b.cut <= 1.5 * planted,
            "multilevel cut {} far from planted {}",
            b.cut,
            planted
        );
        assert!(b.weight0 <= 33.1 && b.weight1 <= 33.1, "balance violated");
    }

    #[test]
    fn multilevel_handles_tiny_graphs() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]);
        let w = vec![1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(6);
        let (side, _) = bisect(&g, &w, &BisectOpts::default(), &mut rng);
        assert_ne!(side[0], side[1]);
    }

    #[test]
    fn unbalanced_target_fraction() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::grid2d(&mut rng, 8, 8, 1.0, 1.0);
        let w = vec![1.0; 64];
        let opts = BisectOpts {
            target0_frac: 0.25,
            ..Default::default()
        };
        let (_, b) = bisect(&g, &w, &opts, &mut rng);
        assert!(b.weight0 <= 0.25 * 64.0 * 1.1 + 1.0);
        assert!(
            b.weight0 >= 8.0,
            "side 0 should be non-trivial, got {}",
            b.weight0
        );
    }
}
