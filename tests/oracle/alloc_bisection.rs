//! The allocating multilevel bisection that `hgp_graph::partition` ran
//! before its scratch-backed engine: a recursive V-cycle that allocates a
//! fresh coarse graph per level, and a greedy grower, FM pass and
//! heavy-edge matcher that each allocate their own buffers and return a
//! full [`Bisection`] record. `hgp_graph::partition::multilevel_bisection`
//! must reproduce [`multilevel_bisection`] bit for bit — side, cut, side
//! weights and the RNG draws consumed — and `tests/determinism.rs` checks
//! that it does.

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here
use hgp::graph::partition::{BisectOpts, Coarsening};
use hgp::graph::{Graph, GraphBuilder, NodeId};
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// Max-heap candidate ordered by key then node id — shared by the greedy
// grower and the FM pass, which must pop in exactly the engine's order.
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

/// Result of a two-way partition: `side[v]` is `false` for side 0, `true`
/// for side 1.
#[derive(Clone, Debug)]
pub struct Bisection {
    /// Side of each node (`false` = side 0).
    pub side: Vec<bool>,
    /// Total weight of edges crossing the partition.
    pub cut: f64,
    /// Total node weight on side 0.
    pub weight0: f64,
    /// Total node weight on side 1.
    pub weight1: f64,
}

impl Bisection {
    fn from_side(g: &Graph, node_w: &[f64], side: Vec<bool>) -> Self {
        let cut = g.cut_weight(&side);
        let mut w0 = 0.0;
        let mut w1 = 0.0;
        for (v, &s) in side.iter().enumerate() {
            if s {
                w1 += node_w[v];
            } else {
                w0 += node_w[v];
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

/// Greedy BFS growing: grow side 0 from `seed` by repeatedly absorbing the
/// frontier node with the largest attraction (edge weight into side 0) until
/// side 0's node weight reaches `target0`. Remaining nodes form side 1.
pub fn grow_bisection(g: &Graph, node_w: &[f64], target0: f64, seed: NodeId) -> Bisection {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    let mut side = vec![true; n]; // everything starts on side 1
    let mut attraction = vec![0f64; n];
    let mut in0 = vec![false; n];

    let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
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

    absorb(
        seed.index(),
        &mut heap,
        &mut in0,
        &mut side,
        &mut attraction,
        &mut w0,
    );
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
        absorb(v, &mut heap, &mut in0, &mut side, &mut attraction, &mut w0);
    }
    Bisection::from_side(g, node_w, side)
}

/// One Fiduccia–Mattheyses pass with rollback to the best prefix.
///
/// Moves nodes (each at most once) between sides in order of decreasing
/// gain, subject to side capacities `cap0`/`cap1` (maximum allowed node
/// weight per side), then rewinds to the prefix with the smallest cut seen.
/// Returns the cut improvement (≥ 0). `side` is updated in place.
pub fn fm_pass(g: &Graph, node_w: &[f64], side: &mut [bool], cap0: f64, cap1: f64) -> f64 {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    assert_eq!(side.len(), n);

    // gain[v] = external weight - internal weight (cut reduction if moved)
    let mut gain = vec![0f64; n];
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

    let mut heap: BinaryHeap<Cand> = (0..n).map(|v| Cand(gain[v], v as u32)).collect();
    let mut moved = vec![false; n];
    let mut history: Vec<u32> = Vec::new();
    let mut cum = 0.0;
    let mut best_cum = 0.0;
    let mut best_len = 0usize;

    while let Some(Cand(gn, v)) = heap.pop() {
        let v = v as usize;
        if moved[v] || (gn - gain[v]).abs() > 1e-12 {
            continue; // stale entry
        }
        // capacity check: moving v to the opposite side
        let fits = if side[v] {
            w0 + node_w[v] <= cap0
        } else {
            w1 + node_w[v] <= cap1
        };
        if !fits {
            continue; // cannot move v this pass
        }
        // execute the move
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
            // v changed sides: if u is now on the same side as v, the edge
            // became internal (u's gain -= 2w), else external (gain += 2w)
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

    // rollback moves after the best prefix
    for &v in history[best_len..].iter().rev() {
        side[v as usize] = !side[v as usize];
    }
    best_cum
}

/// Repeated FM passes until a pass yields no improvement (or `max_passes`).
/// Returns the total improvement.
pub fn fm_refine(
    g: &Graph,
    node_w: &[f64],
    side: &mut [bool],
    cap0: f64,
    cap1: f64,
    max_passes: usize,
) -> f64 {
    let mut total = 0.0;
    for _ in 0..max_passes {
        let imp = fm_pass(g, node_w, side, cap0, cap1);
        total += imp;
        if imp <= 1e-12 {
            break;
        }
    }
    total
}

/// Heavy-edge matching coarsening: visit nodes in a random order, match each
/// unmatched node with its unmatched neighbour of maximum edge weight, and
/// contract matched pairs.
pub fn coarsen<R: Rng + ?Sized>(g: &Graph, node_w: &[f64], rng: &mut R) -> Coarsening {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut mate = vec![u32::MAX; n];
    for &v in &order {
        if mate[v] != u32::MAX {
            continue;
        }
        let mut best = u32::MAX;
        let mut best_w = f64::NEG_INFINITY;
        for (u, w, _) in g.neighbors(NodeId(v as u32)) {
            if mate[u.index()] == u32::MAX && u.index() != v && w > best_w {
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
    let mut map = vec![u32::MAX; n];
    let mut coarse_w = Vec::new();
    for v in 0..n {
        if map[v] != u32::MAX {
            continue;
        }
        let id = coarse_w.len() as u32;
        let m = mate[v] as usize;
        map[v] = id;
        let mut w = node_w[v];
        if m != v {
            map[m] = id;
            w += node_w[m];
        }
        coarse_w.push(w);
    }
    let mut b = GraphBuilder::new(coarse_w.len());
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

/// Multilevel balanced bisection: coarsen by heavy-edge matching, grow an
/// initial partition on the coarsest graph, then project back up refining
/// with FM at every level. Deterministic given the RNG state.
///
/// Total on degenerate inputs: an empty graph yields the empty bisection
/// (zero cut, zero weights) and a single node lands on side 0.
pub fn multilevel_bisection<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    opts: &BisectOpts,
    rng: &mut R,
) -> Bisection {
    let n = g.num_nodes();
    assert_eq!(node_w.len(), n);
    if n == 0 {
        return Bisection::from_side(g, node_w, Vec::new());
    }
    let total: f64 = node_w.iter().sum();
    let target0 = opts.target0_frac * total;
    let cap0 = target0 * (1.0 + opts.eps);
    let cap1 = (total - target0) * (1.0 + opts.eps);

    if n <= opts.coarsen_until.max(2) {
        return initial_bisection(g, node_w, target0, cap0, cap1, opts, rng);
    }

    let c = coarsen(g, node_w, rng);
    if c.graph.num_nodes() as f64 > 0.95 * n as f64 {
        // coarsening stalled (e.g. star graphs): solve directly
        return initial_bisection(g, node_w, target0, cap0, cap1, opts, rng);
    }
    let coarse = multilevel_bisection(&c.graph, &c.node_w, opts, rng);
    // project
    let mut side = vec![false; n];
    for v in 0..n {
        side[v] = coarse.side[c.map[v] as usize];
    }
    if !opts.no_refine {
        fm_refine(g, node_w, &mut side, cap0, cap1, opts.fm_passes);
    }
    Bisection::from_side(g, node_w, side)
}

fn initial_bisection<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    target0: f64,
    cap0: f64,
    cap1: f64,
    opts: &BisectOpts,
    rng: &mut R,
) -> Bisection {
    let n = g.num_nodes();
    if n <= 1 {
        // degenerate: nothing to split — everything (if anything) on side 0
        return Bisection::from_side(g, node_w, vec![false; n]);
    }
    let one_try = |rng: &mut R| {
        let seed = NodeId(rng.gen_range(0..n as u32));
        let mut b = grow_bisection(g, node_w, target0, seed);
        if !opts.no_refine {
            fm_refine(g, node_w, &mut b.side, cap0, cap1, opts.fm_passes);
            b = Bisection::from_side(g, node_w, b.side);
        }
        b
    };
    // seeding with the first try keeps this total: NaN cuts (from
    // pathological weights) can never talk us out of every candidate
    let mut best = one_try(rng);
    for _ in 1..opts.tries.max(1) {
        let b = one_try(rng);
        if b.cut < best.cut {
            best = b;
        }
    }
    best
}
