//! Core weighted undirected graph in CSR form.

use std::fmt;

/// Dense node identifier. Valid ids are `0..graph.num_nodes()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense undirected-edge identifier. Valid ids are `0..graph.num_edges()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node id exceeds u32"))
    }
}

/// Incremental builder for [`Graph`].
///
/// Parallel edges are merged (weights summed) and self-loops are dropped at
/// [`GraphBuilder::build`] time, so generators may add edges freely.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(u32, u32, f64)>,
    // finalisation scratch, reused by `build_into` across calls
    degree: Vec<u32>,
    cursor: Vec<u32>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
            degree: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Creates a builder with the edge buffer pre-sized for `num_edges`
    /// insertions, so bulk construction (generators, coarsening) does not
    /// pay repeated reallocation on million-edge graphs.
    pub fn with_edge_capacity(num_nodes: usize, num_edges: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::with_capacity(num_edges),
            degree: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Resets the builder to an empty edge list over `num_nodes` nodes,
    /// keeping every allocation. Pair with [`GraphBuilder::build_into`] to
    /// construct graphs in a loop without churning the allocator.
    pub fn reset(&mut self, num_nodes: usize) {
        self.num_nodes = num_nodes;
        self.edges.clear();
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Grows the node count to at least `n`.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.num_nodes = self.num_nodes.max(n);
    }

    /// Adds an undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range, or `w` is not finite or is
    /// negative.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(
            u.index() < self.num_nodes,
            "edge endpoint {u:?} out of range"
        );
        assert!(
            v.index() < self.num_nodes,
            "edge endpoint {v:?} out of range"
        );
        assert!(
            w.is_finite() && w >= 0.0,
            "edge weight must be finite and non-negative"
        );
        self.edges.push((u.0, v.0, w));
    }

    /// Finalises the builder into an immutable CSR graph.
    pub fn build(mut self) -> Graph {
        let mut out = Graph::default();
        self.build_into(&mut out);
        out
    }

    /// Scratch-buffer variant of [`GraphBuilder::build`]: finalises the
    /// current edge list into `out`, reusing both the builder's internal
    /// scratch and `out`'s existing allocations. The produced graph is
    /// **bit-identical** to what [`GraphBuilder::build`] would return for
    /// the same inserted edges. The builder's edge list is left normalised
    /// (sorted, loop-free) but otherwise intact; call
    /// [`GraphBuilder::reset`] before reusing it for a new graph.
    pub fn build_into(&mut self, out: &mut Graph) {
        // Normalise endpoints (min, max), drop self loops, merge parallels.
        self.edges.retain(|&(u, v, _)| u != v);
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        out.edges.clear();
        out.edges.reserve(self.edges.len());
        for &(u, v, w) in &self.edges {
            match out.edges.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => out.edges.push((u, v, w)),
            }
        }

        let n = self.num_nodes;
        let m = out.edges.len();
        self.degree.clear();
        self.degree.resize(n, 0);
        for &(u, v, _) in &out.edges {
            self.degree[u as usize] += 1;
            self.degree[v as usize] += 1;
        }
        out.xadj.clear();
        out.xadj.reserve(n + 1);
        out.xadj.push(0u32);
        for d in &self.degree {
            let last = *out.xadj.last().unwrap();
            out.xadj.push(last + d);
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&out.xadj[..n]);
        out.adjncy.clear();
        out.adjncy.resize(2 * m, 0);
        out.adjwgt.clear();
        out.adjwgt.resize(2 * m, 0.0);
        out.adj_eid.clear();
        out.adj_eid.resize(2 * m, 0);
        for (eid, &(u, v, w)) in out.edges.iter().enumerate() {
            let cu = self.cursor[u as usize] as usize;
            out.adjncy[cu] = v;
            out.adjwgt[cu] = w;
            out.adj_eid[cu] = eid as u32;
            self.cursor[u as usize] += 1;
            let cv = self.cursor[v as usize] as usize;
            out.adjncy[cv] = u;
            out.adjwgt[cv] = w;
            out.adj_eid[cv] = eid as u32;
            self.cursor[v as usize] += 1;
        }
        out.total_weight = out.edges.iter().map(|e| e.2).sum();
    }
}

/// Immutable weighted undirected graph in compressed sparse row form.
///
/// The graph is simple: parallel edges have been merged and self-loops
/// removed by the builder. Each undirected edge `{u, v}` is stored once in
/// [`Graph::edges`] (with `u < v`) and appears in the adjacency of both
/// endpoints.
#[derive(Clone, Debug)]
pub struct Graph {
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    adjwgt: Vec<f64>,
    adj_eid: Vec<u32>,
    edges: Vec<(u32, u32, f64)>,
    total_weight: f64,
}

impl Graph {
    /// Builds a graph directly from an edge list over `num_nodes` nodes.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut b = GraphBuilder::new(num_nodes);
        for &(u, v, w) in edges {
            b.add_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of (merged, undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Endpoints and weight of edge `e`, with `u < v`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, f64) {
        let (u, v, w) = self.edges[e.index()];
        (NodeId(u), NodeId(v), w)
    }

    /// Iterator over `(EdgeId, u, v, w)` for every undirected edge.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, f64)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &(u, v, w))| (EdgeId(i as u32), NodeId(u), NodeId(v), w))
    }

    /// Degree (number of distinct neighbours) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.xadj[v.index() + 1] - self.xadj[v.index()]) as usize
    }

    /// Iterator over `(neighbour, weight, edge id)` for node `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64, EdgeId)> + '_ {
        let lo = self.xadj[v.index()] as usize;
        let hi = self.xadj[v.index() + 1] as usize;
        (lo..hi).map(move |i| {
            (
                NodeId(self.adjncy[i]),
                self.adjwgt[i],
                EdgeId(self.adj_eid[i]),
            )
        })
    }

    /// Sum of the weighted degree of `v` (total weight of incident edges).
    pub fn weighted_degree(&self, v: NodeId) -> f64 {
        let lo = self.xadj[v.index()] as usize;
        let hi = self.xadj[v.index() + 1] as usize;
        self.adjwgt[lo..hi].iter().sum()
    }

    /// Total weight of all edges.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Total weight of edges with exactly one endpoint in `side`
    /// (`side[v] == true` meaning `v` is inside the set).
    ///
    /// # Panics
    /// Panics if `side.len() != self.num_nodes()`.
    pub fn cut_weight(&self, side: &[bool]) -> f64 {
        assert_eq!(side.len(), self.num_nodes());
        self.edges
            .iter()
            .filter(|&&(u, v, _)| side[u as usize] != side[v as usize])
            .map(|e| e.2)
            .sum()
    }

    /// Total weight of edges whose endpoints are in different blocks of the
    /// labelling `part` (an arbitrary block id per node).
    pub fn cut_weight_parts(&self, part: &[u32]) -> f64 {
        assert_eq!(part.len(), self.num_nodes());
        self.edges
            .iter()
            .filter(|&&(u, v, _)| part[u as usize] != part[v as usize])
            .map(|e| e.2)
            .sum()
    }

    /// Writes a copy of this graph with every edge weight multiplied by
    /// its `scale` entry into `out`, reusing `out`'s allocations.
    ///
    /// Because this graph is already simple and canonically ordered, the
    /// result is **bit-identical** to rebuilding from scratch through a
    /// [`GraphBuilder`] fed `w * scale[e]` edge weights — the MWU
    /// distribution sampler relies on this to reuse one scaled-graph
    /// buffer across waves instead of reconstructing the CSR every wave.
    ///
    /// # Panics
    /// Panics if `scale.len() != self.num_edges()`.
    pub fn rescale_into(&self, scale: &[f64], out: &mut Graph) {
        assert_eq!(scale.len(), self.num_edges());
        out.xadj.clear();
        out.xadj.extend_from_slice(&self.xadj);
        out.adjncy.clear();
        out.adjncy.extend_from_slice(&self.adjncy);
        out.adj_eid.clear();
        out.adj_eid.extend_from_slice(&self.adj_eid);
        out.edges.clear();
        out.edges.extend(
            self.edges
                .iter()
                .enumerate()
                .map(|(e, &(u, v, w))| (u, v, w * scale[e])),
        );
        out.adjwgt.clear();
        out.adjwgt.extend(
            self.adjwgt
                .iter()
                .zip(&self.adj_eid)
                .map(|(&w, &e)| w * scale[e as usize]),
        );
        out.total_weight = out.edges.iter().map(|e| e.2).sum();
    }

    /// Extracts the subgraph induced by `members` (strictly ascending
    /// original node ids) into `scratch`, reusing its allocations across
    /// calls: the subgraph's node `k` is `members[k]`, and its edges are the
    /// edges of this graph with both endpoints in `members`. The produced
    /// graph is **bit-identical** to building the same edges through a
    /// [`GraphBuilder`].
    ///
    /// No sort is needed: the old→new id mapping is monotone, and each
    /// node's CSR adjacency lists its larger neighbours in ascending order,
    /// so scanning members in ascending order and keeping only neighbours
    /// `v > u` emits the kept edges already in the builder's `(u, v)` sort
    /// order. This graph is simple, so no merge pass is needed either.
    ///
    /// # Panics
    /// Panics if `members` is not strictly ascending or contains an id
    /// `>= self.num_nodes()`.
    pub fn induced_subgraph_into(&self, members: &[u32], scratch: &mut SubgraphScratch) {
        let n = self.num_nodes();
        if scratch.old_to_new.len() < n {
            scratch.old_to_new.resize(n, u32::MAX);
        }
        let mut prev: i64 = -1;
        for (k, &v) in members.iter().enumerate() {
            assert!(
                (v as i64) > prev && (v as usize) < n,
                "members must be strictly ascending node ids"
            );
            prev = v as i64;
            scratch.old_to_new[v as usize] = k as u32;
        }
        scratch.map.clear();
        scratch.map.extend(members.iter().map(|&v| NodeId(v)));

        let ns = members.len();
        let sub = &mut scratch.sub;
        sub.edges.clear();
        for (k, &u) in members.iter().enumerate() {
            for (v, w, _) in self.neighbors(NodeId(u)) {
                if v.0 > u {
                    let nv = scratch.old_to_new[v.index()];
                    if nv != u32::MAX {
                        sub.edges.push((k as u32, nv, w));
                    }
                }
            }
        }
        sub.total_weight = sub.edges.iter().map(|e| e.2).sum();

        let m = sub.edges.len();
        sub.xadj.clear();
        sub.xadj.resize(ns + 1, 0);
        for &(u, v, _) in &sub.edges {
            sub.xadj[u as usize + 1] += 1;
            sub.xadj[v as usize + 1] += 1;
        }
        for i in 0..ns {
            sub.xadj[i + 1] += sub.xadj[i];
        }
        scratch.cursor.clear();
        scratch.cursor.extend_from_slice(&sub.xadj[..ns]);
        sub.adjncy.clear();
        sub.adjncy.resize(2 * m, 0);
        sub.adjwgt.clear();
        sub.adjwgt.resize(2 * m, 0.0);
        sub.adj_eid.clear();
        sub.adj_eid.resize(2 * m, 0);
        for (eid, &(u, v, w)) in sub.edges.iter().enumerate() {
            let cu = scratch.cursor[u as usize] as usize;
            sub.adjncy[cu] = v;
            sub.adjwgt[cu] = w;
            sub.adj_eid[cu] = eid as u32;
            scratch.cursor[u as usize] += 1;
            let cv = scratch.cursor[v as usize] as usize;
            sub.adjncy[cv] = u;
            sub.adjwgt[cv] = w;
            sub.adj_eid[cv] = eid as u32;
            scratch.cursor[v as usize] += 1;
        }

        // restore the all-MAX invariant so the next call starts clean
        for &v in members {
            scratch.old_to_new[v as usize] = u32::MAX;
        }
    }
}

impl Default for Graph {
    /// The empty graph (no nodes, no edges).
    fn default() -> Self {
        Graph {
            xadj: vec![0],
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
            adj_eid: Vec::new(),
            edges: Vec::new(),
            total_weight: 0.0,
        }
    }
}

/// Reusable buffers for [`Graph::induced_subgraph_into`]: repeated
/// extractions (the decomposition recursion performs one per cluster)
/// reuse one set of allocations instead of building fresh `Vec`s each
/// time. The same scratch may serve graphs of different sizes.
#[derive(Debug, Default)]
pub struct SubgraphScratch {
    // all-u32::MAX between calls; entries are set and restored per call
    old_to_new: Vec<u32>,
    cursor: Vec<u32>,
    sub: Graph,
    map: Vec<NodeId>,
}

impl SubgraphScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The subgraph produced by the most recent extraction.
    pub fn graph(&self) -> &Graph {
        &self.sub
    }

    /// New-id → old-id mapping of the most recent extraction.
    pub fn map(&self) -> &[NodeId] {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    }

    // The subgraph induced by `keep` (nodes with `keep[v]`) through a
    // fresh `GraphBuilder`, plus the mapping from new ids to original
    // ids: the reference for `induced_subgraph_into`.
    fn induced_subgraph(g: &Graph, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), g.num_nodes());
        let mut old_to_new = vec![u32::MAX; g.num_nodes()];
        let mut new_to_old = Vec::new();
        for v in 0..g.num_nodes() {
            if keep[v] {
                old_to_new[v] = new_to_old.len() as u32;
                new_to_old.push(NodeId(v as u32));
            }
        }
        let mut b = GraphBuilder::new(new_to_old.len());
        for &(u, v, w) in &g.edges {
            let (nu, nv) = (old_to_new[u as usize], old_to_new[v as usize]);
            if nu != u32::MAX && nv != u32::MAX {
                b.add_edge(NodeId(nu), NodeId(nv), w);
            }
        }
        (b.build(), new_to_old)
    }

    #[test]
    fn builds_csr_triangle() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn merges_parallel_edges_and_drops_loops() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 0, 2.5), (2, 2, 9.0)]);
        assert_eq!(g.num_edges(), 1);
        let (u, v, w) = g.edge(EdgeId(0));
        assert_eq!((u, v), (NodeId(0), NodeId(1)));
        assert!((w - 3.5).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_consistent_with_edges() {
        let g = triangle();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for v in g.nodes() {
            for (u, w, e) in g.neighbors(v) {
                let (a, b, we) = g.edge(e);
                assert!((w - we).abs() < 1e-12);
                assert!((a == v && b == u) || (a == u && b == v));
                seen.push((v.0, u.0));
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn cut_weight_of_singleton() {
        let g = triangle();
        let side = vec![true, false, false];
        assert!((g.cut_weight(&side) - 4.0).abs() < 1e-12);
        assert!((g.cut_weight_parts(&[0, 1, 1]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]);
        let (sub, map) = induced_subgraph(&g, &[true, true, true, false]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(map, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn weighted_degree_sums_incident() {
        let g = triangle();
        assert!((g.weighted_degree(NodeId(0)) - 4.0).abs() < 1e-12);
        assert!((g.weighted_degree(NodeId(2)) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(5), 1.0);
    }

    #[test]
    fn scratch_subgraph_is_bit_identical_to_allocating_path() {
        // deterministic pseudo-random graph, no RNG crate needed here
        let n = 40usize;
        let mut edges = Vec::new();
        let mut h = 0x9e3779b97f4a7c15u64;
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                h = h
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if h >> 61 == 0 || v == u + 1 {
                    let w = 0.5 + (h >> 40) as f64 / 65536.0;
                    edges.push((u, v, w));
                }
            }
        }
        let g = Graph::from_edges(n, &edges);
        let mut scratch = SubgraphScratch::new();
        // several different subsets through the SAME scratch, including a
        // singleton and the full vertex set
        let subsets: Vec<Vec<u32>> = vec![
            (0..n as u32).collect(),
            (0..n as u32).step_by(2).collect(),
            (0..n as u32).filter(|v| v % 3 != 1).collect(),
            vec![7],
            (10..30).collect(),
        ];
        for members in subsets {
            let keep: Vec<bool> = (0..n).map(|v| members.contains(&(v as u32))).collect();
            let (want, want_map) = induced_subgraph(&g, &keep);
            g.induced_subgraph_into(&members, &mut scratch);
            let got = scratch.graph();
            assert_eq!(scratch.map(), &want_map[..]);
            assert_eq!(got.xadj, want.xadj);
            assert_eq!(got.adjncy, want.adjncy);
            assert_eq!(got.adj_eid, want.adj_eid);
            assert_eq!(got.edges.len(), want.edges.len());
            for (a, b) in got.edges.iter().zip(&want.edges) {
                assert_eq!((a.0, a.1), (b.0, b.1));
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
            for (a, b) in got.adjwgt.iter().zip(&want.adjwgt) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(got.total_weight.to_bits(), want.total_weight.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scratch_subgraph_rejects_unsorted_members() {
        let g = triangle();
        let mut scratch = SubgraphScratch::new();
        g.induced_subgraph_into(&[2, 0], &mut scratch);
    }

    fn assert_bit_identical(got: &Graph, want: &Graph) {
        assert_eq!(got.xadj, want.xadj);
        assert_eq!(got.adjncy, want.adjncy);
        assert_eq!(got.adj_eid, want.adj_eid);
        assert_eq!(got.edges.len(), want.edges.len());
        for (a, b) in got.edges.iter().zip(&want.edges) {
            assert_eq!((a.0, a.1), (b.0, b.1));
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        for (a, b) in got.adjwgt.iter().zip(&want.adjwgt) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(got.total_weight.to_bits(), want.total_weight.to_bits());
    }

    // A node count and an edge list to feed a builder.
    type EdgeListCase = (usize, Vec<(u32, u32, f64)>);

    #[test]
    fn build_into_reuses_buffers_and_matches_build() {
        // several graphs of different sizes through one builder + one out
        // graph: reset/build_into must be bit-identical to a fresh build(),
        // including the loop-drop + parallel-merge normalisation
        let cases: Vec<EdgeListCase> = vec![
            (3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]),
            (4, vec![(2, 1, 0.5), (1, 2, 0.25), (3, 3, 9.0), (0, 3, 1.5)]),
            (1, vec![]),
            (5, vec![(4, 0, 2.0), (0, 4, 1.0), (1, 3, 0.125)]),
        ];
        let mut b = GraphBuilder::new(0);
        let mut out = Graph::default();
        for (n, edges) in cases {
            b.reset(n);
            let mut fresh = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                b.add_edge(NodeId(u), NodeId(v), w);
                fresh.add_edge(NodeId(u), NodeId(v), w);
            }
            b.build_into(&mut out);
            let want = fresh.build();
            assert_bit_identical(&out, &want);
        }
    }

    #[test]
    fn rescale_into_is_bit_identical_to_rebuilding() {
        let g = Graph::from_edges(
            5,
            &[
                (0, 1, 1.25),
                (1, 2, 2.0),
                (0, 2, 3.5),
                (2, 3, 0.75),
                (3, 4, 1.0),
            ],
        );
        let mut out = Graph::default();
        // two different scalings through the SAME out buffer
        for seed in [3u64, 11] {
            let scale: Vec<f64> = (0..g.num_edges())
                .map(|e| 0.5 + ((e as u64 * seed) % 7) as f64 / 4.0)
                .collect();
            g.rescale_into(&scale, &mut out);
            let mut b = GraphBuilder::new(g.num_nodes());
            for (e, u, v, w) in g.edges() {
                b.add_edge(u, v, w * scale[e.index()]);
            }
            let want = b.build();
            assert_bit_identical(&out, &want);
        }
    }
}
