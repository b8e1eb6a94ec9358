//! Multilevel `k`-way partitioning by recursive bisection (METIS-style).

use hgp_graph::partition::{multilevel_bisection, BisectOpts, BisectScratch};
use hgp_graph::{Graph, SubgraphScratch};
use rand::Rng;

/// Options for [`kway_partition`].
#[derive(Clone, Copy, Debug, Default)]
pub struct KwayOpts {
    /// Per-bisection options (FM passes, balance slack, …).
    pub bisect: BisectOpts,
}

/// Buffers one k-way call reuses across all of its bisections.
#[derive(Default)]
struct Scratch {
    sub: SubgraphScratch,
    sub_w: Vec<f64>,
    bisect: BisectScratch,
    side: Vec<bool>,
}

/// Splits `g` into `k` parts of (near-)equal total node weight by recursive
/// bisection, returning a part id in `0..k` per node.
///
/// Each recursion splits the node set into `⌈k/2⌉ : ⌊k/2⌋` halves with the
/// matching weight fractions, so any `k` (not just powers of two) is
/// balanced correctly.
pub fn kway_partition<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    k: usize,
    opts: &KwayOpts,
    rng: &mut R,
) -> Vec<u32> {
    assert!(k >= 1);
    assert_eq!(node_w.len(), g.num_nodes());
    let mut part = vec![0u32; g.num_nodes()];
    let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
    let mut s = Scratch::default();
    split(g, node_w, &all, k, 0, opts, rng, &mut part, &mut s);
    part
}

/// Splits `tasks` into exactly `parts` groups, preserving graph structure;
/// returns the groups (used directly by the dual-recursive mapper, which
/// needs the groups themselves rather than ids). `tasks` may come in any
/// order; a task listed twice counts once.
pub fn split_into_groups<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    parts: usize,
    opts: &KwayOpts,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    assert!(parts >= 1);
    if parts == 1 {
        return vec![tasks.to_vec()];
    }
    // the bisections below extract subgraphs of ascending task lists, and
    // each group comes out ascending
    let mut sorted = tasks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut part = vec![0u32; g.num_nodes()];
    let mut s = Scratch::default();
    split(g, node_w, &sorted, parts, 0, opts, rng, &mut part, &mut s);
    let mut groups = vec![Vec::new(); parts];
    for &t in &sorted {
        groups[part[t as usize] as usize].push(t);
    }
    groups
}

#[allow(clippy::too_many_arguments)]
fn split<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    k: usize,
    base: u32,
    opts: &KwayOpts,
    rng: &mut R,
    part: &mut [u32],
    s: &mut Scratch,
) {
    if k == 1 {
        for &t in tasks {
            part[t as usize] = base;
        }
        return;
    }
    let k0 = k.div_ceil(2);
    let (a, b) = bisect_tasks(g, node_w, tasks, k0 as f64 / k as f64, opts, rng, s);
    split(g, node_w, &a, k0, base, opts, rng, part, s);
    split(g, node_w, &b, k - k0, base + k0 as u32, opts, rng, part, s);
}

/// Bisects a strictly ascending list of tasks with target fraction `frac`
/// on side 0; both halves come back ascending.
fn bisect_tasks<R: Rng + ?Sized>(
    g: &Graph,
    node_w: &[f64],
    tasks: &[u32],
    frac: f64,
    opts: &KwayOpts,
    rng: &mut R,
    s: &mut Scratch,
) -> (Vec<u32>, Vec<u32>) {
    if tasks.len() <= 1 {
        return (tasks.to_vec(), Vec::new());
    }
    g.induced_subgraph_into(tasks, &mut s.sub);
    s.sub_w.clear();
    s.sub_w.extend(tasks.iter().map(|&t| node_w[t as usize]));
    let mut bopts = opts.bisect;
    bopts.target0_frac = frac;
    multilevel_bisection(
        s.sub.graph(),
        &s.sub_w,
        &bopts,
        rng,
        &mut s.bisect,
        &mut s.side,
    );
    let mut a = Vec::new();
    let mut b = Vec::new();
    for (&t, &side) in tasks.iter().zip(&s.side) {
        if side {
            b.push(t);
        } else {
            a.push(t);
        }
    }
    // guard against degenerate splits
    if a.is_empty() || b.is_empty() {
        let mid = ((tasks.len() as f64) * frac).round().max(1.0) as usize;
        let mid = mid.min(tasks.len() - 1);
        return (tasks[..mid].to_vec(), tasks[mid..].to_vec());
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partitions_cover_all_parts() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::grid2d(&mut rng, 6, 6, 1.0, 1.0);
        let w = vec![1.0; 36];
        for k in [2, 3, 4, 6] {
            let part = kway_partition(&g, &w, k, &KwayOpts::default(), &mut rng);
            let mut sizes = vec![0usize; k];
            for &p in &part {
                sizes[p as usize] += 1;
            }
            assert!(sizes.iter().all(|&s| s > 0), "k={k}: empty part");
            let max = *sizes.iter().max().unwrap() as f64;
            let ideal = 36.0 / k as f64;
            assert!(
                max <= ideal * 1.4 + 1.0,
                "k={k}: max part {max} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn planted_four_blocks_recovered() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::planted_clusters(&mut rng, 4, 8, 0.7, 4.0, 0.02, 0.2);
        let w = vec![1.0; 32];
        let part = kway_partition(&g, &w, 4, &KwayOpts::default(), &mut rng);
        // the cut should be close to the planted one
        let planted: Vec<u32> = (0..32).map(|v| (v / 8) as u32).collect();
        let cut = g.cut_weight_parts(&part);
        let planted_cut = g.cut_weight_parts(&planted);
        assert!(
            cut <= 2.0 * planted_cut,
            "kway cut {cut} vs planted {planted_cut}"
        );
    }

    #[test]
    fn groups_respect_requested_count_and_cover() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp_connected(&mut rng, 20, 0.25, 1.0, 2.0);
        let w = vec![1.0; 20];
        let tasks: Vec<u32> = (0..20).collect();
        let groups = split_into_groups(&g, &w, &tasks, 5, &KwayOpts::default(), &mut rng);
        assert_eq!(groups.len(), 5);
        let mut all: Vec<u32> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, tasks);
    }

    #[test]
    fn k_equals_one_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::random_tree(&mut rng, 8, 1.0, 1.0);
        let part = kway_partition(&g, &[1.0; 8], 1, &KwayOpts::default(), &mut rng);
        assert!(part.iter().all(|&p| p == 0));
    }
}
