//! Exhaustive verification of the relaxed DP (Theorem 4): on small random
//! trees, enumerate *every* edge labelling, compute its certificate cost
//! and capacity feasibility from first principles, and confirm the DP
//! returns exactly the optimum. The last two tests pin the arena engine
//! to the legacy hash-table DP (`oracle/legacy_dp.rs`) bit for bit, tie
//! breaks included.

#![allow(clippy::needless_range_loop)] // parallel-array indexing is clearer here

mod oracle;

use hgp::core::relaxed::{labelling_cost, solve_relaxed, solve_relaxed_with};
use hgp::graph::tree::{RootedTree, TreeBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checks per-level component capacities of a labelling from first
/// principles: at level `k+1`, components of the forest keeping edges with
/// label ≥ k+1 must each carry at most `caps[k]` units.
fn feasible(tree: &RootedTree, units: &[u32], labels: &[u8], caps: &[u32]) -> bool {
    let n = tree.num_nodes();
    for (k, &cap) in caps.iter().enumerate() {
        // union-find by simple labelling walk
        let mut comp: Vec<usize> = (0..n).collect();
        fn find(comp: &mut [usize], v: usize) -> usize {
            let mut v = v;
            while comp[v] != v {
                comp[v] = comp[comp[v]];
                v = comp[v];
            }
            v
        }
        for v in 0..n {
            if let Some(p) = tree.parent(v) {
                if labels[v] as usize > k {
                    let (a, b) = (find(&mut comp, v), find(&mut comp, p));
                    comp[a] = b;
                }
            }
        }
        let mut load = vec![0u64; n];
        for v in 0..n {
            if tree.is_leaf(v) {
                let r = find(&mut comp, v);
                load[r] += units[v] as u64;
                if load[r] > cap as u64 {
                    return false;
                }
            }
        }
    }
    true
}

/// Brute force: minimum certificate cost over all `(h+1)^(n-1)` labellings.
fn brute_force(tree: &RootedTree, units: &[u32], caps: &[u32], deltas: &[f64]) -> Option<f64> {
    let h = caps.len();
    let n = tree.num_nodes();
    let edges: Vec<usize> = (0..n).filter(|&v| tree.parent(v).is_some()).collect();
    let mut best: Option<f64> = None;
    let total = (h + 1).pow(edges.len() as u32);
    for code in 0..total {
        let mut labels = vec![h as u8; n];
        let mut c = code;
        for &e in &edges {
            labels[e] = (c % (h + 1)) as u8;
            c /= h + 1;
        }
        if !feasible(tree, units, &labels, caps) {
            continue;
        }
        let cost = labelling_cost(tree, units, &labels, deltas);
        best = Some(match best {
            None => cost,
            Some(b) => b.min(cost),
        });
    }
    best
}

fn random_tree_with_units(rng: &mut StdRng, n: usize) -> (RootedTree, Vec<u32>) {
    let mut b = TreeBuilder::new_root();
    for _ in 1..n {
        let parent = rng.gen_range(0..b.len());
        b.add_child(parent, rng.gen_range(0.2..4.0));
    }
    let t = b.build();
    let units: Vec<u32> = (0..t.num_nodes())
        .map(|v| if t.is_leaf(v) { rng.gen_range(1..4) } else { 0 })
        .collect();
    (t, units)
}

#[test]
fn dp_matches_exhaustive_enumeration_h1() {
    let mut rng = StdRng::seed_from_u64(71);
    for trial in 0..30 {
        let n = rng.gen_range(3..8);
        let (t, units) = random_tree_with_units(&mut rng, n);
        let caps = [rng.gen_range(3..9) as u32];
        let deltas = [rng.gen_range(0.5..3.0)];
        let dp = solve_relaxed(&t, &units, &caps, &deltas).ok();
        let bf = brute_force(&t, &units, &caps, &deltas);
        match (dp, bf) {
            (Some(sol), Some(opt)) => assert!(
                (sol.cost - opt).abs() < 1e-9,
                "trial {trial}: DP {} vs brute force {}",
                sol.cost,
                opt
            ),
            (None, None) => {}
            (dp, bf) => panic!(
                "trial {trial}: feasibility disagreement (dp some: {}, bf some: {})",
                dp.is_some(),
                bf.is_some()
            ),
        }
    }
}

#[test]
fn dp_matches_exhaustive_enumeration_h2() {
    let mut rng = StdRng::seed_from_u64(72);
    for trial in 0..25 {
        let n = rng.gen_range(3..7);
        let (t, units) = random_tree_with_units(&mut rng, n);
        let c2 = rng.gen_range(2..5) as u32;
        let caps = [c2 * rng.gen_range(2..4) as u32, c2];
        let deltas = [rng.gen_range(0.5..3.0), rng.gen_range(0.1..1.0)];
        let dp = solve_relaxed(&t, &units, &caps, &deltas).ok();
        let bf = brute_force(&t, &units, &caps, &deltas);
        match (dp, bf) {
            (Some(sol), Some(opt)) => assert!(
                (sol.cost - opt).abs() < 1e-9,
                "trial {trial}: DP {} vs brute force {}",
                sol.cost,
                opt
            ),
            (None, None) => {}
            (dp, bf) => panic!(
                "trial {trial}: feasibility disagreement (dp some: {}, bf some: {})",
                dp.is_some(),
                bf.is_some()
            ),
        }
    }
}

#[test]
fn dp_matches_exhaustive_enumeration_h3() {
    let mut rng = StdRng::seed_from_u64(73);
    for trial in 0..12 {
        let n = rng.gen_range(3..6);
        let (t, units) = random_tree_with_units(&mut rng, n);
        let c3 = rng.gen_range(2..4) as u32;
        let c2 = c3 * 2;
        let caps = [c2 * 2, c2, c3];
        let deltas = [
            rng.gen_range(0.5..3.0),
            rng.gen_range(0.2..1.5),
            rng.gen_range(0.1..0.8),
        ];
        let dp = solve_relaxed(&t, &units, &caps, &deltas).ok();
        let bf = brute_force(&t, &units, &caps, &deltas);
        match (dp, bf) {
            (Some(sol), Some(opt)) => assert!(
                (sol.cost - opt).abs() < 1e-9,
                "trial {trial}: DP {} vs brute force {}",
                sol.cost,
                opt
            ),
            (None, None) => {}
            (dp, bf) => panic!(
                "trial {trial}: feasibility disagreement (dp some: {}, bf some: {})",
                dp.is_some(),
                bf.is_some()
            ),
        }
    }
}

/// The brute force and the DP also agree that labellings produced by the
/// DP are themselves feasible (labels are consistent with the returned
/// cost) — a reconstruction check.
#[test]
fn dp_reconstruction_is_feasible_and_cost_consistent() {
    let mut rng = StdRng::seed_from_u64(74);
    for _ in 0..30 {
        let n = rng.gen_range(4..10);
        let (t, units) = random_tree_with_units(&mut rng, n);
        let caps = [12u32, 4];
        let deltas = [1.5, 0.5];
        if let Ok(sol) = solve_relaxed(&t, &units, &caps, &deltas) {
            assert!(feasible(&t, &units, &sol.cut_level, &caps));
            let oracle = labelling_cost(&t, &units, &sol.cut_level, &deltas);
            assert!((oracle - sol.cost).abs() < 1e-9);
        }
    }
}

/// Builds a pseudo-random caterpillar/bushy tree and checks that the
/// arena engine and the legacy oracle return bit-identical results.
///
/// `widen_caps` adds slack far beyond the dense strategy's 20-bit compact
/// key so the arena engine takes the radix-merge fallback instead of the
/// dense direct-addressed strategy — both must match the legacy oracle.
/// (`relaxed.rs`'s `widened_parity_caps_force_the_radix_fallback` checks
/// that these caps do force the fallback.)
fn parity_case_with(seed: u64, h: usize, widen_caps: u32) {
    // tiny deterministic LCG so the case is reproducible
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut b = TreeBuilder::new_root();
    let mut nodes = vec![0usize];
    for _ in 0..24 {
        let p = nodes[next(nodes.len() as u64) as usize];
        let w = 0.5 + next(8) as f64;
        nodes.push(b.add_child(p, w));
    }
    let t = b.build();
    let mut units = vec![0u32; t.num_nodes()];
    for v in 0..t.num_nodes() {
        if t.is_leaf(v) {
            units[v] = 1 + next(3) as u32;
        }
    }
    let total: u32 = units.iter().sum();
    let caps: Vec<u32> = (0..h)
        .map(|k| (total / (1 + k as u32)).max(4) + widen_caps)
        .collect();
    let deltas: Vec<f64> = (0..h).map(|k| 1.0 + (h - k) as f64).collect();
    for dominance_prune in [true, false] {
        let arena = solve_relaxed_with(&t, &units, &caps, &deltas, dominance_prune);
        let legacy = oracle::legacy_dp::solve_legacy(&t, &units, &caps, &deltas, dominance_prune);
        match (arena, legacy) {
            (Ok(a), Ok(l)) => {
                assert_eq!(a.cost.to_bits(), l.cost.to_bits(), "seed {seed} h {h}");
                assert_eq!(a.cut_level, l.cut_level, "seed {seed} h {h}");
                assert_eq!(a.root_signature, l.root_signature, "seed {seed} h {h}");
                assert_eq!(a.table_entries, l.table_entries, "seed {seed} h {h}");
                assert_eq!(a.pruned_entries, l.pruned_entries, "seed {seed} h {h}");
            }
            (Err(a), Err(l)) => assert_eq!(a, l, "seed {seed} h {h}"),
            (a, l) => panic!("engines disagree on feasibility: {a:?} vs {l:?}"),
        }
    }
}

#[test]
fn arena_matches_legacy_engine_bitwise() {
    for seed in 0..12 {
        for h in 1..=4 {
            parity_case_with(seed, h, 0);
        }
    }
}

#[test]
fn radix_fallback_matches_legacy_engine_bitwise() {
    // caps wide enough that the compact-key layout overflows the dense
    // budget, exercising the radix merge. A single 16-bit lane always
    // packs within that budget, so the fallback is only reachable at
    // h ≥ 2. Wide caps disable most infeasibility pruning, so tables are
    // large — keep the seed count small.
    for seed in 0..3 {
        for h in 2..=4 {
            parity_case_with(seed, h, 40_000);
        }
    }
}
