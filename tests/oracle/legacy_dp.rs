//! The pre-arena signature DP: one table per `(node, fold)` keyed by
//! packed signature, with `Step` backpointers. `hgp_core::relaxed`'s arena
//! engine reproduces its tie-breaks — first candidate in
//! `(child entry, j, running entry)` order wins a signature, a later one
//! replaces it only at strictly lower cost — so both must return
//! bit-identical [`RelaxedSolution`]s. With pruning on, it drops the
//! dominated entries of every fold table above `PRUNE_MIN_TABLE`, at
//! every height and size, by an all-pairs scan that shares no code with
//! the engine's sweeps.

#![allow(clippy::needless_range_loop)] // lane-indexed loops mirror the arena engine

use hgp::core::relaxed::{sig_lane, sig_unpack, sig_with_lane, RelaxedSolution, MAX_HEIGHT};
use hgp::core::HgpError;
use hgp::graph::tree::RootedTree;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Fold tables at or below this size are kept whole; every larger one is
/// pruned, at every height.
const PRUNE_MIN_TABLE: usize = 9;

#[derive(Clone, Copy, Debug)]
struct Step {
    cost: f64,
    prev: u64,
    child_sig: u64,
    j: u8,
}

/// Solves RHGPT on rounded demands like
/// `hgp_core::relaxed::solve_relaxed_with(tree, leaf_units, caps, deltas,
/// prune)`. Inputs must already pass that function's validation (height
/// in `1..=MAX_HEIGHT`, 16-bit caps, finite non-negative deltas).
pub fn solve_legacy(
    tree: &RootedTree,
    leaf_units: &[u32],
    caps: &[u32],
    deltas: &[f64],
    prune: bool,
) -> Result<RelaxedSolution, HgpError> {
    let h = caps.len();
    assert!((1..=MAX_HEIGHT).contains(&h), "height {h}");
    assert_eq!(deltas.len(), h);
    let n = tree.num_nodes();
    assert_eq!(leaf_units.len(), n);

    // steps[v][i]: fold table after absorbing child i of v.
    let mut steps: Vec<Vec<BTreeMap<u64, Step>>> = vec![Vec::new(); n];
    // finals[v]: signature -> best cost for the subtree of v.
    let mut finals: Vec<Vec<(u64, f64)>> = vec![Vec::new(); n];
    let mut table_entries = 0usize;
    let mut pruned_entries = 0usize;

    for v in tree.postorder() {
        if tree.is_leaf(v) {
            let d = leaf_units[v];
            assert!(d >= 1, "leaf {v} has zero rounded demand");
            if (0..h).any(|k| d > caps[k]) {
                // a single task exceeds some level capacity
                return Err(HgpError::CapacityInfeasible);
            }
            let mut sig = 0u64;
            for k in 0..h {
                sig = sig_with_lane(sig, k, d);
            }
            finals[v] = vec![(sig, 0.0)];
            table_entries += 1;
            continue;
        }

        let mut cur: Vec<(u64, f64)> = vec![(0, 0.0)];
        let kids = tree.children(v).to_vec();
        let mut node_steps = Vec::with_capacity(kids.len());
        for &c in &kids {
            let c = c as usize;
            let w = tree.edge_weight(c);
            let mut next: BTreeMap<u64, Step> = BTreeMap::new();
            for &(csig, ccost) in &finals[c] {
                // suffix charge: suf[j] = Σ_{k ≥ j, lane(csig,k) > 0} w·δ(k)
                let mut suf = [0.0f64; MAX_HEIGHT + 1];
                if !w.is_infinite() {
                    for k in (0..h).rev() {
                        suf[k] = suf[k + 1]
                            + if sig_lane(csig, k) > 0 {
                                w * deltas[k]
                            } else {
                                0.0
                            };
                    }
                }
                let j_lo = if w.is_infinite() { h } else { 0 };
                for j in j_lo..=h {
                    for &(cursig, curcost) in &cur {
                        // merge lanes 0..j (levels 1..=j stay connected)
                        let mut merged = cursig;
                        let mut ok = true;
                        for k in 0..j {
                            let m = sig_lane(cursig, k) + sig_lane(csig, k);
                            if m > caps[k] {
                                ok = false;
                                break;
                            }
                            merged = sig_with_lane(merged, k, m);
                        }
                        if !ok {
                            continue;
                        }
                        let cost = curcost + ccost + suf[j];
                        let step = Step {
                            cost,
                            prev: cursig,
                            child_sig: csig,
                            j: j as u8,
                        };
                        match next.entry(merged) {
                            Entry::Vacant(e) => {
                                e.insert(step);
                            }
                            Entry::Occupied(mut e) => {
                                if cost < e.get().cost {
                                    e.insert(step);
                                }
                            }
                        }
                    }
                }
            }
            if next.is_empty() {
                return Err(HgpError::CapacityInfeasible); // infeasible below v
            }
            if prune {
                let before = next.len();
                pareto_prune(&mut next, h);
                pruned_entries += before - next.len();
            }
            table_entries += next.len();
            // a BTreeMap iterates in ascending signature order, the order
            // the next fold scans its running table in
            cur = next.iter().map(|(&s, st)| (s, st.cost)).collect();
            node_steps.push(next);
        }
        finals[v] = cur;
        steps[v] = node_steps;
    }

    // pick the best root signature: minimum cost, smallest signature on ties
    let root = tree.root();
    let (best_sig, best_cost) = match finals[root]
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    {
        Some(&(s, c)) => (s, c),
        None => return Err(HgpError::CapacityInfeasible),
    };

    // walk backpointers to label every edge
    let mut cut_level = vec![h as u8; n];
    let mut stack = vec![(root, best_sig)];
    let root_signature = sig_unpack(best_sig, h);
    while let Some((v, sig)) = stack.pop() {
        if tree.is_leaf(v) {
            continue;
        }
        let kids = tree.children(v);
        let mut s = sig;
        for i in (0..kids.len()).rev() {
            let step = steps[v][i]
                .get(&s)
                .expect("backpointer chain must be complete");
            let c = kids[i] as usize;
            cut_level[c] = step.j;
            stack.push((c, step.child_sig));
            s = step.prev;
        }
        assert_eq!(s, 0, "fold chain must start from the empty signature");
    }

    Ok(RelaxedSolution {
        cut_level,
        cost: best_cost,
        root_signature,
        table_entries,
        pruned_entries,
    })
}

/// Drops every Pareto-dominated entry of a fold table: an entry goes when
/// another entry is ≤ on every lane and ≤ in cost. Such an entry can never
/// start an optimal completion, because later folds only add demand to
/// the lanes and charge the levels whose lanes are non-zero. This is the
/// rule `hgp_core::relaxed` states for its pruning, applied here by brute
/// force over all pairs with the same size threshold, so the two filters
/// share no code.
fn pareto_prune(table: &mut BTreeMap<u64, Step>, h: usize) {
    if table.len() <= PRUNE_MIN_TABLE {
        return;
    }
    let entries: Vec<(u64, f64)> = table.iter().map(|(&s, st)| (s, st.cost)).collect();
    let dominated = |sig: u64, cost: f64| {
        entries.iter().any(|&(other, other_cost)| {
            other != sig
                && other_cost <= cost
                && (0..h).all(|k| sig_lane(other, k) <= sig_lane(sig, k))
        })
    };
    let drop: Vec<u64> = entries
        .iter()
        .filter(|&&(sig, cost)| dominated(sig, cost))
        .map(|&(sig, _)| sig)
        .collect();
    for sig in drop {
        table.remove(&sig);
    }
}
