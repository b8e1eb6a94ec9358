//! Property-based tests over the core invariants (proptest).

mod oracle;

use hgp::core::cost::{mirror_cost_boundary, tree_min_cut};
use hgp::core::laminar::build_level_sets;
use hgp::core::relaxed::{labelling_cost, solve_relaxed, solve_relaxed_with};
use hgp::core::solver::SolverOptions;
use hgp::core::{Assignment, Instance, Mutation, ReplaceOptions, Rounding, Session, Solve};
use hgp::graph::tree::TreeBuilder;
use hgp::graph::Graph;
use hgp::hierarchy::Hierarchy;
use proptest::prelude::*;

/// A random connected weighted graph on 3..=10 nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..=10)
        .prop_flat_map(|n| {
            let spanning = proptest::collection::vec(0.1f64..4.0, n - 1);
            let extra =
                proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 0.1f64..4.0), 0..8);
            (Just(n), spanning, extra)
        })
        .prop_map(|(n, spanning, extra)| {
            let mut edges: Vec<(u32, u32, f64)> = spanning
                .into_iter()
                .enumerate()
                .map(|(i, w)| (i as u32, i as u32 + 1, w))
                .collect();
            for (u, v, w) in extra {
                if u != v {
                    edges.push((u.min(v), u.max(v), w));
                }
            }
            Graph::from_edges(n, &edges)
        })
}

/// A random 2-level hierarchy with ≥ `min_leaves` leaves.
fn arb_hierarchy(min_leaves: usize) -> impl Strategy<Value = Hierarchy> {
    (2usize..=4, 2usize..=4, 0.0f64..3.0, 0.0f64..2.0).prop_filter_map(
        "too few leaves",
        move |(d0, d1, extra0, extra1)| {
            if d0 * d1 < min_leaves {
                return None;
            }
            // cm must be non-increasing; build downward
            let c2 = 0.5;
            let c1 = c2 + extra1;
            let c0 = c1 + extra0;
            Some(Hierarchy::new(vec![d0, d1], vec![c0, c1, c2]))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 2: the Equation-1 cost equals the mirror (Equation-3,
    /// boundary-cut) cost for every assignment on every graph.
    #[test]
    fn lemma2_holds((g, h, seed) in (arb_graph(), arb_hierarchy(4), any::<u64>())) {
        let n = g.num_nodes();
        let a_total_weight = g.total_weight();
        let inst = Instance::uniform(g, 0.3);
        // pseudo-random assignment from the seed
        let k = h.num_leaves();
        let leaves: Vec<u32> = (0..n)
            .map(|v| ((seed.rotate_left(v as u32 * 7) as usize) % k) as u32)
            .collect();
        let a = Assignment::new(leaves, &h);
        let c1 = a.cost(&inst, &h);
        // Lemma 2 is stated for normalised multipliers; in general the
        // boundary form misses cm(h) on every edge (Lemma 1's shift)
        let shift = h.cost_multiplier(h.height()) * a_total_weight;
        let c3 = mirror_cost_boundary(&inst, &h, &a) + shift;
        prop_assert!((c1 - c3).abs() < 1e-9 * (1.0 + c1.abs()), "{c1} vs {c3}");
    }

    /// Lemma 1: normalising multipliers shifts every assignment's cost by
    /// exactly `cm(h) · Σw`.
    #[test]
    fn lemma1_normalisation((g, h, seed) in (arb_graph(), arb_hierarchy(4), any::<u64>())) {
        let n = g.num_nodes();
        let total_w = g.total_weight();
        let inst = Instance::uniform(g, 0.3);
        let k = h.num_leaves();
        let leaves: Vec<u32> = (0..n)
            .map(|v| ((seed.rotate_left(v as u32 * 11) as usize) % k) as u32)
            .collect();
        let a = Assignment::new(leaves, &h);
        let (hn, shift) = h.normalized();
        let lhs = a.cost(&inst, &h);
        let rhs = a.cost(&inst, &hn) + shift * total_w;
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    /// Rounding: units are monotone in demand, never zero, and never
    /// overshoot `d · Δ` by more than one unit's worth.
    #[test]
    fn rounding_sound(units in 1u32..512, d1 in 0.001f64..1.0, d2 in 0.001f64..1.0) {
        let r = Rounding::with_units(units);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(r.round(lo) <= r.round(hi));
        prop_assert!(r.round(lo) >= 1);
        prop_assert!(f64::from(r.round(hi)) <= (hi * f64::from(units)).max(1.0) + 1e-9);
    }

    /// The DP's incremental cost accounting always agrees with the
    /// from-scratch labelling oracle, and the reconstructed family is
    /// laminar.
    #[test]
    fn dp_certificate_is_consistent(
        (weights, demands) in (
            proptest::collection::vec(0.1f64..5.0, 7),
            proptest::collection::vec(1u32..4, 4),
        )
    ) {
        // fixed shape: root -> {a, b}; a -> {l1, l2}; b -> {l3, l4}
        let mut b = TreeBuilder::new_root();
        let a_ = b.add_child(0, weights[0]);
        let b_ = b.add_child(0, weights[1]);
        let l1 = b.add_child(a_, weights[2]);
        let l2 = b.add_child(a_, weights[3]);
        let l3 = b.add_child(b_, weights[4]);
        let l4 = b.add_child(b_, weights[5]);
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        for (i, &leaf) in [l1, l2, l3, l4].iter().enumerate() {
            units[leaf] = demands[i];
        }
        let caps = [8u32, 4];
        let deltas = [weights[6], 1.0];
        if let Ok(sol) = solve_relaxed(&t, &units, &caps, &deltas) {
            let oracle = labelling_cost(&t, &units, &sol.cut_level, &deltas);
            prop_assert!((oracle - sol.cost).abs() < 1e-9 * (1.0 + sol.cost));
            let ls = build_level_sets(&t, &sol.cut_level, 2);
            prop_assert!(ls.check_laminar(4).is_ok());
            // signature monotone (Corollary 1)
            prop_assert!(sol.root_signature.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    /// `tree_min_cut` returns a weight matching its own side labelling and
    /// never exceeds the trivial boundary (cutting every set leaf's edge).
    #[test]
    fn tree_min_cut_bounds(
        weights in proptest::collection::vec(0.1f64..5.0, 6),
        mask in 1u8..15,
    ) {
        let mut b = TreeBuilder::new_root();
        let a_ = b.add_child(0, weights[0]);
        let b_ = b.add_child(0, weights[1]);
        let leaves = [
            b.add_child(a_, weights[2]),
            b.add_child(a_, weights[3]),
            b.add_child(b_, weights[4]),
            b.add_child(b_, weights[5]),
        ];
        let t = b.build();
        let mut in_set = vec![false; t.num_nodes()];
        let mut trivial = 0.0;
        for (i, &leaf) in leaves.iter().enumerate() {
            if mask >> i & 1 == 1 {
                in_set[leaf] = true;
                trivial += t.edge_weight(leaf);
            }
        }
        let (w, side) = tree_min_cut(&t, &in_set);
        // reported weight equals the boundary of the reported side
        let mut boundary = 0.0;
        for v in 1..t.num_nodes() {
            if side[v] != side[t.parent(v).unwrap()] {
                boundary += t.edge_weight(v);
            }
        }
        prop_assert!((w - boundary).abs() < 1e-9);
        prop_assert!(w <= trivial + 1e-9, "min cut {w} beats trivial {trivial}");
        // all set leaves on the S side, all others off it
        for (i, &leaf) in leaves.iter().enumerate() {
            prop_assert_eq!(side[leaf], mask >> i & 1 == 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The arena-backed DP engine and the legacy hash-table oracle
    /// (`tests/oracle/legacy_dp.rs`) agree: on any random tree, leaf
    /// demands, caps, and deltas — with or without dominance pruning —
    /// they return the same cost to the bit, the same cut-level
    /// assignment, the same root signature and table size, or the same
    /// error.
    #[test]
    fn arena_dp_equals_legacy_dp(
        links in proptest::collection::vec(
            (any::<u64>(), 0.2f64..6.0, 0u8..8),
            4..=20,
        ),
        unit_seed in any::<u64>(),
        h in 1usize..=4,
        slack in 0u32..=8,
        deltas in proptest::collection::vec(0.05f64..3.0, 4),
    ) {
        let mut b = TreeBuilder::new_root();
        let mut nodes = vec![0usize];
        for (raw, w, inf) in &links {
            let p = nodes[(*raw as usize) % nodes.len()];
            // 1-in-8 edges are uncuttable (infinite weight)
            let w = if *inf == 0 { f64::INFINITY } else { *w };
            nodes.push(b.add_child(p, w));
        }
        let t = b.build();
        let mut units = vec![0u32; t.num_nodes()];
        let mut s = unit_seed | 1;
        for (v, u) in units.iter_mut().enumerate() {
            if t.is_leaf(v) {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *u = 1 + ((s >> 33) % 3) as u32;
            }
        }
        let total: u32 = units.iter().sum();
        // small slack keeps some cases feasibility-tight, so the engines
        // must also agree on CapacityInfeasible
        let caps: Vec<u32> = (0..h)
            .map(|k| (total / (1 + k as u32)).max(2) + slack)
            .collect();
        let deltas = &deltas[..h];
        for dominance_prune in [false, true] {
            let arena = solve_relaxed_with(&t, &units, &caps, deltas, dominance_prune);
            let legacy = oracle::legacy_dp::solve_legacy(&t, &units, &caps, deltas, dominance_prune);
            match (arena, legacy) {
                (Ok(a), Ok(l)) => {
                    prop_assert_eq!(a.cost.to_bits(), l.cost.to_bits());
                    prop_assert_eq!(a.cut_level, l.cut_level);
                    prop_assert_eq!(a.root_signature, l.root_signature);
                    prop_assert_eq!(a.table_entries, l.table_entries);
                }
                (Err(a), Err(l)) => prop_assert_eq!(a, l),
                (a, l) => prop_assert!(false, "feasibility disagreement: {:?} vs {:?}", a, l),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mutation stream applied through [`Session::apply`] in batches of
    /// three traces the same stream applied one mutation per batch bit for
    /// bit: same placements, same loads, same cost, same churn — batching
    /// is pure API, never a different trajectory.
    #[test]
    fn session_batches_of_three_match_one_mutation_batches(
        ops in proptest::collection::vec(
            (0u8..10, 0.05f64..0.4, any::<u64>(), 0.1f64..4.0),
            1..40,
        ),
    ) {
        use hgp::hierarchy::presets;
        let machine = presets::multicore(2, 4, 4.0, 1.0);
        let mut single = Session::new(machine.clone());
        let mut batched = Session::new(machine);

        // Translate the op stream into mutations against a shadow state,
        // so ids referenced later in a batch are known up front.
        let mut live: Vec<usize> = Vec::new();
        let mut next_id = 0usize;
        let mut muts: Vec<Mutation> = Vec::with_capacity(ops.len());
        for &(kind, demand, pick, weight) in &ops {
            match kind {
                0..=4 => {
                    let nbrs: Vec<(usize, f64)> = if live.is_empty() || pick % 3 == 0 {
                        Vec::new()
                    } else {
                        vec![(live[pick as usize % live.len()], weight)]
                    };
                    muts.push(Mutation::AddTask { demand, nbrs });
                    live.push(next_id);
                    next_id += 1;
                }
                5 | 6 if !live.is_empty() => {
                    let task = live.swap_remove(pick as usize % live.len());
                    muts.push(Mutation::RemoveTask { task });
                }
                _ if !live.is_empty() => {
                    let task = live[pick as usize % live.len()];
                    muts.push(Mutation::UpdateDemand { task, demand });
                }
                _ => {}
            }
        }

        for chunk in muts.chunks(1) {
            single.apply(chunk).expect("a replayed valid stream must apply");
        }
        for chunk in muts.chunks(3) {
            batched.apply(chunk).expect("a replayed valid stream must apply");
        }

        prop_assert_eq!(single.churn(), batched.churn());
        prop_assert_eq!(single.cost().to_bits(), batched.cost().to_bits());
        for (leaf, (o, n)) in single.loads().iter().zip(batched.loads()).enumerate() {
            prop_assert_eq!(o.to_bits(), n.to_bits(), "leaf {} load diverged", leaf);
        }
        for &t in &live {
            prop_assert!(single.leaf_of(t).is_some(), "task {} lost", t);
            prop_assert_eq!(single.leaf_of(t), batched.leaf_of(t), "task {} diverged", t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Budget-∞ re-solves: a cold resolve never loses to a from-scratch
    /// pipeline run on the same state (that run *is* one of its
    /// candidates), and the follow-up warm resolve — demand edits keep the
    /// cached distribution valid — never loses to staying put.
    #[test]
    fn unbounded_resolve_never_loses(
        (g, seed) in (arb_graph(), any::<u64>()),
        edits in proptest::collection::vec((any::<u64>(), 0.05f64..0.6), 1..6),
    ) {
        use hgp::hierarchy::presets;
        let n = g.num_nodes();
        let inst = Instance::uniform(g, 0.3);
        let h = presets::multicore(2, 4, 4.0, 1.0);
        let k = h.num_leaves();
        // pseudo-random (typically bad) initial placement from the seed
        let leaves: Vec<u32> = (0..n)
            .map(|v| ((seed.rotate_left(v as u32 * 13) as usize) % k) as u32)
            .collect();
        let initial = Assignment::new(leaves, &h);
        let mut s = Session::with_initial(h.clone(), &inst, &initial);
        let opts = ReplaceOptions::builder()
            .solver(SolverOptions::builder().trees(2).units(4).seed(7).build())
            .build();

        let cold = s.resolve(&opts);
        let scratch = Solve::new(&inst, &h).options(opts.solver).run();
        if let Ok(scratch) = scratch {
            prop_assert!(
                cold.cost <= scratch.cost + 1e-9,
                "cold resolve {} vs from-scratch {}",
                cold.cost,
                scratch.cost
            );
        }

        let batch: Vec<Mutation> = edits
            .iter()
            .map(|&(pick, demand)| Mutation::UpdateDemand {
                task: pick as usize % n,
                demand,
            })
            .collect();
        s.apply(&batch).expect("demand edits on live tasks are valid");
        let before = s.cost();
        let warm = s.resolve(&opts);
        prop_assert!(
            warm.cost <= before + 1e-9,
            "warm resolve {} worse than staying put at {}",
            warm.cost,
            before
        );
        if cold.target_cost.is_some() {
            prop_assert!(warm.warm, "demand edits must keep the cache warm");
        }
    }
}
