//! Determinism: every pipeline stage is bit-reproducible from its seed;
//! the scratch-arena tree builder and sampler reproduce the allocating
//! reference ones (`oracle/alloc_sampler.rs`), and the bisection engine
//! the recursive allocating one (`oracle/alloc_bisection.rs`), bit for
//! bit; and k-way recursive bisection is pinned by literals.

mod oracle;

use hgp::baselines::kway::{kway_partition, split_into_groups, KwayOpts};
use hgp::core::solver::{HgpReport, SolverOptions};
use hgp::core::{Instance, Parallelism, Solve};
use hgp::decomp::{
    build_decomp_tree, racke_distribution, racke_distribution_par, CutOracle, DecompOpts,
    DecompTree, Distribution,
};
use hgp::graph::partition::{multilevel_bisection, BisectOpts, BisectScratch};
use hgp::graph::{generators, Graph};
use hgp::hierarchy::{presets, Hierarchy};
use oracle::alloc_bisection;
use oracle::alloc_sampler::{build_decomp_tree_prescaled, racke_distribution_ref, scale_graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_trees_bit_identical(x: &DecompTree, y: &DecompTree) {
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

fn assert_distributions_bit_identical(a: &Distribution, b: &Distribution) {
    assert_eq!(a.trees.len(), b.trees.len());
    for (la, lb) in a.lambdas.iter().zip(&b.lambdas) {
        assert_eq!(la.to_bits(), lb.to_bits());
    }
    for (x, y) in a.trees.iter().zip(&b.trees) {
        assert_trees_bit_identical(x, y);
    }
}

#[test]
fn decomposition_trees_are_seed_stable() {
    let mut r1 = StdRng::seed_from_u64(31);
    let g = generators::gnp_connected(&mut r1, 30, 0.2, 0.5, 2.0);
    let w = vec![1.0; 30];
    let t1 = build_decomp_tree(
        &g,
        &w,
        None,
        &DecompOpts::default(),
        &mut StdRng::seed_from_u64(1),
    );
    let t2 = build_decomp_tree(
        &g,
        &w,
        None,
        &DecompOpts::default(),
        &mut StdRng::seed_from_u64(1),
    );
    assert_eq!(t1.tree.num_nodes(), t2.tree.num_nodes());
    assert_eq!(t1.task_of_leaf, t2.task_of_leaf);
    for v in 0..t1.tree.num_nodes() {
        assert_eq!(t1.tree.parent(v), t2.tree.parent(v));
        assert!((t1.tree.edge_weight(v) - t2.tree.edge_weight(v)).abs() < 1e-15);
    }
}

#[test]
fn distributions_are_seed_stable() {
    let mut r = StdRng::seed_from_u64(32);
    let g = generators::grid2d(&mut r, 5, 5, 1.0, 2.0);
    let w = vec![1.0; 25];
    let d1 = racke_distribution(
        &g,
        &w,
        3,
        &DecompOpts::default(),
        &mut StdRng::seed_from_u64(2),
    );
    let d2 = racke_distribution(
        &g,
        &w,
        3,
        &DecompOpts::default(),
        &mut StdRng::seed_from_u64(2),
    );
    for (a, b) in d1.trees.iter().zip(&d2.trees) {
        assert_eq!(a.task_of_leaf, b.task_of_leaf);
    }
}

#[test]
fn tree_solver_is_deterministic() {
    let mut r = StdRng::seed_from_u64(33);
    let g = generators::random_tree(&mut r, 18, 0.5, 3.0);
    let inst = Instance::uniform(g, 0.4);
    let h = presets::multicore(2, 4, 4.0, 1.0);
    let req = Solve::new(&inst, &h).options(SolverOptions::builder().units(16).build());
    let a = req.run_tree().unwrap();
    let b = req.run_tree().unwrap();
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert_eq!(a.dp_entries, b.dp_entries);
}

/// Solves serially, at `fixed` workers and at the automatic width,
/// asserts the three answers are identical, and returns the serial one.
fn solve_at_three_widths(
    inst: &Instance,
    h: &Hierarchy,
    base: SolverOptions,
    fixed: usize,
) -> HgpReport {
    let with = |p| {
        Solve::new(inst, h)
            .options(base.to_builder().threads(p).build())
            .run()
            .unwrap()
    };
    let serial = with(Parallelism::serial());
    for p in [Parallelism::Fixed(fixed), Parallelism::Auto] {
        let r = with(p);
        assert_eq!(serial.assignment, r.assignment, "{p:?}");
        assert_eq!(serial.cost.to_bits(), r.cost.to_bits(), "{p:?}");
        assert_eq!(serial.best_tree, r.best_tree, "{p:?}");
    }
    serial
}

#[test]
fn full_solver_is_seed_stable_and_thread_independent() {
    let mut r = StdRng::seed_from_u64(34);
    let g = generators::gnp_connected(&mut r, 20, 0.25, 0.5, 2.0);
    let inst = Instance::uniform(g, 0.3);
    let h = presets::multicore(2, 4, 4.0, 1.0);
    let base = SolverOptions::builder().trees(4).seed(99).build();
    solve_at_three_widths(&inst, &h, base, 8);
    // a different seed is allowed to (and here does) pick another tree
    let r4 = Solve::new(&inst, &h)
        .options(base.to_builder().seed(100).build())
        .run()
        .unwrap();
    assert!(r4.cost.is_finite());

    // the standard instance: a 16x16 mesh at 80 % load on a 4x4 machine,
    // 8 trees, 8 units; its cost is pinned bit for bit
    let seed = 0x5AA5_2014;
    let g = generators::grid2d(&mut StdRng::seed_from_u64(seed), 16, 16, 0.5, 2.0);
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let demand = 0.8 * h.num_leaves() as f64 / g.num_nodes() as f64;
    let inst = Instance::uniform(g, demand);
    let base = SolverOptions::builder()
        .trees(8)
        .units(8)
        .seed(seed)
        .build();
    let rep = solve_at_three_widths(&inst, &h, base, 4);
    assert_eq!(
        rep.cost.to_bits(),
        391.9618782123588f64.to_bits(),
        "{}",
        rep.cost
    );
}

/// A deep machine at a fine grid: a 16x16 mesh at 80 % load on the
/// three-level `datacenter(2,2,4)` at 8 units. Its largest fold tables
/// pass 12 000 entries, beyond the 6 000 where pruning at `h ≥ 3` used to
/// stop; the solver that stopped there took about 20 s on a 2-core host
/// and created 1 068 639 table entries. Pruning every table keeps its
/// cost and tree pick bit for bit, from far fewer entries.
#[test]
fn deep_fine_grid_solve_prunes_every_table() {
    let seed = 0x5AA5_2014;
    let g = generators::grid2d(&mut StdRng::seed_from_u64(seed), 16, 16, 0.5, 2.0);
    let h = presets::datacenter(2, 2, 4, 12.0, 4.0, 1.0);
    let demand = 0.8 * h.num_leaves() as f64 / g.num_nodes() as f64;
    let inst = Instance::uniform(g, demand);
    let opts = SolverOptions::builder()
        .trees(8)
        .units(8)
        .threads(Parallelism::serial())
        .seed(seed)
        .build();
    let rep = Solve::new(&inst, &h).options(opts).run().unwrap();
    assert_eq!(
        rep.cost.to_bits(),
        554.813538844317f64.to_bits(),
        "{}",
        rep.cost
    );
    assert_eq!(rep.best_tree, 2);
    assert!(
        rep.dp_entries_total < 1_068_639,
        "{} table entries",
        rep.dp_entries_total
    );
}

#[test]
fn tracing_does_not_change_the_solution() {
    // The observability layer is strictly observational: a traced solve
    // must return bit-identical cost, assignment, and tree pick.
    let mut r = StdRng::seed_from_u64(35);
    let g = generators::gnp_connected(&mut r, 24, 0.2, 0.5, 2.0);
    let inst = Instance::uniform(g, 0.3);
    let h = presets::multicore(2, 4, 4.0, 1.0);
    let base = SolverOptions::builder().trees(4).seed(7).build();
    let plain = Solve::new(&inst, &h).options(base).run().unwrap();
    let traced = Solve::new(&inst, &h)
        .options(base.to_builder().trace(true).build())
        .run()
        .unwrap();
    assert!(plain.trace.is_none());
    let trace = traced.trace.expect("trace requested");
    assert_eq!(plain.cost.to_bits(), traced.cost.to_bits());
    assert_eq!(plain.assignment, traced.assignment);
    assert_eq!(plain.best_tree, traced.best_tree);
    // and the trace is internally consistent with the report
    assert_eq!(
        trace.count_of("dp-entries"),
        Some(traced.dp_entries_total as u64)
    );
    assert!(trace.stage_nanos("distribution").is_some());
    assert!(trace.stage_nanos("sweep").is_some());
}

#[test]
fn decomposition_trees_match_the_allocating_builder() {
    // build_decomp_tree runs the scratch builder (and, with an edge
    // scale, Graph::rescale_into); both cut oracles must reproduce the
    // allocating builder's tree and consume the same RNG draws
    let mut r = StdRng::seed_from_u64(36);
    let g = generators::gnp_connected(&mut r, 30, 0.2, 0.5, 2.0);
    let w: Vec<f64> = (0..30).map(|v| 0.5 + (v % 3) as f64 / 4.0).collect();
    let scale: Vec<f64> = (0..g.num_edges())
        .map(|e| 0.5 + (e % 7) as f64 / 4.0)
        .collect();
    for oracle in [CutOracle::Multilevel, CutOracle::Spectral] {
        let opts = DecompOpts {
            oracle,
            ..Default::default()
        };
        for edge_scale in [None, Some(scale.as_slice())] {
            let mut r_got = StdRng::seed_from_u64(5);
            let got = build_decomp_tree(&g, &w, edge_scale, &opts, &mut r_got);
            let scaled = match edge_scale {
                None => g.clone(),
                Some(s) => scale_graph(&g, s),
            };
            let mut r_want = StdRng::seed_from_u64(5);
            let want = build_decomp_tree_prescaled(&g, &scaled, &w, &opts, &mut r_want);
            assert_trees_bit_identical(&got, &want);
            assert_eq!(r_got.gen::<u64>(), r_want.gen::<u64>());
        }
    }
}

#[test]
fn scratch_reuse_is_bit_identical_to_allocating_reference() {
    // the scratch pipeline must equal the pre-scratch allocating
    // reference bit for bit, across seeds × wave widths × thread widths,
    // with ONE long-lived scratch set (the default path reuses its arenas
    // across all of these builds)
    let mut rng = StdRng::seed_from_u64(31);
    let g = generators::gnp_connected(&mut rng, 30, 0.2, 0.5, 2.0);
    let w = vec![1.0; 30];
    for seed in [11u64, 12, 13] {
        for wave in [1usize, 2, 5] {
            let opts = DecompOpts {
                mwu_wave: wave,
                ..Default::default()
            };
            let mut r_ref = StdRng::seed_from_u64(seed);
            let want = racke_distribution_ref(&g, &w, 6, &opts, Parallelism::serial(), &mut r_ref);
            for width in [1usize, 2, 3] {
                let mut r = StdRng::seed_from_u64(seed);
                let got = racke_distribution_par(
                    &g,
                    &w,
                    6,
                    &opts,
                    Parallelism::Fixed(width),
                    &mut r,
                    None,
                );
                assert_distributions_bit_identical(&got, &want);
                // and the caller-visible RNG must be in the same state
                assert_eq!(r.gen::<u64>(), {
                    let mut rr = r_ref.clone();
                    rr.gen::<u64>()
                });
            }
        }
    }
}

#[test]
fn zero_trees_yields_the_empty_distribution() {
    // trees = 0 comes back well-formed (no trees, no lambdas) from the
    // allocating reference too, as it does from the production sampler
    let mut rng = StdRng::seed_from_u64(21);
    let g = generators::gnp_connected(&mut rng, 10, 0.3, 1.0, 2.0);
    let r = racke_distribution_ref(
        &g,
        &[1.0; 10],
        0,
        &DecompOpts::default(),
        Parallelism::serial(),
        &mut rng,
    );
    assert!(r.trees.is_empty());
    assert!(r.lambdas.is_empty());
}

#[test]
fn scratch_bisection_is_bit_identical_to_allocating_path() {
    // one scratch across many graphs, sizes and option sets: sides, cut
    // stats AND the RNG stream consumed must all coincide exactly with
    // the recursive allocating reference
    let mut scratch = BisectScratch::new();
    let mut side = Vec::new();
    let opt_sets = [
        BisectOpts::default(),
        BisectOpts {
            coarsen_until: 8,
            tries: 2,
            ..Default::default()
        },
        BisectOpts {
            no_refine: true,
            ..Default::default()
        },
        BisectOpts {
            target0_frac: 0.3,
            fm_passes: 2,
            ..Default::default()
        },
    ];
    for seed in 0..4u64 {
        let mut gen_rng = StdRng::seed_from_u64(seed);
        let graphs = [
            generators::grid2d(&mut gen_rng, 9, 9, 0.5, 2.0),
            generators::gnp_connected(&mut gen_rng, 120, 0.05, 0.5, 3.0),
            generators::barabasi_albert(&mut gen_rng, 90, 2, 0.5, 2.0),
            Graph::from_edges(1, &[]),
            Graph::from_edges(0, &[]),
        ];
        for g in &graphs {
            let n = g.num_nodes();
            let mut wrng = StdRng::seed_from_u64(seed ^ 0xabc);
            let w: Vec<f64> = (0..n).map(|_| wrng.gen_range(0.5..1.5)).collect();
            for (oi, opts) in opt_sets.iter().enumerate() {
                let mut r1 = StdRng::seed_from_u64(1000 + seed);
                let mut r2 = StdRng::seed_from_u64(1000 + seed);
                let want = alloc_bisection::multilevel_bisection(g, &w, opts, &mut r1);
                let got = multilevel_bisection(g, &w, opts, &mut r2, &mut scratch, &mut side);
                let ctx = format!("seed={seed} n={n} opts#{oi}");
                assert_eq!(side, want.side, "{ctx}");
                assert_eq!(
                    got.cut.to_bits(),
                    want.cut.to_bits(),
                    "{ctx} got={} want={}",
                    got.cut,
                    want.cut
                );
                assert_eq!(got.weight0.to_bits(), want.weight0.to_bits(), "{ctx}");
                assert_eq!(got.weight1.to_bits(), want.weight1.to_bits(), "{ctx}");
                // both paths must have consumed the same RNG stream
                assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
            }
        }
    }
}

/// FNV-1a over a sequence of `u32`s: pins a whole part vector without a
/// literal per task.
fn fnv(xs: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn kway_answers_are_pinned_bit_for_bit() {
    // k-way recursive bisection feeds the flat baselines, the server's
    // deadline fallback and the multilevel seed panel; its part vectors
    // and the RNG draws it consumes are recorded here as literals, so a
    // change of bisection engine has to reproduce each one exactly
    let mut gen = StdRng::seed_from_u64(2718);
    let graphs = [
        ("mesh", generators::grid2d(&mut gen, 37, 29, 0.5, 2.0)),
        (
            "powerlaw",
            generators::barabasi_albert(&mut gen, 1_500, 2, 0.5, 3.0),
        ),
        (
            "clustered",
            generators::planted_clusters(&mut gen, 6, 40, 0.5, 3.0, 0.05, 0.3),
        ),
    ];
    let mut actual = Vec::new();
    for (name, g) in &graphs {
        let n = g.num_nodes();
        let w: Vec<f64> = (0..n).map(|_| gen.gen_range(0.5..1.5)).collect();
        for k in [3usize, 16] {
            let mut rng = StdRng::seed_from_u64(31 + k as u64);
            let part = kway_partition(g, &w, k, &KwayOpts::default(), &mut rng);
            assert!(part.iter().all(|&p| (p as usize) < k));
            actual.push(format!(
                "{name} k={k} part={:016x} next={:016x}",
                fnv(part.iter().copied()),
                rng.gen::<u64>()
            ));
        }
    }
    // the dual-recursive mapper's entry point, on a strict subset of tasks
    let (_, g) = &graphs[2];
    let w = vec![1.0; g.num_nodes()];
    let tasks: Vec<u32> = (0..g.num_nodes() as u32).filter(|t| t % 5 != 2).collect();
    let mut rng = StdRng::seed_from_u64(99);
    let groups = split_into_groups(g, &w, &tasks, 5, &KwayOpts::default(), &mut rng);
    assert_eq!(groups.len(), 5);
    actual.push(format!(
        "groups sizes={:?} hash={:016x} next={:016x}",
        groups.iter().map(Vec::len).collect::<Vec<_>>(),
        fnv(groups.iter().flatten().copied()),
        rng.gen::<u64>()
    ));
    let expected: [&str; 7] = [
        "mesh k=3 part=065443d0c7d342e5 next=5813d7cc5d20e449",
        "mesh k=16 part=508fe72b62b1cbc2 next=cd9d543233e0c9fb",
        "powerlaw k=3 part=f04e0bc2eb8df697 next=78b6988897aa21be",
        "powerlaw k=16 part=b673cb9d8148b5a5 next=52016967404d4ce7",
        "clustered k=3 part=3d8c321cc1a4c4a5 next=3a6d286ba641e4d2",
        "clustered k=16 part=73e1d2cff8009d85 next=de248ffca017ed65",
        "groups sizes=[50, 42, 34, 32, 34] hash=db56d987bfa965a5 next=d59c51abeaf9dced",
    ];
    assert_eq!(actual, expected, "actual records:\n{actual:#?}");
}
