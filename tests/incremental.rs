//! The online placer against offline re-solves: churn stays bounded while
//! quality stays within a constant of recomputing from scratch. All churn
//! goes through the typed [`hgp::core::Mutation`] batches of
//! [`hgp::core::Session`], with budgeted [`Session::resolve`] passes as the
//! improvement step.

use hgp::core::solver::SolverOptions;
use hgp::core::{Instance, Mutation, ReplaceOptions, Session, Solve};
use hgp::graph::GraphBuilder;
use hgp::graph::NodeId;
use hgp::hierarchy::presets;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adds one task through the typed mutation API, returning its id.
fn add_task(s: &mut Session, demand: f64, nbrs: &[(usize, f64)]) -> usize {
    let delta = s
        .apply(&[Mutation::AddTask {
            demand,
            nbrs: nbrs.to_vec(),
        }])
        .expect("a single valid add must apply");
    delta.added[0]
}

/// A small, seeded resolve that may move at most `max_moves` tasks.
fn budgeted(max_moves: usize) -> ReplaceOptions {
    ReplaceOptions::builder()
        .solver(SolverOptions::builder().trees(2).units(4).seed(5).build())
        .max_moves(max_moves)
        .build()
}

/// Replays a random arrival sequence through the placer and through
/// periodic full re-solves, comparing final quality and churn.
#[test]
fn online_quality_tracks_offline_within_constant() {
    let machine = presets::multicore(2, 4, 4.0, 1.0);
    let mut rng = StdRng::seed_from_u64(2024);

    let mut session = Session::new(machine.clone());
    // growing task graph mirror, for offline comparison
    let mut demands: Vec<f64> = Vec::new();
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();

    let first = add_task(&mut session, 0.3, &[]);
    demands.push(0.3);
    assert_eq!(first, 0);
    for i in 1..24usize {
        let d = rng.gen_range(0.1..0.35);
        // attach to 1-2 random earlier tasks
        let mut nbrs = Vec::new();
        let fan = 1 + usize::from(rng.gen_bool(0.4));
        for _ in 0..fan {
            let t = rng.gen_range(0..i);
            let w = rng.gen_range(0.5..4.0);
            if !nbrs.iter().any(|&(x, _)| x == t) {
                nbrs.push((t, w));
            }
        }
        let id = add_task(&mut session, d, &nbrs);
        assert_eq!(id, i);
        demands.push(d);
        for &(t, w) in &nbrs {
            edges.push((t as u32, i as u32, w));
        }
    }
    // best-fit arrivals hold nominal capacity
    assert!(session.max_load() <= 1.0 + 1e-9);
    // a budgeted re-solve after the burst
    session.resolve(&budgeted(24));

    // offline re-solve on the final graph
    let mut b = GraphBuilder::new(24);
    for &(u, v, w) in &edges {
        b.add_edge(NodeId(u), NodeId(v), w);
    }
    let inst = Instance::new(b.build(), demands);
    let opts = SolverOptions::builder().trees(4).units(8).build();
    let offline = Solve::new(&inst, &machine).options(opts).run().unwrap();

    let online_cost = session.cost();
    assert!(
        online_cost <= 4.0 * offline.cost.max(1.0) + 1e-9,
        "online {} vs offline {}",
        online_cost,
        offline.cost
    );
    // churn: one placement per arrival plus the bounded re-solve
    assert!(session.churn() <= 24 + 24, "churn {}", session.churn());
    // the re-solve may commit the pipeline's bicriteria answer, which
    // stays within the same loose capacity bound the pipeline tests use
    let bound = 2.0 * (1.0 + machine.height() as f64);
    assert!(
        session.max_load() <= bound,
        "max load {}",
        session.max_load()
    );
}

/// Removing everything returns the session to a clean state.
#[test]
fn full_drain_leaves_no_residue() {
    let machine = presets::multicore(2, 2, 4.0, 1.0);
    let mut session = Session::new(machine);
    let mut ids = Vec::new();
    for i in 0..6 {
        let nbrs: Vec<(usize, f64)> = if i > 0 {
            vec![(ids[i - 1], 1.0)]
        } else {
            Vec::new()
        };
        ids.push(add_task(&mut session, 0.3, &nbrs));
    }
    assert!(session.cost() >= 0.0);
    // one transaction: the batch removes every task atomically
    let batch: Vec<Mutation> = ids
        .iter()
        .map(|&task| Mutation::RemoveTask { task })
        .collect();
    session.apply(&batch).expect("removing live tasks is valid");
    assert_eq!(session.num_active(), 0);
    assert!(session.loads().iter().all(|&l| l.abs() < 1e-12));
    assert_eq!(session.cost(), 0.0);
}

/// Drives a session through a seeded churn sequence (adds, removes,
/// resizes, budgeted re-solves) while mirroring the surviving tasks in plain
/// vectors, returning the session plus the mirror for cross-checks.
fn churn_sequence(seed: u64, steps: usize) -> (Session, Vec<(usize, f64)>) {
    let machine = presets::multicore(2, 4, 4.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = Session::new(machine);
    let mut live: Vec<(usize, f64)> = Vec::new(); // (task id, demand)
    for _ in 0..steps {
        let roll = rng.gen_range(0..10u32);
        if live.is_empty() || roll < 5 {
            let d = rng.gen_range(0.05..0.4);
            let nbrs: Vec<(usize, f64)> = if live.is_empty() || rng.gen_bool(0.3) {
                Vec::new()
            } else {
                let &(t, _) = &live[rng.gen_range(0..live.len())];
                vec![(t, rng.gen_range(0.5..4.0))]
            };
            let id = add_task(&mut session, d, &nbrs);
            live.push((id, d));
        } else if roll < 7 {
            let idx = rng.gen_range(0..live.len());
            let (task, _) = live.swap_remove(idx);
            session.apply(&[Mutation::RemoveTask { task }]).unwrap();
        } else if roll < 9 {
            let idx = rng.gen_range(0..live.len());
            let d = rng.gen_range(0.05..0.5);
            session
                .apply(&[Mutation::UpdateDemand {
                    task: live[idx].0,
                    demand: d,
                }])
                .unwrap();
            live[idx].1 = d;
        } else {
            session.resolve(&budgeted(4));
        }
    }
    (session, live)
}

/// After an arbitrary churn sequence, the session's per-leaf loads must
/// equal a from-scratch recompute over the surviving tasks — the
/// incremental bookkeeping (adds, removals, resizes, relocations,
/// re-solve moves) may not drift.
#[test]
fn churn_load_bookkeeping_matches_recompute() {
    for seed in [1u64, 7, 42, 2024] {
        let (session, live) = churn_sequence(seed, 60);
        let mut expect = vec![0.0f64; session.loads().len()];
        for &(t, d) in &live {
            expect[session.leaf_of(t).expect("mirrored task is live")] += d;
        }
        for (leaf, (&got, &want)) in session.loads().iter().zip(expect.iter()).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "seed {seed}: leaf {leaf} load drifted ({got} vs recomputed {want})"
            );
        }
        assert_eq!(session.num_active(), live.len(), "seed {seed}");
    }
}

/// `churn()` is monotone non-decreasing over any operation sequence, and
/// only placement-changing operations advance it.
#[test]
fn churn_counter_is_monotone() {
    let machine = presets::multicore(2, 4, 4.0, 1.0);
    let mut rng = StdRng::seed_from_u64(99);
    let mut session = Session::new(machine);
    let mut live: Vec<usize> = Vec::new();
    let mut last = session.churn();
    for step in 0..80 {
        let roll = rng.gen_range(0..10u32);
        if live.is_empty() || roll < 6 {
            live.push(add_task(&mut session, rng.gen_range(0.05..0.3), &[]));
        } else if roll < 8 {
            let task = live.swap_remove(rng.gen_range(0..live.len()));
            session.apply(&[Mutation::RemoveTask { task }]).unwrap();
        } else {
            session.resolve(&budgeted(2));
        }
        let now = session.churn();
        assert!(
            now >= last,
            "step {step}: churn went backwards ({last} -> {now})"
        );
        last = now;
    }
    // adds alone account for at least one move each
    assert!(session.churn() >= live.len() as u64);
}

/// The session is a deterministic function of the operation sequence: the
/// same seeded churn yields identical placements, loads, cost and churn.
#[test]
fn churn_sequences_are_deterministic_for_fixed_seed() {
    let (a, live_a) = churn_sequence(31, 50);
    let (b, live_b) = churn_sequence(31, 50);
    assert_eq!(live_a, live_b);
    for &(t, _) in &live_a {
        assert_eq!(a.leaf_of(t), b.leaf_of(t), "task {t} placed differently");
    }
    assert_eq!(a.churn(), b.churn());
    assert_eq!(a.loads(), b.loads());
    assert!((a.cost() - b.cost()).abs() < 1e-12);

    let (c, live_c) = churn_sequence(32, 50);
    // different seed → (almost surely) a different trajectory
    assert!(
        live_a != live_c || a.churn() != c.churn() || a.loads() != c.loads(),
        "distinct seeds produced identical trajectories"
    );
}

/// Demand oscillation: repeated grow/shrink cycles never corrupt loads.
#[test]
fn demand_oscillation_preserves_load_accounting() {
    let machine = presets::flat(4);
    let mut session = Session::new(machine);
    let a = add_task(&mut session, 0.5, &[]);
    let b = add_task(&mut session, 0.5, &[(a, 2.0)]);
    for round in 0..10 {
        let d = if round % 2 == 0 { 0.9 } else { 0.2 };
        session
            .apply(&[
                Mutation::UpdateDemand { task: a, demand: d },
                Mutation::UpdateDemand {
                    task: b,
                    demand: 1.0 - d + 0.05,
                },
            ])
            .unwrap();
        let total: f64 = session.loads().iter().sum();
        let expect = d + (1.0 - d + 0.05);
        assert!(
            (total - expect).abs() < 1e-9,
            "round {round}: loads drifted ({total} vs {expect})"
        );
    }
}

/// A seeded apply-only stream — adds, removes, demand edits and drains in
/// batches of one to three — on `multicore(2, 4, 4.0, 1.0)`. Returns an
/// FNV-1a hash over every batch's `(cost bits, churn, moves)`, the final
/// cost bits and churn, and the final leaf of every live task in id order.
fn golden_stream(seed: u64) -> (u64, u64, u64, Vec<(usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = Session::new(presets::multicore(2, 4, 4.0, 1.0));
    let mut live: Vec<usize> = Vec::new();
    let mut next_id = 0usize;
    let mut drained = 0usize;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..48 {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let roll = rng.gen_range(0..20u32);
            if live.is_empty() || roll < 9 {
                let mut nbrs: Vec<(usize, f64)> = Vec::new();
                for _ in 0..rng.gen_range(0..=2usize) {
                    if live.is_empty() {
                        break;
                    }
                    let t = live[rng.gen_range(0..live.len())];
                    if !nbrs.iter().any(|&(x, _)| x == t) {
                        nbrs.push((t, rng.gen_range(0.5..4.0)));
                    }
                }
                batch.push(Mutation::AddTask {
                    demand: rng.gen_range(0.05..0.45),
                    nbrs,
                });
                live.push(next_id);
                next_id += 1;
            } else if roll < 13 {
                let task = live.swap_remove(rng.gen_range(0..live.len()));
                batch.push(Mutation::RemoveTask { task });
            } else if roll < 19 || drained >= 2 {
                batch.push(Mutation::UpdateDemand {
                    task: live[rng.gen_range(0..live.len())],
                    demand: rng.gen_range(0.05..0.7),
                });
            } else {
                // leaves 0 and 7 sit in different sockets; never both twice
                batch.push(Mutation::DrainLeaf { leaf: drained * 7 });
                drained += 1;
            }
        }
        let delta = session.apply(&batch).expect("the stream is valid");
        for word in [session.cost().to_bits(), session.churn(), delta.moves] {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let leaves = (0..next_id)
        .filter_map(|t| session.leaf_of(t).map(|l| (t, l)))
        .collect();
    (hash, session.cost().to_bits(), session.churn(), leaves)
}

/// Pins one seeded [`golden_stream`] trajectory bit for bit: any change to
/// best-fit placement, overflow relocation, drain evacuation or the cost
/// sum shows up here.
#[test]
fn golden_apply_trajectory_is_pinned() {
    let (hash, cost_bits, churn, leaves) = golden_stream(13);
    assert_eq!(hash, 0xf59b_8c72_218c_0cda, "per-batch trajectory drifted");
    assert_eq!(cost_bits, 0x405e_11b0_0c14_1784, "final cost drifted");
    assert_eq!(churn, 60);
    let ids: Vec<usize> = leaves.iter().map(|&(t, _)| t).collect();
    let on: Vec<usize> = leaves.iter().map(|&(_, l)| l).collect();
    assert_eq!(
        ids,
        [
            4, 7, 8, 9, 10, 11, 12, 14, 15, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 30, 32, 33, 34,
            35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 47
        ]
    );
    assert_eq!(
        on,
        [
            6, 4, 1, 2, 3, 3, 4, 5, 1, 1, 2, 2, 3, 3, 1, 6, 4, 5, 5, 6, 2, 2, 5, 2, 5, 4, 5, 4, 5,
            5, 1, 6, 6, 4, 3
        ],
        "final leaves drifted"
    );
}

/// Warm-resolve cost of each epoch of the standard churn replay below, as
/// recorded from an earlier run of the same replay.
const STANDARD_EPOCH_COSTS: [f64; 8] = [
    135.40793386666667,
    134.2732988,
    134.2732988,
    134.2732988,
    134.2732988,
    134.2732988,
    134.2732988,
    134.2732988,
];

/// The standard elastic replay: a 409-task streaming DAG on a 4x4 machine
/// takes eight epochs of 24 demand edits, and each post-churn state is
/// resolved twice, warm on the live session and cold on a discarded
/// clone. Demand edits keep the cached distribution, so every warm
/// resolve must hit it, obtain a full-pipeline candidate, stay within 5 %
/// of the cold cost and within 2 % of its recorded cost, and the warm
/// resolves together must be at least 2x faster than the cold ones. Then
/// the final state, restored round-robin, is resolved under doubling move
/// budgets: no budget is overspent, and more budget never costs more.
#[test]
fn standard_churn_replay_stays_warm() {
    use hgp::core::Assignment;
    use hgp::workloads::{demand_churn, stream_dag, ChurnOpts, StreamOpts};
    use std::time::{Duration, Instant};

    let seed = 0xE1A5_2014;
    let epochs = STANDARD_EPOCH_COSTS.len();
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let inst = stream_dag(
        &mut StdRng::seed_from_u64(seed),
        &StreamOpts {
            queries: 24,
            depth: 6,
            max_width: 4,
            max_demand: 0.08,
            ..Default::default()
        },
    );
    assert_eq!(inst.num_tasks(), 409);
    let total: f64 = inst.demands().iter().sum();
    assert!(total <= 0.5 * h.num_leaves() as f64, "no drift headroom");

    let solver = SolverOptions::builder()
        .trees(8)
        .units(4)
        .seed(seed)
        .build();
    let initial = Solve::new(&inst, &h).options(solver).run().unwrap();
    let mut session = Session::with_initial(h.clone(), &inst, &initial.assignment);
    let warm_opts = ReplaceOptions::builder().solver(solver).build();
    let cold_opts = warm_opts.to_builder().cold(true).build();
    // prime the cache: the one cold build every warm resolve amortises
    session.resolve(&cold_opts);

    // one batch more than the epochs: the last one shakes the final state
    let stream = demand_churn(
        &mut StdRng::seed_from_u64(seed ^ 0x9E37_79B9),
        &inst,
        &ChurnOpts {
            epochs: epochs + 1,
            batch: 24,
            jitter: 0.3,
        },
    );
    let (mut warm_time, mut cold_time) = (Duration::ZERO, Duration::ZERO);
    for (i, (batch, recorded)) in stream.iter().zip(STANDARD_EPOCH_COSTS).enumerate() {
        session.apply(batch).unwrap();
        let mut cold_session = session.clone();
        let start = Instant::now();
        let warm = session.resolve(&warm_opts);
        warm_time += start.elapsed();
        let start = Instant::now();
        let cold = cold_session.resolve(&cold_opts);
        cold_time += start.elapsed();
        assert!(
            warm.warm,
            "epoch {i}: the resolve missed the cached distribution"
        );
        assert!(
            warm.target_cost.is_some() && cold.target_cost.is_some(),
            "epoch {i}: an arm degraded to FM only"
        );
        assert!(
            warm.cost <= cold.cost * 1.05 + 1e-9,
            "epoch {i}: warm {} vs cold {}",
            warm.cost,
            cold.cost
        );
        assert!(
            warm.cost <= recorded * 1.02 + 1e-9,
            "epoch {i}: warm {} vs recorded {recorded}",
            warm.cost
        );
    }
    assert!(
        cold_time >= 2 * warm_time,
        "warm resolves {warm_time:?} vs cold {cold_time:?}: under 2x faster"
    );

    session.apply(&stream[epochs]).unwrap();
    let snap = session.snapshot().unwrap();
    let k = h.num_leaves();
    let naive = Assignment::new(
        (0..snap.instance.num_tasks())
            .map(|v| (v % k) as u32)
            .collect(),
        &h,
    );
    let mut displaced = Session::with_initial(h, &snap.instance, &naive);
    displaced.resolve(&warm_opts.to_builder().max_moves(0).build());
    let active = displaced.num_active();
    let budgets = std::iter::once(0)
        .chain(std::iter::successors(Some(1), |b| Some(b * 2)).take_while(|&b| b < active))
        .chain([active]);
    let mut prev: Option<(usize, f64)> = None;
    for budget in budgets {
        let r = displaced
            .clone()
            .resolve(&warm_opts.to_builder().max_moves(budget).build());
        assert!(
            r.moves <= budget,
            "budget {budget}: spent {} moves",
            r.moves
        );
        match prev {
            None => assert_eq!(budget, 0, "the curve starts at budget 0"),
            Some((pb, pc)) => {
                assert!(budget > pb, "budgets must rise ({pb} then {budget})");
                assert!(
                    r.cost <= pc + 1e-6 * pc.max(1.0),
                    "budget {budget}: cost {} above {pc} at budget {pb}",
                    r.cost
                );
            }
        }
        prev = Some((budget, r.cost));
    }
}
