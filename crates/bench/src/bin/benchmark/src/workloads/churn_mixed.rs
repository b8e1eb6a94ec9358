//! `churn-mixed`: a long-lived placement absorbing edits, closed loop.
//!
//! Eight `Session`s, each holding its own streaming-operator DAG (the
//! shape of the elastic bench: 24 queries, 6 stages, about 409 tasks) on
//! `4x4:4,1,0`, take operations in turn; eight keep one unusual DAG from
//! deciding a run. Each operation applies one batch and then resolves
//! under a 32-move budget. Nine operations in ten edit 24 demands, which
//! keeps the cached tree distribution valid (the warm path); every tenth
//! adds a task and removes the previously added one, which changes the
//! topology and forces a cold rebuild. So the median prices the warm DP
//! and the p95 prices the rebuild, and an invalidation bug moves both.

use super::{
    flat_reference, ms, quiet_ops_per_s, set_median, set_peak_rss, set_tail, stream_seed,
    to_reference, Config, Outcome,
};
use crate::alloc::counted;
use crate::check;
use crate::metrics::Values;
use crate::probe::Probe;
use crate::stats::{self, Sample};
use crate::trace::{Tracer, OP};
use hgp_core::{
    Assignment, Mutation, Parallelism, ReplaceOptions, ResolveChoice, Session, Solve, SolverOptions,
};
use hgp_hierarchy::presets;
use hgp_workloads::{stream_dag, StreamOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Rounding grid: `ε = 1/UNITS`.
const UNITS: u32 = 4;
/// Sessions taking operations in turn.
const SESSIONS: usize = 8;
/// Demand edits per warm operation.
const EDITS: usize = 24;
/// Every this many operations of a session, one changes its task set.
const NODE_SET_EVERY: u64 = 10;
/// Operations a run makes however long they take, so the quieter half of
/// a plain run holds ten beyond its p95.
const MIN_OPS: u64 = 400;
/// The cost ratio is sampled on every this many operations of a session
/// (the flat reference is computed untimed).
const COST_EVERY: u64 = 50;

/// One session, the original demands its edits jitter around, and where
/// its operation stream stands.
struct Tenant {
    session: Session,
    base: Vec<f64>,
    ops: u64,
    last_added: Option<usize>,
}

fn setup(seed: u64, quick: bool, opts: &ReplaceOptions) -> Result<Vec<Tenant>, String> {
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let stream = StreamOpts {
        queries: if quick { 6 } else { 24 },
        depth: if quick { 4 } else { 6 },
        max_width: 4,
        max_demand: 0.08,
        ..Default::default()
    };
    let sessions = if quick { 2 } else { SESSIONS };
    (0..sessions as u64)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, 10 + k));
            let inst = stream_dag(&mut rng, &stream);
            let initial = Solve::new(&inst, &h)
                .options(opts.solver)
                .run()
                .map_err(|e| format!("churn-mixed initial solve {k}: {e}"))?;
            let mut session = Session::with_initial(h.clone(), &inst, &initial.assignment);
            // priming resolve: builds the distribution the warm path reuses
            session.resolve(opts);
            Ok(Tenant {
                session,
                base: inst.demands().to_vec(),
                ops: 0,
                last_added: None,
            })
        })
        .collect()
}

/// Whether a session's operation `j` changes its task set.
fn node_set(j: u64) -> bool {
    j % NODE_SET_EVERY == NODE_SET_EVERY - 1
}

/// The batch of a session's operation `j`. Node-set edits attach the new
/// task to original tasks only and remove only tasks this loop added, so
/// the graph stays connected and every batch is valid.
fn batch(j: u64, rng: &mut StdRng, base: &[f64], last_added: Option<usize>) -> Vec<Mutation> {
    let n = base.len();
    if node_set(j) {
        let mut nbrs: Vec<(usize, f64)> = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let t = rng.gen_range(0..n);
            if nbrs.iter().all(|&(u, _)| u != t) {
                nbrs.push((t, rng.gen_range(0.01..=1.0)));
            }
        }
        let mut b = vec![Mutation::AddTask {
            demand: base[rng.gen_range(0..n)],
            nbrs,
        }];
        if let Some(task) = last_added {
            b.push(Mutation::RemoveTask { task });
        }
        b
    } else {
        (0..EDITS)
            .map(|_| {
                let task = rng.gen_range(0..n);
                let demand = (base[task] * rng.gen_range(0.7..=1.3)).clamp(1e-3, 1.0);
                Mutation::UpdateDemand { task, demand }
            })
            .collect()
    }
}

/// Checks a session after a resolve: the reported cost is Equation 1 of
/// the committed placement, the session's running cost and loads match a
/// recompute, and capacity stays within the bicriteria bound.
fn check_session(label: &str, session: &Session, reported: f64) -> Result<(), String> {
    let snap = session
        .snapshot()
        .ok_or_else(|| format!("{label}: the session lost every task"))?;
    let h = session.hierarchy();
    check::cost_is_eq1(label, reported, &snap.leaves, &snap.instance, h)?;
    check::close(label, "session cost", session.cost(), reported)?;
    let a = Assignment::new(snap.leaves.clone(), h);
    for (leaf, (&ours, fresh)) in session
        .loads()
        .iter()
        .zip(a.leaf_loads(&snap.instance, h))
        .enumerate()
    {
        check::close(label, &format!("load of leaf {leaf}"), ours, fresh)?;
    }
    let worst = a.violation_report(&snap.instance, h).worst_factor();
    check::within_bicriteria(label, worst, UNITS, h.height())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let solver = SolverOptions::builder()
        .trees(8)
        .units(UNITS)
        .threads(Parallelism::serial())
        .seed(stream_seed(cfg.seed, 3))
        .build();
    let opts = ReplaceOptions::builder()
        .solver(solver)
        .max_moves(32)
        .build();
    let build = || setup(cfg.seed, cfg.quick, &opts);
    let (mut tenants, first_setup) = super::setup_once(build)?;

    let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, 2));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut warm_allocs = Vec::new();
    let mut ratios = Vec::new();
    let mut moves = Vec::new();
    let mut choices = [0u64; 3];
    let mut warm = 0u64;
    let (mut ops, mut failed) = (0u64, 0u64);
    // a turn gives every session ten operations, one of them cold
    let turn = tenants.len() as u64 * NODE_SET_EVERY;
    let start = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, start);
    let mut probe = Probe::new(start);
    while ops < MIN_OPS.max(2 * turn) || start.elapsed() < cfg.timed() {
        let op = ops;
        ops += 1;
        let k = (op % tenants.len() as u64) as usize;
        let t = &mut tenants[k];
        let j = t.ops;
        t.ops += 1;
        let label = format!("churn-mixed op {op} (session {k})");
        let b = batch(j, &mut rng, &t.base, t.last_added);
        let trace_op = super::traced_turn(cfg, op / turn);
        let t0 = Instant::now();
        let delta = match t.session.apply(&b) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{label}: batch rejected: {e}");
                failed += 1;
                continue;
            }
        };
        let t1 = Instant::now();
        let (rep, allocs) = if trace_op {
            counted(|| t.session.resolve(&opts))
        } else {
            (t.session.resolve(&opts), 0)
        };
        let t2 = Instant::now();
        let sample = Sample {
            class: usize::from(node_set(j)),
            at: (t0 - start).as_secs_f64(),
            ms: ms(t2 - t0),
        };
        if let Some(&id) = delta.added.first() {
            t.last_added = Some(id);
        }
        if trace_op {
            let root = tracer.span(op, OP, None, t0, t2 - t0);
            tracer.span(op, "session.apply", Some(root), t0, t1 - t0);
            let name = if rep.warm {
                "session.resolve_warm"
            } else {
                "session.resolve_cold"
            };
            tracer.span(op, name, Some(root), t1, t2 - t1);
            if rep.warm {
                warm_allocs.push(allocs as f64);
            }
            traced.push(sample);
        } else {
            plain.push(sample);
        }
        warm += u64::from(rep.warm);
        choices[match rep.choice {
            ResolveChoice::Previous => 0,
            ResolveChoice::Refined => 1,
            ResolveChoice::Solved => 2,
        }] += 1;
        moves.push((delta.moves + rep.moves as u64) as f64);
        if rep.target_cost.is_none() {
            // the pipeline candidate failed and the resolve degraded
            eprintln!("{label}: resolve had no pipeline candidate");
            failed += 1;
        }
        check_session(&label, &t.session, rep.cost)?;
        if j % COST_EVERY == 0 {
            let snap = t.session.snapshot().expect("checked above");
            let reference = flat_reference(&snap.instance, t.session.hierarchy(), cfg.seed);
            ratios.push(rep.cost / reference);
        }
        probe.tick();
    }
    let span = start.elapsed().as_secs_f64();
    let speed = probe.into_speed();
    to_reference(&speed, span, &mut plain, &mut traced, &mut tracer);

    let resolves = (plain.len() + traced.len()) as f64;
    let mut values = Values::default();
    if cfg.traced {
        let d = |name: &str| tracer.durations_ms(name);
        set_median(&mut values, "session.apply_ms.p50", &d("session.apply"));
        set_tail(
            &mut values,
            "session.apply_ms.p90",
            &d("session.apply"),
            0.9,
        );
        set_median(
            &mut values,
            "session.resolve_warm_ms.p50",
            &d("session.resolve_warm"),
        );
        set_tail(
            &mut values,
            "session.resolve_warm_ms.p90",
            &d("session.resolve_warm"),
            0.9,
        );
        set_median(
            &mut values,
            "session.resolve_cold_ms.p50",
            &d("session.resolve_cold"),
        );
        values.set("session.warm_frac", warm as f64 / resolves);
        values.set("session.choice_previous_frac", choices[0] as f64 / resolves);
        values.set("session.choice_refined_frac", choices[1] as f64 / resolves);
        values.set("session.choice_solved_frac", choices[2] as f64 / resolves);
        values.set("session.moves_per_op", stats::mean(&moves));
        values.set("session.allocs_per_warm_resolve", stats::mean(&warm_allocs));
        values.set("trace.coverage", tracer.coverage());
        values.set("trace.overhead_frac", super::overhead(&traced, &plain, 2));
    } else {
        let quiet = stats::quiet_half(&plain, span);
        values.set("ops_per_s", quiet_ops_per_s(&quiet));
        let quiet: Vec<f64> = quiet.iter().map(|s| s.ms).collect();
        values.set(
            "lat_p50_ms",
            stats::median(&quiet).ok_or("churn-mixed: no operations")?,
        );
        values.set(
            "lat_tail_ms",
            stats::tail(&quiet, 0.95).ok_or("churn-mixed: too few operations for a p95")?,
        );
        values.set(
            "cost_ratio",
            stats::geomean(&ratios).expect("each session's first operation samples the cost"),
        );
        set_peak_rss(&mut values)?;
        values.set("setup_s", super::setup_median(first_setup, build)?);
    }
    Ok(Outcome {
        attempted: ops,
        failed,
        values,
        notes: vec![format!(
            "operations={resolves} warm_resolves={warm} cost_samples={} sessions={} \
             host_speed={:.3}",
            ratios.len(),
            tenants.len(),
            speed.overall()
        )],
        tracer,
    })
}
