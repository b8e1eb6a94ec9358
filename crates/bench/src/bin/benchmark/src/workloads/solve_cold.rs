//! `solve-cold`: the library user's cold solve, with no cache anywhere.
//!
//! One caller in a closed loop runs `Solve::run` over twelve instances in
//! turn: two graphs from each of three families (2-D grid,
//! Barabási–Albert, planted clusters), each on two machines (a two-level
//! `4x4:4,1,0` box and a three-level `2x2x4` datacenter). The
//! distribution is about half of each solve on the two-level machine; the
//! three-level machine makes the signature DP the larger share. Two
//! graphs per family keep one unusual draw from deciding a run.

use super::{
    class_medians, flat_reference, ms, overhead, quiet_ops_per_s, set_median, set_peak_rss,
    set_tail, stream_seed, to_reference, Config, Outcome,
};
use crate::alloc::counted;
use crate::check;
use crate::metrics::Values;
use crate::probe::Probe;
use crate::stats::{self, Sample};
use crate::trace::{Tracer, OP};
use hgp_core::{HgpReport, Instance, Parallelism, Solve, SolveError, SolverOptions};
use hgp_graph::generators;
use hgp_hierarchy::{presets, Hierarchy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Solves a run makes however long they take, so the quieter half of a
/// plain run holds ten beyond its p90, and so does the traced two thirds
/// of a traced run.
const MIN_SOLVES: u64 = 200;

/// Graphs drawn per family.
const PER_FAMILY: usize = 2;

/// One instance on one machine.
struct Case {
    name: String,
    inst: Instance,
    h: Hierarchy,
    /// Rounding grid, `ε = 1/units`.
    units: u32,
}

/// The instances. Graph shapes and demands come from `seed`.
fn cases(seed: u64, quick: bool) -> Vec<Case> {
    let side = if quick { 6 } else { 16 };
    let n = side * side;
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1));
    // signature tables grow roughly with (units x leaves)^height, so the
    // deeper machine gets a coarser grid, as in the solver bench
    let machines = [
        ("4x4", presets::multicore(4, 4, 4.0, 1.0), 8),
        ("2x2x4", presets::datacenter(2, 2, 4, 12.0, 4.0, 1.0), 2),
    ];
    let mut out = Vec::new();
    for k in 0..PER_FAMILY {
        let graphs = [
            ("grid", generators::grid2d(&mut rng, side, side, 0.5, 2.0)),
            (
                "powerlaw",
                generators::barabasi_albert(&mut rng, n, 2, 0.5, 3.0),
            ),
            (
                "clustered",
                generators::planted_clusters(&mut rng, side, side, 0.5, 3.0, 0.01, 0.3),
            ),
        ];
        for (gname, g) in graphs {
            let demands: Vec<f64> = (0..g.num_nodes())
                .map(|_| rng.gen_range(0.02..=0.05))
                .collect();
            let inst = Instance::new(g, demands);
            for (mname, h, units) in &machines {
                out.push(Case {
                    name: format!("{gname}-{n}.{k}@{mname}"),
                    inst: inst.clone(),
                    h: h.clone(),
                    units: *units,
                });
            }
        }
    }
    out
}

/// What a traced solve adds to the per-layer picture.
#[derive(Default)]
struct Layers {
    dist_allocs: Vec<f64>,
    sweep_allocs: Vec<f64>,
    dp_cpu: Vec<Sample>,
    repair_cpu: Vec<Sample>,
    dp_entries: Vec<f64>,
    dp_pruned: Vec<f64>,
}

/// `Solve::distribution` then `Solve::run_on`, each in its own span and
/// with its allocator calls counted.
fn traced_solve(
    req: &Solve<'_>,
    op: u64,
    at: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<HgpReport, SolveError> {
    let t0 = Instant::now();
    let (dist, dist_allocs) = counted(|| req.distribution());
    let t1 = Instant::now();
    let (rep, sweep_allocs) = counted(|| dist.and_then(|d| req.run_on(&d)));
    let t2 = Instant::now();
    let root = tracer.span(op, OP, None, t0, t2 - t0);
    tracer.span(op, "decomp.build", Some(root), t0, t1 - t0);
    tracer.span(op, "core.sweep", Some(root), t1, t2 - t1);
    let rep = rep?;
    layers.dist_allocs.push(dist_allocs as f64);
    layers.sweep_allocs.push(sweep_allocs as f64);
    let cpu = |nanos: u64| Sample {
        class: 0,
        at,
        ms: nanos as f64 / 1e6,
    };
    layers.dp_cpu.push(cpu(rep.dp_nanos_total));
    layers.repair_cpu.push(cpu(rep.repair_nanos_total));
    layers.dp_entries.push(rep.dp_entries_total as f64);
    layers.dp_pruned.push(rep.dp_pruned_total as f64);
    Ok(rep)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let build = || Ok(cases(cfg.seed, cfg.quick));
    let (cases, first_setup) = super::setup_once(build)?;
    let opts = |c: &Case| {
        SolverOptions::builder()
            .trees(8)
            .units(c.units)
            .threads(Parallelism::serial())
            .seed(stream_seed(cfg.seed, 2))
            .build()
    };

    // Warm-up, untimed: one solve per case. Costs are deterministic, so
    // these also give the cost ratio against the flat reference.
    let mut ratios = Vec::with_capacity(cases.len());
    for c in &cases {
        let rep = Solve::new(&c.inst, &c.h)
            .options(opts(c))
            .run()
            .map_err(|e| format!("solve-cold warm-up ({}): {e}", c.name))?;
        ratios.push(rep.cost / flat_reference(&c.inst, &c.h, cfg.seed));
    }

    let mut layers = Layers::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut ops, mut failed) = (0u64, 0u64);
    let cycle = cases.len() as u64;
    let start = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, start);
    let mut probe = Probe::new(start);
    while ops < MIN_SOLVES || start.elapsed() < cfg.timed() {
        let i = (ops % cycle) as usize;
        let c = &cases[i];
        let req = Solve::new(&c.inst, &c.h).options(opts(c));
        let label = format!("solve-cold op {ops} ({})", c.name);
        let trace_op = super::traced_turn(cfg, ops / cycle);
        let t0 = Instant::now();
        let at = (t0 - start).as_secs_f64();
        let result = if trace_op {
            traced_solve(&req, ops, at, &mut tracer, &mut layers)
        } else {
            req.run()
        };
        let sample = Sample {
            class: i,
            at,
            ms: ms(t0.elapsed()),
        };
        ops += 1;
        let rep = match result {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("{label}: {e}");
                failed += 1;
                continue;
            }
        };
        if trace_op { &mut traced } else { &mut plain }.push(sample);
        check::cost_is_eq1(&label, rep.cost, rep.assignment.leaves(), &c.inst, &c.h)?;
        check::within_bicriteria(&label, rep.violation.worst_factor(), c.units, c.h.height())?;
        probe.tick();
    }
    let span = start.elapsed().as_secs_f64();
    let speed = probe.into_speed();
    to_reference(&speed, span, &mut plain, &mut traced, &mut tracer);
    speed.normalize(&mut layers.dp_cpu, span);
    speed.normalize(&mut layers.repair_cpu, span);

    let mut values = Values::default();
    if cfg.traced {
        let d = |name: &str| tracer.durations_ms(name);
        set_median(&mut values, "decomp.build_ms.p50", &d("decomp.build"));
        set_tail(&mut values, "decomp.build_ms.p90", &d("decomp.build"), 0.9);
        values.set("decomp.allocs_per_op", stats::mean(&layers.dist_allocs));
        set_median(&mut values, "core.sweep_ms.p50", &d("core.sweep"));
        set_tail(&mut values, "core.sweep_ms.p90", &d("core.sweep"), 0.9);
        values.set(
            "core.sweep_allocs_per_op",
            stats::mean(&layers.sweep_allocs),
        );
        let ms_of = |xs: &[Sample]| -> Vec<f64> { xs.iter().map(|s| s.ms).collect() };
        set_median(&mut values, "core.dp_cpu_ms.p50", &ms_of(&layers.dp_cpu));
        set_median(
            &mut values,
            "core.repair_cpu_ms.p50",
            &ms_of(&layers.repair_cpu),
        );
        values.set("core.dp_entries_per_op", stats::mean(&layers.dp_entries));
        values.set("core.dp_pruned_per_op", stats::mean(&layers.dp_pruned));
        values.set("trace.coverage", tracer.coverage());
        values.set(
            "trace.overhead_frac",
            overhead(&traced, &plain, cases.len()),
        );
    } else {
        let quiet = stats::quiet_half(&plain, span);
        values.set("ops_per_s", quiet_ops_per_s(&quiet));
        let medians = class_medians(&plain, &quiet, cases.len());
        values.set(
            "lat_p50_ms",
            stats::geomean(&medians).ok_or("solve-cold: no solves completed")?,
        );
        let quiet_ms: Vec<f64> = quiet.iter().map(|s| s.ms).collect();
        values.set(
            "lat_tail_ms",
            stats::tail(&quiet_ms, 0.9).ok_or("solve-cold: too few solves for a p90")?,
        );
        values.set("cost_ratio", stats::geomean(&ratios).expect("twelve cases"));
        set_peak_rss(&mut values)?;
        values.set("setup_s", super::setup_median(first_setup, build)?);
    }
    Ok(Outcome {
        attempted: ops,
        failed,
        values,
        notes: vec![format!(
            "solves={} cases={} host_speed={:.3}",
            plain.len() + traced.len(),
            cases.len(),
            speed.overall()
        )],
        tracer,
    })
}
