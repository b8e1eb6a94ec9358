//! `scale-ml`: multilevel solves of large graphs.
//!
//! `solve_multilevel` places six instances of each family of the scale
//! suite (2-D mesh, Barabási–Albert, sparse planted clusters) on
//! `4x4:4,1,0`, in passes over all eighteen until the timed phase ends.
//! This is the only workload that enters `hgp-multilevel`, and it barely
//! touches the DP: the exact core sees a coarse graph of a few hundred
//! nodes. Solve time on the clustered family swings by almost two between
//! draws (whether a mid-rung k-way re-seed is adopted, which runs the
//! descent twice), so each family is measured on six draws.

use super::{
    class_medians, flat_reference, set_peak_rss, stream_seed, to_reference, Config, Outcome,
};
use crate::check;
use crate::metrics::Values;
use crate::probe::Probe;
use crate::stats::{self, Sample};
use crate::trace::{Tracer, OP};
use hgp_core::{MultilevelOptions, Parallelism, SolverOptions};
use hgp_hierarchy::presets;
use hgp_multilevel::solve_multilevel;
use hgp_obs::names;
use hgp_workloads::suite::{scale_suite_sized, NamedInstance};
use std::time::{Duration, Instant};

/// Tasks per instance: enough for a ladder of six or seven rungs, few
/// enough that a run makes several passes over eighteen instances.
const TASKS: usize = 6_000;

/// Draws per family.
const DRAWS: u64 = 6;

/// How far the multilevel cost may exceed the flat k-way + refine
/// baseline's. On mesh and clustered graphs the multilevel answer is up
/// to 6 % dearer on some draws (and cheaper on others), so an exact bar
/// would fail on some seeds; a broken V-cycle overshoots by far more.
const FLAT_SLACK: f64 = 1.25;

/// Family metric suffixes, in suite order.
const FAMILIES: [&str; 3] = ["grid2d", "powerlaw", "clustered"];

/// What the solves of one instance report.
#[derive(Default)]
struct Facts {
    /// Coarsen, core and refine walls of the traced solves.
    stages: [Vec<Sample>; 3],
    levels: f64,
    kway_seeded: f64,
    ratio: f64,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let (n, draws) = if cfg.quick {
        (1_000, 1)
    } else {
        (TASKS, DRAWS)
    };
    // instance i is family i % 3 of draw i / 3
    let build = || {
        Ok((0..draws)
            .flat_map(|d| scale_suite_sized(stream_seed(cfg.seed, 1 + d), h.num_leaves(), n))
            .collect::<Vec<NamedInstance>>())
    };
    let (suite, first_setup) = super::setup_once(build)?;
    let refs: Vec<f64> = suite
        .iter()
        .map(|w| flat_reference(&w.inst, &h, cfg.seed))
        .collect();
    let opts = SolverOptions::builder()
        .trees(4)
        .units(4)
        .threads(Parallelism::serial())
        .seed(stream_seed(cfg.seed, 2))
        .multilevel(MultilevelOptions {
            enabled: true,
            ..Default::default()
        })
        .build();

    let mut facts: Vec<Facts> = suite.iter().map(|_| Facts::default()).collect();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut ops, mut failed, mut passes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, start);
    let mut probe = Probe::new(start);
    while passes < 3 || start.elapsed() < cfg.timed() {
        let trace_pass = super::traced_turn(cfg, passes);
        for (i, (w, &reference)) in suite.iter().zip(&refs).enumerate() {
            let op = ops;
            ops += 1;
            let label = format!("scale-ml op {op} ({} draw {})", w.name, i / FAMILIES.len());
            let o = opts.to_builder().trace(trace_pass).build();
            let t0 = Instant::now();
            let result = solve_multilevel(&w.inst, &h, &o);
            let dur = t0.elapsed();
            let rep = match result {
                Ok(rep) => rep,
                Err(e) => {
                    eprintln!("{label}: {e}");
                    failed += 1;
                    continue;
                }
            };
            check::cost_is_eq1(&label, rep.cost, rep.assignment.leaves(), &w.inst, &h)?;
            check::within(&label, rep.violation, rep.coarse_violation.max(1.0))?;
            if rep.cost > reference * FLAT_SLACK {
                return Err(format!(
                    "{label}: multilevel cost {} exceeds the flat baseline's {reference} \
                     by more than {FLAT_SLACK}x",
                    rep.cost
                ));
            }
            let f = &mut facts[i];
            f.levels = rep.levels as f64;
            f.kway_seeded = f64::from(u8::from(rep.seeded_by_kway));
            f.ratio = rep.cost / reference;
            let sample = Sample {
                class: i,
                at: (t0 - start).as_secs_f64(),
                ms: dur.as_secs_f64() * 1e3,
            };
            probe.tick();
            if !trace_pass {
                plain.push(sample);
                continue;
            }
            traced.push(sample);
            let tr = rep
                .trace
                .as_ref()
                .ok_or("traced multilevel solve has no trace")?;
            let root = tracer.span(op, OP, None, t0, dur);
            let mut at = tracer.offset_us(t0);
            let stages = [names::ML_COARSEN, names::ML_CORE, names::ML_REFINE];
            let spans = ["multilevel.coarsen", "multilevel.core", "multilevel.refine"];
            for (k, (stage, span)) in stages.iter().zip(spans).enumerate() {
                let nanos = tr
                    .stage_nanos(stage)
                    .ok_or_else(|| format!("{label}: trace lacks stage {stage}"))?;
                let d = Duration::from_nanos(nanos).as_secs_f64();
                f.stages[k].push(Sample {
                    class: i,
                    at: sample.at,
                    ms: d * 1e3,
                });
                tracer.span_us(op, span, Some(root), at, d * 1e6);
                at += d * 1e6;
            }
        }
        passes += 1;
    }
    let span = start.elapsed().as_secs_f64();
    let speed = probe.into_speed();
    to_reference(&speed, span, &mut plain, &mut traced, &mut tracer);
    for f in &mut facts {
        for stage in &mut f.stages {
            speed.normalize(stage, span);
        }
    }

    // a family's value: the geometric mean over its draws
    let per_family = |per_instance: &[f64], f: usize| {
        let mine: Vec<f64> = per_instance
            .iter()
            .skip(f)
            .step_by(FAMILIES.len())
            .copied()
            .collect();
        stats::geomean(&mine).unwrap_or(0.0)
    };
    let ratios: Vec<f64> = facts.iter().map(|f| f.ratio).collect();
    let mut values = Values::default();
    if cfg.traced {
        let all: Vec<Sample> = plain.iter().chain(&traced).copied().collect();
        let solve_s: Vec<f64> = class_medians(&all, &all, suite.len())
            .iter()
            .map(|ms| ms / 1e3)
            .collect();
        for (fi, name) in FAMILIES.iter().enumerate() {
            values.set(
                &format!("multilevel.solve_s.{name}"),
                per_family(&solve_s, fi),
            );
            for (k, stage) in ["coarsen", "core", "refine"].iter().enumerate() {
                let medians: Vec<f64> = facts
                    .iter()
                    .map(|f| {
                        let s: Vec<f64> = f.stages[k].iter().map(|x| x.ms / 1e3).collect();
                        stats::median(&s).unwrap_or(0.0)
                    })
                    .collect();
                values.set(
                    &format!("multilevel.{stage}_s.{name}"),
                    per_family(&medians, fi),
                );
            }
            let mean_of = |get: fn(&Facts) -> f64| {
                let xs: Vec<f64> = facts
                    .iter()
                    .skip(fi)
                    .step_by(FAMILIES.len())
                    .map(get)
                    .collect();
                stats::mean(&xs)
            };
            values.set(&format!("multilevel.levels.{name}"), mean_of(|f| f.levels));
            values.set(
                &format!("multilevel.kway_seeded.{name}"),
                mean_of(|f| f.kway_seeded),
            );
            values.set(
                &format!("multilevel.cost_ratio.{name}"),
                per_family(&ratios, fi),
            );
        }
        values.set("trace.coverage", tracer.coverage());
        values.set(
            "trace.overhead_frac",
            super::overhead(&traced, &plain, suite.len()),
        );
    } else {
        let quiet = stats::quiet_half(&plain, span);
        let medians = class_medians(&plain, &quiet, suite.len());
        let typical_ms = stats::geomean(&medians).ok_or("scale-ml: nothing solved")?;
        values.set("ops_per_s", 1e3 / typical_ms);
        values.set("lat_p50_ms", typical_ms);
        let slowest = (0..FAMILIES.len())
            .map(|f| per_family(&medians, f))
            .fold(0.0, f64::max);
        values.set("lat_tail_ms", slowest);
        values.set(
            "cost_ratio",
            stats::geomean(&ratios).expect("eighteen instances"),
        );
        set_peak_rss(&mut values)?;
        values.set("setup_s", super::setup_median(first_setup, build)?);
    }
    Ok(Outcome {
        attempted: ops,
        failed,
        values,
        notes: vec![format!(
            "passes={passes} instances={} tasks={n} host_speed={:.3}",
            suite.len(),
            speed.overall()
        )],
        tracer,
    })
}
