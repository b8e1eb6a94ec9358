//! The machine-readable perf trajectory: `BENCH_solver.json`.
//!
//! Times the two expensive solve stages — Räcke distribution build and the
//! per-tree DP sweep (with its Theorem-5 repair share broken out) — once
//! serially ([`Parallelism::serial`]) and once at the requested width, on a
//! fixed seeded mesh workload, and checks *cost parity*: both arms must
//! return bit-identical costs and assignments, or the report says so and
//! validation fails. Every future perf PR is judged against the JSON this
//! module emits (see EXPERIMENTS.md, "The solver bench").
//!
//! Since schema `/3` the per-stage CPU totals are *span-derived*: the
//! measured arms run with [`SolverOptions::trace`] on and the DP/repair CPU
//! milliseconds are read from the report's [`hgp_core::SolveTrace`] rather
//! than private timer fields, and the report carries a `trace` section
//! comparing traced vs untraced wall time (the observability layer's
//! overhead budget).
//!
//! Measured speedups are hardware-dependent: on a single-core machine
//! serial and parallel arms are expected to tie. The emitted
//! `available_parallelism` field records what the numbers were measured on.

use crate::alloc::count_allocations;
use crate::json::Json;
use crate::timed;
use hgp_core::solver::{HgpReport, SolverOptions};
use hgp_core::{Instance, Parallelism, Solve};
use hgp_graph::generators;
use hgp_hierarchy::{presets, Hierarchy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Schema tag emitted into (and required from) `BENCH_solver.json`.
/// `/2` added the DP-engine comparison (`engine`), the
/// mesh/expander/power-law × height workload matrix (`matrix`), and
/// per-stage allocation counts (`allocs`). `/3` switched the DP/repair CPU
/// totals to span-derived values from the solver trace and added the
/// `trace` section (traced-vs-untraced wall time and span coverage).
/// `/4` added the `distribution_ref` before/after arm (the pre-scratch
/// allocating sampler vs the scratch-reuse path, with allocation counters)
/// and the degenerate-host annotation: when the run has no real
/// parallelism, stage objects carry `parallel_arm: "degenerate"` instead
/// of a meaningless ~1.0 `speedup`. `/5` dropped the tree-prune fields
/// (`pruned_trees`, `pruned_cost`, `pruned_cost_parity`) from
/// `distribution_ref` along with the prune option itself. `/6` dropped
/// the `engine`, `matrix` and `distribution_ref` blocks: every one was an
/// A/B against a test oracle (the legacy DP, the allocating sampler) that
/// no longer ships, and the root tests now check that parity.
pub const SCHEMA: &str = "hgp-bench-solver/6";

/// Workload and measurement knobs for [`run_solver_bench`].
#[derive(Clone, Copy, Debug)]
pub struct SolverBenchOpts {
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Trees in the distribution.
    pub trees: usize,
    /// Rounding grid units per leaf.
    pub units: u32,
    /// Parallel-arm worker width (`0` = one per core).
    pub threads: usize,
    /// Timing repeats per arm; the minimum is reported.
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
}

impl SolverBenchOpts {
    /// The standard bench workload (16×16 mesh, 8 trees).
    pub fn standard() -> Self {
        Self {
            rows: 16,
            cols: 16,
            trees: 8,
            units: 8,
            threads: 0,
            repeats: 3,
            seed: 0x5AA5_2014,
        }
    }

    /// A seconds-scale variant for CI smoke (6×6 mesh, 4 trees).
    pub fn tiny() -> Self {
        Self {
            rows: 6,
            cols: 6,
            trees: 4,
            units: 4,
            repeats: 1,
            ..Self::standard()
        }
    }
}

/// Wall-clock milliseconds of one stage, serial vs parallel arm.
#[derive(Clone, Copy, Debug)]
pub struct StageTimes {
    /// Minimum over repeats, serial arm.
    pub serial_ms: f64,
    /// Minimum over repeats, parallel arm.
    pub parallel_ms: f64,
}

impl StageTimes {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            f64::NAN
        }
    }
}

/// Heap traffic of one stage: `(calls, bytes)` for each arm. All-zero when
/// the counting allocator is not registered (library tests, harness runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageAllocs {
    /// Allocator calls (serial arm, parallel arm), last repeat.
    pub calls: (u64, u64),
    /// Requested bytes (serial arm, parallel arm), last repeat.
    pub bytes: (u64, u64),
}

/// Traced-vs-untraced comparison of the full serial pipeline: the
/// observability layer's acceptance budget is ≤ 2 % wall-time overhead,
/// and the traced run's per-stage span sum should account for (nearly all
/// of) its wall time.
#[derive(Clone, Copy, Debug)]
pub struct TraceCost {
    /// Full-pipeline wall time with [`SolverOptions::trace`] off
    /// (min over repeats).
    pub untraced_ms: f64,
    /// Full-pipeline wall time with tracing on (min over repeats).
    pub traced_ms: f64,
    /// Sum of the traced run's wall-clock stages
    /// (`distribution` + `sweep`), from [`hgp_core::SolveTrace`].
    pub stage_sum_ms: f64,
}

impl TraceCost {
    /// `traced / untraced − 1` — the fraction of wall time tracing added.
    /// Negative values are timing noise (the arms are min-over-repeats of
    /// the same work).
    pub fn overhead_frac(&self) -> f64 {
        if self.untraced_ms > 0.0 {
            self.traced_ms / self.untraced_ms - 1.0
        } else {
            f64::NAN
        }
    }

    /// `stage_sum / traced` — the fraction of the traced run's wall time
    /// its spans account for (the "within 10 % of wall" acceptance check).
    pub fn span_coverage(&self) -> f64 {
        if self.traced_ms > 0.0 {
            self.stage_sum_ms / self.traced_ms
        } else {
            f64::NAN
        }
    }
}

/// Everything [`run_solver_bench`] measured.
#[derive(Clone, Debug)]
pub struct SolverBenchReport {
    /// The options the run used.
    pub opts: SolverBenchOpts,
    /// Nodes in the workload graph.
    pub nodes: usize,
    /// Edges in the workload graph.
    pub edges: usize,
    /// Distribution-build stage wall times.
    pub distribution: StageTimes,
    /// DP-sweep stage wall times (per-tree DP + repair + scoring).
    pub dp: StageTimes,
    /// Summed per-tree DP CPU milliseconds (serial arm, parallel arm),
    /// read from the solve trace's `dp-cpu` total.
    pub dp_cpu_ms: (f64, f64),
    /// Summed Theorem-5 repair CPU milliseconds (serial arm, parallel
    /// arm), read from the solve trace's `repair-cpu` total.
    pub repair_cpu_ms: (f64, f64),
    /// End-to-end wall times (distribution + sweep).
    pub total: StageTimes,
    /// Distribution-stage heap traffic.
    pub distribution_allocs: StageAllocs,
    /// DP-sweep heap traffic.
    pub dp_allocs: StageAllocs,
    /// The observability tax: traced vs untraced serial pipeline.
    pub trace: TraceCost,
    /// Costs returned by the two arms (must match bit-for-bit).
    pub costs: (f64, f64),
    /// `true` iff both arms returned bit-identical costs.
    pub identical_cost: bool,
    /// `true` iff both arms returned identical assignments and tree picks.
    pub identical_assignment: bool,
    /// What `available_parallelism` reported on the measuring machine.
    pub available_parallelism: usize,
}

struct ArmResult {
    dist_ms: f64,
    sweep_ms: f64,
    dist_allocs: (u64, u64),
    sweep_allocs: (u64, u64),
    report: HgpReport,
}

/// Span-derived CPU milliseconds of the named total in the report's trace
/// (`0` when the report was produced without tracing).
fn trace_cpu_ms(rep: &HgpReport, name: &str) -> f64 {
    rep.trace
        .as_ref()
        .and_then(|t| t.cpu_nanos(name))
        .unwrap_or(0) as f64
        / 1e6
}

fn arm(
    inst: &Instance,
    h: &Hierarchy,
    opts: &SolverOptions,
    repeats: usize,
) -> Result<ArmResult, String> {
    let req = Solve::new(inst, h).options(*opts);
    let mut dist_ms = f64::INFINITY;
    let mut sweep_ms = f64::INFINITY;
    let mut dist_allocs = (0, 0);
    let mut sweep_allocs = (0, 0);
    let mut report = None;
    for _ in 0..repeats.max(1) {
        let ((dist, ms), calls, bytes) = count_allocations(|| timed(|| req.distribution()));
        let dist = dist.map_err(|e| format!("distribution failed: {e}"))?;
        dist_ms = dist_ms.min(ms);
        dist_allocs = (calls, bytes);
        let ((rep, ms), calls, bytes) = count_allocations(|| timed(|| req.run_on(&dist)));
        let rep = rep.map_err(|e| format!("solve failed: {e}"))?;
        sweep_ms = sweep_ms.min(ms);
        sweep_allocs = (calls, bytes);
        report = Some(rep);
    }
    Ok(ArmResult {
        dist_ms,
        sweep_ms,
        dist_allocs,
        sweep_allocs,
        report: report.expect("repeats >= 1"),
    })
}

/// Measures the observability tax on the full serial pipeline: tracing off
/// vs on, min wall over repeats, plus the traced run's per-stage span sum
/// for the coverage check.
fn measure_trace_cost(
    inst: &Instance,
    h: &Hierarchy,
    serial_opts: &SolverOptions,
    repeats: usize,
) -> Result<TraceCost, String> {
    let untraced = Solve::new(inst, h).options(serial_opts.to_builder().trace(false).build());
    let traced = Solve::new(inst, h).options(serial_opts.to_builder().trace(true).build());
    let mut untraced_ms = f64::INFINITY;
    let mut traced_ms = f64::INFINITY;
    let mut stage_sum_ms = 0.0;
    for _ in 0..repeats.max(1) {
        let (rep, ms) = timed(|| untraced.run());
        rep.map_err(|e| format!("untraced solve failed: {e}"))?;
        untraced_ms = untraced_ms.min(ms);
        let (rep, ms) = timed(|| traced.run());
        let rep = rep.map_err(|e| format!("traced solve failed: {e}"))?;
        if ms < traced_ms {
            traced_ms = ms;
            stage_sum_ms =
                rep.trace.as_ref().map(|t| t.stage_sum_nanos()).unwrap_or(0) as f64 / 1e6;
        }
    }
    Ok(TraceCost {
        untraced_ms,
        traced_ms,
        stage_sum_ms,
    })
}

/// Runs the serial and parallel arms and assembles the report.
pub fn run_solver_bench(opts: &SolverBenchOpts) -> Result<SolverBenchReport, String> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let g = generators::grid2d(&mut rng, opts.rows, opts.cols, 0.5, 2.0);
    let (nodes, edges) = (g.num_nodes(), g.num_edges());
    let h = presets::multicore(4, 4, 4.0, 1.0);
    let demand = (0.8 * h.num_leaves() as f64 / nodes as f64).min(1.0);
    let inst = Instance::uniform(g, demand);

    // The measured arms run traced: the report's DP/repair CPU totals are
    // read from the spans, and the `trace` section below prices exactly
    // that choice against an untraced control.
    let base = SolverOptions::builder()
        .trees(opts.trees)
        .units(opts.units)
        .seed(opts.seed)
        .trace(true)
        .build();
    let serial_opts = base.to_builder().threads(Parallelism::serial()).build();
    let parallel_opts = base
        .to_builder()
        .threads(Parallelism::from_threads(opts.threads))
        .build();

    let s = arm(&inst, &h, &serial_opts, opts.repeats)?;
    let p = arm(&inst, &h, &parallel_opts, opts.repeats)?;
    let (s_rep, p_rep) = (&s.report, &p.report);
    let trace = measure_trace_cost(&inst, &h, &serial_opts, opts.repeats)?;

    Ok(SolverBenchReport {
        opts: *opts,
        nodes,
        edges,
        distribution: StageTimes {
            serial_ms: s.dist_ms,
            parallel_ms: p.dist_ms,
        },
        dp: StageTimes {
            serial_ms: s.sweep_ms,
            parallel_ms: p.sweep_ms,
        },
        dp_cpu_ms: (trace_cpu_ms(s_rep, "dp-cpu"), trace_cpu_ms(p_rep, "dp-cpu")),
        repair_cpu_ms: (
            trace_cpu_ms(s_rep, "repair-cpu"),
            trace_cpu_ms(p_rep, "repair-cpu"),
        ),
        total: StageTimes {
            serial_ms: s.dist_ms + s.sweep_ms,
            parallel_ms: p.dist_ms + p.sweep_ms,
        },
        distribution_allocs: StageAllocs {
            calls: (s.dist_allocs.0, p.dist_allocs.0),
            bytes: (s.dist_allocs.1, p.dist_allocs.1),
        },
        dp_allocs: StageAllocs {
            calls: (s.sweep_allocs.0, p.sweep_allocs.0),
            bytes: (s.sweep_allocs.1, p.sweep_allocs.1),
        },
        trace,
        costs: (s_rep.cost, p_rep.cost),
        identical_cost: s_rep.cost.to_bits() == p_rep.cost.to_bits(),
        identical_assignment: s_rep.assignment == p_rep.assignment
            && s_rep.best_tree == p_rep.best_tree,
        available_parallelism: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1),
    })
}

impl SolverBenchReport {
    /// Renders the report as the `BENCH_solver.json` document.
    pub fn to_json(&self) -> Json {
        let o = &self.opts;
        // On a host with one effective core (or a one-worker request) the
        // serial and parallel arms run the same schedule, so a ~1.0
        // "speedup" would read as "parallelism doesn't help" when nothing
        // was actually measured — annotate instead of misleading.
        let workers = Parallelism::from_threads(o.threads).workers(o.trees);
        let degenerate = self.available_parallelism <= 1 || workers <= 1;
        let stage = |t: &StageTimes| {
            let mut fields = vec![
                ("serial_ms", Json::Num(t.serial_ms)),
                ("parallel_ms", Json::Num(t.parallel_ms)),
            ];
            if degenerate {
                fields.push(("parallel_arm", Json::Str("degenerate".into())));
            } else {
                fields.push(("speedup", Json::Num(t.speedup())));
            }
            Json::obj(fields)
        };
        let allocs = |a: &StageAllocs| {
            Json::obj(vec![
                ("serial_calls", Json::Num(a.calls.0 as f64)),
                ("parallel_calls", Json::Num(a.calls.1 as f64)),
                ("serial_bytes", Json::Num(a.bytes.0 as f64)),
                ("parallel_bytes", Json::Num(a.bytes.1 as f64)),
            ])
        };
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.into())),
            (
                "workload",
                Json::obj(vec![
                    ("graph", Json::Str(format!("mesh-{}x{}", o.rows, o.cols))),
                    ("nodes", Json::Num(self.nodes as f64)),
                    ("edges", Json::Num(self.edges as f64)),
                    ("machine", Json::Str("4x4:4,1,0".into())),
                    ("trees", Json::Num(o.trees as f64)),
                    ("units", Json::Num(o.units as f64)),
                    ("seed", Json::Num(o.seed as f64)),
                    ("repeats", Json::Num(o.repeats as f64)),
                ]),
            ),
            (
                "environment",
                Json::obj(vec![
                    (
                        "available_parallelism",
                        Json::Num(self.available_parallelism as f64),
                    ),
                    ("threads_requested", Json::Num(o.threads as f64)),
                    (
                        "workers",
                        Json::Num(Parallelism::from_threads(o.threads).workers(o.trees) as f64),
                    ),
                ]),
            ),
            (
                "stages",
                Json::obj(vec![
                    ("distribution", stage(&self.distribution)),
                    ("dp", stage(&self.dp)),
                    (
                        "repair",
                        Json::obj(vec![
                            ("serial_cpu_ms", Json::Num(self.repair_cpu_ms.0)),
                            ("parallel_cpu_ms", Json::Num(self.repair_cpu_ms.1)),
                        ]),
                    ),
                ]),
            ),
            (
                "allocs",
                Json::obj(vec![
                    ("distribution", allocs(&self.distribution_allocs)),
                    ("dp", allocs(&self.dp_allocs)),
                ]),
            ),
            (
                "dp_cpu",
                Json::obj(vec![
                    ("serial_cpu_ms", Json::Num(self.dp_cpu_ms.0)),
                    ("parallel_cpu_ms", Json::Num(self.dp_cpu_ms.1)),
                ]),
            ),
            (
                "trace",
                Json::obj(vec![
                    ("untraced_serial_ms", Json::Num(self.trace.untraced_ms)),
                    ("traced_serial_ms", Json::Num(self.trace.traced_ms)),
                    ("overhead_frac", Json::Num(self.trace.overhead_frac())),
                    ("stage_sum_ms", Json::Num(self.trace.stage_sum_ms)),
                    ("span_coverage", Json::Num(self.trace.span_coverage())),
                ]),
            ),
            ("total", stage(&self.total)),
            (
                "parity",
                Json::obj(vec![
                    ("serial_cost", Json::Num(self.costs.0)),
                    ("parallel_cost", Json::Num(self.costs.1)),
                    ("identical_cost", Json::Bool(self.identical_cost)),
                    (
                        "identical_assignment",
                        Json::Bool(self.identical_assignment),
                    ),
                ]),
            ),
        ])
    }
}

/// Validates an emitted `BENCH_solver.json`: parses, checks the schema tag,
/// requires every stage with finite non-negative times and allocation
/// counts (zero = "not measured" is fine), requires the `trace` section
/// (finite overhead and coverage), and requires cost parity between the
/// serial/parallel arms. CI and the smoke test both call this.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("bad schema tag {other:?}, want {SCHEMA:?}")),
    }
    let time = |path: &[&str]| -> Result<f64, String> {
        let x = doc
            .path(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {}", path.join(".")))?;
        if x.is_finite() && x >= 0.0 {
            Ok(x)
        } else {
            Err(format!("field {} is {x}, not a time", path.join(".")))
        }
    };
    // A value that may legitimately be negative (overhead noise) but must
    // be present and finite.
    let finite = |path: &[&str]| -> Result<f64, String> {
        let x = doc
            .path(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric field {}", path.join(".")))?;
        if x.is_finite() {
            Ok(x)
        } else {
            Err(format!("field {} is {x}, not finite", path.join(".")))
        }
    };
    for stage in ["distribution", "dp"] {
        time(&["stages", stage, "serial_ms"])?;
        time(&["stages", stage, "parallel_ms"])?;
    }
    time(&["stages", "repair", "serial_cpu_ms"])?;
    time(&["stages", "repair", "parallel_cpu_ms"])?;
    time(&["total", "serial_ms"])?;
    time(&["total", "parallel_ms"])?;
    for stage in ["distribution", "dp"] {
        for field in [
            "serial_calls",
            "parallel_calls",
            "serial_bytes",
            "parallel_bytes",
        ] {
            time(&["allocs", stage, field])?;
        }
    }
    time(&["trace", "untraced_serial_ms"])?;
    time(&["trace", "traced_serial_ms"])?;
    time(&["trace", "stage_sum_ms"])?;
    finite(&["trace", "overhead_frac"])?;
    finite(&["trace", "span_coverage"])?;
    for flag in ["identical_cost", "identical_assignment"] {
        match doc.path(&["parity", flag]).and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => return Err(format!("cost parity violated: parity.{flag} = false")),
            None => return Err(format!("missing parity.{flag}")),
        }
    }
    for field in [
        ["workload", "nodes"],
        ["workload", "trees"],
        ["environment", "available_parallelism"],
    ] {
        time(&field)?;
    }
    Ok(())
}

/// Maximum tolerated slowdown of `total.serial_ms` against the committed
/// baseline before [`smoke_check`] fails: 25 %.
pub const SMOKE_TOLERANCE: f64 = 1.25;

/// The CI bench-regression gate: compares a freshly measured report against
/// the committed `BENCH_solver.json`. Fails when the fresh run's serial and
/// parallel arms disagree on cost or assignment; when the fresh
/// `total.serial_ms` — or the fresh `stages.distribution.serial_ms`, so a
/// regression in the distribution stage can't hide behind a DP win —
/// exceeds the committed one by more than [`SMOKE_TOLERANCE`]; or when the
/// committed document itself fails [`validate`] (structure/parity).
///
/// The timing gates deliberately use only *serial* wall times: parallel
/// times shift with machine load and core count, while the serial arm is
/// the single-thread trajectory the solver is tuned for.
pub fn smoke_check(committed: &str, fresh: &SolverBenchReport) -> Result<(), String> {
    validate(committed).map_err(|e| format!("committed baseline invalid: {e}"))?;
    for (flag, ok) in [
        ("identical_cost", fresh.identical_cost),
        ("identical_assignment", fresh.identical_assignment),
    ] {
        if !ok {
            return Err(format!(
                "cost parity violated in the fresh run: parity.{flag} = false"
            ));
        }
    }
    let doc = Json::parse(committed)?;
    let gates = [
        (
            "total.serial_ms",
            doc.path(&["total", "serial_ms"]),
            fresh.total.serial_ms,
        ),
        (
            "stages.distribution.serial_ms",
            doc.path(&["stages", "distribution", "serial_ms"]),
            fresh.distribution.serial_ms,
        ),
    ];
    for (name, baseline, measured) in gates {
        let baseline = baseline
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("committed baseline missing {name}"))?;
        if baseline.is_nan() || baseline <= 0.0 {
            return Err(format!("committed {name} = {baseline} unusable"));
        }
        if measured > baseline * SMOKE_TOLERANCE {
            return Err(format!(
                "perf regression: {name} {measured:.2} > {SMOKE_TOLERANCE} x committed {baseline:.2}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_emits_valid_json_with_all_stages() {
        let report = run_solver_bench(&SolverBenchOpts::tiny()).unwrap();
        assert!(report.identical_cost, "parallel arm changed the cost");
        assert!(
            report.identical_assignment,
            "parallel arm changed the assignment"
        );
        // the CPU totals now come from the solve trace, so the traced arms
        // must actually have populated them
        assert!(report.dp_cpu_ms.0 > 0.0, "serial dp-cpu span missing");
        assert!(report.dp_cpu_ms.1 > 0.0, "parallel dp-cpu span missing");
        // the traced stages are timed inside the solve, so their sum can
        // never exceed the measured wall time by more than noise
        assert!(report.trace.stage_sum_ms > 0.0, "trace stages missing");
        assert!(
            report.trace.stage_sum_ms <= report.trace.traced_ms + 0.5,
            "stage sum {} exceeds traced wall {}",
            report.trace.stage_sum_ms,
            report.trace.traced_ms
        );
        let text = report.to_json().to_pretty();
        validate(&text).unwrap();
        // every stage the ISSUE names must be present in the document
        let doc = Json::parse(&text).unwrap();
        for stage in ["distribution", "dp", "repair"] {
            assert!(doc.path(&["stages", stage]).is_some(), "missing {stage}");
        }
        for stage in ["distribution", "dp"] {
            assert!(
                doc.path(&["allocs", stage, "serial_calls"]).is_some(),
                "missing allocs.{stage}"
            );
        }
        assert!(doc.path(&["parity", "identical_cost"]).is_some());
        for field in ["overhead_frac", "span_coverage", "traced_serial_ms"] {
            assert!(
                doc.path(&["trace", field]).is_some(),
                "missing trace.{field}"
            );
        }
        // the oracle A/B blocks are gone with the oracles
        for block in ["engine", "matrix", "distribution_ref"] {
            assert!(doc.get(block).is_none(), "stale {block} block");
        }
        // a stage object carries either a real speedup or the degenerate
        // annotation, never both
        let has_speedup = doc.path(&["total", "speedup"]).is_some();
        let has_degenerate = doc.path(&["total", "parallel_arm"]).is_some();
        assert!(has_speedup != has_degenerate, "{text}");
        if report.available_parallelism <= 1 {
            assert!(
                has_degenerate,
                "single-core host must annotate, not claim ~1.0x"
            );
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        let report = run_solver_bench(&SolverBenchOpts::tiny()).unwrap();
        let good = report.to_json().to_pretty();
        let no_parity = good.replace("\"identical_cost\": true", "\"identical_cost\": false");
        assert!(validate(&no_parity).is_err(), "parity=false must fail");
        let wrong_schema = good.replace(SCHEMA, "hgp-bench-solver/5");
        assert!(validate(&wrong_schema).is_err(), "old schema must fail");
    }

    #[test]
    fn smoke_check_flags_serial_regressions_only() {
        let mut report = run_solver_bench(&SolverBenchOpts::tiny()).unwrap();
        let committed = report.to_json().to_pretty();
        // same run against itself: no regression
        smoke_check(&committed, &report).unwrap();
        // parallel-arm noise is ignored
        report.total.parallel_ms *= 100.0;
        smoke_check(&committed, &report).unwrap();
        // a distribution-stage slowdown fails even when the total stays
        // flat (a DP win must not mask a sampler regression)
        let dist_ms = report.distribution.serial_ms;
        report.distribution.serial_ms *= 1.5;
        let err = smoke_check(&committed, &report).unwrap_err();
        assert!(err.contains("stages.distribution.serial_ms"), "{err}");
        report.distribution.serial_ms = dist_ms;
        // a >25% serial slowdown fails
        report.total.serial_ms *= 1.5;
        let err = smoke_check(&committed, &report).unwrap_err();
        assert!(err.contains("perf regression"), "{err}");
        // an invalid baseline fails regardless of timing
        assert!(smoke_check("{}", &report).is_err());
    }

    #[test]
    fn smoke_check_fails_when_the_fresh_run_loses_parity() {
        let report = run_solver_bench(&SolverBenchOpts::tiny()).unwrap();
        let committed = report.to_json().to_pretty();
        smoke_check(&committed, &report).unwrap();
        let mut doctored = report.clone();
        doctored.identical_cost = false;
        let err = smoke_check(&committed, &doctored).unwrap_err();
        assert!(err.contains("parity.identical_cost"), "{err}");
        let mut doctored = report;
        doctored.identical_assignment = false;
        let err = smoke_check(&committed, &doctored).unwrap_err();
        assert!(err.contains("parity.identical_assignment"), "{err}");
    }
}
