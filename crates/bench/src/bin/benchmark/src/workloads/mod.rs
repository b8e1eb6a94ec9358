//! The four workloads and what they share.

pub mod churn_mixed;
pub mod scale_ml;
pub mod serve_mixed;
pub mod solve_cold;

use crate::metrics::Values;
use crate::probe::{Probe, Speed, CHAIN_BYTES, REFERENCE_US};
use crate::stats::{self, Sample};
use crate::trace::Tracer;
use hgp_baselines::kway::{kway_partition, KwayOpts};
use hgp_baselines::refine::{refine, RefineOpts};
use hgp_core::{Assignment, Instance};
use hgp_hierarchy::Hierarchy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How set-up is timed: it runs at least this many times, and until
/// [`SETUP_MIN_S`] have passed, and the median counts, so neither a slow
/// first pass (page faults, a cold allocator) nor a busy moment on the
/// host decides the number. Only the first set-up feeds the timed phase;
/// the others run after it, once `peak_rss_mb` has been read, so the
/// memory they leave with the allocator does not count.
pub const SETUP_REPEATS: usize = 5;

/// See [`SETUP_REPEATS`].
pub const SETUP_MIN_S: f64 = 0.25;

/// The workloads, by the names the command line uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Library cold solves, closed loop.
    SolveCold,
    /// The placement server under an open-loop mix.
    ServeMixed,
    /// Elastic session churn, closed loop.
    ChurnMixed,
    /// Multilevel solves of large graphs.
    ScaleMl,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveCold,
        Workload::ServeMixed,
        Workload::ChurnMixed,
        Workload::ScaleMl,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCold => "solve-cold",
            Workload::ServeMixed => "serve-mixed",
            Workload::ChurnMixed => "churn-mixed",
            Workload::ScaleMl => "scale-ml",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload once.
    pub fn run(self, cfg: &Config) -> Result<Outcome, String> {
        match self {
            Workload::SolveCold => solve_cold::run(cfg),
            Workload::ServeMixed => serve_mixed::run(cfg),
            Workload::ChurnMixed => churn_mixed::run(cfg),
            Workload::ScaleMl => scale_ml::run(cfg),
        }
    }
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub traced: bool,
    /// Toy input sizes, for tests.
    pub quick: bool,
}

impl Config {
    /// The timed phase as a duration.
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run measured.
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, degraded or missing
    /// replies, rejected batches.
    pub failed: u64,
    /// Measured metrics.
    pub values: Values,
    /// Sample counts and other facts for the human-readable header.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

/// Runs `setup` once; returns its result and its time in seconds, scaled
/// to reference speed by three probe loops timed just before it.
pub fn setup_once<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut probe = Probe::new(Instant::now());
    let loops: Vec<f64> = (0..3).map(|_| probe.measure()).collect();
    let factor = REFERENCE_US / stats::median(&loops).expect("three loops");
    let t = Instant::now();
    let out = setup()?;
    Ok((out, t.elapsed().as_secs_f64() * factor))
}

/// The median set-up time: `first`, from [`setup_once`], and repeats of
/// `setup` as [`SETUP_REPEATS`] says.
pub fn setup_median<T>(
    first: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let begun = Instant::now();
    let mut times = vec![first];
    while times.len() < SETUP_REPEATS || begun.elapsed().as_secs_f64() < SETUP_MIN_S {
        times.push(setup_once(&mut setup)?.1);
    }
    Ok(stats::median(&times).expect("at least one set-up"))
}

/// Equation-1 cost of the flat reference placement: METIS-style k-way
/// recursive bisection, then the Equation-1 refiner. Pair swaps are
/// quadratic, so large instances refine by moves only.
pub fn flat_reference(inst: &Instance, h: &Hierarchy, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let part = kway_partition(
        inst.graph(),
        inst.demands(),
        h.num_leaves(),
        &KwayOpts::default(),
        &mut rng,
    );
    let mut a = Assignment::new(part, h);
    let opts = RefineOpts {
        swaps: inst.num_tasks() <= 4096,
        ..Default::default()
    };
    refine(&mut a, inst, h, &opts);
    a.cost(inst, h)
}

/// Records the peak resident set of this process in MB (`VmHWM`), less
/// the probe's read chain.
pub fn set_peak_rss(values: &mut Values) -> Result<(), String> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    values.set(
        "peak_rss_mb",
        (kb * 1024.0 - CHAIN_BYTES as f64) / (1024.0 * 1024.0),
    );
    Ok(())
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets `name` to the median of `xs` when there are samples.
pub fn set_median(values: &mut Values, name: &str, xs: &[f64]) {
    if let Some(m) = stats::median(xs) {
        values.set(name, m);
    }
}

/// Sets `name` to the `q` quantile of `xs` when at least ten samples lie
/// beyond it.
pub fn set_tail(values: &mut Values, name: &str, xs: &[f64], q: f64) {
    if let Some(m) = stats::tail(xs, q) {
        values.set(name, m);
    }
}

/// Median latency of each class over the quiet samples, or over all its
/// samples when none of a class's fell in the quiet half.
pub fn class_medians(all: &[Sample], quiet: &[Sample], classes: usize) -> Vec<f64> {
    (0..classes)
        .filter_map(|c| {
            let of = |xs: &[Sample]| -> Vec<f64> {
                xs.iter().filter(|s| s.class == c).map(|s| s.ms).collect()
            };
            stats::median(&of(quiet)).or_else(|| stats::median(&of(all)))
        })
        .collect()
}

/// Operations per second over the quiet samples of a closed loop.
pub fn quiet_ops_per_s(quiet: &[Sample]) -> f64 {
    quiet.len() as f64 / (quiet.iter().map(|s| s.ms).sum::<f64>() / 1e3)
}

/// Scales a `span`-second phase's plain and traced samples, and the
/// spans recorded in it, to reference speed (see [`crate::probe`]).
pub fn to_reference(
    speed: &Speed,
    span: f64,
    plain: &mut [Sample],
    traced: &mut [Sample],
    tracer: &mut Tracer,
) {
    speed.normalize(plain, span);
    speed.normalize(traced, span);
    let f = speed.factors(span);
    tracer.rescale(|at| f[stats::window(at, span)]);
}

/// Traced over plain latency, per class, as a geometric mean minus one.
pub fn overhead(traced: &[Sample], plain: &[Sample], classes: usize) -> f64 {
    let median_of = |xs: &[Sample], c: usize| {
        let v: Vec<f64> = xs.iter().filter(|s| s.class == c).map(|s| s.ms).collect();
        stats::median(&v)
    };
    let ratios: Vec<f64> = (0..classes)
        .filter_map(|c| Some(median_of(traced, c)? / median_of(plain, c)?))
        .collect();
    stats::geomean(&ratios).map_or(0.0, |g| g - 1.0)
}

/// Whether turn `k` (a cycle, pass or batch of operations) of a traced
/// run is traced. Two turns in three are; the third runs plain, so the
/// run measures its own tracing overhead.
pub fn traced_turn(cfg: &Config, k: u64) -> bool {
    cfg.traced && k % 3 != 2
}

/// A stable 64-bit mix of a seed and a stream tag, so each input stream
/// of a workload draws from its own generator.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
