//! Experiment harness: regenerates every table and figure in
//! EXPERIMENTS.md.
//!
//! Each experiment in [`experiments`] is a pure function returning its
//! rendered table(s); the `harness` binary dispatches on experiment ids
//! (`t1`…`t5`, `f1`…`f6`, `a1`…`a4`, `all`). Timing lives in the
//! `benchmark` package under `src/bin/benchmark/`, a program of its own
//! with its README.

#![warn(missing_docs)]

pub mod experiments;
pub mod table;

/// Runs `f` and returns its result plus wall-clock milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// All experiment ids in reporting order.
pub const ALL_EXPERIMENTS: [&str; 15] = [
    "t1", "t2", "t3", "t4", "t5", "f1", "f2", "f3", "f4", "f5", "f6", "a1", "a2", "a3", "a4",
];

/// Runs one experiment by id, returning its report.
pub fn run_experiment(id: &str) -> Option<String> {
    Some(match id {
        "t1" => experiments::t1::run(),
        "t2" => experiments::t2::run(),
        "t3" => experiments::t3::run(),
        "t4" => experiments::t4::run(),
        "t5" => experiments::t5::run(),
        "f1" => experiments::f1::run(),
        "f2" => experiments::f2::run(),
        "f3" => experiments::f3::run(),
        "f4" => experiments::f4::run(),
        "f5" => experiments::f5::run(),
        "f6" => experiments::f6::run(),
        "a1" => experiments::a1::run(),
        "a2" => experiments::a2::run(),
        "a3" => experiments::a3::run(),
        "a4" => experiments::a4::run(),
        _ => return None,
    })
}
