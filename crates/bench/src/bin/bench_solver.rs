//! `bench_solver` — emits or validates the machine-readable
//! `BENCH_solver.json` perf trajectory.
//!
//! ```text
//! bench_solver [--out BENCH_solver.json] [--tiny] [--threads N]
//!              [--rows R] [--cols C] [--trees T] [--repeats K]
//! bench_solver --validate PATH
//! bench_solver --smoke PATH [--repeats K] ...
//! ```
//!
//! Without `--validate`, runs the serial and parallel solve arms on the
//! seeded mesh workload (see `hgp_bench::solver_bench`), writes the JSON
//! report to `--out`, and exits non-zero if the document fails its own
//! validation (including cost parity between the arms). With
//! `--validate`, only checks an existing file. With `--smoke`, re-measures
//! the workload and exits non-zero if the fresh serial and parallel arms
//! disagree on cost or assignment, or if `total.serial_ms` or
//! `stages.distribution.serial_ms` regressed more than 25% against the
//! committed baseline at PATH — the CI bench-regression gate.
//!
//! This binary registers the counting global allocator, so the emitted
//! per-stage allocation counts are real; library consumers see zeros.

use hgp_bench::solver_bench::{run_solver_bench, smoke_check, validate, SolverBenchOpts};

#[global_allocator]
static ALLOC: hgp_bench::alloc::CountingAlloc = hgp_bench::alloc::CountingAlloc;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = SolverBenchOpts::standard();
    let mut out = "BENCH_solver.json".to_string();
    let mut check: Option<String> = None;
    let mut smoke: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
                .clone()
        };
        let mut num = |name: &str| -> usize {
            val(name)
                .parse()
                .unwrap_or_else(|_| fail(&format!("{name} needs an integer")))
        };
        match arg.as_str() {
            "--tiny" => {
                let keep = (opts.threads, opts.repeats);
                opts = SolverBenchOpts::tiny();
                (opts.threads, opts.repeats) = keep;
            }
            "--out" => out = val("--out"),
            "--validate" => check = Some(val("--validate")),
            "--smoke" => smoke = Some(val("--smoke")),
            "--threads" => opts.threads = num("--threads"),
            "--rows" => opts.rows = num("--rows"),
            "--cols" => opts.cols = num("--cols"),
            "--trees" => opts.trees = num("--trees"),
            "--repeats" => opts.repeats = num("--repeats"),
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_solver [--out FILE] [--tiny] [--threads N] \
                     [--rows R] [--cols C] [--trees T] [--repeats K] \
                     | --validate FILE | --smoke FILE"
                );
                return;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }

    if let Some(path) = check {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        match validate(&text) {
            Ok(()) => println!("{path}: valid {}", hgp_bench::solver_bench::SCHEMA),
            Err(e) => fail(&format!("{path}: {e}")),
        }
        return;
    }

    if let Some(path) = smoke {
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        let report = run_solver_bench(&opts).unwrap_or_else(|e| fail(&e));
        match smoke_check(&committed, &report) {
            Ok(()) => println!(
                "{path}: smoke ok, total.serial_ms {:.2} (trace overhead {:+.1}%)",
                report.total.serial_ms,
                100.0 * report.trace.overhead_frac()
            ),
            Err(e) => fail(&format!("{path}: {e}")),
        }
        return;
    }

    let report = run_solver_bench(&opts).unwrap_or_else(|e| fail(&e));
    let text = report.to_json().to_pretty();
    validate(&text).unwrap_or_else(|e| fail(&format!("emitted report is invalid: {e}")));
    std::fs::write(&out, &text).unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    eprintln!(
        "wrote {out}: dist {:.1} ms -> {:.1} ms, dp {:.1} ms -> {:.1} ms, \
         trace overhead {:+.1}%, parity ok",
        report.distribution.serial_ms,
        report.distribution.parallel_ms,
        report.dp.serial_ms,
        report.dp.parallel_ms,
        100.0 * report.trace.overhead_frac(),
    );
}
