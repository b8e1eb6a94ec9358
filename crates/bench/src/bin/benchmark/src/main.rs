//! `benchmark`: one offline benchmark for the hgp workspace.
//!
//! ```text
//! benchmark run --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--quick]
//! benchmark compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! `run` executes one workload in this process, checks every output, and
//! prints an environment header followed by one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `compare` applies the bounds declared in `BENCHMARK.json`
//! to saved runs of two commits. README.md has the metric table and the
//! reasons behind each workload.

mod alloc;
mod check;
mod compare;
mod json;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::{Config, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark run --workload <solve-cold|serve-mixed|churn-mixed|scale-ml> --seed <u64>
                --seconds <s> --trace <0|1> [--quick]
  benchmark compare <parent.jsonl> <change.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).map(run),
        Some("compare") => compare::main(&args[1..]),
        _ => Err("missing subcommand".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_run(args: &[String]) -> Result<(Workload, Config), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let cfg = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        quick,
    };
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// First line of a command's output, or `unknown`. Git may look for a
/// repository in the working directory only, never in its parents, so a
/// run reads nothing outside the tree it was started in.
fn first_line_of(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Online CPUs as `/proc/cpuinfo` lists them.
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn run((workload, cfg): (Workload, Config)) -> ExitCode {
    println!(
        "# env nproc={} available_parallelism={} rustc={:?} commit={} workload={} seed={} \
         seconds={} trace={} quick={}",
        nproc(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        cfg.quick,
    );
    let out = match workload.run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    if cfg.traced {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
        let path = Path::new(&dir).join("benchmark-traces").join(format!(
            "{}-seed{}.jsonl",
            workload.name(),
            cfg.seed
        ));
        match out.tracer.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("benchmark: cannot write spans to {}: {e}", path.display()),
        }
    }
    match metrics::result_line(true, out.attempted, out.failed, &out.values, cfg.traced) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// Every workload at toy sizes, untraced and traced: all checks pass,
    /// nothing fails, and the result line carries exactly the declared
    /// metrics.
    #[test]
    fn quick_runs_of_every_workload_report_every_metric() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let cfg = Config {
                    seed: 3,
                    seconds: 0.4,
                    traced,
                    quick: true,
                };
                let out = w.run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(out.attempted >= 1, "{}", w.name());
                assert_eq!(out.failed, 0, "{} traced={traced}", w.name());
                let line =
                    metrics::result_line(true, out.attempted, out.failed, &out.values, traced)
                        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                let doc = Json::parse(&line).unwrap();
                let printed: Vec<&String> = doc
                    .get("metrics")
                    .and_then(Json::obj)
                    .unwrap()
                    .keys()
                    .collect();
                let list = if traced {
                    metrics::PER_LAYER
                } else {
                    metrics::END_TO_END
                };
                let mut declared: Vec<&str> = list.iter().map(|d| d.name).collect();
                declared.sort_unstable();
                assert_eq!(printed, declared, "{} traced={traced}", w.name());
                if !traced {
                    for d in metrics::END_TO_END {
                        let v = out.values.get(d.name).unwrap();
                        assert!(v > 0.0, "{}: {} = {v}", w.name(), d.name);
                    }
                } else {
                    let cov = out.values.get("trace.coverage").unwrap();
                    assert!(
                        cov > 0.5 && cov <= 1.0 + 1e-9,
                        "{}: coverage {cov}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn run_flags_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let (w, cfg) =
            parse_run(&args("--workload scale-ml --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, Workload::ScaleMl);
        assert!(cfg.traced && cfg.seed == 9 && cfg.seconds == 10.0 && !cfg.quick);
        assert!(parse_run(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_run(&args("--workload scale-ml --seed 1 --seconds 1")).is_err());
        assert!(parse_run(&args("--workload scale-ml --seed 1 --seconds 0 --trace 0")).is_err());
    }
}
