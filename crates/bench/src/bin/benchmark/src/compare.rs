//! `benchmark compare`: is a change better, worse, or indistinguishable?
//!
//! Each input file holds one JSON object per line, one per run:
//! `{"workload": <name>, "seed": <n>, "result": <the run's result line>}`.
//! Runs pair up per workload in file order, so the files should come from
//! alternating parent and change runs on the same seeds. Per workload and
//! end-to-end metric the verdict follows the rules the benchmark was built
//! for:
//!
//! * fewer than ten pairs: **unresolved**;
//! * the change's median worse than the parent's by more than the bound
//!   declared in `BENCHMARK.json`: **regressed**;
//! * the change wins at least nine pairs in ten (ties count for neither),
//!   its median beats the parent's by more than the parent's
//!   interquartile spread, and no more runs fail: **improved**;
//! * the parent's own spread is wider than the bound, and not every change
//!   run beats every parent run: **unresolved**;
//! * otherwise **unchanged**.

use crate::json::Json;
use crate::metrics::{decl, Better};
use crate::stats;
use std::process::ExitCode;

/// The outcome for one workload and metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Pairs required before any verdict but unresolved.
const MIN_PAIRS: usize = 10;

/// Applies the rules in the module docs. `parent[i]` and `change[i]` form
/// pair `i`; `more_failures` is true when the change's runs failed more
/// operations than the parent's.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
    more_failures: bool,
) -> Verdict {
    let pairs = parent.len().min(change.len());
    let (Some(pm), Some(cm), Some([q1, _, q3])) = (
        stats::median(parent),
        stats::median(change),
        stats::quartiles(parent),
    ) else {
        return Verdict::Unresolved;
    };
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let beats = |c: f64, p: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    // positive when the change is better
    let gain = match better {
        Better::Lower => pm - cm,
        Better::Higher => cm - pm,
    };
    if -gain > bound * pm.abs() {
        return Verdict::Regressed;
    }
    let wins = (0..pairs).filter(|&i| beats(change[i], parent[i])).count();
    let spread = q3 - q1;
    if !more_failures && wins * 10 >= pairs * 9 && gain > spread {
        return Verdict::Improved;
    }
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    if spread > bound * pm.abs() && !all_beat {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// One saved run.
struct Run {
    workload: String,
    result: Json,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let doc = Json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            let workload = doc
                .get("workload")
                .and_then(Json::str)
                .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?
                .to_string();
            let result = doc
                .get("result")
                .cloned()
                .ok_or_else(|| format!("{path}:{}: no result", i + 1))?;
            Ok(Run { workload, result })
        })
        .collect()
}

fn metric(run: &Run, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.num()
}

fn failures(runs: &[&Run]) -> f64 {
    runs.iter()
        .filter_map(|r| r.result.get("failed").and_then(Json::num))
        .sum()
}

/// Where the bounds are read from: the benchmark runs from the
/// repository root.
const SPEC: &str = "BENCHMARK.json";

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [parent_path, change_path] = args else {
        return Err("compare needs a parent file and a change file".into());
    };
    let spec_text = std::fs::read_to_string(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
    let spec = Json::parse(&spec_text).map_err(|e| format!("{SPEC}: {e}"))?;
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let list = |key: &str| -> Result<&[Json], String> {
        spec.get(key)
            .and_then(Json::arr)
            .ok_or_else(|| format!("{SPEC}: no {key} list"))
    };
    println!(
        "{:<12} {:<12} {:>6} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "pairs", "parent_median", "change_median", "bound"
    );
    let mut regressed = false;
    for w in list("workloads")? {
        let wname = w.get("name").and_then(Json::str).unwrap_or_default();
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == wname).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == wname).collect();
        let more_failures = failures(&c) > failures(&p);
        for m in list("end_to_end")? {
            let name = m.get("name").and_then(Json::str).unwrap_or_default();
            let better = decl(name)
                .ok_or_else(|| format!("{SPEC}: unknown metric {name}"))?
                .better;
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            let pv: Vec<f64> = p.iter().filter_map(|r| metric(r, name)).collect();
            let cv: Vec<f64> = c.iter().filter_map(|r| metric(r, name)).collect();
            let v = verdict(&pv, &cv, better, bound, more_failures);
            regressed |= v == Verdict::Regressed;
            let show =
                |xs: &[f64]| stats::median(xs).map_or("-".to_string(), |m| format!("{m:.6}"));
            println!(
                "{wname:<12} {name:<12} {:>6} {:>14} {:>14} {bound:>8}  {}",
                pv.len().min(cv.len()),
                show(&pv),
                show(&cv),
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent = runs(100.0, 0.1);
        // 20 % faster on every pair
        let faster = runs(80.0, 0.1);
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1, false),
            Verdict::Improved
        );
        // a gain does not count when more operations fail
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1, true),
            Verdict::Unchanged
        );
        // 20 % slower against a 10 % bound
        let slower = runs(120.0, 0.1);
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1, false),
            Verdict::Regressed
        );
        // higher-is-better flips the sides
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.1, false),
            Verdict::Improved
        );
        // noise within the bound
        let same = runs(100.05, 0.1);
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1, false),
            Verdict::Unchanged
        );
        // too few pairs
        assert_eq!(
            verdict(&parent[..9], &faster[..9], Better::Lower, 0.1, false),
            Verdict::Unresolved
        );
        // parent spread wider than the bound: unresolved unless every
        // change run beats every parent run
        let wide: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * i as f64).collect();
        let near: Vec<f64> = (0..10).map(|i| 102.0 + 10.0 * i as f64).collect();
        assert_eq!(
            verdict(&wide, &near, Better::Lower, 0.05, false),
            Verdict::Unresolved
        );
        let below: Vec<f64> = (0..10).map(|i| 10.0 + i as f64).collect();
        assert_eq!(
            verdict(&wide, &below, Better::Lower, 0.05, false),
            Verdict::Improved
        );
    }
}
