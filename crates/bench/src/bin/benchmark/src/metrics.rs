//! Every metric the benchmark prints, and the result line that carries
//! them. `BENCHMARK.json` declares the same lists; a unit test keeps the
//! two in step.

use crate::json::quote;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; printed by untraced runs. Every
/// workload reports every one of these (README.md says what each means
/// per workload).
pub const END_TO_END: &[Decl] = &[
    lo("setup_s", "s"),
    hi("ops_per_s", "op/s"),
    lo("lat_p50_ms", "ms"),
    lo("lat_tail_ms", "ms"),
    lo("cost_ratio", "ratio"),
    lo("peak_rss_mb", "MB"),
];

/// One layer each; printed by traced runs. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[Decl] = &[
    lo("decomp.build_ms.p50", "ms"),
    lo("decomp.build_ms.p90", "ms"),
    lo("decomp.allocs_per_op", "count"),
    lo("core.sweep_ms.p50", "ms"),
    lo("core.sweep_ms.p90", "ms"),
    lo("core.sweep_allocs_per_op", "count"),
    lo("core.dp_cpu_ms.p50", "ms"),
    lo("core.repair_cpu_ms.p50", "ms"),
    lo("core.dp_entries_per_op", "count"),
    lo("core.dp_pruned_per_op", "count"),
    lo("server.front_ms.p50", "ms"),
    lo("server.front_ms.p90", "ms"),
    lo("server.queue_wait_ms.p50", "ms"),
    lo("server.queue_wait_ms.p90", "ms"),
    lo("server.pool_utilization", "ratio"),
    hi("server.cache_hit_frac", "ratio"),
    lo("server.cache_builds_per_kreq", "count"),
    hi("server.flight_coalesced_frac", "ratio"),
    lo("server.session_ms.p50", "ms"),
    lo("server.overloaded", "count"),
    lo("client.gen_lag_ms.p95", "ms"),
    lo("session.apply_ms.p50", "ms"),
    lo("session.apply_ms.p90", "ms"),
    lo("session.resolve_warm_ms.p50", "ms"),
    lo("session.resolve_warm_ms.p90", "ms"),
    lo("session.resolve_cold_ms.p50", "ms"),
    hi("session.warm_frac", "ratio"),
    lo("session.choice_previous_frac", "ratio"),
    hi("session.choice_refined_frac", "ratio"),
    hi("session.choice_solved_frac", "ratio"),
    lo("session.moves_per_op", "tasks"),
    lo("session.allocs_per_warm_resolve", "count"),
    lo("multilevel.solve_s.grid2d", "s"),
    lo("multilevel.solve_s.powerlaw", "s"),
    lo("multilevel.solve_s.clustered", "s"),
    lo("multilevel.coarsen_s.grid2d", "s"),
    lo("multilevel.coarsen_s.powerlaw", "s"),
    lo("multilevel.coarsen_s.clustered", "s"),
    lo("multilevel.core_s.grid2d", "s"),
    lo("multilevel.core_s.powerlaw", "s"),
    lo("multilevel.core_s.clustered", "s"),
    lo("multilevel.refine_s.grid2d", "s"),
    lo("multilevel.refine_s.powerlaw", "s"),
    lo("multilevel.refine_s.clustered", "s"),
    lo("multilevel.levels.grid2d", "count"),
    lo("multilevel.levels.powerlaw", "count"),
    lo("multilevel.levels.clustered", "count"),
    lo("multilevel.kway_seeded.grid2d", "count"),
    lo("multilevel.kway_seeded.powerlaw", "count"),
    lo("multilevel.kway_seeded.clustered", "count"),
    lo("multilevel.cost_ratio.grid2d", "ratio"),
    lo("multilevel.cost_ratio.powerlaw", "ratio"),
    lo("multilevel.cost_ratio.clustered", "ratio"),
    hi("trace.coverage", "ratio"),
    lo("trace.overhead_frac", "ratio"),
];

/// The declared metric called `name`, from either list.
pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values, keyed by declared name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    /// On an undeclared name or a non-finite value: both are bugs in this
    /// program, not outcomes of a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = decl(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} measured {value}");
        self.0.insert(d.name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: every declared metric of the chosen list.
/// An end-to-end metric must have been measured; a per-layer metric the
/// workload did not set reads 0 (that layer did no work there).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    traced: bool,
) -> Result<String, String> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(list.len());
    for d in list {
        let v = match values.get(d.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", d.name)),
        };
        fields.push(format!(
            "{}: {{\"value\": {v:?}, \"unit\": {}}}",
            quote(d.name),
            quote(d.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// A legal metric name starts with a letter or digit and has at most
    /// 64 letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "illegal metric name {}", d.name);
            assert!(seen.insert(d.name), "metric {} declared twice", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit {}",
                d.unit
            );
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".x"));
    }

    /// The declarations here and in `BENCHMARK.json` agree in both
    /// directions: same names, same order, same units and directions.
    #[test]
    fn declarations_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../../../../../BENCHMARK.json")).unwrap();
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = list
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
                .collect();
            assert_eq!(declared, ours, "BENCHMARK.json {key} differs from the code");
        }
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 1.25);
        }
        let line = result_line(true, 3, 0, &v, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(Json::obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = result_line(true, 3, 0, &Values::default(), true).unwrap();
        let doc = Json::parse(&traced).unwrap();
        assert_eq!(
            doc.get("metrics").and_then(Json::obj).unwrap().len(),
            PER_LAYER.len()
        );
        assert!(result_line(true, 3, 0, &Values::default(), false).is_err());
    }
}
