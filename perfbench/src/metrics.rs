//! The metric catalog and the one-line result the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root describes the same metrics in
//! prose; a unit test keeps the two lists identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (printed by an untraced run), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("catt_speedup", "x"),
    ("tuned_speedup", "x"),
    ("serve_rps", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
];

/// Per-layer metrics (printed by a traced run), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "frac"),
    ("frontend.parse_us", "us"),
    ("frontend.parse_calls", "count"),
    ("passes.analyze_us", "us"),
    ("passes.legalize_us", "us"),
    ("passes.transform_us", "us"),
    ("passes.emit_us", "us"),
    ("passes.compile_us", "us"),
    ("passes.cache_hit_ratio", "ratio"),
    ("passes.transformed", "count"),
    ("engine.sim_jobs", "count"),
    ("engine.cache_hits", "count"),
    ("engine.coalesced", "count"),
    ("engine.hit_us", "us"),
    ("bftt.sweep_ms", "ms"),
    ("bftt.candidates", "count"),
    ("sim.ns_per_warp_inst", "ns"),
    ("sim.lower_us", "us"),
    ("sim.profile_overhead", "ratio"),
    ("sim.warp_insts", "count"),
    ("sim.cycles", "count"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.offchip_requests", "count"),
    ("workloads.run_ms", "ms"),
    ("workloads.validate_ms", "ms"),
    ("tune.evaluations", "count"),
    ("tune.iterations", "count"),
    ("tune.ms_per_eval", "ms"),
    ("serve.submit_us", "us"),
    ("serve.service_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.computed", "count"),
    ("serve.shed", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// A metric name: starts with a letter or digit, at most 64 characters
/// from letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters from letters, digits, `_`, `/`, `%`, `.`
/// and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The benchmark's verdict for one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (app evaluations, tunes, or serve requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness violations found by the benchmark's own checks.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Render the result line for `catalog` from `values`. A catalog metric
/// missing from `values`, or a non-finite value, is a benchmark bug: it
/// is recorded as a problem (so the run reads incorrect) and printed as 0.
pub fn result_line(
    catalog: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
    outcome: &mut Outcome,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in catalog.iter().enumerate() {
        if !valid_name(name) || !valid_unit(unit) {
            outcome.problem(format!("metric {name} ({unit}) breaks the naming rules"));
        }
        let value = match values.get(*name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.problem(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None => {
                outcome.problem(format!("metric {name} was not measured"));
                0.0
            }
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// A finite f64 as a JSON number with every digit of its shortest
/// round-trip representation.
pub fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_serve::json::{self, Json};

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len, "duplicate metric names");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("wall_s"));
        assert!(valid_name("passes.cache_hit_ratio"));
        assert!(valid_name("2mm-run"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/not-allowed"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = BTreeMap::new();
        values.insert("wall_s".to_string(), 1.25);
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = result_line(&[("wall_s", "s")], &values, &mut outcome);
        let v = json::parse(&line).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        let line = result_line(&[("wall_s", "s")], &BTreeMap::new(), &mut outcome);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(!outcome.correct());
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }

    /// `BENCHMARK.json` lists exactly this catalog, under the same names,
    /// units and order.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not a list")
            };
            let listed: Vec<(String, String)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is not a list")
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
