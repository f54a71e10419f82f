//! Metric names, the result line and its self-checks.

use std::fmt::Write as _;
use std::sync::OnceLock;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (letters, digits, `_`, `.`, `-`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (from untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (from traced runs; empty when tracing is off).
    pub layers: Vec<Metric>,
    /// Operations attempted (tasks, or submissions for the daemon).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Untraced repetitions (or ladder runs) behind the medians.
    pub reps: usize,
    /// Human-readable description of every failed check.
    pub problems: Vec<String>,
}

/// `BENCHMARK.json` at the repository root: the one list of the
/// workloads and of every metric's name and unit.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
pub struct Schema {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// `(name, unit)` of every end-to-end metric: what every workload
    /// reports with tracing off.
    pub end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of every per-layer metric: what every workload
    /// reports with tracing on (a layer it does not exercise reads 0).
    pub per_layer: Vec<(String, String)>,
}

impl Schema {
    /// Reads the workload names and the metric lists out of `text`.
    pub fn parse(text: &str) -> Result<Schema, String> {
        let v = telemetry::json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let list = |key: &str, field: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(|a| a.as_array())
                .ok_or(format!("BENCHMARK.json: {key} is not a list"))?
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(|x| x.as_str())
                        .map(str::to_string)
                        .ok_or(format!("BENCHMARK.json: a {key} entry lacks {field}"))
                })
                .collect()
        };
        let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
            Ok(list(key, "name")?
                .into_iter()
                .zip(list(key, "unit")?)
                .collect())
        };
        Ok(Schema {
            workloads: list("workloads", "name")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The schema of the repository's `BENCHMARK.json`, parsed once.
pub fn schema() -> &'static Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA.get_or_init(|| Schema::parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("{e}")))
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    telemetry::quantile(xs, 0.5).unwrap_or(0.0)
}

/// Whether `name` is a legal metric name: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Orders `measured` as `declared`, filling a declared metric the
/// workload does not exercise with 0 when `fill` is set. Errors on a
/// metric that is missing (without `fill`), undeclared, misnamed, of
/// the wrong unit or not finite.
pub fn select(
    measured: &[Metric],
    declared: &[(String, String)],
    fill: bool,
) -> Result<Vec<Metric>, String> {
    for m in measured {
        if !valid_name(&m.name) {
            return Err(format!("illegal metric name {:?}", m.name));
        }
        match declared.iter().find(|(n, _)| *n == m.name) {
            None => return Err(format!("metric {} is not declared", m.name)),
            Some((_, unit)) if *unit != m.unit => {
                return Err(format!("metric {} has unit {} not {unit}", m.name, m.unit))
            }
            Some(_) => {}
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    declared
        .iter()
        .map(
            |(name, unit)| match measured.iter().find(|m| m.name == *name) {
                Some(m) => Ok(m.clone()),
                None if fill => Ok(Metric::new(name, 0.0, unit)),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest string that reads back as the same
        // f64, and always includes a `.` or exponent.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Parses `line` back with the repository's JSON parser and checks that
/// it carries exactly `metrics`, value for value.
pub fn verify_line(line: &str, metrics: &[Metric]) -> Result<(), String> {
    let v = telemetry::json::parse(line).map_err(|e| format!("result line: {e:?}"))?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        if v.get(key).is_none() {
            return Err(format!("result line lacks {key}"));
        }
    }
    let got = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("metrics is not an object")?;
    if got.len() != metrics.len() {
        return Err(format!(
            "{} metrics emitted, {} expected",
            got.len(),
            metrics.len()
        ));
    }
    for m in metrics {
        let e = got.get(&m.name).ok_or(format!("{} missing", m.name))?;
        let value = e.get("value").and_then(|x| x.as_f64());
        let unit = e.get("unit").and_then(|x| x.as_str());
        if value.map(f64::to_bits) != Some(m.value.to_bits()) || unit != Some(m.unit.as_str()) {
            return Err(format!("{} does not read back", m.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn declared_names_are_legal_and_unique() {
        let s = schema();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!(!s.end_to_end.is_empty() && !s.per_layer.is_empty());
        let mut seen = std::collections::BTreeSet::new();
        for name in &s.workloads {
            assert!(valid_name(name) && seen.insert(name.as_str()), "{name}");
        }
        seen.clear();
        for (name, unit) in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.as_str()), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(Schema::parse("{").is_err());
        assert!(Schema::parse(r#"{"workloads": [], "end_to_end": [{"name": "a"}]}"#).is_err());
    }

    #[test]
    fn illegal_names_are_refused() {
        for bad in ["", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let m = [Metric::new("a b", 1.0, "s")];
        assert!(select(&m, &decl(&[("a b", "s")]), false).is_err());
    }

    #[test]
    fn select_fills_orders_and_rejects() {
        let declared = decl(&[("a", "s"), ("b", "ms")]);
        let got = select(&[Metric::new("b", 2.0, "ms")], &declared, true).unwrap();
        assert_eq!(
            got,
            vec![Metric::new("a", 0.0, "s"), Metric::new("b", 2.0, "ms")]
        );
        assert!(select(&[Metric::new("b", 2.0, "ms")], &declared, false).is_err());
        assert!(select(&[Metric::new("c", 1.0, "s")], &declared, true).is_err());
        assert!(select(&[Metric::new("a", 1.0, "ms")], &declared, true).is_err());
        assert!(select(&[Metric::new("a", f64::NAN, "s")], &declared, true).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_repo_parser() {
        let metrics = vec![
            Metric::new("tasks_per_s", 123456.789012345, "1/s"),
            Metric::new("setup_s", 0.000123456789, "s"),
            Metric::new("sched.pending_max", 3.0, "tasks"),
            Metric::new("x", 1e-12, "s"),
        ];
        let line = result_line(true, 10, 0, &metrics);
        verify_line(&line, &metrics).unwrap();
        let v = telemetry::json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_f64()), Some(10.0));
    }
}
