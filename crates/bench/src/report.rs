//! The `tpot-bench/v1` report shape `perfbench` prints.
//!
//! ```json
//! {
//!   "schema":  "tpot-bench/v1",
//!   "harness": "perfbench",
//!   "meta":    { ... run parameters (workload, seed, jobs, ...) ... },
//!   "targets": [ {"name": "...", ... per-POT measurements ...}, ... ],
//!   "summary": { ... end-to-end metrics and cross-target aggregates ... }
//! }
//! ```
//!
//! Values are [`tpot_obs::json::Value`] trees, so escaping and rendering
//! live in one place and a report round-trips through the same parser the
//! trace tooling uses.

use tpot_obs::json::Value;

/// One benchmark run.
pub struct BenchReport {
    /// Harness name (`perfbench`).
    pub harness: String,
    /// Run parameters.
    pub meta: Vec<(String, Value)>,
    /// Per-target (or per-POT) rows.
    pub targets: Vec<TargetReport>,
    /// Cross-target aggregates.
    pub summary: Vec<(String, Value)>,
}

/// One row of a [`BenchReport`].
pub struct TargetReport {
    /// Target (or POT) name.
    pub name: String,
    /// Measurements.
    pub fields: Vec<(String, Value)>,
}

/// Shorthand: a JSON number.
pub fn num(v: f64) -> Value {
    Value::Num(v)
}

/// Shorthand: a JSON number from an integer.
pub fn int(v: u64) -> Value {
    Value::Num(v as f64)
}

/// Shorthand: a JSON string.
pub fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

impl BenchReport {
    /// An empty report for `harness`.
    pub fn new(harness: &str) -> Self {
        BenchReport {
            harness: harness.to_string(),
            meta: Vec::new(),
            targets: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Adds a `meta` entry.
    pub fn meta(&mut self, key: &str, v: Value) -> &mut Self {
        self.meta.push((key.to_string(), v));
        self
    }

    /// Adds a `summary` entry.
    pub fn summary(&mut self, key: &str, v: Value) -> &mut Self {
        self.summary.push((key.to_string(), v));
        self
    }

    /// Renders the canonical document.
    pub fn render(&self) -> String {
        Value::Obj(vec![
            ("schema".to_string(), s("tpot-bench/v1")),
            ("harness".to_string(), s(&self.harness)),
            ("meta".to_string(), Value::Obj(self.meta.clone())),
            (
                "targets".to_string(),
                Value::Arr(
                    self.targets
                        .iter()
                        .map(|t| {
                            let mut o = vec![("name".to_string(), s(&t.name))];
                            o.extend(t.fields.clone());
                            Value::Obj(o)
                        })
                        .collect(),
                ),
            ),
            ("summary".to_string(), Value::Obj(self.summary.clone())),
        ])
        .render()
    }
}

impl TargetReport {
    /// An empty row.
    pub fn new(name: &str) -> Self {
        TargetReport {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds a field.
    pub fn field(&mut self, key: &str, v: Value) -> &mut Self {
        self.fields.push((key.to_string(), v));
        self
    }
}

/// Peak resident set size of this process in kilobytes (Linux `VmHWM`;
/// 0 where unavailable).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|st| {
            st.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_canonical_schema() {
        let mut r = BenchReport::new("bench_test");
        r.meta("jobs", int(4));
        let mut t = TargetReport::new("pkvm");
        t.field("sequential_ms", num(12.5));
        t.field("outcomes", Value::Obj(vec![("p\"q".into(), s("proved"))]));
        r.targets.push(t);
        r.summary("all_outcomes_match", Value::Bool(true));
        let doc = tpot_obs::json::parse(&r.render()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("tpot-bench/v1")
        );
        assert_eq!(
            doc.get("harness").and_then(Value::as_str),
            Some("bench_test")
        );
        let targets = doc.get("targets").and_then(Value::as_arr).unwrap();
        assert_eq!(targets[0].get("name").and_then(Value::as_str), Some("pkvm"));
        assert_eq!(
            targets[0]
                .get("outcomes")
                .and_then(|o| o.get("p\"q"))
                .and_then(Value::as_str),
            Some("proved")
        );
        assert!(doc.get("metrics").is_none());
    }
}
