//! The one report shape every `bench_pr*` harness emits.
//!
//! Before PR 4 each harness hand-rolled its own JSON with its own field
//! layout (`BENCH_PR1.json`, `BENCH_PR2.json` and `BENCH_PR3.json` shared
//! no structure beyond being JSON objects). This module fixes the schema:
//!
//! ```json
//! {
//!   "schema": "tpot-bench/v1",
//!   "harness": "bench_pr2",
//!   "meta":    { ... run parameters (jobs, seed, smoke, cores) ... },
//!   "targets": [ {"name": "...", ... per-target measurements ...}, ... ],
//!   "summary": { ... cross-target aggregates ... },
//!   "metrics": { ... optional embedded tpot-obs registry dump ... }
//! }
//! ```
//!
//! Values are [`tpot_obs::json::Value`] trees, so escaping and rendering
//! live in one place and a report round-trips through the same parser the
//! trace tooling uses.

use tpot_engine::{PotResult, PotStatus, Stats};
use tpot_obs::json::Value;

/// One harness run.
pub struct BenchReport {
    /// Harness name (`bench_pr1`, …).
    pub harness: String,
    /// Run parameters.
    pub meta: Vec<(String, Value)>,
    /// Per-target (or per-mode) rows.
    pub targets: Vec<TargetReport>,
    /// Cross-target aggregates.
    pub summary: Vec<(String, Value)>,
    /// Embedded `tpot-obs` metrics dump, when the harness captures one.
    pub metrics: Option<Value>,
}

/// One row of a [`BenchReport`].
pub struct TargetReport {
    /// Target (or fuzz-mode) name.
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
            metrics: None,
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

    /// Embeds the current `tpot-obs` metrics registry dump.
    pub fn embed_metrics(&mut self) -> &mut Self {
        self.metrics = tpot_obs::json::parse(&tpot_obs::metrics::to_json()).ok();
        self
    }

    /// Renders the canonical document.
    pub fn render(&self) -> String {
        let mut top = vec![
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
        ];
        if let Some(m) = &self.metrics {
            top.push(("metrics".to_string(), m.clone()));
        }
        Value::Obj(top).render()
    }

    /// Writes the document to `path` (plus a trailing newline).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render() + "\n")
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

/// Canonical short status string for a POT outcome.
pub fn status_key(st: &PotStatus) -> String {
    match st {
        PotStatus::Proved => "proved".into(),
        PotStatus::Failed(_) => "failed".into(),
        PotStatus::Error(e) => format!("error:{e}"),
    }
}

/// Merges the per-POT stats of a run.
pub fn merged_stats(results: &[PotResult]) -> Stats {
    let mut agg = Stats::default();
    for r in results {
        agg.merge(&r.stats);
    }
    agg
}

/// True when two runs report the same POTs with the same statuses.
pub fn outcomes_match(a: &[PotResult], b: &[PotResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.pot == y.pot && status_key(&x.status) == status_key(&y.status))
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

/// The engine [`Stats`] fields every harness reports per target, in one
/// canonical naming.
pub fn stats_fields(st: &Stats) -> Vec<(String, Value)> {
    vec![
        ("queries".to_string(), int(st.num_queries)),
        ("serializations".to_string(), int(st.num_serializations)),
        ("pointer_queries".to_string(), int(st.pointer_queries)),
        ("branch_queries".to_string(), int(st.branch_queries)),
        ("assertion_queries".to_string(), int(st.assertion_queries)),
        ("simplify_queries".to_string(), int(st.simplify_queries)),
        ("paths".to_string(), int(st.paths)),
        ("forks".to_string(), int(st.forks)),
        ("fork_bytes_shared".to_string(), int(st.fork_bytes_shared)),
        ("fork_bytes_copied".to_string(), int(st.fork_bytes_copied)),
        ("live_peak".to_string(), int(st.live_peak)),
        ("insts".to_string(), int(st.insts)),
        ("materializations".to_string(), int(st.materializations)),
    ]
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

    #[test]
    fn embedded_metrics_parse() {
        tpot_obs::metrics::counter("bench.test_counter").inc();
        let mut r = BenchReport::new("bench_test");
        r.embed_metrics();
        let doc = tpot_obs::json::parse(&r.render()).unwrap();
        let c = doc
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("bench.test_counter"))
            .and_then(Value::as_f64);
        assert!(c.unwrap_or(0.0) >= 1.0);
    }
}
