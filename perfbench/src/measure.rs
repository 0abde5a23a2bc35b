//! Readings taken from outside the program: process CPU time, the
//! `tpot-obs` counter registry, and the median of repeated passes.

use std::collections::BTreeMap;
use std::time::Duration;

use tpot_obs::json::{self, Value};

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15). The kernel reports them in
/// `USER_HZ`, which is 100 on every Linux ABI this runs on.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name may contain spaces; fields are counted after it.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    // Field 14 (utime) is the 12th after the state field (field 3).
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    tpot_bench::report::peak_rss_kb() as f64 / 1024.0
}

/// The current values of every `tpot-obs` counter.
pub fn counters() -> BTreeMap<String, u64> {
    let doc = json::parse(&tpot_obs::metrics::to_json()).expect("registry renders valid JSON");
    match doc.get("counters") {
        Some(Value::Obj(kv)) => kv
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0) as u64))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Counter deltas between two [`counters`] snapshots.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Counts {
    Counts(
        after
            .iter()
            .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
            .collect(),
    )
}

/// A set of counter deltas.
#[derive(Clone, Debug, Default)]
pub struct Counts(pub BTreeMap<String, u64>);

impl Counts {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The engine and SAT counts compared across runs by `bench.counts_repeat`.
pub const REPEAT_COUNTS: [&str; 8] = [
    "engine.queries",
    "engine.paths",
    "engine.insts",
    "engine.forks",
    "sat.solves",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
];

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A JSON object of counts.
pub fn counts_json(pairs: &[(&str, u64)]) -> Value {
    Value::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
            .collect(),
    )
}
