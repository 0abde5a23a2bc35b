//! The metrics registry: named counters and log₂-bucket histograms.
//!
//! Process-wide and always on (an atomic add per record — cheap enough to
//! never gate), but only *exported* when `TPOT_METRICS` is set or a
//! harness calls [`to_json`]. This registry holds the process-wide
//! counters of every subsystem, and each counted fact has one writer. The
//! engine's per-POT `Stats` record is published here once per finished
//! POT (`engine.*`, `solver.session.*`; see `tpot-engine`). The one
//! deliberate overlap is `sat.*`: the SAT core adds every solve's delta
//! itself, and that total is the independent reference the per-POT
//! `sat_*` attribution is checked against.
//!
//! Histograms use 64 log₂ buckets: bucket *i* counts observations `v`
//! with `ceil(log2(v+1)) == i`, i.e. bucket 0 is `v == 0`, bucket 1 is
//! `v == 1`, bucket 2 is `2..=3`, bucket 3 is `4..=7`, and so on. Exact
//! count and sum are kept alongside, so means are exact and only the
//! shape is quantized.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Value;

/// A named monotone counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucket histogram of `u64` observations.
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket recording `v`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Non-empty `(bucket_floor, count)` pairs, in bucket order. The floor
    /// of bucket 0 is 0, of bucket i>0 is `2^(i-1)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..65)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                if c == 0 {
                    None
                } else {
                    let floor = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    Some((floor, c))
                }
            })
            .collect()
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// The counter registered under `name` (registered on first use). Call
/// sites on hot paths should cache the handle (or use [`LazyCounter`]).
pub fn counter(name: &'static str) -> Counter {
    Counter(
        registry()
            .lock()
            .unwrap()
            .counters
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone(),
    )
}

/// The histogram registered under `name` (registered on first use).
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    registry()
        .lock()
        .unwrap()
        .histograms
        .entry(name)
        .or_insert_with(|| Arc::new(Histogram::new()))
        .clone()
}

/// A counter handle that resolves its registry entry once — for hot paths
/// like per-pivot or per-restart accounting:
///
/// ```ignore
/// static PIVOTS: LazyCounter = LazyCounter::new("solver.simplex.pivots");
/// PIVOTS.add(1);
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    /// Declares (does not yet register) the counter.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` (one atomic add after first use).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.get_or_init(|| counter(self.name)).add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.get_or_init(|| counter(self.name)).get()
    }
}

/// Like [`LazyCounter`] for histograms.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Declares (does not yet register) the histogram.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.cell.get_or_init(|| histogram(self.name)).observe(v);
    }
}

/// Renders the full registry as a JSON document:
/// `{"counters": {name: value}, "histograms": {name: {count, sum, max,
/// buckets: [[floor, count], …]}}}`.
pub fn to_json() -> String {
    let reg = registry().lock().unwrap();
    let counters = Value::Obj(
        reg.counters
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(v.load(Ordering::Relaxed) as f64)))
            .collect(),
    );
    let histograms = Value::Obj(
        reg.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    Value::Obj(vec![
                        ("count".to_string(), Value::Num(h.count() as f64)),
                        ("sum".to_string(), Value::Num(h.sum() as f64)),
                        ("max".to_string(), Value::Num(h.max() as f64)),
                        (
                            "buckets".to_string(),
                            Value::Arr(
                                h.nonzero_buckets()
                                    .into_iter()
                                    .map(|(floor, c)| {
                                        Value::Arr(vec![
                                            Value::Num(floor as f64),
                                            Value::Num(c as f64),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    Value::Obj(vec![
        ("counters".to_string(), counters),
        ("histograms".to_string(), histograms),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_and_sum() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        let buckets = h.nonzero_buckets();
        // v=0 → floor 0; v=1 → floor 1; v=2,3 → floor 2; 100 → floor 64;
        // 1000 → floor 512.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (64, 1), (512, 1)]);
    }

    #[test]
    fn registry_roundtrip() {
        counter("test.counter").add(7);
        histogram("test.hist").observe(42);
        let dump = crate::json::parse(&to_json()).unwrap();
        let c = dump
            .get("counters")
            .and_then(|c| c.get("test.counter"))
            .and_then(|v| v.as_f64());
        assert_eq!(c, Some(7.0));
        let h = dump.get("histograms").and_then(|h| h.get("test.hist"));
        assert_eq!(
            h.and_then(|h| h.get("count")).and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }
}
