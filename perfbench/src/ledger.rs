//! The per-module time ledger of a traced run, computed from the span tree
//! outside the program.
//!
//! Every instant of the traced window (the `bench.run` span) is given to
//! exactly one row, so the rows sum to the window's wall time:
//!
//! - When some thread's innermost open span is a program span (any category
//!   but `bench`), the instant is split evenly among those threads and each
//!   share goes to the module of that thread's innermost span. This is the
//!   module's self time: its span minus what its child spans cover.
//! - Otherwise the instant goes to the innermost `bench.*` span: the module
//!   whose public entry point the benchmark is waiting on, running code
//!   that has no span of its own.
//! - An instant under no span at all, or under `bench.run` alone, is the
//!   benchmark's own time (`bench.unattributed_ms`).

use std::collections::{BTreeMap, HashMap};

use tpot_obs::{Event, Phase};

/// Ledger rows, in report order. `smt.serialize_ms` is moved out of
/// `engine.interp_ms` by the caller, which knows the serialization time.
pub const ROWS: [&str; 16] = [
    "cfront.compile_ms",
    "ir.lower_ms",
    "engine.interp_ms",
    "smt.serialize_ms",
    "smt.slice_ms",
    "portfolio.race_ms",
    "solver.query_ms",
    "solver.preprocess_ms",
    "solver.bitblast_ms",
    "solver.dpllt_ms",
    "solver.lia_ms",
    "sched.idle_ms",
    "sched.steal_ms",
    "daemon.self_ms",
    "api.overhead_ms",
    "bench.unattributed_ms",
];

/// Time a client request spends outside program spans: in the client, the
/// HTTP exchange or the daemon's own code. The edit-loop splits it into
/// `api.overhead_ms` and `daemon.self_ms` with the daemon's service times.
pub const REQUEST: &str = "api.request_ms";

/// The row a span's self time belongs to. A span of a category no row
/// names lands in `bench.unattributed_ms`, so a new span shows up there
/// until the ledger gives it a row.
fn row(cat: &str, name: &str) -> &'static str {
    match (cat, name) {
        ("cfront", _) | ("bench", "compile") => "cfront.compile_ms",
        ("ir", _) | ("bench", "lower") => "ir.lower_ms",
        ("engine", _) | ("bench", "verify") => "engine.interp_ms",
        ("smt", _) => "smt.slice_ms",
        ("portfolio", _) => "portfolio.race_ms",
        ("solver", "preprocess") => "solver.preprocess_ms",
        ("solver", "bitblast") => "solver.bitblast_ms",
        ("solver", "dpllt") => "solver.dpllt_ms",
        ("solver", "lia") => "solver.lia_ms",
        ("solver", _) => "solver.query_ms",
        ("sched", "idle") => "sched.idle_ms",
        ("sched", _) => "sched.steal_ms",
        ("bench", "daemon_start") => "daemon.self_ms",
        ("bench", "status") => "api.overhead_ms",
        ("bench", "request") => REQUEST,
        _ => "bench.unattributed_ms",
    }
}

/// A computed ledger.
pub struct Ledger {
    /// Wall-clock share of each row, in ms; sums to `wall_ms`.
    pub rows: BTreeMap<&'static str, f64>,
    /// Thread time of each row under program spans, in ms (at two busy
    /// threads an instant counts twice here and half in `rows`).
    pub thread_ms: BTreeMap<&'static str, f64>,
    /// Wall time of the traced window, in ms.
    pub wall_ms: f64,
}

impl Ledger {
    pub fn get(&self, row: &str) -> f64 {
        self.rows.get(row).copied().unwrap_or(0.0)
    }

    /// Moves up to `ms` of wall share from one row to another.
    pub fn shift(&mut self, from: &'static str, to: &'static str, ms: f64) {
        let ms = ms.clamp(0.0, self.get(from));
        *self.rows.entry(from).or_default() -= ms;
        *self.rows.entry(to).or_default() += ms;
    }

    /// The sum of every row, which equals `wall_ms` up to rounding.
    pub fn total(&self) -> f64 {
        self.rows.values().sum()
    }
}

/// The ledger of the `bench.run` window in `events`, or `None` when the
/// events hold no complete `bench.run` span.
pub fn compute(events: &[Event]) -> Option<Ledger> {
    let mut evs: Vec<&Event> = events
        .iter()
        .filter(|e| e.phase != Phase::Instant)
        .collect();
    // Events are timestamped before they are appended, so two threads can
    // append out of order; a stable sort keeps each thread's own order.
    evs.sort_by_key(|e| e.ts_us);
    let is_run = |e: &&&Event| e.cat == "bench" && e.name == "run";
    let begin = evs.iter().find(|e| is_run(e) && e.phase == Phase::Begin)?;
    let (w0, tid) = (begin.ts_us, begin.tid);
    let w1 = evs
        .iter()
        .find(|e| e.tid == tid && e.phase == Phase::End && e.ts_us >= w0 && is_run(e))?
        .ts_us;

    let mut rows: BTreeMap<&'static str, f64> =
        ROWS.iter().chain([&REQUEST]).map(|r| (*r, 0.0)).collect();
    let mut thread_ms = rows.clone();
    // Per thread: open spans, innermost last, as (row, is a bench span).
    let mut stacks: HashMap<u64, Vec<(&'static str, bool)>> = HashMap::new();
    let mut attribute = |d: f64, stacks: &HashMap<u64, Vec<(&'static str, bool)>>| {
        let inner: Vec<(&'static str, bool)> =
            stacks.values().filter_map(|s| s.last().copied()).collect();
        let work: Vec<&'static str> = inner.iter().filter(|(_, b)| !b).map(|(r, _)| *r).collect();
        if !work.is_empty() {
            for r in &work {
                *rows.get_mut(r).expect("known row") += d / work.len() as f64;
                *thread_ms.get_mut(r).expect("known row") += d;
            }
        } else {
            let r = inner.first().map_or("bench.unattributed_ms", |(r, _)| *r);
            *rows.get_mut(r).expect("known row") += d;
        }
    };
    let mut prev = w0;
    for e in evs {
        let t = e.ts_us.clamp(w0, w1);
        if t > prev {
            attribute((t - prev) as f64 / 1e3, &stacks);
            prev = t;
        }
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            Phase::Begin => stack.push((row(e.cat, &e.name), e.cat == "bench")),
            Phase::End => {
                stack.pop();
            }
            Phase::Instant => {}
        }
    }
    if w1 > prev {
        attribute((w1 - prev) as f64 / 1e3, &stacks);
    }
    Some(Ledger {
        rows,
        thread_ms,
        wall_ms: (w1 - w0) as f64 / 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(phase: Phase, cat: &'static str, name: &str, ts_us: u64, tid: u64) -> Event {
        Event {
            phase,
            cat,
            name: name.to_string(),
            ts_us,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn rows_sum_to_the_window_and_split_parallel_time() {
        use Phase::{Begin as B, End as E};
        let events = vec![
            ev(B, "bench", "run", 0, 1),
            ev(B, "bench", "verify", 100, 1),
            ev(B, "engine", "episode", 200, 2),
            ev(B, "solver", "query", 300, 2),
            ev(B, "engine", "episode", 400, 3),
            ev(E, "solver", "query", 600, 2),
            ev(E, "engine", "episode", 700, 2),
            ev(E, "engine", "episode", 800, 3),
            ev(E, "bench", "verify", 900, 1),
            ev(E, "bench", "run", 1000, 1),
        ];
        let l = compute(&events).unwrap();
        assert!((l.wall_ms - 1.0).abs() < 1e-9);
        assert!((l.total() - l.wall_ms).abs() < 1e-9);
        // 300..400 alone, 400..600 shared with tid 3.
        assert!((l.get("solver.query_ms") - 0.2).abs() < 1e-9);
        assert!((l.thread_ms["solver.query_ms"] - 0.3).abs() < 1e-9);
        // Engine: 100..300 and 600..900 whole, half of 400..600.
        assert!((l.get("engine.interp_ms") - 0.6).abs() < 1e-9);
        assert!((l.get("bench.unattributed_ms") - 0.2).abs() < 1e-9);
    }
}
