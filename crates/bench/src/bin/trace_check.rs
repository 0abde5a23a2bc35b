//! CI validator for Chrome-trace files produced by `TPOT_TRACE=...`.
//!
//! Checks that the trace (a) parses as the Chrome Trace Event Format
//! document `tpot-obs` emits, (b) has properly nested Begin/End pairs per
//! thread — an End that does not match the innermost open Begin is fatal
//! unless the trace reports dropped events — and (c) contains at least one
//! `solver`-category span: the whole point of the artifact is solver
//! time-attribution, so a trace without solver spans means the
//! instrumentation regressed. Spans still open at the end of the file are
//! reported but tolerated: the engine flushes sinks after every POT, so a
//! trace is a snapshot and may capture in-flight work (another worker's
//! episode of a later POT). Perfetto renders such spans as running to the
//! trace end.
//!
//! Multi-worker traces (`TPOT_PATH_JOBS > 1`) get scheduler-shape checks
//! on top:
//!
//! - timestamps must be monotone globally (the exporter sorts) *and* per
//!   thread (per-thread order is what span nesting is defined over);
//! - `engine.episode` spans are the unit of scheduling and must be
//!   top-level on their thread — an episode nested inside another episode
//!   (or inside a `sched.steal`/`sched.idle` span) means a worker
//!   re-entered the scheduler mid-episode;
//! - `sched.steal`/`sched.idle` spans live in the worker loop *between*
//!   episodes, so one opening while an episode is open on the same thread
//!   is fatal;
//! - event accounting must close: every event is a matched Begin/End, a
//!   still-open Begin, or an instant — unless `otherData.dropped_events`
//!   says the ring buffer overflowed, in which case unmatched Ends are
//!   tolerated (their Begins were dropped) but still counted and reported.
//!
//! Usage: `trace_check TRACE.json`; exits nonzero on any violation.

use std::collections::HashMap;
use std::process::exit;

use tpot_obs::json::{parse, Value};

fn die(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    exit(1);
}

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check TRACE.json");
        exit(2);
    };
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| die(&format!("{path} is not valid JSON: {e}")));

    let Some(events) = doc.get("traceEvents").and_then(Value::as_arr) else {
        die(&format!("{path} has no traceEvents array"));
    };
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64;

    // Per-tid stacks; events are sorted by timestamp with per-thread order
    // preserved, so each thread's B/E pairs must nest.
    let mut stacks: HashMap<u64, Vec<(String, String)>> = HashMap::new();
    let mut last_ts_by_tid: HashMap<u64, f64> = HashMap::new();
    let mut matched = 0u64;
    let mut orphan_ends = 0u64;
    let mut instants = 0u64;
    let mut solver_spans = 0u64;
    let mut episode_spans = 0u64;
    let mut steal_spans = 0u64;
    let mut idle_spans = 0u64;
    let mut last_ts = f64::MIN;
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| ev.get(k).and_then(Value::as_str).map(str::to_string);
        let ph = field("ph").unwrap_or_else(|| die(&format!("event {i} has no ph")));
        let name = field("name").unwrap_or_else(|| die(&format!("event {i} has no name")));
        let cat = field("cat").unwrap_or_else(|| die(&format!("event {i} has no cat")));
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| die(&format!("event {i} has no numeric ts")));
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| die(&format!("event {i} has no numeric tid")))
            as u64;
        if ts < last_ts {
            die(&format!("event {i} out of timestamp order"));
        }
        last_ts = ts;
        let tid_last = last_ts_by_tid.entry(tid).or_insert(f64::MIN);
        if ts < *tid_last {
            die(&format!("event {i} out of timestamp order on tid {tid}"));
        }
        *tid_last = ts;
        match ph.as_str() {
            "B" => {
                if cat == "solver" {
                    solver_spans += 1;
                }
                let stack = stacks.entry(tid).or_default();
                let is_episode = cat == "engine" && name == "episode";
                let is_sched = cat == "sched" && (name == "steal" || name == "idle");
                if is_episode || is_sched {
                    // The scheduler's own spans never nest in each other:
                    // episodes are the unit of scheduling, steal/idle live
                    // between them in the worker loop.
                    if let Some((oc, on)) = stack.iter().find(|(oc, on)| {
                        (oc == "engine" && on == "episode")
                            || (oc == "sched" && (on == "steal" || on == "idle"))
                    }) {
                        die(&format!(
                            "event {i}: {cat}.{name} opened inside {oc}.{on} on tid {tid}"
                        ));
                    }
                    if is_episode {
                        episode_spans += 1;
                    } else if name == "steal" {
                        steal_spans += 1;
                    } else {
                        idle_spans += 1;
                    }
                }
                stack.push((cat, name));
            }
            "E" => match stacks.entry(tid).or_default().pop() {
                Some((_, open)) if open == name => matched += 1,
                Some((_, open)) => die(&format!(
                    "event {i}: End of {name:?} but {open:?} is open on tid {tid}"
                )),
                None if dropped > 0 => orphan_ends += 1,
                None => die(&format!(
                    "event {i}: End of {name:?} with no open span (and no dropped events)"
                )),
            },
            "i" => instants += 1,
            other => die(&format!("event {i}: unexpected phase {other:?}")),
        }
    }
    let open: u64 = stacks.values().map(|s| s.len() as u64).sum();
    if solver_spans == 0 {
        die("no solver-category spans — solver time-attribution is missing");
    }
    // Every event must be accounted for: matched pairs, still-open Begins,
    // orphaned Ends (dropped counterpart), or instants.
    let accounted = 2 * matched + open + orphan_ends + instants;
    if accounted != events.len() as u64 {
        die(&format!(
            "event accounting does not close: {} events but {accounted} accounted \
             (2*{matched} matched + {open} open + {orphan_ends} orphan ends + {instants} instants)",
            events.len()
        ));
    }
    println!(
        "trace_check: OK ({} events on {} thread(s), {matched} matched spans, {instants} \
         instants, {solver_spans} solver spans, {episode_spans} episodes, {steal_spans} steals, \
         {idle_spans} idles, {open} still open, {orphan_ends} orphan ends, {dropped} dropped)",
        events.len(),
        last_ts_by_tid.len()
    );
}
