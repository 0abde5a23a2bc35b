//! Span and instant events with thread-local ancestry.
//!
//! A [`Span`] is an RAII guard: creating it records a begin event and
//! pushes onto the calling thread's span stack; dropping it records the
//! matching end event. Because the guards nest lexically, per-thread
//! begin/end sequences are always properly bracketed — the property the
//! Chrome-trace exporter relies on.
//!
//! [`ancestry`] renders the current thread's open spans outermost-first;
//! the slow-query watchdog embeds it in repro headers so a dumped query
//! carries its engine context (POT, path, purpose) with it.

use std::cell::RefCell;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{now_us, push_event, tracing_enabled};

/// Event phase, mirroring the Chrome-trace `ph` field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instant event (`"i"`).
    Instant,
}

impl Phase {
    /// The Chrome-trace `ph` string.
    pub fn ph(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One collected event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event {
    /// Phase (begin/end/instant).
    pub phase: Phase,
    /// Category (pipeline stage: `engine`, `solver`, `sched`, …).
    pub cat: &'static str,
    /// Span or event name.
    pub name: String,
    /// Microseconds since the process epoch.
    pub ts_us: u64,
    /// Small stable per-thread id.
    pub tid: u64,
    /// Key/value arguments (POT name, path id, query fingerprint, …).
    pub args: Vec<(String, String)>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// One open span on a thread's stack: (cat, name, args).
type OpenSpan = (&'static str, String, Vec<(String, String)>);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's stable id (allocated on first use).
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// An RAII span guard. Inert (a no-op) when tracing is disabled.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    active: bool,
}

/// Opens a span with no arguments. See [`span_args`].
#[inline]
pub fn span(cat: &'static str, name: &str) -> Span {
    span_args(cat, name, &[])
}

/// Opens a span with key/value arguments. The values are formatted only
/// when tracing is enabled; when it is disabled this costs one relaxed
/// atomic load and allocates nothing.
#[inline]
pub fn span_args(cat: &'static str, name: &str, args: &[(&str, &dyn Display)]) -> Span {
    if !tracing_enabled() {
        return Span { active: false };
    }
    let args: Vec<(String, String)> = args
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    STACK.with(|s| s.borrow_mut().push((cat, name.to_string(), args.clone())));
    push_event(Event {
        phase: Phase::Begin,
        cat,
        name: name.to_string(),
        ts_us: now_us(),
        tid: current_tid(),
        args,
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let (cat, name) = STACK.with(|s| {
            s.borrow_mut()
                .pop()
                .map(|(c, n, _)| (c, n))
                .unwrap_or(("obs", String::from("unbalanced")))
        });
        push_event(Event {
            phase: Phase::End,
            cat,
            name,
            ts_us: now_us(),
            tid: current_tid(),
            args: Vec::new(),
        });
    }
}

/// Records an instant event (fork, restart, log line, …).
#[inline]
pub fn instant(cat: &'static str, name: &str, args: &[(&str, String)]) {
    if !tracing_enabled() {
        return;
    }
    push_event(Event {
        phase: Phase::Instant,
        cat,
        name: name.to_string(),
        ts_us: now_us(),
        tid: current_tid(),
        args: args
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    });
}

/// The calling thread's open spans, outermost first, rendered as
/// `cat.name{k=v, …}` lines. Independent of whether tracing is enabled?
/// No: the stack is only maintained while tracing, so this is empty when
/// tracing is off — callers (the watchdog) treat it as best-effort context.
pub fn ancestry() -> Vec<String> {
    STACK.with(|s| {
        s.borrow()
            .iter()
            .map(|(cat, name, args)| {
                if args.is_empty() {
                    format!("{cat}.{name}")
                } else {
                    let kv: Vec<String> = args.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("{cat}.{name}{{{}}}", kv.join(", "))
                }
            })
            .collect()
    })
}
