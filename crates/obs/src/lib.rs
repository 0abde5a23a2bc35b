//! `tpot-obs`: the observability substrate of the verification pipeline.
//!
//! Every stage of the pipeline — cfront lowering, engine path exploration,
//! query construction and slicing, portfolio dispatch, and the solver's
//! internals — reports into this crate instead of ad-hoc `eprintln!`s and
//! scattered stat fields. Four facilities, all zero-cost when disabled:
//!
//! - **Structured spans** ([`fn@span`], [`instant`]): begin/end events with a
//!   category, name and key/value args (POT name, path id, query
//!   fingerprint). Collected in-process and exported as a span JSONL file
//!   (`TPOT_SPANS=spans.jsonl`) and/or a Chrome-trace file loadable in
//!   Perfetto (`TPOT_TRACE=trace.json`), where a full run renders as a
//!   flamegraph with solver time attributed per query and per POT.
//! - **Metrics registry** ([`metrics`]): named counters and log₂-bucket
//!   histograms, dumped as JSON at exit when `TPOT_METRICS=metrics.json`
//!   is set (or read programmatically via [`metrics::to_json`]).
//! - **Leveled logging** ([`log_emit`] and the [`obs_error!`]/[`obs_warn!`]/
//!   [`obs_info!`]/[`obs_debug!`] macros): `TPOT_LOG=warn|info|debug` (or
//!   `0..3`). Default is `warn`, so default output is quiet; when tracing
//!   is on, log lines are additionally recorded as instant events, so
//!   machine output is structured.
//! - **Slow-query watchdog** ([`watchdog`]): with `TPOT_SLOW_QUERY_MS=N`,
//!   any solver query in flight longer than N ms is dumped *while still
//!   running* as a replayable SMT-LIB file (with its span ancestry in the
//!   header) under `TPOT_SLOW_QUERY_DIR` (default `tpot-slow-queries/`).
//!
//! The crate has no dependencies and never changes verification behavior:
//! instrumentation only observes. Tracing defaults off; a single relaxed
//! atomic load guards every span site.

pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;
pub mod watchdog;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use span::{ancestry, instant, span, span_args, Event, Phase, Span};

/// Log verbosity levels, most to least severe.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Unrecoverable or clearly-wrong conditions.
    Error = 0,
    /// Suspicious conditions worth surfacing by default (e.g. fuzzer
    /// discrepancies).
    Warn = 1,
    /// Progress messages (`TPOT_LOG=info`).
    Info = 2,
    /// Internal diagnostics (`TPOT_LOG=debug`), e.g. marker instantiation.
    Debug = 3,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// The single typed home of every `TPOT_*` runtime knob.
///
/// The environment is parsed exactly once — in [`Config::from_env`], on
/// first obs use — and every subsystem reads the parsed value from the
/// active config ([`config`]) instead of re-reading `std::env`: the obs
/// sinks and watchdog here, the path scheduler's worker count
/// (`TPOT_PATH_JOBS`), and the engine's incremental-session toggle
/// (`TPOT_INCREMENTAL`). Tests and the benchmark override programmatically
/// by setting fields (or with the builder methods) plus [`configure`]. The
/// full knob table lives in the README ("Runtime knobs").
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Chrome-trace (Perfetto-loadable) output path (`TPOT_TRACE`).
    pub trace_path: Option<PathBuf>,
    /// Span JSONL output path (`TPOT_SPANS`).
    pub spans_path: Option<PathBuf>,
    /// Metrics dump path (`TPOT_METRICS`).
    pub metrics_path: Option<PathBuf>,
    /// Log level (`TPOT_LOG`); `None` = default ([`Level::Warn`]).
    pub log_level: Option<Level>,
    /// Slow-query threshold in milliseconds (`TPOT_SLOW_QUERY_MS`); 0/None
    /// disables the watchdog.
    pub slow_query_ms: Option<u64>,
    /// Directory for slow-query repro dumps (`TPOT_SLOW_QUERY_DIR`).
    pub slow_query_dir: Option<PathBuf>,
    /// Force span collection even without an output path (tests and
    /// harnesses that read events programmatically via [`take_events`]).
    pub collect_spans: bool,
    /// Workers in the path-level work-stealing scheduler
    /// (`TPOT_PATH_JOBS`); `None` = core count. `1` degenerates to the
    /// sequential depth-first order.
    pub path_jobs: Option<usize>,
    /// Seed for the scheduler's deterministic victim selection
    /// (`TPOT_STEAL_SEED`); `None` = the engine default. Two runs with the
    /// same seed and worker count make the same steal decisions.
    pub steal_seed: Option<u64>,
    /// Incremental solve sessions in the engine (`TPOT_INCREMENTAL`,
    /// `0|false|off` / `1|true|on`); `None` = the engine's default (on).
    pub incremental: Option<bool>,
    /// DRAT proof logging in the SAT core (`TPOT_PROOF`); `None` = the
    /// solver's default (off — logging costs memory proportional to the
    /// number of learned clauses).
    pub proof: Option<bool>,
    /// Proof-effort blame (`TPOT_BLAME`): provenance tagging of asserted
    /// assumptions, assumption-core extraction on proved POTs, and
    /// conflict-participation tracking of activation literals; `None` =
    /// the engine's default (off — tracking costs a scan per learned
    /// clause).
    pub blame: Option<bool>,
    /// Path-tree profile output (`TPOT_PROFILE`): after a verify run the
    /// driver writes the fork tree weighted by exclusive solver time in
    /// collapsed-stack (flamegraph) format to this path.
    pub profile_path: Option<PathBuf>,
    /// Persistent proof-cache directory (`TPOT_CACHE_DIR`): the engine
    /// driver and `tpotd` open `proofs.cache` inside it when no explicit
    /// cache path is configured. `None` = in-memory caching only.
    pub cache_dir: Option<PathBuf>,
    /// Persistent proof-cache size bound in MiB (`TPOT_CACHE_MAX_MB`);
    /// entries are evicted least-recently-used once the serialized cache
    /// would exceed it. `None` = the cache's default (256 MiB).
    pub cache_max_mb: Option<u64>,
}

/// The historical name of [`Config`].
pub type ObsConfig = Config;

impl Config {
    /// Reads the configuration from `TPOT_*` environment variables.
    pub fn from_env() -> Self {
        let path = |k: &str| {
            std::env::var_os(k)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        };
        let level = std::env::var("TPOT_LOG").ok().and_then(|v| {
            match v.trim().to_ascii_lowercase().as_str() {
                "0" | "error" => Some(Level::Error),
                "1" | "warn" => Some(Level::Warn),
                "2" | "info" => Some(Level::Info),
                "3" | "debug" => Some(Level::Debug),
                _ => None,
            }
        });
        let count = |k: &str| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
        };
        let toggle = |k: &str| {
            std::env::var(k)
                .ok()
                .and_then(|v| match v.trim().to_ascii_lowercase().as_str() {
                    "0" | "false" | "off" | "no" => Some(false),
                    "1" | "true" | "on" | "yes" => Some(true),
                    _ => None,
                })
        };
        Config {
            trace_path: path("TPOT_TRACE"),
            spans_path: path("TPOT_SPANS"),
            metrics_path: path("TPOT_METRICS"),
            log_level: level,
            slow_query_ms: std::env::var("TPOT_SLOW_QUERY_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0),
            slow_query_dir: path("TPOT_SLOW_QUERY_DIR"),
            collect_spans: false,
            path_jobs: count("TPOT_PATH_JOBS"),
            steal_seed: std::env::var("TPOT_STEAL_SEED")
                .ok()
                .and_then(|v| v.trim().parse().ok()),
            incremental: toggle("TPOT_INCREMENTAL"),
            proof: toggle("TPOT_PROOF"),
            blame: toggle("TPOT_BLAME"),
            profile_path: path("TPOT_PROFILE"),
            cache_dir: path("TPOT_CACHE_DIR"),
            cache_max_mb: std::env::var("TPOT_CACHE_MAX_MB")
                .ok()
                .and_then(|v| v.trim().parse().ok()),
        }
    }

    /// Sets the Chrome-trace output path.
    pub fn trace(mut self, p: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(p.into());
        self
    }

    /// Sets the span JSONL output path.
    pub fn spans(mut self, p: impl Into<PathBuf>) -> Self {
        self.spans_path = Some(p.into());
        self
    }

    /// Sets the slow-query watchdog threshold (ms; 0 disables).
    pub fn slow_query(mut self, ms: u64) -> Self {
        self.slow_query_ms = Some(ms).filter(|&n| n > 0);
        self
    }

    /// Forces span collection without an output path.
    pub fn collect(mut self, on: bool) -> Self {
        self.collect_spans = on;
        self
    }

    /// True when span collection should be active.
    fn tracing(&self) -> bool {
        self.collect_spans || self.trace_path.is_some() || self.spans_path.is_some()
    }
}

/// A snapshot of the active configuration — the environment as parsed on
/// first use, or whatever [`configure`] last installed. Subsystems read
/// their knobs from here instead of `std::env`.
pub fn config() -> Config {
    obs().cfg.lock().unwrap().clone()
}

/// Hard cap on buffered events; beyond it, events are counted as dropped
/// rather than collected (the drop count is exported in the trace metadata
/// and the `obs.events_dropped` counter — never a silent truncation).
const MAX_EVENTS: usize = 1 << 22;

pub(crate) struct Obs {
    pub(crate) epoch: Instant,
    tracing: AtomicBool,
    log_level: AtomicU8,
    watchdog_ms: AtomicU64,
    cfg: Mutex<Config>,
    pub(crate) events: Mutex<Vec<Event>>,
    pub(crate) dropped: AtomicU64,
}

static OBS: OnceLock<Obs> = OnceLock::new();

pub(crate) fn obs() -> &'static Obs {
    OBS.get_or_init(|| {
        let cfg = Config::from_env();
        Obs {
            epoch: Instant::now(),
            tracing: AtomicBool::new(cfg.tracing()),
            log_level: AtomicU8::new(cfg.log_level.unwrap_or(Level::Warn) as u8),
            watchdog_ms: AtomicU64::new(cfg.slow_query_ms.unwrap_or(0)),
            cfg: Mutex::new(cfg),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    })
}

/// Replaces the active configuration (programmatic override of the
/// environment — used by tests and the benchmark). Does not clear
/// already-collected events or metrics; see [`take_events`].
pub fn configure(cfg: Config) {
    let o = obs();
    o.tracing.store(cfg.tracing(), Ordering::Relaxed);
    o.log_level.store(
        cfg.log_level.unwrap_or(Level::Warn) as u8,
        Ordering::Relaxed,
    );
    o.watchdog_ms
        .store(cfg.slow_query_ms.unwrap_or(0), Ordering::Relaxed);
    *o.cfg.lock().unwrap() = cfg;
}

/// True when span collection is active. The single load every span site
/// pays when tracing is disabled.
#[inline]
pub fn tracing_enabled() -> bool {
    // Cheap even before first use: OnceLock init happens once.
    obs().tracing.load(Ordering::Relaxed)
}

/// True when messages at `level` should be emitted.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= obs().log_level.load(Ordering::Relaxed)
}

/// The slow-query threshold in ms (0 = watchdog disabled).
#[inline]
pub fn slow_query_ms() -> u64 {
    obs().watchdog_ms.load(Ordering::Relaxed)
}

/// Emits a log line on stderr (when `level` is enabled) and, when tracing,
/// records it as an instant event in the span stream. Prefer the
/// [`obs_warn!`]-style macros, which skip formatting entirely when the
/// level is off.
pub fn log_emit(level: Level, target: &str, msg: &str) {
    if log_enabled(level) {
        eprintln!("[tpot {}] {target}: {msg}", level.name());
    }
    if tracing_enabled() {
        instant(
            "log",
            target,
            &[
                ("level", level.name().to_string()),
                ("msg", msg.to_string()),
            ],
        );
    }
}

/// Logs at [`Level::Error`]; arguments are formatted only if emitted.
#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Error) || $crate::tracing_enabled() {
            $crate::log_emit($crate::Level::Error, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`]; arguments are formatted only if emitted.
#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Warn) || $crate::tracing_enabled() {
            $crate::log_emit($crate::Level::Warn, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`]; arguments are formatted only if emitted.
#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Info) || $crate::tracing_enabled() {
            $crate::log_emit($crate::Level::Info, $target, &format!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`]; arguments are formatted only if emitted.
#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log_enabled($crate::Level::Debug) || $crate::tracing_enabled() {
            $crate::log_emit($crate::Level::Debug, $target, &format!($($arg)*));
        }
    };
}

pub(crate) fn push_event(ev: Event) {
    let o = obs();
    let mut events = o.events.lock().unwrap();
    if events.len() >= MAX_EVENTS {
        drop(events);
        o.dropped.fetch_add(1, Ordering::Relaxed);
        metrics::counter("obs.events_dropped").add(1);
        return;
    }
    events.push(ev);
}

/// Takes (and clears) all collected events — for harnesses that analyze
/// spans programmatically (the engine's `pkvm_invariants` span-coverage
/// check, unit tests).
pub fn take_events() -> Vec<Event> {
    std::mem::take(&mut *obs().events.lock().unwrap())
}

/// Number of events dropped at the `MAX_EVENTS` cap so far.
pub fn dropped_events() -> u64 {
    obs().dropped.load(Ordering::Relaxed)
}

/// Writes every configured sink: the Chrome trace (`TPOT_TRACE`), the span
/// JSONL (`TPOT_SPANS`), and the metrics dump (`TPOT_METRICS`). Collected
/// events are kept (flushing twice rewrites complete files), so call sites
/// can flush defensively; the engine flushes after every POT so any driver
/// binary produces sink files without an explicit call. A no-op when
/// nothing is configured. Each sink is written to a sibling temp file and
/// renamed into place, so concurrent flushes (the parallel POT driver)
/// never leave a torn file — the last complete write wins.
pub fn flush() -> std::io::Result<()> {
    let o = obs();
    let (trace_path, spans_path, metrics_path) = {
        let cfg = o.cfg.lock().unwrap();
        (
            cfg.trace_path.clone(),
            cfg.spans_path.clone(),
            cfg.metrics_path.clone(),
        )
    };
    if trace_path.is_some() || spans_path.is_some() {
        let events = o.events.lock().unwrap().clone();
        if let Some(p) = trace_path {
            write_atomic(&p, &trace::chrome_trace_json(&events, dropped_events()))?;
        }
        if let Some(p) = spans_path {
            write_atomic(&p, &trace::events_jsonl(&events))?;
        }
    }
    if let Some(p) = metrics_path {
        write_atomic(&p, &metrics::to_json())?;
    }
    Ok(())
}

/// Writes `data` to `path` via a uniquely-named sibling temp file and an
/// atomic rename — the discipline every sink in this crate uses, exported
/// for sinks maintained by other crates (the driver's `TPOT_PROFILE`
/// output). Concurrent writers never leave a torn file; the last complete
/// write wins.
pub fn write_atomic(path: &std::path::Path, data: &str) -> std::io::Result<()> {
    static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = PathBuf::from(format!(
        "{}.tmp{}",
        path.display(),
        FLUSH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, data)?;
    std::fs::rename(&tmp, path)
}

/// Microseconds since the process-wide epoch (first obs use). All span
/// timestamps are on this clock.
pub(crate) fn now_us() -> u64 {
    obs().epoch.elapsed().as_micros() as u64
}
