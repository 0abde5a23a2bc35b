//! `tpotd`: TPot verification as a service.
//!
//! A long-running server that accepts `tpot-api/v1` verify requests over
//! HTTP and serves them from a persistent, content-addressed proof cache,
//! re-running the symbolic-execution engine only for proof obligations the
//! cache cannot answer.
//!
//! # Architecture
//!
//! ```text
//!  client ──POST /v1/verify──▶ connection thread (one per request)
//!                                │ compile + lower, digest cones,
//!                                │ probe POT-outcome cache
//!                                │      hits → `cached` outcomes
//!                                ▼      misses ↓
//!                             job queue ──▶ scheduler thread
//!                                             │ coalesce jobs by
//!                                             │ (module, config) digest,
//!                                             │ union their POT sets
//!                                             ▼
//!                                  Verifier::verify_with_cache
//!                                  (shared path-scheduler pool +
//!                                   shared persistent query cache)
//! ```
//!
//! Multi-tenancy is by *request coalescing*: concurrent requests against
//! the same (module digest, config digest) pair are merged into a single
//! engine run whose POT set is the union of theirs, all sharing one
//! persistent query cache — so N clients verifying the same component cost
//! one verification. Distinct components simply batch through the
//! scheduler back to back.
//!
//! # Incremental re-verification
//!
//! The POT-outcome table is keyed by (cone digest, config digest), where
//! the cone digest folds the TIR of every function in the POT's
//! cone-of-influence ([`tpot_ir::diff::cone_digest`]). Editing a function
//! therefore invalidates exactly the POTs whose cones contain it: their
//! keys change and they miss the cache, while every other POT keeps
//! hitting. The daemon additionally remembers the last module submitted
//! under each request `label` and reports the function-level diff in
//! `changed_functions` — pure reporting; the invalidation itself is the
//! content addressing.
//!
//! Per-POT provenance in the response distinguishes the three service
//! tiers: `cached` (POT-outcome hit, no engine run), `replayed` (engine
//! re-ran but every solver query hit the persistent query cache), and
//! `solved` (at least one query reached a solver).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use std::sync::Condvar;
use tpot_api::{
    http, CacheProvenance, PotOutcome, PotStatusWire, TpotError, VerifyRequest, VerifyResponse,
    API_VERSION,
};
use tpot_engine::{outcome_digest, AddrMode, EngineConfig, PotResult, PotStatus, Verifier};
use tpot_ir::{diff, Module};
use tpot_obs::json::{self, Value};
use tpot_portfolio::{PotEntry, SharedCache};

/// Server configuration.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:7333` by default; port `0` picks a free
    /// port, reported by [`DaemonHandle::addr`]).
    pub addr: String,
    /// Proof-cache directory. `None` falls back to `TPOT_CACHE_DIR`, then
    /// to a purely in-memory cache (the service still coalesces and
    /// query-caches, but forgets everything on exit).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Cache size bound in MiB (`None` = `TPOT_CACHE_MAX_MB`, then the
    /// built-in 256 MiB default).
    pub cache_max_mb: Option<u64>,
    /// Default path-scheduler worker count for requests that don't set
    /// `jobs` (`0` = auto).
    pub default_jobs: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:7333".to_string(),
            cache_dir: None,
            cache_max_mb: None,
            default_jobs: 0,
        }
    }
}

impl DaemonConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the bind address.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the proof-cache directory.
    pub fn cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Sets the cache size bound in MiB.
    pub fn cache_max_mb(mut self, mb: u64) -> Self {
        self.cache_max_mb = Some(mb);
        self
    }

    /// Sets the default worker count.
    pub fn default_jobs(mut self, jobs: usize) -> Self {
        self.default_jobs = jobs;
        self
    }
}

/// A verify job the connection thread could not serve from the POT-outcome
/// cache: the subset of its POTs that must go through the engine.
struct Job {
    module: Arc<Module>,
    module_digest: u64,
    config: EngineConfig,
    config_digest: u64,
    pots: Vec<String>,
    reply: mpsc::Sender<HashMap<String, PotOutcome>>,
}

/// Shared server state.
struct Inner {
    cache: SharedCache,
    // The job queue pairs a std Mutex with a Condvar (the parking_lot shim
    // has no Condvar); everything else uses the workspace Mutex.
    queue: std::sync::Mutex<Vec<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Bound address, for the shutdown self-connect that wakes the
    /// blocking accept loop.
    addr: std::sync::OnceLock<SocketAddr>,
    /// Last module per diff key, for `changed_functions` reporting.
    last_modules: Mutex<HashMap<String, Arc<Module>>>,
    /// Compile memo: source digest → lowered module. Re-submissions of an
    /// unchanged translation unit (the steady state of a watch loop) skip
    /// the frontend entirely, leaving the warm path cache-probe-only.
    modules: Mutex<HashMap<u64, Arc<Module>>>,
    started: Instant,
    default_jobs: usize,
    // Service counters for `/v1/status`.
    requests: AtomicU64,
    pots_cached: AtomicU64,
    pots_replayed: AtomicU64,
    pots_solved: AtomicU64,
    coalesced_runs: AtomicU64,
}

/// A running daemon. Dropping the handle does *not* stop the server; call
/// [`DaemonHandle::shutdown`] (or POST `/v1/shutdown`).
pub struct DaemonHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    sched_thread: Option<std::thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `host:port` string for [`tpot_api::http`] clients.
    pub fn addr_string(&self) -> String {
        self.addr.to_string()
    }

    /// True once a `POST /v1/shutdown` (or [`DaemonHandle::shutdown`]) has
    /// been observed; the binary polls this to know when to exit.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Stops the server: the accept loop drains, the scheduler finishes
    /// in-flight work, and the proof cache is flushed to disk.
    pub fn shutdown(mut self) {
        self.inner.request_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.sched_thread.take() {
            let _ = t.join();
        }
        let _ = self.inner.cache.lock().flush();
    }
}

/// Starts the daemon: binds, spawns the accept loop and the coalescing
/// scheduler, and returns immediately.
pub fn start(config: DaemonConfig) -> Result<DaemonHandle, TpotError> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| TpotError::io(format!("bind {} failed: {e}", config.addr)))?;
    let addr = listener.local_addr()?;

    let cache_dir = config
        .cache_dir
        .clone()
        .or_else(|| tpot_obs::config().cache_dir.clone());
    let mut cache = match &cache_dir {
        Some(d) => {
            let _ = std::fs::create_dir_all(d);
            tpot_portfolio::ProofCache::open(d.join("proofs.cache"))
                .map_err(|e| TpotError::io(format!("open proof cache in {d:?} failed: {e}")))?
        }
        None => tpot_portfolio::ProofCache::in_memory(),
    };
    if let Some(mb) = config.cache_max_mb.or(tpot_obs::config().cache_max_mb) {
        cache = cache.with_max_bytes(mb.saturating_mul(1 << 20));
    }

    let inner = Arc::new(Inner {
        cache: Arc::new(Mutex::new(cache)),
        queue: std::sync::Mutex::new(Vec::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        addr: std::sync::OnceLock::new(),
        last_modules: Mutex::new(HashMap::new()),
        modules: Mutex::new(HashMap::new()),
        started: Instant::now(),
        default_jobs: config.default_jobs,
        requests: AtomicU64::new(0),
        pots_cached: AtomicU64::new(0),
        pots_replayed: AtomicU64::new(0),
        pots_solved: AtomicU64::new(0),
        coalesced_runs: AtomicU64::new(0),
    });

    let _ = inner.addr.set(addr);
    let sched_inner = inner.clone();
    let sched_thread = std::thread::Builder::new()
        .name("tpotd-sched".into())
        .spawn(move || scheduler_loop(&sched_inner))
        .map_err(|e| TpotError::io(format!("spawn scheduler: {e}")))?;

    let accept_inner = inner.clone();
    let accept_thread = std::thread::Builder::new()
        .name("tpotd-accept".into())
        .spawn(move || accept_loop(listener, &accept_inner))
        .map_err(|e| TpotError::io(format!("spawn accept loop: {e}")))?;

    tpot_obs::obs_info!("daemon", "tpotd listening on {addr}");
    Ok(DaemonHandle {
        addr,
        inner,
        accept_thread: Some(accept_thread),
        sched_thread: Some(sched_thread),
    })
}

/// Blocking accept loop (no latency from polling); a shutdown wakes it
/// with a self-connect from [`Inner::request_shutdown`].
fn accept_loop(listener: TcpListener, inner: &Arc<Inner>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let inner = inner.clone();
                if let Ok(t) = std::thread::Builder::new()
                    .name("tpotd-conn".into())
                    .spawn(move || serve_connection(stream, &inner))
                {
                    conns.push(t);
                }
                conns.retain(|t| !t.is_finished());
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for t in conns {
        let _ = t.join();
    }
}

impl Inner {
    /// Sets the shutdown flag and wakes both loops: the scheduler via its
    /// condvar, the accept loop via a throwaway self-connection.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        if let Some(addr) = self.addr.get() {
            let _ = TcpStream::connect_timeout(addr, Duration::from_millis(200));
        }
    }
}

/// The coalescing scheduler: drains every queued job, groups by
/// (module digest, config digest), and runs each group as one engine
/// invocation over the union of the group's POT sets.
fn scheduler_loop(inner: &Arc<Inner>) {
    loop {
        let batch: Vec<Job> = {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            while q.is_empty() && !inner.shutdown.load(Ordering::SeqCst) {
                let (guard, _) = inner
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            if q.is_empty() && inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::mem::take(&mut *q)
        };
        // Group by verification identity.
        let mut groups: HashMap<(u64, u64), Vec<Job>> = HashMap::new();
        for job in batch {
            groups
                .entry((job.module_digest, job.config_digest))
                .or_default()
                .push(job);
        }
        for ((_, config_digest), jobs) in groups {
            run_group(inner, config_digest, jobs);
        }
    }
}

/// Runs one coalesced group and distributes per-POT outcomes to each
/// requester, recording them in the persistent POT-outcome table.
fn run_group(inner: &Arc<Inner>, config_digest: u64, jobs: Vec<Job>) {
    if jobs.len() > 1 {
        inner.coalesced_runs.fetch_add(1, Ordering::Relaxed);
    }
    let module = jobs[0].module.clone();
    let config = jobs[0].config.clone();
    let mut union: Vec<String> = Vec::new();
    for job in &jobs {
        for p in &job.pots {
            if !union.contains(p) {
                union.push(p.clone());
            }
        }
    }
    let worker_jobs = inner.default_jobs;
    let cache = inner.cache.clone();
    let verifier = Verifier::with_config((*module).clone(), config);
    let opts = tpot_engine::VerifyOptions::new()
        .pots(union.clone())
        .jobs(worker_jobs);
    // A panicking engine run must not take the daemon down with it.
    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        verifier.verify_with_cache(&opts, cache.clone())
    }));
    let outcomes: HashMap<String, PotOutcome> = match results {
        Ok(results) => results
            .iter()
            .map(|r| (r.pot.clone(), engine_outcome(inner, r)))
            .collect(),
        Err(_) => union
            .iter()
            .map(|p| {
                let mut o =
                    PotOutcome::new(p.clone(), PotStatusWire::Error, CacheProvenance::Solved);
                o.detail.push("engine panicked".to_string());
                (p.clone(), o)
            })
            .collect(),
    };
    // Record outcomes in the POT table (engine errors are not cached — a
    // resource-limit failure should retry next time).
    {
        let mut cache = inner.cache.lock();
        for (pot, o) in &outcomes {
            if o.status == PotStatusWire::Error {
                continue;
            }
            cache.put_pot(
                diff::cone_digest(&module, pot),
                config_digest,
                PotEntry {
                    proved: o.status == PotStatusWire::Proved,
                    detail: o.detail.clone(),
                },
            );
        }
        let _ = cache.flush();
    }
    for job in jobs {
        let subset: HashMap<String, PotOutcome> = job
            .pots
            .iter()
            .filter_map(|p| outcomes.get(p).map(|o| (p.clone(), o.clone())))
            .collect();
        let _ = job.reply.send(subset);
    }
}

/// Converts an engine [`PotResult`] into the wire outcome, deriving
/// provenance from the run's query-cache counters.
fn engine_outcome(inner: &Inner, r: &PotResult) -> PotOutcome {
    let (status, detail) = match &r.status {
        PotStatus::Proved => (PotStatusWire::Proved, Vec::new()),
        PotStatus::Failed(vs) => (
            PotStatusWire::Failed,
            vs.iter().map(|v| v.to_string()).collect(),
        ),
        PotStatus::Error(e) => (PotStatusWire::Error, vec![e.clone()]),
    };
    let provenance = if r.stats.cache_misses == 0 && r.stats.cache_hits > 0 {
        inner.pots_replayed.fetch_add(1, Ordering::Relaxed);
        CacheProvenance::Replayed
    } else {
        inner.pots_solved.fetch_add(1, Ordering::Relaxed);
        CacheProvenance::Solved
    };
    let mut o = PotOutcome::new(r.pot.clone(), status, provenance);
    o.duration_ms = r.duration.as_secs_f64() * 1e3;
    o.queries = r.stats.num_queries;
    o.cache_hits = r.stats.cache_hits;
    o.cache_misses = r.stats.cache_misses;
    o.detail = detail;
    o
}

fn serve_connection(mut stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    // Verification is slow; widen the write window for the response.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(3600)));
    let _ = stream.set_read_timeout(Some(Duration::from_secs(3600)));
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/verify") => {
            inner.requests.fetch_add(1, Ordering::Relaxed);
            let resp = handle_verify(inner, &req.body);
            let _ = http::write_response(
                &mut stream,
                200,
                "application/json",
                &resp.to_json().render(),
            );
        }
        ("GET", "/v1/status") => {
            let _ = http::write_response(
                &mut stream,
                200,
                "application/json",
                &status_json(inner).render(),
            );
        }
        ("POST", "/v1/shutdown") => {
            inner.request_shutdown();
            let _ = http::write_response(
                &mut stream,
                200,
                "application/json",
                "{\"ok\":true,\"shutting_down\":true}",
            );
        }
        (_, "/v1/verify") | (_, "/v1/status") | (_, "/v1/shutdown") => {
            let _ = http::write_response(
                &mut stream,
                405,
                "application/json",
                "{\"ok\":false,\"error\":{\"kind\":\"parse\",\"message\":\"method not allowed\"}}",
            );
        }
        _ => {
            let _ = http::write_response(
                &mut stream,
                404,
                "application/json",
                "{\"ok\":false,\"error\":{\"kind\":\"parse\",\"message\":\"no such endpoint\"}}",
            );
        }
    }
}

fn status_json(inner: &Inner) -> Value {
    let cache = inner.cache.lock().stats();
    Value::Obj(vec![
        ("api".into(), Value::Str(API_VERSION.into())),
        ("ok".into(), Value::Bool(true)),
        (
            "uptime_ms".into(),
            Value::Num(inner.started.elapsed().as_secs_f64() * 1e3),
        ),
        (
            "requests".into(),
            Value::Num(inner.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "pots_cached".into(),
            Value::Num(inner.pots_cached.load(Ordering::Relaxed) as f64),
        ),
        (
            "pots_replayed".into(),
            Value::Num(inner.pots_replayed.load(Ordering::Relaxed) as f64),
        ),
        (
            "pots_solved".into(),
            Value::Num(inner.pots_solved.load(Ordering::Relaxed) as f64),
        ),
        (
            "coalesced_runs".into(),
            Value::Num(inner.coalesced_runs.load(Ordering::Relaxed) as f64),
        ),
        ("cache".into(), cache.to_json()),
    ])
}

/// Serves one verify request end to end on the connection thread:
/// compile → diff-report → cache probe → (for misses) queue + wait →
/// assemble response.
fn handle_verify(inner: &Arc<Inner>, body: &str) -> VerifyResponse {
    let t0 = Instant::now();
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return VerifyResponse::err(TpotError::parse(format!("bad JSON: {e}"))),
    };
    let req = match VerifyRequest::from_json(&parsed) {
        Ok(r) => r,
        Err(e) => return VerifyResponse::err(e),
    };

    // Resolve the translation unit.
    let source = if let Some(t) = &req.target {
        match tpot_targets::target(t) {
            Some(t) => t.full_source(),
            None => return VerifyResponse::err(TpotError::parse(format!("no such target {t:?}"))),
        }
    } else {
        req.source.clone().unwrap_or_default()
    };
    let source_digest = tpot_portfolio::fnv1a(source.as_bytes());
    let memoized = inner.modules.lock().get(&source_digest).cloned();
    let module = match memoized {
        Some(m) => m,
        None => {
            let m = match tpot_cfront::compile(&source)
                .map_err(TpotError::from)
                .and_then(|c| tpot_ir::lower(&c))
            {
                Ok(m) => Arc::new(m),
                Err(e) => return VerifyResponse::err(e),
            };
            let mut memo = inner.modules.lock();
            // Bound the memo: a daemon fed a stream of distinct sources
            // (e.g. a fuzzer) must not grow without limit.
            if memo.len() >= 64 {
                memo.clear();
            }
            memo.insert(source_digest, m.clone());
            m
        }
    };

    // Resolve the POT set, validating names.
    let all_pots = module.pot_names();
    let pots = match &req.pots {
        Some(list) => {
            for p in list {
                if !all_pots.contains(p) {
                    return VerifyResponse::err(TpotError::parse(format!("no such POT {p:?}")));
                }
            }
            list.clone()
        }
        None => all_pots,
    };

    // Engine config for this request.
    let mut config = EngineConfig::default();
    match req.addr_mode.as_deref() {
        Some("bv") => config.addr_mode = AddrMode::Bv,
        Some("int") => config.addr_mode = AddrMode::Int,
        _ => {}
    }
    let config_digest = outcome_digest(&config);
    let module_digest = diff::module_digest(&module);

    // Function-level diff against the previous submission under this key
    // (reporting only — invalidation is the content addressing).
    let changed_functions = {
        let mut last = inner.last_modules.lock();
        let key = req.diff_key();
        let changed = match last.get(&key) {
            Some(prev) if diff::module_digest(prev) != module_digest => {
                diff::diff_modules(prev, &module).touched()
            }
            _ => Vec::new(),
        };
        last.insert(key, module.clone());
        changed
    };

    // Probe the POT-outcome table; collect the misses.
    let mut outcomes: HashMap<String, PotOutcome> = HashMap::new();
    let mut misses: Vec<String> = Vec::new();
    {
        let mut cache = inner.cache.lock();
        for pot in &pots {
            let cone = diff::cone_digest(&module, pot);
            match cache.get_pot(cone, config_digest) {
                Some(entry) => {
                    inner.pots_cached.fetch_add(1, Ordering::Relaxed);
                    let status = if entry.proved {
                        PotStatusWire::Proved
                    } else {
                        PotStatusWire::Failed
                    };
                    let mut o = PotOutcome::new(pot.clone(), status, CacheProvenance::Cached);
                    o.detail = entry.detail;
                    outcomes.insert(pot.clone(), o);
                }
                None => misses.push(pot.clone()),
            }
        }
    }

    // Queue the misses for the coalescing scheduler and wait.
    if !misses.is_empty() {
        let (tx, rx) = mpsc::channel();
        {
            let mut q = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push(Job {
                module: module.clone(),
                module_digest,
                config,
                config_digest,
                pots: misses,
                reply: tx,
            });
        }
        inner.queue_cv.notify_all();
        match rx.recv() {
            Ok(map) => outcomes.extend(map),
            Err(_) => {
                return VerifyResponse::err(TpotError::internal(
                    "scheduler dropped the request (shutting down?)",
                ))
            }
        }
    }

    let mut resp = VerifyResponse::ok();
    for pot in &pots {
        if let Some(o) = outcomes.remove(pot) {
            resp.pots.push(o);
        }
    }
    resp.module_digest = format!("{module_digest:016x}");
    resp.config_digest = format!("{config_digest:016x}");
    resp.changed_functions = changed_functions;
    resp.cache = inner.cache.lock().stats();
    resp.duration_ms = t0.elapsed().as_secs_f64() * 1e3;
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("tpotd_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const SRC: &str = r#"
int counter;

int bump(int x) { return x + 1; }

void spec__bump(void) {
    any(int, v);
    assume(v >= 0 && v < 100);
    counter = bump(v);
    assert(counter >= 1);
}

void spec__zero(void) {
    any(int, v);
    assume(v > 0 && v < 1000);
    assert(bump(v) > 1);
}
"#;

    fn post_verify(addr: &str, req: &VerifyRequest) -> VerifyResponse {
        let (status, body) = http::post(addr, "/v1/verify", &req.to_json().render()).unwrap();
        assert_eq!(status, 200, "body: {body}");
        VerifyResponse::from_json(&json::parse(&body).unwrap()).unwrap()
    }

    #[test]
    fn verify_then_cached_replay() {
        let dir = test_dir("daemon_cached_replay");
        let handle = start(DaemonConfig::new().addr("127.0.0.1:0").cache_dir(&dir)).unwrap();
        let addr = handle.addr_string();

        let req = VerifyRequest::for_source(SRC).with_label("t");
        let first = post_verify(&addr, &req);
        assert!(first.error.is_none(), "{:?}", first.error);
        assert_eq!(first.pots.len(), 2);
        for p in &first.pots {
            assert_eq!(p.status, PotStatusWire::Proved);
            assert_ne!(p.provenance, CacheProvenance::Cached, "cold run");
        }

        // Same module again: everything comes straight from the POT table.
        let second = post_verify(&addr, &req);
        assert_eq!(second.pots.len(), 2);
        for p in &second.pots {
            assert_eq!(p.provenance, CacheProvenance::Cached);
            assert_eq!(p.status, PotStatusWire::Proved);
        }
        assert!(second.changed_functions.is_empty());
        handle.shutdown();
    }

    #[test]
    fn edit_invalidates_only_cone_touching_pots() {
        let dir = test_dir("daemon_incremental");
        let handle = start(DaemonConfig::new().addr("127.0.0.1:0").cache_dir(&dir)).unwrap();
        let addr = handle.addr_string();

        let req = VerifyRequest::for_source(SRC).with_label("inc");
        let first = post_verify(&addr, &req);
        assert!(first.error.is_none());

        // `spec__zero` does not touch `counter`; editing only the POT body
        // of `spec__bump` leaves spec__zero's cone digest intact.
        let edited = SRC.replace("assert(counter >= 1);", "assert(counter >= 0);");
        let req2 = VerifyRequest::for_source(edited).with_label("inc");
        let second = post_verify(&addr, &req2);
        assert!(second.error.is_none());
        assert_eq!(
            second.changed_functions,
            vec!["spec__bump".to_string()],
            "function-level diff reported"
        );
        let by_name: HashMap<_, _> = second.pots.iter().map(|p| (p.pot.as_str(), p)).collect();
        assert_ne!(
            by_name["spec__bump"].provenance,
            CacheProvenance::Cached,
            "edited POT re-verifies"
        );
        assert_eq!(
            by_name["spec__zero"].provenance,
            CacheProvenance::Cached,
            "untouched cone replays from the POT table"
        );
        handle.shutdown();
    }

    #[test]
    fn persistent_cache_survives_restart() {
        let dir = test_dir("daemon_restart");
        let req = VerifyRequest::for_source(SRC).with_label("r");
        {
            let handle = start(DaemonConfig::new().addr("127.0.0.1:0").cache_dir(&dir)).unwrap();
            let first = post_verify(&handle.addr_string(), &req);
            assert!(first.error.is_none());
            handle.shutdown();
        }
        {
            let handle = start(DaemonConfig::new().addr("127.0.0.1:0").cache_dir(&dir)).unwrap();
            let resp = post_verify(&handle.addr_string(), &req);
            for p in &resp.pots {
                assert_eq!(
                    p.provenance,
                    CacheProvenance::Cached,
                    "restarted daemon serves {} from disk",
                    p.pot
                );
            }
            handle.shutdown();
        }
    }

    #[test]
    fn config_digest_partitions_outcomes() {
        let dir = test_dir("daemon_cfg_partition");
        let handle = start(DaemonConfig::new().addr("127.0.0.1:0").cache_dir(&dir)).unwrap();
        let addr = handle.addr_string();

        let int_req = VerifyRequest::for_source(SRC).with_label("c");
        let first = post_verify(&addr, &int_req);
        assert!(first.error.is_none());

        // Same module under the bit-vector encoding: different config
        // digest, so nothing may come back `cached`.
        let bv_req = VerifyRequest::for_source(SRC)
            .with_label("c")
            .with_addr_mode("bv");
        let second = post_verify(&addr, &bv_req);
        assert!(second.error.is_none());
        assert_ne!(first.config_digest, second.config_digest);
        for p in &second.pots {
            assert_ne!(
                p.provenance,
                CacheProvenance::Cached,
                "{} must not hit across config digests",
                p.pot
            );
        }
        handle.shutdown();
    }

    #[test]
    fn status_and_errors() {
        let handle = start(DaemonConfig::new().addr("127.0.0.1:0")).unwrap();
        let addr = handle.addr_string();

        let (status, body) = http::get(&addr, "/v1/status").unwrap();
        assert_eq!(status, 200);
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("api").and_then(|x| x.as_str()), Some(API_VERSION));

        // Unknown endpoint.
        let (status, _) = http::get(&addr, "/v1/nope").unwrap();
        assert_eq!(status, 404);
        // Wrong method.
        let (status, _) = http::get(&addr, "/v1/verify").unwrap();
        assert_eq!(status, 405);
        // Malformed request body.
        let (status, body) = http::post(&addr, "/v1/verify", "{\"pots\":[]}").unwrap();
        assert_eq!(status, 200);
        let resp = VerifyResponse::from_json(&json::parse(&body).unwrap()).unwrap();
        assert!(resp.error.is_some());
        // Unknown target.
        let r = post_verify(&addr, &VerifyRequest::for_target("nonesuch"));
        assert!(r.error.is_some());
        // Unknown POT.
        let r = post_verify(
            &addr,
            &VerifyRequest::for_source(SRC).with_pots(["spec__nope"]),
        );
        assert!(r.error.is_some());
        // A non-scalar operand is a typed sema error, not a dropped
        // connection (the daemon compiles on the connection thread).
        let r = post_verify(
            &addr,
            &VerifyRequest::for_source("void f(void) {}\nint g(void) { return f() - 1; }\n"),
        );
        assert!(matches!(r.error, Some(TpotError::Sema(_))), "{:?}", r.error);
        handle.shutdown();
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let handle = start(DaemonConfig::new().addr("127.0.0.1:0")).unwrap();
        let addr = handle.addr_string();

        let mut threads = Vec::new();
        for _ in 0..4 {
            let addr = addr.clone();
            threads.push(std::thread::spawn(move || {
                let req = VerifyRequest::for_source(SRC);
                post_verify(&addr, &req)
            }));
        }
        for t in threads {
            let resp = t.join().unwrap();
            assert!(resp.error.is_none());
            assert_eq!(resp.pots.len(), 2);
            for p in &resp.pots {
                assert_eq!(p.status, PotStatusWire::Proved);
            }
        }
        handle.shutdown();
    }
}
