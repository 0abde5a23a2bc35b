//! Solver portfolio racing and the persistent query cache (paper §4.4).
//!
//! The paper's TPot *races* 15 differently-configured Z3 instances and takes
//! the earliest result, and persists query results on disk so CI re-runs
//! only pay for queries affected by a change. This crate reproduces both,
//! with an engine-level performance pipeline the seed lacked:
//!
//! - **Cone-of-influence slicing**: instead of cloning the full (monotonically
//!   growing) term arena per racing instance, [`Portfolio::check`] ships each
//!   instance a [`TermArena::slice`] containing only the terms reachable from
//!   the assertions. Late queries in a POT run no longer pay
//!   O(all terms ever created × instances) of setup.
//! - **Persistent worker pool**: racing instances run on the long-lived
//!   [`WorkerPool`] (shared process-wide by default) instead of freshly
//!   spawned OS threads; losers observe a shared cancel flag — skipped
//!   outright if still queued, aborted at the next conflict-poll if running.
//! - [`Portfolio::check_validated`] runs *all* instances (concurrently, on
//!   the pool) and checks they agree — the a-posteriori validation the paper
//!   recommends because "a solver portfolio is more often wrong than an
//!   individual solver" (§4.4). A Sat model is re-evaluated against the
//!   original assertions.
//! - The persistent query cache ([`tpot_proofcache::ProofCache`]) keys
//!   Sat/Unsat outcomes by `(query fingerprint, solver-config digest)`. The
//!   digest ([`solver_config_digest`], plus an engine-level salt installed
//!   through [`Portfolio::with_config_salt`]) folds every semantically
//!   relevant knob — inprocessing, clause-DB tiering, conflict budgets,
//!   theory limits — so an outcome recorded under one solver configuration
//!   can never answer a query issued under a different one. The cache sits
//!   behind a `parking_lot::Mutex` so parallel POT verification shares one
//!   cache and every POT benefits from its siblings' hits; flushes are
//!   crash-safe (temp file + atomic rename) and merge with concurrent
//!   writers instead of overwriting them.
//!
//! Serialization happens exactly once per solver call: the engine serializes
//! for accounting, fingerprints the text, and passes the fingerprint to
//! [`Portfolio::check_fingerprinted`] — the portfolio itself never
//! re-serializes (its `stats.serializations` counter stays 0 on that path).

mod pool;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tpot_sat::{SatSink, SolveStats};
use tpot_smt::print::{query_fingerprint, to_smtlib};
use tpot_smt::{eval, TermArena, TermId, Value};
use tpot_solver::{SmtResult, SolveSession, SolverError};

use tpot_obs::metrics::LazyCounter;

pub use pool::{Job, Reply, WorkerPool};
pub use tpot_proofcache::{fnv1a, mix, CachedOutcome, PotEntry, ProofCache};

static CACHE_HITS: LazyCounter = LazyCounter::new("portfolio.cache.hits");
static CACHE_MISSES: LazyCounter = LazyCounter::new("portfolio.cache.misses");
static RACES: LazyCounter = LazyCounter::new("portfolio.races");
static SESSION_HITS: LazyCounter = LazyCounter::new("solver.session.hit");
static SESSION_MISSES: LazyCounter = LazyCounter::new("solver.session.miss");
static SESSION_REBLASTED: LazyCounter = LazyCounter::new("solver.session.reblasted_terms");

/// A shareable handle to a [`ProofCache`]. Parallel POT verification
/// clones one handle into every worker so POTs see each other's hits.
pub type SharedCache = Arc<Mutex<ProofCache>>;

/// Digest of one instance's semantically relevant configuration.
///
/// Folds every knob that changes *which answers the solver can give* —
/// inprocessing, clause-DB tiering, restart schedule, conflict and theory
/// budgets, LIA branching — and deliberately excludes
/// pure identity/diversification state: seeds, names, sinks and cancel
/// flags never affect a Sat/Unsat verdict (an `Unknown` is never cached),
/// so keying on them would only fragment the cache across portfolio
/// members and CI runs.
pub fn solver_config_digest(cfg: &tpot_solver::SolverConfig) -> u64 {
    let mut h = fnv1a(b"tpot-solver-config/v1");
    h = mix(h, cfg.sat.inprocess as u64);
    h = mix(h, cfg.sat.lbd_core as u64);
    h = mix(h, cfg.sat.lbd_mid as u64);
    h = mix(h, cfg.sat.restart_base);
    h = mix(h, cfg.sat.conflict_limit.map_or(u64::MAX, |n| n));
    h = mix(h, cfg.sat.default_phase as u64);
    h = mix(h, cfg.lia.max_nodes);
    h = mix(h, cfg.lia.branch_lowest_index as u64);
    h = mix(h, cfg.max_theory_rounds);
    h
}

/// Digest of a whole portfolio: the instance digests folded in order.
pub fn portfolio_config_digest(configs: &[tpot_solver::SolverConfig]) -> u64 {
    let mut h = fnv1a(b"tpot-portfolio-config/v1");
    h = mix(h, configs.len() as u64);
    for cfg in configs {
        h = mix(h, solver_config_digest(cfg));
    }
    h
}

/// Portfolio statistics.
#[derive(Clone, Debug, Default)]
pub struct PortfolioStats {
    /// Total queries issued (after the cache).
    pub queries: u64,
    /// Wins per configuration name.
    pub wins: HashMap<String, u64>,
    /// SMT-LIB serializations performed *inside* the portfolio. Stays 0 when
    /// callers pass a fingerprint (the engine's single-serialization path).
    pub serializations: u64,
    /// Terms in the caller's full arena, summed over solver-bound queries.
    pub terms_total: u64,
    /// Terms actually shipped to solvers (cone-of-influence slices).
    pub terms_shipped: u64,
    /// Approximate bytes of the caller's full arena, summed over queries.
    pub bytes_total: u64,
    /// Approximate bytes shipped per query after slicing.
    pub bytes_shipped: u64,
    /// Time jobs spent waiting in the worker-pool queue (summed over
    /// observed replies).
    pub queue_wait: Duration,
    /// Queries answered straight from the persistent proof cache (no
    /// solver ran). The provenance layer reads this: a POT whose engine run
    /// had `cache_misses == 0` and `cache_hits > 0` was *replayed*.
    pub cache_hits: u64,
    /// Queries that missed the proof cache and went to a solver.
    pub cache_misses: u64,
}

/// Broker statistics (see the `solver.session.*` metrics for the
/// process-wide view).
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionBrokerStats {
    /// Queries served by a session sharing a non-empty prefix.
    pub hits: u64,
    /// Queries that had to open a fresh session.
    pub misses: u64,
    /// Terms lowered to CNF across all session queries (cache misses in the
    /// bit-blaster). One-shot solving re-lowers a query's full cone every
    /// time; the ratio of this counter to the one-shot equivalent is the
    /// headline reuse number.
    pub reblasted_terms: u64,
    /// Session queries that fell back to one-shot solving (Unknown result,
    /// cancellation, or solver error).
    pub fallbacks: u64,
}

/// Keeps a small LRU set of [`SolveSession`]s keyed by their asserted
/// path-condition prefix.
///
/// Consecutive queries along one symbolic-execution path share a growing
/// assertion prefix; the broker routes each query to the live session with
/// the longest common prefix, pops the session down to the shared part, and
/// pushes only what is new — so the solver re-lowers (and re-learns) only
/// the delta. All sessions operate directly on the caller's term arena;
/// a broker must therefore only ever see queries from **one** arena (the
/// engine satisfies this structurally: one arena, one `QueryCtx`, one
/// portfolio per shard). `Clone` duplicates every live session — the
/// longest-common-prefix handoff when a stolen path migrates to another
/// worker: the clone must only ever be used with an arena that *extends*
/// the original broker's arena (the shard clone taken at steal time
/// satisfies this: arenas are append-only, so every `TermId` in a session
/// prefix stays valid in the extended arena).
/// Proof-effort attribution of the most recent Unsat session answer, with
/// the session's scope indices resolved back to the caller's path terms.
/// The engine maps these `TermId`s to provenance tags (POT premise, memory
/// axiom, path literal, …) for the per-POT blame report.
#[derive(Clone, Debug, Default)]
pub struct BrokerUnsat {
    /// Prefix terms whose activation literals are in the assumption core —
    /// certified participants in the contradiction.
    pub core_prefix: Vec<TermId>,
    /// Whether the query term itself is in the core.
    pub core_extra: bool,
    /// Conflict-participation count per prefix term (all zeros unless
    /// blame tracking is on).
    pub prefix_hits: Vec<(TermId, u64)>,
}

#[derive(Clone)]
pub struct SessionBroker {
    entries: Vec<SessionEntry>,
    clock: u64,
    cap: usize,
    /// Counters.
    pub stats: SessionBrokerStats,
    /// Attribution of the most recent Unsat answer produced through this
    /// broker (`None` after Sat/Unknown/fallback). Callers read and clear
    /// it synchronously after a query.
    pub last_unsat: Option<BrokerUnsat>,
}

#[derive(Clone)]
struct SessionEntry {
    session: SolveSession,
    /// Path terms currently asserted, one scope per term.
    prefix: Vec<TermId>,
    last_used: u64,
}

impl Default for SessionBroker {
    fn default() -> Self {
        SessionBroker::new(8)
    }
}

fn common_prefix_len(a: &[TermId], b: &[TermId]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

impl SessionBroker {
    /// Creates a broker holding at most `cap` live sessions.
    pub fn new(cap: usize) -> Self {
        SessionBroker {
            entries: Vec::new(),
            clock: 0,
            cap: cap.max(1),
            stats: SessionBrokerStats::default(),
            last_unsat: None,
        }
    }

    /// Re-points every live session's SAT instance at `sink`. Called on
    /// shard splits so a cloned broker's inherited sessions report their
    /// future work to the new shard, not the parent's sink.
    pub fn set_sink(&mut self, sink: Option<std::sync::Arc<SatSink>>) {
        for e in &mut self.entries {
            e.session.set_sink(sink.clone());
        }
    }

    /// Checks `prefix ∧ extra`, with `extra` passed as a transient
    /// assumption (the push → assume → check → pop shape branch feasibility
    /// wants, without the pop: the prefix scopes stay open for the next
    /// query).
    ///
    /// Returns `None` when the session answered `Unknown` or errored — the
    /// session is retired and the caller should fall back to one-shot
    /// solving.
    pub fn check(
        &mut self,
        config: &tpot_solver::SolverConfig,
        arena: &mut TermArena,
        prefix: &[TermId],
        extra: TermId,
        need_model: bool,
    ) -> Option<Result<SmtResult, SolverError>> {
        self.clock += 1;
        self.last_unsat = None;
        let mut best: Option<(usize, usize)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let lcp = common_prefix_len(&e.prefix, prefix);
            if best.is_none_or(|(_, b)| lcp > b) {
                best = Some((i, lcp));
            }
        }
        let (idx, lcp) = match best {
            // Reuse only when something is actually shared; a zero-overlap
            // session would pay pops and GC for nothing.
            Some((i, l)) if l > 0 || prefix.is_empty() => {
                self.stats.hits += 1;
                SESSION_HITS.add(1);
                (i, l)
            }
            _ => {
                self.stats.misses += 1;
                SESSION_MISSES.add(1);
                if self.entries.len() >= self.cap {
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("cap >= 1");
                    self.entries.swap_remove(lru);
                }
                self.entries.push(SessionEntry {
                    session: SolveSession::new(config.clone()),
                    prefix: Vec::new(),
                    last_used: self.clock,
                });
                (self.entries.len() - 1, 0)
            }
        };
        let _span = tpot_obs::span_args(
            "solver",
            "session",
            &[
                ("lcp", lcp.to_string()),
                ("prefix", prefix.len().to_string()),
            ],
        );
        let entry = &mut self.entries[idx];
        entry.last_used = self.clock;
        let before = entry.session.terms_blasted();
        let result = (|| {
            while entry.prefix.len() > lcp {
                entry.session.pop();
                entry.prefix.pop();
            }
            for &t in &prefix[lcp..] {
                entry.session.push();
                entry.session.assert(arena, t)?;
                entry.prefix.push(t);
            }
            entry.session.check_assuming(arena, &[extra], need_model)
        })();
        let delta = entry.session.terms_blasted() - before;
        self.stats.reblasted_terms += delta;
        SESSION_REBLASTED.add(delta);
        match result {
            Ok(SmtResult::Unknown) | Err(_) => {
                // Unknown may mean cancellation or a wedged instance; either
                // way the session's learned state is suspect value — retire
                // it and let the caller run one-shot.
                self.entries.swap_remove(idx);
                self.stats.fallbacks += 1;
                None
            }
            ok => {
                if matches!(ok, Ok(SmtResult::Unsat)) {
                    let entry = &self.entries[idx];
                    if let Some(attr) = &entry.session.last_unsat {
                        // Scope i guards prefix term i by construction (one
                        // push per prefix term, in order).
                        self.last_unsat = Some(BrokerUnsat {
                            core_prefix: attr
                                .core_scopes
                                .iter()
                                .filter_map(|&i| entry.prefix.get(i).copied())
                                .collect(),
                            core_extra: attr.core_extra,
                            prefix_hits: entry
                                .prefix
                                .iter()
                                .copied()
                                .zip(attr.scope_hits.iter().copied())
                                .collect(),
                        });
                    }
                }
                Some(ok)
            }
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Terms lowered to CNF across all live sessions' lifetimes. After a
    /// handoff clone this is the inherited blasting work the thief did
    /// *not* have to repeat; the scheduler reads it as the denominator of
    /// the handoff re-blast ratio.
    pub fn total_terms_blasted(&self) -> u64 {
        self.entries.iter().map(|e| e.session.terms_blasted()).sum()
    }

    /// Zeroes the per-broker counters (sessions keep their state). Shard
    /// clones call this so inherited counts are not double-attributed.
    pub fn reset_stats(&mut self) {
        self.stats = SessionBrokerStats::default();
    }
}

/// A racing portfolio of SMT solver instances.
pub struct Portfolio {
    configs: Vec<tpot_solver::SolverConfig>,
    /// Optional persistent cache consulted before racing. Shared: parallel
    /// POT drivers hand every portfolio the same handle.
    pub cache: Option<SharedCache>,
    /// Statistics.
    pub stats: PortfolioStats,
    /// Incremental solve sessions, used by [`Portfolio::check_incremental`]
    /// when the portfolio has exactly one configuration.
    pub sessions: SessionBroker,
    /// Attribution sink: every SAT solve this portfolio causes — through a
    /// session, a one-shot check, or a racing pool worker (the job's config
    /// carries the handle) — adds its exact counter delta here. One sink
    /// per execution shard makes per-POT/per-path attribution exact: the
    /// sum over all sinks equals the process-wide `sat.*` counter delta.
    sink: Arc<SatSink>,
    pool: Arc<WorkerPool>,
    /// Cache key half: [`portfolio_config_digest`] of the instance configs,
    /// optionally salted by the caller ([`Self::with_config_salt`]) with
    /// engine-level knobs the portfolio cannot see (address-mode encoding,
    /// incremental sessions). Every persistent-cache access is keyed
    /// `(query fingerprint, this digest)`.
    config_digest: u64,
}

impl Portfolio {
    /// Builds a portfolio from explicit configurations.
    pub fn new(mut configs: Vec<tpot_solver::SolverConfig>) -> Self {
        assert!(!configs.is_empty(), "portfolio needs at least one instance");
        let sink = Arc::new(SatSink::default());
        for cfg in &mut configs {
            cfg.sat.sink = Some(sink.clone());
        }
        let config_digest = portfolio_config_digest(&configs);
        Portfolio {
            configs,
            cache: None,
            stats: PortfolioStats::default(),
            sessions: SessionBroker::default(),
            sink,
            pool: WorkerPool::global(),
            config_digest,
        }
    }

    /// Mixes a caller-level salt into the cache-key digest. The engine
    /// passes a digest of the knobs *it* controls (address-mode encoding —
    /// which changes what the same TIR means as SMT — plus session mode),
    /// so cache entries can never cross an engine-configuration boundary
    /// either.
    pub fn with_config_salt(mut self, salt: u64) -> Self {
        self.config_digest = mix(self.config_digest, salt);
        self
    }

    /// The `(fingerprint, digest)` key half this portfolio caches under.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Cumulative SAT counters attributed to this portfolio's shard so far.
    /// Exact for sessions and one-shot checks; a raced loser cancelled
    /// after the final read reports late (the delta still lands here, so
    /// nothing is lost process-wide — it is attributed on the next read).
    pub fn sat_totals(&self) -> SolveStats {
        self.sink.load()
    }

    /// The default portfolio of `n` diversified instances.
    pub fn with_instances(n: usize) -> Self {
        Self::new(tpot_solver::SolverConfig::portfolio(n))
    }

    /// A single-instance "portfolio" (ablation baseline).
    pub fn single() -> Self {
        Self::new(vec![tpot_solver::SolverConfig::default()])
    }

    /// Attaches a private persistent cache.
    pub fn with_cache(self, cache: ProofCache) -> Self {
        self.with_shared_cache(Arc::new(Mutex::new(cache)))
    }

    /// Attaches a cache shared with other portfolios (parallel POT runs).
    pub fn with_shared_cache(mut self, cache: SharedCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Runs this portfolio's instances on a specific pool instead of the
    /// process-wide one (deterministic scheduling in tests).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Number of configured instances.
    pub fn num_instances(&self) -> usize {
        self.configs.len()
    }

    /// Clones this portfolio for a stolen execution shard: same
    /// configurations, the *same* shared cache handle and worker pool, and
    /// a deep clone of the live solve sessions (the prefix handoff), but
    /// fresh counters — the thief's shard starts attribution at zero so
    /// per-shard stats sum correctly across the fleet.
    pub fn clone_for_shard(&self) -> Self {
        let mut sessions = self.sessions.clone();
        sessions.reset_stats();
        sessions.last_unsat = None;
        // A fresh attribution sink, installed both into the configs (future
        // sessions, one-shots, raced jobs) and into the inherited session
        // clones — the thief's work must land in the thief's sink.
        let sink = Arc::new(SatSink::default());
        sessions.set_sink(Some(sink.clone()));
        let mut configs = self.configs.clone();
        for cfg in &mut configs {
            cfg.sat.sink = Some(sink.clone());
        }
        Portfolio {
            configs,
            cache: self.cache.clone(),
            stats: PortfolioStats::default(),
            sessions,
            sink,
            pool: Arc::clone(&self.pool),
            config_digest: self.config_digest,
        }
    }

    /// Checks satisfiability, racing all instances; the earliest definitive
    /// answer wins. `need_model = false` allows answering Sat/Unsat straight
    /// from the cache.
    ///
    /// This convenience entry serializes the query to compute its cache
    /// fingerprint; callers that already serialized (the engine does, for
    /// Fig. 7 accounting) should call [`Portfolio::check_fingerprinted`]
    /// (Self::check_fingerprinted) to avoid double serialization.
    pub fn check(
        &mut self,
        arena: &TermArena,
        assertions: &[TermId],
        need_model: bool,
    ) -> Result<SmtResult, SolverError> {
        self.stats.serializations += 1;
        let fp = query_fingerprint(&to_smtlib(arena, assertions));
        self.check_fingerprinted(arena, assertions, need_model, fp)
    }

    /// [`check`](Self::check) with a caller-computed query fingerprint — the
    /// single-serialization fast path.
    pub fn check_fingerprinted(
        &mut self,
        arena: &TermArena,
        assertions: &[TermId],
        need_model: bool,
        fp: u64,
    ) -> Result<SmtResult, SolverError> {
        if !need_model {
            if let Some(cache) = &self.cache {
                let hit = cache.lock().get_query(fp, self.config_digest);
                match hit {
                    Some(CachedOutcome::Sat) => {
                        CACHE_HITS.add(1);
                        self.stats.cache_hits += 1;
                        return Ok(SmtResult::Sat(tpot_smt::Model::new()));
                    }
                    Some(CachedOutcome::Unsat) => {
                        CACHE_HITS.add(1);
                        self.stats.cache_hits += 1;
                        return Ok(SmtResult::Unsat);
                    }
                    None => {
                        CACHE_MISSES.add(1);
                        self.stats.cache_misses += 1;
                    }
                }
            }
        }
        self.stats.queries += 1;
        let (sliced, roots) = arena.slice(assertions);
        self.stats.terms_total += arena.len() as u64;
        self.stats.terms_shipped += sliced.len() as u64;
        self.stats.bytes_total += arena.approx_bytes() as u64;
        self.stats.bytes_shipped += sliced.approx_bytes() as u64;
        let result = if self.configs.len() == 1 {
            // No race: solve on the slice directly, no clone at all.
            let mut local = sliced;
            tpot_solver::SmtSolver::new(self.configs[0].clone()).check(&mut local, &roots)?
        } else {
            self.race(&sliced, &roots)?
        };
        if let Some(cache) = &self.cache {
            match &result {
                SmtResult::Sat(_) => {
                    cache
                        .lock()
                        .put_query(fp, self.config_digest, CachedOutcome::Sat)
                }
                SmtResult::Unsat => {
                    cache
                        .lock()
                        .put_query(fp, self.config_digest, CachedOutcome::Unsat)
                }
                SmtResult::Unknown => {}
            }
        }
        Ok(result)
    }

    /// Checks `prefix ∧ extra` through an incremental [`SolveSession`],
    /// falling back to the one-shot [`Portfolio::check_fingerprinted`]
    /// (Self::check_fingerprinted) path when sessions don't apply.
    ///
    /// The session path engages only for single-configuration portfolios —
    /// racing instances each keep private learned state, and a race's
    /// cancellation would poison a long-lived session — and only after the
    /// persistent cache misses (`fp` is the fingerprint of the full
    /// `prefix ∧ extra` query, identical to the one-shot path's, so cache
    /// entries are shared between both paths). Fallback triggers on session
    /// `Unknown` (resource limits or cancellation) and on solver errors.
    ///
    /// All sessions operate directly on `arena`; callers must pass the same
    /// arena for the lifetime of this portfolio (the engine does: one arena
    /// and one portfolio per POT).
    pub fn check_incremental(
        &mut self,
        arena: &mut TermArena,
        prefix: &[TermId],
        extra: TermId,
        need_model: bool,
        fp: u64,
    ) -> Result<SmtResult, SolverError> {
        let one_shot = |p: &mut Self, arena: &mut TermArena| {
            let mut q: Vec<TermId> = prefix.to_vec();
            q.push(extra);
            p.check_fingerprinted(arena, &q, need_model, fp)
        };
        if self.configs.len() != 1 {
            return one_shot(self, arena);
        }
        if !need_model {
            if let Some(cache) = &self.cache {
                let hit = cache.lock().get_query(fp, self.config_digest);
                match hit {
                    Some(CachedOutcome::Sat) => {
                        CACHE_HITS.add(1);
                        self.stats.cache_hits += 1;
                        return Ok(SmtResult::Sat(tpot_smt::Model::new()));
                    }
                    Some(CachedOutcome::Unsat) => {
                        CACHE_HITS.add(1);
                        self.stats.cache_hits += 1;
                        return Ok(SmtResult::Unsat);
                    }
                    None => {
                        CACHE_MISSES.add(1);
                        self.stats.cache_misses += 1;
                    }
                }
            }
        }
        let session_result =
            self.sessions
                .check(&self.configs[0], arena, prefix, extra, need_model);
        let Some(result) = session_result else {
            return one_shot(self, arena);
        };
        let result = result?;
        self.stats.queries += 1;
        if let Some(cache) = &self.cache {
            match &result {
                SmtResult::Sat(_) => {
                    cache
                        .lock()
                        .put_query(fp, self.config_digest, CachedOutcome::Sat)
                }
                SmtResult::Unsat => {
                    cache
                        .lock()
                        .put_query(fp, self.config_digest, CachedOutcome::Unsat)
                }
                SmtResult::Unknown => {}
            }
        }
        Ok(result)
    }

    /// Submits one job per configuration to the worker pool, each with its
    /// own clone of the (small) slice and a shared cancel flag.
    fn submit_all(
        &self,
        sliced: &TermArena,
        roots: &[TermId],
        cancel: &Arc<AtomicBool>,
    ) -> crossbeam::channel::Receiver<Reply> {
        let (tx, rx) = crossbeam::channel::unbounded::<Reply>();
        for cfg in &self.configs {
            let mut cfg = cfg.clone();
            cfg.sat.cancel = Some(cancel.clone());
            self.pool.submit(Job {
                cfg,
                arena: sliced.clone(),
                assertions: roots.to_vec(),
                cancel: cancel.clone(),
                reply: tx.clone(),
                enqueued: Instant::now(),
            });
        }
        rx
    }

    fn race(&mut self, sliced: &TermArena, roots: &[TermId]) -> Result<SmtResult, SolverError> {
        RACES.add(1);
        let _span = tpot_obs::span_args(
            "portfolio",
            "race",
            &[("instances", self.configs.len().to_string())],
        );
        let cancel = Arc::new(AtomicBool::new(false));
        let rx = self.submit_all(sliced, roots, &cancel);
        let mut last: Option<Result<SmtResult, SolverError>> = None;
        for _ in 0..self.configs.len() {
            let Ok(reply) = rx.recv() else { break };
            self.stats.queue_wait += reply.queue_wait;
            match &reply.result {
                Ok(SmtResult::Sat(_)) | Ok(SmtResult::Unsat) => {
                    cancel.store(true, Ordering::Relaxed);
                    if tpot_obs::tracing_enabled() {
                        tpot_obs::instant("portfolio", "win", &[("instance", reply.name.clone())]);
                    }
                    *self.stats.wins.entry(reply.name).or_insert(0) += 1;
                    return reply.result;
                }
                _ => last = Some(reply.result),
            }
        }
        // Nothing definitive: losers were all Unknown or errors.
        last.unwrap_or(Ok(SmtResult::Unknown))
    }

    /// Runs *all* instances to completion (concurrently, on the pool) and
    /// checks agreement, validating any model against the assertions (the
    /// paper's recommended CI validation job, §4.4).
    pub fn check_validated(
        &mut self,
        arena: &TermArena,
        assertions: &[TermId],
    ) -> Result<SmtResult, SolverError> {
        let (sliced, roots) = arena.slice(assertions);
        // Never set: validation wants every instance to finish.
        let cancel = Arc::new(AtomicBool::new(false));
        let rx = self.submit_all(&sliced, &roots, &cancel);
        let mut results: Vec<SmtResult> = Vec::new();
        for _ in 0..self.configs.len() {
            let Ok(reply) = rx.recv() else { break };
            self.stats.queue_wait += reply.queue_wait;
            results.push(reply.result?);
        }
        let mut saw_sat: Option<SmtResult> = None;
        let mut saw_unsat = false;
        for r in results {
            match r {
                SmtResult::Sat(m) => {
                    // Validate the model by concrete evaluation against the
                    // *original* arena and assertions (slicing keeps variable
                    // names and FuncIds stable, so the model transfers).
                    for &t in assertions {
                        let v = eval(arena, &m, t)
                            .map_err(|e| SolverError::Unsupported(format!("{e:?}")))?;
                        if v != Value::Bool(true) {
                            return Err(SolverError::Unsupported(
                                "model validation failed: solver bug detected".into(),
                            ));
                        }
                    }
                    saw_sat = Some(SmtResult::Sat(m));
                }
                SmtResult::Unsat => saw_unsat = true,
                SmtResult::Unknown => {}
            }
        }
        match (saw_sat, saw_unsat) {
            (Some(_), true) => Err(SolverError::Unsupported(
                "portfolio disagreement: solver bug detected".into(),
            )),
            (Some(s), false) => Ok(s),
            (None, true) => Ok(SmtResult::Unsat),
            (None, false) => Ok(SmtResult::Unknown),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_smt::Sort;

    fn simple_query(arena: &mut TermArena, sat: bool) -> Vec<TermId> {
        let x = arena.var("x", Sort::BitVec(8));
        let c = arena.bv_const(8, 5);
        let eq = arena.eq(x, c);
        if sat {
            vec![eq]
        } else {
            let ne = arena.neq(x, c);
            vec![eq, ne]
        }
    }

    /// Pigeonhole principle php(holes+1, holes): unsat, and exponentially
    /// hard for CDCL — a reliable "slow query" for cancellation tests.
    fn pigeonhole(arena: &mut TermArena, holes: usize) -> Vec<TermId> {
        let pigeons = holes + 1;
        let p: Vec<Vec<TermId>> = (0..pigeons)
            .map(|i| {
                (0..holes)
                    .map(|j| arena.var(&format!("p_{i}_{j}"), Sort::Bool))
                    .collect()
            })
            .collect();
        let mut asserts = Vec::new();
        for row in &p {
            asserts.push(arena.or(row));
        }
        for i in 0..pigeons {
            for k in (i + 1)..pigeons {
                let pairs: Vec<(TermId, TermId)> =
                    p[i].iter().copied().zip(p[k].iter().copied()).collect();
                for (a, b) in pairs {
                    let both = arena.and(&[a, b]);
                    asserts.push(arena.not(both));
                }
            }
        }
        asserts
    }

    #[test]
    fn race_returns_first_answer() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, true);
        let mut p = Portfolio::with_instances(4);
        match p.check(&a, &q, true).unwrap() {
            SmtResult::Sat(m) => {
                assert_eq!(m.var("x"), Some(&Value::BitVec(8, 5)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(p.stats.queries, 1);
        assert_eq!(p.stats.wins.values().sum::<u64>(), 1);
    }

    #[test]
    fn race_unsat() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let mut p = Portfolio::with_instances(3);
        assert!(p.check(&a, &q, false).unwrap().is_unsat());
    }

    #[test]
    fn validated_agreement() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, true);
        let mut p = Portfolio::with_instances(3);
        assert!(p.check_validated(&a, &q).unwrap().is_sat());
    }

    #[test]
    fn cache_avoids_resolving() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let mut p = Portfolio::single().with_cache(ProofCache::in_memory());
        assert!(p.check(&a, &q, false).unwrap().is_unsat());
        assert_eq!(p.stats.queries, 1);
        assert!(p.check(&a, &q, false).unwrap().is_unsat());
        assert_eq!(p.stats.queries, 1, "second query must hit the cache");
        assert_eq!(p.stats.cache_hits, 1);
        assert_eq!(p.cache.as_ref().unwrap().lock().stats().hits, 1);
    }

    #[test]
    fn cache_entries_do_not_cross_config_digests() {
        // The soundness half of the persistent cache: an outcome recorded
        // under one solver configuration must be invisible to a portfolio
        // running a different one, even for a byte-identical query.
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let cache: SharedCache = Arc::new(Mutex::new(ProofCache::in_memory()));
        let mut p1 = Portfolio::single().with_shared_cache(cache.clone());
        assert!(p1.check(&a, &q, false).unwrap().is_unsat());
        assert_eq!(p1.stats.cache_misses, 1);

        let mut inproc_off = tpot_solver::SolverConfig::default();
        inproc_off.sat.inprocess = !inproc_off.sat.inprocess;
        let mut p2 = Portfolio::new(vec![inproc_off]).with_shared_cache(cache.clone());
        assert_ne!(p1.config_digest(), p2.config_digest());
        assert!(p2.check(&a, &q, false).unwrap().is_unsat());
        assert_eq!(p2.stats.cache_hits, 0, "different digest must miss");
        assert_eq!(p2.stats.queries, 1, "and therefore re-solve");

        // An engine-level salt splits otherwise-identical portfolios too.
        let mut p3 = Portfolio::single()
            .with_config_salt(0xabcd)
            .with_shared_cache(cache.clone());
        assert!(p3.check(&a, &q, false).unwrap().is_unsat());
        assert_eq!(p3.stats.cache_hits, 0);

        // Same config as p1: clean hit.
        let mut p4 = Portfolio::single().with_shared_cache(cache);
        assert!(p4.check(&a, &q, false).unwrap().is_unsat());
        assert_eq!(p4.stats.cache_hits, 1);
        assert_eq!(p4.stats.queries, 0);
    }

    #[test]
    fn seed_diversity_shares_cache_entries() {
        // The completeness half: seeds (and names) are pure
        // diversification, so differently-seeded instances must share
        // entries rather than fragment the cache.
        let base = tpot_solver::SolverConfig::default();
        let mut reseeded = base.clone();
        reseeded.sat = reseeded.sat.with_seed(12345);
        reseeded.name = "reseeded".into();
        assert_eq!(solver_config_digest(&base), solver_config_digest(&reseeded));
        let mut inproc_off = base.clone();
        inproc_off.sat.inprocess = !inproc_off.sat.inprocess;
        assert_ne!(
            solver_config_digest(&base),
            solver_config_digest(&inproc_off)
        );
    }

    #[test]
    fn model_needed_bypasses_cache() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, true);
        let mut p = Portfolio::single().with_cache(ProofCache::in_memory());
        assert!(p.check(&a, &q, false).unwrap().is_sat());
        // Need a model: must re-solve even though the outcome is cached.
        match p.check(&a, &q, true).unwrap() {
            SmtResult::Sat(m) => assert!(m.var("x").is_some()),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.stats.queries, 2);
    }

    #[test]
    fn slicing_ships_fewer_terms() {
        let mut a = TermArena::new();
        // Junk terms outside the assertion cone: simulates the engine's
        // monotonically growing arena.
        for i in 0..100 {
            let v = a.var(&format!("junk{i}"), Sort::BitVec(32));
            let c = a.bv_const(32, i);
            a.eq(v, c);
        }
        let q = simple_query(&mut a, true);
        let mut p = Portfolio::with_instances(3);
        assert!(p.check(&a, &q, false).unwrap().is_sat());
        assert_eq!(p.stats.terms_total, a.len() as u64);
        assert!(
            p.stats.terms_shipped < p.stats.terms_total / 10,
            "slice should drop the junk cone: shipped {} of {}",
            p.stats.terms_shipped,
            p.stats.terms_total
        );
        assert!(p.stats.bytes_shipped < p.stats.bytes_total);
    }

    #[test]
    fn fingerprinted_path_never_serializes() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let fp = query_fingerprint(&to_smtlib(&a, &q));
        let mut p = Portfolio::single();
        assert!(p.check_fingerprinted(&a, &q, false, fp).unwrap().is_unsat());
        assert_eq!(
            p.stats.serializations, 0,
            "the fingerprinted path must not re-serialize the query"
        );
        assert_eq!(p.stats.queries, 1);
    }

    #[test]
    fn incremental_reuses_sessions_along_a_path() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let y = a.var("iy", Sort::Int);
        let c0 = a.int_const(0);
        let c10 = a.int_const(10);
        let sum = a.int_add2(x, y);
        let p0 = a.int_le(c0, x); // x >= 0
        let p1 = a.int_le(c0, y); // y >= 0
        let p2 = a.int_le(sum, c10); // x + y <= 10
        let mut p = Portfolio::single();
        // Growing path prefix, like branch feasibility along one path.
        let q1 = a.int_le(x, c10);
        let fp1 = query_fingerprint(&to_smtlib(&a, &[p0, q1]));
        assert!(p
            .check_incremental(&mut a, &[p0], q1, false, fp1)
            .unwrap()
            .is_sat());
        let c20 = a.int_const(20);
        let q2 = a.int_le(c20, sum); // x + y >= 20 contradicts p2
        let fp2 = query_fingerprint(&to_smtlib(&a, &[p0, p1, p2, q2]));
        assert!(p
            .check_incremental(&mut a, &[p0, p1, p2], q2, false, fp2)
            .unwrap()
            .is_unsat());
        // Same prefix again: pure session hit, nothing re-blasted.
        let before = p.sessions.stats.reblasted_terms;
        let q3 = a.int_le(c0, sum);
        let fp3 = query_fingerprint(&to_smtlib(&a, &[p0, p1, p2, q3]));
        assert!(p
            .check_incremental(&mut a, &[p0, p1, p2], q3, false, fp3)
            .unwrap()
            .is_sat());
        assert!(p.sessions.stats.hits >= 2);
        assert_eq!(p.sessions.len(), 1, "one path, one session");
        let delta = p.sessions.stats.reblasted_terms - before;
        assert!(
            delta <= 3,
            "repeat prefix must not re-blast (delta {delta})"
        );
    }

    #[test]
    fn incremental_pops_to_shared_prefix() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let c2 = a.bv_const(8, 2);
        let c3 = a.bv_const(8, 3);
        let p0 = a.bv_ult(c1, x); // x > 1
        let br_a = a.eq(x, c2);
        let br_b = a.eq(x, c3);
        let t = a.tru();
        let mut p = Portfolio::single();
        let fp = |a: &TermArena, q: &[TermId]| query_fingerprint(&to_smtlib(a, q));
        // Branch A then sibling branch B: the broker pops A, pushes B.
        let f1 = fp(&a, &[p0, br_a, t]);
        assert!(p
            .check_incremental(&mut a, &[p0, br_a], t, false, f1)
            .unwrap()
            .is_sat());
        let f2 = fp(&a, &[p0, br_b, t]);
        assert!(p
            .check_incremental(&mut a, &[p0, br_b], t, false, f2)
            .unwrap()
            .is_sat());
        assert_eq!(p.sessions.len(), 1, "sibling branches share one session");
        // Contradictory sibling is still answered correctly after the pop.
        let ne = a.neq(x, c3);
        let f3 = fp(&a, &[p0, br_b, ne]);
        assert!(p
            .check_incremental(&mut a, &[p0, br_b], ne, false, f3)
            .unwrap()
            .is_unsat());
    }

    #[test]
    fn incremental_matches_oneshot_outcomes() {
        // The same queries through sessions and through plain check must
        // agree (spot check; the fuzzer's incremental-vs-oneshot mode does
        // this at scale).
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let c0 = a.int_const(0);
        let c5 = a.int_const(5);
        let le = a.int_le(x, c0);
        let ge = a.int_le(c5, x);
        let disj = a.or2(le, ge);
        let c3 = a.int_const(3);
        let eq3 = a.eq(x, c3);
        let c7 = a.int_const(7);
        let eq7 = a.eq(x, c7);
        let cases: Vec<(Vec<TermId>, TermId)> =
            vec![(vec![disj], eq3), (vec![disj], eq7), (vec![], disj)];
        let mut inc = Portfolio::single();
        for (prefix, extra) in cases {
            let mut full = prefix.clone();
            full.push(extra);
            let fp = query_fingerprint(&to_smtlib(&a, &full));
            let r_inc = inc
                .check_incremental(&mut a, &prefix, extra, true, fp)
                .unwrap();
            let r_one = Portfolio::single().check(&a, &full, true).unwrap();
            assert_eq!(
                r_inc.is_sat(),
                r_one.is_sat(),
                "session/one-shot disagree on {full:?}"
            );
            assert_eq!(r_inc.is_unsat(), r_one.is_unsat());
        }
    }

    #[test]
    fn incremental_racing_portfolio_falls_back_to_oneshot() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let (prefix, extra) = (&q[..1], q[1]);
        let fp = query_fingerprint(&to_smtlib(&a, &q));
        let mut p = Portfolio::with_instances(3);
        assert!(p
            .check_incremental(&mut a, prefix, extra, false, fp)
            .unwrap()
            .is_unsat());
        assert!(
            p.sessions.is_empty(),
            "racing portfolios must not open sessions"
        );
        assert_eq!(p.stats.queries, 1);
    }

    #[test]
    fn incremental_shares_cache_with_oneshot() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let fp = query_fingerprint(&to_smtlib(&a, &q));
        let mut p = Portfolio::single().with_cache(ProofCache::in_memory());
        assert!(p.check_fingerprinted(&a, &q, false, fp).unwrap().is_unsat());
        // The cached one-shot outcome answers the incremental call without
        // ever opening a session.
        assert!(p
            .check_incremental(&mut a, &q[..1], q[1], false, fp)
            .unwrap()
            .is_unsat());
        assert!(p.sessions.is_empty());
        assert_eq!(p.stats.queries, 1);
        assert_eq!(p.stats.cache_hits, 1);
    }

    #[test]
    fn sink_sees_oneshot_incremental_and_raced_work() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        // One-shot single instance.
        let mut p = Portfolio::single();
        assert!(p.check(&a, &q, false).unwrap().is_unsat());
        let t1 = p.sat_totals();
        assert!(t1.solves >= 1, "one-shot solve must be attributed: {t1:?}");
        // Incremental session on the same portfolio adds to the same sink.
        let t = a.tru();
        let fp = query_fingerprint(&to_smtlib(&a, &[q[0], t]));
        assert!(p
            .check_incremental(&mut a, &q[..1], t, false, fp)
            .unwrap()
            .is_sat());
        assert!(p.sat_totals().solves > t1.solves);
        // Raced instances report through the job configs' shared handle.
        let mut r = Portfolio::with_instances(3);
        assert!(r.check(&a, &q, false).unwrap().is_unsat());
        assert!(r.sat_totals().solves >= 1);
    }

    #[test]
    fn shard_clone_gets_a_fresh_sink() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let c0 = a.int_const(0);
        let p0 = a.int_le(c0, x);
        let t = a.tru();
        let mut parent = Portfolio::single();
        let fp = query_fingerprint(&to_smtlib(&a, &[p0, t]));
        assert!(parent
            .check_incremental(&mut a, &[p0], t, false, fp)
            .unwrap()
            .is_sat());
        let parent_before = parent.sat_totals();
        assert!(parent_before.solves >= 1);
        let mut child = parent.clone_for_shard();
        assert!(child.sat_totals().is_zero(), "thief starts at zero");
        // The inherited session clone reports to the child's sink now.
        let c5 = a.int_const(5);
        let ge5 = a.int_le(c5, x);
        let fp2 = query_fingerprint(&to_smtlib(&a, &[p0, ge5]));
        assert!(child
            .check_incremental(&mut a, &[p0], ge5, false, fp2)
            .unwrap()
            .is_sat());
        assert!(child.sat_totals().solves >= 1);
        assert_eq!(
            parent.sat_totals().solves,
            parent_before.solves,
            "child work must not leak into the parent's sink"
        );
    }

    #[test]
    fn incremental_unsat_records_broker_attribution() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let c3 = a.bv_const(8, 3);
        let y1 = a.eq(y, c1); // irrelevant prefix term
        let br = a.eq(x, c3);
        let ne = a.neq(x, c3);
        let mut p = Portfolio::single();
        let fp = query_fingerprint(&to_smtlib(&a, &[y1, br, ne]));
        assert!(p
            .check_incremental(&mut a, &[y1, br], ne, false, fp)
            .unwrap()
            .is_unsat());
        let attr = p.sessions.last_unsat.clone().expect("unsat sets blame");
        assert!(
            attr.core_prefix.contains(&br),
            "x = 3 must be in the core: {attr:?}"
        );
        assert!(
            !attr.core_prefix.contains(&y1),
            "irrelevant y prefix must not be blamed: {attr:?}"
        );
        assert!(attr.core_extra, "the query term is half the contradiction");
        assert_eq!(attr.prefix_hits.len(), 2);
        // A Sat query clears the stash.
        let t = a.tru();
        let fp2 = query_fingerprint(&to_smtlib(&a, &[y1, br, t]));
        assert!(p
            .check_incremental(&mut a, &[y1, br], t, false, fp2)
            .unwrap()
            .is_sat());
        assert!(p.sessions.last_unsat.is_none());
    }

    #[test]
    fn broker_evicts_least_recently_used() {
        let mut a = TermArena::new();
        let mut broker = SessionBroker::new(2);
        let cfg = tpot_solver::SolverConfig::default();
        let t = a.tru();
        let mut prefixes = Vec::new();
        for i in 0..3 {
            let v = a.var(&format!("b{i}"), Sort::Bool);
            prefixes.push(vec![v]);
        }
        for pfx in &prefixes {
            let r = broker.check(&cfg, &mut a, pfx, t, false).unwrap().unwrap();
            assert!(r.is_sat());
        }
        assert_eq!(broker.len(), 2, "cap must hold");
        assert_eq!(broker.stats.misses, 3, "disjoint prefixes never hit");
    }

    #[test]
    fn pool_skips_jobs_cancelled_while_queued() {
        let pool = WorkerPool::new(1);
        let cancel = Arc::new(AtomicBool::new(true)); // already settled
        let (tx, rx) = crossbeam::channel::unbounded::<Reply>();
        let mut arena = TermArena::new();
        let q = simple_query(&mut arena, true);
        for _ in 0..4 {
            pool.submit(Job {
                cfg: tpot_solver::SolverConfig::default(),
                arena: arena.clone(),
                assertions: q.clone(),
                cancel: cancel.clone(),
                reply: tx.clone(),
                enqueued: Instant::now(),
            });
        }
        for _ in 0..4 {
            let reply = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("cancelled job must still reply");
            assert!(reply.cancelled);
            assert!(matches!(reply.result, Ok(SmtResult::Unknown)));
        }
        assert_eq!(pool.cancelled_jobs(), 4);
    }

    #[test]
    fn cancel_aborts_running_solver_promptly() {
        // One worker, four hard pigeonhole jobs sharing a cancel flag. The
        // worker starts job 1; we set the flag while it runs. The solver's
        // conflict-poll aborts it and the remaining jobs are skipped at
        // dequeue — so the total wall clock stays far below the time four
        // uncancelled php(10,9) solves would take.
        let pool = WorkerPool::new(1);
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = crossbeam::channel::unbounded::<Reply>();
        let mut arena = TermArena::new();
        let q = pigeonhole(&mut arena, 9);
        for _ in 0..4 {
            let mut cfg = tpot_solver::SolverConfig::default();
            cfg.sat.cancel = Some(cancel.clone());
            pool.submit(Job {
                cfg,
                arena: arena.clone(),
                assertions: q.clone(),
                cancel: cancel.clone(),
                reply: tx.clone(),
                enqueued: Instant::now(),
            });
        }
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(100));
        cancel.store(true, Ordering::Relaxed);
        let mut unknowns = 0;
        for _ in 0..4 {
            let reply = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("cancelled race must drain all replies");
            match reply.result {
                Ok(SmtResult::Unknown) => unknowns += 1,
                Ok(SmtResult::Unsat) => {} // solved before the flag flipped
                other => panic!("unexpected reply: {other:?}"),
            }
        }
        assert!(unknowns >= 3, "queued losers must be skipped, not solved");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "cancellation failed to bound race wall-clock: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn race_winner_cancels_queued_losers() {
        // Eight instances race a ~300ms query on two workers. When the
        // winner returns, at most one other job is mid-solve (it aborts at
        // the next conflict poll); the rest are still queued and must be
        // skipped at dequeue, not solved. Without cancellation the race
        // would serialize all eight solves over two workers.
        let pool = WorkerPool::new(2);
        let mut a = TermArena::new();
        let q = pigeonhole(&mut a, 8);
        let mut p = Portfolio::with_instances(8).with_pool(pool.clone());
        let start = Instant::now();
        assert!(p.check(&a, &q, false).unwrap().is_unsat());
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "race wall-clock not bounded: {:?}",
            start.elapsed()
        );
        // The worker threads drain the queue after `check` returns; wait for
        // the skipped losers to be counted.
        let deadline = Instant::now() + Duration::from_secs(30);
        while pool.cancelled_jobs() < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            pool.cancelled_jobs() >= 4,
            "queued losers must be skipped without solving (got {})",
            pool.cancelled_jobs()
        );
    }
}
