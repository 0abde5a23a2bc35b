//! The persistent query cache and the solve-session broker (paper §4.4).
//!
//! The paper's TPot *races* 15 differently-configured Z3 instances and takes
//! the earliest result, and persists query results on disk so CI re-runs
//! only pay for queries affected by a change. This crate keeps the cache
//! but runs one solver configuration whose incremental sessions survive
//! between queries: on this solver a race never won, and racing forfeits
//! the sessions (DESIGN.md §1 has the measurements). The one entry point,
//! [`Portfolio::check`], takes a query as `prefix ∧ extra` plus its
//! fingerprint and goes:
//!
//! 1. **Cache.** Unless the caller needs a model, the persistent query cache
//!    ([`tpot_proofcache::ProofCache`]) is probed. It keys Sat/Unsat
//!    outcomes by `(query fingerprint, config digest)`. The digest
//!    ([`solver_config_digest`], plus an engine-level salt installed through
//!    [`Portfolio::with_config_salt`]) folds every semantically relevant
//!    knob — inprocessing, restart schedule, conflict budgets, theory
//!    limits — so an outcome recorded under one solver configuration can
//!    never answer a query issued under a different one. The cache sits
//!    behind a `parking_lot::Mutex` so parallel POT verification shares one
//!    cache and every POT benefits from its siblings' hits; flushes are
//!    crash-safe (temp file + atomic rename) and merge with concurrent
//!    writers instead of overwriting them. Every Sat/Unsat answer a solver
//!    gives is stored back.
//! 2. **Session.** On a miss the portfolio solves through its
//!    [`SessionBroker`], on the calling thread. The broker keeps incremental
//!    [`SolveSession`]s keyed by path prefix, or drops each session after its
//!    query (the one-shot ablation, [`Portfolio::keep_sessions`]).
//!
//! The caller passes the fingerprint: the engine serializes every query
//! once, for Fig. 7 accounting, and the portfolio never serializes.

use std::sync::Arc;

use parking_lot::Mutex;
use tpot_sat::SolveStats;
use tpot_smt::{TermArena, TermId};
use tpot_solver::{SmtResult, SolveSession, SolverConfig, SolverError};

pub use tpot_proofcache::{fnv1a, mix, CachedOutcome, PotEntry, ProofCache};

/// Sessions a broker keeps between queries unless told otherwise.
const SESSION_CAP: usize = 8;

/// A shareable handle to a [`ProofCache`]. Parallel POT verification
/// clones one handle into every worker so POTs see each other's hits.
pub type SharedCache = Arc<Mutex<ProofCache>>;

/// Digest of a solver configuration's semantically relevant knobs.
///
/// Folds every knob that changes *which answers the solver can give* —
/// inprocessing, restart schedule, conflict and theory budgets — and
/// deliberately excludes the decision seed: it never affects a Sat/Unsat
/// verdict (an `Unknown` is never cached), so keying on it would only
/// fragment the cache.
pub fn solver_config_digest(cfg: &SolverConfig) -> u64 {
    let mut h = fnv1a(b"tpot-solver-config/v1");
    h = mix(h, cfg.sat.inprocess as u64);
    h = mix(h, cfg.sat.restart_base);
    h = mix(h, cfg.sat.conflict_limit.map_or(u64::MAX, |n| n));
    h = mix(h, cfg.sat.default_phase as u64);
    h = mix(h, cfg.lia.max_nodes);
    h = mix(h, cfg.max_theory_rounds);
    h
}

/// What a portfolio did since its owner last drained [`Portfolio::counts`]
/// (the engine does, with `std::mem::take`, at every attribution boundary,
/// and publishes the sums once per POT as `engine.cache_*` and
/// `solver.session.*`).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Queries answered straight from the persistent proof cache (no
    /// solver ran). The provenance layer reads this: a POT whose engine run
    /// had `cache_misses == 0` and `cache_hits > 0` was *replayed*.
    pub cache_hits: u64,
    /// Queries that missed the proof cache and went to a solver.
    pub cache_misses: u64,
    /// Queries served by a live session sharing a non-empty prefix.
    pub session_hits: u64,
    /// Queries that had to open a fresh session.
    pub session_misses: u64,
    /// Reused sessions retired on Unknown or error, whose query was then
    /// retried once in a fresh session.
    pub session_fallbacks: u64,
    /// Terms lowered to CNF by sessions (bit-blast cache misses). A fresh
    /// session re-lowers a query's whole cone; a reused one only what its
    /// prefix does not share.
    pub reblasted_terms: u64,
    /// SAT work of this portfolio's solver calls: each session's counter
    /// delta around its check, or a dropped session's whole total. The
    /// same deltas reach the process-wide `sat.*` registry.
    pub sat: SolveStats,
}

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
#[derive(Clone)]
pub struct SessionBroker {
    entries: Vec<SessionEntry>,
    clock: u64,
    cap: usize,
    /// Attribution of the most recent Unsat answer produced through this
    /// broker (`None` after Sat/Unknown/error). Callers read and clear it
    /// synchronously after a query.
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
        SessionBroker::new(SESSION_CAP)
    }
}

fn common_prefix_len(a: &[TermId], b: &[TermId]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

impl SessionBroker {
    /// Creates a broker that keeps at most `cap` sessions between queries.
    /// With `cap == 0` every query runs in a fresh, unscoped session that is
    /// dropped afterwards: the one-shot ablation.
    pub fn new(cap: usize) -> Self {
        SessionBroker {
            entries: Vec::new(),
            clock: 0,
            cap,
            last_unsat: None,
        }
    }

    /// Checks `prefix ∧ extra`, with `extra` passed as a transient
    /// assumption (the push → assume → check → pop shape branch feasibility
    /// wants, without the pop: the prefix scopes stay open for the next
    /// query).
    ///
    /// A session that answers Unknown or errors is retired. When it was a
    /// reused one, its learned state is suspect, so the query is retried
    /// once in a fresh session, which is dropped afterwards.
    pub fn check(
        &mut self,
        config: &SolverConfig,
        arena: &mut TermArena,
        prefix: &[TermId],
        extra: TermId,
        need_model: bool,
        counts: &mut Counts,
    ) -> Result<SmtResult, SolverError> {
        self.clock += 1;
        self.last_unsat = None;
        let mut best: Option<(usize, usize)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let lcp = common_prefix_len(&e.prefix, prefix);
            if best.is_none_or(|(_, b)| lcp > b) {
                best = Some((i, lcp));
            }
        }
        let (idx, lcp, reused) = match best {
            // Reuse only when something is actually shared; a zero-overlap
            // session would pay pops and GC for nothing.
            Some((i, l)) if l > 0 || prefix.is_empty() => {
                counts.session_hits += 1;
                (i, l, true)
            }
            _ => {
                counts.session_misses += 1;
                if self.cap == 0 {
                    return solve_once(config, arena, prefix, extra, need_model, counts);
                }
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
                (self.entries.len() - 1, 0, false)
            }
        };
        let entry = &mut self.entries[idx];
        entry.last_used = self.clock;
        let result = {
            let _span = tpot_obs::span_args(
                "solver",
                "session",
                &[
                    ("lcp", lcp.to_string()),
                    ("prefix", prefix.len().to_string()),
                ],
            );
            let before = entry.session.terms_blasted();
            let sat0 = entry.session.sat_stats();
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
            counts.reblasted_terms += entry.session.terms_blasted() - before;
            counts.sat.add(entry.session.sat_stats().delta(sat0));
            result
        };
        match result {
            Ok(SmtResult::Unknown) | Err(_) => {
                // Unknown may mean a wedged instance and an error a broken
                // one: either way the session's state is suspect.
                self.entries.swap_remove(idx);
                if !reused {
                    return result;
                }
                counts.session_fallbacks += 1;
                solve_once(config, arena, prefix, extra, need_model, counts)
            }
            ok => {
                let entry = &self.entries[idx];
                if let (Ok(SmtResult::Unsat), Some(attr)) = (&ok, &entry.session.last_unsat) {
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
                ok
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
}

/// Solves `prefix ∧ extra` in a fresh session that is dropped afterwards.
/// Nothing will pop the prefix, so it is asserted without scopes and the
/// solve pays for no activation literals.
fn solve_once(
    config: &SolverConfig,
    arena: &mut TermArena,
    prefix: &[TermId],
    extra: TermId,
    need_model: bool,
    counts: &mut Counts,
) -> Result<SmtResult, SolverError> {
    let _span = tpot_obs::span_args(
        "solver",
        "session",
        &[("lcp", "0".into()), ("prefix", prefix.len().to_string())],
    );
    let mut session = SolveSession::new(config.clone());
    let result = session
        .assert_many(arena, prefix)
        .and_then(|()| session.check_assuming(arena, &[extra], need_model));
    counts.reblasted_terms += session.terms_blasted();
    counts.sat.add(session.sat_stats());
    result
}

/// One solver configuration behind the persistent query cache.
pub struct Portfolio {
    config: SolverConfig,
    /// Optional persistent cache consulted before solving. Shared: parallel
    /// POT drivers hand every portfolio the same handle.
    pub cache: Option<SharedCache>,
    /// What this portfolio did since the last drain.
    pub counts: Counts,
    /// Solve sessions.
    pub sessions: SessionBroker,
    /// Cache key half: [`solver_config_digest`] of the configuration,
    /// optionally salted by the caller ([`Self::with_config_salt`]) with
    /// engine-level knobs the portfolio cannot see (address-mode encoding,
    /// incremental sessions). Every persistent-cache access is keyed
    /// `(query fingerprint, this digest)`.
    config_digest: u64,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio::new(SolverConfig::default())
    }
}

impl Portfolio {
    /// Builds a portfolio around one solver configuration.
    pub fn new(config: SolverConfig) -> Self {
        let config_digest = solver_config_digest(&config);
        Portfolio {
            config,
            cache: None,
            counts: Counts::default(),
            sessions: SessionBroker::default(),
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

    /// Attaches a private persistent cache.
    pub fn with_cache(self, cache: ProofCache) -> Self {
        self.with_shared_cache(Arc::new(Mutex::new(cache)))
    }

    /// Attaches a cache shared with other portfolios (parallel POT runs).
    pub fn with_shared_cache(mut self, cache: SharedCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Keeps solve sessions between queries (the default), or drops each
    /// session after its query (the one-shot ablation).
    pub fn keep_sessions(mut self, keep: bool) -> Self {
        self.sessions = SessionBroker::new(if keep { SESSION_CAP } else { 0 });
        self
    }

    /// Clones this portfolio for a stolen execution shard: same
    /// configuration, the *same* shared cache handle, and a deep clone of
    /// the live solve sessions (the prefix handoff), but zeroed counts —
    /// the thief's shard starts attribution at zero so per-shard stats sum
    /// correctly across the fleet.
    pub fn clone_for_shard(&self) -> Self {
        let mut sessions = self.sessions.clone();
        sessions.last_unsat = None;
        Portfolio {
            config: self.config.clone(),
            cache: self.cache.clone(),
            counts: Counts::default(),
            sessions,
            config_digest: self.config_digest,
        }
    }

    /// Checks `prefix ∧ extra`, where `fp` is the fingerprint of the whole
    /// query's SMT-LIB text. `need_model = false` allows answering Sat/Unsat
    /// straight from the cache.
    ///
    /// A miss solves through the session broker (see the crate docs). All
    /// sessions operate directly on `arena`; callers must pass the same
    /// arena for the lifetime of this portfolio (the engine does: one arena
    /// and one portfolio per shard).
    pub fn check(
        &mut self,
        arena: &mut TermArena,
        prefix: &[TermId],
        extra: TermId,
        need_model: bool,
        fp: u64,
    ) -> Result<SmtResult, SolverError> {
        if let (false, Some(cache)) = (need_model, &self.cache) {
            let hit = cache.lock().get_query(fp, self.config_digest);
            match hit {
                Some(CachedOutcome::Sat) => {
                    self.counts.cache_hits += 1;
                    return Ok(SmtResult::Sat(tpot_smt::Model::new()));
                }
                Some(CachedOutcome::Unsat) => {
                    self.counts.cache_hits += 1;
                    return Ok(SmtResult::Unsat);
                }
                None => self.counts.cache_misses += 1,
            }
        }
        let result = self.sessions.check(
            &self.config,
            arena,
            prefix,
            extra,
            need_model,
            &mut self.counts,
        );
        let outcome = match &result {
            Ok(SmtResult::Sat(_)) => Some(CachedOutcome::Sat),
            Ok(SmtResult::Unsat) => Some(CachedOutcome::Unsat),
            _ => None,
        };
        if let (Some(outcome), Some(cache)) = (outcome, &self.cache) {
            cache.lock().put_query(fp, self.config_digest, outcome);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_smt::print::{query_fingerprint, to_smtlib};
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
    /// hard for CDCL — a reliable "slow query" for conflict budgets.
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

    /// Checks the conjunction `q` the way the engine does: the last
    /// assertion is the extra term, the rest the prefix.
    fn check(
        p: &mut Portfolio,
        a: &mut TermArena,
        q: &[TermId],
        need_model: bool,
    ) -> Result<SmtResult, SolverError> {
        let fp = query_fingerprint(&to_smtlib(a, q));
        let (&extra, prefix) = q.split_last().expect("non-empty query");
        p.check(a, prefix, extra, need_model, fp)
    }

    #[test]
    fn cache_avoids_resolving() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let mut p = Portfolio::default().with_cache(ProofCache::in_memory());
        assert!(check(&mut p, &mut a, &q, false).unwrap().is_unsat());
        assert!(check(&mut p, &mut a, &q, false).unwrap().is_unsat());
        assert_eq!(p.counts.cache_misses, 1, "second query must hit the cache");
        assert_eq!(p.counts.cache_hits, 1);
        assert_eq!(p.counts.session_hits + p.counts.session_misses, 1);
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
        let mut p1 = Portfolio::default().with_shared_cache(cache.clone());
        assert!(check(&mut p1, &mut a, &q, false).unwrap().is_unsat());
        assert_eq!(p1.counts.cache_misses, 1);

        let mut inproc_off = SolverConfig::default();
        inproc_off.sat.inprocess = !inproc_off.sat.inprocess;
        let mut p2 = Portfolio::new(inproc_off).with_shared_cache(cache.clone());
        assert_ne!(p1.config_digest(), p2.config_digest());
        assert!(check(&mut p2, &mut a, &q, false).unwrap().is_unsat());
        assert_eq!(p2.counts.cache_hits, 0, "different digest must miss");
        assert_eq!(p2.counts.cache_misses, 1, "and therefore re-solve");

        // An engine-level salt splits otherwise-identical portfolios too.
        let mut p3 = Portfolio::default()
            .with_config_salt(0xabcd)
            .with_shared_cache(cache.clone());
        assert!(check(&mut p3, &mut a, &q, false).unwrap().is_unsat());
        assert_eq!(p3.counts.cache_hits, 0);

        // Same config as p1: clean hit.
        let mut p4 = Portfolio::default().with_shared_cache(cache);
        assert!(check(&mut p4, &mut a, &q, false).unwrap().is_unsat());
        assert_eq!(p4.counts.cache_hits, 1);
        assert!(p4.counts.sat.is_zero(), "a cache hit runs no solver");
    }

    #[test]
    fn seed_diversity_shares_cache_entries() {
        // The completeness half: a seed cannot change a verdict, so
        // differently-seeded configurations must share entries rather than
        // fragment the cache.
        let base = SolverConfig::default();
        let mut reseeded = base.clone();
        reseeded.sat.seed = 12345;
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
        let mut p = Portfolio::default().with_cache(ProofCache::in_memory());
        assert!(check(&mut p, &mut a, &q, false).unwrap().is_sat());
        // Need a model: must re-solve even though the outcome is cached.
        match check(&mut p, &mut a, &q, true).unwrap() {
            SmtResult::Sat(m) => assert!(m.var("x").is_some()),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.counts.cache_hits + p.counts.cache_misses, 1);
        assert_eq!(p.counts.session_hits + p.counts.session_misses, 2);
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
        let mut p = Portfolio::default();
        // Growing path prefix, like branch feasibility along one path.
        let q1 = a.int_le(x, c10);
        assert!(check(&mut p, &mut a, &[p0, q1], false).unwrap().is_sat());
        let c20 = a.int_const(20);
        let q2 = a.int_le(c20, sum); // x + y >= 20 contradicts p2
        assert!(check(&mut p, &mut a, &[p0, p1, p2, q2], false)
            .unwrap()
            .is_unsat());
        // Same prefix again: pure session hit, nothing re-blasted.
        let before = p.counts.reblasted_terms;
        let q3 = a.int_le(c0, sum);
        assert!(check(&mut p, &mut a, &[p0, p1, p2, q3], false)
            .unwrap()
            .is_sat());
        assert!(p.counts.session_hits >= 2);
        assert_eq!(p.sessions.len(), 1, "one path, one session");
        let delta = p.counts.reblasted_terms - before;
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
        let mut p = Portfolio::default();
        // Branch A then sibling branch B: the broker pops A, pushes B.
        assert!(check(&mut p, &mut a, &[p0, br_a, t], false)
            .unwrap()
            .is_sat());
        assert!(check(&mut p, &mut a, &[p0, br_b, t], false)
            .unwrap()
            .is_sat());
        assert_eq!(p.sessions.len(), 1, "sibling branches share one session");
        // Contradictory sibling is still answered correctly after the pop.
        let ne = a.neq(x, c3);
        assert!(check(&mut p, &mut a, &[p0, br_b, ne], false)
            .unwrap()
            .is_unsat());
    }

    #[test]
    fn kept_and_dropped_sessions_agree() {
        // The same queries through kept and one-shot sessions must agree
        // (spot check; the fuzzer's incremental-vs-oneshot mode does this
        // at scale).
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
        let cases = [vec![disj, eq3], vec![disj, eq7], vec![disj]];
        let mut kept = Portfolio::default();
        let mut dropped = Portfolio::default().keep_sessions(false);
        for q in cases {
            let r_kept = check(&mut kept, &mut a, &q, true).unwrap();
            let r = check(&mut dropped, &mut a, &q, true).unwrap();
            assert_eq!(r.is_sat(), r_kept.is_sat(), "disagree on {q:?}");
            assert_eq!(r.is_unsat(), r_kept.is_unsat());
        }
    }

    #[test]
    fn oneshot_drops_every_session() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let p0 = a.bv_ult(c1, x);
        let t = a.tru();
        let eq1 = a.eq(x, c1);
        let mut p = Portfolio::default().keep_sessions(false);
        assert!(check(&mut p, &mut a, &[p0, t], false).unwrap().is_sat());
        assert!(check(&mut p, &mut a, &[p0, eq1], false).unwrap().is_unsat());
        assert!(p.sessions.is_empty(), "no session outlives its query");
        assert_eq!(p.counts.session_hits, 0);
        assert_eq!(p.counts.session_misses, 2);
        assert!(p.counts.reblasted_terms > 0, "each fresh session blasts");
    }

    #[test]
    fn reused_session_unknown_retries_in_a_fresh_session() {
        // A conflict budget far too small for php(7,6) makes every session
        // answer Unknown. The reused session is retired, the retry runs in
        // a fresh one, and neither survives the query.
        let mut a = TermArena::new();
        let t = a.tru();
        let hard = pigeonhole(&mut a, 6);
        let hard = a.and(&hard);
        let mut cfg = SolverConfig::default();
        cfg.sat.conflict_limit = Some(5);
        let mut p = Portfolio::new(cfg);
        let b = a.var("b", Sort::Bool);
        assert!(check(&mut p, &mut a, &[b, t], false).unwrap().is_sat());
        assert_eq!(p.sessions.len(), 1);
        let r = check(&mut p, &mut a, &[b, hard], false).unwrap();
        assert!(matches!(r, SmtResult::Unknown), "{r:?}");
        assert_eq!(p.counts.session_hits, 1);
        assert_eq!(p.counts.session_fallbacks, 1);
        assert!(p.sessions.is_empty());
        // One SAT solve each: the first query, the retired session's
        // attempt and the fresh retry.
        assert_eq!(p.counts.sat.solves, 3);
    }

    #[test]
    fn kept_and_dropped_sessions_share_cache_entries() {
        let mut a = TermArena::new();
        let q = simple_query(&mut a, false);
        let cache: SharedCache = Arc::new(Mutex::new(ProofCache::in_memory()));
        let mut oneshot = Portfolio::default()
            .keep_sessions(false)
            .with_shared_cache(cache.clone());
        assert!(check(&mut oneshot, &mut a, &q, false).unwrap().is_unsat());
        // The one-shot outcome answers the session portfolio without ever
        // opening a session.
        let mut p = Portfolio::default().with_shared_cache(cache);
        assert!(check(&mut p, &mut a, &q, false).unwrap().is_unsat());
        assert!(p.sessions.is_empty());
        assert_eq!(p.counts.cache_hits, 1);
        assert_eq!(p.counts.session_hits + p.counts.session_misses, 0);
    }

    #[test]
    fn counts_see_kept_and_dropped_session_work() {
        // A bitvector query takes exactly one SAT solve (no theory
        // rounds), so the counts must show one solve per query: a kept
        // session's work is counted as its delta, never its running total.
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let p0 = a.bv_ult(c1, x);
        let t = a.tru();
        let eq1 = a.eq(x, c1);
        let c2 = a.bv_const(8, 2);
        let eq2 = a.eq(x, c2);
        let queries = [[p0, t], [p0, eq1], [p0, eq2]];
        let mut kept = Portfolio::default();
        let mut dropped = Portfolio::default().keep_sessions(false);
        for (n, q) in (1..).zip(&queries) {
            for p in [&mut kept, &mut dropped] {
                check(p, &mut a, q, false).unwrap();
                assert_eq!(p.counts.sat.solves, n, "after query {n}");
            }
        }
        assert_eq!(kept.counts.session_hits, 2, "one session served all");
        assert_eq!(dropped.counts.session_misses, 3);
    }

    #[test]
    fn shard_clone_starts_counts_at_zero() {
        // Bitvector queries: one SAT solve each (see above).
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let p0 = a.bv_ult(c1, x);
        let t = a.tru();
        let mut parent = Portfolio::default();
        assert!(check(&mut parent, &mut a, &[p0, t], false)
            .unwrap()
            .is_sat());
        assert_eq!(parent.counts.sat.solves, 1);
        let mut child = parent.clone_for_shard();
        assert!(child.counts.sat.is_zero(), "thief starts at zero");
        // The inherited session's new work is the child's alone.
        let c5 = a.bv_const(8, 5);
        let eq5 = a.eq(x, c5);
        assert!(check(&mut child, &mut a, &[p0, eq5], false)
            .unwrap()
            .is_sat());
        assert_eq!(child.counts.session_hits, 1, "the inherited session");
        assert_eq!(child.counts.sat.solves, 1, "only the child's own solve");
        assert_eq!(parent.counts.sat.solves, 1, "nothing leaks to the parent");
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
        let mut p = Portfolio::default();
        assert!(check(&mut p, &mut a, &[y1, br, ne], false)
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
        assert!(check(&mut p, &mut a, &[y1, br, t], false).unwrap().is_sat());
        assert!(p.sessions.last_unsat.is_none());
    }

    #[test]
    fn broker_evicts_least_recently_used() {
        let mut a = TermArena::new();
        let mut broker = SessionBroker::new(2);
        let mut counts = Counts::default();
        let cfg = SolverConfig::default();
        let t = a.tru();
        let mut prefixes = Vec::new();
        for i in 0..3 {
            let v = a.var(&format!("b{i}"), Sort::Bool);
            prefixes.push(vec![v]);
        }
        for pfx in &prefixes {
            let r = broker
                .check(&cfg, &mut a, pfx, t, false, &mut counts)
                .unwrap();
            assert!(r.is_sat());
        }
        assert_eq!(broker.len(), 2, "cap must hold");
        assert_eq!(counts.session_misses, 3, "disjoint prefixes never hit");
    }
}
