//! The engine's interface to the solver portfolio.
//!
//! Wraps [`Portfolio`] with: path-condition assembly, purpose-tagged timing
//! (Figure 7), explicit serialization accounting (the paper's portfolio
//! transport cost), and the feasibility/validity/model entry points the
//! interpreter uses.

use std::time::Instant;

use tpot_portfolio::Portfolio;
use tpot_smt::print::{query_fingerprint, to_smtlib};
use tpot_smt::{Model, TermArena, TermId};
use tpot_solver::{SmtResult, SolverError};

use tpot_obs::metrics::LazyHistogram;

use crate::prov::{BlameAcc, BlameEntry, ProvKind};
use crate::state::PathCond;
use crate::stats::{QueryPurpose, Stats};

/// End-to-end solver-call latency (µs), across every purpose.
static QUERY_US: LazyHistogram = LazyHistogram::new("engine.query_us");

/// Errors surfaced by the engine.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The solver failed or returned Unknown where a definitive answer was
    /// required.
    Solver(String),
    /// The program used an unsupported construct.
    Unsupported(String),
    /// Internal invariant violation.
    Internal(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Solver(m) => write!(f, "solver: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SolverError> for EngineError {
    fn from(e: SolverError) -> Self {
        EngineError::Solver(e.to_string())
    }
}

/// Purpose-tagged query context.
pub struct QueryCtx {
    /// The underlying portfolio.
    pub portfolio: Portfolio,
    /// Accumulated statistics.
    pub stats: Stats,
    /// Set by [`Self::clone_for_shard`] to the inherited sessions' blasted
    /// term total: the next check is the first query after a session
    /// handoff, and its re-blast delta over this baseline is the
    /// per-migration handoff cost (`sched.handoff_*` counters). `None`
    /// when no handoff is pending; `Some(0)` (nothing inherited — e.g. a
    /// migrated root) records no handoff.
    handoff_inherited: Option<u64>,
    /// Proof-effort blame enabled (`TPOT_BLAME`): provenance tags are
    /// stored and Unsat answers feed assumption cores + participation
    /// counts into `blame`. Off by default — tagging and feedback are
    /// no-ops with zero overhead.
    blame_on: bool,
    /// Per-shard blame accumulator (tags + per-term effort counts).
    blame: BlameAcc,
}

impl QueryCtx {
    /// Wraps a portfolio.
    pub fn new(portfolio: Portfolio) -> Self {
        QueryCtx {
            portfolio,
            stats: Stats::default(),
            handoff_inherited: None,
            blame_on: tpot_obs::config().blame.unwrap_or(false),
            blame: BlameAcc::default(),
        }
    }

    /// Clones this context for a stolen execution shard: shared persistent
    /// cache, deep-cloned solve sessions (the longest-common-prefix
    /// handoff), fresh counters. The clone's first check reports its
    /// re-blast delta as handoff cost.
    pub fn clone_for_shard(&self) -> Self {
        let portfolio = self.portfolio.clone_for_shard();
        let inherited = portfolio.sessions.total_terms_blasted();
        QueryCtx {
            portfolio,
            stats: Stats::default(),
            handoff_inherited: Some(inherited),
            blame_on: self.blame_on,
            blame: self.blame.clone_tags(),
        }
    }

    fn run(
        &mut self,
        arena: &mut TermArena,
        assertions: &[TermId],
        purpose: QueryPurpose,
        need_model: bool,
    ) -> Result<SmtResult, EngineError> {
        // Serialization happens exactly once per solver call: the text both
        // pays the Fig. 7 "Serialization" bucket and yields the cache
        // fingerprint handed to the portfolio, which therefore never
        // re-serializes. The same text is what the slow-query watchdog
        // dumps, so watchdog registration costs one Arc, never a re-print.
        let t0 = Instant::now();
        let text = std::sync::Arc::new(to_smtlib(arena, assertions));
        let fp = query_fingerprint(&text);
        self.stats.serialization_time += t0.elapsed();
        self.stats.num_serializations += 1;
        let _span = tpot_obs::span_args(
            "solver",
            "query",
            &[
                ("purpose", purpose.name().to_string()),
                ("fingerprint", format!("{fp:016x}")),
                ("asserts", assertions.len().to_string()),
            ],
        );
        let _watch = tpot_obs::watchdog::register(fp, text);
        let t1 = Instant::now();
        // The query arrives as `path-prefix ∧ extra`: the prefix is shared
        // with sibling queries along the same execution path, so a kept
        // session pops to the common prefix and re-blasts only the new
        // terms.
        let (&extra, prefix) = assertions.split_last().expect("a query asserts something");
        let handoff = self.handoff_inherited.take();
        let reblast0 = self.portfolio.counts.reblasted_terms;
        let r = self.portfolio.check(arena, prefix, extra, need_model, fp)?;
        if let Some(inherited) = handoff.filter(|&n| n > 0) {
            // First query after a session handoff: the re-blast delta is
            // what migration cost on top of the inherited sessions, whose
            // blasted-prefix size is the baseline a from-scratch session
            // would have re-paid in full. A migration that inherited empty
            // sessions (e.g. a stolen root) has no handoff to measure.
            let delta = self.portfolio.counts.reblasted_terms - reblast0;
            tpot_obs::metrics::counter("sched.handoff_reblast_terms").add(delta);
            tpot_obs::metrics::counter("sched.handoff_baseline_terms").add(inherited);
            tpot_obs::metrics::counter("sched.handoffs_measured").inc();
        }
        if self.blame_on {
            // An Unsat through the session broker carries the assumption
            // core mapped back to asserted prefix terms, plus per-term
            // conflict-participation deltas — fold them into the blame
            // accumulator under their provenance tags.
            if let Some(u) = self.portfolio.sessions.last_unsat.take() {
                self.blame.record_unsat(&u.core_prefix, &u.prefix_hits);
            }
        }
        let elapsed = t1.elapsed();
        self.stats.add_query_time(purpose, elapsed);
        QUERY_US.observe(elapsed.as_micros() as u64);
        Ok(r)
    }

    /// True when proof-effort blame (`TPOT_BLAME`) is on. Callers use this
    /// to skip building site strings for tags that would be dropped.
    pub fn blame_enabled(&self) -> bool {
        self.blame_on
    }

    /// Tags `t` with its assumption provenance for proof-effort blame.
    /// No-op (and allocation-free) unless `TPOT_BLAME` is on.
    pub fn tag_assumption(&mut self, t: TermId, kind: ProvKind, site: Option<String>) {
        if self.blame_on {
            self.blame.tag(t, kind, site);
        }
    }

    /// Drains the blame effort recorded since the last drain (provenance
    /// tags are kept). Empty unless `TPOT_BLAME` is on and some query
    /// answered Unsat through the session broker.
    pub fn take_blame(&mut self) -> Vec<BlameEntry> {
        self.blame.take_entries()
    }

    /// Drains the stats accumulated since the previous `take_stats` call,
    /// with the portfolio's counts folded in. Summing every record a shard
    /// ever hands out gives its whole run — this is how the path scheduler
    /// attributes one shard's work to the interleaved POTs it served.
    pub fn take_stats(&mut self) -> Stats {
        let mut s = std::mem::take(&mut self.stats);
        let c = std::mem::take(&mut self.portfolio.counts);
        s.cache_hits = c.cache_hits;
        s.cache_misses = c.cache_misses;
        s.session_hits = c.session_hits;
        s.session_misses = c.session_misses;
        s.session_fallbacks = c.session_fallbacks;
        s.session_reblasted_terms = c.reblasted_terms;
        s.add_sat_delta(c.sat);
        s
    }

    /// Is `path ∧ extra` satisfiable?
    ///
    /// The path condition arrives as the engine's fork-shared [`PathCond`];
    /// it is materialized into a contiguous assertion list exactly once,
    /// here (the pre-COW code paid the same copy per query).
    pub fn is_feasible(
        &mut self,
        arena: &mut TermArena,
        path: &PathCond,
        extra: TermId,
        purpose: QueryPurpose,
    ) -> Result<bool, EngineError> {
        // Constant fast path.
        if let Some(b) = arena.term(extra).as_bool_const() {
            if !b {
                return Ok(false);
            }
            if path.is_empty() {
                return Ok(true);
            }
        }
        let mut q: Vec<TermId> = path.to_vec();
        q.push(extra);
        match self.run(arena, &q, purpose, false)? {
            SmtResult::Sat(_) => Ok(true),
            SmtResult::Unsat => Ok(false),
            SmtResult::Unknown => Err(EngineError::Solver(
                "solver returned unknown on feasibility query".into(),
            )),
        }
    }

    /// Does `path` entail `cond`? (valid iff `path ∧ ¬cond` is unsat).
    pub fn is_valid(
        &mut self,
        arena: &mut TermArena,
        path: &PathCond,
        cond: TermId,
        purpose: QueryPurpose,
    ) -> Result<bool, EngineError> {
        if arena.term(cond).as_bool_const() == Some(true) {
            return Ok(true);
        }
        let neg = arena.not(cond);
        Ok(!self.is_feasible(arena, path, neg, purpose)?)
    }

    /// A model of `path ∧ extra` (for counterexamples), if satisfiable.
    pub fn model(
        &mut self,
        arena: &mut TermArena,
        path: &PathCond,
        extra: TermId,
        purpose: QueryPurpose,
    ) -> Result<Option<Model>, EngineError> {
        let mut q: Vec<TermId> = path.to_vec();
        q.push(extra);
        match self.run(arena, &q, purpose, true)? {
            SmtResult::Sat(m) => Ok(Some(m)),
            SmtResult::Unsat => Ok(None),
            SmtResult::Unknown => Err(EngineError::Solver(
                "solver returned unknown on model query".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_smt::Sort;

    #[test]
    fn feasible_and_valid() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int_const(0);
        let pos = a.int_lt(zero, x);
        let mut q = QueryCtx::new(Portfolio::single());
        let empty = PathCond::new();
        let on_pos = PathCond::from(vec![pos]);
        assert!(q
            .is_feasible(&mut a, &empty, pos, QueryPurpose::Branches)
            .unwrap());
        // path: x > 0 entails x >= 0.
        let ge = a.int_le(zero, x);
        assert!(q
            .is_valid(&mut a, &on_pos, ge, QueryPurpose::Assertions)
            .unwrap());
        // but not x > 1.
        let one = a.int_const(1);
        let gt1 = a.int_lt(one, x);
        assert!(!q
            .is_valid(&mut a, &on_pos, gt1, QueryPurpose::Assertions)
            .unwrap());
        assert!(q.stats.num_queries >= 3);
        assert!(q.stats.serialization_time.as_nanos() > 0);
    }

    #[test]
    fn each_query_serialized_exactly_once() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int_const(0);
        let pos = a.int_lt(zero, x);
        let mut q = QueryCtx::new(Portfolio::with_instances(3));
        assert!(q
            .is_feasible(&mut a, &PathCond::new(), pos, QueryPurpose::Branches)
            .unwrap());
        let ge = a.int_le(zero, x);
        assert!(q
            .is_valid(
                &mut a,
                &PathCond::from(vec![pos]),
                ge,
                QueryPurpose::Assertions
            )
            .unwrap());
        // The engine serializes once per query and hands the portfolio the
        // fingerprint.
        let s = q.take_stats();
        assert_eq!(s.num_serializations, s.num_queries);
        assert_eq!(s.branch_queries, 1);
        assert_eq!(s.assertion_queries, 1);
        assert!(s.sat_solves >= 2, "raced work reaches the drained stats");
    }

    #[test]
    fn sessions_answer_path_queries() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let zero = a.int_const(0);
        let one = a.int_const(1);
        let pos = a.int_lt(zero, x);
        let mut q = QueryCtx::new(Portfolio::single());
        let on_pos = PathCond::from(vec![pos]);
        let gt1 = a.int_lt(one, x);
        assert!(q
            .is_feasible(&mut a, &on_pos, gt1, QueryPurpose::Branches)
            .unwrap());
        let ge = a.int_le(zero, x);
        assert!(q
            .is_valid(&mut a, &on_pos, ge, QueryPurpose::Assertions)
            .unwrap());
        let s = q.take_stats();
        assert_eq!(s.num_serializations, s.num_queries);
        assert_eq!(s.session_hits + s.session_misses, 2);
        assert!(
            s.session_hits >= 1,
            "second query along the same path must reuse a session"
        );
        // A drain leaves nothing behind for the next one.
        let again = q.take_stats();
        assert_eq!(again.num_queries + again.session_hits + again.sat_solves, 0);
    }

    #[test]
    fn model_extraction() {
        let mut a = TermArena::new();
        let x = a.var("mx", Sort::BitVec(8));
        let c = a.bv_const(8, 9);
        let eq = a.eq(x, c);
        let mut q = QueryCtx::new(Portfolio::single());
        let t = a.tru();
        let m = q
            .model(
                &mut a,
                &PathCond::from(vec![eq]),
                t,
                QueryPurpose::Assertions,
            )
            .unwrap()
            .unwrap();
        assert_eq!(m.var("mx"), Some(&tpot_smt::Value::BitVec(8, 9)));
    }
}
