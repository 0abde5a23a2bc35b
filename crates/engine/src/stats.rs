//! Verification-time accounting (Figure 7 of the paper).
//!
//! The paper breaks verification time into: query simplification (§4.3),
//! SMT queries for pointer resolution, SMT queries for branch feasibility,
//! query serialization, and "other". The engine tags every solver call with
//! a [`QueryPurpose`] and accumulates wall-clock time per bucket here; the
//! `fig7` harness prints the same breakdown the paper plots.

use std::time::Duration;

/// Why a solver query was issued.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryPurpose {
    /// Resolving a symbolic pointer to memory objects (§4.2).
    Pointers,
    /// Deciding branch feasibility.
    Branches,
    /// Proving an assertion / invariant / loop-invariant obligation.
    Assertions,
    /// Queries issued *by the query simplifier* (read-after-write and
    /// constant-offset proofs, §4.3).
    Simplify,
}

impl QueryPurpose {
    /// Stable lowercase name (span args, metrics keys).
    pub fn name(self) -> &'static str {
        match self {
            QueryPurpose::Pointers => "pointers",
            QueryPurpose::Branches => "branches",
            QueryPurpose::Assertions => "assertions",
            QueryPurpose::Simplify => "simplify",
        }
    }
}

/// Accumulated engine statistics.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Time in the query simplifier (including its own solver queries).
    pub simplify_time: Duration,
    /// Time in pointer-resolution queries.
    pub pointer_time: Duration,
    /// Time in branch-feasibility queries.
    pub branch_time: Duration,
    /// Time in assertion/invariant queries.
    pub assertion_time: Duration,
    /// Time serializing queries for the portfolio (§4.4).
    pub serialization_time: Duration,
    /// Total number of solver queries.
    pub num_queries: u64,
    /// SMT-LIB serializations performed. The pipeline serializes each query
    /// exactly once (for fingerprinting + Fig. 7 accounting), so this equals
    /// `num_queries`.
    pub num_serializations: u64,
    /// Queries issued for pointer resolution.
    pub pointer_queries: u64,
    /// Queries issued for branch feasibility.
    pub branch_queries: u64,
    /// Queries issued for assertions/invariants.
    pub assertion_queries: u64,
    /// Queries issued by the query simplifier.
    pub simplify_queries: u64,
    /// Queries answered by an existing incremental solve session (the
    /// session broker found a usable asserted prefix).
    pub session_hits: u64,
    /// Queries that had to open a fresh solve session.
    pub session_misses: u64,
    /// Reused sessions retired mid-query (Unknown or error), whose query
    /// was retried once in a fresh session.
    pub session_fallbacks: u64,
    /// Terms bit-blasted by sessions, cache misses only (a fresh session
    /// blasts the query's whole cone; a reused one only what push/pop
    /// exposed).
    pub session_reblasted_terms: u64,
    /// Queries answered straight from the persistent proof cache (keyed by
    /// fingerprint + solver-config digest; no solver ran). Together with
    /// `cache_misses` this is the provenance signal: a POT run with
    /// `cache_misses == 0 && cache_hits > 0` was *replayed* entirely from
    /// cached outcomes.
    pub cache_hits: u64,
    /// Queries that missed the persistent proof cache and went to a solver.
    pub cache_misses: u64,
    /// Queries answered by the read-after-write proof cache.
    pub raw_cache_hits: u64,
    /// Successful read-after-write simplifications.
    pub raw_simplifications: u64,
    /// Constant-offset rewrites (§4.3, "Constant offsets").
    pub const_offset_hits: u64,
    /// Number of execution paths completed.
    pub paths: u64,
    /// Number of state forks.
    pub forks: u64,
    /// Bytes structurally shared across forks instead of copied (estimated
    /// at fork time from container lengths; what a deep clone would have
    /// paid).
    pub fork_bytes_shared: u64,
    /// Bytes actually copied per fork (call stack and friends).
    pub fork_bytes_copied: u64,
    /// Peak number of simultaneously live states in the run loop.
    pub live_peak: u64,
    /// Instructions interpreted.
    pub insts: u64,
    /// Lazily materialized heap objects (§4.2).
    pub materializations: u64,
    /// SAT `solve()` calls attributed to this POT/path. All `sat_*` fields
    /// are exact per-shard deltas: every solve runs in a session owned by
    /// one execution shard, which counts the session's in-solve delta
    /// around each check, so attribution is exact at any worker count —
    /// concurrent POTs never bleed into each other's counters.
    pub sat_solves: u64,
    /// CDCL conflicts attributed to this POT/path.
    pub sat_conflicts: u64,
    /// CDCL decisions attributed to this POT/path.
    pub sat_decisions: u64,
    /// Unit propagations during search attributed to this POT/path
    /// (level-0 setup propagation during clause addition is excluded —
    /// only in-solve deltas are counted).
    pub sat_propagations: u64,
    /// Restarts attributed to this POT/path.
    pub sat_restarts: u64,
    /// Learned clauses attributed to this POT/path.
    pub sat_learned: u64,
    /// SAT variables removed by bounded variable elimination.
    pub sat_eliminated_vars: u64,
    /// Clauses removed by subsumption.
    pub sat_subsumed: u64,
    /// Literals removed by vivification and self-subsumption strengthening.
    pub sat_vivified_lits: u64,
    /// DRAT proof lines emitted (0 unless `TPOT_PROOF` is on).
    pub sat_proof_lines: u64,
}

impl Stats {
    /// Folds one shard's SAT delta ([`tpot_sat::SolveStats`]) into the
    /// `sat_*` fields. This is the only way sat counters enter a [`Stats`]
    /// record; the process-wide `sat.*` registry counters receive the same
    /// deltas from the solver, so summing every record's `sat_*` over a run
    /// reproduces the registry delta exactly (the conservation invariant
    /// `crates/engine/tests/pkvm_invariants.rs` checks).
    pub fn add_sat_delta(&mut self, d: tpot_sat::SolveStats) {
        self.sat_solves += d.solves;
        self.sat_conflicts += d.conflicts;
        self.sat_decisions += d.decisions;
        self.sat_propagations += d.propagations;
        self.sat_restarts += d.restarts;
        self.sat_learned += d.learned;
        self.sat_eliminated_vars += d.eliminated_vars;
        self.sat_subsumed += d.subsumed;
        self.sat_vivified_lits += d.vivified_lits;
        self.sat_proof_lines += d.proof_lines;
    }

    /// Adds solver time to the bucket for `purpose`.
    pub fn add_query_time(&mut self, purpose: QueryPurpose, d: Duration) {
        self.num_queries += 1;
        match purpose {
            QueryPurpose::Pointers => {
                self.pointer_queries += 1;
                self.pointer_time += d;
            }
            QueryPurpose::Branches => {
                self.branch_queries += 1;
                self.branch_time += d;
            }
            QueryPurpose::Assertions => {
                self.assertion_queries += 1;
                self.assertion_time += d;
            }
            QueryPurpose::Simplify => {
                self.simplify_queries += 1;
                self.simplify_time += d;
            }
        }
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, o: &Stats) {
        self.simplify_time += o.simplify_time;
        self.pointer_time += o.pointer_time;
        self.branch_time += o.branch_time;
        self.assertion_time += o.assertion_time;
        self.serialization_time += o.serialization_time;
        self.num_queries += o.num_queries;
        self.num_serializations += o.num_serializations;
        self.pointer_queries += o.pointer_queries;
        self.branch_queries += o.branch_queries;
        self.assertion_queries += o.assertion_queries;
        self.simplify_queries += o.simplify_queries;
        self.session_hits += o.session_hits;
        self.session_misses += o.session_misses;
        self.session_fallbacks += o.session_fallbacks;
        self.session_reblasted_terms += o.session_reblasted_terms;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.raw_cache_hits += o.raw_cache_hits;
        self.raw_simplifications += o.raw_simplifications;
        self.const_offset_hits += o.const_offset_hits;
        self.paths += o.paths;
        self.forks += o.forks;
        self.fork_bytes_shared += o.fork_bytes_shared;
        self.fork_bytes_copied += o.fork_bytes_copied;
        self.live_peak = self.live_peak.max(o.live_peak);
        self.insts += o.insts;
        self.materializations += o.materializations;
        self.sat_solves += o.sat_solves;
        self.sat_conflicts += o.sat_conflicts;
        self.sat_decisions += o.sat_decisions;
        self.sat_propagations += o.sat_propagations;
        self.sat_restarts += o.sat_restarts;
        self.sat_learned += o.sat_learned;
        self.sat_eliminated_vars += o.sat_eliminated_vars;
        self.sat_subsumed += o.sat_subsumed;
        self.sat_vivified_lits += o.sat_vivified_lits;
        self.sat_proof_lines += o.sat_proof_lines;
    }

    /// Mirrors this record into the process-wide metrics registry
    /// (`tpot-obs`), under `engine.*` and `solver.session.*` names. The
    /// per-POT [`Stats`] stays the per-POT view; the registry accumulates
    /// across POTs and process-wide subsystems and is what `TPOT_METRICS`
    /// dumps. The scheduler calls this once per finished POT, so it is the
    /// one writer of every counter below.
    pub fn publish_metrics(&self) {
        use tpot_obs::metrics::counter;
        let us = |d: Duration| d.as_micros() as u64;
        counter("engine.time.simplify_us").add(us(self.simplify_time));
        counter("engine.time.pointers_us").add(us(self.pointer_time));
        counter("engine.time.branches_us").add(us(self.branch_time));
        counter("engine.time.assertions_us").add(us(self.assertion_time));
        counter("engine.time.serialization_us").add(us(self.serialization_time));
        counter("engine.queries").add(self.num_queries);
        counter("engine.queries.pointers").add(self.pointer_queries);
        counter("engine.queries.branches").add(self.branch_queries);
        counter("engine.queries.assertions").add(self.assertion_queries);
        counter("engine.queries.simplify").add(self.simplify_queries);
        counter("engine.serializations").add(self.num_serializations);
        counter("engine.cache_hits").add(self.cache_hits);
        counter("engine.cache_misses").add(self.cache_misses);
        counter("engine.raw_cache_hits").add(self.raw_cache_hits);
        counter("engine.raw_simplifications").add(self.raw_simplifications);
        counter("engine.const_offset_hits").add(self.const_offset_hits);
        counter("engine.paths").add(self.paths);
        counter("engine.forks").add(self.forks);
        counter("engine.fork_bytes_shared").add(self.fork_bytes_shared);
        counter("engine.fork_bytes_copied").add(self.fork_bytes_copied);
        counter("engine.insts").add(self.insts);
        counter("engine.materializations").add(self.materializations);
        counter("solver.session.hit").add(self.session_hits);
        counter("solver.session.miss").add(self.session_misses);
        counter("solver.session.reblasted_terms").add(self.session_reblasted_terms);
        // The sat_* fields are deltas of counters the SAT cores already
        // publish (`sat.eliminated_vars`, …); re-adding them here would
        // double-count in the registry dump.
    }

    /// Shares of `wall` (the verification time these stats cover) in the
    /// paper's Figure 7 buckets, in percent:
    /// `(query simplif, SMT:pointers, SMT:branches, serialization, other)`.
    /// "Other" is the rest of `wall` — interpretation, state management
    /// and assertion queries — and is zero when the buckets exceed it.
    pub fn fig7_breakdown(&self, wall: Duration) -> (f64, f64, f64, f64, f64) {
        let buckets = [
            self.simplify_time,
            self.pointer_time,
            self.branch_time,
            self.serialization_time,
        ];
        let other = wall.saturating_sub(buckets.iter().sum());
        let pct = |d: Duration| 100.0 * d.as_secs_f64() / wall.as_secs_f64().max(1e-9);
        (
            pct(buckets[0]),
            pct(buckets[1]),
            pct(buckets[2]),
            pct(buckets[3]),
            pct(other),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let mut s = Stats::default();
        s.add_query_time(QueryPurpose::Pointers, Duration::from_millis(10));
        s.add_query_time(QueryPurpose::Branches, Duration::from_millis(30));
        s.add_query_time(QueryPurpose::Assertions, Duration::from_millis(20));
        s.serialization_time += Duration::from_millis(10);
        assert_eq!(s.num_queries, 3);
        // 100 ms of wall time: the 50 ms outside the four buckets, assertion
        // queries included, is "other", and the five shares sum to 100.
        let (simp, ptr, br, ser, other) = s.fig7_breakdown(Duration::from_millis(100));
        assert!((simp - 0.0).abs() < 1e-6);
        assert!((ptr - 10.0).abs() < 1e-6);
        assert!((br - 30.0).abs() < 1e-6);
        assert!((ser - 10.0).abs() < 1e-6);
        assert!((other - 50.0).abs() < 1e-6);
        assert!((simp + ptr + br + ser + other - 100.0).abs() < 1e-6);
        // Buckets over the wall time leave no negative "other".
        let (.., other) = s.fig7_breakdown(Duration::from_millis(40));
        assert_eq!(other, 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = Stats {
            paths: 2,
            ..Stats::default()
        };
        let b = Stats {
            paths: 3,
            forks: 1,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.paths, 5);
        assert_eq!(a.forks, 1);
    }
}
