//! Incremental solve sessions: push/pop assertion scopes over one persistent
//! SAT instance.
//!
//! A [`SolveSession`] keeps the bit-blaster, preprocessing state, and LIA
//! tableau alive across checks, so consecutive queries that share an
//! assertion prefix — the common case along one symbolic-execution path,
//! where the path condition only ever grows — pay only for what is new:
//!
//! * terms already lowered to CNF are never re-blasted (the blaster's
//!   `TermId`-keyed caches survive because the arena is hash-consed and
//!   append-only);
//! * learned clauses are retained across checks (they are implied by the
//!   permanent clause set, see below);
//! * theory atoms are compiled into the LIA context once, when they are
//!   blasted, and the simplex keeps its basis from check to check.
//!
//! # The DPLL(T) round
//!
//! A round is one SAT solve followed by theory checks of the model's atoms.
//! When the simplex finds a conflict, the session learns its blocking clause,
//! drops the conflict's newest atom and checks the rest again, so one model
//! yields every conflict it shows before the next SAT solve. The answer is
//! Sat only when a check over every atom is.
//!
//! # Scope semantics
//!
//! Scopes are implemented with activation literals. The base scope (depth 0)
//! asserts terms as permanent unit clauses. `push` allocates a fresh literal
//! `act`; a term asserted at that depth becomes the clause `(lit ∨ ¬act)`,
//! which is vacuous unless `act` is assumed. Every `check` passes the
//! activation literals of all open scopes as SAT assumptions, so exactly the
//! live scopes' assertions are in force. `pop` retires a scope by adding the
//! permanent unit `¬act` — its guarded clauses become satisfied — and then
//! runs [`tpot_sat::Solver::purge_level0_satisfied`] to physically reclaim
//! them.
//!
//! # Why retaining clauses across `pop` is sound
//!
//! Everything the session adds *unguarded* is either a definitional
//! extension (Tseitin gate clauses, adder/comparator circuits, Ackermann
//! select/application variables, integer-`ite` purification implications) or
//! a theory-valid lemma (congruence axioms, LIA blocking clauses over the
//! theory atoms). Neither constrains the original variables beyond what the
//! theory already implies, so they may persist forever. Scoped user
//! assertions are the only clauses whose truth is scope-relative, and those
//! are guarded. Learned clauses are resolvents of permanent and guarded
//! clauses; a resolvent of guarded clauses keeps (one of) the `¬act`
//! guard(s), so it, too, is vacuous once its scope dies. If a blocking
//! clause is all-false at decision level 0, the *permanent* set is already
//! theory-inconsistent and reporting `Unsat` forever after is correct.

use std::collections::HashMap;

use tpot_sat::{Lit, SatResult, Solver};
use tpot_smt::{eval, FuncId, Kind, Model, Sort, TermArena, TermId, Value};

use crate::bitblast::BitBlaster;
use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::lia::LiaOutcome;
use crate::preprocess::{IncPreprocess, UfApp};
use crate::smt::SmtResult;

/// Counters a session accumulates over its lifetime; callers read deltas
/// around a check to attribute incremental work.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Number of `check`/`check_assuming` calls.
    pub checks: u64,
    /// Number of `pop` calls.
    pub pops: u64,
    /// Clauses physically reclaimed by scope GC on `pop`.
    pub clauses_gced: u64,
}

/// How a theory round over one SAT model ended.
enum TheoryRound {
    /// Every atom is consistent; the integer model of the check.
    Sat(HashMap<TermId, i128>),
    /// The theory gave up before any conflict was learned.
    Unknown,
    /// At least one blocking clause was learned; solve again.
    Learned,
    /// A blocking clause is false at decision level 0.
    Refuted,
}

/// One open assertion scope.
#[derive(Clone, Copy, Debug)]
struct Scope {
    /// Activation literal assumed by every check while the scope is open.
    act: Lit,
    /// Conflict-participation count already handed out through
    /// [`UnsatAttribution::scope_hits`] — attribution reports deltas, so
    /// summing `scope_hits` across a session's Unsat answers counts each
    /// learned clause once.
    hits_reported: u64,
}

/// Proof-effort attribution of the most recent Unsat answer
/// ([`SolveSession::last_unsat`]).
///
/// `core_scopes` comes from the SAT solver's final-conflict analysis: the
/// open scopes whose activation literals suffice for the conflict. With
/// proof logging on, the same literals close the machine-checked DRAT
/// derivation, so membership is certified rather than heuristic.
/// `scope_hits` is the conflict-participation signal (learned clauses
/// mentioning each scope's activation literal), reported as a *delta*
/// since the scope's previous attribution so callers summing across
/// queries count each learned clause once; it is all zeros unless blame
/// tracking (`TPOT_BLAME`) is on.
#[derive(Clone, Debug, Default)]
pub struct UnsatAttribution {
    /// Indices of open scopes (0 = outermost) in the assumption core.
    pub core_scopes: Vec<usize>,
    /// Whether a transient assumption literal appears in the core.
    pub core_extra: bool,
    /// Per-open-scope conflict-participation counts, same indexing.
    pub scope_hits: Vec<u64>,
}

/// An incremental SMT solving session with push/pop assertion scopes.
///
/// [`crate::SmtSolver::check`] is a thin one-shot wrapper over a fresh
/// single-scope session, so both paths share one code path and must agree by
/// construction; the fuzzer's `incremental-vs-oneshot` mode checks exactly
/// that under randomized push/pop/check interleavings.
/// `Clone` duplicates the whole incremental stack — SAT clause database,
/// bit-blast caches, preprocessing high-water marks, LIA tableau, and open
/// scopes — producing an independent session that can continue on another
/// worker. This is the longest-common-prefix handoff primitive: the clone
/// keeps the asserted prefix blasted, so the thief's first check re-blasts
/// only its delta.
#[derive(Clone)]
pub struct SolveSession {
    /// Instance configuration (shared with the one-shot wrapper).
    pub config: SolverConfig,
    bb: BitBlaster,
    pre: IncPreprocess,
    scopes: Vec<Scope>,
    /// Lifetime counters.
    pub stats: SessionStats,
    /// Attribution of the most recent Unsat answer (`None` after Sat or
    /// Unknown). See [`UnsatAttribution`].
    pub last_unsat: Option<UnsatAttribution>,
}

impl SolveSession {
    /// Creates a session with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        let sat = Solver::new(config.sat.clone());
        SolveSession {
            config,
            bb: BitBlaster::new(sat),
            pre: IncPreprocess::new(),
            scopes: Vec::new(),
            stats: SessionStats::default(),
            last_unsat: None,
        }
    }

    /// Cumulative counters of the underlying SAT instance. Callers read
    /// deltas around a check for exact per-query attribution.
    pub fn sat_stats(&self) -> tpot_sat::SolveStats {
        self.bb.sat.stats()
    }

    /// Installs (or clears) the attribution sink the SAT instance reports
    /// to. Called when a cloned session migrates to another execution
    /// shard, so its work lands in the new shard's sink.
    pub fn set_sink(&mut self, sink: Option<std::sync::Arc<tpot_sat::SatSink>>) {
        self.config.sat.sink = sink.clone();
        self.bb.sat.set_sink(sink);
    }

    /// Current scope depth; 0 means only the permanent base scope is open.
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    /// Terms lowered to CNF so far (bit-blast cache misses). The delta of
    /// this counter around a check measures re-blasting work; a session that
    /// reuses its prefix shows near-zero deltas on repeat queries.
    pub fn terms_blasted(&self) -> u64 {
        self.bb.terms_blasted
    }

    /// Opens a new assertion scope.
    pub fn push(&mut self) {
        let v = self.bb.sat.new_var();
        // Activation literals appear in assumptions and as clause guards;
        // inprocessing must never eliminate them, or popped scopes could
        // resurrect constraints through resolvents.
        self.bb.sat.freeze(v);
        if self.config.sat.blame {
            // Count learned clauses mentioning this scope's guard — the
            // conflict-participation signal behind proof-effort blame.
            self.bb.sat.track_var(v);
        }
        self.scopes.push(Scope {
            act: Lit::pos(v),
            hits_reported: 0,
        });
    }

    /// Closes the innermost scope, retiring its assertions and reclaiming
    /// their clauses.
    ///
    /// # Panics
    /// Panics if no scope is open (the base scope cannot be popped).
    pub fn pop(&mut self) {
        let scope = self.scopes.pop().expect("pop on base scope");
        self.bb.sat.add_clause(&[scope.act.negate()]);
        self.stats.clauses_gced += self.bb.sat.purge_level0_satisfied() as u64;
        self.stats.pops += 1;
    }

    /// Asserts `t` in the current scope.
    pub fn assert(&mut self, arena: &mut TermArena, t: TermId) -> Result<(), SolverError> {
        self.assert_many(arena, std::slice::from_ref(&t))
    }

    /// Asserts a batch of terms in the current scope.
    pub fn assert_many(
        &mut self,
        arena: &mut TermArena,
        terms: &[TermId],
    ) -> Result<(), SolverError> {
        // Inprocessing may have eliminated gate variables since the last
        // call; drop the stale cache entries before handing out literals.
        self.bb.sync_eliminated();
        let delta = {
            let _span = tpot_obs::span("solver", "preprocess");
            self.pre.process(arena, terms)?
        };
        let _span = tpot_obs::span("solver", "bitblast");
        // Definitional constraints and theory axioms are scope-independent:
        // assert them unguarded so they survive `pop` (see module docs).
        for &d in &delta.defs {
            self.bb.assert_term(arena, d)?;
        }
        let guard = self.scopes.last().map(|s| s.act.negate());
        for &a in &delta.assertions {
            let lit = self.bb.bool_lit(arena, a)?;
            match guard {
                None => {
                    self.bb.sat.add_clause(&[lit]);
                }
                Some(g) => {
                    self.bb.sat.add_clause(&[lit, g]);
                }
            }
        }
        Ok(())
    }

    /// Checks satisfiability of all assertions in the open scopes.
    pub fn check(
        &mut self,
        arena: &mut TermArena,
        need_model: bool,
    ) -> Result<SmtResult, SolverError> {
        self.check_assuming(arena, &[], need_model)
    }

    /// Checks satisfiability under additional transient assumptions, which
    /// constrain only this check and leave no scope behind.
    pub fn check_assuming(
        &mut self,
        arena: &mut TermArena,
        assumptions: &[TermId],
        need_model: bool,
    ) -> Result<SmtResult, SolverError> {
        self.stats.checks += 1;
        self.last_unsat = None;
        self.bb.sync_eliminated();
        let mut assumps: Vec<Lit> = self.scopes.iter().map(|s| s.act).collect();
        if !assumptions.is_empty() {
            // Assumption terms are lowered like assertions — their
            // definitional side constraints are permanent — but the top
            // literals are passed to the SAT core as assumptions only.
            let delta = {
                let _span = tpot_obs::span("solver", "preprocess");
                self.pre.process(arena, assumptions)?
            };
            let _span = tpot_obs::span("solver", "bitblast");
            for &d in &delta.defs {
                self.bb.assert_term(arena, d)?;
            }
            for &a in &delta.assertions {
                assumps.push(self.bb.bool_lit(arena, a)?);
            }
        }
        let _span =
            tpot_obs::span_args("solver", "dpllt", &[("instance", self.config.name.clone())]);
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            if rounds > self.config.max_theory_rounds {
                return Ok(SmtResult::Unknown);
            }
            match self.bb.sat.solve(&assumps) {
                SatResult::Unsat => {
                    self.record_unsat_attribution();
                    self.verify_proof(&assumps)?;
                    return Ok(SmtResult::Unsat);
                }
                SatResult::Unknown => return Ok(SmtResult::Unknown),
                SatResult::Sat => {}
            }
            if self.bb.atoms.is_empty() {
                return self.sat_result(arena, need_model, &HashMap::new());
            }
            // Every theory atom under the SAT model. Atoms introduced by
            // scopes popped since are still present; their literals are
            // unconstrained, so the model (or saved phase) picks a polarity
            // and the theory check treats them like any other atom — at
            // worst this learns extra theory-valid blocking clauses.
            let sat = &self.bb.sat;
            let lits: Vec<(usize, bool)> = self
                .bb
                .atoms
                .iter()
                .map(|l| sat.model_value(l.var()) == l.is_pos())
                .enumerate()
                .collect();
            match self.theory_round(lits)? {
                TheoryRound::Sat(int_model) => {
                    return self.sat_result(arena, need_model, &int_model);
                }
                TheoryRound::Unknown => return Ok(SmtResult::Unknown),
                TheoryRound::Learned => {}
                TheoryRound::Refuted => {
                    // A blocking clause conflicted at level 0: the proof
                    // ends in the empty clause. No assumption was needed,
                    // so the attributed core is empty.
                    self.record_unsat_attribution();
                    self.verify_proof(&[])?;
                    return Ok(SmtResult::Unsat);
                }
            }
        }
    }

    /// Checks one SAT model's theory atoms (`(atom, polarity)` in atom
    /// order) and learns a blocking clause for every conflict it shows.
    ///
    /// After each conflict the core's newest atom is dropped and the rest
    /// checked again. The round ends when the rest is consistent, when the
    /// theory gives up, or when the core is the whole checked set (a
    /// branch-and-bound refutation names every atom).
    fn theory_round(&mut self, mut lits: Vec<(usize, bool)>) -> Result<TheoryRound, SolverError> {
        let mut learned = false;
        loop {
            match self.bb.lia.check(&lits, &self.config.lia)? {
                LiaOutcome::Sat(_) | LiaOutcome::Unknown if learned => {
                    return Ok(TheoryRound::Learned)
                }
                LiaOutcome::Sat(int_model) => return Ok(TheoryRound::Sat(int_model)),
                LiaOutcome::Unknown => return Ok(TheoryRound::Unknown),
                LiaOutcome::Unsat(core) => {
                    // Blocking clause: at least one core atom must flip. The
                    // clause is theory-valid, hence permanent (unguarded).
                    let clause: Vec<Lit> = core
                        .iter()
                        .map(|&i| {
                            let (atom, polarity) = lits[i];
                            let l = self.bb.atoms[atom];
                            if polarity {
                                l.negate()
                            } else {
                                l
                            }
                        })
                        .collect();
                    if !self.bb.sat.add_clause(&clause) {
                        return Ok(TheoryRound::Refuted);
                    }
                    learned = true;
                    if core.len() == lits.len() {
                        return Ok(TheoryRound::Learned);
                    }
                    // `lits` is in atom order, so the core's highest index
                    // is its newest atom.
                    lits.remove(*core.iter().max().expect("cores are non-empty"));
                }
            }
        }
    }

    /// Records [`UnsatAttribution`] for the Unsat answer just produced:
    /// maps the SAT solver's assumption core back to scope indices and
    /// reports each scope's conflict-participation count as a delta since
    /// that scope last appeared in an attribution.
    fn record_unsat_attribution(&mut self) {
        let core: Vec<Lit> = self.bb.sat.assumption_core().unwrap_or(&[]).to_vec();
        let mut core_scopes = Vec::new();
        let mut core_extra = false;
        for &l in &core {
            match self.scopes.iter().position(|s| s.act == l) {
                Some(i) => core_scopes.push(i),
                None => core_extra = true,
            }
        }
        core_scopes.sort_unstable();
        core_scopes.dedup();
        let sat = &self.bb.sat;
        let scope_hits = self
            .scopes
            .iter_mut()
            .map(|s| {
                let now = sat.tracked_hits(s.act.var());
                let d = now.saturating_sub(s.hits_reported);
                s.hits_reported = now;
                d
            })
            .collect();
        self.last_unsat = Some(UnsatAttribution {
            core_scopes,
            core_extra,
            scope_hits,
        });
    }

    /// Replays the DRAT proof of an Unsat answer through the independent
    /// checker (no-op unless `config.sat.proof` is set).
    fn verify_proof(&self, assumps: &[Lit]) -> Result<(), SolverError> {
        if !self.config.sat.proof {
            return Ok(());
        }
        let _span = tpot_obs::span("solver", "proof_check");
        tpot_obs::metrics::counter("solver.proof_checks").inc();
        self.bb
            .sat
            .check_proof(assumps)
            .map_err(SolverError::ProofCheckFailed)
    }

    fn sat_result(
        &self,
        arena: &TermArena,
        need_model: bool,
        int_model: &HashMap<TermId, i128>,
    ) -> Result<SmtResult, SolverError> {
        if !need_model {
            return Ok(SmtResult::Sat(Model::new()));
        }
        let model = build_model(
            arena,
            &self.bb,
            &self.pre.array_selects(),
            &self.pre.uf_apps(),
            int_model,
        )?;
        Ok(SmtResult::Sat(model))
    }
}

/// Reconstructs a full [`Model`] from SAT bits, LIA values, and the
/// accumulated preprocessing bookkeeping.
///
/// A long-lived session may report values for variables only dead scopes
/// mention; extra entries are harmless to evaluation-based validation.
pub(crate) fn build_model(
    arena: &TermArena,
    bb: &BitBlaster,
    array_selects: &[(TermId, Vec<(TermId, TermId)>)],
    uf_apps: &[(FuncId, Vec<UfApp>)],
    int_model: &HashMap<TermId, i128>,
) -> Result<Model, SolverError> {
    let mut model = Model::new();
    // Bitvector and boolean variables, straight from the SAT model.
    for t in bb.blasted_bv_terms() {
        if matches!(arena.term(t).kind, Kind::Var(_)) {
            if let Some(v) = bb.bv_model_value(t) {
                let w = arena.sort(t).bv_width().unwrap();
                model.set_var(arena.var_name(t), Value::BitVec(w, v));
            }
        }
    }
    for t in bb.blasted_bool_terms() {
        if matches!(arena.term(t).kind, Kind::Var(_)) {
            if let Some(v) = bb.bool_model_value(t) {
                model.set_var(arena.var_name(t), Value::Bool(v));
            }
        }
    }
    // Integer variables from the LIA model.
    for (&t, &v) in int_model {
        if matches!(arena.term(t).kind, Kind::Var(_)) {
            model.set_var(arena.var_name(t), Value::Int(v));
        }
    }
    // Function interpretations from the Ackermann records. Built *before*
    // the array interpretations: UF argument terms are recorded after
    // select elimination (pass 2), so they contain only variables and
    // operators — but array index terms are recorded *before* UF
    // Ackermannization (pass 3) and may still contain `Apply` nodes, e.g.
    // `(select a (f x))`. Evaluating such an index with the function table
    // still empty silently falls back to the default interpretation and
    // keys the array entry at the wrong index, producing a "sat" model
    // that fails validation. (Found by the fuzzer's model-validation
    // oracle; regression: crates/solver/tests/corpus_regressions.rs.)
    for (f, apps) in uf_apps {
        let mut interp = tpot_smt::FuncInterp::default();
        for (args, res_var) in apps {
            let key: Vec<u128> = args
                .iter()
                .map(|&a| eval(arena, &model, a).map(|v| v.key_repr()))
                .collect::<Result<_, _>>()
                .map_err(eval_err)?;
            let rv = eval(arena, &model, *res_var).map_err(eval_err)?;
            interp.entries.insert(key, rv);
        }
        model.funcs.insert(*f, interp);
    }
    // Array interpretations: evaluate recorded index terms under the model
    // built so far.
    for (arr, sels) in array_selects {
        let esort = match arena.sort(*arr) {
            Sort::Array(_, e) => (**e).clone(),
            _ => unreachable!(),
        };
        let mut entries = HashMap::new();
        for (idx, sel_var) in sels {
            let iv = eval(arena, &model, *idx).map_err(eval_err)?;
            let sv = eval(arena, &model, *sel_var).map_err(eval_err)?;
            entries.insert(iv.key_repr(), Box::new(sv));
        }
        model.set_var(
            arena.var_name(*arr),
            Value::Array {
                entries,
                default: Box::new(Value::zero_of(&esort)),
            },
        );
    }
    Ok(model)
}

fn eval_err(e: tpot_smt::EvalError) -> SolverError {
    match e {
        tpot_smt::EvalError::Overflow => SolverError::Overflow,
        tpot_smt::EvalError::UnboundVar(v) => {
            SolverError::Unsupported(format!("unbound variable in model build: {v}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> SolveSession {
        SolveSession::new(SolverConfig::default())
    }

    fn assert_model_satisfies(arena: &TermArena, model: &Model, asserts: &[TermId]) {
        for &t in asserts {
            let v = eval(arena, model, t).unwrap();
            assert_eq!(v, Value::Bool(true), "model must satisfy assertion");
        }
    }

    #[test]
    fn push_pop_restores_satisfiability() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let c2 = a.bv_const(8, 2);
        let eq1 = a.eq(x, c1);
        let eq2 = a.eq(x, c2);
        let mut s = session();
        s.assert(&mut a, eq1).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.push();
        s.assert(&mut a, eq2).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        s.pop();
        match s.check(&mut a, true).unwrap() {
            SmtResult::Sat(m) => assert_model_satisfies(&a, &m, &[eq1]),
            other => panic!("expected sat after pop: {other:?}"),
        }
    }

    #[test]
    fn nested_scopes_and_check_assuming() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let c0 = a.int_const(0);
        let c5 = a.int_const(5);
        let c9 = a.int_const(9);
        let ge0 = a.int_le(c0, x);
        let le5 = a.int_le(x, c5);
        let ge9 = a.int_le(c9, x);
        let mut s = session();
        s.assert(&mut a, ge0).unwrap();
        s.push();
        s.assert(&mut a, le5).unwrap();
        // Transient assumption conflicts with the scoped x <= 5.
        assert!(s.check_assuming(&mut a, &[ge9], false).unwrap().is_unsat());
        // The assumption left nothing behind.
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.push();
        s.assert(&mut a, ge9).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        s.pop();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.pop();
        assert!(s.check_assuming(&mut a, &[ge9], false).unwrap().is_sat());
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn prefix_terms_not_reblasted() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(32));
        let y = a.var("y", Sort::BitVec(32));
        let sum = a.bv_add(x, y);
        let c = a.bv_const(32, 100);
        let lt = a.bv_ult(sum, c);
        let mut s = session();
        s.assert(&mut a, lt).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        let blasted_after_first = s.terms_blasted();
        assert!(blasted_after_first > 0);
        // A scoped query over the same prefix blasts only the new term.
        s.push();
        let c5 = a.bv_const(32, 5);
        let eqx = a.eq(x, c5);
        s.assert(&mut a, eqx).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        let delta = s.terms_blasted() - blasted_after_first;
        assert!(
            delta <= 2,
            "only the new eq (and its const) should blast, got {delta}"
        );
        s.pop();
        // Re-checking the prefix alone blasts nothing.
        let before = s.terms_blasted();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        assert_eq!(s.terms_blasted(), before);
    }

    #[test]
    fn pop_gc_reclaims_scoped_clauses() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let mut s = session();
        s.push();
        for i in 0..8 {
            let c = a.bv_const(8, i);
            let ne = a.neq(x, c);
            s.assert(&mut a, ne).unwrap();
        }
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.pop();
        assert!(s.stats.clauses_gced > 0, "scope GC must reclaim clauses");
        assert!(s.check(&mut a, false).unwrap().is_sat());
    }

    #[test]
    fn base_false_is_permanent() {
        let mut a = TermArena::new();
        let f = a.fls();
        let mut s = session();
        s.assert(&mut a, f).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        assert!(s.check(&mut a, false).unwrap().is_unsat());
    }

    #[test]
    fn scoped_false_recovers_on_pop() {
        let mut a = TermArena::new();
        let f = a.fls();
        let t = a.tru();
        let mut s = session();
        s.assert(&mut a, t).unwrap();
        s.push();
        s.assert(&mut a, f).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        s.pop();
        assert!(s.check(&mut a, false).unwrap().is_sat());
    }

    #[test]
    fn incremental_congruence_across_scopes() {
        // UF congruence discovered between a base-scope application and a
        // scoped one must still be enforced.
        let mut a = TermArena::new();
        let h = a.declare_func("h", vec![Sort::Int], Sort::Int);
        let x = a.var("hx", Sort::Int);
        let y = a.var("hy", Sort::Int);
        let fx = a.apply(h, vec![x]);
        let fy = a.apply(h, vec![y]);
        let c1 = a.int_const(1);
        let c2 = a.int_const(2);
        let fx1 = a.eq(fx, c1);
        let mut s = session();
        s.assert(&mut a, fx1).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.push();
        let eq_args = a.eq(x, y);
        let fy2 = a.eq(fy, c2);
        s.assert(&mut a, eq_args).unwrap();
        s.assert(&mut a, fy2).unwrap();
        // x = y forces h(x) = h(y), but 1 != 2.
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        s.pop();
        assert!(s.check(&mut a, false).unwrap().is_sat());
    }

    #[test]
    fn array_axioms_across_scopes() {
        let mut a = TermArena::new();
        let mem = a.var("mem", Sort::byte_array());
        let i = a.var("i", Sort::BitVec(64));
        let j = a.var("j", Sort::BitVec(64));
        let ri = a.select(mem, i);
        let rj = a.select(mem, j);
        let c1 = a.bv_const(8, 1);
        let c2 = a.bv_const(8, 2);
        let eq1 = a.eq(ri, c1);
        let mut s = session();
        s.assert(&mut a, eq1).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.push();
        let eq_idx = a.eq(i, j);
        let eq2 = a.eq(rj, c2);
        s.assert(&mut a, eq_idx).unwrap();
        s.assert(&mut a, eq2).unwrap();
        // i = j forces mem[i] = mem[j], but 1 != 2.
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        s.pop();
        assert!(s.check(&mut a, false).unwrap().is_sat());
    }

    #[test]
    fn proof_checked_session_with_inprocessing() {
        // Every Unsat in this session is machine-checked (config.sat.proof):
        // a ProofCheckFailed would surface as Err from check(). Bitvector
        // terms generate eliminable Tseitin gates, so inprocessing and the
        // epoch-synced cache purge get exercised across scopes.
        let mut cfg = SolverConfig::default();
        cfg.sat.proof = true;
        cfg.sat.inprocess = true;
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(16));
        let y = a.var("y", Sort::BitVec(16));
        let sum = a.bv_add(x, y);
        let c100 = a.bv_const(16, 100);
        let base = a.bv_ult(sum, c100);
        let mut s = SolveSession::new(cfg);
        s.assert(&mut a, base).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        for i in 0..6 {
            s.push();
            let ci = a.bv_const(16, 200 + i);
            let bad = a.eq(sum, ci); // contradicts sum < 100
            s.assert(&mut a, bad).unwrap();
            assert!(s.check(&mut a, false).unwrap().is_unsat());
            s.pop();
            assert!(s.check(&mut a, false).unwrap().is_sat());
        }
        // Transient assumptions give Unsat proofs over assumption literals.
        let c300 = a.bv_const(16, 300);
        let eq300 = a.eq(sum, c300);
        assert!(s
            .check_assuming(&mut a, &[eq300], false)
            .unwrap()
            .is_unsat());
        assert!(s.check(&mut a, true).unwrap().is_sat());
    }

    #[test]
    fn unsat_attribution_names_the_guilty_scope() {
        let mut cfg = SolverConfig::default();
        cfg.sat.blame = true;
        cfg.sat.proof = true;
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let c1 = a.bv_const(8, 1);
        let c2 = a.bv_const(8, 2);
        let y_is_1 = a.eq(y, c1); // irrelevant to the conflict
        let x_is_1 = a.eq(x, c1);
        let x_is_2 = a.eq(x, c2);
        let mut s = SolveSession::new(cfg);
        s.push();
        s.assert(&mut a, y_is_1).unwrap();
        s.push();
        s.assert(&mut a, x_is_1).unwrap();
        assert!(s
            .check_assuming(&mut a, &[x_is_2], false)
            .unwrap()
            .is_unsat());
        let attr = s.last_unsat.clone().expect("unsat records attribution");
        assert!(
            attr.core_scopes.contains(&1),
            "x = 1 scope must be in the core: {attr:?}"
        );
        assert!(
            !attr.core_scopes.contains(&0),
            "irrelevant y scope must not be blamed: {attr:?}"
        );
        assert!(attr.core_extra, "the x = 2 assumption is core");
        assert_eq!(attr.scope_hits.len(), 2);
        // A Sat check clears the record.
        assert!(s.check(&mut a, false).unwrap().is_sat());
        assert!(s.last_unsat.is_none());
    }

    #[test]
    fn session_reports_to_sink() {
        let sink = std::sync::Arc::new(tpot_sat::SatSink::default());
        let mut cfg = SolverConfig::default();
        cfg.sat.sink = Some(sink.clone());
        let mut a = TermArena::new();
        let q = {
            let x = a.var("x", Sort::BitVec(8));
            let c = a.bv_const(8, 5);
            let eq = a.eq(x, c);
            let ne = a.neq(x, c);
            vec![eq, ne]
        };
        let mut s = SolveSession::new(cfg);
        s.assert_many(&mut a, &q).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        let got = sink.load();
        assert!(got.solves >= 1, "sink must see the solve: {got:?}");
        // The sink receives in-solve deltas only (level-0 propagation done
        // while *adding* clauses is setup, not search — the registry sees
        // the same deltas, which is what keeps conservation exact).
        assert_eq!(got.solves, s.sat_stats().solves);
        assert!(got.propagations <= s.sat_stats().propagations);
        // Detaching stops the flow.
        s.set_sink(None);
        assert!(s.check(&mut a, false).unwrap().is_unsat());
        assert_eq!(sink.load().solves, got.solves);
    }

    /// One SAT model that shows two independent LIA conflicts yields both
    /// blocking clauses before the next SAT solve.
    #[test]
    fn one_model_learns_every_conflict() {
        let mut cfg = SolverConfig::default();
        // Every decision sets its variable true, so the first model makes
        // all four atoms true: x <= 0 ∧ x >= 5 and y <= 0 ∧ y >= 5.
        cfg.sat.default_phase = true;
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let y = a.var("iy", Sort::Int);
        let c0 = a.int_const(0);
        let c5 = a.int_const(5);
        let x_le0 = a.int_le(x, c0);
        let x_ge5 = a.int_le(c5, x);
        let y_le0 = a.int_le(y, c0);
        let y_ge5 = a.int_le(c5, y);
        let any = a.or(&[x_le0, x_ge5, y_le0, y_ge5]);
        let mut s = SolveSession::new(cfg);
        s.assert(&mut a, any).unwrap();
        let before = s.sat_stats().solves;
        match s.check(&mut a, true).unwrap() {
            SmtResult::Sat(m) => assert_model_satisfies(&a, &m, &[any]),
            other => panic!("expected sat: {other:?}"),
        }
        // Solve 1 shows both conflicts and learns both clauses; solve 2
        // finds a consistent model. One clause per solve would take three.
        assert_eq!(s.sat_stats().solves - before, 2);
    }

    #[test]
    fn model_after_many_checks_validates() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let y = a.var("iy", Sort::Int);
        let c10 = a.int_const(10);
        let sum = a.int_add2(x, y);
        let a1 = a.int_le(c10, sum);
        let mut s = session();
        s.assert(&mut a, a1).unwrap();
        assert!(s.check(&mut a, false).unwrap().is_sat());
        s.push();
        let c3 = a.int_const(3);
        let a2 = a.int_le(x, c3);
        s.assert(&mut a, a2).unwrap();
        match s.check(&mut a, true).unwrap() {
            SmtResult::Sat(m) => assert_model_satisfies(&a, &m, &[a1, a2]),
            other => panic!("expected sat: {other:?}"),
        }
        s.pop();
        let c100 = a.int_const(100);
        let a3 = a.int_le(c100, x);
        s.assert(&mut a, a3).unwrap();
        match s.check(&mut a, true).unwrap() {
            SmtResult::Sat(m) => assert_model_satisfies(&a, &m, &[a1, a3]),
            other => panic!("expected sat: {other:?}"),
        }
    }
}
