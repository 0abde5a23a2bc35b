//! Differential harnesses. Each one runs a query through two (or three)
//! independently implemented semantics and returns `Err(detail)` on any
//! verdict or model-validation disagreement; the runner turns that into a
//! reduced repro.

use tpot_smt::{print::to_smtlib, TermArena, TermId};
use tpot_solver::{SmtResult, SmtSolver, SolveSession, SolverConfig};

use crate::gen::{Domain, PairedQuery};
use crate::oracle::{brute_force, model_satisfies, Verdict};
use crate::rng::Rng;

/// Per-harness outcome counted by the runner. `Skipped` covers boxes over
/// the enumeration cap and solver `Unknown`s (recorded, never silently
/// dropped); everything else is a definite agreement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agreement {
    Sat,
    Unsat,
    Skipped,
}

pub fn solve(arena: &mut TermArena, assertions: &[TermId]) -> Result<SmtResult, String> {
    let solver = SmtSolver::new(SolverConfig::default());
    solver
        .check(arena, assertions)
        .map_err(|e| format!("solver error: {e}"))
}

fn verdict_of(r: &SmtResult) -> Option<Verdict> {
    match r {
        SmtResult::Sat(_) => Some(Verdict::Sat),
        SmtResult::Unsat => Some(Verdict::Unsat),
        SmtResult::Unknown => None,
    }
}

/// DPLL(T) solver vs exhaustive enumeration on an enumerable query.
/// Also validates any solver model against `eval` — a solver that answers
/// "sat" for the right reason with a wrong witness is still broken.
pub fn solver_vs_brute(
    arena: &mut TermArena,
    assertions: &[TermId],
    domains: &[(String, Domain)],
    cap: u64,
) -> Result<Agreement, String> {
    let Some(brute) = brute_force(arena, assertions, domains, cap) else {
        return Ok(Agreement::Skipped);
    };
    let res = solve(arena, assertions)?;
    let Some(v) = verdict_of(&res) else {
        return Ok(Agreement::Skipped);
    };
    if v != brute.verdict {
        return Err(format!(
            "solver says {v:?} but brute force over {} assignments says {:?}",
            brute.assignments_tried, brute.verdict
        ));
    }
    if let SmtResult::Sat(m) = &res {
        if let Err(i) = model_satisfies(arena, m, assertions) {
            return Err(format!(
                "solver model does not satisfy assertion #{i} under eval"
            ));
        }
    }
    Ok(match v {
        Verdict::Sat => Agreement::Sat,
        Verdict::Unsat => Agreement::Unsat,
    })
}

/// Cone-of-influence slicing must be invisible: the sliced arena prints the
/// same SMT-LIB text, and solving the slice gives the same verdict (with a
/// valid model) as solving in the original arena.
pub fn sliced_vs_full(arena: &mut TermArena, assertions: &[TermId]) -> Result<Agreement, String> {
    let (mut sliced, roots) = arena.slice(assertions);
    let full_text = to_smtlib(arena, assertions);
    let sliced_text = to_smtlib(&sliced, &roots);
    if full_text != sliced_text {
        return Err("sliced arena prints different SMT-LIB than full arena".to_string());
    }

    let full_res = solve(arena, assertions)?;
    let sliced_res = solve(&mut sliced, &roots)?;
    let (fv, sv) = (verdict_of(&full_res), verdict_of(&sliced_res));
    match (fv, sv) {
        (Some(a), Some(b)) if a != b => {
            return Err(format!("full arena says {a:?} but sliced arena says {b:?}"))
        }
        (None, _) | (_, None) => return Ok(Agreement::Skipped),
        _ => {}
    }
    if let SmtResult::Sat(m) = &full_res {
        if let Err(i) = model_satisfies(arena, m, assertions) {
            return Err(format!("full-arena model fails assertion #{i} under eval"));
        }
    }
    if let SmtResult::Sat(m) = &sliced_res {
        if let Err(i) = model_satisfies(&sliced, m, &roots) {
            return Err(format!(
                "sliced-arena model fails assertion #{i} under eval"
            ));
        }
    }
    Ok(match fv.unwrap() {
        Verdict::Sat => Agreement::Sat,
        Verdict::Unsat => Agreement::Unsat,
    })
}

/// Incremental [`SolveSession`] vs from-scratch one-shot solving.
///
/// Replays the assertion stream through one long-lived session under a
/// randomized interleaving of `push`, `pop`, scoped `assert`, and
/// `check_assuming` (with not-yet-asserted stream terms as assumption
/// literals). At every checkpoint the session's verdict must match a fresh
/// one-shot `check` over exactly the assertions currently in scope plus
/// the assumptions — the session's retained learned clauses, persistent
/// bit-blast cache, and popped-scope activation guards must all be
/// verdict-invisible. Sat models from the session are validated under
/// `eval` against the in-scope assertions and assumptions.
pub fn incremental_vs_oneshot(
    arena: &mut TermArena,
    assertions: &[TermId],
    rng: &mut Rng,
) -> Result<Agreement, String> {
    let config = SolverConfig::default();
    let mut session = SolveSession::new(config.clone());
    // scopes[0] is the base; scopes[1..] mirror session push/pop depth.
    let mut scopes: Vec<Vec<TermId>> = vec![Vec::new()];
    let mut any_unknown = false;

    let checkpoint = |session: &mut SolveSession,
                      scopes: &[Vec<TermId>],
                      assumptions: &[TermId],
                      arena: &mut TermArena,
                      any_unknown: &mut bool|
     -> Result<Agreement, String> {
        let inc = session
            .check_assuming(arena, assumptions, true)
            .map_err(|e| format!("session error: {e}"))?;
        let mut in_scope: Vec<TermId> = scopes.iter().flatten().copied().collect();
        in_scope.extend_from_slice(assumptions);
        let one = SmtSolver::new(config.clone())
            .check(arena, &in_scope)
            .map_err(|e| format!("one-shot error: {e}"))?;
        let (iv, ov) = (verdict_of(&inc), verdict_of(&one));
        match (iv, ov) {
            (Some(a), Some(b)) if a != b => {
                return Err(format!(
                    "session (depth {}, {} assumptions) says {a:?} but one-shot says {b:?}",
                    scopes.len() - 1,
                    assumptions.len()
                ));
            }
            (None, _) | (_, None) => {
                *any_unknown = true;
                return Ok(Agreement::Skipped);
            }
            _ => {}
        }
        if let SmtResult::Sat(m) = &inc {
            if let Err(i) = model_satisfies(arena, m, &in_scope) {
                return Err(format!(
                    "session model fails in-scope assertion #{i} under eval"
                ));
            }
        }
        Ok(match iv.unwrap() {
            Verdict::Sat => Agreement::Sat,
            Verdict::Unsat => Agreement::Unsat,
        })
    };

    for (i, &t) in assertions.iter().enumerate() {
        // Occasionally open a scope before asserting (bounded depth).
        if scopes.len() < 4 && rng.chance(1, 3) {
            session.push();
            scopes.push(Vec::new());
        }
        session
            .assert(arena, t)
            .map_err(|e| format!("session assert error: {e}"))?;
        scopes.last_mut().unwrap().push(t);
        // Occasionally check, with up to two not-yet-asserted stream terms
        // as assumptions.
        if rng.chance(1, 3) {
            let rest = &assertions[i + 1..];
            let n = (rng.below(3) as usize).min(rest.len());
            let assumptions: Vec<TermId> = rest[..n].to_vec();
            checkpoint(&mut session, &scopes, &assumptions, arena, &mut any_unknown)?;
        }
        // Occasionally pop a scope (its assertions leave the one-shot set).
        if scopes.len() > 1 && rng.chance(1, 4) {
            session.pop();
            scopes.pop();
        }
    }
    // Final checkpoint over whatever remains in scope.
    let last = checkpoint(&mut session, &scopes, &[], arena, &mut any_unknown)?;
    if any_unknown {
        return Ok(Agreement::Skipped);
    }
    Ok(last)
}

/// Proof-checked solving: every Unsat answer must come with a DRAT proof
/// the independent RUP checker accepts.
///
/// Runs the query one-shot with `config.sat.proof` forced on; the solver
/// layer replays the proof through `tpot_sat::proof` on every Unsat and
/// surfaces rejection as `SolverError::ProofCheckFailed`, which this
/// harness reports as the discrepancy. Sat answers validate the model under `eval`, so the mode is
/// an oracle on both verdicts: Unsat answers are machine-checked, Sat
/// answers are witness-checked.
pub fn proof_checked(arena: &mut TermArena, assertions: &[TermId]) -> Result<Agreement, String> {
    let mut config = SolverConfig::default();
    config.sat.proof = true;
    let res = SmtSolver::new(config)
        .check(arena, assertions)
        .map_err(|e| format!("proof-checked solve: {e}"))?;
    if let SmtResult::Sat(m) = &res {
        if let Err(i) = model_satisfies(arena, m, assertions) {
            return Err(format!(
                "proof-checked model fails assertion #{i} under eval"
            ));
        }
    }
    Ok(match verdict_of(&res) {
        Some(Verdict::Sat) => Agreement::Sat,
        Some(Verdict::Unsat) => Agreement::Unsat,
        None => Agreement::Skipped,
    })
}

/// Simplex (LIA path) vs bit-blasting on structurally parallel queries
/// that are equisatisfiable by construction (`gen::gen_paired`). On
/// disagreement, brute force over the integer box adjudicates which
/// encoding is lying.
pub fn lia_vs_bv(arena: &mut TermArena, q: &PairedQuery, cap: u64) -> Result<Agreement, String> {
    let int_res = solve(arena, &q.int_assertions)?;
    let bv_res = solve(arena, &q.bv_assertions)?;
    let (iv, bv) = (verdict_of(&int_res), verdict_of(&bv_res));
    match (iv, bv) {
        (Some(a), Some(b)) if a != b => {
            let truth = brute_force(arena, &q.int_assertions, &q.domains, cap)
                .map(|o| format!("{:?}", o.verdict))
                .unwrap_or_else(|| "unadjudicated".to_string());
            return Err(format!(
                "LIA path says {a:?} but bit-blasting says {b:?} (brute force: {truth})"
            ));
        }
        (None, _) | (_, None) => return Ok(Agreement::Skipped),
        _ => {}
    }
    if let SmtResult::Sat(m) = &int_res {
        if let Err(i) = model_satisfies(arena, m, &q.int_assertions) {
            return Err(format!("LIA model fails int assertion #{i} under eval"));
        }
    }
    if let SmtResult::Sat(m) = &bv_res {
        if let Err(i) = model_satisfies(arena, m, &q.bv_assertions) {
            return Err(format!(
                "bit-blasted model fails bv assertion #{i} under eval"
            ));
        }
    }
    Ok(match iv.unwrap() {
        Verdict::Sat => Agreement::Sat,
        Verdict::Unsat => Agreement::Unsat,
    })
}
