//! The top-level SMT solver: DPLL(T) over the bit-blasted core with lazy
//! linear-integer-arithmetic checks.

use tpot_smt::{Model, TermArena, TermId};

use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::session::SolveSession;

/// Result of a satisfiability check.
#[derive(Clone, Debug)]
pub enum SmtResult {
    /// Satisfiable; the model assigns every relevant variable and function.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Resource limits exhausted (conflict budget or theory rounds).
    Unknown,
}

impl SmtResult {
    /// True for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// True for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }
}

/// A configured SMT solver instance.
///
/// Stateless between queries: `check` takes the arena and assertion set, and
/// is a thin one-shot wrapper over a fresh single-scope [`SolveSession`] —
/// callers that issue related queries should hold a session instead. The
/// engine layers its own caching (§4.3 proof caches, §4.4 persistent query
/// cache) above this.
#[derive(Clone, Debug, Default)]
pub struct SmtSolver {
    /// Instance configuration.
    pub config: SolverConfig,
}

impl SmtSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        SmtSolver { config }
    }

    /// Checks satisfiability of the conjunction of `assertions`.
    pub fn check(
        &self,
        arena: &mut TermArena,
        assertions: &[TermId],
    ) -> Result<SmtResult, SolverError> {
        // Fast path: constant assertions.
        if assertions
            .iter()
            .any(|&t| arena.term(t).as_bool_const() == Some(false))
        {
            return Ok(SmtResult::Unsat);
        }
        let mut session = SolveSession::new(self.config.clone());
        session.assert_many(arena, assertions)?;
        session.check(arena, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_smt::{eval, Sort, Value};

    fn solver() -> SmtSolver {
        SmtSolver::default()
    }

    fn check(arena: &mut TermArena, asserts: &[TermId]) -> SmtResult {
        solver().check(arena, asserts).unwrap()
    }

    /// Validates a model against the original (pre-preprocessing)
    /// assertions, as the paper recommends doing for portfolio results.
    fn assert_model_satisfies(arena: &TermArena, model: &Model, asserts: &[TermId]) {
        for &t in asserts {
            let v = eval(arena, model, t).unwrap();
            assert_eq!(v, Value::Bool(true), "model must satisfy assertion");
        }
    }

    #[test]
    fn pure_bv_sat_with_model() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(16));
        let c = a.bv_const(16, 1234);
        let y = a.var("y", Sort::BitVec(16));
        let sum = a.bv_add(x, y);
        let eq = a.eq(sum, c);
        let five = a.bv_const(16, 5);
        let xc = a.eq(x, five);
        let asserts = vec![eq, xc];
        match check(&mut a, &asserts) {
            SmtResult::Sat(m) => {
                assert_eq!(m.var("x"), Some(&Value::BitVec(16, 5)));
                assert_eq!(m.var("y"), Some(&Value::BitVec(16, 1229)));
                assert_model_satisfies(&a, &m, &asserts);
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn pure_bv_unsat() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let zero = a.bv_const(8, 0);
        let lt = a.bv_ult(x, zero); // nothing is < 0 unsigned
        match check(&mut a, &[lt]) {
            SmtResult::Unsat => {}
            other => panic!("expected unsat: {other:?}"),
        }
    }

    #[test]
    fn lia_sat() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let y = a.var("iy", Sort::Int);
        let c10 = a.int_const(10);
        let sum = a.int_add2(x, y);
        let a1 = a.int_le(c10, sum); // x+y >= 10
        let c3 = a.int_const(3);
        let a2 = a.int_le(x, c3); // x <= 3
        let asserts = vec![a1, a2];
        match check(&mut a, &asserts) {
            SmtResult::Sat(m) => {
                let x = m.var("ix").unwrap().as_int();
                let y = m.var("iy").unwrap().as_int();
                assert!(x + y >= 10 && x <= 3);
                assert_model_satisfies(&a, &m, &asserts);
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn lia_unsat_via_blocking() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let c0 = a.int_const(0);
        let c5 = a.int_const(5);
        let a1 = a.int_le(x, c0);
        let a2 = a.int_le(c5, x);
        match check(&mut a, &[a1, a2]) {
            SmtResult::Unsat => {}
            other => panic!("expected unsat: {other:?}"),
        }
    }

    #[test]
    fn mixed_bool_structure_over_lia() {
        // (x <= 0 or x >= 5) and x = 3 → unsat; x = 7 → sat.
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let c0 = a.int_const(0);
        let c5 = a.int_const(5);
        let le = a.int_le(x, c0);
        let ge = a.int_le(c5, x);
        let disj = a.or2(le, ge);
        let c3 = a.int_const(3);
        let eq3 = a.eq(x, c3);
        match check(&mut a, &[disj, eq3]) {
            SmtResult::Unsat => {}
            other => panic!("expected unsat: {other:?}"),
        }
        let c7 = a.int_const(7);
        let eq7 = a.eq(x, c7);
        match check(&mut a, &[disj, eq7]) {
            SmtResult::Sat(m) => assert_eq!(m.var("ix"), Some(&Value::Int(7))),
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn uf_congruence_enforced() {
        let mut a = TermArena::new();
        let f = a.declare_func("h", vec![Sort::Int], Sort::Int);
        let x = a.var("hx", Sort::Int);
        let y = a.var("hy", Sort::Int);
        let fx = a.apply(f, vec![x]);
        let fy = a.apply(f, vec![y]);
        let eq_args = a.eq(x, y);
        let neq_res = a.neq(fx, fy);
        match check(&mut a, &[eq_args, neq_res]) {
            SmtResult::Unsat => {}
            other => panic!("congruence violated: {other:?}"),
        }
    }

    #[test]
    fn uf_model_reconstruction() {
        let mut a = TermArena::new();
        let f = a.declare_func("h2", vec![Sort::Int], Sort::Int);
        let x = a.var("ux", Sort::Int);
        let fx = a.apply(f, vec![x]);
        let c5 = a.int_const(5);
        let c9 = a.int_const(9);
        let a1 = a.eq(x, c5);
        let a2 = a.eq(fx, c9);
        let asserts = vec![a1, a2];
        match check(&mut a, &asserts) {
            SmtResult::Sat(m) => {
                assert_model_satisfies(&a, &m, &asserts);
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn array_select_store() {
        let mut a = TermArena::new();
        let mem = a.var("mem", Sort::byte_array());
        let i = a.var("i", Sort::BitVec(64));
        let j = a.var("j", Sort::BitVec(64));
        let v = a.bv_const(8, 0xaa);
        let st = a.store(mem, i, v);
        let rd = a.select(st, j);
        let eq_ij = a.eq(i, j);
        let neq_v = a.neq(rd, v);
        // i = j but mem[i := v][j] != v is unsat.
        match check(&mut a, &[eq_ij, neq_v]) {
            SmtResult::Unsat => {}
            other => panic!("expected unsat: {other:?}"),
        }
    }

    #[test]
    fn array_model_reconstruction() {
        let mut a = TermArena::new();
        let mem = a.var("mem2", Sort::byte_array());
        let i = a.bv64(4);
        let rd = a.select(mem, i);
        let c = a.bv_const(8, 0x5c);
        let asrt = a.eq(rd, c);
        let asserts = vec![asrt];
        match check(&mut a, &asserts) {
            SmtResult::Sat(m) => {
                assert_model_satisfies(&a, &m, &asserts);
                match m.var("mem2").unwrap() {
                    Value::Array { entries, .. } => {
                        assert_eq!(
                            entries.get(&4).map(|b| (**b).clone()),
                            Some(Value::BitVec(8, 0x5c))
                        );
                    }
                    other => panic!("expected array value: {other:?}"),
                }
            }
            other => panic!("expected sat: {other:?}"),
        }
    }

    #[test]
    fn bv2int_style_pointer_query() {
        // The canonical TPot §4.3 shape: tpot_bv2int maps pointers to ints;
        // heap layout says b2i(base1) + 8 <= b2i(base2); p inside object 1
        // can't alias base2.
        let mut a = TermArena::new();
        let b2i = a.declare_func("tpot_bv2int", vec![Sort::BitVec(64)], Sort::Int);
        let base1 = a.var("base1", Sort::BitVec(64));
        let base2 = a.var("base2", Sort::BitVec(64));
        let p = a.var("p", Sort::BitVec(64));
        let ib1 = a.apply(b2i, vec![base1]);
        let ib2 = a.apply(b2i, vec![base2]);
        let ip = a.apply(b2i, vec![p]);
        let c8 = a.int_const(8);
        let ib1p8 = a.int_add2(ib1, c8);
        let layout = a.int_le(ib1p8, ib2); // base1 + 8 <= base2
        let lo = a.int_le(ib1, ip);
        let hi = a.int_lt(ip, ib1p8); // p within object 1
        let alias = a.eq(ip, ib2); // claim: p aliases base2
        match check(&mut a, &[layout, lo, hi, alias]) {
            SmtResult::Unsat => {}
            other => panic!("expected unsat: {other:?}"),
        }
    }

    #[test]
    fn trivial_true_and_empty() {
        let mut a = TermArena::new();
        let t = a.tru();
        assert!(check(&mut a, &[t]).is_sat());
        assert!(check(&mut a, &[]).is_sat());
        let f = a.fls();
        assert!(check(&mut a, &[f]).is_unsat());
    }

    #[test]
    fn bool_var_model() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let nq = a.not(q);
        let both = a.and2(p, nq);
        match check(&mut a, &[both]) {
            SmtResult::Sat(m) => {
                assert_eq!(m.var("p"), Some(&Value::Bool(true)));
                assert_eq!(m.var("q"), Some(&Value::Bool(false)));
            }
            other => panic!("expected sat: {other:?}"),
        }
    }
}
