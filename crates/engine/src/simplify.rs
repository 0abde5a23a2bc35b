//! The solver-aided query simplifier (paper §4.3).
//!
//! Two simplifications, both of which issue *intermediate SMT queries* and
//! cache the resulting proofs:
//!
//! - **Read after write**: `(select (store a j v) i)` simplifies to `v` when
//!   `i = j` is provable under the path condition, and to `(select a i)`
//!   when `i ≠ j` is provable. Proofs are cached per state lineage — once
//!   proven, a simplification stays sound because path conditions only
//!   strengthen.
//! - **Constant offsets**: when the difference between a resolved pointer
//!   and its object base is provably constant, the offset is rewritten to
//!   that constant and reused in all later reads (the arena's syntactic
//!   read-over-write then fires for free).

use tpot_smt::{Kind, TermArena, TermId};

use crate::query::{EngineError, QueryCtx};
use crate::state::State;
use crate::stats::QueryPurpose;

/// Budget of solver queries per simplification pass (keeps worst-case
/// simplification cost bounded, per the paper's stability goal).
const MAX_QUERIES_PER_PASS: u32 = 64;

/// Simplifies a freshly built read term. Descends through `Concat` (the
/// multi-byte read structure) and simplifies every `Select` with the proof
/// cache + solver.
pub fn simplify_read(
    solver: &mut QueryCtx,
    arena: &mut TermArena,
    state: &mut State,
    t: TermId,
) -> Result<TermId, EngineError> {
    let mut budget = MAX_QUERIES_PER_PASS;
    simplify_rec(solver, arena, state, t, &mut budget)
}

fn simplify_rec(
    solver: &mut QueryCtx,
    arena: &mut TermArena,
    state: &mut State,
    t: TermId,
    budget: &mut u32,
) -> Result<TermId, EngineError> {
    let node = arena.term(t).clone();
    match node.kind {
        Kind::Concat => {
            let hi = simplify_rec(solver, arena, state, node.args[0], budget)?;
            let lo = simplify_rec(solver, arena, state, node.args[1], budget)?;
            Ok(arena.concat(hi, lo))
        }
        Kind::Select => {
            let arr = node.args[0];
            let idx = node.args[1];
            simplify_select(solver, arena, state, arr, idx, budget)
        }
        Kind::Extract { hi, lo } => {
            let inner = simplify_rec(solver, arena, state, node.args[0], budget)?;
            Ok(arena.extract(inner, hi, lo))
        }
        _ => Ok(t),
    }
}

/// Walks a store chain under a select, proving index (dis)equalities.
fn simplify_select(
    solver: &mut QueryCtx,
    arena: &mut TermArena,
    state: &mut State,
    mut arr: TermId,
    idx: TermId,
    budget: &mut u32,
) -> Result<TermId, EngineError> {
    loop {
        let node = arena.term(arr).clone();
        if node.kind != Kind::Store {
            return Ok(arena.select(arr, idx));
        }
        let (below, j, v) = (node.args[0], node.args[1], node.args[2]);
        // Syntactic cases are already handled by the arena builder; here we
        // consult the proof cache, then the solver.
        if j == idx {
            return Ok(v);
        }
        match state.raw_proofs.get(&(j, idx)).copied() {
            Some(true) => {
                solver.stats.raw_cache_hits += 1;
                return Ok(v);
            }
            Some(false) => {
                solver.stats.raw_cache_hits += 1;
                arr = below;
                continue;
            }
            None => {}
        }
        if *budget == 0 {
            return Ok(arena.select(arr, idx));
        }
        *budget -= 1;
        let eq = arena.eq(j, idx);
        if solver.is_valid(arena, &state.path, eq, QueryPurpose::Simplify)? {
            state.raw_proofs.insert((j, idx), true);
            solver.stats.raw_simplifications += 1;
            return Ok(v);
        }
        if *budget == 0 {
            return Ok(arena.select(arr, idx));
        }
        *budget -= 1;
        let ne = arena.neq(j, idx);
        if solver.is_valid(arena, &state.path, ne, QueryPurpose::Simplify)? {
            state.raw_proofs.insert((j, idx), false);
            solver.stats.raw_simplifications += 1;
            arr = below;
            continue;
        }
        // Ambiguous: leave the select in place (the solver decides later).
        return Ok(arena.select(arr, idx));
    }
}

/// Tries to rewrite `idx` into a constant index when the path condition
/// pins it (§4.3 "Constant offsets"). Returns the (possibly) rewritten
/// index.
pub fn constantize_index(
    solver: &mut QueryCtx,
    arena: &mut TermArena,
    state: &mut State,
    idx: TermId,
) -> Result<TermId, EngineError> {
    if arena.term(idx).is_const() {
        return Ok(idx);
    }
    if let Some(&c) = state.const_offsets.get(&idx) {
        solver.stats.const_offset_hits += 1;
        return Ok(c);
    }
    // Ask for a model, then check the value is forced.
    let t = arena.tru();
    let Some(model) = solver.model(arena, &state.path, t, QueryPurpose::Simplify)? else {
        return Ok(idx);
    };
    let val = match tpot_smt::eval(arena, &model, idx) {
        Ok(v) => v,
        Err(_) => return Ok(idx),
    };
    let cand = match (&val, arena.sort(idx)) {
        (tpot_smt::Value::Int(v), tpot_smt::Sort::Int) => arena.int_const(*v),
        (tpot_smt::Value::BitVec(w, v), tpot_smt::Sort::BitVec(_)) => arena.bv_const(*w, *v),
        _ => return Ok(idx),
    };
    let eq = arena.eq(idx, cand);
    if solver.is_valid(arena, &state.path, eq, QueryPurpose::Simplify)? {
        state.const_offsets.insert(idx, cand);
        solver.stats.const_offset_hits += 1;
        Ok(cand)
    } else {
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_mem::{AddrMode, Memory};
    use tpot_portfolio::Portfolio;
    use tpot_smt::Sort;

    fn setup() -> (TermArena, State, QueryCtx) {
        let mut a = TermArena::new();
        let mem = Memory::new(&mut a, AddrMode::Int);
        let st = State::new(mem);
        let q = QueryCtx::new(Portfolio::default());
        (a, st, q)
    }

    #[test]
    fn raw_simplifies_provably_equal_indices() {
        let (mut a, mut st, mut q) = setup();
        let arr = a.var(
            "arr",
            Sort::Array(Box::new(Sort::Int), Box::new(Sort::BitVec(8))),
        );
        let i = a.var("i", Sort::Int);
        let j = a.var("j", Sort::Int);
        let v = a.bv_const(8, 0x2a);
        // path: i == j
        let eq = a.eq(i, j);
        st.assume(eq);
        let stored = a.store(arr, i, v);
        let rd = a.select(stored, j);
        let s = simplify_read(&mut q, &mut a, &mut st, rd).unwrap();
        assert_eq!(s, v);
        assert_eq!(q.stats.raw_simplifications, 1);
        // Cache hit on repetition.
        let rd2 = a.select(stored, j);
        let s2 = simplify_read(&mut q, &mut a, &mut st, rd2).unwrap();
        assert_eq!(s2, v);
        assert!(q.stats.raw_cache_hits >= 1);
    }

    #[test]
    fn raw_skips_provably_distinct_store() {
        let (mut a, mut st, mut q) = setup();
        let arr = a.var(
            "arr2",
            Sort::Array(Box::new(Sort::Int), Box::new(Sort::BitVec(8))),
        );
        let i = a.var("i2", Sort::Int);
        let j = a.var("j2", Sort::Int);
        let v = a.bv_const(8, 1);
        let lt = a.int_lt(i, j);
        st.assume(lt); // i < j → i != j
        let stored = a.store(arr, i, v);
        let rd = a.select(stored, j);
        let s = simplify_read(&mut q, &mut a, &mut st, rd).unwrap();
        // Must look through the store to the base array.
        let expect = a.select(arr, j);
        assert_eq!(s, expect);
    }

    #[test]
    fn raw_leaves_ambiguous_reads() {
        let (mut a, mut st, mut q) = setup();
        let arr = a.var(
            "arr3",
            Sort::Array(Box::new(Sort::Int), Box::new(Sort::BitVec(8))),
        );
        let i = a.var("i3", Sort::Int);
        let j = a.var("j3", Sort::Int);
        let v = a.bv_const(8, 1);
        let stored = a.store(arr, i, v);
        let rd = a.select(stored, j);
        let s = simplify_read(&mut q, &mut a, &mut st, rd).unwrap();
        assert_eq!(s, rd, "no relation between i and j: keep the select");
    }

    #[test]
    fn constantize_pins_forced_index() {
        let (mut a, mut st, mut q) = setup();
        let i = a.var("ci", Sort::Int);
        let five = a.int_const(5);
        let eq = a.eq(i, five);
        st.assume(eq);
        let c = constantize_index(&mut q, &mut a, &mut st, i).unwrap();
        assert_eq!(c, five);
        // Cached second time.
        let before = q.stats.num_queries;
        let c2 = constantize_index(&mut q, &mut a, &mut st, i).unwrap();
        assert_eq!(c2, five);
        assert_eq!(q.stats.num_queries, before);
    }

    #[test]
    fn constantize_leaves_free_index() {
        let (mut a, mut st, mut q) = setup();
        let i = a.var("cf", Sort::Int);
        let zero = a.int_const(0);
        let ge = a.int_le(zero, i);
        st.assume(ge);
        let c = constantize_index(&mut q, &mut a, &mut st, i).unwrap();
        assert_eq!(c, i, "unforced index must stay symbolic");
    }
}
