//! Query preprocessing: array elimination, Ackermann expansion, integer
//! purification.
//!
//! TPot's encoding keeps queries quantifier-free (§4.3), which makes eager
//! elimination of the non-propositional theories sound and cheap:
//!
//! 1. **Arrays**: `select`-over-`store` chains are rewritten to `ite`
//!    cascades; the remaining `select`s over base arrays become fresh
//!    variables with pairwise congruence constraints (Ackermann reduction
//!    for the theory of arrays without extensionality).
//! 2. **Uninterpreted functions** (`tpot_bv2int`, `heap_safe`): each
//!    application becomes a fresh variable; pairwise congruence axioms
//!    preserve functional consistency.
//! 3. **Integer `ite`** purification and **integer relation** lowering
//!    (`a = b` → `a ≤ b ∧ b ≤ a`; `a < b` → `a+1 ≤ b`), so the LIA engine
//!    only ever sees `≤`-atoms.

use std::collections::HashMap;

use tpot_smt::subst::rebuild;
use tpot_smt::{FuncId, Kind, Sort, TermArena, TermId};

use crate::error::SolverError;

/// Output of preprocessing: rewritten assertions plus the bookkeeping needed
/// to reconstruct array and function interpretations in models.
#[derive(Default, Debug)]
pub struct PreprocessOutput {
    /// The rewritten assertion set (original assertions plus instantiated
    /// congruence axioms).
    pub assertions: Vec<TermId>,
    /// For each base array variable: the `(index term, selected-value
    /// variable)` pairs introduced by Ackermann reduction.
    pub array_selects: Vec<(TermId, Vec<(TermId, TermId)>)>,
    /// For each uninterpreted function: the `(argument terms, result
    /// variable)` pairs introduced by Ackermann expansion.
    pub uf_apps: Vec<(FuncId, Vec<UfApp>)>,
}

/// One Ackermann-expanded application: `(argument terms, result variable)`.
pub type UfApp = (Vec<TermId>, TermId);

/// Runs the full preprocessing pipeline (one-shot).
///
/// Thin wrapper over a fresh [`IncPreprocess`]; incremental sessions keep
/// the `IncPreprocess` alive so rewrite caches, Ackermann maps, and the
/// congruence-axiom high-water marks persist across checks.
pub fn preprocess(
    arena: &mut TermArena,
    assertions: &[TermId],
) -> Result<PreprocessOutput, SolverError> {
    let mut inc = IncPreprocess::new();
    let delta = inc.process(arena, assertions)?;
    let mut all = delta.assertions;
    all.extend(delta.defs);
    Ok(PreprocessOutput {
        assertions: all,
        array_selects: inc.array_selects(),
        uf_apps: inc.uf_apps(),
    })
}

/// Output of one incremental preprocessing step.
#[derive(Default, Debug)]
pub struct PreprocessDelta {
    /// Lowered forms of the input assertions, in input order. These carry
    /// the input's truth value and must be asserted under the caller's
    /// current scope.
    pub assertions: Vec<TermId>,
    /// Definitional side constraints: congruence axioms for newly seen
    /// select/application pairs and integer-`ite` purification implications.
    /// These are valid independent of any scope (they only define fresh
    /// variables or state theory-valid facts about them), so a session
    /// asserts them unguarded and keeps them across `pop`.
    pub defs: Vec<TermId>,
}

/// Incremental preprocessing state for a solve session.
///
/// All rewrite caches and Ackermann maps persist, so a term preprocessed in
/// an earlier check maps to the *same* rewritten term (and the same
/// `sel!`/`uf!`/`k!int` variables) in every later check — which is what
/// keeps the bit-blast cache downstream valid. Congruence axioms are
/// instantiated pairwise exactly once per pair, tracked by per-array /
/// per-function high-water marks.
#[derive(Clone, Default, Debug)]
pub struct IncPreprocess {
    cache1: HashMap<TermId, TermId>,
    sel_map: HashMap<(TermId, TermId), TermId>,
    cache2: HashMap<TermId, TermId>,
    app_map: HashMap<TermId, TermId>,
    app_info: HashMap<FuncId, Vec<UfApp>>,
    cache3: HashMap<TermId, TermId>,
    cache4: HashMap<TermId, TermId>,
    /// Per-array select lists in discovery order; all pairs among the first
    /// `sel_done[arr]` entries already have congruence axioms.
    sels: HashMap<TermId, Vec<(TermId, TermId)>>,
    sel_done: HashMap<TermId, usize>,
    uf_done: HashMap<FuncId, usize>,
}

impl IncPreprocess {
    /// Creates empty preprocessing state.
    pub fn new() -> Self {
        IncPreprocess::default()
    }

    /// Preprocesses `assertions`, reusing all prior state. Returns the
    /// lowered assertions plus any *new* definitional constraints.
    pub fn process(
        &mut self,
        arena: &mut TermArena,
        assertions: &[TermId],
    ) -> Result<PreprocessDelta, SolverError> {
        // Pass 1: push selects through stores.
        let mut cur: Vec<TermId> = Vec::with_capacity(assertions.len());
        for &t in assertions {
            cur.push(push_selects(arena, t, &mut self.cache1)?);
        }
        // Pass 2: Ackermannize base-array selects.
        let mut next: Vec<TermId> = Vec::with_capacity(cur.len());
        for &t in &cur {
            next.push(ackermannize_selects(
                arena,
                t,
                &mut self.sel_map,
                &mut self.sels,
                &mut self.cache2,
            )?);
        }
        cur = next;
        // New select congruence axioms (new pairs only).
        let mut axioms: Vec<TermId> = Vec::new();
        let mut arrays: Vec<TermId> = self.sels.keys().copied().collect();
        arrays.sort_unstable();
        for arr in arrays {
            let list = self.sels[&arr].clone();
            let done = *self.sel_done.get(&arr).unwrap_or(&0);
            for j in done..list.len() {
                for i in 0..j {
                    let (i1, v1) = list[i];
                    let (i2, v2) = list[j];
                    let guard = arena.eq(i1, i2);
                    let concl = arena.eq(v1, v2);
                    axioms.push(arena.implies(guard, concl));
                }
            }
            self.sel_done.insert(arr, list.len());
        }
        // Pass 3: Ackermannize UF applications — over the rewritten
        // assertions *and* the new array axioms (whose index terms may
        // contain `Apply` nodes).
        cur.extend(axioms);
        let n_main = assertions.len();
        let mut next: Vec<TermId> = Vec::with_capacity(cur.len());
        for &t in &cur {
            next.push(ackermannize_ufs(
                arena,
                t,
                &mut self.app_map,
                &mut self.app_info,
                &mut self.cache3,
            )?);
        }
        cur = next;
        // New UF congruence axioms.
        let mut funcs: Vec<FuncId> = self.app_info.keys().copied().collect();
        funcs.sort_by_key(|f| f.0);
        for f in funcs {
            let apps = self.app_info[&f].clone();
            let done = *self.uf_done.get(&f).unwrap_or(&0);
            for j in done..apps.len() {
                for i in 0..j {
                    let (args1, r1) = &apps[i];
                    let (args2, r2) = &apps[j];
                    let eqs: Vec<TermId> = args1
                        .iter()
                        .zip(args2.iter())
                        .map(|(&a, &b)| arena.eq(a, b))
                        .collect();
                    let guard = arena.and(&eqs);
                    let concl = arena.eq(*r1, *r2);
                    cur.push(arena.implies(guard, concl));
                }
            }
            self.uf_done.insert(f, apps.len());
        }
        // Pass 4: purify integer ites, lower integer relations — over
        // everything (axioms contain integer equalities to lower).
        let mut side: Vec<TermId> = Vec::new();
        let mut next: Vec<TermId> = Vec::with_capacity(cur.len());
        for &t in &cur {
            next.push(lower_ints(arena, t, &mut self.cache4, &mut side)?);
        }
        let defs: Vec<TermId> = next.split_off(n_main).into_iter().chain(side).collect();
        Ok(PreprocessDelta {
            assertions: next,
            defs,
        })
    }

    /// Accumulated `(array, (index, select-var))` records, sorted for
    /// deterministic model reconstruction.
    pub fn array_selects(&self) -> Vec<(TermId, Vec<(TermId, TermId)>)> {
        let mut out: Vec<(TermId, Vec<(TermId, TermId)>)> = self
            .sels
            .iter()
            .map(|(&arr, list)| {
                let mut l = list.clone();
                l.sort_unstable();
                (arr, l)
            })
            .collect();
        out.sort_by_key(|(a, _)| *a);
        out
    }

    /// Accumulated `(function, applications)` records, sorted by function.
    pub fn uf_apps(&self) -> Vec<(FuncId, Vec<UfApp>)> {
        let mut out: Vec<(FuncId, Vec<UfApp>)> = self
            .app_info
            .iter()
            .map(|(&f, apps)| (f, apps.clone()))
            .collect();
        out.sort_by_key(|(f, _)| f.0);
        out
    }
}

/// Rewrites `select(store(a,i,v), j)` into `ite(i=j, v, select(a,j))`,
/// bottom-up.
fn push_selects(
    arena: &mut TermArena,
    t: TermId,
    cache: &mut HashMap<TermId, TermId>,
) -> Result<TermId, SolverError> {
    if let Some(&r) = cache.get(&t) {
        return Ok(r);
    }
    let node = arena.term(t).clone();
    let mut args = Vec::with_capacity(node.args.len());
    for &a in &node.args {
        args.push(push_selects(arena, a, cache)?);
    }
    let r = if node.kind == Kind::Select {
        select_through(arena, args[0], args[1])?
    } else if args == node.args {
        t
    } else {
        rebuild(arena, &node.kind, &args)
    };
    cache.insert(t, r);
    Ok(r)
}

fn select_through(arena: &mut TermArena, arr: TermId, idx: TermId) -> Result<TermId, SolverError> {
    let node = arena.term(arr).clone();
    match node.kind {
        Kind::Store => {
            let base = node.args[0];
            let i = node.args[1];
            let v = node.args[2];
            let hit = arena.eq(i, idx);
            let rest = select_through(arena, base, idx)?;
            Ok(arena.ite(hit, v, rest))
        }
        Kind::Var(_) => Ok(arena.select(arr, idx)),
        Kind::Ite => {
            let c = node.args[0];
            let t = select_through(arena, node.args[1], idx)?;
            let e = select_through(arena, node.args[2], idx)?;
            Ok(arena.ite(c, t, e))
        }
        other => Err(SolverError::Unsupported(format!(
            "select over array term kind {other:?}"
        ))),
    }
}

/// Replaces `select(A, i)` (A a base array variable) by a fresh variable,
/// appending each new one to `sels[A]` in discovery order.
fn ackermannize_selects(
    arena: &mut TermArena,
    t: TermId,
    sel_map: &mut HashMap<(TermId, TermId), TermId>,
    sels: &mut HashMap<TermId, Vec<(TermId, TermId)>>,
    cache: &mut HashMap<TermId, TermId>,
) -> Result<TermId, SolverError> {
    if let Some(&r) = cache.get(&t) {
        return Ok(r);
    }
    let node = arena.term(t).clone();
    let mut args = Vec::with_capacity(node.args.len());
    for &a in &node.args {
        args.push(ackermannize_selects(arena, a, sel_map, sels, cache)?);
    }
    let r = if node.kind == Kind::Select {
        let (arr, idx) = (args[0], args[1]);
        debug_assert!(matches!(arena.term(arr).kind, Kind::Var(_)));
        if let Some(&v) = sel_map.get(&(arr, idx)) {
            v
        } else {
            let esort = match arena.sort(arr) {
                Sort::Array(_, e) => (**e).clone(),
                s => return Err(SolverError::Unsupported(format!("select on non-array {s}"))),
            };
            let name = format!("sel!{}!{}", arr.0, idx.0);
            let v = arena.var(&name, esort);
            sel_map.insert((arr, idx), v);
            sels.entry(arr).or_default().push((idx, v));
            v
        }
    } else if args == node.args {
        t
    } else {
        rebuild(arena, &node.kind, &args)
    };
    cache.insert(t, r);
    Ok(r)
}

/// Replaces `f(args…)` applications by variables named after the rebuilt
/// application (`uf!<f>!<app id>`).
///
/// Preprocessing runs in the engine's arena, so it never draws from the
/// arena's fresh-name counter: a query answered from the proof cache skips
/// preprocessing, and a counter draw here would rename every later engine
/// variable of the POT, and so change every later query's fingerprint.
fn ackermannize_ufs(
    arena: &mut TermArena,
    t: TermId,
    app_map: &mut HashMap<TermId, TermId>,
    app_info: &mut HashMap<FuncId, Vec<(Vec<TermId>, TermId)>>,
    cache: &mut HashMap<TermId, TermId>,
) -> Result<TermId, SolverError> {
    if let Some(&r) = cache.get(&t) {
        return Ok(r);
    }
    let node = arena.term(t).clone();
    let mut args = Vec::with_capacity(node.args.len());
    for &a in &node.args {
        args.push(ackermannize_ufs(arena, a, app_map, app_info, cache)?);
    }
    let r = if let Kind::Apply(f) = node.kind {
        let rebuilt = arena.apply(f, args.clone());
        if let Some(&v) = app_map.get(&rebuilt) {
            v
        } else {
            let ret = arena.func(f).ret.clone();
            let fname = arena.func(f).name.clone();
            let v = arena.var(&format!("uf!{fname}!{}", rebuilt.0), ret);
            app_map.insert(rebuilt, v);
            app_info.entry(f).or_default().push((args, v));
            v
        }
    } else if args == node.args {
        t
    } else {
        rebuild(arena, &node.kind, &args)
    };
    cache.insert(t, r);
    Ok(r)
}

/// Purifies integer `ite`s into variables named after the `ite` they
/// replace (`k!int!<ite id>`; no fresh names, see [`ackermannize_ufs`])
/// and lowers integer relations to `≤`-atoms.
fn lower_ints(
    arena: &mut TermArena,
    t: TermId,
    cache: &mut HashMap<TermId, TermId>,
    side: &mut Vec<TermId>,
) -> Result<TermId, SolverError> {
    if let Some(&r) = cache.get(&t) {
        return Ok(r);
    }
    let node = arena.term(t).clone();
    let mut args = Vec::with_capacity(node.args.len());
    for &a in &node.args {
        args.push(lower_ints(arena, a, cache, side)?);
    }
    let r = match &node.kind {
        Kind::Ite if node.sort == Sort::Int => {
            let v = arena.var(&format!("k!int!{}", t.0), Sort::Int);
            let eq_t = arena.eq(v, args[1]);
            let eq_t = lower_int_eq(arena, eq_t);
            let eq_e = arena.eq(v, args[2]);
            let eq_e = lower_int_eq(arena, eq_e);
            let c = args[0];
            let imp1 = arena.implies(c, eq_t);
            let nc = arena.not(c);
            let imp2 = arena.implies(nc, eq_e);
            side.push(imp1);
            side.push(imp2);
            v
        }
        Kind::Eq if arena.sort(args[0]).is_int() => {
            let e = arena.eq(args[0], args[1]);
            lower_int_eq(arena, e)
        }
        Kind::IntLt => {
            let one = arena.int_const(1);
            let lhs1 = arena.int_add2(args[0], one);
            arena.int_le(lhs1, args[1])
        }
        _ => {
            if args == node.args {
                t
            } else {
                rebuild(arena, &node.kind, &args)
            }
        }
    };
    cache.insert(t, r);
    Ok(r)
}

/// Lowers an integer equality term to a conjunction of two `≤`-atoms.
fn lower_int_eq(arena: &mut TermArena, e: TermId) -> TermId {
    let node = arena.term(e).clone();
    if node.kind != Kind::Eq || !arena.sort(node.args[0]).is_int() {
        return e;
    }
    let (a, b) = (node.args[0], node.args[1]);
    let le1 = arena.int_le(a, b);
    let le2 = arena.int_le(b, a);
    arena.and2(le1, le2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_smt::print::term_to_string;

    #[test]
    fn select_store_becomes_ite() {
        let mut a = TermArena::new();
        let arr = a.var("m", Sort::byte_array());
        let i = a.var("i", Sort::BitVec(64));
        let j = a.var("j", Sort::BitVec(64));
        let v = a.bv_const(8, 7);
        let st = a.store(arr, i, v);
        let sel = a.select(st, j);
        let zero = a.bv_const(8, 0);
        let asrt = a.eq(sel, zero);
        let out = preprocess(&mut a, &[asrt]).unwrap();
        for &t in &out.assertions {
            let s = term_to_string(&a, t);
            assert!(!s.contains("store"), "store must be eliminated: {s}");
            assert!(!s.contains("select"), "select must be eliminated: {s}");
        }
        // One base select on (m, j) recorded.
        assert_eq!(out.array_selects.len(), 1);
        assert_eq!(out.array_selects[0].1.len(), 1);
    }

    #[test]
    fn select_congruence_axioms() {
        let mut a = TermArena::new();
        let arr = a.var("m", Sort::byte_array());
        let i = a.var("i", Sort::BitVec(64));
        let j = a.var("j", Sort::BitVec(64));
        let s1 = a.select(arr, i);
        let s2 = a.select(arr, j);
        let asrt = a.neq(s1, s2);
        let out = preprocess(&mut a, &[asrt]).unwrap();
        // Original assertion + one congruence axiom.
        assert_eq!(out.assertions.len(), 2);
    }

    /// Select congruence axioms follow the order the selects were found in,
    /// so two fresh preprocessors print the same query.
    #[test]
    fn select_axioms_are_deterministic() {
        let printed = || {
            let mut a = TermArena::new();
            let arr = a.var("m", Sort::byte_array());
            let zero = a.bv_const(8, 0);
            let asserts: Vec<TermId> = (0..24)
                .map(|k| {
                    let i = a.var(&format!("i{k}"), Sort::BitVec(64));
                    let sel = a.select(arr, i);
                    a.neq(sel, zero)
                })
                .collect();
            let delta = IncPreprocess::new().process(&mut a, &asserts).unwrap();
            assert_eq!(delta.defs.len(), 24 * 23 / 2, "one axiom per pair");
            let all: Vec<TermId> = delta.assertions.into_iter().chain(delta.defs).collect();
            tpot_smt::print::to_smtlib(&a, &all)
        };
        assert_eq!(printed(), printed());
    }

    #[test]
    fn uf_congruence() {
        let mut a = TermArena::new();
        let f = a.declare_func("h", vec![Sort::Int], Sort::Int);
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let fx = a.apply(f, vec![x]);
        let fy = a.apply(f, vec![y]);
        let asrt = a.neq(fx, fy);
        let out = preprocess(&mut a, &[asrt]).unwrap();
        assert_eq!(out.uf_apps.len(), 1);
        assert_eq!(out.uf_apps[0].1.len(), 2);
        // assertion + congruence axiom
        assert!(out.assertions.len() >= 2);
        for &t in &out.assertions {
            let s = term_to_string(&a, t);
            assert!(!s.contains("(h "), "apply must be eliminated: {s}");
        }
    }

    #[test]
    fn int_lt_lowered() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let lt = a.int_lt(x, y);
        let out = preprocess(&mut a, &[lt]).unwrap();
        let s = term_to_string(&a, out.assertions[0]);
        assert!(s.contains("<="), "IntLt must lower to IntLe: {s}");
        assert!(!s.contains("(< "), "no strict comparison: {s}");
    }

    #[test]
    fn int_eq_lowered() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let eq = a.eq(x, y);
        let out = preprocess(&mut a, &[eq]).unwrap();
        let s = term_to_string(&a, out.assertions[0]);
        assert_eq!(s.matches("<=").count(), 2, "{s}");
    }

    #[test]
    fn int_ite_purified() {
        let mut a = TermArena::new();
        let c = a.var("c", Sort::Bool);
        let x = a.var("x", Sort::Int);
        let y = a.var("y", Sort::Int);
        let ite = a.ite(c, x, y);
        let zero = a.int_const(0);
        let asrt = a.int_le(ite, zero);
        let out = preprocess(&mut a, &[asrt]).unwrap();
        assert_eq!(
            out.assertions.len(),
            3,
            "assertion + two defining implications"
        );
        for &t in &out.assertions {
            let s = term_to_string(&a, t);
            assert!(!s.contains("(ite "), "int ite must be purified: {s}");
        }
    }
}
