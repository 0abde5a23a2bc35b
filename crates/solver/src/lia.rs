//! Linear *integer* arithmetic on top of the rational simplex.
//!
//! Solves conjunctions of normalized `≤`-atoms ([`LeAtom`]) over integer
//! variables: the LP relaxation runs on the [`Simplex`]; fractional solutions
//! trigger branch-and-bound. This is the decision procedure behind TPot's
//! integer-encoded pointer-resolution queries (§4.3): heap base addresses and
//! object sizes become integer variables here instead of 64-bit bitvectors,
//! avoiding bit-blasting.

use std::collections::HashMap;

use tpot_obs::metrics::LazyCounter;
use tpot_smt::TermId;

use crate::error::SolverError;
use crate::linexpr::LeAtom;
use crate::rational::Rat;
use crate::simplex::{Conflict, Simplex};

static LIA_CALLS: LazyCounter = LazyCounter::new("solver.lia.calls");
static BNB_NODES: LazyCounter = LazyCounter::new("solver.lia.bnb_nodes");
static ROWS_EXTENDED: LazyCounter = LazyCounter::new("solver.lia.rows_extended");
static ROWS_REUSED: LazyCounter = LazyCounter::new("solver.lia.rows_reused");

/// Outcome of an integer-feasibility check.
#[derive(Clone, Debug)]
pub enum LiaOutcome {
    /// Satisfiable with the given integer assignment.
    Sat(HashMap<TermId, i128>),
    /// Unsatisfiable. The payload is a subset of input atom indices that is
    /// jointly infeasible (a conflict core); it may be the full set.
    Unsat(Vec<usize>),
    /// Branch-and-bound exceeded its node budget.
    Unknown,
}

/// Configuration for the LIA engine.
#[derive(Clone, Debug)]
pub struct LiaConfig {
    /// Maximum number of branch-and-bound nodes before giving up.
    pub max_nodes: u64,
}

impl Default for LiaConfig {
    fn default() -> Self {
        LiaConfig { max_nodes: 10_000 }
    }
}

/// Checks integer feasibility of the conjunction of `atoms`.
///
/// Atom `i`'s tag in conflict cores is its index in the slice. One-shot
/// wrapper over a fresh [`IncLia`]; sessions keep the `IncLia` alive so
/// atoms are compiled once and the simplex starts from the previous basis.
pub fn solve_lia(atoms: &[LeAtom], config: &LiaConfig) -> Result<LiaOutcome, SolverError> {
    let mut inc = IncLia::new();
    let lits = atoms
        .iter()
        .map(|a| Ok((inc.register(a)?, true)))
        .collect::<Result<Vec<_>, SolverError>>()?;
    inc.check(&lits, config)
}

/// The bound one polarity of an atom asserts on its simplex variable.
#[derive(Clone, Copy, Debug)]
struct Side {
    upper: bool,
    value: Rat,
}

/// A registered atom, compiled against the tableau.
#[derive(Clone, Debug)]
enum Compiled {
    /// A variable-free atom and its truth value.
    Const(bool),
    /// One bound on `var` per polarity: `sides[0]` when the atom is false,
    /// `sides[1]` when it is true. `None` marks a bound that overflows
    /// `i128`; checking that polarity fails with [`SolverError::Overflow`].
    Bound {
        var: usize,
        sides: [Option<Side>; 2],
        /// Simplex variables of the term variables the atom mentions.
        terms: Box<[(usize, TermId)]>,
    },
}

/// Incremental LIA context.
///
/// Every atom is compiled once, when it is registered: `c·x ≤ b` bounds the
/// term variable `x` itself, any other form gets a slack row shared by
/// every atom over the same form up to sign (an atom and its negation share
/// one row), and each polarity becomes one bound on that variable. A check
/// then takes `(atom, polarity)` pairs.
///
/// Two tableaux carry the same variables and rows. `warm` keeps its basis
/// from check to check (Dutertre–de Moura): a check retracts the previous
/// check's bounds, asserts its own and pivots from where the last check
/// stopped. Conflicts and integral LP solutions are answered from it. The
/// `template` is never pivoted: only a fractional LP solution needs
/// branch-and-bound, and that starts from a clone of the template with this
/// check's bounds. The search's course depends on the basis it starts from,
/// so this keeps it clear of whatever basis earlier checks left behind.
#[derive(Clone)]
pub struct IncLia {
    var_map: HashMap<TermId, usize>,
    /// Sign-canonical linear form → slack variable.
    row_map: HashMap<Vec<(TermId, i128)>, usize>,
    atoms: Vec<Compiled>,
    template: Simplex,
    warm: Simplex,
    /// Rows added to the tableau over its lifetime.
    pub rows_extended: u64,
    /// Registrations served by an already-registered form.
    pub rows_reused: u64,
}

impl Default for IncLia {
    fn default() -> Self {
        IncLia::new()
    }
}

impl IncLia {
    /// Creates an empty context.
    pub fn new() -> Self {
        IncLia {
            var_map: HashMap::new(),
            row_map: HashMap::new(),
            atoms: Vec::new(),
            template: Simplex::new(),
            warm: Simplex::new(),
            rows_extended: 0,
            rows_reused: 0,
        }
    }

    fn new_var(&mut self) -> usize {
        let v = self.template.new_var();
        let w = self.warm.new_var();
        debug_assert_eq!(v, w);
        v
    }

    /// Compiles `atom` and returns its id; ids count up from 0 in
    /// registration order.
    pub fn register(&mut self, atom: &LeAtom) -> Result<usize, SolverError> {
        let id = self.atoms.len();
        if let Some(t) = atom.as_trivial() {
            self.atoms.push(Compiled::Const(t));
            return Ok(id);
        }
        let mut terms = Vec::with_capacity(atom.expr.coeffs.len());
        for &t in atom.expr.coeffs.keys() {
            let sv = match self.var_map.get(&t) {
                Some(&sv) => sv,
                None => {
                    let sv = self.new_var();
                    self.var_map.insert(t, sv);
                    sv
                }
            };
            terms.push((sv, t));
        }
        let b = atom.bound;
        let b1 = b.checked_add(1);
        let (var, sides) = if terms.len() == 1 {
            // c·x ≤ b, negated c·x ≥ b+1; dividing by c < 0 flips the side.
            let c = atom.expr.coeffs[&terms[0].1];
            let side = |k: Option<i128>, upper: bool| -> Result<Option<Side>, SolverError> {
                k.map(|k| {
                    Ok(Side {
                        upper,
                        value: Rat::new(k, c)?,
                    })
                })
                .transpose()
            };
            (terms[0].0, [side(b1, c < 0)?, side(Some(b), c > 0)?])
        } else {
            // Sign-canonical form: coefficients in `TermId` order with the
            // leading one positive.
            let negated = atom.expr.coeffs.values().next().is_some_and(|&c| c < 0);
            let sign = if negated { -1 } else { 1 };
            let key = atom
                .expr
                .coeffs
                .iter()
                .map(|(&t, &c)| c.checked_mul(sign).map(|c| (t, c)))
                .collect::<Option<Vec<_>>>()
                .ok_or(SolverError::Overflow)?;
            let slack = match self.row_map.get(&key) {
                Some(&slack) => {
                    self.rows_reused += 1;
                    ROWS_REUSED.add(1);
                    slack
                }
                None => {
                    let combo: Vec<(usize, Rat)> = key
                        .iter()
                        .map(|&(t, c)| (self.var_map[&t], Rat::int(c)))
                        .collect();
                    let slack = self.template.add_row(&combo)?;
                    let warm_slack = self.warm.add_row(&combo)?;
                    debug_assert_eq!(slack, warm_slack);
                    self.row_map.insert(key, slack);
                    self.rows_extended += 1;
                    ROWS_EXTENDED.add(1);
                    slack
                }
            };
            let side = |k: Option<i128>, upper: bool| {
                k.map(|k| Side {
                    upper,
                    value: Rat::int(k),
                })
            };
            // The row is expr, or -expr when negated: expr ≤ b is row ≤ b
            // or row ≥ -b, and expr ≥ b+1 is row ≥ b+1 or row ≤ -b-1.
            let sides = if negated {
                [
                    side(b1.and_then(i128::checked_neg), true),
                    side(b.checked_neg(), false),
                ]
            } else {
                [side(b1, false), side(Some(b), true)]
            };
            (slack, sides)
        };
        self.atoms.push(Compiled::Bound {
            var,
            sides,
            terms: terms.into_boxed_slice(),
        });
        Ok(id)
    }

    /// Checks integer feasibility of the conjunction of registered atoms,
    /// each `(id, polarity)` asserting the atom (`true`) or its negation.
    /// Pair `i`'s tag in conflict cores is its index in the slice.
    pub fn check(
        &mut self,
        lits: &[(usize, bool)],
        config: &LiaConfig,
    ) -> Result<LiaOutcome, SolverError> {
        LIA_CALLS.add(1);
        let _span = tpot_obs::span_args("solver", "lia", &[("atoms", &lits.len())]);
        self.warm.clear_bounds();
        if let Some(c) = assert_bounds(&mut self.warm, &self.atoms, lits)? {
            return Ok(finish_conflict(c, lits.len()));
        }
        if let Some(c) = self.warm.check()? {
            return Ok(finish_conflict(c, lits.len()));
        }
        // The term variables this check constrains, in simplex order;
        // integrality is enforced on those only (the tableau may carry
        // variables only atoms outside this check mention).
        let mut live: Vec<(usize, TermId)> = Vec::new();
        for &(a, _) in lits {
            if let Compiled::Bound { terms, .. } = &self.atoms[a] {
                live.extend_from_slice(terms);
            }
        }
        live.sort_unstable();
        live.dedup();
        if live.iter().all(|&(v, _)| self.warm.value(v).is_integer()) {
            return Ok(LiaOutcome::Sat(int_model(&self.warm, &live)));
        }
        let mut sx = self.template.clone();
        if let Some(c) = assert_bounds(&mut sx, &self.atoms, lits)? {
            return Ok(finish_conflict(c, lits.len()));
        }
        if let Some(c) = sx.check()? {
            return Ok(finish_conflict(c, lits.len()));
        }
        branch_and_bound(sx, &live, config, lits.len())
    }
}

/// Asserts each pair's bound, tagged with the pair's index; stops at the
/// first conflict.
fn assert_bounds(
    sx: &mut Simplex,
    atoms: &[Compiled],
    lits: &[(usize, bool)],
) -> Result<Option<Conflict>, SolverError> {
    for (i, &(a, polarity)) in lits.iter().enumerate() {
        let conflict = match &atoms[a] {
            Compiled::Const(t) if *t == polarity => None,
            Compiled::Const(_) => Some(Conflict {
                tags: vec![i],
                tainted: false,
            }),
            Compiled::Bound { var, sides, .. } => {
                let side = sides[polarity as usize].ok_or(SolverError::Overflow)?;
                if side.upper {
                    sx.assert_upper(*var, side.value, Some(i))?
                } else {
                    sx.assert_lower(*var, side.value, Some(i))?
                }
            }
        };
        if conflict.is_some() {
            return Ok(conflict);
        }
    }
    Ok(None)
}

fn int_model(sx: &Simplex, live: &[(usize, TermId)]) -> HashMap<TermId, i128> {
    live.iter()
        .map(|&(v, t)| (t, sx.value(v).as_integer().expect("integral")))
        .collect()
}

/// Iterative depth-first branch-and-bound over simplex snapshots.
///
/// Branch bounds are untagged, so an `Unsat` produced here reports the full
/// atom set as its core (the rational relaxation alone was feasible; no
/// smaller certificate is available without cut generation).
fn branch_and_bound(
    sx: Simplex,
    live: &[(usize, TermId)],
    config: &LiaConfig,
    n_atoms: usize,
) -> Result<LiaOutcome, SolverError> {
    let mut stack: Vec<Simplex> = vec![sx];
    let mut nodes = 0u64;
    while let Some(mut s) = stack.pop() {
        nodes += 1;
        BNB_NODES.add(1);
        if nodes > config.max_nodes {
            return Ok(LiaOutcome::Unknown);
        }
        let Some((v, val)) = pick_fractional(&s, live) else {
            return Ok(LiaOutcome::Sat(int_model(&s, live)));
        };
        let mut lo = s.clone();
        if lo.assert_upper(v, Rat::int(val.floor()), None)?.is_none() && lo.check()?.is_none() {
            stack.push(lo);
        }
        if s.assert_lower(v, Rat::int(val.ceil()), None)?.is_none() && s.check()?.is_none() {
            stack.push(s);
        }
    }
    Ok(LiaOutcome::Unsat((0..n_atoms).collect()))
}

/// The variable to branch on: the lowest-index fractional one. `live` is
/// in index order.
fn pick_fractional(s: &Simplex, live: &[(usize, TermId)]) -> Option<(usize, Rat)> {
    live.iter()
        .map(|&(v, _)| (v, s.value(v)))
        .find(|(_, val)| !val.is_integer())
}

fn finish_conflict(c: Conflict, n_atoms: usize) -> LiaOutcome {
    if c.tainted {
        LiaOutcome::Unsat((0..n_atoms).collect())
    } else {
        LiaOutcome::Unsat(c.tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;
    use tpot_smt::{Sort, TermArena};

    fn atom(lhs: LinExpr, bound: i128) -> LeAtom {
        LeAtom { expr: lhs, bound }
    }

    fn vars(n: usize) -> (TermArena, Vec<TermId>) {
        let mut a = TermArena::new();
        let vs = (0..n).map(|i| a.var(&format!("x{i}"), Sort::Int)).collect();
        (a, vs)
    }

    #[test]
    fn sat_simple() {
        let (_a, v) = vars(2);
        // x0 + x1 <= 5, -x0 <= -3 (x0 >= 3), -x1 <= -1 (x1 >= 1)
        let mut e01 = LinExpr::var(v[0]);
        e01 = e01.add(&LinExpr::var(v[1])).unwrap();
        let atoms = vec![
            atom(e01, 5),
            atom(LinExpr::var(v[0]).neg().unwrap(), -3),
            atom(LinExpr::var(v[1]).neg().unwrap(), -1),
        ];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Sat(m) => {
                let x0 = m[&v[0]];
                let x1 = m[&v[1]];
                assert!(x0 >= 3 && x1 >= 1 && x0 + x1 <= 5);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_with_core() {
        let (_a, v) = vars(2);
        let mut e01 = LinExpr::var(v[0]);
        e01 = e01.add(&LinExpr::var(v[1])).unwrap();
        let atoms = vec![
            atom(e01, 3),                                // x0+x1 <= 3
            atom(LinExpr::var(v[0]).neg().unwrap(), -2), // x0 >= 2
            atom(LinExpr::var(v[1]).neg().unwrap(), -2), // x1 >= 2
        ];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(core) => assert_eq!(core.len(), 3),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_forces_branching() {
        let (_a, v) = vars(1);
        // 2x <= 5 and 2x >= 5 has rational solution 5/2 but no integer one.
        let two_x = LinExpr::var(v[0]).scale(2).unwrap();
        let atoms = vec![atom(two_x.clone(), 5), atom(two_x.neg().unwrap(), -5)];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(_) => {}
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn integrality_sat_after_branch() {
        let (_a, v) = vars(2);
        // 2x + 2y <= 5, 2x + 2y >= 3 → x + y must round to 2 (or 1.5..2.5
        // range contains 2).
        let mut e = LinExpr::var(v[0]).scale(2).unwrap();
        e = e.add(&LinExpr::var(v[1]).scale(2).unwrap()).unwrap();
        let atoms = vec![atom(e.clone(), 5), atom(e.neg().unwrap(), -3)];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Sat(m) => {
                let s = 2 * (m[&v[0]] + m[&v[1]]);
                assert!((3..=5).contains(&s));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_sat() {
        match solve_lia(&[], &LiaConfig::default()).unwrap() {
            LiaOutcome::Sat(m) => assert!(m.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trivially_false_atom() {
        let atoms = vec![atom(LinExpr::constant(0), -1)];
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(core) => assert_eq!(core, vec![0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incremental_extends_rather_than_rebuilds() {
        let (_a, v) = vars(2);
        let e01 = LinExpr::var(v[0]).add(&LinExpr::var(v[1])).unwrap();
        let cfg = LiaConfig::default();
        let mut inc = IncLia::new();
        let sum5 = inc.register(&atom(e01.clone(), 5)).unwrap(); // x0+x1 <= 5
        let x0 = inc
            .register(&atom(LinExpr::var(v[0]).neg().unwrap(), -3))
            .unwrap(); // x0 >= 3
        let x1 = inc
            .register(&atom(LinExpr::var(v[1]).neg().unwrap(), -3))
            .unwrap(); // x1 >= 3
        assert_eq!(inc.rows_extended, 1);
        // x0+x1 >= 7 and x0+x1 <= 2 share the canonical row.
        let sum7 = inc.register(&atom(e01.neg().unwrap(), -7)).unwrap();
        let sum2 = inc.register(&atom(e01, 2)).unwrap();
        assert_eq!(inc.rows_extended, 1);
        assert_eq!(inc.rows_reused, 2);
        assert!(matches!(
            inc.check(&[(sum5, true), (x0, true)], &cfg).unwrap(),
            LiaOutcome::Sat(_)
        ));
        match inc
            .check(&[(sum5, true), (x0, true), (x1, true)], &cfg)
            .unwrap()
        {
            LiaOutcome::Unsat(core) => assert_eq!(core.len(), 3),
            other => panic!("expected unsat, got {other:?}"),
        }
        assert!(matches!(
            inc.check(&[(sum7, true)], &cfg).unwrap(),
            LiaOutcome::Sat(_)
        ));
        // Earlier checks' bounds are retracted: the x0 >= 3 bound is gone,
        // so x0+x1 <= 2 alone is satisfiable.
        match inc.check(&[(sum2, true)], &cfg).unwrap() {
            LiaOutcome::Sat(m) => assert!(m[&v[0]] + m[&v[1]] <= 2),
            other => panic!("expected sat, got {other:?}"),
        }
        // False polarities assert the negations: x0 <= 2, x1 <= 2 and
        // x0+x1 >= 7 cannot hold together.
        match inc
            .check(&[(x0, false), (x1, false), (sum7, true)], &cfg)
            .unwrap()
        {
            LiaOutcome::Unsat(core) => assert_eq!(core.len(), 3),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    /// A warm context answers every check of a seeded sequence as a fresh
    /// `solve_lia` does: atoms come and go between checks, under both
    /// polarities, over one- and two-variable forms of either sign.
    #[test]
    fn warm_context_agrees_with_fresh_solves() {
        let (_a, v) = vars(4);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let coeffs = [-3, -2, -1, 1, 2, 3];
        let mut pool = Vec::new();
        for _ in 0..24 {
            let mut e = LinExpr::var(v[next(4) as usize])
                .scale(coeffs[next(6) as usize])
                .unwrap();
            if next(3) != 0 {
                let t = LinExpr::var(v[next(4) as usize])
                    .scale(coeffs[next(6) as usize])
                    .unwrap();
                e = e.add(&t).unwrap();
            }
            pool.push(atom(e, next(21) as i128 - 10));
        }
        // Every check also boxes each variable into [-20, 20], which keeps
        // branch-and-bound finite.
        for &x in &v {
            pool.push(atom(LinExpr::var(x), 20));
            pool.push(atom(LinExpr::var(x).neg().unwrap(), 20));
        }
        let cfg = LiaConfig::default();
        let mut inc = IncLia::new();
        let ids: Vec<usize> = pool.iter().map(|a| inc.register(a).unwrap()).collect();
        let (mut sat, mut unsat) = (0, 0);
        for round in 0..300 {
            let mut lits: Vec<(usize, bool)> = Vec::new();
            for &id in &ids {
                if id >= 24 {
                    lits.push((id, true));
                } else if next(3) == 0 {
                    lits.push((id, next(2) == 0));
                }
            }
            let atoms: Vec<LeAtom> = lits
                .iter()
                .map(|&(id, pol)| {
                    if pol {
                        pool[id].clone()
                    } else {
                        pool[id].negate().unwrap()
                    }
                })
                .collect();
            let warm = inc.check(&lits, &cfg).unwrap();
            let fresh = solve_lia(&atoms, &cfg).unwrap();
            match (&warm, &fresh) {
                (LiaOutcome::Sat(m), LiaOutcome::Sat(_)) => {
                    for a in &atoms {
                        let lhs: i128 = a.expr.coeffs.iter().map(|(t, c)| c * m[t]).sum();
                        assert!(lhs <= a.bound, "round {round}: model violates {a:?}");
                    }
                    sat += 1;
                }
                (LiaOutcome::Unsat(core), LiaOutcome::Unsat(_)) => {
                    let core_atoms: Vec<LeAtom> = core.iter().map(|&i| atoms[i].clone()).collect();
                    assert!(
                        matches!(solve_lia(&core_atoms, &cfg).unwrap(), LiaOutcome::Unsat(_)),
                        "round {round}: core {core:?} is satisfiable"
                    );
                    unsat += 1;
                }
                _ => panic!("round {round}: warm {warm:?} but fresh {fresh:?}"),
            }
        }
        assert!(sat >= 30 && unsat >= 30, "sat {sat}, unsat {unsat}");
    }

    #[test]
    fn heap_layout_style_query() {
        // Typical TPot pointer-resolution shape: base1 + 4096 <= base2,
        // p = base1 + off, 0 <= off < 4096, and ask p >= base2 (must be
        // unsat).
        let (_a, v) = vars(3); // base1, base2, p
        let b1 = LinExpr::var(v[0]);
        let b2 = LinExpr::var(v[1]);
        let p = LinExpr::var(v[2]);
        let mut atoms = Vec::new();
        // base1 + 4096 - base2 <= 0
        atoms.push(atom(b1.add(&b2.neg().unwrap()).unwrap(), -4096));
        // p - base1 >= 0  →  base1 - p <= 0
        atoms.push(atom(b1.add(&p.neg().unwrap()).unwrap(), 0));
        // p - base1 <= 4095
        atoms.push(atom(p.add(&b1.neg().unwrap()).unwrap(), 4095));
        // p >= base2 → base2 - p <= 0
        atoms.push(atom(b2.add(&p.neg().unwrap()).unwrap(), 0));
        match solve_lia(&atoms, &LiaConfig::default()).unwrap() {
            LiaOutcome::Unsat(_) => {}
            other => panic!("expected unsat, got {other:?}"),
        }
    }
}
