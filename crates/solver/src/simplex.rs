//! General simplex for linear rational arithmetic with bound constraints.
//!
//! Implements the Dutertre–de Moura solver (the same algorithm at the core
//! of Z3's arithmetic theory): a tableau of basic-variable definitions, an
//! assignment that always satisfies the tableau and the nonbasic bounds, and
//! a `check` loop that pivots out-of-bounds basic variables using Bland's
//! rule (guaranteeing termination). Conflicts carry the *tags* of the
//! contributing bounds so the DPLL(T) layer can learn small blocking
//! clauses.
//!
//! Bounds can be retracted all at once ([`Simplex::clear_bounds`]) while
//! the basis and the assignment stay: the assignment satisfies the tableau
//! whatever the bounds, so the next `check` starts from the previous
//! check's basis instead of the original one.

use std::collections::BTreeMap;

use tpot_obs::metrics::LazyCounter;

use crate::error::SolverError;
use crate::rational::Rat;

/// Process-wide pivot count (the per-instance `num_pivots` resets with each
/// branch-and-bound clone; this one is what `TPOT_METRICS` reports).
static PIVOTS: LazyCounter = LazyCounter::new("solver.simplex.pivots");

/// A conflict explanation: tags of the bounds that are jointly infeasible.
#[derive(Clone, Debug)]
pub struct Conflict {
    /// Tags (atom indices) of contributing asserted bounds.
    pub tags: Vec<usize>,
    /// True if an untagged (internal branch-and-bound) bound participated;
    /// the tag set is then an under-approximation.
    pub tainted: bool,
}

#[derive(Clone, Debug, Default)]
struct Bound {
    value: Option<Rat>,
    tag: Option<usize>,
}

/// The simplex solver. Cloneable so branch-and-bound can explore branches.
#[derive(Clone, Default)]
pub struct Simplex {
    /// `rows[b]` (for basic `b`): definition `x_b = Σ coeff·x_nonbasic`.
    rows: BTreeMap<usize, BTreeMap<usize, Rat>>,
    lower: Vec<Bound>,
    upper: Vec<Bound>,
    beta: Vec<Rat>,
    is_basic: Vec<bool>,
    /// Variables given a bound since the last `clear_bounds` (may repeat).
    bounded: Vec<usize>,
    /// Statistics: pivots performed.
    pub num_pivots: u64,
}

impl Simplex {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.beta.len()
    }

    /// Allocates a fresh, unbounded, nonbasic variable.
    pub fn new_var(&mut self) -> usize {
        let v = self.beta.len();
        self.beta.push(Rat::ZERO);
        self.lower.push(Bound::default());
        self.upper.push(Bound::default());
        self.is_basic.push(false);
        v
    }

    /// Current assignment of a variable.
    pub fn value(&self, v: usize) -> Rat {
        self.beta[v]
    }

    /// Introduces a slack variable `s = Σ cᵢ·xᵢ` as a basic variable and
    /// returns it. All referenced variables must currently be *nonbasic* or
    /// basic (basic ones are substituted by their row definitions).
    pub fn add_row(&mut self, combo: &[(usize, Rat)]) -> Result<usize, SolverError> {
        let s = self.new_var();
        let mut def: BTreeMap<usize, Rat> = BTreeMap::new();
        for &(x, ref c) in combo {
            if self.is_basic[x] {
                let row = self.rows[&x].clone();
                for (&y, cy) in &row {
                    add_coeff(&mut def, y, &c.mul(cy)?)?;
                }
            } else {
                add_coeff(&mut def, x, c)?;
            }
        }
        // Initialize β(s) consistently.
        let mut val = Rat::ZERO;
        for (&x, c) in &def {
            val = val.add(&c.mul(&self.beta[x])?)?;
        }
        self.beta[s] = val;
        self.is_basic[s] = true;
        self.rows.insert(s, def);
        Ok(s)
    }

    /// Asserts `v ≤ bound`. Returns a conflict if it contradicts the lower
    /// bound of `v`. `tag = None` marks an internal (branch) bound.
    pub fn assert_upper(
        &mut self,
        v: usize,
        bound: Rat,
        tag: Option<usize>,
    ) -> Result<Option<Conflict>, SolverError> {
        if let Some(u) = &self.upper[v].value {
            if *u <= bound {
                return Ok(None);
            }
        }
        if let Some(l) = &self.lower[v].value {
            if bound < *l {
                return Ok(Some(self.bound_conflict(v, tag, true)));
            }
        }
        self.upper[v] = Bound {
            value: Some(bound),
            tag,
        };
        self.bounded.push(v);
        if !self.is_basic[v] && self.beta[v] > bound {
            self.update_nonbasic(v, bound)?;
        }
        Ok(None)
    }

    /// Asserts `v ≥ bound`.
    pub fn assert_lower(
        &mut self,
        v: usize,
        bound: Rat,
        tag: Option<usize>,
    ) -> Result<Option<Conflict>, SolverError> {
        if let Some(l) = &self.lower[v].value {
            if *l >= bound {
                return Ok(None);
            }
        }
        if let Some(u) = &self.upper[v].value {
            if bound > *u {
                return Ok(Some(self.bound_conflict(v, tag, false)));
            }
        }
        self.lower[v] = Bound {
            value: Some(bound),
            tag,
        };
        self.bounded.push(v);
        if !self.is_basic[v] && self.beta[v] < bound {
            self.update_nonbasic(v, bound)?;
        }
        Ok(None)
    }

    /// Retracts every asserted bound, keeping the basis and the
    /// assignment. With no bounds left nothing is violated, so the solver
    /// invariant holds and new bounds can be asserted at once.
    pub fn clear_bounds(&mut self) {
        for v in self.bounded.drain(..) {
            self.lower[v] = Bound::default();
            self.upper[v] = Bound::default();
        }
    }

    fn bound_conflict(&self, v: usize, new_tag: Option<usize>, against_lower: bool) -> Conflict {
        let other = if against_lower {
            &self.lower[v]
        } else {
            &self.upper[v]
        };
        let mut tags = Vec::new();
        let mut tainted = false;
        for t in [new_tag, other.tag] {
            match t {
                Some(t) => tags.push(t),
                None => tainted = true,
            }
        }
        Conflict { tags, tainted }
    }

    fn update_nonbasic(&mut self, x: usize, v: Rat) -> Result<(), SolverError> {
        let delta = v.sub(&self.beta[x])?;
        let basics: Vec<usize> = self.rows.keys().copied().collect();
        for b in basics {
            if let Some(c) = self.rows[&b].get(&x).cloned() {
                self.beta[b] = self.beta[b].add(&c.mul(&delta)?)?;
            }
        }
        self.beta[x] = v;
        Ok(())
    }

    fn violates_lower(&self, v: usize) -> bool {
        matches!(&self.lower[v].value, Some(l) if self.beta[v] < *l)
    }

    fn violates_upper(&self, v: usize) -> bool {
        matches!(&self.upper[v].value, Some(u) if self.beta[v] > *u)
    }

    /// Restores the invariant: finds a feasible assignment or a conflict.
    pub fn check(&mut self) -> Result<Option<Conflict>, SolverError> {
        loop {
            // Bland's rule: smallest-index violated basic variable.
            let violated = self
                .rows
                .keys()
                .copied()
                .find(|&b| self.violates_lower(b) || self.violates_upper(b));
            let Some(xi) = violated else {
                return Ok(None);
            };
            if self.violates_lower(xi) {
                let li = self.lower[xi].value.unwrap();
                match self.find_pivot(xi, true)? {
                    Some(xj) => self.pivot_and_update(xi, xj, li)?,
                    None => return Ok(Some(self.row_conflict(xi, true))),
                }
            } else {
                let ui = self.upper[xi].value.unwrap();
                match self.find_pivot(xi, false)? {
                    Some(xj) => self.pivot_and_update(xi, xj, ui)?,
                    None => return Ok(Some(self.row_conflict(xi, false))),
                }
            }
        }
    }

    /// Finds a nonbasic variable that can move to fix `xi` (Bland's rule).
    fn find_pivot(&self, xi: usize, increase: bool) -> Result<Option<usize>, SolverError> {
        let row = &self.rows[&xi];
        for (&xj, c) in row {
            let positive = *c > Rat::ZERO;
            // To increase xi: increase xj when coeff > 0 (needs headroom to
            // upper), or decrease xj when coeff < 0 (headroom to lower).
            let can_move = if increase == positive {
                self.upper[xj]
                    .value
                    .map(|u| self.beta[xj] < u)
                    .unwrap_or(true)
            } else {
                self.lower[xj]
                    .value
                    .map(|l| self.beta[xj] > l)
                    .unwrap_or(true)
            };
            if can_move {
                return Ok(Some(xj));
            }
        }
        Ok(None)
    }

    /// Conflict explanation from a stuck row (Dutertre–de Moura Lemma 1).
    fn row_conflict(&self, xi: usize, below_lower: bool) -> Conflict {
        let mut tags = Vec::new();
        let mut tainted = false;
        let mut push = |b: &Bound| {
            match b.tag {
                Some(t) => tags.push(t),
                None => {
                    if b.value.is_some() {
                        tainted = true;
                    }
                }
            };
        };
        if below_lower {
            push(&self.lower[xi]);
        } else {
            push(&self.upper[xi]);
        }
        for (&xj, c) in &self.rows[&xi] {
            let positive = *c > Rat::ZERO;
            if below_lower == positive {
                push(&self.upper[xj]);
            } else {
                push(&self.lower[xj]);
            }
        }
        tags.sort_unstable();
        tags.dedup();
        Conflict { tags, tainted }
    }

    fn pivot_and_update(&mut self, xi: usize, xj: usize, v: Rat) -> Result<(), SolverError> {
        self.num_pivots += 1;
        PIVOTS.add(1);
        let aij = self.rows[&xi][&xj];
        let theta = v.sub(&self.beta[xi])?.div(&aij)?;
        self.beta[xi] = v;
        let new_xj = self.beta[xj].add(&theta)?;
        // Update all other basic variables that depend on xj.
        let basics: Vec<usize> = self.rows.keys().copied().collect();
        for b in basics {
            if b == xi {
                continue;
            }
            if let Some(c) = self.rows[&b].get(&xj).cloned() {
                self.beta[b] = self.beta[b].add(&c.mul(&theta)?)?;
            }
        }
        self.beta[xj] = new_xj;
        // Pivot the tableau: solve xi's row for xj.
        let mut row_i = self.rows.remove(&xi).unwrap();
        row_i.remove(&xj);
        // xj = (xi - Σ_{k≠j} a_ik·x_k) / a_ij
        let inv = Rat::ONE.div(&aij)?;
        let mut new_row: BTreeMap<usize, Rat> = BTreeMap::new();
        new_row.insert(xi, inv);
        for (&k, c) in &row_i {
            let nc = c.mul(&inv)?.neg()?;
            if !nc.is_zero() {
                new_row.insert(k, nc);
            }
        }
        self.is_basic[xi] = false;
        self.is_basic[xj] = true;
        // Substitute xj's definition into every other row.
        let basics: Vec<usize> = self.rows.keys().copied().collect();
        for b in basics {
            let mut row = self.rows.remove(&b).unwrap();
            if let Some(c) = row.remove(&xj) {
                for (&k, ck) in &new_row {
                    add_coeff(&mut row, k, &c.mul(ck)?)?;
                }
            }
            self.rows.insert(b, row);
        }
        self.rows.insert(xj, new_row);
        Ok(())
    }
}

fn add_coeff(map: &mut BTreeMap<usize, Rat>, k: usize, c: &Rat) -> Result<(), SolverError> {
    if c.is_zero() {
        return Ok(());
    }
    let cur = map.get(&k).cloned().unwrap_or(Rat::ZERO);
    let nc = cur.add(c)?;
    if nc.is_zero() {
        map.remove(&k);
    } else {
        map.insert(k, nc);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rat {
        Rat::int(n)
    }

    #[test]
    fn feasible_simple() {
        // x + y <= 4, x >= 1, y >= 2.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.add_row(&[(x, r(1)), (y, r(1))]).unwrap();
        assert!(s.assert_upper(sum, r(4), Some(0)).unwrap().is_none());
        assert!(s.assert_lower(x, r(1), Some(1)).unwrap().is_none());
        assert!(s.assert_lower(y, r(2), Some(2)).unwrap().is_none());
        assert!(s.check().unwrap().is_none());
        let vx = s.value(x);
        let vy = s.value(y);
        assert!(vx >= r(1) && vy >= r(2));
        assert!(vx.add(&vy).unwrap() <= r(4));
    }

    #[test]
    fn infeasible_with_core() {
        // x + y <= 3, x >= 2, y >= 2 → conflict involving all three.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let sum = s.add_row(&[(x, r(1)), (y, r(1))]).unwrap();
        s.assert_upper(sum, r(3), Some(10)).unwrap();
        s.assert_lower(x, r(2), Some(11)).unwrap();
        s.assert_lower(y, r(2), Some(12)).unwrap();
        let c = s.check().unwrap().expect("must be infeasible");
        assert!(!c.tainted);
        let mut tags = c.tags.clone();
        tags.sort_unstable();
        assert_eq!(tags, vec![10, 11, 12]);
    }

    #[test]
    fn immediate_bound_conflict() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, r(5), Some(1)).unwrap();
        let c = s.assert_upper(x, r(3), Some(2)).unwrap().expect("conflict");
        let mut tags = c.tags;
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 2]);
    }

    #[test]
    fn equality_via_two_bounds() {
        // x - y = 0 (as <= and >=), x >= 7 → y >= 7.
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let d = s.add_row(&[(x, r(1)), (y, r(-1))]).unwrap();
        s.assert_upper(d, r(0), Some(0)).unwrap();
        s.assert_lower(d, r(0), Some(1)).unwrap();
        s.assert_lower(x, r(7), Some(2)).unwrap();
        assert!(s.check().unwrap().is_none());
        assert_eq!(s.value(x), s.value(y));
        assert!(s.value(y) >= r(7));
    }

    #[test]
    fn chain_of_differences() {
        // x1 <= x2 <= x3 <= x1 - 1 is infeasible.
        let mut s = Simplex::new();
        let x1 = s.new_var();
        let x2 = s.new_var();
        let x3 = s.new_var();
        let d12 = s.add_row(&[(x1, r(1)), (x2, r(-1))]).unwrap();
        let d23 = s.add_row(&[(x2, r(1)), (x3, r(-1))]).unwrap();
        let d31 = s.add_row(&[(x3, r(1)), (x1, r(-1))]).unwrap();
        s.assert_upper(d12, r(0), Some(0)).unwrap();
        s.assert_upper(d23, r(0), Some(1)).unwrap();
        s.assert_upper(d31, r(-1), Some(2)).unwrap();
        let c = s.check().unwrap().expect("cycle is infeasible");
        assert!(!c.tainted);
        assert_eq!(c.tags.len(), 3);
    }

    #[test]
    fn rational_solution() {
        // 2x <= 1, 2x >= 1 → x = 1/2.
        let mut s = Simplex::new();
        let x = s.new_var();
        let tx = s.add_row(&[(x, r(2))]).unwrap();
        s.assert_upper(tx, r(1), Some(0)).unwrap();
        s.assert_lower(tx, r(1), Some(1)).unwrap();
        assert!(s.check().unwrap().is_none());
        assert_eq!(s.value(x), Rat::new(1, 2).unwrap());
    }

    #[test]
    fn unbounded_is_feasible() {
        let mut s = Simplex::new();
        let x = s.new_var();
        let y = s.new_var();
        let d = s.add_row(&[(x, r(1)), (y, r(-3))]).unwrap();
        s.assert_lower(d, r(100), Some(0)).unwrap();
        assert!(s.check().unwrap().is_none());
    }

    #[test]
    fn clone_for_branching() {
        let mut s = Simplex::new();
        let x = s.new_var();
        s.assert_lower(x, r(0), Some(0)).unwrap();
        let mut s2 = s.clone();
        s2.assert_upper(x, r(-1), None).unwrap_err_or_conflict();
    }

    trait TestExt {
        fn unwrap_err_or_conflict(self);
    }
    impl TestExt for Result<Option<Conflict>, SolverError> {
        fn unwrap_err_or_conflict(self) {
            match self {
                Ok(Some(c)) => assert!(c.tainted || !c.tags.is_empty()),
                Ok(None) => panic!("expected conflict"),
                Err(_) => {}
            }
        }
    }
}
