//! Bit-blasting: bitvector terms to SAT circuits.
//!
//! Every bitvector term becomes a little-endian vector of SAT literals;
//! boolean terms become single literals via Tseitin encoding. Integer atoms
//! (`IntLe` after preprocessing) are *not* translated — they become opaque
//! theory literals collected in [`BitBlaster::atoms`] for the DPLL(T) loop,
//! each compiled into the blaster's LIA context as its literal is created.
//!
//! The circuits are the textbook ones: ripple-carry adders, shift-add
//! multipliers, restoring dividers, barrel shifters, and borrow-chain
//! comparators. This is exactly the "propositional logic" fallback the paper
//! describes Z3 taking on bitvector queries — interpreting a 64-bit vector
//! as 64 boolean variables (§4.3) — and is why the integer encoding of
//! pointer arithmetic wins on pointer-resolution queries.

use std::collections::HashMap;

use tpot_sat::{Lit, Solver};
use tpot_smt::{Kind, Sort, TermArena, TermId};

use crate::error::SolverError;
use crate::lia::IncLia;
use crate::linexpr::{extract_linear, LeAtom};

/// Bit-blasting context that owns its SAT solver.
///
/// The blaster holds no reference to the [`TermArena`]; every entry point
/// takes the arena as an argument instead. This is what lets an incremental
/// [`crate::SolveSession`] keep one blaster alive across many checks while
/// preprocessing keeps appending fresh terms to the (hash-consed,
/// append-only) arena in between — the `TermId`-keyed caches stay valid, so
/// a term lowered to CNF in an earlier check is never re-blasted.
///
/// `Clone` duplicates the SAT solver and every cache, yielding an
/// independent blaster whose `TermId`-keyed entries stay valid against any
/// arena that extends the one the original was built over — exactly the
/// session-handoff situation when a stolen path migrates workers.
#[derive(Clone)]
pub struct BitBlaster {
    /// The underlying SAT solver; the DPLL(T) loop calls `solve` and adds
    /// blocking clauses directly.
    pub sat: Solver,
    bv_cache: HashMap<TermId, Vec<Lit>>,
    bool_cache: HashMap<TermId, Lit>,
    gate_cache: HashMap<(u8, Lit, Lit), Lit>,
    true_lit: Option<Lit>,
    /// Literals of the integer theory atoms; `atoms[i]` is atom `i` of the
    /// blaster's LIA context.
    pub atoms: Vec<Lit>,
    /// The LIA context every theory atom is registered with.
    pub(crate) lia: IncLia,
    /// `IntLe` term → its atom id (index into `atoms`).
    atom_cache: HashMap<TermId, usize>,
    /// Number of terms lowered to CNF (cache misses in `bv_bits` /
    /// `bool_lit`). Sessions read the delta per check to attribute
    /// re-blasting work.
    pub terms_blasted: u64,
}

const G_AND: u8 = 0;
const G_XOR: u8 = 1;

impl BitBlaster {
    /// Creates a bit-blaster over `sat`.
    pub fn new(sat: Solver) -> Self {
        BitBlaster {
            sat,
            bv_cache: HashMap::new(),
            bool_cache: HashMap::new(),
            gate_cache: HashMap::new(),
            true_lit: None,
            atoms: Vec::new(),
            lia: IncLia::new(),
            atom_cache: HashMap::new(),
            terms_blasted: 0,
        }
    }

    /// The constant-true literal (lazily created with a unit clause).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// The constant-false literal.
    pub fn lit_false(&mut self) -> Lit {
        self.lit_true().negate()
    }

    fn is_true(&self, l: Lit) -> bool {
        self.true_lit == Some(l)
    }

    fn is_false(&self, l: Lit) -> bool {
        self.true_lit == Some(l.negate())
    }

    // ------------------------------------------------------------- gates

    fn mk_and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) {
            return self.lit_false();
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) || a == b {
            return a;
        }
        if a == b.negate() {
            return self.lit_false();
        }
        let key = if a <= b { (G_AND, a, b) } else { (G_AND, b, a) };
        if let Some(&g) = self.gate_cache.get(&key) {
            return g;
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[g.negate(), a]);
        self.sat.add_clause(&[g.negate(), b]);
        self.sat.add_clause(&[g, a.negate(), b.negate()]);
        self.gate_cache.insert(key, g);
        g
    }

    fn mk_or(&mut self, a: Lit, b: Lit) -> Lit {
        self.mk_and(a.negate(), b.negate()).negate()
    }

    fn mk_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return b.negate();
        }
        if self.is_true(b) {
            return a.negate();
        }
        if a == b {
            return self.lit_false();
        }
        if a == b.negate() {
            return self.lit_true();
        }
        let key = if a <= b { (G_XOR, a, b) } else { (G_XOR, b, a) };
        if let Some(&g) = self.gate_cache.get(&key) {
            return g;
        }
        let g = Lit::pos(self.sat.new_var());
        self.sat.add_clause(&[g.negate(), a, b]);
        self.sat.add_clause(&[g.negate(), a.negate(), b.negate()]);
        self.sat.add_clause(&[g, a, b.negate()]);
        self.sat.add_clause(&[g, a.negate(), b]);
        self.gate_cache.insert(key, g);
        g
    }

    fn mk_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(c) {
            return t;
        }
        if self.is_false(c) {
            return e;
        }
        if t == e {
            return t;
        }
        let ct = self.mk_and(c, t);
        let ce = self.mk_and(c.negate(), e);
        self.mk_or(ct, ce)
    }

    fn mk_and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_true();
        for &l in lits {
            acc = self.mk_and(acc, l);
        }
        acc
    }

    fn mk_or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.lit_false();
        for &l in lits {
            acc = self.mk_or(acc, l);
        }
        acc
    }

    // ------------------------------------------------------------- arith

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.mk_xor(a, b);
        let sum = self.mk_xor(axb, cin);
        let c1 = self.mk_and(a, b);
        let c2 = self.mk_and(axb, cin);
        let cout = self.mk_or(c1, c2);
        (sum, cout)
    }

    fn add_vec(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn neg_vec(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let zero: Vec<Lit> = vec![self.lit_false(); a.len()];
        let one = self.lit_true();
        self.add_vec(&inv, &zero, one)
    }

    fn sub_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let nb: Vec<Lit> = b.iter().map(|l| l.negate()).collect();
        let one = self.lit_true();
        self.add_vec(a, &nb, one)
    }

    /// Unsigned `a < b` via the borrow chain.
    fn ult_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut lt = self.lit_false();
        for i in 0..a.len() {
            let eq = self.mk_xor(a[i], b[i]).negate();
            let this_lt = self.mk_and(a[i].negate(), b[i]);
            let keep = self.mk_and(eq, lt);
            lt = self.mk_or(this_lt, keep);
        }
        lt
    }

    fn slt_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // Flip sign bits and compare unsigned.
        let w = a.len();
        let mut a2 = a.to_vec();
        let mut b2 = b.to_vec();
        a2[w - 1] = a2[w - 1].negate();
        b2[w - 1] = b2[w - 1].negate();
        self.ult_vec(&a2, &b2)
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let xnors: Vec<Lit> = (0..a.len())
            .map(|i| self.mk_xor(a[i], b[i]).negate())
            .collect();
        self.mk_and_many(&xnors)
    }

    fn mux_vec(&mut self, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        (0..t.len()).map(|i| self.mk_ite(c, t[i], e[i])).collect()
    }

    fn mul_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc: Vec<Lit> = vec![self.lit_false(); w];
        for i in 0..w {
            // Partial product: (a << i) masked by b[i].
            let mut pp: Vec<Lit> = vec![self.lit_false(); w];
            for j in 0..(w - i) {
                pp[i + j] = self.mk_and(a[j], b[i]);
            }
            let zero = self.lit_false();
            acc = self.add_vec(&acc, &pp, zero);
        }
        acc
    }

    /// Restoring division: returns `(quotient, remainder)` with SMT-LIB
    /// division-by-zero semantics applied by the caller.
    fn divrem_vec(&mut self, x: &[Lit], d: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = x.len();
        let f = self.lit_false();
        let mut r: Vec<Lit> = vec![f; w];
        let mut q: Vec<Lit> = vec![f; w];
        for i in (0..w).rev() {
            // R = (R << 1) | x[i]
            let mut nr = Vec::with_capacity(w);
            nr.push(x[i]);
            nr.extend_from_slice(&r[0..w - 1]);
            r = nr;
            // If R >= D { R -= D; q[i] = 1 }
            let lt = self.ult_vec(&r, d);
            let geq = lt.negate();
            let sub = self.sub_vec(&r, d);
            r = self.mux_vec(geq, &sub, &r);
            q[i] = geq;
        }
        (q, r)
    }

    fn shift_vec(&mut self, a: &[Lit], sh: &[Lit], left: bool, arith: bool) -> Vec<Lit> {
        let w = a.len();
        let fill = if arith { a[w - 1] } else { self.lit_false() };
        let stages = usize::BITS - (w - 1).leading_zeros(); // ceil(log2 w)
        let mut res = a.to_vec();
        for k in 0..stages {
            let amount = 1usize << k;
            let mut shifted = vec![fill; w];
            if left {
                for j in 0..w {
                    if j >= amount {
                        shifted[j] = res[j - amount];
                    } else {
                        shifted[j] = self.lit_false();
                    }
                }
            } else {
                for j in 0..w {
                    if j + amount < w {
                        shifted[j] = res[j + amount];
                    } else {
                        shifted[j] = fill;
                    }
                }
            }
            res = self.mux_vec(sh[k as usize], &shifted, &res);
        }
        // Any shift-amount bit at or above `stages` zeroes (or sign-fills)
        // everything; also amounts in [w, 2^stages) must saturate.
        let mut too_big = self.lit_false();
        let high_bits: Vec<_> = sh[stages as usize..w].to_vec();
        for bit in high_bits {
            too_big = self.mk_or(too_big, bit);
        }
        if (1usize << stages) > w {
            // Amounts between w and 2^stages-1: compare low bits >= w.
            let wconst = self.const_vec(w as u128, w as u32);
            let lt = self.ult_vec(sh, &wconst);
            too_big = self.mk_or(too_big, lt.negate());
        }
        let saturated = vec![if left { self.lit_false() } else { fill }; w];
        self.mux_vec(too_big, &saturated, &res)
    }

    fn const_vec(&mut self, v: u128, w: u32) -> Vec<Lit> {
        let t = self.lit_true();
        let f = self.lit_false();
        (0..w)
            .map(|i| if (v >> i) & 1 == 1 { t } else { f })
            .collect()
    }

    // ------------------------------------------------------------- terms

    /// Bit-blasts a bitvector-sorted term into its literal vector
    /// (little-endian).
    pub fn bv_bits(&mut self, arena: &TermArena, t: TermId) -> Result<Vec<Lit>, SolverError> {
        if let Some(bits) = self.bv_cache.get(&t) {
            return Ok(bits.clone());
        }
        self.terms_blasted += 1;
        let node = arena.term(t).clone();
        let w = node
            .sort
            .bv_width()
            .ok_or_else(|| SolverError::Unsupported(format!("bv_bits on sort {}", node.sort)))?;
        let bits: Vec<Lit> = match &node.kind {
            Kind::BvConst(v) => self.const_vec(*v, w),
            Kind::Var(_) => (0..w).map(|_| Lit::pos(self.sat.new_var())).collect(),
            Kind::BvNeg => {
                let a = self.bv_bits(arena, node.args[0])?;
                self.neg_vec(&a)
            }
            Kind::BvAdd => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                let zero = self.lit_false();
                self.add_vec(&a, &b, zero)
            }
            Kind::BvSub => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                self.sub_vec(&a, &b)
            }
            Kind::BvMul => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                self.mul_vec(&a, &b)
            }
            Kind::BvUDiv | Kind::BvURem => {
                let x = self.bv_bits(arena, node.args[0])?;
                let d = self.bv_bits(arena, node.args[1])?;
                let (q, r) = self.divrem_vec(&x, &d);
                let zero = self.const_vec(0, w);
                let dz = self.eq_vec(&d, &zero);
                if node.kind == Kind::BvUDiv {
                    let ones = self.const_vec(u128::MAX, w);
                    self.mux_vec(dz, &ones, &q)
                } else {
                    self.mux_vec(dz, &x, &r)
                }
            }
            Kind::BvAnd => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                (0..w as usize).map(|i| self.mk_and(a[i], b[i])).collect()
            }
            Kind::BvOr => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                (0..w as usize).map(|i| self.mk_or(a[i], b[i])).collect()
            }
            Kind::BvXor => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                (0..w as usize).map(|i| self.mk_xor(a[i], b[i])).collect()
            }
            Kind::BvNot => {
                let a = self.bv_bits(arena, node.args[0])?;
                a.iter().map(|l| l.negate()).collect()
            }
            Kind::BvShl => {
                let a = self.bv_bits(arena, node.args[0])?;
                let s = self.bv_bits(arena, node.args[1])?;
                self.shift_vec(&a, &s, true, false)
            }
            Kind::BvLShr => {
                let a = self.bv_bits(arena, node.args[0])?;
                let s = self.bv_bits(arena, node.args[1])?;
                self.shift_vec(&a, &s, false, false)
            }
            Kind::BvAShr => {
                let a = self.bv_bits(arena, node.args[0])?;
                let s = self.bv_bits(arena, node.args[1])?;
                self.shift_vec(&a, &s, false, true)
            }
            Kind::Concat => {
                let hi = self.bv_bits(arena, node.args[0])?;
                let lo = self.bv_bits(arena, node.args[1])?;
                let mut bits = lo;
                bits.extend(hi);
                bits
            }
            Kind::Extract { hi, lo } => {
                let a = self.bv_bits(arena, node.args[0])?;
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Kind::ZeroExt { extra } => {
                let mut a = self.bv_bits(arena, node.args[0])?;
                let f = self.lit_false();
                a.extend(std::iter::repeat_n(f, *extra as usize));
                a
            }
            Kind::SignExt { extra } => {
                let mut a = self.bv_bits(arena, node.args[0])?;
                let s = *a.last().unwrap();
                a.extend(std::iter::repeat_n(s, *extra as usize));
                a
            }
            Kind::Ite => {
                let c = self.bool_lit(arena, node.args[0])?;
                let tt = self.bv_bits(arena, node.args[1])?;
                let ee = self.bv_bits(arena, node.args[2])?;
                self.mux_vec(c, &tt, &ee)
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "bitvector term kind {other:?} after preprocessing"
                )))
            }
        };
        debug_assert_eq!(bits.len(), w as usize);
        self.bv_cache.insert(t, bits.clone());
        Ok(bits)
    }

    /// Converts a boolean-sorted term into a SAT literal.
    pub fn bool_lit(&mut self, arena: &TermArena, t: TermId) -> Result<Lit, SolverError> {
        if let Some(&l) = self.bool_cache.get(&t) {
            return Ok(l);
        }
        self.terms_blasted += 1;
        let node = arena.term(t).clone();
        let l: Lit = match &node.kind {
            Kind::True => self.lit_true(),
            Kind::False => self.lit_false(),
            Kind::Var(_) => Lit::pos(self.sat.new_var()),
            Kind::Not => self.bool_lit(arena, node.args[0])?.negate(),
            Kind::And => {
                let lits: Vec<Lit> = node
                    .args
                    .iter()
                    .map(|&a| self.bool_lit(arena, a))
                    .collect::<Result<_, _>>()?;
                self.mk_and_many(&lits)
            }
            Kind::Or => {
                let lits: Vec<Lit> = node
                    .args
                    .iter()
                    .map(|&a| self.bool_lit(arena, a))
                    .collect::<Result<_, _>>()?;
                self.mk_or_many(&lits)
            }
            Kind::Xor => {
                let a = self.bool_lit(arena, node.args[0])?;
                let b = self.bool_lit(arena, node.args[1])?;
                self.mk_xor(a, b)
            }
            Kind::Implies => {
                let a = self.bool_lit(arena, node.args[0])?;
                let b = self.bool_lit(arena, node.args[1])?;
                self.mk_or(a.negate(), b)
            }
            Kind::Ite => {
                let c = self.bool_lit(arena, node.args[0])?;
                let a = self.bool_lit(arena, node.args[1])?;
                let b = self.bool_lit(arena, node.args[2])?;
                self.mk_ite(c, a, b)
            }
            Kind::Eq => {
                let s = arena.sort(node.args[0]).clone();
                match s {
                    Sort::Bool => {
                        let a = self.bool_lit(arena, node.args[0])?;
                        let b = self.bool_lit(arena, node.args[1])?;
                        self.mk_xor(a, b).negate()
                    }
                    Sort::BitVec(_) => {
                        let a = self.bv_bits(arena, node.args[0])?;
                        let b = self.bv_bits(arena, node.args[1])?;
                        self.eq_vec(&a, &b)
                    }
                    Sort::Int => {
                        return Err(SolverError::Unsupported(
                            "integer equality must be rewritten by preprocessing".into(),
                        ))
                    }
                    Sort::Array(_, _) => {
                        return Err(SolverError::Unsupported(
                            "array extensional equality".into(),
                        ))
                    }
                }
            }
            Kind::BvUlt => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                self.ult_vec(&a, &b)
            }
            Kind::BvUle => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                self.ult_vec(&b, &a).negate()
            }
            Kind::BvSlt => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                self.slt_vec(&a, &b)
            }
            Kind::BvSle => {
                let a = self.bv_bits(arena, node.args[0])?;
                let b = self.bv_bits(arena, node.args[1])?;
                self.slt_vec(&b, &a).negate()
            }
            Kind::IntLe => {
                let lhs = extract_linear(arena, node.args[0])?;
                let rhs = extract_linear(arena, node.args[1])?;
                let atom = LeAtom::new(&lhs, &rhs)?;
                match atom.as_trivial() {
                    Some(true) => self.lit_true(),
                    Some(false) => self.lit_false(),
                    None => {
                        if let Some(&id) = self.atom_cache.get(&t) {
                            self.atoms[id]
                        } else {
                            let id = self.lia.register(&atom)?;
                            debug_assert_eq!(id, self.atoms.len());
                            let l = Lit::pos(self.sat.new_var());
                            self.atoms.push(l);
                            self.atom_cache.insert(t, id);
                            l
                        }
                    }
                }
            }
            Kind::IntLt => {
                return Err(SolverError::Unsupported(
                    "IntLt must be rewritten to IntLe by preprocessing".into(),
                ))
            }
            other => {
                return Err(SolverError::Unsupported(format!(
                    "boolean term kind {other:?} after preprocessing"
                )))
            }
        };
        self.bool_cache.insert(t, l);
        Ok(l)
    }

    /// Asserts a boolean term as a unit clause.
    pub fn assert_term(&mut self, arena: &TermArena, t: TermId) -> Result<(), SolverError> {
        let l = self.bool_lit(arena, t)?;
        self.sat.add_clause(&[l]);
        Ok(())
    }

    /// Model value of a previously blasted bitvector term.
    pub fn bv_model_value(&self, t: TermId) -> Option<u128> {
        let bits = self.bv_cache.get(&t)?;
        let mut v: u128 = 0;
        for (i, l) in bits.iter().enumerate() {
            let b = self.sat.model_value(l.var()) == l.is_pos();
            if b {
                v |= 1 << i;
            }
        }
        Some(v)
    }

    /// Model value of a previously blasted boolean term.
    pub fn bool_model_value(&self, t: TermId) -> Option<bool> {
        let l = self.bool_cache.get(&t)?;
        Some(self.sat.model_value(l.var()) == l.is_pos())
    }

    /// The theory atoms that the SAT model's values of `roots` rest on, as
    /// `(atom id, polarity)` in atom order. Call it after a Sat answer and
    /// before any clause is added.
    ///
    /// The walk reads each Boolean term's model value through its literal. A
    /// true `Or` or `Implies`, or a false `And`, follows one child that fixes
    /// that value; an `Ite` follows its condition and the branch taken; every
    /// other term follows all of its children. Each reached term's value is
    /// then a function of the reached leaves alone, so a model that agrees
    /// with the SAT model on its variables and gives the reached atoms their
    /// polarities gives every root its literal's value.
    pub(crate) fn relevant_atoms(
        &self,
        arena: &TermArena,
        roots: &[&[TermId]],
    ) -> Vec<(usize, bool)> {
        let value = |t: TermId| self.bool_model_value(t);
        let mut seen = vec![0u64; arena.len().div_ceil(64)];
        let mut stack: Vec<TermId> = roots.concat();
        let mut ids: Vec<usize> = Vec::new();
        while let Some(t) = stack.pop() {
            let (word, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
            if seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            let node = arena.term(t);
            let args = &node.args;
            let one = |want: bool| args.iter().copied().find(|&a| value(a) == Some(want));
            let follow = match node.kind {
                Kind::IntLe => {
                    ids.extend(self.atom_cache.get(&t));
                    continue;
                }
                Kind::Or if value(t) == Some(true) => one(true),
                Kind::And if value(t) == Some(false) => one(false),
                Kind::Implies if value(t) == Some(true) => Some(if value(args[0]) == Some(false) {
                    args[0]
                } else {
                    args[1]
                }),
                Kind::Ite => value(args[0]).map(|c| {
                    stack.push(args[0]);
                    args[if c { 1 } else { 2 }]
                }),
                _ => None,
            };
            match follow {
                Some(a) => stack.push(a),
                None => stack.extend_from_slice(args),
            }
        }
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let l = self.atoms[id];
                (id, self.sat.model_value(l.var()) == l.is_pos())
            })
            .collect()
    }

    /// Iterates the bitvector cache (used for model reconstruction).
    pub fn blasted_bv_terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.bv_cache.keys().copied()
    }

    /// Iterates the boolean cache (used for model reconstruction).
    pub fn blasted_bool_terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.bool_cache.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpot_sat::SatResult;
    use tpot_smt::Sort;

    /// Solves `t` (boolean) and returns (sat?, model value extractor).
    fn check_valid(arena: &mut TermArena, t: TermId) -> bool {
        // Valid iff negation unsat.
        let neg = arena.not(t);
        let mut bb = BitBlaster::new(Solver::default());
        bb.assert_term(arena, neg).unwrap();
        assert!(bb.atoms.is_empty(), "pure BV test");
        bb.sat.solve(&[]) == SatResult::Unsat
    }

    #[test]
    fn add_commutes_with_concrete() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let s1 = a.bv_add(x, y);
        let s2 = a.bv_add(y, x);
        let eq = a.eq(s1, s2);
        assert!(check_valid(&mut a, eq));
    }

    #[test]
    fn sub_add_roundtrip() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let s = a.bv_add(x, y);
        let d = a.bv_sub(s, y);
        let eq = a.eq(d, x);
        assert!(check_valid(&mut a, eq));
    }

    #[test]
    fn mul_by_two_is_shift() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let two = a.bv_const(8, 2);
        let one = a.bv_const(8, 1);
        let m = a.bv_mul(x, two);
        let s = a.bv_shl(x, one);
        let eq = a.eq(m, s);
        assert!(check_valid(&mut a, eq));
    }

    #[test]
    fn udiv_urem_identity() {
        // x == (x/d)*d + x%d  when d != 0 (width 6 keeps the circuit small).
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(6));
        let d = a.var("d", Sort::BitVec(6));
        let zero = a.bv_const(6, 0);
        let nz = a.neq(d, zero);
        let q = a.bv_udiv(x, d);
        let r = a.bv_urem(x, d);
        let qd = a.bv_mul(q, d);
        let sum = a.bv_add(qd, r);
        let eq = a.eq(sum, x);
        let prop = a.implies(nz, eq);
        assert!(check_valid(&mut a, prop));
    }

    #[test]
    fn ult_total_order() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let lt = a.bv_ult(x, y);
        let gt = a.bv_ult(y, x);
        let eq = a.eq(x, y);
        let any = a.or(&[lt, gt, eq]);
        assert!(check_valid(&mut a, any));
    }

    #[test]
    fn shifts_saturate() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let s = a.var("s", Sort::BitVec(8));
        let eight = a.bv_const(8, 8);
        let big = a.bv_ule(eight, s);
        let shifted = a.bv_shl(x, s);
        let zero = a.bv_const(8, 0);
        let eq = a.eq(shifted, zero);
        let prop = a.implies(big, eq);
        assert!(check_valid(&mut a, prop));
    }

    #[test]
    fn ashr_fills_with_sign() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(4));
        let c = a.bv_const(4, 0b1000);
        let amt = a.var("s", Sort::BitVec(4));
        let four = a.bv_const(4, 4);
        let big = a.bv_ule(four, amt);
        let neg = a.bv_ule(c, x); // sign bit set
        let shifted = a.bv_ashr(x, amt);
        let ones = a.bv_const(4, 0xf);
        let eq = a.eq(shifted, ones);
        let pre = a.and2(big, neg);
        let prop = a.implies(pre, eq);
        assert!(check_valid(&mut a, prop));
    }

    #[test]
    fn int_atoms_collected_not_blasted() {
        let mut a = TermArena::new();
        let x = a.var("ix", Sort::Int);
        let c = a.int_const(5);
        let le = a.int_le(x, c);
        let mut bb = BitBlaster::new(Solver::default());
        let _l = bb.bool_lit(&a, le).unwrap();
        assert_eq!(bb.atoms.len(), 1);
        // Second reference reuses the literal.
        let _l2 = bb.bool_lit(&a, le).unwrap();
        assert_eq!(bb.atoms.len(), 1);
    }

    #[test]
    fn model_extraction() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let c = a.bv_const(8, 42);
        let eq = a.eq(x, c);
        let mut bb = BitBlaster::new(Solver::default());
        bb.assert_term(&a, eq).unwrap();
        assert_eq!(bb.sat.solve(&[]), SatResult::Sat);
        assert_eq!(bb.bv_model_value(x), Some(42));
    }

    #[test]
    fn concat_extract_consistency() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(4));
        let y = a.var("y", Sort::BitVec(4));
        let c = a.concat(x, y);
        let hi = a.extract(c, 7, 4);
        let eq = a.eq(hi, x);
        assert!(check_valid(&mut a, eq));
    }
}
