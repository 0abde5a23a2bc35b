//! Hash-consing arena and the term-building API.
//!
//! All construction goes through [`TermArena`]; the builders perform local
//! constant folding and peephole simplification so that downstream consumers
//! (the engine's query simplifier, the solver's preprocessor) see normalized
//! terms. Commutative operators sort their operands by id, improving sharing.

use std::collections::{HashMap, HashSet};

use crate::sort::{bv_mask, bv_signed, Sort};
use crate::term::{Kind, Term, TermId};

/// Identifier of a declared uninterpreted function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FuncId(pub u32);

/// Declaration of an uninterpreted function.
#[derive(Clone, Debug)]
pub struct FuncDecl {
    /// Function name as it appears in SMT-LIB output.
    pub name: String,
    /// Argument sorts.
    pub args: Vec<Sort>,
    /// Return sort.
    pub ret: Sort,
}

/// Hash-consing term arena.
///
/// The arena owns every term ever built; terms are immutable and deduplicated
/// structurally. Variables and uninterpreted functions are interned by name.
/// `Clone` is used by the solver portfolio: each racing instance works on its
/// own copy (term ids remain aligned across clones).
#[derive(Default, Clone)]
pub struct TermArena {
    terms: Vec<Term>,
    map: HashMap<Term, TermId>,
    vars: Vec<(String, Sort)>,
    var_map: HashMap<String, u32>,
    funcs: Vec<FuncDecl>,
    func_map: HashMap<String, FuncId>,
    fresh_counter: u64,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms in the arena.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the arena holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the term node for an id.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Returns the sort of a term.
    pub fn sort(&self, id: TermId) -> &Sort {
        &self.terms[id.index()].sort
    }

    /// Returns the name of a variable node.
    ///
    /// # Panics
    /// Panics if `id` is not a `Var` node.
    pub fn var_name(&self, id: TermId) -> &str {
        match self.term(id).kind {
            Kind::Var(sym) => &self.vars[sym as usize].0,
            _ => panic!("var_name on non-variable term"),
        }
    }

    /// Returns the declaration of a function id.
    pub fn func(&self, id: FuncId) -> &FuncDecl {
        &self.funcs[id.0 as usize]
    }

    /// All declared functions, in declaration order.
    pub fn funcs(&self) -> &[FuncDecl] {
        &self.funcs
    }

    /// All interned variables, in declaration order.
    pub fn vars(&self) -> &[(String, Sort)] {
        &self.vars
    }

    fn mk(&mut self, kind: Kind, args: Vec<TermId>, sort: Sort) -> TermId {
        let t = Term { kind, args, sort };
        if let Some(&id) = self.map.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.map.insert(t, id);
        id
    }

    // ---------------------------------------------------------------- leaves

    /// The constant `true`.
    pub fn tru(&mut self) -> TermId {
        self.mk(Kind::True, vec![], Sort::Bool)
    }

    /// The constant `false`.
    pub fn fls(&mut self) -> TermId {
        self.mk(Kind::False, vec![], Sort::Bool)
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        if b {
            self.tru()
        } else {
            self.fls()
        }
    }

    /// A bitvector constant of the given width; the value is masked to the
    /// width.
    pub fn bv_const(&mut self, width: u32, value: u128) -> TermId {
        assert!((1..=128).contains(&width), "bv width out of range: {width}");
        self.mk(
            Kind::BvConst(value & bv_mask(width)),
            vec![],
            Sort::BitVec(width),
        )
    }

    /// A 64-bit bitvector constant (the pervasive pointer width).
    pub fn bv64(&mut self, value: u64) -> TermId {
        self.bv_const(64, value as u128)
    }

    /// An integer constant.
    pub fn int_const(&mut self, value: i128) -> TermId {
        self.mk(Kind::IntConst(value), vec![], Sort::Int)
    }

    /// Interns a variable by name.
    ///
    /// # Panics
    /// Panics if the name was previously interned with a different sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(&sym) = self.var_map.get(name) {
            assert_eq!(
                self.vars[sym as usize].1, sort,
                "variable {name} re-declared with different sort"
            );
            return self.mk(Kind::Var(sym), vec![], sort);
        }
        let sym = self.vars.len() as u32;
        self.vars.push((name.to_string(), sort.clone()));
        self.var_map.insert(name.to_string(), sym);
        self.mk(Kind::Var(sym), vec![], sort)
    }

    /// Creates a variable with a unique, prefix-derived name.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        loop {
            let name = format!("{prefix}!{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.var_map.contains_key(&name) {
                return self.var(&name, sort);
            }
        }
    }

    /// Declares an uninterpreted function, or returns the existing id when
    /// one with the same name and signature exists.
    ///
    /// # Panics
    /// Panics if the name exists with a different signature.
    pub fn declare_func(&mut self, name: &str, args: Vec<Sort>, ret: Sort) -> FuncId {
        if let Some(&id) = self.func_map.get(name) {
            let d = &self.funcs[id.0 as usize];
            assert!(
                d.args == args && d.ret == ret,
                "function {name} re-declared with different signature"
            );
            return id;
        }
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(FuncDecl {
            name: name.to_string(),
            args,
            ret,
        });
        self.func_map.insert(name.to_string(), id);
        id
    }

    /// Applies a declared function.
    pub fn apply(&mut self, f: FuncId, args: Vec<TermId>) -> TermId {
        let decl = &self.funcs[f.0 as usize];
        debug_assert_eq!(
            decl.args.len(),
            args.len(),
            "arity mismatch for {}",
            decl.name
        );
        let ret = decl.ret.clone();
        self.mk(Kind::Apply(f), args, ret)
    }

    // ---------------------------------------------------------------- boolean

    /// Logical negation.
    pub fn not(&mut self, a: TermId) -> TermId {
        match self.term(a).kind {
            Kind::True => return self.fls(),
            Kind::False => return self.tru(),
            Kind::Not => return self.term(a).args[0],
            _ => {}
        }
        self.mk(Kind::Not, vec![a], Sort::Bool)
    }

    /// N-ary conjunction with flattening, constant elimination and
    /// deduplication.
    pub fn and(&mut self, parts: &[TermId]) -> TermId {
        let mut flat: Vec<TermId> = Vec::with_capacity(parts.len());
        for &p in parts {
            match &self.term(p).kind {
                Kind::True => {}
                Kind::False => return self.fls(),
                Kind::And => flat.extend(self.term(p).args.iter().copied()),
                _ => flat.push(p),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // `x && !x` is false.
        for &t in &flat {
            if let Kind::Not = self.term(t).kind {
                let inner = self.term(t).args[0];
                if flat.binary_search(&inner).is_ok() {
                    return self.fls();
                }
            }
        }
        match flat.len() {
            0 => self.tru(),
            1 => flat[0],
            _ => self.mk(Kind::And, flat, Sort::Bool),
        }
    }

    /// Binary conjunction.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(&[a, b])
    }

    /// N-ary disjunction with flattening, constant elimination and
    /// deduplication.
    pub fn or(&mut self, parts: &[TermId]) -> TermId {
        let mut flat: Vec<TermId> = Vec::with_capacity(parts.len());
        for &p in parts {
            match &self.term(p).kind {
                Kind::False => {}
                Kind::True => return self.tru(),
                Kind::Or => flat.extend(self.term(p).args.iter().copied()),
                _ => flat.push(p),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &t in &flat {
            if let Kind::Not = self.term(t).kind {
                let inner = self.term(t).args[0];
                if flat.binary_search(&inner).is_ok() {
                    return self.tru();
                }
            }
        }
        match flat.len() {
            0 => self.fls(),
            1 => flat[0],
            _ => self.mk(Kind::Or, flat, Sort::Bool),
        }
    }

    /// Binary disjunction.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(&[a, b])
    }

    /// Implication, lowered to `!a || b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// Boolean exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.term(a).as_bool_const(), self.term(b).as_bool_const()) {
            (Some(x), Some(y)) => return self.bool_const(x ^ y),
            (Some(false), None) => return b,
            (None, Some(false)) => return a,
            (Some(true), None) => return self.not(b),
            (None, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.fls();
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(Kind::Xor, vec![a, b], Sort::Bool)
    }

    /// If-then-else over any sort.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        debug_assert!(self.sort(cond).is_bool());
        debug_assert_eq!(self.sort(then), self.sort(els));
        match self.term(cond).as_bool_const() {
            Some(true) => return then,
            Some(false) => return els,
            None => {}
        }
        if then == els {
            return then;
        }
        // Boolean ite lowers to and/or so the CNF stays small.
        if self.sort(then).is_bool() {
            let nc = self.not(cond);
            let l = self.and2(cond, then);
            let r = self.and2(nc, els);
            return self.or2(l, r);
        }
        let sort = self.sort(then).clone();
        self.mk(Kind::Ite, vec![cond, then, els], sort)
    }

    /// Equality over any sort.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert_eq!(self.sort(a), self.sort(b), "eq sort mismatch");
        if a == b {
            return self.tru();
        }
        let (ta, tb) = (self.term(a), self.term(b));
        if ta.is_const() && tb.is_const() {
            // Distinct constant leaves of equal sort are unequal.
            return self.fls();
        }
        // Boolean equality with a constant simplifies.
        if let Some(c) = ta.as_bool_const() {
            return if c { b } else { self.not(b) };
        }
        if let Some(c) = tb.as_bool_const() {
            return if c { a } else { self.not(a) };
        }
        // Comparison-flag peepholes: `zext(x) == c` narrows, and
        // `ite(cond, k1, k2) == c` selects — together these turn C's
        // widened 0/1 comparison results back into the underlying boolean.
        for (x, y) in [(a, b), (b, a)] {
            if let Some((_, c)) = self.term(y).as_bv_const() {
                match self.term(x).kind.clone() {
                    Kind::ZeroExt { extra } => {
                        let inner = self.term(x).args[0];
                        let wi = self.bv_width_of(inner);
                        let _ = extra;
                        if c >> wi != 0 {
                            return self.fls();
                        }
                        let ci = self.bv_const(wi, c);
                        return self.eq(inner, ci);
                    }
                    Kind::Ite => {
                        let cond = self.term(x).args[0];
                        let t1 = self.term(x).args[1];
                        let t2 = self.term(x).args[2];
                        if let (Some((_, v1)), Some((_, v2))) =
                            (self.term(t1).as_bv_const(), self.term(t2).as_bv_const())
                        {
                            return match (v1 == c, v2 == c) {
                                (true, true) => self.tru(),
                                (true, false) => cond,
                                (false, true) => self.not(cond),
                                (false, false) => self.fls(),
                            };
                        }
                    }
                    _ => {}
                }
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(Kind::Eq, vec![a, b], Sort::Bool)
    }

    /// Disequality.
    pub fn neq(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    // ---------------------------------------------------------------- bitvec

    fn bv_width_of(&self, a: TermId) -> u32 {
        self.sort(a)
            .bv_width()
            .expect("bitvector operation on non-bitvector term")
    }

    fn bv_binop(
        &mut self,
        kind: Kind,
        a: TermId,
        b: TermId,
        fold: impl Fn(u32, u128, u128) -> u128,
        commutes: bool,
    ) -> TermId {
        let w = self.bv_width_of(a);
        debug_assert_eq!(w, self.bv_width_of(b), "bv width mismatch");
        if let (Some((_, x)), Some((_, y))) =
            (self.term(a).as_bv_const(), self.term(b).as_bv_const())
        {
            return self.bv_const(w, fold(w, x, y));
        }
        let (a, b) = if commutes && b < a { (b, a) } else { (a, b) };
        self.mk(kind, vec![a, b], Sort::BitVec(w))
    }

    /// Bitvector addition.
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_width_of(a);
        if self.term(a).as_bv_const().map(|c| c.1) == Some(0) {
            return b;
        }
        if self.term(b).as_bv_const().map(|c| c.1) == Some(0) {
            return a;
        }
        // `a + (b - a)` folds to `b` (marker instantiation rebuilds element
        // pointers this way).
        for (x, y) in [(a, b), (b, a)] {
            if self.term(y).kind == Kind::BvSub && self.term(y).args[1] == x {
                return self.term(y).args[0];
            }
        }
        // Reassociate `(x + c1) + c2` into `x + (c1+c2)` so constant offsets
        // accumulate (pointer arithmetic chains produce these).
        if let Some((_, c2)) = self.term(b).as_bv_const() {
            if self.term(a).kind == Kind::BvAdd {
                let x = self.term(a).args[0];
                let y = self.term(a).args[1];
                if let Some((_, c1)) = self.term(y).as_bv_const() {
                    let c = self.bv_const(w, c1.wrapping_add(c2));
                    return self.bv_add(x, c);
                }
            }
        }
        self.bv_binop(
            Kind::BvAdd,
            a,
            b,
            |w, x, y| x.wrapping_add(y) & bv_mask(w),
            true,
        )
    }

    /// Bitvector subtraction.
    pub fn bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            let w = self.bv_width_of(a);
            return self.bv_const(w, 0);
        }
        if self.term(b).as_bv_const().map(|c| c.1) == Some(0) {
            return a;
        }
        self.bv_binop(
            Kind::BvSub,
            a,
            b,
            |w, x, y| x.wrapping_sub(y) & bv_mask(w),
            false,
        )
    }

    /// Bitvector multiplication.
    pub fn bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_width_of(a);
        for (c, o) in [(a, b), (b, a)] {
            if let Some((_, v)) = self.term(c).as_bv_const() {
                if v == 0 {
                    return self.bv_const(w, 0);
                }
                if v == 1 {
                    return o;
                }
            }
        }
        self.bv_binop(
            Kind::BvMul,
            a,
            b,
            |w, x, y| x.wrapping_mul(y) & bv_mask(w),
            true,
        )
    }

    /// Unsigned bitvector division (SMT-LIB semantics: `x / 0 = all-ones`).
    pub fn bv_udiv(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Kind::BvUDiv,
            a,
            b,
            |w, x, y| x.checked_div(y).unwrap_or_else(|| bv_mask(w)),
            false,
        )
    }

    /// Unsigned bitvector remainder (SMT-LIB semantics: `x % 0 = x`).
    pub fn bv_urem(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop(
            Kind::BvURem,
            a,
            b,
            |_, x, y| if y == 0 { x } else { x % y },
            false,
        )
    }

    /// Two's-complement negation.
    pub fn bv_neg(&mut self, a: TermId) -> TermId {
        let w = self.bv_width_of(a);
        if let Some((_, v)) = self.term(a).as_bv_const() {
            return self.bv_const(w, v.wrapping_neg() & bv_mask(w));
        }
        self.mk(Kind::BvNeg, vec![a], Sort::BitVec(w))
    }

    /// Bitwise and.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_width_of(a);
        for (c, o) in [(a, b), (b, a)] {
            if let Some((_, v)) = self.term(c).as_bv_const() {
                if v == 0 {
                    return self.bv_const(w, 0);
                }
                if v == bv_mask(w) {
                    return o;
                }
            }
        }
        if a == b {
            return a;
        }
        self.bv_binop(Kind::BvAnd, a, b, |_, x, y| x & y, true)
    }

    /// Bitwise or.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_width_of(a);
        for (c, o) in [(a, b), (b, a)] {
            if let Some((_, v)) = self.term(c).as_bv_const() {
                if v == 0 {
                    return o;
                }
                if v == bv_mask(w) {
                    return self.bv_const(w, bv_mask(w));
                }
            }
        }
        if a == b {
            return a;
        }
        self.bv_binop(Kind::BvOr, a, b, |_, x, y| x | y, true)
    }

    /// Bitwise xor.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            let w = self.bv_width_of(a);
            return self.bv_const(w, 0);
        }
        for (c, o) in [(a, b), (b, a)] {
            if self.term(c).as_bv_const().map(|c| c.1) == Some(0) {
                return o;
            }
        }
        self.bv_binop(Kind::BvXor, a, b, |_, x, y| x ^ y, true)
    }

    /// Bitwise not.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        let w = self.bv_width_of(a);
        if let Some((_, v)) = self.term(a).as_bv_const() {
            return self.bv_const(w, !v & bv_mask(w));
        }
        if self.term(a).kind == Kind::BvNot {
            return self.term(a).args[0];
        }
        self.mk(Kind::BvNot, vec![a], Sort::BitVec(w))
    }

    /// Shift left; shift amounts ≥ width yield zero.
    pub fn bv_shl(&mut self, a: TermId, b: TermId) -> TermId {
        if self.term(b).as_bv_const().map(|c| c.1) == Some(0) {
            return a;
        }
        self.bv_binop(
            Kind::BvShl,
            a,
            b,
            |w, x, y| {
                if y >= w as u128 {
                    0
                } else {
                    (x << y) & bv_mask(w)
                }
            },
            false,
        )
    }

    /// Logical shift right.
    pub fn bv_lshr(&mut self, a: TermId, b: TermId) -> TermId {
        if self.term(b).as_bv_const().map(|c| c.1) == Some(0) {
            return a;
        }
        self.bv_binop(
            Kind::BvLShr,
            a,
            b,
            |w, x, y| if y >= w as u128 { 0 } else { x >> y },
            false,
        )
    }

    /// Arithmetic shift right.
    pub fn bv_ashr(&mut self, a: TermId, b: TermId) -> TermId {
        if self.term(b).as_bv_const().map(|c| c.1) == Some(0) {
            return a;
        }
        self.bv_binop(
            Kind::BvAShr,
            a,
            b,
            |w, x, y| {
                let sx = bv_signed(w, x);
                let sh = y.min(w as u128 - 1) as u32;
                ((sx >> sh) as u128) & bv_mask(w)
            },
            false,
        )
    }

    fn bv_cmp(
        &mut self,
        kind: Kind,
        a: TermId,
        b: TermId,
        fold: impl Fn(u32, u128, u128) -> bool,
        refl: bool,
    ) -> TermId {
        let w = self.bv_width_of(a);
        debug_assert_eq!(w, self.bv_width_of(b));
        if a == b {
            return self.bool_const(refl);
        }
        if let (Some((_, x)), Some((_, y))) =
            (self.term(a).as_bv_const(), self.term(b).as_bv_const())
        {
            return self.bool_const(fold(w, x, y));
        }
        self.mk(kind, vec![a, b], Sort::Bool)
    }

    /// Unsigned less-than.
    pub fn bv_ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_cmp(Kind::BvUlt, a, b, |_, x, y| x < y, false)
    }

    /// Unsigned less-or-equal.
    pub fn bv_ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_cmp(Kind::BvUle, a, b, |_, x, y| x <= y, true)
    }

    /// Signed less-than.
    pub fn bv_slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_cmp(
            Kind::BvSlt,
            a,
            b,
            |w, x, y| bv_signed(w, x) < bv_signed(w, y),
            false,
        )
    }

    /// Signed less-or-equal.
    pub fn bv_sle(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_cmp(
            Kind::BvSle,
            a,
            b,
            |w, x, y| bv_signed(w, x) <= bv_signed(w, y),
            true,
        )
    }

    /// Concatenation; `hi` supplies the high-order bits.
    ///
    /// Adjacent extracts over the same subject merge back into a single
    /// extract; this collapses the concat chains produced by multi-byte
    /// memory reads (§4.3, "Read after write").
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let wh = self.bv_width_of(hi);
        let wl = self.bv_width_of(lo);
        let w = wh + wl;
        assert!(w <= 128, "concat exceeds 128 bits");
        if let (Some((_, x)), Some((_, y))) =
            (self.term(hi).as_bv_const(), self.term(lo).as_bv_const())
        {
            return self.bv_const(w, (x << wl) | y);
        }
        if let (Kind::Extract { hi: h1, lo: l1 }, Kind::Extract { hi: h2, lo: l2 }) =
            (self.term(hi).kind.clone(), self.term(lo).kind.clone())
        {
            let (s1, s2) = (self.term(hi).args[0], self.term(lo).args[0]);
            if s1 == s2 && l1 == h2 + 1 {
                return self.extract(s1, h1, l2);
            }
        }
        // Zero high part is a zero extension (keeps reassembled multi-byte
        // reads structural so downstream peepholes fire).
        if self.term(hi).as_bv_const().map(|c| c.1) == Some(0) {
            return self.zero_ext(lo, wh);
        }
        self.mk(Kind::Concat, vec![hi, lo], Sort::BitVec(w))
    }

    /// Bit extraction over the inclusive range `[lo, hi]`.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.bv_width_of(a);
        assert!(hi >= lo && hi < w, "extract range out of bounds");
        let rw = hi - lo + 1;
        if rw == w {
            return a;
        }
        if let Some((_, v)) = self.term(a).as_bv_const() {
            return self.bv_const(rw, (v >> lo) & bv_mask(rw));
        }
        match self.term(a).kind.clone() {
            // Extract of extract composes.
            Kind::Extract { hi: _h0, lo: l0 } => {
                let s = self.term(a).args[0];
                return self.extract(s, l0 + hi, l0 + lo);
            }
            // Extract entirely within one side of a concat narrows.
            Kind::Concat => {
                let h = self.term(a).args[0];
                let l = self.term(a).args[1];
                let wl = self.bv_width_of(l);
                if lo >= wl {
                    return self.extract(h, hi - wl, lo - wl);
                }
                if hi < wl {
                    return self.extract(l, hi, lo);
                }
            }
            // Extract of a zero extension.
            Kind::ZeroExt { .. } => {
                let s = self.term(a).args[0];
                let sw = self.bv_width_of(s);
                if hi < sw {
                    return self.extract(s, hi, lo);
                }
                if lo >= sw {
                    return self.bv_const(rw, 0);
                }
            }
            _ => {}
        }
        self.mk(Kind::Extract { hi, lo }, vec![a], Sort::BitVec(rw))
    }

    /// Zero extension by `extra` bits.
    pub fn zero_ext(&mut self, a: TermId, extra: u32) -> TermId {
        if extra == 0 {
            return a;
        }
        let w = self.bv_width_of(a) + extra;
        assert!(w <= 128);
        if let Some((_, v)) = self.term(a).as_bv_const() {
            return self.bv_const(w, v);
        }
        self.mk(Kind::ZeroExt { extra }, vec![a], Sort::BitVec(w))
    }

    /// Sign extension by `extra` bits.
    pub fn sign_ext(&mut self, a: TermId, extra: u32) -> TermId {
        if extra == 0 {
            return a;
        }
        let w0 = self.bv_width_of(a);
        let w = w0 + extra;
        assert!(w <= 128);
        if let Some((_, v)) = self.term(a).as_bv_const() {
            let sv = bv_signed(w0, v) as u128 & bv_mask(w);
            return self.bv_const(w, sv);
        }
        self.mk(Kind::SignExt { extra }, vec![a], Sort::BitVec(w))
    }

    // ---------------------------------------------------------------- int

    /// N-ary integer addition; constants are combined and zeros dropped.
    pub fn int_add(&mut self, parts: &[TermId]) -> TermId {
        let mut flat: Vec<TermId> = Vec::new();
        let mut acc: i128 = 0;
        for &p in parts {
            match &self.term(p).kind {
                Kind::IntConst(v) => acc = acc.checked_add(*v).expect("integer constant overflow"),
                Kind::IntAdd => {
                    for &q in &self.term(p).args.clone() {
                        if let Kind::IntConst(v) = self.term(q).kind {
                            acc = acc.checked_add(v).expect("integer constant overflow");
                        } else {
                            flat.push(q);
                        }
                    }
                }
                _ => flat.push(p),
            }
        }
        // Cancel `t + (-t)` pairs (pointer-offset round trips produce
        // them, and exact folding keeps array indices syntactically equal).
        flat.sort_unstable();
        let mut i = 0;
        while i < flat.len() {
            let t = flat[i];
            let neg = if self.term(t).kind == Kind::IntNeg {
                Some(self.term(t).args[0])
            } else {
                None
            };
            let partner = match neg {
                Some(inner) => flat.iter().position(|&x| x == inner),
                None => flat
                    .iter()
                    .position(|&x| self.term(x).kind == Kind::IntNeg && self.term(x).args[0] == t),
            };
            match partner {
                Some(j) if j != i => {
                    let (a, b) = (i.max(j), i.min(j));
                    flat.remove(a);
                    flat.remove(b);
                    i = 0;
                }
                _ => i += 1,
            }
        }
        if acc != 0 || flat.is_empty() {
            let c = self.int_const(acc);
            flat.push(c);
        }
        flat.sort_unstable();
        match flat.len() {
            1 => flat[0],
            _ => self.mk(Kind::IntAdd, flat, Sort::Int),
        }
    }

    /// Binary integer addition.
    pub fn int_add2(&mut self, a: TermId, b: TermId) -> TermId {
        self.int_add(&[a, b])
    }

    /// Integer subtraction, lowered to `a + (-b)`.
    pub fn int_sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.int_neg(b);
        self.int_add(&[a, nb])
    }

    /// Integer negation.
    pub fn int_neg(&mut self, a: TermId) -> TermId {
        if let Kind::IntConst(v) = self.term(a).kind {
            return self.int_const(v.checked_neg().expect("integer negation overflow"));
        }
        if self.term(a).kind == Kind::IntNeg {
            return self.term(a).args[0];
        }
        self.mk(Kind::IntNeg, vec![a], Sort::Int)
    }

    /// Integer multiplication. The solver requires linearity; the builder
    /// folds when either side is constant.
    pub fn int_mul(&mut self, a: TermId, b: TermId) -> TermId {
        if let (Kind::IntConst(x), Kind::IntConst(y)) =
            (self.term(a).kind.clone(), self.term(b).kind.clone())
        {
            return self.int_const(x.checked_mul(y).expect("integer constant overflow"));
        }
        for (c, o) in [(a, b), (b, a)] {
            if let Kind::IntConst(v) = self.term(c).kind {
                if v == 0 {
                    return self.int_const(0);
                }
                if v == 1 {
                    return o;
                }
            }
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(Kind::IntMul, vec![a, b], Sort::Int)
    }

    /// `a <= b` over integers.
    pub fn int_le(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.tru();
        }
        if let (Kind::IntConst(x), Kind::IntConst(y)) =
            (self.term(a).kind.clone(), self.term(b).kind.clone())
        {
            return self.bool_const(x <= y);
        }
        self.mk(Kind::IntLe, vec![a, b], Sort::Bool)
    }

    /// `a < b` over integers.
    pub fn int_lt(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.fls();
        }
        if let (Kind::IntConst(x), Kind::IntConst(y)) =
            (self.term(a).kind.clone(), self.term(b).kind.clone())
        {
            return self.bool_const(x < y);
        }
        self.mk(Kind::IntLt, vec![a, b], Sort::Bool)
    }

    /// `a >= b` over integers (sugar).
    pub fn int_ge(&mut self, a: TermId, b: TermId) -> TermId {
        self.int_le(b, a)
    }

    /// `a > b` over integers (sugar).
    pub fn int_gt(&mut self, a: TermId, b: TermId) -> TermId {
        self.int_lt(b, a)
    }

    // ---------------------------------------------------------------- arrays

    /// `(select a i)`, with syntactic read-over-write short-circuiting.
    ///
    /// The deeper, solver-assisted read-after-write simplification of §4.3
    /// lives in the engine; this builder handles the purely syntactic cases
    /// (identical or concretely distinct indices).
    pub fn select(&mut self, arr: TermId, idx: TermId) -> TermId {
        let (isort, esort) = match self.sort(arr).clone() {
            Sort::Array(i, e) => (*i, *e),
            s => panic!("select on non-array sort {s}"),
        };
        debug_assert_eq!(self.sort(idx), &isort);
        let mut cur = arr;
        loop {
            if self.term(cur).kind != Kind::Store {
                break;
            }
            let a = self.term(cur).args[0];
            let i = self.term(cur).args[1];
            let v = self.term(cur).args[2];
            if i == idx {
                return v;
            }
            match (self.term(i).as_bv_const(), self.term(idx).as_bv_const()) {
                (Some((_, x)), Some((_, y))) if x != y => {
                    cur = a;
                    continue;
                }
                _ => {}
            }
            match (self.term(i).as_int_const(), self.term(idx).as_int_const()) {
                (Some(x), Some(y)) if x != y => {
                    cur = a;
                    continue;
                }
                _ => break,
            }
        }
        self.mk(Kind::Select, vec![cur, idx], esort)
    }

    /// `(store a i v)`.
    pub fn store(&mut self, arr: TermId, idx: TermId, val: TermId) -> TermId {
        let sort = self.sort(arr).clone();
        debug_assert!(matches!(sort, Sort::Array(_, _)));
        self.mk(Kind::Store, vec![arr, idx, val], sort)
    }

    // ---------------------------------------------------------------- slicing

    /// Cone-of-influence slice: a new arena holding only the terms reachable
    /// from `roots`, plus the remapped root ids.
    ///
    /// The arena grows monotonically over a POT run, so late queries assert
    /// over a tiny fraction of the terms ever built; shipping a slice to each
    /// racing portfolio instance instead of cloning the full arena makes
    /// per-query setup proportional to the query, not to the run's history.
    ///
    /// Invariants preserved:
    /// - term *structure* is copied verbatim (no re-simplification), so the
    ///   sliced query serializes to the same SMT-LIB assertions;
    /// - **all** function declarations are copied so `FuncId`s stay stable —
    ///   models key UF interpretations by `FuncId` and callers evaluate those
    ///   models against the original arena;
    /// - variables keep their names (models are name-keyed), and the fresh-
    ///   name counter carries over so downstream fresh vars cannot collide;
    /// - the cone's variables are registered in their original relative
    ///   declaration order. The serializer prints `declare-const`s sorted
    ///   by symbol index, so preserving the order is what makes a slice
    ///   print byte-identically to the full arena — which the persistent
    ///   query cache relies on, since it keys on the serialized text's
    ///   fingerprint. (Found by the `slice_vs_full` fuzzing harness: a
    ///   DFS-order registration reorders declarations whenever the first
    ///   variable reached in the cone is not the first one declared.)
    pub fn slice(&self, roots: &[TermId]) -> (TermArena, Vec<TermId>) {
        let _span = tpot_obs::span_args(
            "smt",
            "slice",
            &[
                ("roots", roots.len().to_string()),
                ("arena_terms", self.len().to_string()),
            ],
        );
        let mut out = TermArena {
            funcs: self.funcs.clone(),
            func_map: self.func_map.clone(),
            fresh_counter: self.fresh_counter,
            ..TermArena::default()
        };
        let mut cone_syms: Vec<u32> = Vec::new();
        {
            let mut seen: HashSet<TermId> = HashSet::new();
            let mut walk: Vec<TermId> = roots.to_vec();
            while let Some(t) = walk.pop() {
                if !seen.insert(t) {
                    continue;
                }
                let node = self.term(t);
                if let Kind::Var(sym) = node.kind {
                    cone_syms.push(sym);
                }
                walk.extend(node.args.iter().copied());
            }
        }
        cone_syms.sort_unstable();
        cone_syms.dedup();
        for sym in cone_syms {
            let (name, sort) = self.vars[sym as usize].clone();
            out.var(&name, sort);
        }
        let mut remap: HashMap<TermId, TermId> = HashMap::new();
        // Iterative post-order DFS (terms can nest deeply).
        let mut stack: Vec<(TermId, bool)> = roots.iter().rev().map(|&r| (r, false)).collect();
        while let Some((t, expanded)) = stack.pop() {
            if remap.contains_key(&t) {
                continue;
            }
            let node = self.term(t);
            if !expanded {
                stack.push((t, true));
                for &a in node.args.iter().rev() {
                    if !remap.contains_key(&a) {
                        stack.push((a, false));
                    }
                }
                continue;
            }
            let new_id = match &node.kind {
                Kind::Var(sym) => {
                    let (name, sort) = self.vars[*sym as usize].clone();
                    out.var(&name, sort)
                }
                kind => {
                    let args: Vec<TermId> = node.args.iter().map(|a| remap[a]).collect();
                    out.mk(kind.clone(), args, node.sort.clone())
                }
            };
            remap.insert(t, new_id);
        }
        let new_roots = roots.iter().map(|r| remap[r]).collect();
        (out, new_roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(32));
        let y = a.var("y", Sort::BitVec(32));
        let s1 = a.bv_add(x, y);
        let s2 = a.bv_add(y, x); // commutative normalization
        assert_eq!(s1, s2);
        let x2 = a.var("x", Sort::BitVec(32));
        assert_eq!(x, x2);
    }

    #[test]
    fn constant_folding_bv() {
        let mut a = TermArena::new();
        let c1 = a.bv_const(8, 200);
        let c2 = a.bv_const(8, 100);
        let s = a.bv_add(c1, c2);
        assert_eq!(a.term(s).as_bv_const(), Some((8, 44))); // wraps mod 256
        let m = a.bv_mul(c1, c2);
        assert_eq!(a.term(m).as_bv_const(), Some((8, (200 * 100) % 256)));
        let d = a.bv_udiv(c1, c2);
        assert_eq!(a.term(d).as_bv_const(), Some((8, 2)));
        let z = a.bv_const(8, 0);
        let dz = a.bv_udiv(c1, z);
        assert_eq!(a.term(dz).as_bv_const(), Some((8, 0xff)));
    }

    #[test]
    fn add_zero_and_reassociation() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(64));
        let zero = a.bv64(0);
        assert_eq!(a.bv_add(x, zero), x);
        let four = a.bv64(4);
        let eight = a.bv64(8);
        let p = a.bv_add(x, four);
        let q = a.bv_add(p, eight);
        let twelve = a.bv64(12);
        let direct = a.bv_add(x, twelve);
        assert_eq!(q, direct);
    }

    #[test]
    fn and_or_simplification() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let q = a.var("q", Sort::Bool);
        let t = a.tru();
        let f = a.fls();
        assert_eq!(a.and(&[p, t]), p);
        assert_eq!(a.and(&[p, f]), f);
        assert_eq!(a.or(&[p, f]), p);
        assert_eq!(a.or(&[p, t]), t);
        let np = a.not(p);
        assert_eq!(a.and(&[p, np, q]), f);
        assert_eq!(a.or(&[p, np]), t);
        assert_eq!(a.and(&[p, p]), p);
    }

    #[test]
    fn not_involution_and_eq() {
        let mut a = TermArena::new();
        let p = a.var("p", Sort::Bool);
        let np = a.not(p);
        assert_eq!(a.not(np), p);
        let x = a.var("x", Sort::Int);
        assert_eq!(a.eq(x, x), a.tru());
        let c1 = a.int_const(3);
        let c2 = a.int_const(4);
        assert_eq!(a.eq(c1, c2), a.fls());
    }

    #[test]
    fn extract_concat_fusion() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(64));
        // Reading 2 bytes of x and concatenating them merges back.
        let b1 = a.extract(x, 15, 8);
        let b0 = a.extract(x, 7, 0);
        let r = a.concat(b1, b0);
        assert_eq!(r, a.extract(x, 15, 0));
        // Full-width byte reassembly yields x itself.
        let mut bytes = Vec::new();
        for i in (0..8).rev() {
            bytes.push(a.extract(x, i * 8 + 7, i * 8));
        }
        let mut acc = bytes[0];
        for &b in &bytes[1..] {
            acc = a.concat(acc, b);
        }
        assert_eq!(acc, x);
    }

    #[test]
    fn extract_of_constant_and_zext() {
        let mut a = TermArena::new();
        let c = a.bv_const(16, 0xabcd);
        let hi = a.extract(c, 15, 8);
        assert_eq!(a.term(hi).as_bv_const(), Some((8, 0xab)));
        let x = a.var("x", Sort::BitVec(8));
        let zx = a.zero_ext(x, 8);
        let top = a.extract(zx, 15, 8);
        assert_eq!(a.term(top).as_bv_const(), Some((8, 0)));
        let bot = a.extract(zx, 7, 0);
        assert_eq!(bot, x);
    }

    #[test]
    fn int_add_combines_constants() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let c3 = a.int_const(3);
        let c4 = a.int_const(4);
        let s1 = a.int_add(&[x, c3, c4]);
        let c7 = a.int_const(7);
        let s2 = a.int_add(&[x, c7]);
        assert_eq!(s1, s2);
        let zero = a.int_const(0);
        assert_eq!(a.int_add(&[x, zero]), x);
    }

    #[test]
    fn int_sub_as_neg_add() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::Int);
        let d = a.int_sub(x, x);
        // x + (-x) is not folded structurally, but x - x with equal ids: the
        // n-ary sum keeps both; check the concrete fold path instead.
        let c5 = a.int_const(5);
        let c2 = a.int_const(2);
        let r = a.int_sub(c5, c2);
        assert_eq!(a.term(r).as_int_const(), Some(3));
        let _ = d;
    }

    #[test]
    fn ite_simplifies() {
        let mut a = TermArena::new();
        let c = a.var("c", Sort::Bool);
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let t = a.tru();
        assert_eq!(a.ite(t, x, y), x);
        assert_eq!(a.ite(c, x, x), x);
    }

    #[test]
    fn select_over_store() {
        let mut a = TermArena::new();
        let arr = a.var("m", Sort::byte_array());
        let i0 = a.bv64(0);
        let i1 = a.bv64(1);
        let v = a.bv_const(8, 0x7f);
        let st = a.store(arr, i0, v);
        assert_eq!(a.select(st, i0), v);
        // Distinct concrete index looks through the store.
        let s = a.select(st, i1);
        let direct = a.select(arr, i1);
        assert_eq!(s, direct);
    }

    #[test]
    fn uf_declaration_and_application() {
        let mut a = TermArena::new();
        let f = a.declare_func("tpot_bv2int", vec![Sort::BitVec(64)], Sort::Int);
        let f2 = a.declare_func("tpot_bv2int", vec![Sort::BitVec(64)], Sort::Int);
        assert_eq!(f, f2);
        let x = a.var("x", Sort::BitVec(64));
        let app1 = a.apply(f, vec![x]);
        let app2 = a.apply(f, vec![x]);
        assert_eq!(app1, app2);
        assert!(a.sort(app1).is_int());
    }

    #[test]
    fn shifts_fold() {
        let mut a = TermArena::new();
        let c = a.bv_const(8, 0b1000_0001);
        let one = a.bv_const(8, 1);
        let big = a.bv_const(8, 9);
        let shl = a.bv_shl(c, one);
        assert_eq!(a.term(shl).as_bv_const(), Some((8, 0b0000_0010)));
        let lshr = a.bv_lshr(c, one);
        assert_eq!(a.term(lshr).as_bv_const(), Some((8, 0b0100_0000)));
        let ashr = a.bv_ashr(c, one);
        assert_eq!(a.term(ashr).as_bv_const(), Some((8, 0b1100_0000)));
        let over = a.bv_shl(c, big);
        assert_eq!(a.term(over).as_bv_const(), Some((8, 0)));
    }

    #[test]
    fn signed_comparisons() {
        let mut a = TermArena::new();
        let minus_one = a.bv_const(8, 0xff);
        let one = a.bv_const(8, 1);
        assert_eq!(a.bv_slt(minus_one, one), a.tru());
        assert_eq!(a.bv_ult(minus_one, one), a.fls());
        assert_eq!(a.bv_sle(one, one), a.tru());
    }

    #[test]
    #[should_panic(expected = "different sort")]
    fn var_sort_conflict_panics() {
        let mut a = TermArena::new();
        let _ = a.var("x", Sort::Int);
        let _ = a.var("x", Sort::Bool);
    }

    #[test]
    fn slice_extracts_cone_only() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(64));
        let y = a.var("y", Sort::BitVec(64));
        let sum = a.bv_add(x, y);
        let c = a.bv64(7);
        let root = a.bv_ult(sum, c);
        // Unrelated garbage the cone must not ship.
        for i in 0..100 {
            let v = a.var(&format!("junk{i}"), Sort::Int);
            let k = a.int_const(i);
            let _ = a.int_le(v, k);
        }
        let total = a.len();
        let (sliced, roots) = a.slice(&[root]);
        assert_eq!(roots.len(), 1);
        // x, y, sum, 7, root = 5 terms.
        assert_eq!(sliced.len(), 5);
        assert!(sliced.len() < total);
        assert_eq!(sliced.vars().len(), 2);
        // The sliced root serializes to the identical assertion.
        let orig = crate::print::to_smtlib(&a, &[root]);
        let new = crate::print::to_smtlib(&sliced, &roots);
        assert_eq!(orig, new);
    }

    #[test]
    fn slice_preserves_func_ids() {
        let mut a = TermArena::new();
        let f = a.declare_func("f_unused", vec![Sort::Int], Sort::Int);
        let g = a.declare_func("g_used", vec![Sort::Int], Sort::Int);
        let x = a.var("x", Sort::Int);
        let gx = a.apply(g, vec![x]);
        let zero = a.int_const(0);
        let root = a.int_le(zero, gx);
        let (sliced, roots) = a.slice(&[root]);
        // FuncIds stay stable even when earlier funcs are unreachable: the
        // Apply node in the slice still refers to `g_used`.
        assert_eq!(sliced.func(g).name, "g_used");
        assert_eq!(sliced.func(f).name, "f_unused");
        match &sliced.term(roots[0]).kind {
            Kind::IntLe => {}
            k => panic!("unexpected kind {k:?}"),
        }
        let txt = crate::print::to_smtlib(&sliced, &roots);
        assert!(txt.contains("g_used"));
        assert!(!txt.contains("f_unused"), "unused UF must not be declared");
    }

    #[test]
    fn slice_shares_structure() {
        let mut a = TermArena::new();
        let x = a.var("x", Sort::BitVec(8));
        let y = a.var("y", Sort::BitVec(8));
        let s = a.bv_add(x, y);
        let t = a.bv_mul(s, s); // shared subterm
        let c = a.bv_const(8, 3);
        let root = a.eq(t, c);
        let (sliced, roots) = a.slice(&[root, root]);
        assert_eq!(roots[0], roots[1], "duplicate roots map to one id");
        // x, y, s, t, 3, root: sharing preserved, nothing duplicated.
        assert_eq!(sliced.len(), 6);
    }

    #[test]
    fn slice_is_serialization_transparent_regardless_of_visit_order() {
        // Regression (found by tpot-fuzz, slice_vs_full): the serializer
        // prints `declare-const`s sorted by variable symbol index, so the
        // slice must register cone variables in their original relative
        // declaration order — not in DFS-encounter order. Here the DFS
        // from the root reaches `b` before `a`; before the fix the sliced
        // arena printed `(declare-const b ...)` first, so the same query
        // produced two different texts (and two different persistent-cache
        // fingerprints) depending on whether it had been sliced.
        let mut a = TermArena::new();
        let va = a.var("a", Sort::BitVec(8));
        let vb = a.var("b", Sort::BitVec(8));
        let vc = a.var("c", Sort::BitVec(8));
        // bv_ult(b, a): args visited b-first from the root.
        let cmp = a.bv_ult(vb, va);
        let e = a.eq(vc, va);
        let root = a.and2(cmp, e);
        let (sliced, roots) = a.slice(&[root]);
        let orig = crate::print::to_smtlib(&a, &[root]);
        let new = crate::print::to_smtlib(&sliced, &roots);
        assert_eq!(orig, new, "slice must not reorder declarations");
        assert_eq!(
            crate::print::query_fingerprint(&orig),
            crate::print::query_fingerprint(&new)
        );
        let names: Vec<&str> = sliced.vars().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn slice_empty_roots() {
        let mut a = TermArena::new();
        let _ = a.var("x", Sort::Int);
        let (sliced, roots) = a.slice(&[]);
        assert!(sliced.is_empty());
        assert!(roots.is_empty());
    }
}
