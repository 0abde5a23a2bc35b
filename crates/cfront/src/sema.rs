//! Semantic analysis: name resolution, type checking, and desugaring into a
//! typed HIR.
//!
//! The HIR makes everything the symbolic executor needs explicit:
//! - every implicit conversion is a [`TExprKind::Cast`],
//! - pointer arithmetic is scaled by `sizeof` at check time,
//! - `a[i]`, `s.f`, `p->f` desugar into explicit address arithmetic plus
//!   [`TPlaceKind::Deref`],
//! - the eight TPot specification primitives (paper Table 2) plus
//!   `malloc`/`free`/`__tpot_inv` become [`Builtin`] calls with typed
//!   arguments.

use std::collections::HashMap;

use crate::ast::{Arg, BinOp, Expr, Init, Item, Program, Stmt, TypeExpr, UnOp};
use crate::types::{StructLayouts, Type};

/// A semantic error with a message.
#[derive(Clone, Debug)]
pub struct SemaError(pub String);

impl std::fmt::Display for SemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

type Res<T> = Result<T, SemaError>;

fn err<T>(msg: impl Into<String>) -> Res<T> {
    Err(SemaError(msg.into()))
}

/// Built-in functions, including the eight TPot specification primitives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Builtin {
    /// `malloc(size)`.
    Malloc,
    /// `free(p)`.
    Free,
    /// ③ `assert(cond)`.
    Assert,
    /// ② `assume(cond)`.
    Assume,
    /// ① `any(type, name)` — declares a fresh symbolic local.
    Any,
    /// ④ `points_to(ptr, type, name)`.
    PointsTo,
    /// ⑥ `names_obj_forall(ptr_f, type)`.
    NamesObjForall,
    /// ⑦ `forall_elem(arr, cond, extras…)`.
    ForallElem,
    /// `assert(forall_elem(…))` — universally *checked* (skolemized).
    ForallElemAssert,
    /// `assume(forall_elem(…))` — universally *assumed* (deferred marker).
    ForallElemAssume,
    /// ⑧ `names_obj_forall_cond(ptr_f, type, cond)`.
    NamesObjForallCond,
    /// `__tpot_inv(&inv, args…, (ptr, size)…)` — loop invariant.
    TpotInv,
    /// Havoc a global's contents (used by the modular baseline verifier's
    /// contract stubs; not reachable from C source).
    HavocGlobal,
}

/// Typed builtin argument.
#[derive(Clone, Debug)]
pub enum TArg {
    /// Ordinary expression.
    Expr(TExpr),
    /// Resolved type argument (spec primitives).
    Type(Type),
    /// String literal (object names).
    Str(String),
    /// Reference to a named function.
    FuncRef(String),
}

/// Typed unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TUnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    BitNot,
}

/// Typed binary operators (signedness resolved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TBinOp {
    Add,
    Sub,
    Mul,
    DivS,
    DivU,
    RemS,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    ShrA,
    ShrL,
    Eq,
    Ne,
    LtS,
    LtU,
    LeS,
    LeU,
}

impl TBinOp {
    /// True for comparison operators (result is `int` 0/1).
    pub fn is_cmp(&self) -> bool {
        matches!(
            self,
            TBinOp::Eq | TBinOp::Ne | TBinOp::LtS | TBinOp::LtU | TBinOp::LeS | TBinOp::LeU
        )
    }
}

/// Cast kinds between scalar widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CastKind {
    /// Zero-extend (source unsigned or pointer).
    ZExt,
    /// Sign-extend.
    SExt,
    /// Truncate to a narrower width.
    Trunc,
    /// Same width (pointer↔integer, signedness change).
    NoOp,
}

/// A typed expression.
#[derive(Clone, Debug)]
pub struct TExpr {
    /// Result type (always scalar for rvalues).
    pub ty: Type,
    /// Node kind.
    pub kind: TExprKind,
}

/// Typed expression kinds.
#[derive(Clone, Debug)]
pub enum TExprKind {
    /// Integer constant (two's-complement value).
    Const(i128),
    /// Read of a place; array-typed places never appear here (they decay).
    Load(Box<TPlace>),
    /// Address of a place.
    AddrOf(Box<TPlace>),
    /// Unary arithmetic.
    Unary(TUnOp, Box<TExpr>),
    /// Binary arithmetic/comparison.
    Binary(TBinOp, Box<TExpr>, Box<TExpr>),
    /// Short-circuit and.
    LogAnd(Box<TExpr>, Box<TExpr>),
    /// Short-circuit or.
    LogOr(Box<TExpr>, Box<TExpr>),
    /// `c ? t : e` with scalar branches.
    Ternary(Box<TExpr>, Box<TExpr>, Box<TExpr>),
    /// Width/signedness conversion.
    Cast(CastKind, Box<TExpr>),
    /// Call to a user-defined function.
    Call(String, Vec<TExpr>),
    /// Builtin / specification primitive.
    Builtin(Builtin, Vec<TArg>),
    /// Assignment (evaluates to the stored value).
    Assign(Box<TPlace>, Box<TExpr>),
    /// `++`/`--`; `delta` is pre-scaled for pointers; `post` selects the
    /// postfix result.
    IncDec {
        /// Updated place.
        place: Box<TPlace>,
        /// Signed delta added to the place.
        delta: i128,
        /// True for postfix (result is the old value).
        post: bool,
    },
}

/// A typed place (lvalue).
#[derive(Clone, Debug)]
pub struct TPlace {
    /// Type of the stored value.
    pub ty: Type,
    /// Place kind.
    pub kind: TPlaceKind,
}

/// Place kinds.
#[derive(Clone, Debug)]
pub enum TPlaceKind {
    /// Function-local slot.
    Local(usize),
    /// Global variable by name.
    Global(String),
    /// Dereference of a pointer-typed expression.
    Deref(Box<TExpr>),
}

/// Typed statements.
#[derive(Clone, Debug)]
pub enum TStmt {
    /// Expression statement.
    Expr(TExpr),
    /// Scalar initialization of a local slot.
    Init(usize, TExpr),
    /// Aggregate initialization: scalar writes at byte offsets into a slot.
    InitList(usize, Vec<(u64, TExpr)>),
    /// `if`.
    If(TExpr, Vec<TStmt>, Vec<TStmt>),
    /// `while`.
    While(TExpr, Vec<TStmt>),
    /// `for`.
    For(Option<Box<TStmt>>, Option<TExpr>, Option<TExpr>, Vec<TStmt>),
    /// `return`.
    Return(Option<TExpr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// Nested block.
    Block(Vec<TStmt>),
}

/// A function-local storage slot.
#[derive(Clone, Debug)]
pub struct LocalSlot {
    /// Declared name (for diagnostics and counterexamples).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Size in bytes.
    pub size: u64,
}

/// A type-checked function.
#[derive(Clone, Debug)]
pub struct TFunc {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Number of parameters (the first `n_params` slots).
    pub n_params: usize,
    /// All local slots (parameters first).
    pub locals: Vec<LocalSlot>,
    /// Body statements (`None` = prototype only).
    pub body: Option<Vec<TStmt>>,
}

/// A checked global variable.
#[derive(Clone, Debug)]
pub struct GlobalInfo {
    /// Name.
    pub name: String,
    /// Type.
    pub ty: Type,
    /// Size in bytes.
    pub size: u64,
    /// Constant scalar initializer writes `(offset, width_bits, value)`;
    /// everything else is zero.
    pub init: Vec<(u64, u32, i128)>,
    /// Declared `extern` (still allocated by the engine, like KLEE does for
    /// whole-component analysis).
    pub is_extern: bool,
}

/// A fully type-checked translation unit.
#[derive(Clone, Debug, Default)]
pub struct CheckedProgram {
    /// Struct layouts.
    pub layouts: StructLayouts,
    /// Globals in declaration order.
    pub globals: Vec<GlobalInfo>,
    /// Functions in declaration order.
    pub funcs: Vec<TFunc>,
    /// Function name → index in `funcs`.
    pub func_index: HashMap<String, usize>,
    /// Enum constants.
    pub enum_consts: HashMap<String, i128>,
}

impl CheckedProgram {
    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&TFunc> {
        self.func_index.get(name).map(|&i| &self.funcs[i])
    }

    /// Names of all POTs (`spec__*` functions with bodies).
    pub fn pot_names(&self) -> Vec<String> {
        self.funcs
            .iter()
            .filter(|f| f.name.starts_with("spec__") && f.body.is_some())
            .map(|f| f.name.clone())
            .collect()
    }

    /// Names of all global invariants (`inv__*`).
    pub fn invariant_names(&self) -> Vec<String> {
        self.funcs
            .iter()
            .filter(|f| f.name.starts_with("inv__") && f.body.is_some())
            .map(|f| f.name.clone())
            .collect()
    }
}

/// Type-checks a parsed program.
pub fn analyze(prog: Program) -> Res<CheckedProgram> {
    let mut cx = Cx::default();
    // Pass 0: collect typedefs, struct defs (in order), enum constants.
    for item in &prog.items {
        match item {
            Item::Typedef { name, ty } => {
                cx.typedefs.insert(name.clone(), ty.clone());
            }
            Item::EnumDef { variants, .. } => {
                let mut next: i128 = 0;
                for (vname, e) in variants {
                    let v = match e {
                        Some(e) => cx.eval_const(e)?,
                        None => next,
                    };
                    cx.out.enum_consts.insert(vname.clone(), v);
                    next = v + 1;
                }
            }
            _ => {}
        }
    }
    for item in &prog.items {
        if let Item::StructDef { name, fields } = item {
            let resolved: Vec<(String, Type)> = fields
                .iter()
                .map(|(t, n)| Ok((n.clone(), cx.resolve_type(t)?)))
                .collect::<Res<_>>()?;
            cx.out.layouts.define(name, resolved);
        }
    }
    // Pass 1: globals and function signatures.
    for item in &prog.items {
        match item {
            Item::Global {
                ty,
                name,
                init,
                is_extern,
            } => {
                let rty = cx.resolve_type(ty)?;
                let size = rty.size(&cx.out.layouts);
                let init_writes = match init {
                    None => Vec::new(),
                    Some(i) => cx.eval_global_init(&rty, i)?,
                };
                // `extern` re-declarations of an existing definition merge.
                if let Some(g) = cx.out.globals.iter().position(|g| &g.name == name) {
                    if !is_extern {
                        cx.out.globals[g].is_extern = false;
                        cx.out.globals[g].init = init_writes;
                    }
                    continue;
                }
                cx.globals_by_name.insert(name.clone(), rty.clone());
                cx.out.globals.push(GlobalInfo {
                    name: name.clone(),
                    ty: rty,
                    size,
                    init: init_writes,
                    is_extern: *is_extern,
                });
            }
            Item::Func {
                ret, name, params, ..
            } => {
                let rret = cx.resolve_type(ret)?;
                let rparams: Vec<(String, Type)> = params
                    .iter()
                    .map(|(t, n)| Ok((n.clone(), cx.resolve_type(t)?.decayed())))
                    .collect::<Res<_>>()?;
                cx.func_sigs.insert(name.clone(), (rret, rparams));
            }
            _ => {}
        }
    }
    // Pass 2: function bodies.
    for item in &prog.items {
        if let Item::Func {
            name, params, body, ..
        } = item
        {
            if cx.out.func_index.contains_key(name) {
                // A definition may follow a prototype; replace the prototype.
                if body.is_none() {
                    continue;
                }
            }
            let (ret, rparams) = cx.func_sigs[name].clone();
            let mut fx = FnCx {
                cx: &mut cx,
                locals: Vec::new(),
                scopes: vec![HashMap::new()],
                ret: ret.clone(),
            };
            for (pname, pty) in &rparams {
                fx.declare_local(pname, pty.clone())?;
            }
            let tbody = match body {
                None => None,
                Some(stmts) => Some(fx.check_stmts(stmts)?),
            };
            let locals = fx.locals;
            let tf = TFunc {
                name: name.clone(),
                ret,
                n_params: rparams.len(),
                locals,
                body: tbody,
            };
            let _ = params;
            if let Some(&i) = cx.out.func_index.get(name) {
                cx.out.funcs[i] = tf;
            } else {
                cx.out.func_index.insert(name.clone(), cx.out.funcs.len());
                cx.out.funcs.push(tf);
            }
        }
    }
    Ok(cx.out)
}

#[derive(Default)]
struct Cx {
    out: CheckedProgram,
    typedefs: HashMap<String, TypeExpr>,
    globals_by_name: HashMap<String, Type>,
    func_sigs: HashMap<String, (Type, Vec<(String, Type)>)>,
}

impl Cx {
    fn resolve_type(&self, t: &TypeExpr) -> Res<Type> {
        match t {
            TypeExpr::Void => Ok(Type::Void),
            TypeExpr::Int(w, s) => Ok(Type::Int {
                width: *w,
                signed: *s,
            }),
            TypeExpr::Named(n) => match self.typedefs.get(n) {
                Some(inner) => self.resolve_type(inner),
                None => {
                    builtin_typedef(n).ok_or_else(|| SemaError(format!("unknown type name {n}")))
                }
            },
            TypeExpr::Struct(n) => self
                .out
                .layouts
                .lookup(n)
                .map(Type::Struct)
                .ok_or_else(|| SemaError(format!("unknown struct {n}"))),
            TypeExpr::Ptr(inner) => Ok(Type::Ptr(Box::new(self.resolve_type(inner)?))),
            TypeExpr::Array(inner, len) => {
                let l = self.eval_const(len)?;
                if l < 0 {
                    return err("negative array length");
                }
                Ok(Type::Array(Box::new(self.resolve_type(inner)?), l as u64))
            }
        }
    }

    /// Compile-time constant evaluation (array lengths, enum values, global
    /// initializers).
    fn eval_const(&self, e: &Expr) -> Res<i128> {
        match e {
            Expr::IntLit(v, _, _) => Ok(*v as i128),
            Expr::CharLit(c) => Ok(*c as i128),
            Expr::Ident(n) => self
                .out
                .enum_consts
                .get(n)
                .copied()
                .ok_or_else(|| SemaError(format!("not a constant: {n}"))),
            Expr::Unary(UnOp::Neg, e) => Ok(-self.eval_const(e)?),
            Expr::Unary(UnOp::BitNot, e) => Ok(!self.eval_const(e)?),
            Expr::Unary(UnOp::LogNot, e) => Ok((self.eval_const(e)? == 0) as i128),
            Expr::Binary(op, a, b) => {
                let (x, y) = (self.eval_const(a)?, self.eval_const(b)?);
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0 {
                            return err("constant division by zero");
                        }
                        x / y
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return err("constant remainder by zero");
                        }
                        x % y
                    }
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => x << y,
                    BinOp::Shr => x >> y,
                    BinOp::Lt => (x < y) as i128,
                    BinOp::Le => (x <= y) as i128,
                    BinOp::Gt => (x > y) as i128,
                    BinOp::Ge => (x >= y) as i128,
                    BinOp::Eq => (x == y) as i128,
                    BinOp::Ne => (x != y) as i128,
                })
            }
            Expr::Ternary(c, t, f) => {
                if self.eval_const(c)? != 0 {
                    self.eval_const(t)
                } else {
                    self.eval_const(f)
                }
            }
            Expr::Cast(ty, e) => {
                let v = self.eval_const(e)?;
                let t = self.resolve_type(ty)?;
                Ok(mask_to_type(v, &t))
            }
            Expr::SizeofType(t) => Ok(self.resolve_type(t)?.size(&self.out.layouts) as i128),
            Expr::SizeofExpr(_) => err("sizeof expr not supported in constants"),
            other => err(format!("not a constant expression: {other:?}")),
        }
    }

    /// Flattens a global initializer into (offset, width, value) writes.
    fn eval_global_init(&self, ty: &Type, init: &Init) -> Res<Vec<(u64, u32, i128)>> {
        let mut out = Vec::new();
        self.flatten_init(ty, init, 0, &mut out)?;
        Ok(out)
    }

    fn flatten_init(
        &self,
        ty: &Type,
        init: &Init,
        base: u64,
        out: &mut Vec<(u64, u32, i128)>,
    ) -> Res<()> {
        match (ty, init) {
            (t, Init::Scalar(e)) if t.is_scalar() => {
                let v = self.eval_const(e)?;
                out.push((base, t.bit_width(), mask_to_type(v, t)));
                Ok(())
            }
            (Type::Array(elem, n), Init::List(items)) => {
                if items.len() as u64 > *n {
                    return err("too many array initializers");
                }
                let esz = elem.size(&self.out.layouts);
                for (i, item) in items.iter().enumerate() {
                    self.flatten_init(elem, item, base + i as u64 * esz, out)?;
                }
                Ok(())
            }
            (Type::Struct(si), Init::List(items)) => {
                let info = self.out.layouts.structs[*si].clone();
                if items.len() > info.fields.len() {
                    return err("too many struct initializers");
                }
                for (field, item) in info.fields.iter().zip(items) {
                    self.flatten_init(&field.ty, item, base + field.offset, out)?;
                }
                Ok(())
            }
            _ => err(format!("bad initializer for type {ty}")),
        }
    }
}

fn builtin_typedef(n: &str) -> Option<Type> {
    let t = match n {
        "uint8_t" | "u8" => Type::Int {
            width: 8,
            signed: false,
        },
        "int8_t" | "s8" => Type::Int {
            width: 8,
            signed: true,
        },
        "uint16_t" | "u16" => Type::Int {
            width: 16,
            signed: false,
        },
        "int16_t" | "s16" => Type::Int {
            width: 16,
            signed: true,
        },
        "uint32_t" | "u32" => Type::Int {
            width: 32,
            signed: false,
        },
        "int32_t" | "s32" => Type::Int {
            width: 32,
            signed: true,
        },
        "uint64_t" | "u64" | "size_t" | "uintptr_t" | "phys_addr_t" => Type::ULONG,
        "int64_t" | "s64" | "ssize_t" | "intptr_t" | "ptrdiff_t" => Type::Int {
            width: 64,
            signed: true,
        },
        _ => return None,
    };
    Some(t)
}

fn mask_to_type(v: i128, t: &Type) -> i128 {
    let w = t.bit_width();
    if w == 128 {
        return v;
    }
    let masked = (v as u128) & ((1u128 << w) - 1);
    if t.is_signed() && (masked >> (w - 1)) & 1 == 1 {
        (masked as i128) - (1i128 << w)
    } else {
        masked as i128
    }
}

struct FnCx<'a> {
    cx: &'a mut Cx,
    locals: Vec<LocalSlot>,
    scopes: Vec<HashMap<String, usize>>,
    ret: Type,
}

impl<'a> FnCx<'a> {
    fn declare_local(&mut self, name: &str, ty: Type) -> Res<usize> {
        let size = ty.size(&self.cx.out.layouts);
        let slot = self.locals.len();
        self.locals.push(LocalSlot {
            name: name.to_string(),
            ty,
            size,
        });
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), slot);
        Ok(slot)
    }

    fn lookup_local(&self, name: &str) -> Option<usize> {
        for scope in self.scopes.iter().rev() {
            if let Some(&s) = scope.get(name) {
                return Some(s);
            }
        }
        None
    }

    fn check_stmts(&mut self, stmts: &[Stmt]) -> Res<Vec<TStmt>> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.check_stmt(s)?);
        }
        Ok(out)
    }

    fn check_stmt(&mut self, s: &Stmt) -> Res<TStmt> {
        match s {
            Stmt::Decl(ty, name, init) => {
                let rty = self.cx.resolve_type(ty)?;
                let slot = self.declare_local(name, rty.clone())?;
                match init {
                    None => Ok(TStmt::Block(vec![])),
                    Some(Init::Scalar(e)) => {
                        let te = self.check_expr(e)?;
                        let te = self.coerce(te, &rty)?;
                        Ok(TStmt::Init(slot, te))
                    }
                    Some(list @ Init::List(_)) => {
                        let mut writes = Vec::new();
                        self.flatten_local_init(&rty, list, 0, &mut writes)?;
                        Ok(TStmt::InitList(slot, writes))
                    }
                }
            }
            Stmt::Expr(e) => Ok(TStmt::Expr(self.check_expr(e)?)),
            Stmt::If(c, t, e) => {
                let tc = self.check_cond(c)?;
                self.scopes.push(HashMap::new());
                let tt = vec![self.check_stmt(t)?];
                self.scopes.pop();
                self.scopes.push(HashMap::new());
                let te = match e {
                    Some(e) => vec![self.check_stmt(e)?],
                    None => vec![],
                };
                self.scopes.pop();
                Ok(TStmt::If(tc, tt, te))
            }
            Stmt::While(c, body) => {
                let tc = self.check_cond(c)?;
                self.scopes.push(HashMap::new());
                let tb = vec![self.check_stmt(body)?];
                self.scopes.pop();
                Ok(TStmt::While(tc, tb))
            }
            Stmt::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                let ti = match init {
                    Some(s) => Some(Box::new(self.check_stmt(s)?)),
                    None => None,
                };
                let tc = match cond {
                    Some(c) => Some(self.check_cond(c)?),
                    None => None,
                };
                let ts = match step {
                    Some(e) => Some(self.check_expr(e)?),
                    None => None,
                };
                let tb = vec![self.check_stmt(body)?];
                self.scopes.pop();
                Ok(TStmt::For(ti, tc, ts, tb))
            }
            Stmt::Return(e) => match e {
                None => Ok(TStmt::Return(None)),
                Some(e) => {
                    let te = self.check_expr(e)?;
                    let ret = self.ret.clone();
                    let te = self.coerce(te, &ret)?;
                    Ok(TStmt::Return(Some(te)))
                }
            },
            Stmt::Break => Ok(TStmt::Break),
            Stmt::Continue => Ok(TStmt::Continue),
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let out = self.check_stmts(stmts)?;
                self.scopes.pop();
                Ok(TStmt::Block(out))
            }
            Stmt::Seq(stmts) => Ok(TStmt::Block(self.check_stmts(stmts)?)),
        }
    }

    fn flatten_local_init(
        &mut self,
        ty: &Type,
        init: &Init,
        base: u64,
        out: &mut Vec<(u64, TExpr)>,
    ) -> Res<()> {
        match (ty, init) {
            (t, Init::Scalar(e)) if t.is_scalar() => {
                let te = self.check_expr(e)?;
                let te = self.coerce(te, t)?;
                out.push((base, te));
                Ok(())
            }
            (Type::Array(elem, n), Init::List(items)) => {
                if items.len() as u64 > *n {
                    return err("too many array initializers");
                }
                let esz = elem.size(&self.cx.out.layouts);
                for (i, item) in items.iter().enumerate() {
                    self.flatten_local_init(elem, item, base + i as u64 * esz, out)?;
                }
                Ok(())
            }
            (Type::Struct(si), Init::List(items)) => {
                let info = self.cx.out.layouts.structs[*si].clone();
                for (field, item) in info.fields.iter().zip(items) {
                    self.flatten_local_init(&field.ty, item, base + field.offset, out)?;
                }
                Ok(())
            }
            _ => err(format!("bad local initializer for {ty}")),
        }
    }

    /// Checks a condition: any scalar expression.
    fn check_cond(&mut self, e: &Expr) -> Res<TExpr> {
        let te = self.check_expr(e)?;
        if !te.ty.is_scalar() {
            return err(format!("condition must be scalar, got {}", te.ty));
        }
        Ok(te)
    }

    // -------------------------------------------------------------- places

    /// Checks an expression as a place (lvalue).
    fn check_place(&mut self, e: &Expr) -> Res<TPlace> {
        match e {
            Expr::Ident(n) => {
                if let Some(slot) = self.lookup_local(n) {
                    return Ok(TPlace {
                        ty: self.locals[slot].ty.clone(),
                        kind: TPlaceKind::Local(slot),
                    });
                }
                if let Some(ty) = self.cx.globals_by_name.get(n) {
                    return Ok(TPlace {
                        ty: ty.clone(),
                        kind: TPlaceKind::Global(n.clone()),
                    });
                }
                err(format!("unknown variable {n}"))
            }
            Expr::Unary(UnOp::Deref, inner) => {
                let p = self.check_expr(inner)?;
                match p.ty.clone() {
                    Type::Ptr(pointee) => Ok(TPlace {
                        ty: (*pointee).clone(),
                        kind: TPlaceKind::Deref(Box::new(p)),
                    }),
                    other => err(format!("dereference of non-pointer {other}")),
                }
            }
            Expr::Index(base, idx) => {
                let addr = self.index_addr(base, idx)?;
                match addr.ty.clone() {
                    Type::Ptr(pointee) => Ok(TPlace {
                        ty: (*pointee).clone(),
                        kind: TPlaceKind::Deref(Box::new(addr)),
                    }),
                    _ => unreachable!(),
                }
            }
            Expr::Member(base, field, arrow) => {
                let (sptr, sidx) = if *arrow {
                    let b = self.check_expr(base)?;
                    match b.ty.clone() {
                        Type::Ptr(p) => match *p {
                            Type::Struct(si) => (b, si),
                            other => return err(format!("-> on pointer to non-struct {other}")),
                        },
                        other => return err(format!("-> on non-pointer {other}")),
                    }
                } else {
                    let place = self.check_place(base)?;
                    let si = match place.ty {
                        Type::Struct(si) => si,
                        ref other => return err(format!(". on non-struct {other}")),
                    };
                    let addr = TExpr {
                        ty: Type::Ptr(Box::new(place.ty.clone())),
                        kind: TExprKind::AddrOf(Box::new(place)),
                    };
                    (addr, si)
                };
                let finfo = self.cx.out.layouts.structs[sidx]
                    .field(field)
                    .cloned()
                    .ok_or_else(|| SemaError(format!("no field {field}")))?;
                let fty = finfo.ty.clone();
                let addr = self.add_const_offset(sptr, finfo.offset, fty.clone());
                Ok(TPlace {
                    ty: fty,
                    kind: TPlaceKind::Deref(Box::new(addr)),
                })
            }
            other => err(format!("not an lvalue: {other:?}")),
        }
    }

    /// Builds `(u8*)base + off` retyped as `field_ty*`.
    fn add_const_offset(&mut self, base: TExpr, off: u64, to: Type) -> TExpr {
        let ptr_ty = Type::Ptr(Box::new(to));
        if off == 0 {
            return TExpr {
                ty: ptr_ty,
                kind: base.kind,
            };
        }
        TExpr {
            ty: ptr_ty,
            kind: TExprKind::Binary(
                TBinOp::Add,
                Box::new(base),
                Box::new(TExpr {
                    ty: Type::ULONG,
                    kind: TExprKind::Const(off as i128),
                }),
            ),
        }
    }

    /// Address of `base[idx]` as a typed pointer expression.
    fn index_addr(&mut self, base: &Expr, idx: &Expr) -> Res<TExpr> {
        let b = self.check_expr(base)?; // arrays decay to pointers here
        let elem = match b.ty.clone() {
            Type::Ptr(e) => *e,
            other => return err(format!("indexing non-pointer {other}")),
        };
        let esz = elem.size(&self.cx.out.layouts);
        let i = self.check_expr(idx)?;
        let i = self.coerce(i, &Type::ULONG)?;
        let scaled = TExpr {
            ty: Type::ULONG,
            kind: TExprKind::Binary(
                TBinOp::Mul,
                Box::new(i),
                Box::new(TExpr {
                    ty: Type::ULONG,
                    kind: TExprKind::Const(esz as i128),
                }),
            ),
        };
        Ok(TExpr {
            ty: Type::Ptr(Box::new(elem)),
            kind: TExprKind::Binary(TBinOp::Add, Box::new(b), Box::new(scaled)),
        })
    }

    /// Loads a place as an rvalue, decaying arrays to pointers.
    fn load_place(&mut self, p: TPlace) -> TExpr {
        match p.ty.clone() {
            Type::Array(elem, _) => TExpr {
                ty: Type::Ptr(elem),
                kind: TExprKind::AddrOf(Box::new(p)),
            },
            ty => TExpr {
                ty,
                kind: TExprKind::Load(Box::new(p)),
            },
        }
    }

    // -------------------------------------------------------------- exprs

    fn check_expr(&mut self, e: &Expr) -> Res<TExpr> {
        match e {
            Expr::IntLit(v, unsigned, long) => {
                let fits_int = *v <= i32::MAX as u128;
                let ty = match (*unsigned, *long, fits_int) {
                    (false, false, true) => Type::INT,
                    (true, false, true) => Type::Int {
                        width: 32,
                        signed: false,
                    },
                    (_, _, _) => Type::Int {
                        width: 64,
                        signed: !*unsigned,
                    },
                };
                Ok(TExpr {
                    kind: TExprKind::Const(mask_to_type(*v as i128, &ty)),
                    ty,
                })
            }
            Expr::CharLit(c) => Ok(TExpr {
                ty: Type::INT,
                kind: TExprKind::Const(*c as i128),
            }),
            Expr::StrLit(_) => err("string literals are only valid as spec-primitive arguments"),
            Expr::Ident(n) => {
                if let Some(v) = self.cx.out.enum_consts.get(n) {
                    return Ok(TExpr {
                        ty: Type::INT,
                        kind: TExprKind::Const(*v),
                    });
                }
                if self.lookup_local(n).is_some() || self.cx.globals_by_name.contains_key(n) {
                    let p = self.check_place(e)?;
                    return Ok(self.load_place(p));
                }
                err(format!("unknown identifier {n}"))
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let t = self.check_expr(inner)?;
                let t = self.promote(t)?;
                if !t.ty.is_integer() {
                    return err("negation of non-integer");
                }
                Ok(TExpr {
                    ty: t.ty.clone(),
                    kind: TExprKind::Unary(TUnOp::Neg, Box::new(t)),
                })
            }
            Expr::Unary(UnOp::BitNot, inner) => {
                let t = self.check_expr(inner)?;
                let t = self.promote(t)?;
                if !t.ty.is_integer() {
                    return err("~ of non-integer");
                }
                Ok(TExpr {
                    ty: t.ty.clone(),
                    kind: TExprKind::Unary(TUnOp::BitNot, Box::new(t)),
                })
            }
            Expr::Unary(UnOp::LogNot, inner) => {
                let t = self.check_expr(inner)?;
                if !t.ty.is_scalar() {
                    return err("! of non-scalar");
                }
                let zero = TExpr {
                    ty: t.ty.clone(),
                    kind: TExprKind::Const(0),
                };
                Ok(TExpr {
                    ty: Type::INT,
                    kind: TExprKind::Binary(TBinOp::Eq, Box::new(t), Box::new(zero)),
                })
            }
            Expr::Unary(UnOp::Deref, _) | Expr::Index(_, _) | Expr::Member(_, _, _) => {
                let p = self.check_place(e)?;
                Ok(self.load_place(p))
            }
            Expr::Unary(UnOp::AddrOf, inner) => {
                // `&f` (f a function) is consumed directly by `func_arg` for
                // spec primitives; anywhere else it is unsupported.
                if let Expr::Ident(n) = &**inner {
                    if self.lookup_local(n).is_none()
                        && !self.cx.globals_by_name.contains_key(n)
                        && self.cx.func_sigs.contains_key(n)
                    {
                        return err(format!(
                            "function reference &{n} is only valid as a spec-primitive argument"
                        ));
                    }
                }
                let p = self.check_place(inner)?;
                Ok(TExpr {
                    ty: Type::Ptr(Box::new(p.ty.clone())),
                    kind: TExprKind::AddrOf(Box::new(p)),
                })
            }
            Expr::PreIncDec(inner, inc) | Expr::PostIncDec(inner, inc) => {
                let post = matches!(e, Expr::PostIncDec(_, _));
                let p = self.check_place(inner)?;
                let delta: i128 = match &p.ty {
                    Type::Ptr(pointee) => pointee.size(&self.cx.out.layouts) as i128,
                    Type::Int { .. } => 1,
                    other => return err(format!("++/-- on {other}")),
                };
                let delta = if *inc { delta } else { -delta };
                Ok(TExpr {
                    ty: p.ty.decayed(),
                    kind: TExprKind::IncDec {
                        place: Box::new(p),
                        delta,
                        post,
                    },
                })
            }
            Expr::Binary(op, a, b) => self.check_binary(*op, a, b),
            Expr::LogAnd(a, b) => {
                let ta = self.check_cond(a)?;
                let tb = self.check_cond(b)?;
                Ok(TExpr {
                    ty: Type::INT,
                    kind: TExprKind::LogAnd(Box::new(ta), Box::new(tb)),
                })
            }
            Expr::LogOr(a, b) => {
                let ta = self.check_cond(a)?;
                let tb = self.check_cond(b)?;
                Ok(TExpr {
                    ty: Type::INT,
                    kind: TExprKind::LogOr(Box::new(ta), Box::new(tb)),
                })
            }
            Expr::Assign(None, lhs, rhs) => {
                let p = self.check_place(lhs)?;
                let r = self.check_expr(rhs)?;
                let r = self.coerce(r, &p.ty)?;
                Ok(TExpr {
                    ty: p.ty.clone(),
                    kind: TExprKind::Assign(Box::new(p), Box::new(r)),
                })
            }
            Expr::Assign(Some(op), lhs, rhs) => {
                // Desugar `a op= b` into `a = a op b` (place evaluated
                // twice; side-effect-free places are the norm in C specs).
                let combined = Expr::Binary(*op, lhs.clone(), rhs.clone());
                let p = self.check_place(lhs)?;
                let r = self.check_expr(&combined)?;
                let r = self.coerce(r, &p.ty)?;
                Ok(TExpr {
                    ty: p.ty.clone(),
                    kind: TExprKind::Assign(Box::new(p), Box::new(r)),
                })
            }
            Expr::Ternary(c, t, f) => {
                let tc = self.check_cond(c)?;
                let tt = self.check_expr(t)?;
                let tf = self.check_expr(f)?;
                let (tt, tf) = self.usual_conversions(tt, tf)?;
                Ok(TExpr {
                    ty: tt.ty.clone(),
                    kind: TExprKind::Ternary(Box::new(tc), Box::new(tt), Box::new(tf)),
                })
            }
            Expr::Call(name, args) => self.check_call(name, args),
            Expr::Cast(ty, inner) => {
                let to = self.cx.resolve_type(ty)?;
                let t = self.check_expr(inner)?;
                if to == Type::Void {
                    // (void)e — evaluate for effects, value unused.
                    return Ok(t);
                }
                self.coerce_explicit(t, &to)
            }
            Expr::SizeofType(ty) => {
                let t = self.cx.resolve_type(ty)?;
                Ok(TExpr {
                    ty: Type::ULONG,
                    kind: TExprKind::Const(t.size(&self.cx.out.layouts) as i128),
                })
            }
            Expr::SizeofExpr(inner) => {
                // Type-check without emitting: size of the expression type.
                let t = self.check_sizeof_operand(inner)?;
                Ok(TExpr {
                    ty: Type::ULONG,
                    kind: TExprKind::Const(t.size(&self.cx.out.layouts) as i128),
                })
            }
        }
    }

    /// The type of a `sizeof` operand (arrays do NOT decay).
    fn check_sizeof_operand(&mut self, e: &Expr) -> Res<Type> {
        if let Ok(p) = self.check_place(e) {
            return Ok(p.ty);
        }
        Ok(self.check_expr(e)?.ty)
    }

    fn check_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Res<TExpr> {
        let ta = self.check_expr(a)?;
        let tb = self.check_expr(b)?;
        // Pointer arithmetic.
        if matches!(op, BinOp::Add | BinOp::Sub) {
            match (&ta.ty, &tb.ty) {
                (Type::Ptr(e), t) if t.is_integer() => {
                    return self.pointer_offset(op, ta.clone(), tb, (**e).clone());
                }
                (t, Type::Ptr(e)) if t.is_integer() && op == BinOp::Add => {
                    return self.pointer_offset(op, tb.clone(), ta, (**e).clone());
                }
                (Type::Ptr(e1), Type::Ptr(_)) if op == BinOp::Sub => {
                    let esz = e1.size(&self.cx.out.layouts);
                    let diff = TExpr {
                        ty: Type::Int {
                            width: 64,
                            signed: true,
                        },
                        kind: TExprKind::Binary(TBinOp::Sub, Box::new(ta), Box::new(tb)),
                    };
                    if esz == 1 {
                        return Ok(diff);
                    }
                    return Ok(TExpr {
                        ty: Type::Int {
                            width: 64,
                            signed: true,
                        },
                        kind: TExprKind::Binary(
                            TBinOp::DivS,
                            Box::new(diff),
                            Box::new(TExpr {
                                ty: Type::Int {
                                    width: 64,
                                    signed: true,
                                },
                                kind: TExprKind::Const(esz as i128),
                            }),
                        ),
                    });
                }
                _ => {}
            }
        }
        let (ta, tb) = self.usual_conversions(ta, tb)?;
        let signed = ta.ty.is_signed();
        let top = match op {
            BinOp::Add => TBinOp::Add,
            BinOp::Sub => TBinOp::Sub,
            BinOp::Mul => TBinOp::Mul,
            BinOp::Div => {
                if signed {
                    TBinOp::DivS
                } else {
                    TBinOp::DivU
                }
            }
            BinOp::Rem => {
                if signed {
                    TBinOp::RemS
                } else {
                    TBinOp::RemU
                }
            }
            BinOp::And => TBinOp::And,
            BinOp::Or => TBinOp::Or,
            BinOp::Xor => TBinOp::Xor,
            BinOp::Shl => TBinOp::Shl,
            BinOp::Shr => {
                if signed {
                    TBinOp::ShrA
                } else {
                    TBinOp::ShrL
                }
            }
            BinOp::Eq => TBinOp::Eq,
            BinOp::Ne => TBinOp::Ne,
            BinOp::Lt | BinOp::Gt => {
                if signed {
                    TBinOp::LtS
                } else {
                    TBinOp::LtU
                }
            }
            BinOp::Le | BinOp::Ge => {
                if signed {
                    TBinOp::LeS
                } else {
                    TBinOp::LeU
                }
            }
        };
        let (ta, tb) = if matches!(op, BinOp::Gt | BinOp::Ge) {
            (tb, ta)
        } else {
            (ta, tb)
        };
        let ty = if top.is_cmp() {
            Type::INT
        } else {
            ta.ty.clone()
        };
        Ok(TExpr {
            ty,
            kind: TExprKind::Binary(top, Box::new(ta), Box::new(tb)),
        })
    }

    fn pointer_offset(&mut self, op: BinOp, ptr: TExpr, idx: TExpr, elem: Type) -> Res<TExpr> {
        let esz = elem.size(&self.cx.out.layouts);
        let idx = self.coerce(idx, &Type::ULONG)?;
        let scaled = if esz == 1 {
            idx
        } else {
            TExpr {
                ty: Type::ULONG,
                kind: TExprKind::Binary(
                    TBinOp::Mul,
                    Box::new(idx),
                    Box::new(TExpr {
                        ty: Type::ULONG,
                        kind: TExprKind::Const(esz as i128),
                    }),
                ),
            }
        };
        let top = if op == BinOp::Add {
            TBinOp::Add
        } else {
            TBinOp::Sub
        };
        Ok(TExpr {
            ty: ptr.ty.clone(),
            kind: TExprKind::Binary(top, Box::new(ptr), Box::new(scaled)),
        })
    }

    /// Integer promotion: anything narrower than `int` widens to `int`.
    fn promote(&mut self, e: TExpr) -> Res<TExpr> {
        match &e.ty {
            Type::Int { width, .. } if *width < 32 => self.coerce(e, &Type::INT),
            _ => Ok(e),
        }
    }

    /// Usual arithmetic conversions for a binary operator (compound
    /// assignments included) or the arms of `?:`. Both operands must be
    /// scalar.
    fn usual_conversions(&mut self, a: TExpr, b: TExpr) -> Res<(TExpr, TExpr)> {
        if let Some(ty) = [&a.ty, &b.ty].into_iter().find(|t| !t.is_scalar()) {
            return err(format!("operand must be scalar, got {ty}"));
        }
        // Pointers compare as 64-bit unsigned.
        if a.ty.is_pointer() || b.ty.is_pointer() {
            let a = self.coerce(a, &Type::ULONG)?;
            let b = self.coerce(b, &Type::ULONG)?;
            return Ok((a, b));
        }
        let a = self.promote(a)?;
        let b = self.promote(b)?;
        let (wa, wb) = (a.ty.bit_width(), b.ty.bit_width());
        let (sa, sb) = (a.ty.is_signed(), b.ty.is_signed());
        let target = if wa == wb {
            Type::Int {
                width: wa,
                signed: sa && sb,
            }
        } else {
            let w = wa.max(wb);
            let signed = if wa > wb { sa } else { sb };
            Type::Int { width: w, signed }
        };
        let a = self.coerce(a, &target)?;
        let b = self.coerce(b, &target)?;
        Ok((a, b))
    }

    /// Implicit conversion (assignments, arguments, returns).
    fn coerce(&mut self, e: TExpr, to: &Type) -> Res<TExpr> {
        if &e.ty == to {
            return Ok(e);
        }
        if !e.ty.is_scalar() || !to.is_scalar() {
            return err(format!("cannot convert {} to {}", e.ty, to));
        }
        self.coerce_explicit(e, to)
    }

    /// Conversion as by a cast (any scalar to any scalar).
    fn coerce_explicit(&mut self, e: TExpr, to: &Type) -> Res<TExpr> {
        if &e.ty == to {
            return Ok(e);
        }
        if !e.ty.is_scalar() || !to.is_scalar() {
            return err(format!("cannot cast {} to {}", e.ty, to));
        }
        let fw = e.ty.bit_width();
        let tw = to.bit_width();
        let kind = if tw < fw {
            CastKind::Trunc
        } else if tw == fw {
            CastKind::NoOp
        } else if e.ty.is_signed() {
            CastKind::SExt
        } else {
            CastKind::ZExt
        };
        // Constant folding keeps HIR clean.
        if let TExprKind::Const(v) = &e.kind {
            return Ok(TExpr {
                ty: to.clone(),
                kind: TExprKind::Const(mask_to_type(*v, to)),
            });
        }
        Ok(TExpr {
            ty: to.clone(),
            kind: TExprKind::Cast(kind, Box::new(e)),
        })
    }

    // -------------------------------------------------------------- calls

    fn check_call(&mut self, name: &str, args: &[Arg]) -> Res<TExpr> {
        match name {
            "malloc" | "kmalloc" | "kzalloc" => {
                let size = self.expr_arg(args, 0)?;
                let size = self.coerce(size, &Type::ULONG)?;
                let mut targs = vec![TArg::Expr(size)];
                // kmalloc(size, flags): evaluate and drop the flags.
                if args.len() > 1 {
                    let flags = self.expr_arg(args, 1)?;
                    targs.push(TArg::Expr(flags));
                }
                Ok(TExpr {
                    ty: Type::Ptr(Box::new(Type::Void)),
                    kind: TExprKind::Builtin(Builtin::Malloc, targs),
                })
            }
            "free" | "kfree" => {
                let p = self.expr_arg(args, 0)?;
                if !p.ty.is_pointer() && !p.ty.is_integer() {
                    return err("free of non-pointer");
                }
                Ok(TExpr {
                    ty: Type::Void,
                    kind: TExprKind::Builtin(Builtin::Free, vec![TArg::Expr(p)]),
                })
            }
            "assert" | "assume" => {
                // assert/assume applied directly to forall_elem selects the
                // check/assume interpretation of the quantified primitive
                // (paper §4.3: checked by skolemization, assumed by
                // deferred per-element instantiation).
                if let Some(Arg::Expr(Expr::Call(inner, inner_args))) = args.first() {
                    if inner == "forall_elem" {
                        let fe = self.check_call("forall_elem", inner_args)?;
                        if let TExprKind::Builtin(_, targs) = fe.kind {
                            let b = if name == "assert" {
                                Builtin::ForallElemAssert
                            } else {
                                Builtin::ForallElemAssume
                            };
                            return Ok(TExpr {
                                ty: Type::Void,
                                kind: TExprKind::Builtin(b, targs),
                            });
                        }
                        unreachable!("forall_elem checks to a builtin");
                    }
                }
                let c = self.expr_arg(args, 0)?;
                if !c.ty.is_scalar() {
                    return err("assert/assume of non-scalar");
                }
                let b = if name == "assert" {
                    Builtin::Assert
                } else {
                    Builtin::Assume
                };
                Ok(TExpr {
                    ty: Type::Void,
                    kind: TExprKind::Builtin(b, vec![TArg::Expr(c)]),
                })
            }
            "any" => {
                let ty = self.type_arg(args, 0)?;
                let var = match args.get(1) {
                    Some(Arg::Expr(Expr::Ident(n))) => n.clone(),
                    _ => return err("any(type, name): second argument must be an identifier"),
                };
                let slot = self.declare_local(&var, ty.clone())?;
                let place = TPlace {
                    ty: ty.clone(),
                    kind: TPlaceKind::Local(slot),
                };
                let addr = TExpr {
                    ty: Type::Ptr(Box::new(ty.clone())),
                    kind: TExprKind::AddrOf(Box::new(place)),
                };
                Ok(TExpr {
                    ty: Type::Void,
                    kind: TExprKind::Builtin(
                        Builtin::Any,
                        vec![TArg::Type(ty), TArg::Expr(addr), TArg::Str(var)],
                    ),
                })
            }
            "points_to" | "names_obj" => {
                let p = self.expr_arg(args, 0)?;
                let ty = self.type_arg(args, 1)?;
                let obj_name = if name == "points_to" {
                    match args.get(2) {
                        Some(Arg::Expr(Expr::StrLit(s))) => s.clone(),
                        _ => return err("points_to: third argument must be a string literal"),
                    }
                } else {
                    // names_obj stringifies its first argument (paper ⑤).
                    stringify_expr(match &args[0] {
                        Arg::Expr(e) => e,
                        Arg::Type(_) => return err("names_obj: bad argument"),
                    })
                };
                let p = self.coerce(p, &Type::ULONG)?;
                Ok(TExpr {
                    ty: Type::BOOL,
                    kind: TExprKind::Builtin(
                        Builtin::PointsTo,
                        vec![TArg::Expr(p), TArg::Type(ty), TArg::Str(obj_name)],
                    ),
                })
            }
            "names_obj_forall" => {
                let f = self.func_arg(args, 0)?;
                let ty = self.type_arg(args, 1)?;
                let fname = f.clone();
                Ok(TExpr {
                    ty: Type::BOOL,
                    kind: TExprKind::Builtin(
                        Builtin::NamesObjForall,
                        vec![TArg::FuncRef(f), TArg::Type(ty), TArg::Str(fname)],
                    ),
                })
            }
            "names_obj_forall_cond" => {
                let f = self.func_arg(args, 0)?;
                let ty = self.type_arg(args, 1)?;
                let cond = self.func_arg(args, 2)?;
                let fname = f.clone();
                Ok(TExpr {
                    ty: Type::BOOL,
                    kind: TExprKind::Builtin(
                        Builtin::NamesObjForallCond,
                        vec![
                            TArg::FuncRef(f),
                            TArg::Type(ty),
                            TArg::FuncRef(cond),
                            TArg::Str(fname),
                        ],
                    ),
                })
            }
            "forall_elem" => {
                let arr = self.expr_arg(args, 0)?;
                let elem_ty = match arr.ty.clone() {
                    Type::Ptr(e) => *e,
                    other => return err(format!("forall_elem over non-pointer {other}")),
                };
                let f = self.func_arg(args, 1)?;
                let mut targs = vec![
                    TArg::Expr(self.coerce(arr, &Type::ULONG)?),
                    TArg::FuncRef(f),
                    TArg::Type(elem_ty),
                ];
                for a in &args[2..] {
                    match a {
                        Arg::Expr(e) => targs.push(TArg::Expr(self.check_expr(e)?)),
                        Arg::Type(_) => return err("forall_elem: unexpected type argument"),
                    }
                }
                Ok(TExpr {
                    ty: Type::BOOL,
                    kind: TExprKind::Builtin(Builtin::ForallElem, targs),
                })
            }
            "__tpot_inv" => {
                let f = self.func_arg(args, 0)?;
                let sig = self
                    .cx
                    .func_sigs
                    .get(&f)
                    .cloned()
                    .ok_or_else(|| SemaError(format!("unknown invariant function {f}")))?;
                let n_inv_args = sig.1.len();
                let mut targs = vec![TArg::FuncRef(f)];
                let rest = &args[1..];
                if rest.len() < n_inv_args || !(rest.len() - n_inv_args).is_multiple_of(2) {
                    return err(
                        "__tpot_inv: expected invariant args followed by (ptr, size) pairs",
                    );
                }
                for (i, a) in rest.iter().enumerate() {
                    let e = match a {
                        Arg::Expr(e) => self.check_expr(e)?,
                        Arg::Type(_) => return err("__tpot_inv: unexpected type argument"),
                    };
                    let e = if i < n_inv_args {
                        self.coerce(e, &sig.1[i].1)?
                    } else {
                        self.coerce(e, &Type::ULONG)?
                    };
                    targs.push(TArg::Expr(e));
                }
                Ok(TExpr {
                    ty: Type::Void,
                    kind: TExprKind::Builtin(Builtin::TpotInv, targs),
                })
            }
            _ => {
                let sig = self
                    .cx
                    .func_sigs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| SemaError(format!("call to undeclared function {name}")))?;
                if args.len() != sig.1.len() {
                    return err(format!(
                        "call to {name}: expected {} arguments, got {}",
                        sig.1.len(),
                        args.len()
                    ));
                }
                let mut targs = Vec::with_capacity(args.len());
                for (a, (_, pty)) in args.iter().zip(&sig.1) {
                    match a {
                        Arg::Expr(e) => {
                            let te = self.check_expr(e)?;
                            targs.push(self.coerce(te, pty)?);
                        }
                        Arg::Type(_) => return err("unexpected type argument"),
                    }
                }
                Ok(TExpr {
                    ty: sig.0,
                    kind: TExprKind::Call(name.to_string(), targs),
                })
            }
        }
    }

    fn expr_arg(&mut self, args: &[Arg], i: usize) -> Res<TExpr> {
        match args.get(i) {
            Some(Arg::Expr(e)) => self.check_expr(e),
            _ => err(format!("missing expression argument {i}")),
        }
    }

    fn type_arg(&mut self, args: &[Arg], i: usize) -> Res<Type> {
        match args.get(i) {
            Some(Arg::Type(t)) => self.cx.resolve_type(t),
            _ => err(format!("missing type argument {i}")),
        }
    }

    /// A function reference argument: `&f` or a bare function name.
    fn func_arg(&mut self, args: &[Arg], i: usize) -> Res<String> {
        let name = match args.get(i) {
            Some(Arg::Expr(Expr::Unary(UnOp::AddrOf, inner))) => match &**inner {
                Expr::Ident(n) => n.clone(),
                _ => return err("expected a function reference"),
            },
            Some(Arg::Expr(Expr::Ident(n))) => n.clone(),
            _ => return err("expected a function reference"),
        };
        if !self.cx.func_sigs.contains_key(&name) {
            return err(format!("unknown function {name}"));
        }
        Ok(name)
    }
}

/// Source-level stringification used by `names_obj` (paper primitive ⑤).
fn stringify_expr(e: &Expr) -> String {
    match e {
        Expr::Ident(n) => n.clone(),
        Expr::Cast(_, inner) => stringify_expr(inner),
        Expr::Unary(UnOp::AddrOf, inner) => format!("&{}", stringify_expr(inner)),
        Expr::Unary(UnOp::Deref, inner) => format!("*{}", stringify_expr(inner)),
        Expr::Member(b, f, arrow) => format!(
            "{}{}{}",
            stringify_expr(b),
            if *arrow { "->" } else { "." },
            f
        ),
        Expr::Index(b, i) => format!("{}[{}]", stringify_expr(b), stringify_expr(i)),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;

    #[test]
    fn check_simple_component() {
        let p = compile(
            "int a, b;\nvoid increment(int *p) { *p = *p + 1; }\nvoid transfer(void) { increment(&a); }\n",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 2);
        assert!(p.func("increment").is_some());
        assert!(p.func("transfer").is_some());
    }

    #[test]
    fn pot_and_invariant_discovery() {
        let p = compile(
            "int a;\nint inv__ok(void) { return a == 0; }\nvoid spec__t(void) { assert(a == 0); }\nvoid helper(void) {}\n",
        )
        .unwrap();
        assert_eq!(p.pot_names(), vec!["spec__t"]);
        assert_eq!(p.invariant_names(), vec!["inv__ok"]);
    }

    #[test]
    fn pointer_arith_scaled() {
        let p = compile("long *q;\nlong f(void) { return *(q + 2); }\n").unwrap();
        // The HIR must contain a multiplication by 8.
        let f = p.func("f").unwrap();
        let s = format!("{:?}", f.body);
        assert!(s.contains("Const(8)"), "{s}");
    }

    #[test]
    fn member_access_offsets() {
        let p = compile(
            "struct pair { int x; int y; };\nstruct pair g;\nint f(void) { return g.y; }\n",
        )
        .unwrap();
        let f = p.func("f").unwrap();
        let s = format!("{:?}", f.body);
        assert!(s.contains("Const(4)"), "field y at offset 4: {s}");
    }

    #[test]
    fn arrow_on_pointer() {
        let p = compile(
            "struct perm { int owner; };\nstruct perm *pp;\nint f(void) { return pp->owner; }\n",
        )
        .unwrap();
        assert!(p.func("f").is_some());
    }

    #[test]
    fn array_decay_and_index() {
        let p = compile("int arr[8];\nint f(int i) { return arr[i]; }\n").unwrap();
        let f = p.func("f").unwrap();
        let s = format!("{:?}", f.body);
        assert!(s.contains("Mul"), "index scaling: {s}");
    }

    #[test]
    fn any_declares_symbolic_local() {
        let p = compile("void spec__x(void) { any(unsigned long, v); assume(v > 0); }\n").unwrap();
        let f = p.func("spec__x").unwrap();
        assert!(f.locals.iter().any(|l| l.name == "v"));
    }

    #[test]
    fn names_obj_stringifies() {
        let p =
            compile("char *p1;\nint inv__a(void) { return names_obj(p1, char[16]); }\n").unwrap();
        let f = p.func("inv__a").unwrap();
        let s = format!("{:?}", f.body);
        assert!(s.contains("\"p1\""), "{s}");
    }

    #[test]
    fn unsigned_division_resolved() {
        let p = compile("unsigned long a, b;\nunsigned long f(void) { return a / b; }\n").unwrap();
        let s = format!("{:?}", p.func("f").unwrap().body);
        assert!(s.contains("DivU"), "{s}");
        let p2 = compile("long a, b;\nlong f(void) { return a / b; }\n").unwrap();
        let s2 = format!("{:?}", p2.func("f").unwrap().body);
        assert!(s2.contains("DivS"), "{s2}");
    }

    #[test]
    fn global_initializers() {
        let p = compile("unsigned long x = 0x10;\nint arr[4] = {1, 2};\n").unwrap();
        assert_eq!(p.globals[0].init, vec![(0, 64, 0x10)]);
        assert_eq!(p.globals[1].init, vec![(0, 32, 1), (4, 32, 2)]);
    }

    #[test]
    fn enum_constants_fold() {
        let p = compile("enum { A, B = 7, C };\nint f(void) { return C; }\n").unwrap();
        let s = format!("{:?}", p.func("f").unwrap().body);
        assert!(s.contains("Const(8)"), "{s}");
    }

    #[test]
    fn int_to_pointer_cast() {
        let p = compile("unsigned long cur;\nvoid f(void) { char *p = (char *)cur; *p = 0; }\n")
            .unwrap();
        assert!(p.func("f").is_some());
    }

    #[test]
    fn sizeof_forms() {
        let p = compile(
            "struct s { long a; char b; };\nunsigned long f(void) { struct s v; return sizeof(struct s) + sizeof v; }\n",
        )
        .unwrap();
        let s = format!("{:?}", p.func("f").unwrap().body);
        assert!(s.contains("Const(16)"), "{s}");
    }

    #[test]
    fn error_unknown_identifier() {
        assert!(compile("int f(void) { return nope; }\n").is_err());
    }

    #[test]
    fn error_call_arity() {
        assert!(compile("void g(int x) {}\nvoid f(void) { g(); }\n").is_err());
    }

    #[test]
    fn error_non_scalar_operands() {
        const VOID_F: &str = "void f(void) {}\n";
        const STRUCT_S: &str = "struct S { int a; };\nstruct S s;\n";
        for (decls, body) in [
            (VOID_F, "int g(void) { return f() - 1; }"),
            (VOID_F, "int g(void) { return f() == 1; }"),
            (VOID_F, "int g(void) { return f() < 1; }"),
            (VOID_F, "int g(void) { return 1 << f(); }"),
            (VOID_F, "int g(void) { int x = 0; x += f(); return x; }"),
            (VOID_F, "int g(void) { return 1 ? f() : 2; }"),
            (STRUCT_S, "int g(void) { return s + 1; }"),
            (STRUCT_S, "int g(void) { return s == s; }"),
        ] {
            let src = format!("{decls}{body}\n");
            match compile(&src) {
                Err(e @ crate::FrontError::Sema(_)) => {
                    assert!(e.to_string().contains("must be scalar"), "{body}: {e}")
                }
                other => panic!("{body}: expected a sema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn tpot_inv_args_and_pairs() {
        let p = compile(
            "int loopinv(int *i) { return *i >= 0; }\nvoid f(void) { int i = 0; while (i < 4) { __tpot_inv(&loopinv, &i, &i, sizeof(i)); i++; } }\n",
        )
        .unwrap();
        assert!(p.func("f").is_some());
    }

    #[test]
    fn extern_merges_with_definition() {
        let p = compile("extern unsigned num;\nunsigned num = 3;\n").unwrap();
        assert_eq!(p.globals.len(), 1);
        assert!(!p.globals[0].is_extern);
        assert_eq!(p.globals[0].init, vec![(0, 32, 3)]);
    }

    #[test]
    fn compound_assign_desugars() {
        let p = compile("unsigned long cur;\nvoid f(void) { cur += 4096; }\n").unwrap();
        let s = format!("{:?}", p.func("f").unwrap().body);
        assert!(s.contains("Assign"), "{s}");
        assert!(s.contains("Add"), "{s}");
    }

    #[test]
    fn ternary_types_unify() {
        let p = compile("int f(int c) { return c ? 1u : 2u; }\n").unwrap();
        assert!(p.func("f").is_some());
    }

    #[test]
    fn postinc_pointer_scales() {
        let p = compile("long *p;\nvoid f(void) { p++; }\n").unwrap();
        let s = format!("{:?}", p.func("f").unwrap().body);
        assert!(s.contains("delta: 8"), "{s}");
    }
}
