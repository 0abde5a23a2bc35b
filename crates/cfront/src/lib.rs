//! C-subset frontend for TPot.
//!
//! TPot verifies components written in *standard, unrestricted C* (paper §1):
//! the implementation language is C, and the specification language is C
//! extended with eight verification primitives (Table 2). This crate
//! implements the frontend for the C subset exercised by the paper's six
//! evaluation targets — untyped pointers, pointer arithmetic,
//! integer↔pointer casts, bit-twiddling, structs/arrays, dynamic allocation
//! — plus the specification primitives:
//!
//! | # | primitive |
//! |---|-----------|
//! | ① | `any(type, name)` |
//! | ② | `assume(cond)` |
//! | ③ | `assert(cond)` |
//! | ④ | `points_to(ptr, type, name)` |
//! | ⑤ | `names_obj(ptr, type)` |
//! | ⑥ | `names_obj_forall(ptr_f, type)` |
//! | ⑦ | `forall_elem(arr, cond, ...)` |
//! | ⑧ | `names_obj_forall_cond(ptr_f, type, cond)` |
//!
//! Functions named `spec__*` are proof-oriented tests (POTs), `inv__*` are
//! global invariants, and `__tpot_inv(&f, args…, (ptr, size)…)` at a loop
//! head declares a loop invariant (paper §4.1, appendix A).
//!
//! Pipeline: [`pp`] (comment stripping + `#define`) → [`lexer`] →
//! [`parser`] (AST in [`ast`]) → [`sema`] (type checking and implicit
//! conversion materialization over [`types`]).

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod pp;
pub mod sema;
pub mod token;
pub mod types;

pub use ast::Program;
pub use sema::{analyze, CheckedProgram, SemaError};
pub use types::{StructLayouts, Type};

/// Convenience: preprocess, lex, parse and type-check a translation unit.
pub fn compile(source: &str) -> Result<CheckedProgram, FrontError> {
    let _span = tpot_obs::span_args("cfront", "compile", &[("bytes", &source.len())]);
    let pre = pp::preprocess(source).map_err(FrontError::Pp)?;
    let tokens = lexer::lex(&pre).map_err(FrontError::Lex)?;
    let program = parser::parse(tokens).map_err(FrontError::Parse)?;
    sema::analyze(program).map_err(FrontError::Sema)
}

/// Any frontend error, with a human-readable message.
#[derive(Debug, Clone)]
pub enum FrontError {
    /// Preprocessor error.
    Pp(String),
    /// Lexer error.
    Lex(String),
    /// Parser error.
    Parse(String),
    /// Type/semantic error.
    Sema(SemaError),
}

impl std::fmt::Display for FrontError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontError::Pp(m) => write!(f, "preprocessor: {m}"),
            FrontError::Lex(m) => write!(f, "lexer: {m}"),
            FrontError::Parse(m) => write!(f, "parser: {m}"),
            FrontError::Sema(m) => write!(f, "sema: {m}"),
        }
    }
}

impl std::error::Error for FrontError {}

impl From<FrontError> for tpot_api::TpotError {
    fn from(e: FrontError) -> Self {
        match &e {
            FrontError::Pp(_) | FrontError::Lex(_) | FrontError::Parse(_) => {
                tpot_api::TpotError::parse(e.to_string())
            }
            FrontError::Sema(_) => tpot_api::TpotError::sema(e.to_string()),
        }
    }
}
