//! A CDCL SAT solver.
//!
//! This crate is the propositional core of the from-scratch SMT solver that
//! substitutes for Z3 in this reproduction (see DESIGN.md §1). It implements
//! the standard modern architecture:
//!
//! - two-watched-literal propagation,
//! - first-UIP conflict analysis with clause minimization,
//! - VSIDS decision heuristics with exponential decay,
//! - phase saving,
//! - Luby-sequence restarts,
//! - LBD (glue) tracking with a three-tier learned-clause database
//!   (core / mid / local) and aggressive local-tier reduction,
//! - solving under assumptions (used by the SMT layer for theory-guided
//!   queries),
//! - DRAT proof logging with an independent RUP checker ([`proof`], and the
//!   `drat_check` binary for proofs produced by other solvers).

pub mod config;
pub mod dimacs;
pub mod proof;
pub mod solver;
pub mod stats;

pub use config::SatConfig;
pub use dimacs::{parse_dimacs, solver_from_dimacs, Dimacs, DimacsError};
pub use proof::{check_steps, dimacs_lit, parse_drat, CheckStats, ProofLog, ProofStep};
pub use solver::{Lit, SatResult, Solver, Var};
pub use stats::SolveStats;
