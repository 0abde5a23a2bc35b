//! `tpot-fuzz` — differential fuzzing and metamorphic oracles for the
//! solver stack (`tpot-sat` → `tpot-solver` → `tpot-smt`) and the symbolic
//! engine's COW execution states.
//!
//! The paper outsources solving to Z3 and execution to a mature KLEE-style
//! engine; this reproduction implements both from scratch, so a silent
//! soundness bug here would invalidate every reproduced table. The crate
//! cross-checks three independently implemented semantics that must agree
//! on every input:
//!
//! * **brute force** — exhaustive enumeration of finite variable boxes,
//!   evaluated with `tpot_smt::eval` ([`oracle`]);
//! * **the DPLL(T) solver**, on both the **full arena** and its
//!   **cone-of-influence slice**, and through both the **LIA/simplex** and
//!   **bit-blasting** encodings ([`diff`]);
//! * **metamorphic variants** — shuffled, alpha-renamed and
//!   equivalence-wrapped queries, plus COW-fork vs deep re-execution at
//!   the engine level ([`meta`], [`state`]).
//!
//! Failures are delta-debugged to minimal SMT-LIB repros ([`reduce`]) under
//! `fuzz-failures/`. Everything is seeded: a discrepancy is reproducible
//! from the `(seed, iteration)` pair in its report.
//!
//! No mode reads the process-wide metrics registry, so runs in one process
//! (the two `fuzz_smoke` tests) may overlap. Conservation of the SAT core's
//! `sat.*` totals is checked by the engine's `pkvm_invariants` test, a
//! binary of its own.

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod meta;
pub mod oracle;
pub mod reduce;
pub mod rng;
pub mod runner;
pub mod sched;
pub mod state;

pub use runner::{run, FuzzReport, Mode, RunConfig};
