//! Solver configuration.

use tpot_sat::SatConfig;

use crate::lia::LiaConfig;

/// Configuration of one SMT solver instance.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Configuration of the propositional core.
    pub sat: SatConfig,
    /// Configuration of the integer-arithmetic engine.
    pub lia: LiaConfig,
    /// Maximum DPLL(T) iterations (SAT model → theory check round-trips)
    /// before returning `Unknown`.
    pub max_theory_rounds: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            sat: SatConfig::default(),
            lia: LiaConfig::default(),
            max_theory_rounds: 100_000,
        }
    }
}
