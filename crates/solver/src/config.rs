//! Solver configuration.

use tpot_sat::SatConfig;

use crate::lia::LiaConfig;

/// Configuration of one SMT solver instance.
///
/// The portfolio layer (`tpot-portfolio`) races several differently
/// configured instances, reproducing the paper's portfolio of 15 Z3
/// instances with different "arithmetic solver, branch/cut ratio, number of
/// threads" settings (§5).
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Display name (shows up in portfolio statistics).
    pub name: String,
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
            name: "default".into(),
            sat: SatConfig::default(),
            lia: LiaConfig::default(),
            max_theory_rounds: 100_000,
        }
    }
}

impl SolverConfig {
    /// The default portfolio: differently-seeded and differently-tuned
    /// instances. `n` is clamped to the number of distinct base
    /// configurations times 8 seeds.
    pub fn portfolio(n: usize) -> Vec<SolverConfig> {
        let mut out = Vec::new();
        let bases: [(&str, SatConfig); 3] = [
            ("default", SatConfig::default()),
            ("aggressive", SatConfig::aggressive()),
            ("stable", SatConfig::stable()),
        ];
        for i in 0..n {
            let (bname, sat) = &bases[i % bases.len()];
            let seed = 0x5eed_0000u64 + (i as u64) * 0x9e37;
            out.push(SolverConfig {
                name: format!("{bname}-{i}"),
                sat: sat.clone().with_seed(seed),
                lia: LiaConfig {
                    branch_lowest_index: i % 2 == 0,
                    ..LiaConfig::default()
                },
                max_theory_rounds: 100_000,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portfolio_is_diverse() {
        let p = SolverConfig::portfolio(6);
        assert_eq!(p.len(), 6);
        let seeds: std::collections::HashSet<u64> = p.iter().map(|c| c.sat.seed).collect();
        assert_eq!(seeds.len(), 6, "every instance must have a distinct seed");
        assert!(p.iter().any(|c| !c.lia.branch_lowest_index));
    }
}
