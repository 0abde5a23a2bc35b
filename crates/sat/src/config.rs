//! SAT solver configuration.

/// Tunable parameters of the CDCL solver.
#[derive(Clone, Debug)]
pub struct SatConfig {
    /// VSIDS activity decay factor (activity is divided by this after each
    /// conflict bump). Typical range 0.8–0.99.
    pub var_decay: f64,
    /// Learned-clause activity decay.
    pub clause_decay: f64,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Probability of a random decision instead of a VSIDS pick.
    pub random_decision_freq: f64,
    /// Seed for the decision randomization.
    pub seed: u64,
    /// Initial polarity for unassigned, never-flipped variables.
    pub default_phase: bool,
    /// Maximum number of conflicts before giving up (`None` = unlimited).
    pub conflict_limit: Option<u64>,
    /// Learned-clause database reduction threshold factor.
    pub learntsize_factor: f64,
    /// DRAT proof logging (`TPOT_PROOF`). Every input, learned and deleted
    /// clause is recorded; [`crate::Solver::check_proof`] replays
    /// the log through the independent RUP checker.
    pub proof: bool,
    /// Blame tracking (`TPOT_BLAME`): count, per *tracked* variable (the
    /// session layer tracks its activation literals), how many learned
    /// clauses mention it — the conflict-participation signal behind the
    /// per-POT "top-k costly assumptions" report.
    pub blame: bool,
}

impl Default for SatConfig {
    fn default() -> Self {
        let obs = tpot_obs::config();
        SatConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            random_decision_freq: 0.02,
            seed: 0x9e3779b97f4a7c15,
            default_phase: false,
            conflict_limit: None,
            learntsize_factor: 1.0 / 3.0,
            proof: obs.proof.unwrap_or(false),
            blame: obs.blame.unwrap_or(false),
        }
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
///
/// Standard in CDCL solvers since Minisat; keeps restart intervals bounded
/// while guaranteeing unbounded growth.
pub fn luby(i: u64) -> u64 {
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    let mut x = i;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << (seq.saturating_sub(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        // The classic sequence, scaled by 2^seq starting at 1:
        assert_eq!(
            got,
            vec![2, 2, 4, 2, 2, 4, 8, 2, 2, 4, 2, 2, 4, 8, 16]
                .into_iter()
                .map(|x: u64| x / 2)
                .collect::<Vec<_>>()
        );
    }
}
