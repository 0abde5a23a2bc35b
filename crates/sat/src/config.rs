//! SAT solver configuration.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Tunable parameters of the CDCL solver.
///
/// Portfolio instances differ in these knobs (plus the seed), mirroring the
/// paper's Z3 portfolio whose instances differ in "configuration parameters
/// (e.g., arithmetic solver, branch/cut ratio, number of threads)" (§5).
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
    /// The portfolio uses finite budgets on speculative configurations;
    /// the full-strength instance is unlimited.
    pub conflict_limit: Option<u64>,
    /// Learned-clause database reduction threshold factor.
    pub learntsize_factor: f64,
    /// Cooperative cancellation flag, polled periodically during search.
    /// The portfolio sets it once a racing instance wins, so losers stop
    /// burning CPU (the paper's portfolio kills losing Z3 processes).
    pub cancel: Option<Arc<AtomicBool>>,
    /// Inprocessing between solves: bounded variable elimination,
    /// subsumption/self-subsumption and clause vivification
    /// (`TPOT_INPROCESS`). Frozen variables (the bit-blaster's interface
    /// bits, activation literals, assumptions) are never eliminated, so
    /// incremental sessions stay sound.
    pub inprocess: bool,
    /// DRAT proof logging (`TPOT_PROOF`). Every learned, strengthened and
    /// deleted clause is recorded; [`crate::Solver::check_proof`] replays
    /// the log through the independent RUP checker.
    pub proof: bool,
    /// LBD at or below which a learned clause is *core*: never deleted by
    /// database reduction (`TPOT_LBD_CORE`).
    pub lbd_core: u32,
    /// LBD at or below which a learned clause is *mid-tier*: kept while it
    /// participates in conflicts, demoted to the local tier when idle
    /// (`TPOT_LBD_MID`).
    pub lbd_mid: u32,
    /// Attribution sink: every completed `solve` adds its exact counter
    /// delta here (in addition to the process-wide `sat.*` metrics). The
    /// portfolio layer installs one sink per execution shard so per-POT
    /// and per-path solver stats are exact under any scheduling.
    pub sink: Option<Arc<crate::stats::SatSink>>,
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
            cancel: None,
            inprocess: obs.inprocess.unwrap_or(true),
            proof: obs.proof.unwrap_or(false),
            lbd_core: obs.lbd_core.unwrap_or(2),
            lbd_mid: obs.lbd_mid.unwrap_or(6),
            sink: None,
            blame: obs.blame.unwrap_or(false),
        }
    }
}

impl SatConfig {
    /// An aggressive-restart configuration (good on crafted instances).
    pub fn aggressive() -> Self {
        SatConfig {
            restart_base: 32,
            var_decay: 0.85,
            ..Self::default()
        }
    }

    /// A stable configuration with slow restarts (good on large instances).
    pub fn stable() -> Self {
        SatConfig {
            restart_base: 512,
            var_decay: 0.99,
            random_decision_freq: 0.0,
            ..Self::default()
        }
    }

    /// Derives a variant with a different seed (portfolio diversification).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
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

    #[test]
    fn configs_differ() {
        let a = SatConfig::aggressive();
        let b = SatConfig::stable();
        assert_ne!(a.restart_base, b.restart_base);
        let c = SatConfig::default().with_seed(7);
        assert_eq!(c.seed, 7);
    }
}
