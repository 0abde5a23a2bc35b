//! Per-instance solve statistics.
//!
//! Every [`Solver`](crate::Solver) maintains exact per-instance counters
//! (`num_conflicts`, `num_decisions`, …) and computes a per-`solve` delta
//! from them. [`SolveStats`] is the copyable snapshot of those counters.
//! Each delta goes both to the process-wide `sat.*` metric counters and to
//! the instance's own in-solve total
//! ([`Solver::solve_totals`](crate::Solver::solve_totals)), which the
//! session layer reads before and after a check to attribute SAT work to
//! the POT and path that issued it. The invariant `sum of attributed deltas
//! == global delta` is what the engine's `pkvm_invariants` test checks.

/// Snapshot of one solver instance's cumulative counters (or a delta
/// between two snapshots — the fields are plain sums either way).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SolveStats {
    /// `solve` calls completed.
    pub solves: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Restarts.
    pub restarts: u64,
    /// Clauses learned from conflicts.
    pub learned: u64,
    /// DRAT proof-log lines emitted.
    pub proof_lines: u64,
}

impl SolveStats {
    /// Component-wise `self - earlier` (saturating, so a reset baseline
    /// cannot underflow).
    pub fn delta(self, earlier: SolveStats) -> SolveStats {
        SolveStats {
            solves: self.solves.saturating_sub(earlier.solves),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learned: self.learned.saturating_sub(earlier.learned),
            proof_lines: self.proof_lines.saturating_sub(earlier.proof_lines),
        }
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: SolveStats) {
        self.solves += other.solves;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned += other.learned;
        self.proof_lines += other.proof_lines;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SolveStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_add_roundtrip() {
        let a = SolveStats {
            solves: 3,
            conflicts: 10,
            decisions: 20,
            propagations: 100,
            restarts: 1,
            learned: 9,
            proof_lines: 30,
        };
        let mut b = a;
        b.add(a);
        assert_eq!(b.delta(a), a);
        assert!(a.delta(b).is_zero(), "saturating: no underflow");
    }
}
