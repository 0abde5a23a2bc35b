//! Per-instance solve statistics and the attribution sink.
//!
//! Every [`Solver`](crate::Solver) maintains exact per-instance counters
//! (`num_conflicts`, `num_decisions`, …) and computes a per-`solve` delta
//! from them. [`SolveStats`] is the copyable snapshot of those counters;
//! [`SatSink`] is a shared accumulator that receives each solve's exact
//! delta. The portfolio layer installs one sink per solver *context*
//! (execution shard), so higher layers can attribute SAT work to the POT
//! and path that issued it with no overlap — no matter how many contexts
//! run concurrently. The process-wide `sat.*` metric counters keep
//! receiving the same deltas; the invariant `sum over sinks == global
//! delta` is what the `counter_parity` fuzz mode and the engine's
//! `pkvm_invariants` test check.

use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
    /// Clauses removed by (self-)subsumption.
    pub subsumed: u64,
    /// Literals removed by vivification and strengthening.
    pub vivified_lits: u64,
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
            eliminated_vars: self.eliminated_vars.saturating_sub(earlier.eliminated_vars),
            subsumed: self.subsumed.saturating_sub(earlier.subsumed),
            vivified_lits: self.vivified_lits.saturating_sub(earlier.vivified_lits),
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
        self.eliminated_vars += other.eliminated_vars;
        self.subsumed += other.subsumed;
        self.vivified_lits += other.vivified_lits;
        self.proof_lines += other.proof_lines;
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SolveStats::default()
    }
}

/// A shared, thread-safe accumulator of per-solve deltas.
///
/// Installed into a solver via [`SatConfig::sink`](crate::SatConfig);
/// every completed `solve` adds its exact counter delta. Cloned solvers
/// (session handoff) keep the handle until the new owner re-installs its
/// own — the portfolio layer does exactly that on shard splits.
#[derive(Debug, Default)]
pub struct SatSink {
    solves: AtomicU64,
    conflicts: AtomicU64,
    decisions: AtomicU64,
    propagations: AtomicU64,
    restarts: AtomicU64,
    learned: AtomicU64,
    eliminated_vars: AtomicU64,
    subsumed: AtomicU64,
    vivified_lits: AtomicU64,
    proof_lines: AtomicU64,
}

impl SatSink {
    /// Accumulates one solve's delta.
    pub fn add(&self, d: SolveStats) {
        self.solves.fetch_add(d.solves, Ordering::Relaxed);
        self.conflicts.fetch_add(d.conflicts, Ordering::Relaxed);
        self.decisions.fetch_add(d.decisions, Ordering::Relaxed);
        self.propagations
            .fetch_add(d.propagations, Ordering::Relaxed);
        self.restarts.fetch_add(d.restarts, Ordering::Relaxed);
        self.learned.fetch_add(d.learned, Ordering::Relaxed);
        self.eliminated_vars
            .fetch_add(d.eliminated_vars, Ordering::Relaxed);
        self.subsumed.fetch_add(d.subsumed, Ordering::Relaxed);
        self.vivified_lits
            .fetch_add(d.vivified_lits, Ordering::Relaxed);
        self.proof_lines.fetch_add(d.proof_lines, Ordering::Relaxed);
    }

    /// The cumulative totals received so far.
    pub fn load(&self) -> SolveStats {
        SolveStats {
            solves: self.solves.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            propagations: self.propagations.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            learned: self.learned.load(Ordering::Relaxed),
            eliminated_vars: self.eliminated_vars.load(Ordering::Relaxed),
            subsumed: self.subsumed.load(Ordering::Relaxed),
            vivified_lits: self.vivified_lits.load(Ordering::Relaxed),
            proof_lines: self.proof_lines.load(Ordering::Relaxed),
        }
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
            eliminated_vars: 2,
            subsumed: 4,
            vivified_lits: 5,
            proof_lines: 30,
        };
        let mut b = a;
        b.add(a);
        assert_eq!(b.delta(a), a);
        assert!(a.delta(b).is_zero(), "saturating: no underflow");
    }

    #[test]
    fn sink_accumulates_concurrently() {
        let sink = std::sync::Arc::new(SatSink::default());
        let d = SolveStats {
            solves: 1,
            conflicts: 2,
            ..SolveStats::default()
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let sink = sink.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        sink.add(d);
                    }
                });
            }
        });
        let got = sink.load();
        assert_eq!(got.solves, 800);
        assert_eq!(got.conflicts, 1600);
    }
}
