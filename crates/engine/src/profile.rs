//! Path-tree profiles: exact exclusive solver effort per execution path.
//!
//! The scheduler drains its shard's counters at every attribution boundary
//! (a fork, a terminal path, an end-of-POT check, the end of an episode)
//! and records the delta against the [`PathId`] that was current when the
//! work happened. Because the counters are per-shard deltas (not
//! process-wide snapshots), the attribution is *exclusive* — a sample on
//! path `0.1` is work done while `0.1` itself was executing, excluding its
//! children — and exact at any worker count.
//!
//! The profile renders as collapsed-stack lines (`pot;ε;0;1 1234`), the
//! input format of Brendan Gregg's `flamegraph.pl` and of every
//! speedscope-style viewer: one line per path, the frame chain being the
//! POT name, the root `ε`, then each fork child index, and the value the
//! exclusive solver microseconds. Folding the tree therefore shows where a
//! POT's proof effort concentrates — which fork subtree, how deep.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::frontier::PathId;
use crate::stats::Stats;

/// Exclusive effort attributed to one path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PathSample {
    /// Solver wall-clock (all Figure-7 query buckets), microseconds.
    pub solver_us: u64,
    /// Solver queries issued.
    pub queries: u64,
    /// SAT `solve()` calls (shard delta).
    pub sat_solves: u64,
    /// CDCL conflicts (shard delta).
    pub sat_conflicts: u64,
}

impl PathSample {
    /// Extracts the profile-relevant slice of a drained [`Stats`] delta.
    pub fn from_stats(s: &Stats) -> Self {
        let us = |d: Duration| d.as_micros() as u64;
        PathSample {
            solver_us: us(s.simplify_time + s.pointer_time + s.branch_time + s.assertion_time),
            queries: s.num_queries,
            sat_solves: s.sat_solves,
            sat_conflicts: s.sat_conflicts,
        }
    }

    /// Accumulates another sample.
    pub fn add(&mut self, o: PathSample) {
        self.solver_us += o.solver_us;
        self.queries += o.queries;
        self.sat_solves += o.sat_solves;
        self.sat_conflicts += o.sat_conflicts;
    }

    /// True when nothing was attributed.
    pub fn is_zero(&self) -> bool {
        *self == PathSample::default()
    }
}

/// The fork-tree profile of one POT: exclusive effort per [`PathId`].
#[derive(Clone, Debug, Default)]
pub struct PathProfile {
    entries: HashMap<PathId, PathSample>,
}

impl PathProfile {
    /// Attributes `s` to `pid`. Zero samples are dropped so drains at
    /// quiet boundaries (no solver work since the last drain) cost nothing
    /// and paths that never queried the solver don't clutter the profile.
    pub fn record(&mut self, pid: &PathId, s: PathSample) {
        if s.is_zero() {
            return;
        }
        self.entries.entry(pid.clone()).or_default().add(s);
    }

    /// Merges another profile (same POT, e.g. per-episode partials).
    pub fn merge(&mut self, o: &PathProfile) {
        for (pid, s) in &o.entries {
            self.entries.entry(pid.clone()).or_default().add(*s);
        }
    }

    /// True when no effort was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in depth-first path order (deterministic output order).
    pub fn iter_sorted(&self) -> Vec<(&PathId, &PathSample)> {
        let mut v: Vec<_> = self.entries.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Sum over every path.
    pub fn total(&self) -> PathSample {
        let mut t = PathSample::default();
        for s in self.entries.values() {
            t.add(*s);
        }
        t
    }

    /// Renders collapsed-stack lines, one per path:
    /// `pot;ε;0;1 <exclusive_solver_us>`. Zero-valued paths are skipped
    /// (flamegraph folders drop them anyway).
    pub fn collapsed_stack(&self, pot: &str) -> String {
        let mut out = String::new();
        for (pid, s) in self.iter_sorted() {
            if s.solver_us == 0 {
                continue;
            }
            let _ = write!(out, "{pot};ε");
            for c in pid.components() {
                let _ = write!(out, ";{c}");
            }
            let _ = writeln!(out, " {}", s.solver_us);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(us: u64) -> PathSample {
        PathSample {
            solver_us: us,
            queries: 1,
            sat_solves: 1,
            sat_conflicts: 0,
        }
    }

    #[test]
    fn records_merge_and_sort_depth_first() {
        let r = PathId::root();
        let a = r.child(0);
        let ab = a.child(1);
        let b = r.child(1);
        let mut p = PathProfile::default();
        p.record(&b, sample(30));
        p.record(&ab, sample(20));
        p.record(&a, sample(10));
        p.record(&a, sample(5));
        p.record(&r, PathSample::default()); // dropped
        let order: Vec<String> = p
            .iter_sorted()
            .iter()
            .map(|(pid, _)| pid.to_string())
            .collect();
        assert_eq!(order, vec!["0", "0.1", "1"]);
        assert_eq!(p.total().solver_us, 65);
        let mut q = PathProfile::default();
        q.record(&a, sample(100));
        p.merge(&q);
        assert_eq!(p.total().solver_us, 165);
    }

    #[test]
    fn collapsed_stack_frames_follow_the_fork_tree() {
        let r = PathId::root();
        let mut p = PathProfile::default();
        p.record(&r, sample(7));
        p.record(&r.child(0).child(2), sample(11));
        let txt = p.collapsed_stack("pot_main");
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines, vec!["pot_main;ε 7", "pot_main;ε;0;2 11"]);
    }
}
