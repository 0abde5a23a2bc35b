//! Paused execution paths as first-class scheduling units.
//!
//! The interpreter's [`ExecCtx::step`] function maps one paused path to
//! its successors; this module packages a paused [`State`] together with
//! the execution *shard* it belongs to (the arena + solver context its
//! `TermId`s are relative to) into a [`PathTask`] — a `Send`-able value
//! the work-stealing scheduler ([`crate::sched`]) moves between workers.
//!
//! **The shard model.** A [`Shard`] is a shared handle to one `ExecCtx`.
//! Every state forked inside a shard holds `TermId`s into that shard's
//! arena, so tasks of one lineage share their shard and are stepped under
//! its lock. When a task is *stolen*, the thief calls [`Shard::split`]:
//! because the arena is append-only and hash-consed, a full clone taken at
//! any moment after the stolen state was enqueued dominates every term the
//! state references — the stolen task rebinds to the clone and the two
//! shards diverge independently from there. The clone deep-copies the live
//! solve sessions ([`tpot_solver::SolveSession`]), which is the
//! longest-common-prefix handoff: the migrated path's first query re-blasts
//! only what its prefix does not share with the inherited sessions.
//!
//! Determinism: every task carries a [`PathId`] — the vector of fork child
//! indices from the POT root. Fork order out of `step` is a function of
//! the state alone, so path ids are stable across worker counts and steal
//! schedules; the driver orders violations by path id to make N-worker
//! outcomes byte-identical to the sequential ones.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::interp::ExecCtx;
use crate::query::EngineError;
use crate::state::State;

/// Deterministic identity of an execution path: the child index taken at
/// every fork since the POT root. Lexicographic order is depth-first
/// visit order, independent of scheduling.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash)]
pub struct PathId(Vec<u32>);

impl PathId {
    /// The POT root path.
    pub fn root() -> Self {
        PathId(Vec::new())
    }

    /// The id of fork child `i` of this path.
    pub fn child(&self, i: u32) -> Self {
        let mut v = self.0.clone();
        v.push(i);
        PathId(v)
    }

    /// Number of forks between the root and this path.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// The fork child indices from the root (empty for the root itself).
    pub fn components(&self) -> &[u32] {
        &self.0
    }

    /// The id of the fork this path came from, or `None` for the root.
    pub fn parent(&self) -> Option<Self> {
        let (_, init) = self.0.split_last()?;
        Some(PathId(init.to_vec()))
    }
}

impl std::fmt::Display for PathId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        let parts: Vec<String> = self.0.iter().map(u32::to_string).collect();
        write!(f, "{}", parts.join("."))
    }
}

/// A shared handle to one execution shard ([`ExecCtx`]): the arena and
/// solver context a family of paused paths is relative to.
pub struct Shard<'m>(Arc<Mutex<ExecCtx<'m>>>);

impl<'m> Clone for Shard<'m> {
    /// Clones the *handle* (same shard). Use [`Shard::split`] for the
    /// steal-time deep clone.
    fn clone(&self) -> Self {
        Shard(Arc::clone(&self.0))
    }
}

impl<'m> Shard<'m> {
    /// Wraps a fresh execution context as a shard.
    pub fn new(ctx: ExecCtx<'m>) -> Self {
        Shard(Arc::new(Mutex::new(ctx)))
    }

    /// Locks the underlying context. The scheduler holds this lock per
    /// step (and across one end-of-POT check), never across a steal.
    pub fn lock(&self) -> MutexGuard<'_, ExecCtx<'m>> {
        self.0.lock()
    }

    /// Deep-clones the shard for a stolen task (steal protocol): copies
    /// the arena (dominating every term the stolen state references) and
    /// hands off the solve sessions; shares the persistent query cache.
    pub fn split(&self) -> Shard<'m> {
        Shard::new(self.0.lock().clone_for_shard())
    }

    /// True when both handles refer to the same shard.
    pub fn same(&self, other: &Shard<'m>) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Which obligation a task carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskPhase {
    /// Stepping the POT body.
    Body,
    /// A completed body path awaiting its end-of-POT checks (invariant
    /// re-establishment, pledges, leaks) — a stealable unit of its own.
    EndCheck,
}

/// A paused execution path: the unit of scheduling.
pub struct PathTask<'m> {
    /// Index of the POT this path belongs to (scheduler-relative).
    pub pot: usize,
    /// Deterministic fork identity.
    pub pid: PathId,
    /// The paused state. `state.done` is `None` for [`TaskPhase::Body`]
    /// tasks still running; finished states carry their outcome.
    pub state: State,
    /// The shard whose arena this state's terms live in.
    pub shard: Shard<'m>,
    /// Body execution or end-of-POT checking.
    pub phase: TaskPhase,
}

// The tentpole claim, checked at compile time: a paused path (with its
// shard handle) crosses threads. `State`'s persistent containers are
// Arc-based (`tpot-persist`), the arena is plain data, and the solver
// stack is `Send` by construction.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PathTask<'static>>();
};

impl<'m> PathTask<'m> {
    /// Steps this body task once, returning its successor tasks in
    /// deterministic order — one continuation, or several children at a
    /// fork (each tagged `pid.child(i)`), any of which may already be
    /// finished (`state.done` set). The shard lock is held only for the
    /// duration of the single step.
    pub fn step(self) -> Result<Vec<PathTask<'m>>, EngineError> {
        debug_assert_eq!(self.phase, TaskPhase::Body);
        let PathTask {
            pot,
            pid,
            state,
            shard,
            phase,
        } = self;
        let children = shard.lock().step(state)?;
        let forked = children.len() > 1;
        Ok(children
            .into_iter()
            .enumerate()
            .map(|(i, st)| PathTask {
                pot,
                pid: if forked {
                    pid.child(i as u32)
                } else {
                    pid.clone()
                },
                state: st,
                shard: shard.clone(),
                phase,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_ids_order_depth_first() {
        let r = PathId::root();
        let a = r.child(0);
        let b = r.child(1);
        let aa = a.child(1);
        assert!(a < b);
        assert!(a < aa, "parent sorts before its children");
        assert!(aa < b, "whole left subtree sorts before the right sibling");
        assert_eq!(format!("{}", r), "ε");
        assert_eq!(format!("{}", aa), "0.1");
        assert_eq!(aa.depth(), 2);
    }
}
