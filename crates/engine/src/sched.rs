//! The work-stealing path scheduler: forked execution states are the unit
//! of scheduling.
//!
//! `run_verify` runs one shared pool of [`PathTask`]s drawn from *all*
//! requested POTs, rather than one thread per POT running the recursive
//! depth-first loop:
//!
//! - every worker owns a LIFO deque; it pops from the back (depth-first,
//!   cache-hot, matching the old recursion order) and parks fork siblings
//!   there for others to steal;
//! - an empty worker steals the *front* half (`ceil(len/2)`) of a victim's
//!   deque — the shallowest, largest-subtree tasks — with the victim chosen
//!   by a per-worker seeded xorshift generator (`StealRng`), so a given
//!   `(seed, jobs)` pair replays the same steal schedule;
//! - stolen tasks are rebound to a deep clone of their shard
//!   ([`Shard::split`]), one clone per distinct shard per steal batch; the
//!   clone carries the victim's live solve sessions, so the thief's first
//!   incremental query re-blasts only the suffix its path does not share
//!   (the longest-common-prefix handoff, measured by the
//!   `sched.handoff_*` counters).
//!
//! Determinism: fork order is a function of the state, so the set of paths
//! and their [`PathId`]s are schedule-independent; per-POT violations are
//! ordered by path id before reporting, and the path-count and status of
//! every POT are identical for 1 and N workers (the `sched_parity` fuzz
//! mode checks exactly this). With `jobs = 1` the scheduler degenerates to
//! the old sequential depth-first run.
//!
//! Budgets are enforced at two levels: each shard's own instruction
//! counter fires inside [`ExecCtx::step`] (bounding a single runaway
//! lineage), and the scheduler checks the per-POT totals — cumulative
//! instructions and cumulative created paths — which are
//! schedule-independent, so budget errors also reproduce across worker
//! counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::driver::{PotResult, PotStatus, Verifier, Violation};
use crate::frontier::{PathId, PathTask, Shard, TaskPhase};
use crate::interp::{EngineConfig, ExecCtx};
use crate::profile::{PathProfile, PathSample};
use crate::prov::BlameEntry;
use crate::query::EngineError;
use crate::state::{PathOutcome, Pending, RetCont, State};
use crate::stats::Stats;

/// Default victim-selection seed when neither `VerifyOptions::steal_seed`
/// nor `TPOT_STEAL_SEED` is set.
pub const DEFAULT_STEAL_SEED: u64 = 0x7E07_5EED;

/// Per-worker deterministic victim selector (xorshift64), seeded from the
/// run seed and the worker index so every `(seed, jobs)` pair replays the
/// same victim sequence.
pub(crate) struct StealRng {
    state: u64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StealRng {
    pub(crate) fn new(seed: u64, worker: usize) -> Self {
        let s = splitmix64(seed ^ splitmix64(worker as u64));
        StealRng {
            state: if s == 0 { 1 } else { s },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish pick in `0..n` (`n` must be nonzero).
    pub(crate) fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Shared per-POT progress record. The worker that consumes the POT's last
/// outstanding task finalizes it.
struct PotRun {
    name: String,
    /// Tasks alive for this POT (queued, in flight, or being converted).
    outstanding: AtomicUsize,
    /// Max observed `outstanding` (feeds `Stats::live_peak`).
    live_peak: AtomicU64,
    /// Body tasks ever created (roots + parked fork children). This is
    /// schedule-independent, so the state-explosion budget reproduces
    /// across worker counts.
    created: AtomicU64,
    /// Terminal body paths observed.
    done_paths: AtomicU64,
    /// First error (engine error or budget) — once set, remaining tasks of
    /// this POT are discarded and the POT reports `PotStatus::Error`.
    poisoned: Mutex<Option<String>>,
    /// Violations keyed for deterministic ordering: `(path, seq)`.
    violations: Mutex<Vec<(PathId, u32, Violation)>>,
    /// Merged per-episode engine stats. The `sat_*` members are per-shard
    /// deltas drained at attribution boundaries, so they are exact
    /// for this POT at any worker count.
    stats: Mutex<Stats>,
    /// Merged per-episode path profiles (exclusive per-path effort).
    profile: Mutex<PathProfile>,
    /// Per-episode blame drains (merged + ranked at finalization).
    blame: Mutex<Vec<Vec<BlameEntry>>>,
    /// Start instant, set by the first episode that touches this POT.
    t0: Mutex<Option<Instant>>,
    /// Published result.
    result: Mutex<Option<PotResult>>,
}

impl PotRun {
    fn new(name: String) -> Self {
        PotRun {
            name,
            outstanding: AtomicUsize::new(0),
            live_peak: AtomicU64::new(0),
            created: AtomicU64::new(0),
            done_paths: AtomicU64::new(0),
            poisoned: Mutex::new(None),
            violations: Mutex::new(Vec::new()),
            stats: Mutex::new(Stats::default()),
            profile: Mutex::new(PathProfile::default()),
            blame: Mutex::new(Vec::new()),
            t0: Mutex::new(None),
            result: Mutex::new(None),
        }
    }

    fn poison(&self, msg: String) {
        let mut g = self.poisoned.lock();
        if g.is_none() {
            *g = Some(msg);
        }
    }
}

struct Sched<'m> {
    deques: Vec<Mutex<VecDeque<PathTask<'m>>>>,
    pots: Vec<PotRun>,
    /// Tasks alive across all POTs; workers exit when this reaches zero.
    remaining: AtomicUsize,
    max_states: usize,
    max_insts: u64,
}

impl<'m> Sched<'m> {
    /// Accounts for a newly created task. Must run before the task becomes
    /// visible in any deque (so `remaining` can never dip to zero while
    /// work is still being produced).
    fn register(&self, pot: usize, body: bool) {
        self.remaining.fetch_add(1, Ordering::SeqCst);
        let pr = &self.pots[pot];
        let live = pr.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
        pr.live_peak.fetch_max(live as u64, Ordering::Relaxed);
        if body {
            pr.created.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts for a consumed task; the consumer of the POT's last task
    /// finalizes the POT before releasing the global count.
    fn consume(&self, pot: usize) {
        if self.pots[pot].outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.finalize(pot);
        }
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }

    /// Builds and publishes the POT's result, mirroring what the old
    /// per-POT driver logged and counted.
    fn finalize(&self, pot: usize) {
        let pr = &self.pots[pot];
        let t0 = pr.t0.lock().take().unwrap_or_else(Instant::now);
        let duration = t0.elapsed();
        // An errored POT keeps the work it did: its record is the only
        // place that work is counted per POT.
        let mut stats = std::mem::take(&mut *pr.stats.lock());
        stats.live_peak = stats.live_peak.max(pr.live_peak.load(Ordering::Relaxed));
        let status = match pr.poisoned.lock().take() {
            Some(msg) => {
                tpot_obs::obs_error!("engine", "POT {}: {msg}", pr.name);
                PotStatus::Error(msg)
            }
            None => {
                let mut keyed = std::mem::take(&mut *pr.violations.lock());
                // Deepest-first path order with in-path sequence order —
                // the order the old depth-first loop emitted them in —
                // then the same consecutive dedup + cap.
                keyed.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                let mut violations: Vec<Violation> = keyed.into_iter().map(|(_, _, v)| v).collect();
                violations.dedup_by(|a, b| a.kind == b.kind && a.message == b.message);
                violations.truncate(16);
                if violations.is_empty() {
                    PotStatus::Proved
                } else {
                    PotStatus::Failed(violations)
                }
            }
        };
        let profile = std::mem::take(&mut *pr.profile.lock());
        let mut blame = crate::prov::merge_entries(std::mem::take(&mut *pr.blame.lock()));
        // The report is "top costly assumptions"; keep enough for any
        // plausible k but bound the result size.
        blame.truncate(32);
        let result = PotResult {
            pot: pr.name.clone(),
            status,
            stats,
            duration,
            profile,
            blame,
        };
        result.stats.publish_metrics();
        let outcome = match &result.status {
            PotStatus::Proved => "engine.pots_proved",
            PotStatus::Failed(_) => "engine.pots_failed",
            PotStatus::Error(_) => "engine.pots_errored",
        };
        tpot_obs::metrics::counter(outcome).inc();
        tpot_obs::obs_info!(
            "engine",
            "POT {}: {} in {:.2}s ({} queries)",
            pr.name,
            match &result.status {
                PotStatus::Proved => "proved".to_string(),
                PotStatus::Failed(vs) => format!("{} violation(s)", vs.len()),
                PotStatus::Error(e) => format!("error: {e}"),
            },
            result.duration.as_secs_f64(),
            result.stats.num_queries
        );
        *pr.result.lock() = Some(result);
        // Rewrite any configured trace/metric sink after every finished
        // POT, so partial traces survive a hung later POT.
        let _ = tpot_obs::flush();
    }

    fn worker(&self, v: &Verifier, w: usize, mut rng: StealRng) {
        loop {
            let task = self.deques[w].lock().pop_back();
            match task {
                Some(t) => self.episode(v, w, t),
                None => {
                    if self.try_steal(w, &mut rng) {
                        continue;
                    }
                    if self.remaining.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    let _idle = tpot_obs::span("sched", "idle");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        }
    }

    /// Runs one episode: drives the popped task depth-first to a terminal
    /// state (continuing with the *last* fork child, parking the others —
    /// the old recursion order), or performs its end-of-POT checks.
    fn episode(&self, v: &Verifier, w: usize, task: PathTask<'m>) {
        let pot = task.pot;
        let pr = &self.pots[pot];
        if pr.poisoned.lock().is_some() {
            self.consume(pot);
            return;
        }
        {
            let mut t0 = pr.t0.lock();
            if t0.is_none() {
                *t0 = Some(Instant::now());
            }
        }
        tpot_obs::metrics::histogram("sched.queue_depth")
            .observe(self.deques[w].lock().len() as u64);
        let shard = task.shard.clone();
        let _sp = tpot_obs::span_args(
            "engine",
            "episode",
            &[
                ("pot", pr.name.clone()),
                ("pid", task.pid.to_string()),
                (
                    "phase",
                    match task.phase {
                        TaskPhase::Body => "body".to_string(),
                        TaskPhase::EndCheck => "end_check".to_string(),
                    },
                ),
            ],
        );
        let mut episode_paths: u64 = 0;
        let mut err: Option<String> = None;
        // Per-path attribution state: everything the shard's counters
        // accumulate between two drains belongs to `pid_hint`, the path
        // that was current when the work happened. Drains occur at forks
        // (attributed to the pre-fork path), terminals, and episode end,
        // so samples are *exclusive* — a parent's sample excludes its
        // children's work.
        let mut episode_stats = Stats::default();
        let mut profile = PathProfile::default();
        let mut pid_hint = task.pid.clone();
        match task.phase {
            TaskPhase::EndCheck => {
                let pid = task.pid.clone();
                let r = {
                    let mut ctx = shard.lock();
                    v.end_checks(&mut ctx, task.state)
                };
                match r {
                    Ok(vs) => {
                        let mut g = pr.violations.lock();
                        for (i, viol) in vs.into_iter().enumerate() {
                            g.push((pid.clone(), i as u32 + 1, viol));
                        }
                    }
                    Err(e) => err = Some(e.to_string()),
                }
            }
            TaskPhase::Body => {
                let mut cur = task;
                loop {
                    if cur.pid != pid_hint {
                        pid_hint = cur.pid.clone();
                    }
                    if let Some(done) = cur.state.done.clone() {
                        episode_paths += 1;
                        pr.done_paths.fetch_add(1, Ordering::Relaxed);
                        if tpot_obs::tracing_enabled() {
                            let outcome = match &done {
                                PathOutcome::Completed => "completed",
                                PathOutcome::Error(_) => "error",
                                PathOutcome::LoopCut => "loop_cut",
                                PathOutcome::Infeasible => "infeasible",
                            };
                            tpot_obs::instant(
                                "engine",
                                "path_done",
                                &[
                                    ("outcome", outcome.to_string()),
                                    ("pid", cur.pid.to_string()),
                                    ("pc_depth", cur.state.path.len().to_string()),
                                ],
                            );
                        }
                        match done {
                            PathOutcome::Error(viol) => {
                                pr.violations.lock().push((cur.pid.clone(), 0, viol));
                            }
                            PathOutcome::Completed => {
                                // The completed body path becomes a
                                // stealable end-check task of its own.
                                self.register(pot, false);
                                self.deques[w].lock().push_back(PathTask {
                                    phase: TaskPhase::EndCheck,
                                    ..cur
                                });
                            }
                            PathOutcome::LoopCut | PathOutcome::Infeasible => {}
                        }
                        // Terminal: the work since the last boundary is
                        // this path's exclusive effort.
                        drain_shard(&shard, &pid_hint, &mut episode_stats, &mut profile);
                        break;
                    }
                    match cur.step() {
                        Ok(mut children) => {
                            let Some(last) = children.pop() else {
                                err = Some("step returned no successor".into());
                                break;
                            };
                            if !children.is_empty() {
                                // Fork: everything since the last drain —
                                // including this step's feasibility checks
                                // — belongs to the pre-fork path.
                                drain_shard(&shard, &pid_hint, &mut episode_stats, &mut profile);
                                let mut dq = self.deques[w].lock();
                                for c in children {
                                    self.register(pot, true);
                                    dq.push_back(c);
                                }
                                drop(dq);
                                if pr.created.load(Ordering::Relaxed)
                                    + pr.done_paths.load(Ordering::Relaxed)
                                    > self.max_states as u64
                                {
                                    err = Some("state explosion limit hit".into());
                                    break;
                                }
                            }
                            cur = last;
                        }
                        Err(e) => {
                            err = Some(e.to_string());
                            break;
                        }
                    }
                }
            }
        }
        // Catch-all boundary: end-check work, error paths, and anything
        // since the last drain land on the last current path.
        drain_shard(&shard, &pid_hint, &mut episode_stats, &mut profile);
        // Fold this episode's engine/solver stats into the POT record and
        // apply the POT-level instruction budget (the cumulative total is
        // schedule-independent, unlike any single shard's counter).
        {
            let mut g = pr.stats.lock();
            g.merge(&episode_stats);
            g.paths += episode_paths;
            if err.is_none() && g.insts > self.max_insts {
                err = Some(
                    "instruction budget exhausted (unbounded loop without __tpot_inv?)".into(),
                );
            }
        }
        if !profile.is_empty() {
            pr.profile.lock().merge(&profile);
        }
        let blame = shard.lock().solver.take_blame();
        if !blame.is_empty() {
            pr.blame.lock().push(blame);
        }
        if let Some(e) = err {
            pr.poison(e);
        }
        self.consume(pot);
    }

    /// Attempts one steal: picks victims with the seeded generator, takes
    /// the front half of the first non-empty victim deque, rebinds the
    /// stolen tasks to split shards (one clone per distinct shard), and
    /// parks them locally. Returns whether anything was stolen.
    fn try_steal(&self, w: usize, rng: &mut StealRng) -> bool {
        let n = self.deques.len();
        if n <= 1 {
            return false;
        }
        for _ in 0..2 * n {
            let mut victim = rng.pick(n - 1);
            if victim >= w {
                victim += 1;
            }
            let (stolen, depth) = {
                let mut vd = self.deques[victim].lock();
                let len = vd.len();
                if len == 0 {
                    continue;
                }
                let take = len.div_ceil(2);
                (vd.drain(..take).collect::<Vec<_>>(), len)
            };
            let _sp = tpot_obs::span_args(
                "sched",
                "steal",
                &[
                    ("victim", victim.to_string()),
                    ("stolen", stolen.len().to_string()),
                ],
            );
            tpot_obs::metrics::counter("sched.steals").inc();
            tpot_obs::metrics::histogram("sched.queue_depth").observe(depth as u64);
            // Rebind each stolen task to a clone of its shard; tasks that
            // share a lineage share the one clone.
            let mut splits: Vec<(Shard<'m>, Shard<'m>)> = Vec::new();
            let mut moved = 0u64;
            let mut mine: Vec<PathTask<'m>> = Vec::new();
            for mut t in stolen {
                if self.pots[t.pot].poisoned.lock().is_some() {
                    self.consume(t.pot);
                    continue;
                }
                let clone = match splits.iter().find(|(orig, _)| orig.same(&t.shard)) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let c = t.shard.split();
                        splits.push((t.shard.clone(), c.clone()));
                        c
                    }
                };
                t.shard = clone;
                moved += 1;
                mine.push(t);
            }
            tpot_obs::metrics::counter("sched.migrations").add(moved);
            tpot_obs::metrics::counter("sched.shard_splits").add(splits.len() as u64);
            if mine.is_empty() {
                continue;
            }
            let mut dq = self.deques[w].lock();
            for t in mine {
                dq.push_back(t);
            }
            return true;
        }
        false
    }
}

/// Drains the shard's counters (engine stats + solver deltas): the
/// delta is attributed to `pid` in the episode profile and merged into the
/// episode's stats total. Cheap when nothing happened since the last
/// drain — the delta is zero and the profile drops it.
fn drain_shard<'m>(shard: &Shard<'m>, pid: &PathId, total: &mut Stats, profile: &mut PathProfile) {
    let delta = shard.lock().solver.take_stats();
    profile.record(pid, PathSample::from_stats(&delta));
    total.merge(&delta);
}

/// Builds the root task for one POT: a fresh execution shard with the
/// fully symbolic initial state, the POT call frame, and (for
/// non-initializer POTs) the queued invariant assumptions (paper §3.1).
fn make_root<'m>(
    v: &'m Verifier,
    config: &EngineConfig,
    pot: &str,
    cache: tpot_portfolio::SharedCache,
    ix: usize,
) -> Result<PathTask<'m>, EngineError> {
    let mut ctx = ExecCtx::with_shared_cache(&v.module, config.clone(), cache);
    let is_init = pot.contains(&ctx.config.init_marker);
    let mem = ctx.initial_memory(is_init)?;
    let mut state = State::new(mem);
    ctx.drain_mem_constraints(&mut state);
    ctx.push_call(&mut state, pot, &[], None, RetCont::Normal)?;
    if !is_init {
        for inv in v.module.invariant_names() {
            state.frame_mut().pending.push_back(Pending::CallBool {
                func: inv,
                args: vec![],
                cont: RetCont::AssumeTrue,
            });
        }
    }
    Ok(PathTask {
        pot: ix,
        pid: PathId::root(),
        state,
        shard: Shard::new(ctx),
        phase: TaskPhase::Body,
    })
}

/// Verifies `pots` on `jobs` workers sharing one task pool: the engine of
/// [`Verifier::verify`]. Results come back in POT order with the same
/// statuses, violations, and path counts a sequential run would produce.
pub(crate) fn run_verify(
    v: &Verifier,
    config: &EngineConfig,
    pots: &[String],
    cache: tpot_portfolio::SharedCache,
    jobs: usize,
    seed: u64,
) -> Vec<PotResult> {
    let jobs = jobs.max(1);
    let sched = Sched {
        deques: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        pots: pots.iter().map(|p| PotRun::new(p.clone())).collect(),
        remaining: AtomicUsize::new(0),
        max_states: config.max_states,
        max_insts: config.max_insts,
    };
    let mut roots = Vec::new();
    for (i, pot) in pots.iter().enumerate() {
        let t0 = Instant::now();
        match make_root(v, config, pot, cache.clone(), i) {
            Ok(task) => roots.push(task),
            Err(e) => {
                // The POT never produces a task; publish its error result
                // through the same finalization path.
                *sched.pots[i].t0.lock() = Some(t0);
                sched.pots[i].poison(e.to_string());
                sched.finalize(i);
            }
        }
    }
    {
        // Seed worker 0 with every root, reversed: LIFO pop then processes
        // POT 0 first, and with one worker the whole run degenerates to
        // the old sequential order.
        let mut d0 = sched.deques[0].lock();
        for t in roots.into_iter().rev() {
            sched.register(t.pot, true);
            d0.push_back(t);
        }
    }
    std::thread::scope(|scope| {
        let sched = &sched;
        for w in 1..jobs {
            let rng = StealRng::new(seed, w);
            scope.spawn(move || sched.worker(v, w, rng));
        }
        // Worker 0 runs on the calling thread, so jobs=1 spawns nothing.
        sched.worker(v, 0, StealRng::new(seed, 0));
    });
    sched
        .pots
        .into_iter()
        .map(|pr| pr.result.into_inner().expect("every POT must be finalized"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the victim-selection + steal-half protocol over a synthetic
    /// deque population and records the schedule.
    fn replay(seed: u64, workers: usize, rounds: usize) -> Vec<(usize, Vec<u32>)> {
        let mut deques: Vec<VecDeque<u32>> = (0..workers)
            .map(|w| {
                (0..(w as u32 + 1) * 3)
                    .map(|i| w as u32 * 100 + i)
                    .collect()
            })
            .collect();
        let mut rng = StealRng::new(seed, 0);
        let thief = 0usize;
        let mut schedule = Vec::new();
        for _ in 0..rounds {
            let mut victim = rng.pick(workers - 1);
            if victim >= thief {
                victim += 1;
            }
            let len = deques[victim].len();
            if len == 0 {
                schedule.push((victim, Vec::new()));
                continue;
            }
            let take = len.div_ceil(2);
            let stolen: Vec<u32> = deques[victim].drain(..take).collect();
            schedule.push((victim, stolen.clone()));
            deques[thief].extend(stolen);
        }
        schedule
    }

    #[test]
    fn seeded_steals_replay_identically() {
        let a = replay(0xDEAD_BEEF, 4, 12);
        let b = replay(0xDEAD_BEEF, 4, 12);
        assert_eq!(a, b, "same seed must replay a byte-identical schedule");
        let c = replay(0xDEAD_BEF0, 4, 12);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn steal_takes_ceil_half_from_the_front() {
        let mut dq: VecDeque<u32> = (0..5).collect();
        let take = dq.len().div_ceil(2);
        let stolen: Vec<u32> = dq.drain(..take).collect();
        assert_eq!(stolen, vec![0, 1, 2], "front half, rounded up");
        assert_eq!(dq.into_iter().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn worker_rngs_differ_but_are_stable() {
        let mut a0 = StealRng::new(7, 0);
        let mut a0b = StealRng::new(7, 0);
        let mut a1 = StealRng::new(7, 1);
        let s0: Vec<usize> = (0..8).map(|_| a0.pick(13)).collect();
        let s0b: Vec<usize> = (0..8).map(|_| a0b.pick(13)).collect();
        let s1: Vec<usize> = (0..8).map(|_| a1.pick(13)).collect();
        assert_eq!(s0, s0b);
        assert_ne!(s0, s1, "workers must not mirror each other's choices");
    }
}
