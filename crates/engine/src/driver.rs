//! The verification driver: runs each POT through the interpreter and
//! performs the end-of-POT obligations (invariant re-establishment, pledge
//! verification, leak detection), producing paper-style results and
//! counterexamples (§3.2).

use std::collections::HashSet;
use std::time::Duration;

use parking_lot::Mutex;
use tpot_ir::Module;
use tpot_smt::TermId;

use crate::interp::{AddrMode, EngineConfig, Interp};
use crate::prov::ProvKind;
use crate::query::EngineError;
use crate::state::{NamingMode, PathOutcome, Pledge, RetCont, State};
use crate::stats::{QueryPurpose, Stats};

/// Kinds of violations TPot reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// A POT assertion failed.
    AssertFailed,
    /// Out-of-bounds or unmapped memory access.
    OutOfBounds,
    /// Access to freed memory or a dead stack slot.
    UseAfterFree,
    /// Division (or remainder) by zero.
    DivisionByZero,
    /// `free` of a non-heap or interior pointer, or double free.
    InvalidFree,
    /// A global invariant failed to re-establish after the POT.
    InvariantViolated,
    /// A loop invariant failed (entry, preservation, or frame).
    LoopInvariantViolated,
    /// A heap object was left unnamed by the invariants — a memory leak
    /// (paper §4.1: theorem clause (C)).
    MemoryLeak,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::AssertFailed => "assertion failure",
            ViolationKind::OutOfBounds => "out-of-bounds access",
            ViolationKind::UseAfterFree => "use after free",
            ViolationKind::DivisionByZero => "division by zero",
            ViolationKind::InvalidFree => "invalid free",
            ViolationKind::InvariantViolated => "global invariant violated",
            ViolationKind::LoopInvariantViolated => "loop invariant violated",
            ViolationKind::MemoryLeak => "memory leak",
        };
        write!(f, "{s}")
    }
}

/// A reported violation with its counterexample (paper §3.2: an initial
/// state, a code path, and the violation).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Violation category.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub message: String,
    /// Counterexample: assignment of values to variables (initial symbolic
    /// state), if a model was available.
    pub model: Option<String>,
    /// The code path: entered blocks in execution order.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        if let Some(m) = &self.model {
            write!(f, "\n  counterexample: {m}")?;
        }
        if !self.trace.is_empty() {
            let tail: Vec<&str> = self
                .trace
                .iter()
                .rev()
                .take(8)
                .map(String::as_str)
                .collect();
            write!(f, "\n  path (last steps): {}", tail.join(" ← "))?;
        }
        Ok(())
    }
}

/// Outcome of verifying one POT.
#[derive(Clone, Debug)]
pub enum PotStatus {
    /// All obligations proved.
    Proved,
    /// One or more violations found.
    Failed(Vec<Violation>),
    /// The engine could not finish (unsupported construct, resource limit).
    Error(String),
}

impl PotStatus {
    /// True if proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, PotStatus::Proved)
    }
}

/// Result of verifying one POT.
#[derive(Clone, Debug)]
pub struct PotResult {
    /// POT name.
    pub pot: String,
    /// Outcome.
    pub status: PotStatus,
    /// Engine statistics (Fig. 7 buckets etc.).
    pub stats: Stats,
    /// Wall-clock duration.
    pub duration: Duration,
    /// Per-path exclusive-effort profile (fork tree weighted by solver
    /// time; renders as collapsed-stack lines for flamegraphs,
    /// `TPOT_PROFILE`).
    pub profile: crate::profile::PathProfile,
    /// Costliest assumptions, most-costly first (empty unless
    /// `TPOT_BLAME`). See [`crate::prov`].
    pub blame: Vec<crate::prov::BlameEntry>,
}

/// Options for a [`Verifier::verify`] run.
///
/// The single verification entry point: every run axis (POT subset,
/// parallelism, steal seed, cache location, address encoding) is a field
/// here, with `Default` reproducing the CI-style "all POTs, auto
/// parallelism, config as constructed" run.
///
/// `#[non_exhaustive]` so new run axes can be added without breaking
/// downstream callers (the daemon and benches construct this through the
/// builder methods, never a struct literal).
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct VerifyOptions {
    /// Verify only these POTs, in this order. `None` verifies every POT in
    /// module order.
    pub pots: Option<Vec<String>>,
    /// Path-scheduler workers: `0` resolves from the `TPOT_PATH_JOBS`
    /// environment variable (then the core count); `1` is the
    /// deterministic sequential baseline.
    pub jobs: usize,
    /// Victim-selection seed for the work-stealing scheduler. `None`
    /// resolves from `TPOT_STEAL_SEED`, falling back to
    /// [`crate::sched::DEFAULT_STEAL_SEED`]. A fixed `(seed, jobs)` pair
    /// replays the same steal schedule.
    pub steal_seed: Option<u64>,
    /// Overrides the configured persistent query-cache path for this run.
    pub cache_path: Option<std::path::PathBuf>,
    /// Overrides the configured pointer encoding for this run.
    pub addr_mode: Option<AddrMode>,
}

impl VerifyOptions {
    /// All POTs, auto parallelism, no overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts the run to the given POTs (in the given order).
    pub fn pots<I, S>(mut self, pots: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pots = Some(pots.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the worker-thread count (`0` = auto, `1` = sequential).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the work-stealing victim-selection seed.
    pub fn steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = Some(seed);
        self
    }

    /// Overrides the persistent query-cache path.
    pub fn cache_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Overrides the pointer encoding.
    pub fn addr_mode(mut self, mode: AddrMode) -> Self {
        self.addr_mode = Some(mode);
        self
    }
}

/// The top-level verifier (paper Fig. 3: the TPot box).
pub struct Verifier {
    /// The lowered component (implementation + specification).
    pub module: Module,
    /// Engine configuration.
    pub config: EngineConfig,
}

impl Verifier {
    /// Creates a verifier with the default configuration.
    pub fn new(module: Module) -> Self {
        Verifier {
            module,
            config: EngineConfig::default(),
        }
    }

    /// Creates a verifier with a custom configuration.
    pub fn with_config(module: Module, config: EngineConfig) -> Self {
        Verifier { module, config }
    }

    /// The single verification entry point: schedules the paths of every
    /// selected POT onto one shared work-stealing pool of `jobs` workers
    /// (see [`crate::sched`]), all sharing one persistent query cache,
    /// applying any per-run config overrides from `opts`.
    ///
    /// Results come back in POT order regardless of `opts.jobs`, with the
    /// same statuses, violations, and path counts a sequential run would
    /// produce — only wall-clock and cache-hit accounting differ. With
    /// `jobs: 1` the run is the deterministic sequential baseline.
    pub fn verify(&self, opts: &VerifyOptions) -> Vec<PotResult> {
        let config = self.effective_config(opts);
        let cache = Self::open_cache(&config);
        let results = self.verify_with_cache(opts, cache.clone());
        // Flush once at the end instead of per-POT (engine drops only
        // release their handle on the shared cache).
        let _ = cache.lock().flush();
        results
    }

    /// The engine configuration a run with `opts` would actually use: the
    /// verifier's own config with the per-run overrides applied. The daemon
    /// uses this to compute cache-key digests without starting a run.
    pub fn effective_config(&self, opts: &VerifyOptions) -> EngineConfig {
        let mut config = self.config.clone();
        if let Some(p) = &opts.cache_path {
            config.cache_path = Some(p.clone());
        }
        if let Some(m) = opts.addr_mode {
            config.addr_mode = m;
        }
        config
    }

    /// [`Verifier::verify`] against a caller-owned cache handle. The daemon
    /// threads one persistent [`tpot_portfolio::ProofCache`] through every
    /// request it serves (and decides itself when to flush); `verify` is
    /// this plus open-on-entry/flush-on-exit.
    pub fn verify_with_cache(
        &self,
        opts: &VerifyOptions,
        cache: tpot_portfolio::SharedCache,
    ) -> Vec<PotResult> {
        let config = self.effective_config(opts);
        let pots: Vec<String> = match &opts.pots {
            Some(p) => p.clone(),
            None => self.module.pot_names(),
        };
        let jobs = if opts.jobs > 0 {
            opts.jobs
        } else {
            // `TPOT_PATH_JOBS` sizes the path scheduler; it is parsed once
            // into the typed obs config.
            tpot_obs::config().path_jobs.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
        };
        let seed = opts
            .steal_seed
            .or_else(|| tpot_obs::config().steal_seed)
            .unwrap_or(crate::sched::DEFAULT_STEAL_SEED);
        let results = crate::sched::run_verify(self, &config, &pots, cache, jobs, seed);
        if let Some(p) = &tpot_obs::config().profile_path {
            // One collapsed-stack file across every verified POT: each
            // line is `pot;ε;<fork indices> <exclusive solver µs>`, ready
            // for flamegraph.pl / speedscope.
            let mut out = String::new();
            for r in &results {
                out.push_str(&r.profile.collapsed_stack(&r.pot));
            }
            if let Err(e) = tpot_obs::write_atomic(p, &out) {
                tpot_obs::obs_warn!("engine", "TPOT_PROFILE write failed: {e}");
            }
        }
        results
    }

    /// Opens the persistent cache configured in `config` behind a shareable
    /// handle. Resolution order: the explicit `cache_path`, then
    /// `TPOT_CACHE_DIR/proofs.cache` (the daemon's default layout), then an
    /// in-memory cache.
    pub fn open_cache(config: &EngineConfig) -> tpot_portfolio::SharedCache {
        let path = config.cache_path.clone().or_else(|| {
            tpot_obs::config()
                .cache_dir
                .as_ref()
                .map(|d| d.join("proofs.cache"))
        });
        let cache = match path {
            Some(p) => tpot_portfolio::ProofCache::open(p)
                .unwrap_or_else(|_| tpot_portfolio::ProofCache::in_memory()),
            None => tpot_portfolio::ProofCache::in_memory(),
        };
        std::sync::Arc::new(Mutex::new(cache))
    }

    /// Verifies one POT, proving the §4.1 top-level theorem for it — the
    /// sequential single-POT special case of [`Verifier::verify`].
    pub fn verify_pot(&self, pot: &str) -> PotResult {
        self.verify(&VerifyOptions::new().pots([pot]).jobs(1))
            .pop()
            .expect("one POT requested, one result returned")
    }

    /// End-of-POT obligations: every invariant must hold over the final
    /// state (building the greedy renaming), every pledge must re-verify,
    /// and every live heap object must be named (leak check, theorem
    /// clause (C)). Called by the scheduler with the path's shard locked.
    pub(crate) fn end_checks(
        &self,
        interp: &mut Interp<'_>,
        mut st: State,
    ) -> Result<Vec<Violation>, EngineError> {
        st.naming_mode = NamingMode::Check;
        st.check_bindings.clear();
        st.done = None;
        let mut states = vec![st];
        for inv in self.module.invariant_names() {
            let mut next = Vec::new();
            for mut s in states {
                s.done = None;
                interp.push_call(
                    &mut s,
                    &inv,
                    &[],
                    None,
                    RetCont::CheckTrue(format!("invariant {inv} not re-established")),
                )?;
                next.extend(interp.run(s)?);
            }
            states = Vec::new();
            let mut violations = Vec::new();
            for s in next {
                match s.done.clone() {
                    Some(PathOutcome::Error(v)) => violations.push(v),
                    Some(PathOutcome::Completed) => states.push(s),
                    _ => {}
                }
            }
            if !violations.is_empty() {
                return Ok(violations);
            }
        }
        // Pledge verification + leak check per surviving path.
        let mut violations = Vec::new();
        for mut s in states {
            violations.extend(self.check_pledges_and_leaks(interp, &mut s)?);
        }
        Ok(violations)
    }

    /// Re-verifies quantified naming (pledges) over the final state and
    /// checks for leaks.
    fn check_pledges_and_leaks(
        &self,
        interp: &mut Interp<'_>,
        s: &mut State,
    ) -> Result<Vec<Violation>, EngineError> {
        let mut violations = Vec::new();
        let bound: HashSet<_> = s.check_bindings.values().copied().collect();
        let live_heap: Vec<_> = s
            .mem
            .objects
            .iter()
            .filter(|o| o.live() && o.is_heap())
            .map(|o| o.id)
            .collect();
        let pledges: Vec<Pledge> = s.pledges.clone();
        'objs: for oid in live_heap {
            if bound.contains(&oid) {
                continue;
            }
            // Try to bind the object through some pledge: ∃i. f(i) = base.
            for p in &pledges {
                let Ok((_, f)) = interp
                    .module
                    .func_index
                    .get(&p.func)
                    .map(|&i| (i, &interp.module.funcs[i]))
                    .ok_or(())
                else {
                    continue;
                };
                if f.n_params != 1 {
                    continue;
                }
                if s.mem.obj(oid).size_concrete != Some(p.obj_size) {
                    continue;
                }
                let pw = f.locals[0].ty.decayed().bit_width();
                let k = interp
                    .arena
                    .fresh_var(&format!("bindidx!{}", p.func), tpot_smt::Sort::BitVec(pw));
                let subs = interp.eval_fn_paths(s, &p.func, &[k])?;
                for sub in subs {
                    let Some(ret) = sub.last_ret else { continue };
                    let delta: Vec<TermId> = sub.path.tail_from(s.path.len());
                    let zero = interp.arena.bv64(0);
                    let nn = interp.arena.neq(ret, zero);
                    let ridx = s.mem.addr_index(&mut interp.arena, ret);
                    let base = s.mem.obj(oid).base_idx;
                    let eq = interp.arena.eq(ridx, base);
                    let mut conj = delta;
                    conj.push(nn);
                    conj.push(eq);
                    let cond = interp.arena.and(&conj);
                    interp.drain_mem_constraints(s);
                    if interp.solver.is_feasible(
                        &mut interp.arena,
                        &s.path,
                        cond,
                        QueryPurpose::Pointers,
                    )? {
                        // Existential witness: adopt it (renaming is
                        // existentially quantified, §4.1).
                        interp.tag_assume(s, cond, ProvKind::Invariant);
                        s.assume(cond);
                        // Per-object condition must hold.
                        if let Some(cf) = p.cond.clone() {
                            let mut c2 = interp.fork(s);
                            c2.done = None;
                            interp.push_call(
                                &mut c2,
                                &cf,
                                &[ret],
                                None,
                                RetCont::CheckTrue(format!(
                                    "names_obj_forall_cond condition {cf} violated"
                                )),
                            )?;
                            let outs = interp.run(c2)?;
                            for o in outs {
                                if let Some(PathOutcome::Error(v)) = o.done {
                                    violations.push(v);
                                }
                            }
                        }
                        continue 'objs;
                    }
                }
            }
            // Unnamed and unpledged: a leak (theorem clause (C)).
            let tag = s
                .mem
                .obj(oid)
                .name
                .clone()
                .unwrap_or_else(|| format!("object #{}", oid.0));
            let t = interp.arena.tru();
            let v = Violation {
                kind: ViolationKind::MemoryLeak,
                message: format!("heap object {tag} is not named by any invariant after the POT"),
                model: None,
                trace: s.trace.to_vec(),
            };
            let _ = t;
            violations.push(v);
        }
        Ok(violations)
    }
}
