//! The symbolic interpreter: TIR execution with TPot's memory model,
//! pointer resolution, specification primitives, and loop invariants.
//!
//! The interpreter is one context, [`ExecCtx`], split across focused
//! modules:
//!
//! - this module — configuration, the context itself, the run loop, call
//!   frames, and the explicit [`ExecCtx::fork`] API with cost accounting;
//! - [`exec`](self) (`exec.rs`) — operand evaluation, arithmetic,
//!   terminators, integer-translation of conditions (§4.3), and error
//!   reporting;
//! - `resolve.rs` — address resolution with forking, lazy materialization
//!   from pledges (§4.2), and nested spec-function evaluation;
//! - `prims.rs` — the specification builtins (`assert`/`assume`/`any`,
//!   `malloc`/`free`, `__tpot_inv` loop invariants, appendix A.2);
//! - `naming.rs` — the naming primitives (`points_to`, quantified naming,
//!   `forall_elem` markers and their instantiation, §4.1/§4.3).
//!
//! States are forked through [`ExecCtx::fork`], never via ad-hoc clones:
//! forking is O(frames) thanks to the persistent containers in `State`
//! (see `crate::state`), and every fork is accounted in
//! [`Stats`](crate::stats::Stats) (count, bytes shared vs copied).

mod exec;
mod naming;
mod prims;
mod resolve;

use std::collections::VecDeque;

use tpot_ir::{IrFunc, Module};
pub use tpot_mem::AddrMode;
use tpot_mem::Memory;
use tpot_portfolio::{Portfolio, ProofCache};
use tpot_smt::{TermArena, TermId};

use crate::query::{EngineError, QueryCtx};
use crate::state::{Frame, NamingMode, PathOutcome, Pending, RetCont, State};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Pointer encoding: the paper's integer encoding or the naive
    /// bitvector ablation.
    pub addr_mode: AddrMode,
    /// Enable the solver-aided query simplifier (§4.3). Disabling it is an
    /// ablation.
    pub simplifier: bool,
    /// Number of portfolio instances (1 = single solver).
    pub portfolio_size: usize,
    /// Keep incremental [`tpot_solver::SolveSession`]s between queries
    /// (push/pop along the path prefix, bit-blast reuse). Disabling it is
    /// the one-shot ablation: each query runs in a fresh session that is
    /// dropped afterwards. Racing portfolios never use sessions.
    pub incremental: bool,
    /// Optional persistent query-cache path (§4.4).
    pub cache_path: Option<std::path::PathBuf>,
    /// Safety valve: maximum number of live forked states.
    pub max_states: usize,
    /// Safety valve: maximum interpreted instructions per POT.
    pub max_insts: u64,
    /// Maximum bytes a loop invariant may havoc per region.
    pub max_havoc_bytes: u64,
    /// Treat POTs whose name contains this marker as *initializer* POTs:
    /// they run from the concrete initial global state and do not assume
    /// invariants up front (paper §3.1: the initializer must *establish*
    /// the invariant).
    pub init_marker: String,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            addr_mode: AddrMode::Int,
            simplifier: true,
            portfolio_size: 1,
            // On by default; `TPOT_INCREMENTAL=0` (via the typed obs
            // config) is the environment-level ablation switch.
            incremental: tpot_obs::config().incremental.unwrap_or(true),
            cache_path: None,
            max_states: 4096,
            max_insts: 2_000_000,
            max_havoc_bytes: 1 << 16,
            init_marker: "init".into(),
        }
    }
}

/// The engine's half of the persistent-cache key digest: the knobs the
/// portfolio layer cannot see but which change what queries mean or which
/// path through the solver produced an outcome. Mixed into the portfolio's
/// own config digest via [`Portfolio::with_config_salt`]; the paired
/// [`outcome_digest`] covers the per-POT outcome table.
pub fn solver_cache_digest(config: &EngineConfig) -> u64 {
    use tpot_portfolio::{fnv1a, mix};
    let mut h = fnv1a(b"tpot-engine-config/v1");
    h = mix(
        h,
        match config.addr_mode {
            AddrMode::Int => 1,
            AddrMode::Bv => 2,
        },
    );
    h = mix(h, config.incremental as u64);
    h = mix(h, config.portfolio_size as u64);
    h = mix(h, config.simplifier as u64);
    h
}

/// Digest keying the *POT-outcome* table: everything in
/// [`solver_cache_digest`] plus the portfolio's instance digests and the
/// resource budgets — a POT proved under a smaller instruction or state
/// budget is not the same claim as one proved under a larger one.
pub fn outcome_digest(config: &EngineConfig) -> u64 {
    use tpot_portfolio::{fnv1a, mix, portfolio_config_digest};
    let configs = if config.portfolio_size <= 1 {
        vec![tpot_solver::SolverConfig::default()]
    } else {
        tpot_solver::SolverConfig::portfolio(config.portfolio_size)
    };
    let mut h = fnv1a(b"tpot-outcome-config/v1");
    h = mix(h, solver_cache_digest(config));
    h = mix(h, portfolio_config_digest(&configs));
    h = mix(h, config.max_states as u64);
    h = mix(h, config.max_insts);
    h = mix(h, config.max_havoc_bytes);
    h = mix(h, fnv1a(config.init_marker.as_bytes()));
    h
}

/// The execution context: owns the term arena and the solver for one POT
/// run, and drives states through the program.
pub struct ExecCtx<'m> {
    /// The program under verification.
    pub module: &'m Module,
    /// Term arena.
    pub arena: TermArena,
    /// Solver context.
    pub solver: QueryCtx,
    /// Configuration.
    pub config: EngineConfig,
    insts_executed: u64,
}

/// The historical name of [`ExecCtx`].
pub type Interp<'m> = ExecCtx<'m>;

impl<'m> ExecCtx<'m> {
    /// Creates an interpreter with a fresh arena and portfolio.
    pub fn new(module: &'m Module, config: EngineConfig) -> Self {
        // Always cache query outcomes within a run: identical feasibility
        // and validity queries recur across forked sibling paths and
        // end-of-POT checks. With a cache_path the cache additionally
        // persists across CI runs (§4.4).
        let cache = match &config.cache_path {
            Some(p) => ProofCache::open(p).unwrap_or_else(|_| ProofCache::in_memory()),
            None => ProofCache::in_memory(),
        };
        let cache = std::sync::Arc::new(parking_lot::Mutex::new(cache));
        Self::with_shared_cache(module, config, cache)
    }

    /// Creates an interpreter whose portfolio shares a query cache with
    /// other interpreters — the parallel multi-POT driver hands every POT
    /// worker the same handle so POTs benefit from each other's hits.
    pub fn with_shared_cache(
        module: &'m Module,
        config: EngineConfig,
        cache: tpot_portfolio::SharedCache,
    ) -> Self {
        let portfolio = if config.portfolio_size <= 1 {
            Portfolio::single()
        } else {
            Portfolio::with_instances(config.portfolio_size)
        };
        // Salt the cache key with the engine-level knobs: an outcome
        // recorded under one addr-mode/session/portfolio configuration
        // must never answer a query issued under another.
        let portfolio = portfolio
            .keep_sessions(config.incremental)
            .with_config_salt(solver_cache_digest(&config))
            .with_shared_cache(cache);
        ExecCtx {
            module,
            arena: TermArena::new(),
            solver: QueryCtx::new(portfolio),
            config,
            insts_executed: 0,
        }
    }

    /// Clones this context for a stolen execution shard (the path
    /// scheduler's steal protocol): same module, a full copy of the term
    /// arena — so every `TermId` held by states created in this context
    /// stays valid against the clone — and a solver context that keeps the
    /// shared persistent cache and deep-clones the live solve sessions
    /// (the longest-common-prefix handoff). Because the arena is
    /// append-only and hash-consed, the clone and the original diverge
    /// only in terms created *after* the split.
    pub fn clone_for_shard(&self) -> Self {
        ExecCtx {
            module: self.module,
            arena: self.arena.clone(),
            solver: self.solver.clone_for_shard(),
            config: self.config.clone(),
            insts_executed: self.insts_executed,
        }
    }

    /// Builds the initial memory with every module global allocated.
    /// `concrete_init = true` writes the C initial values (zero + explicit
    /// initializers); otherwise contents stay fully symbolic.
    pub fn initial_memory(&mut self, concrete_init: bool) -> Result<Memory, EngineError> {
        let mut mem = Memory::new(&mut self.arena, self.config.addr_mode);
        for g in &self.module.globals {
            let id = mem.alloc_global(&mut self.arena, &g.name, g.size.max(1));
            if concrete_init {
                if g.size > self.config.max_havoc_bytes {
                    return Err(EngineError::Unsupported(format!(
                        "global {} too large for concrete initialization",
                        g.name
                    )));
                }
                // Zero-fill, then apply explicit initializer writes.
                let base = mem.obj(id).base_idx;
                let zero = self.arena.bv_const(8, 0);
                for i in 0..g.size {
                    let ix = mem.idx_add(&mut self.arena, base, i);
                    let arr = mem.obj(id).array;
                    let st = self.arena.store(arr, ix, zero);
                    mem.obj_mut(id).array = st;
                }
                for &(off, width, value) in &g.init {
                    let ix = mem.idx_add(&mut self.arena, base, off);
                    let v = self.arena.bv_const(width, value as u128);
                    mem.write_bytes(&mut self.arena, id, ix, v, width / 8);
                }
            }
        }
        Ok(mem)
    }

    pub(super) fn func_by_name(&self, name: &str) -> Result<(usize, &'m IrFunc), EngineError> {
        match self.module.func_index.get(name) {
            Some(&i) => Ok((i, &self.module.funcs[i])),
            None => Err(EngineError::Unsupported(format!(
                "call to undefined function {name} (externs must be modeled in C)"
            ))),
        }
    }

    /// Forks an execution state. This is the engine's only forking
    /// primitive: semantically a deep copy, physically O(frames) pointer
    /// bumps (the state's persistent containers share structure until
    /// either side mutates). Every call is accounted in
    /// [`Stats`](crate::stats::Stats): the fork count plus estimates of
    /// the bytes shared versus copied.
    pub fn fork(&mut self, s: &State) -> State {
        let cost = s.fork_cost();
        self.solver.stats.forks += 1;
        self.solver.stats.fork_bytes_shared += cost.shared_bytes;
        self.solver.stats.fork_bytes_copied += cost.copied_bytes;
        if tpot_obs::tracing_enabled() {
            tpot_obs::instant(
                "engine",
                "fork",
                &[
                    ("pc_depth", s.path.len().to_string()),
                    ("frames", s.frames.len().to_string()),
                ],
            );
        }
        s.fork()
    }

    /// Pushes a call frame, allocating stack objects for every local and
    /// storing the arguments.
    pub fn push_call(
        &mut self,
        s: &mut State,
        fname: &str,
        args: &[TermId],
        ret_reg: Option<(u32, u32)>,
        on_return: RetCont,
    ) -> Result<(), EngineError> {
        let (fidx, f) = self.func_by_name(fname)?;
        if args.len() != f.n_params {
            return Err(EngineError::Internal(format!(
                "{fname}: expected {} args, got {}",
                f.n_params,
                args.len()
            )));
        }
        let mut local_objs = Vec::with_capacity(f.locals.len());
        for l in &f.locals {
            let o = s
                .mem
                .alloc_stack(&mut self.arena, fname, &l.name, l.size.max(1));
            local_objs.push(o);
        }
        for (i, &v) in args.iter().enumerate() {
            let o = local_objs[i];
            let idx = s.mem.obj(o).base_idx;
            let w = self.arena.sort(v).bv_width().unwrap_or(64);
            s.mem.write_bytes(&mut self.arena, o, idx, v, w / 8);
        }
        // Check/assume continuations select the naming semantics of the
        // primitives inside the callee (§4.1): assuming an invariant
        // creates names and markers; checking one verifies them.
        let prev_naming = match &on_return {
            RetCont::CheckTrue(_) => {
                let p = s.naming_mode;
                s.naming_mode = NamingMode::Check;
                Some(p)
            }
            RetCont::AssumeTrue => {
                let p = s.naming_mode;
                s.naming_mode = NamingMode::Assume;
                Some(p)
            }
            _ => None,
        };
        s.frames.push(Frame {
            func: fidx,
            block: 0,
            ip: 0,
            regs: vec![None; f.num_regs as usize],
            local_objs,
            ret_reg,
            on_return,
            pending: VecDeque::new(),
            loops: Default::default(),
            prev_naming,
        });
        s.trace_step(format!("call {fname}"));
        Ok(())
    }

    /// Runs a state (and its forks) to completion. Returns finished states.
    pub fn run(&mut self, init: State) -> Result<Vec<State>, EngineError> {
        let mut stack = vec![init];
        let mut finished = Vec::new();
        while let Some(s) = stack.pop() {
            self.solver.stats.live_peak = self.solver.stats.live_peak.max(stack.len() as u64 + 1);
            if let Some(done) = &s.done {
                self.solver.stats.paths += 1;
                if tpot_obs::tracing_enabled() {
                    let outcome = match done {
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
                            ("pc_depth", s.path.len().to_string()),
                        ],
                    );
                }
                finished.push(s);
                continue;
            }
            if stack.len() + finished.len() > self.config.max_states {
                return Err(EngineError::Internal("state explosion limit hit".into()));
            }
            let children = self.step(s)?;
            stack.extend(children);
        }
        Ok(finished)
    }

    /// Executes one instruction / pending action / terminator — the
    /// frontier step function: one paused path in, its successor paths out
    /// (one continuation, several on a fork, each possibly finished). The
    /// work-stealing scheduler drives paths through this directly; the
    /// [`run`](Self::run) loop above is the depth-first in-context driver
    /// built on the same function.
    pub fn step(&mut self, mut s: State) -> Result<Vec<State>, EngineError> {
        self.insts_executed += 1;
        self.solver.stats.insts += 1;
        if self.insts_executed > self.config.max_insts {
            return Err(EngineError::Internal(
                "instruction budget exhausted (unbounded loop without __tpot_inv?)".into(),
            ));
        }
        // Drain pending actions first.
        if let Some(p) = s.frame_mut().pending.pop_front() {
            return self.exec_pending(s, p);
        }
        let frame = s.frame();
        let f = &self.module.funcs[frame.func];
        let block = &f.blocks[frame.block];
        if frame.ip < block.insts.len() {
            let inst = block.insts[frame.ip].clone();
            s.frame_mut().ip += 1;
            self.exec_inst(s, inst)
        } else {
            let term = block.term.clone();
            self.exec_terminator(s, term)
        }
    }

    fn exec_pending(&mut self, mut s: State, p: Pending) -> Result<Vec<State>, EngineError> {
        match p {
            Pending::CallBool { func, args, cont } => {
                self.push_call(&mut s, &func, &args, None, cont)?;
                Ok(vec![s])
            }
            Pending::Havoc(regions) => {
                for (i, (obj, start, len)) in regions.iter().enumerate() {
                    if *len > self.config.max_havoc_bytes {
                        return Err(EngineError::Unsupported(
                            "loop-invariant havoc region too large".into(),
                        ));
                    }
                    let whole = s.mem.obj(*obj).size_concrete == Some(*len)
                        && *start == s.mem.obj(*obj).base_idx;
                    if whole {
                        s.mem
                            .havoc_object(&mut self.arena, *obj, &format!("loop{i}"));
                    } else {
                        s.mem
                            .havoc_range(&mut self.arena, *obj, *start, *len, &format!("loop{i}"));
                    }
                    if s.log_writes {
                        s.writes_log.push((*obj, *start, *len));
                    }
                }
                Ok(vec![s])
            }
            Pending::StartWriteLog => {
                s.log_writes = true;
                Ok(vec![s])
            }
            Pending::EndPathLoopCut => {
                s.finish(PathOutcome::LoopCut);
                Ok(vec![s])
            }
        }
    }
}
