//! The fuzzing loop: cycles through the differential/metamorphic modes,
//! derives an independent RNG stream per `(seed, iteration)`, reduces any
//! failure to a minimal repro under `fuzz-failures/`, and accumulates the
//! per-mode statistics that `tpot-fuzz run --json PATH` writes out.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use tpot_smt::TermArena;

use crate::diff::{
    incremental_vs_oneshot, lia_vs_bv, proof_checked, sliced_vs_full, solver_vs_brute, Agreement,
};
use crate::gen::{gen_paired, GenConfig, TermGen};
use crate::meta::metamorphic;
use crate::reduce::{reduce, write_repro};
use crate::rng::Rng;
use crate::sched::sched_parity;
use crate::state::fork_vs_replay;

/// Enumeration cap for the brute-force oracle: comfortably above the
/// grounded configuration's 4096-assignment box, so grounded queries are
/// never skipped, while keeping adjudication of LIA/BV mismatches cheap.
pub const BRUTE_CAP: u64 = 1 << 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Solver vs exhaustive enumeration on enumerable queries.
    Grounded,
    /// Cone-of-influence slice vs full arena.
    SliceFull,
    /// Simplex (LIA) vs bit-blasting on paired queries.
    LiaBv,
    /// Verdict-preserving query transformations.
    Metamorphic,
    /// COW `State::fork` vs deep re-execution.
    StateFork,
    /// Incremental solve session (randomized push/pop/check_assuming
    /// interleavings) vs from-scratch one-shot checks.
    IncrementalOneshot,
    /// Every Unsat answer emits a DRAT proof the independent RUP checker
    /// must accept.
    ProofChecked,
    /// Work-stealing scheduler: same random module verified with 1 worker
    /// and with N workers + a fresh steal seed must yield identical
    /// per-POT statuses, violations, and path counts.
    SchedParity,
}

pub const ALL_MODES: [Mode; 8] = [
    Mode::Grounded,
    Mode::SliceFull,
    Mode::LiaBv,
    Mode::Metamorphic,
    Mode::StateFork,
    Mode::IncrementalOneshot,
    Mode::ProofChecked,
    Mode::SchedParity,
];

impl Mode {
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Grounded => "grounded",
            Mode::SliceFull => "slice_vs_full",
            Mode::LiaBv => "lia_vs_bv",
            Mode::Metamorphic => "metamorphic",
            Mode::StateFork => "state_fork",
            Mode::IncrementalOneshot => "incremental_vs_oneshot",
            Mode::ProofChecked => "proof_checked",
            Mode::SchedParity => "sched_parity",
        }
    }
}

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ModeStats {
    pub runs: u64,
    pub sat: u64,
    pub unsat: u64,
    pub skipped: u64,
    pub discrepancies: u64,
}

pub struct Discrepancy {
    pub mode: Mode,
    pub iter: u64,
    pub detail: String,
    pub repro: Option<PathBuf>,
}

pub struct RunConfig {
    pub iters: u64,
    pub seed: u64,
    pub out_dir: PathBuf,
    /// When false, failures are recorded but no repro files are written
    /// (used by in-process tests).
    pub write_repros: bool,
    pub modes: Vec<Mode>,
}

impl RunConfig {
    pub fn new(iters: u64, seed: u64) -> Self {
        RunConfig {
            iters,
            seed,
            out_dir: PathBuf::from("fuzz-failures"),
            write_repros: true,
            modes: ALL_MODES.to_vec(),
        }
    }
}

pub struct FuzzReport {
    pub seed: u64,
    pub iters: u64,
    pub stats: Vec<(Mode, ModeStats)>,
    pub discrepancies: Vec<Discrepancy>,
    pub elapsed_ms: f64,
}

impl FuzzReport {
    pub fn total_discrepancies(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.discrepancies).sum()
    }
}

fn record(stats: &mut ModeStats, outcome: &Agreement) {
    match outcome {
        Agreement::Sat => stats.sat += 1,
        Agreement::Unsat => stats.unsat += 1,
        Agreement::Skipped => stats.skipped += 1,
    }
}

/// Discrepancy detail plus, for term-level modes, a reduced repro
/// (arena + assertions). Boxed at the return boundary: the repro arena is
/// large and the error path is cold.
type Failure = (String, Option<(TermArena, Vec<tpot_smt::TermId>)>);

/// Runs one iteration of `mode`; on failure returns the discrepancy detail
/// plus, for term-level modes, a reduced repro (arena + assertions).
fn run_one(mode: Mode, seed: u64, iter: u64) -> Result<Agreement, Box<Failure>> {
    let mut rng = Rng::for_iteration(seed, iter);
    match mode {
        Mode::Grounded => {
            let mut arena = TermArena::new();
            let cfg = GenConfig::grounded();
            let mut g = TermGen::new(&mut arena, &cfg);
            let q = g.generate(&mut rng);
            let payload = &q.assertions[..cfg.n_assertions.min(q.assertions.len())];
            let pinned = &q.assertions[cfg.n_assertions.min(q.assertions.len())..];
            let mut work = arena.clone();
            match solver_vs_brute(&mut work, &q.assertions, &q.domains, BRUTE_CAP) {
                Ok(a) => Ok(a),
                Err(detail) => {
                    let domains = q.domains.clone();
                    let reduced = reduce(&arena, payload, pinned, |ar, cand| {
                        let mut a2 = ar.clone();
                        solver_vs_brute(&mut a2, cand, &domains, BRUTE_CAP).is_err()
                    });
                    Err(Box::new((detail, Some(reduced))))
                }
            }
        }
        Mode::SliceFull => {
            let mut arena = TermArena::new();
            let cfg = GenConfig::full();
            let mut g = TermGen::new(&mut arena, &cfg);
            let q = g.generate(&mut rng);
            let mut work = arena.clone();
            match sliced_vs_full(&mut work, &q.assertions) {
                Ok(a) => Ok(a),
                Err(detail) => {
                    let reduced = reduce(&arena, &q.assertions, &[], |ar, cand| {
                        let mut a2 = ar.clone();
                        sliced_vs_full(&mut a2, cand).is_err()
                    });
                    Err(Box::new((detail, Some(reduced))))
                }
            }
        }
        Mode::LiaBv => {
            let mut arena = TermArena::new();
            let q = gen_paired(&mut arena, &mut rng);
            let mut work = arena.clone();
            match lia_vs_bv(&mut work, &q, BRUTE_CAP) {
                Ok(a) => Ok(a),
                Err(detail) => {
                    // Paired queries lose their pairing under structural
                    // reduction; ship both sides sliced but unshrunk.
                    let mut roots = q.int_assertions.clone();
                    roots.extend_from_slice(&q.bv_assertions);
                    Err(Box::new((detail, Some(arena.slice(&roots)))))
                }
            }
        }
        Mode::Metamorphic => {
            let mut arena = TermArena::new();
            let cfg = GenConfig::full();
            let mut g = TermGen::new(&mut arena, &cfg);
            let q = g.generate(&mut rng);
            let mut work = arena.clone();
            let mut mrng = Rng::for_iteration(seed ^ 0x6d65_7461, iter);
            match metamorphic(&mut work, &q.assertions, &mut mrng) {
                Ok(a) => Ok(a),
                Err(detail) => {
                    let reduced = reduce(&arena, &q.assertions, &[], |ar, cand| {
                        let mut a2 = ar.clone();
                        let mut r2 = Rng::for_iteration(seed ^ 0x6d65_7461, iter);
                        metamorphic(&mut a2, cand, &mut r2).is_err()
                    });
                    Err(Box::new((detail, Some(reduced))))
                }
            }
        }
        Mode::StateFork => match fork_vs_replay(&mut rng) {
            Ok(()) => Ok(Agreement::Skipped),
            Err(detail) => Err(Box::new((detail, None))),
        },
        Mode::SchedParity => match sched_parity(&mut rng) {
            Ok(()) => Ok(Agreement::Skipped),
            Err(detail) => Err(Box::new((detail, None))),
        },
        Mode::IncrementalOneshot => {
            let mut arena = TermArena::new();
            let cfg = GenConfig::full();
            let mut g = TermGen::new(&mut arena, &cfg);
            let q = g.generate(&mut rng);
            let mut work = arena.clone();
            // The interleaving stream is decorrelated from the generation
            // stream so reduction replays the same push/pop schedule.
            let mut irng = Rng::for_iteration(seed ^ 0x696e_6372, iter);
            match incremental_vs_oneshot(&mut work, &q.assertions, &mut irng) {
                Ok(a) => Ok(a),
                Err(detail) => {
                    let reduced = reduce(&arena, &q.assertions, &[], |ar, cand| {
                        let mut a2 = ar.clone();
                        let mut r2 = Rng::for_iteration(seed ^ 0x696e_6372, iter);
                        incremental_vs_oneshot(&mut a2, cand, &mut r2).is_err()
                    });
                    Err(Box::new((detail, Some(reduced))))
                }
            }
        }
        Mode::ProofChecked => {
            let mut arena = TermArena::new();
            let cfg = GenConfig::full();
            let mut g = TermGen::new(&mut arena, &cfg);
            let q = g.generate(&mut rng);
            let mut work = arena.clone();
            match proof_checked(&mut work, &q.assertions) {
                Ok(a) => Ok(a),
                Err(detail) => {
                    let reduced = reduce(&arena, &q.assertions, &[], |ar, cand| {
                        let mut a2 = ar.clone();
                        proof_checked(&mut a2, cand).is_err()
                    });
                    Err(Box::new((detail, Some(reduced))))
                }
            }
        }
    }
}

pub fn run(cfg: &RunConfig) -> FuzzReport {
    let _span = tpot_obs::span_args("fuzz", "run", &[("iters", &cfg.iters), ("seed", &cfg.seed)]);
    let t0 = Instant::now();
    let mut stats: Vec<(Mode, ModeStats)> = cfg
        .modes
        .iter()
        .map(|&m| (m, ModeStats::default()))
        .collect();
    let mut discrepancies = Vec::new();

    for iter in 0..cfg.iters {
        let slot = (iter % cfg.modes.len() as u64) as usize;
        let mode = cfg.modes[slot];
        stats[slot].1.runs += 1;
        match run_one(mode, cfg.seed, iter) {
            Ok(outcome) => {
                // The engine-level modes have no sat/unsat verdict;
                // count successful rounds as runs only.
                if mode != Mode::StateFork && mode != Mode::SchedParity {
                    record(&mut stats[slot].1, &outcome);
                }
            }
            Err(fail) => {
                let (detail, reduced) = *fail;
                stats[slot].1.discrepancies += 1;
                let repro = match (&reduced, cfg.write_repros) {
                    (Some((arena, asserts)), true) => {
                        let name = format!("{}-s{}-i{}", mode.name(), cfg.seed, iter);
                        let header = vec![
                            format!("discrepancy: {detail}"),
                            format!(
                                "reproduce: tpot-fuzz run --iters 1 --seed {} (mode {}, iteration {})",
                                cfg.seed,
                                mode.name(),
                                iter
                            ),
                        ];
                        write_repro(&cfg.out_dir, &name, arena, asserts, &header).ok()
                    }
                    _ => None,
                };
                tpot_obs::obs_warn!(
                    "fuzz",
                    "discrepancy [{} iter {}]: {}{}",
                    mode.name(),
                    iter,
                    detail,
                    repro
                        .as_ref()
                        .map(|p| format!(" (repro: {})", p.display()))
                        .unwrap_or_default()
                );
                discrepancies.push(Discrepancy {
                    mode,
                    iter,
                    detail,
                    repro,
                });
            }
        }
    }

    FuzzReport {
        seed: cfg.seed,
        iters: cfg.iters,
        stats,
        discrepancies,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Hand-rolled JSON (repo convention: no serde) for `tpot-fuzz run --json`.
pub fn report_json(r: &FuzzReport) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"harness\": \"tpot-fuzz\",");
    let _ = writeln!(j, "  \"seed\": {},", r.seed);
    let _ = writeln!(j, "  \"iterations\": {},", r.iters);
    let _ = writeln!(j, "  \"elapsed_ms\": {:.1},", r.elapsed_ms);
    let _ = writeln!(j, "  \"modes\": [");
    for (i, (m, s)) in r.stats.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"mode\": \"{}\",", m.name());
        let _ = writeln!(j, "      \"runs\": {},", s.runs);
        let _ = writeln!(j, "      \"sat\": {},", s.sat);
        let _ = writeln!(j, "      \"unsat\": {},", s.unsat);
        let _ = writeln!(j, "      \"skipped\": {},", s.skipped);
        let _ = writeln!(j, "      \"discrepancies\": {}", s.discrepancies);
        let _ = writeln!(j, "    }}{}", if i + 1 < r.stats.len() { "," } else { "" });
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"discrepancies\": [");
    for (i, d) in r.discrepancies.iter().enumerate() {
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"mode\": \"{}\",", d.mode.name());
        let _ = writeln!(j, "      \"iteration\": {},", d.iter);
        let _ = writeln!(j, "      \"detail\": \"{}\",", json_escape(&d.detail));
        let _ = writeln!(
            j,
            "      \"repro\": {}",
            d.repro
                .as_ref()
                .map(|p| format!("\"{}\"", json_escape(&p.display().to_string())))
                .unwrap_or_else(|| "null".to_string())
        );
        let _ = writeln!(
            j,
            "    }}{}",
            if i + 1 < r.discrepancies.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"total_discrepancies\": {}", r.total_discrepancies());
    let _ = writeln!(j, "}}");
    j
}
