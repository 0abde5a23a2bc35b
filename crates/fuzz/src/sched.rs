//! Scheduler parity: verifying a random module with one worker and with N
//! workers (fresh steal seed each round) must produce identical per-POT
//! statuses, violation lists, and path counts.
//!
//! This is the differential oracle for the work-stealing path scheduler
//! (`tpot_engine::sched`): fork order — and therefore the set of paths and
//! their ids — is a function of the state alone, so any divergence between
//! the sequential baseline and a stolen/migrated schedule is a scheduler
//! bug (lost task, double count, shard-clone corruption, non-deterministic
//! violation ordering), not solver noise. Counterexample *models* are
//! excluded from the comparison: which witness the solver reports may
//! depend on session history, while everything the verdict depends on may
//! not.

use tpot_engine::{PotStatus, Verifier, VerifyOptions};

use crate::rng::Rng;

/// Renders one random but always-compiling spec module: a couple of
/// globals, one helper, and two POTs built from nested branches on
/// constrained symbolic ints, a bounded concrete loop, and a final
/// assertion drawn from a mixed pool (always-valid or one-path-falsifiable,
/// so both Proved and Failed outcomes occur under parity).
fn gen_src(rng: &mut Rng) -> String {
    let mut src = String::from("int g0, g1;\n");
    src.push_str("int helper(int x) { if (x > 4) return x - 1; return x + 1; }\n");
    for pot in 0..2 {
        src.push_str(&format!("void spec__p{pot}(void) {{\n"));
        src.push_str("  any(int, a);\n  any(int, b);\n");
        src.push_str("  assume(a >= -8 && a <= 8);\n");
        src.push_str("  assume(b >= 0 && b <= 4);\n");
        // Random branch tree over a/b: each level forks feasibly.
        let depth = 1 + rng.below(3);
        gen_stmt(&mut src, rng, depth, 1);
        if rng.below(2) == 0 {
            // Bounded concrete loop: unrolls without an invariant.
            let n = 1 + rng.below(3);
            src.push_str(&format!(
                "  for (int i = 0; i < {n}; i = i + 1) {{ g0 = g0 + b; }}\n"
            ));
        }
        let assertion = match rng.below(4) {
            0 => "a >= -8".to_string(),                       // valid by assume
            1 => format!("a != {}", rng.below(6) as i64 - 3), // falsifiable
            2 => "helper(b) >= 0".to_string(),                // valid: b in [0,4]
            _ => format!("b != {}", rng.below(8)),            // maybe falsifiable
        };
        src.push_str(&format!("  assert({assertion});\n"));
        src.push_str("}\n");
    }
    src
}

fn gen_stmt(src: &mut String, rng: &mut Rng, depth: u64, indent: usize) {
    let pad = "  ".repeat(indent);
    if depth == 0 {
        match rng.below(3) {
            0 => src.push_str(&format!("{pad}g0 = g0 + {};\n", rng.below(5))),
            1 => src.push_str(&format!("{pad}g1 = g1 - {};\n", rng.below(5))),
            _ => src.push_str(&format!("{pad}g0 = helper(g0 + {});\n", rng.below(3))),
        }
        return;
    }
    let var = if rng.below(2) == 0 { "a" } else { "b" };
    let op = ["<", "<=", ">", "=="][rng.below(4) as usize];
    let k = rng.below(7) as i64 - 3;
    src.push_str(&format!("{pad}if ({var} {op} {k}) {{\n"));
    gen_stmt(src, rng, depth - 1, indent + 1);
    src.push_str(&format!("{pad}}} else {{\n"));
    gen_stmt(src, rng, depth - 1, indent + 1);
    src.push_str(&format!("{pad}}}\n"));
}

/// Everything the verdict depends on, rendered schedule-independently.
fn outcome_key(results: &[tpot_engine::PotResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            let status = match &r.status {
                PotStatus::Proved => "proved".to_string(),
                PotStatus::Failed(vs) => {
                    let vlist: Vec<String> = vs
                        .iter()
                        .map(|v| format!("{}: {}", v.kind, v.message))
                        .collect();
                    format!("failed[{}]", vlist.join("; "))
                }
                PotStatus::Error(e) => format!("error: {e}"),
            };
            format!("{} -> {status} (paths {})", r.pot, r.stats.paths)
        })
        .collect()
}

/// One round of SAT-counter conservation: verify a random module with a
/// random worker count and demand that the per-POT solver counters (the
/// per-shard deltas summed into each `PotResult`) add up to exactly
/// the process-wide `sat.*` registry delta over the run.
///
/// Both totals receive the same per-`solve` deltas from the same solver
/// instances, so any discrepancy means attribution lost or double-counted
/// a shard's work (a drain race, a missed fork boundary, a stolen task's
/// counters landing twice). Exact at any worker count — this is the
/// "attribution is exact only at jobs=1" caveat, retired. The check
/// assumes no *other* thread is solving concurrently: modes run one at a
/// time, and [`crate::runner::run`] holds a process-wide lock, so two runs
/// in one process (say, two tests) never overlap.
pub fn counter_parity(rng: &mut Rng) -> Result<(), String> {
    let src = gen_src(rng);
    let checked = tpot_cfront::compile(&src)
        .map_err(|e| format!("generated program failed to compile: {e}\n{src}"))?;
    let module =
        tpot_ir::lower(&checked).map_err(|e| format!("generated program failed to lower: {e}"))?;
    let v = Verifier::new(module);
    let jobs = 1 + rng.below(4) as usize;
    let seed = rng.next_u64();
    // (registry key, per-POT extractor) — the counters the solver publishes
    // per solve and the engine attributes per shard.
    type Field = (&'static str, fn(&tpot_engine::Stats) -> u64);
    const FIELDS: [Field; 6] = [
        ("sat.solves", |s| s.sat_solves),
        ("sat.conflicts", |s| s.sat_conflicts),
        ("sat.decisions", |s| s.sat_decisions),
        ("sat.propagations", |s| s.sat_propagations),
        ("sat.restarts", |s| s.sat_restarts),
        ("sat.learned_clauses", |s| s.sat_learned),
    ];
    let before: Vec<u64> = FIELDS
        .iter()
        .map(|(k, _)| tpot_obs::metrics::counter(k).get())
        .collect();
    let results = v.verify(&VerifyOptions::new().jobs(jobs).steal_seed(seed));
    for (i, (key, field)) in FIELDS.iter().enumerate() {
        let global = tpot_obs::metrics::counter(key).get() - before[i];
        let attributed: u64 = results.iter().map(|r| field(&r.stats)).sum();
        if attributed != global {
            return Err(format!(
                "counter conservation violated for {key} (jobs {jobs}, steal seed {seed:#x}): \
                 per-POT sum {attributed} != global delta {global}\nprogram:\n{src}"
            ));
        }
    }
    Ok(())
}

/// One round: generate a module, verify it sequentially and with a random
/// worker count + steal seed, and demand identical outcome keys.
pub fn sched_parity(rng: &mut Rng) -> Result<(), String> {
    let src = gen_src(rng);
    let checked = tpot_cfront::compile(&src)
        .map_err(|e| format!("generated program failed to compile: {e}\n{src}"))?;
    let module =
        tpot_ir::lower(&checked).map_err(|e| format!("generated program failed to lower: {e}"))?;
    let v = Verifier::new(module);
    let seq = v.verify(&VerifyOptions::new().jobs(1));
    let jobs = 2 + rng.below(3) as usize;
    let seed = rng.next_u64();
    let par = v.verify(&VerifyOptions::new().jobs(jobs).steal_seed(seed));
    let seq_key = outcome_key(&seq);
    let par_key = outcome_key(&par);
    if seq_key != par_key {
        return Err(format!(
            "scheduler parity violated (jobs {jobs}, steal seed {seed:#x}):\n  \
             sequential: {seq_key:?}\n  parallel:   {par_key:?}\nprogram:\n{src}"
        ));
    }
    Ok(())
}
