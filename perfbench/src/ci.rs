//! `ci-seq` and `ci-par`: Table 5's measurement. Set-up compiles and lowers
//! the drawn targets; the timed phase is `Verifier::verify` over the drawn
//! POTs, one call per target, each with a fresh in-memory query cache.

use std::time::Instant;

use tpot_engine::{PotStatus, Verifier, VerifyOptions};
use tpot_obs::json::Value;

use crate::measure::{self, counts_json};
use crate::plan::{self, Verdict};
use crate::RunResult;

/// Set-up passes per untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 101;

/// One measured ci run of `draw` (grouped by target) at `jobs` path workers.
pub fn run(draw: Vec<(&str, &str)>, jobs: usize, traced: bool) -> RunResult {
    let mut groups: Vec<(&str, Vec<&str>)> = Vec::new();
    for (t, p) in &draw {
        match groups.last_mut() {
            Some((gt, pots)) if gt == t => pots.push(p),
            _ => groups.push((t, vec![p])),
        }
    }
    let sources: Vec<String> = groups
        .iter()
        .map(|(t, _)| plan::target(t).full_source())
        .collect();
    let mut out = RunResult::default();

    let run_span = tpot_obs::span("bench", "run");
    let mut modules = Vec::new();
    for _ in 0..if traced { 1 } else { SETUP_PASSES } {
        let t0 = Instant::now();
        modules = sources
            .iter()
            .map(|src| {
                let checked = {
                    let _s = tpot_obs::span("bench", "compile");
                    tpot_cfront::compile(src).expect("bundled targets compile")
                };
                let _s = tpot_obs::span("bench", "lower");
                tpot_ir::lower(&checked).expect("bundled targets lower")
            })
            .collect();
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }

    let before = measure::counters();
    let cpu0 = measure::cpu_s();
    let t0 = Instant::now();
    let mut results = Vec::new();
    for ((t, pots), module) in groups.iter().zip(modules) {
        let verifier = Verifier::new(module);
        let opts = VerifyOptions::new().pots(pots.iter().copied()).jobs(jobs);
        if out.engine_config.is_empty() {
            out.engine_config = format!("{:?}", verifier.effective_config(&opts));
        }
        let _s = tpot_obs::span("bench", "verify");
        results.push((*t, verifier.verify(&opts)));
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = measure::cpu_s() - cpu0;
    let counts = measure::delta(&before, &measure::counters());
    drop(run_span);

    for (t, rs) in &results {
        for r in rs {
            let name = format!("{t}:{}", r.pot);
            out.attempted += 1;
            let why = check(plan::EXPECTED, t, &r.pot, &r.status);
            let ok = why.is_none();
            if let Some(why) = why {
                out.failures.push(format!("{name}: {why}"));
            }
            let st = &r.stats;
            out.units.push((
                name,
                Value::Obj(vec![
                    ("ms".into(), Value::Num(measure::ms(r.duration))),
                    ("ok".into(), Value::Bool(ok)),
                    (
                        "counts".into(),
                        counts_json(&[
                            ("engine.queries", st.num_queries),
                            ("engine.paths", st.paths),
                            ("engine.insts", st.insts),
                            ("engine.forks", st.forks),
                            ("sat.solves", st.sat_solves),
                            ("sat.conflicts", st.sat_conflicts),
                            ("sat.decisions", st.sat_decisions),
                            ("sat.propagations", st.sat_propagations),
                        ]),
                    ),
                ]),
            ));
        }
    }
    out.meta.push((
        "draw".into(),
        Value::Arr(
            draw.iter()
                .map(|(t, p)| Value::Str(format!("{t}:{p}")))
                .collect(),
        ),
    ));
    out.layer("engine.verify_ms", out.wall_s * 1e3);
    out.engine_layers(&counts);
    if traced {
        out.finish_ledger(&counts, |_| {});
    }
    out
}

/// Why a verdict does not match the expected table, or `None` if it does.
pub fn check(
    table: &[(&str, &str, Verdict)],
    target: &str,
    pot: &str,
    status: &PotStatus,
) -> Option<String> {
    let Some(want) = plan::expected(table, target, pot) else {
        return Some("not in the expected table".into());
    };
    match (want, status) {
        (Verdict::Proved, PotStatus::Proved) => None,
        (Verdict::Failed, PotStatus::Failed(_)) => None,
        (_, PotStatus::Error(e)) => Some(format!("engine error: {e}")),
        (Verdict::Proved, PotStatus::Failed(vs)) => Some(format!(
            "expected proved, got failed: {}",
            vs.first()
                .and_then(|v| v.to_string().lines().next().map(str::to_string))
                .unwrap_or_default()
        )),
        (Verdict::Failed, PotStatus::Proved) => Some("expected failed, got proved".into()),
    }
}
