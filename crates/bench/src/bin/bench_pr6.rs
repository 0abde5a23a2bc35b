//! PR 6 harness: solver inprocessing ablation, written to `BENCH_PR6.json`
//! in the unified `tpot-bench/v1` schema.
//!
//! Three in-process phases over the same POTs, same module, same solver
//! portfolio:
//!
//! 1. **Ablation** — `TPOT_INPROCESS=0` semantics (`inprocess: Some(false)`
//!    via `tpot_obs::configure`), incremental sessions on. The pre-PR-6
//!    solver: activity-only clause reduction, no variable elimination, no
//!    subsumption, no vivification.
//! 2. **Inprocessing** — `inprocess: Some(true)`, incremental sessions on,
//!    span collection forced so the reported wall-clock is the traced one.
//!    This is the production default; the wall-clock ratio of phase 1 to
//!    phase 2 is the headline speedup.
//! 3. **One-shot** — inprocessing on, `incremental: false`. Supplies the
//!    re-blasted-terms baseline for the re-blast ratio and the strict
//!    incremental/one-shot parity check, proving inprocessing (which
//!    eliminates variables out from under the bit-blast cache) did not
//!    break PR 5's session reuse.
//!
//! The ablation runs under a deterministic conflict budget
//! (`sat_conflict_limit`), because without inprocessing the
//! `spec__alloc_contig` feasibility query diverges: the budget turns
//! "never comes back" into a measurable, reproducible give-up point.
//! Whenever the ablation hits the budget the reported speedup is a
//! *lower bound* (the uncapped ablation is strictly slower), and the
//! harness records `ablation_capped: true`.
//!
//! The harness asserts the invariants PR 6 promises:
//!
//! - **Speedup**: phase 1 / phase 2 wall-clock ≥ 2× on the full pKVM mix
//!   (`alloc_contig` included; the assert is skipped whenever any POT is
//!   dropped — `--smoke` or `--skip-pot` — because those drop the only
//!   POTs slow enough to show a solver-bound win; the ratio is still
//!   reported as `speedup_ok`).
//! - **Parity**: phases 2 and 3 report identical per-POT statuses; phase 1
//!   may differ from phase 2 only where the ablation returned a
//!   solver-unknown that inprocessing now decides (recorded as `improved`
//!   — `spec__alloc_contig` is the known instance).
//! - **Reuse preserved**: sessions still hit and the re-blast ratio
//!   (incremental over one-shot `session_reblasted_terms`) stays below 0.5
//!   with elimination running between solves.
//!
//! Usage: `bench_pr6 [target-fragment ...] [--skip-pot FRAG] [--smoke]
//! [--out PATH]` (default: the whole pKVM allocator, `alloc_contig`
//! included; `--smoke` skips the ~1-minute `alloc_page` walkthrough and
//! the several-minute `alloc_contig` solve for CI).

use std::time::Instant;

use tpot_bench::report::{
    int, merged_stats, num, outcomes_match, peak_rss_kb, s, status_key, BenchReport, TargetReport,
};
use tpot_engine::{EngineConfig, PotResult, Verifier};
use tpot_obs::json::Value;
use tpot_obs::ObsConfig;
use tpot_targets::all_targets;

/// Per-solve conflict budget for the ablation phase. Chosen well above
/// what any query the inprocessing solver decides ever needs, so a
/// budget give-up certifies genuine divergence rather than a tight cap;
/// at the container's observed conflict rate it amounts to several
/// times the inprocessing phase's total wall-clock.
const ABLATION_CONFLICT_CAP: u64 = 4_000_000;

fn run_phase(v: &Verifier, pots: &[String]) -> (Vec<PotResult>, f64) {
    let t0 = Instant::now();
    let results = pots.iter().map(|p| v.verify_pot(p)).collect();
    (results, t0.elapsed().as_secs_f64() * 1e3)
}

/// Ablation-vs-inprocessing outcome comparison. Statuses must match
/// per-POT, except that an ablation solver-unknown (`error:…unknown…`)
/// decided under inprocessing counts as an improvement, not a mismatch.
/// Returns `(parity, improved)`.
fn ablation_outcomes(ablation: &[PotResult], inproc: &[PotResult]) -> (bool, Vec<String>) {
    if ablation.len() != inproc.len() {
        return (false, Vec::new());
    }
    let mut improved = Vec::new();
    for (a, b) in ablation.iter().zip(inproc.iter()) {
        if a.pot != b.pot {
            return (false, improved);
        }
        let (ka, kb) = (status_key(&a.status), status_key(&b.status));
        if ka == kb {
            continue;
        }
        if ka.starts_with("error:") && ka.contains("unknown") && !kb.starts_with("error:") {
            improved.push(a.pot.clone());
        } else {
            return (false, improved);
        }
    }
    (true, improved)
}

fn main() {
    let mut select: Vec<String> = Vec::new();
    let mut skip_pots: Vec<String> = Vec::new();
    let mut smoke = false;
    let mut out = "BENCH_PR6.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--skip-pot" => skip_pots.extend(args.next()),
            "--smoke" => smoke = true,
            "--out" => out = args.next().unwrap_or(out),
            _ => select.push(a),
        }
    }
    if select.is_empty() {
        select = vec!["pkvm".into()];
    }
    if smoke {
        skip_pots.push("alloc_page".into());
        skip_pots.push("alloc_contig".into());
    }

    let mut report = BenchReport::new("bench_pr6");
    report.meta("smoke", Value::Bool(smoke));
    report.meta(
        "skip_pots",
        Value::Arr(skip_pots.iter().map(|p| s(p.clone())).collect()),
    );

    let mut all_parity = true;
    let mut any_capped = false;
    let mut all_improved: Vec<String> = Vec::new();
    let mut tot_ablation_ms = 0.0;
    let mut tot_inproc_ms = 0.0;
    let mut tot_hits = 0u64;
    let mut tot_misses = 0u64;
    let mut tot_reblasted = 0u64;
    let mut tot_oneshot_reblasted = 0u64;
    for t in all_targets() {
        if !select
            .iter()
            .any(|sel| t.name.to_lowercase().contains(&sel.to_lowercase()))
        {
            continue;
        }
        let module = t.verifier().expect("target compiles").module;
        let pots: Vec<String> = module
            .pot_names()
            .into_iter()
            .filter(|p| !skip_pots.iter().any(|f| p.contains(f.as_str())))
            .collect();
        if pots.is_empty() {
            continue;
        }

        // Phase 1: inprocessing off (the TPOT_INPROCESS=0 ablation),
        // incremental sessions on. Span collection forced, same as phase
        // 2, so the two wall-clocks carry identical tracing overhead. The
        // conflict budget bounds the divergent `alloc_contig` baseline;
        // see the module docs.
        tpot_obs::configure(ObsConfig {
            inprocess: Some(false),
            collect_spans: true,
            sat_conflict_limit: Some(ABLATION_CONFLICT_CAP),
            ..ObsConfig::default()
        });
        tpot_obs::take_events();
        let inc_cfg = EngineConfig {
            incremental: true,
            ..EngineConfig::default()
        };
        let v1 = Verifier::with_config(module.clone(), inc_cfg.clone());
        let (ablation, ablation_ms) = run_phase(&v1, &pots);

        // Phase 2: inprocessing on (production default), incremental
        // sessions on, span collection forced so the wall-clock below is
        // the traced one.
        tpot_obs::configure(ObsConfig {
            inprocess: Some(true),
            collect_spans: true,
            ..ObsConfig::default()
        });
        let v2 = Verifier::with_config(module.clone(), inc_cfg);
        let (inproc, inproc_ms) = run_phase(&v2, &pots);
        let events = tpot_obs::take_events();
        let inproc_stats = merged_stats(&inproc);

        // Phase 3: inprocessing on, one-shot (sessions off) — the
        // re-blasted-terms baseline for the re-blast ratio and the strict
        // incremental/one-shot parity witness.
        tpot_obs::configure(ObsConfig {
            inprocess: Some(true),
            ..ObsConfig::default()
        });
        let oneshot_cfg = EngineConfig {
            incremental: false,
            ..EngineConfig::default()
        };
        let v3 = Verifier::with_config(module, oneshot_cfg);
        let (oneshot, oneshot_ms) = run_phase(&v3, &pots);
        let oneshot_stats = merged_stats(&oneshot);
        tpot_obs::configure(ObsConfig::default());

        let (abl_parity, improved) = ablation_outcomes(&ablation, &inproc);
        let capped = ablation
            .iter()
            .any(|r| status_key(&r.status).contains("unknown"));
        let session_parity = outcomes_match(&inproc, &oneshot);
        let parity = abl_parity && session_parity;
        let speedup = ablation_ms / inproc_ms.max(1e-9);
        let checks = inproc_stats.session_hits + inproc_stats.session_misses;
        let hit_rate = inproc_stats.session_hits as f64 / checks.max(1) as f64;
        let reblast_ratio = inproc_stats.session_reblasted_terms as f64
            / oneshot_stats.session_reblasted_terms.max(1) as f64;
        println!(
            "{}: {} POTs, ablation {:.0} ms, inprocessing {:.0} ms traced \
             ({:.2}x, {} vars eliminated, {} clauses subsumed, {} lits \
             vivified), one-shot {:.0} ms, {:.1}% session hit rate, re-blast \
             ratio {:.3}, improved: {:?}, parity: {}",
            t.name,
            pots.len(),
            ablation_ms,
            inproc_ms,
            speedup,
            inproc_stats.sat_eliminated_vars,
            inproc_stats.sat_subsumed,
            inproc_stats.sat_vivified_lits,
            oneshot_ms,
            100.0 * hit_rate,
            reblast_ratio,
            improved,
            parity
        );

        let mut row = TargetReport::new(t.name);
        row.field("pots", int(pots.len() as u64));
        row.field(
            "outcomes",
            Value::Obj(
                inproc
                    .iter()
                    .map(|r| (r.pot.clone(), s(status_key(&r.status))))
                    .collect(),
            ),
        );
        row.field(
            "ablation_outcomes",
            Value::Obj(
                ablation
                    .iter()
                    .map(|r| (r.pot.clone(), s(status_key(&r.status))))
                    .collect(),
            ),
        );
        row.field("parity", Value::Bool(parity));
        row.field("ablation_capped", Value::Bool(capped));
        row.field(
            "improved",
            Value::Arr(improved.iter().map(|p| s(p.clone())).collect()),
        );
        row.field("ablation_ms", num(ablation_ms));
        row.field("inprocess_traced_ms", num(inproc_ms));
        row.field("oneshot_ms", num(oneshot_ms));
        row.field("speedup", num(speedup));
        row.field("trace_events", int(events.len() as u64));
        row.field("sat_eliminated_vars", int(inproc_stats.sat_eliminated_vars));
        row.field("sat_subsumed", int(inproc_stats.sat_subsumed));
        row.field("sat_vivified_lits", int(inproc_stats.sat_vivified_lits));
        row.field(
            "oneshot_reblasted_terms",
            int(oneshot_stats.session_reblasted_terms),
        );
        row.field(
            "session_reblasted_terms",
            int(inproc_stats.session_reblasted_terms),
        );
        row.field("session_hit_rate", num(hit_rate));
        row.field("reblast_ratio", num(reblast_ratio));
        report.targets.push(row);

        all_parity &= parity;
        any_capped |= capped;
        all_improved.extend(improved);
        tot_ablation_ms += ablation_ms;
        tot_inproc_ms += inproc_ms;
        tot_hits += inproc_stats.session_hits;
        tot_misses += inproc_stats.session_misses;
        tot_reblasted += inproc_stats.session_reblasted_terms;
        tot_oneshot_reblasted += oneshot_stats.session_reblasted_terms;
    }

    if report.targets.is_empty() {
        eprintln!("bench_pr6: no target matches {select:?}; nothing measured");
        std::process::exit(2);
    }

    let speedup = tot_ablation_ms / tot_inproc_ms.max(1e-9);
    let hit_rate = tot_hits as f64 / (tot_hits + tot_misses).max(1) as f64;
    let reblast_ratio = tot_reblasted as f64 / tot_oneshot_reblasted.max(1) as f64;
    let reblast_ok = reblast_ratio < 0.5;
    report.summary("parity", Value::Bool(all_parity));
    report.summary(
        "improved",
        Value::Arr(all_improved.iter().map(|p| s(p.clone())).collect()),
    );
    report.summary("ablation_ms", num(tot_ablation_ms));
    report.summary("ablation_capped", Value::Bool(any_capped));
    report.summary("ablation_conflict_cap", int(ABLATION_CONFLICT_CAP));
    report.summary("inprocess_traced_ms", num(tot_inproc_ms));
    report.summary("speedup", num(speedup));
    report.summary("speedup_is_lower_bound", Value::Bool(any_capped));
    report.summary("speedup_ok", Value::Bool(speedup >= 2.0));
    report.summary("session_hit_rate", num(hit_rate));
    report.summary("session_reblasted_terms", int(tot_reblasted));
    report.summary("oneshot_reblasted_terms", int(tot_oneshot_reblasted));
    report.summary("reblast_ratio", num(reblast_ratio));
    report.summary("reblast_ok", Value::Bool(reblast_ok));
    report.summary("peak_rss_kb", int(peak_rss_kb()));
    report.embed_metrics();
    report.write(&out).expect("write results");
    println!(
        "wrote {out} (speedup {speedup:.2}x, improved {:?})",
        all_improved
    );

    assert!(
        all_parity,
        "inprocessing changed a decided verification outcome"
    );
    // The 2x target needs the solver-bound POTs; any skip (`--smoke` or
    // `--skip-pot`) drops them — report the ratio without asserting it,
    // the full run enforces.
    if skip_pots.is_empty() {
        assert!(
            speedup >= 2.0,
            "inprocessing speedup {speedup:.2}x is below the 2x target \
             ({tot_ablation_ms:.0} ms ablation vs {tot_inproc_ms:.0} ms)"
        );
    }
    assert!(tot_hits > 0, "no path query ever reused a solve session");
    assert!(
        reblast_ok,
        "incremental re-blasted {tot_reblasted} terms vs {tot_oneshot_reblasted} \
         one-shot (ratio {reblast_ratio:.3}, need < 0.5)"
    );
}
