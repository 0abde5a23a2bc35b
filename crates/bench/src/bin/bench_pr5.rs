//! PR 5 harness: incremental solve sessions vs one-shot solving, written
//! to `BENCH_PR5.json` in the unified `tpot-bench/v1` schema.
//!
//! Two in-process phases over the same POTs, same module, same solver
//! portfolio — only `EngineConfig::incremental` differs:
//!
//! 1. **One-shot** — `incremental: false`. Every path query runs in a
//!    fresh session that is dropped afterwards, so
//!    `session_reblasted_terms` counts each query's whole cone.
//! 2. **Incremental** — `incremental: true` (the production default).
//!    Path queries route through [`SolveSession`]s keyed by path prefix;
//!    `session_reblasted_terms` counts only the terms newly asserted into
//!    a kept session. Span collection is forced on so the reported
//!    wall-clock is the traced one.
//!
//! The harness asserts the invariants PR 5 promises:
//!
//! - **Parity**: incremental and one-shot verification outcomes are
//!   identical (same POTs, same statuses).
//! - **Reuse**: sessions actually hit (`session_hits > 0`) and the
//!   re-blasted-terms ratio (incremental over one-shot
//!   `session_reblasted_terms`) is below 0.5 — reusing an asserted prefix
//!   must save more than half the per-query re-blasting work.
//!
//! Usage: `bench_pr5 [target-fragment ...] [--skip-pot FRAG] [--smoke]
//! [--out PATH]` (default: the whole pKVM allocator — `alloc_contig`,
//! formerly skipped outright as a solver-unknown outlier, is now in the
//! default mix; `--smoke` skips it and the ~1-minute `alloc_page`
//! walkthrough for CI, since both cost minutes of solver time per
//! phase).
//!
//! [`SolveSession`]: tpot_solver::SolveSession

use std::time::Instant;

use tpot_bench::report::{
    int, merged_stats, num, outcomes_match, peak_rss_kb, s, status_key, BenchReport, TargetReport,
};
use tpot_engine::{EngineConfig, PotResult, Verifier};
use tpot_obs::json::Value;
use tpot_obs::ObsConfig;
use tpot_targets::all_targets;

fn run_phase(v: &Verifier, pots: &[String]) -> (Vec<PotResult>, f64) {
    let t0 = Instant::now();
    let results = pots.iter().map(|p| v.verify_pot(p)).collect();
    (results, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let mut select: Vec<String> = Vec::new();
    let mut skip_pots: Vec<String> = Vec::new();
    let mut smoke = false;
    let mut out = "BENCH_PR5.json".to_string();
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

    let mut report = BenchReport::new("bench_pr5");
    report.meta("smoke", Value::Bool(smoke));
    report.meta(
        "skip_pots",
        Value::Arr(skip_pots.iter().map(|p| s(p.clone())).collect()),
    );

    let mut all_parity = true;
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

        // Phase 1: one-shot (sessions off), quiet. Configure defensively in
        // case a TPOT_INCREMENTAL/TPOT_SPANS environment leaked in.
        tpot_obs::configure(ObsConfig::default());
        tpot_obs::take_events();
        let oneshot_cfg = EngineConfig {
            incremental: false,
            ..EngineConfig::default()
        };
        let v1 = Verifier::with_config(module.clone(), oneshot_cfg);
        let (oneshot, oneshot_ms) = run_phase(&v1, &pots);
        let oneshot_stats = merged_stats(&oneshot);

        // Phase 2: incremental sessions on, span collection forced on (no
        // file sinks) so the wall-clock below is the traced one.
        tpot_obs::configure(ObsConfig {
            collect_spans: true,
            ..ObsConfig::default()
        });
        let inc_cfg = EngineConfig {
            incremental: true,
            ..EngineConfig::default()
        };
        let v2 = Verifier::with_config(module, inc_cfg);
        let (incremental, incremental_ms) = run_phase(&v2, &pots);
        let events = tpot_obs::take_events();
        tpot_obs::configure(ObsConfig::default());
        let inc_stats = merged_stats(&incremental);

        let parity = outcomes_match(&oneshot, &incremental);
        let checks = inc_stats.session_hits + inc_stats.session_misses;
        let hit_rate = inc_stats.session_hits as f64 / checks.max(1) as f64;
        let reblast_ratio = inc_stats.session_reblasted_terms as f64
            / oneshot_stats.session_reblasted_terms.max(1) as f64;
        println!(
            "{}: {} POTs, one-shot {:.0} ms ({} terms re-blasted), incremental \
             {:.0} ms traced ({} terms re-blasted, {:.1}% session hit rate, \
             {} fallbacks), re-blast ratio {:.3}, parity: {}",
            t.name,
            pots.len(),
            oneshot_ms,
            oneshot_stats.session_reblasted_terms,
            incremental_ms,
            inc_stats.session_reblasted_terms,
            100.0 * hit_rate,
            inc_stats.session_fallbacks,
            reblast_ratio,
            parity
        );

        let mut row = TargetReport::new(t.name);
        row.field("pots", int(pots.len() as u64));
        row.field(
            "outcomes",
            Value::Obj(
                incremental
                    .iter()
                    .map(|r| (r.pot.clone(), s(status_key(&r.status))))
                    .collect(),
            ),
        );
        row.field("parity", Value::Bool(parity));
        row.field("oneshot_ms", num(oneshot_ms));
        row.field("incremental_traced_ms", num(incremental_ms));
        row.field("trace_events", int(events.len() as u64));
        row.field(
            "oneshot_reblasted_terms",
            int(oneshot_stats.session_reblasted_terms),
        );
        row.field("session_hits", int(inc_stats.session_hits));
        row.field("session_misses", int(inc_stats.session_misses));
        row.field("session_fallbacks", int(inc_stats.session_fallbacks));
        row.field(
            "session_reblasted_terms",
            int(inc_stats.session_reblasted_terms),
        );
        row.field("session_hit_rate", num(hit_rate));
        row.field("reblast_ratio", num(reblast_ratio));
        report.targets.push(row);

        all_parity &= parity;
        tot_hits += inc_stats.session_hits;
        tot_misses += inc_stats.session_misses;
        tot_reblasted += inc_stats.session_reblasted_terms;
        tot_oneshot_reblasted += oneshot_stats.session_reblasted_terms;
    }

    if report.targets.is_empty() {
        eprintln!("bench_pr5: no target matches {select:?}; nothing measured");
        std::process::exit(2);
    }

    let hit_rate = tot_hits as f64 / (tot_hits + tot_misses).max(1) as f64;
    let reblast_ratio = tot_reblasted as f64 / tot_oneshot_reblasted.max(1) as f64;
    let reblast_ok = reblast_ratio < 0.5;
    report.summary("parity", Value::Bool(all_parity));
    report.summary("session_hits", int(tot_hits));
    report.summary("session_misses", int(tot_misses));
    report.summary("session_hit_rate", num(hit_rate));
    report.summary("session_reblasted_terms", int(tot_reblasted));
    report.summary("oneshot_reblasted_terms", int(tot_oneshot_reblasted));
    report.summary("reblast_ratio", num(reblast_ratio));
    report.summary("reblast_ok", Value::Bool(reblast_ok));
    report.summary("peak_rss_kb", int(peak_rss_kb()));
    report.embed_metrics();
    report.write(&out).expect("write results");
    println!("wrote {out}");

    assert!(
        all_parity,
        "incremental sessions changed a verification outcome"
    );
    assert!(tot_hits > 0, "no path query ever reused a solve session");
    assert!(
        reblast_ok,
        "incremental re-blasted {tot_reblasted} terms vs {tot_oneshot_reblasted} \
         one-shot (ratio {reblast_ratio:.3}, need < 0.5)"
    );
}
