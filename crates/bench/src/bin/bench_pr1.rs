//! The `bench_pr1` harness: sequential vs parallel multi-POT verification,
//! written to `BENCH_PR1.json` in the unified `tpot-bench/v1` schema (see
//! `tpot_bench::report`).
//!
//! For each selected target it runs `Verifier::verify` with `jobs: 1` (the
//! deterministic sequential baseline) and with the configured job count
//! (the shared-cache work-stealing driver), checks the two report identical
//! POT outcomes, and records wall-clock plus the engine counters.
//!
//! Usage: `bench_pr1 [target-fragment ...] [--jobs N] [--out PATH]`
//! (default: the three small targets, `TPOT_JOBS`/core-count jobs,
//! `BENCH_PR1.json` in the current directory).

use std::time::Instant;

use tpot_bench::report::{
    int, merged_stats, num, outcomes_match, stats_fields, BenchReport, TargetReport,
};
use tpot_obs::json::Value;
use tpot_targets::all_targets;

fn main() {
    let mut select: Vec<String> = Vec::new();
    let mut jobs = 0usize;
    let mut out = "BENCH_PR1.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            "--out" => out = args.next().unwrap_or(out),
            _ => select.push(a),
        }
    }
    if select.is_empty() {
        select = vec!["pkvm".into(), "vigor".into(), "page table".into()];
    }
    let effective_jobs = if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    };

    let mut report = BenchReport::new("bench_pr1");
    report.meta("jobs", int(effective_jobs as u64));
    // Parallel speedup needs ≥ 2 cores; on a single-core host the parallel
    // driver can only match sequential wall-clock (its win there is the
    // shared query cache), so record the core count next to the numbers.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    report.meta("cores", int(cores as u64));

    let mut tot_seq = 0.0f64;
    let mut tot_par = 0.0f64;
    let mut all_match = true;
    for t in all_targets() {
        if !select
            .iter()
            .any(|sel| t.name.to_lowercase().contains(&sel.to_lowercase()))
        {
            continue;
        }
        let v = t.verifier().expect("target compiles");
        let t0 = Instant::now();
        let seq = v.verify(&tpot_engine::VerifyOptions::new().jobs(1));
        let sequential_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let par = v.verify(&tpot_engine::VerifyOptions::new().jobs(jobs));
        let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
        let matches = outcomes_match(&seq, &par);
        let stats = merged_stats(&par);
        println!(
            "{}: {} POTs, sequential {:.0} ms, parallel {:.0} ms ({:.2}x), \
             {} queries, outcomes match: {}",
            t.name,
            seq.len(),
            sequential_ms,
            parallel_ms,
            sequential_ms / parallel_ms.max(1e-9),
            stats.num_queries,
            matches
        );
        let mut row = TargetReport::new(t.name);
        row.field("pots", int(seq.len() as u64));
        row.field("sequential_ms", num(sequential_ms));
        row.field("parallel_ms", num(parallel_ms));
        row.field("speedup", num(sequential_ms / parallel_ms.max(1e-9)));
        row.field("outcomes_match", Value::Bool(matches));
        row.fields.extend(stats_fields(&stats));
        report.targets.push(row);
        tot_seq += sequential_ms;
        tot_par += parallel_ms;
        all_match &= matches;
    }

    if report.targets.is_empty() {
        eprintln!("bench_pr1: no target matches {select:?}; nothing measured");
        std::process::exit(2);
    }

    report.summary("all_outcomes_match", Value::Bool(all_match));
    report.summary("total_sequential_ms", num(tot_seq));
    report.summary("total_parallel_ms", num(tot_par));
    report.summary("total_speedup", num(tot_seq / tot_par.max(1e-9)));
    report.write(&out).expect("write results");
    let _ = tpot_obs::flush();
    println!("wrote {out}");
    assert!(all_match, "parallel and sequential outcomes diverged");
}
