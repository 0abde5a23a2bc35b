//! The pKVM smoke POTs keep their verdicts, and the engine keeps its
//! accounting, under every run mode that changes how they are solved,
//! scheduled or observed: one-shot sessions, path workers and steal seeds,
//! span collection and blame tracking.
//!
//! One `#[test]` in a binary of its own: `tpot_obs::configure` and the
//! `sat.*` registry deltas read below are process-wide, so no other test
//! may solve in this process while it runs.

use std::collections::HashMap;

use tpot_engine::prov::ProvKind;
use tpot_engine::{EngineConfig, PotResult, PotStatus, Stats, Verifier, VerifyOptions};
use tpot_obs::metrics::counter;
use tpot_obs::{Event, ObsConfig, Phase};

const POTS: [&str; 2] = ["spec__nr_pages", "spec__init"];

/// The per-POT solver counters paired with the registry counters the
/// solver publishes the same deltas to.
type SatField = (&'static str, fn(&Stats) -> u64);
const SAT_FIELDS: [SatField; 6] = [
    ("sat.solves", |s| s.sat_solves),
    ("sat.conflicts", |s| s.sat_conflicts),
    ("sat.decisions", |s| s.sat_decisions),
    ("sat.propagations", |s| s.sat_propagations),
    ("sat.restarts", |s| s.sat_restarts),
    ("sat.learned_clauses", |s| s.sat_learned),
];

fn module() -> tpot_ir::Module {
    let read = |f: &str| {
        std::fs::read_to_string(format!(
            "{}/../../targets/pkvm_early_alloc/{f}",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap()
    };
    let src = format!("{}\n{}", read("early_alloc.c"), read("spec.c"));
    tpot_ir::lower(&tpot_cfront::compile(&src).unwrap()).unwrap()
}

fn run(
    module: &tpot_ir::Module,
    cfg: EngineConfig,
    jobs: usize,
    seed: Option<u64>,
) -> Vec<PotResult> {
    let mut opts = VerifyOptions::new().pots(POTS).jobs(jobs);
    if let Some(seed) = seed {
        opts = opts.steal_seed(seed);
    }
    Verifier::with_config(module.clone(), cfg).verify(&opts)
}

/// Each POT with its verdict (violation details aside) and path count.
fn outcomes(rs: &[PotResult]) -> Vec<(String, String, u64)> {
    rs.iter()
        .map(|r| {
            let status = match &r.status {
                PotStatus::Proved => "proved".to_string(),
                PotStatus::Failed(_) => "failed".to_string(),
                PotStatus::Error(e) => format!("error: {e}"),
            };
            (r.pot.clone(), status, r.stats.paths)
        })
        .collect()
}

fn reblasted(rs: &[PotResult]) -> u64 {
    rs.iter().map(|r| r.stats.session_reblasted_terms).sum()
}

fn registry(keys: &[&'static str]) -> Vec<u64> {
    keys.iter().map(|k| counter(k).get()).collect()
}

/// How far each registry counter in `keys` has moved since `before`.
fn since(keys: &[&'static str], before: &[u64]) -> Vec<u64> {
    registry(keys)
        .iter()
        .zip(before)
        .map(|(now, then)| now - then)
        .collect()
}

/// Time (µs) inside matched `solver`/`query` Begin/End pairs. Events come
/// in collection order, so pairs nest per thread.
fn solver_span_us(events: &[Event]) -> u64 {
    let mut open: HashMap<u64, Vec<&Event>> = HashMap::new();
    let mut total = 0;
    for ev in events {
        match ev.phase {
            Phase::Begin => open.entry(ev.tid).or_default().push(ev),
            Phase::End => {
                if let Some(b) = open.entry(ev.tid).or_default().pop() {
                    if b.cat == "solver" && b.name == "query" {
                        total += ev.ts_us.saturating_sub(b.ts_us);
                    }
                }
            }
            Phase::Instant => {}
        }
    }
    total
}

#[test]
fn pkvm_smoke_pots_keep_verdicts_and_accounting_in_every_mode() {
    // The default configuration, whatever `TPOT_*` variables are set.
    tpot_obs::configure(ObsConfig::default());
    let m = module();

    // Reference: jobs=1, incremental sessions (the default).
    let reference = run(&m, EngineConfig::default(), 1, None);
    let want = outcomes(&reference);
    assert!(reference.iter().all(|r| r.status.is_proved()), "{want:?}");

    // One-shot sessions decide the same, and reusing sessions saves more
    // than half the re-blasting.
    let oneshot = EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    };
    let once = run(&m, oneshot, 1, None);
    assert_eq!(outcomes(&once), want, "one-shot sessions");
    let hits: u64 = reference.iter().map(|r| r.stats.session_hits).sum();
    assert!(hits > 0, "no path query reused a solve session");
    let (inc, one) = (reblasted(&reference), reblasted(&once));
    assert!(
        (inc as f64) < 0.5 * one as f64,
        "incremental re-blasted {inc} terms vs {one} one-shot (need < 0.5)"
    );

    // Path workers and steal seeds change neither verdicts nor path
    // counts, and the per-POT SAT counters sum to the SAT core's registry
    // delta at every worker count and seed.
    let sat_keys = SAT_FIELDS.map(|(k, _)| k);
    for jobs in [2, 4] {
        for seed in [1, 2] {
            let sat0 = registry(&sat_keys);
            let rs = run(&m, EngineConfig::default(), jobs, Some(seed));
            assert_eq!(outcomes(&rs), want, "jobs={jobs} seed={seed}");
            for ((key, field), global) in SAT_FIELDS.iter().zip(since(&sat_keys, &sat0)) {
                let attributed: u64 = rs.iter().map(|r| field(&r.stats)).sum();
                assert_eq!(attributed, global, "{key} at jobs={jobs} seed={seed}");
            }
        }
    }

    // Collecting spans decides the same, and the solver/query spans cover
    // at least 95% of the solver time `Stats` measured (a span also wraps
    // the portfolio's bookkeeping, so it may exceed 100%).
    tpot_obs::configure(ObsConfig {
        collect_spans: true,
        ..ObsConfig::default()
    });
    tpot_obs::take_events();
    let traced = run(&m, EngineConfig::default(), 1, None);
    let events = tpot_obs::take_events();
    assert_eq!(outcomes(&traced), want, "spans collected");
    let span_us = solver_span_us(&events);
    let stats_us: u64 = traced
        .iter()
        .map(|r| {
            let s = &r.stats;
            (s.simplify_time + s.pointer_time + s.branch_time + s.assertion_time).as_micros() as u64
        })
        .sum();
    assert!(
        span_us as f64 >= 0.95 * stats_us as f64,
        "solver spans cover {span_us} µs of {stats_us} µs measured"
    );

    // Blame tracking decides the same, ranks a tagged assumption core for
    // a proved POT, and every POT has a path profile with solver time.
    tpot_obs::configure(ObsConfig {
        blame: Some(true),
        ..ObsConfig::default()
    });
    let blamed = run(&m, EngineConfig::default(), 1, None);
    tpot_obs::configure(ObsConfig::default());
    assert_eq!(outcomes(&blamed), want, "blame on");
    assert!(
        blamed.iter().any(|r| r.status.is_proved()
            && r.blame
                .iter()
                .any(|e| e.core_count > 0 && e.kind != ProvKind::Other)),
        "no proved POT reported a provenance-tagged assumption core"
    );
    for r in &blamed {
        assert!(
            !r.profile.iter_sorted().is_empty() && r.profile.total().solver_us > 0,
            "{}: empty path profile",
            r.pot
        );
    }
}
