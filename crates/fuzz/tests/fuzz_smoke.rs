//! Fixed-seed smoke run of the differential fuzzer, wired into tier-1.
//!
//! A small deterministic slice of every mode runs on each `cargo test`;
//! the deep run (`tpot-fuzz run --iters 10000 --seed 42`) covers the long
//! tail. Iteration count is budgeted for debug builds (~10–20 s).

use tpot_fuzz::{run, Mode, RunConfig};

#[test]
fn fuzz_smoke_fixed_seed_finds_no_discrepancies() {
    let mut cfg = RunConfig::new(250, 42);
    cfg.write_repros = false; // never litter the repo from a test run
    let report = run(&cfg);

    let details: Vec<String> = report
        .discrepancies
        .iter()
        .map(|d| format!("{} iter {}: {}", d.mode.name(), d.iter, d.detail))
        .collect();
    assert_eq!(
        report.total_discrepancies(),
        0,
        "fuzz smoke found discrepancies: {details:?}"
    );

    let stats_for = |mode: Mode| {
        report
            .stats
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("{} missing from report", mode.name()))
    };
    // Every mode must actually have run and produced verdicts.
    for mode in [
        Mode::Grounded,
        Mode::SliceFull,
        Mode::LiaBv,
        Mode::Metamorphic,
        Mode::StateFork,
        Mode::IncrementalOneshot,
        Mode::ProofChecked,
    ] {
        let stats = stats_for(mode);
        assert!(stats.runs > 0, "{} never ran", mode.name());
        assert!(
            stats.skipped < stats.runs,
            "{} skipped every iteration",
            mode.name()
        );
    }
    // The differential modes must exercise both verdicts; a generator
    // regression that makes everything trivially sat (or unsat) would
    // silently gut the oracle, so fail loudly instead.
    for mode in [
        Mode::Grounded,
        Mode::SliceFull,
        Mode::LiaBv,
        Mode::IncrementalOneshot,
        Mode::ProofChecked,
    ] {
        let stats = stats_for(mode);
        assert!(stats.sat > 0, "{} produced no sat verdicts", mode.name());
        assert!(
            stats.unsat > 0,
            "{} produced no unsat verdicts",
            mode.name()
        );
    }
}

/// PR 4's observability parity guarantee, enforced at the fuzzer level:
/// running the identical fixed-seed slice with span collection forced on
/// must produce byte-identical per-mode statistics and the same (empty)
/// discrepancy set as the quiet default. Instrumentation only observes, so
/// the other test's run may overlap either phase.
#[test]
fn tracing_does_not_change_fuzz_outcomes() {
    let mut cfg = RunConfig::new(120, 7);
    cfg.write_repros = false;

    tpot_obs::configure(tpot_obs::ObsConfig::default());
    let quiet = run(&cfg);

    tpot_obs::configure(tpot_obs::ObsConfig {
        collect_spans: true,
        ..Default::default()
    });
    let traced = run(&cfg);
    let events = tpot_obs::take_events();
    tpot_obs::configure(tpot_obs::ObsConfig::default());

    assert!(
        !events.is_empty(),
        "span collection was on but no events were recorded"
    );
    assert_eq!(
        quiet.total_discrepancies(),
        0,
        "baseline fuzz run found discrepancies"
    );
    assert_eq!(
        traced.total_discrepancies(),
        0,
        "traced fuzz run found discrepancies"
    );
    for ((m_q, s_q), (m_t, s_t)) in quiet.stats.iter().zip(traced.stats.iter()) {
        assert_eq!(m_q.name(), m_t.name());
        assert_eq!(
            s_q,
            s_t,
            "{}: stats diverged between quiet and traced runs",
            m_q.name()
        );
    }
}
