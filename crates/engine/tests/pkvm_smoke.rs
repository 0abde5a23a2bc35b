//! Smoke verification of the pKVM early-allocator target (the appendix A
//! walkthrough). The full evaluation harness lives in tpot-targets; this
//! test exercises the single-page POTs end to end.

use tpot_engine::{EngineConfig, PotStatus, Verifier};
use tpot_ir::lower;

fn module() -> tpot_ir::Module {
    let imp = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../targets/pkvm_early_alloc/early_alloc.c"
    ))
    .unwrap();
    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../targets/pkvm_early_alloc/spec.c"
    ))
    .unwrap();
    let src = format!("{imp}\n{spec}");
    lower(&tpot_cfront::compile(&src).unwrap()).unwrap()
}

#[test]
fn pkvm_nr_pages() {
    let m = module();
    let r = Verifier::new(m).verify_pot("spec__nr_pages");
    match &r.status {
        PotStatus::Proved => {}
        PotStatus::Failed(vs) => panic!("failed: {}", vs[0]),
        PotStatus::Error(e) => panic!("error: {e}"),
    }
}

#[test]
fn pkvm_init() {
    let m = module();
    let r = Verifier::new(m).verify_pot("spec__init");
    match &r.status {
        PotStatus::Proved => {}
        PotStatus::Failed(vs) => panic!("failed: {}", vs[0]),
        PotStatus::Error(e) => panic!("error: {e}"),
    }
    // The default configuration routes path queries through incremental
    // solve sessions: consecutive queries along a path must reuse an
    // asserted prefix rather than re-blasting from scratch.
    assert!(r.stats.session_hits + r.stats.session_misses > 0);
    assert!(
        r.stats.session_hits > 0,
        "path queries must reuse sessions ({} hits / {} misses)",
        r.stats.session_hits,
        r.stats.session_misses
    );
    // And the pipeline serialized each solver call exactly once.
    assert_eq!(r.stats.num_serializations, r.stats.num_queries);
}

#[test]
fn pkvm_init_oneshot() {
    // The incremental-sessions ablation: every query runs in a fresh
    // session that is dropped afterwards, so no session is ever reused.
    let m = module();
    let cfg = EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    };
    let r = Verifier::with_config(m, cfg).verify_pot("spec__init");
    match &r.status {
        PotStatus::Proved => {}
        PotStatus::Failed(vs) => panic!("failed: {}", vs[0]),
        PotStatus::Error(e) => panic!("error: {e}"),
    }
    assert_eq!(r.stats.session_hits, 0, "a one-shot run reused a session");
    assert!(r.stats.session_misses > 0);
    assert_eq!(r.stats.num_serializations, r.stats.num_queries);
}

#[test]
#[ignore = "the appendix-A walkthrough takes ~1 min in release (longer in debug); run with --ignored or `cargo run --release -p tpot-bench --bin pkvm_smoke`"]
fn pkvm_alloc_page() {
    let m = module();
    let r = Verifier::new(m).verify_pot("spec__alloc_page");
    match &r.status {
        PotStatus::Proved => {}
        PotStatus::Failed(vs) => panic!("failed: {}", vs[0]),
        PotStatus::Error(e) => panic!("error: {e}"),
    }
}
