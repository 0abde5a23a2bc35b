//! Persistent proof-cache behavior at the engine level: restart
//! round-trips must replay with a 100% query-hit rate, and entries written
//! under one engine/solver configuration must be invisible to runs under
//! another (the digest isolation that makes cross-config replay
//! impossible, not merely unlikely).

use tpot_engine::{EngineConfig, PotStatus, Verifier, VerifyOptions};
use tpot_ir::lower;

const SRC: &str = r#"
int counter;

int bump(int x) { return x + 1; }

void spec__bump(void) {
    any(int, v);
    assume(v >= 0 && v < 100);
    counter = bump(v);
    assert(counter >= 1);
}

void spec__also(void) {
    any(int, v);
    assume(v > 0 && v < 1000);
    assert(bump(v) > 1);
}
"#;

/// Paper Fig. 5, whose queries make the solver's preprocessing introduce
/// variables of its own in the engine's arena.
const FIG5: &str = r#"
int *p1, *p2;
void incr_p1(void) { *p1 = *p1 + 1; }
int inv__alloc(void) { return names_obj(p1, int) && names_obj(p2, int); }
void spec__incr_p1(void) {
  int old_p1 = *p1;
  int old_p2 = *p2;
  incr_p1();
  assert(*p1 == old_p1 + 1);
  assert(*p2 == old_p2);
}
"#;

fn module(src: &str) -> tpot_ir::Module {
    lower(&tpot_cfront::compile(src).unwrap()).unwrap()
}

fn cache_file(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "tpot_engine_proofcache_{tag}_{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn totals(results: &[tpot_engine::PotResult]) -> (u64, u64) {
    let hits = results.iter().map(|r| r.stats.cache_hits).sum();
    let misses = results.iter().map(|r| r.stats.cache_misses).sum();
    (hits, misses)
}

/// A fresh verifier over the unchanged module replays every solver query
/// from the on-disk cache: zero misses, i.e. a 100% hit rate — the engine
/// half of the daemon's `replayed` provenance tier.
#[test]
fn persistent_round_trip_replays_with_full_hit_rate() {
    for (tag, src) in [("roundtrip", SRC), ("roundtrip_fig5", FIG5)] {
        let path = cache_file(tag);
        let opts = VerifyOptions::new().jobs(1).cache_path(&path);

        let cold = Verifier::new(module(src)).verify(&opts);
        assert!(cold.iter().all(|r| matches!(r.status, PotStatus::Proved)));
        let (_, cold_misses) = totals(&cold);
        assert!(
            cold_misses > 0,
            "{tag}: cold run must actually solve something"
        );
        assert!(path.exists(), "verify() flushes the cache on exit");

        // "Restart": a brand-new verifier and module instance, same file.
        let warm = Verifier::new(module(src)).verify(&opts);
        assert!(warm.iter().all(|r| matches!(r.status, PotStatus::Proved)));
        let (warm_hits, warm_misses) = totals(&warm);
        assert_eq!(
            warm_misses, 0,
            "{tag}: 100% hit rate on the unchanged module"
        );
        assert!(
            warm_hits > 0,
            "{tag}: the hits must come from the persistent cache"
        );

        let _ = std::fs::remove_file(&path);
    }
}

/// Entries written by a `TPOT_INCREMENTAL=1`-shaped run (incremental solve
/// sessions on — the configuration under which inprocessing-era
/// simplifications are recorded) must not be consumed by a
/// `TPOT_INCREMENTAL=0` run: the engine salt folds the toggle into the
/// cache key, so the second run sees only misses rather than replaying
/// outcomes produced under a different solver pipeline.
#[test]
fn non_incremental_run_cannot_consume_incremental_entries() {
    let path = cache_file("cfg_isolation");
    let opts = VerifyOptions::new().jobs(1).cache_path(&path);

    let inc_cfg = EngineConfig {
        incremental: true,
        ..EngineConfig::default()
    };
    let first = Verifier::with_config(module(SRC), inc_cfg).verify(&opts);
    let (_, first_misses) = totals(&first);
    assert!(first_misses > 0);

    let plain_cfg = EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    };
    let second = Verifier::with_config(module(SRC), plain_cfg).verify(&opts);
    assert!(second.iter().all(|r| matches!(r.status, PotStatus::Proved)));
    let (second_hits, second_misses) = totals(&second);
    assert_eq!(
        second_hits, 0,
        "a non-incremental run must not hit entries written under the \
         incremental configuration"
    );
    assert!(second_misses > 0);

    // Sanity: re-running under the *same* non-incremental config does hit.
    let again_cfg = EngineConfig {
        incremental: false,
        ..EngineConfig::default()
    };
    let third = Verifier::with_config(module(SRC), again_cfg).verify(&opts);
    let (third_hits, third_misses) = totals(&third);
    assert_eq!(third_misses, 0);
    assert!(third_hits > 0, "same config replays fine");

    let _ = std::fs::remove_file(&path);
}

/// The two pointer encodings must not share cache entries either (the
/// `int` vs `bv` ablation changes the query language entirely).
#[test]
fn addr_modes_do_not_share_cache_entries() {
    let path = cache_file("addr_mode_isolation");

    let int_opts = VerifyOptions::new().jobs(1).cache_path(&path);
    let first = Verifier::new(module(SRC)).verify(&int_opts);
    let (_, first_misses) = totals(&first);
    assert!(first_misses > 0);

    let bv_opts = VerifyOptions::new()
        .jobs(1)
        .cache_path(&path)
        .addr_mode(tpot_engine::AddrMode::Bv);
    let second = Verifier::new(module(SRC)).verify(&bv_opts);
    let (second_hits, _) = totals(&second);
    assert_eq!(second_hits, 0, "bv run must not replay int-mode entries");

    let _ = std::fs::remove_file(&path);
}
