//! Ablations of TPot's design choices (§4.3), on the pKVM nr_pages POT and
//! the Fig. 5 naming example:
//!
//! 1. integer vs naive-bitvector pointer encoding,
//! 2. solver-aided query simplifier on vs off,
//! 3. persistent query cache cold vs warm.

use std::time::Instant;

use tpot_bench::fmt_dur;
use tpot_engine::{AddrMode, EngineConfig, Verifier};

fn fig5_module() -> tpot_ir::Module {
    let src = r#"
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
    tpot_ir::lower(&tpot_cfront::compile(src).unwrap()).unwrap()
}

fn run(m: &tpot_ir::Module, cfg: EngineConfig, pot: &str) -> (bool, std::time::Duration, u64) {
    let v = Verifier::with_config(m.clone(), cfg);
    let t0 = Instant::now();
    let r = v.verify_pot(pot);
    (r.status.is_proved(), t0.elapsed(), r.stats.num_queries)
}

fn main() {
    let m = fig5_module();
    println!("Ablation 1: pointer encoding (Fig. 5 naming example, spec__incr_p1)");
    for (name, mode) in [
        ("integer (paper)", AddrMode::Int),
        ("naive bitvector", AddrMode::Bv),
    ] {
        let cfg = EngineConfig {
            addr_mode: mode,
            ..EngineConfig::default()
        };
        let (ok, d, q) = run(&m, cfg, "spec__incr_p1");
        println!("  {name:<18} proved={ok}  time={}  queries={q}", fmt_dur(d));
    }
    println!();
    println!("Ablation 2: solver-aided query simplifier (§4.3)");
    for (name, simp) in [("simplifier on", true), ("simplifier off", false)] {
        let cfg = EngineConfig {
            simplifier: simp,
            ..EngineConfig::default()
        };
        let (ok, d, q) = run(&m, cfg, "spec__incr_p1");
        println!("  {name:<18} proved={ok}  time={}  queries={q}", fmt_dur(d));
    }
    println!();
    println!("Ablation 3: persistent query cache (§4.4) — cold vs warm CI run");
    let cache = std::env::temp_dir().join("tpot-ablation-cache.json");
    let _ = std::fs::remove_file(&cache);
    for label in ["cold", "warm"] {
        let cfg = EngineConfig {
            cache_path: Some(cache.clone()),
            ..EngineConfig::default()
        };
        let (ok, d, q) = run(&m, cfg, "spec__incr_p1");
        println!(
            "  {label:<6} cache       proved={ok}  time={}  queries={q}",
            fmt_dur(d)
        );
    }
    let _ = std::fs::remove_file(&cache);
}
