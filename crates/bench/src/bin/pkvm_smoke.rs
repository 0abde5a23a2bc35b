//! Quick verification run of the pKVM early-allocator target:
//! `pkvm_smoke [pot...]`. Under `TPOT_BLAME=1` each POT's five costliest
//! assumptions follow its line.

use tpot_engine::{PotStatus, Verifier};

fn main() {
    let imp = std::fs::read_to_string("targets/pkvm_early_alloc/early_alloc.c").unwrap();
    let spec = std::fs::read_to_string("targets/pkvm_early_alloc/spec.c").unwrap();
    let src = format!("{imp}\n{spec}");
    let m = tpot_ir::lower(&tpot_cfront::compile(&src).unwrap()).unwrap();
    let v = Verifier::new(m);
    let only: Vec<String> = std::env::args().skip(1).collect();
    for pot in v.module.pot_names() {
        if !only.is_empty() && !only.contains(&pot) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let r = v.verify_pot(&pot);
        let status = match &r.status {
            PotStatus::Proved => "PROVED".to_string(),
            PotStatus::Failed(vs) => format!("FAILED: {}", vs[0]),
            PotStatus::Error(e) => format!("ERROR: {e}"),
        };
        println!(
            "{pot}: {status} in {:?} ({} queries, {} paths, {} insts)",
            t0.elapsed(),
            r.stats.num_queries,
            r.stats.paths,
            r.stats.insts
        );
        for e in r.blame.iter().take(5) {
            println!("    {}", e.render());
        }
    }
}
