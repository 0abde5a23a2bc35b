//! Table 5: number of POTs and verification time per target.
//!
//! Runs every POT of the selected targets through the parallel driver
//! (`Verifier::verify` with auto job count — the paper's CI model: "TPot verifies
//! a component by running all POTs in parallel", with bounded workers and a
//! shared query cache), reporting Avg/Min/Max per-POT time, CI time (wall
//! clock for the parallel batch) and total CPU time.
//!
//! Usage: `table5 [target-fragment ...]` — default: the three small
//! targets; pass `all` for all six (long). `TPOT_PATH_JOBS` bounds the
//! workers.

use std::time::Instant;

use tpot_bench::fmt_dur;
use tpot_targets::all_targets;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let select: Vec<String> = if args.is_empty() {
        vec!["pkvm".into(), "vigor".into(), "page table".into()]
    } else if args.iter().any(|a| a == "all") {
        all_targets()
            .iter()
            .map(|t| t.name.to_lowercase())
            .collect()
    } else {
        args
    };
    println!(
        "{:<22} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Target", "#POTs", "Avg", "Min", "Max", "CI time", "CPU time"
    );
    println!("{:-<80}", "");
    for t in all_targets() {
        if !select
            .iter()
            .any(|s| t.name.to_lowercase().contains(&s.to_lowercase()))
        {
            continue;
        }
        let verifier = t.verifier().expect("target compiles");
        let wall = Instant::now();
        let results = verifier.verify(&tpot_engine::VerifyOptions::new());
        let ci = wall.elapsed();
        let mut times = Vec::new();
        let mut all_proved = true;
        for r in &results {
            if !r.status.is_proved() {
                all_proved = false;
                eprintln!("  !! {}: {:?}", r.pot, r.status);
            }
            times.push(r.duration);
        }
        let cpu: std::time::Duration = times.iter().sum();
        let avg = cpu / times.len().max(1) as u32;
        let min = times.iter().min().copied().unwrap_or_default();
        let max = times.iter().max().copied().unwrap_or_default();
        println!(
            "{:<22} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9}{}",
            t.name,
            times.len(),
            fmt_dur(avg),
            fmt_dur(min),
            fmt_dur(max),
            fmt_dur(ci),
            fmt_dur(cpu),
            if all_proved { "" } else { "  (FAILURES)" }
        );
    }
    println!();
    println!("Paper (Table 5) reference shapes: CI time pKVM 2m18s, Vigor 7m18s,");
    println!("pgtable 2m18s, USB 10m6s, Komodo-S 20m24s, Komodo* 1h4m; Komodo* is");
    println!("the slowest and pgtable the fastest-per-POT.");
}
