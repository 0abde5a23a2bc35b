//! CLI driver for the fuzzing subsystem.
//!
//! ```text
//! tpot-fuzz run --iters N --seed S [--out-dir DIR] [--json PATH] [--mode M]...
//! tpot-fuzz corpus --count N --seed S --dir DIR
//! ```
//!
//! `run` exits nonzero if any discrepancy survived; reduced repros land in
//! `--out-dir` (default `fuzz-failures/`). `corpus` regenerates the
//! committed regression corpus under `crates/solver/tests/corpus/`.

use std::path::PathBuf;

use tpot_fuzz::runner::{report_json, run, Mode, RunConfig, ALL_MODES};

fn usage() -> ! {
    eprintln!(
        "usage: tpot-fuzz run [--iters N] [--seed S] [--out-dir DIR] [--json PATH] [--mode M]...\n\
                tpot-fuzz corpus [--count N] [--seed S] [--dir DIR]\n\
         modes: {}",
        ALL_MODES
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn mode_by_name(name: &str) -> Option<Mode> {
    ALL_MODES.iter().copied().find(|m| m.name() == name)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    match cmd.as_str() {
        "run" => {
            let mut cfg = RunConfig::new(10_000, 42);
            let mut json_out: Option<String> = None;
            let mut modes: Vec<Mode> = Vec::new();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--iters" => {
                        cfg.iters = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--seed" => {
                        cfg.seed = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--out-dir" => {
                        cfg.out_dir = PathBuf::from(args.next().unwrap_or_else(|| usage()))
                    }
                    "--json" => json_out = args.next(),
                    "--mode" => {
                        let name = args.next().unwrap_or_else(|| usage());
                        modes.push(mode_by_name(&name).unwrap_or_else(|| usage()));
                    }
                    _ => usage(),
                }
            }
            if !modes.is_empty() {
                cfg.modes = modes;
            }
            let report = run(&cfg);
            for (m, s) in &report.stats {
                println!(
                    "{:>14}: {} runs, {} sat, {} unsat, {} skipped, {} discrepancies",
                    m.name(),
                    s.runs,
                    s.sat,
                    s.unsat,
                    s.skipped,
                    s.discrepancies
                );
            }
            println!(
                "{} iterations in {:.1} s, {} discrepancies",
                report.iters,
                report.elapsed_ms / 1e3,
                report.total_discrepancies()
            );
            if let Some(path) = json_out {
                std::fs::write(&path, report_json(&report)).expect("write json report");
                println!("wrote {path}");
            }
            let _ = tpot_obs::flush();
            if report.total_discrepancies() > 0 {
                std::process::exit(1);
            }
        }
        "corpus" => {
            let mut count = 10usize;
            let mut seed = 42u64;
            let mut dir = PathBuf::from("crates/solver/tests/corpus");
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--count" => {
                        count = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--seed" => {
                        seed = args
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--dir" => dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
                    _ => usage(),
                }
            }
            let written = tpot_fuzz::corpus::make_corpus(seed, count, &dir).expect("write corpus");
            for p in &written {
                println!("wrote {}", p.display());
            }
        }
        _ => usage(),
    }
}
