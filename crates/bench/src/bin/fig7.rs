//! Figure 7: breakdown of verification time into the paper's buckets —
//! Query simplification, SMT:pointers, SMT:branches, Serialization, Other —
//! as shares of the POTs' summed wall time.
//!
//! Usage: `fig7 [target-fragment ...]` (default: the three small targets).

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
        "{:<22} {:>11} {:>12} {:>12} {:>13} {:>7}",
        "Target", "QuerySimpl%", "SMT:ptrs%", "SMT:branch%", "Serialization%", "Other%"
    );
    println!("{:-<84}", "");
    for t in all_targets() {
        if !select
            .iter()
            .any(|s| t.name.to_lowercase().contains(&s.to_lowercase()))
        {
            continue;
        }
        let v = t.verifier().expect("target compiles");
        let mut agg = tpot_engine::Stats::default();
        let mut wall = std::time::Duration::ZERO;
        for pot in v.module.pot_names() {
            let r = v.verify_pot(&pot);
            agg.merge(&r.stats);
            wall += r.duration;
        }
        let (simp, ptr, br, ser, other) = agg.fig7_breakdown(wall);
        println!(
            "{:<22} {:>11.1} {:>12.1} {:>12.1} {:>13.1} {:>7.1}",
            t.name, simp, ptr, br, ser, other
        );
        // Pipeline counters behind the Serialization bucket: queries per
        // purpose and one serialization per query.
        println!(
            "{:<22}   queries {} (ptr {}, branch {}, assert {}, simplify {}), \
serializations {}, wall {:.1} s",
            "",
            agg.num_queries,
            agg.pointer_queries,
            agg.branch_queries,
            agg.assertion_queries,
            agg.simplify_queries,
            agg.num_serializations,
            wall.as_secs_f64()
        );
    }
    println!();
    println!("Paper shape (Fig. 7): solver work dominates (53-80% across SMT buckets),");
    println!("serialization is a visible 8-28% slice, simplification a minor one.");
}
