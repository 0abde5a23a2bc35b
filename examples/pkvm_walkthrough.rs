//! The paper's appendix A walkthrough: verifying `spec__alloc_page` of the
//! pKVM early allocator, including the `clear_page` loop invariant and the
//! quantifier-free `forall_elem` proof.
//!
//! ```sh
//! cargo run --release --example pkvm_walkthrough
//! ```

use tpot::engine::PotStatus;
use tpot::targets::target;

fn main() {
    let t = target("pkvm").expect("bundled target");
    println!(
        "Target: {} ({}, previously verified with {})",
        t.name, t.category, t.previously_verified_with
    );
    let v = t.verifier().expect("compiles");

    // The appendix proves spec__alloc_page: assuming one page is left,
    // hyp_early_alloc_page returns a non-null, zero-initialized page and
    // bumps `cur` — with the page-zeroing loop handled by
    // loopinv__clear_page (check on entry, havoc, assume, cut at the back
    // edge) and the final forall_elem discharged by skolemization plus
    // per-byte marker instantiation (§4.3).
    for pot in ["spec__init", "spec__nr_pages", "spec__alloc_page"] {
        let r = v.verify_pot(pot);
        match &r.status {
            PotStatus::Proved => println!(
                "✓ {pot}: proved in {:?} ({} queries, {} paths, {} marker instantiations)",
                r.duration,
                r.stats.num_queries,
                r.stats.paths,
                r.stats.raw_simplifications + r.stats.const_offset_hits,
            ),
            PotStatus::Failed(vs) => println!("✗ {pot}: {}", vs[0]),
            PotStatus::Error(e) => println!("! {pot}: {e}"),
        }
    }
    println!("\nFig. 7-style time breakdown for this target:");
    let mut agg = tpot::engine::Stats::default();
    let mut wall = std::time::Duration::ZERO;
    for pot in ["spec__nr_pages", "spec__alloc_page"] {
        let r = v.verify_pot(pot);
        agg.merge(&r.stats);
        wall += r.duration;
    }
    let (simp, ptr, br, ser, other) = agg.fig7_breakdown(wall);
    println!(
        "  query-simplification {simp:.1}%  SMT:pointers {ptr:.1}%  SMT:branches {br:.1}%  serialization {ser:.1}%  other {other:.1}%"
    );
}
