//! Behavioral tests for the CDCL internals on hand-written DIMACS
//! instances: unit propagation (no decisions needed), conflict analysis
//! and clause learning (learnt-clause statistics), and restart policy
//! (Luby schedule driven by `restart_base`).

use tpot_sat::{parse_dimacs, solver_from_dimacs, SatConfig, SatResult, Var};

/// Horn chain: setting x1 forces x2, …, x6 by unit propagation alone.
const CHAIN: &str = "\
c implication chain
p cnf 6 6
1 0
-1 2 0
-2 3 0
-3 4 0
-4 5 0
-5 6 0
";

/// Pigeonhole PHP(n, n-1): n pigeons into n-1 holes, unsatisfiable and
/// requires genuine conflict-driven learning (no polynomial resolution
/// refutation in general).
fn php(pigeons: u32, holes: u32) -> String {
    let mut s = format!("c php({pigeons},{holes})\n");
    let var = |i: u32, j: u32| (i * holes + j + 1) as i64;
    let mut clauses: Vec<String> = Vec::new();
    for i in 0..pigeons {
        let c: Vec<String> = (0..holes).map(|j| var(i, j).to_string()).collect();
        clauses.push(format!("{} 0", c.join(" ")));
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                clauses.push(format!("-{} -{} 0", var(i1, j), var(i2, j)));
            }
        }
    }
    s.push_str(&format!("p cnf {} {}\n", pigeons * holes, clauses.len()));
    for c in &clauses {
        s.push_str(c);
        s.push('\n');
    }
    s
}

#[test]
fn unit_propagation_solves_chain_without_decisions() {
    let inst = parse_dimacs(CHAIN).expect("valid DIMACS");
    let mut s = solver_from_dimacs(SatConfig::default(), &inst);
    assert_eq!(s.solve(&[]), SatResult::Sat);
    // Every assignment is forced at level 0 while the clauses are added;
    // the search loop must not need a single decision or conflict.
    assert_eq!(s.num_decisions, 0, "chain must be solved by propagation");
    assert_eq!(s.num_conflicts, 0);
    for v in 0..6 {
        assert!(s.model_value(Var(v)), "x{} must be forced true", v + 1);
    }
}

#[test]
fn conflict_analysis_learns_clauses_on_pigeonhole() {
    let inst = parse_dimacs(&php(5, 4)).expect("valid DIMACS");
    let mut s = solver_from_dimacs(SatConfig::default(), &inst);
    assert_eq!(s.solve(&[]), SatResult::Unsat);
    assert!(
        s.num_conflicts > 0,
        "PHP cannot be refuted without conflicts"
    );
    assert!(
        s.num_learned > 0,
        "every conflict must produce a learnt clause"
    );
    // First-UIP analysis derives exactly one clause per conflict, except
    // the final conflict at decision level 0 which ends the search.
    assert!(
        s.num_learned == s.num_conflicts || s.num_learned + 1 == s.num_conflicts,
        "learned {} vs conflicts {}",
        s.num_learned,
        s.num_conflicts
    );
}

#[test]
fn learned_clauses_do_not_change_verdicts() {
    // Same satisfiable instance solved repeatedly under different
    // assumptions: clauses learned in earlier calls persist, and must
    // never flip a verdict (they are implied by the original clauses).
    let text = "\
p cnf 4 4
1 2 0
-1 3 0
-2 4 0
-3 -4 0
";
    let inst = parse_dimacs(text).expect("valid DIMACS");
    let aggressive = SatConfig {
        restart_base: 32,
        var_decay: 0.85,
        ..SatConfig::default()
    };
    let mut s = solver_from_dimacs(aggressive, &inst);
    assert_eq!(s.solve(&[]), SatResult::Sat);
    let verdicts: Vec<SatResult> = (0..4)
        .map(|v| s.solve(&[tpot_sat::Lit::pos(Var(v))]))
        .collect();
    // x1 ⇒ x3 ⇒ ¬x4 ⇒ ¬x2 is consistent; likewise each other assumption
    // alone. Re-solving must reproduce the same verdicts.
    for (v, &r) in verdicts.iter().enumerate() {
        assert_eq!(r, s.solve(&[tpot_sat::Lit::pos(Var(v as u32))]));
        assert_eq!(r, SatResult::Sat);
    }
}

#[test]
fn restart_schedule_follows_restart_base() {
    let inst = parse_dimacs(&php(6, 5)).expect("valid DIMACS");

    // Eager restarts: base 1 restarts after nearly every conflict.
    let mut eager = solver_from_dimacs(
        SatConfig {
            restart_base: 1,
            ..SatConfig::default()
        },
        &inst,
    );
    assert_eq!(eager.solve(&[]), SatResult::Unsat);
    assert!(
        eager.num_restarts > 0,
        "restart_base=1 must trigger restarts on a conflict-heavy instance"
    );

    // Effectively disabled restarts: base larger than any conflict count.
    let mut lazy = solver_from_dimacs(
        SatConfig {
            restart_base: u64::MAX / 2,
            ..SatConfig::default()
        },
        &inst,
    );
    assert_eq!(lazy.solve(&[]), SatResult::Unsat);
    assert_eq!(lazy.num_restarts, 0, "huge restart_base must never restart");

    // Restarting must not change the verdict, only the search trajectory.
    assert!(eager.num_conflicts > 0 && lazy.num_conflicts > 0);
}
