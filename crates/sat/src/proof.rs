//! DRAT proof logging and an independent forward RUP checker.
//!
//! When [`crate::SatConfig::proof`] is on (`TPOT_PROOF`), the solver records
//! every clause it manipulates as a chronological list of [`ProofStep`]s:
//!
//! - [`ProofStep::Input`] — a clause asserted by the caller (an axiom; the
//!   CNF side of a DRAT refutation).
//! - [`ProofStep::Add`] — a clause the solver claims follows from what came
//!   before: learned clauses, input clauses strengthened to units by
//!   root-false literals, and the final clause of an unsatisfiability
//!   answer (the empty clause, or the negated assumptions).
//! - [`ProofStep::Delete`] — a clause the solver forgot (database
//!   reduction, scope GC).
//!
//! Every `Add` the solver emits is *reverse unit propagation* (RUP): its
//! negation unit-propagates to a conflict against the clauses alive at that
//! point. RUP steps are a syntactic subset of DRAT, so the log renders as a
//! standard DRAT file ([`ProofLog::to_drat`]) and the CNF as DIMACS
//! ([`ProofLog::to_dimacs`]) for external tools; [`check_steps`] is this
//! crate's own checker, deliberately sharing no code with the solver — it
//! has its own clause store and its own watched-literal propagation, so a
//! bug in the solver's propagation cannot vouch for itself.
//!
//! Checker semantics, and why it is sound:
//!
//! - Each `Add` is verified RUP against the *current* checker database. RUP
//!   against implied clauses only ever derives implied clauses, so by
//!   induction every accepted `Add` is a logical consequence of the inputs
//!   seen so far. An accepted empty clause therefore means the inputs are
//!   unsatisfiable, and an accepted clause `¬a₁ ∨ … ∨ ¬aₖ` means the inputs
//!   are unsatisfiable under assumptions `a₁…aₖ`.
//! - `Delete`s only shrink the database, which can make later checks
//!   *fail*, never wrongly pass. The checker ignores deletions it cannot
//!   match and refuses to delete a clause that is the pinned reason of a
//!   root-level unit (mirroring drat-trim), both of which leave it checking
//!   against a superset of the solver's database — accepted proofs remain
//!   sound, and every step the solver could justify still checks.

use std::collections::HashMap;

use crate::solver::{Lit, Var};

/// One line of the proof log, in chronological order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// A clause asserted by the caller (axiom).
    Input(Vec<Lit>),
    /// A clause the solver derived; must be RUP at this point.
    Add(Vec<Lit>),
    /// A clause the solver removed from its database.
    Delete(Vec<Lit>),
}

/// The chronological proof log of one solver instance.
#[derive(Clone, Debug, Default)]
pub struct ProofLog {
    /// All steps, in the order the solver performed them.
    pub steps: Vec<ProofStep>,
}

impl ProofLog {
    /// An empty log.
    pub fn new() -> Self {
        ProofLog::default()
    }

    /// Records an asserted input clause.
    pub fn log_input(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Input(lits.to_vec()));
    }

    /// Records a derived (RUP) clause.
    pub fn log_add(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    /// Records a deletion.
    pub fn log_delete(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    /// Total number of proof lines (inputs + adds + deletes).
    pub fn lines(&self) -> usize {
        self.steps.len()
    }

    /// The last derived clause, if any — the clause that closes an Unsat
    /// answer (empty, or the negated assumptions).
    pub fn last_add(&self) -> Option<&[Lit]> {
        self.steps.iter().rev().find_map(|s| match s {
            ProofStep::Add(c) => Some(c.as_slice()),
            _ => None,
        })
    }

    /// Renders the input clauses as a DIMACS CNF file.
    pub fn to_dimacs(&self, num_vars: usize) -> String {
        let inputs: Vec<&Vec<Lit>> = self
            .steps
            .iter()
            .filter_map(|s| match s {
                ProofStep::Input(c) => Some(c),
                _ => None,
            })
            .collect();
        let mut out = format!("p cnf {} {}\n", num_vars, inputs.len());
        for c in inputs {
            render_clause(&mut out, c);
        }
        out
    }

    /// Renders the derivation (adds and deletes) as a DRAT proof file.
    pub fn to_drat(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            match s {
                ProofStep::Input(_) => {}
                ProofStep::Add(c) => render_clause(&mut out, c),
                ProofStep::Delete(c) => {
                    out.push_str("d ");
                    render_clause(&mut out, c);
                }
            }
        }
        out
    }

    /// Runs the independent checker over the whole log.
    pub fn check(&self, num_vars: usize) -> Result<CheckStats, String> {
        check_steps(num_vars, &self.steps)
    }
}

fn render_clause(out: &mut String, c: &[Lit]) {
    for &l in c {
        out.push_str(&dimacs_lit(l).to_string());
        out.push(' ');
    }
    out.push_str("0\n");
}

/// The DIMACS integer of a literal (vars are 1-based, sign is polarity).
pub fn dimacs_lit(l: Lit) -> i64 {
    let v = l.var().0 as i64 + 1;
    if l.is_pos() {
        v
    } else {
        -v
    }
}

/// Parses a DRAT proof file into `Add`/`Delete` steps.
pub fn parse_drat(text: &str) -> Result<Vec<ProofStep>, String> {
    let mut steps = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, rest) = match line.strip_prefix("d ") {
            Some(r) => (true, r),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_ascii_whitespace() {
            let n: i64 = tok
                .parse()
                .map_err(|_| format!("line {}: bad literal {tok:?}", ln + 1))?;
            if n == 0 {
                terminated = true;
                break;
            }
            let v = Var(n.unsigned_abs() as u32 - 1);
            lits.push(Lit::new(v, n > 0));
        }
        if !terminated {
            return Err(format!("line {}: clause not 0-terminated", ln + 1));
        }
        steps.push(if is_delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(steps)
}

/// Outcome statistics of a successful check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// `Add` steps verified RUP.
    pub adds: usize,
    /// `Delete` steps honored.
    pub deletes: usize,
    /// `Delete` steps ignored (unmatched clause, or pinned as the reason of
    /// a root unit). Ignoring a delete keeps the checker's database a
    /// superset of the solver's, which is always sound.
    pub skipped_deletes: usize,
    /// `Add` steps accepted without propagation because the database was
    /// already conflicting at root.
    pub trivial_adds: usize,
}

/// Checks a chronological step list; `Err` carries the index and rendering
/// of the first step that fails RUP.
pub fn check_steps(num_vars: usize, steps: &[ProofStep]) -> Result<CheckStats, String> {
    let mut ch = Checker::new(num_vars);
    let mut stats = CheckStats::default();
    for (i, step) in steps.iter().enumerate() {
        match step {
            ProofStep::Input(c) => ch.insert(c),
            ProofStep::Add(c) => {
                if ch.root_conflict {
                    stats.trivial_adds += 1;
                } else if !ch.rup(c) {
                    return Err(format!(
                        "step {i}: clause {:?} is not RUP",
                        c.iter().map(|&l| dimacs_lit(l)).collect::<Vec<_>>()
                    ));
                }
                ch.insert(c);
                stats.adds += 1;
            }
            ProofStep::Delete(c) => {
                if ch.delete(c) {
                    stats.deletes += 1;
                } else {
                    stats.skipped_deletes += 1;
                }
            }
        }
    }
    Ok(stats)
}

/// The checker's own clause store and propagation engine. Independent of
/// [`crate::Solver`] by construction: no shared state, no shared code.
struct Checker {
    /// Clause storage; `None` = deleted (watch entries are dropped lazily).
    clauses: Vec<Option<Vec<Lit>>>,
    /// Multiset index from the normalized (sorted, deduped) literal set to
    /// live clause ids, for delete matching.
    index: HashMap<Vec<Lit>, Vec<usize>>,
    /// `watches[l.index()]` = ids of clauses currently watching literal
    /// `l` at position 0 or 1.
    watches: Vec<Vec<usize>>,
    /// Assignment per var: 0 undef, 1 true, -1 false.
    assigns: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Reason clause of a propagated var (for pinning root-unit reasons
    /// against deletion).
    reason: Vec<Option<usize>>,
    /// The database is conflicting at root: every further clause is
    /// trivially derivable.
    root_conflict: bool,
}

impl Checker {
    fn new(num_vars: usize) -> Self {
        Checker {
            clauses: Vec::new(),
            index: HashMap::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            assigns: vec![0; num_vars],
            trail: Vec::new(),
            qhead: 0,
            reason: vec![None; num_vars],
            root_conflict: false,
        }
    }

    fn ensure_var(&mut self, v: Var) {
        let need = v.0 as usize + 1;
        if self.assigns.len() < need {
            self.assigns.resize(need, 0);
            self.reason.resize(need, None);
            self.watches.resize(2 * need, Vec::new());
        }
    }

    fn value(&self, l: Lit) -> i8 {
        let a = self.assigns[l.var().0 as usize];
        if l.is_pos() {
            a
        } else {
            -a
        }
    }

    /// Assigns `l` true. Returns `false` if `l` is already false.
    fn enqueue(&mut self, l: Lit, reason: Option<usize>) -> bool {
        match self.value(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var().0 as usize;
                self.assigns[v] = if l.is_pos() { 1 } else { -1 };
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation to fixpoint; `true` = conflict found.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.0 as usize]);
            let mut j = 0;
            let mut i = 0;
            let mut conflict = false;
            'watchers: while i < ws.len() {
                let ci = ws[i];
                i += 1;
                let mut lits = match self.clauses[ci].take() {
                    Some(l) => l,
                    None => continue, // deleted; drop the stale entry
                };
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                if self.value(lits[0]) == 1 {
                    self.clauses[ci] = Some(lits);
                    ws[j] = ci;
                    j += 1;
                    continue;
                }
                for k in 2..lits.len() {
                    if self.value(lits[k]) != -1 {
                        lits.swap(1, k);
                        self.watches[lits[1].0 as usize].push(ci);
                        self.clauses[ci] = Some(lits);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting on lits[0].
                let first = lits[0];
                self.clauses[ci] = Some(lits);
                ws[j] = ci;
                j += 1;
                if self.value(first) == -1 {
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = true;
                } else {
                    self.enqueue(first, Some(ci));
                }
            }
            ws.truncate(j);
            self.watches[false_lit.0 as usize] = ws;
            if conflict {
                self.qhead = self.trail.len();
                return true;
            }
        }
        false
    }

    /// Normalizes a clause: sorted, deduped, plus a tautology flag. Sorting
    /// is by literal code, so a variable's two polarities are adjacent.
    fn normalize(lits: &[Lit]) -> (Vec<Lit>, bool) {
        let mut v = lits.to_vec();
        v.sort_unstable();
        v.dedup();
        let taut = v.windows(2).any(|w| w[1] == w[0].negate());
        (v, taut)
    }

    /// Inserts a clause into the database and propagates any consequence.
    /// Called only at root (no tentative assignments active).
    fn insert(&mut self, raw: &[Lit]) {
        let (mut lits, taut) = Self::normalize(raw);
        if taut {
            return; // never propagates, never needed
        }
        for &l in &lits {
            self.ensure_var(l.var());
        }
        if lits.is_empty() {
            self.root_conflict = true;
            return;
        }
        let id = self.clauses.len();
        // Move up to two non-false literals to the watch positions.
        let mut w = 0;
        for k in 0..lits.len() {
            if self.value(lits[k]) != -1 {
                lits.swap(w, k);
                w += 1;
                if w == 2 {
                    break;
                }
            }
        }
        self.index
            .entry(Self::normalize(&lits).0)
            .or_default()
            .push(id);
        if lits.len() >= 2 {
            self.watches[lits[0].0 as usize].push(id);
            self.watches[lits[1].0 as usize].push(id);
        }
        match w {
            0 => self.root_conflict = true,
            1 if !self.enqueue(lits[0], Some(id)) => {
                self.root_conflict = true;
            }
            _ => {}
        }
        self.clauses.push(Some(lits));
        if !self.root_conflict && self.propagate() {
            self.root_conflict = true;
        }
    }

    /// Verifies that `raw` is RUP against the current database: assuming
    /// the negation of every literal unit-propagates to a conflict.
    fn rup(&mut self, raw: &[Lit]) -> bool {
        if self.root_conflict {
            return true;
        }
        for &l in raw {
            self.ensure_var(l.var());
        }
        let mark = self.trail.len();
        let mut confl = false;
        for &l in raw {
            match self.value(l) {
                // A root/assumed unit already satisfies the clause — it is
                // implied outright (and for duplicated negations below,
                // assuming ¬l twice is a no-op, while l vs ¬l conflicts).
                1 => {
                    confl = true;
                    break;
                }
                -1 => {}
                _ => {
                    // value is Undef, so enqueueing the negation succeeds.
                    self.enqueue(l.negate(), None);
                }
            }
        }
        if !confl {
            confl = self.propagate();
        }
        // Undo the tentative assignments.
        for i in (mark..self.trail.len()).rev() {
            let v = self.trail[i].var().0 as usize;
            self.assigns[v] = 0;
            self.reason[v] = None;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        confl
    }

    /// Honors a deletion if a live, unpinned copy exists; `false` = skipped.
    fn delete(&mut self, raw: &[Lit]) -> bool {
        let (key, taut) = Self::normalize(raw);
        if taut {
            return false; // tautologies were never stored
        }
        let Some(ids) = self.index.get_mut(&key) else {
            return false;
        };
        for n in 0..ids.len() {
            let id = ids[n];
            let Some(lits) = &self.clauses[id] else {
                continue;
            };
            // Keep clauses pinned as the reason of a root unit: removing
            // one would retract a derived unit the solver still relies on.
            let pinned = self.reason[lits[0].var().0 as usize] == Some(id);
            if pinned {
                continue;
            }
            self.clauses[id] = None;
            ids.swap_remove(n);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        let v = Var(i.unsigned_abs() - 1);
        Lit::new(v, i > 0)
    }

    fn cl(ls: &[i32]) -> Vec<Lit> {
        ls.iter().map(|&i| lit(i)).collect()
    }

    #[test]
    fn accepts_resolution_chain() {
        // (1 2) (¬1 2) (¬2) ⊢ (2) ⊢ ()
        let steps = vec![
            ProofStep::Input(cl(&[1, 2])),
            ProofStep::Input(cl(&[-1, 2])),
            ProofStep::Input(cl(&[-2])),
            ProofStep::Add(cl(&[2])),
            ProofStep::Add(cl(&[])),
        ];
        let stats = check_steps(2, &steps).expect("valid proof");
        assert_eq!(stats.adds, 2);
    }

    #[test]
    fn rejects_non_rup_add() {
        let steps = vec![
            ProofStep::Input(cl(&[1, 2])),
            ProofStep::Add(cl(&[1])), // (1) does not follow by UP
        ];
        let err = check_steps(2, &steps).unwrap_err();
        assert!(err.contains("not RUP"), "{err}");
    }

    #[test]
    fn rejects_empty_clause_on_satisfiable_inputs() {
        let steps = vec![ProofStep::Input(cl(&[1])), ProofStep::Add(cl(&[]))];
        assert!(check_steps(1, &steps).is_err());
    }

    #[test]
    fn deletes_shrink_but_do_not_unsound() {
        // Delete one copy of a duplicated clause, then still derive.
        let steps = vec![
            ProofStep::Input(cl(&[1, 2])),
            ProofStep::Input(cl(&[1, 2])),
            ProofStep::Input(cl(&[-1, 2])),
            ProofStep::Input(cl(&[-2])),
            ProofStep::Delete(cl(&[1, 2])),
            ProofStep::Add(cl(&[2])),
            ProofStep::Add(cl(&[])),
        ];
        let stats = check_steps(2, &steps).expect("valid proof");
        assert_eq!(stats.deletes, 1);
    }

    #[test]
    fn pinned_reason_deletion_is_skipped() {
        // (1) propagates at root; deleting it is refused, so the later
        // derivation that relies on the unit still checks.
        let steps = vec![
            ProofStep::Input(cl(&[1])),
            ProofStep::Input(cl(&[-1, 2])),
            ProofStep::Delete(cl(&[1])),
            ProofStep::Add(cl(&[2])),
        ];
        let stats = check_steps(2, &steps).expect("valid proof");
        assert_eq!(stats.skipped_deletes, 1);
    }

    #[test]
    fn negated_assumption_clause_checks() {
        // Under assumptions {1, 2} the inputs conflict: (¬1 ¬2) is RUP.
        let steps = vec![
            ProofStep::Input(cl(&[-1, 3])),
            ProofStep::Input(cl(&[-2, -3])),
            ProofStep::Add(cl(&[-1, -2])),
        ];
        check_steps(3, &steps).expect("valid proof");
    }

    #[test]
    fn drat_roundtrip() {
        let mut log = ProofLog::new();
        log.log_input(&cl(&[1, -2]));
        log.log_add(&cl(&[1]));
        log.log_delete(&cl(&[1, -2]));
        let drat = log.to_drat();
        assert_eq!(drat, "1 0\nd 1 -2 0\n");
        let parsed = parse_drat(&drat).unwrap();
        assert_eq!(
            parsed,
            vec![ProofStep::Add(cl(&[1])), ProofStep::Delete(cl(&[1, -2]))]
        );
        let dimacs = log.to_dimacs(2);
        assert_eq!(dimacs, "p cnf 2 1\n1 -2 0\n");
    }

    #[test]
    fn tautologies_are_transparent() {
        let steps = vec![
            ProofStep::Input(cl(&[1, -1])),
            ProofStep::Add(cl(&[2, -2])),
            ProofStep::Delete(cl(&[1, -1])),
        ];
        let stats = check_steps(2, &steps).expect("tautologies check trivially");
        assert_eq!(stats.skipped_deletes, 1);
    }
}
