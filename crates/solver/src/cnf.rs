//! Tseitin conversion from formulas to propositional clauses.
//!
//! Each distinct theory [`Atom`] is mapped to a boolean variable; the boolean
//! structure of the formula is encoded with auxiliary variables in the usual
//! equisatisfiable way. The mapping is remembered in an [`AtomMap`] so the
//! lazy SMT loop can translate a propositional model back into a conjunction
//! of theory literals.

use std::collections::HashMap;

use crate::formula::{Atom, Formula};
use crate::sat::{BVar, Lit, SatSolver};

/// Mapping from theory atoms to boolean variables.
#[derive(Debug, Default)]
pub struct AtomMap {
    by_atom: HashMap<Atom, BVar>,
}

impl AtomMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        AtomMap::default()
    }

    /// Returns the boolean variable for `atom`, allocating one in `sat` if
    /// the atom has not been seen before.
    pub fn var_for(&mut self, sat: &mut SatSolver, atom: &Atom) -> BVar {
        if let Some(&var) = self.by_atom.get(atom) {
            return var;
        }
        let var = sat.new_var();
        self.by_atom.insert(atom.clone(), var);
        var
    }

    /// Number of registered atoms.
    pub fn len(&self) -> usize {
        self.by_atom.len()
    }

    /// True if no atoms are registered.
    pub fn is_empty(&self) -> bool {
        self.by_atom.is_empty()
    }

    /// Iterates over `(atom, var)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Atom, BVar)> + '_ {
        self.by_atom.iter().map(|(a, v)| (a, *v))
    }
}

/// Asserts `formula` into the SAT solver, registering its atoms in `atoms`.
///
/// The formula is first normalised to NNF, so only conjunction, disjunction
/// and (possibly negated, but polarity is folded into the comparison) atoms
/// remain, then Tseitin-encoded.
pub fn assert_formula(sat: &mut SatSolver, atoms: &mut AtomMap, formula: &Formula) {
    let nnf = formula.to_nnf();
    match nnf {
        Formula::True => {}
        Formula::False => sat.add_clause(vec![]),
        other => {
            let lit = encode(sat, atoms, &other);
            sat.add_clause(vec![lit]);
        }
    }
}

/// Encodes an NNF formula, returning a literal equivalent to it.
fn encode(sat: &mut SatSolver, atoms: &mut AtomMap, formula: &Formula) -> Lit {
    match formula {
        Formula::True => {
            // Fresh variable constrained to true.
            let var = sat.new_var();
            sat.add_clause(vec![var.positive()]);
            var.positive()
        }
        Formula::False => {
            let var = sat.new_var();
            sat.add_clause(vec![var.negative()]);
            var.positive()
        }
        Formula::Atom(atom) => atoms.var_for(sat, atom).positive(),
        Formula::Not(inner) => encode(sat, atoms, inner).negate(),
        Formula::And(parts) => {
            let lits: Vec<Lit> = parts.iter().map(|p| encode(sat, atoms, p)).collect();
            encode_and_gate(sat, lits)
        }
        Formula::Or(parts) => {
            let lits: Vec<Lit> = parts.iter().map(|p| encode(sat, atoms, p)).collect();
            encode_or_gate(sat, lits)
        }
        // NNF conversion eliminates these; encode the gates over the
        // subformulas' literals directly instead of cloning the subtrees
        // into an expanded formula first.
        Formula::Implies(a, b) => {
            let lits = vec![encode(sat, atoms, a).negate(), encode(sat, atoms, b)];
            encode_or_gate(sat, lits)
        }
        Formula::Iff(a, b) => {
            let lit_a = encode(sat, atoms, a);
            let lit_b = encode(sat, atoms, b);
            let forward = encode_or_gate(sat, vec![lit_a.negate(), lit_b]);
            let backward = encode_or_gate(sat, vec![lit_b.negate(), lit_a]);
            encode_and_gate(sat, vec![forward, backward])
        }
    }
}

/// Introduces `out ⇔ (l₁ ∧ … ∧ lₙ)` and returns `out`. Shared with the
/// persistent core's encoder so the two engines emit identical gates.
pub(crate) fn encode_and_gate(sat: &mut SatSolver, lits: Vec<Lit>) -> Lit {
    let out = sat.new_var();
    // out → each lit
    for &lit in &lits {
        sat.add_clause(vec![out.negative(), lit]);
    }
    // all lits → out
    let mut clause: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
    clause.push(out.positive());
    sat.add_clause(clause);
    out.positive()
}

/// Introduces `out ⇔ (l₁ ∨ … ∨ lₙ)` and returns `out`. Shared with the
/// persistent core's encoder so the two engines emit identical gates.
pub(crate) fn encode_or_gate(sat: &mut SatSolver, lits: Vec<Lit>) -> Lit {
    let out = sat.new_var();
    // each lit → out
    for &lit in &lits {
        sat.add_clause(vec![lit.negate(), out.positive()]);
    }
    // out → some lit
    let mut clause: Vec<Lit> = lits.clone();
    clause.push(out.negative());
    sat.add_clause(clause);
    out.positive()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::sat::SatResult;
    use crate::term::{Term, Var};

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    #[test]
    fn atoms_are_shared() {
        let mut sat = SatSolver::new();
        let mut atoms = AtomMap::new();
        let f = Formula::and(vec![
            Formula::eq(x(0), Term::int(1)),
            Formula::or(vec![
                Formula::eq(x(0), Term::int(1)),
                Formula::eq(x(1), Term::int(2)),
            ]),
        ]);
        assert_formula(&mut sat, &mut atoms, &f);
        // x0 = 1 appears twice but is registered once.
        assert_eq!(atoms.len(), 2);
    }

    #[test]
    fn propositional_structure_is_respected() {
        // (a ∧ ¬a) is propositionally unsatisfiable even before the theory.
        let mut sat = SatSolver::new();
        let mut atoms = AtomMap::new();
        let a = Formula::eq(x(0), Term::int(1));
        let f = Formula::And(vec![a.clone(), Formula::not(a)]);
        assert_formula(&mut sat, &mut atoms, &f);
        // NNF turns ¬(x0 = 1) into x0 ≠ 1, a distinct atom, so this is SAT
        // at the boolean level; the theory solver must refute it instead.
        assert!(sat.solve().is_sat());
    }

    #[test]
    fn false_formula_gives_unsat_instance() {
        let mut sat = SatSolver::new();
        let mut atoms = AtomMap::new();
        assert_formula(&mut sat, &mut atoms, &Formula::False);
        assert_eq!(sat.solve(), SatResult::Unsat);
    }

    #[test]
    fn disjunction_requires_some_atom_true() {
        let mut sat = SatSolver::new();
        let mut atoms = AtomMap::new();
        let f = Formula::or(vec![
            Formula::eq(x(0), Term::int(1)),
            Formula::eq(x(1), Term::int(2)),
        ]);
        assert_formula(&mut sat, &mut atoms, &f);
        match sat.solve() {
            SatResult::Sat(model) => {
                let some_true = atoms.iter().any(|(_, var)| model[var.index() as usize]);
                assert!(
                    some_true,
                    "at least one disjunct atom must be assigned true"
                );
            }
            SatResult::Unsat => panic!("should be sat"),
        }
    }
}
