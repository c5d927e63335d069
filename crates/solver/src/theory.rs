//! The theory layer: the [`TheorySolver`] module interface, the dispatcher
//! routing each atom conjunction to the cheapest complete module, and the
//! lazy SMT loop — CDCL over the boolean abstraction, with the dispatched
//! theory modules checking each propositional model and contributing
//! blocking clauses for theory conflicts.

use std::collections::BTreeMap;

use crate::cnf::{assert_formula, AtomMap};
use crate::dl::DlSolver;
use crate::formula::{Atom, Formula};
use crate::lia::{check_atom_refs, LiaConfig, LiaResult};
use crate::model::Model;
use crate::probes;
use crate::sat::{Lit, SatResult as PropResult, SatSolver};
use crate::solver::SolverStats;
use crate::term::Var;

/// Per-module statistics of one theory engine (the dispatcher's counts of
/// the same events reach [`crate::solver::SolverStats`] through
/// [`crate::probes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TheoryModuleStats {
    /// Conjunction checks answered by this module.
    pub checks: u64,
    /// Refutations (conflicts) this module derived.
    pub conflicts: u64,
    /// Module-internal propagation steps (edge relaxations for the
    /// difference-logic module; zero for the LIA module, whose interval
    /// propagation is counted inside its own search).
    pub propagations: u64,
}

/// The verdict of one theory module on its asserted conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// Consistent, with a witnessing assignment.
    Sat(BTreeMap<Var, i64>),
    /// Inconsistent. The explanation lists indices — into the order atoms
    /// were asserted — of a subset that is already inconsistent; it is
    /// what becomes the blocking clause and the shared theory lemma.
    Unsat(Vec<usize>),
    /// The module could not decide within its fragment or budget.
    Unknown,
}

/// A theory engine packaged as a module: the dispatcher asks `can_decide`
/// whether the module is complete for a conjunction, then drives it through
/// `push`/`assert`/`check`/`retract` aligned with the solver's frame
/// discipline. Implementations: [`crate::dl::DlSolver`] (the difference
/// fragment, decided exactly by negative-cycle detection) and
/// [`crate::lia::LiaModule`] (the general engine, complete up to its value
/// bound — the catch-all fallback).
pub trait TheorySolver {
    /// A short stable name for reports ("dl", "lia").
    fn name(&self) -> &'static str;
    /// Whether this module decides conjunctions of exactly these atoms.
    fn can_decide(&self, atoms: &[&Atom]) -> bool;
    /// Opens an assertion frame; [`TheorySolver::retract`] pops back to it.
    fn push(&mut self);
    /// Asserts one atom on top of the current frame. `Err` carries a
    /// conflict explanation (indices into the assertion order) when the
    /// atom made the conjunction inconsistent.
    fn assert(&mut self, atom: &Atom) -> Result<(), Vec<usize>>;
    /// Pops the most recent frame, retracting its assertions.
    fn retract(&mut self);
    /// Decides the currently asserted conjunction.
    fn check(&mut self) -> TheoryVerdict;
    /// This module's cumulative counters.
    fn stats(&self) -> TheoryModuleStats;
}

/// Drives one module over a conjunction: open a frame, assert every atom
/// (stopping at the first conflict), and check.
fn run_module<M: TheorySolver>(module: &mut M, atoms: &[&Atom]) -> TheoryVerdict {
    module.push();
    for atom in atoms {
        if module.assert(atom).is_err() {
            break;
        }
    }
    module.check()
}

/// The outcome of one dispatched theory check, shaped like the LIA result
/// the call sites already consume, plus the refutation explanation when the
/// deciding module produced one.
pub(crate) struct Dispatched {
    /// The verdict.
    pub result: LiaResult,
    /// For a difference-logic refutation: indices (into `atoms`) of the
    /// inconsistent subset. `None` when LIA decided (its refutations blame
    /// the whole conjunction) or when there was no refutation.
    pub explanation: Option<Vec<usize>>,
}

/// Routes one atom conjunction to the cheapest complete theory module: the
/// difference-logic engine when every atom lies in its fragment (and
/// [`TheoryConfig::theory_dl`] is on), the general LIA engine otherwise. Both
/// engines only ever refine each other — on fragment conjunctions DL is
/// exactly complete, so a verdict LIA could decide is never lost, and
/// conjunctions outside the fragment take the unchanged LIA path.
pub(crate) fn dispatch_check(atoms: &[&Atom], config: &TheoryConfig) -> Dispatched {
    if config.theory_dl {
        let mut dl = DlSolver::new();
        if dl.can_decide(atoms) {
            probes::bump(|p| p.dl_checks += 1);
            match run_module(&mut dl, atoms) {
                TheoryVerdict::Sat(values) => {
                    return Dispatched {
                        result: LiaResult::Sat(values),
                        explanation: None,
                    };
                }
                TheoryVerdict::Unsat(explanation) => {
                    return Dispatched {
                        result: LiaResult::Unsat,
                        explanation: Some(explanation),
                    };
                }
                // Only reachable when a model coordinate overflows `i64`;
                // fall through to the LIA engine rather than give up.
                TheoryVerdict::Unknown => {}
            }
        }
    }
    probes::bump(|p| p.theory_dispatch_lia += 1);
    Dispatched {
        result: check_atom_refs(atoms, &config.lia),
        explanation: None,
    }
}

/// The outcome of an SMT satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmtResult {
    /// Satisfiable, with a model over the integer variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Could not be decided within the configured budget.
    Unknown,
}

impl SmtResult {
    /// True when the result is [`SmtResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }

    /// True when the result is [`SmtResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SmtResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Configuration of the SMT loop.
#[derive(Debug, Clone, Copy)]
pub struct TheoryConfig {
    /// Theory-check iterations before giving up.
    pub max_iterations: u32,
    /// Configuration of the LIA model search.
    pub lia: LiaConfig,
    /// Overrides the learnt-database size that first triggers a clause-DB
    /// reduction in the CDCL core (`None` keeps the built-in threshold).
    /// A tiny limit forces reductions even on small formulas, which is how
    /// the differential tests check that deletion never changes verdicts.
    pub sat_reduce_limit: Option<usize>,
    /// Whether the dispatcher may route difference-fragment conjunctions to
    /// the [`crate::dl::DlSolver`] module (default: on). `false` reproduces
    /// the pre-DL engine exactly: the LIA-only reference the differential
    /// tests compare the DL module against.
    pub theory_dl: bool,
}

impl Default for TheoryConfig {
    fn default() -> Self {
        TheoryConfig {
            max_iterations: 256,
            lia: LiaConfig::default(),
            sat_reduce_limit: None,
            theory_dl: true,
        }
    }
}

/// Checks the conjunction of `formulas` for satisfiability.
pub fn check_conjunction(formulas: &[Formula], config: &TheoryConfig) -> SmtResult {
    check_conjunction_counted(formulas, config).0
}

/// [`check_conjunction`] together with the CDCL search counters of the
/// underlying propositional solver. They are all zero when the
/// atom-conjunction fast path decided the query without any SAT solving.
pub fn check_conjunction_counted(
    formulas: &[Formula],
    config: &TheoryConfig,
) -> (SmtResult, SolverStats) {
    // Fast path: a pure conjunction of atoms needs no SAT solving at all.
    if let Some(atoms) = as_atom_conjunction(formulas) {
        return (lia_to_smt(&atoms, formulas, config), SolverStats::ZERO);
    }

    let mut sat = SatSolver::new();
    if let Some(limit) = config.sat_reduce_limit {
        sat.set_reduce_limit(limit);
    }
    let mut atom_map = AtomMap::new();
    for formula in formulas {
        assert_formula(&mut sat, &mut atom_map, formula);
    }

    // `SatSolver::solve` resets its counters per call, so accumulate across
    // the SMT loop's iterations.
    let mut sat_stats = SolverStats::ZERO;
    let mut saw_unknown = false;
    for _iteration in 0..config.max_iterations {
        let propositional = sat.solve();
        sat_stats.merge(&sat.stats());
        match propositional {
            PropResult::Unsat => {
                let verdict = if saw_unknown {
                    SmtResult::Unknown
                } else {
                    SmtResult::Unsat
                };
                return (verdict, sat_stats);
            }
            PropResult::Sat(assignment) => {
                // Collect the theory literals chosen by the boolean model.
                let mut theory_atoms: Vec<Atom> = Vec::new();
                let mut blocking: Vec<Lit> = Vec::new();
                for (atom, var) in atom_map.iter() {
                    let value = assignment[var.index() as usize];
                    theory_atoms.push(if value { atom.clone() } else { atom.negate() });
                    blocking.push(if value {
                        var.negative()
                    } else {
                        var.positive()
                    });
                }
                let dispatched = {
                    let refs: Vec<&Atom> = theory_atoms.iter().collect();
                    dispatch_check(&refs, config)
                };
                match dispatched.result {
                    LiaResult::Sat(values) => {
                        let mut model = Model::new();
                        for (var, value) in values {
                            model.assign(var, value);
                        }
                        complete_model(&mut model, formulas);
                        if model.satisfies_all(formulas) {
                            return (SmtResult::Sat(model), sat_stats);
                        }
                        // The theory model does not extend to the boolean
                        // structure (should not happen); treat as a blocked
                        // candidate and move on.
                        saw_unknown = true;
                        sat.add_clause(blocking);
                    }
                    LiaResult::Unsat => {
                        if blocking.is_empty() {
                            // No theory atoms at all, yet the theory says
                            // inconsistent: impossible, but guard anyway.
                            return (SmtResult::Unsat, sat_stats);
                        }
                        // A module explanation narrows the blocking clause
                        // to the inconsistent subset — a strictly stronger
                        // clause over the same candidate.
                        let clause = match &dispatched.explanation {
                            Some(explanation) if !explanation.is_empty() => {
                                explanation.iter().map(|&i| blocking[i]).collect()
                            }
                            _ => blocking,
                        };
                        sat.add_clause(clause);
                    }
                    LiaResult::Unknown => {
                        saw_unknown = true;
                        if blocking.is_empty() {
                            return (SmtResult::Unknown, sat_stats);
                        }
                        sat.add_clause(blocking);
                    }
                }
            }
        }
    }
    probes::bump(|p| p.theory_iterations_exhausted += 1);
    (SmtResult::Unknown, sat_stats)
}

/// If every formula is a conjunction of atoms, return them flattened.
fn as_atom_conjunction(formulas: &[Formula]) -> Option<Vec<Atom>> {
    let mut atoms = Vec::new();
    for formula in formulas {
        collect_atoms(formula, &mut atoms)?;
    }
    Some(atoms)
}

pub(crate) fn collect_atoms(formula: &Formula, out: &mut Vec<Atom>) -> Option<()> {
    match formula {
        Formula::True => Some(()),
        Formula::Atom(a) => {
            out.push(a.clone());
            Some(())
        }
        Formula::Not(inner) => match inner.as_ref() {
            Formula::Atom(a) => {
                out.push(a.negate());
                Some(())
            }
            _ => None,
        },
        Formula::And(parts) => {
            for part in parts {
                collect_atoms(part, out)?;
            }
            Some(())
        }
        _ => None,
    }
}

fn lia_to_smt(atoms: &[Atom], formulas: &[Formula], config: &TheoryConfig) -> SmtResult {
    let refs: Vec<&Atom> = atoms.iter().collect();
    match dispatch_check(&refs, config).result {
        LiaResult::Sat(values) => {
            let mut model = Model::new();
            for (var, value) in values {
                model.assign(var, value);
            }
            complete_model(&mut model, formulas);
            if model.satisfies_all(formulas) {
                SmtResult::Sat(model)
            } else {
                SmtResult::Unknown
            }
        }
        LiaResult::Unsat => SmtResult::Unsat,
        LiaResult::Unknown => SmtResult::Unknown,
    }
}

/// Assigns zero to any variable that occurs in the formulas but not in the
/// model, so that callers always receive total models.
fn complete_model(model: &mut Model, formulas: &[Formula]) {
    let mut vars = std::collections::BTreeSet::<Var>::new();
    for formula in formulas {
        formula.collect_vars(&mut vars);
    }
    for var in vars {
        if model.value(var).is_none() {
            model.assign(var, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Term, Var};

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    fn check(formulas: &[Formula]) -> SmtResult {
        check_conjunction(formulas, &TheoryConfig::default())
    }

    #[test]
    fn conjunction_of_equalities_has_model() {
        let formulas = vec![
            Formula::eq(x(5), Term::sub(Term::int(100), x(4))),
            Formula::eq(Term::int(0), x(5)),
        ];
        match check(&formulas) {
            SmtResult::Sat(model) => {
                assert_eq!(model.value(Var::new(4)), Some(100));
                assert_eq!(model.value(Var::new(5)), Some(0));
                assert!(model.satisfies_all(&formulas));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn boolean_structure_with_theory_conflicts() {
        // (x = 0 ∨ x = 1) ∧ x ≥ 5 is unsat; both disjuncts conflict with the bound.
        let formulas = vec![
            Formula::or(vec![
                Formula::eq(x(0), Term::int(0)),
                Formula::eq(x(0), Term::int(1)),
            ]),
            Formula::ge(x(0), Term::int(5)),
        ];
        assert_eq!(check(&formulas), SmtResult::Unsat);
    }

    #[test]
    fn disjunction_picks_consistent_branch() {
        // (x = 0 ∨ x = 7) ∧ x ≥ 5  ⇒  x = 7
        let formulas = vec![
            Formula::or(vec![
                Formula::eq(x(0), Term::int(0)),
                Formula::eq(x(0), Term::int(7)),
            ]),
            Formula::ge(x(0), Term::int(5)),
        ];
        match check(&formulas) {
            SmtResult::Sat(model) => assert_eq!(model.value(Var::new(0)), Some(7)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn implication_from_case_maps() {
        // (x1 = x3 ⇒ x2 = x4) ∧ x1 = x3 ∧ x2 = 1 ∧ x4 = 0 is unsat.
        let formulas = vec![
            Formula::implies(Formula::eq(x(1), x(3)), Formula::eq(x(2), x(4))),
            Formula::eq(x(1), x(3)),
            Formula::eq(x(2), Term::int(1)),
            Formula::eq(x(4), Term::int(0)),
        ];
        assert_eq!(check(&formulas), SmtResult::Unsat);
    }

    #[test]
    fn trivially_true_assertions_are_sat() {
        assert!(check(&[Formula::True]).is_sat());
        assert!(check(&[]).is_sat());
    }

    #[test]
    fn trivially_false_assertions_are_unsat() {
        assert_eq!(check(&[Formula::False]), SmtResult::Unsat);
    }

    #[test]
    fn iteration_exhaustion_is_counted() {
        // (x = 0 ∨ x = 1) ∧ x ≥ 5 needs two theory refutations; a budget of
        // one iteration exhausts and must both answer `Unknown` and count.
        let formulas = vec![
            Formula::or(vec![
                Formula::eq(x(0), Term::int(0)),
                Formula::eq(x(0), Term::int(1)),
            ]),
            Formula::ge(x(0), Term::int(5)),
        ];
        let config = TheoryConfig {
            max_iterations: 1,
            ..TheoryConfig::default()
        };
        let before = probes::totals().theory_iterations_exhausted;
        assert_eq!(check_conjunction(&formulas, &config), SmtResult::Unknown);
        let after = probes::totals().theory_iterations_exhausted;
        assert_eq!(after - before, 1, "the exhausted loop is counted");
    }

    #[test]
    fn dispatcher_routes_difference_conjunctions_to_dl() {
        // The difference-cycle regression, checked at the dispatch level:
        // with the gate open it goes to the DL module and refutes without
        // touching the propagation ceiling; with the gate closed it takes
        // the historical LIA path into the ceiling and `Unknown`. The
        // `x ≥ 0` seed gives interval propagation a bound to chase around
        // the cycle — without it the old path converges (vacuously) at
        // `Unknown` via truncated enumeration instead.
        let formulas = vec![
            Formula::ge(x(0), Term::int(0)),
            Formula::ge(x(1), x(0)),
            Formula::le(x(1), Term::sub(x(0), Term::int(12))),
        ];
        let mut config = TheoryConfig {
            theory_dl: true,
            ..TheoryConfig::default()
        };
        let before = probes::totals();
        assert_eq!(check_conjunction(&formulas, &config), SmtResult::Unsat);
        let delta = probes::totals().since(&before);
        assert_eq!(delta.dl_checks, 1);
        assert_eq!(delta.dl_conflicts, 1);
        assert_eq!(delta.theory_dispatch_lia, 0);
        assert_eq!(delta.propagation_ceiling_hits, 0);

        config.theory_dl = false;
        let before = probes::totals();
        assert_eq!(check_conjunction(&formulas, &config), SmtResult::Unknown);
        let delta = probes::totals().since(&before);
        assert_eq!(delta.dl_checks, 0);
        assert!(delta.theory_dispatch_lia >= 1);
        assert!(
            delta.propagation_ceiling_hits >= 1,
            "the LIA path diverges into the round ceiling: {delta:?}"
        );
    }

    #[test]
    fn dispatcher_keeps_out_of_fragment_conjunctions_on_lia() {
        // A disequality is outside the difference fragment; the dispatcher
        // must leave it on the LIA engine even with the gate open.
        let formulas = vec![
            Formula::ne(x(0), x(1)),
            Formula::eq(x(0), Term::int(3)),
            Formula::eq(x(1), Term::int(3)),
        ];
        let config = TheoryConfig {
            theory_dl: true,
            ..TheoryConfig::default()
        };
        let before = probes::totals();
        assert_eq!(check_conjunction(&formulas, &config), SmtResult::Unsat);
        let delta = probes::totals().since(&before);
        assert_eq!(delta.dl_checks, 0);
        assert!(delta.theory_dispatch_lia >= 1);
    }
}
