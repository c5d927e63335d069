//! The theory layer: the dispatcher routing each atom conjunction to the
//! cheapest complete theory engine, and the lazy SMT loop — CDCL over the
//! boolean abstraction, with the dispatched engine checking each
//! propositional model and contributing blocking clauses for theory
//! conflicts.
//!
//! The dispatcher reads atoms through their *theory readings*
//! (`AtomReadings`): the difference-logic constraints an atom normalises
//! to, and the linear constraint the LIA problem builder pushes for it. A
//! reading depends on the atom alone, so the persistent core keeps one set
//! per interned atom and each check reuses them; the scratch engine reads
//! its atoms afresh on every check. Both call the same dispatcher.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use crate::cnf::{assert_formula, AtomMap};
use crate::dl::{classify, DlConstraint, DlSolver};
use crate::formula::{Atom, Formula};
use crate::lia::{check_readings, lia_reading, LiaReading, LiaResult, Resume};
use crate::model::Model;
use crate::probes;
use crate::sat::{Lit, SatResult as PropResult, SatSolver};
use crate::solver::SolverStats;
use crate::term::Var;

/// The verdict of the difference-logic engine on its asserted conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TheoryVerdict {
    /// Consistent, with a witnessing assignment.
    Sat(BTreeMap<Var, i64>),
    /// Inconsistent. The explanation lists indices — into the order atoms
    /// were asserted — of a subset that is already inconsistent; it is
    /// what becomes the blocking clause and the shared theory lemma.
    Unsat(Vec<usize>),
    /// Undecided: a model coordinate does not fit in `i64`.
    Unknown,
}

/// One atom's theory readings, each computed on first request and at most
/// once: the difference-logic reading ([`crate::dl::classify`]) and the LIA
/// reading ([`crate::lia::lia_reading`]).
#[derive(Debug, Default)]
pub(crate) struct AtomReadings {
    dl: OnceCell<Option<Vec<DlConstraint>>>,
    lia: OnceCell<Option<LiaReading>>,
}

/// An atom paired with its readings: the dispatcher's input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtomRef<'a> {
    /// The atom.
    pub atom: &'a Atom,
    /// Its readings (cached per interned atom, or fresh per scratch check).
    pub readings: &'a AtomReadings,
}

impl<'a> AtomRef<'a> {
    /// The difference-logic reading; `None` outside the fragment.
    pub fn dl(&self) -> Option<&'a [DlConstraint]> {
        self.readings
            .dl
            .get_or_init(|| classify(self.atom))
            .as_deref()
    }

    /// The LIA reading; `None` for an atom with a genuine product.
    pub fn lia(&self) -> Option<&'a LiaReading> {
        self.readings
            .lia
            .get_or_init(|| lia_reading(self.atom))
            .as_ref()
    }
}

/// The outcome of one dispatched theory check, shaped like the LIA result
/// the call sites already consume, plus the refutation explanation when the
/// deciding module produced one.
#[derive(Debug, PartialEq, Eq)]
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
/// [`TheoryConfig::theory_dl`] is on), the general LIA engine
/// ([`crate::lia::check_problem`]) otherwise. Both engines only ever refine
/// each other — on fragment conjunctions DL is exactly complete, so a
/// verdict LIA could decide is never lost, and conjunctions outside the
/// fragment take the unchanged LIA path. `resume` lets a LIA check resume
/// presolve from a persistent core's cached prefix
/// ([`crate::lia::PrefixCache`]); the verdict is the same either way.
pub(crate) fn dispatch_check(
    atoms: &[AtomRef<'_>],
    config: &TheoryConfig,
    resume: Option<Resume<'_>>,
) -> Dispatched {
    if config.theory_dl && atoms.iter().all(|atom| atom.dl().is_some()) {
        probes::bump(|p| p.dl_checks += 1);
        let mut dl = DlSolver::new();
        for reading in atoms.iter().filter_map(AtomRef::dl) {
            if dl.assert_reading(reading).is_err() {
                break;
            }
        }
        match dl.check() {
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
    probes::bump(|p| p.theory_dispatch_lia += 1);
    Dispatched {
        result: check_readings(atoms, resume),
        explanation: None,
    }
}

/// [`dispatch_check`] over atoms read afresh — the scratch engine's entry.
fn dispatch_fresh(atoms: &[Atom], config: &TheoryConfig) -> Dispatched {
    let readings: Vec<AtomReadings> = atoms.iter().map(|_| AtomReadings::default()).collect();
    let refs: Vec<AtomRef<'_>> = atoms
        .iter()
        .zip(&readings)
        .map(|(atom, readings)| AtomRef { atom, readings })
        .collect();
    dispatch_check(&refs, config, None)
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
    /// Whether the dispatcher may route difference-fragment conjunctions to
    /// the difference-logic engine ([`crate::dl`]; default: on). `false`
    /// reproduces the pre-DL engine exactly: the LIA-only reference the
    /// differential tests compare the DL engine against.
    pub theory_dl: bool,
}

impl Default for TheoryConfig {
    fn default() -> Self {
        TheoryConfig {
            max_iterations: 256,
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
                let dispatched = dispatch_fresh(&theory_atoms, config);
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
    match dispatch_fresh(atoms, config).result {
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
    use crate::formula::CmpOp;
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

    /// Dispatch with no readings at all: the fragment test and every
    /// assert classify their atom on the spot, and LIA flattens every atom.
    fn dispatch_reference(atoms: &[&Atom], config: &TheoryConfig) -> Dispatched {
        if config.theory_dl && crate::dl::in_difference_fragment(atoms) {
            let mut dl = DlSolver::new();
            for atom in atoms {
                let reading = classify(atom).expect("in the fragment");
                if dl.assert_reading(&reading).is_err() {
                    break;
                }
            }
            match dl.check() {
                TheoryVerdict::Sat(values) => {
                    return Dispatched {
                        result: LiaResult::Sat(values),
                        explanation: None,
                    }
                }
                TheoryVerdict::Unsat(explanation) => {
                    return Dispatched {
                        result: LiaResult::Unsat,
                        explanation: Some(explanation),
                    }
                }
                TheoryVerdict::Unknown => {}
            }
        }
        Dispatched {
            result: crate::lia::check_atom_refs(atoms),
            explanation: None,
        }
    }

    /// SplitMix64, so the property runs are seeded and repeatable.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Le,
        CmpOp::Lt,
        CmpOp::Ge,
        CmpOp::Gt,
    ];

    /// Two pools of atoms the conjunctions draw from, so interned atoms
    /// recur and their cached readings are reused. The first holds
    /// difference constraints and bounds (every comparison but `≠`); the
    /// second adds disequalities, wider linear atoms, products of unknowns
    /// (bare, constant-folded and nested) and atoms whose normalisation
    /// overflows `i64`.
    fn atom_pools(rng: &mut Rng) -> (Vec<Atom>, Vec<Atom>) {
        let mut difference = Vec::new();
        let mut general = Vec::new();
        for _ in 0..32 {
            let op = OPS[rng.below(6) as usize];
            let (a, b) = (x(rng.below(4) as u32), x(rng.below(4) as u32));
            let c = Term::int(rng.below(11) as i64 - 5);
            let fragment_op = if op == CmpOp::Ne { CmpOp::Le } else { op };
            difference.push(match rng.below(3) {
                0 => Atom::new(a.clone(), fragment_op, c.clone()),
                _ => Atom::new(a.clone(), fragment_op, Term::add(b.clone(), c.clone())),
            });
            general.push(match rng.below(7) {
                0 => Atom::new(a, op, Term::add(b, c)),
                1 => Atom::new(Term::add(Term::mul(Term::int(2), a), b), op, c),
                2 => Atom::new(Term::mul(a, b), op, c),
                3 => Atom::new(Term::mul(Term::mul(a, b), Term::int(0)), op, c),
                4 => Atom::new(
                    Term::add(Term::mul(a, Term::add(b, c)), x(3)),
                    op,
                    Term::int(1),
                ),
                5 => Atom::new(
                    Term::add(a, Term::int(i64::MAX)),
                    op,
                    Term::sub(b, Term::int(i64::MAX)),
                ),
                _ => Atom::new(Term::mul(Term::int(i64::MIN), a), op, b),
            });
        }
        (difference, general)
    }

    #[test]
    fn cached_readings_dispatch_like_fresh_classification() {
        let mut rng = Rng(0xd15_0019);
        let (difference, general) = atom_pools(&mut rng);
        let pool: Vec<Atom> = difference.into_iter().chain(general).collect();
        let mut arena = crate::arena::Arena::new();
        let ids: Vec<_> = pool.iter().map(|atom| arena.intern_atom(atom)).collect();
        let (mut dl_routed, mut lia_decided) = (0, 0);
        for round in 0..300 {
            let config = TheoryConfig {
                theory_dl: round % 4 != 0,
                ..TheoryConfig::default()
            };
            // Even rounds draw from the difference pool only.
            let range = if round % 2 == 0 {
                pool.len() / 2
            } else {
                pool.len()
            };
            let chosen: Vec<usize> = (0..1 + rng.below(4))
                .map(|_| rng.below(range as u64) as usize)
                .collect();
            let atoms: Vec<&Atom> = chosen.iter().map(|&i| &pool[i]).collect();
            let cached: Vec<AtomRef<'_>> = chosen.iter().map(|&i| arena.atom_ref(ids[i])).collect();
            let reference = dispatch_reference(&atoms, &config);
            let owned: Vec<Atom> = atoms.iter().map(|&atom| atom.clone()).collect();
            assert_eq!(
                dispatch_check(&cached, &config, None),
                reference,
                "cached readings: {atoms:?}"
            );
            assert_eq!(
                dispatch_fresh(&owned, &config),
                reference,
                "fresh readings: {atoms:?}"
            );
            if config.theory_dl && crate::dl::in_difference_fragment(&atoms) {
                dl_routed += 1;
            } else if reference.result != LiaResult::Unknown {
                lia_decided += 1;
            }
        }
        assert!(
            dl_routed > 20 && lia_decided > 20,
            "both engines decide: {dl_routed} {lia_decided}"
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
