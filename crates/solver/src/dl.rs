//! An incremental difference-logic theory module.
//!
//! Difference logic is the fragment of linear integer arithmetic whose
//! constraints normalise to `x − y ≤ c` (including single-variable bounds,
//! read as differences against a virtual zero node). A conjunction in the
//! fragment is *exactly* decidable by a negative-cycle test over its
//! constraint graph: one node per variable, one weight-`c` edge `y → x` per
//! constraint `x − y ≤ c`; the conjunction is unsatisfiable iff the graph
//! has a negative-weight cycle, and the constraints labelling that cycle
//! are an inconsistent subset — the **explanation** that becomes a blocking
//! clause and a shared theory lemma.
//!
//! This is the engine that fixes the difference-cycle `Unknown` bug for
//! real: interval propagation diverges on contradictions like
//! `y ≥ x ∧ y ≤ x − 12` (the PR 3 fuzzer regression), where each round
//! tightens the bounds by 12 forever, and the round ceiling that cuts the
//! loop off degrades the verdict to `Unknown`. The graph test decides the
//! same conjunction in two edge insertions.
//!
//! [`DlSolver`] is incremental in the style of Cotton & Maler: it maintains
//! a **potential function** π with `π(x) ≤ π(y) + c` for every asserted
//! edge. Each new edge is checked against π in O(1); only a violated edge
//! triggers an SPFA-style repair that relaxes π forward from the edge's
//! head, and a repair that propagates back into the edge's tail has closed
//! a negative cycle. Potentials stay valid across [`DlSolver::retract`]
//! (removing constraints only removes conditions on π), so asserts after a
//! pop resume from the repaired potentials instead of recomputing them.
//! Satisfiable conjunctions get their model straight from the potentials:
//! `x ↦ π(x) − π(zero)` satisfies every asserted edge by construction.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::formula::{Atom, CmpOp};
use crate::linear::{linearise, LinExpr, Linearised};
use crate::probes;
use crate::term::Var;
use crate::theory::{TheoryModuleStats, TheorySolver, TheoryVerdict};

/// The difference-fragment reading of one normalised `expr ≤ 0` constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DlConstraint {
    /// `upper − lower ≤ bound`, with `None` standing for the zero node.
    Edge {
        /// The variable on the large side (or the zero node).
        upper: Option<Var>,
        /// The variable on the small side (or the zero node).
        lower: Option<Var>,
        /// The difference bound.
        bound: i64,
    },
    /// A variable-free constraint that holds.
    True,
    /// A variable-free constraint that cannot hold.
    False,
}

/// Reads `expr ≤ 0` as a difference constraint, or `None` when it lies
/// outside the fragment (three or more variables, or a non-±1 coefficient).
fn le_zero(expr: &LinExpr) -> Option<DlConstraint> {
    let terms: Vec<(Var, i64)> = expr.iter().filter(|(_, c)| *c != 0).collect();
    if terms.is_empty() {
        return Some(if expr.constant_part() <= 0 {
            DlConstraint::True
        } else {
            DlConstraint::False
        });
    }
    let bound = expr.constant_part().checked_neg()?;
    match terms.as_slice() {
        [(v, 1)] => Some(DlConstraint::Edge {
            upper: Some(*v),
            lower: None,
            bound,
        }),
        [(v, -1)] => Some(DlConstraint::Edge {
            upper: None,
            lower: Some(*v),
            bound,
        }),
        [(a, 1), (b, -1)] => Some(DlConstraint::Edge {
            upper: Some(*a),
            lower: Some(*b),
            bound,
        }),
        [(a, -1), (b, 1)] => Some(DlConstraint::Edge {
            upper: Some(*b),
            lower: Some(*a),
            bound,
        }),
        _ => None,
    }
}

/// Normalises one atom into difference constraints, exactly mirroring the
/// LIA problem builder's comparison normalisation (`x ≥ y + c` becomes
/// `y − x ≤ −c`, strict comparisons shift by one, an equality becomes the
/// two opposing `≤` edges). Returns `None` when the atom lies outside the
/// fragment: disequalities, products, non-unit coefficients, more than two
/// variables, or coefficient overflow during normalisation.
fn classify(atom: &Atom) -> Option<Vec<DlConstraint>> {
    let lhs = match linearise(&atom.lhs) {
        Linearised::Linear(e) => e,
        Linearised::NonLinear => return None,
    };
    let rhs = match linearise(&atom.rhs) {
        Linearised::Linear(e) => e,
        Linearised::NonLinear => return None,
    };
    let diff = lhs.checked_sub(&rhs)?;
    let constraints = match atom.op {
        CmpOp::Eq => {
            let negated = diff.checked_scale(-1)?;
            vec![le_zero(&diff)?, le_zero(&negated)?]
        }
        CmpOp::Ne => return None,
        CmpOp::Le => vec![le_zero(&diff)?],
        CmpOp::Lt => {
            let mut shifted = diff;
            shifted.add_constant(1)?;
            vec![le_zero(&shifted)?]
        }
        CmpOp::Ge => {
            let negated = diff.checked_scale(-1)?;
            vec![le_zero(&negated)?]
        }
        CmpOp::Gt => {
            let mut negated = diff.checked_scale(-1)?;
            negated.add_constant(1)?;
            vec![le_zero(&negated)?]
        }
    };
    Some(constraints)
}

/// True when every atom of the conjunction lies in the difference fragment,
/// i.e. [`DlSolver`] decides the conjunction exactly.
pub fn in_difference_fragment(atoms: &[&Atom]) -> bool {
    atoms.iter().all(|atom| classify(atom).is_some())
}

/// One edge of the constraint graph: `pot[to] ≤ pot[from] + weight` must
/// hold, and `atom` is the asserted atom that contributed it.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    weight: i128,
    atom: usize,
}

/// The incremental difference-logic solver. See the module docs for the
/// algorithm; node 0 is the virtual zero node that single-variable bounds
/// are differenced against.
#[derive(Debug, Default)]
pub struct DlSolver {
    /// Variable → graph node (allocated on first sight).
    node_of: HashMap<Var, usize>,
    /// Potential function, one entry per node (index 0: the zero node).
    pot: Vec<i128>,
    /// Outgoing edge ids per node.
    out: Vec<Vec<usize>>,
    /// Asserted edges, in assertion order (retraction truncates).
    edges: Vec<Edge>,
    /// Frame marks: `(edges.len(), asserted, undecidable)` at each push.
    frames: Vec<(usize, usize, bool)>,
    /// Atoms asserted so far (explanation indices refer to this order).
    asserted: usize,
    /// The first conflict found, as explanation indices; cleared by a
    /// retraction that discards one of the blamed atoms.
    conflict: Option<Vec<usize>>,
    /// An out-of-fragment atom slipped past `can_decide`: the module can
    /// no longer claim `Sat` (a recorded conflict stays sound).
    undecidable: bool,
    /// Potentials left mid-repair by a conflict; restored lazily on
    /// retraction.
    dirty: bool,
    stats: TheoryModuleStats,
}

impl DlSolver {
    /// Creates an empty solver (just the zero node).
    pub fn new() -> Self {
        DlSolver {
            pot: vec![0],
            out: vec![Vec::new()],
            ..DlSolver::default()
        }
    }

    /// The graph node of `var`, allocated on first use with potential 0.
    fn node(&mut self, var: Var) -> usize {
        if let Some(&node) = self.node_of.get(&var) {
            return node;
        }
        let node = self.pot.len();
        // A fresh node starts at the zero node's potential, which trivially
        // satisfies the no-edges-yet condition.
        self.pot.push(self.pot[0]);
        self.out.push(Vec::new());
        self.node_of.insert(var, node);
        node
    }

    /// Inserts the edge `pot[to] ≤ pot[from] + weight`, repairing the
    /// potential function when the new edge violates it. Returns `false`
    /// when the repair closes a negative cycle (the conjunction became
    /// inconsistent).
    fn add_edge(&mut self, from: usize, to: usize, weight: i128, atom: usize) -> bool {
        let id = self.edges.len();
        self.edges.push(Edge {
            from,
            to,
            weight,
            atom,
        });
        self.out[from].push(id);
        if self.pot[to] <= self.pot[from] + weight {
            return true;
        }
        if from == to {
            // A negative self-loop (cannot arise from difference atoms,
            // whose variable pairs are distinct after cancellation, but
            // guard anyway).
            self.dirty = true;
            self.conflict = Some(vec![atom]);
            return false;
        }
        // SPFA repair from the edge's head. The graph was consistent before
        // this edge, so every negative cycle runs through it — equivalently,
        // a relaxation wave that makes it back to `from` (which would let
        // the new edge lower `pot[to]` again, forever) proves a negative
        // cycle; a wave that dies out has restored a valid potential.
        self.pot[to] = self.pot[from] + weight;
        probes::bump(|p| p.dl_propagations += 1);
        self.stats.propagations += 1;
        let mut in_queue = vec![false; self.pot.len()];
        let mut queue = VecDeque::new();
        queue.push_back(to);
        in_queue[to] = true;
        while let Some(x) = queue.pop_front() {
            in_queue[x] = false;
            for i in 0..self.out[x].len() {
                let eid = self.out[x][i];
                let edge = self.edges[eid];
                if self.pot[edge.to] > self.pot[x] + edge.weight {
                    self.pot[edge.to] = self.pot[x] + edge.weight;
                    probes::bump(|p| p.dl_propagations += 1);
                    self.stats.propagations += 1;
                    if edge.to == from {
                        self.dirty = true;
                        self.conflict = Some(self.negative_cycle_explanation());
                        return false;
                    }
                    if !in_queue[edge.to] {
                        in_queue[edge.to] = true;
                        queue.push_back(edge.to);
                    }
                }
            }
        }
        true
    }

    /// Finds a negative cycle in the asserted edge set by Bellman–Ford from
    /// an implicit super-source and returns the distinct atoms labelling
    /// its edges — the conflict explanation. Only called when a cycle is
    /// known to exist; the `O(V·E)` cost is paid per refutation, not per
    /// assert.
    fn negative_cycle_explanation(&self) -> Vec<usize> {
        let n = self.pot.len();
        let mut dist = vec![0i128; n];
        let mut parent = vec![usize::MAX; n];
        let mut last_relaxed = usize::MAX;
        for _round in 0..=n {
            last_relaxed = usize::MAX;
            for (eid, edge) in self.edges.iter().enumerate() {
                if dist[edge.to] > dist[edge.from] + edge.weight {
                    dist[edge.to] = dist[edge.from] + edge.weight;
                    parent[edge.to] = eid;
                    last_relaxed = edge.to;
                }
            }
            if last_relaxed == usize::MAX {
                break;
            }
        }
        if last_relaxed == usize::MAX {
            // Defensive: no cycle found (should not happen) — blame the
            // whole conjunction, which is still a sound explanation.
            return (0..self.asserted).collect();
        }
        // After ≥ n relaxation rounds the last relaxed node's parent chain
        // is inside a negative cycle within n steps.
        let mut inside = last_relaxed;
        for _ in 0..n {
            inside = self.edges[parent[inside]].from;
        }
        let mut atoms = BTreeSet::new();
        let mut cursor = inside;
        loop {
            let eid = parent[cursor];
            atoms.insert(self.edges[eid].atom);
            cursor = self.edges[eid].from;
            if cursor == inside {
                break;
            }
        }
        atoms.into_iter().collect()
    }

    /// Rebuilds the potential function from scratch over the live edges,
    /// used after a retraction discarded the edges of a conflict that left
    /// the potentials mid-repair.
    fn restore_potentials(&mut self) {
        for p in &mut self.pot {
            *p = 0;
        }
        // Bellman–Ford from the all-zeros potential: the live edge set was
        // consistent before the retracted frame, so this converges.
        let n = self.pot.len();
        for _round in 0..=n {
            let mut changed = false;
            for edge in &self.edges {
                if self.pot[edge.to] > self.pot[edge.from] + edge.weight {
                    self.pot[edge.to] = self.pot[edge.from] + edge.weight;
                    changed = true;
                }
            }
            if !changed {
                self.dirty = false;
                return;
            }
        }
        // Still inconsistent after n rounds (cannot happen when the
        // surviving frames were conflict-free): stay dirty, so `check`
        // conservatively answers `Unknown` instead of claiming a model.
    }

    /// A model from the potentials, shifted so the zero node maps to 0.
    /// `None` when a value does not fit in `i64` (the caller falls back to
    /// `Unknown`, never a wrong answer).
    fn model(&self) -> Option<BTreeMap<Var, i64>> {
        let zero = self.pot[0];
        let mut model = BTreeMap::new();
        for (&var, &node) in &self.node_of {
            let value = i64::try_from(self.pot[node] - zero).ok()?;
            model.insert(var, value);
        }
        Some(model)
    }
}

impl TheorySolver for DlSolver {
    fn name(&self) -> &'static str {
        "dl"
    }

    fn can_decide(&self, atoms: &[&Atom]) -> bool {
        in_difference_fragment(atoms)
    }

    fn push(&mut self) {
        self.frames
            .push((self.edges.len(), self.asserted, self.undecidable));
    }

    fn assert(&mut self, atom: &Atom) -> Result<(), Vec<usize>> {
        let index = self.asserted;
        self.asserted += 1;
        if let Some(conflict) = &self.conflict {
            return Err(conflict.clone());
        }
        let Some(constraints) = classify(atom) else {
            // `can_decide` filters these; a stray out-of-fragment atom
            // makes the conjunction undecidable for this module (treating
            // it as a conflict would be unsound, ignoring it would let an
            // unchecked model through).
            self.undecidable = true;
            return Ok(());
        };
        for constraint in constraints {
            match constraint {
                DlConstraint::True => {}
                DlConstraint::False => {
                    self.conflict = Some(vec![index]);
                    self.stats.conflicts += 1;
                    probes::bump(|p| p.dl_conflicts += 1);
                    return Err(vec![index]);
                }
                DlConstraint::Edge {
                    upper,
                    lower,
                    bound,
                } => {
                    let to = match upper {
                        Some(v) => self.node(v),
                        None => 0,
                    };
                    let from = match lower {
                        Some(v) => self.node(v),
                        None => 0,
                    };
                    if !self.add_edge(from, to, i128::from(bound), index) {
                        let explanation = self.conflict.clone().expect("conflict recorded");
                        self.stats.conflicts += 1;
                        probes::bump(|p| p.dl_conflicts += 1);
                        return Err(explanation);
                    }
                }
            }
        }
        Ok(())
    }

    fn retract(&mut self) {
        let (edge_mark, atom_mark, undecidable) = self.frames.pop().unwrap_or((0, 0, false));
        while self.edges.len() > edge_mark {
            let edge = self.edges.pop().expect("length checked");
            let popped = self.out[edge.from].pop();
            debug_assert_eq!(popped, Some(self.edges.len()));
        }
        self.asserted = atom_mark;
        self.undecidable = undecidable;
        // A conflict always blames the atom whose edge closed the cycle, so
        // it survives retraction exactly when every blamed atom does.
        if let Some(explanation) = &self.conflict {
            if explanation.iter().any(|&index| index >= atom_mark) {
                self.conflict = None;
            }
        }
        if self.dirty && self.conflict.is_none() {
            self.restore_potentials();
        }
    }

    fn check(&mut self) -> TheoryVerdict {
        self.stats.checks += 1;
        if let Some(explanation) = &self.conflict {
            return TheoryVerdict::Unsat(explanation.clone());
        }
        if self.undecidable || self.dirty {
            return TheoryVerdict::Unknown;
        }
        match self.model() {
            Some(model) => TheoryVerdict::Sat(model),
            None => TheoryVerdict::Unknown,
        }
    }

    fn stats(&self) -> TheoryModuleStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    fn check(atoms: &[Atom]) -> TheoryVerdict {
        let refs: Vec<&Atom> = atoms.iter().collect();
        let mut dl = DlSolver::new();
        assert!(dl.can_decide(&refs), "atoms must be in the fragment");
        dl.push();
        for atom in &refs {
            if dl.assert(atom).is_err() {
                break;
            }
        }
        dl.check()
    }

    #[test]
    fn difference_cycle_regression_is_unsat_with_both_atoms_blamed() {
        // The PR 3 fuzzer regression: y ≥ x ∧ y ≤ x − 12. Interval
        // propagation diverges here; the graph test closes the weight −12
        // cycle immediately.
        let atoms = vec![
            Atom::new(x(1), CmpOp::Ge, x(0)),
            Atom::new(x(1), CmpOp::Le, Term::sub(x(0), Term::int(12))),
        ];
        match check(&atoms) {
            TheoryVerdict::Unsat(explanation) => {
                assert_eq!(explanation, vec![0, 1], "both atoms form the cycle");
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn satisfiable_chains_get_witnessing_models() {
        // x ≤ y − 3 ∧ y ≤ z ∧ z ≤ 10 ∧ x ≥ 0.
        let atoms = vec![
            Atom::new(x(0), CmpOp::Le, Term::sub(x(1), Term::int(3))),
            Atom::new(x(1), CmpOp::Le, x(2)),
            Atom::new(x(2), CmpOp::Le, Term::int(10)),
            Atom::new(x(0), CmpOp::Ge, Term::int(0)),
        ];
        match check(&atoms) {
            TheoryVerdict::Sat(model) => {
                let v = |i| model.get(&Var::new(i)).copied().expect("assigned");
                assert!(v(0) <= v(1) - 3);
                assert!(v(1) <= v(2));
                assert!(v(2) <= 10);
                assert!(v(0) >= 0);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn explanations_are_subsets_of_long_conjunctions() {
        // Irrelevant satisfiable constraints around a 3-edge negative
        // cycle: the explanation must name only the cycle's atoms.
        let atoms = vec![
            Atom::new(x(9), CmpOp::Le, Term::int(4)), // irrelevant
            Atom::new(x(0), CmpOp::Le, Term::sub(x(1), Term::int(1))),
            Atom::new(x(1), CmpOp::Le, Term::sub(x(2), Term::int(1))),
            Atom::new(x(2), CmpOp::Le, Term::sub(x(0), Term::int(1))),
            Atom::new(x(8), CmpOp::Ge, Term::int(2)), // irrelevant
        ];
        match check(&atoms) {
            TheoryVerdict::Unsat(explanation) => {
                assert_eq!(explanation, vec![1, 2, 3], "only the cycle is blamed");
            }
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn equalities_become_two_edges() {
        let atoms = vec![
            Atom::new(x(0), CmpOp::Eq, Term::add(x(1), Term::int(5))),
            Atom::new(x(1), CmpOp::Eq, Term::int(2)),
        ];
        match check(&atoms) {
            TheoryVerdict::Sat(model) => {
                assert_eq!(model.get(&Var::new(0)), Some(&7));
                assert_eq!(model.get(&Var::new(1)), Some(&2));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        let contradiction = vec![
            Atom::new(x(0), CmpOp::Eq, Term::add(x(1), Term::int(5))),
            Atom::new(x(0), CmpOp::Eq, x(1)),
        ];
        assert!(matches!(check(&contradiction), TheoryVerdict::Unsat(_)));
    }

    #[test]
    fn fragment_classification_rejects_non_difference_atoms() {
        let dl = DlSolver::new();
        let ne = Atom::new(x(0), CmpOp::Ne, x(1));
        let three_vars = Atom::new(Term::add(x(0), x(1)), CmpOp::Le, x(2));
        let scaled = Atom::new(Term::mul(Term::int(2), x(0)), CmpOp::Le, x(1));
        let product = Atom::new(Term::mul(x(0), x(1)), CmpOp::Le, Term::int(4));
        for atom in [&ne, &three_vars, &scaled, &product] {
            assert!(!dl.can_decide(&[atom]), "{atom:?} is outside the fragment");
        }
        // But bounds, strict comparisons and constants are inside.
        let bound = Atom::new(x(0), CmpOp::Lt, Term::int(3));
        let constant = Atom::new(Term::int(1), CmpOp::Le, Term::int(2));
        let cancelled = Atom::new(Term::add(x(0), x(1)), CmpOp::Le, Term::add(x(1), x(2)));
        for atom in [&bound, &constant, &cancelled] {
            assert!(dl.can_decide(&[atom]), "{atom:?} is inside the fragment");
        }
    }

    #[test]
    fn constant_falsehoods_conflict_immediately() {
        let atoms = vec![Atom::new(Term::int(3), CmpOp::Le, Term::int(1))];
        match check(&atoms) {
            TheoryVerdict::Unsat(explanation) => assert_eq!(explanation, vec![0]),
            other => panic!("expected unsat, got {other:?}"),
        }
    }

    #[test]
    fn retraction_restores_consistency_and_reuses_potentials() {
        let mut dl = DlSolver::new();
        let base = Atom::new(x(0), CmpOp::Le, Term::sub(x(1), Term::int(2)));
        let cycle = Atom::new(x(1), CmpOp::Le, Term::sub(x(0), Term::int(2)));
        dl.push();
        assert!(dl.assert(&base).is_ok());
        dl.push();
        assert!(dl.assert(&cycle).is_err(), "the cycle must conflict");
        assert!(matches!(dl.check(), TheoryVerdict::Unsat(_)));
        dl.retract();
        match dl.check() {
            TheoryVerdict::Sat(model) => {
                let v0 = model.get(&Var::new(0)).copied().expect("assigned");
                let v1 = model.get(&Var::new(1)).copied().expect("assigned");
                assert!(v0 <= v1 - 2, "retracted frame must leave a valid model");
            }
            other => panic!("expected sat after retraction, got {other:?}"),
        }
        // The surviving frame stays incremental: a compatible bound asserts
        // in O(1) against the retained potentials.
        let compatible = Atom::new(x(1), CmpOp::Ge, x(0));
        assert!(dl.assert(&compatible).is_ok());
        assert!(matches!(dl.check(), TheoryVerdict::Sat(_)));
    }

    #[test]
    fn default_gate_reads_like_lemma_sharing() {
        // Like lemma sharing, the DL module is on by default; only the
        // LIA-only reference of the differential tests switches it off.
        assert!(crate::theory::TheoryConfig::default().theory_dl);
    }
}
