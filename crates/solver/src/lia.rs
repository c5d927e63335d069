//! Theory solver for (quasi-)linear integer arithmetic.
//!
//! The theory solver decides conjunctions of integer comparisons. Its job in
//! the lazy SMT loop is twofold:
//!
//! 1. decide whether the conjunction of theory literals selected by the SAT
//!    solver is consistent, and
//! 2. when it is, produce an explicit integer **model** — the model is what
//!    becomes the concrete counterexample after it is plugged back into the
//!    symbolic heap.
//!
//! A check runs these steps in order:
//!
//! 1. **build** the problem: each atom's linear constraint (its cached
//!    reading, or flattened here when it multiplies two unknowns, which
//!    adds a product constraint over a fresh variable), with the sets of
//!    variables the constraints and the atoms mention;
//! 2. **presolve**: eliminate every variable an equality defines with a
//!    ±1 coefficient, substituting its definition through the other
//!    constraints (and reversing the eliminations when a model is found);
//!    a constraint that becomes a false constant refutes the conjunction;
//! 3. **echelon**: fraction-free Gaussian elimination with a GCD
//!    divisibility test over the equalities presolve leaves, which
//!    refutes what no unit substitution exposes, such as
//!    `2·x0 = 2·x1 + 1`;
//! 4. interval (bounds) propagation over the remaining constraints, and a
//!    backtracking, small-values-first model search with forced-assignment
//!    propagation, which handles disequalities and the product
//!    constraints;
//! 5. the model gate: the reconstructed model must satisfy every built
//!    constraint.
//!
//! Building and presolve are both extensions of an empty state, and
//! presolve is order-preserving: it always eliminates through the first
//! eligible equality in constraint order and removes it without reordering
//! the rest. So both are prefix-compositional — building or presolving
//! `P ++ Δ` equals extending the state of `P` by `Δ` — and the persistent
//! solver core exploits it: along one symbolic path each query's
//! conjunction is the previous query's cone plus a few atoms. The core
//! keeps a `PrefixCache` of the last few product-free cones it sent here.
//! An entry holds the cone's atom ids, its built problem (the constraints,
//! shared through `Rc`, and the two variable sets) and that problem's
//! presolved state (definitions and remaining constraints, also behind
//! `Rc`). A check extends the longest entry that leads its cone by the
//! atoms past it, caches the result, and extends that by the query's
//! assumptions: resuming copies pointers and sets, never a [`LinExpr`],
//! and re-reads no cached atom. A conjunction without such a prefix (and
//! [`check_problem`], the scratch engine's path) extends the empty
//! states through the same code. The echelon runs after presolve, on
//! what it leaves — a few non-unit equalities where the whole path holds
//! one equality per step — so no step re-walks the whole path's
//! equalities; the residual variable list, the model reconstruction and
//! the model gate still walk the whole conjunction.
//!
//! The search is complete up to its value bound (±256); when it gives up
//! it reports [`LiaResult::Unknown`] rather than guessing, which is exactly
//! the "relative" part of relative completeness.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::arena::AtomId;
use crate::formula::{Atom, CmpOp};
use crate::linear::{linearise, LinExpr, Linearised};
use crate::term::{Term, Var};
use crate::theory::AtomRef;

/// Relation of a linear expression to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr = 0`
    Eq,
    /// `expr ≤ 0`
    Le,
    /// `expr ≠ 0`
    Ne,
}

/// A linear constraint `expr op 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearConstraint {
    /// The linear expression compared against zero.
    pub expr: LinExpr,
    /// The relation.
    pub op: ConstraintOp,
}

/// A product constraint `result = left · right` where both factors are
/// non-constant. `result` is always a fresh variable introduced during
/// flattening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductConstraint {
    /// Variable equal to the product.
    pub result: Var,
    /// Left factor.
    pub left: LinExpr,
    /// Right factor.
    pub right: LinExpr,
}

/// A conjunction of linear and product constraints.
///
/// The linear constraints sit behind `Rc`, so copying a problem copies
/// pointers, never a [`LinExpr`]: a persistent core keeps the problem of a
/// cone it checked and extends a copy by the next cone's new atoms.
#[derive(Debug, Clone, Default)]
pub struct LiaProblem {
    /// Linear constraints, in atom order.
    pub linear: Vec<Rc<LinearConstraint>>,
    /// Product constraints.
    pub products: Vec<ProductConstraint>,
    /// All variables mentioned (including fresh product variables).
    pub vars: BTreeSet<Var>,
    /// Variables that appeared in the original atoms (not introduced by
    /// flattening); these are the ones reported in models.
    pub original_vars: BTreeSet<Var>,
}

/// Result of a theory consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiaResult {
    /// Consistent, with a witnessing integer assignment.
    Sat(BTreeMap<Var, i64>),
    /// Inconsistent.
    Unsat,
    /// The solver could not decide within its budget.
    Unknown,
}

/// Absolute bound on enumerated values for otherwise-unbounded variables.
const VALUE_BOUND: i64 = 256;

/// Maximum number of search nodes explored before giving up.
const NODE_BUDGET: u64 = 20_000;

/// Errors that can occur while building a [`LiaProblem`] from atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Coefficient arithmetic overflowed `i64`.
    Overflow,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Overflow => write!(f, "coefficient arithmetic overflowed"),
        }
    }
}

impl std::error::Error for BuildError {}

impl LiaProblem {
    /// Builds a problem from a conjunction of atoms.
    pub fn from_atoms(atoms: &[Atom]) -> Result<LiaProblem, BuildError> {
        let refs: Vec<&Atom> = atoms.iter().collect();
        LiaProblem::from_atom_refs(&refs)
    }

    /// [`LiaProblem::from_atoms`] over borrowed atoms, for callers (the
    /// hash-consing solver core) whose atoms live in an arena and should not
    /// be cloned per check.
    pub fn from_atom_refs(atoms: &[&Atom]) -> Result<LiaProblem, BuildError> {
        LiaProblem::default().extend(atoms.iter().map(|&atom| (atom, None)))
    }

    /// This problem extended by a conjunction of atoms, each of which may
    /// come with its [`lia_reading`] already computed. An atom with a
    /// reading contributes that constraint as is (a pointer copy); an atom
    /// without one (a product atom) is flattened here, its fresh product
    /// variables numbered past every variable seen so far. When this
    /// problem holds no product constraint, the result equals building
    /// the whole conjunction from the empty problem, which numbers product
    /// variables past the conjunction's largest variable.
    fn extend<'a, I>(mut self, atoms: I) -> Result<LiaProblem, BuildError>
    where
        I: Iterator<Item = (&'a Atom, Option<&'a LiaReading>)> + Clone,
    {
        for (atom, _) in atoms.clone() {
            atom.collect_vars(&mut self.original_vars);
        }
        // Without products every variable is an original one; with them,
        // fresh numbering must also pass the product variables.
        let mut fresh = self
            .original_vars
            .last()
            .max(self.vars.last())
            .map(|v| v.index() + 1)
            .unwrap_or(0);
        for (atom, reading) in atoms {
            let constraint = match reading {
                Some(reading) => Rc::clone(reading.as_ref().map_err(Clone::clone)?),
                None => Rc::new(atom_constraint(atom, &mut fresh, &mut self)?),
            };
            self.vars.extend(constraint.expr.vars());
            self.linear.push(constraint);
        }
        Ok(self)
    }

    fn push_product(&mut self, result: Var, left: LinExpr, right: LinExpr) {
        self.vars.insert(result);
        for v in left.vars().chain(right.vars()) {
            self.vars.insert(v);
        }
        self.products.push(ProductConstraint {
            result,
            left,
            right,
        });
    }

    /// Checks an assignment against every constraint of the problem.
    pub fn satisfied_by(&self, assignment: &BTreeMap<Var, i64>) -> bool {
        satisfies(&self.linear, &self.products, assignment)
    }
}

/// Checks an assignment against linear and product constraints.
fn satisfies<C: std::borrow::Borrow<LinearConstraint>>(
    linear: &[C],
    products: &[ProductConstraint],
    assignment: &BTreeMap<Var, i64>,
) -> bool {
    let lookup = |v: Var| assignment.get(&v).copied();
    for c in linear {
        let c = c.borrow();
        let Some(value) = c.expr.eval(&lookup) else {
            return false;
        };
        if !constant_holds(c.op, value) {
            return false;
        }
    }
    for p in products {
        let (Some(result), Some(left), Some(right)) = (
            lookup(p.result),
            p.left.eval(&lookup),
            p.right.eval(&lookup),
        ) else {
            return false;
        };
        match left.checked_mul(right) {
            Some(product) if product == result => {}
            _ => return false,
        }
    }
    true
}

/// The linear constraint one atom contributes: both sides flattened (product
/// constraints for non-constant multiplications go to `problem`), their
/// difference compared against zero, strict comparisons shifted by one and
/// `≥`/`>` negated into `≤`.
fn atom_constraint(
    atom: &Atom,
    fresh: &mut u32,
    problem: &mut LiaProblem,
) -> Result<LinearConstraint, BuildError> {
    let lhs = flatten(&atom.lhs, fresh, problem)?;
    let rhs = flatten(&atom.rhs, fresh, problem)?;
    let diff = lhs.checked_sub(&rhs).ok_or(BuildError::Overflow)?;
    let (expr, op) = match atom.op {
        CmpOp::Eq => (diff, ConstraintOp::Eq),
        CmpOp::Ne => (diff, ConstraintOp::Ne),
        CmpOp::Le => (diff, ConstraintOp::Le),
        CmpOp::Lt => {
            let mut shifted = diff;
            shifted.add_constant(1).ok_or(BuildError::Overflow)?;
            (shifted, ConstraintOp::Le)
        }
        CmpOp::Ge => {
            let negated = diff.checked_scale(-1).ok_or(BuildError::Overflow)?;
            (negated, ConstraintOp::Le)
        }
        CmpOp::Gt => {
            let mut negated = diff.checked_scale(-1).ok_or(BuildError::Overflow)?;
            negated.add_constant(1).ok_or(BuildError::Overflow)?;
            (negated, ConstraintOp::Le)
        }
    };
    Ok(LinearConstraint { expr, op })
}

/// An atom's built constraint, shared so that every problem it enters holds
/// the same `Rc`, or the overflow that aborts building it.
pub(crate) type LiaReading = Result<Rc<LinearConstraint>, BuildError>;

/// The LIA reading of one atom: the constraint [`LiaProblem`] building
/// pushes for it, or the overflow that aborts the build. `None` for an atom
/// with a genuine product, whose flattening introduces product variables
/// numbered across the whole conjunction — those atoms are flattened per
/// conjunction. A reading depends on the atom alone, so the solver core
/// computes it once per interned atom.
pub(crate) fn lia_reading(atom: &Atom) -> Option<LiaReading> {
    let mut scratch = LiaProblem::default();
    let constraint = atom_constraint(atom, &mut 0, &mut scratch).map(Rc::new);
    scratch.products.is_empty().then_some(constraint)
}

/// Flattens a term into a linear expression, introducing product constraints
/// for non-constant multiplications.
fn flatten(term: &Term, fresh: &mut u32, problem: &mut LiaProblem) -> Result<LinExpr, BuildError> {
    match term {
        Term::Mul(a, b) => {
            // Try full linearisation first: constant folding may remove the product.
            if let Linearised::Linear(e) = linearise(term) {
                return Ok(e);
            }
            let left = flatten(a, fresh, problem)?;
            let right = flatten(b, fresh, problem)?;
            if let Some(k) = left.as_constant() {
                return right.checked_scale(k).ok_or(BuildError::Overflow);
            }
            if let Some(k) = right.as_constant() {
                return left.checked_scale(k).ok_or(BuildError::Overflow);
            }
            let result = Var::new(*fresh);
            *fresh += 1;
            problem.push_product(result, left, right);
            Ok(LinExpr::variable(result))
        }
        Term::Add(a, b) => {
            let left = flatten(a, fresh, problem)?;
            let right = flatten(b, fresh, problem)?;
            left.checked_add(&right).ok_or(BuildError::Overflow)
        }
        Term::Sub(a, b) => {
            let left = flatten(a, fresh, problem)?;
            let right = flatten(b, fresh, problem)?;
            left.checked_sub(&right).ok_or(BuildError::Overflow)
        }
        Term::Neg(a) => {
            let inner = flatten(a, fresh, problem)?;
            inner.checked_scale(-1).ok_or(BuildError::Overflow)
        }
        Term::Int(n) => Ok(LinExpr::constant(*n)),
        Term::Var(v) => Ok(LinExpr::variable(*v)),
    }
}

// ---------------------------------------------------------------------------
// Equality-substitution presolve.
// ---------------------------------------------------------------------------

/// One eliminated variable: `var = expr` holds, where `expr` ranges over the
/// variables still live when `var` was eliminated.
#[derive(Debug, PartialEq, Eq)]
struct Definition {
    var: Var,
    expr: LinExpr,
}

/// A presolved conjunction: the definitions of the eliminated variables and
/// the constraints that remain once every definition is substituted.
///
/// Elimination is order-preserving — it always takes the first eligible
/// equality in constraint order (an equality with a ±1 coefficient on a
/// variable that is not a product result) and removes it without
/// reordering the rest — so presolving `P ++ Δ` equals presolving `P` and
/// then [`Presolved::extend`]ing the result by `Δ`. Definitions and
/// remaining constraints sit behind `Rc`, so a copy of a state copies
/// pointers, never a [`LinExpr`]: a persistent core keeps the state of the
/// cone it last checked and resumes from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Presolved {
    /// Eliminated variables, in elimination order.
    definitions: Vec<Rc<Definition>>,
    /// The remaining linear constraints in constraint order, none of them
    /// constant.
    linear: Vec<Rc<LinearConstraint>>,
    /// The product constraints.
    products: Vec<ProductConstraint>,
    /// Arithmetic overflow stopped elimination: later constraints are only
    /// substituted, never eliminated from.
    stopped: bool,
    /// Some constraint reduced to a contradiction.
    infeasible: bool,
}

/// Whether the constant `value` satisfies `value op 0`.
fn constant_holds(op: ConstraintOp, value: i64) -> bool {
    match op {
        ConstraintOp::Eq => value == 0,
        ConstraintOp::Le => value <= 0,
        ConstraintOp::Ne => value != 0,
    }
}

impl Presolved {
    /// Presolves a whole conjunction: [`Presolved::extend`] from the empty
    /// state, which has no definitions to substitute and so cannot fail.
    fn new(linear: &[Rc<LinearConstraint>], products: &[ProductConstraint]) -> Presolved {
        Presolved::default()
            .extend(linear, products)
            .expect("the empty state substitutes nothing")
    }

    /// This state extended by the constraints `linear` and `products`: each
    /// is rewritten by the definitions in elimination order and appended
    /// (a constraint no definition touches is appended as the same `Rc`),
    /// then elimination continues. The result equals presolving the whole
    /// conjunction from scratch. `None` when rewriting a new constraint by
    /// an existing definition overflows — presolving from scratch would
    /// have stopped before that definition, so the caller must start over.
    fn extend(
        mut self,
        linear: &[Rc<LinearConstraint>],
        products: &[ProductConstraint],
    ) -> Option<Presolved> {
        if self.infeasible {
            return Some(self);
        }
        let start = self.linear.len();
        for constraint in linear {
            let constraint = match self.rewrite(&constraint.expr)? {
                Cow::Borrowed(_) => Rc::clone(constraint),
                Cow::Owned(expr) => Rc::new(LinearConstraint {
                    expr,
                    op: constraint.op,
                }),
            };
            match constraint.expr.as_constant() {
                Some(value) if constant_holds(constraint.op, value) => {}
                Some(_) => {
                    self.infeasible = true;
                    return Some(self);
                }
                None => self.linear.push(constraint),
            }
        }
        for product in products {
            let left = self.rewrite(&product.left)?.into_owned();
            let right = self.rewrite(&product.right)?.into_owned();
            self.products.push(ProductConstraint {
                result: product.result,
                left,
                right,
            });
        }
        if !self.stopped {
            self.eliminate_from(start);
        }
        Some(self)
    }

    /// `expr` with every definition substituted in elimination order;
    /// borrowed when no definition applies.
    fn rewrite<'e>(&self, expr: &'e LinExpr) -> Option<Cow<'e, LinExpr>> {
        let mut expr = Cow::Borrowed(expr);
        for definition in &self.definitions {
            if expr.coeff(definition.var) != 0 {
                expr = Cow::Owned(substitute_expr(&expr, definition.var, &definition.expr)?);
            }
        }
        Some(expr)
    }

    /// The variable an equality defines and its definition: the first
    /// variable with a ±1 coefficient that is not a product result.
    fn candidate(&self, constraint: &LinearConstraint) -> Option<(Var, LinExpr)> {
        if constraint.op != ConstraintOp::Eq {
            return None;
        }
        for (var, coeff) in constraint.expr.iter() {
            if (coeff == 1 || coeff == -1) && self.products.iter().all(|p| p.result != var) {
                // var = -(expr - coeff·var) / coeff
                let mut rest = constraint.expr.clone();
                if rest.add_term(var, -coeff).is_none() {
                    continue;
                }
                let Some(definition) = rest.checked_scale(-coeff) else {
                    continue;
                };
                return Some((var, definition));
            }
        }
        None
    }

    /// Eliminates variables until no equality is eligible, given that none
    /// before `cursor` is.
    fn eliminate_from(&mut self, mut cursor: usize) {
        while let Some((index, var, definition)) = self.linear[cursor..]
            .iter()
            .enumerate()
            .find_map(|(offset, constraint)| {
                let (var, definition) = self.candidate(constraint)?;
                Some((cursor + offset, var, definition))
            })
        {
            // Rewrite every affected constraint before changing any, so an
            // overflow stops elimination with the state intact.
            let (Some(linear), Some(products)) = (
                self.rewritten_linear(index, var, &definition),
                self.rewritten_products(var, &definition),
            ) else {
                self.stopped = true;
                return;
            };
            cursor = linear.first().map_or(index, |&(first, _)| first.min(index));
            for (i, expr) in linear {
                let op = self.linear[i].op;
                self.linear[i] = Rc::new(LinearConstraint { expr, op });
            }
            self.products = products;
            self.linear.remove(index);
            // Only rewritten constraints can have become constant, and all
            // of them sit at or after the cursor.
            let mut infeasible = false;
            self.linear.retain(|c| match c.expr.as_constant() {
                Some(value) => {
                    infeasible |= !constant_holds(c.op, value);
                    false
                }
                None => true,
            });
            self.definitions.push(Rc::new(Definition {
                var,
                expr: definition,
            }));
            if infeasible {
                self.infeasible = true;
                return;
            }
        }
    }

    /// The linear constraints other than `index` that mention `var`,
    /// rewritten by `var = definition` and paired with their indices.
    /// `None` on arithmetic overflow.
    fn rewritten_linear(
        &self,
        index: usize,
        var: Var,
        definition: &LinExpr,
    ) -> Option<Vec<(usize, LinExpr)>> {
        let mut linear = Vec::new();
        for (i, c) in self.linear.iter().enumerate() {
            if i != index && c.expr.coeff(var) != 0 {
                linear.push((i, substitute_expr(&c.expr, var, definition)?));
            }
        }
        Some(linear)
    }

    /// Every product constraint rewritten by `var = definition`. `None` on
    /// arithmetic overflow.
    fn rewritten_products(&self, var: Var, definition: &LinExpr) -> Option<Vec<ProductConstraint>> {
        self.products
            .iter()
            .map(|p| {
                Some(ProductConstraint {
                    result: p.result,
                    left: substitute_expr(&p.left, var, definition)?,
                    right: substitute_expr(&p.right, var, definition)?,
                })
            })
            .collect()
    }
}

fn substitute_expr(expr: &LinExpr, var: Var, definition: &LinExpr) -> Option<LinExpr> {
    let coeff = expr.coeff(var);
    if coeff == 0 {
        return Some(expr.clone());
    }
    // `checked_neg` fails only for `i64::MIN`, where removing the term by
    // adding `-coeff` would overflow anyway.
    let mut out = expr.clone();
    out.add_term(var, coeff.checked_neg()?)?;
    out.checked_add(&definition.checked_scale(coeff)?)
}

// ---------------------------------------------------------------------------
// Gaussian elimination over the equality constraints.
// ---------------------------------------------------------------------------

/// A sparse equality row `Σ coeffs + constant = 0`: coefficient terms sorted
/// by variable, with zero coefficients elided.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct EqRow {
    terms: Vec<(Var, i128)>,
    constant: i128,
}

/// What normalising a row by the GCD of its coefficients revealed.
enum RowNorm {
    /// The row still has coefficient terms.
    Live,
    /// `0 = 0`: redundant, discard.
    Trivial,
    /// `0 = c` with `c ≠ 0`, or GCD does not divide the constant: infeasible.
    Infeasible,
}

impl EqRow {
    /// Divides out the GCD of the coefficients and applies the divisibility
    /// test (the GCD of the coefficients must divide the constant).
    fn normalise(&mut self) -> RowNorm {
        if self.terms.is_empty() {
            return if self.constant == 0 {
                RowNorm::Trivial
            } else {
                RowNorm::Infeasible
            };
        }
        let mut gcd = 0i128;
        for &(_, c) in &self.terms {
            gcd = gcd_i128(gcd, c);
        }
        if gcd > 1 {
            if self.constant % gcd != 0 {
                return RowNorm::Infeasible;
            }
            for term in &mut self.terms {
                term.1 /= gcd;
            }
            self.constant /= gcd;
        }
        RowNorm::Live
    }

    /// The leading (smallest) variable; the row must be live.
    fn lead(&self) -> Var {
        self.terms[0].0
    }

    /// `pivot·self - factor·other` (fraction-free elimination step), merging
    /// the sorted term lists. Returns `None` on arithmetic overflow.
    fn combine(&self, pivot: i128, other: &EqRow, factor: i128) -> Option<EqRow> {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < other.terms.len() {
            let (var, value) = match (self.terms.get(i), other.terms.get(j)) {
                (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                    i += 1;
                    j += 1;
                    (
                        va,
                        pivot
                            .checked_mul(ca)?
                            .checked_sub(factor.checked_mul(cb)?)?,
                    )
                }
                (Some(&(va, ca)), Some(&(vb, _))) if va < vb => {
                    i += 1;
                    (va, pivot.checked_mul(ca)?)
                }
                (Some(&(va, ca)), None) => {
                    i += 1;
                    (va, pivot.checked_mul(ca)?)
                }
                (_, Some(&(vb, cb))) => {
                    j += 1;
                    (vb, factor.checked_mul(cb)?.checked_neg()?)
                }
                (None, None) => unreachable!(),
            };
            if value != 0 {
                terms.push((var, value));
            }
        }
        let constant = pivot
            .checked_mul(self.constant)?
            .checked_sub(factor.checked_mul(other.constant)?)?;
        Some(EqRow { terms, constant })
    }
}

/// Returns `true` if the equalities among `linear` are provably infeasible
/// (over the rationals or by integer divisibility).
///
/// [`decide`] runs it on a presolved state's remaining constraints, not on
/// the whole conjunction. Presolve substitutes unit-coefficient
/// definitions, which maps integer solutions to integer solutions both
/// ways, so the remaining equalities are integer-solvable exactly when the
/// conjunction's equalities are, and the refutations this finds — a GCD
/// that does not divide the constant, as in `2·x0 = 2·x1 + 1`, or a
/// rational contradiction — survive the move. What remains is usually a
/// handful of non-unit equalities, where the whole conjunction holds one
/// per path step.
///
/// Maintains a sparse row-echelon basis keyed by leading variable and
/// reduces each equality against it, normalising by the coefficient GCD
/// after every step. This keeps the work proportional to the actual fill-in
/// (path-condition equality chains are 2–3 terms wide) instead of the dense
/// `O(vars² · rows)` of a full tableau.
fn equalities_infeasible(linear: &[Rc<LinearConstraint>]) -> bool {
    let mut pending: Vec<EqRow> = Vec::new();
    for c in linear {
        if c.op != ConstraintOp::Eq {
            continue;
        }
        let terms: Vec<(Var, i128)> = c.expr.iter().map(|(v, k)| (v, k as i128)).collect();
        pending.push(EqRow {
            terms,
            constant: c.expr.constant_part() as i128,
        });
    }
    if pending.is_empty() {
        return false;
    }
    // Identical constraints are common across sliced conjunctions; a cheap
    // dedup avoids reducing them to `0 = 0` one merge at a time.
    pending.sort();
    pending.dedup();

    let mut echelon: Vec<EqRow> = Vec::new();
    let mut lead_of: BTreeMap<Var, usize> = BTreeMap::new();
    for mut row in pending {
        loop {
            match row.normalise() {
                RowNorm::Infeasible => return true,
                RowNorm::Trivial => break,
                RowNorm::Live => {}
            }
            let Some(&basis_index) = lead_of.get(&row.lead()) else {
                lead_of.insert(row.lead(), echelon.len());
                echelon.push(row);
                break;
            };
            let basis = &echelon[basis_index];
            let pivot = basis.terms[0].1;
            let factor = row.terms[0].1;
            match row.combine(pivot, basis, factor) {
                Some(reduced) => row = reduced,
                None => return false, // give up on overflow; search will decide
            }
        }
    }
    false
}

fn gcd_i128(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let tmp = a % b;
        a = b;
        b = tmp;
    }
    a
}

// ---------------------------------------------------------------------------
// Bounds propagation and model search.
// ---------------------------------------------------------------------------

type Bounds = BTreeMap<Var, (Option<i64>, Option<i64>)>;

#[derive(Debug, Clone)]
struct SearchState {
    assignment: BTreeMap<Var, i64>,
    bounds: Bounds,
}

#[derive(Debug, PartialEq, Eq)]
enum SearchOutcome {
    Model(BTreeMap<Var, i64>),
    NoModel,
    GaveUp,
}

fn div_floor(a: i128, b: i128) -> i128 {
    let quotient = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        quotient - 1
    } else {
        quotient
    }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    let quotient = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        quotient + 1
    } else {
        quotient
    }
}

fn clamp_i64(value: i128) -> i64 {
    value.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// Minimum and maximum of `coeff·x` where `x` ranges over `[lo, hi]`.
fn scaled_range(coeff: i64, lo: Option<i64>, hi: Option<i64>) -> (Option<i128>, Option<i128>) {
    let coeff = coeff as i128;
    let lo = lo.map(|v| v as i128 * coeff);
    let hi = hi.map(|v| v as i128 * coeff);
    if coeff >= 0 {
        (lo, hi)
    } else {
        (hi, lo)
    }
}

fn add_opt(a: Option<i128>, b: Option<i128>) -> Option<i128> {
    match (a, b) {
        (Some(x), Some(y)) => x.checked_add(y),
        _ => None,
    }
}

/// Minimum and maximum value of a linear expression given the current
/// assignment and bounds. `None` means unbounded in that direction.
fn expr_range(expr: &LinExpr, state: &SearchState) -> (Option<i128>, Option<i128>) {
    let mut min = Some(expr.constant_part() as i128);
    let mut max = Some(expr.constant_part() as i128);
    for (var, coeff) in expr.iter() {
        if let Some(&value) = state.assignment.get(&var) {
            let contribution = Some(coeff as i128 * value as i128);
            min = add_opt(min, contribution);
            max = add_opt(max, contribution);
        } else {
            let (lo, hi) = state.bounds.get(&var).copied().unwrap_or((None, None));
            let (cmin, cmax) = scaled_range(coeff, lo, hi);
            min = add_opt(min, cmin);
            max = add_opt(max, cmax);
        }
    }
    (min, max)
}

/// Tightens the bound of `var`, returning `false` on an empty domain.
fn tighten(
    state: &mut SearchState,
    var: Var,
    new_lo: Option<i64>,
    new_hi: Option<i64>,
) -> Option<bool> {
    let entry = state.bounds.entry(var).or_insert((None, None));
    let mut changed = false;
    if let Some(lo) = new_lo {
        if entry.0.is_none_or(|old| lo > old) {
            entry.0 = Some(lo);
            changed = true;
        }
    }
    if let Some(hi) = new_hi {
        if entry.1.is_none_or(|old| hi < old) {
            entry.1 = Some(hi);
            changed = true;
        }
    }
    if let (Some(lo), Some(hi)) = *entry {
        if lo > hi {
            return None;
        }
    }
    Some(changed)
}

/// One round of propagation over a single `expr ≤ 0` constraint.
/// Returns `None` on conflict, `Some(changed)` otherwise.
fn propagate_le(expr: &LinExpr, state: &mut SearchState) -> Option<bool> {
    let (min, _) = expr_range(expr, state);
    if let Some(min) = min {
        if min > 0 {
            return None;
        }
    }
    let mut changed = false;
    // Derive a bound for each unassigned variable.
    let terms: Vec<(Var, i64)> = expr
        .iter()
        .filter(|(v, _)| !state.assignment.contains_key(v))
        .collect();
    for (var, coeff) in &terms {
        // a·x ≤ -constant - (minimum of the rest)
        let mut rest_min = Some(expr.constant_part() as i128);
        for (other, other_coeff) in expr.iter() {
            if other == *var {
                continue;
            }
            if let Some(&value) = state.assignment.get(&other) {
                rest_min = add_opt(rest_min, Some(other_coeff as i128 * value as i128));
            } else {
                let (lo, hi) = state.bounds.get(&other).copied().unwrap_or((None, None));
                let (cmin, _) = scaled_range(other_coeff, lo, hi);
                rest_min = add_opt(rest_min, cmin);
            }
        }
        let Some(rest_min) = rest_min else { continue };
        let rhs = -rest_min;
        if *coeff > 0 {
            let hi = clamp_i64(div_floor(rhs, *coeff as i128));
            changed |= tighten(state, *var, None, Some(hi))?;
        } else if *coeff < 0 {
            let lo = clamp_i64(div_ceil(rhs, *coeff as i128));
            changed |= tighten(state, *var, Some(lo), None)?;
        }
    }
    Some(changed)
}

/// Propagation for `expr ≠ 0`: only prunes when the expression is pinned to a
/// single unassigned variable at one of its bounds, and detects conflicts
/// when the expression is fully determined.
fn propagate_ne(expr: &LinExpr, state: &mut SearchState) -> Option<bool> {
    let (min, max) = expr_range(expr, state);
    if let (Some(min), Some(max)) = (min, max) {
        if min == 0 && max == 0 {
            return None;
        }
        if min > 0 || max < 0 {
            return Some(false); // already satisfied
        }
    }
    // Single unassigned variable: exclude the forbidden value if it sits at a bound.
    let unassigned: Vec<(Var, i64)> = expr
        .iter()
        .filter(|(v, _)| !state.assignment.contains_key(v))
        .collect();
    if unassigned.len() != 1 {
        return Some(false);
    }
    let (var, coeff) = unassigned[0];
    let mut rest = expr.constant_part() as i128;
    for (other, other_coeff) in expr.iter() {
        if other == var {
            continue;
        }
        let value = *state.assignment.get(&other)?;
        rest += other_coeff as i128 * value as i128;
    }
    // coeff·x + rest ≠ 0  ⇒  x ≠ -rest/coeff (when divisible).
    if (-rest) % (coeff as i128) != 0 {
        return Some(false);
    }
    let forbidden = clamp_i64((-rest) / coeff as i128);
    let (lo, hi) = state.bounds.get(&var).copied().unwrap_or((None, None));
    let mut changed = false;
    // A bound pinned at an i64 extreme may be a clamped stand-in for a
    // larger true bound, so no exclusion is derived there — propagation
    // just prunes less and the model check still rejects violations.
    if lo == Some(forbidden) {
        if let Some(next) = forbidden.checked_add(1) {
            changed |= tighten(state, var, Some(next), None)?;
        }
    }
    if hi == Some(forbidden) {
        if let Some(previous) = forbidden.checked_sub(1) {
            changed |= tighten(state, var, None, Some(previous))?;
        }
    }
    Some(changed)
}

/// Propagation for product constraints.
fn propagate_product(product: &ProductConstraint, state: &mut SearchState) -> Option<bool> {
    let lookup = |v: Var| state.assignment.get(&v).copied();
    let left = product.left.eval(&lookup);
    let right = product.right.eval(&lookup);
    let result = lookup(product.result);
    let mut changed = false;
    match (left, right, result) {
        (Some(l), Some(r), Some(p)) if l.checked_mul(r) != Some(p) => {
            return None;
        }
        (Some(l), Some(r), None) => {
            let p = l.checked_mul(r)?;
            changed |= tighten(state, product.result, Some(p), Some(p))?;
        }
        (Some(l), None, Some(p)) if l != 0 => {
            if p % l != 0 {
                return None;
            }
            // right is a linear expression; only prune when it is a bare variable.
            if product.right.num_vars() == 1 && product.right.constant_part() == 0 {
                let (var, coeff) = product.right.iter().next()?;
                if coeff != 0 && (p / l) % coeff == 0 {
                    let value = (p / l) / coeff;
                    changed |= tighten(state, var, Some(value), Some(value))?;
                }
            }
        }
        (None, Some(r), Some(p)) if r != 0 => {
            if p % r != 0 {
                return None;
            }
            if product.left.num_vars() == 1 && product.left.constant_part() == 0 {
                let (var, coeff) = product.left.iter().next()?;
                if coeff != 0 && (p / r) % coeff == 0 {
                    let value = (p / r) / coeff;
                    changed |= tighten(state, var, Some(value), Some(value))?;
                }
            }
        }
        _ => {}
    }
    Some(changed)
}

/// Ceiling on interval-propagation rounds per search node. Interval
/// propagation diverges on difference-cycle contradictions (`y ≥ x ∧ y ≤
/// x - 12` tightens the lower bounds by 12 forever without ever emptying a
/// domain), so the fixpoint loop must be cut off. Stopping early is sound:
/// propagation only narrows domains, so the wider domains kept by an early
/// exit never lose models, and a variable left unbounded routes the final
/// verdict through the `truncated` flag to `Unknown` rather than `Unsat`.
/// Any genuinely convergent propagation that would need this many rounds is
/// far outside the solver's value bound anyway.
const MAX_PROPAGATION_ROUNDS: usize = 4096;

/// Runs propagation to a fixpoint (or the round ceiling). Returns `false`
/// on conflict.
fn propagate(problem: &Residual<'_>, state: &mut SearchState) -> bool {
    for _ in 0..MAX_PROPAGATION_ROUNDS {
        let mut changed = false;
        for constraint in problem.linear {
            let step = match constraint.op {
                ConstraintOp::Le => propagate_le(&constraint.expr, state),
                ConstraintOp::Eq => {
                    let le = propagate_le(&constraint.expr, state);
                    match le {
                        None => None,
                        Some(first) => match constraint.expr.checked_scale(-1) {
                            Some(negated) => {
                                propagate_le(&negated, state).map(|second| first || second)
                            }
                            None => Some(first),
                        },
                    }
                }
                ConstraintOp::Ne => propagate_ne(&constraint.expr, state),
            };
            match step {
                None => return false,
                Some(step_changed) => changed |= step_changed,
            }
        }
        for product in problem.products {
            match propagate_product(product, state) {
                None => return false,
                Some(step_changed) => changed |= step_changed,
            }
        }
        // Promote singleton domains to assignments.
        let singletons: Vec<(Var, i64)> = state
            .bounds
            .iter()
            .filter_map(|(v, (lo, hi))| match (lo, hi) {
                (Some(lo), Some(hi)) if lo == hi && !state.assignment.contains_key(v) => {
                    Some((*v, *lo))
                }
                _ => None,
            })
            .collect();
        for (var, value) in singletons {
            state.assignment.insert(var, value);
            changed = true;
        }
        if !changed {
            return true;
        }
    }
    // Round ceiling reached without conflict: proceed with the (sound,
    // possibly still-wide) domains narrowed so far. Counted, not silent —
    // a nonzero ceiling count on difference-fragment inputs means the
    // dispatcher failed to route them to the DL module.
    crate::probes::bump(|p| p.propagation_ceiling_hits += 1);
    true
}

/// Candidate values for branching on `var`, ordered small-magnitude first.
fn candidate_values(state: &SearchState, var: Var) -> (Vec<i64>, bool) {
    let (lo, hi) = state.bounds.get(&var).copied().unwrap_or((None, None));
    match (lo, hi) {
        (Some(lo), Some(hi)) => {
            let width = (hi as i128 - lo as i128 + 1).max(0);
            if width <= (2 * VALUE_BOUND as i128 + 1) {
                let mut values: Vec<i64> = (lo..=hi).collect();
                values.sort_by_key(|v| (v.unsigned_abs(), *v < 0));
                (values, false)
            } else {
                let mut values = spiral(VALUE_BOUND)
                    .filter(|v| *v >= lo && *v <= hi)
                    .collect::<Vec<i64>>();
                if values.is_empty() {
                    values.push(lo);
                }
                (values, true)
            }
        }
        (Some(lo), None) => {
            let values: Vec<i64> = (0..=VALUE_BOUND)
                .map(|offset| lo.saturating_add(offset))
                .collect();
            // Prefer values near zero when the lower bound is negative.
            let mut values: Vec<i64> = if lo <= 0 {
                spiral(VALUE_BOUND).filter(|v| *v >= lo).collect()
            } else {
                values
            };
            values.sort_by_key(|v| (v.unsigned_abs(), *v < 0));
            values.dedup();
            (values, true)
        }
        (None, Some(hi)) => {
            let mut values: Vec<i64> = if hi >= 0 {
                spiral(VALUE_BOUND).filter(|v| *v <= hi).collect()
            } else {
                (0..=VALUE_BOUND)
                    .map(|offset| hi.saturating_sub(offset))
                    .collect()
            };
            values.sort_by_key(|v| (v.unsigned_abs(), *v < 0));
            values.dedup();
            (values, true)
        }
        (None, None) => (spiral(VALUE_BOUND).collect(), true),
    }
}

/// 0, 1, -1, 2, -2, … up to ±bound.
fn spiral(bound: i64) -> impl Iterator<Item = i64> {
    std::iter::once(0).chain((1..=bound).flat_map(|v| [v, -v]))
}

fn pick_branch_var(problem: &Residual<'_>, state: &SearchState) -> Option<Var> {
    let mut best: Option<(Var, i128)> = None;
    for &var in &problem.vars {
        if state.assignment.contains_key(&var) {
            continue;
        }
        let (lo, hi) = state.bounds.get(&var).copied().unwrap_or((None, None));
        let width = match (lo, hi) {
            (Some(lo), Some(hi)) => hi as i128 - lo as i128,
            _ => i128::MAX,
        };
        match best {
            Some((_, best_width)) if best_width <= width => {}
            _ => best = Some((var, width)),
        }
    }
    best.map(|(v, _)| v)
}

fn search(
    problem: &Residual<'_>,
    state: SearchState,
    budget: &mut u64,
    truncated: &mut bool,
) -> SearchOutcome {
    if *budget == 0 {
        return SearchOutcome::GaveUp;
    }
    *budget -= 1;
    let mut state = state;
    if !propagate(problem, &mut state) {
        return SearchOutcome::NoModel;
    }
    match pick_branch_var(problem, &state) {
        None => {
            if satisfies(problem.linear, problem.products, &state.assignment) {
                SearchOutcome::Model(state.assignment)
            } else {
                SearchOutcome::NoModel
            }
        }
        Some(var) => {
            let (values, was_truncated) = candidate_values(&state, var);
            if was_truncated {
                *truncated = true;
            }
            let mut gave_up = false;
            for value in values {
                let mut child = state.clone();
                child.assignment.insert(var, value);
                child.bounds.insert(var, (Some(value), Some(value)));
                match search(problem, child, budget, truncated) {
                    SearchOutcome::Model(model) => return SearchOutcome::Model(model),
                    SearchOutcome::NoModel => {}
                    SearchOutcome::GaveUp => {
                        gave_up = true;
                        break;
                    }
                }
            }
            if gave_up {
                SearchOutcome::GaveUp
            } else {
                SearchOutcome::NoModel
            }
        }
    }
}

/// Decides a conjunction of atoms and produces a model when consistent.
pub fn check_atoms(atoms: &[Atom]) -> LiaResult {
    let refs: Vec<&Atom> = atoms.iter().collect();
    check_atom_refs(&refs)
}

/// [`check_atoms`] over borrowed atoms (arena-interned callers).
pub fn check_atom_refs(atoms: &[&Atom]) -> LiaResult {
    check_built(LiaProblem::from_atom_refs(atoms))
}

/// The `(atom, reading)` pairs [`LiaProblem::extend`] takes.
fn with_readings<'a>(
    atoms: &'a [AtomRef<'a>],
) -> impl Iterator<Item = (&'a Atom, Option<&'a LiaReading>)> + Clone {
    atoms.iter().map(|atom| (atom.atom, atom.lia()))
}

/// [`check_atom_refs`] over atoms with their theory readings: the LIA half
/// of the dispatcher. Cached readings skip re-flattening non-product atoms.
/// With `resume`, building and presolve resume from the core's
/// [`PrefixCache`].
pub(crate) fn check_readings(atoms: &[AtomRef<'_>], resume: Option<Resume<'_>>) -> LiaResult {
    match resume {
        // Flattening numbers product variables across the whole
        // conjunction, so only a product-free prefix builds and presolves
        // the same inside every conjunction it leads.
        Some(resume)
            if atoms[..resume.active]
                .iter()
                .all(|atom| atom.lia().is_some()) =>
        {
            resume.check(atoms)
        }
        _ => check_built(LiaProblem::default().extend(with_readings(atoms))),
    }
}

fn check_built(problem: Result<LiaProblem, BuildError>) -> LiaResult {
    match problem {
        Ok(problem) => check_problem(&problem),
        Err(BuildError::Overflow) => LiaResult::Unknown,
    }
}

/// Decides a pre-built problem.
pub fn check_problem(problem: &LiaProblem) -> LiaResult {
    decide(problem, || {
        Presolved::new(&problem.linear, &problem.products)
    })
}

/// How many cones a [`PrefixCache`] keeps. A search that alternates between
/// sibling paths sends a cone of one path between two cones of the other,
/// so a single entry would be replaced before its path asks again.
const PREFIX_CACHE_ENTRIES: usize = 4;

/// The active part of one conjunction a persistent core sent to LIA: its
/// atom ids, its built problem and that problem's presolved state.
#[derive(Debug)]
struct PrefixEntry {
    ids: Vec<AtomId>,
    problem: LiaProblem,
    presolved: Presolved,
}

/// The built and presolved active parts of the last few conjunctions a
/// persistent core sent to LIA, each keyed by the atom ids it was built
/// from. A reading depends on the atom alone and a cached prefix holds no
/// product atom, so each entry is a function of its ids: it never goes
/// stale, and retractions need not touch it.
#[derive(Debug, Default)]
pub(crate) struct PrefixCache {
    /// Least recently used first.
    entries: Vec<PrefixEntry>,
}

impl PrefixCache {
    /// The longest cached prefix of `ids`.
    fn longest_prefix_of(&self, ids: &[AtomId]) -> Option<&PrefixEntry> {
        self.entries
            .iter()
            .filter(|entry| ids.starts_with(&entry.ids))
            .max_by_key(|entry| entry.ids.len())
    }

    /// Caches `entry` as the most recently used one.
    fn remember(&mut self, entry: PrefixEntry) {
        self.entries.retain(|cached| cached.ids != entry.ids);
        if self.entries.len() == PREFIX_CACHE_ENTRIES {
            self.entries.remove(0);
        }
        self.entries.push(entry);
    }
}

/// One conjunction's claim on a [`PrefixCache`]: its atom ids, of which the
/// first `active` belong to the live assertions (the cone) and the rest to
/// the query's assumptions.
pub(crate) struct Resume<'a> {
    /// The cache to resume from and update.
    pub cache: &'a mut PrefixCache,
    /// The conjunction's atom ids, in the order its problem is built.
    pub ids: &'a [AtomId],
    /// How many leading ids are the cone's assertions.
    pub active: usize,
}

impl Resume<'_> {
    /// Decides the conjunction of `atoms` (whose ids are `ids`, and whose
    /// active part holds no product atom). The longest cached entry whose
    /// ids lead the active part is extended by the remaining active atoms —
    /// its problem by [`LiaProblem::extend`], its presolved state by
    /// [`Presolved::extend`] — and cached as a new entry; without one, the
    /// active part is built and presolved from the empty state. Both are
    /// then extended by the assumptions. Each step equals its scratch
    /// counterpart, so the verdict and model equal [`check_problem`] on the
    /// whole conjunction's problem.
    fn check(self, atoms: &[AtomRef<'_>]) -> LiaResult {
        let Resume { cache, ids, active } = self;
        let (start, problem, presolved) = match cache.longest_prefix_of(&ids[..active]) {
            Some(entry) => (
                entry.ids.len(),
                entry.problem.clone(),
                Some(entry.presolved.clone()),
            ),
            None => (0, LiaProblem::default(), None),
        };
        // Build everything before touching the cache: an overflowing
        // reading leaves it as it was.
        let Ok(prefix) = problem.extend(with_readings(&atoms[start..active])) else {
            return LiaResult::Unknown;
        };
        let Ok(whole) = prefix.clone().extend(with_readings(&atoms[active..])) else {
            return LiaResult::Unknown;
        };
        decide(&whole, || {
            let resumed = presolved.and_then(|state| state.extend(&prefix.linear[start..], &[]));
            if resumed.is_some() {
                crate::probes::bump(|p| p.lia_prefix_reuses += 1);
            }
            let state = resumed.unwrap_or_else(|| Presolved::new(&prefix.linear, &[]));
            cache.remember(PrefixEntry {
                ids: ids[..active].to_vec(),
                problem: prefix,
                presolved: state.clone(),
            });
            state
                .extend(&whole.linear[active..], &whole.products)
                .unwrap_or_else(|| Presolved::new(&whole.linear, &whole.products))
        })
    }
}

/// What the model search runs on: a presolved state's remaining
/// constraints and the problem's variables that were not eliminated.
struct Residual<'a> {
    linear: &'a [Rc<LinearConstraint>],
    products: &'a [ProductConstraint],
    vars: Vec<Var>,
}

/// Decides `problem`, with `presolve` producing its presolved state.
fn decide(problem: &LiaProblem, presolve: impl FnOnce() -> Presolved) -> LiaResult {
    if problem.linear.is_empty() && problem.products.is_empty() {
        return LiaResult::Sat(BTreeMap::new());
    }
    // Substitute away variables defined by unit-coefficient equalities. This
    // both detects contradictions like `x = y ∧ x ≠ y` and keeps the search
    // space small for the common equality-chain path conditions.
    let presolved = presolve();
    if presolved.infeasible || equalities_infeasible(&presolved.linear) {
        return LiaResult::Unsat;
    }
    let mut eliminated: Vec<Var> = presolved.definitions.iter().map(|d| d.var).collect();
    eliminated.sort_unstable();
    let reduced = Residual {
        linear: &presolved.linear,
        products: &presolved.products,
        vars: problem
            .vars
            .iter()
            .copied()
            .filter(|var| eliminated.binary_search(var).is_err())
            .collect(),
    };

    let state = SearchState {
        assignment: BTreeMap::new(),
        bounds: Bounds::new(),
    };
    let mut budget = NODE_BUDGET;
    let mut truncated = false;
    match search(&reduced, state, &mut budget, &mut truncated) {
        SearchOutcome::Model(mut model) => {
            // Recover eliminated variables in reverse elimination order: each
            // definition refers only to variables still present at its
            // elimination time, which by then have values.
            for definition in presolved.definitions.iter().rev() {
                let value = definition
                    .expr
                    .eval(&|v| model.get(&v).copied().or(Some(0)))
                    .unwrap_or(0);
                model.insert(definition.var, value);
            }
            // Make sure every original variable has a value, defaulting to 0
            // for variables the search never needed to constrain.
            for &var in &problem.original_vars {
                model.entry(var).or_insert(0);
            }
            if problem.satisfied_by(&model) {
                LiaResult::Sat(model)
            } else {
                // Reconstruction failed (e.g. due to an overflow during
                // evaluation); be conservative — and count the silent
                // completeness loss.
                crate::probes::bump(|p| p.model_reconstruction_failures += 1);
                LiaResult::Unknown
            }
        }
        SearchOutcome::NoModel => {
            if truncated {
                LiaResult::Unknown
            } else {
                LiaResult::Unsat
            }
        }
        SearchOutcome::GaveUp => LiaResult::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{Atom, CmpOp};
    use crate::term::{Term, Var};

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    fn eq(a: Term, b: Term) -> Atom {
        Atom::new(a, CmpOp::Eq, b)
    }

    fn check(atoms: &[Atom]) -> LiaResult {
        check_atoms(atoms)
    }

    #[test]
    fn empty_conjunction_is_sat() {
        assert!(matches!(check(&[]), LiaResult::Sat(_)));
    }

    #[test]
    fn failed_model_reconstruction_is_conservative_and_counted() {
        // x = y + (i64::MAX − 10) ∧ y ≥ 100: presolve eliminates one side
        // of the equality, the search solves the residual problem, but
        // reconstructing the eliminated variable overflows `i64`. The
        // verdict must degrade to `Unknown` (never a wrong `Sat`), and the
        // silent completeness loss must show up in the probe counter.
        let atoms = vec![
            eq(x(0), Term::add(x(1), Term::int(i64::MAX - 10))),
            Atom::new(x(1), CmpOp::Ge, Term::int(100)),
        ];
        let before = crate::probes::totals().model_reconstruction_failures;
        let result = check(&atoms);
        assert_eq!(result, LiaResult::Unknown, "overflowed model must not leak");
        let after = crate::probes::totals().model_reconstruction_failures;
        assert_eq!(after - before, 1, "the reconstruction failure is counted");
    }

    #[test]
    fn paper_worked_example_model() {
        // L5 = 100 - L4  ∧  L5 = 0   ⇒   L4 = 100
        let atoms = vec![
            eq(x(5), Term::sub(Term::int(100), x(4))),
            eq(x(5), Term::int(0)),
        ];
        match check(&atoms) {
            LiaResult::Sat(model) => {
                assert_eq!(model.get(&Var::new(4)), Some(&100));
                assert_eq!(model.get(&Var::new(5)), Some(&0));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_equalities_are_unsat() {
        // x = y + 1 ∧ x = y
        let atoms = vec![eq(x(0), Term::add(x(1), Term::int(1))), eq(x(0), x(1))];
        assert_eq!(check(&atoms), LiaResult::Unsat);
    }

    #[test]
    fn divisibility_conflict_is_unsat() {
        // 2x = 1
        let atoms = vec![eq(Term::mul(Term::int(2), x(0)), Term::int(1))];
        assert_eq!(check(&atoms), LiaResult::Unsat);
    }

    #[test]
    fn bounds_conflict_is_unsat() {
        // x ≤ 0 ∧ x ≥ 1
        let atoms = vec![
            Atom::new(x(0), CmpOp::Le, Term::int(0)),
            Atom::new(x(0), CmpOp::Ge, Term::int(1)),
        ];
        assert_eq!(check(&atoms), LiaResult::Unsat);
    }

    #[test]
    fn disequality_forces_other_value() {
        // 0 ≤ x ≤ 1 ∧ x ≠ 0  ⇒  x = 1
        let atoms = vec![
            Atom::new(x(0), CmpOp::Ge, Term::int(0)),
            Atom::new(x(0), CmpOp::Le, Term::int(1)),
            Atom::new(x(0), CmpOp::Ne, Term::int(0)),
        ];
        match check(&atoms) {
            LiaResult::Sat(model) => assert_eq!(model.get(&Var::new(0)), Some(&1)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn all_values_excluded_is_unsat() {
        // 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1
        let atoms = vec![
            Atom::new(x(0), CmpOp::Ge, Term::int(0)),
            Atom::new(x(0), CmpOp::Le, Term::int(1)),
            Atom::new(x(0), CmpOp::Ne, Term::int(0)),
            Atom::new(x(0), CmpOp::Ne, Term::int(1)),
        ];
        assert_eq!(check(&atoms), LiaResult::Unsat);
    }

    #[test]
    fn products_of_unknowns_are_solved() {
        // x·y = 6 ∧ x ≥ 2 ∧ y ≥ 2
        let atoms = vec![
            eq(Term::mul(x(0), x(1)), Term::int(6)),
            Atom::new(x(0), CmpOp::Ge, Term::int(2)),
            Atom::new(x(1), CmpOp::Ge, Term::int(2)),
        ];
        match check(&atoms) {
            LiaResult::Sat(model) => {
                let a = model[&Var::new(0)];
                let b = model[&Var::new(1)];
                assert_eq!(a * b, 6);
                assert!(a >= 2 && b >= 2);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn square_equation_is_satisfied() {
        // x·x = 49 ∧ x ≥ 0  ⇒  x = 7
        let atoms = vec![
            eq(Term::mul(x(0), x(0)), Term::int(49)),
            Atom::new(x(0), CmpOp::Ge, Term::int(0)),
        ];
        match check(&atoms) {
            LiaResult::Sat(model) => assert_eq!(model.get(&Var::new(0)), Some(&7)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn chained_equalities_propagate() {
        // a = b ∧ b = c ∧ c = 42
        let atoms = vec![eq(x(0), x(1)), eq(x(1), x(2)), eq(x(2), Term::int(42))];
        match check(&atoms) {
            LiaResult::Sat(model) => {
                assert_eq!(model[&Var::new(0)], 42);
                assert_eq!(model[&Var::new(1)], 42);
                assert_eq!(model[&Var::new(2)], 42);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn strict_inequalities_shift_correctly() {
        // x < 5 ∧ x > 3  ⇒  x = 4
        let atoms = vec![
            Atom::new(x(0), CmpOp::Lt, Term::int(5)),
            Atom::new(x(0), CmpOp::Gt, Term::int(3)),
        ];
        match check(&atoms) {
            LiaResult::Sat(model) => assert_eq!(model[&Var::new(0)], 4),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn linear(atoms: &[Atom]) -> Vec<Rc<LinearConstraint>> {
        LiaProblem::from_atoms(atoms).expect("builds").linear
    }

    #[test]
    fn extending_a_presolved_prefix_equals_presolving_the_whole() {
        // 2·x0 + 3·x1 = 7 has no unit coefficient until x1 is defined, so
        // an equality appended later makes a prefix equality eligible and
        // elimination must go back into the prefix.
        let atoms = vec![
            eq(
                Term::add(Term::mul(Term::int(2), x(0)), Term::mul(Term::int(3), x(1))),
                Term::int(7),
            ),
            Atom::new(Term::sub(x(2), x(3)), CmpOp::Le, Term::int(5)),
            eq(x(3), Term::add(x(4), Term::int(1))),
            Atom::new(x(4), CmpOp::Ne, x(2)),
            eq(Term::add(x(1), x(0)), Term::mul(Term::int(2), x(5))),
            eq(x(5), Term::add(x(2), x(6))),
            Atom::new(Term::add(x(6), x(1)), CmpOp::Ge, Term::int(-4)),
        ];
        let all = linear(&atoms);
        let whole = Presolved::new(&all, &[]);
        // x1 is defined by the first atom, once x0's definition (from the
        // fifth) has given it a unit coefficient.
        let order: Vec<u32> = whole.definitions.iter().map(|d| d.var.index()).collect();
        assert_eq!(order, [3, 0, 1, 2], "{whole:?}");
        for split in 0..=all.len() {
            let extended = Presolved::new(&all[..split], &[])
                .extend(&all[split..], &[])
                .expect("no overflow");
            assert_eq!(extended, whole, "split at {split}");
        }
        // An overflow stop composes too: substituting x0's definition into
        // 3·x0 = x3 overflows, so elimination stops with nothing defined,
        // and later constraints are only rewritten.
        let big = i64::MAX / 2;
        let stopping = vec![
            eq(x(0), Term::add(Term::mul(Term::int(big), x(1)), x(2))),
            eq(Term::mul(Term::int(3), x(0)), x(3)),
            eq(x(4), Term::add(x(5), Term::int(1))),
        ];
        let all = linear(&stopping);
        let whole = Presolved::new(&all, &[]);
        assert!(whole.stopped && whole.definitions.is_empty(), "{whole:?}");
        let stopped = Presolved::new(&all[..2], &[]);
        assert!(stopped.stopped);
        assert_eq!(stopped.extend(&all[2..], &[]).as_ref(), Some(&whole));
        // Resuming after x0 was defined overflows while rewriting the new
        // constraint, where presolving from scratch stopped before defining
        // x0: `extend` reports it so the caller starts over.
        assert_eq!(Presolved::new(&all[..1], &[]).extend(&all[1..], &[]), None);
    }

    /// Checks `atoms` through `cache` with the first `active` as the cone's
    /// assertions; returns the verdict and whether presolve resumed.
    fn resume_check(
        arena: &mut crate::arena::Arena,
        cache: &mut PrefixCache,
        atoms: &[Atom],
        active: usize,
    ) -> (LiaResult, bool) {
        let ids: Vec<AtomId> = atoms.iter().map(|atom| arena.intern_atom(atom)).collect();
        let refs: Vec<AtomRef<'_>> = ids.iter().map(|&id| arena.atom_ref(id)).collect();
        let before = crate::probes::totals().lia_prefix_reuses;
        let result = check_readings(
            &refs,
            Some(Resume {
                cache,
                ids: &ids,
                active,
            }),
        );
        let reused = crate::probes::totals().lia_prefix_reuses - before;
        assert_eq!(
            result,
            check_atoms(atoms),
            "resumed and scratch verdicts differ"
        );
        (result, reused == 1)
    }

    #[test]
    fn a_product_atom_in_the_prefix_disables_reuse() {
        let mut arena = crate::arena::Arena::new();
        let mut cache = PrefixCache::default();
        let product = eq(Term::mul(x(0), x(1)), Term::int(6));
        let bound = Atom::new(x(0), CmpOp::Ge, Term::int(2));
        let unit = eq(x(2), Term::add(x(0), Term::int(1)));
        let query = Atom::new(x(2), CmpOp::Ne, Term::int(3));
        // A product-free prefix is cached and resumed from.
        let (_, reused) = resume_check(&mut arena, &mut cache, &[bound.clone(), query.clone()], 1);
        assert!(!reused);
        let (_, reused) = resume_check(
            &mut arena,
            &mut cache,
            &[bound.clone(), unit.clone(), query.clone()],
            2,
        );
        assert!(reused, "the product-free prefix is resumed");
        // With a product atom in the prefix the check neither resumes nor
        // replaces the cached prefix.
        let with_product = [bound.clone(), unit.clone(), product, query.clone()];
        for _ in 0..2 {
            let (result, reused) = resume_check(&mut arena, &mut cache, &with_product, 3);
            assert!(!reused, "a prefix holding a product atom is not resumed");
            assert!(matches!(result, LiaResult::Sat(_)), "{result:?}");
        }
        let (_, reused) = resume_check(&mut arena, &mut cache, &[bound, unit, query], 2);
        assert!(reused, "the cached product-free prefix survived");
    }

    #[test]
    fn alternating_sibling_cones_resume_from_their_own_prefixes() {
        // A fair search alternates between two paths that share a prefix:
        // each cone must resume from the last cone of its own path, not
        // presolve from scratch because the other path asked in between.
        let mut arena = crate::arena::Arena::new();
        let mut cache = PrefixCache::default();
        let shared = eq(x(1), Term::add(x(0), Term::int(1)));
        let query = Atom::new(x(0), CmpOp::Ge, Term::int(0));
        let (_, reused) = resume_check(&mut arena, &mut cache, &[shared.clone(), query.clone()], 1);
        assert!(!reused);
        let mut left = vec![shared.clone()];
        let mut right = vec![shared];
        for depth in 2..8 {
            left.push(eq(x(depth), Term::add(x(depth - 1), Term::int(1))));
            right.push(eq(x(depth + 20), Term::sub(x(depth - 1), Term::int(1))));
            for path in [&left, &right] {
                let mut atoms = path.clone();
                atoms.push(query.clone());
                let (_, reused) = resume_check(&mut arena, &mut cache, &atoms, path.len());
                assert!(reused, "depth {depth}: {path:?}");
            }
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

        fn var(&mut self) -> Term {
            x(self.below(8) as u32)
        }

        /// Two distinct variables.
        fn vars(&mut self) -> (Term, Term) {
            let a = self.below(8) as u32;
            (x(a), x((a + 1 + self.below(7) as u32) % 8))
        }

        fn small(&mut self) -> i64 {
            self.below(9) as i64 - 4
        }
    }

    /// `2·a = 2·b + c` over distinct `a` and `b`: presolve finds no unit
    /// coefficient in it, so with `c` odd only the echelon's GCD test
    /// refutes it.
    fn even_equality(rng: &mut Rng, c: i64) -> Atom {
        let two = || Term::int(2);
        let (a, b) = rng.vars();
        eq(
            Term::mul(two(), a),
            Term::add(Term::mul(two(), b), Term::int(c)),
        )
    }

    /// A product-free atom for a path: unit equalities, bounds,
    /// disequalities, non-unit equalities and, now and then, a coefficient
    /// near the point where substituting it overflows and stops presolve.
    fn path_atom(rng: &mut Rng) -> Atom {
        match rng.below(12) {
            0..=2 => {
                let (a, b) = rng.vars();
                eq(a, Term::add(b, Term::int(rng.small())))
            }
            3 | 4 => {
                let op = [CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt][rng.below(4) as usize];
                Atom::new(rng.var(), op, Term::int(rng.small()))
            }
            5 => {
                let (a, b) = rng.vars();
                Atom::new(a, CmpOp::Ne, b)
            }
            6 | 7 => Atom::new(Term::add(rng.var(), rng.var()), CmpOp::Le, rng.var()),
            8 => {
                let c = 2 * rng.small();
                even_equality(rng, c)
            }
            9 => eq(
                Term::mul(Term::int(3), rng.var()),
                Term::add(rng.var(), Term::int(rng.small())),
            ),
            _ => {
                let big = Term::int(i64::MAX / 2 - rng.below(3) as i64);
                eq(rng.var(), Term::add(Term::mul(big, rng.var()), rng.var()))
            }
        }
    }

    /// A query's assumption: a path atom, a product of two unknowns, or an
    /// odd [`even_equality`].
    fn assumption(rng: &mut Rng) -> Atom {
        match rng.below(4) {
            0 => path_atom(rng),
            1 => {
                let c = 2 * rng.small() + 1;
                even_equality(rng, c)
            }
            _ => {
                let op = [CmpOp::Eq, CmpOp::Le, CmpOp::Ne][rng.below(3) as usize];
                Atom::new(Term::mul(rng.var(), rng.var()), op, Term::int(rng.small()))
            }
        }
    }

    #[test]
    fn resumed_checks_equal_scratch_checks_over_random_sibling_cones() {
        // Two sibling paths grow from a shared prefix, alternating as a
        // fair search asks, and now and then backtrack. Every query is a
        // path's atoms (the cone) plus one or two assumptions, and
        // `resume_check` asserts that the verdict and model equal
        // `check_atoms` on the same atoms.
        let (mut reused, mut verdicts) = (0, [0; 3]);
        for seed in 0..10 {
            let mut rng = Rng(seed);
            let mut arena = crate::arena::Arena::new();
            let mut cache = PrefixCache::default();
            let shared: Vec<Atom> = (0..2).map(|_| path_atom(&mut rng)).collect();
            let mut paths = [shared.clone(), shared];
            for _ in 0..10 {
                for path in &mut paths {
                    if path.len() > 3 && rng.below(5) == 0 {
                        let keep = 2 + rng.below(path.len() as u64 - 2) as usize;
                        path.truncate(keep);
                    }
                    path.push(path_atom(&mut rng));
                    let mut atoms = path.clone();
                    atoms.extend((0..1 + rng.below(2)).map(|_| assumption(&mut rng)));
                    let (result, resumed) =
                        resume_check(&mut arena, &mut cache, &atoms, path.len());
                    reused += usize::from(resumed);
                    verdicts[match result {
                        LiaResult::Sat(_) => 0,
                        LiaResult::Unsat => 1,
                        LiaResult::Unknown => 2,
                    }] += 1;
                }
            }
        }
        assert!(reused > 100, "{reused} resumed checks");
        assert!(
            verdicts.iter().all(|&n| n > 0),
            "sat/unsat/unknown: {verdicts:?}"
        );
    }

    #[test]
    fn the_residual_echelon_refutes_what_presolve_leaves() {
        // x1 = x2 + 1 defines x1, leaving 2·x0 = 2·x2 + 3: no unit
        // coefficient, no constant contradiction, refuted by the GCD test.
        let atoms = vec![
            eq(x(1), Term::add(x(2), Term::int(1))),
            eq(
                Term::mul(Term::int(2), x(0)),
                Term::add(Term::mul(Term::int(2), x(1)), Term::int(1)),
            ),
        ];
        let presolved = Presolved::new(&linear(&atoms), &[]);
        assert!(!presolved.infeasible && presolved.definitions.len() == 1);
        assert!(equalities_infeasible(&presolved.linear));
        assert_eq!(check(&atoms), LiaResult::Unsat);
    }

    #[test]
    fn a_contradictory_prefix_makes_every_extension_unsat() {
        // x0 = x1 ∧ x0 ≠ x1 passes the equality echelon; presolve refutes it.
        let prefix = vec![eq(x(0), x(1)), Atom::new(x(0), CmpOp::Ne, x(1))];
        let state = Presolved::new(&linear(&prefix), &[]);
        assert!(state.infeasible);
        let extensions = [
            vec![],
            vec![eq(x(2), Term::int(5))],
            vec![Atom::new(x(1), CmpOp::Le, x(3)), eq(x(3), x(0))],
        ];
        for extension in &extensions {
            let extended = state
                .clone()
                .extend(&linear(extension), &[])
                .expect("no overflow");
            assert!(extended.infeasible, "{extension:?}");
        }
        let mut arena = crate::arena::Arena::new();
        let mut cache = PrefixCache::default();
        for extension in &extensions {
            let mut atoms = prefix.clone();
            atoms.extend(extension.iter().cloned());
            let (result, _) = resume_check(&mut arena, &mut cache, &atoms, atoms.len());
            assert_eq!(result, LiaResult::Unsat, "{atoms:?}");
        }
    }

    #[test]
    fn model_satisfies_problem() {
        let atoms = vec![
            eq(Term::add(x(0), x(1)), Term::int(10)),
            Atom::new(x(0), CmpOp::Ge, Term::int(3)),
            Atom::new(x(1), CmpOp::Ge, Term::int(3)),
            Atom::new(x(0), CmpOp::Ne, x(1)),
        ];
        let problem = LiaProblem::from_atoms(&atoms).expect("builds");
        match check_problem(&problem) {
            LiaResult::Sat(model) => assert!(problem.satisfied_by(&model)),
            other => panic!("expected sat, got {other:?}"),
        }
    }
}
