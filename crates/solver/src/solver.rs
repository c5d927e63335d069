//! The public solver façade: an assertion stack with `push`/`pop`, variable
//! allocation, satisfiability checks and validity queries.
//!
//! The assertion stack is the *primary* analysis-facing API: a symbolic
//! executor keeps one long-lived solver, asserts the translation of its path
//! condition once, and brackets branch-local assumptions with
//! [`Solver::push`]/[`Solver::pop`] (or passes them per query via
//! [`Solver::check_assuming`]) instead of rebuilding a solver per query.
//! Every satisfiability check is counted in [`SolverStats`], so callers can
//! measure how much re-encoding the incremental interface saves.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use crate::core::TheoryCore;
use crate::formula::Formula;
use crate::term::Var;
use crate::theory::{check_conjunction_counted, SmtResult, TheoryConfig};

pub use crate::theory::SmtResult as CheckResult;

/// Which satisfiability engine a [`Solver`] runs its checks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreMode {
    /// The incremental engine: one long-lived [`TheoryCore`] per solver,
    /// with hash-consed atoms, a persistent CDCL clause database whose
    /// frames retract by activation literals, retained theory lemmas, and
    /// per-query cone slicing. The default.
    Persistent,
    /// The original engine: every check rebuilds the SAT instance and
    /// re-runs Tseitin encoding from nothing. Kept as the reference the
    /// differential tests compare the persistent core against, and as the
    /// persistent core's fallback on `Unknown`.
    Scratch,
}

crate::counters! {
    /// Cumulative statistics for one [`Solver`] instance — the counter
    /// registry of this crate. The layers beneath the solver count into
    /// values of this type too (the CDCL search, the persistent core, the
    /// thread-local [`crate::probes`]), and each check merges their deltas
    /// into the checking solver's stats.
    pub struct SolverStats {
        /// Satisfiability checks issued (a validity query issues one or two).
        checks => "solver_checks",
        /// Checks that came back satisfiable.
        sat => _,
        /// Checks that came back unsatisfiable.
        unsat => _,
        /// Checks the theory could not decide.
        unknown => _,
        /// Formulas asserted over the solver's lifetime (pops do not subtract).
        assertions => _,
        /// Branching decisions made by the CDCL search.
        decisions => _,
        /// Conflicts encountered by the CDCL core across all checks (zero for
        /// checks decided by the atom-conjunction fast path, which bypasses the
        /// propositional search entirely).
        conflicts => "solver_conflicts",
        /// Unit propagations performed by the CDCL core across all checks.
        propagations => "solver_propagations",
        /// Clauses already present in the persistent core's database at the
        /// start of a CDCL check — work the scratch engine would redo (zero
        /// under [`CoreMode::Scratch`] and on the atom-conjunction fast path).
        clauses_reused,
        /// Distinct atoms interned into the persistent core's hash-consing
        /// arena (zero under [`CoreMode::Scratch`]).
        atoms_interned,
        /// Variables excluded from queries' searches by cone slicing (zero
        /// under [`CoreMode::Scratch`]).
        cone_vars_pruned,
        /// Out-of-cone components a verdict-only check ([`Solver::check_valid`],
        /// [`Solver::prove`]) skipped because they lie inside a prefix of the
        /// assertion stack already answered `Sat` (zero under
        /// [`CoreMode::Scratch`]).
        components_vouched,
        /// Learnt clauses produced by first-UIP conflict analysis across all
        /// CDCL checks.
        learnt_clauses,
        /// Theory lemmas this solver published into a shared lemma pool that
        /// the pool had not seen before (zero without a pool; see
        /// [`Solver::set_lemma_pool`]).
        lemmas_published,
        /// Sibling theory lemmas imported from a shared lemma pool as clauses
        /// of the persistent SAT instance (zero without a pool).
        lemmas_imported,
        /// Atom conjunctions the theory dispatcher routed to the
        /// difference-logic module (zero when `TheoryConfig::theory_dl` is off).
        dl_checks,
        /// Difference-logic refutations: negative constraint cycles whose
        /// explanations became blocking clauses and shared lemmas.
        dl_conflicts,
        /// Potential-repair edge relaxations performed by the difference-logic
        /// module.
        dl_propagations,
        /// Dispatcher routings to the general LIA module (conjunctions outside
        /// the difference fragment, or everything when the DL gate is off).
        theory_dispatch_lia,
        /// LIA checks whose presolve resumed from the state the persistent
        /// core cached for the previous cone, eliminating only the new
        /// atoms' equalities (zero under [`CoreMode::Scratch`]).
        lia_prefix_reuses,
        /// Lazy-SMT loops that exhausted `TheoryConfig::max_iterations` and
        /// degraded their verdict to `Unknown`.
        theory_iterations_exhausted,
        /// Interval-propagation fixpoint loops cut off by the LIA engine's
        /// round ceiling — the difference-cycle divergence symptom. Zero for
        /// difference cycles when the DL module handles the fragment;
        /// out-of-fragment divergences (e.g. division intervals) can still
        /// ride the ceiling under either gate setting.
        propagation_ceiling_hits,
        /// LIA models that failed re-verification after eliminated variables
        /// were reconstructed (each conservatively degraded to `Unknown`).
        model_reconstruction_failures,
        /// Checks the persistent core could not decide itself and handed to
        /// the scratch engine over the full formula set.
        scratch_fallbacks,
        /// Total wall-clock time spent inside satisfiability checks.
        time: Duration => "solver_ms",
    }
}

/// Outcome of a validity query ([`Solver::check_valid`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validity {
    /// The formula holds under every assignment consistent with the
    /// assertions.
    Valid,
    /// There is an assignment consistent with the assertions that falsifies
    /// the formula.
    Invalid,
    /// The solver could not decide.
    Unknown,
}

/// Configuration for [`Solver`].
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Theory-level configuration (iteration limit, clause-DB reduction, DL
    /// routing).
    pub theory: TheoryConfig,
    /// Which engine runs the satisfiability checks (default:
    /// [`CoreMode::Persistent`]).
    pub core: CoreMode,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            theory: TheoryConfig::default(),
            core: CoreMode::Persistent,
        }
    }
}

/// An incremental first-order solver over integer base values.
///
/// This plays the role Z3 plays in the paper: the symbolic executor asserts
/// the translation of the heap, then asks validity questions (for the proof
/// relation) or requests a model (to build a counterexample).
///
/// ```
/// use folic::{Formula, Solver, Term, Var};
///
/// let mut solver = Solver::new();
/// let l4 = Term::var(Var::new(4));
/// let l5 = Term::var(Var::new(5));
/// solver.assert(Formula::eq(l5.clone(), Term::sub(Term::int(100), l4)));
/// solver.assert(Formula::eq(Term::int(0), l5));
/// let model = solver.check().model().cloned().expect("satisfiable");
/// assert_eq!(model.value(Var::new(4)), Some(100));
/// ```
#[derive(Debug)]
pub struct Solver {
    assertions: Vec<Formula>,
    scopes: Vec<usize>,
    next_var: u32,
    config: SolverConfig,
    stats: Cell<SolverStats>,
    /// The persistent core (interior-mutable because checks take `&self`,
    /// like the stats cell). Unused under [`CoreMode::Scratch`].
    core: RefCell<TheoryCore>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::with_config(SolverConfig::default())
    }
}

impl Solver {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            assertions: Vec::new(),
            scopes: Vec::new(),
            next_var: 0,
            config,
            stats: Cell::new(SolverStats::default()),
            core: RefCell::new(TheoryCore::new(config.theory)),
        }
    }

    /// Allocates a fresh first-order variable (one never returned before by
    /// this solver).
    pub fn fresh_var(&mut self) -> Var {
        let var = Var::new(self.next_var);
        self.next_var += 1;
        var
    }

    /// Informs the solver that variables up to and including `var` are in
    /// use, so [`Solver::fresh_var`] never collides with them.
    pub fn reserve_through(&mut self, var: Var) {
        self.next_var = self.next_var.max(var.index() + 1);
    }

    fn persistent(&self) -> bool {
        self.config.core == CoreMode::Persistent
    }

    /// Adds an assertion to the current scope.
    pub fn assert(&mut self, formula: Formula) {
        let mut stats = self.stats.get();
        stats.assertions += 1;
        self.stats.set(stats);
        if self.persistent() {
            self.core.get_mut().assert(&formula);
        }
        self.assertions.push(formula);
    }

    /// The asserted formulas, oldest first.
    pub fn assertions(&self) -> &[Formula] {
        &self.assertions
    }

    /// Pushes a new assertion scope.
    pub fn push(&mut self) {
        self.scopes.push(self.assertions.len());
    }

    /// Pops the most recent assertion scope, discarding its assertions.
    ///
    /// # Panics
    ///
    /// Panics if there is no scope to pop.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        self.assertions.truncate(mark);
        if self.persistent() {
            self.core.get_mut().truncate(mark);
        }
    }

    /// Retracts every assertion and scope while keeping everything the
    /// persistent core has learned: interned atoms, Tseitin encodings and
    /// theory lemmas survive, so re-asserting formulas the solver has seen
    /// before costs a hash lookup instead of a re-encode. Under
    /// [`CoreMode::Scratch`] this is equivalent to building a fresh solver
    /// (statistics are kept either way).
    pub fn clear_assertions(&mut self) {
        self.assertions.clear();
        self.scopes.clear();
        if self.persistent() {
            self.core.get_mut().clear();
        }
    }

    /// How many assertion scopes are currently open.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// The statistics accumulated so far by this solver.
    pub fn stats(&self) -> SolverStats {
        self.stats.get()
    }

    /// Resets the statistics counters (the assertion stack is untouched).
    pub fn reset_stats(&self) {
        self.stats.set(SolverStats::default());
        self.core.borrow_mut().reset_stats();
    }

    /// Connects this solver to a cross-worker theory-lemma pool (see
    /// [`crate::lemmas::SharedLemmaPool`]): lemmas derived here are
    /// published, and sibling lemmas are imported at check boundaries. Only
    /// meaningful under [`CoreMode::Persistent`]; the scratch engine
    /// rebuilds its state per check and keeps no clause database to import
    /// into, so the pool is ignored there.
    pub fn set_lemma_pool(&mut self, pool: crate::lemmas::SharedLemmaPool) {
        if self.persistent() {
            self.core.get_mut().set_lemma_pool(pool);
        }
    }

    /// Runs one counted satisfiability check of the current assertions
    /// together with `assumptions`. Without `want_model`, a `Sat` answer's
    /// model need not cover the whole assertion set (see
    /// [`TheoryCore::check_verdict`]).
    fn run_check(&self, assumptions: &[Formula], want_model: bool) -> SmtResult {
        let start = Instant::now();
        let mut stats = self.stats.get();
        // Theory-layer events (dispatch decisions, DL work, ceiling hits)
        // are counted in thread-local probes by code with no stats handle;
        // snapshot around the check to attribute this check's delta here.
        let probes_before = crate::probes::totals();
        let (result, engine_stats) = match self.config.core {
            CoreMode::Scratch => {
                if assumptions.is_empty() {
                    check_conjunction_counted(&self.assertions, &self.config.theory)
                } else {
                    let mut combined = self.assertions.clone();
                    combined.extend_from_slice(assumptions);
                    check_conjunction_counted(&combined, &self.config.theory)
                }
            }
            CoreMode::Persistent => {
                let mut core = self.core.borrow_mut();
                debug_assert_eq!(
                    core.len(),
                    self.assertions.len(),
                    "core assertions out of sync with the solver's"
                );
                if want_model {
                    core.check(assumptions)
                } else {
                    core.check_verdict(assumptions)
                }
            }
        };
        stats.merge(&engine_stats);
        stats.merge(&crate::probes::totals().since(&probes_before));
        stats.checks += 1;
        stats.time += start.elapsed();
        match &result {
            SmtResult::Sat(_) => stats.sat += 1,
            SmtResult::Unsat => stats.unsat += 1,
            SmtResult::Unknown => stats.unknown += 1,
        }
        self.stats.set(stats);
        result
    }

    /// Checks satisfiability of the current assertions.
    pub fn check(&self) -> SmtResult {
        self.run_check(&[], true)
    }

    /// Checks satisfiability of the current assertions together with the
    /// given `assumptions`, without changing the assertion stack — the
    /// `check-sat-assuming` entry point for branch-local queries.
    pub fn check_assuming(&self, assumptions: &[Formula]) -> SmtResult {
        self.run_check(assumptions, true)
    }

    /// Determines whether `formula` is valid under the current assertions:
    /// valid iff `assertions ∧ ¬formula` is unsatisfiable. The check reads
    /// only the verdict, so a satisfiable `assertions ∧ ¬formula` builds no
    /// whole-set model: assertion components outside the query's cone that
    /// an earlier `Sat` answer already covered are not re-checked
    /// ([`SolverStats::components_vouched`]).
    pub fn check_valid(&self, formula: &Formula) -> Validity {
        match self.run_check(&[Formula::not(formula.clone())], false) {
            SmtResult::Unsat => Validity::Valid,
            SmtResult::Sat(_) => Validity::Invalid,
            SmtResult::Unknown => Validity::Unknown,
        }
    }

    /// Convenience three-valued query used by the paper's proof relation
    /// (Fig. 5): does the heap prove, refute, or leave ambiguous the goal?
    /// Both of its checks read only the verdict, like
    /// [`Solver::check_valid`]: a `Sat` inside them builds no whole-set
    /// model.
    pub fn prove(&self, goal: &Formula) -> Proof {
        match self.check_valid(goal) {
            Validity::Valid => Proof::Proved,
            Validity::Unknown => Proof::Ambiguous,
            Validity::Invalid => match self.run_check(std::slice::from_ref(goal), false) {
                SmtResult::Unsat => Proof::Refuted,
                SmtResult::Sat(_) => Proof::Ambiguous,
                SmtResult::Unknown => Proof::Ambiguous,
            },
        }
    }
}

/// The three-valued answer of the proof relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// The assertions entail the goal (`Σ ⊢ L : P ✓`).
    Proved,
    /// The assertions entail the negation of the goal (`Σ ⊢ L : P ✗`).
    Refuted,
    /// Neither could be established (`Σ ⊢ L : P ?`).
    Ambiguous,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut solver = Solver::new();
        let a = solver.fresh_var();
        let b = solver.fresh_var();
        assert_ne!(a, b);
        solver.reserve_through(Var::new(10));
        let c = solver.fresh_var();
        assert!(c.index() > 10);
    }

    #[test]
    fn push_pop_restores_assertions() {
        let mut solver = Solver::new();
        solver.assert(Formula::ge(x(0), Term::int(0)));
        solver.push();
        solver.assert(Formula::eq(x(0), Term::int(5)));
        assert_eq!(solver.assertions().len(), 2);
        solver.pop();
        assert_eq!(solver.assertions().len(), 1);
        assert!(solver.check().is_sat());
    }

    #[test]
    fn validity_of_entailed_formula() {
        let mut solver = Solver::new();
        solver.assert(Formula::eq(x(0), Term::int(3)));
        assert_eq!(
            solver.check_valid(&Formula::gt(x(0), Term::int(0))),
            Validity::Valid
        );
        assert_eq!(
            solver.check_valid(&Formula::gt(x(0), Term::int(5))),
            Validity::Invalid
        );
    }

    #[test]
    fn proof_relation_three_values() {
        let mut solver = Solver::new();
        solver.assert(Formula::ge(x(0), Term::int(1)));
        // x ≥ 1 proves x ≠ 0 ...
        assert_eq!(
            solver.prove(&Formula::ne(x(0), Term::int(0))),
            Proof::Proved
        );
        // ... refutes x = 0 ...
        assert_eq!(
            solver.prove(&Formula::eq(x(0), Term::int(0))),
            Proof::Refuted
        );
        // ... and says nothing about x = 5.
        assert_eq!(
            solver.prove(&Formula::eq(x(0), Term::int(5))),
            Proof::Ambiguous
        );
    }

    #[test]
    fn unconstrained_solver_is_sat() {
        let solver = Solver::new();
        assert!(solver.check().is_sat());
    }

    #[test]
    fn stats_count_checks_and_outcomes() {
        let mut solver = Solver::new();
        solver.assert(Formula::ge(x(0), Term::int(0)));
        assert!(solver.check().is_sat());
        assert!(solver
            .check_assuming(&[Formula::lt(x(0), Term::int(0))])
            .is_unsat());
        let stats = solver.stats();
        assert_eq!(stats.checks, 2);
        assert_eq!(stats.sat, 1);
        assert_eq!(stats.unsat, 1);
        assert_eq!(stats.assertions, 1);
        solver.reset_stats();
        assert_eq!(solver.stats(), SolverStats::default());
    }

    #[test]
    fn cdcl_counters_surface_on_boolean_structure() {
        // A disjunctive constraint forces the lazy SMT loop through the CDCL
        // core: each disjunct conflicts with the bound, so the search must
        // propagate and learn before concluding UNSAT.
        let mut solver = Solver::new();
        solver.assert(Formula::or(vec![
            Formula::eq(x(0), Term::int(0)),
            Formula::eq(x(0), Term::int(1)),
        ]));
        solver.assert(Formula::ge(x(0), Term::int(5)));
        assert!(solver.check().is_unsat());
        let stats = solver.stats();
        assert!(stats.propagations > 0, "no propagations counted: {stats:?}");
        // A pure atom conjunction takes the fast path and counts nothing.
        let atoms_only = Solver::new();
        assert!(atoms_only.check().is_sat());
        assert_eq!(atoms_only.stats().conflicts, 0);
        assert_eq!(atoms_only.stats().propagations, 0);
    }

    #[test]
    fn difference_cycle_regression_is_decided_by_dl_without_ceiling_hits() {
        // The PR 3 fuzzer regression: y ≥ x ∧ y ≤ x − 12, seeded with
        // x ≥ 0 so interval propagation has a bound to start chasing
        // around the cycle. It used to diverge into the round ceiling and
        // answer `Unknown`; the DL module must decide it outright.
        let assert_cycle = |solver: &mut Solver| {
            solver.assert(Formula::ge(x(0), Term::int(0)));
            solver.assert(Formula::ge(x(1), x(0)));
            solver.assert(Formula::le(x(1), Term::sub(x(0), Term::int(12))));
        };
        let mut config = SolverConfig::default();
        config.theory.theory_dl = true;
        let mut with_dl = Solver::with_config(config);
        assert_cycle(&mut with_dl);
        assert!(
            with_dl.check().is_unsat(),
            "the DL module decides the cycle"
        );
        let stats = with_dl.stats();
        assert!(stats.dl_checks >= 1, "routed to the DL module: {stats:?}");
        assert!(stats.dl_conflicts >= 1, "the cycle is a DL conflict");
        assert_eq!(
            stats.propagation_ceiling_hits, 0,
            "no round ceiling involved: {stats:?}"
        );
        assert_eq!(stats.unknown, 0);

        let mut config = SolverConfig::default();
        config.theory.theory_dl = false;
        let mut without_dl = Solver::with_config(config);
        assert_cycle(&mut without_dl);
        let verdict = without_dl.check();
        assert!(!verdict.is_sat(), "the old engine must never claim sat");
        let stats = without_dl.stats();
        assert_eq!(stats.dl_checks, 0, "gated off: {stats:?}");
        assert!(
            stats.propagation_ceiling_hits >= 1,
            "the old engine diverges into the ceiling: {stats:?}"
        );
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SolverStats {
            checks: 2,
            sat: 1,
            unsat: 1,
            ..SolverStats::default()
        };
        let b = SolverStats {
            checks: 3,
            unknown: 3,
            assertions: 7,
            ..SolverStats::default()
        };
        a.merge(&b);
        assert_eq!(a.checks, 5);
        assert_eq!(a.unknown, 3);
        assert_eq!(a.assertions, 7);
    }

    #[test]
    fn scope_depth_tracks_push_pop() {
        let mut solver = Solver::new();
        assert_eq!(solver.scope_depth(), 0);
        solver.push();
        solver.push();
        assert_eq!(solver.scope_depth(), 2);
        solver.pop();
        assert_eq!(solver.scope_depth(), 1);
    }

    #[test]
    fn check_with_does_not_mutate() {
        let mut solver = Solver::new();
        solver.assert(Formula::ge(x(0), Term::int(0)));
        let result = solver.check_assuming(&[Formula::lt(x(0), Term::int(0))]);
        assert!(result.is_unsat());
        // The contradictory extra assertion was not retained.
        assert!(solver.check().is_sat());
        assert_eq!(solver.assertions().len(), 1);
    }
}
