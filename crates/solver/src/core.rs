//! The persistent solver core: hash-consed atoms, a long-lived CDCL
//! instance, and per-query cone slicing.
//!
//! [`crate::theory::check_conjunction_counted`] — the *scratch* engine —
//! rebuilds a SAT solver, re-runs Tseitin encoding and restarts the lazy SMT
//! loop from nothing on every satisfiability check. [`TheoryCore`] is the
//! incremental replacement owned by [`crate::solver::Solver`]:
//!
//! * **Hash-consed atoms** ([`crate::arena::Arena`]): every distinct atom is
//!   interned once; its free variables, its negation, its SAT variable and
//!   its two theory readings — the difference-logic constraints and the
//!   LIA constraint it normalises to — are computed the first time they are
//!   needed and reused by every later query, so a check re-reads no atom.
//! * **Persistent CDCL state**: the clause database survives across checks.
//!   Each asserted formula is Tseitin-encoded once into *definitional*
//!   clauses (pure definitions of auxiliary variables, valid in any frame)
//!   plus a **root literal** that acts as the formula's activation literal:
//!   a check assumes the root literals of the formulas that are live, so
//!   `push`/`pop` retract by no longer assuming a frame's literals
//!   instead of discarding clauses. Theory conflict clauses are valid
//!   lemmas over the interned atoms, so they are added unguarded and keep
//!   pruning the search in every later check whose cone they touch; clauses
//!   blocking merely-undecided (`Unknown`) candidates are guarded by a
//!   per-check query literal and become inert once the check returns.
//! * **Theory dispatch** ([`crate::theory`]): every candidate atom
//!   conjunction — the fast path's whole set, and each propositional
//!   candidate of the SMT loop — is routed, through the atoms' cached
//!   readings, to the cheapest complete theory engine: the incremental
//!   difference-logic engine ([`crate::dl`]) when every atom normalises to
//!   `x − y ≤ c`, the general LIA engine otherwise, which re-flattens only
//!   atoms with a genuine product. A difference-logic refutation
//!   contributes its negative-cycle *explanation* (the inconsistent
//!   subset) as the blocking clause and the shared lemma instead of blaming
//!   the whole candidate, so the learnt clause prunes strictly more.
//! * **Resumed LIA checks**: a query's cone is usually the previous
//!   query's cone plus a few atoms. The fast path keeps, for the last few
//!   cones it sent to LIA, the built problem and its presolved state,
//!   keyed by the cone's atom ids ([`crate::lia`]'s prefix cache). A cone
//!   whose ids start with those of an entry only builds and eliminates
//!   the new atoms, and LIA's equality echelon runs on what presolve
//!   leaves, so neither step re-walks the whole path. Out-of-cone
//!   component checks neither use nor replace those entries.
//! * **Per-query cone slicing, maintained with the assertion stack**: the
//!   active formulas are partitioned into variable-connected components. A
//!   query only searches the components its assumptions touch, so a query
//!   about one heap location never pays for the propositional search of
//!   unrelated locations' constraints. When the cone is satisfiable, the
//!   untouched components are checked separately, with their verdicts
//!   memoized across queries. A model query ([`TheoryCore::check`]) checks
//!   all of them and merges their models; a verdict-only query
//!   ([`TheoryCore::check_verdict`], behind `Solver::check_valid` and
//!   `Solver::prove`) checks only those holding a formula asserted since
//!   the last `Sat` answer, because the rest lie in a prefix already shown
//!   satisfiable (`components_vouched`). The components live in a union–find
//!   over dense variable nodes (union by size, no path compression, an undo
//!   trail) that `assert` extends and `truncate`/`clear` roll back, so a
//!   check only links its assumptions, reads off each live formula's root,
//!   and unlinks the assumptions again.
//! * **Cross-worker lemma sharing** ([`crate::lemmas`]): because atom ids
//!   are process-global, a theory lemma is meaningful outside the core that
//!   derived it. A core attached to a [`SharedLemmaPool`] publishes every
//!   theory-refuted polarity set of at most 32 atoms (a longer one is a
//!   whole path that only that path reuses) and imports siblings' lemmas
//!   at CDCL check boundaries, so
//!   workers analysing related queries (the two variants of one program,
//!   an export and its validation run) split the cost of the theory
//!   conflicts they would otherwise each re-derive.
//!
//! The core is deliberately conservative about its own incompleteness:
//! whenever the sliced/persistent pipeline cannot decide a check
//! (`Unknown`), it falls back to the scratch engine on the full formula
//! set, so its answers can only be *more* decided than the scratch
//! engine's, never different on decided verdicts — a model query's `Sat`
//! answer carries a model verified against every live formula, a
//! verdict-only query's `Sat` rests on a cone model verified against the
//! cone and a satisfiable verdict for every other component, and `Unsat`
//! answers follow from sound clauses alone. The fallback rarely fires on
//! the Table-1 corpus and changes no verdict there, but without it the
//! persistent core loses heap models the scratch engine finds (the
//! 200-seed refinement property in `tests/solver_properties.rs` fails), so
//! it stays.
//! [`crate::CoreMode::Scratch`] runs the scratch engine on every check; it
//! is the reference those differential tests pin.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use crate::arena::{Arena, AtomId};
use crate::cnf::{encode_and_gate, encode_or_gate};
use crate::formula::Formula;
use crate::lemmas::{SharedLemma, SharedLemmaPool};
use crate::lia::{LiaResult, PrefixCache, Resume};
use crate::model::Model;
use crate::probes;
use crate::sat::{BVar, Lit, SatResult as PropResult, SatSolver};
use crate::solver::SolverStats;
use crate::term::Var;
use crate::theory::{
    check_conjunction_counted, collect_atoms, dispatch_check, AtomRef, SmtResult, TheoryConfig,
};

/// The most atoms a lemma offered to a [`SharedLemmaPool`] may have. A
/// refutation the theory could not narrow is the whole conjunction, as long
/// as the path it was asked on: only a check on that same path reuses it,
/// while every pool import, store write and store warm start pays for its
/// size.
const MAX_SHARED_LEMMA_ATOMS: usize = 32;

/// Bound on memoized formula analyses and component verdicts; the caches are
/// cleared wholesale when they outgrow it (correctness never depends on a
/// cache hit).
const CACHE_BOUND: usize = 1 << 20;

/// Everything the core ever needs to know about one distinct formula,
/// computed once and shared by every assertion of that formula (`Rc`).
#[derive(Debug)]
struct FormulaInfo {
    /// Content id: one per distinct formula analyzed by this core. Used to
    /// key component verdicts, so a component re-asserted on a sibling
    /// branch hits the memo even after pops.
    id: u64,
    formula: Formula,
    /// The negation-normal form, computed once (atoms carry the polarity).
    nnf: Formula,
    /// Sorted distinct free variables of the original formula.
    vars: Vec<Var>,
    /// The slicer's node of each variable in `vars` (node ids are never
    /// reused, so they stay valid for the life of the core).
    nodes: Vec<u32>,
    /// Distinct atoms of the NNF, in first-occurrence order.
    atoms: Vec<AtomId>,
    /// When the formula is a pure conjunction of atoms: the atom ids in the
    /// scratch engine's collection order (negations folded into operators).
    conjunction: Option<Vec<AtomId>>,
    /// The Tseitin root literal — the formula's activation literal —
    /// encoded on first use by a CDCL check.
    root: Cell<Option<Lit>>,
    /// The SAT variables this formula's encoding branches on (its atoms'
    /// variables plus the auxiliary gate variables), filled at encode time.
    sat_vars: RefCell<Vec<BVar>>,
}

/// The persistent core. One instance lives inside each [`crate::Solver`]
/// and sees every assertion, retraction and check of that solver's life.
#[derive(Debug)]
pub struct TheoryCore {
    config: TheoryConfig,
    arena: Arena,
    sat: SatSolver,
    /// Atom id → SAT variable, allocated once per atom.
    atom_lit: HashMap<AtomId, BVar>,
    /// Memoized analyses, one per distinct formula.
    analyzed: HashMap<Formula, Rc<FormulaInfo>>,
    next_formula_id: u64,
    /// The live assertions, mirroring `Solver::assertions` element-wise.
    formulas: Vec<Rc<FormulaInfo>>,
    /// The variable-connected components of the live assertions.
    slicer: ConeSlicer,
    /// Length of the longest live prefix known to be satisfiable: the live
    /// length at the last `Sat` answer, lowered by retraction. Every subset
    /// of that prefix is satisfiable, so a verdict-only check skips the
    /// out-of-cone components that lie entirely inside it.
    known_sat: usize,
    /// Memoized verdicts for out-of-cone components, keyed by their sorted
    /// distinct formula-id sets.
    component_cache: HashMap<Vec<u64>, SmtResult>,
    /// The LIA presolve of the last cone the conjunctive fast path sent to
    /// LIA, which the next cone extending it resumes from.
    lia_prefix: PrefixCache,
    /// Arena size at the last stats reset (`atoms_interned` is a delta).
    atoms_at_reset: usize,
    /// The work this core did since the last reset: its own counters
    /// (clauses reused, cone pruning, scratch fallbacks, lemma traffic)
    /// and those of every SAT search it ran.
    counts: SolverStats,
    /// [`TheoryCore::stats`] as of the end of the last check, so each check
    /// reports only its delta.
    reported: SolverStats,
    /// The cross-worker lemma exchange, when the session opted in.
    lemma_pool: Option<SharedLemmaPool>,
    /// Position in the pool's publication order up to which this core has
    /// already fetched.
    lemma_cursor: usize,
    /// Fetched lemmas whose atoms have no SAT variables here yet; retried
    /// at every import until they become expressible.
    deferred_lemmas: Vec<SharedLemma>,
    /// Lemmas this core already holds as clauses (own derivations and
    /// completed imports), so a round trip through the pool is not re-added.
    known_lemmas: HashSet<SharedLemma>,
}

impl TheoryCore {
    /// Creates an empty core.
    pub fn new(config: TheoryConfig) -> Self {
        TheoryCore {
            config,
            arena: Arena::new(),
            sat: SatSolver::new(),
            atom_lit: HashMap::new(),
            analyzed: HashMap::new(),
            next_formula_id: 0,
            formulas: Vec::new(),
            slicer: ConeSlicer::default(),
            known_sat: 0,
            component_cache: HashMap::new(),
            lia_prefix: PrefixCache::default(),
            atoms_at_reset: 0,
            counts: SolverStats::ZERO,
            reported: SolverStats::ZERO,
            lemma_pool: None,
            lemma_cursor: 0,
            deferred_lemmas: Vec::new(),
            known_lemmas: HashSet::new(),
        }
    }

    /// Connects this core to a cross-worker lemma pool: theory lemmas it
    /// derives are published, and sibling lemmas are imported at CDCL check
    /// boundaries. Soundness never depends on the pool — every lemma is a
    /// universally valid clause over globally-interned atoms.
    pub fn set_lemma_pool(&mut self, pool: SharedLemmaPool) {
        self.lemma_pool = Some(pool);
        self.lemma_cursor = 0;
        self.deferred_lemmas.clear();
    }

    /// The core's cumulative counters since the last reset, including the
    /// atoms interned by assertions.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            atoms_interned: (self.arena.atom_count() - self.atoms_at_reset) as u64,
            ..self.counts
        }
    }

    /// Resets the counters; interned state and clauses are untouched.
    pub fn reset_stats(&mut self) {
        self.atoms_at_reset = self.arena.atom_count();
        self.counts = SolverStats::ZERO;
        self.reported = SolverStats::ZERO;
    }

    /// Number of live assertions (must mirror the owning solver's).
    pub fn len(&self) -> usize {
        self.formulas.len()
    }

    /// True when no assertion is live.
    pub fn is_empty(&self) -> bool {
        self.formulas.is_empty()
    }

    /// Registers one asserted formula (interning atoms and memoizing its
    /// analysis if this is the first time the formula is seen).
    pub fn assert(&mut self, formula: &Formula) {
        let info = self.analyze(formula);
        self.slicer.push(&info.nodes);
        self.formulas.push(info);
    }

    /// Retracts assertions beyond `len` — the frame pop. The retracted
    /// formulas' clauses stay in the database; their activation (root)
    /// literals are simply never assumed again.
    pub fn truncate(&mut self, len: usize) {
        self.slicer.truncate(len);
        self.formulas.truncate(len);
        self.known_sat = self.known_sat.min(len);
    }

    /// Retracts every assertion while keeping the interned atoms, the
    /// Tseitin encodings, the theory lemmas and the component memos — the
    /// whole-session rebase entry point.
    pub fn clear(&mut self) {
        self.slicer.truncate(0);
        self.formulas.clear();
        self.known_sat = 0;
    }

    /// Memoized per-formula analysis.
    fn analyze(&mut self, formula: &Formula) -> Rc<FormulaInfo> {
        if let Some(info) = self.analyzed.get(formula) {
            return Rc::clone(info);
        }
        if self.analyzed.len() >= CACHE_BOUND {
            self.analyzed.clear();
        }
        let vars: Vec<Var> = formula.vars().into_iter().collect();
        let nodes = vars.iter().map(|&var| self.slicer.node(var)).collect();
        let nnf = formula.to_nnf();
        let mut seen = HashSet::new();
        let mut atoms = Vec::new();
        self.collect_nnf_atoms(&nnf, &mut seen, &mut atoms);
        let conjunction = as_atom_conjunction(formula).map(|flat| {
            flat.iter()
                .map(|atom| self.arena.intern_atom(atom))
                .collect()
        });
        let info = Rc::new(FormulaInfo {
            id: self.next_formula_id,
            formula: formula.clone(),
            nnf,
            vars,
            nodes,
            atoms,
            conjunction,
            root: Cell::new(None),
            sat_vars: RefCell::new(Vec::new()),
        });
        self.next_formula_id += 1;
        self.analyzed.insert(formula.clone(), Rc::clone(&info));
        info
    }

    fn collect_nnf_atoms(
        &mut self,
        formula: &Formula,
        seen: &mut HashSet<AtomId>,
        out: &mut Vec<AtomId>,
    ) {
        match formula {
            Formula::True | Formula::False => {}
            Formula::Atom(atom) => {
                let id = self.arena.intern_atom(atom);
                if seen.insert(id) {
                    out.push(id);
                }
            }
            Formula::Not(inner) => self.collect_nnf_atoms(inner, seen, out),
            Formula::And(parts) | Formula::Or(parts) => {
                for part in parts {
                    self.collect_nnf_atoms(part, seen, out);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                self.collect_nnf_atoms(a, seen, out);
                self.collect_nnf_atoms(b, seen, out);
            }
        }
    }

    /// Checks satisfiability of the live assertions together with
    /// `assumptions`, returning the verdict and the counters accumulated
    /// since the previous check (so atoms interned by the assertions in
    /// between are reported too). A `Sat` answer carries a model verified
    /// against every live formula and every assumption.
    pub fn check(&mut self, assumptions: &[Formula]) -> (SmtResult, SolverStats) {
        self.check_for(assumptions, true)
    }

    /// [`TheoryCore::check`] for a caller that reads only the verdict: the
    /// model of a `Sat` answer covers just the assumptions' cone, and
    /// out-of-cone components inside the satisfiable prefix are not
    /// re-checked.
    pub fn check_verdict(&mut self, assumptions: &[Formula]) -> (SmtResult, SolverStats) {
        self.check_for(assumptions, false)
    }

    fn check_for(&mut self, assumptions: &[Formula], want_model: bool) -> (SmtResult, SolverStats) {
        let assumed: Vec<Rc<FormulaInfo>> = assumptions.iter().map(|f| self.analyze(f)).collect();
        let active: Vec<Rc<FormulaInfo>> = self.formulas.clone();
        let result = if assumed.is_empty() {
            // Nothing to slice against: the whole assertion set is the cone.
            let result = self.check_set(&active, &[], true);
            match result {
                SmtResult::Unknown => self.fallback(&active, &[]),
                decided => decided,
            }
        } else {
            self.check_sliced(&active, &assumed, want_model)
        };
        if result.is_sat() {
            self.known_sat = active.len();
        }
        let now = self.stats();
        let delta = now.since(&self.reported);
        self.reported = now;
        (result, delta)
    }

    /// The sliced check: solve the assumptions' dependency cone first. The
    /// unrelated components only decide whether the cone's `Sat` extends to
    /// the whole set; their verdicts are memoized because they do not
    /// depend on the query. Components are variable-disjoint, so the cone's
    /// verified model and a satisfiable verdict per component make the
    /// whole set satisfiable.
    ///
    /// With `want_model`, every component is checked, the component models
    /// are merged into the cone's, and the result is re-verified against
    /// every live formula. Without it, only components holding a formula
    /// asserted since the last `Sat` answer (at or past `known_sat`) are
    /// checked; the rest are subsets of a satisfiable set
    /// (`components_vouched`), and the answer carries the cone's model.
    fn check_sliced(
        &mut self,
        active: &[Rc<FormulaInfo>],
        assumed: &[Rc<FormulaInfo>],
        want_model: bool,
    ) -> SmtResult {
        let slicing = self.slicer.slice(active, assumed);
        if !slicing.rest.is_empty() {
            self.counts.cone_vars_pruned += slicing.pruned_vars as u64;
        }
        match self.check_set(&slicing.cone, assumed, true) {
            // The cone is a subset of the live assertions, so its
            // inconsistency is the whole set's inconsistency.
            SmtResult::Unsat => SmtResult::Unsat,
            SmtResult::Unknown => self.fallback(active, assumed),
            SmtResult::Sat(mut model) => {
                for (component, &newest) in slicing.rest.iter().zip(&slicing.newest) {
                    if !want_model && newest < self.known_sat {
                        self.counts.components_vouched += 1;
                        continue;
                    }
                    match self.check_component(component) {
                        SmtResult::Sat(part) => {
                            if want_model {
                                model.extend(part.iter());
                            }
                        }
                        SmtResult::Unsat => return SmtResult::Unsat,
                        SmtResult::Unknown => return self.fallback(active, assumed),
                    }
                }
                if !want_model {
                    return SmtResult::Sat(model);
                }
                match self.finish_model(model, active, assumed) {
                    SmtResult::Sat(model) => SmtResult::Sat(model),
                    _ => self.fallback(active, assumed),
                }
            }
        }
    }

    /// Checks one out-of-cone component, memoizing its verdict by content
    /// (the sorted distinct formula ids — an exact key, since an aliased
    /// `Unsat` would flow into a verdict without any witness check).
    fn check_component(&mut self, component: &[Rc<FormulaInfo>]) -> &SmtResult {
        let mut ids: Vec<u64> = component.iter().map(|info| info.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if !self.component_cache.contains_key(&ids) {
            let result = self.check_set(component, &[], false);
            if self.component_cache.len() >= CACHE_BOUND {
                self.component_cache.clear();
            }
            self.component_cache.insert(ids.clone(), result);
        }
        &self.component_cache[&ids]
    }

    /// The authoritative answer when the persistent pipeline is stuck: run
    /// the scratch engine over the full live formula set.
    fn fallback(&mut self, active: &[Rc<FormulaInfo>], assumed: &[Rc<FormulaInfo>]) -> SmtResult {
        self.counts.scratch_fallbacks += 1;
        let formulas: Vec<Formula> = active
            .iter()
            .chain(assumed)
            .map(|info| info.formula.clone())
            .collect();
        let (result, scratch_stats) = check_conjunction_counted(&formulas, &self.config);
        self.counts.merge(&scratch_stats);
        result
    }

    /// Decides the conjunction of `active ∪ assumed`: a pure atom
    /// conjunction goes straight to the theory; anything with boolean
    /// structure runs the lazy SMT loop on the persistent CDCL state. A
    /// `cone` check resumes LIA presolve from the previous cone's state and
    /// leaves its own active part behind for the next one; out-of-cone
    /// component checks pass `false` and leave that state alone.
    fn check_set(
        &mut self,
        active: &[Rc<FormulaInfo>],
        assumed: &[Rc<FormulaInfo>],
        cone: bool,
    ) -> SmtResult {
        let conjunctive = active
            .iter()
            .chain(assumed)
            .all(|info| info.conjunction.is_some());
        if conjunctive {
            let ids: Vec<AtomId> = active
                .iter()
                .chain(assumed)
                .flat_map(|info| {
                    info.conjunction
                        .as_deref()
                        .expect("checked")
                        .iter()
                        .copied()
                })
                .collect();
            let active_atoms: usize = active
                .iter()
                .map(|info| info.conjunction.as_deref().expect("checked").len())
                .sum();
            let dispatched = {
                let refs: Vec<AtomRef<'_>> =
                    ids.iter().map(|&id| self.arena.atom_ref(id)).collect();
                let resume = cone.then_some(Resume {
                    cache: &mut self.lia_prefix,
                    ids: &ids,
                    active: active_atoms,
                });
                dispatch_check(&refs, &self.config, resume)
            };
            return match dispatched.result {
                LiaResult::Sat(values) => {
                    let mut model = Model::new();
                    for (var, value) in values {
                        model.assign(var, value);
                    }
                    self.finish_model(model, active, assumed)
                }
                LiaResult::Unsat => {
                    // The refuted conjunction is a theory lemma: siblings
                    // re-deriving this exact refutation (the other variant
                    // of the same program, a validation run) skip it. A
                    // module explanation narrows the lemma to the
                    // inconsistent subset — a stronger, more reusable
                    // clause.
                    let lemma: Vec<AtomId> = match &dispatched.explanation {
                        Some(explanation) if !explanation.is_empty() => {
                            explanation.iter().map(|&i| ids[i]).collect()
                        }
                        _ => ids.clone(),
                    };
                    self.publish_lemma(&lemma);
                    SmtResult::Unsat
                }
                LiaResult::Unknown => SmtResult::Unknown,
            };
        }
        self.check_cdcl(active, assumed)
    }

    /// Completes a theory model over the formulas' variables and gates it
    /// behind the full evaluation check, exactly like the scratch engine.
    fn finish_model(
        &self,
        mut model: Model,
        active: &[Rc<FormulaInfo>],
        assumed: &[Rc<FormulaInfo>],
    ) -> SmtResult {
        for info in active.iter().chain(assumed) {
            for &var in &info.vars {
                if model.value(var).is_none() {
                    model.assign(var, 0);
                }
            }
        }
        let satisfied = active
            .iter()
            .chain(assumed)
            .all(|info| model.eval_formula(&info.formula).unwrap_or(false));
        if satisfied {
            SmtResult::Sat(model)
        } else {
            SmtResult::Unknown
        }
    }

    /// The lazy SMT loop over the persistent SAT instance.
    fn check_cdcl(&mut self, active: &[Rc<FormulaInfo>], assumed: &[Rc<FormulaInfo>]) -> SmtResult {
        // Everything already in the database was paid for by earlier checks
        // and is reused wholesale here: Tseitin encodings the scratch
        // engine would rebuild, and theory/learned clauses it would have to
        // re-derive conflict by conflict.
        self.counts.clauses_reused += self.sat.num_clauses() as u64;

        // Activation literals of the formulas under check, encoding on
        // first use; their SAT variables are this check's branching set.
        let mut assumption_lits: Vec<Lit> = Vec::new();
        let mut decision_vars: Vec<BVar> = Vec::new();
        let mut atom_set: Vec<AtomId> = Vec::new();
        let mut seen_atoms: HashSet<AtomId> = HashSet::new();
        for info in active.iter().chain(assumed) {
            assumption_lits.push(self.root_lit(info));
            decision_vars.extend(info.sat_vars.borrow().iter().copied());
            for &atom in &info.atoms {
                if seen_atoms.insert(atom) {
                    atom_set.push(atom);
                }
            }
        }

        // With this check's atoms now holding SAT variables, sibling lemmas
        // over those atoms become expressible — import them before the
        // search so they prune it.
        self.import_lemmas();

        let mut soft_guard: Option<BVar> = None;
        let mut saw_unknown = false;
        for _iteration in 0..self.config.max_iterations {
            let propositional = self.sat.solve_under(&assumption_lits, Some(&decision_vars));
            self.counts.merge(&self.sat.stats());
            match propositional {
                PropResult::Unsat => {
                    return if saw_unknown {
                        SmtResult::Unknown
                    } else {
                        SmtResult::Unsat
                    };
                }
                PropResult::Sat(assignment) => {
                    let mut chosen: Vec<AtomId> = Vec::with_capacity(atom_set.len());
                    let mut blocking: Vec<Lit> = Vec::with_capacity(atom_set.len());
                    for &atom in &atom_set {
                        let bvar = self.atom_lit[&atom];
                        let value = assignment[bvar.index() as usize];
                        chosen.push(if value { atom } else { self.arena.negate(atom) });
                        blocking.push(if value {
                            bvar.negative()
                        } else {
                            bvar.positive()
                        });
                    }
                    let dispatched = {
                        let refs: Vec<AtomRef<'_>> =
                            chosen.iter().map(|&id| self.arena.atom_ref(id)).collect();
                        dispatch_check(&refs, &self.config, None)
                    };
                    match dispatched.result {
                        LiaResult::Sat(values) => {
                            let mut model = Model::new();
                            for (var, value) in values {
                                model.assign(var, value);
                            }
                            match self.finish_model(model, active, assumed) {
                                SmtResult::Sat(model) => return SmtResult::Sat(model),
                                _ => {
                                    // The theory model does not extend to
                                    // the boolean structure: block this
                                    // candidate for the current check only.
                                    saw_unknown = true;
                                    self.block_softly(
                                        blocking,
                                        &mut soft_guard,
                                        &mut assumption_lits,
                                    );
                                }
                            }
                        }
                        LiaResult::Unsat => {
                            if blocking.is_empty() {
                                return SmtResult::Unsat;
                            }
                            // A theory lemma: this combination of atom
                            // polarities is inconsistent under any
                            // assignment, in any frame — retain it, and
                            // offer it to sibling workers. A module
                            // explanation narrows both the clause and the
                            // lemma to the inconsistent subset.
                            let (clause, lemma): (Vec<Lit>, Vec<AtomId>) =
                                match &dispatched.explanation {
                                    Some(explanation) if !explanation.is_empty() => (
                                        explanation.iter().map(|&i| blocking[i]).collect(),
                                        explanation.iter().map(|&i| chosen[i]).collect(),
                                    ),
                                    _ => (blocking, chosen.clone()),
                                };
                            self.sat.add_clause(clause);
                            self.publish_lemma(&lemma);
                        }
                        LiaResult::Unknown => {
                            saw_unknown = true;
                            if blocking.is_empty() {
                                return SmtResult::Unknown;
                            }
                            self.block_softly(blocking, &mut soft_guard, &mut assumption_lits);
                        }
                    }
                }
            }
        }
        probes::bump(|p| p.theory_iterations_exhausted += 1);
        SmtResult::Unknown
    }

    /// Adds a blocking clause that is *not* a theory lemma (the candidate
    /// was undecided, not refuted), guarded by a per-check literal so it
    /// expires with the check instead of poisoning later queries.
    fn block_softly(
        &mut self,
        mut blocking: Vec<Lit>,
        soft_guard: &mut Option<BVar>,
        assumption_lits: &mut Vec<Lit>,
    ) {
        let guard = match soft_guard {
            Some(guard) => *guard,
            None => {
                let guard = self.sat.new_var();
                *soft_guard = Some(guard);
                assumption_lits.push(guard.positive());
                guard
            }
        };
        blocking.push(guard.negative());
        self.sat.add_clause(blocking);
    }

    /// Publishes one theory lemma — a conjunction of polarity-folded atom
    /// ids the theory refuted — into the shared pool, when one is attached
    /// and the lemma is small enough to pay for its sharing.
    fn publish_lemma(&mut self, atoms: &[AtomId]) {
        let Some(pool) = &self.lemma_pool else {
            return;
        };
        let mut sorted: Vec<AtomId> = atoms.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() || sorted.len() > MAX_SHARED_LEMMA_ATOMS {
            return;
        }
        let lemma: SharedLemma = sorted.into();
        if pool.publish(&lemma) {
            self.counts.lemmas_published += 1;
        }
        // Either way this core now holds the lemma locally; a pool round
        // trip must not re-import it.
        self.known_lemmas.insert(lemma);
    }

    /// Imports sibling lemmas published since the last import, turning each
    /// into a clause of the persistent instance. A lemma whose atoms cannot
    /// all be expressed as local SAT literals yet is deferred and retried.
    fn import_lemmas(&mut self) {
        let Some(pool) = self.lemma_pool.clone() else {
            return;
        };
        let (fresh, cursor) = pool.fetch_from(self.lemma_cursor);
        self.lemma_cursor = cursor;
        let mut pending = std::mem::take(&mut self.deferred_lemmas);
        pending.extend(fresh);
        for lemma in pending {
            if self.known_lemmas.contains(&lemma) {
                continue;
            }
            match self.lemma_clause(&lemma) {
                Some(clause) => {
                    self.sat.add_clause(clause);
                    self.counts.lemmas_imported += 1;
                    self.known_lemmas.insert(lemma);
                }
                None => self.deferred_lemmas.push(lemma),
            }
        }
    }

    /// The clause `¬c₁ ∨ … ∨ ¬cₙ` of a lemma over polarity-folded atoms
    /// `cᵢ`, expressed in this core's SAT variables: an atom asserted
    /// positively by some encoding maps to its variable's negative literal,
    /// an atom only present here as its complement maps to the complement's
    /// positive literal. `None` when some atom has no SAT variable in
    /// either polarity yet (the lemma stays deferred — allocating fresh,
    /// unencoded variables for it would add a clause the restricted
    /// branching set never resolves).
    fn lemma_clause(&mut self, lemma: &[AtomId]) -> Option<Vec<Lit>> {
        let mut clause = Vec::with_capacity(lemma.len());
        for &chosen in lemma {
            if let Some(&bvar) = self.atom_lit.get(&chosen) {
                clause.push(bvar.negative());
                continue;
            }
            if !self.arena.adopt(chosen) {
                return None;
            }
            let complement = self.arena.negate(chosen);
            let &bvar = self.atom_lit.get(&complement)?;
            clause.push(bvar.positive());
        }
        Some(clause)
    }

    /// The formula's activation literal, Tseitin-encoding the formula into
    /// definitional clauses on first use.
    fn root_lit(&mut self, info: &Rc<FormulaInfo>) -> Lit {
        if let Some(lit) = info.root.get() {
            return lit;
        }
        let vars_before = self.sat.num_vars();
        let lit = self.encode_nnf(&info.nnf);
        let mut sat_vars: Vec<BVar> = (vars_before..self.sat.num_vars())
            .map(|index| BVar::new(index as u32))
            .collect();
        for &atom in &info.atoms {
            sat_vars.push(self.atom_lit[&atom]);
        }
        *info.sat_vars.borrow_mut() = sat_vars;
        info.root.set(Some(lit));
        lit
    }

    /// The SAT variable of an interned atom, allocated on first use.
    fn atom_bvar(&mut self, atom: &crate::formula::Atom) -> BVar {
        let id = self.arena.intern_atom(atom);
        if let Some(&bvar) = self.atom_lit.get(&id) {
            return bvar;
        }
        let bvar = self.sat.new_var();
        self.atom_lit.insert(id, bvar);
        bvar
    }

    /// Tseitin-encodes an NNF formula into the persistent instance,
    /// returning a literal equivalent to it (clauses are definitional, so
    /// they are sound in every frame).
    fn encode_nnf(&mut self, formula: &Formula) -> Lit {
        match formula {
            Formula::True => {
                let var = self.sat.new_var();
                self.sat.add_clause(vec![var.positive()]);
                var.positive()
            }
            Formula::False => {
                let var = self.sat.new_var();
                self.sat.add_clause(vec![var.negative()]);
                var.positive()
            }
            Formula::Atom(atom) => self.atom_bvar(atom).positive(),
            Formula::Not(inner) => self.encode_nnf(inner).negate(),
            Formula::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.encode_nnf(p)).collect();
                encode_and_gate(&mut self.sat, lits)
            }
            Formula::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.encode_nnf(p)).collect();
                encode_or_gate(&mut self.sat, lits)
            }
            // NNF conversion eliminates these; kept for robustness.
            Formula::Implies(a, b) => {
                let lits = vec![self.encode_nnf(a).negate(), self.encode_nnf(b)];
                encode_or_gate(&mut self.sat, lits)
            }
            Formula::Iff(a, b) => {
                let lit_a = self.encode_nnf(a);
                let lit_b = self.encode_nnf(b);
                let forward = encode_or_gate(&mut self.sat, vec![lit_a.negate(), lit_b]);
                let backward = encode_or_gate(&mut self.sat, vec![lit_b.negate(), lit_a]);
                encode_and_gate(&mut self.sat, vec![forward, backward])
            }
        }
    }
}

/// The outcome of cone slicing: the formulas inside the assumptions'
/// dependency cone (in assertion order), the out-of-cone formulas grouped
/// into variable-connected components (in order of first appearance), the
/// stack index of each component's newest formula, and how many variables
/// the slicing excluded from the query's search.
struct Slicing {
    cone: Vec<Rc<FormulaInfo>>,
    rest: Vec<Vec<Rc<FormulaInfo>>>,
    newest: Vec<usize>,
    pruned_vars: usize,
}

/// [`ConeSlicer::class`] of a root outside the current partition.
const UNSEEN: u32 = u32::MAX;
/// [`ConeSlicer::class`] of a root inside the assumptions' cone.
const CONE: u32 = u32::MAX - 1;

/// The variable-connected components of the live assertions, kept in step
/// with the assertion stack: two formulas share a component iff their
/// variable sets are transitively connected.
///
/// A union–find over dense node ids (one per variable, allocated on first
/// sight and never reused), with union by size and no path compression, so
/// every union is undone by resetting one parent from the trail.
/// [`ConeSlicer::push`] links an asserted formula's variables and
/// [`ConeSlicer::truncate`] unlinks whatever the retracted formulas linked.
#[derive(Debug, Default)]
struct ConeSlicer {
    /// Variable → node.
    node_of: HashMap<Var, u32>,
    /// Parent per node; a root is its own parent.
    parent: Vec<u32>,
    /// Component size per root (stale for non-roots).
    size: Vec<u32>,
    /// The root each union hung under another root, oldest first.
    trail: Vec<u32>,
    /// Per live formula: the trail length before its unions.
    marks: Vec<usize>,
    /// Per root, during one partition: [`CONE`], a rest-group index, or
    /// [`UNSEEN`] (the value every entry holds between partitions).
    class: Vec<u32>,
}

impl ConeSlicer {
    /// The node of `var`, allocated as a singleton on first sight.
    fn node(&mut self, var: Var) -> u32 {
        let next = self.parent.len() as u32;
        let node = *self.node_of.entry(var).or_insert(next);
        if node == next {
            self.parent.push(node);
            self.size.push(1);
            self.class.push(UNSEEN);
        }
        node
    }

    fn find(&self, mut node: u32) -> u32 {
        while self.parent[node as usize] != node {
            node = self.parent[node as usize];
        }
        node
    }

    fn union(&mut self, a: u32, b: u32) {
        let (mut big, mut small) = (self.find(a), self.find(b));
        if big == small {
            return;
        }
        if self.size[big as usize] < self.size[small as usize] {
            std::mem::swap(&mut big, &mut small);
        }
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.trail.push(small);
    }

    /// Connects the nodes of one formula's variables.
    fn link(&mut self, nodes: &[u32]) {
        if let Some((&first, rest)) = nodes.split_first() {
            for &node in rest {
                self.union(first, node);
            }
        }
    }

    /// Undoes every union past trail length `mark`, newest first.
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let small = self.trail.pop().expect("length checked");
            let big = self.parent[small as usize];
            self.size[big as usize] -= self.size[small as usize];
            self.parent[small as usize] = small;
        }
    }

    /// Records one asserted formula on top of the stack.
    fn push(&mut self, nodes: &[u32]) {
        self.marks.push(self.trail.len());
        self.link(nodes);
    }

    /// Retracts the formulas beyond `len`.
    fn truncate(&mut self, len: usize) {
        if let Some(&mark) = self.marks.get(len) {
            self.undo_to(mark);
            self.marks.truncate(len);
        }
    }

    /// Partitions `active` (the live formulas this slicer mirrors) against
    /// the cone of `assumed`: link the assumptions, classify each live
    /// formula by its root, then unlink the assumptions. Ground formulas
    /// (no variables) stay in the cone — they are constant-time for the
    /// theory and excluding them buys nothing. The pruned count is the sum
    /// of the rest components' sizes: every node in such a component is a
    /// variable of one of its formulas.
    fn slice(&mut self, active: &[Rc<FormulaInfo>], assumed: &[Rc<FormulaInfo>]) -> Slicing {
        let mark = self.trail.len();
        for info in assumed {
            self.link(&info.nodes);
        }
        let mut classified: Vec<u32> = Vec::new();
        for info in assumed {
            if let Some(&first) = info.nodes.first() {
                let root = self.find(first);
                if self.class[root as usize] == UNSEEN {
                    self.class[root as usize] = CONE;
                    classified.push(root);
                }
            }
        }
        let mut cone = Vec::new();
        let mut rest: Vec<Vec<Rc<FormulaInfo>>> = Vec::new();
        let mut newest = Vec::new();
        let mut pruned_vars = 0;
        for (index, info) in active.iter().enumerate() {
            let Some(&first) = info.nodes.first() else {
                cone.push(Rc::clone(info));
                continue;
            };
            let root = self.find(first);
            match self.class[root as usize] {
                CONE => cone.push(Rc::clone(info)),
                UNSEEN => {
                    self.class[root as usize] = rest.len() as u32;
                    classified.push(root);
                    pruned_vars += self.size[root as usize] as usize;
                    rest.push(vec![Rc::clone(info)]);
                    newest.push(index);
                }
                group => {
                    rest[group as usize].push(Rc::clone(info));
                    newest[group as usize] = index;
                }
            }
        }
        for root in classified {
            self.class[root as usize] = UNSEEN;
        }
        self.undo_to(mark);
        Slicing {
            cone,
            rest,
            newest,
            pruned_vars,
        }
    }
}

/// If `formula` is a conjunction of (possibly negated) atoms, return the
/// atoms flattened, with negation folded into the comparison operator —
/// the single-formula face of the scratch engine's fast path.
fn as_atom_conjunction(formula: &Formula) -> Option<Vec<crate::formula::Atom>> {
    let mut atoms = Vec::new();
    collect_atoms(formula, &mut atoms)?;
    Some(atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    fn core() -> TheoryCore {
        TheoryCore::new(TheoryConfig::default())
    }

    #[test]
    fn conjunction_fast_path_answers_without_sat() {
        let mut core = core();
        core.assert(&Formula::ge(x(0), Term::int(5)));
        let (result, stats) = core.check(&[Formula::lt(x(0), Term::int(5))]);
        assert!(result.is_unsat());
        // Interning the two atoms is the only work the fast path counts.
        assert_eq!(
            stats,
            SolverStats {
                atoms_interned: stats.atoms_interned,
                ..SolverStats::ZERO
            },
            "no CDCL work on conjunctions: {stats:?}"
        );
    }

    #[test]
    fn boolean_structure_runs_on_the_persistent_instance() {
        let mut core = core();
        core.assert(&Formula::or(vec![
            Formula::eq(x(0), Term::int(0)),
            Formula::eq(x(0), Term::int(1)),
        ]));
        core.assert(&Formula::ge(x(0), Term::int(5)));
        let (result, _) = core.check(&[]);
        assert!(result.is_unsat());
        // Re-checking reuses the clauses the first check left behind.
        let before = core.stats().clauses_reused;
        let (result, _) = core.check(&[]);
        assert!(result.is_unsat());
        assert!(core.stats().clauses_reused > before);
    }

    #[test]
    fn cone_slicing_prunes_unrelated_components() {
        let mut core = core();
        // Two disconnected constraint islands.
        core.assert(&Formula::ge(x(0), Term::int(0)));
        core.assert(&Formula::le(x(5), Term::int(9)));
        let (result, _) = core.check(&[Formula::lt(x(0), Term::int(0))]);
        assert!(result.is_unsat());
        assert!(
            core.stats().cone_vars_pruned >= 1,
            "x5's island lies outside the query cone: {:?}",
            core.stats()
        );
    }

    #[test]
    fn sat_models_cover_out_of_cone_components() {
        let mut core = core();
        core.assert(&Formula::eq(x(0), Term::int(3)));
        core.assert(&Formula::eq(x(7), Term::int(11)));
        let (result, _) = core.check(&[Formula::gt(x(0), Term::int(0))]);
        let model = result.model().expect("satisfiable");
        assert_eq!(model.value(Var::new(0)), Some(3));
        assert_eq!(model.value(Var::new(7)), Some(11), "out-of-cone var solved");
    }

    /// The verdict of the scratch engine over `core`'s live assertions and
    /// `assumptions`, rebuilt from nothing.
    fn scratch_verdict(core: &TheoryCore, assumptions: &[Formula]) -> SmtResult {
        let formulas: Vec<Formula> = core
            .formulas
            .iter()
            .map(|info| info.formula.clone())
            .chain(assumptions.iter().cloned())
            .collect();
        check_conjunction_counted(&formulas, &TheoryConfig::default()).0
    }

    #[test]
    fn verdict_checks_vouch_only_for_the_satisfiable_prefix() {
        let mut core = core();
        core.assert(&Formula::ge(x(0), Term::int(0)));
        core.assert(&Formula::le(x(0), Term::int(10)));
        core.assert(&Formula::eq(x(5), Term::int(4)));
        let negated_goal = [Formula::lt(x(0), Term::int(100))];
        let (result, stats) = core.check_verdict(&negated_goal);
        assert!(result.is_sat());
        assert_eq!(stats.components_vouched, 0, "nothing answered Sat yet");
        // Nothing new since that answer: x5's island is vouched for.
        let (result, stats) = core.check_verdict(&negated_goal);
        assert!(result.is_sat());
        assert_eq!(stats.components_vouched, 1);
        // A contradictory island asserted after the last `Sat` answer is
        // checked, and refutes the whole set.
        core.assert(&Formula::eq(x(7), Term::int(1)));
        core.assert(&Formula::eq(x(7), Term::int(2)));
        assert!(scratch_verdict(&core, &negated_goal).is_unsat());
        let (result, stats) = core.check_verdict(&negated_goal);
        assert!(result.is_unsat(), "the fresh x7 island is contradictory");
        assert_eq!(stats.components_vouched, 1, "only x5's island");
    }

    #[test]
    fn a_retracted_prefix_vouches_for_nothing() {
        let mut core = core();
        core.assert(&Formula::ge(x(0), Term::int(0)));
        core.assert(&Formula::eq(x(7), Term::int(1)));
        let mark = core.len();
        core.assert(&Formula::ge(x(7), Term::int(0)));
        let negated_goal = [Formula::lt(x(0), Term::int(100))];
        assert!(core.check_verdict(&negated_goal).0.is_sat());
        // Pop below the satisfiable length and re-assert a contradiction at
        // the popped index: the x7 island now ends at a stack index the
        // last `Sat` answer saw holding a different formula.
        core.truncate(mark);
        core.assert(&Formula::eq(x(7), Term::int(2)));
        assert!(scratch_verdict(&core, &negated_goal).is_unsat());
        let (result, stats) = core.check_verdict(&negated_goal);
        assert!(result.is_unsat());
        assert_eq!(stats.components_vouched, 0);
        // The same after a whole-stack rebase.
        core.clear();
        core.assert(&Formula::ge(x(0), Term::int(0)));
        core.assert(&Formula::eq(x(7), Term::int(1)));
        core.assert(&Formula::eq(x(7), Term::int(2)));
        assert!(core.check_verdict(&negated_goal).0.is_unsat());
    }

    #[test]
    fn solver_validity_queries_match_a_rebuilt_scratch_solver() {
        use crate::solver::{CoreMode, Proof, Solver, SolverConfig, Validity};
        let stack = [
            Formula::ge(x(0), Term::int(0)),
            Formula::le(x(0), Term::int(10)),
            Formula::eq(x(5), Term::int(4)),
        ];
        let contradiction = [
            Formula::eq(x(7), Term::int(1)),
            Formula::eq(x(7), Term::int(2)),
        ];
        let goal = Formula::ge(x(0), Term::int(100));
        let mut solver = Solver::new();
        for formula in &stack {
            solver.assert(formula.clone());
        }
        assert_eq!(solver.check_valid(&goal), Validity::Invalid);
        assert_eq!(solver.prove(&goal), Proof::Refuted);
        assert!(solver.stats().components_vouched > 0);
        // Model queries after a verdict-only `Sat` still cover every
        // out-of-cone component.
        let model = solver
            .check_assuming(&[Formula::not(goal.clone())])
            .model()
            .cloned()
            .expect("satisfiable");
        assert_eq!(model.value(Var::new(5)), Some(4), "out-of-cone var solved");
        solver.push();
        for formula in &contradiction {
            solver.assert(formula.clone());
        }
        let mut scratch = Solver::with_config(SolverConfig {
            core: CoreMode::Scratch,
            ..SolverConfig::default()
        });
        for formula in solver.assertions() {
            scratch.assert(formula.clone());
        }
        assert_eq!(scratch.check_valid(&goal), Validity::Valid);
        assert_eq!(scratch.prove(&goal), Proof::Proved);
        assert_eq!(solver.check_valid(&goal), Validity::Valid);
        assert_eq!(solver.prove(&goal), Proof::Proved);
        solver.pop();
        assert_eq!(solver.check_valid(&goal), Validity::Invalid);
    }

    #[test]
    fn truncate_retracts_without_poisoning_later_checks() {
        let mut core = core();
        core.assert(&Formula::ge(x(0), Term::int(0)));
        let mark = core.len();
        core.assert(&Formula::eq(x(0), Term::int(5)));
        let (result, _) = core.check(&[Formula::ne(x(0), Term::int(5))]);
        assert!(result.is_unsat());
        core.truncate(mark);
        let (result, _) = core.check(&[Formula::ne(x(0), Term::int(5))]);
        assert!(result.is_sat(), "the popped equality must not leak");
    }

    #[test]
    fn retained_lemmas_survive_retraction_soundly() {
        let mut core = core();
        // A disjunction forces the SMT loop to learn theory lemmas.
        core.assert(&Formula::or(vec![
            Formula::eq(x(0), Term::int(0)),
            Formula::eq(x(0), Term::int(1)),
        ]));
        let mark = core.len();
        core.assert(&Formula::ge(x(0), Term::int(5)));
        let (result, _) = core.check(&[]);
        assert!(result.is_unsat());
        core.truncate(mark);
        // The lemmas learned against `x0 ≥ 5` must not refute the weaker
        // frame.
        let (result, _) = core.check(&[]);
        let model = result.model().expect("x0 ∈ {0, 1} is satisfiable");
        assert!(matches!(model.value(Var::new(0)), Some(0) | Some(1)));
    }

    #[test]
    fn lemmas_flow_between_cores_through_the_pool() {
        let pool = SharedLemmaPool::new();
        let disjunction = Formula::or(vec![
            Formula::eq(x(0), Term::int(0)),
            Formula::eq(x(0), Term::int(1)),
        ]);
        let bound = Formula::ge(x(0), Term::int(5));

        let mut publisher = core();
        publisher.set_lemma_pool(pool.clone());
        publisher.assert(&disjunction);
        publisher.assert(&bound);
        let (result, _) = publisher.check(&[]);
        assert!(result.is_unsat());
        assert!(publisher.stats().lemmas_published >= 1);
        assert!(!pool.is_empty());

        // A second core facing the same contradiction imports the lemmas
        // before its search instead of re-deriving them conflict by
        // conflict — and its own re-derivations do not re-publish.
        let mut importer = core();
        importer.set_lemma_pool(pool.clone());
        importer.assert(&disjunction);
        importer.assert(&bound);
        let (result, _) = importer.check(&[]);
        assert!(result.is_unsat());
        assert!(
            importer.stats().lemmas_imported >= 1,
            "sibling lemmas import once the atoms are encoded: {:?}",
            importer.stats()
        );
        assert_eq!(importer.stats().lemmas_published, 0);
    }

    #[test]
    fn a_detached_core_neither_publishes_nor_imports() {
        let mut core = core();
        core.assert(&Formula::or(vec![
            Formula::eq(x(0), Term::int(0)),
            Formula::eq(x(0), Term::int(1)),
        ]));
        core.assert(&Formula::ge(x(0), Term::int(5)));
        let (result, _) = core.check(&[]);
        assert!(result.is_unsat());
        assert_eq!(core.stats().lemmas_published, 0);
        assert_eq!(core.stats().lemmas_imported, 0);
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

    /// A small random formula over `x0..x11`: a ground atom, a bound, a
    /// two- or three-variable comparison, or a disjunction of two of those.
    fn random_formula(rng: &mut Rng) -> Formula {
        fn atom(rng: &mut Rng) -> Formula {
            let bound = Term::int(rng.below(9) as i64 - 4);
            let mut lhs: Option<Term> = None;
            for _ in 0..rng.below(4) {
                let var = x(rng.below(12) as u32);
                lhs = Some(match lhs {
                    None => var,
                    Some(sum) => Term::add(sum, var),
                });
            }
            match lhs {
                None => Formula::le(Term::int(1), bound),
                Some(lhs) => Formula::le(lhs, bound),
            }
        }
        if rng.below(4) == 0 {
            Formula::or(vec![atom(rng), atom(rng)])
        } else {
            atom(rng)
        }
    }

    /// The cone, rest groups and pruned-variable count computed from
    /// nothing: components by merging variable sets to a fixpoint.
    fn brute_force_slice(
        active: &[Rc<FormulaInfo>],
        assumed: &[Rc<FormulaInfo>],
    ) -> (Vec<u64>, Vec<Vec<u64>>, Vec<usize>, usize) {
        let mut components: Vec<HashSet<Var>> = active
            .iter()
            .chain(assumed)
            .filter(|info| !info.vars.is_empty())
            .map(|info| info.vars.iter().copied().collect())
            .collect();
        let mut merged = true;
        while merged {
            merged = false;
            'outer: for i in 0..components.len() {
                for j in i + 1..components.len() {
                    if !components[i].is_disjoint(&components[j]) {
                        let other = components.swap_remove(j);
                        components[i].extend(other);
                        merged = true;
                        break 'outer;
                    }
                }
            }
        }
        let component_of = |var: Var| {
            components
                .iter()
                .position(|c| c.contains(&var))
                .expect("every variable has a component")
        };
        let cone_components: HashSet<usize> = assumed
            .iter()
            .flat_map(|info| info.vars.iter().map(|&var| component_of(var)))
            .collect();
        let mut cone = Vec::new();
        let mut rest: Vec<(usize, Vec<u64>, usize)> = Vec::new();
        let mut pruned: HashSet<Var> = HashSet::new();
        for (index, info) in active.iter().enumerate() {
            let Some(&first) = info.vars.first() else {
                cone.push(info.id);
                continue;
            };
            let component = component_of(first);
            if cone_components.contains(&component) {
                cone.push(info.id);
                continue;
            }
            pruned.extend(info.vars.iter().copied());
            match rest.iter_mut().find(|(c, _, _)| *c == component) {
                Some((_, group, newest)) => {
                    group.push(info.id);
                    *newest = index;
                }
                None => rest.push((component, vec![info.id], index)),
            }
        }
        (
            cone,
            rest.iter().map(|(_, group, _)| group.clone()).collect(),
            rest.iter().map(|&(_, _, newest)| newest).collect(),
            pruned.len(),
        )
    }

    #[test]
    fn stack_slicer_matches_a_from_scratch_partition() {
        let mut rng = Rng(0x51ce_0019);
        for _run in 0..40 {
            let mut core = core();
            for _step in 0..120 {
                match rng.below(10) {
                    0..=4 => {
                        let formula = random_formula(&mut rng);
                        core.assert(&formula);
                    }
                    5 => {
                        let len = rng.below(core.len() as u64 + 1) as usize;
                        core.truncate(len);
                    }
                    6 if rng.below(4) == 0 => core.clear(),
                    _ => {
                        let assumptions: Vec<Formula> = (0..1 + rng.below(2))
                            .map(|_| random_formula(&mut rng))
                            .collect();
                        let assumed: Vec<Rc<FormulaInfo>> =
                            assumptions.iter().map(|f| core.analyze(f)).collect();
                        let active = core.formulas.clone();
                        let trail = core.slicer.trail.len();
                        let slicing = core.slicer.slice(&active, &assumed);
                        assert_eq!(
                            core.slicer.trail.len(),
                            trail,
                            "assumption unions are undone"
                        );
                        let ids = |infos: &[Rc<FormulaInfo>]| {
                            infos.iter().map(|info| info.id).collect::<Vec<u64>>()
                        };
                        let got = (
                            ids(&slicing.cone),
                            slicing
                                .rest
                                .iter()
                                .map(|group| ids(group))
                                .collect::<Vec<_>>(),
                            slicing.newest.clone(),
                            slicing.pruned_vars,
                        );
                        assert_eq!(got, brute_force_slice(&active, &assumed));
                        // A full check slices the same way and leaves the
                        // stack as it found it.
                        if rng.below(3) == 0 {
                            core.check(&assumptions);
                            assert_eq!(core.slicer.trail.len(), trail);
                        }
                    }
                }
                assert_eq!(core.slicer.marks.len(), core.len());
            }
        }
    }

    #[test]
    fn verdict_checks_agree_with_the_scratch_engine_over_random_stacks() {
        let mut rng = Rng(0x0dd5_c0de);
        let mut vouched = 0;
        for _run in 0..40 {
            let mut core = core();
            for _step in 0..16 {
                match rng.below(8) {
                    0..=3 => {
                        let formula = random_formula(&mut rng);
                        core.assert(&formula);
                    }
                    4 => {
                        let len = rng.below(core.len() as u64 + 1) as usize;
                        core.truncate(len);
                    }
                    _ => {
                        let assumptions = [random_formula(&mut rng)];
                        let (result, stats) = core.check_verdict(&assumptions);
                        vouched += stats.components_vouched;
                        let expected = scratch_verdict(&core, &assumptions);
                        if !matches!(result, SmtResult::Unknown)
                            && !matches!(expected, SmtResult::Unknown)
                        {
                            assert_eq!(result.is_sat(), expected.is_sat());
                        }
                    }
                }
            }
        }
        assert!(vouched > 0, "the prefix vouched for some component");
    }

    #[test]
    fn atoms_intern_once_across_checks() {
        let mut core = core();
        core.assert(&Formula::ge(x(0), Term::int(0)));
        core.check(&[Formula::gt(x(0), Term::int(1))]);
        let after_first = core.stats().atoms_interned;
        // The same assumption again interns nothing new.
        core.check(&[Formula::gt(x(0), Term::int(1))]);
        assert_eq!(core.stats().atoms_interned, after_first);
        core.reset_stats();
        assert_eq!(core.stats().atoms_interned, 0);
    }
}
