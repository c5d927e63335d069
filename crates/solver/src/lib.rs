//! # folic — a first-order linear integer constraint solver
//!
//! `folic` ("first-order linear integer constraints") is the base-type
//! solver used by the symbolic executors in this workspace. It plays the
//! role Z3 plays in *“Relatively Complete Counterexamples for Higher-Order
//! Programs”* (Nguyễn & Van Horn, PLDI 2015): the symbolic heap accumulated
//! during execution is translated into quantifier-free, integer-sorted
//! formulas; the solver answers the proof relation's validity questions and,
//! at an error state, produces the **model** that is plugged back into the
//! heap to reconstruct a concrete (possibly higher-order) counterexample.
//!
//! ## Architecture
//!
//! * [`term`] / [`formula`] — the AST of integer terms and quantifier-free
//!   formulas, with NNF conversion and evaluation.
//! * [`arena`] — the hash-consing arena interning terms and atoms into ids,
//!   with per-node variable sets and negations cached.
//! * [`sat`] — a CDCL propositional solver (watched literals, first-UIP
//!   learning, activity-ordered branching over a lazy binary heap,
//!   LBD-scored learnt clauses with periodic clause-database reduction,
//!   Luby-sequence restarts, solving under assumptions with an optional
//!   restricted branching set).
//! * [`cnf`] — Tseitin encoding of formulas into clauses over theory atoms
//!   (the scratch engine's per-check encoder).
//! * [`lia`] — the general linear-integer-arithmetic theory engine:
//!   Gaussian elimination over equalities, interval propagation, and a
//!   small-values-first branch-and-bound model search (which also handles the
//!   product constraints introduced by multiplying two unknowns). The
//!   dispatcher calls it for every conjunction outside the difference
//!   fragment.
//! * [`dl`] — the incremental difference-logic engine: conjunctions whose
//!   atoms all normalise to `x − y ≤ c` are decided *exactly* by
//!   negative-cycle detection over the constraint graph, with
//!   potential-function reuse across incremental asserts and negative-cycle
//!   explanations as conflict clauses. On by default;
//!   [`TheoryConfig::theory_dl`] switches it off for the LIA-only reference
//!   the differential tests compare against.
//! * [`theory`] — the theory layer: the dispatcher routing each atom
//!   conjunction to the cheapest complete engine through the atoms' theory
//!   readings (cached per interned atom in the persistent core), and the
//!   lazy SMT loop combining the SAT core with the dispatched theory,
//!   rebuilt from nothing per check (the *scratch* engine: the persistent
//!   core's fallback on `Unknown`, and, as [`CoreMode::Scratch`], the
//!   reference the differential tests pin).
//! * [`counters`](mod@counters) — the [`counters!`] macro that declares a counter
//!   registry once and generates its merge, delta and report visitor;
//!   [`SolverStats`] is this crate's registry.
//! * [`probes`] — a thread-local [`SolverStats`] for theory-layer events
//!   raised in code with no statistics handle (dispatch decisions,
//!   propagation-ceiling hits, model-reconstruction failures), whose delta
//!   across each check is merged into the checking solver's stats.
//! * [`core`] — the *persistent* incremental core (the default engine of
//!   every [`Solver`]): one long-lived CDCL instance per solver whose
//!   Tseitin encodings, interned atoms and theory lemmas survive across
//!   checks, with assertion frames retracting by activation literals and
//!   per-query cone slicing restricting each search to the dependency cone
//!   of its assumptions.
//! * [`lemmas`] — the [`SharedLemmaPool`] exchanging theory lemmas across
//!   worker threads: atom ids are process-global (see [`arena`]), so a
//!   blocking clause the theory refuted in one core is a valid clause in
//!   every sibling core, imported at check boundaries and gated by
//!   `CPCF_LEMMA_SHARING=on|off`.
//! * [`solver`] — the user-facing [`Solver`] with `push`/`pop`, validity
//!   queries and the three-valued [`Proof`] relation used by symbolic
//!   execution.
//!
//! ## Example
//!
//! The constraint set from the paper's §2 worked example:
//!
//! ```
//! use folic::{Formula, Solver, Term, Var};
//!
//! let l4 = Term::var(Var::new(4));
//! let l5 = Term::var(Var::new(5));
//!
//! let mut solver = Solver::new();
//! solver.assert(Formula::eq(l5.clone(), Term::sub(Term::int(100), l4.clone())));
//! solver.assert(Formula::eq(Term::int(0), l5));
//!
//! let model = solver.check().model().cloned().expect("satisfiable");
//! assert_eq!(model.value(Var::new(4)), Some(100)); // the input that crashes `f`
//! ```
//!
//! ## Completeness
//!
//! The solver is complete for conjunctions of linear equalities and
//! inequalities whose models fit within its configured search bound, and
//! reports [`SmtResult::Unknown`] (never a wrong answer) otherwise. This is
//! precisely the "relative" in the paper's relative-completeness theorem:
//! counterexample generation is complete *relative to* the power of this
//! solver on first-order data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cnf;
pub mod core;
pub mod counters;
pub mod dl;
pub mod formula;
pub mod lemmas;
pub mod lia;
pub mod linear;
pub mod model;
pub mod probes;
pub mod sat;
pub mod solver;
pub mod term;
pub mod theory;

pub use arena::{global_atom, Arena, AtomId};
pub use counters::Tally;
pub use formula::{Atom, CmpOp, Formula};
pub use lemmas::{default_lemma_sharing, SharedLemma, SharedLemmaPool};
pub use model::Model;
pub use solver::{CoreMode, Proof, Solver, SolverConfig, SolverStats, Validity};
pub use term::{Term, Var};
pub use theory::{SmtResult, TheoryConfig};
