//! A small CDCL propositional satisfiability solver.
//!
//! This is the boolean engine underneath the lazy SMT loop in
//! [`crate::theory`]. It implements the standard conflict-driven clause
//! learning architecture: two-watched-literal unit propagation, first-UIP
//! conflict analysis, activity-based decision heuristics (a VSIDS variant),
//! and phase saving. It neither restarts nor deletes clauses: the formulas
//! produced by symbolic execution are small enough that the learned-clause
//! database stays modest.

mod solver;
mod types;

pub use solver::SatSolver;
pub use types::{BVar, Lit, SatResult};
