//! # hoce — Higher-Order Counterexamples
//!
//! Umbrella crate re-exporting the pieces of this workspace, which together
//! reproduce *“Relatively Complete Counterexamples for Higher-Order
//! Programs”* (Nguyễn & Van Horn, PLDI 2015):
//!
//! * [`folic`] — the first-order constraint solver used for base-type
//!   reasoning (the role Z3 plays in the paper).
//! * [`spcf`] — Symbolic PCF, the typed core (§3 of the paper): a parser and
//!   type checker whose programs are lowered onto `cpcf` for analysis.
//! * [`cpcf`] — Contract PCF, the untyped extension with contracts, structs
//!   and mutable state backing the soft-contract-verification tool (§4–5),
//!   and the one symbolic evaluator both languages run on.
//! * [`randtest`] — a QuickCheck-style random-testing baseline used for the
//!   paper's qualitative comparison (§5.2).
//!
//! See the crate-level documentation of each member for details, and the
//! `examples/` directory for end-to-end walkthroughs (the §2 worked example
//! is `examples/quickstart.rs`).

pub use cpcf;
pub use folic;
pub use randtest;
pub use spcf;
