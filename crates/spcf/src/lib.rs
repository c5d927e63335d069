//! # spcf — Symbolic PCF, a typed front-end over cpcf
//!
//! This crate is the typed core of *“Relatively Complete Counterexamples
//! for Higher-Order Programs”* (Nguyễn & Van Horn, PLDI 2015): PCF over
//! integers extended with opaque values `•ᵀ`, unknown values of type `T`
//! (§3). It parses and type-checks programs, and analyses them by lowering
//! them onto Contract PCF ([`cpcf`]), the untyped language whose symbolic
//! evaluator, prover and counterexample reconstruction the Table 1 corpus
//! runs on. There is one evaluator: the typed core is a surface for it.
//!
//! ## How it works
//!
//! 1. Programs are written in an s-expression syntax ([`parse`]) and
//!    type-checked ([`typecheck`]).
//! 2. [`lower`](fn@lower) turns a program with opaques `•ᵀ¹ … •ᵀᵏ` into a
//!    module exporting `main`, a function of the opaques, under the contract
//!    `(-> T₁′ … Tₖ′ any/c)` in which `int` is `integer?` and `T → U` is
//!    `(-> T′ U′)` (see [`mod@lower`] for every rule).
//! 3. [`analyze`] runs cpcf's analysis on that module. The unknown context
//!    supplies opaque arguments, applying the function it receives to fresh
//!    opaques (the paper's demonic context); at an error, the solver's model
//!    and the heap's record of those applications reconstruct a concrete,
//!    possibly higher-order counterexample, which is re-run to confirm the
//!    blame. Its bindings are keyed by the SPCF opaque labels.
//!
//! ## Example: the paper's worked example (§2)
//!
//! ```
//! use spcf::{analyze, parse, ExportAnalysis};
//!
//! // let f (g : int → int) (n : int) = 1 / (100 - (g n)) in (• f)
//! let program = parse::parse(
//!     "((• (-> (-> (-> int int) int int) int))
//!       (lambda (g : (-> int int)) (lambda (n : int)
//!         (div 1 (- 100 (g n))))))",
//! )
//! .expect("parses");
//!
//! match analyze(&program).expect("type-checks") {
//!     ExportAnalysis::Counterexample(cex) => {
//!         // The unknown context applies f to a function returning 100.
//!         assert!(cex.validated);
//!         println!("{cex}");
//!     }
//!     other => panic!("expected a counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lower;
pub mod parse;
mod pretty;
pub mod syntax;
pub mod typecheck;
pub mod types;

pub use cpcf::{Counterexample, ExportAnalysis};
pub use lower::{analyze, lower, Lowered};
pub use syntax::{Expr, Label, Op};
pub use typecheck::{check_program, type_of, TypeError};
pub use types::Type;
