//! # scv-bench — benchmark corpus and harness for the PLDI 2015 evaluation
//!
//! This crate regenerates the paper's evaluation (Table 1 and the §5.2
//! qualitative comparisons). Each benchmark is a CPCF module in two
//! variants: the *correct* program the original suites ship, and an
//! *erroneous* variant obtained the same way the paper obtained theirs —
//! weakening a precondition or omitting a check before a partial operation.
//!
//! The [`harness`] runs the soft-contract analysis on both variants and
//! reports, per program: size, contract order, whether the correct variant
//! verifies, whether the faulty variant gets a *validated concrete
//! counterexample*, and the wall-clock time of each run — the same columns
//! as Table 1. Absolute times are not comparable to the paper's (different
//! machine, different solver); the shape — which programs verify, which get
//! counterexamples, and which groups are the expensive ones — is.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod harness;
pub mod report;

pub use corpus::{all_programs, BenchProgram, Group};
pub use harness::{run_program, BenchOptions, ProgramResult, RowCounters, Verdict};
pub use report::{render_table, summarize, summarize_stats, to_json, total_stats};
