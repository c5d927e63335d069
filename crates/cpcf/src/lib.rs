//! # cpcf — Contract PCF and soft contract verification with counterexamples
//!
//! This crate scales the counterexample-generation technique of *“Relatively
//! Complete Counterexamples for Higher-Order Programs”* (Nguyễn & Van Horn,
//! PLDI 2015) from the typed core calculus (see the `spcf` crate) to an
//! untyped, higher-order language with the features the paper's evaluation
//! needs (§4–§5):
//!
//! * dynamic typing with run-time tag tests (`number?`, `procedure?`, …) and
//!   a slice of the numeric tower including exact complex numbers;
//! * user-defined structures (`struct`), pairs and lists;
//! * first-class, higher-order contracts (`->`, `and/c`, `or/c`, `cons/c`,
//!   `listof`, `one-of/c`, `any/c`, flat predicates) with blame;
//! * mutable boxes;
//! * a module system with contracted exports (`provide`).
//!
//! The analysis ([`analyze`](fn@analyze)) plays the role of the paper's SCV tool: for
//! each contracted export it synthesizes the most general unknown context
//! allowed by the contract, executes the module symbolically against it,
//! and, at every error blamed on the module, asks the first-order solver
//! (the `folic` crate) for a model of the heap, reconstructs concrete —
//! possibly higher-order — inputs, re-runs them concretely, and reports a
//! validated [`Counterexample`].
//!
//! ## Architecture
//!
//! * [`syntax`] / [`parse`] — the CPCF AST and its s-expression surface
//!   syntax.
//! * [`heap`] — the symbolic heap. Every mutation that can affect the
//!   heap's first-order encoding is recorded in a **constraint journal**
//!   ([`heap::JournalEvent`]) with a running fingerprint; a branch-cloned
//!   heap extends its parent's journal, so consumers can compute exactly
//!   the delta between two states on the same path. `Heap::clone` is an
//!   O(1) snapshot: the stores are persistent copy-on-write maps
//!   ([`pmap`]) and the journal an `Arc`-shared chunk chain, so the
//!   evaluator's pervasive state splits share structure instead of deep
//!   copying.
//! * [`pmap`] — the persistent map (path-copying AVL over `Arc` nodes)
//!   backing the heap, which counts its copy-on-write work (snapshots,
//!   copied nodes, shared journal bytes) into the thread-local
//!   [`thread_totals`] so it is observable in [`SessionStats`] and the
//!   bench reports.
//! * [`prove`] — the prover. [`ProverSession`] is a *stateful, incremental*
//!   query engine: it keeps one live `folic` solver whose assertion stack
//!   mirrors a journal prefix, asserts only unseen journal suffixes
//!   (bracketing branch-local state in `push`/`pop` scopes), and memoizes
//!   `(heap fingerprint, query) → Proof` verdicts. [`SessionStats`] makes
//!   the saving measurable. The stateless [`prove::reference_prove_num`]
//!   and [`prove::reference_heap_model`] answer the same queries the
//!   original solver-per-query way and serve as the differential tests'
//!   oracle.
//! * [`eval`] — the symbolic evaluator, split by concern: `eval` (the
//!   dispatcher and continuation plumbing), `eval::branch` (truthiness, tag
//!   predicates, structural refinement), `eval::apply` (application and the
//!   demonic context), `eval::contracts` (monitoring and blame) and
//!   `eval::prims` (primitives and symbolic arithmetic). The evaluation
//!   context ([`Ctx`]) threads the prover session mutably through all of
//!   them, so neither it nor the option types are `Copy`.
//! * [`cex`] — counterexample reconstruction from a solver model.
//! * [`analyze`](mod@analyze) — the analysis itself, split into context
//!   synthesis, per-export analysis and a work-stealing scheduler that
//!   shards exports across [`AnalyzeOptions::workers`] threads, one
//!   long-lived [`ProverSession`] per worker. A [`SharedVerdictCache`] lets verdicts flow between
//!   workers and across runs (e.g. the correct/faulty variants of a
//!   benchmark). [`ModuleReport`] carries the aggregated and per-worker
//!   [`SessionStats`] so harnesses can report solver work per benchmark.
//!   Alongside verdicts, workers exchange **theory lemmas** through a
//!   [`SharedLemmaPool`] (atom ids are process-global in `folic`, so a
//!   lemma is meaningful in every worker); `CPCF_LEMMA_SHARING=off` is the
//!   ablation that keeps every session's lemmas private.
//! * [`store`] — warm starts across *processes*: an append-only,
//!   content-addressed on-disk store ([`AnalysisStore`]) persisting proved
//!   verdicts (keyed by heap fingerprint), theory lemmas (by atom content)
//!   and per-export verdicts keyed by a dependency-cone hash
//!   ([`analyze::export_cone_hash`]). A [`SharedVerdictCache`] built
//!   [`with_store`](SharedVerdictCache::with_store) gains the disk tier;
//!   [`AnalyzeOptions::incremental`] skips exports whose cone hash already
//!   has a stored verdict. Schema-versioned, engine-fingerprinted
//!   ([`EngineFingerprint`]) and CRC-framed: a mismatched, truncated or
//!   corrupted file degrades to a cold start, never to a wrong verdict.
//!
//! ## Example
//!
//! ```
//! use cpcf::{analyze_source, ExportAnalysis};
//!
//! let report = analyze_source(
//!     r#"
//!     (module div100
//!       (provide [f (-> integer? integer?)])
//!       (define (f n) (/ 1 (- 100 n))))
//!     "#,
//! )
//! .expect("parses");
//!
//! match &report.exports[0].1 {
//!     ExportAnalysis::Counterexample(cex) => {
//!         assert!(cex.validated);
//!         // The breaking input is exactly 100 — the case random testing
//!         // misses with its default small-integer generators (§5.2).
//!     }
//!     other => panic!("expected a counterexample, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod cex;
pub mod eval;
pub mod heap;
pub mod numeric;
pub mod parse;
pub mod pmap;
pub mod prove;
pub mod store;
pub mod syntax;

pub use analyze::{
    analyze, analyze_module, analyze_source, analyze_source_with, default_workers, resolve_workers,
    AnalyzeOptions, ExportAnalysis, ModuleReport, WORKER_STACK_BYTES,
};
pub use cex::Counterexample;
pub use eval::{Ctx, EvalOptions, Outcome};
pub use folic::{counters, default_lemma_sharing, SharedLemmaPool, Tally};
pub use heap::{CRefinement, ContractVal, Env, Heap, Loc, SVal, Tag};
pub use numeric::Number;
pub use parse::{parse_expr, parse_program, ParseError, Parser};
pub use pmap::PMap;
pub use prove::{thread_totals, ProverSession, SessionStats, SharedVerdictCache};
pub use store::{AnalysisStore, EngineFingerprint, StoreCounters};
pub use syntax::{CBlame, Definition, Expr, Label, Module, Prim, Program, Provide, StructDef};
