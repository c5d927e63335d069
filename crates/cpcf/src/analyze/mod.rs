//! The analysis driver: soft contract verification with counterexamples.
//!
//! For every contracted export of a module, the analyzer synthesizes the
//! most general unknown context allowed by the contract — opaque arguments
//! for every `->` domain, iterated when the range is itself a function
//! contract — and runs the symbolic evaluator's search on it. Each error
//! blamed on the module is a candidate violation, checked as soon as the
//! search reaches it: the heap's model is used to reconstruct concrete
//! inputs, the program is re-run concretely, and the first confirmed blame
//! ends the search and is reported as a counterexample. An unconfirmed one
//! is remembered and the search goes on; if nothing is confirmed, the
//! export is flagged as a *probable* violation, exactly like the paper's
//! tool when the solver cannot produce a model.
//!
//! The driver is split by concern:
//!
//! * [`mod@self`] — options, verdicts and the [`ModuleReport`];
//! * `context` — most-general-context synthesis (a counterexample's inputs
//!   are plugged into the context by [`instantiate`]);
//! * `export` — the single-export analysis and concrete validation;
//! * `scheduler` — the worker pool sharding per-export analyses across
//!   threads ([`AnalyzeOptions::workers`]), one long-lived
//!   [`crate::ProverSession`] per worker.

mod cone;
mod context;
mod export;
mod scheduler;

pub use crate::syntax::instantiate;
pub use cone::export_cone_hash;

use folic::SharedLemmaPool;

use crate::cex::Counterexample;
use crate::eval::EvalOptions;
use crate::prove::{SessionStats, SharedVerdictCache};
use crate::syntax::{CBlame, Program};

/// The blame party used for the synthesized unknown context.
pub const CONTEXT_PARTY: &str = "context";

/// Options controlling an analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Evaluator options (fuel, branching, havoc depth, solver).
    pub eval: EvalOptions,
    /// Re-run counterexamples concretely before reporting them.
    pub validate: bool,
    /// How many nested `->` ranges the synthesized context applies.
    pub context_depth: u32,
    /// How many worker threads shard the per-export analyses. `1` runs the
    /// exports sequentially (still through the scheduler, with one reused
    /// session); `0` means "auto": one worker per hardware thread, as
    /// reported by [`std::thread::available_parallelism`] (resolved by
    /// [`resolve_workers`] at scheduling time, so the same options value
    /// adapts to the machine it runs on). Defaults to the `ANALYZE_WORKERS`
    /// environment variable — which follows the same convention, `0` for
    /// auto — or `1` when unset or unparsable.
    pub workers: usize,
    /// A verdict cache shared across this run's workers and, when the same
    /// handle is passed to several runs, across runs — e.g. the correct and
    /// faulty variants of a benchmark program. `None` keeps every session's
    /// cache private.
    pub shared_cache: Option<SharedVerdictCache>,
    /// A theory-lemma pool shared across this run's workers (and, when the
    /// same handle spans several runs, across runs). `None` lets the
    /// scheduler consult [`folic::default_lemma_sharing`]
    /// (`CPCF_LEMMA_SHARING`) and create a per-run pool when sharing is on;
    /// `Some` pins an explicit pool regardless of the environment.
    pub shared_lemmas: Option<SharedLemmaPool>,
    /// A persistent [`crate::AnalysisStore`]. When set, the scheduler
    /// warm-starts the lemma pool from it before analyzing — only when some
    /// export is re-analysed, so a run that reuses every stored cone leaves
    /// the pool alone — records every freshly computed per-export verdict
    /// under its dependency-cone hash ([`export_cone_hash`]), and records
    /// new lemmas after the run. (The *verdict-cache* tier is wired
    /// separately: build the shared cache with
    /// [`SharedVerdictCache::with_store`].)
    pub store: Option<crate::store::AnalysisStore>,
    /// Incremental re-verification: when `store` is set, exports whose
    /// dependency-cone hash matches a stored verdict are skipped entirely
    /// (the stored [`ExportAnalysis`] is returned and the export listed in
    /// [`ModuleReport::skipped`]); only edited cones are re-analyzed.
    pub incremental: bool,
}

/// The worker count taken from the `ANALYZE_WORKERS` environment variable,
/// or 1 when unset or unparsable. `0` is passed through (it means "auto",
/// see [`AnalyzeOptions::workers`]); positive values are clamped to `1..=64`.
pub fn default_workers() -> usize {
    std::env::var("ANALYZE_WORKERS")
        .ok()
        .and_then(|value| value.trim().parse::<usize>().ok())
        .map_or(1, |n| if n == 0 { 0 } else { n.clamp(1, 64) })
}

/// Resolves a requested worker count to an actual one: `0` ("auto") becomes
/// the machine's available parallelism (1 when that cannot be determined),
/// any other value is taken as-is.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            eval: EvalOptions::default(),
            validate: true,
            context_depth: 3,
            workers: default_workers(),
            shared_cache: None,
            shared_lemmas: None,
            store: None,
            incremental: false,
        }
    }
}

/// The verdict for a single contracted export.
#[derive(Debug, Clone, PartialEq)]
pub enum ExportAnalysis {
    /// No error blamed on the module is reachable within the budget, and the
    /// whole (finite) interaction space was explored.
    Verified,
    /// A confirmed, concrete counterexample.
    Counterexample(Counterexample),
    /// An error was reached symbolically but no concrete counterexample
    /// could be confirmed.
    ProbableError(CBlame),
    /// The search ended before the space was covered, with no error found:
    /// the fuel ran out on some path ([`EvalOptions::fuel`]), or a state was
    /// dropped at the queue bound ([`EvalOptions::max_branches`]).
    Exhausted,
}

impl ExportAnalysis {
    /// True if the export was verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, ExportAnalysis::Verified)
    }

    /// The counterexample, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            ExportAnalysis::Counterexample(c) => Some(c),
            _ => None,
        }
    }
}

/// The analysis report for one module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleReport {
    /// The analysed module.
    pub module: String,
    /// Per-export verdicts, in module (declaration) order regardless of the
    /// worker count or completion order.
    pub exports: Vec<(String, ExportAnalysis)>,
    /// Aggregated prover-session statistics over every export analysis
    /// (including counterexample validation re-runs): query counts, cache
    /// hits, and how many full versus incremental heap encodings the solver
    /// interaction needed.
    pub stats: SessionStats,
    /// Per-worker statistics, in worker-index order (one entry when the
    /// analysis ran sequentially). Summing these gives `stats`.
    pub worker_stats: Vec<SessionStats>,
    /// Exports whose verdict was reused from the persistent store because
    /// their dependency-cone hash was unchanged (incremental mode only; a
    /// subset of the `exports` names, in module order). Empty outside
    /// [`AnalyzeOptions::incremental`] runs.
    pub skipped: Vec<String>,
    /// Stored theory lemmas the run warm-started into its lemma pool (those
    /// new to the pool). Zero without a store and a pool, and when every
    /// export was skipped: the pool is warm-started only when an export is
    /// re-analysed.
    pub lemmas_warm_started: u64,
}

impl ModuleReport {
    /// True if every export was verified.
    pub fn all_verified(&self) -> bool {
        self.exports.iter().all(|(_, a)| a.is_verified())
    }

    /// The first counterexample found, if any.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.exports.iter().find_map(|(_, a)| a.counterexample())
    }
}

/// Analyzes the last module of the program with default options.
pub fn analyze(program: &Program) -> ModuleReport {
    let name = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "main".to_string());
    analyze_module(program, &name, &AnalyzeOptions::default())
}

/// Analyzes the named module, sharding the per-export analyses across
/// `options.workers` threads.
pub fn analyze_module(
    program: &Program,
    module_name: &str,
    options: &AnalyzeOptions,
) -> ModuleReport {
    let Some(module) = program.module(module_name) else {
        return ModuleReport {
            module: module_name.to_string(),
            exports: Vec::new(),
            stats: SessionStats::default(),
            worker_stats: Vec::new(),
            skipped: Vec::new(),
            lemmas_warm_started: 0,
        };
    };
    scheduler::run_exports(program, module, options)
}

/// Convenience: parse and analyze source text, returning the report of the
/// last module.
///
/// # Errors
///
/// Returns a parse error message when the source is malformed.
pub fn analyze_source(source: &str) -> Result<ModuleReport, String> {
    analyze_source_with(source, &AnalyzeOptions::default())
}

/// [`analyze_source`] with explicit options.
///
/// # Errors
///
/// Returns a parse error message when the source is malformed.
pub fn analyze_source_with(source: &str, options: &AnalyzeOptions) -> Result<ModuleReport, String> {
    let (program, _structs) = crate::parse::parse_program(source).map_err(|e| e.to_string())?;
    let name = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "main".to_string());
    Ok(analyze_module(&program, &name, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Expr;

    #[test]
    fn safe_increment_is_verified() {
        let report = analyze_source(
            r#"
            (module inc
              (provide [f (-> integer? integer?)])
              (define (f x) (+ x 1)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn quickcheck_hard_division_yields_counterexample() {
        // f n = 1 / (100 - n): needs exactly n = 100 (§5.2 of the paper).
        let report = analyze_source(
            r#"
            (module div100
              (provide [f (-> integer? integer?)])
              (define (f n) (/ 1 (- 100 n))))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
        assert!(
            cex.bindings.iter().any(|(_, e)| *e == Expr::Int(100)),
            "expected the input 100, got {:?}",
            cex.bindings
        );
    }

    #[test]
    fn guarded_division_is_verified() {
        let report = analyze_source(
            r#"
            (module safe-div
              (provide [f (-> integer? integer?)])
              (define (f n) (if (zero? n) 0 (/ 100 n))))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn precondition_protects_division() {
        // The contract requires a non-zero argument, so no error is reachable.
        let report = analyze_source(
            r#"
            (module safe-div2
              (provide [f (-> (and/c integer? (lambda (n) (not (zero? n)))) integer?)])
              (define (f n) (/ 100 n)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn weak_contract_lets_complex_numbers_through() {
        // `<` requires reals but the contract only demands number?: the
        // argmin-style counterexample (§5.2).
        let report = analyze_source(
            r#"
            (module cmp
              (provide [smaller? (-> number? boolean?)])
              (define (smaller? x) (< x 0)))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
        assert!(
            cex.bindings
                .iter()
                .any(|(_, e)| matches!(e, Expr::Complex(_, _))),
            "expected a complex input, got {:?}",
            cex.bindings
        );
    }

    #[test]
    fn higher_order_argument_counterexample() {
        // The exported function applies its functional argument and divides
        // by the result minus 100: the counterexample must provide a function
        // returning 100.
        let report = analyze_source(
            r#"
            (module ho
              (provide [f (-> (-> integer? integer?) integer? integer?)])
              (define (f g n) (/ 1 (- 100 (g n)))))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
        assert!(
            cex.bindings
                .iter()
                .any(|(_, e)| matches!(e, Expr::Lam { .. })),
            "expected a functional input, got {:?}",
            cex.bindings
        );
    }

    #[test]
    fn car_of_possibly_empty_list_is_caught() {
        let report = analyze_source(
            r#"
            (module head
              (provide [head (-> (listof integer?) integer?)])
              (define (head xs) (car xs)))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
    }

    #[test]
    fn nonempty_list_contract_verifies_car() {
        let report = analyze_source(
            r#"
            (module head
              (provide [head (-> (and/c (listof integer?) pair?) integer?)])
              (define (head xs) (car xs)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    #[test]
    fn range_contract_violations_blame_the_module() {
        // The module promises a positive result but returns the argument
        // unchanged.
        let report = analyze_source(
            r#"
            (module pos
              (provide [f (-> integer? (and/c integer? (lambda (r) (> r 0))))])
              (define (f x) x))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(cex.validated);
    }

    #[test]
    fn struct_accessors_are_checked() {
        let report = analyze_source(
            r#"
            (module tree
              (struct node (left right))
              (provide [left-of (-> any/c any/c)])
              (define (left-of t) (node-left t)))
            "#,
        )
        .expect("parses");
        let cex = report.first_counterexample().expect("counterexample");
        assert!(
            cex.validated,
            "accessing a field of a non-node must be caught"
        );
    }

    #[test]
    fn struct_contract_protects_accessors() {
        let report = analyze_source(
            r#"
            (module tree
              (struct node (left right))
              (provide [left-of (-> node? any/c)])
              (define (left-of t) (node-left t)))
            "#,
        )
        .expect("parses");
        assert!(report.all_verified(), "report: {report:?}");
    }

    /// A module with several exports of mixed verdicts, for scheduler tests.
    const MULTI_EXPORT: &str = r#"
        (module multi
          (provide [safe (-> integer? integer?)]
                   [crash (-> integer? integer?)]
                   [guarded (-> integer? integer?)]
                   [wrong-range (-> integer? (and/c integer? (lambda (r) (> r 0))))])
          (define (safe x) (+ x 1))
          (define (crash n) (/ 1 (- 100 n)))
          (define (guarded n) (if (zero? n) 0 (/ 100 n)))
          (define (wrong-range x) x))
    "#;

    fn verdict_kind(analysis: &ExportAnalysis) -> &'static str {
        match analysis {
            ExportAnalysis::Verified => "verified",
            ExportAnalysis::Counterexample(_) => "counterexample",
            ExportAnalysis::ProbableError(_) => "probable",
            ExportAnalysis::Exhausted => "exhausted",
        }
    }

    #[test]
    fn sharded_analysis_matches_sequential_and_keeps_order() {
        let sequential = analyze_source_with(
            MULTI_EXPORT,
            &AnalyzeOptions {
                workers: 1,
                ..AnalyzeOptions::default()
            },
        )
        .expect("parses");
        let sharded = analyze_source_with(
            MULTI_EXPORT,
            &AnalyzeOptions {
                workers: 4,
                ..AnalyzeOptions::default()
            },
        )
        .expect("parses");
        let names: Vec<&str> = sequential.exports.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["safe", "crash", "guarded", "wrong-range"],
            "export order must follow the module declaration"
        );
        assert_eq!(
            sequential
                .exports
                .iter()
                .map(|(n, a)| (n.as_str(), verdict_kind(a)))
                .collect::<Vec<_>>(),
            sharded
                .exports
                .iter()
                .map(|(n, a)| (n.as_str(), verdict_kind(a)))
                .collect::<Vec<_>>(),
            "worker count must not change verdicts or their order"
        );
        assert_eq!(sequential.worker_stats.len(), 1);
        assert!(sharded.worker_stats.len() > 1, "several workers ran");
        // Per-worker stats sum to the merged stats.
        let mut summed = SessionStats::default();
        for per_worker in &sharded.worker_stats {
            summed.merge(per_worker);
        }
        assert_eq!(summed, sharded.stats);
    }

    #[test]
    fn shared_cache_feeds_sibling_workers_and_later_runs() {
        let cache = SharedVerdictCache::new();
        let options = AnalyzeOptions {
            workers: 4,
            shared_cache: Some(cache.clone()),
            ..AnalyzeOptions::default()
        };
        let first = analyze_source_with(MULTI_EXPORT, &options).expect("parses");
        assert!(
            !cache.is_empty(),
            "the run must populate the shared cache: {:?}",
            first.stats
        );
        cache.advance_epoch();
        let second = analyze_source_with(MULTI_EXPORT, &options).expect("parses");
        assert_eq!(
            first
                .exports
                .iter()
                .map(|(n, a)| (n.as_str(), verdict_kind(a)))
                .collect::<Vec<_>>(),
            second
                .exports
                .iter()
                .map(|(n, a)| (n.as_str(), verdict_kind(a)))
                .collect::<Vec<_>>(),
        );
        assert!(
            cache.cross_epoch_hits() > 0,
            "the second run must reuse verdicts computed by the first"
        );
        assert!(
            second.stats.shared_cache_hits > 0,
            "sessions must report shared hits: {:?}",
            second.stats
        );
    }

    #[test]
    fn workers_env_variable_feeds_the_default() {
        // `default_workers` clamps and falls back rather than panicking; it
        // may legitimately return 0 ("auto") when ANALYZE_WORKERS=0.
        let workers = default_workers();
        assert!(workers <= 64);
        assert_eq!(AnalyzeOptions::default().workers, workers);
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        let auto = resolve_workers(0);
        assert!(auto >= 1, "auto never resolves below one worker");
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        // Positive requests pass through unchanged.
        assert_eq!(resolve_workers(1), 1);
        assert_eq!(resolve_workers(7), 7);
    }

    #[test]
    fn zero_workers_analysis_runs_with_auto_parallelism() {
        let report = analyze_source_with(
            MULTI_EXPORT,
            &AnalyzeOptions {
                workers: 0,
                ..AnalyzeOptions::default()
            },
        )
        .expect("parses");
        let expected_workers = resolve_workers(0).clamp(1, report.exports.len());
        assert_eq!(
            report.worker_stats.len(),
            expected_workers,
            "workers: 0 must spawn one worker per hardware thread (capped by exports)"
        );
        // Verdicts are unchanged versus the sequential run.
        let sequential = analyze_source_with(
            MULTI_EXPORT,
            &AnalyzeOptions {
                workers: 1,
                ..AnalyzeOptions::default()
            },
        )
        .expect("parses");
        assert_eq!(
            sequential
                .exports
                .iter()
                .map(|(n, a)| (n.as_str(), verdict_kind(a)))
                .collect::<Vec<_>>(),
            report
                .exports
                .iter()
                .map(|(n, a)| (n.as_str(), verdict_kind(a)))
                .collect::<Vec<_>>(),
        );
    }
}
