//! Corpus-wide differential test for the sharded analysis scheduler: for
//! every program in every corpus group, analyzing with `workers = 1` and
//! `workers = 4` must produce identical per-export verdicts in identical report order, for both the
//! correct and the faulty variant — and every counterexample the analysis
//! reports must carry a concrete, re-run-confirmed validation.
//!
//! The equivalence compares verdict *classifications* (plus blame and
//! validation status), not counterexample bindings: bindings come from a
//! solver model, and which of several equally valid models the search lands
//! on is the one thing scheduling is allowed to influence.

use cpcf::{analyze_module, AnalyzeOptions, ExportAnalysis, ModuleReport};
use scv_bench::corpus::all_programs;
use scv_bench::harness::BenchOptions;

/// The harness's reduced `quick` budget, small enough that walking the whole
/// corpus four times stays fast, with a private (non-shared) cache so the
/// two worker counts start from identical state.
fn quick_options(workers: usize) -> AnalyzeOptions {
    let mut options = BenchOptions::quick().with_workers(workers).analyze;
    options.shared_cache = None;
    options
}

/// Asserts the invariant the analyzer promises for `validate: true` runs:
/// a `Counterexample` verdict is only ever reported after the concrete
/// re-run confirmed the blame, so `validated` must be set on every row.
fn assert_counterexamples_validated(report: &ModuleReport, program: &str, variant: &str) {
    for (export, analysis) in &report.exports {
        if let ExportAnalysis::Counterexample(cex) = analysis {
            assert!(
                cex.validated,
                "{program} ({variant} variant), export {export}: \
                 unvalidated counterexample reported: {cex:?}"
            );
        }
    }
}

/// The scheduling-independent portion of an export verdict.
fn signature(analysis: &ExportAnalysis) -> String {
    match analysis {
        ExportAnalysis::Verified => "verified".to_string(),
        ExportAnalysis::Counterexample(cex) => format!(
            "counterexample[{}@{:?} validated={}]",
            cex.blame.party, cex.blame.label, cex.validated
        ),
        ExportAnalysis::ProbableError(blame) => {
            format!("probable[{}@{:?}]", blame.party, blame.label)
        }
        ExportAnalysis::Exhausted => "exhausted".to_string(),
    }
}

fn report_signature(report: &ModuleReport) -> Vec<(String, String)> {
    report
        .exports
        .iter()
        .map(|(name, analysis)| (name.clone(), signature(analysis)))
        .collect()
}

fn analyze_with_workers(source: &str, workers: usize) -> ModuleReport {
    let (program, _) = cpcf::parse_program(source).expect("corpus programs parse");
    let module = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .expect("corpus programs have a module");
    analyze_module(&program, &module, &quick_options(workers))
}

#[test]
fn sequential_and_sharded_analyses_agree_corpus_wide() {
    let mut checked = 0usize;
    for program in all_programs() {
        for (variant, source) in [("correct", program.correct), ("faulty", program.faulty)] {
            let sequential = analyze_with_workers(source, 1);
            let sharded = analyze_with_workers(source, 4);
            assert_eq!(
                report_signature(&sequential),
                report_signature(&sharded),
                "{} ({variant} variant): workers=1 and workers=4 disagree",
                program.name,
            );
            assert_counterexamples_validated(&sequential, program.name, variant);
            assert_counterexamples_validated(&sharded, program.name, variant);
            checked += 1;
        }
    }
    assert!(
        checked >= 50,
        "expected to cover the whole corpus, checked only {checked} variants"
    );
}

#[test]
fn sharded_analysis_is_deterministic_across_repeat_runs() {
    // Two sharded runs of the same multi-export program must agree with each
    // other, not just with the sequential run — the work-claiming order may
    // differ, the verdicts must not.
    let source = r#"
        (module multi
          (provide [safe (-> integer? integer?)]
                   [crash (-> integer? integer?)]
                   [cmp (-> number? boolean?)]
                   [guarded (-> integer? integer?)])
          (define (safe x) (+ x 1))
          (define (crash n) (/ 1 (- 100 n)))
          (define (cmp x) (< x 0))
          (define (guarded n) (if (zero? n) 0 (/ 100 n))))
    "#;
    let first = analyze_with_workers(source, 4);
    let second = analyze_with_workers(source, 4);
    assert_eq!(report_signature(&first), report_signature(&second));
    assert_eq!(
        first.exports.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        vec!["safe", "crash", "cmp", "guarded"],
        "report order must follow the module declaration"
    );
}
