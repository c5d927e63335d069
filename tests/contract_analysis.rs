//! Integration tests for the CPCF soft-contract analysis across a range of
//! language features, including the property that every reported
//! counterexample has been validated by concrete re-execution.

use cpcf::{analyze_source, analyze_source_with, AnalyzeOptions, EvalOptions, ExportAnalysis};

fn first_verdict(source: &str) -> ExportAnalysis {
    analyze_source(source)
        .expect("parses")
        .exports
        .into_iter()
        .next()
        .expect("at least one export")
        .1
}

#[test]
fn all_reported_counterexamples_are_validated() {
    let faulty_programs = [
        r#"(module a (provide [f (-> integer? integer?)]) (define (f n) (/ 1 n)))"#,
        r#"(module b (provide [f (-> integer? integer?)]) (define (f n) (/ 1 (- 100 n))))"#,
        r#"(module c (provide [f (-> (listof integer?) integer?)]) (define (f xs) (car xs)))"#,
        r#"(module d (provide [f (-> (-> integer? integer?) integer?)]) (define (f g) (/ 1 (g 5))))"#,
        r#"(module e (provide [f (-> integer? (and/c integer? (lambda (r) (> r 0))))]) (define (f x) x))"#,
    ];
    for source in faulty_programs {
        let report = analyze_source(source).expect("parses");
        let cex = report
            .first_counterexample()
            .unwrap_or_else(|| panic!("no counterexample for {source}"));
        assert!(cex.validated, "unvalidated counterexample for {source}");
    }
}

#[test]
fn correct_programs_are_not_blamed() {
    let correct_programs = [
        r#"(module a (provide [f (-> integer? integer?)]) (define (f n) (+ n 1)))"#,
        r#"(module b (provide [f (-> integer? integer?)]) (define (f n) (if (zero? n) 0 (/ 1 n))))"#,
        r#"(module c (provide [f (-> (and/c (listof integer?) pair?) integer?)]) (define (f xs) (car xs)))"#,
        r#"(module d (provide [f (-> boolean? integer?)]) (define (f b) (if b 1 0)))"#,
    ];
    for source in correct_programs {
        let report = analyze_source(source).expect("parses");
        assert!(
            report.first_counterexample().is_none(),
            "unexpected counterexample for {source}: {report:?}"
        );
    }
}

#[test]
fn higher_order_counterexamples_reconstruct_functions() {
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
            .any(|(_, e)| matches!(e, cpcf::Expr::Lam { .. })),
        "the breaking context must contain a function: {:?}",
        cex.bindings
    );
}

#[test]
fn multi_module_programs_blame_the_right_module() {
    // The helper module is correct; the client misuses it.
    let report = analyze_source(
        r#"
        (module helper
          (provide [half (-> integer? integer?)])
          (define (half n) (/ n 2)))
        (module client
          (provide [risky (-> integer? integer?)])
          (define (risky n) (/ 100 n)))
        "#,
    )
    .expect("parses");
    assert_eq!(report.module, "client");
    let cex = report.first_counterexample().expect("counterexample");
    assert_eq!(cex.blame.party, "client");
}

#[test]
fn mutable_state_protocols_are_checked() {
    let report = analyze_source(
        r#"
        (module lockmod
          (provide [run (-> integer? integer?)])
          (define lock (box 0))
          (define (acquire) (begin (assert (zero? (unbox lock))) (set-box! lock 1)))
          (define (release) (begin (assert (= (unbox lock) 1)) (set-box! lock 0)))
          (define (run n) (begin (acquire) (acquire) 0)))
        "#,
    )
    .expect("parses");
    let cex = report
        .first_counterexample()
        .expect("double acquire is caught");
    assert!(cex.validated);
}

#[test]
fn or_contracts_accept_both_branches() {
    let verdict = first_verdict(
        r#"
        (module disj
          (provide [f (-> (or/c integer? string?) integer?)])
          (define (f x) (if (integer? x) (+ x 1) (string-length x))))
        "#,
    );
    assert!(
        matches!(verdict, ExportAnalysis::Verified),
        "got {verdict:?}"
    );
}

#[test]
fn disabling_validation_still_reports_candidates() {
    let options = AnalyzeOptions {
        validate: false,
        ..AnalyzeOptions::default()
    };
    let report = analyze_source_with(
        r#"(module a (provide [f (-> integer? integer?)]) (define (f n) (/ 1 n)))"#,
        &options,
    )
    .expect("parses");
    let cex = report.first_counterexample().expect("counterexample");
    assert!(!cex.validated, "validation was disabled");
}

#[test]
fn tight_budgets_degrade_gracefully() {
    let options = AnalyzeOptions {
        eval: EvalOptions {
            fuel: 50,
            ..EvalOptions::default()
        },
        ..AnalyzeOptions::default()
    };
    let report = analyze_source_with(
        r#"
        (module slow
          (provide [f (-> integer? integer?)])
          (define (loop n) (if (<= n 0) 0 (loop (- n 1))))
          (define (f n) (begin (loop n) (/ 1 n))))
        "#,
        &options,
    )
    .expect("parses");
    // With such a small budget the analysis must not claim verification.
    for (_, verdict) in &report.exports {
        assert!(
            !matches!(verdict, ExportAnalysis::Verified),
            "a 50-step budget cannot verify this module: {verdict:?}"
        );
    }
}

#[test]
fn a_module_that_still_branches_is_not_a_validated_counterexample() {
    // The module's own opaque survives instantiation, so the re-run still
    // splits on whether it is a number. A run that only *can* blame the
    // module is no concrete counterexample: the verdict stays probable.
    let verdict = first_verdict(
        r#"(module m (provide [main (-> integer?)]) (define (main) (/ 1 (+ 1 (* 0 (opaque))))))"#,
    );
    assert!(
        matches!(verdict, ExportAnalysis::ProbableError(_)),
        "got {verdict:?}"
    );
}

#[test]
fn a_failure_at_another_site_does_not_validate_a_counterexample() {
    // The module is safe: the inner difference is always 0. The unary
    // witness reconstructed for the binary `g` fails in the re-run with an
    // arity error, not at the reported division, so it confirms nothing.
    let verdict = first_verdict(
        r#"(module m
             (provide [main (-> (-> integer? integer? integer?) integer?)])
             (define (main g) (/ 1 (- 100 (- (g 1 2) (g 1 2))))))"#,
    );
    assert!(
        !verdict.counterexample().is_some_and(|cex| cex.validated),
        "got {verdict:?}"
    );
}
