//! Integration tests for the CPCF soft-contract analysis across a range of
//! language features, including the property that every reported
//! counterexample has been validated by concrete re-execution.

use cpcf::{
    analyze_source, analyze_source_with, AnalyzeOptions, EvalOptions, ExportAnalysis, Expr,
};

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
    // The module is safe: the inner difference is always 0. Equal argument
    // tuples share one case-map entry, so it verifies; and a witness whose
    // re-run fails anywhere but at the reported division confirms nothing.
    let verdict = first_verdict(
        r#"(module m
             (provide [main (-> (-> integer? integer? integer?) integer?)])
             (define (main g) (/ 1 (- 100 (- (g 1 2) (g 1 2))))))"#,
    );
    assert!(verdict.is_verified(), "got {verdict:?}");
}

/// The validated counterexample of a faulty module's only export.
fn validated_cex(source: &str) -> cpcf::Counterexample {
    match first_verdict(source) {
        ExportAnalysis::Counterexample(cex) if cex.validated => cex,
        other => panic!("expected a validated counterexample, got {other:?}"),
    }
}

/// The parameters and body of a reconstructed lambda.
fn lambda(expr: &Expr) -> (&[String], &Expr) {
    match expr {
        Expr::Lam { params, body } => (params, body),
        other => panic!("expected a lambda, got {other:?}"),
    }
}

/// True if some sub-expression satisfies `test`.
fn contains(expr: &Expr, test: impl Fn(&Expr) -> bool) -> bool {
    let mut found = false;
    expr.walk(&mut |e| found |= test(e));
    found
}

#[test]
fn distinct_argument_tuples_are_unrelated() {
    // A binary case lambda with (g 1 2) - (g 1 3) = 100 breaks the division.
    let cex = validated_cex(
        r#"(module m
             (provide [main (-> (-> integer? integer? integer?) integer?)])
             (define (main g) (/ 1 (- 100 (- (g 1 2) (g 1 3))))))"#,
    );
    let (params, body) = lambda(&cex.bindings[0].1);
    assert_eq!(params.len(), 2, "got {:?}", cex.bindings);
    assert!(
        contains(body, |e| matches!(e, Expr::And(_))),
        "got {body:?}"
    );
}

#[test]
fn a_binary_opaque_function_is_reconstructed_at_its_arity() {
    let cex = validated_cex(
        r#"(module m
             (provide [main (-> (-> integer? integer? integer?) integer?)])
             (define (main g) (/ 1 (- 100 (g 1 2)))))"#,
    );
    let (params, body) = lambda(&cex.bindings[0].1);
    assert_eq!(params.len(), 2, "got {:?}", cex.bindings);
    assert!(contains(body, |e| *e == Expr::Int(100)), "got {body:?}");
}

#[test]
fn an_arrow_contract_blames_the_provider_of_a_function_of_the_wrong_arity() {
    // Racket's `->` checks the arity when it wraps: the module promised a
    // unary function and provided a binary one.
    let cex =
        validated_cex(r#"(module m (provide [f (-> integer? integer?)]) (define (f x y) x))"#);
    assert_eq!(cex.blame.party, "m", "got {cex:?}");
}

/// True if the reconstructed context is a lambda whose body applies its
/// (single) parameter.
fn applies_its_argument(context: &Expr) -> bool {
    let (params, body) = lambda(context);
    let param = Expr::var(&params[0]);
    contains(body, |e| matches!(e, Expr::App(f, _) if **f == param))
}

#[test]
fn a_context_that_calls_the_function_it_receives_is_reconstructed() {
    // The §2 worked example with its unknown context lifted to an export
    // parameter, and the smallest such context.
    let sources = [
        r#"(module m
             (provide [main (-> (-> (-> (-> integer? integer?) (-> integer? integer?)) integer?) integer?)])
             (define (main ctx) (ctx (lambda (g) (lambda (n) (/ 1 (- 100 (g n))))))))"#,
        r#"(module m
             (provide [main (-> (-> (-> integer? integer?) integer?) integer?)])
             (define (main ctx) (ctx (lambda (n) (/ 1 (- 100 n))))))"#,
    ];
    for source in sources {
        let cex = validated_cex(source);
        assert!(
            applies_its_argument(&cex.bindings[0].1),
            "{source}: got {:?}",
            cex.bindings
        );
    }
}

#[test]
fn the_safe_twin_of_the_lifted_worked_example_verifies() {
    let verdict = first_verdict(
        r#"(module m
             (provide [main (-> (-> (-> (-> integer? integer?) (-> integer? integer?)) integer?) integer?)])
             (define (main ctx) (ctx (lambda (g) (lambda (n) (/ 1 (- 100 (- (g n) (g n)))))))))"#,
    );
    assert!(verdict.is_verified(), "got {verdict:?}");
}

#[test]
fn assert_blames_only_false() {
    // Racket truthiness: `0` is a true value, so only `#f` fails an assert.
    let verdict = first_verdict(
        r#"(module m (provide [f (-> integer? integer?)]) (define (f n) (assert 0)))"#,
    );
    assert!(verdict.is_verified(), "got {verdict:?}");
    validated_cex(r#"(module m (provide [f (-> integer? integer?)]) (define (f n) (assert #f)))"#);
}

#[test]
fn arithmetic_on_a_concrete_non_number_blames_the_module() {
    for body in ["(+ #t n)", "(+ n #t)", "(+ #t 1)"] {
        let source =
            format!("(module m (provide [f (-> integer? integer?)]) (define (f n) {body}))");
        let cex = validated_cex(&source);
        assert_eq!(cex.blame.party, "m", "{body}: {cex}");
        assert_eq!(cex.blame.message, "+: expected numbers", "{body}: {cex}");
    }
}

#[test]
fn a_search_cut_at_max_branches_is_exhausted_not_verified() {
    // The divisor is 0 only when all six arguments are non-positive: one
    // path among 2⁶. Cutting outcome lists at 8 or 32 branches drops it,
    // which must not read as `Verified`; at 64 the search reaches it.
    let source = r#"(module m
         (provide [main (-> integer? integer? integer? integer? integer? integer? integer?)])
         (define (main p q r s t u)
           (/ 1 (+ (if (> p 0) 1 0) (if (> q 0) 1 0) (if (> r 0) 1 0)
                   (if (> s 0) 1 0) (if (> t 0) 1 0) (if (> u 0) 1 0)))))"#;
    let verdict_at = |max_branches| {
        let options = AnalyzeOptions {
            eval: EvalOptions {
                fuel: 3000,
                max_branches,
                havoc_depth: 2,
                ..EvalOptions::default()
            },
            context_depth: 2,
            ..AnalyzeOptions::default()
        };
        let report = analyze_source_with(source, &options).expect("parses");
        report.exports.into_iter().next().expect("one export").1
    };
    for max_branches in [8, 32] {
        let verdict = verdict_at(max_branches);
        assert!(
            matches!(verdict, ExportAnalysis::Exhausted),
            "max_branches {max_branches}: got {verdict:?}"
        );
    }
    match verdict_at(64) {
        ExportAnalysis::Counterexample(cex) if cex.validated => {}
        other => panic!("max_branches 64: expected a validated counterexample, got {other:?}"),
    }
}

/// The Table-1 program `name`, correct or faulty variant.
fn corpus_source(name: &str, faulty: bool) -> &'static str {
    let program = scv_bench::corpus::all_programs()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no corpus program {name}"));
    if faulty {
        program.faulty
    } else {
        program.correct
    }
}

#[test]
fn library_defaults_stop_at_the_shallow_error_of_a_deep_search() {
    // Each faulty variant fails a few steps in, beside a recursion that
    // unrolls as far as the fuel allows. At the library defaults (60,000
    // fuel) the search must reach the error, validate it and stop, on
    // libtest's 2 MiB thread.
    for name in ["sum", "sum-acm", "hrec", "fold-div"] {
        let started = std::time::Instant::now();
        let report = analyze_source_with(corpus_source(name, true), &AnalyzeOptions::default())
            .expect("parses");
        let elapsed = started.elapsed();
        match &report.exports[0].1 {
            ExportAnalysis::Counterexample(cex) if cex.validated => {}
            other => panic!("{name} faulty: expected a validated counterexample, got {other:?}"),
        }
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "{name} faulty took {elapsed:?}"
        );
        assert_eq!(
            report.stats.first_cex_stops, 1,
            "{name}: {:?}",
            report.stats
        );
    }
}

#[test]
fn a_deep_search_at_default_fuel_is_exhausted_without_overflowing() {
    // sum-acm correct unrolls `(sum n acc)` for as long as the fuel lasts.
    // With one state allowed, the recursion's branch is dropped at the
    // first split, which must read `Exhausted`.
    let options = AnalyzeOptions {
        eval: EvalOptions {
            max_branches: 1,
            ..EvalOptions::default()
        },
        ..AnalyzeOptions::default()
    };
    let report = analyze_source_with(corpus_source("sum-acm", false), &options).expect("parses");
    let verdict = &report.exports[0].1;
    assert!(
        matches!(verdict, ExportAnalysis::Exhausted),
        "got {verdict:?}"
    );
    assert!(report.stats.branch_truncations > 0, "{:?}", report.stats);
    // A concrete recursion that is not a tail call grows the continuation
    // by a frame per level until the default fuel runs out: thousands of
    // frames, kept on the heap rather than the 2 MiB native stack.
    let verdict = first_verdict(
        r#"(module deep
             (provide [main (-> integer? integer?)])
             (define (count n) (if (zero? n) 0 (+ 1 (count (- n 1)))))
             (define (main x) (count 1000000)))"#,
    );
    assert!(
        matches!(verdict, ExportAnalysis::Exhausted),
        "got {verdict:?}"
    );
}

#[test]
fn a_fair_search_reaches_an_error_beside_a_deep_recursion() {
    // The first branch recurses for as long as the fuel lasts; the second
    // fails at once. A search that finishes one branch before starting the
    // other spends the fuel on the recursion and reports `Exhausted`.
    let source = r#"(module m
         (provide [main (-> integer? integer?)])
         (define (loop n) (if (> n 0) (loop (- n 1)) 0))
         (define (main n) (if (> n 0) (loop n) (/ 1 0))))"#;
    let options = AnalyzeOptions {
        eval: EvalOptions {
            fuel: 3000,
            ..EvalOptions::default()
        },
        ..AnalyzeOptions::default()
    };
    let report = analyze_source_with(source, &options).expect("parses");
    match &report.exports[0].1 {
        ExportAnalysis::Counterexample(cex) if cex.validated => {}
        other => panic!("expected a validated counterexample, got {other:?}"),
    }
}
