//! End-to-end integration tests spanning the workspace crates, centred on
//! the paper's worked examples.

use spcf::{analyze, parse, Analysis, AnalysisOptions, Engine, StepOptions};

/// The §2 worked example in the SPCF surface syntax.
fn worked_example() -> spcf::Expr {
    parse::parse(
        "((• (-> (-> (-> int int) int int) int))
          (lambda (g : (-> int int)) (lambda (n : int)
            (div 1 (- 100 (g n))))))",
    )
    .expect("the worked example parses")
}

#[test]
fn spcf_worked_example_produces_validated_higher_order_counterexample() {
    match analyze(&worked_example()) {
        Analysis::Counterexample(cex) => {
            assert!(
                cex.validated,
                "Theorem 1 made operational: the counterexample re-runs"
            );
            // The unknown context is the single opaque value of the program.
            assert_eq!(cex.bindings.len(), 1);
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

#[test]
fn spcf_counterexample_reproduces_blame_when_re_executed() {
    // Soundness, checked explicitly at the integration level: instantiate
    // the program with the counterexample and run it concretely.
    let program = worked_example();
    let Analysis::Counterexample(cex) = analyze(&program) else {
        panic!("expected a counterexample");
    };
    let instantiated = cex.instantiate(&program);
    assert!(instantiated.is_concrete());
    let outcome = spcf::concrete::eval(&instantiated, 200_000);
    assert!(outcome.is_error_with(&cex.blame), "got {outcome:?}");
}

#[test]
fn case_maps_keep_the_path_condition_complete() {
    // f g = 1 / (100 - ((g 0) - (g 0))) never crashes: equal inputs give
    // equal outputs, so the denominator is always 100. With the case-map
    // device the zero-denominator branch is refuted outright and the program
    // verifies; without it (the original SCPCF semantics) the two
    // applications of `g` are unrelated, the spurious branch survives, and
    // its "counterexample" fails validation, leaving only a probable-error
    // report. This is exactly the completeness/precision gap §3.2 motivates.
    let program = parse::parse(
        "((• (-> (-> (-> int int) int) int))
          (lambda (g : (-> int int))
            (div 1 (- 100 (- (g 0) (g 0))))))",
    )
    .expect("parses");

    let with_maps = Engine::with_options(AnalysisOptions::default()).analyze(&program);
    assert_eq!(
        with_maps,
        Analysis::Verified,
        "with case maps the zero branch is refuted"
    );

    let without = Engine::with_options(AnalysisOptions {
        step: StepOptions {
            use_case_maps: false,
        },
        ..AnalysisOptions::default()
    })
    .analyze(&program);
    assert!(
        without.counterexample().is_none() && without != Analysis::Verified,
        "without case maps the spurious path cannot be validated away, got {without:?}"
    );
}

#[test]
fn cpcf_and_spcf_agree_on_the_division_example() {
    // The same bug expressed in both languages is found by both engines.
    let spcf_program =
        parse::parse("((lambda (n : int) (div 1 (- 100 n))) (• int))").expect("parses");
    let spcf_result = analyze(&spcf_program);
    assert!(matches!(spcf_result, Analysis::Counterexample(_)));

    let report = cpcf::analyze_source(
        r#"
        (module div100
          (provide [f (-> integer? integer?)])
          (define (f n) (/ 1 (- 100 n))))
        "#,
    )
    .expect("parses");
    let cex = report.first_counterexample().expect("counterexample");
    assert!(cex.validated);
    assert!(cex.bindings.iter().any(|(_, e)| *e == cpcf::Expr::Int(100)));
}

/// The verdict on the only export of a cpcf module.
fn cpcf_verdict(source: &str) -> cpcf::ExportAnalysis {
    let report = cpcf::analyze_source(source).expect("parses");
    report.exports.into_iter().next().expect("one export").1
}

#[test]
fn cpcf_case_maps_verify_the_section_3_2_example() {
    // The §3.2 example through cpcf: the unknown `g` is applied to equal
    // arguments, so the case map relates the two results and the zero
    // denominator is refuted, whether the argument is a literal, a
    // let-bound value or the same parameter.
    let safe_programs = [
        r#"(module m (provide [f (-> (-> integer? integer?) integer?)])
             (define (f g) (/ 1 (- 100 (- (g 0) (g 0))))))"#,
        r#"(module m (provide [f (-> (-> integer? integer?) integer?)])
             (define (f g) (let ([a (g 0)] [b (g 0)]) (/ 1 (- 100 (- a b))))))"#,
        r#"(module m (provide [f (-> (-> integer? integer?) integer? integer?)])
             (define (f g n) (/ 1 (- 100 (- (g n) (g n))))))"#,
    ];
    for source in safe_programs {
        let verdict = cpcf_verdict(source);
        assert!(verdict.is_verified(), "{source}: got {verdict:?}");
    }
}

#[test]
fn cpcf_case_maps_keep_the_faulty_twin_refutable() {
    // With different arguments the two results are unrelated, and a
    // context with (g n) - (g 0) = 100 breaks the division.
    let verdict = cpcf_verdict(
        r#"(module m (provide [f (-> (-> integer? integer?) integer? integer?)])
             (define (f g n) (/ 1 (- 100 (- (g n) (g 0))))))"#,
    );
    let cex = verdict.counterexample().expect("counterexample");
    assert!(cex.validated, "unvalidated counterexample: {cex:?}");
}
