//! End-to-end integration tests spanning the workspace crates, centred on
//! the paper's worked examples. The SPCF programs go through the typed
//! front-end (`spcf::lower`) and are analysed by cpcf.

use cpcf::eval::{eval, Ctx, EvalOptions, Outcome};
use cpcf::heap::{empty_env, Heap};
use cpcf::{Counterexample, ExportAnalysis, ProverSession};
use spcf::{analyze, lower, parse};

/// The §2 worked example in the SPCF surface syntax.
fn worked_example() -> spcf::Expr {
    parse::parse(
        "((• (-> (-> (-> int int) int int) int))
          (lambda (g : (-> int int)) (lambda (n : int)
            (div 1 (- 100 (g n))))))",
    )
    .expect("the worked example parses")
}

/// The verdict on a well-typed SPCF program.
fn spcf_verdict(program: &spcf::Expr) -> ExportAnalysis {
    analyze(program).expect("the program type-checks")
}

#[test]
fn spcf_worked_example_produces_validated_higher_order_counterexample() {
    match spcf_verdict(&worked_example()) {
        ExportAnalysis::Counterexample(cex) => {
            assert!(
                cex.validated,
                "Theorem 1 made operational: the counterexample re-runs"
            );
            // The unknown context is the single opaque value of the program,
            // and it calls the function it receives.
            let [(label, cpcf::Expr::Lam { params, body })] = cex.bindings.as_slice() else {
                panic!("expected one lambda binding, got {:?}", cex.bindings);
            };
            assert_eq!(*label, cpcf::Label(0), "keyed by the SPCF label");
            let mut applies_its_argument = false;
            body.walk(&mut |e| {
                applies_its_argument |=
                    matches!(e, cpcf::Expr::App(f, _) if **f == cpcf::Expr::var(&params[0]));
            });
            assert!(applies_its_argument, "got {body:?}");
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

/// Runs the lowered program's `main` on the counterexample's inputs, through
/// its contract, as the unknown context would.
fn run_lowered(program: &spcf::Expr, cex: &Counterexample) -> Vec<Outcome> {
    let lowered = lower(program).expect("the program type-checks");
    let module = &lowered.program.modules[0];
    let mut ctx = Ctx::with_prover(EvalOptions::default(), ProverSession::new());
    let definition = &module.definitions[0];
    let loaded = eval(
        &mut ctx,
        &empty_env(),
        &module.name,
        &definition.body,
        &Heap::new(),
    );
    let [(Outcome::Val(main), heap)] = loaded.as_slice() else {
        panic!("main evaluates to one value, got {loaded:?}");
    };
    ctx.globals.insert(definition.name.clone(), *main);
    let call = cpcf::Expr::app(
        cpcf::Expr::Mon {
            contract: Box::new(module.provides[0].contract.clone()),
            value: Box::new(cpcf::Expr::var(&definition.name)),
            pos: module.name.clone(),
            neg: cpcf::analyze::CONTEXT_PARTY.to_string(),
            label: cpcf::Label(u32::MAX - 1),
        },
        cex.bindings.iter().map(|(_, e)| e.clone()).collect(),
    );
    eval(
        &mut ctx,
        &empty_env(),
        cpcf::analyze::CONTEXT_PARTY,
        &call,
        heap,
    )
    .into_iter()
    .map(|(outcome, _)| outcome)
    .collect()
}

#[test]
fn spcf_counterexample_reproduces_blame_when_re_executed() {
    // Soundness, checked explicitly at the integration level: plug the
    // counterexample into the lowered program and run it.
    let program = worked_example();
    let ExportAnalysis::Counterexample(cex) = spcf_verdict(&program) else {
        panic!("expected a counterexample");
    };
    // Exactly one run, blaming the same party at the same site (the
    // concrete `/` words its message differently).
    let outcomes = run_lowered(&program, &cex);
    assert!(
        matches!(
            outcomes.as_slice(),
            [Outcome::Err(blame)] if blame.party == cex.blame.party && blame.label == cex.blame.label
        ),
        "got {outcomes:?}"
    );
}

#[test]
fn case_maps_keep_the_path_condition_complete() {
    // f g = 1 / (100 - ((g 0) - (g 0))) never crashes: equal inputs give
    // equal outputs, so the denominator is always 100. The case map relates
    // the two applications of `g`, the zero-denominator branch is refuted
    // outright, and the program verifies (§3.2).
    let program = parse::parse(
        "((• (-> (-> (-> int int) int) int))
          (lambda (g : (-> int int))
            (div 1 (- 100 (- (g 0) (g 0))))))",
    )
    .expect("parses");
    let verdict = spcf_verdict(&program);
    assert!(
        verdict.is_verified(),
        "with case maps the zero branch is refuted, got {verdict:?}"
    );
}

#[test]
fn cpcf_and_spcf_agree_on_the_division_example() {
    // The same bug, written in SPCF and as a hand-written cpcf module, has
    // the same breaking input.
    let spcf_program =
        parse::parse("((lambda (n : int) (div 1 (- 100 n))) (• int))").expect("parses");
    let spcf_cex = spcf_verdict(&spcf_program)
        .counterexample()
        .cloned()
        .expect("counterexample");
    assert!(spcf_cex.validated);
    assert_eq!(
        spcf_cex.bindings,
        vec![(cpcf::Label(2), cpcf::Expr::Int(100))]
    );

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
fn cpcf_verdict(source: &str) -> ExportAnalysis {
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
