//! Analysis of a single contracted export: run the symbolic evaluator
//! against the synthesized most general context, and validate candidate
//! counterexamples by a concrete re-run.

use std::collections::HashMap;

use crate::cex::{reconstruct_bindings, Counterexample};
use crate::eval::{eval, Ctx, Machine, Outcome};
use crate::heap::{empty_env, Heap};
use crate::prove::{ProverSession, SessionStats};
use crate::syntax::{instantiate, CBlame, Expr, Label, Module, Program, Provide};

use super::context::context_expression;
use super::{AnalyzeOptions, ExportAnalysis, CONTEXT_PARTY};

/// The first label of the synthesized context's opaques, above every label
/// the parser assigns to a corpus-sized program.
const FIRST_CONTEXT_LABEL: u32 = 500_000;

/// A prover session configured per `options`: shared-cache-backed when the
/// analysis carries a [`super::SharedVerdictCache`], private otherwise, and
/// attached to the run's theory-lemma pool when one is present.
pub(super) fn new_session(options: &AnalyzeOptions) -> ProverSession {
    let session = match &options.shared_cache {
        Some(cache) => ProverSession::with_config_and_cache(options.eval.solver, cache.clone()),
        None => ProverSession::with_config(options.eval.solver),
    };
    match &options.shared_lemmas {
        Some(pool) => session.with_lemma_pool(pool.clone()),
        None => session,
    }
}

/// Loads every module's struct declarations and definitions into `ctx`,
/// returning the global heap. Returns `None` if a definition itself fails to
/// evaluate (the context keeps whatever was loaded so far, and its prover
/// session stays usable).
fn load_globals(ctx: &mut Ctx, program: &Program) -> Option<Heap> {
    for module in &program.modules {
        for def in &module.structs {
            ctx.structs.insert(def.name.clone(), def.clone());
        }
    }
    let mut heap = Heap::new();
    let env = empty_env();
    for module in &program.modules {
        for definition in &module.definitions {
            let outcomes = eval(ctx, &env, &module.name, &definition.body, &heap);
            let (loc, new_heap) = outcomes
                .into_iter()
                .find_map(|(outcome, h)| match outcome {
                    Outcome::Val(loc) => Some((loc, h)),
                    _ => None,
                })?;
            heap = new_heap;
            ctx.globals.insert(definition.name.clone(), loc);
        }
    }
    Some(heap)
}

/// Analyzes one export, reusing `session` (and returning it for the caller's
/// next export). The returned [`SessionStats`] cover exactly this export's
/// work: the session's counters are reset on entry, and the counters of the
/// throwaway validation sessions are merged in.
pub(super) fn analyze_export(
    program: &Program,
    module: &Module,
    provide: &Provide,
    options: &AnalyzeOptions,
    mut session: ProverSession,
) -> (ExportAnalysis, SessionStats, ProverSession) {
    session.reset_stats();
    let mut ctx = Ctx::with_prover(options.eval.clone(), session);
    let Some(heap) = load_globals(&mut ctx, program) else {
        let stats = ctx.prover.stats();
        return (
            ExportAnalysis::ProbableError(CBlame {
                party: module.name.clone(),
                message: "a module-level definition failed to evaluate".to_string(),
                label: Label(u32::MAX),
            }),
            stats,
            ctx.prover,
        );
    };
    let mut next_label = FIRST_CONTEXT_LABEL;
    let context_expr = context_expression(module, provide, options.context_depth, &mut next_label);
    let labels = context_expr.opaque_labels();
    // The search validates each module blame as it reaches it and stops at
    // the first confirmed one. States dropped at `max_branches` were never
    // explored, so a search that dropped any cannot claim verification.
    let mut machine = Machine::evaluate(&ctx, &empty_env(), CONTEXT_PARTY, &context_expr, &heap);
    let mut stats = SessionStats::default();
    let mut probable: Option<CBlame> = None;
    let mut saw_timeout = false;
    while let Some((outcome, branch_heap)) = machine.next_outcome(&mut ctx) {
        match outcome {
            Outcome::Timeout => saw_timeout = true,
            Outcome::Err(blame) if blame.party == module.name => {
                let Some(bindings) = reconstruct_bindings(&mut ctx.prover, &branch_heap, &labels)
                else {
                    probable.get_or_insert(blame);
                    continue;
                };
                let mut counterexample = Counterexample {
                    blame,
                    bindings,
                    validated: false,
                };
                if options.validate {
                    let (confirmed, validation_stats) =
                        validate(program, &context_expr, &counterexample, options);
                    stats.merge(&validation_stats);
                    if !confirmed {
                        probable.get_or_insert(counterexample.blame);
                        continue;
                    }
                    counterexample.validated = true;
                    if machine.has_pending() {
                        stats.first_cex_stops += 1;
                    }
                }
                stats.merge(&ctx.prover.stats());
                return (
                    ExportAnalysis::Counterexample(counterexample),
                    stats,
                    ctx.prover,
                );
            }
            _ => {}
        }
    }
    stats.merge(&ctx.prover.stats());
    let verdict = if let Some(blame) = probable {
        ExportAnalysis::ProbableError(blame)
    } else if saw_timeout || machine.dropped() > 0 {
        ExportAnalysis::Exhausted
    } else {
        ExportAnalysis::Verified
    };
    (verdict, stats, ctx.prover)
}

/// Re-runs the context expression with the counterexample's concrete inputs
/// and checks that the run has exactly one outcome, which blames the same
/// party at the same site (label). Returns the verdict together with the prover statistics of the
/// validation run.
fn validate(
    program: &Program,
    context_expr: &Expr,
    counterexample: &Counterexample,
    options: &AnalyzeOptions,
) -> (bool, SessionStats) {
    let bindings: HashMap<Label, Expr> = counterexample
        .bindings
        .iter()
        .map(|(l, e)| (*l, e.clone()))
        .collect();
    let concrete = instantiate(context_expr, &bindings);
    let mut ctx = Ctx::with_prover(options.eval.clone(), new_session(options));
    let Some(heap) = load_globals(&mut ctx, program) else {
        return (false, ctx.prover.stats());
    };
    // The instantiated program must run deterministically: a module that
    // still branches (say, on an `(opaque)` of its own) has not been shown
    // to fail on these inputs, only to be able to.
    let outcomes = eval(&mut ctx, &empty_env(), CONTEXT_PARTY, &concrete, &heap);
    let confirmed = matches!(
        outcomes.as_slice(),
        [(Outcome::Err(blame), _)]
            if blame.party == counterexample.blame.party
                && blame.label == counterexample.blame.label
    );
    (confirmed, ctx.prover.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_program};

    /// Analyzes the only export of `source`, prints its validated
    /// counterexample, reads the printed bindings back and re-validates
    /// them: the re-run must blame the same party at the same label.
    fn printed_bindings_still_blame(source: &str) {
        let (program, _) = parse_program(source).expect("parses");
        let module = program.modules.last().expect("one module");
        let provide = &module.provides[0];
        let options = AnalyzeOptions::default();
        let (verdict, _, _) =
            analyze_export(&program, module, provide, &options, new_session(&options));
        let ExportAnalysis::Counterexample(cex) = verdict else {
            panic!("expected a counterexample, got {verdict:?}");
        };
        assert!(cex.validated, "{cex}");
        let printed = cex.to_string();
        let (_, inputs) = printed.split_once("breaking inputs:\n").expect("inputs");
        let bindings: Vec<(Label, Expr)> = inputs
            .lines()
            .zip(&cex.bindings)
            .map(|(line, (label, _))| {
                let (name, expr) = line.trim().split_once(" = ").expect("binding line");
                assert_eq!(name, label.to_string());
                let expr = parse_expr(expr).unwrap_or_else(|e| panic!("{line}: {e}"));
                (*label, expr)
            })
            .collect();
        assert_eq!(bindings.len(), cex.bindings.len(), "{printed}");
        let reread = Counterexample { bindings, ..cex };
        let mut next_label = FIRST_CONTEXT_LABEL;
        let context = context_expression(module, provide, options.context_depth, &mut next_label);
        let (confirmed, _) = validate(&program, &context, &reread, &options);
        assert!(confirmed, "the printed bindings no longer blame: {printed}");
    }

    #[test]
    fn printed_context_of_the_worked_example_still_blames() {
        printed_bindings_still_blame(
            r#"(module m
                 (provide [main (-> (-> (-> (-> integer? integer?) (-> integer? integer?)) integer?) integer?)])
                 (define (main ctx) (ctx (lambda (g) (lambda (n) (/ 1 (- 100 (g n))))))))"#,
        );
    }

    #[test]
    fn printed_binary_case_lambda_still_blames() {
        printed_bindings_still_blame(
            r#"(module m
                 (provide [main (-> (-> integer? integer? integer?) integer?)])
                 (define (main g) (/ 1 (- 100 (- (g 1 2) (g 1 3))))))"#,
        );
    }
}
