//! Analysis of a single contracted export: run the symbolic evaluator
//! against the synthesized most general context, and validate candidate
//! counterexamples by a concrete re-run.

use std::collections::HashMap;

use crate::cex::{reconstruct_bindings, Counterexample};
use crate::eval::{eval, Ctx, Outcome};
use crate::heap::{empty_env, Heap};
use crate::prove::{ProverSession, SessionStats};
use crate::syntax::{instantiate, CBlame, Expr, Label, Module, Program, Provide};

use super::context::context_expression;
use super::{AnalyzeOptions, ExportAnalysis, CONTEXT_PARTY};

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
    let mut next_label = 500_000;
    let context_expr = context_expression(module, provide, options.context_depth, &mut next_label);
    let labels = context_expr.opaque_labels();
    let outcomes = eval(&mut ctx, &empty_env(), CONTEXT_PARTY, &context_expr, &heap);

    let mut stats = SessionStats::default();
    let mut probable: Option<CBlame> = None;
    let mut saw_timeout = false;
    for (outcome, branch_heap) in &outcomes {
        match outcome {
            Outcome::Timeout => saw_timeout = true,
            Outcome::Err(blame) if blame.party == module.name => {
                match reconstruct_bindings(&mut ctx.prover, branch_heap, &labels) {
                    None => {
                        if probable.is_none() {
                            probable = Some(blame.clone());
                        }
                    }
                    Some(bindings) => {
                        let mut counterexample = Counterexample {
                            blame: blame.clone(),
                            bindings,
                            validated: false,
                        };
                        if options.validate {
                            let (confirmed, validation_stats) =
                                validate(program, &context_expr, &counterexample, options);
                            stats.merge(&validation_stats);
                            if confirmed {
                                counterexample.validated = true;
                                stats.merge(&ctx.prover.stats());
                                return (
                                    ExportAnalysis::Counterexample(counterexample),
                                    stats,
                                    ctx.prover,
                                );
                            }
                            if probable.is_none() {
                                probable = Some(blame.clone());
                            }
                        } else {
                            stats.merge(&ctx.prover.stats());
                            return (
                                ExportAnalysis::Counterexample(counterexample),
                                stats,
                                ctx.prover,
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }
    stats.merge(&ctx.prover.stats());
    let verdict = if let Some(blame) = probable {
        ExportAnalysis::ProbableError(blame)
    } else if saw_timeout {
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
