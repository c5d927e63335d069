//! Function application: closures, guarded (contracted) functions, and the
//! paper's demonic-context rules for opaque functions and escaped values.
//!
//! Havoc and opaque application are the evaluator's most snapshot-hungry
//! sites — every demonic interaction forks the heap — and rely on
//! `Heap::clone` being an O(1) copy-on-write snapshot.

use folic::Proof;

use crate::heap::{extend_env, CRefinement, DemonicApp, Heap, Loc, SVal, Tag};
use crate::syntax::{CBlame, Label};

use super::contracts::{monitor, monitor_args, Parties};
use super::{eval, then, Ctx, Outcome};

/// Applies the value at `function_loc` to `args`.
pub fn apply(
    ctx: &mut Ctx,
    caller: &str,
    function_loc: Loc,
    args: &[Loc],
    heap: &Heap,
    label: Label,
) -> Vec<(Outcome, Heap)> {
    if !ctx.tick() {
        return vec![(Outcome::Timeout, heap.clone())];
    }
    match heap.get(function_loc).clone() {
        SVal::Closure {
            params,
            body,
            env,
            owner,
        } => {
            if params.len() != args.len() {
                return vec![(
                    Outcome::Err(CBlame {
                        party: caller.to_string(),
                        message: format!(
                            "arity mismatch: expected {} arguments, got {}",
                            params.len(),
                            args.len()
                        ),
                        label,
                    }),
                    heap.clone(),
                )];
            }
            let extended = extend_env(&env, params.into_iter().zip(args.iter().copied()));
            eval(ctx, &extended, &owner, &body, heap)
        }
        SVal::Guarded {
            doms,
            rng,
            inner,
            pos,
            neg,
            label: mon_label,
        } => {
            if doms.len() != args.len() {
                return vec![(
                    Outcome::Err(CBlame {
                        party: neg.clone(),
                        message: format!(
                            "arity mismatch on contracted function: expected {}, got {}",
                            doms.len(),
                            args.len()
                        ),
                        label: mon_label,
                    }),
                    heap.clone(),
                )];
            }
            // Monitor each argument against its domain contract with the
            // blame parties swapped, then run the inner function, then
            // monitor the result against the range contract.
            let parties = Parties {
                pos: &pos,
                neg: &neg,
                label: mon_label,
            };
            monitor_args(
                ctx,
                &doms,
                args,
                parties.swapped(),
                heap,
                |ctx, monitored, heap| {
                    let results = apply(ctx, caller, inner, &monitored, &heap, label);
                    then(ctx, results, |ctx, result, heap| {
                        monitor(ctx, rng, result, parties, &heap)
                    })
                },
            )
        }
        SVal::Opaque { .. } => apply_opaque(ctx, caller, function_loc, args, heap, label),
        _ => vec![(
            Outcome::Err(CBlame {
                party: caller.to_string(),
                message: "application of a non-procedure".to_string(),
                label,
            }),
            heap.clone(),
        )],
    }
}

/// Applies an opaque (unknown) function: the paper's demonic-context rules
/// adapted to the untyped setting.
fn apply_opaque(
    ctx: &mut Ctx,
    caller: &str,
    function_loc: Loc,
    args: &[Loc],
    heap: &Heap,
    label: Label,
) -> Vec<(Outcome, Heap)> {
    let blame = CBlame {
        party: caller.to_string(),
        message: "application of a value that may not be a procedure".to_string(),
        label,
    };
    let mut outcomes = Vec::new();
    match ctx.prover.prove_tag(heap, function_loc, &Tag::Procedure) {
        Proof::Refuted => return vec![(Outcome::Err(blame), heap.clone())],
        Proof::Ambiguous => {
            let mut no = heap.clone();
            no.refine(function_loc, CRefinement::IsNot(Tag::Procedure));
            outcomes.push((Outcome::Err(blame), no));
        }
        Proof::Proved => {}
    }

    // The function is (assumed) a procedure: refine and produce a result.
    let mut base = heap.clone();
    if !matches!(
        ctx.prover.prove_tag(&base, function_loc, &Tag::Procedure),
        Proof::Proved
    ) {
        base.refine(function_loc, CRefinement::Is(Tag::Procedure));
    }

    // Memoised result for a previously seen tuple of simple arguments: the
    // opaque's `case` map (§3.2), which keeps repeated applications to the
    // same arguments consistent.
    if !args.is_empty() && args.iter().all(|&arg| is_simple(&base, arg)) {
        if let SVal::Opaque { entries, .. } = base.get(function_loc) {
            if let Some((_, result)) = entries.iter().find(|(keys, _)| keys == args) {
                outcomes.push((Outcome::Val(*result), base));
                return outcomes;
            }
        }
        let result = base.alloc(SVal::opaque());
        let mut function = base.get(function_loc).clone();
        if let SVal::Opaque { entries, .. } = &mut function {
            entries.push((args.to_vec(), result));
        }
        base.set(function_loc, function);
        outcomes.push((Outcome::Val(result), base.clone()));
    } else {
        let result = base.alloc(SVal::opaque());
        outcomes.push((Outcome::Val(result), base.clone()));
    }

    // Demonic exploration: the unknown function may use its behavioural
    // arguments arbitrarily; errors found that way are real errors of the
    // escaping values' owners. Base values and opaques have no behaviour to
    // explore, and the result above already covers them. Each application
    // is recorded against the opaque function, so a counterexample can
    // rebuild a context that makes it.
    let havoc_depth = ctx.options.havoc_depth;
    if havoc_depth > 0 {
        for (param, &arg) in args.iter().enumerate() {
            if is_simple(&base, arg) {
                continue;
            }
            let record = Demonic {
                function: function_loc,
                arity: args.len(),
                param,
                applies_result: false,
            };
            let explored = havoc(ctx, arg, &base, havoc_depth, Some(record));
            // An exploration that finished without an error leaves the
            // unknown context to return an unknown value.
            outcomes.extend(then(ctx, explored, |_, _, mut heap| {
                let result = heap.alloc(SVal::opaque());
                vec![(Outcome::Val(result), heap)]
            }));
        }
    }
    outcomes
}

fn is_simple(heap: &Heap, loc: Loc) -> bool {
    matches!(
        heap.get(loc),
        SVal::Num(_) | SVal::Bool(_) | SVal::Str(_) | SVal::Nil | SVal::Opaque { .. }
    )
}

/// Where [`havoc`] records the applications it performs: against the
/// opaque function that received the explored value.
#[derive(Debug, Clone, Copy)]
struct Demonic {
    /// The opaque function's location.
    function: Loc,
    /// The arity of the call that passed the value.
    arity: usize,
    /// The position of the value among that call's arguments.
    param: usize,
    /// True once the explored value is the result of a recorded application.
    applies_result: bool,
}

/// The demonic context: explores a value that escaped to unknown code.
/// Procedures are applied to fresh opaque arguments, and their results
/// explored in turn; pairs, boxes and structs are explored component-wise.
/// With `record`, each application along the procedure chain goes on the
/// heap ([`Heap::record_demonic`]); component exploration is not recorded.
fn havoc(
    ctx: &mut Ctx,
    loc: Loc,
    heap: &Heap,
    depth: u32,
    record: Option<Demonic>,
) -> Vec<(Outcome, Heap)> {
    if depth == 0 || !ctx.tick() {
        return vec![(Outcome::Val(loc), heap.clone())];
    }
    let arity = match heap.get(loc) {
        SVal::Closure { params, .. } => Some(params.len()),
        SVal::Guarded { doms, .. } => Some(doms.len()),
        _ => None,
    };
    if let Some(arity) = arity {
        let mut heap = heap.clone();
        let args: Vec<Loc> = (0..arity).map(|_| heap.alloc(SVal::opaque())).collect();
        if let Some(record) = record {
            heap.record_demonic(
                record.function,
                DemonicApp {
                    arity: record.arity,
                    param: record.param,
                    args: args.clone(),
                    applies_result: record.applies_result,
                },
            );
        }
        let results = apply(ctx, "context", loc, &args, &heap, Label(u32::MAX));
        let record = record.map(|record| Demonic {
            applies_result: true,
            ..record
        });
        return then(ctx, results, |ctx, result, heap| {
            havoc(ctx, result, &heap, depth - 1, record)
        });
    }
    match *heap.get(loc) {
        SVal::Pair(car, cdr) => {
            let explored = havoc(ctx, car, heap, depth - 1, None);
            then(ctx, explored, |ctx, _, heap| {
                havoc(ctx, cdr, &heap, depth - 1, None)
            })
        }
        SVal::StructVal { ref fields, .. } => {
            let mut states = vec![(Outcome::Val(loc), heap.clone())];
            for &field in fields {
                states = then(ctx, states, |ctx, _, heap| {
                    havoc(ctx, field, &heap, depth - 1, None)
                });
            }
            states
        }
        SVal::BoxVal(inner) => havoc(ctx, inner, heap, depth - 1, None),
        _ => vec![(Outcome::Val(loc), heap.clone())],
    }
}
