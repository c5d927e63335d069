//! Function application: closures, guarded (contracted) functions, and the
//! paper's demonic-context rules for opaque functions and escaped values.
//!
//! Havoc and opaque application are the evaluator's most snapshot-hungry
//! sites — every demonic interaction forks the heap — and rely on
//! `Heap::clone` being an O(1) copy-on-write snapshot.

use folic::Proof;

use crate::heap::{extend_env, CRefinement, Heap, Loc, SVal, Tag};
use crate::syntax::{CBlame, Label};

use super::contracts::{monitor, monitor_args};
use super::{eval, Ctx, Outcome};

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
            monitor_args(
                ctx,
                &doms,
                args,
                &neg,
                &pos,
                mon_label,
                heap,
                Vec::new(),
                &mut |ctx, monitored, heap| {
                    let mut out = Vec::new();
                    for (outcome, inner_heap) in apply(ctx, caller, inner, &monitored, &heap, label)
                    {
                        match outcome {
                            Outcome::Val(result) => out.extend(monitor(
                                ctx,
                                rng,
                                result,
                                &pos,
                                &neg,
                                mon_label,
                                &inner_heap,
                            )),
                            other => out.push((other, inner_heap)),
                        }
                    }
                    out
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

    // Memoised result for a previously seen single simple argument: the
    // opaque's `case` map (§3.2), which keeps repeated applications to the
    // same argument consistent.
    if args.len() == 1 && is_simple(&base, args[0]) {
        if let SVal::Opaque { entries, .. } = base.get(function_loc) {
            if let Some((_, result)) = entries.iter().find(|(a, _)| *a == args[0]) {
                outcomes.push((Outcome::Val(*result), base));
                return outcomes;
            }
        }
        let result = base.alloc(SVal::opaque());
        if let SVal::Opaque {
            refinements,
            entries,
        } = base.get(function_loc).clone()
        {
            let mut entries = entries;
            entries.push((args[0], result));
            base.set(
                function_loc,
                SVal::Opaque {
                    refinements,
                    entries,
                },
            );
        }
        outcomes.push((Outcome::Val(result), base.clone()));
    } else {
        let result = base.alloc(SVal::opaque());
        outcomes.push((Outcome::Val(result), base.clone()));
    }

    // Demonic exploration: the unknown function may use its behavioural
    // arguments arbitrarily; errors found that way are real errors of the
    // escaping values' owners.
    let havoc_depth = ctx.options.havoc_depth;
    if havoc_depth > 0 {
        for &arg in args {
            for (outcome, havoc_heap) in havoc(ctx, caller, arg, &base, havoc_depth) {
                match outcome {
                    Outcome::Err(_) | Outcome::Timeout => outcomes.push((outcome, havoc_heap)),
                    Outcome::Val(_) => {
                        // The exploration finished without an error: the
                        // unknown context then returns an unknown value.
                        let mut h = havoc_heap;
                        let result = h.alloc(SVal::opaque());
                        outcomes.push((Outcome::Val(result), h));
                    }
                }
            }
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

/// The demonic context: explores a value that escaped to unknown code.
/// Procedures are applied to fresh opaque arguments; pairs, boxes and
/// structs are explored component-wise.
#[allow(clippy::only_used_in_recursion)] // `caller` names the blamed party for future rules
pub fn havoc(
    ctx: &mut Ctx,
    caller: &str,
    loc: Loc,
    heap: &Heap,
    depth: u32,
) -> Vec<(Outcome, Heap)> {
    if depth == 0 || !ctx.tick() {
        return vec![(Outcome::Val(loc), heap.clone())];
    }
    match heap.get(loc).clone() {
        SVal::Closure { params, .. } => {
            let mut heap = heap.clone();
            let args: Vec<Loc> = (0..params.len())
                .map(|_| heap.alloc(SVal::opaque()))
                .collect();
            let mut out = Vec::new();
            for (outcome, branch_heap) in apply(ctx, "context", loc, &args, &heap, Label(u32::MAX))
            {
                match outcome {
                    Outcome::Val(result) => {
                        out.extend(havoc(ctx, caller, result, &branch_heap, depth - 1));
                    }
                    other => out.push((other, branch_heap)),
                }
            }
            out
        }
        SVal::Guarded { doms, .. } => {
            let mut heap = heap.clone();
            let args: Vec<Loc> = (0..doms.len())
                .map(|_| heap.alloc(SVal::opaque()))
                .collect();
            let mut out = Vec::new();
            for (outcome, branch_heap) in apply(ctx, "context", loc, &args, &heap, Label(u32::MAX))
            {
                match outcome {
                    Outcome::Val(result) => {
                        out.extend(havoc(ctx, caller, result, &branch_heap, depth - 1));
                    }
                    other => out.push((other, branch_heap)),
                }
            }
            out
        }
        SVal::Pair(car, cdr) => {
            let mut out = Vec::new();
            for (outcome, branch_heap) in havoc(ctx, caller, car, heap, depth - 1) {
                match outcome {
                    Outcome::Val(_) => out.extend(havoc(ctx, caller, cdr, &branch_heap, depth - 1)),
                    other => out.push((other, branch_heap)),
                }
            }
            out
        }
        SVal::StructVal { fields, .. } => {
            let mut states = vec![(Outcome::Val(loc), heap.clone())];
            for field in fields {
                let mut next = Vec::new();
                for (outcome, branch_heap) in states {
                    match outcome {
                        Outcome::Val(_) => {
                            next.extend(havoc(ctx, caller, field, &branch_heap, depth - 1));
                        }
                        other => next.push((other, branch_heap)),
                    }
                }
                states = next;
            }
            states
        }
        SVal::BoxVal(inner) => havoc(ctx, caller, inner, heap, depth - 1),
        _ => vec![(Outcome::Val(loc), heap.clone())],
    }
}
