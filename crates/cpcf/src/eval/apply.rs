//! Function application: closures, guarded (contracted) functions, and the
//! paper's demonic-context rules for opaque functions and escaped values.
//!
//! Havoc and opaque application are the evaluator's most snapshot-hungry
//! sites — every demonic interaction forks the heap — and rely on
//! `Heap::clone` being an O(1) copy-on-write snapshot.

use std::rc::Rc;

use folic::Proof;

use crate::heap::{extend_env, CRefinement, DemonicApp, Heap, Loc, SVal, Tag};
use crate::syntax::{CBlame, Label};

use super::contracts::Parties;
use super::machine::{Control, Frame, Kont, Out};
use super::{Ctx, Outcome};

/// One application step: the value at `function` applied to `args`.
#[allow(clippy::too_many_arguments)]
pub(super) fn apply_step(
    ctx: &mut Ctx,
    caller: Rc<str>,
    function: Loc,
    args: Vec<Loc>,
    label: Label,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    match heap.get(function) {
        SVal::Closure {
            params,
            body,
            env,
            owner,
        } => {
            if params.len() != args.len() {
                let blame = CBlame {
                    party: caller.to_string(),
                    message: format!(
                        "arity mismatch: expected {} arguments, got {}",
                        params.len(),
                        args.len()
                    ),
                    label,
                };
                return out.done(Outcome::Err(blame), heap, kont);
            }
            let env = extend_env(env, params.iter().cloned().zip(args));
            let control = Control::Eval(body.clone(), env, owner.clone());
            out.run(control, heap, kont);
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
                let blame = CBlame {
                    party: neg.clone(),
                    message: format!(
                        "arity mismatch on contracted function: expected {}, got {}",
                        doms.len(),
                        args.len()
                    ),
                    label: *mon_label,
                };
                return out.done(Outcome::Err(blame), heap, kont);
            }
            // Monitor each argument against its domain contract with the
            // blame parties swapped, then run the inner function, then
            // monitor the result against the range contract.
            let parties = Parties {
                pos: pos.as_str().into(),
                neg: neg.as_str().into(),
                label: *mon_label,
            };
            let (doms, inner) = (Rc::from(doms.as_slice()), *inner);
            let kont = kont.push(Frame::GuardRange {
                rng: *rng,
                parties: parties.clone(),
            });
            let done = Vec::with_capacity(args.len());
            let parties = parties.swapped();
            guard_args(
                doms, args, done, parties, inner, caller, label, heap, kont, out,
            );
        }
        SVal::Opaque { .. } => apply_opaque(ctx, caller, function, args, label, heap, kont, out),
        _ => {
            let blame = CBlame {
                party: caller.to_string(),
                message: "application of a non-procedure".to_string(),
                label,
            };
            out.done(Outcome::Err(blame), heap, kont);
        }
    }
}

/// Monitors the next argument of a guarded application against its domain,
/// or applies the inner function once every argument has been monitored.
#[allow(clippy::too_many_arguments)]
pub(super) fn guard_args(
    doms: Rc<[Loc]>,
    args: Vec<Loc>,
    done: Vec<Loc>,
    parties: Parties,
    inner: Loc,
    caller: Rc<str>,
    label: Label,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let index = done.len();
    if index == doms.len() {
        let control = Control::Apply {
            function: inner,
            args: done,
            caller,
            label,
        };
        return out.run(control, heap, kont);
    }
    let control = Control::Monitor {
        contract: doms[index],
        value: args[index],
        parties: parties.clone(),
    };
    let frame = Frame::GuardArgs {
        doms,
        args,
        done,
        parties,
        inner,
        caller,
        label,
    };
    out.run(control, heap, kont.push(frame));
}

/// Applies an opaque (unknown) function: the paper's demonic-context rules
/// adapted to the untyped setting.
#[allow(clippy::too_many_arguments)]
fn apply_opaque(
    ctx: &mut Ctx,
    caller: Rc<str>,
    function_loc: Loc,
    args: Vec<Loc>,
    label: Label,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let blame = CBlame {
        party: caller.to_string(),
        message: "application of a value that may not be a procedure".to_string(),
        label,
    };
    match ctx.prover.prove_tag(&heap, function_loc, &Tag::Procedure) {
        Proof::Refuted => return out.done(Outcome::Err(blame), heap, kont),
        Proof::Ambiguous => {
            let mut no = heap.clone();
            no.refine(function_loc, CRefinement::IsNot(Tag::Procedure));
            out.done(Outcome::Err(blame), no, kont.clone());
        }
        Proof::Proved => {}
    }

    // The function is (assumed) a procedure: refine and produce a result.
    let mut base = heap;
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
            if let Some((_, result)) = entries.iter().find(|(keys, _)| *keys == args) {
                return out.done(Outcome::Val(*result), base, kont);
            }
        }
        let result = base.alloc(SVal::opaque());
        let mut function = base.get(function_loc).clone();
        if let SVal::Opaque { entries, .. } = &mut function {
            entries.push((args.clone(), result));
        }
        base.set(function_loc, function);
        out.done(Outcome::Val(result), base.clone(), kont.clone());
    } else {
        let result = base.alloc(SVal::opaque());
        out.done(Outcome::Val(result), base.clone(), kont.clone());
    }

    // Demonic exploration: the unknown function may use its behavioural
    // arguments arbitrarily; errors found that way are real errors of the
    // escaping values' owners. Base values and opaques have no behaviour to
    // explore, and the result above already covers them. Each application
    // is recorded against the opaque function, so a counterexample can
    // rebuild a context that makes it. An exploration that finishes without
    // an error leaves the unknown context to return an unknown value.
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
            let control = Control::Havoc {
                loc: arg,
                depth: havoc_depth,
                record: Some(record),
            };
            out.run(control, base.clone(), kont.push(Frame::HavocDone));
        }
    }
}

fn is_simple(heap: &Heap, loc: Loc) -> bool {
    matches!(
        heap.get(loc),
        SVal::Num(_) | SVal::Bool(_) | SVal::Str(_) | SVal::Nil | SVal::Opaque { .. }
    )
}

/// Where the demonic context records the applications it performs: against
/// the opaque function that received the explored value.
#[derive(Debug, Clone, Copy)]
pub(super) struct Demonic {
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
/// Once `depth` or the fuel runs out, the value is left unexplored.
pub(super) fn havoc_step(
    ctx: &mut Ctx,
    loc: Loc,
    depth: u32,
    record: Option<Demonic>,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    if depth == 0 || !ctx.tick() {
        return out.done(Outcome::Val(loc), heap, kont);
    }
    let arity = match heap.get(loc) {
        SVal::Closure { params, .. } => Some(params.len()),
        SVal::Guarded { doms, .. } => Some(doms.len()),
        _ => None,
    };
    if let Some(arity) = arity {
        let mut heap = heap;
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
        let record = record.map(|record| Demonic {
            applies_result: true,
            ..record
        });
        let control = Control::Apply {
            function: loc,
            args,
            caller: "context".into(),
            label: Label(u32::MAX),
        };
        return out.run(
            control,
            heap,
            kont.push(Frame::HavocResult { depth, record }),
        );
    }
    // Components: explore the first now and the rest in order after it;
    // the last component's exploration gives the value.
    let components = match heap.get(loc) {
        SVal::Pair(car, cdr) => vec![*car, *cdr],
        SVal::StructVal { fields, .. } => fields.clone(),
        SVal::BoxVal(inner) => vec![*inner],
        _ => Vec::new(),
    };
    let Some((&first, rest)) = components.split_first() else {
        return out.done(Outcome::Val(loc), heap, kont);
    };
    let depth = depth - 1;
    let kont = rest.iter().rev().fold(kont, |kont, &loc| {
        kont.push(Frame::HavocNext { loc, depth })
    });
    let control = Control::Havoc {
        loc: first,
        depth,
        record: None,
    };
    out.run(control, heap, kont);
}
