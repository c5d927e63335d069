//! Contract monitoring (§4): flat checks, higher-order wrapping with blame,
//! conjunction/disjunction, pair, list and literal-set contracts.
//!
//! Contract branches (or/c, flat-check outcomes) fork the heap via the O(1)
//! copy-on-write `Heap::clone`; each branch then writes only its own path's
//! refinements, sharing the rest of the state structurally.

use folic::Proof;

use crate::heap::{CRefinement, ContractVal, Heap, Loc, SVal, Tag};
use crate::syntax::{CBlame, Label};

use super::apply::apply;
use super::branch::{refine_to_tag, truthiness, values_equal};
use super::{Ctx, Outcome};

/// Unrolling bound for `listof` contracts on opaque values.
const LISTOF_DEPTH: u32 = 3;

/// Continuation receiving the monitored argument locations of a guarded
/// application.
type MonitorCont<'a> = &'a mut dyn FnMut(&mut Ctx, Vec<Loc>, Heap) -> Vec<(Outcome, Heap)>;

/// Monitors the value at `value_loc` against the contract at `contract_loc`.
pub fn monitor(
    ctx: &mut Ctx,
    contract_loc: Loc,
    value_loc: Loc,
    pos: &str,
    neg: &str,
    label: Label,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    if !ctx.tick() {
        return vec![(Outcome::Timeout, heap.clone())];
    }
    let blame = |message: String| CBlame {
        party: pos.to_string(),
        message,
        label,
    };
    match heap.get(contract_loc).clone() {
        SVal::Contract(ContractVal::Any) => vec![(Outcome::Val(value_loc), heap.clone())],
        SVal::Contract(ContractVal::Func { doms, rng }) => {
            match ctx.prover.prove_tag(heap, value_loc, &Tag::Procedure) {
                Proof::Refuted => vec![(
                    Outcome::Err(blame("expected a procedure".to_string())),
                    heap.clone(),
                )],
                proof => {
                    let mut outcomes = Vec::new();
                    if proof == Proof::Ambiguous {
                        let mut no = heap.clone();
                        no.refine(value_loc, CRefinement::IsNot(Tag::Procedure));
                        outcomes
                            .push((Outcome::Err(blame("expected a procedure".to_string())), no));
                    }
                    let mut yes = heap.clone();
                    if proof == Proof::Ambiguous {
                        yes.refine(value_loc, CRefinement::Is(Tag::Procedure));
                    }
                    let guarded = yes.alloc(SVal::Guarded {
                        doms,
                        rng,
                        inner: value_loc,
                        pos: pos.to_string(),
                        neg: neg.to_string(),
                        label,
                    });
                    outcomes.push((Outcome::Val(guarded), yes));
                    outcomes
                }
            }
        }
        SVal::Contract(ContractVal::And(parts)) => {
            monitor_all(ctx, &parts, value_loc, pos, neg, label, heap)
        }
        SVal::Contract(ContractVal::Or(parts)) => {
            monitor_or(ctx, &parts, value_loc, pos, neg, label, heap)
        }
        SVal::Contract(ContractVal::Cons(car_contract, cdr_contract)) => monitor_pair(
            ctx,
            car_contract,
            cdr_contract,
            value_loc,
            pos,
            neg,
            label,
            heap,
        ),
        SVal::Contract(ContractVal::ListOf(element)) => {
            monitor_listof(ctx, element, value_loc, pos, neg, label, heap, LISTOF_DEPTH)
        }
        SVal::Contract(ContractVal::OneOf(options)) => {
            monitor_one_of(ctx, &options, value_loc, pos, neg, label, heap)
        }
        SVal::Contract(ContractVal::Flat(predicate)) => {
            monitor_flat(ctx, predicate, value_loc, pos, label, heap)
        }
        // A procedure used directly as a contract is a flat contract.
        SVal::Closure { .. } | SVal::Guarded { .. } => {
            monitor_flat(ctx, contract_loc, value_loc, pos, label, heap)
        }
        // A literal value as a contract means equality with that value.
        other_value => {
            let holds = values_equal(heap, contract_loc, value_loc);
            match holds {
                Some(true) => vec![(Outcome::Val(value_loc), heap.clone())],
                Some(false) => vec![(
                    Outcome::Err(blame(format!("expected the literal {other_value}"))),
                    heap.clone(),
                )],
                None => {
                    // Opaque value: branch on taking the literal's value.
                    let mut yes = heap.clone();
                    yes.set(value_loc, other_value.clone());
                    let mut no = heap.clone();
                    let _ = &mut no;
                    vec![
                        (Outcome::Val(value_loc), yes),
                        (
                            Outcome::Err(blame(format!("expected the literal {other_value}"))),
                            no,
                        ),
                    ]
                }
            }
        }
    }
}

/// Monitors each argument of a guarded application against its domain
/// contract, then continues with the monitored argument locations.
#[allow(clippy::too_many_arguments)]
pub(super) fn monitor_args(
    ctx: &mut Ctx,
    doms: &[Loc],
    args: &[Loc],
    pos: &str,
    neg: &str,
    label: Label,
    heap: &Heap,
    done: Vec<Loc>,
    k: MonitorCont<'_>,
) -> Vec<(Outcome, Heap)> {
    match (doms.split_first(), args.split_first()) {
        (None, None) => k(ctx, done, heap.clone()),
        (Some((dom, doms_rest)), Some((arg, args_rest))) => {
            let mut out = Vec::new();
            for (outcome, branch_heap) in monitor(ctx, *dom, *arg, pos, neg, label, heap) {
                match outcome {
                    Outcome::Val(monitored) => {
                        let mut done = done.clone();
                        done.push(monitored);
                        out.extend(monitor_args(
                            ctx,
                            doms_rest,
                            args_rest,
                            pos,
                            neg,
                            label,
                            &branch_heap,
                            done,
                            k,
                        ));
                    }
                    other => out.push((other, branch_heap)),
                }
            }
            out
        }
        _ => vec![(Outcome::Timeout, heap.clone())],
    }
}

fn monitor_all(
    ctx: &mut Ctx,
    contracts: &[Loc],
    value_loc: Loc,
    pos: &str,
    neg: &str,
    label: Label,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match contracts.split_first() {
        None => vec![(Outcome::Val(value_loc), heap.clone())],
        Some((first, rest)) => {
            let mut out = Vec::new();
            for (outcome, branch_heap) in monitor(ctx, *first, value_loc, pos, neg, label, heap) {
                match outcome {
                    Outcome::Val(next_value) => {
                        out.extend(monitor_all(
                            ctx,
                            rest,
                            next_value,
                            pos,
                            neg,
                            label,
                            &branch_heap,
                        ));
                    }
                    other => out.push((other, branch_heap)),
                }
            }
            out
        }
    }
}

fn monitor_or(
    ctx: &mut Ctx,
    contracts: &[Loc],
    value_loc: Loc,
    pos: &str,
    neg: &str,
    label: Label,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match contracts.split_first() {
        None => vec![(
            Outcome::Err(CBlame {
                party: pos.to_string(),
                message: "none of the or/c alternatives hold".to_string(),
                label,
            }),
            heap.clone(),
        )],
        Some((first, rest)) => {
            // A branch where the first alternative succeeds, and branches
            // where it fails and the rest are tried.
            let mut out = Vec::new();
            for (outcome, branch_heap) in monitor(ctx, *first, value_loc, pos, neg, label, heap) {
                match outcome {
                    Outcome::Val(v) => out.push((Outcome::Val(v), branch_heap)),
                    Outcome::Err(_) => {
                        out.extend(monitor_or(
                            ctx,
                            rest,
                            value_loc,
                            pos,
                            neg,
                            label,
                            &branch_heap,
                        ));
                    }
                    Outcome::Timeout => out.push((Outcome::Timeout, branch_heap)),
                }
            }
            out
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn monitor_pair(
    ctx: &mut Ctx,
    car_contract: Loc,
    cdr_contract: Loc,
    value_loc: Loc,
    pos: &str,
    neg: &str,
    label: Label,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let blame = CBlame {
        party: pos.to_string(),
        message: "expected a pair".to_string(),
        label,
    };
    let branches: Vec<(Option<(Loc, Loc)>, Heap)> = match heap.get(value_loc) {
        SVal::Pair(car, cdr) => vec![(Some((*car, *cdr)), heap.clone())],
        SVal::Opaque { .. } => match ctx.prover.prove_tag(heap, value_loc, &Tag::Pair) {
            Proof::Refuted => vec![(None, heap.clone())],
            _ => {
                let mut yes = heap.clone();
                refine_to_tag(ctx, &mut yes, value_loc, &Tag::Pair);
                let (car, cdr) = match yes.get(value_loc) {
                    SVal::Pair(a, b) => (*a, *b),
                    _ => unreachable!("refine_to_tag installs a pair"),
                };
                let mut no = heap.clone();
                no.refine(value_loc, CRefinement::IsNot(Tag::Pair));
                vec![(Some((car, cdr)), yes), (None, no)]
            }
        },
        _ => vec![(None, heap.clone())],
    };
    let mut out = Vec::new();
    for (pair, branch_heap) in branches {
        match pair {
            None => out.push((Outcome::Err(blame.clone()), branch_heap)),
            Some((car, cdr)) => {
                for (car_outcome, car_heap) in
                    monitor(ctx, car_contract, car, pos, neg, label, &branch_heap)
                {
                    match car_outcome {
                        Outcome::Val(_) => {
                            out.extend(
                                monitor(ctx, cdr_contract, cdr, pos, neg, label, &car_heap)
                                    .into_iter()
                                    .map(|(o, h)| match o {
                                        Outcome::Val(_) => (Outcome::Val(value_loc), h),
                                        other => (other, h),
                                    }),
                            );
                        }
                        other => out.push((other, car_heap)),
                    }
                }
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn monitor_listof(
    ctx: &mut Ctx,
    element_contract: Loc,
    value_loc: Loc,
    pos: &str,
    neg: &str,
    label: Label,
    heap: &Heap,
    depth: u32,
) -> Vec<(Outcome, Heap)> {
    let blame = CBlame {
        party: pos.to_string(),
        message: "expected a proper list".to_string(),
        label,
    };
    match heap.get(value_loc).clone() {
        SVal::Nil => vec![(Outcome::Val(value_loc), heap.clone())],
        SVal::Pair(car, cdr) => {
            let mut out = Vec::new();
            for (car_outcome, car_heap) in
                monitor(ctx, element_contract, car, pos, neg, label, heap)
            {
                match car_outcome {
                    Outcome::Val(_) => out.extend(
                        monitor_listof(
                            ctx,
                            element_contract,
                            cdr,
                            pos,
                            neg,
                            label,
                            &car_heap,
                            depth,
                        )
                        .into_iter()
                        .map(|(o, h)| match o {
                            Outcome::Val(_) => (Outcome::Val(value_loc), h),
                            other => (other, h),
                        }),
                    ),
                    other => out.push((other, car_heap)),
                }
            }
            out
        }
        SVal::Opaque { .. } => {
            if depth == 0 {
                // Assume the rest of the unknown list is empty.
                let mut heap = heap.clone();
                heap.set(value_loc, SVal::Nil);
                return vec![(Outcome::Val(value_loc), heap)];
            }
            // Branch: the unknown value is '() / a pair / not a list at all.
            let mut nil_heap = heap.clone();
            nil_heap.set(value_loc, SVal::Nil);
            let mut pair_heap = heap.clone();
            refine_to_tag(ctx, &mut pair_heap, value_loc, &Tag::Pair);
            let mut bad_heap = heap.clone();
            bad_heap.refine(value_loc, CRefinement::IsNot(Tag::Pair));
            bad_heap.refine(value_loc, CRefinement::IsNot(Tag::Null));
            let mut out = vec![(Outcome::Val(value_loc), nil_heap)];
            out.extend(monitor_listof(
                ctx,
                element_contract,
                value_loc,
                pos,
                neg,
                label,
                &pair_heap,
                depth - 1,
            ));
            out.push((Outcome::Err(blame), bad_heap));
            out
        }
        _ => vec![(Outcome::Err(blame), heap.clone())],
    }
}

fn monitor_one_of(
    ctx: &mut Ctx,
    options: &[Loc],
    value_loc: Loc,
    pos: &str,
    _neg: &str,
    label: Label,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let _ = ctx;
    let blame = CBlame {
        party: pos.to_string(),
        message: "value is not one of the allowed literals".to_string(),
        label,
    };
    let mut out = Vec::new();
    let mut all_decided_false = true;
    for &option in options {
        match values_equal(heap, option, value_loc) {
            Some(true) => return vec![(Outcome::Val(value_loc), heap.clone())],
            Some(false) => {}
            None => {
                all_decided_false = false;
                // Branch where the opaque value takes this literal's value.
                let mut branch = heap.clone();
                branch.set(value_loc, heap.get(option).clone());
                out.push((Outcome::Val(value_loc), branch));
            }
        }
    }
    if all_decided_false || !out.is_empty() {
        out.push((Outcome::Err(blame), heap.clone()));
    }
    out
}

fn monitor_flat(
    ctx: &mut Ctx,
    predicate: Loc,
    value_loc: Loc,
    pos: &str,
    label: Label,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let mut out = Vec::new();
    for (outcome, branch_heap) in apply(ctx, pos, predicate, &[value_loc], heap, label) {
        match outcome {
            Outcome::Val(result) => {
                for (is_true, truth_heap) in truthiness(ctx, &branch_heap, result) {
                    if is_true {
                        out.push((Outcome::Val(value_loc), truth_heap));
                    } else {
                        out.push((
                            Outcome::Err(CBlame {
                                party: pos.to_string(),
                                message: "flat contract violated".to_string(),
                                label,
                            }),
                            truth_heap,
                        ));
                    }
                }
            }
            other => out.push((other, branch_heap)),
        }
    }
    out
}
