//! Contract monitoring (§4): flat checks, higher-order wrapping with blame,
//! conjunction/disjunction, pair, list and literal-set contracts.
//!
//! Contract branches (or/c, flat-check outcomes) fork the heap via the O(1)
//! copy-on-write `Heap::clone`; each branch then writes only its own path's
//! refinements, sharing the rest of the state structurally.

use std::rc::Rc;

use folic::Proof;

use crate::heap::{CRefinement, ContractVal, Heap, Loc, SVal, Tag};
use crate::syntax::{CBlame, Label};

use super::branch::{refine_to_tag, truthiness, values_equal};
use super::machine::{Control, Frame, Kont, Out};
use super::{Ctx, Outcome};

/// Unrolling bound for `listof` contracts on opaque values.
const LISTOF_DEPTH: u32 = 3;

/// The blame triple of a monitor: the party blamed when the value breaks
/// the contract (`pos`), the party blamed when its context does (`neg`),
/// and the monitor's label.
#[derive(Debug, Clone)]
pub(super) struct Parties {
    pub(super) pos: Rc<str>,
    pub(super) neg: Rc<str>,
    pub(super) label: Label,
}

impl Parties {
    /// The triple for the contract's domain, where the roles are swapped.
    pub(super) fn swapped(self) -> Parties {
        Parties {
            pos: self.neg,
            neg: self.pos,
            label: self.label,
        }
    }

    /// Blames the positive party.
    fn blame(&self, message: impl Into<String>) -> Outcome {
        Outcome::Err(CBlame {
            party: self.pos.to_string(),
            message: message.into(),
            label: self.label,
        })
    }
}

/// One monitoring step: the value at `value_loc` against the contract at
/// `contract_loc`.
pub(super) fn monitor_step(
    ctx: &mut Ctx,
    contract_loc: Loc,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    match heap.get(contract_loc).clone() {
        SVal::Contract(ContractVal::Any) => out.done(Outcome::Val(value_loc), heap, kont),
        SVal::Contract(ContractVal::Func { doms, rng }) => {
            let outcomes = monitor_function(ctx, doms, rng, value_loc, &parties, &heap);
            out.outcomes(outcomes, &kont);
        }
        SVal::Contract(ContractVal::And(parts)) => {
            monitor_all(parts.into(), 0, value_loc, parties, heap, kont, out)
        }
        SVal::Contract(ContractVal::Or(parts)) => {
            monitor_or(parts.into(), 0, value_loc, parties, heap, kont, out)
        }
        SVal::Contract(ContractVal::Cons(car_contract, cdr_contract)) => monitor_pair(
            ctx,
            car_contract,
            cdr_contract,
            value_loc,
            parties,
            heap,
            kont,
            out,
        ),
        SVal::Contract(ContractVal::ListOf(element)) => monitor_listof(
            ctx,
            element,
            value_loc,
            parties,
            LISTOF_DEPTH,
            heap,
            kont,
            out,
        ),
        SVal::Contract(ContractVal::OneOf(options)) => {
            out.outcomes(monitor_one_of(&options, value_loc, &parties, &heap), &kont)
        }
        SVal::Contract(ContractVal::Flat(predicate)) => {
            monitor_flat(predicate, value_loc, parties, heap, kont, out)
        }
        // A procedure used directly as a contract is a flat contract.
        SVal::Closure { .. } | SVal::Guarded { .. } => {
            monitor_flat(contract_loc, value_loc, parties, heap, kont, out)
        }
        // A literal value as a contract means equality with that value.
        other_value => {
            let not_literal = || parties.blame(format!("expected the literal {other_value}"));
            match values_equal(&heap, contract_loc, value_loc) {
                Some(true) => out.done(Outcome::Val(value_loc), heap, kont),
                Some(false) => out.done(not_literal(), heap, kont),
                None => {
                    // Opaque value: branch on taking the literal's value.
                    let mut yes = heap.clone();
                    yes.set(value_loc, other_value.clone());
                    out.done(Outcome::Val(value_loc), yes, kont.clone());
                    out.done(not_literal(), heap, kont);
                }
            }
        }
    }
}

/// Wraps a procedure in a function contract, after checking that it is one
/// and, when its arity is known, that the arity matches.
fn monitor_function(
    ctx: &mut Ctx,
    doms: Vec<Loc>,
    rng: Loc,
    value_loc: Loc,
    parties: &Parties,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    // Like Racket's `->`, wrapping checks a known arity up front, so a
    // function of the wrong arity blames its provider rather than the
    // first caller.
    let arity = match heap.get(value_loc) {
        SVal::Closure { params, .. } => Some(params.len()),
        SVal::Guarded { doms: inner, .. } => Some(inner.len()),
        _ => None,
    };
    if let Some(arity) = arity.filter(|&arity| arity != doms.len()) {
        let message = format!(
            "expected a procedure of arity {}, got arity {arity}",
            doms.len()
        );
        return vec![(parties.blame(message), heap.clone())];
    }
    let not_procedure = || parties.blame("expected a procedure");
    match ctx.prover.prove_tag(heap, value_loc, &Tag::Procedure) {
        Proof::Refuted => vec![(not_procedure(), heap.clone())],
        proof => {
            let mut outcomes = Vec::new();
            if proof == Proof::Ambiguous {
                let mut no = heap.clone();
                no.refine(value_loc, CRefinement::IsNot(Tag::Procedure));
                outcomes.push((not_procedure(), no));
            }
            let mut yes = heap.clone();
            if proof == Proof::Ambiguous {
                yes.refine(value_loc, CRefinement::Is(Tag::Procedure));
            }
            let guarded = yes.alloc(SVal::Guarded {
                doms,
                rng,
                inner: value_loc,
                pos: parties.pos.to_string(),
                neg: parties.neg.to_string(),
                label: parties.label,
            });
            outcomes.push((Outcome::Val(guarded), yes));
            outcomes
        }
    }
}

/// `and/c`: monitors the value against `parts[next..]` in turn, each part
/// receiving the value the previous one returned.
pub(super) fn monitor_all(
    parts: Rc<[Loc]>,
    next: usize,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let Some(&contract) = parts.get(next) else {
        return out.done(Outcome::Val(value_loc), heap, kont);
    };
    let kont = if next + 1 < parts.len() {
        kont.push(Frame::MonAnd {
            parts,
            next: next + 1,
            parties: parties.clone(),
        })
    } else {
        kont
    };
    let control = Control::Monitor {
        contract,
        value: value_loc,
        parties,
    };
    out.run(control, heap, kont);
}

/// `or/c`: monitors the value against `parts[next]` under a frame that
/// tries the later alternatives if it fails; blames once none is left.
fn monitor_or(
    parts: Rc<[Loc]>,
    next: usize,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let Some(&contract) = parts.get(next) else {
        let blame = parties.blame("none of the or/c alternatives hold");
        return out.done(blame, heap, kont);
    };
    let control = Control::Monitor {
        contract,
        value: value_loc,
        parties: parties.clone(),
    };
    let frame = Frame::MonOr {
        parts,
        next: next + 1,
        value: value_loc,
        parties,
    };
    out.run(control, heap, kont.push(frame));
}

/// An error reached the `or/c` frame `frame`: try the next alternative in
/// the error's heap.
pub(super) fn or_caught(frame: Frame, heap: Heap, kont: Kont, out: &mut Out) {
    let Frame::MonOr {
        parts,
        next,
        value,
        parties,
    } = frame
    else {
        unreachable!("errors unwind to or/c frames only")
    };
    monitor_or(parts, next, value, parties, heap, kont, out);
}

#[allow(clippy::too_many_arguments)]
fn monitor_pair(
    ctx: &mut Ctx,
    car_contract: Loc,
    cdr_contract: Loc,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    // The branch where the value is a pair, and the one where it is not.
    let (yes, no) = match heap.get(value_loc) {
        SVal::Pair(..) => (Some(heap), None),
        SVal::Opaque { .. } => match ctx.prover.prove_tag(&heap, value_loc, &Tag::Pair) {
            Proof::Refuted => (None, Some(heap)),
            _ => {
                let mut yes = heap.clone();
                refine_to_tag(ctx, &mut yes, value_loc, &Tag::Pair);
                let mut no = heap;
                no.refine(value_loc, CRefinement::IsNot(Tag::Pair));
                (Some(yes), Some(no))
            }
        },
        _ => (None, Some(heap)),
    };
    if let Some(heap) = yes {
        monitor_car(
            car_contract,
            cdr_contract,
            value_loc,
            parties.clone(),
            heap,
            kont.clone(),
            out,
        );
    }
    if let Some(heap) = no {
        out.done(parties.blame("expected a pair"), heap, kont);
    }
}

/// `cons/c` on a pair: monitors the car, then (in a frame) the cdr.
fn monitor_car(
    car_contract: Loc,
    cdr_contract: Loc,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let SVal::Pair(car, cdr) = *heap.get(value_loc) else {
        unreachable!("a pair branch holds a pair")
    };
    let frame = Frame::PairCdr {
        contract: cdr_contract,
        cdr,
        value: value_loc,
        parties: parties.clone(),
    };
    let control = Control::Monitor {
        contract: car_contract,
        value: car,
        parties,
    };
    out.run(control, heap, kont.push(frame));
}

/// `listof`: monitors each element of the list at `value_loc`, unrolling an
/// opaque list `depth` more times, then returns the list.
#[allow(clippy::too_many_arguments)]
pub(super) fn monitor_listof(
    ctx: &mut Ctx,
    element: Loc,
    value_loc: Loc,
    parties: Parties,
    depth: u32,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let not_list = |parties: &Parties| parties.blame("expected a proper list");
    match *heap.get(value_loc) {
        SVal::Nil => out.done(Outcome::Val(value_loc), heap, kont),
        SVal::Pair(car, cdr) => {
            let frame = Frame::ListRest {
                element,
                cdr,
                value: value_loc,
                parties: parties.clone(),
                depth,
            };
            let control = Control::Monitor {
                contract: element,
                value: car,
                parties,
            };
            out.run(control, heap, kont.push(frame));
        }
        SVal::Opaque { .. } => {
            if depth == 0 {
                // Assume the rest of the unknown list is empty.
                let mut heap = heap;
                heap.set(value_loc, SVal::Nil);
                return out.done(Outcome::Val(value_loc), heap, kont);
            }
            // Branch: the unknown value is '() / a pair / not a list at all.
            let mut nil_heap = heap.clone();
            nil_heap.set(value_loc, SVal::Nil);
            let mut pair_heap = heap.clone();
            refine_to_tag(ctx, &mut pair_heap, value_loc, &Tag::Pair);
            let mut bad_heap = heap;
            bad_heap.refine(value_loc, CRefinement::IsNot(Tag::Pair));
            bad_heap.refine(value_loc, CRefinement::IsNot(Tag::Null));
            out.done(Outcome::Val(value_loc), nil_heap, kont.clone());
            let bad = not_list(&parties);
            monitor_listof(
                ctx,
                element,
                value_loc,
                parties,
                depth - 1,
                pair_heap,
                kont.clone(),
                out,
            );
            out.done(bad, bad_heap, kont);
        }
        _ => out.done(not_list(&parties), heap, kont),
    }
}

fn monitor_one_of(
    options: &[Loc],
    value_loc: Loc,
    parties: &Parties,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
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
        let blame = parties.blame("value is not one of the allowed literals");
        out.push((blame, heap.clone()));
    }
    out
}

/// A flat contract: applies the predicate, then [`flat_result`].
fn monitor_flat(
    predicate: Loc,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let control = Control::Apply {
        function: predicate,
        args: vec![value_loc],
        caller: parties.pos.clone(),
        label: parties.label,
    };
    let frame = Frame::FlatResult {
        value: value_loc,
        parties,
    };
    out.run(control, heap, kont.push(frame));
}

/// A flat contract's predicate returned `result`: the value passes where
/// it is truthy and is blamed where it is `#f`.
pub(super) fn flat_result(
    ctx: &mut Ctx,
    result: Loc,
    value_loc: Loc,
    parties: Parties,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    for (holds, heap) in truthiness(ctx, &heap, result) {
        let outcome = if holds {
            Outcome::Val(value_loc)
        } else {
            parties.blame("flat contract violated")
        };
        out.done(outcome, heap, kont.clone());
    }
}
