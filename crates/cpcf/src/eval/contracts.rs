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
use super::{sequence, then, Ctx, Outcome};

/// Unrolling bound for `listof` contracts on opaque values.
const LISTOF_DEPTH: u32 = 3;

/// The blame triple of a monitor: the party blamed when the value breaks
/// the contract (`pos`), the party blamed when its context does (`neg`),
/// and the monitor's label.
#[derive(Debug, Clone, Copy)]
pub(super) struct Parties<'a> {
    pub(super) pos: &'a str,
    pub(super) neg: &'a str,
    pub(super) label: Label,
}

impl<'a> Parties<'a> {
    /// The triple for the contract's domain, where the roles are swapped.
    pub(super) fn swapped(self) -> Parties<'a> {
        Parties {
            pos: self.neg,
            neg: self.pos,
            label: self.label,
        }
    }

    /// Blames the positive party.
    fn blame(self, message: impl Into<String>) -> CBlame {
        CBlame {
            party: self.pos.to_string(),
            message: message.into(),
            label: self.label,
        }
    }
}

/// Monitors the value at `value_loc` against the contract at `contract_loc`.
pub(super) fn monitor(
    ctx: &mut Ctx,
    contract_loc: Loc,
    value_loc: Loc,
    parties: Parties<'_>,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    if !ctx.tick() {
        return vec![(Outcome::Timeout, heap.clone())];
    }
    match heap.get(contract_loc).clone() {
        SVal::Contract(ContractVal::Any) => vec![(Outcome::Val(value_loc), heap.clone())],
        SVal::Contract(ContractVal::Func { doms, rng }) => {
            // Like Racket's `->`, wrapping checks a known arity up front, so
            // a function of the wrong arity blames its provider rather than
            // the first caller.
            let arity = match heap.get(value_loc) {
                SVal::Closure { params, .. } => Some(params.len()),
                SVal::Guarded { doms: inner, .. } => Some(inner.len()),
                _ => None,
            };
            if let Some(arity) = arity.filter(|&arity| arity != doms.len()) {
                return arity_mismatch(parties, doms.len(), arity, heap);
            }
            let not_procedure = || Outcome::Err(parties.blame("expected a procedure"));
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
        SVal::Contract(ContractVal::And(parts)) => {
            monitor_all(ctx, &parts, value_loc, parties, heap)
        }
        SVal::Contract(ContractVal::Or(parts)) => monitor_or(ctx, &parts, value_loc, parties, heap),
        SVal::Contract(ContractVal::Cons(car_contract, cdr_contract)) => {
            monitor_pair(ctx, car_contract, cdr_contract, value_loc, parties, heap)
        }
        SVal::Contract(ContractVal::ListOf(element)) => {
            monitor_listof(ctx, element, value_loc, parties, heap, LISTOF_DEPTH)
        }
        SVal::Contract(ContractVal::OneOf(options)) => {
            monitor_one_of(&options, value_loc, parties, heap)
        }
        SVal::Contract(ContractVal::Flat(predicate)) => {
            monitor_flat(ctx, predicate, value_loc, parties, heap)
        }
        // A procedure used directly as a contract is a flat contract.
        SVal::Closure { .. } | SVal::Guarded { .. } => {
            monitor_flat(ctx, contract_loc, value_loc, parties, heap)
        }
        // A literal value as a contract means equality with that value.
        other_value => {
            let not_literal =
                || Outcome::Err(parties.blame(format!("expected the literal {other_value}")));
            match values_equal(heap, contract_loc, value_loc) {
                Some(true) => vec![(Outcome::Val(value_loc), heap.clone())],
                Some(false) => vec![(not_literal(), heap.clone())],
                None => {
                    // Opaque value: branch on taking the literal's value.
                    let mut yes = heap.clone();
                    yes.set(value_loc, other_value.clone());
                    vec![
                        (Outcome::Val(value_loc), yes),
                        (not_literal(), heap.clone()),
                    ]
                }
            }
        }
    }
}

/// The blame of wrapping a function of `arity` in a `->` of `expected`
/// domains. Out of line, so the message does not enlarge `monitor`'s
/// frame on the evaluator's recursion path.
#[cold]
#[inline(never)]
fn arity_mismatch(
    parties: Parties<'_>,
    expected: usize,
    arity: usize,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let message = format!("expected a procedure of arity {expected}, got arity {arity}");
    vec![(Outcome::Err(parties.blame(message)), heap.clone())]
}

/// Monitors each argument of a guarded application against its domain
/// contract, then continues with the monitored argument locations.
pub(super) fn monitor_args<K>(
    ctx: &mut Ctx,
    doms: &[Loc],
    args: &[Loc],
    parties: Parties<'_>,
    heap: &Heap,
    k: K,
) -> Vec<(Outcome, Heap)>
where
    K: FnMut(&mut Ctx, Vec<Loc>, Heap) -> Vec<(Outcome, Heap)>,
{
    let step = |ctx: &mut Ctx, i: usize, heap: &Heap| monitor(ctx, doms[i], args[i], parties, heap);
    sequence(ctx, doms.len(), heap.clone(), usize::MAX, step, k)
}

fn monitor_all(
    ctx: &mut Ctx,
    contracts: &[Loc],
    value_loc: Loc,
    parties: Parties<'_>,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match contracts.split_first() {
        None => vec![(Outcome::Val(value_loc), heap.clone())],
        Some((first, rest)) => {
            let outcomes = monitor(ctx, *first, value_loc, parties, heap);
            then(ctx, outcomes, |ctx, next_value, heap| {
                monitor_all(ctx, rest, next_value, parties, &heap)
            })
        }
    }
}

fn monitor_or(
    ctx: &mut Ctx,
    contracts: &[Loc],
    value_loc: Loc,
    parties: Parties<'_>,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match contracts.split_first() {
        None => vec![(
            Outcome::Err(parties.blame("none of the or/c alternatives hold")),
            heap.clone(),
        )],
        Some((first, rest)) => {
            // A branch where the first alternative succeeds, and branches
            // where it fails and the rest are tried.
            let mut out = Vec::new();
            for (outcome, branch_heap) in monitor(ctx, *first, value_loc, parties, heap) {
                match outcome {
                    Outcome::Err(_) => {
                        out.extend(monitor_or(ctx, rest, value_loc, parties, &branch_heap))
                    }
                    other => out.push((other, branch_heap)),
                }
            }
            out
        }
    }
}

fn monitor_pair(
    ctx: &mut Ctx,
    car_contract: Loc,
    cdr_contract: Loc,
    value_loc: Loc,
    parties: Parties<'_>,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let not_pair = || Outcome::Err(parties.blame("expected a pair"));
    // The branches where the value is a pair, and those where it is not.
    let branches = match heap.get(value_loc) {
        SVal::Pair(..) => vec![(Outcome::Val(value_loc), heap.clone())],
        SVal::Opaque { .. } => match ctx.prover.prove_tag(heap, value_loc, &Tag::Pair) {
            Proof::Refuted => vec![(not_pair(), heap.clone())],
            _ => {
                let mut yes = heap.clone();
                refine_to_tag(ctx, &mut yes, value_loc, &Tag::Pair);
                let mut no = heap.clone();
                no.refine(value_loc, CRefinement::IsNot(Tag::Pair));
                vec![(Outcome::Val(value_loc), yes), (not_pair(), no)]
            }
        },
        _ => vec![(not_pair(), heap.clone())],
    };
    then(ctx, branches, |ctx, _, heap| {
        let SVal::Pair(car, cdr) = *heap.get(value_loc) else {
            unreachable!("a pair branch holds a pair")
        };
        let car_outcomes = monitor(ctx, car_contract, car, parties, &heap);
        then(ctx, car_outcomes, |ctx, _, car_heap| {
            let cdr_outcomes = monitor(ctx, cdr_contract, cdr, parties, &car_heap);
            then(ctx, cdr_outcomes, |_, _, heap| {
                vec![(Outcome::Val(value_loc), heap)]
            })
        })
    })
}

fn monitor_listof(
    ctx: &mut Ctx,
    element_contract: Loc,
    value_loc: Loc,
    parties: Parties<'_>,
    heap: &Heap,
    depth: u32,
) -> Vec<(Outcome, Heap)> {
    let not_list = || Outcome::Err(parties.blame("expected a proper list"));
    match *heap.get(value_loc) {
        SVal::Nil => vec![(Outcome::Val(value_loc), heap.clone())],
        SVal::Pair(car, cdr) => {
            let car_outcomes = monitor(ctx, element_contract, car, parties, heap);
            then(ctx, car_outcomes, |ctx, _, car_heap| {
                let rest = monitor_listof(ctx, element_contract, cdr, parties, &car_heap, depth);
                then(ctx, rest, |_, _, heap| {
                    vec![(Outcome::Val(value_loc), heap)]
                })
            })
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
                parties,
                &pair_heap,
                depth - 1,
            ));
            out.push((not_list(), bad_heap));
            out
        }
        _ => vec![(not_list(), heap.clone())],
    }
}

fn monitor_one_of(
    options: &[Loc],
    value_loc: Loc,
    parties: Parties<'_>,
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
        out.push((Outcome::Err(blame), heap.clone()));
    }
    out
}

fn monitor_flat(
    ctx: &mut Ctx,
    predicate: Loc,
    value_loc: Loc,
    parties: Parties<'_>,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let results = apply(
        ctx,
        parties.pos,
        predicate,
        &[value_loc],
        heap,
        parties.label,
    );
    then(ctx, results, |ctx, result, heap| {
        truthiness(ctx, &heap, result)
            .into_iter()
            .map(|(holds, truth_heap)| match holds {
                true => (Outcome::Val(value_loc), truth_heap),
                false => (
                    Outcome::Err(parties.blame("flat contract violated")),
                    truth_heap,
                ),
            })
            .collect()
    })
}
