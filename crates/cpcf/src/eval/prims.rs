//! Primitive operations: tag tests, pair/box/string operations, equality,
//! and concrete + symbolic arithmetic with division-by-zero branching.
//!
//! Division-by-zero and equality splits snapshot the heap per branch; like
//! all state splits this costs O(1) under the copy-on-write heap.

use folic::{CmpOp, Proof};

use crate::heap::{CRefinement, CSymExpr, Heap, Loc, SVal, Tag};
use crate::numeric::Number;
use crate::syntax::{CBlame, Label, Prim};

use super::branch::{refine_to_tag, tag_predicate, truthiness, values_equal};
use super::{alloc_value, Ctx, Outcome};

fn operand(heap: &Heap, loc: Loc) -> CSymExpr {
    match heap.int_at(loc) {
        Some(n) => CSymExpr::int(n),
        None => CSymExpr::loc(loc),
    }
}

/// Applies a primitive operation.
pub fn apply_prim(
    ctx: &mut Ctx,
    owner: &str,
    prim: Prim,
    args: &[Loc],
    heap: &Heap,
    label: Label,
) -> Vec<(Outcome, Heap)> {
    let blame = |message: String| CBlame {
        party: owner.to_string(),
        message,
        label,
    };
    match prim {
        Prim::IsNumber => tag_predicate(ctx, heap, args[0], &Tag::Number),
        Prim::IsReal => tag_predicate(ctx, heap, args[0], &Tag::Real),
        Prim::IsInteger => tag_predicate(ctx, heap, args[0], &Tag::Integer),
        Prim::IsProcedure => tag_predicate(ctx, heap, args[0], &Tag::Procedure),
        Prim::IsPair => tag_predicate(ctx, heap, args[0], &Tag::Pair),
        Prim::IsNull => tag_predicate(ctx, heap, args[0], &Tag::Null),
        Prim::IsBoolean => tag_predicate(ctx, heap, args[0], &Tag::Boolean),
        Prim::IsString => tag_predicate(ctx, heap, args[0], &Tag::StringT),
        Prim::IsBox => tag_predicate(ctx, heap, args[0], &Tag::BoxT),
        Prim::Not => truthiness(ctx, heap, args[0])
            .into_iter()
            .flat_map(|(is_true, branch_heap)| alloc_value(&branch_heap, SVal::Bool(!is_true)))
            .collect(),
        Prim::Cons => {
            let mut heap = heap.clone();
            let loc = heap.alloc(SVal::Pair(args[0], args[1]));
            vec![(Outcome::Val(loc), heap)]
        }
        Prim::Car | Prim::Cdr => pair_project(ctx, owner, prim, args[0], heap, label),
        Prim::Equal => match values_equal(heap, args[0], args[1]) {
            Some(result) => alloc_value(heap, SVal::Bool(result)),
            None => {
                let mut out = alloc_value(heap, SVal::Bool(true));
                out.extend(alloc_value(heap, SVal::Bool(false)));
                out
            }
        },
        Prim::Assert => truthiness(ctx, heap, args[0])
            .into_iter()
            .map(|(is_true, branch_heap)| {
                if is_true {
                    (Outcome::Val(args[0]), branch_heap)
                } else {
                    (
                        Outcome::Err(blame("assertion failed".to_string())),
                        branch_heap,
                    )
                }
            })
            .collect(),
        Prim::Raise => {
            let message = match heap.get(args[0]) {
                SVal::Str(s) => s.clone(),
                other => format!("{other}"),
            };
            vec![(
                Outcome::Err(blame(format!("error: {message}"))),
                heap.clone(),
            )]
        }
        Prim::MakeBox => {
            let mut heap = heap.clone();
            let loc = heap.alloc(SVal::BoxVal(args[0]));
            vec![(Outcome::Val(loc), heap)]
        }
        Prim::Unbox => match heap.get(args[0]).clone() {
            SVal::BoxVal(inner) => vec![(Outcome::Val(inner), heap.clone())],
            SVal::Opaque { .. } => {
                let mut yes = heap.clone();
                refine_to_tag(ctx, &mut yes, args[0], &Tag::BoxT);
                let inner = match yes.get(args[0]) {
                    SVal::BoxVal(inner) => *inner,
                    _ => unreachable!("refine_to_tag installs a box"),
                };
                let mut no = heap.clone();
                no.refine(args[0], CRefinement::IsNot(Tag::BoxT));
                vec![
                    (Outcome::Val(inner), yes),
                    (Outcome::Err(blame("unbox: expected a box".to_string())), no),
                ]
            }
            _ => vec![(
                Outcome::Err(blame("unbox: expected a box".to_string())),
                heap.clone(),
            )],
        },
        Prim::SetBox => match heap.get(args[0]).clone() {
            SVal::BoxVal(_) => {
                let mut heap = heap.clone();
                heap.set(args[0], SVal::BoxVal(args[1]));
                alloc_value(&heap, SVal::Nil)
            }
            _ => vec![(
                Outcome::Err(blame("set-box!: expected a box".to_string())),
                heap.clone(),
            )],
        },
        Prim::StringLength => match heap.get(args[0]) {
            SVal::Str(s) => alloc_value(heap, SVal::Num(Number::Int(s.len() as i64))),
            SVal::Opaque { .. } => {
                let proof = ctx.prover.prove_tag(heap, args[0], &Tag::StringT);
                let mut outcomes = Vec::new();
                if proof != Proof::Refuted {
                    let mut result_heap = heap.clone();
                    if proof != Proof::Proved {
                        result_heap.refine(args[0], CRefinement::Is(Tag::StringT));
                    }
                    let result = result_heap.alloc_fresh_opaque();
                    result_heap.refine(result, CRefinement::Is(Tag::Integer));
                    result_heap.refine(result, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
                    outcomes.push((Outcome::Val(result), result_heap));
                }
                if proof != Proof::Proved {
                    let mut no = heap.clone();
                    no.refine(args[0], CRefinement::IsNot(Tag::StringT));
                    outcomes.push((
                        Outcome::Err(blame("string-length: expected a string".to_string())),
                        no,
                    ));
                }
                outcomes
            }
            _ => vec![(
                Outcome::Err(blame("string-length: expected a string".to_string())),
                heap.clone(),
            )],
        },
        Prim::IsZero => numeric_comparison(ctx, owner, Prim::NumEq, args[0], None, heap, label),
        Prim::NumEq | Prim::Lt | Prim::Le | Prim::Gt | Prim::Ge => {
            numeric_comparison(ctx, owner, prim, args[0], Some(args[1]), heap, label)
        }
        Prim::Add | Prim::Sub | Prim::Mul | Prim::Add1 | Prim::Sub1 | Prim::Div | Prim::Mod => {
            arithmetic(ctx, owner, prim, args, heap, label)
        }
    }
}

fn pair_project(
    ctx: &mut Ctx,
    owner: &str,
    prim: Prim,
    loc: Loc,
    heap: &Heap,
    label: Label,
) -> Vec<(Outcome, Heap)> {
    let blame = CBlame {
        party: owner.to_string(),
        message: format!("{prim}: expected a pair"),
        label,
    };
    match heap.get(loc) {
        SVal::Pair(car, cdr) => {
            let field = if prim == Prim::Car { *car } else { *cdr };
            vec![(Outcome::Val(field), heap.clone())]
        }
        SVal::Opaque { .. } => match ctx.prover.prove_tag(heap, loc, &Tag::Pair) {
            Proof::Refuted => vec![(Outcome::Err(blame), heap.clone())],
            _ => {
                let mut yes = heap.clone();
                refine_to_tag(ctx, &mut yes, loc, &Tag::Pair);
                let (car, cdr) = match yes.get(loc) {
                    SVal::Pair(a, b) => (*a, *b),
                    _ => unreachable!("refine_to_tag installs a pair"),
                };
                let field = if prim == Prim::Car { car } else { cdr };
                let mut no = heap.clone();
                no.refine(loc, CRefinement::IsNot(Tag::Pair));
                vec![(Outcome::Val(field), yes), (Outcome::Err(blame), no)]
            }
        },
        _ => vec![(Outcome::Err(blame), heap.clone())],
    }
}

/// Ensures `loc` can be treated as an integer for symbolic arithmetic,
/// returning the feasible branches: `(is_real_integer, heap)`. The non-real
/// branch concretises the value to `0+1i` so counterexamples involving the
/// numeric tower (the `argmin` example) can be produced.
fn integer_branches(
    ctx: &mut Ctx,
    heap: &Heap,
    loc: Loc,
    allow_complex: bool,
) -> Vec<(bool, Heap)> {
    match heap.get(loc) {
        SVal::Num(n) => vec![(n.is_real(), heap.clone())],
        SVal::Opaque { .. } => match ctx.prover.prove_tag(heap, loc, &Tag::Real) {
            Proof::Proved => vec![(true, heap.clone())],
            Proof::Refuted => vec![(false, heap.clone())],
            Proof::Ambiguous => {
                let mut real = heap.clone();
                real.refine(loc, CRefinement::Is(Tag::Integer));
                let mut branches = vec![(true, real)];
                if allow_complex && ctx.prover.prove_tag(heap, loc, &Tag::Number) != Proof::Refuted
                {
                    let mut complex = heap.clone();
                    complex.set(loc, SVal::Num(Number::complex(0, 1)));
                    branches.push((false, complex));
                }
                branches
            }
        },
        _ => vec![(false, heap.clone())],
    }
}

#[allow(clippy::too_many_arguments)]
fn numeric_comparison(
    ctx: &mut Ctx,
    owner: &str,
    prim: Prim,
    left: Loc,
    right: Option<Loc>,
    heap: &Heap,
    label: Label,
) -> Vec<(Outcome, Heap)> {
    let blame = CBlame {
        party: owner.to_string(),
        message: format!("{prim}: expected real numbers"),
        label,
    };
    let cmp = match prim {
        Prim::NumEq => CmpOp::Eq,
        Prim::Lt => CmpOp::Lt,
        Prim::Le => CmpOp::Le,
        Prim::Gt => CmpOp::Gt,
        Prim::Ge => CmpOp::Ge,
        _ => CmpOp::Eq,
    };
    // `=` works on all numbers, the orderings require reals.
    let needs_real = !matches!(prim, Prim::NumEq);
    let mut out = Vec::new();
    for (left_real, left_heap) in integer_branches(ctx, heap, left, needs_real) {
        if !left_real && needs_real {
            out.push((Outcome::Err(blame.clone()), left_heap));
            continue;
        }
        if !left_real && !needs_real {
            // Comparing a complex number for equality: decided concretely
            // when possible, otherwise both ways.
            out.extend(alloc_value(&left_heap, SVal::Bool(false)));
            continue;
        }
        let branches_right = match right {
            Some(right) => integer_branches(ctx, &left_heap, right, needs_real),
            None => vec![(true, left_heap.clone())],
        };
        for (right_real, branch_heap) in branches_right {
            if !right_real && needs_real {
                out.push((Outcome::Err(blame.clone()), branch_heap));
                continue;
            }
            if !right_real {
                out.extend(alloc_value(&branch_heap, SVal::Bool(false)));
                continue;
            }
            // Both sides (assumed) integers: decide or branch symbolically.
            let left_concrete = branch_heap.int_at(left);
            let right_concrete = match right {
                Some(r) => branch_heap.int_at(r),
                None => Some(0),
            };
            match (left_concrete, right_concrete) {
                (Some(a), Some(b)) => {
                    out.extend(alloc_value(&branch_heap, SVal::Bool(cmp.eval(a, b))));
                }
                _ => {
                    let (subject, subject_cmp, other_expr) = if branch_heap.int_at(left).is_none() {
                        let rhs = match right {
                            Some(r) => operand(&branch_heap, r),
                            None => CSymExpr::int(0),
                        };
                        (left, cmp, rhs)
                    } else {
                        let flipped = match cmp {
                            CmpOp::Eq => CmpOp::Eq,
                            CmpOp::Ne => CmpOp::Ne,
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::Le => CmpOp::Ge,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::Ge => CmpOp::Le,
                        };
                        (
                            right.expect("symbolic side"),
                            flipped,
                            operand(&branch_heap, left),
                        )
                    };
                    match ctx
                        .prover
                        .prove_num(&branch_heap, subject, subject_cmp, &other_expr)
                    {
                        Proof::Proved => out.extend(alloc_value(&branch_heap, SVal::Bool(true))),
                        Proof::Refuted => out.extend(alloc_value(&branch_heap, SVal::Bool(false))),
                        Proof::Ambiguous => {
                            let mut yes = branch_heap.clone();
                            yes.refine(
                                subject,
                                CRefinement::NumCmp(subject_cmp, other_expr.clone()),
                            );
                            out.extend(alloc_value(&yes, SVal::Bool(true)));
                            let mut no = branch_heap.clone();
                            no.refine(
                                subject,
                                CRefinement::NumCmp(subject_cmp.negate(), other_expr),
                            );
                            out.extend(alloc_value(&no, SVal::Bool(false)));
                        }
                    }
                }
            }
        }
    }
    out
}

fn arithmetic(
    ctx: &mut Ctx,
    owner: &str,
    prim: Prim,
    args: &[Loc],
    heap: &Heap,
    label: Label,
) -> Vec<(Outcome, Heap)> {
    let blame = |message: String| CBlame {
        party: owner.to_string(),
        message,
        label,
    };
    // All-concrete fast path (covers complex arithmetic too).
    let concrete: Option<Vec<Number>> = args.iter().map(|&l| heap.num_at(l)).collect();
    if let Some(values) = concrete {
        return match concrete_arith(prim, &values) {
            Ok(result) => alloc_value(heap, SVal::Num(result)),
            Err(message) => vec![(Outcome::Err(blame(message)), heap.clone())],
        };
    }
    // A concrete non-number fails the operation whatever the other
    // arguments are.
    if args
        .iter()
        .any(|&arg| !matches!(heap.get(arg), SVal::Num(_) | SVal::Opaque { .. }))
    {
        return vec![(
            Outcome::Err(blame(format!("{prim}: expected numbers"))),
            heap.clone(),
        )];
    }
    // Symbolic path: every opaque argument is assumed to be an integer (a
    // branch blaming non-numbers is produced when the tag is refutable).
    let mut branch_heaps = vec![heap.clone()];
    for &arg in args {
        let mut next = Vec::new();
        for branch_heap in branch_heaps {
            match branch_heap.get(arg) {
                SVal::Opaque { .. } => {
                    match ctx.prover.prove_tag(&branch_heap, arg, &Tag::Number) {
                        Proof::Refuted => {}
                        _ => {
                            let mut yes = branch_heap.clone();
                            if ctx.prover.prove_tag(&yes, arg, &Tag::Integer) != Proof::Proved {
                                yes.refine(arg, CRefinement::Is(Tag::Integer));
                            }
                            next.push(yes);
                        }
                    }
                }
                // A number. A complex one reaches here only beside an
                // opaque argument: +, - and * on complex numbers were
                // handled by the concrete path.
                _ => next.push(branch_heap),
            }
        }
        branch_heaps = next;
    }
    let mut out: Vec<(Outcome, Heap)> = Vec::new();
    // A branch blaming the operation when some argument may not be a number.
    for &arg in args {
        if matches!(heap.get(arg), SVal::Opaque { .. })
            && ctx.prover.prove_tag(heap, arg, &Tag::Number) != Proof::Proved
        {
            let mut bad = heap.clone();
            bad.refine(arg, CRefinement::IsNot(Tag::Number));
            out.push((
                Outcome::Err(blame(format!("{prim}: expected numbers"))),
                bad,
            ));
            break;
        }
    }
    for branch_heap in branch_heaps {
        match prim {
            Prim::Div | Prim::Mod => {
                let divisor = args[1];
                let zero = CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(0));
                match ctx
                    .prover
                    .prove_num(&branch_heap, divisor, CmpOp::Eq, &CSymExpr::int(0))
                {
                    Proof::Proved => out.push((
                        Outcome::Err(blame(format!("{prim}: division by zero"))),
                        branch_heap,
                    )),
                    Proof::Refuted => {
                        out.push(symbolic_arith_result(prim, args, branch_heap));
                    }
                    Proof::Ambiguous => {
                        let mut error_heap = branch_heap.clone();
                        if matches!(error_heap.get(divisor), SVal::Opaque { .. }) {
                            error_heap.refine(divisor, zero);
                        }
                        out.push((
                            Outcome::Err(blame(format!("{prim}: division by zero"))),
                            error_heap,
                        ));
                        let mut ok_heap = branch_heap.clone();
                        if matches!(ok_heap.get(divisor), SVal::Opaque { .. }) {
                            ok_heap
                                .refine(divisor, CRefinement::NumCmp(CmpOp::Ne, CSymExpr::int(0)));
                        }
                        out.push(symbolic_arith_result(prim, args, ok_heap));
                    }
                }
            }
            _ => out.push(symbolic_arith_result(prim, args, branch_heap)),
        }
    }
    out
}

fn symbolic_arith_result(prim: Prim, args: &[Loc], mut heap: Heap) -> (Outcome, Heap) {
    let expr = match prim {
        Prim::Add1 => CSymExpr::Add(
            Box::new(operand(&heap, args[0])),
            Box::new(CSymExpr::int(1)),
        ),
        Prim::Sub1 => CSymExpr::Sub(
            Box::new(operand(&heap, args[0])),
            Box::new(CSymExpr::int(1)),
        ),
        Prim::Add | Prim::Sub | Prim::Mul => {
            let mut iter = args.iter();
            let first = operand(&heap, *iter.next().expect("at least one argument"));
            iter.fold(first, |acc, &next| {
                let rhs = operand(&heap, next);
                match prim {
                    Prim::Add => CSymExpr::Add(Box::new(acc), Box::new(rhs)),
                    Prim::Sub => CSymExpr::Sub(Box::new(acc), Box::new(rhs)),
                    _ => CSymExpr::Mul(Box::new(acc), Box::new(rhs)),
                }
            })
        }
        Prim::Div => CSymExpr::Div(
            Box::new(operand(&heap, args[0])),
            Box::new(operand(&heap, args[1])),
        ),
        Prim::Mod => CSymExpr::Mod(
            Box::new(operand(&heap, args[0])),
            Box::new(operand(&heap, args[1])),
        ),
        _ => unreachable!("not an arithmetic primitive"),
    };
    let result = heap.alloc_fresh_opaque();
    heap.refine(result, CRefinement::Is(Tag::Integer));
    heap.refine(result, CRefinement::NumCmp(CmpOp::Eq, expr));
    (Outcome::Val(result), heap)
}

fn concrete_arith(prim: Prim, values: &[Number]) -> Result<Number, String> {
    match prim {
        Prim::Add1 => Ok(values[0].add(Number::Int(1))),
        Prim::Sub1 => Ok(values[0].sub(Number::Int(1))),
        Prim::Add => Ok(values.iter().fold(Number::Int(0), |a, b| a.add(*b))),
        Prim::Mul => Ok(values.iter().fold(Number::Int(1), |a, b| a.mul(*b))),
        Prim::Sub => {
            if values.len() == 1 {
                Ok(Number::Int(0).sub(values[0]))
            } else {
                Ok(values[1..].iter().fold(values[0], |a, b| a.sub(*b)))
            }
        }
        Prim::Div => values[0]
            .div(values[1])
            .ok_or_else(|| "/: division by zero or non-integer operands".to_string()),
        Prim::Mod => values[0]
            .rem(values[1])
            .ok_or_else(|| "modulo: division by zero or non-integer operands".to_string()),
        _ => Err(format!("{prim}: not an arithmetic primitive")),
    }
}
