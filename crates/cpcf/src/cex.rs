//! Counterexample reconstruction for CPCF: turning the heap at an error
//! state plus a first-order model into concrete input expressions.

use std::collections::BTreeSet;

use folic::Model;

use crate::heap::{CRefinement, DemonicApp, Heap, Loc, SVal, Tag};
use crate::numeric::Number;
use crate::prove::ProverSession;
use crate::syntax::{CBlame, Expr, Label, Prim};

/// A concrete counterexample for a module export.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The blame the counterexample triggers.
    pub blame: CBlame,
    /// Concrete expressions for each opaque input label.
    pub bindings: Vec<(Label, Expr)>,
    /// Whether a concrete re-run confirmed the blame.
    pub validated: bool,
}

impl Counterexample {
    /// The binding for a given opaque label.
    pub fn binding(&self, label: Label) -> Option<&Expr> {
        self.bindings
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, e)| e)
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.blame)?;
        writeln!(f, "breaking inputs:")?;
        for (label, expr) in &self.bindings {
            writeln!(f, "  {label} = {expr}")?;
        }
        Ok(())
    }
}

/// Builds the bindings (opaque label → concrete expression) from an error
/// state's heap, or `None` when the path condition has no model.
pub fn reconstruct_bindings(
    session: &mut ProverSession,
    heap: &Heap,
    labels: &[Label],
) -> Option<Vec<(Label, Expr)>> {
    let model = session.heap_model(heap)?;
    let bindings = labels
        .iter()
        .map(|label| {
            let expr = match heap.opaque_loc(*label) {
                Some(loc) => reconstruct(heap, &model, loc, &mut BTreeSet::new()),
                None => Expr::Int(0),
            };
            (*label, expr)
        })
        .collect();
    Some(bindings)
}

/// Reconstructs a concrete literal expression for the value at `loc`.
pub fn reconstruct(heap: &Heap, model: &Model, loc: Loc, visiting: &mut BTreeSet<Loc>) -> Expr {
    if visiting.contains(&loc) {
        return Expr::Int(0);
    }
    visiting.insert(loc);
    let result = match heap.try_get(loc) {
        None => Expr::Int(0),
        Some(SVal::Num(Number::Int(n))) => Expr::Int(*n),
        Some(SVal::Num(Number::Complex(re, im))) => Expr::Complex(*re, *im),
        Some(SVal::Bool(b)) => Expr::Bool(*b),
        Some(SVal::Str(s)) => Expr::Str(s.clone()),
        Some(SVal::Nil) => Expr::Nil,
        Some(SVal::Pair(car, cdr)) => Expr::Prim(
            Prim::Cons,
            vec![
                reconstruct(heap, model, *car, visiting),
                reconstruct(heap, model, *cdr, visiting),
            ],
            Label(u32::MAX),
        ),
        Some(SVal::StructVal { tag, fields }) => Expr::StructMake(
            tag.clone(),
            fields
                .iter()
                .map(|f| reconstruct(heap, model, *f, visiting))
                .collect(),
        ),
        Some(SVal::BoxVal(inner)) => Expr::Prim(
            Prim::MakeBox,
            vec![reconstruct(heap, model, *inner, visiting)],
            Label(u32::MAX),
        ),
        Some(SVal::Closure { params, .. }) => {
            // A concrete closure flowing in from the program itself: stand in
            // with a constant function of the right arity.
            Expr::lam(params.clone(), Expr::Int(0))
        }
        Some(SVal::Guarded { .. }) | Some(SVal::Contract(_)) => Expr::Int(0),
        Some(SVal::Opaque {
            refinements,
            entries,
            demonic,
        }) => reconstruct_opaque(heap, model, loc, refinements, entries, demonic, visiting),
    };
    visiting.remove(&loc);
    result
}

fn reconstruct_opaque(
    heap: &Heap,
    model: &Model,
    loc: Loc,
    refinements: &[CRefinement],
    entries: &[(Vec<Loc>, Loc)],
    demonic: &[DemonicApp],
    visiting: &mut BTreeSet<Loc>,
) -> Expr {
    let is_procedure = refinements.contains(&CRefinement::Is(Tag::Procedure))
        || !entries.is_empty()
        || !demonic.is_empty();
    if is_procedure {
        return reconstruct_function(heap, model, entries, demonic, visiting);
    }
    if refinements.contains(&CRefinement::IsFalse) {
        return Expr::Bool(false);
    }
    if refinements.contains(&CRefinement::Is(Tag::Boolean)) {
        return Expr::Bool(true);
    }
    if refinements.contains(&CRefinement::Is(Tag::StringT)) {
        return Expr::Str(String::new());
    }
    if refinements.contains(&CRefinement::Is(Tag::Null)) {
        return Expr::Nil;
    }
    // Default: a numeric value from the model (covers Integer/Real/Number
    // refinements, numeric constraints, and completely unconstrained values).
    Expr::Int(model.value_or_zero(loc.solver_var()))
}

/// An opaque function: a case lambda over its memo table, and, when the
/// demonic context applied a behavioural argument on its behalf, the last
/// recorded application chain `((xᵢ A₁ …) B₁ …)`. With both, the lambda
/// branches on whether that argument is a procedure.
fn reconstruct_function(
    heap: &Heap,
    model: &Model,
    entries: &[(Vec<Loc>, Loc)],
    demonic: &[DemonicApp],
    visiting: &mut BTreeSet<Loc>,
) -> Expr {
    let chain_start = demonic
        .iter()
        .rposition(|app| !app.applies_result)
        .unwrap_or(demonic.len());
    let chain = &demonic[chain_start..];
    let arity = entries
        .first()
        .map(|(args, _)| args.len())
        .or_else(|| chain.first().map(|app| app.arity))
        .unwrap_or(1);
    let params: Vec<String> = match arity {
        1 => vec!["x".to_string()],
        _ => (1..=arity).map(|i| format!("x{i}")).collect(),
    };
    let mut rebuild = |loc: Loc| reconstruct(heap, model, loc, visiting);

    // (if (equal? x k₁) v₁ (… 0)), one conjunct per argument when n-ary.
    let mut body = Expr::Int(0);
    for (args, result) in entries.iter().rev() {
        if args.len() != arity {
            continue;
        }
        let mut tests: Vec<Expr> = params
            .iter()
            .zip(args)
            .map(|(param, &arg)| {
                Expr::Prim(
                    Prim::Equal,
                    vec![Expr::var(param), rebuild(arg)],
                    Label(u32::MAX),
                )
            })
            .collect();
        let test = match tests.len() {
            1 => tests.pop().expect("one test"),
            _ => Expr::And(tests),
        };
        body = Expr::ite(test, rebuild(*result), body);
    }

    if let Some(head) = chain.first().filter(|app| app.arity == arity) {
        let applied = &params[head.param];
        let mut call = Expr::var(applied);
        for app in chain {
            call = Expr::app(call, app.args.iter().map(|&arg| rebuild(arg)).collect());
        }
        body = if entries.is_empty() {
            call
        } else {
            Expr::ite(
                Expr::Prim(Prim::IsProcedure, vec![Expr::var(applied)], Label(u32::MAX)),
                call,
                body,
            )
        };
    }
    Expr::lam(params, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use folic::CmpOp;

    use crate::heap::CSymExpr;

    #[test]
    fn numbers_come_from_the_model() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        heap.refine(loc, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(100)));
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        assert_eq!(bindings[0].1, Expr::Int(100));
    }

    #[test]
    fn structures_reconstruct_recursively() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        let car = heap.alloc(SVal::Num(Number::Int(1)));
        let cdr = heap.alloc(SVal::Nil);
        heap.set(loc, SVal::Pair(car, cdr));
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        match &bindings[0].1 {
            Expr::Prim(Prim::Cons, parts, _) => {
                assert_eq!(parts[0], Expr::Int(1));
                assert_eq!(parts[1], Expr::Nil);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opaque_functions_become_case_lambdas() {
        let mut heap = Heap::new();
        let f = heap.alloc_opaque(Label(1));
        let key = heap.alloc(SVal::Num(Number::Int(0)));
        let value = heap.alloc(SVal::Num(Number::Int(100)));
        heap.set(
            f,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![key], value)],
                demonic: Vec::new(),
            },
        );
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        assert!(matches!(bindings[0].1, Expr::Lam { .. }));
    }

    /// `(λ (x) (if (equal? x k) v 0))`
    fn case_lambda(key: i64, value: i64) -> Expr {
        Expr::lam(
            vec!["x"],
            Expr::ite(
                Expr::Prim(
                    Prim::Equal,
                    vec![Expr::var("x"), Expr::Int(key)],
                    Label(u32::MAX),
                ),
                Expr::Int(value),
                Expr::Int(0),
            ),
        )
    }

    #[test]
    fn demonic_records_become_contexts_that_apply_their_argument() {
        // The context applied the function it received to `g`, then the
        // result to `n`, and `g n` = 100 broke the program: ((x G) 7).
        let mut heap = Heap::new();
        let context = heap.alloc_opaque(Label(1));
        heap.refine(context, CRefinement::Is(Tag::Procedure));
        let g = heap.alloc_fresh_opaque();
        let n = heap.alloc_fresh_opaque();
        let r = heap.alloc_fresh_opaque();
        heap.set(
            g,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![n], r)],
                demonic: Vec::new(),
            },
        );
        heap.refine(n, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(7)));
        heap.refine(r, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(100)));
        let (journal_len, fingerprint) = (heap.journal_len(), heap.fingerprint());
        for (args, applies_result) in [(vec![g], false), (vec![n], true)] {
            let app = DemonicApp {
                arity: 1,
                param: 0,
                args,
                applies_result,
            };
            heap.record_demonic(context, app);
        }
        // The record feeds reconstruction only, never the encoding.
        assert_eq!(heap.journal_len(), journal_len);
        assert_eq!(heap.fingerprint(), fingerprint);

        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        let call = Expr::app(
            Expr::app(Expr::var("x"), vec![case_lambda(7, 100)]),
            vec![Expr::Int(7)],
        );
        assert_eq!(bindings[0].1, Expr::lam(vec!["x"], call));
    }

    #[test]
    fn a_function_with_a_case_map_and_a_record_branches_on_procedure() {
        let mut heap = Heap::new();
        let f = heap.alloc_opaque(Label(1));
        let key = heap.alloc(SVal::Num(Number::Int(3)));
        let value = heap.alloc(SVal::Num(Number::Int(4)));
        heap.set(
            f,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![key], value)],
                demonic: Vec::new(),
            },
        );
        let argument = heap.alloc(SVal::Num(Number::Int(5)));
        let app = DemonicApp {
            arity: 1,
            param: 0,
            args: vec![argument],
            applies_result: false,
        };
        heap.record_demonic(f, app);
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        let Expr::Lam { body, .. } = &bindings[0].1 else {
            panic!("expected a lambda, got {:?}", bindings[0].1);
        };
        let Expr::Lam { body: case, .. } = case_lambda(3, 4) else {
            unreachable!()
        };
        let is_procedure = Expr::Prim(Prim::IsProcedure, vec![Expr::var("x")], Label(u32::MAX));
        let call = Expr::app(Expr::var("x"), vec![Expr::Int(5)]);
        assert_eq!(**body, Expr::ite(is_procedure, call, *case));
    }

    #[test]
    fn complex_numbers_survive_reconstruction() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        heap.set(loc, SVal::Num(Number::complex(0, 1)));
        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        assert_eq!(bindings[0].1, Expr::Complex(0, 1));
    }

    #[test]
    fn contradictory_heaps_have_no_bindings() {
        let mut heap = Heap::new();
        let loc = heap.alloc_opaque(Label(1));
        heap.refine(loc, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(0)));
        heap.refine(loc, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(1)));
        let mut session = ProverSession::new();
        assert!(reconstruct_bindings(&mut session, &heap, &[Label(1)]).is_none());
    }

    /// Applies `function` to the integer `argument` concretely.
    fn apply_concretely(function: Expr, argument: i64) -> Option<i64> {
        let mut ctx = crate::eval::Ctx::new(crate::eval::EvalOptions::default());
        let call = Expr::app(function, vec![Expr::Int(argument)]);
        let env = crate::heap::empty_env();
        match crate::eval::eval(&mut ctx, &env, "context", &call, &Heap::new()).as_slice() {
            [(crate::eval::Outcome::Val(loc), heap)] => heap.int_at(*loc),
            other => panic!("unexpected outcomes {other:?}"),
        }
    }

    #[test]
    fn default_values_inhabit_their_types() {
        // Unconstrained opaques reconstruct to a default of their kind.
        let mut heap = Heap::new();
        let number = heap.alloc_fresh_opaque();
        let function = heap.alloc_fresh_opaque();
        heap.refine(function, CRefinement::Is(Tag::Procedure));
        let model = Model::new();
        let rebuild = |loc| reconstruct(&heap, &model, loc, &mut BTreeSet::new());
        assert_eq!(rebuild(number), Expr::Int(0));
        let f = rebuild(function);
        assert!(matches!(f, Expr::Lam { .. }));
        assert_eq!(apply_concretely(f, 5), Some(0));
    }

    #[test]
    fn reconstruct_concrete_number() {
        let mut heap = Heap::new();
        let loc = heap.alloc(SVal::Num(Number::Int(5)));
        let model = Model::new();
        let expr = reconstruct(&heap, &model, loc, &mut BTreeSet::new());
        assert_eq!(expr, Expr::Int(5));
    }

    #[test]
    fn reconstruct_opaque_uses_model() {
        let mut heap = Heap::new();
        let loc = heap.alloc_fresh_opaque();
        let mut model = Model::new();
        model.assign(loc.solver_var(), 100);
        let expr = reconstruct(&heap, &model, loc, &mut BTreeSet::new());
        assert_eq!(expr, Expr::Int(100));
    }

    #[test]
    fn reconstruct_case_map_builds_conditional_function() {
        let mut heap = Heap::new();
        let key = heap.alloc_fresh_opaque();
        let value = heap.alloc(SVal::Num(Number::Int(42)));
        let function = heap.alloc_fresh_opaque();
        heap.set(
            function,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![key], value)],
                demonic: Vec::new(),
            },
        );
        let mut model = Model::new();
        model.assign(key.solver_var(), 7);
        let expr = reconstruct(&heap, &model, function, &mut BTreeSet::new());
        // (λ (x) (if (equal? x 7) 42 0)) — and indeed it maps 7 to 42.
        assert_eq!(expr, case_lambda(7, 42));
        assert_eq!(apply_concretely(expr.clone(), 7), Some(42));
        assert_eq!(apply_concretely(expr, 8), Some(0));
    }

    #[test]
    fn worked_example_style_heap_produces_bindings() {
        // The heap of `1/(100 - (g 0))` failing: g's memo table maps 0 to a
        // result the path condition pins to 100. Only the binding
        // construction is exercised here, not the evaluator.
        let mut heap = Heap::new();
        let g = heap.alloc_opaque(Label(1));
        let n = heap.alloc(SVal::Num(Number::Int(0)));
        let result = heap.alloc_fresh_opaque();
        heap.set(
            g,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![n], result)],
                demonic: Vec::new(),
            },
        );
        heap.refine(result, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(100)));

        let mut session = ProverSession::new();
        let bindings = reconstruct_bindings(&mut session, &heap, &[Label(1)]).expect("model");
        let cex = Counterexample {
            blame: CBlame {
                party: "main".to_string(),
                message: "division by zero".to_string(),
                label: Label(9),
            },
            bindings,
            validated: false,
        };
        let g_binding = cex.binding(Label(1)).expect("binding for g");
        // The reconstructed g maps 0 to 100.
        assert_eq!(apply_concretely(g_binding.clone(), 0), Some(100));
    }
}
