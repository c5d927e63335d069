//! The reduction relation `⟨E, Σ⟩ ⟼ ⟨E′, Σ′⟩` (Fig. 2).
//!
//! Reduction is non-deterministic: a state may have several successors, one
//! per branch the symbolic execution must consider (conditionals on opaque
//! values, partial primitives, and the several shapes an opaque function can
//! take when applied to a higher-order argument).
//!
//! The rules implemented here are exactly the paper's:
//!
//! * `Opq`, `Conc` — allocation of values;
//! * `IfTrue` / `IfFalse` — conditionals via the truth of the scrutinee;
//! * `Prim` — primitive application through [`crate::delta`];
//! * `AppLam` — β-reduction;
//! * `AppOpq1` — applying an opaque function to a base-typed argument
//!   introduces (or, without case maps, skips) a memoising `case` map;
//! * `AppOpq2`, `AppOpq3`, `AppHavoc` — the three shapes an opaque function
//!   can take when its argument is behavioural (ignore it, delay it, or
//!   explore it);
//! * `AppCase1` / `AppCase2` — lookups in and extensions of `case` maps;
//! * `Close`, `Error` — congruence and error propagation.

use crate::delta::{branch_truth, delta, PrimOutcome};
use crate::heap::{Heap, Loc, Storeable};
use crate::prove::Prover;
use crate::syntax::Expr;
use crate::types::Type;

/// A machine state `⟨E, Σ⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct State {
    /// The expression under evaluation.
    pub expr: Expr,
    /// The symbolic heap.
    pub heap: Heap,
}

impl State {
    /// The initial state for a program.
    pub fn initial(program: Expr) -> State {
        State {
            expr: program,
            heap: Heap::new(),
        }
    }

    /// True if the state is an answer (a location or an error).
    pub fn is_final(&self) -> bool {
        self.expr.is_answer()
    }
}

/// Options controlling the reduction rules.
#[derive(Debug, Clone, Copy)]
pub struct StepOptions {
    /// Use `case` maps to memoise applications of opaque first-order
    /// functions (the paper's completeness device). Disabling this recovers
    /// the behaviour of the original SCPCF semantics; `tests/worked_example.rs`
    /// switches it off to show the spurious path the device removes.
    pub use_case_maps: bool,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions {
            use_case_maps: true,
        }
    }
}

/// Computes every successor of a state. An empty vector means the state is
/// final (an answer) or stuck.
pub fn step(prover: &Prover, state: &State, options: &StepOptions) -> Vec<State> {
    if state.is_final() {
        return Vec::new();
    }
    reduce(prover, &state.expr, &state.heap, options)
        .into_iter()
        .map(|(expr, heap)| State { expr, heap })
        .collect()
}

/// Reduces the leftmost-innermost redex of `expr` under call-by-value
/// evaluation contexts, returning all possible `(expression, heap)`
/// successors.
fn reduce(prover: &Prover, expr: &Expr, heap: &Heap, options: &StepOptions) -> Vec<(Expr, Heap)> {
    match expr {
        // Answers have no successors.
        Expr::Loc(_) | Expr::Err(_) => Vec::new(),
        // A free variable is a stuck state; well-typed closed programs never
        // reach it, so the path simply dies.
        Expr::Var(_) => Vec::new(),

        // [Opq] — allocate (reusing the label's location if already present).
        Expr::Opaque(ty, label) => {
            let mut heap = heap.clone();
            let loc = heap.alloc_opaque(ty.clone(), *label);
            vec![(Expr::Loc(loc), heap)]
        }

        // [Conc] — allocate concrete values.
        Expr::Num(n) => {
            let mut heap = heap.clone();
            let loc = heap.alloc(Storeable::Num(*n));
            vec![(Expr::Loc(loc), heap)]
        }
        Expr::Lam {
            param,
            param_ty,
            body,
        } => {
            let mut heap = heap.clone();
            let loc = heap.alloc(Storeable::Lam {
                param: param.clone(),
                param_ty: param_ty.clone(),
                body: (**body).clone(),
            });
            vec![(Expr::Loc(loc), heap)]
        }

        // Recursion unfolds by substituting the fixpoint for its own name.
        Expr::Fix { name, body, .. } => {
            vec![((**body).subst_expr(name, expr), heap.clone())]
        }

        // [IfTrue] / [IfFalse] — and congruence on the scrutinee.
        Expr::If(condition, then_branch, else_branch) => match condition.as_ref() {
            Expr::Err(blame) => vec![(Expr::Err(*blame), heap.clone())],
            Expr::Loc(loc) => branch_truth(prover, heap, *loc)
                .into_iter()
                .map(|(is_true, branch_heap)| {
                    let next = if is_true {
                        (**then_branch).clone()
                    } else {
                        (**else_branch).clone()
                    };
                    (next, branch_heap)
                })
                .collect(),
            _ => wrap(reduce(prover, condition, heap, options), |c| {
                Expr::If(Box::new(c), then_branch.clone(), else_branch.clone())
            }),
        },

        // [Prim] — evaluate arguments left to right, then apply δ.
        Expr::Prim(op, args, label) => {
            // Propagate an error from any argument position.
            if let Some(blame) = args.iter().find_map(|a| match a {
                Expr::Err(b) => Some(*b),
                _ => None,
            }) {
                return vec![(Expr::Err(blame), heap.clone())];
            }
            match args.iter().position(|a| !matches!(a, Expr::Loc(_))) {
                Some(index) => {
                    let successors = reduce(prover, &args[index], heap, options);
                    successors
                        .into_iter()
                        .map(|(arg, new_heap)| {
                            let mut new_args = args.clone();
                            new_args[index] = arg;
                            (Expr::Prim(*op, new_args, *label), new_heap)
                        })
                        .collect()
                }
                None => {
                    let locs: Vec<Loc> = args
                        .iter()
                        .map(|a| match a {
                            Expr::Loc(l) => *l,
                            _ => unreachable!("checked above"),
                        })
                        .collect();
                    delta(prover, heap, *op, &locs, *label)
                        .into_iter()
                        .map(|(outcome, new_heap)| {
                            let next = match outcome {
                                PrimOutcome::Value(loc) => Expr::Loc(loc),
                                PrimOutcome::Error(blame) => Expr::Err(blame),
                            };
                            (next, new_heap)
                        })
                        .collect()
                }
            }
        }

        // Application: evaluate the operator, then the operand, then apply.
        Expr::App(function, argument) => match function.as_ref() {
            Expr::Err(blame) => vec![(Expr::Err(*blame), heap.clone())],
            Expr::Loc(function_loc) => match argument.as_ref() {
                Expr::Err(blame) => vec![(Expr::Err(*blame), heap.clone())],
                Expr::Loc(argument_loc) => {
                    apply(prover, heap, *function_loc, *argument_loc, options)
                }
                _ => wrap(reduce(prover, argument, heap, options), |a| {
                    Expr::App(function.clone(), Box::new(a))
                }),
            },
            _ => wrap(reduce(prover, function, heap, options), |f| {
                Expr::App(Box::new(f), argument.clone())
            }),
        },
    }
}

/// Congruence: wraps each successor expression back into its context.
fn wrap<F>(successors: Vec<(Expr, Heap)>, rebuild: F) -> Vec<(Expr, Heap)>
where
    F: Fn(Expr) -> Expr,
{
    successors
        .into_iter()
        .map(|(expr, heap)| {
            // [Error] — an error discards its evaluation context.
            if let Expr::Err(blame) = expr {
                (Expr::Err(blame), heap)
            } else {
                (rebuild(expr), heap)
            }
        })
        .collect()
}

/// Application of the value at `function_loc` to the value at
/// `argument_loc`: rules `AppLam`, `AppOpq1`–`3`, `AppHavoc`, `AppCase1`–`2`.
fn apply(
    prover: &Prover,
    heap: &Heap,
    function_loc: Loc,
    argument_loc: Loc,
    options: &StepOptions,
) -> Vec<(Expr, Heap)> {
    let _ = prover;
    match heap.get(function_loc).clone() {
        // [AppLam]
        Storeable::Lam { param, body, .. } => {
            vec![(body.subst(&param, argument_loc), heap.clone())]
        }

        // Applying an opaque function.
        Storeable::Opaque {
            ty: Type::Arrow(domain, codomain),
            ..
        } => {
            let domain = *domain;
            let codomain = *codomain;
            if domain.is_base() {
                // [AppOpq1] — introduce a case map memoising this application.
                let mut new_heap = heap.clone();
                let result = new_heap.alloc_fresh_opaque(codomain.clone());
                if options.use_case_maps {
                    new_heap.set(
                        function_loc,
                        Storeable::Case {
                            result_ty: codomain,
                            entries: vec![(argument_loc, result)],
                        },
                    );
                }
                vec![(Expr::Loc(result), new_heap)]
            } else {
                // Behavioural argument: the unknown context may ignore it,
                // delay it, or explore it.
                let mut successors = Vec::new();

                // [AppOpq2] — constant function ignoring its argument.
                {
                    let mut new_heap = heap.clone();
                    let result = new_heap.alloc_fresh_opaque(codomain.clone());
                    new_heap.set(
                        function_loc,
                        Storeable::Lam {
                            param: "_ignored".to_string(),
                            param_ty: domain.clone(),
                            body: Expr::Loc(result),
                        },
                    );
                    successors.push((Expr::Loc(result), new_heap));
                }

                // [AppOpq3] — delay exploration inside a returned closure
                // (only possible when the codomain is itself a function).
                if let Some((result_domain, _)) = codomain.as_arrow() {
                    let mut new_heap = heap.clone();
                    let delayed =
                        new_heap.alloc_fresh_opaque(Type::arrow(domain.clone(), codomain.clone()));
                    // V = λy. ((L1 x) y)
                    let wrapper_body = Expr::lam(
                        "y",
                        result_domain.clone(),
                        Expr::app(
                            Expr::app(Expr::Loc(delayed), Expr::var("x")),
                            Expr::var("y"),
                        ),
                    );
                    new_heap.set(
                        function_loc,
                        Storeable::Lam {
                            param: "x".to_string(),
                            param_ty: domain.clone(),
                            body: wrapper_body,
                        },
                    );
                    // Result: [Lx/x] V
                    let result = Expr::lam(
                        "y",
                        result_domain.clone(),
                        Expr::app(
                            Expr::app(Expr::Loc(delayed), Expr::Loc(argument_loc)),
                            Expr::var("y"),
                        ),
                    );
                    successors.push((result, new_heap));
                }

                // [AppHavoc] — explore the argument's behaviour: apply it to a
                // fresh unknown and feed the result to another unknown context.
                {
                    let (argument_domain, argument_codomain) = domain
                        .as_arrow()
                        .map(|(d, c)| (d.clone(), c.clone()))
                        .expect("behavioural argument has an arrow type");
                    let mut new_heap = heap.clone();
                    let probe = new_heap.alloc_fresh_opaque(argument_domain);
                    let continuation = new_heap
                        .alloc_fresh_opaque(Type::arrow(argument_codomain, codomain.clone()));
                    new_heap.set(
                        function_loc,
                        Storeable::Lam {
                            param: "x".to_string(),
                            param_ty: domain.clone(),
                            body: Expr::app(
                                Expr::Loc(continuation),
                                Expr::app(Expr::var("x"), Expr::Loc(probe)),
                            ),
                        },
                    );
                    let result = Expr::app(
                        Expr::Loc(continuation),
                        Expr::app(Expr::Loc(argument_loc), Expr::Loc(probe)),
                    );
                    successors.push((result, new_heap));
                }

                successors
            }
        }

        // [AppCase1] / [AppCase2]
        Storeable::Case { result_ty, entries } => {
            if let Some((_, result)) = entries.iter().find(|(arg, _)| *arg == argument_loc) {
                vec![(Expr::Loc(*result), heap.clone())]
            } else {
                let mut new_heap = heap.clone();
                let result = new_heap.alloc_fresh_opaque(result_ty.clone());
                let mut new_entries = entries.clone();
                new_entries.push((argument_loc, result));
                new_heap.set(
                    function_loc,
                    Storeable::Case {
                        result_ty,
                        entries: new_entries,
                    },
                );
                vec![(Expr::Loc(result), new_heap)]
            }
        }

        // Applying a number or a base-typed opaque: stuck (ill-typed).
        Storeable::Num(_) | Storeable::Opaque { ty: Type::Int, .. } => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Label, Op};

    fn run_to_answers(program: Expr, limit: usize) -> Vec<State> {
        let prover = Prover::new();
        let options = StepOptions::default();
        let mut frontier = vec![State::initial(program)];
        let mut answers = Vec::new();
        let mut steps = 0;
        while let Some(state) = frontier.pop() {
            if state.is_final() {
                answers.push(state);
                continue;
            }
            steps += 1;
            assert!(steps < limit, "exceeded step limit");
            frontier.extend(step(&prover, &state, &options));
        }
        answers
    }

    #[test]
    fn literals_allocate_and_finish() {
        let answers = run_to_answers(Expr::Num(5), 10);
        assert_eq!(answers.len(), 1);
        match &answers[0].expr {
            Expr::Loc(l) => assert_eq!(answers[0].heap.num_at(*l), Some(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn beta_reduction_works() {
        // (λx. (+ x 1)) 41  ⟼*  42
        let program = Expr::app(
            Expr::lam(
                "x",
                Type::Int,
                Expr::Prim(Op::Add, vec![Expr::var("x"), Expr::Num(1)], Label(0)),
            ),
            Expr::Num(41),
        );
        let answers = run_to_answers(program, 100);
        assert_eq!(answers.len(), 1);
        match &answers[0].expr {
            Expr::Loc(l) => assert_eq!(answers[0].heap.num_at(*l), Some(42)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conditional_on_concrete_value() {
        let program = Expr::ite(Expr::Num(0), Expr::Num(1), Expr::Num(2));
        let answers = run_to_answers(program, 100);
        assert_eq!(answers.len(), 1);
        match &answers[0].expr {
            Expr::Loc(l) => assert_eq!(answers[0].heap.num_at(*l), Some(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conditional_on_opaque_value_branches() {
        let program = Expr::ite(
            Expr::Opaque(Type::Int, Label(1)),
            Expr::Num(1),
            Expr::Num(2),
        );
        let answers = run_to_answers(program, 100);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn division_error_discards_context() {
        // (+ 1 (div 1 0)) ⟼* err
        let program = Expr::Prim(
            Op::Add,
            vec![
                Expr::Num(1),
                Expr::Prim(Op::Div, vec![Expr::Num(1), Expr::Num(0)], Label(3)),
            ],
            Label(4),
        );
        let answers = run_to_answers(program, 100);
        assert_eq!(answers.len(), 1);
        match &answers[0].expr {
            Expr::Err(blame) => {
                assert_eq!(blame.label, Label(3));
                assert_eq!(blame.op, Op::Div);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opaque_first_order_application_installs_case_map() {
        // (• : int → int) 7
        let program = Expr::app(
            Expr::Opaque(Type::arrow(Type::Int, Type::Int), Label(1)),
            Expr::Num(7),
        );
        let prover = Prover::new();
        let options = StepOptions::default();
        let mut state = State::initial(program);
        let mut fuel = 20;
        while !state.is_final() {
            let successors = step(&prover, &state, &options);
            assert_eq!(successors.len(), 1);
            state = successors.into_iter().next().expect("one successor");
            fuel -= 1;
            assert!(fuel > 0);
        }
        let has_case = state
            .heap
            .iter()
            .any(|(_, s)| matches!(s, Storeable::Case { .. }));
        assert!(has_case, "heap should contain a case map");
    }

    #[test]
    fn opaque_higher_order_application_has_three_shapes() {
        // (• : (int → int) → int) (λx. x)
        let opaque_ty = Type::arrow(Type::arrow(Type::Int, Type::Int), Type::Int);
        let program = Expr::app(
            Expr::Opaque(opaque_ty, Label(1)),
            Expr::lam("x", Type::Int, Expr::var("x")),
        );
        let prover = Prover::new();
        let options = StepOptions::default();
        // Step until the application of the opaque function happens.
        let mut state = State::initial(program);
        loop {
            let successors = step(&prover, &state, &options);
            assert!(!successors.is_empty(), "should not be stuck");
            if successors.len() > 1 {
                // AppOpq2 (ignore) and AppHavoc (explore); AppOpq3 does not
                // apply because the codomain is base-typed.
                assert_eq!(successors.len(), 2);
                break;
            }
            state = successors.into_iter().next().expect("one successor");
        }
    }

    #[test]
    fn fix_unfolds() {
        // fix f. λn. if (zero? n) 0 (f (sub1 n))   applied to 3 evaluates to 0.
        let body = Expr::lam(
            "n",
            Type::Int,
            Expr::ite(
                Expr::Prim(Op::IsZero, vec![Expr::var("n")], Label(0)),
                Expr::Num(0),
                Expr::app(
                    Expr::var("f"),
                    Expr::Prim(Op::Sub1, vec![Expr::var("n")], Label(1)),
                ),
            ),
        );
        let program = Expr::app(
            Expr::fix("f", Type::arrow(Type::Int, Type::Int), body),
            Expr::Num(3),
        );
        let answers = run_to_answers(program, 1000);
        assert_eq!(answers.len(), 1);
        match &answers[0].expr {
            Expr::Loc(l) => assert_eq!(answers[0].heap.num_at(*l), Some(0)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
