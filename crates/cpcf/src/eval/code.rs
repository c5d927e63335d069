//! Evaluator code: an [`Expr`] compiled once into reference-counted nodes.
//!
//! Machine states, continuation frames and closures all point into code
//! that outlives the step that created them. Sharing the nodes makes each
//! such pointer one reference-count increment, where the expression tree
//! would have to be deep-copied: a closure used to copy its whole body at
//! every application.

use std::fmt;
use std::rc::Rc;

use crate::heap::{ContractVal, SVal};
use crate::numeric::Number;
use crate::syntax::{Expr, Label, Prim};

/// Compiled evaluator code. Two handles are equal when they share one node.
#[derive(Clone)]
pub struct Code(pub(super) Rc<Node>);

impl fmt::Debug for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<code>")
    }
}

impl PartialEq for Code {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

/// One compiled node.
pub(super) enum Node {
    /// A literal (a fresh location holding it on every evaluation).
    Const(SVal),
    /// `(opaque)`.
    Opaque(Label),
    /// A variable reference.
    Var(String),
    /// A lambda.
    Lam(Vec<String>, Code),
    /// `(if c t e)`.
    If(Code, Code, Code),
    /// Short-circuiting `and`, or `or` when the flag is false.
    Junction(bool, Rc<[Code]>),
    /// Every other form: evaluate the operands left to right, then act.
    Op(Rc<Operation>),
}

/// A form that evaluates all of its operands before doing anything else.
pub(super) struct Operation {
    pub(super) op: Op,
    pub(super) operands: Vec<Code>,
}

/// What an [`Operation`] does with its operands' values.
pub(super) enum Op {
    /// Apply the first value to the rest.
    App,
    /// `begin`: the last value (`'()` when there is none).
    Begin,
    /// A primitive.
    Prim(Prim, Label),
    /// A struct constructor.
    StructMake(String),
    /// A struct predicate.
    StructPred(String),
    /// A struct accessor.
    StructGet(String, usize, Label),
    /// `(-> dom … rng)`: the last value is the range.
    Arrow,
    /// `and/c`.
    AndC,
    /// `or/c`.
    OrC,
    /// `cons/c`.
    ConsC,
    /// `listof`.
    ListOfC,
    /// `one-of/c`.
    OneOfC,
    /// A monitor: the values are the contract and the monitored value.
    Mon {
        pos: Rc<str>,
        neg: Rc<str>,
        label: Label,
    },
    /// `let`/`letrec`: the operands are the right-hand sides.
    Let {
        names: Vec<String>,
        recursive: bool,
        body: Code,
    },
}

impl Code {
    /// Compiles an expression.
    pub(crate) fn compile(expr: &Expr) -> Code {
        let list = |exprs: &[Expr]| exprs.iter().map(Code::compile).collect::<Vec<_>>();
        let op = |op, operands| Node::Op(Rc::new(Operation { op, operands }));
        let node = match expr {
            Expr::Int(n) => Node::Const(SVal::Num(Number::Int(*n))),
            Expr::Complex(re, im) => Node::Const(SVal::Num(Number::complex(*re, *im))),
            Expr::Bool(b) => Node::Const(SVal::Bool(*b)),
            Expr::Str(s) => Node::Const(SVal::Str(s.clone())),
            Expr::Nil => Node::Const(SVal::Nil),
            Expr::CAny => Node::Const(SVal::Contract(ContractVal::Any)),
            Expr::Opaque(label) => Node::Opaque(*label),
            Expr::Var(name) => Node::Var(name.clone()),
            Expr::Lam { params, body } => Node::Lam(params.clone(), Code::compile(body)),
            Expr::If(c, t, e) => Node::If(Code::compile(c), Code::compile(t), Code::compile(e)),
            Expr::And(parts) => Node::Junction(true, list(parts).into()),
            Expr::Or(parts) => Node::Junction(false, list(parts).into()),
            Expr::Begin(parts) => op(Op::Begin, list(parts)),
            Expr::Let {
                bindings,
                recursive,
                body,
            } => op(
                Op::Let {
                    names: bindings.iter().map(|(name, _)| name.clone()).collect(),
                    recursive: *recursive,
                    body: Code::compile(body),
                },
                bindings.iter().map(|(_, e)| Code::compile(e)).collect(),
            ),
            Expr::App(function, args) => op(
                Op::App,
                std::iter::once(&**function)
                    .chain(args)
                    .map(Code::compile)
                    .collect(),
            ),
            Expr::Prim(prim, args, label) => op(Op::Prim(*prim, *label), list(args)),
            Expr::StructMake(name, args) => op(Op::StructMake(name.clone()), list(args)),
            Expr::StructPred(name, inner) => {
                op(Op::StructPred(name.clone()), vec![Code::compile(inner)])
            }
            Expr::StructGet(name, index, inner, label) => op(
                Op::StructGet(name.clone(), *index, *label),
                vec![Code::compile(inner)],
            ),
            Expr::CArrow(doms, rng) => op(
                Op::Arrow,
                doms.iter()
                    .chain(std::iter::once(&**rng))
                    .map(Code::compile)
                    .collect(),
            ),
            Expr::CAnd(parts) => op(Op::AndC, list(parts)),
            Expr::COr(parts) => op(Op::OrC, list(parts)),
            Expr::CCons(car, cdr) => op(Op::ConsC, vec![Code::compile(car), Code::compile(cdr)]),
            Expr::CListOf(element) => op(Op::ListOfC, vec![Code::compile(element)]),
            Expr::COneOf(parts) => op(Op::OneOfC, list(parts)),
            Expr::Mon {
                contract,
                value,
                pos,
                neg,
                label,
            } => op(
                Op::Mon {
                    pos: pos.as_str().into(),
                    neg: neg.as_str().into(),
                    label: *label,
                },
                vec![Code::compile(contract), Code::compile(value)],
            ),
        };
        Code(Rc::new(node))
    }
}
