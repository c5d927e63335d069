//! Abstract syntax of Symbolic PCF.
//!
//! The expression language follows Figure 1 of the paper: PCF (variables,
//! integer literals, λ-abstractions, application, conditionals, primitive
//! applications, recursion) extended with opaque values `•ᵀ`. Source
//! locations that can fail (primitive applications) and opaque values carry
//! unique [`Label`]s, which is what blame and counterexample reporting refer
//! back to.

use std::fmt;

use crate::types::Type;

/// A source label, identifying either an opaque value's source position or a
/// primitive application that can fail (a blame target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// Primitive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `zero?` — 1 if the argument is 0, else 0.
    IsZero,
    /// `add1` — successor.
    Add1,
    /// `sub1` — predecessor.
    Sub1,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division; errors when the divisor is zero.
    Div,
    /// Remainder; errors when the divisor is zero.
    Mod,
    /// Equality test (1 / 0).
    Eq,
    /// Less-than test.
    Lt,
    /// Less-or-equal test.
    Le,
    /// Greater-than test.
    Gt,
    /// Greater-or-equal test.
    Ge,
    /// Boolean negation on 0/1-encoded booleans.
    Not,
    /// `assert` — errors when the argument is 0, otherwise returns it.
    Assert,
}

impl Op {
    /// The number of arguments the operation takes.
    pub fn arity(self) -> usize {
        match self {
            Op::IsZero | Op::Add1 | Op::Sub1 | Op::Not | Op::Assert => 1,
            _ => 2,
        }
    }

    /// True if the operation can fail (and therefore carries blame).
    pub fn is_partial(self) -> bool {
        matches!(self, Op::Div | Op::Mod | Op::Assert)
    }

    /// The surface-syntax name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            Op::IsZero => "zero?",
            Op::Add1 => "add1",
            Op::Sub1 => "sub1",
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "div",
            Op::Mod => "mod",
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Not => "not",
            Op::Assert => "assert",
        }
    }

    /// Parses an operation from its surface name.
    pub fn from_name(name: &str) -> Option<Op> {
        Some(match name {
            "zero?" => Op::IsZero,
            "add1" => Op::Add1,
            "sub1" => Op::Sub1,
            "+" => Op::Add,
            "-" => Op::Sub,
            "*" => Op::Mul,
            "div" | "/" | "quotient" => Op::Div,
            "mod" | "modulo" | "remainder" => Op::Mod,
            "=" => Op::Eq,
            "<" => Op::Lt,
            "<=" => Op::Le,
            ">" => Op::Gt,
            ">=" => Op::Ge,
            "not" => Op::Not,
            "assert" => Op::Assert,
            _ => return None,
        })
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Expressions of Symbolic PCF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A variable.
    Var(String),
    /// An integer literal.
    Num(i64),
    /// `λ(x : T). e`
    Lam {
        /// Bound variable name.
        param: String,
        /// Type of the bound variable.
        param_ty: Type,
        /// Function body.
        body: Box<Expr>,
    },
    /// Application `e₁ e₂`.
    App(Box<Expr>, Box<Expr>),
    /// Conditional `if e₁ e₂ e₃` (0 is false, non-zero is true).
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Primitive application `(O e…)ᴸ` with a blame label.
    Prim(Op, Vec<Expr>, Label),
    /// An opaque (unknown) value `•ᵀ` with its source label.
    Opaque(Type, Label),
    /// Recursion `fix (f : T). e` — unfolds to `[fix (f:T). e / f] e`.
    Fix {
        /// Name bound to the recursive value.
        name: String,
        /// Type of the recursive value.
        ty: Type,
        /// Body.
        body: Box<Expr>,
    },
}

impl Expr {
    /// `λ(x : T). e`
    pub fn lam(param: impl Into<String>, param_ty: Type, body: Expr) -> Expr {
        Expr::Lam {
            param: param.into(),
            param_ty,
            body: Box::new(body),
        }
    }

    /// Application.
    pub fn app(f: Expr, a: Expr) -> Expr {
        Expr::App(Box::new(f), Box::new(a))
    }

    /// Conditional.
    pub fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Box::new(c), Box::new(t), Box::new(e))
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Recursion.
    pub fn fix(name: impl Into<String>, ty: Type, body: Expr) -> Expr {
        Expr::Fix {
            name: name.into(),
            ty,
            body: Box::new(body),
        }
    }

    /// `let x = e₁ in e₂`, desugared to `(λx. e₂) e₁`.
    pub fn let_in(name: impl Into<String>, ty: Type, bound: Expr, body: Expr) -> Expr {
        Expr::app(Expr::lam(name, ty, body), bound)
    }

    /// Collects the labels of all opaque sub-expressions (with their types).
    pub fn opaque_labels(&self) -> Vec<(Label, Type)> {
        let mut out = Vec::new();
        self.collect_opaques(&mut out);
        out
    }

    fn collect_opaques(&self, out: &mut Vec<(Label, Type)>) {
        match self {
            Expr::Opaque(ty, label) => {
                if !out.iter().any(|(l, _)| l == label) {
                    out.push((*label, ty.clone()));
                }
            }
            Expr::Var(_) | Expr::Num(_) => {}
            Expr::Lam { body, .. } | Expr::Fix { body, .. } => body.collect_opaques(out),
            Expr::App(f, a) => {
                f.collect_opaques(out);
                a.collect_opaques(out);
            }
            Expr::If(c, t, e) => {
                c.collect_opaques(out);
                t.collect_opaques(out);
                e.collect_opaques(out);
            }
            Expr::Prim(_, args, _) => {
                for a in args {
                    a.collect_opaques(out);
                }
            }
        }
    }

    /// The labels of the known program portion: every primitive-application
    /// label occurring syntactically in the expression (cf. the paper's
    /// `lab` metafunction, Fig. 6).
    pub fn known_labels(&self) -> Vec<Label> {
        let mut out = Vec::new();
        self.collect_known_labels(&mut out);
        out
    }

    fn collect_known_labels(&self, out: &mut Vec<Label>) {
        match self {
            Expr::Prim(_, args, label) => {
                if !out.contains(label) {
                    out.push(*label);
                }
                for a in args {
                    a.collect_known_labels(out);
                }
            }
            Expr::Var(_) | Expr::Num(_) | Expr::Opaque(_, _) => {}
            Expr::Lam { body, .. } | Expr::Fix { body, .. } => body.collect_known_labels(out),
            Expr::App(f, a) => {
                f.collect_known_labels(out);
                a.collect_known_labels(out);
            }
            Expr::If(c, t, e) => {
                c.collect_known_labels(out);
                t.collect_known_labels(out);
                e.collect_known_labels(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_label(n: u32) -> Label {
        Label(n)
    }

    #[test]
    fn opaque_labels_are_collected_once() {
        let e = Expr::app(
            Expr::Opaque(Type::arrow(Type::Int, Type::Int), sample_label(1)),
            Expr::Prim(
                Op::Add,
                vec![
                    Expr::Opaque(Type::Int, sample_label(2)),
                    Expr::Opaque(Type::Int, sample_label(2)),
                ],
                sample_label(3),
            ),
        );
        let labels = e.opaque_labels();
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn known_labels_cover_prim_sites() {
        let e = Expr::Prim(
            Op::Div,
            vec![
                Expr::Num(1),
                Expr::Prim(
                    Op::Sub,
                    vec![Expr::Num(100), Expr::var("n")],
                    sample_label(7),
                ),
            ],
            sample_label(8),
        );
        let labels = e.known_labels();
        assert!(labels.contains(&sample_label(7)));
        assert!(labels.contains(&sample_label(8)));
    }

    #[test]
    fn op_names_round_trip() {
        for op in [
            Op::IsZero,
            Op::Add1,
            Op::Sub1,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Mod,
            Op::Eq,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::Not,
            Op::Assert,
        ] {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        assert_eq!(Op::from_name("frobnicate"), None);
    }

    #[test]
    fn arity_and_partiality() {
        assert_eq!(Op::IsZero.arity(), 1);
        assert_eq!(Op::Div.arity(), 2);
        assert!(Op::Div.is_partial());
        assert!(Op::Assert.is_partial());
        assert!(!Op::Add.is_partial());
    }
}
