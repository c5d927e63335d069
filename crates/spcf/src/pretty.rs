//! Pretty-printing of expressions in the s-expression surface syntax.

use std::fmt;

use crate::syntax::Expr;

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Lam {
                param,
                param_ty,
                body,
            } => {
                write!(f, "(lambda ({param} : {param_ty}) {body})")
            }
            Expr::App(function, argument) => write!(f, "({function} {argument})"),
            Expr::If(c, t, e) => write!(f, "(if {c} {t} {e})"),
            Expr::Prim(op, args, _) => {
                write!(f, "({op}")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            Expr::Opaque(ty, label) => write!(f, "(• {ty} #{})", label.0),
            Expr::Fix { name, ty, body } => write!(f, "(fix ({name} : {ty}) {body})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Label, Op};
    use crate::types::Type;

    #[test]
    fn expressions_print_as_sexprs() {
        let e = Expr::app(
            Expr::lam(
                "x",
                Type::Int,
                Expr::Prim(Op::Add, vec![Expr::var("x"), Expr::Num(1)], Label(0)),
            ),
            Expr::Num(41),
        );
        assert_eq!(e.to_string(), "((lambda (x : int) (+ x 1)) 41)");
    }

    #[test]
    fn opaque_and_fix_print() {
        let e = Expr::Opaque(Type::arrow(Type::Int, Type::Int), Label(3));
        assert_eq!(e.to_string(), "(• (-> int int) #3)");
        let f = Expr::fix("f", Type::Int, Expr::Num(0));
        assert_eq!(f.to_string(), "(fix (f : int) 0)");
    }
}
