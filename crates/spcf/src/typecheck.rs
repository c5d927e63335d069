//! A simple type checker for SPCF.
//!
//! The paper omits the (standard) typing rules and assumes programs are
//! well-typed; we implement them so that ill-formed inputs are rejected
//! before symbolic execution rather than getting stuck mid-run.

use std::collections::HashMap;
use std::fmt;

use crate::syntax::{Expr, Op};
use crate::types::Type;

/// A type error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A variable is not in scope.
    UnboundVariable(String),
    /// Two types that should match do not.
    Mismatch {
        /// What the context required.
        expected: Type,
        /// What the expression actually has.
        found: Type,
        /// Human-readable context.
        context: String,
    },
    /// A non-function was applied.
    NotAFunction(Type),
    /// A primitive was applied to the wrong number of arguments.
    Arity {
        /// The primitive.
        op: Op,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        found: usize,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeError::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            TypeError::NotAFunction(t) => write!(f, "cannot apply a value of type {t}"),
            TypeError::Arity {
                op,
                expected,
                found,
            } => {
                write!(f, "`{op}` expects {expected} argument(s), got {found}")
            }
        }
    }
}

impl std::error::Error for TypeError {}

/// Infers the type of a closed expression.
///
/// # Errors
///
/// Returns a [`TypeError`] describing the first problem found.
pub fn type_of(expr: &Expr) -> Result<Type, TypeError> {
    check(expr, &mut HashMap::new())
}

/// Checks that an expression is well-typed (at any type).
///
/// # Errors
///
/// Returns a [`TypeError`] describing the first problem found.
pub fn check_program(expr: &Expr) -> Result<(), TypeError> {
    type_of(expr).map(|_| ())
}

fn check(expr: &Expr, env: &mut HashMap<String, Vec<Type>>) -> Result<Type, TypeError> {
    match expr {
        Expr::Var(x) => env
            .get(x)
            .and_then(|stack| stack.last().cloned())
            .ok_or_else(|| TypeError::UnboundVariable(x.clone())),
        Expr::Num(_) => Ok(Type::Int),
        Expr::Opaque(ty, _) => Ok(ty.clone()),
        Expr::Lam {
            param,
            param_ty,
            body,
        } => {
            env.entry(param.clone()).or_default().push(param_ty.clone());
            let body_ty = check(body, env);
            env.get_mut(param).map(Vec::pop);
            Ok(Type::arrow(param_ty.clone(), body_ty?))
        }
        Expr::Fix { name, ty, body } => {
            env.entry(name.clone()).or_default().push(ty.clone());
            let body_ty = check(body, env);
            env.get_mut(name).map(Vec::pop);
            let body_ty = body_ty?;
            if &body_ty == ty {
                Ok(body_ty)
            } else {
                Err(TypeError::Mismatch {
                    expected: ty.clone(),
                    found: body_ty,
                    context: format!("fix {name}"),
                })
            }
        }
        Expr::App(f, a) => {
            let f_ty = check(f, env)?;
            let a_ty = check(a, env)?;
            match f_ty {
                Type::Arrow(dom, cod) => {
                    if *dom == a_ty {
                        Ok(*cod)
                    } else {
                        Err(TypeError::Mismatch {
                            expected: *dom,
                            found: a_ty,
                            context: "application argument".to_string(),
                        })
                    }
                }
                other => Err(TypeError::NotAFunction(other)),
            }
        }
        Expr::If(c, t, e) => {
            let c_ty = check(c, env)?;
            if c_ty != Type::Int {
                return Err(TypeError::Mismatch {
                    expected: Type::Int,
                    found: c_ty,
                    context: "if condition".to_string(),
                });
            }
            let t_ty = check(t, env)?;
            let e_ty = check(e, env)?;
            if t_ty == e_ty {
                Ok(t_ty)
            } else {
                Err(TypeError::Mismatch {
                    expected: t_ty,
                    found: e_ty,
                    context: "if branches".to_string(),
                })
            }
        }
        Expr::Prim(op, args, _) => {
            if args.len() != op.arity() {
                return Err(TypeError::Arity {
                    op: *op,
                    expected: op.arity(),
                    found: args.len(),
                });
            }
            for arg in args {
                let arg_ty = check(arg, env)?;
                if arg_ty != Type::Int {
                    return Err(TypeError::Mismatch {
                        expected: Type::Int,
                        found: arg_ty,
                        context: format!("argument of {op}"),
                    });
                }
            }
            Ok(Type::Int)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::Label;

    #[test]
    fn identity_function_types() {
        let id = Expr::lam("x", Type::Int, Expr::var("x"));
        assert_eq!(type_of(&id), Ok(Type::arrow(Type::Int, Type::Int)));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        assert_eq!(
            type_of(&Expr::var("ghost")),
            Err(TypeError::UnboundVariable("ghost".to_string()))
        );
    }

    #[test]
    fn shadowing_is_handled() {
        // λ(x:int). (λ(x:int→int). x) — inner x shadows outer.
        let inner = Expr::lam("x", Type::arrow(Type::Int, Type::Int), Expr::var("x"));
        let outer = Expr::lam("x", Type::Int, inner);
        let ty = type_of(&outer).expect("types");
        assert_eq!(
            ty,
            Type::arrow(
                Type::Int,
                Type::arrow(
                    Type::arrow(Type::Int, Type::Int),
                    Type::arrow(Type::Int, Type::Int)
                )
            )
        );
    }

    #[test]
    fn application_type_mismatch_is_rejected() {
        let bad = Expr::app(
            Expr::lam("x", Type::Int, Expr::var("x")),
            Expr::lam("y", Type::Int, Expr::var("y")),
        );
        assert!(matches!(type_of(&bad), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn applying_a_number_is_rejected() {
        let bad = Expr::app(Expr::Num(3), Expr::Num(4));
        assert!(matches!(type_of(&bad), Err(TypeError::NotAFunction(_))));
    }

    #[test]
    fn branches_must_agree() {
        let bad = Expr::ite(
            Expr::Num(1),
            Expr::Num(2),
            Expr::lam("x", Type::Int, Expr::var("x")),
        );
        assert!(matches!(type_of(&bad), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn prim_arity_is_checked() {
        let bad = Expr::Prim(Op::Add, vec![Expr::Num(1)], Label(0));
        assert!(matches!(type_of(&bad), Err(TypeError::Arity { .. })));
    }

    #[test]
    fn opaque_values_have_their_annotation() {
        let ty = Type::arrow(Type::arrow(Type::Int, Type::Int), Type::Int);
        let e = Expr::Opaque(ty.clone(), Label(0));
        assert_eq!(type_of(&e), Ok(ty));
    }

    #[test]
    fn fix_requires_matching_body_type() {
        let good = Expr::fix(
            "f",
            Type::arrow(Type::Int, Type::Int),
            Expr::lam("x", Type::Int, Expr::app(Expr::var("f"), Expr::var("x"))),
        );
        assert!(type_of(&good).is_ok());
        let bad = Expr::fix("f", Type::Int, Expr::lam("x", Type::Int, Expr::var("x")));
        assert!(matches!(type_of(&bad), Err(TypeError::Mismatch { .. })));
    }
}
