//! Synthesis of the most general unknown context for an export.

use crate::syntax::{Expr, Label, Module, Provide};

/// The synthesized most-general-context expression for an export, along with
/// the opaque labels it introduces.
pub(super) fn context_expression(
    module: &Module,
    provide: &Provide,
    depth: u32,
    next_label: &mut u32,
) -> Expr {
    let mut fresh = || {
        let label = Label(*next_label);
        *next_label += 1;
        label
    };
    let mut expr = Expr::Mon {
        contract: Box::new(provide.contract.clone()),
        value: Box::new(Expr::var(&provide.name)),
        pos: module.name.clone(),
        neg: super::CONTEXT_PARTY.to_string(),
        label: fresh(),
    };
    let mut contract = &provide.contract;
    let mut remaining = depth;
    while remaining > 0 {
        match contract {
            Expr::CArrow(doms, rng) => {
                let args: Vec<Expr> = doms.iter().map(|_| Expr::Opaque(fresh())).collect();
                expr = Expr::app(expr, args);
                contract = rng;
                remaining -= 1;
            }
            Expr::CAnd(parts) => {
                // Use the first arrow conjunct, if any, to drive the context.
                match parts.iter().find(|p| matches!(p, Expr::CArrow(_, _))) {
                    Some(arrow) => contract = arrow,
                    None => break,
                }
            }
            _ => break,
        }
    }
    expr
}
