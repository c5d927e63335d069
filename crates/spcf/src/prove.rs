//! The proof relation `Σ ⊢ L : P` (Fig. 5), backed by the first-order solver.
//!
//! A query translates the heap to a formula `φ` and the judgement `L : P` to
//! a formula `ψ`; validity of `φ ⇒ ψ` means *proved*, unsatisfiability of
//! `φ ∧ ψ` means *refuted*, anything else is *ambiguous*. Precision of the
//! symbolic execution — how few spurious branches it explores — depends
//! entirely on this relation; soundness does not.

use folic::{Formula, Model, SmtResult, Solver, SolverConfig};

use crate::heap::{Heap, Loc, Refinement};
use crate::translate::{translate_heap, translate_refinement, Translation};

pub use folic::Proof;

/// A prover bundling the solver configuration; cheap to copy around the
/// engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prover {
    /// The solver configuration used for every query.
    pub config: SolverConfig,
}

impl Prover {
    /// Creates a prover with default configuration.
    pub fn new() -> Self {
        Prover::default()
    }

    /// Decides whether the value at `loc` satisfies `refinement` under the
    /// assumptions recorded in `heap`.
    pub fn prove(&self, heap: &Heap, loc: Loc, refinement: &Refinement) -> Proof {
        let mut translation = translate_heap(heap);
        let goal = translate_refinement(loc, refinement, &mut translation);
        self.prove_goal(&translation, &goal)
    }

    /// Decides an arbitrary goal formula under the heap's translation plus
    /// any auxiliary constraints already in `translation`.
    pub fn prove_goal(&self, translation: &Translation, goal: &Formula) -> Proof {
        let mut solver = Solver::with_config(self.config);
        for formula in &translation.formulas {
            solver.assert(formula.clone());
        }
        solver.prove(goal)
    }

    /// Produces a model of the heap's constraints, if one exists. This is the
    /// step that turns an error state's path condition into concrete base
    /// values for the counterexample.
    pub fn heap_model(&self, heap: &Heap) -> SmtResult {
        let translation = translate_heap(heap);
        let mut solver = Solver::with_config(self.config);
        for formula in &translation.formulas {
            solver.assert(formula.clone());
        }
        solver.check()
    }

    /// Convenience: the model of the heap, or `None` when unsatisfiable or
    /// undecided.
    pub fn heap_model_opt(&self, heap: &Heap) -> Option<Model> {
        match self.heap_model(heap) {
            SmtResult::Sat(model) => Some(model),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{Refinement, Storeable, SymExpr};
    use crate::types::Type;
    use folic::CmpOp;

    #[test]
    fn concrete_values_are_decided() {
        let mut heap = Heap::new();
        let l = heap.alloc(Storeable::Num(0));
        let prover = Prover::new();
        assert_eq!(prover.prove(&heap, l, &Refinement::zero()), Proof::Proved);
        assert_eq!(
            prover.prove(&heap, l, &Refinement::non_zero()),
            Proof::Refuted
        );
    }

    #[test]
    fn unconstrained_opaque_is_ambiguous() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque(Type::Int);
        let prover = Prover::new();
        assert_eq!(
            prover.prove(&heap, l, &Refinement::zero()),
            Proof::Ambiguous
        );
    }

    #[test]
    fn refinements_inform_the_proof() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque(Type::Int);
        heap.refine(l, Refinement::new(CmpOp::Ge, SymExpr::int(1)));
        let prover = Prover::new();
        assert_eq!(
            prover.prove(&heap, l, &Refinement::non_zero()),
            Proof::Proved
        );
        assert_eq!(prover.prove(&heap, l, &Refinement::zero()), Proof::Refuted);
    }

    #[test]
    fn heap_model_reflects_constraints() {
        let mut heap = Heap::new();
        let l4 = heap.alloc_fresh_opaque(Type::Int);
        let l5 = heap.alloc_fresh_opaque(Type::Int);
        heap.refine(
            l5,
            Refinement::new(
                CmpOp::Eq,
                SymExpr::Sub(Box::new(SymExpr::int(100)), Box::new(SymExpr::loc(l4))),
            ),
        );
        heap.refine(l5, Refinement::zero());
        let prover = Prover::new();
        let model = prover.heap_model_opt(&heap).expect("satisfiable heap");
        assert_eq!(model.value(l4.solver_var()), Some(100));
    }

    #[test]
    fn contradictory_heap_has_no_model() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque(Type::Int);
        heap.refine(l, Refinement::zero());
        heap.refine(l, Refinement::non_zero());
        let prover = Prover::new();
        assert!(prover.heap_model_opt(&heap).is_none());
    }
}
