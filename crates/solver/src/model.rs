//! Models: integer assignments produced by a satisfiability check.

use std::collections::BTreeMap;
use std::fmt;

use crate::formula::Formula;
use crate::term::{Term, Var};

/// A (partial) assignment of integer values to first-order variables.
///
/// A model returned by [`crate::solver::Solver::check`] assigns every
/// variable that occurs in the asserted formulas; variables the solver never
/// saw can be given a default with [`Model::value_or_zero`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<Var, i64>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// The value of `var`, if assigned.
    pub fn value(&self, var: Var) -> Option<i64> {
        self.values.get(&var).copied()
    }

    /// The value of `var`, defaulting to zero when unassigned.
    pub fn value_or_zero(&self, var: Var) -> i64 {
        self.value(var).unwrap_or(0)
    }

    /// Assigns a value to a variable, returning the previous value if any.
    pub fn assign(&mut self, var: Var, value: i64) -> Option<i64> {
        self.values.insert(var, value)
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no variables are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.values.iter().map(|(v, n)| (*v, *n))
    }

    /// Evaluates a term under this model (unassigned variables default to 0).
    pub fn eval_term(&self, term: &Term) -> Option<i64> {
        term.eval(&|v| Some(self.value_or_zero(v)))
    }

    /// Evaluates a formula under this model (unassigned variables default to 0).
    pub fn eval_formula(&self, formula: &Formula) -> Option<bool> {
        formula.eval(&|v| Some(self.value_or_zero(v)))
    }

    /// True if every formula in `formulas` evaluates to true under this model.
    pub fn satisfies_all(&self, formulas: &[Formula]) -> bool {
        formulas
            .iter()
            .all(|f| self.eval_formula(f).unwrap_or(false))
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (var, value) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{var} = {value}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Var, i64)> for Model {
    fn from_iter<I: IntoIterator<Item = (Var, i64)>>(iter: I) -> Self {
        Model {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Var, i64)> for Model {
    fn extend<I: IntoIterator<Item = (Var, i64)>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    #[test]
    fn model_evaluates_formulas() {
        let model: Model = vec![(Var::new(0), 100), (Var::new(1), 0)]
            .into_iter()
            .collect();
        let f = Formula::eq(
            Term::var(Var::new(1)),
            Term::sub(Term::int(100), Term::var(Var::new(0))),
        );
        assert_eq!(model.eval_formula(&f), Some(true));
        assert!(model.satisfies_all(&[f]));
    }

    #[test]
    fn unassigned_variables_default_to_zero() {
        let model = Model::new();
        assert_eq!(model.value(Var::new(9)), None);
        assert_eq!(model.value_or_zero(Var::new(9)), 0);
        assert_eq!(model.eval_term(&Term::var(Var::new(9))), Some(0));
    }

    #[test]
    fn display_lists_assignments() {
        let model: Model = vec![(Var::new(2), -3)].into_iter().collect();
        assert_eq!(model.to_string(), "{x2 = -3}");
    }
}
