//! Normalisation of terms into linear expressions.
//!
//! The theory solver works on linear integer expressions `Σ aᵢ·xᵢ + c`.
//! Products of two non-constant subterms cannot be represented linearly;
//! they are reported back to the caller (the LIA solver handles them with a
//! dedicated product constraint).
//!
//! A [`LinExpr`] stores its terms as a vector sorted by variable, with zero
//! coefficients elided. Path-condition atoms have one to three terms, so a
//! sum, a difference or a scaling is a single merge pass over two short
//! slices and one allocation, and iteration is in variable order.

use std::cmp::Ordering;
use std::fmt;

use crate::term::{Term, Var};

/// A linear integer expression `Σ aᵢ·xᵢ + constant` with `i64` coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Non-zero coefficients, sorted by variable, each variable once.
    terms: Vec<(Var, i64)>,
    /// The constant offset.
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression `1·v`.
    pub fn variable(v: Var) -> Self {
        LinExpr {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, i64)> + '_ {
        self.terms.iter().copied()
    }

    /// The coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: Var) -> i64 {
        match self.position(v) {
            Ok(index) => self.terms[index].1,
            Err(_) => 0,
        }
    }

    /// Number of variables with non-zero coefficient.
    pub fn num_vars(&self) -> usize {
        self.terms.len()
    }

    /// True if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// If the expression is constant, its value.
    pub fn as_constant(&self) -> Option<i64> {
        if self.is_constant() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Adds `coeff·v` to the expression in place. Returns `None` on overflow,
    /// leaving the expression unchanged.
    pub fn add_term(&mut self, v: Var, coeff: i64) -> Option<()> {
        match self.position(v) {
            Ok(index) => {
                let sum = self.terms[index].1.checked_add(coeff)?;
                if sum == 0 {
                    self.terms.remove(index);
                } else {
                    self.terms[index].1 = sum;
                }
            }
            Err(index) if coeff != 0 => self.terms.insert(index, (v, coeff)),
            Err(_) => {}
        }
        Some(())
    }

    /// Adds a constant in place. Returns `None` on overflow.
    pub fn add_constant(&mut self, c: i64) -> Option<()> {
        self.constant = self.constant.checked_add(c)?;
        Some(())
    }

    /// `self + other`, or `None` on overflow.
    pub fn checked_add(&self, other: &LinExpr) -> Option<LinExpr> {
        self.merge(other, 1)
    }

    /// `self - other`, or `None` on overflow — including when `other` has a
    /// coefficient or constant of `i64::MIN`, whose negation overflows even
    /// where the difference would fit.
    pub fn checked_sub(&self, other: &LinExpr) -> Option<LinExpr> {
        self.merge(other, -1)
    }

    /// `self + sign·other` in one merge pass over the sorted terms, where
    /// `sign` is `1` or `-1`. Every coefficient of `other` is scaled by
    /// `sign` with overflow checking before it is added.
    fn merge(&self, other: &LinExpr, sign: i64) -> Option<LinExpr> {
        let (ours, theirs) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(ours.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while i < ours.len() && j < theirs.len() {
            let (va, ca) = ours[i];
            let (vb, cb) = theirs[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    terms.push((va, ca));
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push((vb, cb.checked_mul(sign)?));
                    j += 1;
                }
                Ordering::Equal => {
                    let sum = ca.checked_add(cb.checked_mul(sign)?)?;
                    if sum != 0 {
                        terms.push((va, sum));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&ours[i..]);
        for &(vb, cb) in &theirs[j..] {
            terms.push((vb, cb.checked_mul(sign)?));
        }
        Some(LinExpr {
            terms,
            constant: self
                .constant
                .checked_add(other.constant.checked_mul(sign)?)?,
        })
    }

    /// `k·self`, or `None` on overflow.
    pub fn checked_scale(&self, k: i64) -> Option<LinExpr> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            let scaled = c.checked_mul(k)?;
            if scaled != 0 {
                terms.push((v, scaled));
            }
        }
        Some(LinExpr {
            terms,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// Evaluates the expression under an assignment; `None` if a variable is
    /// missing or the arithmetic overflows.
    pub fn eval<F>(&self, assignment: &F) -> Option<i64>
    where
        F: Fn(Var) -> Option<i64>,
    {
        let mut total = self.constant;
        for (v, c) in self.iter() {
            let value = assignment(v)?;
            total = total.checked_add(c.checked_mul(value)?)?;
        }
        Some(total)
    }

    /// The set of variables mentioned by the expression, in order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Where `v` sits in the sorted terms (`Err`: where it would go).
    fn position(&self, v: Var) -> Result<usize, usize> {
        self.terms.binary_search_by(|&(var, _)| var.cmp(&v))
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                write!(f, "{c}*{v}")?;
                first = false;
            } else if c >= 0 {
                write!(f, " + {c}*{v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)
        } else {
            Ok(())
        }
    }
}

/// The result of linearising a term: either a linear expression, or a linear
/// expression plus product sub-terms `target = a·b` that could not be folded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Linearised {
    /// The term is linear.
    Linear(LinExpr),
    /// The term contains a genuine (non-constant × non-constant) product.
    NonLinear,
}

/// Attempts to normalise a [`Term`] into a [`LinExpr`].
///
/// Products are folded when at least one side reduces to a constant;
/// otherwise `Linearised::NonLinear` is returned and the caller must
/// introduce a product constraint.
pub fn linearise(term: &Term) -> Linearised {
    match linearise_inner(term) {
        Some(Some(e)) => Linearised::Linear(e),
        _ => Linearised::NonLinear,
    }
}

/// `None` = overflow, `Some(None)` = non-linear, `Some(Some(e))` = linear.
fn linearise_inner(term: &Term) -> Option<Option<LinExpr>> {
    match term {
        Term::Int(n) => Some(Some(LinExpr::constant(*n))),
        Term::Var(v) => Some(Some(LinExpr::variable(*v))),
        Term::Add(a, b) => match (linearise_inner(a)?, linearise_inner(b)?) {
            (Some(a), Some(b)) => a.checked_add(&b).map(Some),
            _ => Some(None),
        },
        Term::Sub(a, b) => match (linearise_inner(a)?, linearise_inner(b)?) {
            (Some(a), Some(b)) => a.checked_sub(&b).map(Some),
            _ => Some(None),
        },
        Term::Neg(a) => match linearise_inner(a)? {
            Some(a) => a.checked_scale(-1).map(Some),
            None => Some(None),
        },
        Term::Mul(a, b) => match (linearise_inner(a)?, linearise_inner(b)?) {
            (Some(a), Some(b)) => {
                if let Some(k) = a.as_constant() {
                    b.checked_scale(k).map(Some)
                } else if let Some(k) = b.as_constant() {
                    a.checked_scale(k).map(Some)
                } else {
                    Some(None)
                }
            }
            _ => Some(None),
        },
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    #[test]
    fn linearise_simple_sum() {
        // 100 - x0
        let t = Term::sub(Term::int(100), Term::var(v(0)));
        match linearise(&t) {
            Linearised::Linear(e) => {
                assert_eq!(e.coeff(v(0)), -1);
                assert_eq!(e.constant_part(), 100);
            }
            other => panic!("expected linear, got {other:?}"),
        }
    }

    #[test]
    fn linearise_scales_constant_products() {
        // 3 * (x1 + 2)
        let t = Term::mul(Term::int(3), Term::add(Term::var(v(1)), Term::int(2)));
        match linearise(&t) {
            Linearised::Linear(e) => {
                assert_eq!(e.coeff(v(1)), 3);
                assert_eq!(e.constant_part(), 6);
            }
            other => panic!("expected linear, got {other:?}"),
        }
    }

    #[test]
    fn linearise_rejects_var_products() {
        let t = Term::mul(Term::var(v(0)), Term::var(v(1)));
        assert_eq!(linearise(&t), Linearised::NonLinear);
    }

    #[test]
    fn cancelling_coefficients_are_removed() {
        // x0 - x0 is the constant 0
        let t = Term::sub(Term::var(v(0)), Term::var(v(0)));
        match linearise(&t) {
            Linearised::Linear(e) => {
                assert!(e.is_constant());
                assert_eq!(e.as_constant(), Some(0));
            }
            other => panic!("expected linear, got {other:?}"),
        }
    }

    /// A `BTreeMap`-backed oracle with every operation written the direct
    /// way: term by term, and `checked_sub` as an add of the `-1`-scaled
    /// operand.
    #[derive(Debug, Clone, Default)]
    struct Oracle {
        coeffs: BTreeMap<Var, i64>,
        constant: i64,
    }

    impl Oracle {
        fn add_term(&mut self, v: Var, coeff: i64) -> Option<()> {
            let entry = self.coeffs.entry(v).or_insert(0);
            *entry = entry.checked_add(coeff)?;
            if *entry == 0 {
                self.coeffs.remove(&v);
            }
            Some(())
        }

        fn checked_add(&self, other: &Oracle) -> Option<Oracle> {
            let mut out = self.clone();
            for (&v, &c) in &other.coeffs {
                out.add_term(v, c)?;
            }
            out.constant = out.constant.checked_add(other.constant)?;
            Some(out)
        }

        fn checked_sub(&self, other: &Oracle) -> Option<Oracle> {
            self.checked_add(&other.checked_scale(-1)?)
        }

        fn checked_scale(&self, k: i64) -> Option<Oracle> {
            let mut coeffs = BTreeMap::new();
            for (&v, &c) in &self.coeffs {
                let scaled = c.checked_mul(k)?;
                if scaled != 0 {
                    coeffs.insert(v, scaled);
                }
            }
            Some(Oracle {
                coeffs,
                constant: self.constant.checked_mul(k)?,
            })
        }
    }

    /// SplitMix64, so the property runs are seeded and repeatable.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Mostly small values, with the `i64` extremes often enough that
        /// sums, differences and scalings overflow.
        fn value(&mut self) -> i64 {
            const EXTREMES: [i64; 6] = [i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1, -1, 1];
            match self.below(4) {
                0 => EXTREMES[self.below(EXTREMES.len() as u64) as usize],
                1 => self.next() as i64,
                _ => self.below(7) as i64 - 3,
            }
        }
    }

    fn random_pair(rng: &mut Rng) -> (LinExpr, Oracle) {
        let mut expr = LinExpr::zero();
        let mut oracle = Oracle::default();
        for _ in 0..rng.below(5) {
            let (var, coeff) = (v(rng.below(6) as u32), rng.value());
            assert_eq!(expr.add_term(var, coeff), oracle.add_term(var, coeff));
        }
        let constant = rng.value();
        expr.add_constant(constant).expect("zero plus a constant");
        oracle.constant = constant;
        (expr, oracle)
    }

    fn agree(expr: &LinExpr, oracle: &Oracle) {
        let terms: Vec<(Var, i64)> = oracle.coeffs.iter().map(|(&v, &c)| (v, c)).collect();
        assert_eq!(
            expr.iter().collect::<Vec<_>>(),
            terms,
            "{expr:?} vs {oracle:?}"
        );
        assert_eq!(
            expr.vars().collect::<Vec<_>>(),
            oracle.coeffs.keys().copied().collect::<Vec<_>>()
        );
        assert_eq!(expr.constant_part(), oracle.constant);
        assert_eq!(expr.num_vars(), oracle.coeffs.len());
        for i in 0..7 {
            assert_eq!(
                expr.coeff(v(i)),
                oracle.coeffs.get(&v(i)).copied().unwrap_or(0)
            );
        }
    }

    fn agree_opt(expr: Option<LinExpr>, oracle: Option<Oracle>) {
        match (expr, oracle) {
            (Some(expr), Some(oracle)) => agree(&expr, &oracle),
            (None, None) => {}
            (expr, oracle) => panic!("overflow outcomes differ: {expr:?} vs {oracle:?}"),
        }
    }

    #[test]
    fn sorted_vector_matches_the_btreemap_oracle() {
        let mut rng = Rng(0x5eed_0019);
        for _ in 0..20_000 {
            let (a, oa) = random_pair(&mut rng);
            let (b, ob) = random_pair(&mut rng);
            agree(&a, &oa);
            agree_opt(a.checked_add(&b), oa.checked_add(&ob));
            agree_opt(a.checked_sub(&b), oa.checked_sub(&ob));
            let k = rng.value();
            agree_opt(a.checked_scale(k), oa.checked_scale(k));

            let (var, coeff) = (v(rng.below(7) as u32), rng.value());
            let (mut a2, mut oa2) = (a.clone(), oa.clone());
            assert_eq!(a2.add_term(var, coeff), oa2.add_term(var, coeff));
            agree(&a2, &oa2);

            let values: Vec<i64> = (0..6).map(|_| rng.value()).collect();
            let assignment = |var: Var| values.get(var.index() as usize).copied();
            let expected = oa.coeffs.iter().try_fold(oa.constant, |total, (&var, &c)| {
                total.checked_add(c.checked_mul(assignment(var)?)?)
            });
            assert_eq!(a.eval(&assignment), expected);
        }
    }

    #[test]
    fn eval_matches_term_eval() {
        let t = Term::add(
            Term::mul(Term::int(2), Term::var(v(0))),
            Term::sub(Term::var(v(1)), Term::int(5)),
        );
        let assignment = |var: Var| Some(if var.index() == 0 { 7 } else { 3 });
        let lin = match linearise(&t) {
            Linearised::Linear(e) => e,
            other => panic!("expected linear, got {other:?}"),
        };
        assert_eq!(lin.eval(&assignment), t.eval(&assignment));
    }
}
