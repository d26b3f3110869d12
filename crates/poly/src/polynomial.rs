//! Multivariate polynomials over program variables, generic in their coefficients.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use dca_numeric::Rational;

use crate::monomial::Monomial;
use crate::vars::{VarId, VarPool};
use crate::Valuation;

/// The coefficients a [`Poly`] may carry: [`Rational`] for a [`Polynomial`], and a
/// [`LinForm`](crate::LinForm) for a [`TemplatePolynomial`](crate::TemplatePolynomial).
/// `Default` is the zero coefficient.
pub trait Coeff: Clone + Default + PartialEq {
    /// Returns `true` for the zero coefficient (its term is then dropped).
    fn is_zero(&self) -> bool;
    /// The sum `self + other`.
    fn plus(&self, other: &Self) -> Self;
    /// The product `self * factor`.
    fn scale(&self, factor: &Rational) -> Self;
}

impl Coeff for Rational {
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }

    fn plus(&self, other: &Self) -> Self {
        self + other
    }

    fn scale(&self, factor: &Rational) -> Self {
        self * factor
    }
}

/// A multivariate polynomial `Σ c·m` over program variables with coefficients `C`.
///
/// Stored as a map from [`Monomial`] to non-zero coefficient; the zero polynomial has an
/// empty map.
///
/// # Examples
///
/// ```
/// use dca_poly::{Polynomial, VarPool};
/// use dca_numeric::Rational;
///
/// let mut pool = VarPool::new();
/// let x = pool.intern("x");
/// let p = Polynomial::var(x) * Polynomial::var(x) - Polynomial::constant(Rational::from_int(1));
/// assert_eq!(p.degree(), 2);
/// let mut val = dca_poly::Valuation::new();
/// val.insert(x, Rational::from_int(3));
/// assert_eq!(p.eval(&val), Rational::from_int(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly<C> {
    terms: BTreeMap<Monomial, C>,
}

/// A polynomial with [`Rational`] coefficients: transition updates, the products
/// `Prod_K(Aff)` of Handelman's theorem, and synthesized potentials.
pub type Polynomial = Poly<Rational>;

impl<C: Coeff> Poly<C> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { terms: BTreeMap::new() }
    }

    /// A constant polynomial.
    pub fn constant(c: C) -> Self {
        Self::from_monomial(Monomial::unit(), c)
    }

    /// A polynomial with a single term `coeff * mono`.
    pub fn from_monomial(mono: Monomial, coeff: C) -> Self {
        Self::from_terms([(mono, coeff)])
    }

    /// Builds a polynomial from `(monomial, coefficient)` pairs, summing duplicates.
    pub fn from_terms(pairs: impl IntoIterator<Item = (Monomial, C)>) -> Self {
        let mut p = Self::zero();
        for (m, c) in pairs {
            p.add_term(m, c);
        }
        p
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.keys().all(Monomial::is_unit)
    }

    /// The constant term.
    pub fn constant_term(&self) -> C {
        self.coeff(&Monomial::unit())
    }

    /// Total degree of the polynomial (0 for constants and for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    /// Coefficient of a monomial (zero if absent).
    pub fn coeff(&self, mono: &Monomial) -> C {
        self.terms.get(mono).cloned().unwrap_or_default()
    }

    /// Iterates over `(monomial, coefficient)` pairs in monomial order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, &C)> {
        self.terms.iter()
    }

    /// Number of (non-zero) terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// All monomials with non-zero coefficients, in monomial order.
    pub fn monomials(&self) -> Vec<Monomial> {
        self.terms.keys().cloned().collect()
    }

    /// The set of variables mentioned by the polynomial.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self.terms.keys().flat_map(Monomial::vars).collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Adds `coeff * mono` to the polynomial in place.
    pub fn add_term(&mut self, mono: Monomial, coeff: C) {
        if coeff.is_zero() {
            return;
        }
        match self.terms.entry(mono) {
            Entry::Vacant(entry) => {
                entry.insert(coeff);
            }
            Entry::Occupied(mut entry) => {
                let sum = entry.get().plus(&coeff);
                if sum.is_zero() {
                    entry.remove();
                } else {
                    *entry.get_mut() = sum;
                }
            }
        }
    }

    /// Multiplies the polynomial by a scalar.
    pub fn scale(&self, factor: &Rational) -> Self {
        if factor.is_zero() {
            return Self::zero();
        }
        Poly { terms: self.terms.iter().map(|(m, c)| (m.clone(), c.scale(factor))).collect() }
    }

    /// Evaluates the program variables at a valuation (missing variables default to 0):
    /// a number for a [`Polynomial`], an affine form over the LP unknowns for a
    /// [`TemplatePolynomial`](crate::TemplatePolynomial).
    pub fn eval(&self, valuation: &Valuation) -> C {
        let mut acc = C::default();
        for (m, c) in &self.terms {
            acc = acc.plus(&c.scale(&m.eval(valuation)));
        }
        acc
    }

    /// Substitutes polynomials for variables.
    ///
    /// Variables not present in `subst` are left unchanged; so are the coefficients.
    pub fn substitute(&self, subst: &BTreeMap<VarId, Polynomial>) -> Self {
        let mut out = Self::zero();
        for (m, c) in &self.terms {
            // Expand the monomial under the substitution into a concrete polynomial.
            let mut expanded = Polynomial::one();
            for &(v, e) in m.powers() {
                let base = subst.get(&v).cloned().unwrap_or_else(|| Polynomial::var(v));
                expanded = &expanded * &base.pow(e);
            }
            for (m2, c2) in &expanded.terms {
                out.add_term(m2.clone(), c.scale(c2));
            }
        }
        out
    }
}

impl Polynomial {
    /// The constant polynomial `1`.
    pub fn one() -> Polynomial {
        Polynomial::from_int(1)
    }

    /// A constant polynomial from a machine integer.
    pub fn from_int(c: i64) -> Polynomial {
        Polynomial::constant(Rational::from_int(c))
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: VarId) -> Polynomial {
        Polynomial::from_monomial(Monomial::var(v), Rational::one())
    }

    /// Raises the polynomial to a non-negative power.
    pub fn pow(&self, exp: u32) -> Polynomial {
        let mut acc = Polynomial::one();
        for _ in 0..exp {
            acc = &acc * self;
        }
        acc
    }

    /// Renders the polynomial using variable names from the pool.
    pub fn to_string(&self, pool: &VarPool) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (m, c) in &self.terms {
            let name = if m.is_unit() { String::new() } else { m.to_string(pool) };
            push_term(&mut out, c, &name);
        }
        out
    }
}

/// Appends the term `c*name` (the bare number `c` when `name` is empty) to a rendering,
/// joined by its sign: a unit coefficient is left out, and so is the sign of a
/// non-negative first term.
pub(crate) fn push_term(out: &mut String, c: &Rational, name: &str) {
    let sign = match (out.is_empty(), c.is_negative()) {
        (true, false) => "",
        (true, true) => "-",
        (false, false) => " + ",
        (false, true) => " - ",
    };
    let mag = c.abs();
    let _ = if name.is_empty() {
        write!(out, "{sign}{mag}")
    } else if mag == Rational::one() {
        write!(out, "{sign}{name}")
    } else {
        write!(out, "{sign}{mag}*{name}")
    };
}

impl<C: Coeff> AddAssign<&Poly<C>> for Poly<C> {
    fn add_assign(&mut self, rhs: &Poly<C>) {
        for (m, c) in &rhs.terms {
            self.add_term(m.clone(), c.clone());
        }
    }
}

impl<C: Coeff> Add for &Poly<C> {
    type Output = Poly<C>;
    fn add(self, rhs: &Poly<C>) -> Poly<C> {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl<C: Coeff> Sub for &Poly<C> {
    type Output = Poly<C>;
    fn sub(self, rhs: &Poly<C>) -> Poly<C> {
        self + &-rhs
    }
}

/// The product with a concrete polynomial: the ring product of two [`Polynomial`]s,
/// and for a template the product that stays linear in its unknowns.
impl<C: Coeff> Mul<&Polynomial> for &Poly<C> {
    type Output = Poly<C>;
    fn mul(self, rhs: &Polynomial) -> Poly<C> {
        let mut out = Poly::zero();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &rhs.terms {
                out.add_term(m1.mul(m2), c1.scale(c2));
            }
        }
        out
    }
}

impl<C: Coeff> Neg for &Poly<C> {
    type Output = Poly<C>;
    fn neg(self) -> Poly<C> {
        self.scale(&-Rational::one())
    }
}

impl<C: Coeff> Neg for Poly<C> {
    type Output = Poly<C>;
    fn neg(self) -> Poly<C> {
        -&self
    }
}

forward_owned_binop!(impl[C: Coeff] Add::add for Poly<C>, Poly<C>);
forward_owned_binop!(impl[C: Coeff] Sub::sub for Poly<C>, Poly<C>);
forward_owned_binop!(impl[C: Coeff] Mul::mul for Poly<C>, Polynomial);

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    fn val(pairs: &[(VarId, i64)]) -> Valuation {
        pairs
            .iter()
            .map(|&(v, c)| (v, Rational::from_int(c)))
            .collect()
    }

    #[test]
    fn constants() {
        let p = Polynomial::from_int(5);
        assert!(p.is_constant());
        assert_eq!(p.constant_term(), Rational::from_int(5));
        assert_eq!(p.degree(), 0);
        assert!(Polynomial::zero().is_zero());
        assert!(Polynomial::constant(Rational::zero()).is_zero());
    }

    #[test]
    fn add_and_cancel() {
        let (_, x, _) = setup();
        let p = Polynomial::var(x) + Polynomial::from_int(1);
        let q = -&Polynomial::var(x) + Polynomial::from_int(2);
        let s = &p + &q;
        assert_eq!(s, Polynomial::from_int(3));
        assert_eq!((&p - &p), Polynomial::zero());
    }

    #[test]
    fn multiplication_expands() {
        let (pool, x, y) = setup();
        // (x + y) * (x - y) = x^2 - y^2
        let p = Polynomial::var(x) + Polynomial::var(y);
        let q = Polynomial::var(x) - Polynomial::var(y);
        let prod = &p * &q;
        assert_eq!(prod.to_string(&pool), "x^2 - y^2");
        assert_eq!(prod.degree(), 2);
        assert_eq!(prod.num_terms(), 2);
    }

    #[test]
    fn binomial_square() {
        let (pool, x, y) = setup();
        let p = (Polynomial::var(x) + Polynomial::var(y)).pow(2);
        assert_eq!(p.to_string(&pool), "x^2 + 2*x*y + y^2");
    }

    #[test]
    fn evaluation() {
        let (_, x, y) = setup();
        // 2x^2 - 3y + 1 at x=2, y=3 -> 8 - 9 + 1 = 0
        let p = Polynomial::var(x).pow(2).scale(&Rational::from_int(2))
            - Polynomial::var(y).scale(&Rational::from_int(3))
            + Polynomial::from_int(1);
        assert_eq!(p.eval(&val(&[(x, 2), (y, 3)])), Rational::zero());
        assert_eq!(p.eval(&val(&[(x, 0), (y, 0)])), Rational::one());
    }

    #[test]
    fn substitution() {
        let (pool, x, y) = setup();
        // p = x^2 + y ; substitute x -> y + 1 gives y^2 + 3y + 1... check: (y+1)^2 + y = y^2 + 3y + 1
        let p = Polynomial::var(x).pow(2) + Polynomial::var(y);
        let mut subst = BTreeMap::new();
        subst.insert(x, Polynomial::var(y) + Polynomial::from_int(1));
        let q = p.substitute(&subst);
        assert_eq!(q.to_string(&pool), "1 + 3*y + y^2");
    }

    #[test]
    fn substitution_identity_when_missing() {
        let (_, x, y) = setup();
        let p = Polynomial::var(x) * Polynomial::var(y);
        let q = p.substitute(&BTreeMap::new());
        assert_eq!(p, q);
    }

    #[test]
    fn vars_listing() {
        let (_, x, y) = setup();
        let p = Polynomial::var(x) * Polynomial::var(y) + Polynomial::from_int(3);
        assert_eq!(p.vars(), vec![x, y]);
        assert!(Polynomial::from_int(3).vars().is_empty());
    }

    #[test]
    fn display_signs() {
        let (pool, x, _) = setup();
        let p = -&Polynomial::var(x) + Polynomial::from_int(2);
        assert_eq!(p.to_string(&pool), "2 - x");
        let q = Polynomial::var(x).scale(&Rational::new(-3, 2));
        assert_eq!(q.to_string(&pool), "-3/2*x");
        assert_eq!(Polynomial::zero().to_string(&pool), "0");
    }

    #[test]
    fn scale_by_zero() {
        let (_, x, _) = setup();
        assert!(Polynomial::var(x).scale(&Rational::zero()).is_zero());
    }

    // Deterministic grid versions of what used to be property-based tests (the
    // workspace builds offline, without a property-testing dependency). The grids cover
    // negative, zero and positive coefficients and evaluation points.
    const COEFFS: [i64; 6] = [-20, -3, -1, 0, 2, 19];
    const POINTS: [i64; 5] = [-10, -2, 0, 1, 9];

    #[test]
    fn eval_is_homomorphic_over_ring_operations() {
        let (_, x, y) = setup();
        for a in COEFFS {
            for c in COEFFS {
                for vx in POINTS {
                    for vy in POINTS {
                        let p = Polynomial::var(x).scale(&Rational::from_int(a))
                            + Polynomial::from_int(a + 1);
                        let q = Polynomial::var(y).scale(&Rational::from_int(c))
                            + Polynomial::from_int(c - 1);
                        let v = val(&[(x, vx), (y, vy)]);
                        assert_eq!((&p + &q).eval(&v), &p.eval(&v) + &q.eval(&v));
                        assert_eq!((&p * &q).eval(&v), &p.eval(&v) * &q.eval(&v));
                        assert_eq!((&p - &q).eval(&v), &p.eval(&v) - &q.eval(&v));
                    }
                }
            }
        }
    }

    #[test]
    fn substitution_commutes_with_eval() {
        let (_, x, y) = setup();
        for a in -5i64..5 {
            for b in -5i64..5 {
                for vy in -5i64..5 {
                    // p(x, y) = a*x^2 + b*x*y + y
                    let p = Polynomial::var(x).pow(2).scale(&Rational::from_int(a))
                        + (Polynomial::var(x) * Polynomial::var(y))
                            .scale(&Rational::from_int(b))
                        + Polynomial::var(y);
                    // substitute x -> y + 1
                    let mut subst = BTreeMap::new();
                    subst.insert(x, Polynomial::var(y) + Polynomial::from_int(1));
                    let q = p.substitute(&subst);
                    // Evaluating q at y = vy must equal evaluating p at x = vy + 1,
                    // y = vy. The x slot of v_q is set to a nonzero value unrelated to
                    // the substitution so any residual x term in q breaks the equality.
                    let v_q = val(&[(y, vy), (x, 17)]);
                    let v_p = val(&[(x, vy + 1), (y, vy)]);
                    assert_eq!(q.eval(&v_q), p.eval(&v_p));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let (_, x, _) = setup();
        for e in 0u32..5 {
            for a in -5i64..5 {
                for vx in -5i64..5 {
                    let p = Polynomial::var(x) + Polynomial::from_int(a);
                    let v = val(&[(x, vx)]);
                    assert_eq!(p.pow(e).eval(&v), p.eval(&v).pow(e));
                }
            }
        }
    }
}
