//! Affine (degree ≤ 1) forms, over program variables or over LP unknowns.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::{Add, Neg, Sub};

use dca_numeric::Rational;

use crate::monomial::Monomial;
use crate::polynomial::{push_term, Coeff, Polynomial};
use crate::template::UnknownId;
use crate::vars::{VarId, VarPool};

/// An affine form `c0 + c1*k1 + ... + cn*kn` over keys `K`.
///
/// The analysis uses two instances. [`LinExpr`] ranges over program variables:
/// transition guards, initial conditions and invariants, where the convention of the
/// whole pipeline is that a constraint is the assertion `LinExpr ≥ 0`. [`LinForm`]
/// ranges over LP unknowns: the coefficients of a
/// [`TemplatePolynomial`](crate::TemplatePolynomial) and the rows of the synthesis LP.
///
/// # Examples
///
/// ```
/// use dca_poly::{LinExpr, LinForm, UnknownId, VarPool};
/// use dca_numeric::Rational;
///
/// let mut pool = VarPool::new();
/// let x = pool.intern("x");
/// // x - 3 ≥ 0, i.e. x ≥ 3
/// let e = LinExpr::var(x) - LinExpr::constant(Rational::from_int(3));
/// assert_eq!(e.to_string(&pool), "x - 3");
///
/// let u = UnknownId(0);
/// let f = LinForm::var(u).scale(&Rational::from_int(2)) + LinForm::from_int(1);
/// assert_eq!(f.coeff(u), Rational::from_int(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine<K> {
    constant: Rational,
    coeffs: BTreeMap<K, Rational>,
}

/// An affine expression over program variables.
pub type LinExpr = Affine<VarId>;

/// An affine form over LP unknowns.
pub type LinForm = Affine<UnknownId>;

/// Values of the keys of an [`Affine`] form, for [`Affine::eval`].
pub trait Assignment<K> {
    /// The value of `key`, or `None` when it is unassigned (it then reads as 0).
    fn value(&self, key: &K) -> Option<&Rational>;
}

impl<K: Hash + Eq> Assignment<K> for HashMap<K, Rational> {
    fn value(&self, key: &K) -> Option<&Rational> {
        self.get(key)
    }
}

impl<K: Ord> Assignment<K> for BTreeMap<K, Rational> {
    fn value(&self, key: &K) -> Option<&Rational> {
        self.get(key)
    }
}

impl<K> Default for Affine<K> {
    fn default() -> Self {
        Affine { constant: Rational::zero(), coeffs: BTreeMap::new() }
    }
}

impl<K: Copy + Ord> Affine<K> {
    /// The zero form.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant form.
    pub fn constant(c: Rational) -> Self {
        Affine { constant: c, coeffs: BTreeMap::new() }
    }

    /// A constant form from a machine integer.
    pub fn from_int(c: i64) -> Self {
        Self::constant(Rational::from_int(c))
    }

    /// The form consisting of a single key with coefficient one.
    pub fn var(k: K) -> Self {
        Self::from_parts(Rational::zero(), [(k, Rational::one())])
    }

    /// Builds a form from a constant and `(key, coefficient)` pairs.
    pub fn from_parts(constant: Rational, coeffs: impl IntoIterator<Item = (K, Rational)>) -> Self {
        let mut e = Self::constant(constant);
        for (k, c) in coeffs {
            e.set_coeff(k, c);
        }
        e
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Coefficient of a key (zero if absent).
    pub fn coeff(&self, k: K) -> Rational {
        self.coeffs.get(&k).cloned().unwrap_or_default()
    }

    /// Sets the coefficient of a key (removing it when zero).
    pub fn set_coeff(&mut self, k: K, c: Rational) {
        if c.is_zero() {
            self.coeffs.remove(&k);
        } else {
            self.coeffs.insert(k, c);
        }
    }

    /// Adds `c * k` to the form in place.
    pub fn add_term(&mut self, k: K, c: Rational) {
        if c.is_zero() {
            return;
        }
        match self.coeffs.entry(k) {
            Entry::Vacant(entry) => {
                entry.insert(c);
            }
            Entry::Occupied(mut entry) => {
                let sum = entry.get() + &c;
                if sum.is_zero() {
                    entry.remove();
                } else {
                    *entry.get_mut() = sum;
                }
            }
        }
    }

    /// Iterates over `(key, coefficient)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Rational)> {
        self.coeffs.iter()
    }

    /// Keys with non-zero coefficients.
    pub fn vars(&self) -> Vec<K> {
        self.coeffs.keys().copied().collect()
    }

    /// Returns `true` if the form mentions no keys.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Returns `true` if the form is identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant.is_zero() && self.coeffs.is_empty()
    }

    /// Multiplies the form by a scalar.
    pub fn scale(&self, factor: &Rational) -> Self {
        if factor.is_zero() {
            return Self::zero();
        }
        Affine {
            constant: &self.constant * factor,
            coeffs: self.coeffs.iter().map(|(k, c)| (*k, c * factor)).collect(),
        }
    }

    /// Evaluates the form under an assignment (unassigned keys read as 0).
    pub fn eval(&self, values: &impl Assignment<K>) -> Rational {
        let mut acc = self.constant.clone();
        for (k, c) in &self.coeffs {
            if let Some(x) = values.value(k) {
                acc = &acc + &(c * x);
            }
        }
        acc
    }

    /// Normalizes the form so that all coefficients are coprime integers.
    ///
    /// This preserves the sign of the form at every point (the scaling factor is
    /// strictly positive), so `e ≥ 0` and `e.normalize() ≥ 0` are equivalent constraints.
    pub fn normalize(&self) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        // Multiply by the lcm of denominators, then divide by the gcd of numerators.
        let mut scale = Rational::one();
        let mut values: Vec<Rational> = vec![self.constant.clone()];
        values.extend(self.coeffs.values().cloned());
        for v in &values {
            if !v.is_zero() {
                let den = Rational::from(v.denominator());
                // lcm accumulation on the scale denominator
                scale = &scale * &den;
            }
        }
        let scaled: Vec<Rational> = values.iter().map(|v| v * &scale).collect();
        let mut gcd = dca_numeric::BigInt::zero();
        for v in &scaled {
            gcd = gcd.gcd(&v.numerator());
        }
        let divisor = if gcd.is_zero() {
            Rational::one()
        } else {
            Rational::from(gcd)
        };
        let factor = &scale / &divisor;
        self.scale(&factor)
    }
}

impl LinExpr {
    /// Converts the affine expression to a [`Polynomial`].
    pub fn to_polynomial(&self) -> Polynomial {
        let mut p = Polynomial::constant(self.constant.clone());
        for (v, c) in &self.coeffs {
            p.add_term(Monomial::var(*v), c.clone());
        }
        p
    }

    /// Attempts to convert a polynomial into an affine expression.
    ///
    /// Returns `None` if the polynomial has degree greater than 1.
    pub fn try_from_polynomial(p: &Polynomial) -> Option<LinExpr> {
        if p.degree() > 1 {
            return None;
        }
        let mut e = LinExpr::zero();
        for (m, c) in p.iter() {
            if m.is_unit() {
                e.constant = c.clone();
            } else {
                let (v, exp) = m.powers()[0];
                debug_assert_eq!(exp, 1);
                e.set_coeff(v, c.clone());
            }
        }
        Some(e)
    }

    /// Renders the expression using variable names from the pool, constant last.
    pub fn to_string(&self, pool: &VarPool) -> String {
        let mut out = String::new();
        for (v, c) in &self.coeffs {
            push_term(&mut out, c, pool.name(*v));
        }
        if out.is_empty() || !self.constant.is_zero() {
            push_term(&mut out, &self.constant, "");
        }
        out
    }
}

impl<K: Copy + Ord> Coeff for Affine<K> {
    fn is_zero(&self) -> bool {
        Affine::is_zero(self)
    }

    fn plus(&self, other: &Self) -> Self {
        self + other
    }

    fn scale(&self, factor: &Rational) -> Self {
        Affine::scale(self, factor)
    }
}

impl<K: Copy + Ord> Add for &Affine<K> {
    type Output = Affine<K>;
    fn add(self, rhs: &Affine<K>) -> Affine<K> {
        let mut out = self.clone();
        out.constant = &out.constant + &rhs.constant;
        for (k, c) in &rhs.coeffs {
            out.add_term(*k, c.clone());
        }
        out
    }
}

impl<K: Copy + Ord> Sub for &Affine<K> {
    type Output = Affine<K>;
    fn sub(self, rhs: &Affine<K>) -> Affine<K> {
        self + &-rhs
    }
}

impl<K: Copy + Ord> Neg for &Affine<K> {
    type Output = Affine<K>;
    fn neg(self) -> Affine<K> {
        self.scale(&-Rational::one())
    }
}

impl<K: Copy + Ord> Neg for Affine<K> {
    type Output = Affine<K>;
    fn neg(self) -> Affine<K> {
        -&self
    }
}

forward_owned_binop!(impl[K: Copy + Ord] Add::add for Affine<K>, Affine<K>);
forward_owned_binop!(impl[K: Copy + Ord] Sub::sub for Affine<K>, Affine<K>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Valuation;

    fn setup() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    #[test]
    fn construction_and_access() {
        let (_, x, y) = setup();
        let e = LinExpr::from_parts(
            Rational::from_int(3),
            [(x, Rational::from_int(2)), (y, Rational::from_int(-1))],
        );
        assert_eq!(e.coeff(x), Rational::from_int(2));
        assert_eq!(e.coeff(y), Rational::from_int(-1));
        assert_eq!(*e.constant_term(), Rational::from_int(3));
        assert_eq!(e.vars(), vec![x, y]);
        assert!(!e.is_constant());
    }

    #[test]
    fn arithmetic() {
        let (_, x, y) = setup();
        let a = LinExpr::var(x) + LinExpr::from_int(1);
        let b = LinExpr::var(y) - LinExpr::from_int(2);
        let s = &a + &b;
        assert_eq!(s.coeff(x), Rational::one());
        assert_eq!(s.coeff(y), Rational::one());
        assert_eq!(*s.constant_term(), Rational::from_int(-1));
        let d = &a - &a;
        assert!(d.is_zero());
    }

    #[test]
    fn evaluation() {
        let (_, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::from_int(2)) + LinExpr::var(y) - LinExpr::from_int(5);
        let mut v = Valuation::new();
        v.insert(x, Rational::from_int(3));
        v.insert(y, Rational::from_int(4));
        assert_eq!(e.eval(&v), Rational::from_int(5));
    }

    #[test]
    fn polynomial_roundtrip() {
        let (_, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::new(1, 2)) - LinExpr::var(y) + LinExpr::from_int(7);
        let p = e.to_polynomial();
        assert_eq!(LinExpr::try_from_polynomial(&p), Some(e));
        let nonlinear = Polynomial::var(x) * Polynomial::var(y);
        assert_eq!(LinExpr::try_from_polynomial(&nonlinear), None);
    }

    #[test]
    fn normalization_clears_denominators() {
        let (_, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::new(1, 2)) + LinExpr::var(y).scale(&Rational::new(1, 3));
        let n = e.normalize();
        // multiplied by 6: 3x + 2y
        assert_eq!(n.coeff(x), Rational::from_int(3));
        assert_eq!(n.coeff(y), Rational::from_int(2));
        // the two must have the same sign everywhere -- sample a point
        let mut v = Valuation::new();
        v.insert(x, Rational::from_int(-1));
        v.insert(y, Rational::from_int(1));
        assert_eq!(e.eval(&v).is_negative(), n.eval(&v).is_negative());
    }

    #[test]
    fn normalization_reduces_common_factor() {
        let (_, x, _) = setup();
        let e = LinExpr::var(x).scale(&Rational::from_int(4)) + LinExpr::from_int(6);
        let n = e.normalize();
        assert_eq!(n.coeff(x), Rational::from_int(2));
        assert_eq!(*n.constant_term(), Rational::from_int(3));
    }

    #[test]
    fn display() {
        let (pool, x, y) = setup();
        let e = LinExpr::var(x).scale(&Rational::from_int(-2)) + LinExpr::var(y) + LinExpr::from_int(3);
        assert_eq!(e.to_string(&pool), "-2*x + y + 3");
        assert_eq!(LinExpr::zero().to_string(&pool), "0");
        assert_eq!(LinExpr::from_int(-4).to_string(&pool), "-4");
    }
}
