//! The numeric abstraction shared by the `f64` and exact [`Rational`] simplex backends.

use dca_numeric::Rational;

/// Arithmetic required by the simplex solver.
///
/// The trait is sealed in spirit: the two implementations provided here (`f64` with an
/// absolute tolerance, and [`Rational`] exactly) are the only ones the crate is tested
/// with. Each has its own simplex loop (`float` and `exact`); the shared machinery
/// (sparse columns, eta file, ratio test, pivot update) is generic over this trait.
pub trait Scalar: Clone + std::fmt::Debug + PartialEq {
    /// `true` for exact arithmetic. Only the dense tableau test oracle reads it.
    const IS_EXACT: bool;

    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Approximate conversion used for reporting.
    fn to_f64(&self) -> f64;

    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Division.
    fn div(&self, other: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;

    /// `true` if the value is (numerically) zero.
    fn is_zero(&self) -> bool;
    /// `true` only for the exact representation of zero. Used for sparsity skips in the
    /// tableau updates: unlike [`Scalar::is_zero`], skipping an exactly-zero entry never
    /// changes the arithmetic (a tolerance-zero entry times a large pivot factor would).
    fn is_exactly_zero(&self) -> bool {
        self.is_zero()
    }
    /// `true` if the value is (numerically) strictly positive.
    fn is_positive(&self) -> bool;
    /// `true` if the value is (numerically) strictly negative.
    fn is_negative(&self) -> bool;
    /// Strict comparison used by the ratio test.
    fn lt(&self, other: &Self) -> bool;
    /// `true` for an entry a stored eta may drop: an exact zero, and for `f64` also
    /// numerical dust below `DROP_EPS` (keeping it would only grow the eta file).
    fn is_eta_dust(&self) -> bool {
        self.is_exactly_zero()
    }
    /// Approximate arithmetic cost of carrying this value through a solve, in
    /// machine-word units (1 for fixed-width scalars). The exact backend's
    /// eta-file growth monitor sums this over stored entries so that rational
    /// bit-length blowup — not just fill-in — triggers refactorization.
    fn complexity(&self) -> usize {
        1
    }
}

/// Absolute tolerance used by the floating-point backend.
pub(crate) const F64_EPS: f64 = 1e-8;

/// Eta entries with magnitude below this are dropped when an `f64` eta is stored.
const DROP_EPS: f64 = 1e-12;

/// Magnitude of a scalar (shared by the simplex pivot choices and equilibration).
pub(crate) fn abs<S: Scalar>(value: &S) -> S {
    if value.is_negative() {
        value.neg()
    } else {
        value.clone()
    }
}

impl Scalar for f64 {
    const IS_EXACT: bool = false;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn to_f64(&self) -> f64 {
        *self
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn div(&self, other: &Self) -> Self {
        self / other
    }
    fn neg(&self) -> Self {
        -self
    }
    fn is_zero(&self) -> bool {
        self.abs() <= F64_EPS
    }
    fn is_exactly_zero(&self) -> bool {
        *self == 0.0
    }
    fn is_eta_dust(&self) -> bool {
        self.abs() < DROP_EPS
    }
    fn is_positive(&self) -> bool {
        *self > F64_EPS
    }
    fn is_negative(&self) -> bool {
        *self < -F64_EPS
    }
    fn lt(&self, other: &Self) -> bool {
        self < other
    }
}

impl Scalar for Rational {
    const IS_EXACT: bool = true;

    fn zero() -> Self {
        Rational::zero()
    }
    fn one() -> Self {
        Rational::one()
    }
    fn to_f64(&self) -> f64 {
        Rational::to_f64(self)
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn div(&self, other: &Self) -> Self {
        self / other
    }
    fn neg(&self) -> Self {
        -self.clone()
    }
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }
    fn is_positive(&self) -> bool {
        Rational::is_positive(self)
    }
    fn is_negative(&self) -> bool {
        Rational::is_negative(self)
    }
    fn lt(&self, other: &Self) -> bool {
        self < other
    }
    fn complexity(&self) -> usize {
        self.storage_weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_tolerance() {
        assert!(Scalar::is_zero(&1e-12));
        assert!(!Scalar::is_positive(&1e-12));
        assert!(Scalar::is_positive(&1e-3));
        assert!(Scalar::is_negative(&-1e-3));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // IS_EXACT is the property under test
    fn rational_exactness() {
        let tiny = Rational::new(1, 1_000_000_000);
        assert!(!Scalar::is_zero(&tiny));
        assert!(Scalar::is_positive(&tiny));
        assert!(Rational::IS_EXACT);
        assert!(!f64::IS_EXACT);
    }

    #[test]
    fn conversions() {
        let half = Rational::new(1, 2);
        assert_eq!(Scalar::to_f64(&half), 0.5);
        assert_eq!(Scalar::to_f64(&0.5f64), 0.5);
    }
}
