//! Arbitrary-precision rational numbers with an `i128` small-value fast path.
//!
//! The exact LP backend performs millions of rational add/mul/div/cmp operations whose
//! operands are almost always tiny — Handelman coefficient-matching rows carry integer
//! coefficients in the hundreds, and most pivot chains keep numerators and denominators
//! within a couple of machine words. Routing every one of those operations through
//! heap-allocating [`BigInt`] limb vectors is what made exact pivots expensive, so
//! [`Rational`] stores small values inline:
//!
//! * [`Repr::Small`] holds `num/den` as two `i128`s (denominator positive, fraction
//!   reduced) and performs all arithmetic with overflow-*checked* machine operations —
//!   no allocation, no limb loops. The operands exact pivoting meets most are integers
//!   and word-sized fractions, so integer operands skip the gcds, a unit operand ends a
//!   gcd at once, and gcds and exact divisions run in 64-bit words when the values
//!   fit (`i128` division is a library call);
//! * [`Repr::Big`] holds the [`BigInt`] pair and is used **only** when the value does
//!   not fit the small form. Every constructor demotes eagerly, so the representation
//!   is canonical and derived equality/hashing are exact.
//!
//! On any checked overflow the operation transparently re-runs in [`BigInt`]
//! arithmetic; correctness never depends on operands staying small.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{BigInt, ParseBigIntError};

/// Error returned when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    kind: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.kind)
    }
}

impl std::error::Error for ParseRationalError {}

impl From<ParseBigIntError> for ParseRationalError {
    fn from(e: ParseBigIntError) -> Self {
        ParseRationalError { kind: e.to_string() }
    }
}

/// Binary GCD on unsigned 128-bit magnitudes (no allocation, no division loop).
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// [`gcd_u128`] in 64-bit words.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// GCD of two `i128`s as a non-negative `i128` (`None` if the result is `2^127`,
/// which only happens for `gcd(i128::MIN, 0|i128::MIN)`), in the cheapest word that
/// holds the magnitudes: exact pivoting mostly meets a unit operand (integers, `±1`
/// entries) or word-sized values.
fn gcd_i128(a: i128, b: i128) -> Option<i128> {
    let (a, b) = (a.unsigned_abs(), b.unsigned_abs());
    if a == 1 || b == 1 {
        return Some(1);
    }
    let g = match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => u128::from(gcd_u64(a, b)),
        _ => gcd_u128(a, b),
    };
    i128::try_from(g).ok()
}

/// `v / g` for a positive `g` that divides `v`: free for `g = 1`, one 64-bit division
/// when both fit `i64` (`i128` division is a library call), else `i128` division.
fn div_exact(v: i128, g: i128) -> i128 {
    debug_assert!(g > 0 && v % g == 0, "div_exact needs a positive exact divisor");
    if g == 1 {
        return v;
    }
    match (i64::try_from(v), i64::try_from(g)) {
        (Ok(v), Ok(g)) => i128::from(v / g),
        _ => v / g,
    }
}

/// The canonical storage: `Small` whenever the reduced fraction fits two `i128`s.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num/den` with `den > 0` and `gcd(|num|, den) = 1`; zero is `0/1`.
    Small(i128, i128),
    /// Reduced big fraction `(num, den)` with positive denominator. Canonically used
    /// **only** when the value does not fit `Small` (constructors demote eagerly), so
    /// derived equality and hashing over the enum are exact. Boxed, so the rare big
    /// value does not widen every `Rational` to two inline `BigInt`s.
    Big(Box<(BigInt, BigInt)>),
}

impl Repr {
    fn big(num: BigInt, den: BigInt) -> Repr {
        Repr::Big(Box::new((num, den)))
    }
}

/// An exact rational number `numerator / denominator`.
///
/// Invariants: the denominator is strictly positive, and the fraction is fully reduced
/// (gcd of numerator and denominator is 1); zero is represented as `0 / 1`. Values
/// whose reduced numerator and denominator fit in `i128` are stored inline (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use dca_numeric::Rational;
/// let r = Rational::new(6, -8);
/// assert_eq!(r.to_string(), "-3/4");
/// assert_eq!(r + Rational::new(3, 4), Rational::zero());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

impl Rational {
    /// Builds the canonical `Small` repr from a *not necessarily reduced* fraction.
    /// Falls back to the `Big` path when reduction itself cannot be represented.
    fn small(num: i128, den: i128) -> Rational {
        debug_assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rational { repr: Repr::Small(0, 1) };
        }
        if den == 1 {
            return Rational { repr: Repr::Small(num, 1) };
        }
        let Some(g) = gcd_i128(num, den) else {
            // gcd = 2^127 means both operands are i128::MIN: the value is exactly 1.
            return Rational { repr: Repr::Small(1, 1) };
        };
        // Division by the positive gcd never overflows (i128::MIN / 1 is itself).
        let (mut num, mut den) = (div_exact(num, g), div_exact(den, g));
        if den < 0 {
            match (num.checked_neg(), den.checked_neg()) {
                (Some(n), Some(d)) => {
                    num = n;
                    den = d;
                }
                _ => {
                    // One of the reduced parts is i128::MIN, whose negation does not
                    // fit — the normalized pair genuinely needs the big form (the
                    // fraction is already reduced, so construct it directly rather
                    // than bouncing through `from_bigints`, which would demote-retry).
                    return Rational {
                        repr: Repr::big(-BigInt::from(num), -BigInt::from(den)),
                    };
                }
            }
        }
        Rational { repr: Repr::Small(num, den) }
    }

    /// Builds `Small` from a pair the caller has proven coprime (the cross-reduced
    /// products of `Mul`/`Div`, Knuth's reduced sum in `Add`/`Sub`), skipping the gcd:
    /// only sign normalization remains.
    /// This is the hottest constructor in exact pivoting — the second gcd would be
    /// pure waste, since it mathematically always returns 1 here.
    fn small_coprime(num: i128, den: i128) -> Rational {
        debug_assert!(den != 0, "rational with zero denominator");
        debug_assert!(
            num == 0 || gcd_u128(num.unsigned_abs(), den.unsigned_abs()) == 1,
            "small_coprime caller broke the coprimality contract"
        );
        if num == 0 {
            return Rational { repr: Repr::Small(0, 1) };
        }
        if den < 0 {
            return match (num.checked_neg(), den.checked_neg()) {
                (Some(num), Some(den)) => Rational { repr: Repr::Small(num, den) },
                // i128::MIN cannot be negated: the normalized pair needs the big
                // form (already reduced, so construct it directly).
                _ => Rational { repr: Repr::big(-BigInt::from(num), -BigInt::from(den)) },
            };
        }
        Rational { repr: Repr::Small(num, den) }
    }

    /// Creates a rational from machine-integer numerator and denominator.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        Rational::small(num as i128, den as i128)
    }

    /// Creates a rational from big-integer numerator and denominator, normalizing
    /// (and demoting to the inline `i128` form whenever the reduced value fits).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rational { repr: Repr::Small(0, 1) };
        }
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            return Rational::small(n, d);
        }
        let (num, den) = if den.is_negative() { (-num, -den) } else { (num, den) };
        let g = num.gcd(&den);
        let (num, _) = num.div_rem(&g);
        let (den, _) = den.div_rem(&g);
        // Reduction may have shrunk the value back into the inline range.
        if let (Some(n), Some(d)) = (num.to_i128(), den.to_i128()) {
            return Rational { repr: Repr::Small(n, d) };
        }
        Rational { repr: Repr::big(num, den) }
    }

    /// Creates a rational equal to the given integer.
    pub fn from_int(v: i64) -> Rational {
        Rational { repr: Repr::Small(v as i128, 1) }
    }

    /// The value `0`.
    pub fn zero() -> Rational {
        Rational { repr: Repr::Small(0, 1) }
    }

    /// The value `1`.
    pub fn one() -> Rational {
        Rational { repr: Repr::Small(1, 1) }
    }

    /// `true` when the value is stored in the inline `i128` fast path (diagnostics
    /// and tests; the arithmetic is representation-transparent).
    pub fn is_small(&self) -> bool {
        matches!(self.repr, Repr::Small(..))
    }

    /// Approximate storage (and arithmetic) cost of this value in 128-bit words:
    /// `1` on the inline fast path, the combined numerator/denominator limb count
    /// scaled to 128-bit units otherwise. Cheap (no allocation); used by the exact
    /// LP basis to decide when accumulated eta-file entries have grown expensive
    /// enough that a fresh factorization pays for itself.
    pub fn storage_weight(&self) -> usize {
        match &self.repr {
            Repr::Small(..) => 1,
            Repr::Big(big) => 1 + (big.0.bits() + big.1.bits()) / 128,
        }
    }

    /// Numerator (sign-carrying).
    pub fn numerator(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, _) => BigInt::from(*n),
            Repr::Big(big) => big.0.clone(),
        }
    }

    /// Denominator (always strictly positive).
    pub fn denominator(&self) -> BigInt {
        match &self.repr {
            Repr::Small(_, d) => BigInt::from(*d),
            Repr::Big(big) => big.1.clone(),
        }
    }

    /// Returns `true` if this value is zero.
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n == 0,
            Repr::Big(big) => big.0.is_zero(),
        }
    }

    /// Returns `true` if this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n < 0,
            Repr::Big(big) => big.0.is_negative(),
        }
    }

    /// Returns `true` if this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small(n, _) => *n > 0,
            Repr::Big(big) => big.0.is_positive(),
        }
    }

    /// Returns `true` if the value is an integer (denominator 1).
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small(_, d) => *d == 1,
            Repr::Big(big) => big.1 == BigInt::one(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        if self.is_negative() {
            -self.clone()
        } else {
            self.clone()
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        match &self.repr {
            Repr::Small(n, d) => Rational::small(*d, *n),
            Repr::Big(big) => Rational::from_bigints(big.1.clone(), big.0.clone()),
        }
    }

    /// Largest integer less than or equal to the value.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            // `den > 0`, so Euclidean division is exactly the floor.
            Repr::Small(n, d) => BigInt::from(n.div_euclid(*d)),
            Repr::Big(big) => {
                let (n, d) = &**big;
                let (q, r) = n.div_rem(d);
                if r.is_zero() || !n.is_negative() {
                    q
                } else {
                    &q - &BigInt::one()
                }
            }
        }
    }

    /// Smallest integer greater than or equal to the value.
    pub fn ceil(&self) -> BigInt {
        match &self.repr {
            Repr::Small(n, d) => {
                let q = n.div_euclid(*d);
                if n.rem_euclid(*d) == 0 {
                    BigInt::from(q)
                } else {
                    &BigInt::from(q) + &BigInt::one()
                }
            }
            Repr::Big(big) => {
                let (n, d) = &**big;
                let (q, r) = n.div_rem(d);
                if r.is_zero() || n.is_negative() {
                    q
                } else {
                    &q + &BigInt::one()
                }
            }
        }
    }

    /// Rounds to the nearest integer (half away from zero).
    pub fn round(&self) -> BigInt {
        let two = Rational::from_int(2);
        if self.is_negative() {
            -((&-self.clone() + &(Rational::one() / two)).floor())
        } else {
            (self + &(Rational::one() / two)).floor()
        }
    }

    /// Approximate conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small(n, d) => *n as f64 / *d as f64,
            Repr::Big(big) => {
                let (num, den) = &**big;
                let n = num.to_f64();
                let d = den.to_f64();
                if n.is_finite() && d.is_finite() && d != 0.0 {
                    n / d
                } else {
                    // Fall back to a digit-level approximation for extreme magnitudes.
                    let bits = num.bits() as i64 - den.bits() as i64;
                    if num.is_negative() {
                        -(2f64.powi(bits.clamp(-1000, 1000) as i32))
                    } else {
                        2f64.powi(bits.clamp(-1000, 1000) as i32)
                    }
                }
            }
        }
    }

    /// Creates a rational that approximates an `f64` exactly (binary expansion).
    ///
    /// # Panics
    ///
    /// Panics if the input is NaN or infinite.
    pub fn from_f64(v: f64) -> Rational {
        assert!(v.is_finite(), "cannot convert non-finite float to rational");
        if v == 0.0 {
            return Rational::zero();
        }
        let bits = v.to_bits();
        let sign: i128 = if bits >> 63 == 1 { -1 } else { 1 };
        let exponent = ((bits >> 52) & 0x7ff) as i64;
        let mantissa = if exponent == 0 {
            (bits & 0xf_ffff_ffff_ffff) << 1
        } else {
            (bits & 0xf_ffff_ffff_ffff) | 0x10_0000_0000_0000
        };
        // value = sign * mantissa * 2^(exponent - 1075); the mantissa is 53 bits, so
        // shifts up to 74 (below) / down to 127 stay within i128.
        let shift = exponent - 1075;
        let m = sign * mantissa as i128;
        if (0..=73).contains(&shift) {
            // |m| < 2^53 and the factor is at most 2^73, so the product fits i128.
            return Rational::small(m * (1i128 << shift), 1);
        }
        if (-126..0).contains(&shift) {
            return Rational::small(m, 1i128 << (-shift));
        }
        let mut num = BigInt::from(m);
        let mut den = BigInt::one();
        if shift >= 0 {
            num = &num * &BigInt::from(2i64).pow(shift as u32);
        } else {
            den = BigInt::from(2i64).pow((-shift) as u32);
        }
        Rational::from_bigints(num, den)
    }

    /// Returns the smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Raise to a small non-negative power.
    ///
    /// A reduced fraction's power is automatically reduced (and keeps its positive
    /// denominator), so both arms skip the gcd normalization entirely.
    pub fn pow(&self, exp: u32) -> Rational {
        match &self.repr {
            Repr::Small(n, d) => match (n.checked_pow(exp), d.checked_pow(exp)) {
                (Some(num), Some(den)) => Rational { repr: Repr::Small(num, den) },
                _ => Rational {
                    repr: Repr::big(BigInt::from(*n).pow(exp), BigInt::from(*d).pow(exp)),
                },
            },
            Repr::Big(big) => {
                if exp == 0 {
                    return Rational::one();
                }
                // A canonical Big value has a component beyond i128; its power
                // (exp ≥ 1) is at least as large, so no demotion check is needed.
                Rational { repr: Repr::big(big.0.pow(exp), big.1.pow(exp)) }
            }
        }
    }

    /// The value as a reduced `(numerator, denominator)` BigInt pair.
    fn to_bigint_pair(&self) -> (BigInt, BigInt) {
        match &self.repr {
            Repr::Small(n, d) => (BigInt::from(*n), BigInt::from(*d)),
            Repr::Big(big) => (**big).clone(),
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        match v.to_i128() {
            Some(n) => Rational { repr: Repr::Small(n, 1) },
            None => Rational { repr: Repr::big(v, BigInt::one()) },
        }
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a"`, `"a/b"`, or a decimal literal `"a.b"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(ParseRationalError { kind: "zero denominator".into() });
            }
            return Ok(Rational::from_bigints(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            if frac_part.is_empty() || !frac_part.chars().all(|c| c.is_ascii_digit()) {
                return Err(ParseRationalError { kind: "bad fractional part".into() });
            }
            let frac: BigInt = frac_part.parse()?;
            let scale = BigInt::from(10i64).pow(frac_part.len() as u32);
            let mag = &(&int.abs() * &scale) + &frac;
            let num = if negative { -mag } else { mag };
            return Ok(Rational::from_bigints(num, scale));
        }
        Ok(Rational::from(s.parse::<BigInt>()?))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small(n, d) => {
                if *d == 1 {
                    write!(f, "{n}")
                } else {
                    write!(f, "{n}/{d}")
                }
            }
            Repr::Big(big) => {
                let (n, d) = &**big;
                if self.is_integer() {
                    write!(f, "{n}")
                } else {
                    write!(f, "{n}/{d}")
                }
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({})", self)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b   (b, d > 0)
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &other.repr) {
            // Cheap screens first: sign classes, then equal denominators.
            match (an.signum(), bn.signum()) {
                (x, y) if x < y => return Ordering::Less,
                (x, y) if x > y => return Ordering::Greater,
                (0, 0) => return Ordering::Equal,
                _ => {}
            }
            if ad == bd {
                return an.cmp(bn);
            }
            if let (Some(lhs), Some(rhs)) = (an.checked_mul(*bd), bn.checked_mul(*ad)) {
                return lhs.cmp(&rhs);
            }
        }
        let (an, ad) = self.to_bigint_pair();
        let (bn, bd) = other.to_bigint_pair();
        (&an * &bd).cmp(&(&bn * &ad))
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.repr {
            Repr::Small(n, d) => match n.checked_neg() {
                Some(n) => Rational { repr: Repr::Small(n, d) },
                None => Rational::from_bigints(-BigInt::from(n), BigInt::from(d)),
            },
            Repr::Big(big) => {
                let (n, d) = *big;
                Rational::from_bigints(-n, d)
            }
        }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

/// The big-arithmetic fallback shared by `+`/`-`/`*`/`/` when the `i128` path
/// overflows (or an operand is already big).
fn big_add(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    Rational::from_bigints(&(&an * &bd) + &(&bn * &ad), &ad * &bd)
}

fn big_mul(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    Rational::from_bigints(&an * &bn, &ad * &bd)
}

fn big_div(a: &Rational, b: &Rational) -> Rational {
    let (an, ad) = a.to_bigint_pair();
    let (bn, bd) = b.to_bigint_pair();
    Rational::from_bigints(&an * &bd, &ad * &bn)
}

/// `an/ad ∘ bn/bd` on reduced inline operands, where `op` is `i128::checked_add` or
/// `i128::checked_sub`; `None` when an intermediate overflows `i128`.
///
/// Knuth's reduced cross-multiplication (TAOCP vol. 2, §4.5.1): with
/// `g = gcd(ad, bd)`, `t = an·(bd/g) ∘ bn·(ad/g)` is coprime to `ad/g` and `bd/g`, so
/// with `g2 = gcd(t, g)` the reduced result is `(t/g2) / ((ad/g)·(bd/g2))`. When
/// `g = 1`, the common case, `g2` is 1 at once. Two integers skip the gcds altogether.
fn small_add_sub(
    (an, ad): (i128, i128),
    (bn, bd): (i128, i128),
    op: fn(i128, i128) -> Option<i128>,
) -> Option<Rational> {
    if ad == 1 && bd == 1 {
        return op(an, bn).map(|n| Rational { repr: Repr::Small(n, 1) });
    }
    // Both denominators are positive, so neither gcd can be 2^127.
    let g = gcd_i128(ad, bd)?;
    let (adg, bdg) = (div_exact(ad, g), div_exact(bd, g));
    let t = op(an.checked_mul(bdg)?, bn.checked_mul(adg)?)?;
    let g2 = gcd_i128(t, g)?;
    let den = adg.checked_mul(div_exact(bd, g2))?;
    Some(Rational::small_coprime(div_exact(t, g2), den))
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            // Fast outs for the most common operands in LP pivoting.
            if *an == 0 {
                return rhs.clone();
            }
            if *bn == 0 {
                return self.clone();
            }
            if let Some(sum) = small_add_sub((*an, *ad), (*bn, *bd), i128::checked_add) {
                return sum;
            }
        }
        big_add(self, rhs)
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            if *bn == 0 {
                return self.clone();
            }
            if *an == 0 {
                return -rhs.clone();
            }
            if let Some(diff) = small_add_sub((*an, *ad), (*bn, *bd), i128::checked_sub) {
                return diff;
            }
        }
        self + &(-rhs.clone())
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            if *an == 0 || *bn == 0 {
                return Rational::zero();
            }
            // Two integers need no gcd. Otherwise cross-reduce before multiplying:
            // gcd(|a_n|, b_d) and gcd(|b_n|, a_d) divide out, so the products are
            // already fully reduced (each numerator factor is coprime to each
            // denominator factor) and much less likely to overflow.
            if *ad == 1 && *bd == 1 {
                if let Some(num) = an.checked_mul(*bn) {
                    return Rational { repr: Repr::Small(num, 1) };
                }
            } else if let (Some(g1), Some(g2)) = (gcd_i128(*an, *bd), gcd_i128(*bn, *ad)) {
                let num = div_exact(*an, g1).checked_mul(div_exact(*bn, g2));
                let den = div_exact(*ad, g2).checked_mul(div_exact(*bd, g1));
                if let (Some(num), Some(den)) = (num, den) {
                    return Rational::small_coprime(num, den);
                }
            }
        }
        big_mul(self, rhs)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        if let (Repr::Small(an, ad), Repr::Small(bn, bd)) = (&self.repr, &rhs.repr) {
            if *an == 0 {
                return Rational::zero();
            }
            if let (Some(g1), Some(g2)) = (gcd_i128(*an, *bn), gcd_i128(*ad, *bd)) {
                let num = div_exact(*an, g1).checked_mul(div_exact(*bd, g2));
                let den = div_exact(*ad, g2).checked_mul(div_exact(*bn, g1));
                if let (Some(num), Some(den)) = (num, den) {
                    // Already coprime by the same cross-reduction argument; the
                    // denominator carries `bn`'s sign, which small_coprime fixes.
                    return Rational::small_coprime(num, den);
                }
            }
        }
        big_div(self, rhs)
    }
}

macro_rules! forward_owned_binop {
    ($trait:ident, $method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                (&self).$method(rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$method(&rhs)
            }
        }
    };
}

forward_owned_binop!(Add, add);
forward_owned_binop!(Sub, sub);
forward_owned_binop!(Mul, mul);
forward_owned_binop!(Div, div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = &*self + &rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = &*self - &rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = &*self * &rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    /// A deterministic grid of rationals covering signs, integers, and ratios with
    /// shared and coprime factors (offline stand-in for property testing).
    fn sample_rationals() -> Vec<Rational> {
        let numerators = [-1000i64, -999, -17, -3, -1, 0, 1, 2, 5, 64, 501, 999];
        let denominators = [1i64, 2, 3, 7, 64, 99, 1000];
        let mut samples = Vec::new();
        for n in numerators {
            for d in denominators {
                samples.push(r(n, d));
            }
        }
        samples
    }

    #[test]
    fn normalization() {
        assert_eq!(r(6, 8), r(3, 4));
        assert_eq!(r(6, -8), r(-3, 4));
        assert_eq!(r(-6, -8), r(3, 4));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(0, -5), Rational::zero());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 3), r(1, 2));
        assert_eq!(-r(2, 3), r(-2, 3));
    }

    #[test]
    fn comparisons() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 1) > r(13, 2));
        assert_eq!(r(2, 4).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil_round() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4i64));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4i64));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3i64));
        assert_eq!(r(6, 2).floor(), BigInt::from(3i64));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3i64));
        assert_eq!(r(5, 2).round(), BigInt::from(3i64));
        assert_eq!(r(-5, 2).round(), BigInt::from(-3i64));
        assert_eq!(r(9, 4).round(), BigInt::from(2i64));
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(r(3, 4).to_string(), "3/4");
        assert_eq!(r(8, 4).to_string(), "2");
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("7".parse::<Rational>().unwrap(), r(7, 1));
        assert_eq!("2.5".parse::<Rational>().unwrap(), r(5, 2));
        assert_eq!("-0.25".parse::<Rational>().unwrap(), r(-1, 4));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
    }

    #[test]
    fn f64_conversions() {
        assert_eq!(Rational::from_f64(0.5), r(1, 2));
        assert_eq!(Rational::from_f64(-0.25), r(-1, 4));
        assert_eq!(Rational::from_f64(3.0), r(3, 1));
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(Rational::from_f64(0.0), Rational::zero());
        // Tiny and huge doubles exercise the shift edges of the small path.
        assert_eq!(Rational::from_f64(2f64.powi(-100)).to_f64(), 2f64.powi(-100));
        assert_eq!(Rational::from_f64(2f64.powi(100)).to_f64(), 2f64.powi(100));
        // Beyond the inline shifts the conversion stays exact even though it takes
        // the BigInt route (2^200 · 19 is a 205-bit numerator).
        let big = Rational::from_f64(19.0) * Rational::from(BigInt::from(2i64).pow(200));
        assert_eq!(big.numerator(), &BigInt::from(19i64) * &BigInt::from(2i64).pow(200));
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(3, 4).recip(), r(4, 3));
        assert_eq!(r(-3, 4).recip(), r(-4, 3));
        assert_eq!(r(2, 3).pow(3), r(8, 27));
        assert_eq!(r(2, 3).pow(0), Rational::one());
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 2).min(r(1, 3)), r(1, 3));
        assert_eq!(r(1, 2).max(r(1, 3)), r(1, 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = r(1, 2);
        x += r(1, 3);
        assert_eq!(x, r(5, 6));
        x -= r(1, 6);
        assert_eq!(x, r(2, 3));
        x *= r(3, 2);
        assert_eq!(x, Rational::one());
    }

    #[test]
    fn add_commutes_and_sub_is_add_neg() {
        let samples = sample_rationals();
        for x in &samples {
            for y in &samples {
                assert_eq!(x + y, y + x);
                assert_eq!(x - y, x + &(-y.clone()));
            }
        }
    }

    #[test]
    fn add_is_associative() {
        let samples = sample_rationals();
        // A coarser sub-grid keeps the triple loop fast.
        let subset: Vec<&Rational> = samples.iter().step_by(5).collect();
        for &x in &subset {
            for &y in &subset {
                for &z in &subset {
                    assert_eq!(&(x + y) + z, x + &(y + z));
                }
            }
        }
    }

    #[test]
    fn mul_inverse_gives_one() {
        for x in sample_rationals() {
            if !x.is_zero() {
                assert_eq!(&x * &x.recip(), Rational::one());
            }
        }
    }

    #[test]
    fn floor_le_value_le_ceil() {
        for x in sample_rationals() {
            let fl = Rational::from(x.floor());
            let ce = Rational::from(x.ceil());
            assert!(fl <= x && x <= ce);
            assert!(&ce - &fl <= Rational::one());
        }
    }

    #[test]
    fn f64_roundtrip_close() {
        for x in sample_rationals() {
            let back = Rational::from_f64(x.to_f64());
            let diff = (&x - &back).abs();
            assert!(diff < r(1, 1_000_000), "roundtrip drift for {x}");
        }
    }

    #[test]
    fn ordering_consistent_with_f64() {
        let samples = sample_rationals();
        for x in &samples {
            for y in &samples {
                if x < y {
                    assert!(x.to_f64() <= y.to_f64());
                }
            }
        }
    }

    // ----- i128 fast-path specifics ---------------------------------------------------

    /// A value beyond i128 (2^200) forced through the big path.
    fn huge() -> Rational {
        Rational::from(BigInt::from(2i64).pow(200))
    }

    #[test]
    fn small_values_stay_inline() {
        assert!(r(355, 113).is_small());
        assert!((r(999, 1000) + r(1, 3)).is_small());
        assert!(Rational::from_f64(1.0 / 3.0f64.sqrt()).is_small());
        assert!(!huge().is_small());
    }

    #[test]
    fn overflow_promotes_and_reduction_demotes() {
        // (2^100 / 3) * (3 / 2^100) = 1 — the product overflows i128 before the
        // cross-reduction brings it back; either way the result must be inline.
        let a = Rational::from_bigints(BigInt::from(2i64).pow(100), BigInt::from(3i64));
        assert!(a.is_small(), "2^100/3 fits i128");
        let b = a.recip();
        assert_eq!(&a * &b, Rational::one());
        assert!((&a * &b).is_small());
        // Squaring 2^100/3 exceeds i128 and must promote without losing exactness.
        let sq = &a * &a;
        assert!(!sq.is_small());
        assert_eq!(sq.numerator(), BigInt::from(2i64).pow(200));
        assert_eq!(sq.denominator(), BigInt::from(9i64));
        // Dividing back demotes to the inline form again (canonical representation).
        let back = &sq / &a;
        assert!(back.is_small());
        assert_eq!(back, a);
    }

    #[test]
    fn mixed_repr_arithmetic_is_exact() {
        let h = huge();
        let one = Rational::one();
        assert_eq!(&(&h + &one) - &h, one);
        assert_eq!(&h - &h, Rational::zero());
        assert_eq!(&(&h * &r(3, 7)) / &r(3, 7), h);
        assert!(h > r(1_000_000, 1));
        assert!(-h.clone() < r(-1_000_000, 1));
    }

    #[test]
    fn equality_and_hash_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // The same value built through the big constructor and the small one.
        let via_big = Rational::from_bigints(
            &BigInt::from(2i64).pow(150) * &BigInt::from(6i64),
            &BigInt::from(2i64).pow(150) * &BigInt::from(4i64),
        );
        let via_small = r(3, 2);
        assert!(via_big.is_small(), "reduction must demote to the inline form");
        assert_eq!(via_big, via_small);
        let hash = |v: &Rational| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&via_big), hash(&via_small));
    }

    #[test]
    fn extreme_i128_magnitudes_survive() {
        let min = Rational::from(BigInt::from(i128::MIN));
        assert!(min.is_small());
        let negated = -min.clone();
        assert_eq!(&negated + &min, Rational::zero());
        assert_eq!(&min * &r(1, 1), min);
        assert!((&min - &Rational::one()) < min);
        assert_eq!(min.floor(), BigInt::from(i128::MIN));
        assert_eq!(min.ceil(), BigInt::from(i128::MIN));
    }

    #[test]
    fn gcd_helpers() {
        assert_eq!(gcd_u128(0, 7), 7);
        assert_eq!(gcd_u128(48, 36), 12);
        assert_eq!(gcd_i128(-48, 36), Some(12));
        assert_eq!(gcd_i128(i128::MIN, 0), None);
        assert_eq!(gcd_i128(i128::MIN, 3), Some(1));
    }

    /// Every word-sized fast path (integer operands, unit gcds, 64-bit gcds and
    /// divisions, Knuth's reduced sum, the zero operands) must return exactly what the
    /// `BigInt` reference returns, compared under the derived `Eq`, so an unreduced
    /// or otherwise non-canonical `(num, den)` fails even when its value is right.
    /// The grid crosses the word and `i128` bounds, so results land in both forms.
    #[test]
    fn fast_paths_equal_the_big_reference_on_an_edge_grid() {
        let pow2 = |e: u32| BigInt::from(2i64).pow(e);
        let mut numerators = vec![BigInt::zero()];
        for magnitude in [BigInt::one(), pow2(31), pow2(62), pow2(64), pow2(100)] {
            numerators.push(-magnitude.clone());
            numerators.push(magnitude);
        }
        numerators.extend([
            BigInt::from(i64::MAX),
            BigInt::from(i64::MIN),
            BigInt::from(i128::MAX),
            BigInt::from(i128::MIN + 1),
            BigInt::from(i128::MIN),
        ]);
        let denominators = [
            BigInt::one(),
            BigInt::from(2i64),
            BigInt::from(3i64),
            pow2(31),
            BigInt::from(i64::MAX),
            pow2(64),
            BigInt::from(i128::MAX),
        ];
        let mut grid = Vec::new();
        for num in &numerators {
            for den in &denominators {
                grid.push(Rational::from_bigints(num.clone(), den.clone()));
            }
        }
        assert!(grid.iter().all(Rational::is_small), "the grid itself is inline");
        for a in &grid {
            for b in &grid {
                assert_eq!(a + b, big_add(a, b), "{a} + {b}");
                assert_eq!(a - b, big_add(a, &-b), "{a} - {b}");
                assert_eq!(a * b, big_mul(a, b), "{a} * {b}");
                if !b.is_zero() {
                    assert_eq!(a / b, big_div(a, b), "{a} / {b}");
                }
            }
        }
    }

    /// The exact LP stores every eta entry, column non-zero, dual and reduced-cost
    /// cache slot as a `Rational`: the boxed big form keeps its size at the inline
    /// `i128` pair plus the tag.
    #[test]
    fn rational_is_no_wider_than_the_inline_pair() {
        assert!(std::mem::size_of::<Rational>() <= 48);
    }
}
