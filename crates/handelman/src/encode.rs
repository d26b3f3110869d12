//! Product enumeration and translation of implication constraints into linear equalities.

use dca_numeric::Rational;
use dca_poly::{LinExpr, LinForm, Monomial, Polynomial, TemplatePolynomial, UnknownId};

use crate::factory::{UnknownFactory, UnknownKind};

/// Sense of a linear constraint over LP unknowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `form = 0`
    Eq,
    /// `form ≥ 0`
    Ge,
}

/// A linear constraint `form (= | ≥) 0` over LP unknowns.
#[derive(Debug, Clone, PartialEq)]
pub struct UnknownConstraint {
    /// The affine form over unknowns.
    pub form: LinForm,
    /// Equality or inequality.
    pub sense: ConstraintSense,
    /// Human-readable origin, used in diagnostics.
    pub origin: String,
}

impl UnknownConstraint {
    /// Creates an equality constraint `form = 0`.
    pub fn eq(form: LinForm, origin: impl Into<String>) -> UnknownConstraint {
        UnknownConstraint { form, sense: ConstraintSense::Eq, origin: origin.into() }
    }

    /// Creates an inequality constraint `form ≥ 0`.
    pub fn ge(form: LinForm, origin: impl Into<String>) -> UnknownConstraint {
        UnknownConstraint { form, sense: ConstraintSense::Ge, origin: origin.into() }
    }
}

/// The result of encoding one implication constraint.
#[derive(Debug, Clone)]
pub struct HandelmanEncoding {
    /// Linear constraints over unknowns (coefficient-matching equalities).
    pub constraints: Vec<UnknownConstraint>,
    /// The multiplier unknowns `c_g` introduced for this constraint (all non-negative).
    pub multipliers: Vec<UnknownId>,
    /// The products `g ∈ Prod_K(Aff)` in the same order as `multipliers`.
    pub products: Vec<Polynomial>,
}

impl HandelmanEncoding {
    /// Multiplier unknowns whose product has degree ≥ 2 — the candidates a lazy
    /// row-generation LP solve may defer. Degree-≤-1 products (the constant `1`
    /// and the premise expressions themselves) form the always-active core: they
    /// are few, they anchor feasibility, and the stable graded product order
    /// guarantees they occupy a prefix of `multipliers`, so the lazy set is
    /// always a suffix per origin.
    pub fn lazy_multipliers(&self) -> Vec<UnknownId> {
        self.products
            .iter()
            .zip(&self.multipliers)
            .filter(|(product, _)| product.degree() >= 2)
            .map(|(_, &multiplier)| multiplier)
            .collect()
    }
}

/// Enumerates `Prod_K(Aff)`: all products of at most `max_factors` expressions from
/// `aff` (with repetition), including the empty product `1`.
///
/// # Examples
///
/// ```
/// use dca_handelman::products_up_to;
/// use dca_poly::{LinExpr, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.intern("x");
/// let aff = vec![LinExpr::var(x), LinExpr::from_int(10) - LinExpr::var(x)];
/// // 1, x, 10-x, x^2, x(10-x), (10-x)^2
/// assert_eq!(products_up_to(&aff, 2).len(), 6);
/// ```
pub fn products_up_to(aff: &[LinExpr], max_factors: u32) -> Vec<Polynomial> {
    let base: Vec<Polynomial> = aff.iter().map(LinExpr::to_polynomial).collect();
    let mut result = vec![Polynomial::one()];
    // Enumerate multisets of indices of size 1..=max_factors.
    fn recurse(
        base: &[Polynomial],
        start: usize,
        remaining: u32,
        current: &Polynomial,
        out: &mut Vec<Polynomial>,
    ) {
        if remaining == 0 {
            return;
        }
        for idx in start..base.len() {
            let next = current * &base[idx];
            out.push(next.clone());
            recurse(base, idx, remaining - 1, &next, out);
        }
    }
    recurse(&base, 0, max_factors, &Polynomial::one(), &mut result);
    // Deduplicate identical products globally (they arise whenever `aff` repeats an
    // expression, or two different factor multisets multiply out to the same
    // polynomial); each duplicate would add a redundant multiplier column to the LP.
    // Hash-set based: the degree-3 encodings enumerate thousands of products, and a
    // quadratic scan over full polynomial comparisons would burn seconds of the very
    // LP budget the dedup is meant to save.
    let mut seen: std::collections::HashSet<Polynomial> =
        std::collections::HashSet::with_capacity(result.len());
    result.retain(|product| seen.insert(product.clone()));
    // Stable graded order: products of lower degree first, ties broken by the term
    // list. Two consequences the LP layer relies on: (1) the emitted multiplier
    // columns — and hence their `lambda[origin#i]` names — are deterministic for a
    // given `aff` set, and (2) raising `max_factors` only *appends* products, so the
    // shared columns of two related encodings keep their names and one's basis
    // remains a valid warm start for the other.
    result.sort_by(compare_polynomials);
    result
}

/// Graded comparison of polynomials: by total degree, then term-by-term on the sorted
/// `(monomial, coefficient)` lists. Used to give `Prod_K(Aff)` a stable order.
fn compare_polynomials(a: &Polynomial, b: &Polynomial) -> std::cmp::Ordering {
    a.degree()
        .cmp(&b.degree())
        .then_with(|| {
            let mut left = a.iter();
            let mut right = b.iter();
            loop {
                match (left.next(), right.next()) {
                    (None, None) => return std::cmp::Ordering::Equal,
                    (None, Some(_)) => return std::cmp::Ordering::Less,
                    (Some(_), None) => return std::cmp::Ordering::Greater,
                    (Some((ma, ca)), Some((mb, cb))) => {
                        let ord = ma.cmp(mb).then_with(|| ca.cmp(cb));
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                }
            }
        })
}

/// Encodes the implication `(∀x. aff_i(x) ≥ 0 for all i) ⟹ poly(x) ≥ 0` as linear
/// equalities over unknowns, introducing one fresh non-negative multiplier per product in
/// `Prod_K(aff)`.
///
/// `poly` is a [`TemplatePolynomial`]: its coefficients are affine in the existing LP
/// unknowns, so the coefficient-matching equalities are linear in (existing unknowns ∪
/// fresh multipliers).
///
/// The `origin` string is attached to every generated constraint for diagnostics.
pub fn encode_nonnegativity(
    aff: &[LinExpr],
    poly: &TemplatePolynomial,
    max_factors: u32,
    factory: &mut UnknownFactory,
    origin: &str,
) -> HandelmanEncoding {
    let products = products_up_to(aff, max_factors);
    let multipliers: Vec<UnknownId> = (0..products.len())
        .map(|i| factory.fresh(&format!("lambda[{origin}#{i}]"), UnknownKind::NonNegative))
        .collect();

    // Right-hand side Σ c_g · g as a template polynomial over the fresh multipliers.
    let mut rhs = TemplatePolynomial::zero();
    for (product, &multiplier) in products.iter().zip(&multipliers) {
        for (mono, coeff) in product.iter() {
            let form = LinForm::from_parts(Rational::zero(), [(multiplier, coeff.clone())]);
            rhs.add_term(mono.clone(), form);
        }
    }

    // Coefficient matching: for every monomial appearing on either side, lhs - rhs = 0.
    let mut monomials: Vec<Monomial> = poly.monomials();
    monomials.extend(rhs.monomials());
    monomials.sort();
    monomials.dedup();

    let constraints = monomials
        .iter()
        .map(|mono| {
            let difference = &poly.coeff(mono) - &rhs.coeff(mono);
            UnknownConstraint::eq(difference, format!("{origin}: coeff of {mono:?}"))
        })
        .collect();

    HandelmanEncoding { constraints, multipliers, products }
}

/// Checks a concrete Handelman certificate by evaluation: verifies that
/// `poly_inst = Σ c_g · g` holds as a polynomial identity, where `poly_inst` is the
/// template instantiated with the given assignment. Used by tests.
pub fn check_certificate(
    poly: &TemplatePolynomial,
    products: &[Polynomial],
    multipliers: &[UnknownId],
    assignment: &std::collections::BTreeMap<UnknownId, Rational>,
) -> bool {
    let lhs = poly.instantiate(assignment);
    let mut rhs = Polynomial::zero();
    for (product, multiplier) in products.iter().zip(multipliers) {
        let value = assignment.get(multiplier).cloned().unwrap_or_default();
        if value.is_negative() {
            return false;
        }
        rhs += &product.scale(&value);
    }
    lhs == rhs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use dca_poly::{monomials_up_to_degree, VarPool};

    fn setup() -> (VarPool, dca_poly::VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        (pool, x)
    }

    #[test]
    fn product_enumeration_counts() {
        let (_, x) = setup();
        let aff = vec![LinExpr::var(x), LinExpr::from_int(10) - LinExpr::var(x)];
        assert_eq!(products_up_to(&aff, 0).len(), 1); // just 1
        assert_eq!(products_up_to(&aff, 1).len(), 3); // 1, a, b
        assert_eq!(products_up_to(&aff, 2).len(), 6); // + a^2, ab, b^2
        assert_eq!(products_up_to(&aff, 3).len(), 10); // + a^3, a^2 b, a b^2, b^3
        assert_eq!(products_up_to(&[], 3), vec![Polynomial::one()]);
    }

    #[test]
    fn products_are_nonneg_on_region() {
        // On the region {x >= 0, 10 - x >= 0} every product must be >= 0.
        let (_, x) = setup();
        let aff = vec![LinExpr::var(x), LinExpr::from_int(10) - LinExpr::var(x)];
        let products = products_up_to(&aff, 3);
        for value in 0..=10i64 {
            let mut valuation = dca_poly::Valuation::new();
            valuation.insert(x, Rational::from_int(value));
            for p in &products {
                assert!(!p.eval(&valuation).is_negative(), "product negative at {value}");
            }
        }
    }

    /// Encode the known-valid fact `x ≥ 0 ∧ 10 − x ≥ 0 ⟹ 10x − x² ≥ 0` and check that
    /// the emitted LP constraints admit the obvious certificate `10x − x² = x·(10−x)`.
    #[test]
    fn encoding_admits_manual_certificate() {
        let (_, x) = setup();
        let aff = vec![LinExpr::var(x), LinExpr::from_int(10) - LinExpr::var(x)];
        // poly = 10x - x^2 as a template polynomial with constant coefficients.
        let target = Polynomial::var(x).scale(&Rational::from_int(10))
            - Polynomial::var(x) * Polynomial::var(x);
        let poly = TemplatePolynomial::from_polynomial(&target);
        let mut factory = UnknownFactory::new();
        let encoding = encode_nonnegativity(&aff, &poly, 2, &mut factory, "test");
        assert_eq!(encoding.multipliers.len(), 6);
        // Build the assignment: multiplier of the product x*(10-x) is 1, everything else 0.
        let witness_product = LinExpr::var(x).to_polynomial()
            * (LinExpr::from_int(10) - LinExpr::var(x)).to_polynomial();
        let mut assignment = BTreeMap::new();
        for (product, &multiplier) in encoding.products.iter().zip(&encoding.multipliers) {
            let value = if *product == witness_product {
                Rational::one()
            } else {
                Rational::zero()
            };
            assignment.insert(multiplier, value);
        }
        // The certificate must satisfy every emitted equality.
        for constraint in &encoding.constraints {
            assert_eq!(constraint.sense, ConstraintSense::Eq);
            assert!(
                constraint.form.eval(&assignment).is_zero(),
                "constraint violated: {}",
                constraint.origin
            );
        }
        assert!(check_certificate(
            &poly,
            &encoding.products,
            &encoding.multipliers,
            &assignment
        ));
    }

    #[test]
    fn encoding_with_template_unknowns_stays_linear() {
        // poly = u0 + u1*x with unknown coefficients; the encoding must mention u0, u1 and
        // the multipliers linearly (LinForm by construction), and produce one equality per
        // monomial of degree <= 1 plus any extra monomials from the products.
        let (_, x) = setup();
        let aff = vec![LinExpr::var(x), LinExpr::from_int(5) - LinExpr::var(x)];
        let mut factory = UnknownFactory::new();
        let u0 = factory.fresh("u0", UnknownKind::Free);
        let u1 = factory.fresh("u1", UnknownKind::Free);
        let monos = monomials_up_to_degree(&[x], 1);
        let poly = TemplatePolynomial::from_template(&monos, &[u0, u1]);
        let encoding = encode_nonnegativity(&aff, &poly, 2, &mut factory, "tmpl");
        // Monomials on the RHS go up to degree 2, so we expect 3 coefficient equalities.
        assert_eq!(encoding.constraints.len(), 3);
        let all_unknowns: Vec<UnknownId> = encoding
            .constraints
            .iter()
            .flat_map(|c| c.form.vars())
            .collect();
        assert!(all_unknowns.contains(&u0));
        assert!(all_unknowns.contains(&u1));
    }

    #[test]
    fn certificate_rejects_negative_multiplier() {
        let (_, x) = setup();
        let poly = TemplatePolynomial::from_polynomial(&Polynomial::var(x));
        let products = vec![Polynomial::var(x)];
        let mut factory = UnknownFactory::new();
        let c = factory.fresh("c", UnknownKind::NonNegative);
        let mut assignment = BTreeMap::new();
        assignment.insert(c, Rational::from_int(-1));
        assert!(!check_certificate(&poly, &products, &[c], &assignment));
    }
}
