//! Template polynomials: polynomials whose coefficients are affine forms over LP unknowns.
//!
//! Step 1 of the paper's algorithm fixes, for every program location, a symbolic
//! polynomial `Σ_{m ∈ Mono_d(V)} u_{ℓ,m} · m` whose coefficients `u_{ℓ,m}` are fresh LP
//! unknowns. All subsequent constraint manipulation (substituting transition updates,
//! subtracting incurred cost, forming the differential constraint with the threshold
//! unknown `t`) stays *linear* in these unknowns. [`TemplatePolynomial`] captures exactly
//! this shape: a [`Poly`] over program variables whose coefficient at each monomial is
//! a [`LinForm`] — an affine combination of [`UnknownId`]s.

use std::collections::BTreeMap;

use dca_numeric::Rational;

use crate::linexpr::LinForm;
use crate::monomial::Monomial;
use crate::polynomial::{Poly, Polynomial};

/// Identifier of an LP unknown (template coefficient, threshold, or Handelman multiplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnknownId(pub u32);

impl UnknownId {
    /// Index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for UnknownId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// A polynomial over program variables whose coefficients are [`LinForm`]s over unknowns.
///
/// # Examples
///
/// ```
/// use dca_poly::{LinForm, Monomial, TemplatePolynomial, UnknownId, VarPool};
///
/// let mut pool = VarPool::new();
/// let x = pool.intern("x");
/// // template: u0 + u1*x
/// let mut t = TemplatePolynomial::zero();
/// t.add_term(Monomial::unit(), LinForm::var(UnknownId(0)));
/// t.add_term(Monomial::var(x), LinForm::var(UnknownId(1)));
/// assert_eq!(t.num_terms(), 2);
/// ```
pub type TemplatePolynomial = Poly<LinForm>;

impl TemplatePolynomial {
    /// Lifts a concrete polynomial into a template polynomial with constant coefficients.
    pub fn from_polynomial(p: &Polynomial) -> TemplatePolynomial {
        Poly::from_terms(p.iter().map(|(m, c)| (m.clone(), LinForm::constant(c.clone()))))
    }

    /// A template polynomial consisting of a single unknown as its constant term.
    pub fn from_unknown(u: UnknownId) -> TemplatePolynomial {
        Poly::constant(LinForm::var(u))
    }

    /// Builds the standard location template `Σ_m u_m · m` over the given monomials.
    ///
    /// `unknowns` must be the same length as `monomials`.
    pub fn from_template(monomials: &[Monomial], unknowns: &[UnknownId]) -> TemplatePolynomial {
        assert_eq!(monomials.len(), unknowns.len());
        Poly::from_terms(monomials.iter().cloned().zip(unknowns.iter().map(|&u| LinForm::var(u))))
    }

    /// Instantiates the template with concrete values for the unknowns, producing a
    /// concrete [`Polynomial`]. Unknowns missing from the assignment default to 0.
    pub fn instantiate(&self, assignment: &BTreeMap<UnknownId, Rational>) -> Polynomial {
        Poly::from_terms(self.iter().map(|(m, f)| (m.clone(), f.eval(assignment))))
    }

    /// All unknowns mentioned anywhere in the template polynomial.
    pub fn unknowns(&self) -> Vec<UnknownId> {
        let mut out: Vec<UnknownId> = self.iter().flat_map(|(_, f)| f.vars()).collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::monomials_up_to_degree;
    use crate::vars::{VarId, VarPool};
    use crate::Valuation;

    fn setup() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    #[test]
    fn linform_arithmetic() {
        let (u0, u1) = (UnknownId(0), UnknownId(1));
        let f = LinForm::var(u0) + LinForm::var(u1).scale(&Rational::from_int(2));
        let g = LinForm::var(u0).scale(&Rational::from_int(-1)) + LinForm::constant(Rational::from_int(3));
        let s = &f + &g;
        assert_eq!(s.coeff(u0), Rational::zero());
        assert_eq!(s.coeff(u1), Rational::from_int(2));
        assert_eq!(*s.constant_term(), Rational::from_int(3));
        assert!( (&f - &f).is_zero() );
    }

    #[test]
    fn linform_eval() {
        let (u0, u1) = (UnknownId(0), UnknownId(1));
        let f = LinForm::var(u0).scale(&Rational::from_int(2))
            + LinForm::var(u1).scale(&Rational::from_int(-3))
            + LinForm::constant(Rational::from_int(1));
        let mut asg = BTreeMap::new();
        asg.insert(u0, Rational::from_int(5));
        asg.insert(u1, Rational::from_int(2));
        assert_eq!(f.eval(&asg), Rational::from_int(5));
        // missing unknowns default to zero
        assert_eq!(LinForm::var(UnknownId(7)).eval(&asg), Rational::zero());
    }

    #[test]
    fn template_from_monomials() {
        let (_, x, y) = setup();
        let monos = monomials_up_to_degree(&[x, y], 2);
        let unknowns: Vec<UnknownId> = (0..monos.len() as u32).map(UnknownId).collect();
        let t = TemplatePolynomial::from_template(&monos, &unknowns);
        assert_eq!(t.num_terms(), 6);
        assert_eq!(t.degree(), 2);
        assert_eq!(t.unknowns().len(), 6);
    }

    #[test]
    fn template_substitution_matches_concrete() {
        let (_, x, y) = setup();
        // template: u0*x^2 + u1*y. Substitute x -> y + 1.
        let (u0, u1) = (UnknownId(0), UnknownId(1));
        let mut t = TemplatePolynomial::zero();
        t.add_term(Monomial::from_powers(vec![(x, 2)]), LinForm::var(u0));
        t.add_term(Monomial::var(y), LinForm::var(u1));
        let mut subst = BTreeMap::new();
        subst.insert(x, Polynomial::var(y) + Polynomial::from_int(1));
        let substituted = t.substitute(&subst);

        // Instantiate with u0 = 2, u1 = -1 and compare against the concrete computation.
        let mut asg = BTreeMap::new();
        asg.insert(u0, Rational::from_int(2));
        asg.insert(u1, Rational::from_int(-1));
        let inst_then_subst = t.instantiate(&asg).substitute(&subst);
        let subst_then_inst = substituted.instantiate(&asg);
        assert_eq!(inst_then_subst, subst_then_inst);
    }

    #[test]
    fn evaluation_commutes_with_instantiation() {
        let (_, x, y) = setup();
        let monos = monomials_up_to_degree(&[x, y], 2);
        let unknowns: Vec<UnknownId> = (0..monos.len() as u32).map(UnknownId).collect();
        let t = TemplatePolynomial::from_template(&monos, &unknowns);
        let asg: BTreeMap<UnknownId, Rational> =
            unknowns.iter().map(|&u| (u, Rational::new(u.0 as i64 - 2, 3))).collect();
        let mut v = Valuation::new();
        v.insert(x, Rational::from_int(-2));
        v.insert(y, Rational::from_int(5));
        assert_eq!(t.eval(&v).eval(&asg), t.instantiate(&asg).eval(&v));
    }

    #[test]
    fn instantiation_evaluates() {
        let (_, x, _) = setup();
        let u0 = UnknownId(0);
        let mut t = TemplatePolynomial::zero();
        t.add_term(Monomial::var(x), LinForm::var(u0));
        t.add_term(Monomial::unit(), LinForm::constant(Rational::from_int(3)));
        let mut asg = BTreeMap::new();
        asg.insert(u0, Rational::from_int(4));
        let p = t.instantiate(&asg);
        let mut v = Valuation::new();
        v.insert(x, Rational::from_int(2));
        assert_eq!(p.eval(&v), Rational::from_int(11));
    }

    #[test]
    fn product_with_a_polynomial_distributes() {
        let (_, x, y) = setup();
        let u0 = UnknownId(0);
        // (u0 * x) * (x + y) = u0*x^2 + u0*x*y
        let mut t = TemplatePolynomial::zero();
        t.add_term(Monomial::var(x), LinForm::var(u0));
        let p = Polynomial::var(x) + Polynomial::var(y);
        let prod = &t * &p;
        assert_eq!(prod.num_terms(), 2);
        assert_eq!(prod.coeff(&Monomial::from_powers(vec![(x, 2)])), LinForm::var(u0));
        assert_eq!(
            prod.coeff(&Monomial::from_powers(vec![(x, 1), (y, 1)])),
            LinForm::var(u0)
        );
    }

    #[test]
    fn add_sub_cancel() {
        let (_, x, _) = setup();
        let u0 = UnknownId(0);
        let mut t = TemplatePolynomial::zero();
        t.add_term(Monomial::var(x), LinForm::var(u0));
        let z = &t - &t;
        assert!(z.is_zero());
        let lifted = TemplatePolynomial::from_polynomial(&Polynomial::var(x));
        assert_eq!(lifted.coeff(&Monomial::var(x)), LinForm::constant(Rational::one()));
    }
}
