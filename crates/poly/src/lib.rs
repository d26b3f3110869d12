//! Polynomial arithmetic for the diffcost analyzer.
//!
//! The synthesis algorithm of the paper needs one affine form and one polynomial, each
//! generic in what it ranges over:
//!
//! * [`Affine<K>`] — affine forms (degree ≤ 1) over keys `K`. [`LinExpr`] ranges over
//!   program variables: transition guards, initial conditions `Θ0`, and the affine
//!   invariants assumed in Section 5. [`LinForm`] ranges over *LP unknowns*
//!   ([`UnknownId`]): the coefficients of templates and the rows of the synthesis LP.
//! * [`Poly<C>`] — multivariate polynomials over program variables with coefficients `C`
//!   (see [`Coeff`]). [`Polynomial`] has rational coefficients: transition updates and
//!   the products `Prod_K(Aff)` of Handelman's theorem. [`TemplatePolynomial`] has
//!   [`LinForm`] coefficients: the potential / anti-potential templates `Σ u_{ℓ,m}·m`
//!   of Step 1 and all constraint expressions of Step 2.
//!
//! Variables are interned in a [`VarPool`] and referenced by the compact [`VarId`].
//!
//! # Example
//!
//! ```
//! use dca_poly::{Polynomial, VarPool};
//!
//! let mut pool = VarPool::new();
//! let x = pool.intern("x");
//! let y = pool.intern("y");
//! // (x + y)^2 = x^2 + 2xy + y^2
//! let p = (Polynomial::var(x) + Polynomial::var(y)).pow(2);
//! assert_eq!(p.degree(), 2);
//! assert_eq!(p.to_string(&pool), "x^2 + 2*x*y + y^2");
//! ```

/// Implements the owned and mixed-ownership forms of a binary operator from its
/// `&lhs op &rhs` body.
macro_rules! forward_owned_binop {
    (impl[$($generics:tt)*] $trait:ident::$method:ident for $lhs:ty, $rhs:ty) => {
        impl<$($generics)*> $trait<$rhs> for $lhs {
            type Output = $lhs;
            fn $method(self, rhs: $rhs) -> $lhs {
                (&self).$method(&rhs)
            }
        }
        impl<$($generics)*> $trait<&$rhs> for $lhs {
            type Output = $lhs;
            fn $method(self, rhs: &$rhs) -> $lhs {
                (&self).$method(rhs)
            }
        }
        impl<$($generics)*> $trait<$rhs> for &$lhs {
            type Output = $lhs;
            fn $method(self, rhs: $rhs) -> $lhs {
                self.$method(&rhs)
            }
        }
    };
}

mod linexpr;
mod monomial;
mod polynomial;
mod template;
mod vars;

pub use linexpr::{Affine, Assignment, LinExpr, LinForm};
pub use monomial::{monomials_up_to_degree, Monomial};
pub use polynomial::{Coeff, Poly, Polynomial};
pub use template::{TemplatePolynomial, UnknownId};
pub use vars::{VarId, VarPool};

/// A variable assignment mapping [`VarId`]s to exact rational values.
pub type Valuation = std::collections::HashMap<VarId, dca_numeric::Rational>;
