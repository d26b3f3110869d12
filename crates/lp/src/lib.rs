//! Linear programming for the diffcost analyzer.
//!
//! Step 4 of the paper's algorithm solves a single linear program — "minimize the
//! threshold `t` subject to all collected linear constraints" — with an off-the-shelf
//! solver (the paper uses Gurobi). This crate provides that substrate: a *sparse
//! revised* two-phase simplex over an eta-file basis factorization, in two loops,
//! one per arithmetic. The `f64` loop only proposes (equilibration, perturbation,
//! Devex pricing, periodic magnitude-pivoted reinversion); the exact
//! [`Rational`](dca_numeric::Rational) loop decides (Bland's rule, an incremental
//! dual, Markowitz LU refactorization when the eta file outgrows the basis). They
//! share only the sparse columns, the eta file, the ratio test and the pivot
//! update. [`LpProblem`] writes its standard form (`min c·y`,
//! `Ay = b`, `y ≥ 0`, `b ≥ 0`) once, straight from the constraint terms, as sparse
//! columns: one list of `(row, value)` non-zeros per column, in ascending row order.
//! That column-major form is the only representation of the matrix on any solve
//! path; no dense copy is ever made. Exact solves borrow it as built, the `f64`
//! loop equilibrates its own `f64` form in place, and row generation gathers its
//! core columns once, in time linear in their non-zeros (a core that excludes no
//! column is the form itself). Every solve runs on the
//! standard form exactly as built, with no reduction pass in front. Two entry
//! points run the two loops, and in both every verdict is exact:
//!
//! * [`LpProblem::solve_certified`] is the analysis's LP path: the `f64` simplex
//!   only proposes a candidate optimal basis, an exact-rational certifier accepts
//!   or rejects it once, a rejected (or absent) candidate goes to one warm-started
//!   exact simplex run, and every verdict is produced by exact arithmetic. It is
//!   one path with delayed generation of Handelman product columns: a certified
//!   solve of the core without the lazy ones (every column, when there are
//!   none), one exact pricing pass over them against the dual the deciding run
//!   stopped on, and, only if one prices in, one exact solve over every column;
//! * [`LpProblem::solve_exact`] runs the exact loop alone, from scratch: the
//!   cross-checking reference.
//!
//! [`LpProblem::exact_minimizer`] runs the same exact loop as a session over fixed
//! constraints: the standard form is built once, phase 1 runs at most once, and
//! each [`ExactMinimizer::minimize`] re-runs only phase 2 from the previous basis.
//! It decides the invariant engine's entailment and emptiness queries and
//! `dca_core::verify::bound_var`, whose LPs are a few rows each.
//!
//! The float loop has no entry point of its own: its only input is the `f64` image
//! of an exact standard form, and the certified solve reads every status it
//! reports as a hint.
//!
//! Solves can be *warm-started* from the final basis of a previous related problem
//! (the `warm` argument of [`LpProblem::solve_certified`], an [`LpBasis`]): basic
//! columns are matched by name, so the basis survives into a structurally different
//! LP — the serve engine's near-match path replays the basis of an edited program's
//! cached ancestor.
//! A warm basis is a hint matched by name and never an input to a verdict — every
//! verdict of the certified solve is decided in exact arithmetic, so a basis from
//! any origin changes only the pivot path — and it therefore records no origin.
//!
//! # Example
//!
//! ```
//! use dca_lp::{ConstraintOp, LpProblem, LpStatus, VarKind};
//! use dca_numeric::Rational;
//!
//! // minimize x + y  s.t.  x + 2y >= 4,  3x + y >= 6,  x,y >= 0
//! let mut lp = LpProblem::new();
//! let x = lp.add_var("x", VarKind::NonNegative);
//! let y = lp.add_var("y", VarKind::NonNegative);
//! lp.add_constraint(vec![(x, Rational::one()), (y, Rational::from_int(2))],
//!                   ConstraintOp::Ge, Rational::from_int(4));
//! lp.add_constraint(vec![(x, Rational::from_int(3)), (y, Rational::one())],
//!                   ConstraintOp::Ge, Rational::from_int(6));
//! lp.set_objective(vec![(x, Rational::one()), (y, Rational::one())]);
//! let solution = lp.solve_exact();
//! assert_eq!(solution.status, LpStatus::Optimal);
//! assert_eq!(solution.objective.unwrap(), Rational::new(14, 5));
//! ```

// Library paths must not panic on fallible state (a worker panic poisons a whole
// batch); every remaining `unwrap`/`expect` is either test-only or carries a local
// `#[allow]` with a proof of infallibility.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod certify;
mod deadline;
#[cfg(test)]
mod dense;
mod exact;
pub mod fault;
mod float;
mod lu;
mod minimizer;
mod problem;
mod revised;
mod scalar;
mod simplex;

pub use deadline::Deadline;
pub use fault::{FaultKind, FaultSpec, SolvePhase};
pub use minimizer::{ExactMinimizer, MinimizerState, Minimum};
pub use problem::{
    ConstraintOp, LpBasis, LpConstraint, LpProblem, LpProgress, LpResult, LpSolveInfo, LpStatus,
    LpVar, VarKind,
};
pub use scalar::Scalar;
