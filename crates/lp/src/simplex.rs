//! The input and output of a simplex run: the standard form and the raw solution.
//!
//! A [`StandardForm`] holds its constraint matrix the one way the revised simplex
//! reads it: sparse and column-major ([`Columns`]), built directly from the
//! constraint terms by [`crate::problem::LpProblem`]. No dense copy of the matrix
//! exists on any solve path. Exact solves ([`crate::exact`]) borrow the form as
//! built; only the `f64` loop ([`crate::float`]), for which conditioning matters,
//! scales its own `f64` form in place. All-zero columns need no special case: such a
//! column's reduced cost is its own cost, so phase 2 prices it in only when that
//! cost is negative — and then it is a genuine unbounded ray.

use std::borrow::Cow;

use crate::problem::{LpSolveInfo, LpStatus};
use crate::revised::Columns;
use crate::scalar::Scalar;

/// A problem in standard form: minimize `costs · y` subject to `A · y = rhs`,
/// `y ≥ 0`, with `rhs ≥ 0` componentwise.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm<S> {
    /// The constraint matrix `A`, column-major: one sparse column per structural
    /// variable, entries in ascending row order, no exactly-zero entry.
    pub columns: Columns<S>,
    /// Right-hand sides (all non-negative), one per row.
    pub rhs: Vec<S>,
    /// Objective coefficients, one per column.
    pub costs: Vec<S>,
    /// The `(x⁺, x⁻)` column pairs of split `Free` variables. The twins are exact
    /// negations of each other (column and cost), so while one is basic the
    /// other's reduced cost is exactly zero and pricing skips it.
    pub free_pairs: Vec<(usize, usize)>,
}

impl<S: Scalar> StandardForm<S> {
    /// Number of constraint rows.
    pub(crate) fn num_rows(&self) -> usize {
        self.columns.rows
    }

    /// The sub-problem over the ascending column subset `cols`, gathered in
    /// O(nnz). Every row is kept, so the sub-problem's duals price the full
    /// form's columns directly. A subset naming every column is the form itself,
    /// borrowed.
    pub(crate) fn restricted(&self, cols: &[usize]) -> Cow<'_, StandardForm<S>> {
        if cols.len() == self.costs.len() {
            return Cow::Borrowed(self);
        }
        let position = |col: usize| cols.binary_search(&col).ok();
        Cow::Owned(StandardForm {
            columns: Columns {
                cols: cols.iter().map(|&j| self.columns.cols[j].clone()).collect(),
                rows: self.num_rows(),
            },
            rhs: self.rhs.clone(),
            costs: cols.iter().map(|&j| self.costs[j].clone()).collect(),
            free_pairs: self
                .free_pairs
                .iter()
                .filter_map(|&(pos, neg)| Some((position(pos)?, position(neg)?)))
                .collect(),
        })
    }
}

/// Raw solver output over standard-form columns.
#[derive(Debug, Clone)]
pub(crate) struct RawSolution<S> {
    pub status: LpStatus,
    pub values: Vec<S>,
    /// Basic structural columns at termination, in standard-form indices; the
    /// caller turns these into a reusable warm start.
    pub basis: Vec<usize>,
    /// The terminal dual `y = c_B B⁻¹` of an exact verdict, over the rows of the
    /// form the simplex pivoted on: the phase-2 dual of a proven (non-truncated)
    /// `Optimal`, the phase-1 Farkas certificate of an `Infeasible`. Only the
    /// exact side fills this in (the `f64` dual certifies nothing); row
    /// generation prices excluded columns against it.
    pub dual: Option<Vec<S>>,
    /// An exact lower bound `y·b` on the true optimum, recovered from a
    /// dual-feasible basis the certifier rejected on primal grounds (weak duality).
    /// Populated only for truncated (anytime) answers, whose objective is an upper
    /// bound: together they bracket the unproven optimum.
    pub dual_bound: Option<S>,
    /// Size and effort accounting: iterations, the anytime `truncated` flag, the
    /// exact simplex's LU updates and refactorizations and, under the float-first
    /// solve, the per-phase split.
    pub info: LpSolveInfo,
}

impl<S> RawSolution<S> {
    pub(crate) fn bare(status: LpStatus) -> RawSolution<S> {
        RawSolution {
            status,
            values: Vec::new(),
            basis: Vec::new(),
            dual: None,
            dual_bound: None,
            info: LpSolveInfo::default(),
        }
    }
}

impl<S: Scalar> RawSolution<S> {
    /// The answer of a form without constraints: 0 at the origin, unless some cost
    /// is negative (unbounded).
    pub(crate) fn unconstrained(costs: &[S]) -> RawSolution<S> {
        let unbounded = costs.iter().any(Scalar::is_negative);
        let mut solution =
            RawSolution::bare(if unbounded { LpStatus::Unbounded } else { LpStatus::Optimal });
        solution.values = vec![S::zero(); costs.len()];
        solution
    }
}
