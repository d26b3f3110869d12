//! Standard-form solving: equilibration and the sparse revised simplex.
//!
//! A [`StandardForm`] holds its constraint matrix the one way the revised simplex
//! reads it: sparse and column-major ([`Columns`]), built directly from the
//! constraint terms by [`crate::problem::LpProblem`]. No dense copy of the matrix
//! exists on any solve path. The pipeline for every solve is
//!
//! ```text
//! (f64 only: equilibrate a sparse copy → perturb) → revised simplex → unscale
//! ```
//!
//! Exact solves borrow the form as built; only the `f64` backend, for which
//! conditioning matters, scales a sparse copy of it.
//! All-zero columns need no special case: such a column's reduced cost is its own
//! cost, so phase 2 prices it in only when that cost is negative — and then it is a
//! genuine unbounded ray. [`crate::revised`] solves the form sparsely with
//! warm-start support. An `f64` run that fails to converge, or meets a direction it
//! cannot judge, reports [`LpStatus::IterationLimit`] and proposes no basis; the
//! float-first driver then hands the problem to the exact simplex (see
//! [`crate::certify`]).

use crate::deadline::Deadline;
use crate::problem::{LpSolveInfo, LpStatus};
use crate::revised::{solve_revised, Columns};
use crate::scalar::{abs as abs_scalar, Scalar};

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
    /// form's columns directly.
    pub(crate) fn restricted(&self, cols: &[usize]) -> StandardForm<S> {
        let position = |col: usize| cols.binary_search(&col).ok();
        StandardForm {
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
        }
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
    /// The terminal dual `y = c_B B⁻¹` of a *proven* exact optimum, over the rows
    /// of the form the simplex pivoted on. Only the exact
    /// backend fills this in (the `f64` dual certifies nothing), and only for
    /// non-truncated `Optimal`; the row-generation driver prices excluded columns
    /// against it without a separate Markowitz re-derivation.
    pub dual: Option<Vec<S>>,
    /// An exact lower bound `y·b` on the true optimum, recovered from a
    /// dual-feasible basis the certifier rejected on primal grounds (weak duality).
    /// Populated only for truncated (anytime) answers, whose objective is an upper
    /// bound: together they bracket the unproven optimum.
    pub dual_bound: Option<S>,
    /// Size and effort accounting: iterations, the anytime
    /// `truncated` flag and, under the float-first driver, the per-phase split.
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

/// Solves a standard-form problem with the two-phase revised simplex.
///
/// When `deadline` is set, the iteration loops poll the clock and bail out with
/// [`LpStatus::TimedOut`] once it passes.
///
/// `warm` seeds the initial basis with preferred structural columns; columns that
/// are dependent in the new system are silently dropped, so a stale warm start
/// degrades gracefully to a cold one.
///
/// A floating-point `Infeasible` verdict is re-examined once on a *perturbed* copy of
/// the problem: on heavily degenerate systems (the Handelman encodings are almost
/// entirely coefficient-matching equalities with zero right-hand sides) phase 1 can
/// stall at a positive objective even though the system is feasible — every improving
/// pivot has ratio zero and the tolerance-guided pricing goes in circles. Adding a tiny
/// deterministic positive offset to each right-hand side (the classical lexicographic-
/// perturbation cure) makes the basic values generically non-zero so every pivot makes
/// real progress; the phase-1 acceptance threshold accounts for the offsets. The
/// perturbed retry only runs when the plain solve claims infeasibility — and it reuses
/// the failed solve's final basis as its warm start, so the retry resumes from where
/// the stall happened instead of re-pivoting from scratch.
pub(crate) fn solve_standard_form<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
) -> RawSolution<S> {
    // Large Handelman systems are degenerate enough that the stall is the *expected*
    // failure mode — and the stall itself is what burns the time (thousands of
    // zero-progress pivots before the tolerance gives up). Above the row threshold the
    // perturbation is applied from the start instead of after a failed plain solve.
    let perturb_immediately = !S::IS_EXACT && form.num_rows() >= PERTURB_ROWS_THRESHOLD;
    let first_perturbation = if perturb_immediately { PERTURBATION } else { 0.0 };
    let solution = solve_standard_form_inner(form, deadline, first_perturbation, warm, None);
    if !S::IS_EXACT && !perturb_immediately && solution.status == LpStatus::Infeasible {
        let retry_warm = if solution.basis.is_empty() { warm } else { Some(&solution.basis[..]) };
        return solve_standard_form_inner(form, deadline, PERTURBATION, retry_warm, None);
    }
    solution
}

/// Magnitude of the anti-degeneracy right-hand-side perturbation (applied to the
/// equilibrated system, whose entries are at most 1 in magnitude).
pub(crate) const PERTURBATION: f64 = 1e-7;

/// Row count above which the perturbation is applied on the first attempt rather than
/// only on the infeasibility retry.
pub(crate) const PERTURB_ROWS_THRESHOLD: usize = 384;

/// The equilibrate → perturb → revised-simplex core shared by the plain driver and
/// the float-first certification driver.
///
/// Exact solves run on `form` itself. `f64` solves run on an equilibrated (and, for
/// a positive `perturbation`, perturbed) sparse copy; see [`scaled_copy`].
/// `progress` observes the exact phase 2 (see [`solve_revised`]).
pub(crate) fn solve_standard_form_inner<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    perturbation: f64,
    warm: Option<&[usize]>,
    progress: Option<&mut dyn FnMut(&S)>,
) -> RawSolution<S> {
    let num_rows = form.num_rows();
    let num_structural = form.costs.len();
    // Exact arithmetic skips equilibration entirely: conditioning is a floating-point
    // concern, and dividing the (almost always small-integer) Handelman data by
    // max-abs scale factors would only manufacture fraction-heavy rationals — pushing
    // the i128 fast path into gcd-heavy or BigInt territory on every pivot.
    debug_assert!(!S::IS_EXACT || perturbation == 0.0, "exact solves are never perturbed");
    debug_assert!(S::IS_EXACT || progress.is_none(), "only the exact simplex reports progress");
    let scaled;
    let (form, column_scales, total_perturbation) = if S::IS_EXACT {
        (form, None, 0.0)
    } else {
        let (copy, column_scales, total_perturbation) = scaled_copy(form, perturbation);
        scaled = copy;
        (&scaled, Some(column_scales), total_perturbation)
    };

    if num_rows == 0 {
        // No constraints: the optimum is 0 unless some cost is negative (unbounded).
        let unbounded = form.costs.iter().any(Scalar::is_negative);
        let mut solution =
            RawSolution::bare(if unbounded { LpStatus::Unbounded } else { LpStatus::Optimal });
        solution.values = vec![S::zero(); num_structural];
        return solution;
    }

    // The f64 backend cannot distinguish a residual of accumulated round-off from a
    // genuinely infeasible system near the tolerance; `Infeasible` is a *definitive*
    // answer to callers (it becomes `NoThresholdFound`), so it is only reported when
    // the phase-1 optimum is clearly above this noise floor. Sub-threshold residuals
    // proceed to phase 2; the final answer is re-validated against the original
    // constraints by `LpProblem::solve_f64` either way.
    let noise_floor = 1e-6 * (num_rows as f64).max(1.0) + 2.0 * total_perturbation;

    let mut outcome = solve_revised(form, deadline, warm, noise_floor, progress);
    // An `f64` run that did not converge proposes no candidate basis: the exact
    // simplex then warm-starts from the caller's basis instead of from wherever the
    // float pivots stalled.
    if !S::IS_EXACT && outcome.status == LpStatus::IterationLimit {
        outcome.basis.clear();
    }

    // Undo the column scaling: x_j = y_j / s_j.
    if outcome.status != LpStatus::Optimal {
        outcome.values = Vec::new();
    } else if let Some(column_scales) = column_scales {
        for (value, scale) in outcome.values.iter_mut().zip(&column_scales) {
            *value = value.div(scale);
        }
    }
    RawSolution {
        status: outcome.status,
        values: outcome.values,
        basis: outcome.basis,
        // Exact runs skip equilibration entirely, so the revised simplex's terminal
        // dual needs no unscaling; the `f64` backend never sets one.
        dual: outcome.dual,
        dual_bound: None,
        info: LpSolveInfo {
            iterations: outcome.iterations,
            truncated: outcome.truncated,
            lu_updates: outcome.lu_updates,
            lu_refactorizations: outcome.lu_refactorizations,
            ..LpSolveInfo::default()
        },
    }
}

/// The `f64` backend's working copy of a form: equilibrated, then perturbed.
///
/// Equilibration scales columns and rows so that basis entries stay near unit
/// magnitude. This matters on problems whose raw coefficients span several orders
/// of magnitude (the degree-3 Handelman products such as (100 - n)^3 span six).
/// Column scaling substitutes y_j = s_j * x_j, so the solution is rescaled at the
/// end with the returned per-column factors `s_j`; row scaling multiplies an
/// equality by a positive factor and needs no compensation. The column/row passes
/// are iterated (Ruiz-style): one pass leaves the opposite dimension unbalanced
/// again, and on the big degenerate systems the residual imbalance is what drove the
/// basis factorizations ill-conditioned. Each pass divides a column by its largest
/// magnitude, then each row by the largest magnitude among its entries and its
/// right-hand side. Entries a division underflows to exactly zero leave the copy.
///
/// The anti-degeneracy perturbation (see [`solve_standard_form`]) then adds a small
/// deterministic positive offset per row, varied across rows so no two ratios tie;
/// the third return value is the sum of the offsets.
fn scaled_copy<S: Scalar>(
    form: &StandardForm<S>,
    perturbation: f64,
) -> (StandardForm<S>, Vec<S>, f64) {
    const EQUILIBRATION_PASSES: usize = 3;
    let abs = abs_scalar::<S>;
    let mut form = form.clone();
    let mut column_scales = vec![S::one(); form.costs.len()];
    let mut row_max = vec![S::zero(); form.num_rows()];
    for _ in 0..EQUILIBRATION_PASSES {
        let columns = form.columns.cols.iter_mut().zip(form.costs.iter_mut());
        for ((column, cost), scale) in columns.zip(column_scales.iter_mut()) {
            let mut max_abs = S::zero();
            for (_, value) in column.iter() {
                let a = abs(value);
                if max_abs.lt(&a) {
                    max_abs = a;
                }
            }
            if !max_abs.is_zero() {
                *scale = scale.mul(&max_abs);
                for (_, value) in column.iter_mut() {
                    *value = value.div(&max_abs);
                }
                *cost = cost.div(&max_abs);
            }
        }
        row_max.fill(S::zero());
        for column in &form.columns.cols {
            for (row, value) in column {
                let a = abs(value);
                if row_max[*row].lt(&a) {
                    row_max[*row] = a;
                }
            }
        }
        for (max_abs, rhs) in row_max.iter_mut().zip(form.rhs.iter_mut()) {
            let a = abs(rhs);
            if max_abs.lt(&a) {
                *max_abs = a;
            }
            if !max_abs.is_zero() {
                *rhs = rhs.div(max_abs);
            }
        }
        for column in &mut form.columns.cols {
            for (row, value) in column.iter_mut() {
                if !row_max[*row].is_zero() {
                    *value = value.div(&row_max[*row]);
                }
            }
        }
    }
    for column in &mut form.columns.cols {
        column.retain(|(_, value)| !value.is_exactly_zero());
    }
    let mut total_perturbation = 0.0f64;
    if perturbation > 0.0 {
        for (index, rhs) in form.rhs.iter_mut().enumerate() {
            let offset = perturbation * (1.0 + ((index * 7919) % 104_729) as f64 / 104_729.0);
            total_perturbation += offset;
            *rhs = rhs.add(&S::from_rational(&dca_numeric::Rational::from_f64(offset)));
        }
    }
    (form, column_scales, total_perturbation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    /// minimize -x - y  s.t.  x + y + s = 4  (i.e. x + y <= 4), expects objective -4.
    #[test]
    fn standard_form_direct() {
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(4, 1)],
            vec![r(-1, 1), r(-1, 1), r(0, 1)],
        );
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Optimal);
        let total = sol.values[0].clone() + sol.values[1].clone();
        assert_eq!(total, r(4, 1));
    }

    #[test]
    fn empty_problem() {
        let form = StandardForm::from_dense(vec![], vec![], vec![Rational::one()]);
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values, vec![Rational::zero()]);
    }

    #[test]
    fn redundant_equality_rows() {
        // x = 2 stated twice; minimize x.
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(2, 1)],
            vec![r(1, 1)],
        );
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], r(2, 1));
    }

    #[test]
    fn infeasible_standard_form() {
        // x = 2 and x = 3 simultaneously.
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(1, 1)],
        );
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }
}
