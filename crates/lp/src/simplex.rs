//! Standard-form solving: presolve, equilibration and the sparse revised simplex.
//!
//! The pipeline for every solve is
//!
//! ```text
//! presolve → equilibrate → (perturb) → revised simplex → map back
//! ```
//!
//! [`crate::presolve`] shrinks the system where it can (honest finding: the big
//! Handelman coefficient-matching systems present no singleton/forcing structure and
//! shed nothing, but the many small box LPs the invariant engine solves are often
//! decided entirely in presolve), and [`crate::revised`] solves the reduced problem
//! sparsely with warm-start support. An `f64` run that fails to converge reports
//! [`LpStatus::IterationLimit`] and proposes no basis; the float-first driver then
//! hands the problem to the exact simplex (see [`crate::certify`]).

use crate::deadline::Deadline;
use crate::presolve::{identity, presolve};
use crate::problem::{LpSolveInfo, LpStatus};
use crate::revised::solve_revised_capped;
use crate::scalar::{abs as abs_scalar, Scalar};

/// A problem in standard form: minimize `costs · y` subject to `matrix · y = rhs`,
/// `y ≥ 0`, with `rhs ≥ 0` componentwise.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm<S> {
    /// Constraint matrix, one row per equality.
    pub matrix: Vec<Vec<S>>,
    /// Right-hand sides (all non-negative).
    pub rhs: Vec<S>,
    /// Objective coefficients.
    pub costs: Vec<S>,
    /// Column layout of the original model variables (positive column, optional negative
    /// column for free variables). Carried along for diagnostics.
    pub model_columns: Vec<(usize, Option<usize>)>,
}

/// Raw solver output over standard-form columns.
#[derive(Debug, Clone)]
pub(crate) struct RawSolution<S> {
    pub status: LpStatus,
    pub values: Vec<S>,
    /// Basic structural columns at termination, in *original* (pre-presolve)
    /// standard-form indices; the caller turns these into a reusable warm start.
    pub basis: Vec<usize>,
    /// The terminal dual `y = c_B B⁻¹` of a *proven* exact optimum, over the rows
    /// of the form the simplex actually pivoted on (post-presolve). Only the exact
    /// backend fills this in (the `f64` dual certifies nothing), and only for
    /// non-truncated `Optimal`; the row-generation driver prices excluded columns
    /// against it without a separate Markowitz re-derivation.
    pub dual: Option<Vec<S>>,
    /// An exact lower bound `y·b` on the true optimum, recovered from a
    /// dual-feasible basis the certifier rejected on primal grounds (weak duality).
    /// Populated only for truncated (anytime) answers, whose objective is an upper
    /// bound: together they bracket the unproven optimum.
    pub dual_bound: Option<S>,
    /// Size and effort accounting: iterations, presolve reductions, the anytime
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

/// Solves a standard-form problem: presolve (unless `use_presolve` is off), then the
/// two-phase revised simplex.
///
/// When `deadline` is set, the iteration loops poll the clock and bail out with
/// [`LpStatus::TimedOut`] once it passes.
///
/// `warm` seeds the initial basis with preferred structural columns (original column
/// indices); columns eliminated by presolve or dependent in the new system are
/// silently dropped, so a stale warm start degrades gracefully to a cold one.
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
    use_presolve: bool,
) -> RawSolution<S> {
    let num_original_cols = form.costs.len();
    let pre = if use_presolve { presolve(form) } else { identity(form) };
    if let Some(status) = pre.verdict {
        let mut solution = RawSolution::bare(status);
        solution.info.presolve_rows_removed = pre.rows_removed;
        solution.info.presolve_cols_removed = pre.cols_removed;
        return solution;
    }
    if pre.form.matrix.is_empty() {
        // Presolve resolved every constraint, which certifies feasibility. Surviving
        // columns are unconstrained: with non-negative costs zero (the `restore`
        // default) is optimal; a surviving negative-cost column (presolve keeps
        // those — see `presolve.rs`) is now a genuine unbounded ray.
        let unbounded = pre.form.costs.iter().any(Scalar::is_negative);
        let mut solution =
            RawSolution::bare(if unbounded { LpStatus::Unbounded } else { LpStatus::Optimal });
        if !unbounded {
            solution.values =
                pre.restore(&vec![S::zero(); pre.kept_cols.len()], num_original_cols);
        }
        solution.info.presolve_rows_removed = pre.rows_removed;
        solution.info.presolve_cols_removed = pre.cols_removed;
        return solution;
    }
    let warm_reduced: Option<Vec<usize>> = warm.map(|w| pre.map_cols(w));

    // Large Handelman systems are degenerate enough that the stall is the *expected*
    // failure mode — and the stall itself is what burns the time (thousands of
    // zero-progress pivots before the tolerance gives up). Above the row threshold the
    // perturbation is applied from the start instead of after a failed plain solve.
    let perturb_immediately = !S::IS_EXACT && pre.form.matrix.len() >= PERTURB_ROWS_THRESHOLD;
    let first_perturbation = if perturb_immediately { PERTURBATION } else { 0.0 };
    let mut solution = solve_standard_form_inner(
        &pre.form,
        deadline,
        first_perturbation,
        warm_reduced.as_deref(),
        None,
    );
    if !S::IS_EXACT && !perturb_immediately && solution.status == LpStatus::Infeasible {
        let retry_warm = if solution.basis.is_empty() { warm_reduced } else { Some(solution.basis.clone()) };
        solution = solve_standard_form_inner(
            &pre.form,
            deadline,
            PERTURBATION,
            retry_warm.as_deref(),
            None,
        );
    }

    // Map the reduced solution back to the original column space.
    if solution.status == LpStatus::Optimal {
        solution.values = pre.restore(&solution.values, num_original_cols);
    }
    solution.basis = solution.basis.iter().map(|&col| pre.kept_cols[col]).collect();
    solution.info.presolve_rows_removed = pre.rows_removed;
    solution.info.presolve_cols_removed = pre.cols_removed;
    solution
}

/// Magnitude of the anti-degeneracy right-hand-side perturbation (applied to the
/// equilibrated system, whose entries are at most 1 in magnitude).
pub(crate) const PERTURBATION: f64 = 1e-7;

/// Row count above which the perturbation is applied on the first attempt rather than
/// only on the infeasibility retry.
pub(crate) const PERTURB_ROWS_THRESHOLD: usize = 384;

/// The equilibrate → perturb → revised-simplex core shared by the plain driver and
/// the float-first certification driver; `iter_cap` bounds the revised simplex's
/// pivots (used for the capped exact repair rounds).
pub(crate) fn solve_standard_form_inner<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    perturbation: f64,
    warm: Option<&[usize]>,
    iter_cap: Option<usize>,
) -> RawSolution<S> {
    let num_rows = form.matrix.len();
    let num_structural = form.costs.len();
    let _ = &form.model_columns;

    // Equilibration: scale columns and rows so that tableau entries stay near unit
    // magnitude. This matters for the floating-point backend on problems whose raw
    // coefficients span several orders of magnitude (the degree-3 Handelman products
    // such as (100 - n)^3 span six). Column scaling substitutes y_j = s_j * x_j, so
    // the solution is rescaled at the end; row scaling multiplies an equality by a
    // positive factor and needs no compensation. The column/row passes are iterated
    // (Ruiz-style): one pass leaves the opposite dimension unbalanced again, and on
    // the big degenerate systems the residual imbalance is what drove the basis
    // factorizations ill-conditioned.
    // Exact arithmetic skips equilibration entirely: conditioning is a floating-point
    // concern, and dividing the (almost always small-integer) Handelman data by
    // max-abs scale factors would only manufacture fraction-heavy rationals — pushing
    // the i128 fast path into gcd-heavy or BigInt territory on every pivot.
    let equilibration_passes = if S::IS_EXACT { 0 } else { 3 };
    let mut form = form.clone();
    let abs = abs_scalar::<S>;
    let mut column_scales = vec![S::one(); num_structural];
    for _ in 0..equilibration_passes {
        for (column, scale) in column_scales.iter_mut().enumerate() {
            let mut max_abs = S::zero();
            for row in &form.matrix {
                let a = abs(&row[column]);
                if max_abs.lt(&a) {
                    max_abs = a;
                }
            }
            if !max_abs.is_zero() {
                *scale = scale.mul(&max_abs);
                for row in &mut form.matrix {
                    row[column] = row[column].div(&max_abs);
                }
                form.costs[column] = form.costs[column].div(&max_abs);
            }
        }
        for (row, rhs) in form.matrix.iter_mut().zip(form.rhs.iter_mut()) {
            let mut max_abs = S::zero();
            for cell in row.iter().chain(std::iter::once(&*rhs)) {
                let a = abs(cell);
                if max_abs.lt(&a) {
                    max_abs = a;
                }
            }
            if max_abs.is_zero() {
                continue;
            }
            for cell in row.iter_mut() {
                *cell = cell.div(&max_abs);
            }
            *rhs = rhs.div(&max_abs);
        }
    }
    // Anti-degeneracy perturbation (see `solve_standard_form`): a small deterministic
    // positive offset per row, varied across rows so no two ratios tie. Only ever
    // non-zero on the floating-point retry path.
    let mut total_perturbation = 0.0f64;
    if perturbation > 0.0 {
        for (index, rhs) in form.rhs.iter_mut().enumerate() {
            let offset = perturbation * (1.0 + ((index * 7919) % 104_729) as f64 / 104_729.0);
            total_perturbation += offset;
            *rhs = rhs.add(&S::from_rational(&dca_numeric::Rational::from_f64(offset)));
        }
    }
    let form = &form;

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

    let mut outcome = solve_revised_capped(form, deadline, warm, noise_floor, iter_cap);
    // An uncapped `f64` run that did not converge proposes no candidate basis: the
    // exact fallback then warm-starts from the caller's basis instead of from
    // wherever the float pivots stalled.
    if !S::IS_EXACT && iter_cap.is_none() && outcome.status == LpStatus::IterationLimit {
        outcome.basis.clear();
    }

    // Undo the column scaling: x_j = y_j / s_j.
    if outcome.status == LpStatus::Optimal {
        for (value, scale) in outcome.values.iter_mut().zip(&column_scales) {
            *value = value.div(scale);
        }
    } else {
        outcome.values = Vec::new();
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
        let form = StandardForm {
            matrix: vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            rhs: vec![r(4, 1)],
            costs: vec![r(-1, 1), r(-1, 1), r(0, 1)],
            model_columns: vec![(0, None), (1, None)],
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None, true);
        assert_eq!(sol.status, LpStatus::Optimal);
        let total = sol.values[0].clone() + sol.values[1].clone();
        assert_eq!(total, r(4, 1));
    }

    #[test]
    fn empty_problem() {
        let form: StandardForm<Rational> = StandardForm {
            matrix: vec![],
            rhs: vec![],
            costs: vec![Rational::one()],
            model_columns: vec![(0, None)],
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None, true);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values, vec![Rational::zero()]);
    }

    #[test]
    fn redundant_equality_rows() {
        // x = 2 stated twice; minimize x.
        let form = StandardForm {
            matrix: vec![vec![r(1, 1)], vec![r(1, 1)]],
            rhs: vec![r(2, 1), r(2, 1)],
            costs: vec![r(1, 1)],
            model_columns: vec![(0, None)],
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None, true);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], r(2, 1));
    }

    #[test]
    fn infeasible_standard_form() {
        // x = 2 and x = 3 simultaneously.
        let form = StandardForm {
            matrix: vec![vec![r(1, 1)], vec![r(1, 1)]],
            rhs: vec![r(2, 1), r(3, 1)],
            costs: vec![r(1, 1)],
            model_columns: vec![(0, None)],
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None, true);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }
}
