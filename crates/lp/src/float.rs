//! The `f64` revised simplex: it only *proposes*.
//!
//! Its verdicts steer the certified solve ([`crate::certify`]), which decides every
//! answer in exact arithmetic, and the invariant engine's `solve_f64` callers read
//! any status other than `Optimal` or `Infeasible` conservatively. So when a float
//! run cannot tell what it is looking at — a direction with no usable blocking row
//! that is not a clear ray, or basic values visibly negative at the end — it reports
//! [`LpStatus::IterationLimit`], the honest "don't know", instead of trying to rescue
//! the run.
//!
//! A solve runs on an equilibrated (and, for large forms, perturbed) sparse copy of
//! the form ([`scaled_copy`]). Pricing recomputes the reduced costs from a fresh
//! `BTRAN` every iteration, so there is no incrementally maintained (and drifting)
//! reduced-cost row at all; the eta file is rebuilt every [`REINVERT_EVERY`] pivots
//! and before every verdict ([`Factorization::reinvert`]), clearing accumulated
//! round-off at sparse cost.

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::problem::LpStatus;
use crate::revised::{Columns, Factorization, Phase, Simplex};
use crate::scalar::{abs, Scalar, F64_EPS};
use crate::simplex::{RawSolution, StandardForm};

/// Pivot acceptance threshold of the reinversion: a column whose best available
/// pivot is below this magnitude is skipped (a tiny pivot amplifies every subsequent
/// FTRAN/BTRAN). Matches the dense tableau's effective positivity tolerance.
const PIVOT_EPS: f64 = 1e-8;

// The ratio test admits only entries beyond `F64_EPS` in magnitude, so every
// simplex pivot already clears the reinversion's threshold.
const _: () = assert!(F64_EPS >= PIVOT_EPS);

/// Coarse entering threshold: a column prices in when its reduced cost is below
/// `-COARSE_PRICING_EPS`. Matches the dense tableau's tolerance; entering columns
/// below it mid-run mostly buys degenerate churn.
const COARSE_PRICING_EPS: f64 = 1e-8;

/// Fine entering threshold, used only in phase 2 once the coarse tolerance sees no
/// improving column on a freshly reinverted factorization. Reduced costs come from a
/// fresh BTRAN every iteration — there is no incrementally-maintained row to drift —
/// and on degenerate systems a reduced cost of a few 1e-9 can still be worth a large
/// objective step (observed on the Fig. 1 `join` LP, where accepting a −9.8e-9
/// reduced cost as "non-negative" left the threshold 612 above the true optimum
/// 10000). The fine sweep runs at the very end, so it mops up those columns without
/// paying their churn mid-run.
const FINE_PRICING_EPS: f64 = 1e-10;

/// Rebuild the factorization from scratch after this many appended etas.
/// Degenerate pivot chains amplify round-off through the eta file; a shortish period
/// keeps the factorization honest at a bounded (~sparse) rebuild cost.
const REINVERT_EVERY: usize = 64;

/// Magnitude of the anti-degeneracy right-hand-side perturbation (applied to the
/// equilibrated system, whose entries are at most 1 in magnitude).
const PERTURBATION: f64 = 1e-7;

/// Row count from which the perturbation is applied on the first attempt rather than
/// only on the infeasibility retry.
const PERTURB_ROWS_THRESHOLD: usize = 384;

/// Solves a standard-form problem in `f64`.
///
/// `warm` seeds the initial basis with preferred structural columns; columns that
/// are dependent in the new system are silently dropped, so a stale warm start
/// degrades gracefully to a cold one. The deadline is polled every few pivots.
///
/// An `Infeasible` verdict is re-examined once on a *perturbed* copy of the problem:
/// on heavily degenerate systems (the Handelman encodings are almost entirely
/// coefficient-matching equalities with zero right-hand sides) phase 1 can stall at a
/// positive objective even though the system is feasible — every improving pivot has
/// ratio zero and the tolerance-guided pricing goes in circles. A tiny deterministic
/// positive offset on each right-hand side (the classical lexicographic-perturbation
/// cure) makes every pivot make real progress. The retry resumes from the failed
/// solve's final basis.
pub(crate) fn solve(
    form: &StandardForm<f64>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
) -> RawSolution<f64> {
    let solution = propose(form, deadline, warm);
    if form.num_rows() < PERTURB_ROWS_THRESHOLD && solution.status == LpStatus::Infeasible {
        let retry_warm = if solution.basis.is_empty() { warm } else { Some(&solution.basis[..]) };
        return solve_scaled(form, deadline, PERTURBATION, retry_warm);
    }
    solution
}

/// One attempt of [`solve`], without the infeasibility retry: the certified
/// solve's float phase. Large Handelman systems stall often enough that the stall
/// is the *expected* failure mode, and the stall itself is what burns the time, so
/// from [`PERTURB_ROWS_THRESHOLD`] rows on the perturbation is applied from the start.
pub(crate) fn propose(
    form: &StandardForm<f64>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
) -> RawSolution<f64> {
    let perturbation =
        if form.num_rows() >= PERTURB_ROWS_THRESHOLD { PERTURBATION } else { 0.0 };
    solve_scaled(form, deadline, perturbation, warm)
}

/// Equilibrate → perturb → two-phase simplex → unscale.
fn solve_scaled(
    form: &StandardForm<f64>,
    deadline: &Deadline,
    perturbation: f64,
    warm: Option<&[usize]>,
) -> RawSolution<f64> {
    let num_rows = form.num_rows();
    if num_rows == 0 {
        return RawSolution::unconstrained(&form.costs);
    }
    let (scaled, column_scales, total_perturbation) = scaled_copy(form, perturbation);
    // `Infeasible` is a *definitive* answer to callers, and a phase-1 residual of
    // accumulated round-off looks like a slightly infeasible system; so it is only
    // reported above this noise floor (which accounts for the perturbation).
    // Sub-threshold residuals proceed to phase 2; `LpProblem::solve_f64` re-checks
    // the final answer against the original constraints either way.
    let noise_floor = 1e-6 * (num_rows as f64).max(1.0) + 2.0 * total_perturbation;
    let mut solution = two_phase(&scaled, deadline, warm, noise_floor);
    match solution.status {
        // A run that did not converge proposes no candidate basis: the exact simplex
        // then warm-starts from the caller's basis instead.
        LpStatus::IterationLimit => solution.basis.clear(),
        // Undo the column scaling: x_j = y_j / s_j.
        LpStatus::Optimal => {
            for (value, scale) in solution.values.iter_mut().zip(&column_scales) {
                *value /= scale;
            }
        }
        _ => {}
    }
    solution
}

/// The two-phase simplex on an equilibrated form; `noise_floor` as in
/// [`solve_scaled`].
fn two_phase(
    form: &StandardForm<f64>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    noise_floor: f64,
) -> RawSolution<f64> {
    let mut simplex = Simplex::new(form, warm, Factorization::reinvert);
    let max_iters = simplex.max_iterations();
    if simplex.needs_phase1() {
        match optimize(&mut simplex, Phase::One, max_iters, deadline) {
            LpStatus::Optimal => {}
            // Phase 1's objective is bounded below by zero, so an `Unbounded` verdict
            // can only be numerical noise: report non-convergence instead.
            LpStatus::Unbounded => return simplex.finish(LpStatus::IterationLimit),
            other => return simplex.finish(other),
        }
        let infeasibility: f64 = simplex.basic_artificials().map(|value| value.max(0.0)).sum();
        if infeasibility > noise_floor {
            return simplex.finish(LpStatus::Infeasible);
        }
    }

    let mut status = optimize(&mut simplex, Phase::Two, max_iters, deadline);
    // Anytime semantics: a deadline hit during phase 2 leaves a (nearly) feasible
    // vertex whose objective bounds the optimum from above.
    let truncated =
        status == LpStatus::TimedOut && !simplex.x_basic.iter().any(|v| *v < -1e-6);
    if truncated {
        status = LpStatus::Optimal;
        clamp_negatives(&mut simplex.x_basic);
    }
    if status == LpStatus::Optimal {
        // A basic artificial can drift away from zero during phase-2 pivots; a
        // solution with a materially non-zero artificial violates the original
        // equalities.
        let residual: f64 = simplex.basic_artificials().map(|value| value.abs()).sum();
        if residual > noise_floor.max(1e-7) {
            status = LpStatus::IterationLimit;
        }
    }
    let mut solution = simplex.finish(status);
    solution.info.truncated = truncated;
    solution
}

/// Sets the basic values below `-F64_EPS` to zero.
fn clamp_negatives(x_basic: &mut [f64]) {
    for value in x_basic {
        if *value < -F64_EPS {
            *value = 0.0;
        }
    }
}

/// Rebuilds the factorization of the current basis with [`Factorization::reinvert`].
fn reinvert(simplex: &mut Simplex<'_, f64>) {
    let factor = Factorization::reinvert(simplex.columns(), &simplex.factor.basis);
    simplex.install(factor);
}

/// One phase of pivots: Devex pricing (Bland's rule after a long degenerate
/// streak), each verdict confirmed on a fresh reinversion.
fn optimize(
    simplex: &mut Simplex<'_, f64>,
    phase: Phase,
    max_iters: usize,
    deadline: &Deadline,
) -> LpStatus {
    const DEADLINE_EVERY: usize = 64;
    /// How many verdict-time reinversion-and-recheck passes are allowed before a
    /// floating-point verdict is accepted as-is.
    const MAX_CONFIRMS: usize = 3;
    /// Degeneracy throttle: after a long run of zero-step pivots, Devex pricing is
    /// just orbiting a degenerate vertex; switching to Bland's rule (first improving
    /// column, guaranteed finite) breaks the orbit, and the first real step switches
    /// back to the faster rule.
    const BLAND_AFTER_DEGENERATE: usize = 64;
    let m = simplex.form.num_rows();
    let n = simplex.form.costs.len();
    let mut confirms = 0usize;
    let mut consecutive_degenerate = 0usize;
    // Phase-2 endgame: once the coarse pricing tolerance is exhausted on a fresh
    // factorization, sweep again with the fine tolerance (see the constants).
    let mut fine_pricing = false;
    // Devex reference weights: entering is chosen by the steepest-edge surrogate
    // r_j² / w_j instead of the raw most-negative reduced cost. On the heavily
    // degenerate Handelman systems Dantzig orbits a vertex for tens of thousands of
    // zero-step pivots (observed >200k on the degree-3 `nested` LP); Devex cuts that
    // by an order of magnitude at the price of one extra BTRAN and one column sweep
    // per pivot.
    let mut weights = vec![1.0f64; n];
    let mut y = vec![0.0f64; m];
    for iteration in 0..max_iters {
        if iteration % DEADLINE_EVERY == 0 && deadline.expired() {
            return LpStatus::TimedOut;
        }
        if simplex.etas_since_rebuild >= REINVERT_EVERY {
            reinvert(simplex);
        }
        // Pricing dual y = c_B B⁻¹ from a fresh dense BTRAN: the defense against
        // reduced-cost drift.
        simplex.dual(phase, &mut y);
        let use_bland = consecutive_degenerate >= BLAND_AFTER_DEGENERATE;
        let pricing_eps = if fine_pricing { FINE_PRICING_EPS } else { COARSE_PRICING_EPS };
        // The entering column and its Devex score.
        let mut entering: Option<(usize, f64)> = None;
        for (j, &weight) in weights.iter().enumerate() {
            if !simplex.may_enter(j) {
                continue;
            }
            let reduced = simplex.reduced_cost(phase, &y, j);
            let improving = reduced < -pricing_eps;
            if !improving {
                continue;
            }
            if use_bland {
                entering = Some((j, reduced));
                break;
            }
            // Devex score: r_j² / w_j (bigger is better).
            let score = reduced * reduced / weight;
            match &entering {
                None => entering = Some((j, score)),
                Some((_, best)) if score > *best => entering = Some((j, score)),
                Some(_) => {}
            }
        }
        let Some((entering, _)) = entering else {
            // Apparent optimality: confirm on a freshly reinverted factorization
            // before trusting the verdict.
            if simplex.etas_since_rebuild > 0 && confirms < MAX_CONFIRMS {
                confirms += 1;
                reinvert(simplex);
                continue;
            }
            if !fine_pricing && phase == Phase::Two {
                // Coarse tolerance exhausted on fresh data: run the fine endgame
                // sweep before declaring the optimum.
                fine_pricing = true;
                continue;
            }
            // Round-off nudges basic values slightly negative over tens of thousands
            // of pivots; on a freshly reinverted factorization a residual at the 1e-6
            // scale (equilibrated data) is numerical dust — clamp it and accept.
            // Anything larger means the basis cannot be trusted: "don't know".
            // `solve_f64` re-checks the answer against the original constraints, so
            // an over-eager clamp cannot smuggle in an unsound optimum.
            const FEAS_EPS: f64 = 1e-6;
            if simplex.x_basic.iter().any(|v| *v < -FEAS_EPS) {
                return LpStatus::IterationLimit;
            }
            clamp_negatives(&mut simplex.x_basic);
            return LpStatus::Optimal;
        };
        let d = simplex.direction(entering);
        let Some(leaving) = simplex.leaving_row(&d, phase) else {
            // No blocking row: unbounded — or drift. Confirm before giving up.
            if simplex.etas_since_rebuild > 0 && confirms < MAX_CONFIRMS {
                confirms += 1;
                reinvert(simplex);
                continue;
            }
            // A structurally empty column (no constraint mentions it) with negative
            // cost is a genuine ray once phase 1 has established feasibility: that is
            // how an unconstrained negative-cost variable surfaces. Otherwise the
            // direction is a ray only in phase 2 (phase 1 is bounded below by zero)
            // and only if it clearly moves some basic value and no positive entry
            // below the tolerance could block it. Anything else is numerics this
            // loop cannot judge.
            let structurally_empty = simplex.columns().cols[entering].is_empty();
            if phase == Phase::Two && structurally_empty {
                return LpStatus::Unbounded;
            }
            let has_negative = d.iter().any(|v| *v < -1e-9);
            let has_positive = d.iter().any(|v| *v > 0.0);
            if phase == Phase::One || !has_negative || has_positive {
                return LpStatus::IterationLimit;
            }
            return LpStatus::Unbounded;
        };
        if !use_bland {
            update_devex_weights(simplex, &mut weights, &d, entering, leaving);
        }
        if simplex.pivot(&d, entering, leaving) {
            consecutive_degenerate += 1;
        } else {
            consecutive_degenerate = 0;
        }
    }
    LpStatus::IterationLimit
}

/// Devex weight update (Forrest–Goldfarb reference framework, simplified): the
/// pivot row α of the tableau rescales every nonbasic weight. Runs before the pivot,
/// against the pre-pivot factorization.
fn update_devex_weights(
    simplex: &Simplex<'_, f64>,
    weights: &mut [f64],
    d: &[f64],
    entering: usize,
    leaving: usize,
) {
    let n = weights.len();
    // The ratio test admitted the pivot, so |alpha_q| > F64_EPS.
    let alpha_q = d[leaving];
    let mut rho = vec![0.0f64; d.len()];
    rho[leaving] = 1.0;
    simplex.factor.btran(&mut rho);
    let reference = weights[entering].max(1.0);
    for (j, weight) in weights.iter_mut().enumerate() {
        if simplex.in_basis[j] || j == entering {
            continue;
        }
        let alpha_j = simplex.columns().dot(&rho, j);
        if alpha_j != 0.0 {
            let candidate = (alpha_j / alpha_q).powi(2) * reference;
            if candidate > *weight {
                *weight = candidate;
            }
        }
    }
    weights[entering] = (reference / (alpha_q * alpha_q)).max(1.0);
    let leaving_col = simplex.factor.basis[leaving];
    if leaving_col < n {
        weights[leaving_col] = weights[leaving_col].max(1.0);
    }
}

impl Factorization<f64> {
    /// Rebuilds the eta file from scratch for a preferred column order.
    ///
    /// Columns are processed in the given order; each is transformed through the etas
    /// accumulated so far and pivots on the still-unassigned row where it is largest
    /// — columns whose best available pivot is below [`PIVOT_EPS`] (they are
    /// dependent, or near-dependent, on the ones already processed) are skipped. Rows
    /// left unassigned afterwards are covered by artificial columns, so the routine
    /// always produces a complete basis.
    pub(crate) fn reinvert(columns: &Columns<f64>, preferred: &[usize]) -> Factorization<f64> {
        let m = columns.rows;
        let n = columns.cols.len();
        let mut factor = Factorization { etas: Vec::new(), basis: vec![usize::MAX; m] };
        let mut assigned = vec![false; m];
        let mut work = vec![0.0f64; m];
        let mut placed = vec![false; n + m];
        // Rows no accepted column pivots on yet; each acceptance assigns one.
        let mut unassigned = m;
        let accept = |factor: &mut Factorization<f64>,
                      assigned: &mut Vec<bool>,
                      work: &[f64],
                      col: usize,
                      floor: f64|
         -> bool {
            let mut best: Option<usize> = None;
            for (row, value) in work.iter().enumerate() {
                if assigned[row] || *value == 0.0 {
                    continue;
                }
                // `abs` is the scalar magnitude: it leaves values within `F64_EPS`
                // of zero as they are.
                if best.is_none_or(|b| abs(&work[b]) < abs(value)) {
                    best = Some(row);
                }
            }
            let Some(row) = best else { return false };
            if work[row].abs() < floor {
                return false;
            }
            factor.push_eta(work, row);
            factor.basis[row] = col;
            assigned[row] = true;
            true
        };
        for &col in preferred {
            if col >= n + m || placed[col] {
                continue;
            }
            columns.scatter(col, &mut work);
            factor.ftran(&mut work);
            if accept(&mut factor, &mut assigned, &work, col, PIVOT_EPS) {
                placed[col] = true;
                unassigned -= 1;
            }
        }
        // Cover the remaining rows with artificial columns. Each artificial goes
        // through the same transform-and-pivot acceptance as a regular column (its
        // best pivot row is not necessarily its own row once etas are in play). The
        // first sweep respects the pivot floor; the second drops it, because a
        // complete factorization — even a poorly conditioned one — beats an
        // incomplete basis.
        for floor in [PIVOT_EPS, 0.0] {
            for row in 0..m {
                if unassigned == 0 {
                    break;
                }
                let col = n + row;
                if placed[col] {
                    continue;
                }
                columns.scatter(col, &mut work);
                factor.ftran(&mut work);
                if accept(&mut factor, &mut assigned, &work, col, floor) {
                    placed[col] = true;
                    unassigned -= 1;
                }
            }
        }
        factor
    }
}

/// The working copy of a form: equilibrated, then perturbed.
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
/// (`abs` and `is_zero` are the scalar ones: within `F64_EPS` of zero counts as
/// zero.)
///
/// The anti-degeneracy perturbation (see [`solve`]) then adds a small deterministic
/// positive offset per row, varied across rows so no two ratios tie; the third
/// return value is the sum of the offsets.
fn scaled_copy(form: &StandardForm<f64>, perturbation: f64) -> (StandardForm<f64>, Vec<f64>, f64) {
    const EQUILIBRATION_PASSES: usize = 3;
    let mut form = form.clone();
    let mut column_scales = vec![1.0f64; form.costs.len()];
    let mut row_max = vec![0.0f64; form.num_rows()];
    for _ in 0..EQUILIBRATION_PASSES {
        let columns = form.columns.cols.iter_mut().zip(form.costs.iter_mut());
        for ((column, cost), scale) in columns.zip(column_scales.iter_mut()) {
            let mut max_abs = 0.0f64;
            for (_, value) in column.iter() {
                let a = abs(value);
                if max_abs < a {
                    max_abs = a;
                }
            }
            if !max_abs.is_zero() {
                *scale *= max_abs;
                for (_, value) in column.iter_mut() {
                    *value /= max_abs;
                }
                *cost /= max_abs;
            }
        }
        row_max.fill(0.0);
        for column in &form.columns.cols {
            for (row, value) in column {
                let a = abs(value);
                if row_max[*row] < a {
                    row_max[*row] = a;
                }
            }
        }
        for (max_abs, rhs) in row_max.iter_mut().zip(form.rhs.iter_mut()) {
            let a = abs(rhs);
            if *max_abs < a {
                *max_abs = a;
            }
            if !max_abs.is_zero() {
                *rhs /= *max_abs;
            }
        }
        for column in &mut form.columns.cols {
            for (row, value) in column.iter_mut() {
                if !row_max[*row].is_zero() {
                    *value /= row_max[*row];
                }
            }
        }
    }
    for column in &mut form.columns.cols {
        column.retain(|(_, value)| *value != 0.0);
    }
    let mut total_perturbation = 0.0f64;
    if perturbation > 0.0 {
        for (index, rhs) in form.rhs.iter_mut().enumerate() {
            let offset = perturbation * (1.0 + ((index * 7919) % 104_729) as f64 / 104_729.0);
            total_perturbation += offset;
            *rhs += Rational::from_f64(offset).to_f64();
        }
    }
    (form, column_scales, total_perturbation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_cold(form: &StandardForm<f64>) -> RawSolution<f64> {
        solve(form, &Deadline::unlimited(), None)
    }

    #[test]
    fn unbounded_lp() {
        // minimize -x s.t. x - s = 1 (x unbounded above).
        let form = StandardForm::from_dense(vec![vec![1.0f64, -1.0]], vec![1.0], vec![-1.0, 0.0]);
        assert_eq!(solve_cold(&form).status, LpStatus::Unbounded);
    }

    /// minimize -x  s.t.  1e-9·x + s0 = 1,  x - s1 = 0: optimum -1e9 at x = 1e9.
    /// Once `s0` and `x` are basic, the only improving column `s1` has direction
    /// (1e-9, -1): its one blocking entry is below `F64_EPS`, so the `f64` backend
    /// may not call the problem unbounded — it does not know, and says so. The
    /// certified solve then hands the form to the exact simplex, which finds the
    /// optimum. (Equilibration leaves this form as it is: every column and row
    /// already has a unit maximum.)
    #[test]
    fn a_sub_screen_blocking_entry_is_not_a_ray() {
        let form = StandardForm::from_dense(
            vec![vec![1e-9, 1.0, 0.0], vec![1.0, 0.0, -1.0]],
            vec![1.0, 0.0],
            vec![-1.0, 0.0, 0.0],
        );
        assert_eq!(solve_cold(&form).status, LpStatus::IterationLimit);

        let r = |n: i64, d: i64| Rational::new(n, d);
        let billion = 1_000_000_000;
        let exact = StandardForm::from_dense(
            vec![vec![r(1, billion), r(1, 1), r(0, 1)], vec![r(1, 1), r(0, 1), r(-1, 1)]],
            vec![r(1, 1), r(0, 1)],
            vec![r(-1, 1), r(0, 1), r(0, 1)],
        );
        let solution =
            crate::certify::solve_float_first(&exact, &Deadline::unlimited(), None, &[], None);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(solution.info.certified);
        assert_eq!(solution.info.certify_rounds, 0, "the float phase proposed nothing");
        assert!(solution.info.exact_iterations > 0);
        assert_eq!(solution.values, vec![r(billion, 1), r(0, 1), r(billion, 1)]);
    }

    #[test]
    fn warm_start_reuses_the_final_basis() {
        // minimize x + y s.t. x + 2y - s1 = 4, 3x + y - s2 = 6.
        let form = StandardForm::from_dense(
            vec![
                vec![1.0f64, 2.0, -1.0, 0.0],
                vec![3.0, 1.0, 0.0, -1.0],
            ],
            vec![4.0, 6.0],
            vec![1.0, 1.0, 0.0, 0.0],
        );
        let cold = solve_cold(&form);
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!((cold.values[0] - 1.6).abs() < 1e-6);
        assert!((cold.values[1] - 1.2).abs() < 1e-6);
        let warm = solve(&form, &Deadline::unlimited(), Some(&cold.basis));
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.values[0] - 1.6).abs() < 1e-6);
        // The warm start lands on the optimal basis: phase 1 is skipped entirely and
        // phase 2 confirms optimality without a single pivot.
        assert_eq!(warm.info.iterations, 0, "warm start should re-solve pivot-free");
    }

    /// Factorization self-consistency: after a reinversion (including dependent
    /// preferred columns and artificial padding), `B · ftran(A_j)` must reproduce
    /// `A_j` for every column, and `btran`/`ftran` must agree on reduced costs.
    #[test]
    fn reinversion_is_a_consistent_inverse() {
        let mut seed = 0xABCDEF0123456789u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..200 {
            let m = 2 + (next() % 10) as usize;
            let n = 2 + (next() % 14) as usize;
            // Row-major draw of a sparse m × n matrix, stored column-major.
            let mut columns = Columns { cols: vec![Vec::new(); n], rows: m };
            for row in 0..m {
                for column in &mut columns.cols {
                    if next() % 2 == 0 {
                        let value = ((next() % 5) as i64 - 2) as f64;
                        if value != 0.0 {
                            column.push((row, value));
                        }
                    }
                }
            }
            // Preferred list with duplicates and likely-dependent columns.
            let preferred: Vec<usize> = (0..n + 2).map(|_| (next() % n as u64) as usize).collect();
            let factor = Factorization::reinvert(&columns, &preferred);
            // Check every structural column: multiply B by ftran(A_j) and compare.
            for j in 0..n {
                let mut original = vec![0.0f64; m];
                columns.scatter(j, &mut original);
                let mut d = original.clone();
                factor.ftran(&mut d);
                let mut reconstructed = vec![0.0f64; m];
                for (pos, &col) in factor.basis.iter().enumerate() {
                    if d[pos] == 0.0 {
                        continue;
                    }
                    if col < n {
                        for (row, value) in &columns.cols[col] {
                            reconstructed[*row] += value * d[pos];
                        }
                    } else {
                        reconstructed[col - n] += d[pos];
                    }
                }
                let pairs = reconstructed.iter().zip(&original);
                for (row, (&rebuilt, &expected)) in pairs.enumerate() {
                    assert!(
                        (rebuilt - expected).abs() <= 1e-6 * (1.0 + expected.abs()),
                        "case {case}: B·ftran(A_{j}) diverges at row {row}: {rebuilt} vs {expected}\nbasis: {:?}",
                        factor.basis
                    );
                }
            }
            // BTRAN/FTRAN duality: y·A_j == c_B·(B⁻¹A_j) for a random cost vector.
            let costs: Vec<f64> = (0..m).map(|_| ((next() % 7) as i64 - 3) as f64).collect();
            let mut y = costs.clone();
            factor.btran(&mut y);
            for j in 0..n {
                let mut d = vec![0.0f64; m];
                columns.scatter(j, &mut d);
                let via_btran: f64 = d
                    .iter()
                    .enumerate()
                    .map(|(row, value)| y[row] * value)
                    .sum();
                factor.ftran(&mut d);
                let via_ftran: f64 =
                    d.iter().enumerate().map(|(pos, value)| costs[pos] * value).sum();
                assert!(
                    (via_btran - via_ftran).abs() <= 1e-6 * (1.0 + via_ftran.abs()),
                    "case {case}: BTRAN/FTRAN disagree on column {j}: {via_btran} vs {via_ftran}"
                );
            }
        }
    }

    #[test]
    fn degenerate_rhs_terminates() {
        // Heavily degenerate: three equality rows with zero rhs over five columns.
        let form = StandardForm::from_dense(
            vec![
                vec![1.0f64, -1.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, -1.0, 0.0, 1.0],
                vec![1.0, 0.0, -1.0, 1.0, 1.0],
            ],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 0.0, 0.0],
        );
        let out = solve_cold(&form);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(out.values.iter().all(|v| v.abs() < 1e-9));
    }
}
