//! The dense two-phase tableau simplex — the crate's original solver, kept only as
//! the test oracle of the sparse revised simplex — plus the dense-matrix helpers the
//! unit tests write their fixtures with. This is the one file of the crate where a
//! dense matrix may appear.
//!
//! Production solves never reach this code: the float-first certified driver runs
//! the revised simplex and, when the `f64` run fails to converge, hands the exact
//! backend no candidate basis at all. The differential tests below pin the revised
//! simplex's status and objective to this independent implementation on random
//! small and medium systems, in exact and floating-point arithmetic.

use crate::deadline::Deadline;
use crate::problem::{LpSolveInfo, LpStatus};
use crate::revised::Columns;
use crate::scalar::{abs as abs_scalar, Scalar};
use crate::simplex::{RawSolution, StandardForm};

/// The column-major layout of a dense row-major `rows × num_cols` matrix, as
/// [`crate::problem::LpProblem`] builds it: ascending rows, no exactly-zero entry.
pub(crate) fn columns_from_dense<S: Scalar>(matrix: &[Vec<S>], num_cols: usize) -> Columns<S> {
    let mut cols = vec![Vec::new(); num_cols];
    for (row, cells) in matrix.iter().enumerate() {
        for (column, cell) in cols.iter_mut().zip(cells) {
            if !cell.is_exactly_zero() {
                column.push((row, cell.clone()));
            }
        }
    }
    Columns { cols, rows: matrix.len() }
}

/// The dense row-major copy of a form's constraint matrix.
fn dense_matrix<S: Scalar>(form: &StandardForm<S>) -> Vec<Vec<S>> {
    let mut matrix = vec![vec![S::zero(); form.costs.len()]; form.num_rows()];
    for (col, entries) in form.columns.cols.iter().enumerate() {
        for (row, value) in entries {
            matrix[*row][col] = value.clone();
        }
    }
    matrix
}

impl<S: Scalar> StandardForm<S> {
    /// A standard form from a dense row-major constraint matrix (test fixtures).
    pub(crate) fn from_dense(matrix: Vec<Vec<S>>, rhs: Vec<S>, costs: Vec<S>) -> StandardForm<S> {
        StandardForm {
            columns: columns_from_dense(&matrix, costs.len()),
            rhs,
            costs,
            free_pairs: Vec::new(),
        }
    }
}

/// Internal simplex state: the tableau `B⁻¹A | B⁻¹b` plus the current basis.
struct Tableau<S> {
    rows: Vec<Vec<S>>,
    rhs: Vec<S>,
    basis: Vec<usize>,
    num_cols: usize,
}

impl<S: Scalar> Tableau<S> {
    /// Rebuilds the tableau `B⁻¹[A | b]` for the *current basis* directly from the
    /// original standard-form data, clearing all accumulated floating-point round-off.
    ///
    /// Long dense pivot chains drift: after tens of thousands of pivots the tableau can
    /// be wrong enough that phase 1 stalls at a positive objective on a feasible system
    /// (observed on the Fig. 1 `join` synthesis LP, which stalled at exactly 1.0 while
    /// the exact backend proves the system feasible). Re-deriving the tableau from the
    /// untouched input is a dense Gauss–Jordan elimination pivoting on the basic columns
    /// — `O(rows² · cols)`, so it is only invoked at verdict boundaries and at a coarse
    /// period, not per iteration.
    ///
    /// Returns `false` (leaving the tableau untouched) if the basis matrix is
    /// numerically singular, in which case the caller must not trust the state either
    /// way and should report non-convergence.
    fn refactor(&mut self, original: &[Vec<S>], original_rhs: &[S]) -> bool {
        let n = self.rows.len();
        let mut rows: Vec<Vec<S>> = original.to_vec();
        let mut rhs: Vec<S> = original_rhs.to_vec();
        let mut pivoted = vec![false; n];
        for _ in 0..n {
            // Greedy pivot order: the unprocessed row whose basic column currently has
            // the largest magnitude (partial pivoting over the fixed row/column pairing).
            let mut best: Option<usize> = None;
            for row in 0..n {
                if pivoted[row] {
                    continue;
                }
                let magnitude = abs_scalar(&rows[row][self.basis[row]]);
                let better = match best {
                    None => true,
                    Some(b) => abs_scalar(&rows[b][self.basis[b]]).lt(&magnitude),
                };
                if better {
                    best = Some(row);
                }
            }
            let Some(row) = best else { return false };
            let col = self.basis[row];
            let pivot_value = rows[row][col].clone();
            if pivot_value.is_zero() {
                return false;
            }
            for cell in &mut rows[row] {
                *cell = cell.div(&pivot_value);
            }
            rhs[row] = rhs[row].div(&pivot_value);
            let pivot_cells = std::mem::take(&mut rows[row]);
            let pivot_rhs = rhs[row].clone();
            for other in 0..n {
                if other == row {
                    continue;
                }
                let factor = rows[other][col].clone();
                if factor.is_exactly_zero() {
                    continue;
                }
                for (cell, p) in rows[other].iter_mut().zip(&pivot_cells) {
                    if !p.is_exactly_zero() {
                        *cell = cell.sub(&factor.mul(p));
                    }
                }
                rhs[other] = rhs[other].sub(&factor.mul(&pivot_rhs));
            }
            rows[row] = pivot_cells;
            pivoted[row] = true;
        }
        self.rows = rows;
        self.rhs = rhs;
        true
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let pivot_value = self.rows[pivot_row][pivot_col].clone();
        debug_assert!(!pivot_value.is_zero());
        // Normalize the pivot row.
        for cell in &mut self.rows[pivot_row] {
            *cell = cell.div(&pivot_value);
        }
        self.rhs[pivot_row] = self.rhs[pivot_row].div(&pivot_value);
        // Eliminate the pivot column from all other rows. The pivot row is taken out of
        // the matrix so every update runs over two independent slices (row-major, no
        // per-element bounds checks); zero entries of the pivot row are skipped, which
        // saves most of the work on the sparse tableaus the Handelman encoding produces.
        let pivot_cells = std::mem::take(&mut self.rows[pivot_row]);
        let pivot_rhs = self.rhs[pivot_row].clone();
        for (row, (cells, rhs)) in self.rows.iter_mut().zip(self.rhs.iter_mut()).enumerate() {
            if row == pivot_row {
                continue;
            }
            let factor = cells[pivot_col].clone();
            if factor.is_zero() {
                continue;
            }
            for (cell, p) in cells.iter_mut().zip(&pivot_cells) {
                if !p.is_exactly_zero() {
                    *cell = cell.sub(&factor.mul(p));
                }
            }
            *rhs = rhs.sub(&factor.mul(&pivot_rhs));
        }
        self.rows[pivot_row] = pivot_cells;
        self.basis[pivot_row] = pivot_col;
    }

    /// Reduced costs `r_j = c_j - c_B · (B⁻¹ A_j)` for all columns, accumulated row by
    /// row so the traversal matches the tableau's memory layout.
    fn reduced_costs(&self, costs: &[S]) -> Vec<S> {
        let mut reduced: Vec<S> = costs[..self.num_cols].to_vec();
        for (row, &basic) in self.basis.iter().enumerate() {
            let bc = &costs[basic];
            if bc.is_zero() {
                continue;
            }
            for (value, cell) in reduced.iter_mut().zip(&self.rows[row]) {
                if !cell.is_exactly_zero() {
                    *value = value.sub(&bc.mul(cell));
                }
            }
        }
        reduced
    }

    fn objective_value(&self, costs: &[S]) -> S {
        let mut value = S::zero();
        for (row, &b) in self.basis.iter().enumerate() {
            value = value.add(&costs[b].mul(&self.rhs[row]));
        }
        value
    }

    /// Runs simplex iterations with the given costs until optimality, unboundedness,
    /// the iteration limit or the deadline. Returns the status.
    ///
    /// Reduced costs are maintained incrementally across pivots (`r' = r − r_e · ρ`
    /// where `ρ` is the post-pivot pivot row), which halves the per-iteration work
    /// compared to recomputing `c_j − c_B · B⁻¹A_j` from scratch. In floating point the
    /// maintained row drifts, so it is refreshed periodically and optimality is only
    /// reported after a confirmation pass over freshly recomputed reduced costs.
    ///
    /// `original` carries the untouched standard-form data (matrix extended with the
    /// artificial columns, and the right-hand side). When present, every floating-point
    /// verdict — optimality, unboundedness — is confirmed on a tableau freshly
    /// [refactored](Tableau::refactor) from it, and the tableau is periodically
    /// refactored mid-run to keep drift from steering pivots astray.
    fn optimize(
        &mut self,
        costs: &[S],
        allowed_cols: usize,
        max_iters: usize,
        deadline: &Deadline,
        original: Option<(&[Vec<S>], &[S])>,
        iterations: &mut usize,
    ) -> LpStatus {
        const REFRESH_EVERY: usize = 16;
        const DEADLINE_EVERY: usize = 64;
        /// Mid-run anti-drift refactorization period (f64 only). Refactoring is
        /// `O(rows²·cols)` — roughly a thousand ordinary pivots — so this keeps its
        /// amortized cost below ~15% while bounding how far the tableau can wander.
        const REFACTOR_EVERY: usize = 8192;
        /// How many verdict-time refactor-and-resume rescues are allowed before the
        /// verdict is accepted as-is (bounds the extra work on genuinely hard cases).
        const MAX_RESCUES: usize = 24;
        let bland_after = max_iters / 2;
        let mut reduced = self.reduced_costs(costs);
        let mut since_refresh = 0usize;
        let mut rescues = 0usize;
        let mut last_rescue_objective: Option<f64> = None;
        let refactor_and_resume =
            |tableau: &mut Self, reduced: &mut Vec<S>, rescues: &mut usize| -> bool {
                if S::IS_EXACT || *rescues >= MAX_RESCUES {
                    return false;
                }
                let Some((matrix, rhs)) = original else { return false };
                *rescues += 1;
                if !tableau.refactor(matrix, rhs) {
                    return false;
                }
                *reduced = tableau.reduced_costs(costs);
                true
            };
        for iteration in 0..max_iters {
            // Exact-backend pivots over blown-up rationals can take seconds each, so
            // the deadline is polled every iteration there; the cheap f64 iterations
            // amortize the clock read over a small batch.
            if (S::IS_EXACT || iteration % DEADLINE_EVERY == 0) && deadline.expired() {
                return LpStatus::TimedOut;
            }
            if !S::IS_EXACT {
                if iteration % REFACTOR_EVERY == REFACTOR_EVERY - 1 {
                    if let Some((matrix, rhs)) = original {
                        if self.refactor(matrix, rhs) {
                            reduced = self.reduced_costs(costs);
                            since_refresh = 0;
                        }
                    }
                } else if since_refresh >= REFRESH_EVERY {
                    reduced = self.reduced_costs(costs);
                    since_refresh = 0;
                }
            }
            let use_bland = S::IS_EXACT || iteration >= bland_after;
            // Entering column: negative reduced cost.
            let entering = if use_bland {
                (0..allowed_cols).find(|&j| reduced[j].is_negative())
            } else {
                // Dantzig: most negative reduced cost.
                let mut best: Option<usize> = None;
                for j in 0..allowed_cols {
                    if reduced[j].is_negative()
                        && best.is_none_or(|b| reduced[j].lt(&reduced[b]))
                    {
                        best = Some(j);
                    }
                }
                best
            };
            let Some(entering) = entering else {
                if !S::IS_EXACT && since_refresh != 0 {
                    // Apparent optimality on drifted data: confirm against fresh values.
                    reduced = self.reduced_costs(costs);
                    since_refresh = 0;
                    if (0..allowed_cols).any(|j| reduced[j].is_negative()) {
                        continue;
                    }
                }
                // Sharper confirmation: rebuild the tableau from the original data and
                // re-price. A stalled phase 1 (apparent optimum above zero on a feasible
                // system) resumes from here with round-off cleared. If a previous
                // rescue already landed on this objective value, further rescues will
                // only re-tread the same degenerate circle — accept the verdict and let
                // the caller's perturbed retry break the tie instead.
                let objective = self.objective_value(costs).to_f64();
                let stalled = last_rescue_objective
                    .is_some_and(|previous| (previous - objective).abs() <= 1e-9);
                last_rescue_objective = Some(objective);
                if !stalled && refactor_and_resume(self, &mut reduced, &mut rescues) {
                    since_refresh = 0;
                    if (0..allowed_cols).any(|j| reduced[j].is_negative()) {
                        continue;
                    }
                }
                // Round-off in long pivot chains can silently break primal feasibility
                // (negative basic values); report non-convergence instead of a bogus
                // optimum so callers fall back to the exact backend.
                if !S::IS_EXACT && self.rhs.iter().any(Scalar::is_negative) {
                    return LpStatus::IterationLimit;
                }
                return LpStatus::Optimal;
            };
            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio: Option<S> = None;
            for row in 0..self.rows.len() {
                let coeff = &self.rows[row][entering];
                if !coeff.is_positive() {
                    continue;
                }
                let ratio = self.rhs[row].div(coeff);
                let better = match &best_ratio {
                    None => true,
                    Some(best) => {
                        ratio.lt(best)
                            || (!best.lt(&ratio)
                                && leaving.is_some_and(|l| self.basis[row] < self.basis[l]))
                    }
                };
                if better {
                    best_ratio = Some(ratio);
                    leaving = Some(row);
                }
            }
            let Some(leaving) = leaving else {
                // An all-non-positive entering column may itself be a drift artifact:
                // confirm unboundedness on a freshly refactored tableau before giving up.
                if refactor_and_resume(self, &mut reduced, &mut rescues) {
                    since_refresh = 0;
                    continue;
                }
                return LpStatus::Unbounded;
            };
            self.pivot(leaving, entering);
            *iterations += 1;
            // Incremental reduced-cost update from the freshly normalized pivot row.
            let scale = reduced[entering].clone();
            if !scale.is_exactly_zero() {
                for (value, cell) in reduced.iter_mut().zip(&self.rows[leaving]) {
                    if !cell.is_exactly_zero() {
                        *value = value.sub(&scale.mul(cell));
                    }
                }
            }
            since_refresh += 1;
        }
        LpStatus::IterationLimit
    }
}

/// The dense two-phase tableau solve (the crate's original algorithm) over a
/// standard-form system.
pub(crate) fn solve_dense<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    noise_floor: f64,
) -> RawSolution<S> {
    let num_rows = form.num_rows();
    let num_structural = form.costs.len();
    let fail = RawSolution::bare;

    // Phase 1: add one artificial variable per row and minimize their sum.
    let num_cols = num_structural + num_rows;
    let mut rows = Vec::with_capacity(num_rows);
    for (i, mut extended) in dense_matrix(form).into_iter().enumerate() {
        extended.resize(num_cols, S::zero());
        extended[num_structural + i] = S::one();
        rows.push(extended);
    }
    // The untouched extended system, kept for mid-run and verdict-time tableau
    // refactorization (f64 drift recovery).
    let original_rows = rows.clone();
    let original_rhs = form.rhs.clone();
    let original = (original_rows.as_slice(), original_rhs.as_slice());
    let mut tableau = Tableau {
        rows,
        rhs: form.rhs.clone(),
        basis: (num_structural..num_cols).collect(),
        num_cols,
    };
    let mut phase1_costs = vec![S::zero(); num_cols];
    for cost in phase1_costs.iter_mut().skip(num_structural) {
        *cost = S::one();
    }
    let max_iters = 200 * (num_rows + num_cols) + 2000;
    let mut iterations = 0usize;
    let status = tableau.optimize(
        &phase1_costs,
        num_cols,
        max_iters,
        deadline,
        Some(original),
        &mut iterations,
    );
    if status == LpStatus::IterationLimit || status == LpStatus::TimedOut {
        return fail(status);
    }
    if status == LpStatus::Unbounded {
        // Phase 1 minimizes a sum of non-negative variables: its objective is bounded
        // below by zero, so "unbounded" can only be numerical noise. Report
        // non-convergence rather than letting the verdict fall through to the
        // infeasibility check (which is how a stalled `SimpleSingle2` phase 1 once
        // turned 80 s of drift into a wrong definitive answer).
        return fail(LpStatus::IterationLimit);
    }
    let phase1_value = tableau.objective_value(&phase1_costs);
    if phase1_value.is_positive() && (S::IS_EXACT || phase1_value.to_f64() > noise_floor) {
        return fail(LpStatus::Infeasible);
    }

    // Drive any remaining artificial variables out of the basis.
    for row in 0..num_rows {
        if tableau.basis[row] >= num_structural {
            // Find a structural column with a non-zero entry to pivot in.
            let pivot_col = (0..num_structural).find(|&j| !tableau.rows[row][j].is_zero());
            match pivot_col {
                Some(col) => tableau.pivot(row, col),
                None => {
                    // Redundant row: every structural coefficient is zero. The artificial
                    // stays basic at value zero, which is harmless for phase 2 as long as
                    // it can never re-enter (we restrict entering columns to structural).
                }
            }
        }
    }

    // Phase 2: original costs (artificial columns are excluded from entering).
    let mut phase2_costs = form.costs.clone();
    phase2_costs.resize(num_cols, S::zero());
    let status = tableau.optimize(
        &phase2_costs,
        num_structural,
        max_iters,
        deadline,
        Some(original),
        &mut iterations,
    );
    // Anytime semantics (mirrors the revised path): a deadline hit during phase 2
    // leaves a primal-feasible tableau whose objective is a sound upper bound.
    let truncated = status == LpStatus::TimedOut
        && !S::IS_EXACT
        && !tableau.rhs.iter().any(|v| v.to_f64() < -1e-6);
    if status != LpStatus::Optimal && !truncated {
        return fail(status);
    }

    let mut values = vec![S::zero(); num_structural];
    for (row, &basic) in tableau.basis.iter().enumerate() {
        if basic < num_structural && !tableau.rhs[row].is_negative() {
            values[basic] = tableau.rhs[row].clone();
        }
    }
    RawSolution {
        values,
        basis: tableau.basis.iter().copied().filter(|&b| b < num_structural).collect(),
        // The dense tableau maintains no LU at all; its pivots are neither eta
        // updates nor refactorizations.
        info: LpSolveInfo { iterations, truncated, ..LpSolveInfo::default() },
        ..RawSolution::bare(LpStatus::Optimal)
    }
}

mod tests {
    use super::*;
    use crate::{exact, float};
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    /// Differential check: the revised simplex and the dense tableau must agree on
    /// status and objective for a swarm of small deterministic pseudo-random LPs
    /// (exact arithmetic, so any disagreement is an algorithmic bug, not round-off).
    #[test]
    fn revised_and_dense_agree_on_random_small_lps() {
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..1500 {
            let m = 1 + (next() % 7) as usize;
            let n = 1 + (next() % 9) as usize;
            let matrix: Vec<Vec<Rational>> = (0..m)
                .map(|_| (0..n).map(|_| r((next() % 7) as i64 - 3, 1)).collect())
                .collect();
            let rhs: Vec<Rational> = (0..m).map(|_| r((next() % 5) as i64, 1)).collect();
            let costs: Vec<Rational> = (0..n).map(|_| r((next() % 7) as i64 - 3, 1)).collect();
            let form = StandardForm::from_dense(matrix, rhs, costs.clone());
            let objective = |values: &[Rational]| -> Rational {
                values
                    .iter()
                    .zip(&costs)
                    .fold(Rational::zero(), |acc, (v, c)| &acc + &(v * c))
            };
            let revised = exact::solve(&form, &Deadline::unlimited(), None, None);
            let dense = solve_dense(&form, &Deadline::unlimited(), 0.0);
            assert_eq!(
                revised.status, dense.status,
                "case {case}: status diverged on {form:?}"
            );
            if revised.status == LpStatus::Optimal {
                assert_eq!(
                    objective(&revised.values),
                    objective(&dense.values),
                    "case {case}: objective diverged on {form:?}"
                );
            }
        }
    }

    /// The same differential check on the `f64` path, biased toward the degenerate
    /// all-zero right-hand sides the Handelman encodings produce.
    #[test]
    fn revised_and_dense_agree_on_degenerate_f64_lps() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..600 {
            let m = 2 + (next() % 8) as usize;
            let n = 2 + (next() % 12) as usize;
            let matrix: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| ((next() % 7) as i64 - 3) as f64).collect())
                .collect();
            // Three out of four right-hand sides are zero: maximal degeneracy.
            let rhs: Vec<f64> = (0..m)
                .map(|_| if next() % 4 == 0 { (next() % 5) as f64 } else { 0.0 })
                .collect();
            let costs: Vec<f64> = (0..n).map(|_| ((next() % 7) as i64 - 3) as f64).collect();
            let form = StandardForm::from_dense(matrix, rhs, costs.clone());
            let objective = |values: &[f64]| -> f64 {
                values.iter().zip(&costs).map(|(v, c)| v * c).sum()
            };
            let revised = float::propose(form.clone(), &Deadline::unlimited(), None);
            let dense = solve_dense(&form, &Deadline::unlimited(), 0.0);
            // `IterationLimit` is an honest "don't know" on either side; only compare
            // definitive answers.
            if revised.status == LpStatus::IterationLimit
                || dense.status == LpStatus::IterationLimit
            {
                continue;
            }
            assert_eq!(
                revised.status, dense.status,
                "case {case}: status diverged on {form:?}"
            );
            if revised.status == LpStatus::Optimal {
                let (a, b) = (objective(&revised.values), objective(&dense.values));
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
                    "case {case}: objective diverged ({a} vs {b}) on {form:?}"
                );
            }
        }
    }

    /// Medium-sized degenerate systems: enough pivots to cross the periodic
    /// reinversion threshold, so the eta-file rebuild itself is exercised.
    #[test]
    fn revised_handles_reinversion_on_medium_degenerate_lps() {
        let mut seed = 0xDEADBEEFCAFEBABEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..20 {
            let m = 16 + (next() % 24) as usize;
            let n = m + 8 + (next() % 32) as usize;
            let matrix: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            if next() % 3 == 0 {
                                ((next() % 9) as i64 - 4) as f64
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            let rhs: Vec<f64> = (0..m)
                .map(|_| if next() % 3 == 0 { (next() % 6) as f64 } else { 0.0 })
                .collect();
            let costs: Vec<f64> = (0..n).map(|_| ((next() % 9) as i64 - 4) as f64).collect();
            let form = StandardForm::from_dense(matrix, rhs, costs.clone());
            let objective = |values: &[f64]| -> f64 {
                values.iter().zip(&costs).map(|(v, c)| v * c).sum()
            };
            let revised = float::propose(form.clone(), &Deadline::unlimited(), None);
            let dense = solve_dense(&form, &Deadline::unlimited(), 0.0);
            if revised.status == LpStatus::IterationLimit
                || dense.status == LpStatus::IterationLimit
            {
                continue;
            }
            assert_eq!(
                revised.status, dense.status,
                "case {case} ({m}x{n}): status diverged"
            );
            if revised.status == LpStatus::Optimal {
                let (a, b) = (objective(&revised.values), objective(&dense.values));
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
                    "case {case} ({m}x{n}): objective diverged ({a} vs {b})"
                );
            }
        }
    }
}
