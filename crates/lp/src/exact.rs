//! The exact [`Rational`] revised simplex: it decides.
//!
//! Exact arithmetic cannot drift, so this loop needs none of the float loop's
//! defenses against round-off. It is built around the cost of rational arithmetic
//! instead: Bland's rule with a candidate queue, memoized and `f64`-prescreened
//! pricing, a dual maintained incrementally across pivots, and rank-1 eta updates
//! with a full Markowitz refactorization ([`factorize_markowitz`]) only when the eta
//! file outgrows the basis fill ([`should_refactorize`]). On the degree-3 `nested`
//! repair (41.7k exact pivots) a fixed every-256-pivots cadence spent most of its
//! ~212 s in ~160 full rational refactorizations; the growth policy needs a handful.

use std::collections::VecDeque;

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::lu::{factorize_markowitz, should_refactorize};
use crate::problem::LpStatus;
use crate::revised::{Phase, Simplex};
use crate::scalar::Scalar;
use crate::simplex::{RawSolution, StandardForm};

/// Solves a standard-form problem in exact arithmetic.
///
/// `warm` seeds the initial basis with preferred structural columns; columns that
/// are dependent in the new system are silently dropped. The deadline is polled
/// every pivot; a deadline hit during phase 2 returns the current vertex as an
/// *anytime* answer (`info.truncated`): every phase-2 vertex is exactly feasible, so
/// its objective is a sound — merely loose — upper bound.
///
/// `progress` is handed the objective of the vertex when phase 2 starts and after
/// each phase-2 refactorization; it only watches.
///
/// A proven (non-truncated) optimum carries its terminal dual `y = c_B B⁻¹`
/// (artificial basis positions priced at cost zero) in `dual`: row generation
/// prices excluded columns against it directly, skipping a Markowitz
/// re-derivation that could land on a different (uncertifiable) padding of a
/// degenerate basis.
pub(crate) fn solve(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    progress: Option<&mut dyn FnMut(&Rational)>,
) -> RawSolution<Rational> {
    if form.num_rows() == 0 {
        return RawSolution::unconstrained(&form.costs);
    }
    let simplex = Simplex::new(form, warm, factorize_markowitz);
    let base_fill = simplex.factor.eta_nnz();
    let mut run = ExactRun {
        simplex,
        eta_nnz_since_refactor: 0,
        base_fill,
        lu_updates: 0,
        lu_refactorizations: 0,
        progress: None,
    };
    let max_iters = run.simplex.max_iterations();
    if run.simplex.needs_phase1() {
        match run.optimize(Phase::One, max_iters, deadline) {
            LpStatus::Optimal => {}
            // Phase 1's objective is bounded below by zero; report non-convergence
            // rather than a definitive verdict should a ray ever show up.
            LpStatus::Unbounded => return run.finish(LpStatus::IterationLimit),
            other => return run.finish(other),
        }
        if run.simplex.basic_artificials().any(Scalar::is_positive) {
            return run.finish(LpStatus::Infeasible);
        }
    }

    // Phase 2 starts with every basic artificial at exactly zero, and the ratio test
    // pins them there, so every phase-2 vertex satisfies the original equalities.
    run.progress = progress.map(|progress| progress as _);
    run.report_progress();
    let mut status = run.optimize(Phase::Two, max_iters, deadline);
    let truncated =
        status == LpStatus::TimedOut && !run.simplex.x_basic.iter().any(Scalar::is_negative);
    if truncated {
        status = LpStatus::Optimal;
    }
    let mut solution = run.finish(status);
    solution.info.truncated = truncated;
    if status == LpStatus::Optimal && !truncated {
        let mut y = vec![Rational::zero(); form.num_rows()];
        run.simplex.dual(Phase::Two, &mut y);
        solution.dual = Some(y);
    }
    solution
}

/// The exact simplex state: the shared basis plus the refactorization policy's
/// bookkeeping and the phase-2 observer.
struct ExactRun<'a> {
    simplex: Simplex<'a, Rational>,
    /// Weighted eta-file size appended since the last rebuild (non-zeros scaled by
    /// rational bit length, see [`crate::revised::Eta::weight`]): the incremental
    /// cost the refactorization policy weighs against `base_fill`.
    eta_nnz_since_refactor: usize,
    /// Weighted eta-file size right after the last rebuild (the Markowitz fill of
    /// the basis itself), the baseline the growth policy compares against.
    base_fill: usize,
    /// Pivots absorbed as incremental rank-1 eta updates.
    lu_updates: usize,
    /// Full Markowitz refactorizations performed mid-run.
    lu_refactorizations: usize,
    /// The phase-2 observer of [`solve`] (unset during phase 1).
    progress: Option<&'a mut dyn FnMut(&Rational)>,
}

impl ExactRun<'_> {
    fn finish(&self, status: LpStatus) -> RawSolution<Rational> {
        let mut solution = self.simplex.finish(status);
        solution.info.lu_updates = self.lu_updates;
        solution.info.lu_refactorizations = self.lu_refactorizations;
        solution
    }

    /// Hands `progress` the objective `c·x` of the current vertex if it is exactly
    /// feasible (no basic value negative, no basic artificial non-zero), and so an
    /// upper bound on the optimum. Without an observer nothing is computed.
    fn report_progress(&mut self) {
        let Some(progress) = self.progress.as_mut() else { return };
        let simplex = &self.simplex;
        let costs = &simplex.form.costs;
        let n = costs.len();
        let mut objective = Rational::zero();
        for (&col, value) in simplex.factor.basis.iter().zip(&simplex.x_basic) {
            if value.is_negative() || (col >= n && !value.is_exactly_zero()) {
                return;
            }
            if col < n {
                objective = objective.add(&costs[col].mul(value));
            }
        }
        progress(&objective);
    }

    /// Replaces the factorization with a fresh Markowitz LU of the current basis.
    fn refactorize(&mut self) {
        let factor = factorize_markowitz(self.simplex.columns(), &self.simplex.factor.basis);
        self.simplex.install(factor);
        self.eta_nnz_since_refactor = 0;
        self.base_fill = self.simplex.factor.eta_nnz();
        self.lu_refactorizations += 1;
    }

    fn optimize(&mut self, phase: Phase, max_iters: usize, deadline: &Deadline) -> LpStatus {
        /// Bland's rule (first improving column) is termination-safe, and the greedier
        /// alternatives were *measured worse* on the degree-3 `nested` system: full
        /// Dantzig and Dantzig over a 64-column window both walk pivot sequences
        /// whose exact coefficients grow enough to miss the deadline. But a full
        /// sweep is `O(n · nnz)` in rational arithmetic and dominates the per-pivot
        /// cost on the big Handelman systems, so a sweep banks the next
        /// `EXACT_QUEUE` improving columns (in index order). Later pivots pop
        /// candidates and *re-verify their reduced cost exactly* before entering — a
        /// stale candidate is just skipped, and the optimality verdict is still only
        /// ever declared by a full sweep that found nothing.
        const EXACT_QUEUE: usize = 32;
        /// During a streak of this many zero-step pivots the queue is cleared every
        /// iteration, which restores textbook lowest-index Bland and its
        /// anti-cycling guarantee.
        const BLAND_AFTER_DEGENERATE: usize = 64;
        /// Rigorous `f64` prescreen for the sweep. On the heavily degenerate
        /// Handelman systems ~97% of exact pivots run during degenerate streaks where
        /// the queue is cleared every iteration, so nearly every pivot pays a full
        /// O(n · nnz) *rational* pricing sweep. The prescreen computes each reduced
        /// cost in `f64` against cached `f64` column copies TOGETHER with a forward
        /// error bound (`PRESCREEN_EPS` × the accumulated magnitude sum): a column is
        /// skipped only when its reduced cost is *provably* positive — the true
        /// rounding error is ≤ ~3·nnz·2⁻⁵² × the magnitude sum, orders of magnitude
        /// below the threshold — so Bland's lowest-index order and the optimality
        /// verdict remain exact. Overflow/NaN (huge rationals) fails `is_finite` and
        /// falls through to the exact dot product, never to a wrong skip.
        const PRESCREEN_EPS: f64 = 1e-9;
        let m = self.simplex.form.num_rows();
        let n = self.simplex.form.costs.len();
        let mut consecutive_degenerate = 0usize;
        let mut candidates: VecDeque<usize> = VecDeque::new();
        let cols64: Vec<Vec<(usize, f64)>> = self
            .simplex
            .columns()
            .cols
            .iter()
            .map(|col| col.iter().map(|(row, v)| (*row, v.to_f64())).collect())
            .collect();
        let costs64: Vec<f64> = (0..n).map(|j| self.simplex.cost(phase, j).to_f64()).collect();
        let mut y64 = vec![0.0f64; m];
        let mut y = vec![Rational::zero(); m];
        // `y` is maintained *incrementally* across pivots (see the update at the
        // pivot step) and only recomputed from a dense `c_B` BTRAN when this flag is
        // down — at phase start and after a refactorization.
        let mut y_valid = false;
        // Reduced-cost memoization. A pivot's dual update touches only the rows where
        // ρ_r is non-zero, so a column whose support none of those rows intersect has
        // an *unchanged* reduced cost — re-deriving it every sweep is pure waste on
        // the long degenerate streaks. `changed_at` stamps each dual row with the tick
        // of its last change; `r_cache[j]` holds the verdict computed at some tick
        // (`None` = proven non-negative, `Some(r)` = exact negative reduced cost) and
        // is trusted while no row in the column's support carries a newer stamp.
        // Exactness makes this sound: a cached verdict is bit-for-bit what a fresh
        // dot product would produce, so Bland's order and the optimality proof are
        // unchanged.
        let mut tick: u64 = 0;
        let mut changed_at = vec![0u64; m];
        let mut r_cache: Vec<(u64, Option<Rational>)> = vec![(0, None); n];
        for _ in 0..max_iters {
            if deadline.expired() {
                return LpStatus::TimedOut;
            }
            if should_refactorize(
                self.simplex.etas_since_rebuild,
                self.eta_nnz_since_refactor,
                self.base_fill,
                m,
            ) {
                self.refactorize();
                self.report_progress();
                // The dual `y = c_B B⁻¹` depends only on the basis, which a rebuild
                // preserves — but a rebuild may *degrade* (swap a dependent column
                // for an artificial), and a fresh short factorization re-derives the
                // same values through far fewer etas, so recompute either way.
                y_valid = false;
            }
            if !y_valid {
                self.simplex.dual(phase, &mut y);
                y_valid = true;
                // Every row is considered touched: the rebuild may have degraded the
                // basis, so no cached verdict survives a full recompute.
                tick += 1;
                changed_at.fill(tick);
                for (value, exact) in y64.iter_mut().zip(&y) {
                    *value = exact.to_f64();
                }
            }
            // The entering column with its exact reduced cost d̄_q: the incremental
            // dual update at the pivot step needs it (γ = d̄_q / α_r).
            let mut entering: Option<(usize, Rational)> = None;
            if consecutive_degenerate >= BLAND_AFTER_DEGENERATE {
                // Zero-step streak: drop the stale queue and run textbook Bland.
                candidates.clear();
            }
            while let Some(j) = candidates.pop_front() {
                if self.simplex.in_basis[j] {
                    continue;
                }
                let reduced = self.simplex.reduced_cost(phase, &y, j);
                let negative = reduced.is_negative();
                r_cache[j] = (tick, if negative { Some(reduced.clone()) } else { None });
                if negative {
                    entering = Some((j, reduced));
                    break;
                }
            }
            if entering.is_none() {
                let mut queued = 0usize;
                for j in 0..n {
                    if !self.simplex.may_enter(j) {
                        continue;
                    }
                    // Memoized verdict first: trusted while no dual row in the
                    // column's support changed since it was computed.
                    let stamp = r_cache[j].0;
                    let cached_fresh = stamp != 0
                        && self.simplex.columns().cols[j]
                            .iter()
                            .all(|(row, _)| changed_at[*row] <= stamp);
                    let reduced = if cached_fresh {
                        match &r_cache[j].1 {
                            None => continue,
                            Some(r) => r.clone(),
                        }
                    } else {
                        // Provably-positive reduced costs are skipped without any
                        // rational arithmetic (see PRESCREEN_EPS above).
                        let mut r64 = costs64[j];
                        let mut mag = r64.abs();
                        for &(row, v) in &cols64[j] {
                            let term = y64[row] * v;
                            r64 -= term;
                            mag += term.abs();
                        }
                        if r64.is_finite() && mag.is_finite() && r64 > PRESCREEN_EPS * mag {
                            r_cache[j] = (tick, None);
                            continue;
                        }
                        let exact = self.simplex.reduced_cost(phase, &y, j);
                        let negative = exact.is_negative();
                        r_cache[j] = (tick, if negative { Some(exact.clone()) } else { None });
                        if !negative {
                            continue;
                        }
                        exact
                    };
                    if entering.is_none() {
                        entering = Some((j, reduced));
                        continue;
                    }
                    // Bank the following improving columns.
                    candidates.push_back(j);
                    queued += 1;
                    if queued >= EXACT_QUEUE {
                        break;
                    }
                }
            }
            let Some((entering, reduced)) = entering else {
                // The verdict was priced against the *incrementally maintained*
                // dual: it must agree exactly with a fresh dense BTRAN of `c_B`.
                debug_assert!({
                    let mut fresh = vec![Rational::zero(); m];
                    self.simplex.dual(phase, &mut fresh);
                    fresh == y
                });
                return LpStatus::Optimal;
            };
            let d = self.simplex.direction(entering);
            let Some(leaving) = self.simplex.leaving_row(&d, phase) else {
                return LpStatus::Unbounded;
            };
            // Incremental dual update in place of next iteration's dense `c_B` BTRAN.
            // With B̄ the post-pivot basis, the new dual is exactly
            // y' = y + (d̄_q / α_r)·ρ_r, where α_r = d[leaving] is the pivot element
            // and ρ_r = e_r B⁻¹ row r of the *pre-pivot* basis inverse — one BTRAN of
            // a unit vector, which stays sparse through the eta file (vs the dense
            // cost vector the full recomputation drags through it). Proof it prices
            // B̄ correctly: for a surviving basic column A_{B(i)}, ρ_r·A_{B(i)} =
            // (e_r)_i = 0, so y'·A_{B(i)} = c_{B(i)} unchanged; for the entering
            // column, ρ_r·A_q = d_r = α_r, so y'·A_q = (c_q − d̄_q) + d̄_q = c_q.
            // Exact arithmetic means no drift — the verdict sweep can trust the
            // maintained dual outright (debug builds audit it at every optimum).
            let mut rho = vec![Rational::zero(); m];
            rho[leaving] = Rational::one();
            self.simplex.factor.btran(&mut rho);
            let gamma = reduced.div(&d[leaving]);
            tick += 1;
            for (row, (value, r)) in y.iter_mut().zip(&rho).enumerate() {
                if !r.is_exactly_zero() {
                    *value = value.add(&gamma.mul(r));
                    // Stamp the touched rows (this is what invalidates cached
                    // reduced costs) and keep the f64 shadow dual in step.
                    changed_at[row] = tick;
                    y64[row] = value.to_f64();
                }
            }
            if self.simplex.pivot(&d, entering, leaving) {
                consecutive_degenerate += 1;
            } else {
                consecutive_degenerate = 0;
            }
            if let Some(eta) = self.simplex.factor.etas.last() {
                self.eta_nnz_since_refactor += eta.weight();
            }
            self.lu_updates += 1;
        }
        LpStatus::IterationLimit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    fn solve_cold(form: &StandardForm<Rational>) -> RawSolution<Rational> {
        solve(form, &Deadline::unlimited(), None, None)
    }

    /// minimize -x - y  s.t.  x + y + s = 4: optimum -4 at x + y = 4.
    #[test]
    fn small_exact_lp() {
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(4, 1)],
            vec![r(-1, 1), r(-1, 1), r(0, 1)],
        );
        let out = solve_cold(&form);
        assert_eq!(out.status, LpStatus::Optimal);
        let total = out.values[0].clone() + out.values[1].clone();
        assert_eq!(total, r(4, 1));
        assert!(out.info.iterations >= 1);
    }

    #[test]
    fn infeasible_exact_lp() {
        // x = 2 and x = 3 (as two equality rows over one column).
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(0, 1)],
        );
        assert_eq!(solve_cold(&form).status, LpStatus::Infeasible);
    }

    /// minimize -x - y  s.t.  x + y + s = 4  (i.e. x + y <= 4), expects objective -4.
    #[test]
    fn standard_form_direct() {
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(4, 1)],
            vec![r(-1, 1), r(-1, 1), r(0, 1)],
        );
        let sol = solve_cold(&form);
        assert_eq!(sol.status, LpStatus::Optimal);
        let total = sol.values[0].clone() + sol.values[1].clone();
        assert_eq!(total, r(4, 1));
    }

    #[test]
    fn empty_problem() {
        let form = StandardForm::from_dense(vec![], vec![], vec![Rational::one()]);
        let sol = solve_cold(&form);
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
        let sol = solve_cold(&form);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], r(2, 1));
    }

    #[test]
    fn infeasible_standard_form() {
        // x = 2 and x = 3 simultaneously; minimize x.
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(1, 1)],
        );
        assert_eq!(solve_cold(&form).status, LpStatus::Infeasible);
    }
}
