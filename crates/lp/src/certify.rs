//! Float-first, exact-repair LP driver: `f64` does the pivoting, rationals certify.
//!
//! The QSopt_ex-style precision-boosting scheme this module implements runs every
//! solve as straight-line code, in at most three steps:
//!
//! 1. **Float phase** — the `f64` revised simplex ([`crate::float`]) runs phases 1–2
//!    in hardware floats (Devex pricing, equilibration, anti-degeneracy perturbation)
//!    and proposes a candidate optimal *basis*. Floats decide nothing; they only guess.
//! 2. **Certification** — run once, if the float phase ended `Optimal`: the
//!    candidate basis is factorized in exact rationals with the Markowitz-ordered
//!    sparse LU ([`crate::lu`]); `x_B = B⁻¹b` and the reduced costs
//!    `c_j − c_B B⁻¹ A_j` are recomputed exactly, and the basis is accepted iff it is
//!    exactly feasible (`x_B ≥ 0`, artificial rows exactly zero) and exactly optimal
//!    (every nonbasic reduced cost `≥ 0`). An accepted answer is therefore a full
//!    exact-rational certificate, no different from one the exact simplex produces —
//!    it was merely *found* at f64 speed.
//! 3. **Exact run** — on rejection, or when the float phase ended any other way
//!    (infeasible, unbounded, iteration limit, timeout), the exact simplex
//!    ([`crate::exact`]) runs once, uncapped, warm-started from the float basis (or,
//!    when the float phase proposed none, from the caller's warm basis). From a
//!    rejected candidate it performs only the few pivots separating the float vertex
//!    from the true optimum. It is self-certifying.
//!
//! Every solve takes one path ([`solve_float_first`]), in at most two stages. The
//! *core stage* runs the steps above on the columns that are not lazy (all of
//! them when the lazy set is empty: the full eager solve) and prices every
//! excluded column exactly against the terminal dual of the step that decided the
//! core: the optimal dual, or the phase-1 Farkas certificate of an infeasible
//! core. If none prices in, the core answer is final. Otherwise the *full stage*
//! runs the exact simplex once over every column, warm-started from the core's
//! basis. One exact certificate backs each verdict, taken from the run that
//! decided it; none is re-derived.
//!
//! Soundness: every verdict this driver issues — optimal value, infeasible,
//! unbounded — is produced by exact-rational arithmetic (the certifier or the exact
//! simplex). The `f64` phase only ever influences *which basis* the exact machinery
//! looks at first, never what it concludes.

use std::time::Instant;

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::fault::{self, FaultKind, SolvePhase};
use crate::lu::factorize_markowitz;
use crate::problem::{LpProgress, LpSolveInfo, LpStatus};
use crate::revised::Columns;
use crate::scalar::Scalar;
use crate::simplex::{RawSolution, StandardForm};
use crate::{exact, float};

/// Exact certificate for an accepted basis.
struct Certificate {
    /// Values of the structural columns.
    values: Vec<Rational>,
    /// The structural basis columns (for warm-starting follow-up solves).
    basis: Vec<usize>,
    /// The exact optimal dual `y = c_B B⁻¹`. Verified dual-feasible over every
    /// column of the certified problem; the row-generation core stage prices
    /// lazily excluded columns against it to extend the certificate to the full
    /// set.
    dual: Vec<Rational>,
}

/// Accept/reject verdict of one certification pass.
enum Certified {
    /// Exactly primal and dual feasible: an accepted optimum with its certificate.
    Accepted(Certificate),
    /// Rejected. When the basis was exactly *dual* feasible but primal infeasible,
    /// weak duality makes `y·b` an exact lower bound on the optimum, reported here
    /// so a later truncated (anytime) answer can bracket the unproven optimum.
    Rejected {
        dual_bound: Option<Rational>,
    },
}

/// Fraction of the remaining budget the float phase may consume (the exact phases
/// must keep the lion's share: they are the sound fallback with anytime semantics).
const FLOAT_BUDGET_FRACTION: f64 = 0.25;

/// Exact accept/reject of a candidate optimal basis for `min c·y, Ay = b, y ≥ 0`.
///
/// Returns the exact solution iff the basis is exactly primal feasible *and* exactly
/// dual feasible (optimal). Artificial rows (rank deficiency of the candidate) are
/// accepted only at exactly zero.
fn certify_basis(
    form: &StandardForm<Rational>,
    basis: &[usize],
    deadline: &Deadline,
) -> Certified {
    let columns = &form.columns;
    let m = columns.rows;
    let n = columns.cols.len();
    // Certification is exact work too and must honor the per-attempt budget like
    // every other exact loop; an aborted certification is just a rejection — the
    // caller's exact run times out promptly on the same deadline.
    if deadline.expired() {
        return Certified::Rejected { dual_bound: None };
    }
    let factor = factorize_markowitz(columns, basis);
    if deadline.expired() {
        return Certified::Rejected { dual_bound: None };
    }

    // Exact primal feasibility: x_B = B⁻¹ b ≥ 0, with artificial rows exactly 0.
    // A violation does not abort the pass: the dual pricing below may still
    // salvage an exact lower bound from the rejected basis.
    let mut x_basic = form.rhs.clone();
    factor.ftran(&mut x_basic);
    let primal_ok = x_basic.iter().enumerate().all(|(pos, value)| {
        !value.is_negative() && (factor.basis[pos] < n || value.is_zero())
    });

    // Exact dual feasibility: y = c_B B⁻¹, r_j = c_j − y·A_j ≥ 0 for every nonbasic
    // structural column (artificials carry cost 0; basic columns price to 0 exactly).
    let mut y = vec![Rational::zero(); m];
    for (pos, value) in y.iter_mut().enumerate() {
        let col = factor.basis[pos];
        if col < n {
            *value = form.costs[col].clone();
        }
    }
    factor.btran(&mut y);
    let mut in_basis = vec![false; n];
    for &col in &factor.basis {
        if col < n {
            in_basis[col] = true;
        }
    }
    for (j, &basic) in in_basis.iter().enumerate() {
        if basic {
            continue;
        }
        if j % 256 == 0 && deadline.expired() {
            return Certified::Rejected { dual_bound: None };
        }
        let reduced = form.costs[j].sub(&columns.dot(&y, j));
        if reduced.is_negative() {
            return Certified::Rejected { dual_bound: None };
        }
    }

    if !primal_ok {
        // Dual feasible, primal infeasible: for any feasible x, c·x ≥ y·Ax = y·b
        // (weak duality; artificial basis slots carry cost 0 and structural pricing
        // held above), so `y·b` is an exact lower bound on the optimum.
        let bound = y
            .iter()
            .zip(&form.rhs)
            .fold(Rational::zero(), |acc, (y_i, b_i)| acc.add(&y_i.mul(b_i)));
        return Certified::Rejected { dual_bound: Some(bound) };
    }

    let mut values = vec![Rational::zero(); n];
    for (pos, &col) in factor.basis.iter().enumerate() {
        if col < n {
            values[col] = x_basic[pos].clone();
        }
    }
    let basis = factor.basis.iter().copied().filter(|&col| col < n).collect();
    Certified::Accepted(Certificate { values, basis, dual: y })
}

/// Solves a standard-form problem with the float-first / certify / exact-run driver.
///
/// The returned solution is always exact ([`Rational`]); see the module docs for the
/// soundness argument. `warm` carries preferred structural columns, exactly like
/// [`crate::exact::solve`].
///
/// `lazy_cols` marks columns eligible for delayed generation. The solve runs in at
/// most two stages:
///
/// **Core stage.** The core is every non-lazy column plus any lazy column the
/// warm basis names: a basis threaded in from a previous related solve (the serve
/// near-match path) already names the lazy columns that mattered there, so
/// row-generation state travels for free. An empty lazy set is a core that
/// excludes nothing, borrowed rather than copied. The core is solved with
/// [`certified_core`], and every excluded column is then priced *exactly*, once,
/// against the core's terminal dual `y`, the certificate of the run that decided
/// it:
///
/// * `Optimal`: `y` is the phase-2 dual, and a column prices in when
///   `c_j − y·A_j < 0`. When none does, exact dual feasibility holds over the
///   *full* column set, so the core optimum extended with zeros is a certified
///   optimum of the full problem.
/// * `Infeasible`: `y` is the phase-1 Farkas certificate (`y·b > 0`, `y·A_j ≤ 0`
///   on the core), priced with cost 0: a column prices in when `y·A_j > 0`. When
///   none does, the same `y` proves the full system infeasible.
/// * Anything else (unbounded, timeout, anytime-truncated optimum) carries no dual
///   and is returned as-is: a core feasible point is a feasible point of the full
///   problem, so truncated answers keep their sound-upper-bound meaning, and an
///   unbounded core makes the full problem unbounded a fortiori.
///
/// **Full stage.** Otherwise some column priced in, and the exact simplex runs once
/// on the full form, warm-started from the core's final basis. Its verdict needs no
/// separation argument, and a truncated answer is an anytime answer of the full
/// problem. Activating only the violated columns and re-solving instead costs more:
/// each extra round restarts from a warm basis and re-proves dual feasibility,
/// almost entirely through degenerate pivots (EXPERIMENTS.md, "Core, then full").
///
/// `progress` observes every exact simplex run of the solve (see [`LpProgress`]).
pub(crate) fn solve_float_first(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    lazy_cols: &[usize],
    mut progress: Option<&mut LpProgress<'_>>,
) -> RawSolution<Rational> {
    // Every terminal verdict below comes out of exact arithmetic: the certifier or
    // the exact simplex. (A truncated anytime answer is exactly
    // feasible — its bound is sound — but not a proven optimum.)
    let mut info = LpSolveInfo { certified: true, ..LpSolveInfo::default() };
    let n = form.costs.len();
    let mut in_core = vec![true; n];
    for &col in lazy_cols {
        in_core[col] = false;
    }
    for &col in warm.unwrap_or_default() {
        in_core[col] = true;
    }
    info.products_total = lazy_cols.len();
    if !lazy_cols.is_empty() {
        info.separation_rounds = 1;
        enter_rowgen_stage(deadline);
    }

    let restrict_start = Instant::now();
    let core_cols: Vec<usize> = (0..n).filter(|&j| in_core[j]).collect();
    let core_form = form.restricted(&core_cols);
    info.build_time += restrict_start.elapsed();
    let full_core = core_cols.len() == n;
    // `core_cols` is ascending, so a full index maps to its core index by search.
    let warm_core: Option<Vec<usize>> =
        warm.map(|warm| warm.iter().filter_map(|j| core_cols.binary_search(j).ok()).collect());
    // A core vertex padded with zeros is feasible for the full problem, but a dual
    // bound certified against a core that excludes columns bounds only the core
    // optimum (which is ≥ the full optimum).
    let mut core_progress = progress.as_deref_mut().map(|progress| {
        move |upper: &_, lower: Option<&_>| progress(upper, lower.filter(|_| full_core))
    });
    let core_progress = core_progress.as_mut().map(|progress| progress as &mut LpProgress);
    let mut core =
        certified_core(&core_form, deadline, warm_core.as_deref(), &mut info, true, core_progress);

    let decided = match &core.dual {
        Some(y) => {
            let phase_one = core.status == LpStatus::Infeasible;
            (0..n).filter(|&j| !in_core[j]).all(|j| {
                let cost = if phase_one { Rational::zero() } else { form.costs[j].clone() };
                !cost.sub(&form.columns.dot(y, j)).is_negative()
            })
        }
        None => {
            debug_assert!(
                core.status != LpStatus::Infeasible
                    && (core.status != LpStatus::Optimal || core.info.truncated),
                "a core verdict came without the dual that proves it"
            );
            true
        }
    };
    core.basis = core.basis.iter().map(|&j| core_cols[j]).collect();

    let mut solution = if decided {
        info.products_generated = lazy_cols.iter().filter(|&&j| in_core[j]).count();
        if !full_core {
            core.dual_bound = None;
            // Expand the core answer to the full column space: excluded columns sit
            // at zero (they are nonbasic by construction).
            if core.status == LpStatus::Optimal {
                let mut values = vec![Rational::zero(); n];
                for (value, &j) in core.values.into_iter().zip(&core_cols) {
                    values[j] = value;
                }
                core.values = values;
            }
        }
        core
    } else {
        info.separation_rounds = 2;
        info.products_generated = lazy_cols.len();
        enter_rowgen_stage(deadline);
        certified_core(form, deadline, Some(&core.basis), &mut info, false, progress)
    };
    solution.info = LpSolveInfo {
        iterations: info.float_iterations + info.exact_iterations,
        truncated: solution.info.truncated,
        ..info
    };
    solution
}

/// The `f64` image of an exact form, the float phase's input: every non-zero
/// mapped with `to_f64`. An entry whose image is `0.0` is dropped, so the float
/// columns keep the no-zero-entry invariant (`Rational::to_f64` currently maps
/// every non-zero rational to a non-zero float, so no entry is lost today).
pub(crate) fn float_image(form: &StandardForm<Rational>) -> StandardForm<f64> {
    let cols = form
        .columns
        .cols
        .iter()
        .map(|column| {
            column
                .iter()
                .map(|(row, value)| (*row, value.to_f64()))
                .filter(|(_, value)| *value != 0.0)
                .collect()
        })
        .collect();
    StandardForm {
        columns: Columns { cols, rows: form.num_rows() },
        rhs: form.rhs.iter().map(Rational::to_f64).collect(),
        costs: form.costs.iter().map(Rational::to_f64).collect(),
        free_pairs: form.free_pairs.clone(),
    }
}

/// The float-first / certify / exact-run pipeline on one (possibly
/// column-restricted) problem.
///
/// `form` is solved as-is and `warm` carries preferred columns in `form`'s own
/// index space. Effort is *accumulated* into `info` so [`solve_float_first`] can
/// call this once per stage and keep a single whole-solve account. With
/// `use_float = false` the float phase is skipped and the exact simplex runs
/// from `warm`.
///
/// The solution's `dual` is the terminal dual of whichever exact step decided it:
/// the accepted certificate's, or the one [`exact::solve`] returns with a proven
/// optimum (phase 2) or an `Infeasible` verdict (phase 1). An `Infeasible` verdict
/// always comes from the exact run, since the certifier accepts only optima.
///
/// `progress` observes the exact run, with the dual bound of a rejected float
/// candidate as the lower end when the certifier salvaged one.
fn certified_core(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    info: &mut LpSolveInfo,
    mut use_float: bool,
    progress: Option<&mut LpProgress<'_>>,
) -> RawSolution<Rational> {
    if use_float {
        match fault::enter(SolvePhase::LpFloat) {
            Some(FaultKind::Deadline) => deadline.cancel(),
            // Forced numeric rejection: discard the float phase outright; the exact
            // run below must still reproduce the fault-free answer.
            Some(FaultKind::Numeric) => use_float = false,
            _ => {}
        }
    }

    // ---- Float phase: solve the f64 image of the problem. --------------------------
    // Skipped (`use_float = false`) by the row-generation full stage: the core's
    // basis stays primal feasible when columns are only *added*, and on the full
    // column set the float phase mostly ends `Unbounded` or at its iteration limit
    // (EXPERIMENTS.md, "Core, then full").
    let mut candidate: Vec<usize> = Vec::new();
    let mut float_optimal = false;
    if use_float {
        let float_start = Instant::now();
        // The float phase only proposes a basis; cap its budget so the exact phases
        // keep most of the wall-clock (they are the sound anytime fallback). The
        // tightened clone shares the cancel flag, so external cancellation still
        // reaches the float simplex.
        let float_deadline = deadline.tightened(deadline.instant().map(|d| {
            let remaining = d.saturating_duration_since(Instant::now());
            Instant::now() + remaining.mul_f64(FLOAT_BUDGET_FRACTION)
        }));
        let float = float::propose(float_image(form), &float_deadline, warm);
        info.float_time += float_start.elapsed();
        info.float_iterations += float.info.iterations;
        candidate = float.basis;
        float_optimal = float.status == LpStatus::Optimal && !float.info.truncated;
    }

    // ---- Certification: one exact accept/reject of the float optimum. ---------------
    // A rejected basis that is exactly dual feasible still yields an exact lower
    // bound, attached below to a truncated answer so the caller can report a gap.
    let mut accepted: Option<Certificate> = None;
    let mut rejected_bound: Option<Rational> = None;
    if float_optimal {
        let force_reject = match fault::enter(SolvePhase::LpCertify) {
            Some(FaultKind::Deadline) => {
                deadline.cancel();
                false
            }
            // Injected numeric failure: pretend certification rejected the
            // candidate; the exact run must still land on the fault-free answer
            // (soundness never rests on the certifier alone).
            Some(FaultKind::Numeric) => true,
            _ => false,
        };
        let certify_start = Instant::now();
        let certified = if force_reject {
            Certified::Rejected { dual_bound: None }
        } else {
            certify_basis(form, &candidate, deadline)
        };
        info.certify_time += certify_start.elapsed();
        info.certify_rounds += 1;
        match certified {
            Certified::Accepted(certificate) => accepted = Some(certificate),
            Certified::Rejected { dual_bound } => rejected_bound = dual_bound,
        }
    }

    // ---- Exact run (uncapped, warm-started from the float basis). ------------------
    let mut solution = match accepted {
        Some(certificate) => {
            let mut solution = RawSolution::bare(LpStatus::Optimal);
            solution.values = certificate.values;
            solution.basis = certificate.basis;
            solution.dual = Some(certificate.dual);
            solution
        }
        None => {
            // Deadline faults here exercise the real cancellation path; a numeric
            // fault has nothing to reject.
            if fault::enter(SolvePhase::LpRepair) == Some(FaultKind::Deadline) {
                deadline.cancel();
            }
            let warm_exact: Option<&[usize]> =
                if !candidate.is_empty() { Some(&candidate) } else { warm };
            let lower = rejected_bound.as_ref();
            let mut report = progress.map(|progress| move |upper: &_| progress(upper, lower));
            let report = report.as_mut().map(|report| report as &mut dyn FnMut(&Rational));
            let repair_start = Instant::now();
            let exact = exact::solve(form, deadline, warm_exact, report);
            info.repair_time += repair_start.elapsed();
            info.exact_iterations += exact.info.iterations;
            info.lu_updates += exact.info.lu_updates;
            info.lu_refactorizations += exact.info.lu_refactorizations;
            exact
        }
    };

    // A truncated anytime answer carries the exact lower bound salvaged from the
    // rejected candidate, so the caller can bracket the unproven optimum:
    // `dual_bound ≤ optimum ≤ objective`.
    if solution.info.truncated && solution.dual_bound.is_none() {
        solution.dual_bound = rejected_bound;
    }
    solution
}

/// Marks the start of a row-generation stage. Deadline faults here exercise the
/// real cancellation path; a numeric fault has nothing to reject.
fn enter_rowgen_stage(deadline: &Deadline) {
    if fault::enter(SolvePhase::LpRowGen) == Some(FaultKind::Deadline) {
        deadline.cancel();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    fn accepted(certified: Certified) -> Option<Certificate> {
        match certified {
            Certified::Accepted(certificate) => Some(certificate),
            Certified::Rejected { .. } => None,
        }
    }

    /// minimize -x - y  s.t.  x + y + s = 4: optimum -4 at x + y = 4.
    #[test]
    fn float_first_certifies_a_simple_optimum() {
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(4, 1)],
            vec![r(-1, 1), r(-1, 1), r(0, 1)],
        );
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[], None);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(solution.info.certified);
        assert!(solution.info.certify_rounds >= 1, "the certifier must have run");
        assert_eq!(solution.info.exact_iterations, 0, "no exact repair needed");
        let total = solution.values[0].clone() + solution.values[1].clone();
        assert_eq!(total, r(4, 1));
    }

    #[test]
    fn float_first_agrees_with_exact_on_infeasible() {
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(0, 1)],
        );
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[], None);
        assert_eq!(solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn certifier_rejects_a_suboptimal_basis() {
        // minimize x1 with x1 + x2 = 1: optimum picks x2 basic. The basis {x1} is
        // feasible but not optimal, so certification must fail on it.
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(1, 1)]],
            vec![r(1, 1)],
            vec![r(1, 1), r(0, 1)],
        );
        assert!(
            accepted(certify_basis(&form, &[0], &Deadline::unlimited())).is_none(),
            "x1 basic is not optimal"
        );
        let certificate = accepted(certify_basis(&form, &[1], &Deadline::unlimited()))
            .expect("x2 basic is optimal");
        assert_eq!(certificate.values, vec![r(0, 1), r(1, 1)]);
    }

    #[test]
    fn certifier_rejects_infeasible_bases_and_nonzero_artificials() {
        // x1 - x2 = 1 with basis {x2}: x2 = -1 < 0 → infeasible basis.
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(-1, 1)]],
            vec![r(1, 1)],
            vec![r(0, 1), r(0, 1)],
        );
        assert!(accepted(certify_basis(&form, &[1], &Deadline::unlimited())).is_none());
        // Empty candidate: the row is covered by an artificial that must be 0 but
        // solves to 1 → reject.
        assert!(accepted(certify_basis(&form, &[], &Deadline::unlimited())).is_none());
        // With rhs = 0 the all-artificial basis is exactly feasible and optimal.
        let zero_form = StandardForm { rhs: vec![r(0, 1)], ..form };
        assert!(accepted(certify_basis(&zero_form, &[], &Deadline::unlimited())).is_some());
    }

    /// minimize 2x1 + x2  s.t.  x1 - x2 = 1. Basis {x2} solves to x2 = -1: primal
    /// infeasible — but its dual y = -1 prices x1 at 2 - (-1)(1) = 3 ≥ 0, so the
    /// rejection must salvage the weak-duality bound y·b = -1 (≤ the optimum 2).
    #[test]
    fn rejected_dual_feasible_basis_yields_an_exact_lower_bound() {
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(-1, 1)]],
            vec![r(1, 1)],
            vec![r(2, 1), r(1, 1)],
        );
        match certify_basis(&form, &[1], &Deadline::unlimited()) {
            Certified::Rejected { dual_bound: Some(bound) } => assert_eq!(bound, r(-1, 1)),
            Certified::Rejected { dual_bound: None } => panic!("bound must be salvaged"),
            Certified::Accepted(_) => panic!("x2 basic is primal infeasible"),
        }
    }

    /// Serializes the row-generation tests: they enter the `LpRowGen` fault point,
    /// whose hit counter the truncation test arms process-wide.
    static ROWGEN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn rowgen_lock() -> std::sync::MutexGuard<'static, ()> {
        ROWGEN_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn objective(form: &StandardForm<Rational>, values: &[Rational]) -> Rational {
        form.costs.iter().zip(values).fold(Rational::zero(), |acc, (c, x)| acc.add(&c.mul(x)))
    }

    /// `x0 + x1 + x2 + x3 = 1` with `x1..x3` lazy and costs `[2, c1, 3, 5]`.
    fn one_row_form(c1: i64) -> StandardForm<Rational> {
        StandardForm::from_dense(
            vec![vec![r(1, 1), r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(1, 1)],
            vec![r(2, 1), r(c1, 1), r(3, 1), r(5, 1)],
        )
    }

    /// Core `{x0}` is optimal at 2 with dual 2; every lazy column prices
    /// non-negative (`4 − 2`, `3 − 2`, `5 − 2`), so the core answer is final.
    #[test]
    fn a_core_that_prices_out_takes_one_round() {
        let _guard = rowgen_lock();
        let form = one_row_form(4);
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3], None);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(!solution.info.truncated);
        assert_eq!(solution.info.separation_rounds, 1);
        assert_eq!(solution.info.products_total, 3);
        assert_eq!(solution.info.products_generated, 0);
        assert_eq!(solution.values, vec![r(1, 1), r(0, 1), r(0, 1), r(0, 1)]);
    }

    /// `x1` prices `1 − 2 < 0` against the core dual: the full stage runs once over
    /// every column and lands on the eager optimum.
    #[test]
    fn a_lazy_column_that_prices_in_runs_the_full_stage() {
        let _guard = rowgen_lock();
        let form = one_row_form(1);
        let lazy = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3], None);
        let eager = solve_float_first(&form, &Deadline::unlimited(), None, &[], None);
        assert_eq!(lazy.status, LpStatus::Optimal);
        assert!(!lazy.info.truncated);
        assert_eq!(lazy.info.separation_rounds, 2);
        assert_eq!(lazy.info.products_generated, lazy.info.products_total);
        assert_eq!(objective(&form, &lazy.values), objective(&form, &eager.values));
        assert_eq!(lazy.values, vec![r(0, 1), r(1, 1), r(0, 1), r(0, 1)]);
    }

    /// A progress observer only watches: the full stage pivots exactly as it does
    /// unobserved, and every vertex it reports bounds the optimum from above.
    #[test]
    fn progress_reports_sound_upper_bounds_without_changing_the_solve() {
        let _guard = rowgen_lock();
        let form = one_row_form(1);
        let plain = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3], None);
        let mut reports: Vec<(Rational, Option<Rational>)> = Vec::new();
        let mut record = |upper: &Rational, lower: Option<&Rational>| {
            reports.push((upper.clone(), lower.cloned()));
        };
        let observed =
            solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3], Some(&mut record));
        assert_eq!(observed.info.separation_rounds, 2, "the full stage must run");
        assert_eq!(observed.status, plain.status);
        assert_eq!(objective(&form, &observed.values), objective(&form, &plain.values));
        assert_eq!(observed.values, plain.values);
        assert_eq!(observed.basis, plain.basis);
        assert_eq!(observed.info.exact_iterations, plain.info.exact_iterations);
        assert_eq!(observed.info.lu_refactorizations, plain.info.lu_refactorizations);
        let optimum = objective(&form, &plain.values);
        assert!(!reports.is_empty(), "the exact full stage must report its start vertex");
        for (upper, lower) in &reports {
            assert!(*upper >= optimum, "{upper} undercuts the optimum {optimum}");
            assert!(lower.as_ref().is_none_or(|lower| *lower <= optimum));
        }
    }

    /// `x0 − x1 = 1`, `x0 = 2`: the core `{x0}` is infeasible, and every Farkas
    /// certificate of it (`y1 > 0`, `y0 + y1 ≤ 0`) prices the lazy `x1` at
    /// `−y0 > 0`. The full stage finds the feasible optimum `x = (2, 1)`.
    #[test]
    fn an_infeasible_core_whose_certificate_breaks_goes_to_the_full_stage() {
        let _guard = rowgen_lock();
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(-1, 1)], vec![r(1, 1), r(0, 1)]],
            vec![r(1, 1), r(2, 1)],
            vec![r(1, 1), r(1, 1)],
        );
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1], None);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert_eq!(solution.info.separation_rounds, 2);
        assert_eq!(solution.info.products_generated, 1);
        assert_eq!(solution.values, vec![r(2, 1), r(1, 1)]);
        // Without the lazy column the system stays infeasible.
        let core_only =
            solve_float_first(&form.restricted(&[0]), &Deadline::unlimited(), None, &[], None);
        assert_eq!(core_only.status, LpStatus::Infeasible);
    }

    /// `x0 = 2`, `x0 + x1 = 1` with `x1` lazy: the core `{x0}` is infeasible, and
    /// every Farkas certificate of it (`y0 > 0`, `y1 ≤ −y0`) prices `x1` at
    /// `y1 < 0`, so it also proves the full system infeasible: one stage decides.
    #[test]
    fn an_infeasible_core_whose_certificate_holds_is_decided_in_one_stage() {
        let _guard = rowgen_lock();
        let form = StandardForm::from_dense(
            vec![vec![r(1, 1), r(0, 1)], vec![r(1, 1), r(1, 1)]],
            vec![r(2, 1), r(1, 1)],
            vec![r(1, 1), r(1, 1)],
        );
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1], None);
        assert_eq!(solution.status, LpStatus::Infeasible);
        assert_eq!(solution.info.separation_rounds, 1);
        assert_eq!(solution.info.products_generated, 0);
        let eager = solve_float_first(&form, &Deadline::unlimited(), None, &[], None);
        assert_eq!(eager.status, LpStatus::Infeasible);
        assert_eq!(eager.info.separation_rounds, 0);
    }

    /// A deadline fault at the full stage's boundary truncates it. The anytime
    /// answer is the core vertex, exactly feasible for the full problem, so its
    /// objective is a sound upper bound on the full optimum, and any dual bound
    /// it reports is a sound lower one.
    #[test]
    fn a_deadline_truncated_full_stage_is_a_sound_anytime_answer() {
        let _guard = rowgen_lock();
        let form = one_row_form(1);
        fault::install(Some(fault::FaultSpec {
            phase: SolvePhase::LpRowGen,
            kind: FaultKind::Deadline,
            nth: 2,
        }));
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3], None);
        let fired = fault::triggered();
        fault::install(None);
        assert!(fired, "the full stage must have been entered");
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(solution.info.truncated);
        assert_eq!(solution.info.separation_rounds, 2);
        assert_eq!(solution.info.products_generated, 3);
        let row: Rational = solution.values.iter().fold(Rational::zero(), |acc, x| acc.add(x));
        assert_eq!(row, r(1, 1), "the anytime point satisfies the full system");
        let optimum = r(1, 1);
        assert!(objective(&form, &solution.values) >= optimum);
        assert!(solution.dual_bound.is_none_or(|bound| bound <= optimum));
    }
}
