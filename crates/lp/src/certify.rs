//! Float-first, exact-repair LP driver: `f64` does the pivoting, rationals certify.
//!
//! The QSopt_ex-style precision-boosting scheme this module implements runs every
//! solve as straight-line code, in at most three steps:
//!
//! 1. **Float phase** — the sparse revised simplex runs phases 1–2 entirely in
//!    hardware floats (Devex pricing, equilibration, anti-degeneracy perturbation) and
//!    proposes a candidate optimal *basis*. Floats decide nothing; they only guess.
//! 2. **Certification** — run once, if the float phase ended `Optimal`: the
//!    candidate basis is factorized in exact rationals with the Markowitz-ordered
//!    sparse LU ([`crate::lu`]); `x_B = B⁻¹b` and the reduced costs
//!    `c_j − c_B B⁻¹ A_j` are recomputed exactly, and the basis is accepted iff it is
//!    exactly feasible (`x_B ≥ 0`, artificial rows exactly zero) and exactly optimal
//!    (every nonbasic reduced cost `≥ 0`). An accepted answer is therefore a full
//!    exact-rational certificate, no different from one the exact simplex produces —
//!    it was merely *found* at f64 speed.
//! 3. **Exact run** — on rejection, or when the float phase ended any other way
//!    (infeasible, unbounded, iteration limit, timeout), the exact simplex runs once,
//!    uncapped, warm-started from the float basis (or, when the float phase proposed
//!    none, from the caller's warm basis). From a rejected candidate it performs only
//!    the few pivots separating the float vertex from the true optimum. It is
//!    self-certifying.
//!
//! With lazy product columns ([`solve_float_first`] with a non-empty lazy set) the
//! driver runs in two stages. The *core stage* runs the steps above on the
//! non-lazy columns and prices every excluded column exactly against the core's
//! dual (or Farkas certificate). If none prices in, the core answer is final.
//! Otherwise the *full stage* runs the exact simplex once over every column,
//! warm-started from the core's basis.
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
use crate::problem::{LpSolveInfo, LpStatus};
use crate::revised::Columns;
use crate::scalar::Scalar;
use crate::simplex::{
    solve_standard_form_inner, RawSolution, StandardForm, PERTURBATION, PERTURB_ROWS_THRESHOLD,
};

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
    // A violation no longer aborts the pass: the dual pricing below may still
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

/// Exact Farkas certificate extracted from a terminal *infeasible* exact solve.
///
/// The exact simplex concludes `Infeasible` only at a phase-1 optimum with a
/// positive artificial sum, so refactorizing its final basis and pricing with the
/// phase-1 costs (`1` on artificial rows, `0` on structural columns) yields
/// `y₁ = c_B B⁻¹` with `y₁·b > 0` and `y₁·A_j ≤ 0` for every solved column. Both
/// properties are *re-verified exactly* here — the Markowitz rebuild may pivot
/// the given columns onto different rows than the simplex did, and a certificate
/// is only returned when it genuinely proves `{Ax = b, x ≥ 0}` empty for the
/// solved column set. A lazily excluded column can break the certificate only by
/// pricing `y₁·A_j > 0`; if none does, the same `y₁` certifies the full system
/// infeasible.
fn phase1_farkas(
    form: &StandardForm<Rational>,
    basis: &[usize],
    deadline: &Deadline,
) -> Option<Vec<Rational>> {
    if deadline.expired() {
        return None;
    }
    let columns = &form.columns;
    let n = columns.cols.len();
    let factor = factorize_markowitz(columns, basis);
    let mut y = vec![Rational::zero(); columns.rows];
    for (pos, value) in y.iter_mut().enumerate() {
        if factor.basis[pos] >= n {
            *value = Rational::one();
        }
    }
    factor.btran(&mut y);
    let mut y_dot_b = Rational::zero();
    for (value, b) in y.iter().zip(&form.rhs) {
        y_dot_b = y_dot_b.add(&value.mul(b));
    }
    if !y_dot_b.is_positive() {
        return None;
    }
    for j in 0..n {
        if j % 256 == 0 && deadline.expired() {
            return None;
        }
        if columns.dot(&y, j).is_positive() {
            return None;
        }
    }
    Some(y)
}

/// Solves a standard-form problem with the float-first / certify / exact-run driver.
///
/// The returned solution is always exact ([`Rational`]); see the module docs for the
/// soundness argument. `warm` carries preferred structural columns, exactly like
/// [`crate::simplex::solve_standard_form`].
///
/// `lazy_cols` marks columns eligible for delayed generation: the solve starts
/// without them and brings them all in only when exact pricing demands it
/// ([`solve_with_row_generation`]). An empty slice solves every column eagerly;
/// either way the verdict is identical.
pub(crate) fn solve_float_first(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    lazy_cols: &[usize],
) -> RawSolution<Rational> {
    // Every terminal verdict below comes out of exact arithmetic: the certifier or
    // the exact simplex. (A truncated anytime answer is exactly
    // feasible — its bound is sound — but not a proven optimum.)
    let mut info = LpSolveInfo { certified: true, ..LpSolveInfo::default() };
    let mut solution = if lazy_cols.is_empty() {
        let (solution, _) = certified_core(form, deadline, warm, &mut info, false, true);
        solution
    } else {
        solve_with_row_generation(form, deadline, warm, lazy_cols, &mut info)
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
/// index space. Effort is *accumulated* into `info` so the row-generation driver
/// can call this once per stage and keep a single whole-solve account. With
/// `use_float = false` the float phase is skipped and the exact simplex runs
/// from `warm`.
///
/// With `want_dual`, an exact optimal dual vector accompanies an `Optimal`
/// non-truncated solution: taken from the accepted certificate when the
/// certifier concluded the solve, or recovered by one extra certification pass
/// when the answer came out of the exact simplex. `None` alongside `Optimal`
/// then means the deadline expired before the dual could be certified.
fn certified_core(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    info: &mut LpSolveInfo,
    want_dual: bool,
    mut use_float: bool,
) -> (RawSolution<Rational>, Option<Vec<Rational>>) {
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
        let float_form = float_image(form);
        // The float phase only proposes a basis; cap its budget so the exact phases
        // keep most of the wall-clock (they are the sound anytime fallback). The
        // tightened clone shares the cancel flag, so external cancellation still
        // reaches the float simplex.
        let float_deadline = deadline.tightened(deadline.instant().map(|d| {
            let remaining = d.saturating_duration_since(Instant::now());
            Instant::now() + remaining.mul_f64(FLOAT_BUDGET_FRACTION)
        }));
        let perturbation =
            if float_form.num_rows() >= PERTURB_ROWS_THRESHOLD { PERTURBATION } else { 0.0 };
        let float = solve_standard_form_inner(&float_form, &float_deadline, perturbation, warm);
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
    let (mut solution, mut dual) = match accepted {
        Some(certificate) => {
            let mut solution = RawSolution::bare(LpStatus::Optimal);
            solution.values = certificate.values;
            solution.basis = certificate.basis;
            (solution, Some(certificate.dual))
        }
        None => {
            // Deadline faults here exercise the real cancellation path; a numeric
            // fault has nothing to reject.
            if fault::enter(SolvePhase::LpRepair) == Some(FaultKind::Deadline) {
                deadline.cancel();
            }
            let warm_exact: Option<&[usize]> =
                if !candidate.is_empty() { Some(&candidate) } else { warm };
            let repair_start = Instant::now();
            let exact = solve_standard_form_inner::<Rational>(form, deadline, 0.0, warm_exact);
            info.repair_time += repair_start.elapsed();
            info.exact_iterations += exact.info.iterations;
            info.lu_updates += exact.info.lu_updates;
            info.lu_refactorizations += exact.info.lu_refactorizations;
            // An exact optimum carries its own terminal dual out of the revised
            // simplex; prefer it — re-deriving the dual via Markowitz can pad a
            // degenerate basis differently and fail to re-certify.
            let dual = exact.dual.clone();
            (exact, dual)
        }
    };

    // Last resort: certify the basis once more when the caller needs a dual. The
    // pass can only confirm — the exact simplex terminated on this basis — or run
    // out of time.
    let proven_optimum = solution.status == LpStatus::Optimal && !solution.info.truncated;
    if want_dual && dual.is_none() && proven_optimum {
        let certify_start = Instant::now();
        let certified = certify_basis(form, &solution.basis, deadline);
        info.certify_time += certify_start.elapsed();
        dual = match certified {
            Certified::Accepted(certificate) => Some(certificate.dual),
            Certified::Rejected { .. } => None,
        };
    }
    // A truncated anytime answer carries the exact lower bound salvaged from the
    // rejected candidate, so the caller can bracket the unproven optimum:
    // `dual_bound ≤ optimum ≤ objective`.
    if solution.info.truncated && solution.dual_bound.is_none() {
        solution.dual_bound = rejected_bound;
    }
    // Defensive: a solution whose basis failed dual recovery must not silently claim
    // proven optimality to the row-generation core stage, which downgrades it to an
    // anytime answer (see the `None` dual arm there).
    (solution, dual)
}

/// Delayed column generation over the lazy Handelman-multiplier columns, in two
/// stages.
///
/// **Core stage.** The core is every non-lazy column plus any lazy column the
/// warm-start basis names. It is solved with the full float-first pipeline, and
/// every excluded lazy column is then priced *exactly*:
///
/// * `Optimal`: against the core's exact dual. When no column prices negative
///   (`c_j − y·A_j ≥ 0` for all of them), exact dual feasibility holds over the
///   *full* column set, so the core optimum extended with zeros is a certified
///   optimum of the full problem — the verdict (status and optimal value) is
///   identical to the eager solve's.
/// * `Infeasible`: against the core's exact phase-1 Farkas certificate
///   ([`phase1_farkas`]). When no excluded column prices `y₁·A_j > 0`, the same
///   certificate proves the full system infeasible.
/// * Anything else (unbounded, timeout, anytime-truncated optimum) is returned
///   as-is: a core feasible point is a feasible point of the full problem, so
///   truncated answers keep their sound-upper-bound meaning, and an unbounded
///   core makes the full problem unbounded a fortiori.
///
/// **Full stage.** Otherwise — some column prices in, or the Farkas certificate
/// cannot be re-derived — the exact simplex runs once on the full form,
/// warm-started from the core's final basis. Its verdict needs no separation
/// argument, and a truncated answer is an anytime answer of the full problem.
/// Activating only the violated columns and re-solving instead costs more: each
/// extra round restarts from a warm basis and re-proves dual feasibility, almost
/// entirely through degenerate pivots (EXPERIMENTS.md, "Core, then full").
fn solve_with_row_generation(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    lazy: &[usize],
    info: &mut LpSolveInfo,
) -> RawSolution<Rational> {
    let n = form.costs.len();
    // Core: everything that is not lazy, plus warm-start columns — a basis threaded
    // in from a previous related solve (the serve near-match path) already names the
    // lazy columns that mattered there, so row-generation state travels for free.
    let mut in_core = vec![true; n];
    for &col in lazy {
        in_core[col] = false;
    }
    for &col in warm.unwrap_or_default() {
        in_core[col] = true;
    }
    info.products_total = lazy.len();
    info.separation_rounds = 1;
    enter_rowgen_stage(deadline);

    let restrict_start = Instant::now();
    let core_cols: Vec<usize> = (0..n).filter(|&j| in_core[j]).collect();
    let core_form = form.restricted(&core_cols);
    info.build_time += restrict_start.elapsed();
    // `core_cols` is ascending, so a full index maps to its core index by search.
    let warm_core: Option<Vec<usize>> =
        warm.map(|warm| warm.iter().filter_map(|j| core_cols.binary_search(j).ok()).collect());
    let (mut core, dual) =
        certified_core(&core_form, deadline, warm_core.as_deref(), info, true, true);

    let mut excluded = (0..n).filter(|&j| !in_core[j]);
    let decided = match core.status {
        LpStatus::Optimal if !core.info.truncated => match dual {
            Some(dual) => {
                excluded.all(|j| !form.costs[j].sub(&form.columns.dot(&dual, j)).is_negative())
            }
            None => {
                // Deadline before the dual could be certified: the core optimum is
                // still exactly feasible for the full problem, so report it with
                // anytime semantics rather than claiming a proven optimum the
                // separation check never confirmed.
                core.info.truncated = true;
                true
            }
        },
        LpStatus::Infeasible => {
            let certify_start = Instant::now();
            let farkas = phase1_farkas(&core_form, &core.basis, deadline);
            info.certify_time += certify_start.elapsed();
            match farkas {
                // Phase-1 structural costs are 0, so an excluded column prices
                // `−y₁·A_j`: only `y₁·A_j > 0` could pull the artificial sum below
                // its positive optimum.
                Some(farkas) => excluded.all(|j| !form.columns.dot(&farkas, j).is_positive()),
                None if deadline.expired() => {
                    core.status = LpStatus::TimedOut;
                    core.info.truncated = true;
                    true
                }
                // The certificate could not be re-derived from the final basis
                // (Markowitz re-pivoting landed elsewhere): the full stage decides.
                None => false,
            }
        }
        _ => true,
    };
    let core_basis: Vec<usize> = core.basis.iter().map(|&j| core_cols[j]).collect();

    if decided {
        info.products_generated = lazy.iter().filter(|&&j| in_core[j]).count();
        // A dual bound certified against the core only bounds the core optimum
        // (which is ≥ the full optimum).
        if core_cols.len() < n {
            core.dual_bound = None;
        }
        // Expand the core answer to the full column space: excluded columns sit at
        // zero (they are nonbasic by construction).
        if core.status == LpStatus::Optimal {
            let mut values = vec![Rational::zero(); n];
            for (value, &j) in core.values.into_iter().zip(&core_cols) {
                values[j] = value;
            }
            core.values = values;
        }
        core.basis = core_basis;
        return core;
    }

    info.separation_rounds = 2;
    info.products_generated = lazy.len();
    enter_rowgen_stage(deadline);
    let (full, _) = certified_core(form, deadline, Some(&core_basis), info, false, false);
    full
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
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[]);
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
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[]);
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
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3]);
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
        let lazy = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3]);
        let eager = solve_float_first(&form, &Deadline::unlimited(), None, &[]);
        assert_eq!(lazy.status, LpStatus::Optimal);
        assert!(!lazy.info.truncated);
        assert_eq!(lazy.info.separation_rounds, 2);
        assert_eq!(lazy.info.products_generated, lazy.info.products_total);
        assert_eq!(objective(&form, &lazy.values), objective(&form, &eager.values));
        assert_eq!(lazy.values, vec![r(0, 1), r(1, 1), r(0, 1), r(0, 1)]);
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
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1]);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert_eq!(solution.info.separation_rounds, 2);
        assert_eq!(solution.info.products_generated, 1);
        assert_eq!(solution.values, vec![r(2, 1), r(1, 1)]);
        // Without the lazy column the system stays infeasible.
        let core_only =
            solve_float_first(&form.restricted(&[0]), &Deadline::unlimited(), None, &[]);
        assert_eq!(core_only.status, LpStatus::Infeasible);
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
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[1, 2, 3]);
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
