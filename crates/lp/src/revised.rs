//! The machinery both revised-simplex loops share: the sparse columns, the eta-file
//! basis factorization, the ratio test and the pivot update.
//!
//! The revised method keeps the constraint matrix `A` untouched in sparse
//! column-major form ([`Columns`]) and maintains only a factorization of the current
//! basis `B`: `B⁻¹` is a product of *eta matrices* ([`Eta`]), so applying it to a
//! vector (`FTRAN`) or a row vector (`BTRAN`) costs the number of stored non-zeros,
//! not `m²` — the Handelman coefficient-matching systems are 99% zeros. A rebuild
//! writes the whole basis into the file: the exact loop as the L and U etas of a
//! Markowitz LU ([`crate::lu`]), the float loop as a Gauss–Jordan product form. Each
//! pivot then appends one update eta. Two loops pivot on it, one per arithmetic: [`crate::float`] only proposes
//! a basis, [`crate::exact`] decides.
//!
//! Both accept a **warm start**: preferred columns are factorized first (columns
//! that prove dependent are skipped), artificial columns cover the remaining rows,
//! and phase 1 begins from that basis. For a near-repeat query that edits a few
//! locations of a cached pair, phase 1 then collapses to a handful of pivots.

use crate::problem::{LpSolveInfo, LpStatus};
use crate::scalar::Scalar;
use crate::simplex::{RawSolution, StandardForm};

/// One eta matrix: the identity with column `pivot` replaced by the stored vector.
#[derive(Debug, Clone)]
pub(crate) struct Eta<S> {
    pub(crate) pivot: usize,
    pub(crate) pivot_value: S,
    /// Off-pivot non-zero entries `(row, value)`.
    pub(crate) others: Vec<(usize, S)>,
}

impl<S: Scalar> Eta<S> {
    /// Traversal cost of this eta in machine-word units: its non-zero count for
    /// fixed-width scalars, bit-length-scaled for rationals ([`Scalar::complexity`]).
    /// Rational eta entries can balloon to thousands of bits each, so counting
    /// plain non-zeros would drastically under-report how expensive FTRAN/BTRAN
    /// through the file has become.
    pub(crate) fn weight(&self) -> usize {
        self.pivot_value.complexity()
            + self.others.iter().map(|(_, value)| value.complexity()).sum::<usize>()
    }
}

/// The sparse constraint matrix plus the virtual artificial identity columns.
#[derive(Debug, Clone)]
pub(crate) struct Columns<S> {
    /// Structural columns: `cols[j]` is the list of `(row, value)` non-zeros, in
    /// ascending row order, with no exactly-zero entry.
    pub(crate) cols: Vec<Vec<(usize, S)>>,
    /// Number of rows (artificial column `n + r` is the unit vector `e_r`).
    pub(crate) rows: usize,
}

impl<S: Scalar> Columns<S> {
    pub(crate) fn scatter(&self, col: usize, out: &mut [S]) {
        for value in out.iter_mut() {
            *value = S::zero();
        }
        if col < self.cols.len() {
            for (row, value) in &self.cols[col] {
                out[*row] = value.clone();
            }
        } else {
            out[col - self.cols.len()] = S::one();
        }
    }

    /// Sparse dot product of a dense row vector with a column.
    pub(crate) fn dot(&self, y: &[S], col: usize) -> S {
        if col < self.cols.len() {
            let mut acc = S::zero();
            for (row, value) in &self.cols[col] {
                if !y[*row].is_exactly_zero() {
                    acc = acc.add(&y[*row].mul(value));
                }
            }
            acc
        } else {
            y[col - self.cols.len()].clone()
        }
    }
}

/// The eta-file basis factorization.
pub(crate) struct Factorization<S> {
    pub(crate) etas: Vec<Eta<S>>,
    /// Basic column per row position.
    pub(crate) basis: Vec<usize>,
}

impl<S: Scalar> Factorization<S> {
    /// `x := B⁻¹ x` (forward transformation).
    pub(crate) fn ftran(&self, x: &mut [S]) {
        for eta in &self.etas {
            if x[eta.pivot].is_exactly_zero() {
                continue;
            }
            let t = x[eta.pivot].div(&eta.pivot_value);
            x[eta.pivot] = t.clone();
            for (row, value) in &eta.others {
                x[*row] = x[*row].sub(&value.mul(&t));
            }
        }
    }

    /// `y := y B⁻¹` (backward transformation, applied to a row vector).
    ///
    /// The zero fast path matters for *sparse* inputs: the incremental dual update
    /// BTRANs a unit vector `e_r` per pivot, and on most etas every read position is
    /// still zero — skipping the rational division there keeps that BTRAN at
    /// near-fill cost instead of one division per eta.
    pub(crate) fn btran(&self, y: &mut [S]) {
        for eta in self.etas.iter().rev() {
            let mut s = y[eta.pivot].clone();
            for (row, value) in &eta.others {
                if !y[*row].is_exactly_zero() {
                    s = s.sub(&y[*row].mul(value));
                }
            }
            y[eta.pivot] = if s.is_exactly_zero() { s } else { s.div(&eta.pivot_value) };
        }
    }

    /// Total *weighted* size of the eta file (pivot entries included): non-zeros
    /// for fixed-width scalars, bit-length-scaled for rationals. This is the
    /// quantity every FTRAN/BTRAN traverses, i.e. the incremental-update cost the
    /// exact reinversion policy monitors.
    pub(crate) fn eta_nnz(&self) -> usize {
        self.etas.iter().map(Eta::weight).sum()
    }

    /// Appends the eta for pivoting column data `d = B⁻¹ A_q` on row `pivot`.
    pub(crate) fn push_eta(&mut self, d: &[S], pivot: usize) {
        let mut others = Vec::new();
        for (row, value) in d.iter().enumerate() {
            if row == pivot || value.is_eta_dust() {
                continue;
            }
            others.push((row, value.clone()));
        }
        self.etas.push(Eta { pivot, pivot_value: d[pivot].clone(), others });
    }
}

/// Which objective a simplex pass minimizes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// The sum of the artificial values.
    One,
    /// The form's own costs; artificials cost zero and never enter.
    Two,
}

/// A basis in progress over one standard form: the state both loops pivot on.
pub(crate) struct Simplex<'a, S> {
    pub(crate) form: &'a StandardForm<S>,
    pub(crate) factor: Factorization<S>,
    /// Values of the basic variables, by row position.
    pub(crate) x_basic: Vec<S>,
    pub(crate) in_basis: Vec<bool>,
    /// The split-`Free` twin of each structural column (`usize::MAX`: none).
    twin: Vec<usize>,
    /// Pivots across both phases.
    iterations: usize,
    /// Etas appended since the factorization was last rebuilt.
    pub(crate) etas_since_rebuild: usize,
}

impl<'a, S: Scalar> Simplex<'a, S> {
    /// The starting basis: `factorize` applied to the preferred `warm` columns when
    /// that basis is primal feasible, the all-artificial basis (trivially feasible,
    /// since `b ≥ 0`) otherwise.
    pub(crate) fn new(
        form: &'a StandardForm<S>,
        warm: Option<&[usize]>,
        factorize: fn(&Columns<S>, &[usize]) -> Factorization<S>,
    ) -> Self {
        let m = form.num_rows();
        let n = form.costs.len();
        let build = |preferred: &[usize]| -> (Factorization<S>, Vec<S>) {
            let factor = factorize(&form.columns, preferred);
            let mut x = form.rhs.clone();
            factor.ftran(&mut x);
            (factor, x)
        };
        let (factor, x_basic) = match warm {
            Some(preferred) if !preferred.is_empty() => {
                let (factor, x) = build(preferred);
                // A crash basis is only usable if it is primal feasible; otherwise the
                // all-artificial start is safer than running a composite phase 1.
                if x.iter().any(Scalar::is_negative) {
                    build(&[])
                } else {
                    (factor, x)
                }
            }
            _ => build(&[]),
        };
        let mut in_basis = vec![false; n + m];
        for &col in &factor.basis {
            in_basis[col] = true;
        }
        let mut twin = vec![usize::MAX; n];
        for &(pos, neg) in &form.free_pairs {
            twin[pos] = neg;
            twin[neg] = pos;
        }
        Simplex { form, factor, x_basic, in_basis, twin, iterations: 0, etas_since_rebuild: 0 }
    }

    pub(crate) fn columns(&self) -> &'a Columns<S> {
        &self.form.columns
    }

    /// The iteration budget of one phase.
    pub(crate) fn max_iterations(&self) -> usize {
        200 * (self.form.num_rows() + self.form.costs.len()) + 2000
    }

    /// Replaces the factorization with a rebuilt one (of the same basis, or a
    /// degraded version of it) and re-derives the basic values from `b`.
    pub(crate) fn install(&mut self, factor: Factorization<S>) {
        self.factor = factor;
        self.in_basis.fill(false);
        for &col in &self.factor.basis {
            self.in_basis[col] = true;
        }
        self.x_basic = self.form.rhs.clone();
        self.factor.ftran(&mut self.x_basic);
        self.etas_since_rebuild = 0;
    }

    pub(crate) fn cost(&self, phase: Phase, col: usize) -> S {
        let n = self.form.costs.len();
        match phase {
            Phase::One if col >= n => S::one(),
            Phase::One => S::zero(),
            Phase::Two if col >= n => S::zero(),
            Phase::Two => self.form.costs[col].clone(),
        }
    }

    /// The values of the basic artificials.
    pub(crate) fn basic_artificials(&self) -> impl Iterator<Item = &S> {
        let n = self.form.costs.len();
        let basic = self.factor.basis.iter().zip(&self.x_basic);
        basic.filter(move |(&col, _)| col >= n).map(|(_, value)| value)
    }

    /// `true` while some artificial is basic at a positive value.
    pub(crate) fn needs_phase1(&self) -> bool {
        self.basic_artificials().any(Scalar::is_positive)
    }

    /// `y := c_B B⁻¹`, by one dense BTRAN of the basic costs.
    pub(crate) fn dual(&self, phase: Phase, y: &mut [S]) {
        for (pos, value) in y.iter_mut().enumerate() {
            *value = self.cost(phase, self.factor.basis[pos]);
        }
        self.factor.btran(y);
    }

    /// The reduced cost `c_j − y·A_j`.
    pub(crate) fn reduced_cost(&self, phase: Phase, y: &[S], col: usize) -> S {
        self.cost(phase, col).sub(&self.columns().dot(y, col))
    }

    /// `false` for a basic column, and for a column whose split twin is basic: its
    /// reduced cost is exactly `−r(twin) = 0`. In `f64` that zero is round-off of
    /// either sign, and entering on it follows the ray `−e_r` to a false `Unbounded`.
    pub(crate) fn may_enter(&self, col: usize) -> bool {
        let twin = self.twin[col];
        !self.in_basis[col] && (twin == usize::MAX || !self.in_basis[twin])
    }

    /// The entering column's direction `d = B⁻¹ A_q`.
    pub(crate) fn direction(&self, entering: usize) -> Vec<S> {
        let mut d = vec![S::zero(); self.form.num_rows()];
        self.columns().scatter(entering, &mut d);
        self.factor.ftran(&mut d);
        d
    }

    /// The ratio test: the row that leaves when the entering column moves along `d`,
    /// or `None` when no row blocks.
    ///
    /// Two kinds of rows block. (1) The ordinary test: a positive entry bounds the
    /// step before the basic value hits zero. (2) A basic *artificial* at zero with a
    /// negative entry: increasing the entering variable would push the artificial
    /// above zero, i.e. off the original feasible set — the extended relaxation would
    /// happily ride that direction to a bogus "unbounded"/"optimal" verdict on
    /// `b = 0` systems (the Handelman norm). Such rows block at θ = 0, which drives
    /// the artificial out of the basis on demand. In phase 1 an artificial with a
    /// still-positive value may trade off against others (only zero-valued ones are
    /// pinned); in phase 2 *no* artificial may grow — its phase-2 cost is zero, so
    /// nothing would ever price it back down, and a grown artificial means the
    /// "solution" has left the original feasible set.
    ///
    /// For `f64`, "positive" and "negative" mean beyond the tolerance `F64_EPS`, so
    /// every admitted pivot has magnitude above it.
    ///
    /// Among equal ratios the tie-break prefers evicting an artificial, then the lower
    /// basic column id: a deterministic order the degenerate ties cannot cycle through.
    pub(crate) fn leaving_row(&self, d: &[S], phase: Phase) -> Option<usize> {
        let n = self.form.costs.len();
        let basis = &self.factor.basis;
        let blocking_ratio = |row: usize, coeff: &S| -> Option<S> {
            if coeff.is_positive() {
                Some(self.x_basic[row].div(coeff))
            } else if basis[row] >= n
                && coeff.is_negative()
                && (phase == Phase::Two || !self.x_basic[row].is_positive())
            {
                Some(S::zero())
            } else {
                None
            }
        };
        let mut leaving: Option<usize> = None;
        let mut best_ratio: Option<S> = None;
        for (row, coeff) in d.iter().enumerate() {
            let Some(ratio) = blocking_ratio(row, coeff) else { continue };
            let better = match &best_ratio {
                None => true,
                Some(best) => {
                    if ratio.lt(best) {
                        true
                    } else if best.lt(&ratio) {
                        false
                    } else {
                        leaving.is_some_and(|l| {
                            let l_artificial = basis[l] >= n;
                            let artificial = basis[row] >= n;
                            if artificial != l_artificial {
                                artificial
                            } else {
                                basis[row] < basis[l]
                            }
                        })
                    }
                }
            };
            if better {
                best_ratio = Some(ratio);
                leaving = Some(row);
            }
        }
        leaving
    }

    /// Pivots `entering` in on row `leaving` along `d`: updates the basic values,
    /// the basis and the eta file. Returns whether the step was degenerate
    /// (|θ| ≤ 1e-12).
    pub(crate) fn pivot(&mut self, d: &[S], entering: usize, leaving: usize) -> bool {
        let theta = self.x_basic[leaving].div(&d[leaving]);
        let degenerate = theta.to_f64().abs() <= 1e-12;
        for (row, coeff) in d.iter().enumerate() {
            if row == leaving || coeff.is_exactly_zero() {
                continue;
            }
            self.x_basic[row] = self.x_basic[row].sub(&theta.mul(coeff));
        }
        self.x_basic[leaving] = theta;
        self.in_basis[self.factor.basis[leaving]] = false;
        self.in_basis[entering] = true;
        self.factor.basis[leaving] = entering;
        self.factor.push_eta(d, leaving);
        self.etas_since_rebuild += 1;
        self.iterations += 1;
        degenerate
    }

    /// The run's answer: structural values (for `Optimal` only), the structural
    /// basis — meaningful for any status, since an infeasible run's final basis
    /// still warm-starts the next, larger problem — and the pivot count.
    pub(crate) fn finish(&self, status: LpStatus) -> RawSolution<S> {
        let n = self.form.costs.len();
        let mut solution = RawSolution::bare(status);
        if status == LpStatus::Optimal {
            solution.values = vec![S::zero(); n];
            for (pos, &col) in self.factor.basis.iter().enumerate() {
                if col < n {
                    solution.values[col] = self.x_basic[pos].clone();
                }
            }
        }
        solution.basis = self.factor.basis.iter().copied().filter(|&col| col < n).collect();
        solution.info = LpSolveInfo { iterations: self.iterations, ..LpSolveInfo::default() };
        solution
    }
}
