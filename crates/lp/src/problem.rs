//! The user-facing LP model: variables, constraints, objective, and solving entry points.

use std::fmt;
use std::time::{Duration, Instant};

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::minimizer::{ExactMinimizer, MinimizerState};
use crate::revised::Columns;
use crate::simplex::{RawSolution, StandardForm};

/// Identifier of an LP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LpVar(pub usize);

impl LpVar {
    /// Index as a `usize`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Sign restriction of an LP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// The variable is constrained to be `≥ 0`.
    NonNegative,
    /// The variable is unrestricted in sign (internally split into a difference of two
    /// non-negative variables).
    Free,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// A linear constraint `Σ aᵢ xᵢ (≤ | ≥ | =) b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LpConstraint {
    /// Terms `(variable, coefficient)`.
    pub terms: Vec<(LpVar, Rational)>,
    /// The comparison operator.
    pub op: ConstraintOp,
    /// The right-hand side.
    pub rhs: Rational,
}

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint set is infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// No verdict: the iteration limit was hit before convergence, or the
    /// floating-point backend met a step it cannot judge numerically. Never a
    /// final answer of the certified driver, which hands it to the exact simplex.
    IterationLimit,
    /// The solve deadline (see [`LpProblem::set_deadline`]) passed before convergence.
    TimedOut,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit",
            LpStatus::TimedOut => "timed out",
        };
        write!(f, "{s}")
    }
}

/// A reusable warm-start basis: the basic columns of a previous solve, identified by
/// *name* so they survive into a structurally different problem.
///
/// Model-variable columns are named after the variable ([`LpProblem::add_var`]); the
/// negative half of a `Free` variable and the slack/surplus columns carry derived
/// names. When a basis is replayed into a new [`LpProblem`], names that no longer
/// exist are silently dropped and missing rows are covered by artificials, so a stale
/// basis degrades gracefully to a cold start — it can speed a solve up, never make it
/// wrong.
///
/// A basis is a hint, never an input to a verdict: every verdict of the certified
/// and exact solves is decided in exact arithmetic, so a basis from any origin (even
/// an unrelated problem whose columns happen to share names) changes only the pivot
/// path — and, among several optimal vertices, which one is reported — never the
/// status or the optimal value. It therefore records no origin.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpBasis {
    names: Vec<String>,
}

impl LpBasis {
    /// Number of recorded basic columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no basis was recorded.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Size and effort statistics of one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpSolveInfo {
    /// Simplex iterations across both phases and backends. For the float-first
    /// driver this is `float_iterations + exact_iterations`.
    pub iterations: usize,
    /// Pivots performed by the `f64` simplex (float-first driver only).
    pub float_iterations: usize,
    /// Pivots performed by the exact rational simplex (float-first driver only:
    /// the exact run after a rejected or absent float optimum, plus the
    /// row-generation full stage).
    pub exact_iterations: usize,
    /// `true` when the solve hit its deadline during phase 2 and the reported
    /// optimum is the last feasible iterate — a sound but possibly loose bound
    /// (anytime semantics).
    pub truncated: bool,
    /// `true` when the reported result carries an exact-rational certificate: the
    /// answer was produced (or accepted) by exact arithmetic, never by `f64` alone.
    /// Always `true` for [`LpProblem::solve_certified`] and
    /// [`LpProblem::solve_exact`], the only solves that return a result.
    pub certified: bool,
    /// Certification passes the float-first driver ran on a float optimum: at most
    /// one per solve (0 when the float phase ended any other way and the exact
    /// simplex ran directly).
    pub certify_rounds: usize,
    /// Wall-clock spent in the `f64` pivot phase (float-first driver only).
    pub float_time: Duration,
    /// Wall-clock spent in exact basis certification (float-first driver only).
    pub certify_time: Duration,
    /// Wall-clock spent in exact simplex pivoting (float-first driver only).
    pub repair_time: Duration,
    /// Wall-clock spent building the LP's sparse standard form from its
    /// constraints, plus gathering the core's columns (none when the core
    /// excludes no column).
    pub build_time: Duration,
    /// Lazy row-generation candidate columns (certified driver only; 0 when the
    /// lazy set is empty).
    pub products_total: usize,
    /// Lazy candidate columns present in the final certified solve: those the
    /// warm start named when the core priced out, all of them when the full
    /// stage ran (0 when the lazy set is empty).
    pub products_generated: usize,
    /// Row-generation stages run: 1 = the core already priced out, 2 = the full
    /// stage ran; 0 = no lazy columns.
    pub separation_rounds: usize,
    /// Exact simplex pivots absorbed as incremental rank-1 eta updates of the
    /// rational LU factorization (cheap, O(nnz) each).
    pub lu_updates: usize,
    /// Full Markowitz refactorizations the exact simplex performed mid-run when
    /// the eta file grew past its fill budget (expensive, O(m·nnz) each).
    pub lu_refactorizations: usize,
}

/// An observer of a running [`LpProblem::solve_certified`]: the exact simplex calls
/// it with its vertex's objective, an upper bound on the optimum, when phase 2
/// starts and after each phase-2 refactorization, plus an exact lower bound when the
/// driver holds one for the whole problem. Nothing else calls it.
pub type LpProgress<'a> = dyn FnMut(&Rational, Option<&Rational>) + 'a;

/// Result of an LP solve, in exact rational arithmetic.
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (present iff `status == Optimal`).
    pub objective: Option<Rational>,
    /// Values of the model variables, indexed by [`LpVar`] (present iff optimal).
    pub values: Vec<Rational>,
    /// The final basis, reusable as a warm start for a related problem (populated for
    /// any terminal status — an infeasible solve's basis still seeds the next rung).
    pub basis: LpBasis,
    /// An exact lower bound on the true optimum, recovered from a dual-feasible
    /// basis seen during certification. Only populated for truncated (anytime)
    /// solves, where `objective` is an upper bound: together they bracket the
    /// optimum (`dual_bound ≤ optimum ≤ objective`).
    pub dual_bound: Option<Rational>,
    /// Size and effort statistics.
    pub info: LpSolveInfo,
}

impl LpResult {
    /// The value of a variable in an optimal solution.
    ///
    /// # Panics
    ///
    /// Panics if the solve was not optimal.
    pub fn value(&self, var: LpVar) -> Rational {
        self.values[var.index()].clone()
    }
}

/// A linear program: minimize a linear objective subject to linear constraints.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    var_names: Vec<String>,
    var_kinds: Vec<VarKind>,
    constraints: Vec<LpConstraint>,
    objective: Vec<(LpVar, Rational)>,
    deadline: Deadline,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> LpProblem {
        LpProblem::default()
    }

    /// Adds a variable with the given display name and sign restriction.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind) -> LpVar {
        let var = LpVar(self.var_names.len());
        self.var_names.push(name.into());
        self.var_kinds.push(kind);
        var
    }

    /// Adds a constraint `Σ terms (op) rhs`.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(LpVar, Rational)>,
        op: ConstraintOp,
        rhs: Rational,
    ) {
        self.constraints.push(LpConstraint { terms, op, rhs });
    }

    /// Sets the objective to *minimize* `Σ terms`.
    pub fn set_objective(&mut self, terms: Vec<(LpVar, Rational)>) {
        self.objective = terms;
    }

    /// Sets the deadline for subsequent solves ([`Deadline::unlimited`] = no limit).
    ///
    /// The simplex loops poll the deadline (clock cutoff *and* shared cancel flag)
    /// and report [`LpStatus::TimedOut`] once it expires, so one pathological
    /// instance cannot stall a batch run and an external [`Deadline::cancel`] stops
    /// the solve within one polling stride.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Number of model variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The display name of a variable.
    pub fn var_name(&self, var: LpVar) -> &str {
        &self.var_names[var.index()]
    }

    /// The registered constraints.
    pub fn constraints(&self) -> &[LpConstraint] {
        &self.constraints
    }

    /// Solves cold with the exact rational simplex alone: the cross-checking
    /// reference for [`LpProblem::solve_certified`], and the solve for small LPs
    /// whose verdict must be exact without a float phase in front.
    pub fn solve_exact(&self) -> LpResult {
        let build_start = Instant::now();
        let standard = self.to_standard_form();
        let build_time = build_start.elapsed();
        let mut raw = crate::exact::solve(&standard, &self.deadline, None, None);
        raw.info.build_time = build_time;
        raw.info.certified = true;
        raw.info.exact_iterations = raw.info.iterations;
        self.assemble_result(raw, &self.standard_col_names())
    }

    /// An exact session over these constraints: the standard form is built once,
    /// and each [`ExactMinimizer::minimize`] minimizes its own objective over it
    /// (this problem's objective is ignored), running phase 1 at most once and
    /// warm-starting phase 2 from the previous answer's basis. It builds no column
    /// names and no [`LpResult`]: the invariant engine's many small queries over one
    /// polyhedron each pay only their phase-2 pivots.
    pub fn exact_minimizer(&self) -> ExactMinimizer {
        self.exact_minimizer_from(MinimizerState::default())
    }

    /// [`LpProblem::exact_minimizer`], resuming a session over these same
    /// constraints from the state it ended in ([`ExactMinimizer::into_state`]):
    /// its next `minimize` starts phase 2 from the basis that session last
    /// stopped on, and an infeasible verdict stands.
    pub fn exact_minimizer_from(&self, state: MinimizerState) -> ExactMinimizer {
        let layout = self.model_columns().0;
        ExactMinimizer::new(self.to_standard_form(), layout, self.deadline.clone(), state)
    }

    /// Solves with the float-first, exact-repair driver: the `f64` revised simplex
    /// proposes a candidate optimal basis, an exact-rational certifier accepts or
    /// rejects it once, and a rejected (or absent) candidate is handed to one
    /// warm-started exact simplex run (see the `certify` module docs for the scheme
    /// and its soundness argument).
    ///
    /// The result is exact: every status and optimal value is produced by rational
    /// arithmetic — the floats only choose where the exact machinery looks first.
    /// Expect exact-backend answers at a fraction of exact-backend cost whenever the
    /// `f64` phase lands on (or near) the true optimal basis, which is the common
    /// case for the Handelman synthesis LPs.
    ///
    /// `warm` seeds the float phase (and the exact run) with the basis of a
    /// previous related solve; `None` starts cold.
    ///
    /// `lazy` marks *lazy* columns the driver may leave out of the initial
    /// solve and generate on demand (delayed column generation). They are
    /// `NonNegative` model variables (in practice: Handelman product
    /// multipliers of degree ≥ 2). The driver starts from the non-lazy core plus
    /// any lazy column present in `warm`, solves, then *exactly* prices every
    /// excluded column against the exact dual. If any column could improve the
    /// solution, one exact solve over every column follows, warm-started from the
    /// core's basis. The accepted verdict therefore carries the same exact
    /// certificate as a full eager solve — excluded columns are proven
    /// non-improving against the core's exact optimal dual (or, for
    /// infeasibility, proven unable to break the phase-1 Farkas certificate the
    /// exact simplex stopped on) before a core answer is reported. `Free`
    /// variables are ignored (a `Free` variable's split column pair must never be
    /// separated independently). An empty `lazy` is the full eager solve: a core
    /// that excludes nothing, on the same path.
    ///
    /// The returned basis names any lazy columns it uses, so threading it into
    /// the next related solve (as the serve near-match path does) also seeds that
    /// solve's active set — row-generation state travels for free.
    ///
    /// `progress` observes the solve without changing a pivot; see [`LpProgress`].
    pub fn solve_certified(
        &self,
        warm: Option<&LpBasis>,
        lazy: &[LpVar],
        progress: Option<&mut LpProgress<'_>>,
    ) -> LpResult {
        let build_start = Instant::now();
        let standard = self.to_standard_form();
        let build_time = build_start.elapsed();
        let col_names = self.standard_col_names();
        let warm_cols = self.warm_to_cols(warm, &col_names);
        let lazy_cols: Vec<usize> = if lazy.is_empty() {
            Vec::new()
        } else {
            let (layout, _) = self.model_columns();
            lazy.iter()
                .filter_map(|var| match layout[var.index()] {
                    (col, None) => Some(col),
                    (_, Some(_)) => None,
                })
                .collect()
        };
        let mut raw = crate::certify::solve_float_first(
            &standard,
            &self.deadline,
            warm_cols.as_deref(),
            &lazy_cols,
            progress,
        );
        raw.info.build_time += build_time;
        self.assemble_result(raw, &col_names)
    }

    /// Stable display names of the standard-form columns, used to translate a basis
    /// into a name-matched warm start (and back).
    fn standard_col_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (name, kind) in self.var_names.iter().zip(&self.var_kinds) {
            names.push(name.clone());
            if *kind == VarKind::Free {
                names.push(format!("{name}~neg"));
            }
        }
        for (index, constraint) in self.constraints.iter().enumerate() {
            if constraint.op != ConstraintOp::Eq {
                names.push(format!("slack#{index}"));
            }
        }
        names
    }

    /// Translates a name-matched warm basis into standard-form column indices.
    fn warm_to_cols(&self, warm: Option<&LpBasis>, col_names: &[String]) -> Option<Vec<usize>> {
        warm.map(|basis| {
            let index_of: std::collections::HashMap<&str, usize> = col_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            basis
                .names
                .iter()
                .filter_map(|name| index_of.get(name.as_str()).copied())
                .collect()
        })
    }

    /// Turns a raw standard-form solution into the user-facing [`LpResult`].
    fn assemble_result(&self, raw: RawSolution<Rational>, col_names: &[String]) -> LpResult {
        let basis = LpBasis {
            names: raw
                .basis
                .iter()
                .filter_map(|&col| col_names.get(col).cloned())
                .collect(),
        };
        match raw.status {
            LpStatus::Optimal => {
                let values = self.recover_values(&raw.values);
                let objective = self
                    .objective
                    .iter()
                    .fold(Rational::zero(), |acc, (v, c)| &acc + &(c * &values[v.index()]));
                LpResult {
                    status: LpStatus::Optimal,
                    objective: Some(objective),
                    values,
                    basis,
                    dual_bound: raw.dual_bound,
                    info: raw.info,
                }
            }
            status => LpResult {
                status,
                objective: None,
                values: Vec::new(),
                basis,
                dual_bound: raw.dual_bound,
                info: raw.info,
            },
        }
    }

    /// Standard form: minimize c'y subject to Ay = b, y >= 0, b >= 0.
    ///
    /// Model variables map to standard-form columns as follows: a `NonNegative` variable
    /// maps to one column, a `Free` variable to a pair of columns (positive and negative
    /// parts). Inequality rows receive one slack/surplus column each.
    ///
    /// The columns are written directly from the constraint terms, one row at a
    /// time, so every column lists its entries in ascending row order. A variable
    /// repeated within a row has its coefficients summed in term order; an entry
    /// that sums to zero is not stored. A row with a negative right-hand side is
    /// negated, slack included, so that `b ≥ 0`.
    fn to_standard_form(&self) -> StandardForm<Rational> {
        let (layout, num_cols) = self.model_columns();
        let num_slacks = self
            .constraints
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();
        let num_rows = self.constraints.len();
        let mut cols: Vec<Vec<(usize, Rational)>> = vec![Vec::new(); num_cols + num_slacks];
        let mut rhs: Vec<Rational> = Vec::with_capacity(num_rows);
        // Columns that received an entry in the current row.
        let mut touched: Vec<usize> = Vec::new();
        let mut slack_idx = num_cols;
        for (row, constraint) in self.constraints.iter().enumerate() {
            touched.clear();
            let mut accumulate = |col: usize, c: &Rational, negative_part: bool| {
                let column = &mut cols[col];
                if column.last().is_none_or(|(last, _)| *last != row) {
                    column.push((row, Rational::zero()));
                    touched.push(col);
                }
                if let Some((_, value)) = column.last_mut() {
                    if negative_part {
                        *value -= c;
                    } else {
                        *value += c;
                    }
                }
            };
            for (var, coef) in &constraint.terms {
                let (pos, neg) = layout[var.index()];
                accumulate(pos, coef, false);
                if let Some(neg) = neg {
                    accumulate(neg, coef, true);
                }
            }
            let slack = match constraint.op {
                ConstraintOp::Le => Some(Rational::one()),
                ConstraintOp::Ge => Some(Rational::from_int(-1)),
                ConstraintOp::Eq => None,
            };
            if let Some(slack) = slack {
                cols[slack_idx].push((row, slack));
                touched.push(slack_idx);
                slack_idx += 1;
            }
            // Normalize to b >= 0.
            let negate = constraint.rhs.is_negative();
            for &col in &touched {
                let column = &mut cols[col];
                if column.last().is_some_and(|(_, value)| value.is_zero()) {
                    column.pop();
                } else if negate {
                    if let Some((_, value)) = column.last_mut() {
                        *value = -&*value;
                    }
                }
            }
            rhs.push(if negate { -&constraint.rhs } else { constraint.rhs.clone() });
        }

        let mut costs = vec![Rational::zero(); num_cols + num_slacks];
        for (var, coef) in &self.objective {
            let (pos, neg) = layout[var.index()];
            costs[pos] += coef;
            if let Some(neg) = neg {
                costs[neg] -= coef;
            }
        }

        let free_pairs = layout.iter().filter_map(|&(pos, neg)| Some((pos, neg?))).collect();
        StandardForm { columns: Columns { cols, rows: num_rows }, rhs, costs, free_pairs }
    }

    /// Standard-form column layout per model variable (the positive column and, for
    /// a `Free` variable, the column of its negative part), plus the number of
    /// model columns.
    fn model_columns(&self) -> (Vec<(usize, Option<usize>)>, usize) {
        let mut columns: Vec<(usize, Option<usize>)> = Vec::with_capacity(self.num_vars());
        let mut num_cols = 0usize;
        for kind in &self.var_kinds {
            match kind {
                VarKind::NonNegative => {
                    columns.push((num_cols, None));
                    num_cols += 1;
                }
                VarKind::Free => {
                    columns.push((num_cols, Some(num_cols + 1)));
                    num_cols += 2;
                }
            }
        }
        (columns, num_cols)
    }

    fn recover_values(&self, standard_values: &[Rational]) -> Vec<Rational> {
        self.model_columns()
            .0
            .into_iter()
            .map(|(pos, neg)| match neg {
                None => standard_values[pos].clone(),
                Some(neg) => &standard_values[pos] - &standard_values[neg],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    /// Whether an assignment satisfies every constraint and sign restriction, checked
    /// exactly and independently of the solver.
    fn check_feasible(lp: &LpProblem, values: &[Rational]) -> bool {
        lp.constraints.iter().all(|c| {
            let lhs = c
                .terms
                .iter()
                .fold(Rational::zero(), |acc, (v, coef)| &acc + &(coef * &values[v.index()]));
            match c.op {
                ConstraintOp::Le => lhs <= c.rhs,
                ConstraintOp::Ge => lhs >= c.rhs,
                ConstraintOp::Eq => lhs == c.rhs,
            }
        }) && lp
            .var_kinds
            .iter()
            .zip(values)
            .all(|(kind, v)| *kind == VarKind::Free || !v.is_negative())
    }

    /// minimize x + y s.t. x + 2y >= 4, 3x + y >= 6
    fn small_lp() -> (LpProblem, LpVar, LpVar) {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let y = lp.add_var("y", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1)), (y, r(2))], ConstraintOp::Ge, r(4));
        lp.add_constraint(vec![(x, r(3)), (y, r(1))], ConstraintOp::Ge, r(6));
        lp.set_objective(vec![(x, r(1)), (y, r(1))]);
        (lp, x, y)
    }

    #[test]
    fn exact_solution_of_small_lp() {
        let (lp, x, y) = small_lp();
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimum at intersection of the two constraints: x = 8/5, y = 6/5, objective 14/5.
        assert_eq!(sol.objective.clone().unwrap(), Rational::new(14, 5));
        assert_eq!(sol.value(x), Rational::new(8, 5));
        assert_eq!(sol.value(y), Rational::new(6, 5));
    }

    #[test]
    fn equality_constraints() {
        // minimize x - y s.t. x + y = 10, x - y <= 4
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let y = lp.add_var("y", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1)), (y, r(1))], ConstraintOp::Eq, r(10));
        lp.add_constraint(vec![(x, r(1)), (y, r(-1))], ConstraintOp::Le, r(4));
        lp.set_objective(vec![(x, r(1)), (y, r(-1))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        // x - y minimized: x = 0, y = 10 -> -10.
        assert_eq!(sol.objective.unwrap(), r(-10));
    }

    #[test]
    fn free_variables() {
        // minimize t s.t. t >= x - 5, t >= 5 - x, x = 2  (t is the absolute gap, x fixed)
        let mut lp = LpProblem::new();
        let t = lp.add_var("t", VarKind::Free);
        let x = lp.add_var("x", VarKind::NonNegative);
        lp.add_constraint(vec![(t, r(1)), (x, r(-1))], ConstraintOp::Ge, r(-5));
        lp.add_constraint(vec![(t, r(1)), (x, r(1))], ConstraintOp::Ge, r(5));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(2));
        lp.set_objective(vec![(t, r(1))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), r(3));
    }

    #[test]
    fn free_variable_can_go_negative() {
        // minimize t s.t. t >= -7 has optimum t = -7 when t is free.
        let mut lp = LpProblem::new();
        let t = lp.add_var("t", VarKind::Free);
        lp.add_constraint(vec![(t, r(1))], ConstraintOp::Ge, r(-7));
        lp.set_objective(vec![(t, r(1))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.clone().unwrap(), r(-7));
        assert_eq!(sol.value(t), r(-7));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Ge, r(5));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Le, r(3));
        lp.set_objective(vec![(x, r(1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Infeasible);
    }

    /// A variable no constraint mentions, with a negative objective coefficient:
    /// unbounded when the rest is feasible, infeasible when it is not — only phase 1
    /// can tell the two apart.
    #[test]
    fn unconstrained_negative_cost_column_resolves_by_feasibility() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let free = lp.add_var("free", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(2));
        lp.set_objective(vec![(free, r(-1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Unbounded);
        // Same column, but the rest of the system is infeasible.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let free = lp.add_var("free", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(2));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(3));
        lp.set_objective(vec![(free, r(-1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Infeasible);
    }

    /// Small LPs with the structures a reduction pass would exploit — singleton,
    /// forcing and duplicate rows, all-zero columns, difference bounds — solved as
    /// built. Each must reach the same status and exact optimum under the exact and
    /// the certified solve.
    #[test]
    fn structured_lps_solve_without_reduction() {
        use ConstraintOp::{Eq, Ge, Le};
        type Terms = &'static [(usize, i64)];
        type Row = (Terms, ConstraintOp, i64);
        // (name, variables, rows, objective, status, optimum); all variables ≥ 0.
        type Case = (&'static str, usize, &'static [Row], Terms, LpStatus, Option<i64>);
        let cases: [Case; 11] = [
            ("negative singleton", 1, &[(&[(0, 1)], Eq, -1)], &[], LpStatus::Infeasible, None),
            (
                "conflicting fixes",
                1,
                &[(&[(0, 1)], Eq, 2), (&[(0, 1)], Eq, 3)],
                &[(0, 1)],
                LpStatus::Infeasible,
                None,
            ),
            (
                "singleton substitution",
                2,
                &[(&[(0, 2)], Eq, 6), (&[(0, 1), (1, 1)], Eq, 5)],
                &[(1, 1)],
                LpStatus::Optimal,
                Some(2),
            ),
            (
                "forcing row",
                3,
                &[(&[(0, 1), (1, 2)], Eq, 0), (&[(0, 1), (2, 1)], Eq, 4)],
                &[(2, 1)],
                LpStatus::Optimal,
                Some(4),
            ),
            (
                "duplicate rows",
                3,
                &[
                    (&[(0, 1), (1, 1), (2, 1)], Eq, 4),
                    (&[(0, 1), (1, 1), (2, 1)], Eq, 4),
                    (&[(0, 1), (1, 1), (2, 1)], Eq, 4),
                ],
                &[(0, 1), (1, 2)],
                LpStatus::Optimal,
                Some(0),
            ),
            (
                "empty column, negative cost",
                3,
                &[(&[(0, 1), (1, 1)], Eq, 1)],
                &[(1, 1), (2, -1)],
                LpStatus::Unbounded,
                None,
            ),
            (
                "empty column, non-negative cost",
                3,
                &[(&[(0, 1), (1, 1)], Eq, 1)],
                &[(1, 1), (2, 1)],
                LpStatus::Optimal,
                Some(0),
            ),
            (
                "zero-cost model column in one row",
                2,
                &[(&[(0, 1), (1, 1)], Eq, 10), (&[(0, 2)], Le, 16)],
                &[(0, -1)],
                LpStatus::Optimal,
                Some(-8),
            ),
            (
                "difference-bound negative cycle",
                2,
                &[(&[(0, 1), (1, -1)], Le, -1), (&[(0, -1), (1, 1)], Le, -1)],
                &[(0, 1), (1, 1)],
                LpStatus::Infeasible,
                None,
            ),
            (
                "coinciding difference bounds",
                1,
                &[(&[(0, 1)], Le, 5), (&[(0, 1)], Ge, 5)],
                &[(0, 1)],
                LpStatus::Optimal,
                Some(5),
            ),
            (
                "difference-bound chain",
                2,
                &[(&[(0, 1), (1, -1)], Le, 2), (&[(1, 1)], Le, 3), (&[(0, 1)], Ge, 5)],
                &[(0, 1), (1, 1)],
                LpStatus::Optimal,
                Some(8),
            ),
        ];
        for (name, num_vars, rows, objective, status, optimum) in cases {
            let mut lp = LpProblem::new();
            let vars: Vec<LpVar> =
                (0..num_vars).map(|i| lp.add_var(format!("x{i}"), VarKind::NonNegative)).collect();
            let terms = |pairs: &[(usize, i64)]| -> Vec<(LpVar, Rational)> {
                pairs.iter().map(|&(var, coef)| (vars[var], r(coef))).collect()
            };
            for &(row, op, rhs) in rows {
                lp.add_constraint(terms(row), op, r(rhs));
            }
            lp.set_objective(terms(objective));
            let exact_solves = [
                ("exact", lp.solve_exact()),
                ("certified", lp.solve_certified(None, &[], None)),
            ];
            for (solve, solution) in exact_solves {
                assert_eq!(solution.status, status, "{name} ({solve})");
                assert_eq!(solution.objective, optimum.map(r), "{name} ({solve})");
                if status == LpStatus::Optimal {
                    assert!(
                        check_feasible(&lp, &solution.values),
                        "{name} ({solve}): reported values must satisfy every row"
                    );
                }
            }
        }
    }

    /// The sparse builder against the dense layout it replaced: every case's columns
    /// (ascending rows, exact zeros dropped), right-hand sides and costs must equal
    /// the column-major form of the hand-written dense standard form. The exact
    /// form's `f64` image (the float loop's only input) must equal the dense layout
    /// converted to `f64`.
    #[test]
    fn standard_form_columns_match_the_dense_layout() {
        use crate::certify::float_image;
        use ConstraintOp::{Eq, Ge, Le};
        use VarKind::{Free, NonNegative as NonNeg};
        // 2^60 + 1 rounds to 2^60 in `f64`, so `(2^60 + 1)·x − 2^60·x` sums to 1 in
        // rationals but would sum to exactly 0.0 in `f64`: the float image is taken
        // after the exact sum.
        const BIG: i64 = 1 << 60;
        type Terms = &'static [(usize, i64)];
        type Row = (Terms, ConstraintOp, i64);
        type Dense = &'static [&'static [i64]];
        // (name, variable kinds, rows, objective, dense A, b, costs)
        type Case = (
            &'static str,
            &'static [VarKind],
            &'static [Row],
            Terms,
            Dense,
            &'static [i64],
            &'static [i64],
        );
        let cases: [Case; 5] = [
            (
                "repeated variable cancels",
                &[NonNeg, NonNeg],
                &[(&[(0, 1), (1, 1), (0, -1)], Eq, 3)],
                &[(1, 1)],
                &[&[0, 1]],
                &[3],
                &[0, 1],
            ),
            (
                "free variable splits into two columns",
                &[Free, NonNeg],
                &[(&[(0, 2), (1, 1)], Le, 4), (&[(0, 1)], Eq, 1)],
                &[(0, 1), (1, -1)],
                &[&[2, -2, 1, 1], &[1, -1, 0, 0]],
                &[4, 1],
                &[1, -1, -1, 0],
            ),
            (
                "le, ge and eq rows",
                &[NonNeg, NonNeg],
                &[(&[(0, 1), (1, 1)], Le, 4), (&[(0, 1), (1, -1)], Ge, 1), (&[(0, 3)], Eq, 6)],
                &[],
                &[&[1, 1, 1, 0], &[1, -1, 0, -1], &[3, 0, 0, 0]],
                &[4, 1, 6],
                &[0, 0, 0, 0],
            ),
            (
                "negative right-hand sides negate the row, slack included",
                &[NonNeg, NonNeg],
                &[(&[(0, 1), (1, -2)], Ge, -3), (&[(1, 1)], Le, -1), (&[(0, 1)], Eq, -2)],
                &[(0, 1)],
                &[&[-1, 2, 1, 0], &[0, -1, 0, -1], &[-1, 0, 0, 0]],
                &[3, 1, 2],
                &[1, 0, 0, 0],
            ),
            (
                "coefficient that would cancel to 0.0 in f64",
                &[NonNeg, NonNeg],
                &[(&[(0, BIG + 1), (1, 1), (0, -BIG)], Eq, 5)],
                &[(0, 1)],
                &[&[1, 1]],
                &[5],
                &[1, 0],
            ),
        ];
        for (name, kinds, rows, objective, dense, rhs, costs) in cases {
            let mut lp = LpProblem::new();
            let vars: Vec<LpVar> =
                kinds.iter().enumerate().map(|(i, &kind)| lp.add_var(format!("v{i}"), kind)).collect();
            let terms = |pairs: &[(usize, i64)]| -> Vec<(LpVar, Rational)> {
                pairs.iter().map(|&(var, coef)| (vars[var], r(coef))).collect()
            };
            for &(row, op, b) in rows {
                lp.add_constraint(terms(row), op, r(b));
            }
            lp.set_objective(terms(objective));

            let exact = lp.to_standard_form();
            let expected = StandardForm::from_dense(
                dense.iter().map(|row| row.iter().map(|&v| r(v)).collect()).collect(),
                rhs.iter().map(|&v| r(v)).collect(),
                costs.iter().map(|&v| r(v)).collect(),
            );
            assert_eq!(exact.columns.rows, expected.columns.rows, "{name}: rows");
            assert_eq!(exact.columns.cols, expected.columns.cols, "{name}: exact columns");
            assert_eq!(exact.rhs, expected.rhs, "{name}: exact rhs");
            assert_eq!(exact.costs, expected.costs, "{name}: exact costs");

            let as_f64 = |values: &[i64]| values.iter().map(|&v| v as f64).collect();
            let expected = StandardForm::from_dense(
                dense.iter().map(|row| as_f64(row)).collect(),
                as_f64(rhs),
                as_f64(costs),
            );
            let image = float_image(&exact);
            assert_eq!(image.columns.cols, expected.columns.cols, "{name}: f64 columns");
            assert_eq!(image.rhs, expected.rhs, "{name}: f64 rhs");
            assert_eq!(image.costs, expected.costs, "{name}: f64 costs");
            assert_eq!(image.free_pairs, exact.free_pairs, "{name}: f64 free pairs");
        }
    }

    /// While the positive half of a split `Free` variable is basic, its negative
    /// twin has exact reduced cost 0, but in `f64` that zero is round-off: here it
    /// came out negative, and entering the twin followed its direction `−e_r` to
    /// a false `Unbounded`. Pricing now skips a column whose twin is basic. (Found
    /// by a random search over small LPs with large costs.)
    #[test]
    fn float_loop_does_not_enter_the_twin_of_a_basic_free_column() {
        let q = |num: i64, den: i64| Rational::new(num, den);
        let mut lp = LpProblem::new();
        let t = lp.add_var("t", VarKind::Free);
        let y = lp.add_var("y", VarKind::NonNegative);
        let z = lp.add_var("z", VarKind::NonNegative);
        lp.add_constraint(vec![(t, r(-3)), (y, q(-1, 5)), (z, q(-4, 7))], ConstraintOp::Ge, r(0));
        lp.add_constraint(vec![(t, q(-1, 3)), (y, r(3)), (z, q(-1, 7))], ConstraintOp::Eq, r(2));
        lp.add_constraint(vec![(t, q(-1, 3)), (y, r(4)), (z, r(-1))], ConstraintOp::Ge, q(-2, 3));
        lp.set_objective(vec![(t, q(-322_304_263, 7)), (y, r(161_633_858)), (z, r(877_426_328))]);
        let image = crate::certify::float_image(&lp.to_standard_form());
        assert_eq!(image.free_pairs, vec![(0, 1)]);
        let exact = lp.solve_exact();
        assert_eq!(exact.objective, Some(q(51_881_578_059, 476)));
        let costs = image.costs.clone();
        let float = crate::float::propose(image, &Deadline::unlimited(), None);
        assert_eq!(float.status, LpStatus::Optimal);
        let objective: f64 = float.values.iter().zip(&costs).map(|(v, c)| v * c).sum();
        let optimum = q(51_881_578_059, 476).to_f64();
        let relative = (objective / optimum - 1.0).abs();
        assert!(relative < 1e-9, "f64 optimum off by {relative}");
        assert_eq!(lp.solve_certified(None, &[], None).objective, exact.objective);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::Free);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Le, r(100));
        lp.set_objective(vec![(x, r(1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints meeting at the same vertex.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let y = lp.add_var("y", VarKind::NonNegative);
        for k in 1..=5i64 {
            lp.add_constraint(vec![(x, r(k)), (y, r(k))], ConstraintOp::Ge, r(2 * k));
        }
        lp.set_objective(vec![(x, r(1)), (y, r(2))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), r(2));
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(2))], ConstraintOp::Eq, r(6));
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.value(x), r(3));
        assert_eq!(sol.objective.unwrap(), Rational::zero());
    }

    #[test]
    fn names_and_counts() {
        let (lp, x, _) = small_lp();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.constraints().len(), 2);
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
    }
}
