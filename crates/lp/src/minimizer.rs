//! One constraint set, many objectives: the exact simplex as a session.
//!
//! The invariant engine asks many questions of one small polyhedron — is it empty,
//! and what is the minimum of each of several affine forms over it. Every answer
//! runs on the same standard form, so an [`ExactMinimizer`] writes that form once
//! and keeps the last basis the exact simplex stopped on. Its constraints never
//! change, so a basis that was primal feasible for one objective is primal feasible
//! for every other: phase 1 runs at most once per session, and each later
//! [`ExactMinimizer::minimize`] warm-starts phase 2 from the previous basis.
//! A caller holding many sessions can keep only their [`MinimizerState`] (the
//! verdict and the basis) and write the form again when it next asks.
//! Each answer is still an exact simplex verdict of [`crate::exact::solve`], so it
//! equals, in status and optimum, a cold [`LpProblem::solve_exact`] with the same
//! objective; only the pivot path and, among several optimal vertices, the reported
//! one may differ.
//!
//! [`LpProblem::solve_exact`]: crate::LpProblem::solve_exact

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::problem::{LpStatus, LpVar};
use crate::simplex::StandardForm;

/// The answer of one [`ExactMinimizer::minimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// The exact verdict: `Optimal`, `Infeasible` or `Unbounded`, or a status that
    /// decides nothing (a deadline or the iteration limit; a deadline hit in
    /// phase 2 is reported as `TimedOut`, never as an anytime optimum).
    pub status: LpStatus,
    /// The exact optimum (present iff `status == Optimal`).
    pub objective: Option<Rational>,
    /// An optimal vertex: the value of every model variable, indexed by [`LpVar`]
    /// (empty unless `status == Optimal`).
    pub point: Vec<Rational>,
    /// Simplex pivots this answer took (0 when the session already knew it).
    pub pivots: usize,
}

/// What an [`ExactMinimizer`] has learned about its constraints, without the
/// standard form: whether they are feasible and, if so, a feasible basis. A caller
/// that keeps many sessions alive keeps this ([`ExactMinimizer::into_state`]) and
/// resumes from it ([`LpProblem::exact_minimizer_from`]) over the same problem, so
/// the resumed session still runs no phase 1.
///
/// [`LpProblem::exact_minimizer_from`]: crate::LpProblem::exact_minimizer_from
#[derive(Debug, Clone, Default)]
pub struct MinimizerState(Feasibility);

/// Where a session stands on the feasibility of its constraints.
#[derive(Debug, Clone, Default)]
enum Feasibility {
    /// No solve has decided it yet: the next one starts cold, with phase 1.
    #[default]
    Unknown,
    /// A primal feasible basis (its structural columns), the warm start of the
    /// next solve, which therefore needs no phase 1.
    Feasible(Vec<usize>),
    /// Phase 1 proved the constraints infeasible: every objective is `Infeasible`.
    Infeasible,
}

/// An exact LP session over fixed constraints, minimizing one objective after
/// another (built by [`LpProblem::exact_minimizer`](crate::LpProblem::exact_minimizer)).
///
/// ```
/// use dca_lp::{ConstraintOp, LpProblem, LpStatus, LpVar, VarKind};
/// use dca_numeric::Rational;
///
/// // 1 ≤ x ≤ 4 over a free x.
/// let mut lp = LpProblem::new();
/// let x = lp.add_var("x", VarKind::Free);
/// lp.add_constraint(vec![(x, Rational::one())], ConstraintOp::Ge, Rational::one());
/// lp.add_constraint(vec![(x, Rational::one())], ConstraintOp::Le, Rational::from_int(4));
/// let mut session = lp.exact_minimizer();
/// let low = session.minimize(&[(x, Rational::one())]);
/// assert_eq!(low.objective, Some(Rational::one()));
/// let high = session.minimize(&[(x, Rational::from_int(-1))]);
/// assert_eq!(high.status, LpStatus::Optimal);
/// assert_eq!(high.point, vec![Rational::from_int(4)]);
/// ```
#[derive(Debug, Clone)]
pub struct ExactMinimizer {
    /// The standard form; its costs are rewritten by every `minimize`.
    form: StandardForm<Rational>,
    /// Standard-form columns per model variable (positive part, negative part of a
    /// `Free` one).
    layout: Vec<(usize, Option<usize>)>,
    deadline: Deadline,
    feasibility: Feasibility,
}

impl ExactMinimizer {
    /// A session over `form`, resuming from `state`. A basis naming a column the
    /// form does not have (a state from another problem) is dropped: the session
    /// then starts cold.
    pub(crate) fn new(
        form: StandardForm<Rational>,
        layout: Vec<(usize, Option<usize>)>,
        deadline: Deadline,
        state: MinimizerState,
    ) -> ExactMinimizer {
        let feasibility = match state.0 {
            Feasibility::Feasible(basis) if basis.iter().any(|&col| col >= form.costs.len()) => {
                Feasibility::Unknown
            }
            feasibility => feasibility,
        };
        ExactMinimizer { form, layout, deadline, feasibility }
    }

    /// Ends the session, keeping what a resumed one needs to skip phase 1 and
    /// dropping the standard form.
    pub fn into_state(self) -> MinimizerState {
        MinimizerState(self.feasibility)
    }

    /// Minimizes `Σ objective` over the session's constraints, exactly. An empty
    /// objective is a feasibility check whose optimal vertex is a feasible point.
    ///
    /// The first solve runs both phases from the all-artificial basis. Every later
    /// one starts phase 2 from the basis the previous solve stopped on, which is
    /// primal feasible for the unchanged constraints; once phase 1 has proven the
    /// constraints infeasible, every answer is `Infeasible` without a pivot.
    pub fn minimize(&mut self, objective: &[(LpVar, Rational)]) -> Minimum {
        let warm = match &self.feasibility {
            Feasibility::Infeasible => {
                return Minimum {
                    status: LpStatus::Infeasible,
                    objective: None,
                    point: Vec::new(),
                    pivots: 0,
                }
            }
            Feasibility::Feasible(basis) => Some(basis.as_slice()),
            Feasibility::Unknown => None,
        };
        self.form.costs.fill(Rational::zero());
        for (var, coef) in objective {
            let (pos, neg) = self.layout[var.index()];
            self.form.costs[pos] += coef;
            if let Some(neg) = neg {
                self.form.costs[neg] -= coef;
            }
        }
        let raw = crate::exact::solve(&self.form, &self.deadline, warm, None);
        let status = if raw.info.truncated { LpStatus::TimedOut } else { raw.status };
        match status {
            LpStatus::Infeasible => self.feasibility = Feasibility::Infeasible,
            // An optimum and a ray both stop at a phase-2 vertex: a feasible basis.
            LpStatus::Optimal | LpStatus::Unbounded => {
                self.feasibility = Feasibility::Feasible(raw.basis);
            }
            LpStatus::IterationLimit | LpStatus::TimedOut => {}
        }
        let mut minimum = Minimum {
            status,
            objective: None,
            point: Vec::new(),
            pivots: raw.info.iterations,
        };
        if status == LpStatus::Optimal {
            minimum.point = self
                .layout
                .iter()
                .map(|&(pos, neg)| match neg {
                    None => raw.values[pos].clone(),
                    Some(neg) => &raw.values[pos] - &raw.values[neg],
                })
                .collect();
            minimum.objective = Some(objective.iter().fold(Rational::zero(), |acc, (var, coef)| {
                &acc + &(coef * &minimum.point[var.index()])
            }));
        }
        minimum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::factorize_markowitz;
    use crate::problem::{ConstraintOp, LpProblem, VarKind};
    use crate::revised::Simplex;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    /// `{x − y ≥ −2, x + y ≥ 2, x ≤ 5, y ≤ 4}` over free `x, y`: bounded in every
    /// direction, and its cold start needs phase-1 pivots (`b ≠ 0`).
    fn box_lp() -> (LpProblem, LpVar, LpVar) {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::Free);
        let y = lp.add_var("y", VarKind::Free);
        lp.add_constraint(vec![(x, r(1)), (y, r(-1))], ConstraintOp::Ge, r(-2));
        lp.add_constraint(vec![(x, r(1)), (y, r(1))], ConstraintOp::Ge, r(2));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Le, r(5));
        lp.add_constraint(vec![(y, r(1))], ConstraintOp::Le, r(4));
        (lp, x, y)
    }

    /// The cold reference: `solve_exact` of `lp` with `objective`.
    fn cold(lp: &LpProblem, objective: &[(LpVar, Rational)]) -> (LpStatus, Option<Rational>) {
        let mut lp = lp.clone();
        lp.set_objective(objective.to_vec());
        let result = lp.solve_exact();
        (result.status, result.objective)
    }

    /// Checks `minimum` against the cold solve, and its vertex against the
    /// constraints and the reported optimum.
    fn assert_matches_cold(lp: &LpProblem, objective: &[(LpVar, Rational)], minimum: &Minimum) {
        assert_eq!((minimum.status, minimum.objective.clone()), cold(lp, objective));
        if minimum.status != LpStatus::Optimal {
            assert!(minimum.point.is_empty());
            return;
        }
        let value = |terms: &[(LpVar, Rational)]| {
            terms
                .iter()
                .fold(Rational::zero(), |acc, (v, c)| &acc + &(c * &minimum.point[v.index()]))
        };
        for c in lp.constraints() {
            let lhs = value(&c.terms);
            let holds = match c.op {
                ConstraintOp::Le => lhs <= c.rhs,
                ConstraintOp::Ge => lhs >= c.rhs,
                ConstraintOp::Eq => lhs == c.rhs,
            };
            assert!(holds, "the reported vertex violates {c:?}");
        }
        assert_eq!(Some(value(objective)), minimum.objective);
    }

    /// The warm start the session holds needs no phase 1: `exact::solve` runs
    /// phase 1 only from a basis with a positive artificial.
    fn assert_warm_start_is_feasible(session: &ExactMinimizer) {
        let Feasibility::Feasible(basis) = &session.feasibility else {
            panic!("no feasible basis recorded: {:?}", session.feasibility);
        };
        let simplex = Simplex::new(&session.form, Some(basis), factorize_markowitz);
        assert!(!simplex.needs_phase1());
        assert!(!simplex.x_basic.iter().any(Rational::is_negative));
    }

    #[test]
    fn several_objectives_over_one_form_match_cold_solves() {
        let (lp, x, y) = box_lp();
        let objectives: Vec<Vec<(LpVar, Rational)>> = vec![
            vec![(x, r(1))],
            vec![(x, r(-1))],
            vec![(y, r(1)), (x, r(2))],
            vec![],
            vec![(y, r(-1)), (x, Rational::new(1, 3))],
            vec![(x, r(1))],
            vec![(x, r(1)), (y, r(-1))],
        ];
        let mut session = lp.exact_minimizer();
        for objective in &objectives {
            let minimum = session.minimize(objective);
            assert_matches_cold(&lp, objective, &minimum);
            assert_warm_start_is_feasible(&session);
        }
    }

    #[test]
    fn a_query_after_the_first_runs_no_phase_1_pivot() {
        let (lp, x, _) = box_lp();
        let mut session = lp.exact_minimizer();
        // The first query starts cold: phase 1 has to pivot the artificials out.
        assert!(session.minimize(&[]).pivots > 0);
        assert_warm_start_is_feasible(&session);
        // A feasibility check, then the same objective twice: each starts from a
        // feasible basis, and one already optimal for it takes no pivot at all.
        assert_eq!(session.minimize(&[]).pivots, 0);
        let first = session.minimize(&[(x, r(1))]);
        assert_eq!(first.objective, Some(r(0)));
        assert_warm_start_is_feasible(&session);
        let again = session.minimize(&[(x, r(1))]);
        assert_eq!((again.objective, again.pivots), (Some(r(0)), 0));
    }

    #[test]
    fn a_resumed_session_runs_no_phase_1_pivot() {
        let (lp, x, y) = box_lp();
        let mut session = lp.exact_minimizer();
        assert!(session.minimize(&[(y, r(1))]).pivots > 0);
        let mut resumed = lp.exact_minimizer_from(session.into_state());
        assert_warm_start_is_feasible(&resumed);
        let objective = [(x, r(-1)), (y, r(-1))];
        assert_matches_cold(&lp, &objective, &resumed.minimize(&objective));
        // A state from a problem with fewer columns cannot warm-start this one.
        let mut small = LpProblem::new();
        let z = small.add_var("z", VarKind::NonNegative);
        small.add_constraint(vec![(z, r(1))], ConstraintOp::Le, r(1));
        let state = resumed.into_state();
        let mut foreign = small.exact_minimizer_from(state);
        assert!(matches!(foreign.feasibility, Feasibility::Unknown));
        assert_matches_cold(&small, &[(z, r(-1))], &foreign.minimize(&[(z, r(-1))]));
    }

    #[test]
    fn infeasible_constraints_answer_every_objective_without_a_pivot() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::Free);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Ge, r(5));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Le, r(3));
        let mut session = lp.exact_minimizer();
        let objective = [(x, r(1))];
        let first = session.minimize(&objective);
        assert_matches_cold(&lp, &objective, &first);
        assert_eq!(first.status, LpStatus::Infeasible);
        for objective in [&[][..], &[(x, r(-1))][..]] {
            let minimum = session.minimize(objective);
            assert_matches_cold(&lp, objective, &minimum);
            assert_eq!(minimum.pivots, 0);
        }
    }

    #[test]
    fn an_unbounded_objective_leaves_a_feasible_warm_start() {
        // x ≥ 1 over a free x and a free y no constraint mentions.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::Free);
        let y = lp.add_var("y", VarKind::Free);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Ge, r(1));
        let mut session = lp.exact_minimizer();
        for objective in [
            vec![(x, r(-1))],
            vec![(x, r(1))],
            vec![(y, r(1))],
            vec![(x, r(2)), (y, r(0))],
        ] {
            let minimum = session.minimize(&objective);
            assert_matches_cold(&lp, &objective, &minimum);
            assert_warm_start_is_feasible(&session);
        }
    }

    #[test]
    fn a_form_without_rows_is_unbounded_or_zero() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::Free);
        let s = lp.add_var("s", VarKind::NonNegative);
        let mut session = lp.exact_minimizer();
        for objective in [vec![], vec![(s, r(1))], vec![(x, r(1))], vec![(s, r(-1))]] {
            let minimum = session.minimize(&objective);
            assert_matches_cold(&lp, &objective, &minimum);
            assert_eq!(minimum.pivots, 0);
        }
    }
}
