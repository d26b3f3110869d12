//! Sampling-based verification of synthesized witnesses.
//!
//! The analysis is proved sound on paper (Theorems 4.2 and 5.1); this module provides an
//! *independent* check used by the test-suite and the benchmark harness: it replays
//! concrete executions through the reference interpreter and checks that every computed
//! threshold really bounds the observed cost difference, and that the synthesized
//! potential / anti-potential functions satisfy their defining inequalities along those
//! executions.

use dca_ir::{CostExplorer, IntValuation, State, TransitionSystem, Update};
use dca_lp::{ConstraintOp, LpProblem, LpStatus, VarKind};
use dca_numeric::Rational;
use dca_poly::{LinExpr, VarId};

use crate::potential::PotentialFunction;
use crate::program::AnalyzedProgram;

/// Configuration for sampling-based verification.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Number of initial states sampled from Θ0.
    pub samples: usize,
    /// RNG seed (sampling is reproducible).
    pub seed: u64,
    /// Candidate values explored for non-deterministic updates.
    pub nondet_candidates: Vec<i64>,
    /// Numerical slack allowed when comparing against real-valued thresholds.
    pub tolerance: f64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            samples: 25,
            seed: 0xD1FF,
            nondet_candidates: vec![0, 1],
            tolerance: 1e-6,
        }
    }
}

/// Outcome of a verification pass.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Number of initial states actually checked.
    pub checked: usize,
    /// Human-readable descriptions of any violations found (empty means success).
    pub violations: Vec<String>,
}

impl VerifyReport {
    /// Returns `true` if no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Derives a bounding box for the data variables of a program from its Θ0 (via per-variable
/// LPs), falling back to `[0, 100]` for unbounded variables.
pub fn input_box(program: &AnalyzedProgram) -> Vec<(VarId, i64, i64)> {
    program
        .ts
        .data_vars()
        .into_iter()
        .map(|var| {
            let lower = bound_var(program.ts.theta0(), var, true).unwrap_or(0);
            let upper = bound_var(program.ts.theta0(), var, false).unwrap_or(100);
            (var, lower.min(upper), upper.max(lower))
        })
        .collect()
}

/// Minimizes (or maximizes) a single variable over the Θ0 polytope, rounded to the
/// nearest integer; `None` when the LP has no optimum (unbounded or infeasible).
pub(crate) fn bound_var(theta0: &[LinExpr], var: VarId, minimize: bool) -> Option<i64> {
    let mut vars: Vec<VarId> = theta0.iter().flat_map(LinExpr::vars).collect();
    vars.push(var);
    vars.sort();
    vars.dedup();
    let mut lp = LpProblem::new();
    let lp_vars: std::collections::BTreeMap<VarId, dca_lp::LpVar> = vars
        .iter()
        .map(|&v| (v, lp.add_var(format!("x{}", v.0), VarKind::Free)))
        .collect();
    for constraint in theta0 {
        let terms: Vec<_> = constraint
            .iter()
            .map(|(v, c)| (lp_vars[v], c.clone()))
            .collect();
        lp.add_constraint(terms, ConstraintOp::Ge, -constraint.constant_term().clone());
    }
    let sign = if minimize { Rational::one() } else { Rational::from_int(-1) };
    lp.set_objective(vec![(lp_vars[&var], sign)]);
    let solution = lp.solve_f64();
    (solution.status == LpStatus::Optimal)
        .then(|| solution.values[lp_vars[&var].index()].round() as i64)
}

/// Samples initial valuations of a program satisfying Θ0 (cost fixed to 0).
pub fn sample_inputs(program: &AnalyzedProgram, config: &VerifyConfig) -> Vec<IntValuation> {
    let bounds = input_box(program);
    let mut samples = dca_ir::sample_initial_states(
        program.ts.theta0(),
        &bounds,
        config.samples,
        config.seed,
    );
    // Always include the corners of the box (extreme inputs are where thresholds bind).
    let lower: IntValuation = bounds.iter().map(|&(v, lo, _)| (v, lo)).collect();
    let upper: IntValuation = bounds.iter().map(|&(v, _, hi)| (v, hi)).collect();
    for corner in [lower, upper] {
        if dca_ir::IntValuation::is_empty(&corner)
            || samples.contains(&corner)
            || !satisfies_theta0(program.ts.theta0(), &corner)
        {
            continue;
        }
        samples.push(corner);
    }
    for sample in &mut samples {
        sample.insert(program.ts.cost_var(), 0);
    }
    samples
}

/// `true` when `point` satisfies, in exact arithmetic, every constraint of `theta0`
/// whose variables it assigns.
pub(crate) fn satisfies_theta0(theta0: &[LinExpr], point: &IntValuation) -> bool {
    let valuation = point.iter().map(|(&v, &x)| (v, Rational::from_int(x))).collect();
    theta0.iter().all(|c| {
        // A constraint over a variable the point leaves out (e.g. `cost` on a sampled
        // corner) is not decided here.
        !c.vars().iter().all(|v| point.contains_key(v)) || !c.eval(&valuation).is_negative()
    })
}

/// Checks that `CostSup_new(x) − CostInf_old(x) ≤ threshold` on sampled inputs, computing
/// the exact cost bounds with the exhaustive explorer.
pub fn verify_threshold(
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
    threshold: f64,
    config: &VerifyConfig,
) -> VerifyReport {
    let explorer = CostExplorer::with_candidates(config.nondet_candidates.clone());
    let samples = sample_inputs(new, config);
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for (index, sample) in samples.iter().enumerate() {
        // Random-walk bounds: the observed maximum under-approximates CostSup and the
        // observed minimum over-approximates CostInf, so any violation found is real.
        let new_bounds = explorer.sample_bounds(&new.ts, sample, 32, config.seed ^ index as u64);
        // Transfer the same named inputs to the old program's variable ids.
        let old_sample = transfer_valuation(sample, &new.ts, &old.ts);
        let old_bounds =
            explorer.sample_bounds(&old.ts, &old_sample, 32, config.seed ^ (index as u64) << 1);
        if new_bounds.truncated || old_bounds.truncated {
            continue;
        }
        checked += 1;
        let difference = new_bounds.max - old_bounds.min;
        if (difference as f64) > threshold + config.tolerance {
            violations.push(format!(
                "input {:?}: CostSup_new = {}, CostInf_old = {}, difference {} exceeds threshold {}",
                sample, new_bounds.max, old_bounds.min, difference, threshold
            ));
        }
    }
    VerifyReport { checked, violations }
}

/// Maps an integer valuation from one program's variable ids to another's by name.
pub fn transfer_valuation(
    valuation: &IntValuation,
    from: &TransitionSystem,
    to: &TransitionSystem,
) -> IntValuation {
    let mut out = IntValuation::new();
    for (&var, &value) in valuation {
        let name = from.pool().name(var);
        if let Some(target) = to.pool().lookup(name) {
            out.insert(target, value);
        }
    }
    for var in to.vars() {
        out.entry(var).or_insert(0);
    }
    out
}

/// Checks the defining potential / anti-potential inequalities of a synthesized witness
/// along concrete executions starting from sampled inputs.
///
/// For every visited state `(ℓ, x)` and every enabled transition to `(ℓ', x')`:
/// * potential: `φ(ℓ,x) ≥ φ(ℓ',x') + Δcost − tol`
/// * anti-potential: `χ(ℓ,x) ≤ χ(ℓ',x') + Δcost + tol`
///
/// and at terminal states `φ ≥ −tol` resp. `χ ≤ tol`.
pub fn verify_potential_on_runs(
    potential: &PotentialFunction,
    program: &AnalyzedProgram,
    is_anti: bool,
    config: &VerifyConfig,
) -> VerifyReport {
    let samples = sample_inputs(program, config);
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for sample in &samples {
        let mut frontier = vec![State::new(program.ts.initial(), sample.clone())];
        let mut steps = 0usize;
        while let Some(state) = frontier.pop() {
            steps += 1;
            if steps > 50_000 {
                break;
            }
            checked += 1;
            let valuation: dca_poly::Valuation = state
                .vals
                .iter()
                .map(|(&v, &x)| (v, Rational::from_int(x)))
                .collect();
            let here = potential.eval(state.loc, &valuation).to_f64();
            if state.loc == program.ts.terminal() {
                let violated = if is_anti {
                    here > config.tolerance
                } else {
                    here < -config.tolerance
                };
                if violated {
                    violations.push(format!(
                        "termination condition violated at {:?}: value {}",
                        state.vals, here
                    ));
                }
                continue;
            }
            for transition in program.ts.outgoing(state.loc) {
                if !dca_ir::satisfies_all(&transition.guard, &state.vals) {
                    continue;
                }
                for successor in successors(&state, transition, &config.nondet_candidates) {
                    let next_valuation: dca_poly::Valuation = successor
                        .vals
                        .iter()
                        .map(|(&v, &x)| (v, Rational::from_int(x)))
                        .collect();
                    let there = potential.eval(successor.loc, &next_valuation).to_f64();
                    let delta_cost = (successor.vals[&program.ts.cost_var()]
                        - state.vals[&program.ts.cost_var()]) as f64;
                    let violated = if is_anti {
                        here > there + delta_cost + config.tolerance
                    } else {
                        here < there + delta_cost - config.tolerance
                    };
                    if violated {
                        violations.push(format!(
                            "preservation violated at {} -> {}: {} vs {} + {}",
                            program.ts.location_name(state.loc),
                            program.ts.location_name(successor.loc),
                            here,
                            there,
                            delta_cost
                        ));
                    }
                    if frontier.len() < 10_000 {
                        frontier.push(successor);
                    }
                }
            }
        }
    }
    VerifyReport { checked, violations }
}

fn successors(state: &State, transition: &dca_ir::Transition, candidates: &[i64]) -> Vec<State> {
    let nondet_vars: Vec<VarId> = transition
        .updates
        .iter()
        .filter(|(_, u)| u.is_nondet())
        .map(|(&v, _)| v)
        .collect();
    let choices = candidates.len().max(1);
    let combos = choices.pow(nondet_vars.len() as u32);
    let mut out = Vec::with_capacity(combos);
    for combo in 0..combos {
        let mut next = state.vals.clone();
        for (&var, update) in &transition.updates {
            if let Update::Assign(p) = update {
                next.insert(var, dca_ir::eval_polynomial_int(p, &state.vals));
            }
        }
        let mut rest = combo;
        for &var in &nondet_vars {
            next.insert(var, candidates[rest % choices]);
            rest /= choices;
        }
        out.push(State::new(transition.target, next));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnalysisOptions, DiffCostSolver};

    const OLD: &str = r#"
        proc count(n) {
            assume(n >= 1 && n <= 20);
            i = 0;
            while (i < n) { tick(1); i = i + 1; }
        }
    "#;
    const NEW: &str = r#"
        proc count(n) {
            assume(n >= 1 && n <= 20);
            i = 0;
            while (i < n) { tick(2); i = i + 1; }
        }
    "#;

    #[test]
    fn verifier_accepts_sound_threshold_and_rejects_unsound_one() {
        let old = AnalyzedProgram::from_source(OLD).unwrap();
        let new = AnalyzedProgram::from_source(NEW).unwrap();
        let config = VerifyConfig { samples: 10, ..VerifyConfig::default() };
        // 20 is a sound threshold (difference is exactly n <= 20)...
        let report = verify_threshold(&new, &old, 20.0, &config);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(report.checked > 0);
        // ...but 10 is not: the corner n = 20 exceeds it.
        let report = verify_threshold(&new, &old, 10.0, &config);
        assert!(!report.ok());
    }

    #[test]
    fn synthesized_witnesses_pass_condition_checks() {
        let old = AnalyzedProgram::from_source(OLD).unwrap();
        let new = AnalyzedProgram::from_source(NEW).unwrap();
        let solver = DiffCostSolver::new(AnalysisOptions::default());
        let result = solver.solve(&new, &old).unwrap();
        let config = VerifyConfig { samples: 5, ..VerifyConfig::default() };
        let report = verify_potential_on_runs(&result.potential_new, &new, false, &config);
        assert!(report.ok(), "{:?}", report.violations);
        let report = verify_potential_on_runs(&result.anti_potential_old, &old, true, &config);
        assert!(report.ok(), "{:?}", report.violations);
        let report = verify_threshold(&new, &old, result.threshold, &config);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn input_box_reflects_theta0() {
        let program = AnalyzedProgram::from_source(OLD).unwrap();
        let n = program.ts.pool().lookup("n").unwrap();
        let bounds = input_box(&program);
        let (_, lo, hi) = bounds.iter().find(|(v, _, _)| *v == n).unwrap();
        assert_eq!((*lo, *hi), (1, 20));
    }

    #[test]
    fn valuation_transfer_by_name() {
        let a = AnalyzedProgram::from_source(OLD).unwrap();
        let b = AnalyzedProgram::from_source(NEW).unwrap();
        let mut valuation = IntValuation::new();
        valuation.insert(a.ts.pool().lookup("n").unwrap(), 7);
        let transferred = transfer_valuation(&valuation, &a.ts, &b.ts);
        assert_eq!(transferred[&b.ts.pool().lookup("n").unwrap()], 7);
        assert_eq!(transferred[&b.ts.cost_var()], 0);
    }
}
