//! A reference interpreter for transition systems.
//!
//! The interpreter is not part of the analysis itself; it is the ground truth used by the
//! test-suite and by the result verifier to compare computed thresholds against the cost
//! of concrete executions.

use dca_poly::VarId;

use crate::rng::SmallRng;
use crate::state::{satisfies_all, IntValuation, State};
use crate::system::TransitionSystem;

/// Supplies values for non-deterministic updates during interpretation.
pub trait NondetOracle {
    /// Chooses the value assigned to `var` by a non-deterministic update taken from the
    /// given state.
    fn choose(&mut self, var: VarId, state: &State) -> i64;
}

/// An oracle that always returns the same constant.
#[derive(Debug, Clone, Copy)]
pub struct FixedOracle(pub i64);

impl NondetOracle for FixedOracle {
    fn choose(&mut self, _var: VarId, _state: &State) -> i64 {
        self.0
    }
}

/// An oracle that draws uniformly from a closed range using a seeded RNG.
#[derive(Debug)]
pub struct RandomOracle {
    rng: SmallRng,
    lo: i64,
    hi: i64,
}

impl RandomOracle {
    /// Creates an oracle drawing from `[lo, hi]` with the given seed.
    pub fn new(seed: u64, lo: i64, hi: i64) -> RandomOracle {
        assert!(lo <= hi, "empty range for RandomOracle");
        RandomOracle { rng: SmallRng::seed_from_u64(seed), lo, hi }
    }
}

impl NondetOracle for RandomOracle {
    fn choose(&mut self, _var: VarId, _state: &State) -> i64 {
        self.rng.gen_range_inclusive(self.lo, self.hi)
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run reached the terminal location.
    Terminated,
    /// The step budget was exhausted before reaching the terminal location.
    StepLimit,
    /// No transition was enabled (models a stuck state; well-formed systems avoid this).
    Stuck,
}

/// The result of interpreting a transition system from one initial valuation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Total incurred cost: final `cost` minus initial `cost`.
    pub cost: i64,
    /// Number of transitions taken.
    pub steps: usize,
    /// The final state.
    pub final_state: State,
}

/// The reference interpreter.
#[derive(Debug, Clone, Copy)]
pub struct Interpreter {
    max_steps: usize,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new(1_000_000)
    }
}

impl Interpreter {
    /// Creates an interpreter with the given step budget.
    pub fn new(max_steps: usize) -> Interpreter {
        Interpreter { max_steps }
    }

    /// Runs the transition system from the given initial valuation.
    ///
    /// At each step the *first* enabled transition (in declaration order) is taken; ties
    /// between several enabled transitions therefore resolve deterministically, while
    /// non-deterministic *updates* consult the oracle. This matches the usual convention
    /// that branching non-determinism in the model is expressed through guards plus
    /// havoc variables.
    pub fn run(
        &self,
        ts: &TransitionSystem,
        initial_vals: &IntValuation,
        oracle: &mut dyn NondetOracle,
    ) -> RunResult {
        let mut state = State::new(ts.initial(), initial_vals.clone());
        let initial_cost = state.value(ts.cost_var());
        let mut steps = 0usize;
        while steps < self.max_steps {
            if state.loc == ts.terminal() {
                return RunResult {
                    outcome: RunOutcome::Terminated,
                    cost: state.value(ts.cost_var()) - initial_cost,
                    steps,
                    final_state: state,
                };
            }
            let Some(transition) = ts
                .outgoing(state.loc)
                .find(|t| satisfies_all(&t.guard, &state.vals))
            else {
                return RunResult {
                    outcome: RunOutcome::Stuck,
                    cost: state.value(ts.cost_var()) - initial_cost,
                    steps,
                    final_state: state,
                };
            };
            let next_vals = transition.step(&state.vals, |var| oracle.choose(var, &state));
            state = State::new(transition.target, next_vals);
            steps += 1;
        }
        RunResult {
            outcome: RunOutcome::StepLimit,
            cost: state.value(ts.cost_var()) - initial_cost,
            steps,
            final_state: state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_poly::{LinExpr, Polynomial};
    use crate::system::{TsBuilder, Update};

    /// while (i < n) { i++; cost++ }
    fn counting_loop() -> TransitionSystem {
        let mut b = TsBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.transition(head, head)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        b.transition(head, out)
            .guard(LinExpr::var(i) - LinExpr::var(n))
            .finish();
        b.build().unwrap()
    }

    fn initial(ts: &TransitionSystem, n: i64) -> IntValuation {
        let mut vals = IntValuation::new();
        vals.insert(ts.pool().lookup("i").unwrap(), 0);
        vals.insert(ts.pool().lookup("n").unwrap(), n);
        vals.insert(ts.cost_var(), 0);
        vals
    }

    #[test]
    fn loop_cost_equals_bound() {
        let ts = counting_loop();
        let interp = Interpreter::default();
        for n in [1i64, 5, 50, 100] {
            let result = interp.run(&ts, &initial(&ts, n), &mut FixedOracle(0));
            assert_eq!(result.outcome, RunOutcome::Terminated);
            assert_eq!(result.cost, n, "loop should cost exactly n");
            assert_eq!(result.steps as i64, n + 1);
        }
    }

    #[test]
    fn zero_iterations() {
        let ts = counting_loop();
        let interp = Interpreter::default();
        let result = interp.run(&ts, &initial(&ts, 0), &mut FixedOracle(0));
        assert_eq!(result.outcome, RunOutcome::Terminated);
        assert_eq!(result.cost, 0);
    }

    #[test]
    fn step_limit_reported() {
        let ts = counting_loop();
        let interp = Interpreter::new(3);
        let result = interp.run(&ts, &initial(&ts, 100), &mut FixedOracle(0));
        assert_eq!(result.outcome, RunOutcome::StepLimit);
        assert_eq!(result.steps, 3);
    }

    #[test]
    fn nondet_update_uses_oracle() {
        // x := nondet(); cost := cost + x
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let cost = b.cost_var();
        let start = b.location("start");
        let mid = b.location("mid");
        let out = b.terminal();
        b.set_initial(start);
        b.transition(start, mid).update(x, Update::Nondet).finish();
        b.transition(mid, out)
            .update(cost, Update::assign(Polynomial::var(cost) + Polynomial::var(x)))
            .finish();
        let ts = b.build().unwrap();
        let interp = Interpreter::default();
        let mut vals = IntValuation::new();
        vals.insert(x, 0);
        vals.insert(cost, 0);
        let result = interp.run(&ts, &vals, &mut FixedOracle(7));
        assert_eq!(result.outcome, RunOutcome::Terminated);
        assert_eq!(result.cost, 7);

        let mut random = RandomOracle::new(42, 0, 10);
        let result = interp.run(&ts, &vals, &mut random);
        assert!(result.cost >= 0 && result.cost <= 10);
    }

    #[test]
    fn stuck_state_detected() {
        // A location whose only outgoing guard is unsatisfiable at runtime.
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let start = b.location("start");
        let out = b.terminal();
        b.set_initial(start);
        b.transition(start, out)
            .guard(LinExpr::var(x) - LinExpr::from_int(1_000))
            .finish();
        let ts = b.build().unwrap();
        let interp = Interpreter::default();
        let mut vals = IntValuation::new();
        vals.insert(x, 0);
        vals.insert(ts.cost_var(), 0);
        let result = interp.run(&ts, &vals, &mut FixedOracle(0));
        assert_eq!(result.outcome, RunOutcome::Stuck);
    }
}
