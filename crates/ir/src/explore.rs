//! Exhaustive cost exploration and initial-state sampling.
//!
//! `CostSup` and `CostInf` (Section 3 of the paper) are defined as the supremum and
//! infimum of run costs over all resolutions of non-determinism. For the small benchmark
//! programs these can be computed exactly by exhaustively exploring every enabled
//! transition and every candidate value of non-deterministic updates. The explorer is the
//! oracle the test-suite uses to check that synthesized thresholds are sound and tight.

use dca_poly::VarId;

use crate::rng::SmallRng;
use crate::state::{satisfies_all, IntValuation, State};
use crate::system::TransitionSystem;

/// Exact minimal and maximal run cost from one initial valuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBounds {
    /// `CostInf`: the minimum cost over all runs.
    pub min: i64,
    /// `CostSup`: the maximum cost over all runs.
    pub max: i64,
    /// `true` if the exploration budget was exhausted (bounds may then be partial).
    pub truncated: bool,
}

/// Exhaustively explores all runs of a transition system from a fixed initial valuation.
#[derive(Debug, Clone)]
pub struct CostExplorer {
    /// Candidate values tried for every non-deterministic update.
    pub nondet_candidates: Vec<i64>,
    /// Maximum length of a single run.
    pub max_depth: usize,
    /// Maximum total number of explored states across all runs.
    pub max_states: usize,
}

impl Default for CostExplorer {
    fn default() -> Self {
        CostExplorer {
            nondet_candidates: vec![0, 1],
            max_depth: 100_000,
            max_states: 2_000_000,
        }
    }
}

impl CostExplorer {
    /// Creates an explorer with the given candidate set for non-deterministic updates.
    pub fn with_candidates(candidates: Vec<i64>) -> CostExplorer {
        CostExplorer { nondet_candidates: candidates, ..CostExplorer::default() }
    }

    /// Computes exact cost bounds from the given initial valuation.
    ///
    /// Exploration branches over every enabled transition and, for non-deterministic
    /// updates, over every candidate value. Runs exceeding `max_depth` and exploration
    /// exceeding `max_states` are truncated and flagged in the result.
    pub fn explore(&self, ts: &TransitionSystem, initial_vals: &IntValuation) -> CostBounds {
        let mut bounds = CostBounds { min: i64::MAX, max: i64::MIN, truncated: false };
        let initial_cost = initial_vals.get(&ts.cost_var()).copied().unwrap_or(0);
        let mut budget = self.max_states;
        // Depth-first exploration with an explicit work stack (runs can be tens of
        // thousands of steps long, far deeper than the call stack allows).
        let mut stack: Vec<(State, usize)> = vec![(State::new(ts.initial(), initial_vals.clone()), 0)];
        while let Some((state, depth)) = stack.pop() {
            if budget == 0 || depth > self.max_depth {
                bounds.truncated = true;
                if budget == 0 {
                    break;
                }
                continue;
            }
            budget -= 1;
            if state.loc == ts.terminal() {
                let cost = state.value(ts.cost_var()) - initial_cost;
                bounds.min = bounds.min.min(cost);
                bounds.max = bounds.max.max(cost);
                continue;
            }
            for transition in ts.outgoing(state.loc) {
                if !satisfies_all(&transition.guard, &state.vals) {
                    continue;
                }
                for next_vals in transition.successors(&state.vals, &self.nondet_candidates) {
                    stack.push((State::new(transition.target, next_vals), depth + 1));
                }
            }
        }
        if bounds.min == i64::MAX {
            // No terminating run found within the budget.
            bounds.min = 0;
            bounds.max = 0;
            bounds.truncated = true;
        }
        bounds
    }

    /// Estimates cost bounds by random walks instead of exhaustive exploration.
    ///
    /// Each walk resolves branching non-determinism (several enabled transitions) and
    /// havoc updates uniformly at random. The returned `max` is therefore a *lower* bound
    /// on `CostSup` and `min` an *upper* bound on `CostInf`, which is exactly the
    /// direction needed to test a claimed differential threshold: any observed violation
    /// is a real violation. Deterministic programs are explored exactly by a single walk.
    pub fn sample_bounds(
        &self,
        ts: &TransitionSystem,
        initial_vals: &IntValuation,
        walks: usize,
        seed: u64,
    ) -> CostBounds {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut bounds = CostBounds { min: i64::MAX, max: i64::MIN, truncated: false };
        let initial_cost = initial_vals.get(&ts.cost_var()).copied().unwrap_or(0);
        for _ in 0..walks.max(1) {
            let mut state = State::new(ts.initial(), initial_vals.clone());
            let mut steps = 0usize;
            loop {
                if state.loc == ts.terminal() {
                    let cost = state.value(ts.cost_var()) - initial_cost;
                    bounds.min = bounds.min.min(cost);
                    bounds.max = bounds.max.max(cost);
                    break;
                }
                if steps > self.max_depth {
                    bounds.truncated = true;
                    break;
                }
                steps += 1;
                let enabled: Vec<&crate::system::Transition> = ts
                    .outgoing(state.loc)
                    .filter(|t| satisfies_all(&t.guard, &state.vals))
                    .collect();
                if enabled.is_empty() {
                    bounds.truncated = true;
                    break;
                }
                let transition = enabled[rng.gen_index(enabled.len())];
                let next_vals = transition.step(&state.vals, |_| {
                    let idx = rng.gen_index(self.nondet_candidates.len().max(1));
                    self.nondet_candidates.get(idx).copied().unwrap_or(0)
                });
                state = State::new(transition.target, next_vals);
            }
        }
        if bounds.min == i64::MAX {
            bounds.min = 0;
            bounds.max = 0;
            bounds.truncated = true;
        }
        bounds
    }
}

/// Enumerates all integer points of a box `{var -> (lo, hi)}`.
///
/// Intended for small boxes (the product of the ranges is the number of points).
pub fn enumerate_box(box_bounds: &[(VarId, i64, i64)]) -> Vec<IntValuation> {
    let mut result = vec![IntValuation::new()];
    for &(var, lo, hi) in box_bounds {
        assert!(lo <= hi, "empty range for {var:?}");
        let mut next = Vec::with_capacity(result.len() * (hi - lo + 1) as usize);
        for base in &result {
            for value in lo..=hi {
                let mut point = base.clone();
                point.insert(var, value);
                next.push(point);
            }
        }
        result = next;
    }
    result
}

/// Samples up to `count` integer points from a box that satisfy the conjunction `theta0`.
///
/// Points are drawn uniformly from the box with a seeded RNG, so results are
/// reproducible. The `cost` variable (and any variable not mentioned in the box) should
/// be fixed by the caller afterwards if needed.
pub fn sample_initial_states(
    theta0: &[dca_poly::LinExpr],
    box_bounds: &[(VarId, i64, i64)],
    count: usize,
    seed: u64,
) -> Vec<IntValuation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut result = Vec::new();
    let mut attempts = 0usize;
    let max_attempts = count.saturating_mul(1000).max(1000);
    while result.len() < count && attempts < max_attempts {
        attempts += 1;
        let mut point = IntValuation::new();
        for &(var, lo, hi) in box_bounds {
            point.insert(var, rng.gen_range_inclusive(lo, hi));
        }
        if satisfies_all(theta0, &point) {
            result.push(point);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_poly::{LinExpr, Polynomial};
    use crate::system::{TsBuilder, Update};

    /// while (i < n) { if (*) cost += 2 else cost += 1; i++ }
    /// Maximum cost 2n, minimum cost n, driven by branching non-determinism expressed via
    /// two guarded transitions with overlapping guards.
    fn branching_loop() -> TransitionSystem {
        let mut b = TsBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.transition(head, head)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(2)
            .finish();
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
    fn branching_bounds_are_exact() {
        let ts = branching_loop();
        let explorer = CostExplorer::default();
        for n in [1i64, 2, 3, 5] {
            let bounds = explorer.explore(&ts, &initial(&ts, n));
            assert!(!bounds.truncated);
            assert_eq!(bounds.min, n, "min cost is n");
            assert_eq!(bounds.max, 2 * n, "max cost is 2n");
        }
    }

    #[test]
    fn deterministic_program_has_equal_bounds() {
        let mut b = TsBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.transition(head, head)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        b.transition(head, out)
            .guard(LinExpr::var(i) - LinExpr::var(n))
            .finish();
        let ts = b.build().unwrap();
        let explorer = CostExplorer::default();
        let mut vals = IntValuation::new();
        vals.insert(ts.pool().lookup("i").unwrap(), 0);
        vals.insert(ts.pool().lookup("n").unwrap(), 7);
        vals.insert(ts.cost_var(), 0);
        let bounds = explorer.explore(&ts, &vals);
        assert_eq!(bounds.min, 7);
        assert_eq!(bounds.max, 7);
    }

    #[test]
    fn nondet_update_explored_over_candidates() {
        // x := nondet in {0, 5}; cost += x
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
        let explorer = CostExplorer::with_candidates(vec![0, 5]);
        let mut vals = IntValuation::new();
        vals.insert(x, 0);
        vals.insert(cost, 0);
        let bounds = explorer.explore(&ts, &vals);
        assert_eq!(bounds.min, 0);
        assert_eq!(bounds.max, 5);
    }

    #[test]
    fn box_enumeration() {
        let points = enumerate_box(&[(VarId(0), 1, 3), (VarId(1), 0, 1)]);
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| (1..=3).contains(&p[&VarId(0)])));
    }

    #[test]
    fn sampling_respects_theta0() {
        let mut pool = dca_poly::VarPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        // a >= b
        let theta = vec![LinExpr::var(a) - LinExpr::var(b)];
        let samples = sample_initial_states(&theta, &[(a, 0, 10), (b, 0, 10)], 25, 7);
        assert!(!samples.is_empty());
        for s in samples {
            assert!(s[&a] >= s[&b]);
        }
    }
}
