//! Forward abstract-interpretation fixpoint over a transition system.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dca_ir::{LocId, LoopNest, TransitionSystem, Update};
use dca_poly::{LinExpr, VarId};

use crate::polyhedron::Polyhedron;

/// A map from program locations to affine invariants.
#[derive(Debug, Clone)]
pub struct InvariantMap {
    invariants: BTreeMap<LocId, Polyhedron>,
}

impl InvariantMap {
    /// The invariant at a location (`bottom` for locations never seen).
    pub fn at(&self, loc: LocId) -> Polyhedron {
        self.invariants.get(&loc).cloned().unwrap_or_else(Polyhedron::bottom)
    }

    /// The invariant at a location as a list of `expr ≥ 0` conjuncts
    /// (an explicitly false constraint for unreachable locations).
    pub fn constraints_at(&self, loc: LocId) -> Vec<LinExpr> {
        self.at(loc).constraints_or_false()
    }

    /// Returns `true` if the invariant at `loc` entails `expr ≥ 0`.
    pub fn entails(&self, loc: LocId, expr: &LinExpr) -> bool {
        self.at(loc).entails(expr)
    }

    /// Conjoins extra constraints onto the invariant at a location.
    ///
    /// This mirrors the manual invariant strengthening the paper applies to the
    /// `*`-marked benchmarks: the added facts are trusted, not re-verified.
    pub fn strengthen(&mut self, loc: LocId, extra: &[LinExpr]) {
        let mut p = self.at(loc);
        p.add_constraints(extra);
        self.invariants.insert(loc, p);
    }

    /// Iterates over `(location, invariant)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&LocId, &Polyhedron)> {
        self.invariants.iter()
    }

    /// Renders the whole map for debugging.
    pub fn render(&self, ts: &TransitionSystem) -> String {
        let mut out = String::new();
        for (loc, poly) in &self.invariants {
            out.push_str(&format!(
                "  {}: {}\n",
                ts.location_name(*loc),
                poly.render(ts.pool())
            ));
        }
        out
    }
}

/// Number of growing deliveries along a location's back edges before widening kicks in.
const WIDENING_DELAY: usize = 2;

/// Hard cap on the number of worklist iterations (safety net).
const MAX_ITERATIONS: usize = 2000;

/// Invariants with more constraints than this lose their LP-redundant ones in the
/// final cleanup.
const REDUCE_ABOVE: usize = 12;

/// The forward invariant-generation analysis.
///
/// A worklist fixpoint with the entailment-filter join ([`Polyhedron::join`]) and plain
/// widening ([`Polyhedron::widen`]). Widening fires only on deliveries along back edges
/// (computed by [`dca_ir::LoopNest`]), once a location has received more than two
/// growing ones, so straight-line and join locations — including the entry of a loop
/// that is sequentially composed after another loop — propagate their values exactly
/// and post-loop facts survive into downstream loops.
///
/// All knowledge about the `cost` variable is dropped: potential-function synthesis
/// never needs invariants about `cost`, and tracking it only slows down convergence
/// (the accumulated cost rarely admits affine bounds).
#[derive(Debug, Clone, Copy, Default)]
pub struct InvariantAnalysis;

impl InvariantAnalysis {
    /// Runs the analysis and returns the invariant map.
    ///
    /// The result is a sound over-approximation of the reachable states of `ts`: for
    /// every reachable state `(ℓ, x)` the valuation `x` satisfies the invariant at `ℓ`.
    pub fn analyze(&self, ts: &TransitionSystem) -> InvariantMap {
        let fresh_base = ts.pool().len() as u32 + 16;
        let mut invariants = self.fixpoint(ts, fresh_base);
        // Final cleanup: drop LP-redundant constraints at locations whose invariant grew
        // large. This keeps the Handelman product sets (and therefore the synthesis LP)
        // small downstream.
        for polyhedron in invariants.values_mut() {
            if polyhedron.constraints().is_some_and(|cs| cs.len() > REDUCE_ABOVE) {
                *polyhedron = polyhedron.reduce();
            }
        }
        InvariantMap { invariants }
    }

    /// The ascending (widening) fixpoint.
    fn fixpoint(&self, ts: &TransitionSystem, fresh_base: u32) -> BTreeMap<LocId, Polyhedron> {
        // Widening fires only on deliveries along *back edges*. Termination is
        // preserved — an infinite ascending chain must propagate around a cycle, every
        // cycle closes with a back edge, and that edge's delivery counter eventually
        // exceeds the delay. Counting *all* deliveries (as earlier revisions did) made a
        // loop that merely sits downstream of another loop widen while the upstream
        // fixpoint was still churning, before its own back edge had delivered a single
        // iterate: the sequential composition `while(..){..}; while(..){..}` then lost
        // the second loop's `j ≤ n` bound, which is why the `SequentialSingle` and `Ex4`
        // rows of Table 1 went loose.
        let back_edges: BTreeSet<usize> = LoopNest::analyze(ts)
            .back_edges()
            .iter()
            .map(|edge| edge.transition)
            .collect();

        let mut invariants: BTreeMap<LocId, Polyhedron> = BTreeMap::new();
        let mut visit_counts: BTreeMap<LocId, usize> = BTreeMap::new();
        for loc in ts.locations() {
            invariants.insert(loc, Polyhedron::bottom());
        }
        let mut initial = Polyhedron::from_constraints(ts.theta0().iter().cloned())
            .project_out(ts.cost_var());
        initial.normalize_emptiness();
        invariants.insert(ts.initial(), initial);

        let mut worklist: VecDeque<LocId> = VecDeque::new();
        worklist.push_back(ts.initial());
        let mut iterations = 0usize;

        while let Some(loc) = worklist.pop_front() {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                // Bailing out mid-ascent would keep *under*-approximated facts at
                // locations whose pending updates were never applied — unsound. The
                // only sound cheap answer is to give up on precision entirely.
                for polyhedron in invariants.values_mut() {
                    *polyhedron = Polyhedron::top();
                }
                break;
            }
            let current = invariants[&loc].clone();
            if current.is_bottom() {
                continue;
            }
            for (index, transition) in
                ts.transitions().iter().enumerate().filter(|(_, t)| t.source == loc)
            {
                if transition.source == ts.terminal() && transition.target == ts.terminal() {
                    continue; // terminal self-loop carries no information
                }
                let post = self.post(ts, &current, transition, fresh_base);
                if post.is_bottom() {
                    continue;
                }
                let target = transition.target;
                let existing = invariants[&target].clone();
                if post.entails_all(&existing) && !existing.is_bottom() {
                    continue; // no new information
                }
                let may_widen = back_edges.contains(&index);
                let count = visit_counts.entry(target).or_insert(0);
                if may_widen {
                    // Only growing deliveries around the loop itself count toward the
                    // delay; churn arriving through the entry edge keeps the exact join.
                    *count += 1;
                }
                let joined = existing.join(&post);
                let mut updated = if may_widen && *count > WIDENING_DELAY {
                    existing.widen(&joined)
                } else {
                    joined
                };
                updated.normalize_emptiness();
                if updated != existing {
                    invariants.insert(target, updated);
                    if !worklist.contains(&target) {
                        worklist.push_back(target);
                    }
                }
            }
        }
        invariants
    }

    /// Abstract post-condition of one transition.
    fn post(
        &self,
        ts: &TransitionSystem,
        pre: &Polyhedron,
        transition: &dca_ir::Transition,
        fresh_base: u32,
    ) -> Polyhedron {
        let mut guarded = pre.clone();
        guarded.add_constraints(&transition.guard);
        guarded.normalize_emptiness();
        if guarded.is_bottom() {
            return Polyhedron::bottom();
        }
        // Build the simultaneous update: affine deterministic updates keep their
        // expression, everything else (non-affine or non-deterministic) is a havoc.
        // Updates of `cost` are dropped with the rest of its knowledge.
        let updates: Vec<(VarId, Option<LinExpr>)> = transition
            .updates
            .iter()
            .filter(|(v, _)| **v != ts.cost_var())
            .map(|(&v, update)| match update {
                Update::Assign(p) => (v, LinExpr::try_from_polynomial(p)),
                Update::Nondet => (v, None),
            })
            .collect();
        guarded.assign_simultaneous(&updates, fresh_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_ir::TsBuilder;
    use dca_poly::Polynomial;

    /// Nested loop mirroring the running example's `join` (old version):
    /// for i in 0..lenA { for j in 0..lenB { cost += 1 } }
    fn nested_join() -> TransitionSystem {
        let mut b = TsBuilder::new();
        b.name("join_old");
        let i = b.var("i");
        let j = b.var("j");
        let len_a = b.var("lenA");
        let len_b = b.var("lenB");
        let l0 = b.location("l0");
        let l1 = b.location("l1");
        let l2 = b.location("l2");
        let out = b.terminal();
        b.set_initial(l0);
        b.add_theta0(LinExpr::var(len_a) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(len_a));
        b.add_theta0(LinExpr::var(len_b) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(len_b));
        // l0 -> l1: i := 0
        b.transition(l0, l1)
            .update(i, Update::assign(Polynomial::zero()))
            .finish();
        // l1 -> l2: guard i < lenA, j := 0
        b.transition(l1, l2)
            .guard(LinExpr::var(len_a) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::zero()))
            .finish();
        // l2 -> l2: guard j < lenB, j++, cost++
        b.transition(l2, l2)
            .guard(LinExpr::var(len_b) - LinExpr::var(j) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::var(j) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        // l2 -> l1: guard j >= lenB, i++
        b.transition(l2, l1)
            .guard(LinExpr::var(j) - LinExpr::var(len_b))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .finish();
        // l1 -> out: guard i >= lenA
        b.transition(l1, out)
            .guard(LinExpr::var(i) - LinExpr::var(len_a))
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn loop_head_invariants_are_sound_and_useful() {
        let ts = nested_join();
        let invariants = InvariantAnalysis.analyze(&ts);
        let i = ts.pool().lookup("i").unwrap();
        let j = ts.pool().lookup("j").unwrap();
        let len_a = ts.pool().lookup("lenA").unwrap();
        let len_b = ts.pool().lookup("lenB").unwrap();
        let l1 = LocId(1);
        let l2 = LocId(2);
        // Outer loop head: 0 <= i <= lenA and the input bounds.
        assert!(invariants.entails(l1, &LinExpr::var(i)), "{}", invariants.render(&ts));
        assert!(invariants.entails(l1, &(LinExpr::var(len_a) - LinExpr::var(i))));
        assert!(invariants.entails(l1, &(LinExpr::var(len_a) - LinExpr::from_int(1))));
        assert!(invariants.entails(l1, &(LinExpr::from_int(100) - LinExpr::var(len_a))));
        // Inner loop head: additionally 0 <= j <= lenB and i < lenA.
        assert!(invariants.entails(l2, &LinExpr::var(j)));
        assert!(invariants.entails(l2, &(LinExpr::var(len_b) - LinExpr::var(j))));
        assert!(invariants.entails(
            l2,
            &(LinExpr::var(len_a) - LinExpr::var(i) - LinExpr::from_int(1))
        ));
    }

    /// Soundness: invariants must hold on every state an actual execution visits.
    #[test]
    fn invariants_hold_on_sampled_executions() {
        use dca_ir::{FixedOracle, Interpreter};
        let ts = nested_join();
        let invariants = InvariantAnalysis.analyze(&ts);
        // Replay a run and check every visited state against its location invariant.
        // (The interpreter does not expose the trace directly, so re-simulate by
        // stepping through increasing step budgets.)
        for (len_a, len_b) in [(4i64, 3i64), (1, 1), (2, 5)] {
            let mut initial = dca_ir::IntValuation::new();
            for (name, value) in
                [("i", 0i64), ("j", 0), ("lenA", len_a), ("lenB", len_b), ("cost", 0)]
            {
                initial.insert(ts.pool().lookup(name).unwrap(), value);
            }
            for steps in 0..60 {
                let result = Interpreter::new(steps).run(&ts, &initial, &mut FixedOracle(0));
                let state = result.final_state;
                let invariant = invariants.at(state.loc);
                for constraint in invariant.constraints_or_false() {
                    let value = constraint.eval(
                        &state
                            .vals
                            .iter()
                            .map(|(&v, &x)| (v, dca_numeric::Rational::from_int(x)))
                            .collect(),
                    );
                    assert!(
                        !value.is_negative(),
                        "invariant violated at {} after {} steps (lenA={len_a}, lenB={len_b})",
                        ts.location_name(state.loc),
                        steps
                    );
                }
            }
        }
    }

    /// Two sequential loops: `while (i < n) i++` then `while (j < n) j++`.
    /// Regression test for the back-edge widening delay: the upstream loop's fixpoint
    /// churn must not burn the downstream loop's widening delay, or the second head
    /// loses its `j ≤ n` bound (which made the `SequentialSingle` and `Ex4` Table-1
    /// rows loose).
    fn sequential_loops() -> TransitionSystem {
        let mut b = TsBuilder::new();
        b.name("sequential");
        let i = b.var("i");
        let j = b.var("j");
        let n = b.var("n");
        let head1 = b.location("head1");
        let mid = b.location("mid");
        let head2 = b.location("head2");
        let out = b.terminal();
        b.set_initial(head1);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(n));
        // head1 self-loop: guard i < n, i++ (with a tick so the cost var exists).
        b.transition(head1, head1)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        // head1 -> mid: guard i >= n; mid -> head2: j := 0.
        b.transition(head1, mid).guard(LinExpr::var(i) - LinExpr::var(n)).finish();
        b.transition(mid, head2)
            .update(j, Update::assign(Polynomial::zero()))
            .finish();
        // head2 self-loop: guard j < n, j++.
        b.transition(head2, head2)
            .guard(LinExpr::var(n) - LinExpr::var(j) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::var(j) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        b.transition(head2, out).guard(LinExpr::var(j) - LinExpr::var(n)).finish();
        b.build().unwrap()
    }

    #[test]
    fn second_sequential_loop_keeps_its_bounds() {
        let ts = sequential_loops();
        let j = ts.pool().lookup("j").unwrap();
        let n = ts.pool().lookup("n").unwrap();
        let head2 = LocId(2);
        let invariants = InvariantAnalysis.analyze(&ts);
        assert!(
            invariants.entails(head2, &LinExpr::var(j)),
            "lost j >= 0 at the second loop head:\n{}",
            invariants.render(&ts)
        );
        assert!(
            invariants.entails(head2, &(LinExpr::var(n) - LinExpr::var(j))),
            "lost j <= n at the second loop head:\n{}",
            invariants.render(&ts)
        );
    }

    #[test]
    fn unreachable_location_stays_bottom() {
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let start = b.location("start");
        let dead = b.location("dead");
        let out = b.terminal();
        b.set_initial(start);
        b.add_theta0(LinExpr::var(x));
        b.transition(start, out).finish();
        // dead -> out exists so the system is well formed, but dead is never entered.
        b.transition(dead, out).finish();
        let ts = b.build().unwrap();
        let invariants = InvariantAnalysis.analyze(&ts);
        assert!(invariants.at(LocId(1)).is_bottom());
        // Its constraint list is the explicit false constraint.
        assert_eq!(invariants.constraints_at(LocId(1)).len(), 1);
    }

    #[test]
    fn strengthening_adds_facts() {
        let ts = nested_join();
        let mut invariants = InvariantAnalysis.analyze(&ts);
        let i = ts.pool().lookup("i").unwrap();
        let extra = LinExpr::from_int(1000) - LinExpr::var(i);
        let l1 = LocId(1);
        assert!(invariants.entails(l1, &extra)); // already implied by i <= lenA <= 100
        let unusual = LinExpr::from_int(2) - LinExpr::var(i);
        assert!(!invariants.entails(l1, &unusual));
        invariants.strengthen(l1, std::slice::from_ref(&unusual));
        assert!(invariants.entails(l1, &unusual));
    }

    #[test]
    fn terminal_location_is_reached() {
        let ts = nested_join();
        let invariants = InvariantAnalysis.analyze(&ts);
        assert!(!invariants.at(ts.terminal()).is_bottom());
    }
}
