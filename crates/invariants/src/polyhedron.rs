//! A convex-polyhedra-lite abstract domain: conjunctions of affine inequalities.

use dca_numeric::Rational;
use dca_poly::{LinExpr, VarId};

use crate::queries::Queries;

/// A conjunction of affine inequalities `expr ≥ 0`, or the empty (unreachable) element.
///
/// The element `Top` is represented by an empty constraint list. Every decision is
/// exact, and of one of three kinds:
///
/// * **structural** (no LP): an entailment query `expr ≥ 0` where `expr − c` is a
///   non-negative constant for some conjunct `c`, and the non-emptiness of a join,
///   widening or affine image of a nonempty operand;
/// * **recalled** (no LP): within one analysis, a query on a constraint list that an
///   earlier exact LP already decided — the same emptiness question, or a form whose
///   exact minimum is known — and a query decided by a known exact point of the
///   polyhedron, which refutes an entailment it violates and proves non-emptiness
///   (an earlier LP's optimal vertex, checked exactly against these constraints);
/// * **exact LP** (over the rationals, no tolerance): every other emptiness and
///   entailment check, warm-started from the basis of the last LP over the same
///   constraint list.
///
/// The deliberate precision losses are the weak join, widening, and the cap on
/// Fourier–Motzkin growth.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyhedron {
    /// `None` encodes bottom (unreachable); `Some(cs)` encodes the conjunction of `cs`.
    constraints: Option<Vec<LinExpr>>,
}

/// Maximum number of constraints kept after any operation. Excess constraints are dropped
/// (a sound over-approximation).
const MAX_CONSTRAINTS: usize = 64;

impl Polyhedron {
    /// The universe (no constraints).
    pub fn top() -> Polyhedron {
        Polyhedron { constraints: Some(Vec::new()) }
    }

    /// The empty polyhedron (unreachable).
    pub fn bottom() -> Polyhedron {
        Polyhedron { constraints: None }
    }

    /// Builds a polyhedron from a conjunction of `expr ≥ 0` constraints.
    pub fn from_constraints(constraints: impl IntoIterator<Item = LinExpr>) -> Polyhedron {
        let mut p = Polyhedron::top();
        for c in constraints {
            p.add_constraint(c);
        }
        p
    }

    /// Returns `true` if this is the bottom element.
    pub fn is_bottom(&self) -> bool {
        self.constraints.is_none()
    }

    /// The constraints of the polyhedron (empty slice for top, `None` for bottom).
    pub fn constraints(&self) -> Option<&[LinExpr]> {
        self.constraints.as_deref()
    }

    /// The constraints as a vector, treating bottom as an explicitly false constraint
    /// `-1 ≥ 0` so that downstream consumers remain sound.
    pub fn constraints_or_false(&self) -> Vec<LinExpr> {
        match &self.constraints {
            Some(cs) => cs.clone(),
            None => vec![LinExpr::from_int(-1)],
        }
    }

    /// Conjoins one more constraint `expr ≥ 0`.
    pub fn add_constraint(&mut self, expr: LinExpr) {
        if let Some(cs) = &mut self.constraints {
            if expr.is_constant() {
                if expr.constant_term().is_negative() {
                    self.constraints = None;
                }
                return;
            }
            let normalized = expr.normalize();
            // Cheap syntactic subsumption: among constraints with identical coefficient
            // vectors, only the one with the smallest constant (the strongest) matters.
            for existing in cs.iter_mut() {
                if same_coefficients(existing, &normalized) {
                    if normalized.constant_term() < existing.constant_term() {
                        *existing = normalized;
                    }
                    return;
                }
            }
            cs.push(normalized);
            if cs.len() > MAX_CONSTRAINTS {
                cs.truncate(MAX_CONSTRAINTS);
            }
        }
    }

    /// Conjoins several constraints.
    pub fn add_constraints(&mut self, exprs: &[LinExpr]) {
        for e in exprs {
            self.add_constraint(e.clone());
        }
    }

    /// Collapses to bottom if [`Polyhedron::is_empty`] proves the constraints
    /// infeasible, deciding it in `queries`.
    pub(crate) fn normalize_emptiness(&mut self, queries: &Queries) {
        if self.is_empty_in(queries) {
            self.constraints = None;
        }
    }

    /// Returns `true` only when the conjunction is proven empty: bottom, or an exact
    /// simplex verdict `Infeasible` over ℚ.
    ///
    /// Emptiness is only sound in one direction: an empty polyhedron marks its
    /// states unreachable, and the infeasible-transition pruning pass drops a
    /// premise `I(source) ∧ guard` it proves empty before the Handelman encoding
    /// sees it. So anything short of a definite `Infeasible` (a solve that did not
    /// converge) answers `false`.
    pub fn is_empty(&self) -> bool {
        self.is_empty_in(&Queries::default())
    }

    /// [`Polyhedron::is_empty`], decided in (and counted by) `queries`.
    pub(crate) fn is_empty_in(&self, queries: &Queries) -> bool {
        match &self.constraints {
            None => true,
            Some(cs) if cs.is_empty() => false,
            Some(cs) => queries.is_empty(cs),
        }
    }

    /// Returns `true` if every point of the polyhedron satisfies `expr ≥ 0`.
    ///
    /// Holds structurally when `expr − c` is a non-negative constant for some conjunct
    /// `c`; otherwise decided by minimizing `expr` over the polyhedron with the exact
    /// simplex: the implication holds iff the exact minimum plus the constant term is
    /// not negative (or the polyhedron is empty / the LP is infeasible). A variable
    /// no conjunct mentions is unbounded, so `expr` is then entailed exactly when the
    /// polyhedron is empty.
    pub fn entails(&self, expr: &LinExpr) -> bool {
        self.entails_in(expr, &Queries::default())
    }

    /// [`Polyhedron::entails`], decided in (and counted by) `queries`.
    pub(crate) fn entails_in(&self, expr: &LinExpr, queries: &Queries) -> bool {
        let Some(cs) = &self.constraints else {
            return true;
        };
        if expr.is_constant() {
            return !expr.constant_term().is_negative();
        }
        // `expr = c + k` with `k ≥ 0` for a conjunct `c ≥ 0`: entailed, exactly.
        if cs
            .iter()
            .any(|c| same_coefficients(c, expr) && expr.constant_term() >= c.constant_term())
        {
            return true;
        }
        queries.entails(cs, expr)
    }

    /// The exact minimum of `expr` over the polyhedron: `None` when it is empty or
    /// `expr` is unbounded below on it (or the exact simplex did not converge).
    ///
    /// ```
    /// use dca_invariants::{interval, Polyhedron};
    /// use dca_numeric::Rational;
    /// use dca_poly::{LinExpr, VarId};
    /// let p = Polyhedron::from_constraints(interval(VarId(0), 3, 7));
    /// assert_eq!(p.minimum(&-LinExpr::var(VarId(0))), Some(Rational::from_int(-7)));
    /// assert_eq!(p.minimum(&LinExpr::var(VarId(1))), None);
    /// ```
    pub fn minimum(&self, expr: &LinExpr) -> Option<Rational> {
        let cs = self.constraints.as_deref()?;
        Queries::default().minimum(cs, expr)
    }

    /// Returns `true` if `self` is contained in `other` (every constraint of `other` is
    /// entailed by `self`).
    pub(crate) fn entails_all(&self, other: &Polyhedron, queries: &Queries) -> bool {
        match &other.constraints {
            None => self.is_bottom(),
            Some(cs) => cs.iter().all(|c| self.entails_in(c, queries)),
        }
    }

    /// Sound join: keeps the constraints of each operand that are entailed by the other.
    ///
    /// This is weaker than the convex hull but sound (the result contains both operands,
    /// so it is nonempty whenever either is) and cheap. Bottom is the identity.
    pub(crate) fn join(&self, other: &Polyhedron, queries: &Queries) -> Polyhedron {
        match (&self.constraints, &other.constraints) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(b)) => {
                let mut kept: Vec<LinExpr> = Vec::new();
                for c in a {
                    if other.entails_in(c, queries) {
                        kept.push(c.clone());
                    }
                }
                for c in b {
                    if self.entails_in(c, queries) && !kept.contains(c) {
                        kept.push(c.clone());
                    }
                }
                Polyhedron { constraints: Some(kept) }
            }
        }
    }

    /// Standard widening: keeps only the constraints of `self` that still hold in `next`
    /// (so the result contains `next`).
    pub(crate) fn widen(&self, next: &Polyhedron, queries: &Queries) -> Polyhedron {
        match (&self.constraints, &next.constraints) {
            (None, _) => next.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(_)) => {
                let kept: Vec<LinExpr> =
                    a.iter().filter(|c| next.entails_in(c, queries)).cloned().collect();
                Polyhedron { constraints: Some(kept) }
            }
        }
    }

    /// Removes all knowledge about a variable (projection by Fourier–Motzkin elimination).
    pub fn project_out(&self, var: VarId) -> Polyhedron {
        let Some(cs) = &self.constraints else {
            return Polyhedron::bottom();
        };
        let mut unrelated = Vec::new();
        let mut lower = Vec::new(); // coefficient of var > 0: gives lower bounds on var
        let mut upper = Vec::new(); // coefficient of var < 0: gives upper bounds on var
        for c in cs {
            let coeff = c.coeff(var);
            if coeff.is_zero() {
                unrelated.push(c.clone());
            } else if coeff.is_positive() {
                lower.push(c.clone());
            } else {
                upper.push(c.clone());
            }
        }
        // Combine each lower bound with each upper bound to eliminate `var`.
        let mut combined = unrelated;
        for lo in &lower {
            for up in &upper {
                let a = lo.coeff(var);
                let b = up.coeff(var).abs();
                // b*lo + a*up has coefficient a*b - a*b = 0 on var.
                let merged = &lo.scale(&b) + &up.scale(&a);
                debug_assert!(merged.coeff(var).is_zero());
                if merged.is_constant() {
                    if merged.constant_term().is_negative() {
                        return Polyhedron::bottom();
                    }
                } else {
                    combined.push(merged.normalize());
                }
                if combined.len() > MAX_CONSTRAINTS {
                    break;
                }
            }
        }
        combined.truncate(MAX_CONSTRAINTS);
        Polyhedron::from_constraints(combined)
    }

    /// Strongest post-condition of the simultaneous affine assignment
    /// `vars' = exprs(vars)`; non-affine or non-deterministic updates are passed as
    /// `None` and result in the variable being havocked.
    ///
    /// Variables not listed keep their value. The input need not be normalized: the
    /// result is bottom exactly when [`Polyhedron::normalize_emptiness`] collapses
    /// `self`.
    pub(crate) fn assign_simultaneous(
        &self,
        updates: &[(VarId, Option<LinExpr>)],
        fresh_base: u32,
        queries: &Queries,
    ) -> Polyhedron {
        // Bottom stays canonical by checking the input, not the image: the image of a
        // nonempty set is nonempty, and the Fourier–Motzkin cap only drops constraints.
        let mut extended = self.clone();
        extended.normalize_emptiness(queries);
        if extended.is_bottom() || updates.is_empty() {
            return extended;
        }
        // Primed variable ids live beyond every id used by the system.
        let primed: Vec<(VarId, VarId)> = updates
            .iter()
            .enumerate()
            .map(|(k, &(v, _))| (v, VarId(fresh_base + k as u32)))
            .collect();

        // Add x_primed = expr(x) for deterministic affine updates.
        for (&(_var, ref update), &(_, primed_var)) in updates.iter().zip(&primed) {
            if let Some(expr) = update {
                let defining = &LinExpr::var(primed_var) - expr;
                extended.add_constraint(defining.clone());
                extended.add_constraint(-defining);
            }
        }
        // Project out the *old* values of all updated variables.
        let mut projected = extended;
        for &(var, _) in updates {
            projected = projected.project_out(var);
        }
        // Rename primed variables back to the original names.
        let renamed: Vec<LinExpr> = match projected.constraints {
            None => return Polyhedron::bottom(),
            Some(cs) => cs
                .into_iter()
                .map(|c| {
                    let mut out = LinExpr::constant(c.constant_term().clone());
                    for (v, coeff) in c.iter() {
                        let target = primed
                            .iter()
                            .find(|&&(_, p)| p == *v)
                            .map(|&(o, _)| o)
                            .unwrap_or(*v);
                        let existing = out.coeff(target);
                        out.set_coeff(target, &existing + coeff);
                    }
                    out
                })
                .collect(),
        };
        // Havoc shows up as "no constraint", which the renaming already guarantees.
        Polyhedron::from_constraints(renamed)
    }

    /// Removes constraints that are entailed by the remaining ones (cheap cleanup pass).
    pub(crate) fn reduce(&self, queries: &Queries) -> Polyhedron {
        let Some(cs) = &self.constraints else {
            return Polyhedron::bottom();
        };
        let mut kept: Vec<LinExpr> = cs.clone();
        let mut index = 0;
        while index < kept.len() {
            let candidate = kept[index].clone();
            let mut rest: Vec<LinExpr> = kept.clone();
            rest.remove(index);
            let rest_poly = Polyhedron { constraints: Some(rest.clone()) };
            if rest_poly.entails_in(&candidate, queries) {
                kept = rest;
            } else {
                index += 1;
            }
        }
        Polyhedron { constraints: Some(kept) }
    }

    /// Renders the polyhedron with variable names from a pool.
    pub fn render(&self, pool: &dca_poly::VarPool) -> String {
        match &self.constraints {
            None => "false".to_string(),
            Some(cs) if cs.is_empty() => "true".to_string(),
            Some(cs) => cs
                .iter()
                .map(|c| format!("{} >= 0", c.to_string(pool)))
                .collect::<Vec<_>>()
                .join(" /\\ "),
        }
    }
}

impl Default for Polyhedron {
    fn default() -> Self {
        Polyhedron::top()
    }
}

/// Returns `true` if two affine expressions have identical coefficient vectors (and
/// therefore only differ in their constant term).
fn same_coefficients(a: &LinExpr, b: &LinExpr) -> bool {
    a.iter().eq(b.iter())
}

/// Convenience: the interval `lo ≤ v ≤ hi` as two `expr ≥ 0` constraints.
///
/// ```
/// use dca_invariants::{interval, Polyhedron};
/// use dca_poly::{LinExpr, VarId};
/// let p = Polyhedron::from_constraints(interval(VarId(0), 1, 100));
/// assert!(p.entails(&LinExpr::var(VarId(0))));
/// ```
pub fn interval(v: VarId, lo: i64, hi: i64) -> Vec<LinExpr> {
    vec![
        LinExpr::var(v) - LinExpr::from_int(lo),
        LinExpr::from_int(hi) - LinExpr::var(v),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_poly::VarPool;

    fn setup() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    #[test]
    fn entailment_basic() {
        let (_, x, _) = setup();
        // {1 <= x <= 10} entails x >= 0 and 20 - x >= 0, but not x - 5 >= 0.
        let p = Polyhedron::from_constraints(interval(x, 1, 10));
        assert!(p.entails(&LinExpr::var(x)));
        assert!(p.entails(&(LinExpr::from_int(20) - LinExpr::var(x))));
        assert!(!p.entails(&(LinExpr::var(x) - LinExpr::from_int(5))));
    }

    #[test]
    fn entailment_relational() {
        let (_, x, y) = setup();
        // {x >= y, y >= 3} entails x >= 3 and x >= 0.
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::var(y),
            LinExpr::var(y) - LinExpr::from_int(3),
        ]);
        assert!(p.entails(&(LinExpr::var(x) - LinExpr::from_int(3))));
        assert!(p.entails(&LinExpr::var(x)));
        assert!(!p.entails(&(LinExpr::var(y) - LinExpr::var(x))));
    }

    /// Counterexamples to a tolerance: `x = 0` (and `x = y = 0`) violates each
    /// query by less than `1e-6`, so a float minimum read with that slack would call
    /// them entailed.
    #[test]
    fn entailment_has_no_tolerance() {
        let (_, x, y) = setup();
        let tiny = |exponent: u32| dca_numeric::Rational::new(1, 10i64.pow(exponent));
        let p = Polyhedron::from_constraints([LinExpr::var(x)]);
        assert!(!p.entails(&(LinExpr::var(x) - LinExpr::constant(tiny(9)))));
        let p = Polyhedron::from_constraints([LinExpr::var(x), LinExpr::var(y)]);
        let query = LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(tiny(7));
        assert!(!p.entails(&query));
        // The exact minimum 0 is itself entailed.
        assert!(p.entails(&(LinExpr::var(x) + LinExpr::var(y))));
    }

    #[test]
    fn emptiness_is_exact_and_counts_only_when_normalizing() {
        let (_, x, _) = setup();
        // x ≥ 1/10⁹ ∧ x ≤ 0 is empty by a margin no float tolerance would see.
        let tiny = dca_numeric::Rational::new(1, 1_000_000_000);
        let mut p = Polyhedron::from_constraints([
            LinExpr::var(x) - LinExpr::constant(tiny),
            -LinExpr::var(x),
        ]);
        assert!(p.is_empty());
        assert!(!p.is_bottom());
        let queries = Queries::default();
        p.normalize_emptiness(&queries);
        assert!(p.is_bottom());
        assert_eq!(queries.lp_queries(), 1);
        assert!(!Polyhedron::top().is_empty());
        assert!(!Polyhedron::from_constraints([LinExpr::var(x)]).is_empty());
    }

    #[test]
    fn bottom_detection() {
        let (_, x, _) = setup();
        let mut p = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::from_int(5),
            LinExpr::from_int(3) - LinExpr::var(x),
        ]);
        assert!(!p.is_bottom());
        p.normalize_emptiness(&Queries::default());
        assert!(p.is_bottom());
        assert!(p.entails(&LinExpr::from_int(-1)));
        assert_eq!(p.constraints_or_false().len(), 1);
    }

    #[test]
    fn join_keeps_common_facts() {
        let (_, x, _) = setup();
        let a = Polyhedron::from_constraints(interval(x, 0, 5));
        let b = Polyhedron::from_constraints(interval(x, 3, 10));
        let j = a.join(&b, &Queries::default());
        // The join must contain both operands: x in [0, 10].
        assert!(j.entails(&LinExpr::var(x)));
        assert!(j.entails(&(LinExpr::from_int(10) - LinExpr::var(x))));
        // And must not claim anything stronger than the union allows.
        assert!(!j.entails(&(LinExpr::var(x) - LinExpr::from_int(3))));
        // Join with bottom is identity.
        assert_eq!(a.join(&Polyhedron::bottom(), &Queries::default()), a);
        assert_eq!(Polyhedron::bottom().join(&b, &Queries::default()), b);
    }

    #[test]
    fn widen_drops_unstable_bounds() {
        let (_, x, _) = setup();
        let a = Polyhedron::from_constraints(interval(x, 0, 5));
        let b = Polyhedron::from_constraints(interval(x, 0, 9));
        let w = a.widen(&b, &Queries::default());
        // The lower bound is stable, the upper bound is not.
        assert!(w.entails(&LinExpr::var(x)));
        assert!(!w.entails(&(LinExpr::from_int(1000) - LinExpr::var(x))));
    }

    #[test]
    fn projection_eliminates_variable() {
        let (_, x, y) = setup();
        // {x >= 0, y >= x, 10 >= y} |- project out y => x >= 0, 10 >= x
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x),
            LinExpr::var(y) - LinExpr::var(x),
            LinExpr::from_int(10) - LinExpr::var(y),
        ]);
        let q = p.project_out(y);
        assert!(q.entails(&LinExpr::var(x)));
        assert!(q.entails(&(LinExpr::from_int(10) - LinExpr::var(x))));
        // No constraint on y must remain.
        for c in q.constraints().unwrap() {
            assert!(c.coeff(y).is_zero());
        }
    }

    #[test]
    fn assignment_increments_variable() {
        let (_, x, _) = setup();
        // {0 <= x <= 5} after x := x + 1 gives {1 <= x <= 6}.
        let p = Polyhedron::from_constraints(interval(x, 0, 5));
        let q = p.assign_simultaneous(
            &[(x, Some(LinExpr::var(x) + LinExpr::from_int(1)))],
            100,
            &Queries::default(),
        );
        assert!(q.entails(&(LinExpr::var(x) - LinExpr::from_int(1))));
        assert!(q.entails(&(LinExpr::from_int(6) - LinExpr::var(x))));
        assert!(!q.entails(&(LinExpr::from_int(5) - LinExpr::var(x))));
    }

    #[test]
    fn assignment_swap_is_precise() {
        let (_, x, y) = setup();
        // {x = 1, y = 2} after (x, y) := (y, x) gives {x = 2, y = 1}.
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::from_int(1),
            LinExpr::from_int(1) - LinExpr::var(x),
            LinExpr::var(y) - LinExpr::from_int(2),
            LinExpr::from_int(2) - LinExpr::var(y),
        ]);
        let q = p.assign_simultaneous(
            &[(x, Some(LinExpr::var(y))), (y, Some(LinExpr::var(x)))],
            100,
            &Queries::default(),
        );
        assert!(q.entails(&(LinExpr::var(x) - LinExpr::from_int(2))));
        assert!(q.entails(&(LinExpr::from_int(2) - LinExpr::var(x))));
        assert!(q.entails(&(LinExpr::var(y) - LinExpr::from_int(1))));
        assert!(q.entails(&(LinExpr::from_int(1) - LinExpr::var(y))));
    }

    #[test]
    fn havoc_forgets_variable() {
        let (_, x, _) = setup();
        let p = Polyhedron::from_constraints(interval(x, 0, 5));
        let q = p.assign_simultaneous(&[(x, None)], 100, &Queries::default());
        assert!(!q.entails(&LinExpr::var(x)));
        assert!(!q.entails(&(LinExpr::from_int(5) - LinExpr::var(x))));
    }

    #[test]
    fn reduce_removes_redundant() {
        let (_, x, _) = setup();
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x),
            LinExpr::var(x) + LinExpr::from_int(5), // implied by x >= 0
            LinExpr::from_int(10) - LinExpr::var(x),
        ]);
        let r = p.reduce(&Queries::default());
        assert_eq!(r.constraints().unwrap().len(), 2);
        assert!(r.entails(&(LinExpr::var(x) + LinExpr::from_int(5))));
    }

    /// `{x − y ≥ 0, 10 − x ≥ 0}`, the operand of the structural-entailment tests.
    fn ordered_pair(x: VarId, y: VarId) -> Polyhedron {
        Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::var(y),
            LinExpr::from_int(10) - LinExpr::var(x),
        ])
    }

    #[test]
    fn conjunct_plus_nonnegative_constant_is_entailed_without_an_lp() {
        let (_, x, y) = setup();
        let queries = Queries::default();
        let query = LinExpr::var(x) - LinExpr::var(y) + LinExpr::from_int(3);
        assert!(ordered_pair(x, y).entails_in(&query, &queries));
        assert_eq!(queries.lp_queries(), 0);
    }

    #[test]
    fn conjunct_minus_a_constant_goes_to_the_lp_and_is_refused() {
        let (_, x, y) = setup();
        let queries = Queries::default();
        let query = LinExpr::var(x) - LinExpr::var(y) - LinExpr::from_int(1);
        assert!(!ordered_pair(x, y).entails_in(&query, &queries));
        assert_eq!(queries.lp_queries(), 1);
    }

    #[test]
    fn scaled_conjunct_goes_to_the_lp_and_is_entailed() {
        let (_, x, y) = setup();
        let queries = Queries::default();
        let two = dca_numeric::Rational::from_int(2);
        let query = (LinExpr::var(x) - LinExpr::var(y)).scale(&two);
        assert!(ordered_pair(x, y).entails_in(&query, &queries));
        assert_eq!(queries.lp_queries(), 1);
    }

    #[test]
    fn reduce_drops_an_exact_duplicate_without_an_lp() {
        let (_, x, y) = setup();
        let c = LinExpr::var(x) - LinExpr::var(y);
        let d = LinExpr::from_int(10) - LinExpr::var(x);
        // `from_constraints` already merges duplicates, so build the list directly.
        let p = Polyhedron { constraints: Some(vec![c.clone(), c.clone(), d.clone()]) };
        let queries = Queries::default();
        let r = p.reduce(&queries);
        assert_eq!(r.constraints().unwrap(), &[c, d]);
        // The duplicate is dropped structurally; only the two survivors' checks solve.
        assert_eq!(queries.lp_queries(), 2);
    }

    #[test]
    fn join_widen_and_image_of_nonempty_operands_stay_nonempty() {
        let (_, x, y) = setup();
        let queries = Queries::default();
        let a = Polyhedron::from_constraints(interval(x, 0, 5));
        let b = Polyhedron::from_constraints(interval(x, 3, 10));
        let joined = a.join(&b, &queries);
        assert!(!joined.is_bottom());
        assert!(!a.widen(&joined, &queries).is_bottom());
        // The affine image checks its input once and never its output (in a fresh
        // cache, so no earlier vertex can prove the input nonempty).
        let queries = Queries::default();
        let image = ordered_pair(x, y).assign_simultaneous(
            &[(x, Some(LinExpr::var(y))), (y, None)],
            100,
            &queries,
        );
        assert!(!image.is_bottom());
        assert_eq!(queries.lp_queries(), 1);
    }

    #[test]
    fn image_of_an_unchecked_empty_input_is_bottom() {
        let (_, x, _) = setup();
        // 5 ≤ x ≤ 3: empty, but not yet normalized to bottom.
        let empty = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::from_int(5),
            LinExpr::from_int(3) - LinExpr::var(x),
        ]);
        assert!(!empty.is_bottom());
        let queries = Queries::default();
        let increment = [(x, Some(LinExpr::var(x) + LinExpr::from_int(1)))];
        assert!(empty.assign_simultaneous(&increment, 100, &queries).is_bottom());
        assert!(empty.assign_simultaneous(&[], 100, &queries).is_bottom());
    }

    #[test]
    fn render_readable() {
        let (pool, x, _) = setup();
        let p = Polyhedron::from_constraints(vec![LinExpr::var(x)]);
        assert_eq!(p.render(&pool), "x >= 0");
        assert_eq!(Polyhedron::top().render(&pool), "true");
        assert_eq!(Polyhedron::bottom().render(&pool), "false");
    }
}
