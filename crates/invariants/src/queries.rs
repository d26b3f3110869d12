//! The exact LP sessions behind every emptiness and entailment query.
//!
//! One analysis asks many questions of the same few polyhedra: the fixpoint asks
//! `post ⊨ c` for each conjunct `c` of a location's invariant and the join then asks
//! it again, and every abstract post-condition checks its input for emptiness. So
//! [`Queries`] keeps one [`Session`] per constraint list, and a session decides a
//! query it is handed (the structural checks of [`Polyhedron`](crate::Polyhedron)
//! come first) in this order:
//!
//! 1. a cached answer: the emptiness verdict, or the exact minimum of the query's
//!    linear part, which decides `expr ≥ 0` for every constant term;
//! 2. a known exact point of the polyhedron: `expr(point) < 0` refutes `expr ≥ 0`,
//!    and any point proves non-emptiness. The points are the session's own
//!    optimal vertices, then the latest few vertices of any session, each
//!    adopted only once it satisfies every constraint, exactly;
//! 3. one exact LP: a [`dca_lp::ExactMinimizer::minimize`] over the session's
//!    constraints, warm-started from the basis of its previous solve (only the
//!    first solve of a session runs phase 1). Its optimal vertex joins the known
//!    points.
//!
//! Only step 3 is an LP query. Every verdict is still exact and the same function of
//! (constraints, query) as a fresh solve would give, so the cache changes how fast
//! an invariant map is computed, never the map.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use dca_lp::{ConstraintOp, ExactMinimizer, LpProblem, LpStatus, LpVar, MinimizerState, VarKind};
use dca_numeric::Rational;
use dca_poly::{LinExpr, VarId};

/// The query sessions of one invariant analysis, keyed by the exact constraint
/// list, and what they share. Dropped with the analysis; a public one-off query
/// uses a throwaway one.
#[derive(Debug, Default)]
pub(crate) struct Queries {
    sessions: RefCell<WordMap<ListKey, Session>>,
    shared: Shared,
}

/// What every session of one analysis sees.
#[derive(Debug, Default)]
struct Shared {
    /// LPs solved so far (reported by
    /// [`InvariantMap::lp_queries`](crate::InvariantMap::lp_queries)).
    lp_queries: Cell<usize>,
    /// The latest distinct optimal vertices of any session, newest last, as
    /// valuations sorted by variable (an absent variable reads as 0). A point of
    /// one polyhedron is often a point of the next one asked about — the image of
    /// a transition, the same invariant under one more guard — and a session adopts
    /// it once it checks it against its own constraints.
    recent: RefCell<VecDeque<Vec<(VarId, Rational)>>>,
}

/// How many recent vertices [`Shared::recent`] keeps.
const RECENT_POINTS: usize = 8;

impl Queries {
    /// The number of LPs solved so far.
    pub(crate) fn lp_queries(&self) -> usize {
        self.shared.lp_queries.get()
    }

    /// Whether the conjunction of `constraints` (each `expr ≥ 0`) is proven empty:
    /// only an exact `Infeasible` verdict says so.
    pub(crate) fn is_empty(&self, constraints: &[LinExpr]) -> bool {
        self.with_session(constraints, |session| session.is_empty(constraints, &self.shared))
    }

    /// Whether every point of the conjunction of `constraints` satisfies `expr ≥ 0`.
    pub(crate) fn entails(&self, constraints: &[LinExpr], expr: &LinExpr) -> bool {
        self.with_session(constraints, |session| session.entails(constraints, expr, &self.shared))
    }

    /// The exact minimum of `expr` over the conjunction of `constraints`; `None`
    /// when it is empty or unbounded below, or no solve decided it.
    pub(crate) fn minimum(&self, constraints: &[LinExpr], expr: &LinExpr) -> Option<Rational> {
        self.with_session(constraints, |session| {
            match session.bound(constraints, expr, &self.shared) {
                Bound::Min(min) => Some(&min + expr.constant_term()),
                Bound::Empty | Bound::Unbounded | Bound::Undecided => None,
            }
        })
    }

    /// Runs `query` on the session of `constraints`, opening it on first use.
    fn with_session<R>(&self, constraints: &[LinExpr], query: impl FnOnce(&mut Session) -> R) -> R {
        let mut sessions = self.sessions.borrow_mut();
        let session =
            sessions.entry(ListKey::of(constraints)).or_insert_with(|| Session::open(constraints));
        query(session)
    }
}

/// A constraint list in flat form, the key of its session: each constraint is its
/// constant, marked `None`, then its terms. It holds exactly what the list does in
/// one allocation, where a cloned `Vec<LinExpr>` kept a B-tree node per constraint
/// alive for the whole analysis.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ListKey(Box<[(Option<VarId>, Rational)]>);

impl ListKey {
    fn of(constraints: &[LinExpr]) -> ListKey {
        let mut flat = Vec::with_capacity(constraints.iter().map(|c| 1 + c.iter().count()).sum());
        for c in constraints {
            flat.push((None, c.constant_term().clone()));
            flat.extend(c.iter().map(|(v, coef)| (Some(*v), coef.clone())));
        }
        ListKey(flat.into_boxed_slice())
    }
}

/// A hash map under [`WordHasher`].
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A multiplicative hash over machine words (the rustc "Fx" hash). The keys here
/// are lists of exact rationals hashed on every query; under the default SipHash,
/// hashing them cost as much as a tenth of the analysis. The keys come from the
/// analysis itself, so there is no adversary to resist.
#[derive(Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn write_i128(&mut self, n: i128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What the minimum of a linear form over a session's polyhedron is.
#[derive(Debug, Clone)]
enum Bound {
    /// The polyhedron is empty: every query is entailed.
    Empty,
    /// The exact minimum.
    Min(Rational),
    /// Unbounded below: no query over this form is entailed.
    Unbounded,
    /// No solve decided it (a non-converged LP): conservatively not entailed.
    Undecided,
}

impl Bound {
    /// Whether `form + constant ≥ 0` holds on the whole polyhedron.
    fn admits(&self, constant: &Rational) -> bool {
        match self {
            Bound::Empty => true,
            Bound::Min(min) => !(min + constant).is_negative(),
            Bound::Unbounded | Bound::Undecided => false,
        }
    }
}

/// Everything one analysis has learned about one constraint list.
#[derive(Debug)]
struct Session {
    /// The variables the constraints mention, ascending: LP variable `k` is `vars[k]`.
    vars: Vec<VarId>,
    /// Where the session's exact LP stands: a feasible basis to start phase 2
    /// from, or an infeasible verdict. The LP itself is written again for each
    /// solve, so an analysis's many sessions hold no standard form between solves.
    lp_state: MinimizerState,
    /// The emptiness verdict, once a solve or a known point proved one.
    empty: Option<bool>,
    /// The bound of each linear form solved for, keyed by its terms.
    bounds: WordMap<Box<[(VarId, Rational)]>, Bound>,
    /// Exact points of the polyhedron, as valuations sorted by variable (an
    /// absent variable reads as 0).
    points: Vec<Vec<(VarId, Rational)>>,
}

impl Session {
    fn open(constraints: &[LinExpr]) -> Session {
        let mut vars: Vec<VarId> = constraints.iter().flat_map(LinExpr::vars).collect();
        vars.sort();
        vars.dedup();
        Session {
            vars,
            lp_state: MinimizerState::default(),
            empty: None,
            bounds: WordMap::default(),
            points: Vec::new(),
        }
    }

    fn is_empty(&mut self, constraints: &[LinExpr], shared: &Shared) -> bool {
        if self.empty.is_none() && !self.adopt(constraints, None, shared) {
            self.solve(constraints, Box::default(), shared);
        }
        self.empty == Some(true)
    }

    fn entails(&mut self, constraints: &[LinExpr], expr: &LinExpr, shared: &Shared) -> bool {
        if self.empty == Some(true) {
            return true;
        }
        // A variable no constraint mentions is free: `expr` is unbounded below
        // unless there is no point at all.
        if !self.mentions_all(expr) {
            return self.is_empty(constraints, shared);
        }
        let form = terms(expr);
        if let Some(bound) = self.bounds.get(&form) {
            return bound.admits(expr.constant_term());
        }
        if self.points.iter().any(|point| evaluate(expr, point).is_negative())
            || self.adopt(constraints, Some(expr), shared)
        {
            return false;
        }
        self.solve(constraints, form, shared).admits(expr.constant_term())
    }

    /// The bound of `expr`'s linear part: cached, or solved for.
    fn bound(&mut self, constraints: &[LinExpr], expr: &LinExpr, shared: &Shared) -> Bound {
        if !self.mentions_all(expr) {
            let empty = self.is_empty(constraints, shared);
            return if empty { Bound::Empty } else { Bound::Unbounded };
        }
        let form = terms(expr);
        match self.bounds.get(&form) {
            Some(bound) => bound.clone(),
            None => self.solve(constraints, form, shared),
        }
    }

    /// Adopts the newest recent vertex of any session that satisfies every
    /// constraint (and, given `refuting`, violates `refuting ≥ 0`): exactly checked,
    /// it is a point of this polyhedron. Returns whether one was found.
    fn adopt(
        &mut self,
        constraints: &[LinExpr],
        refuting: Option<&LinExpr>,
        shared: &Shared,
    ) -> bool {
        let recent = shared.recent.borrow();
        let Some(valuation) = recent.iter().rev().find(|valuation| {
            refuting.is_none_or(|expr| evaluate(expr, valuation).is_negative())
                && constraints.iter().all(|c| !evaluate(c, valuation).is_negative())
        }) else {
            return false;
        };
        self.points.push(valuation.clone());
        self.empty = Some(false);
        true
    }

    /// One exact LP: minimizes the linear form `form` (terms over session
    /// variables only), records what the answer proves, and returns its bound.
    fn solve(
        &mut self,
        constraints: &[LinExpr],
        form: Box<[(VarId, Rational)]>,
        shared: &Shared,
    ) -> Bound {
        shared.lp_queries.set(shared.lp_queries.get() + 1);
        let vars = &self.vars;
        let objective: Vec<(LpVar, Rational)> =
            form.iter().map(|(v, c)| (lp_var(vars, *v), c.clone())).collect();
        let mut minimizer = open_lp(constraints, vars, std::mem::take(&mut self.lp_state));
        let minimum = minimizer.minimize(&objective);
        self.lp_state = minimizer.into_state();
        let bound = match (minimum.status, minimum.objective) {
            (LpStatus::Optimal, Some(min)) => {
                let point: Vec<(VarId, Rational)> =
                    vars.iter().copied().zip(minimum.point).collect();
                if !self.points.contains(&point) {
                    let mut recent = shared.recent.borrow_mut();
                    if !recent.contains(&point) {
                        if recent.len() == RECENT_POINTS {
                            recent.pop_front();
                        }
                        recent.push_back(point.clone());
                    }
                    self.points.push(point);
                }
                Bound::Min(min)
            }
            (LpStatus::Infeasible, _) => Bound::Empty,
            (LpStatus::Unbounded, _) => Bound::Unbounded,
            _ => Bound::Undecided,
        };
        match bound {
            Bound::Empty => self.empty = Some(true),
            Bound::Min(_) | Bound::Unbounded => self.empty = Some(false),
            Bound::Undecided => {}
        }
        self.bounds.insert(form, bound.clone());
        bound
    }

    /// Whether every variable of `expr` is one the constraints mention.
    fn mentions_all(&self, expr: &LinExpr) -> bool {
        expr.iter().all(|(v, _)| self.vars.binary_search(v).is_ok())
    }
}

/// The constraints `expr ≥ 0` as an exact LP session over one free variable per
/// entry of `vars` (ascending, every variable the constraints mention), resumed
/// from `state`.
fn open_lp(constraints: &[LinExpr], vars: &[VarId], state: MinimizerState) -> ExactMinimizer {
    let mut lp = LpProblem::new();
    for _ in vars {
        lp.add_var("", VarKind::Free);
    }
    for c in constraints {
        let terms = c.iter().map(|(v, coef)| (lp_var(vars, *v), coef.clone())).collect();
        lp.add_constraint(terms, ConstraintOp::Ge, -c.constant_term().clone());
    }
    lp.exact_minimizer_from(state)
}

/// `expr` under a sorted valuation (absent variables read as 0).
fn evaluate(expr: &LinExpr, valuation: &[(VarId, Rational)]) -> Rational {
    expr.iter().fold(expr.constant_term().clone(), |acc, (v, c)| {
        match valuation.binary_search_by_key(v, |(w, _)| *w) {
            Ok(k) => &acc + &(c * &valuation[k].1),
            Err(_) => acc,
        }
    })
}

/// The LP variable of a session variable.
fn lp_var(vars: &[VarId], var: VarId) -> LpVar {
    LpVar(vars.binary_search(&var).unwrap_or_else(|_| unreachable!("a session variable")))
}

/// The terms of `expr`, without its constant.
fn terms(expr: &LinExpr) -> Box<[(VarId, Rational)]> {
    expr.iter().map(|(v, c)| (*v, c.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Polyhedron;

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    /// A variable no constraint of the grid mentions.
    const Z: VarId = VarId(2);

    fn form(constant: i64, terms: &[(VarId, i64)]) -> LinExpr {
        LinExpr::from_parts(
            Rational::from_int(constant),
            terms.iter().map(|&(v, c)| (v, Rational::from_int(c))),
        )
    }

    /// Every polyhedron of one to three of these atoms: bounded, unbounded, empty
    /// (`x ≥ 5` against `x ≤ 3`, `y ≤ x − 1` against `y ≥ x`) and flat ones.
    fn grid() -> Vec<Polyhedron> {
        let atoms = [
            form(0, &[(X, 1)]),
            form(0, &[(Y, 1)]),
            form(3, &[(X, -1)]),
            form(0, &[(X, 1), (Y, -1)]),
            form(4, &[(X, -1), (Y, -1)]),
            form(-5, &[(X, 1)]),
            form(-1, &[(X, 1), (Y, -1)]),
            form(0, &[(X, -1), (Y, 1)]),
        ];
        let mut grid = Vec::new();
        for a in 0..atoms.len() {
            grid.push(Polyhedron::from_constraints([atoms[a].clone()]));
            for b in a + 1..atoms.len() {
                grid.push(Polyhedron::from_constraints([atoms[a].clone(), atoms[b].clone()]));
                for c in b + 1..atoms.len() {
                    grid.push(Polyhedron::from_constraints(
                        [a, b, c].map(|k| atoms[k].clone()),
                    ));
                }
            }
        }
        grid
    }

    /// Queries over `x` and `y` with small coefficients and constants, each linear
    /// part under several constants, plus queries on the unmentioned `z`.
    fn queries() -> Vec<LinExpr> {
        let mut queries = Vec::new();
        for a in -1..=2 {
            for b in -1..=1 {
                for constant in [-2, 0, 3] {
                    queries.push(form(constant, &[(X, a), (Y, b)]));
                }
            }
        }
        queries.push(form(0, &[(Z, 1)]));
        queries.push(form(7, &[(X, 1), (Z, -1)]));
        queries
    }

    /// One answer per query: `Some(entailed)`, or `None` for the emptiness check.
    fn ask(
        polyhedron: &Polyhedron,
        cache: &Queries,
        order: &[Option<&LinExpr>],
    ) -> Vec<(bool, usize)> {
        order
            .iter()
            .map(|query| {
                let before = cache.lp_queries();
                let answer = match query {
                    Some(expr) => polyhedron.entails_in(expr, cache),
                    None => polyhedron.is_empty_in(cache),
                };
                (answer, cache.lp_queries() - before)
            })
            .collect()
    }

    /// Every grid polyhedron asked every query twice through one cache shared by
    /// the whole grid, as an analysis shares it, so that recent vertices of one
    /// polyhedron are offered to the next: once in grid order, and once with the
    /// grid and each polyhedron's queries reversed.
    #[test]
    fn cached_answers_in_two_orders_equal_fresh_ones() {
        let queries = queries();
        let mut forward: Vec<Option<&LinExpr>> = vec![None];
        forward.extend(queries.iter().map(Some));
        forward.extend(queries.iter().map(Some));
        let backward: Vec<Option<&LinExpr>> = forward.iter().rev().copied().collect();
        let grid = grid();
        let fresh: Vec<Vec<bool>> = grid
            .iter()
            .map(|polyhedron| {
                forward
                    .iter()
                    .map(|query| match query {
                        Some(expr) => polyhedron.entails(expr),
                        None => polyhedron.is_empty(),
                    })
                    .collect()
            })
            .collect();
        assert!(fresh.iter().any(|answers| answers[0]), "no empty polyhedron in the grid");
        let (mut refuted, mut solved) = (0, 0);
        for reversed in [false, true] {
            let cache = Queries::default();
            let mut indices: Vec<usize> = (0..grid.len()).collect();
            if reversed {
                indices.reverse();
            }
            for index in indices {
                let polyhedron = &grid[index];
                let order = if reversed { &backward } else { &forward };
                let answers = ask(polyhedron, &cache, order);
                let mut expected = fresh[index].clone();
                if reversed {
                    expected.reverse();
                }
                let got: Vec<bool> = answers.iter().map(|&(answer, _)| answer).collect();
                assert_eq!(got, expected, "{polyhedron:?}");
                for (k, &(answer, lps)) in answers.iter().enumerate() {
                    assert!(lps <= 1, "one query, {lps} LPs");
                    if order[..k].contains(&order[k]) {
                        assert_eq!(lps, 0, "a repeated query solved again: {:?}", order[k]);
                    } else if order[k].is_some() && !answer {
                        if lps == 0 {
                            refuted += 1;
                        } else {
                            solved += 1;
                        }
                    }
                }
            }
        }
        // Both kinds of refusal occur: by a known point and by a solve.
        assert!(refuted > 0 && solved > 0, "refuted {refuted}, solved {solved}");
    }

    #[test]
    fn a_known_point_refutes_without_an_lp() {
        // 0 ≤ x ≤ 3: minimizing x reaches the vertex x = 0.
        let polyhedron = Polyhedron::from_constraints([form(0, &[(X, 1)]), form(3, &[(X, -1)])]);
        let cache = Queries::default();
        assert!(!polyhedron.entails_in(&form(-1, &[(X, 1)]), &cache));
        assert_eq!(cache.lp_queries(), 1);
        // 2x − 1 is a new linear form, negative at x = 0.
        assert!(!polyhedron.entails_in(&form(-1, &[(X, 2)]), &cache));
        assert_eq!(cache.lp_queries(), 1);
        // The cached minimum 0 of x decides x + 1 ≥ 0 for any constant.
        assert!(polyhedron.entails_in(&form(1, &[(X, 1)]), &cache));
        // Non-emptiness follows from the known point.
        assert!(!polyhedron.is_empty_in(&cache));
        assert_eq!(cache.lp_queries(), 1);
        // 3 − x ≥ 0 is a conjunct (structural); 4 − 2x ≥ 0 needs the LP: its minimum
        // −2 is at x = 3, a point no query has visited.
        assert!(!polyhedron.entails_in(&form(4, &[(X, -2)]), &cache));
        assert_eq!(cache.lp_queries(), 2);
    }
}
