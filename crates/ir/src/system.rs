//! Transition systems: locations, transitions, guards, updates, builder and validation.

use std::collections::BTreeMap;
use std::fmt;

use dca_numeric::Rational;
use dca_poly::{LinExpr, Polynomial, VarId, VarPool};

use crate::state::{eval_polynomial_int, IntValuation};

/// Identifier of a program location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub u32);

impl LocId {
    /// Index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// The effect of a transition on one variable.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Deterministic update: the new value is a polynomial over the *current* variable
    /// values.
    Assign(Polynomial),
    /// Non-deterministic update: the new value is an arbitrary integer.
    Nondet,
}

impl Update {
    /// Convenience constructor for a deterministic assignment.
    pub fn assign(p: Polynomial) -> Update {
        Update::Assign(p)
    }

    /// Returns `true` for a non-deterministic update.
    pub fn is_nondet(&self) -> bool {
        matches!(self, Update::Nondet)
    }
}

/// A guarded transition `(ℓ, ℓ', G, Up)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source location.
    pub source: LocId,
    /// Target location.
    pub target: LocId,
    /// Guard: conjunction of affine inequalities, each interpreted as `expr ≥ 0`.
    pub guard: Vec<LinExpr>,
    /// Per-variable updates; variables not listed keep their value.
    pub updates: BTreeMap<VarId, Update>,
}

impl Transition {
    /// The update applied to `v` (identity if the transition does not mention `v`).
    pub fn update_of(&self, v: VarId) -> Update {
        self.updates
            .get(&v)
            .cloned()
            .unwrap_or_else(|| Update::Assign(Polynomial::var(v)))
    }

    /// Returns `true` if the transition has a non-deterministic update for some variable.
    pub fn has_nondet(&self) -> bool {
        self.updates.values().any(Update::is_nondet)
    }

    /// The valuation after taking the transition from `vals`: every assignment is
    /// evaluated on the pre-state, and every havoc takes `havoc(var)`, called in
    /// `updates` order (the order a seeded sampler draws in).
    pub fn step(&self, vals: &IntValuation, mut havoc: impl FnMut(VarId) -> i64) -> IntValuation {
        let mut next = vals.clone();
        for (&var, update) in &self.updates {
            let value = match update {
                Update::Assign(p) => eval_polynomial_int(p, vals),
                Update::Nondet => havoc(var),
            };
            next.insert(var, value);
        }
        next
    }

    /// Every successor valuation of `vals`, one per combination of havoc values from
    /// `candidates`; the first havoc in `updates` order varies fastest. With no
    /// candidates every havoc reads 0, as in the random-walk sampler.
    pub fn successors<'a>(
        &'a self,
        vals: &'a IntValuation,
        candidates: &'a [i64],
    ) -> impl Iterator<Item = IntValuation> + 'a {
        let choices = candidates.len().max(1);
        let havocs = self.updates.values().filter(|u| u.is_nondet()).count() as u32;
        (0..choices.pow(havocs)).map(move |combo| {
            let mut rest = combo;
            self.step(vals, |_| {
                let value = candidates.get(rest % choices).copied().unwrap_or(0);
                rest /= choices;
                value
            })
        })
    }
}

/// Errors produced when assembling or validating a [`TransitionSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsError {
    /// The system has no initial location set.
    MissingInitial,
    /// A transition references a location that does not exist.
    UnknownLocation(String),
    /// A non-terminal location has no outgoing transition.
    DeadEndLocation(String),
    /// The initial-state constraint does not force `cost = 0`.
    CostNotZeroInitially,
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::MissingInitial => write!(f, "no initial location was set"),
            TsError::UnknownLocation(name) => write!(f, "unknown location `{name}`"),
            TsError::DeadEndLocation(name) => {
                write!(f, "location `{name}` has no outgoing transition")
            }
            TsError::CostNotZeroInitially => {
                write!(f, "initial condition must force cost = 0")
            }
        }
    }
}

impl std::error::Error for TsError {}

/// A complete transition system modelling one program.
///
/// Construct instances through [`TsBuilder`].
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    pool: VarPool,
    cost_var: VarId,
    location_names: Vec<String>,
    transitions: Vec<Transition>,
    initial: LocId,
    terminal: LocId,
    /// Θ0: conjunction of affine inequalities (each `expr ≥ 0`) over initial valuations.
    theta0: Vec<LinExpr>,
    /// Human-readable name for reporting.
    name: String,
}

impl TransitionSystem {
    /// The variable pool (shared naming of program variables).
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// The distinguished `cost` variable.
    pub fn cost_var(&self) -> VarId {
        self.cost_var
    }

    /// All program variables (including `cost`).
    pub fn vars(&self) -> Vec<VarId> {
        self.pool.ids()
    }

    /// Program variables excluding `cost`.
    pub fn data_vars(&self) -> Vec<VarId> {
        self.pool.ids().into_iter().filter(|&v| v != self.cost_var).collect()
    }

    /// All location ids.
    pub fn locations(&self) -> Vec<LocId> {
        (0..self.location_names.len() as u32).map(LocId).collect()
    }

    /// The name of a location.
    pub fn location_name(&self, loc: LocId) -> &str {
        &self.location_names[loc.index()]
    }

    /// The initial location `ℓ0`.
    pub fn initial(&self) -> LocId {
        self.initial
    }

    /// The terminal location `ℓ_out`.
    pub fn terminal(&self) -> LocId {
        self.terminal
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Transitions leaving `loc`.
    pub fn outgoing(&self, loc: LocId) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(move |t| t.source == loc)
    }

    /// The initial condition Θ0 as a conjunction of `expr ≥ 0` inequalities.
    pub fn theta0(&self) -> &[LinExpr] {
        &self.theta0
    }

    /// Human-readable name of the modelled program.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of locations.
    pub fn num_locations(&self) -> usize {
        self.location_names.len()
    }

    /// Renders the transition system in a compact textual form (one line per transition).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "transition system `{}`: {} locations, {} transitions, initial {}, terminal {}",
            self.name,
            self.num_locations(),
            self.transitions.len(),
            self.location_name(self.initial),
            self.location_name(self.terminal)
        );
        let _ = writeln!(
            out,
            "  theta0: {}",
            self.theta0
                .iter()
                .map(|e| format!("{} >= 0", e.to_string(&self.pool)))
                .collect::<Vec<_>>()
                .join(" /\\ ")
        );
        for t in &self.transitions {
            let guard = if t.guard.is_empty() {
                "true".to_string()
            } else {
                t.guard
                    .iter()
                    .map(|e| format!("{} >= 0", e.to_string(&self.pool)))
                    .collect::<Vec<_>>()
                    .join(" /\\ ")
            };
            let updates = if t.updates.is_empty() {
                "id".to_string()
            } else {
                t.updates
                    .iter()
                    .map(|(v, u)| match u {
                        Update::Assign(p) => {
                            format!("{}' = {}", self.pool.name(*v), p.to_string(&self.pool))
                        }
                        Update::Nondet => format!("{}' = *", self.pool.name(*v)),
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "  {} -> {} [{}] {{{}}}",
                self.location_name(t.source),
                self.location_name(t.target),
                guard,
                updates
            );
        }
        out
    }
}

/// Builder for [`TransitionSystem`]s.
#[derive(Debug, Clone)]
pub struct TsBuilder {
    pool: VarPool,
    cost_var: VarId,
    location_names: Vec<String>,
    transitions: Vec<Transition>,
    initial: Option<LocId>,
    terminal: Option<LocId>,
    theta0: Vec<LinExpr>,
    name: String,
}

impl Default for TsBuilder {
    fn default() -> Self {
        TsBuilder::new()
    }
}

impl TsBuilder {
    /// Creates an empty builder. The `cost` variable is interned immediately.
    pub fn new() -> TsBuilder {
        let mut pool = VarPool::new();
        let cost_var = pool.intern("cost");
        TsBuilder {
            pool,
            cost_var,
            location_names: Vec::new(),
            transitions: Vec::new(),
            initial: None,
            terminal: None,
            theta0: Vec::new(),
            name: "anonymous".to_string(),
        }
    }

    /// Sets the human-readable name of the program.
    pub fn name(&mut self, name: &str) -> &mut Self {
        self.name = name.to_string();
        self
    }

    /// Interns (or retrieves) a program variable.
    pub fn var(&mut self, name: &str) -> VarId {
        self.pool.intern(name)
    }

    /// The distinguished `cost` variable.
    pub fn cost_var(&self) -> VarId {
        self.cost_var
    }

    /// Access to the variable pool being built.
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Creates a fresh location with the given name.
    pub fn location(&mut self, name: &str) -> LocId {
        let id = LocId(self.location_names.len() as u32);
        self.location_names.push(name.to_string());
        id
    }

    /// Returns the terminal location, creating it on first use.
    pub fn terminal(&mut self) -> LocId {
        if let Some(t) = self.terminal {
            return t;
        }
        let t = self.location("l_out");
        self.terminal = Some(t);
        t
    }

    /// Sets the initial location.
    pub fn set_initial(&mut self, loc: LocId) -> &mut Self {
        self.initial = Some(loc);
        self
    }

    /// Adds an inequality `expr ≥ 0` to Θ0.
    pub fn add_theta0(&mut self, expr: LinExpr) -> &mut Self {
        self.theta0.push(expr);
        self
    }

    /// Adds an equality `expr = 0` to Θ0 (encoded as two inequalities).
    pub fn add_theta0_eq(&mut self, expr: LinExpr) -> &mut Self {
        self.theta0.push(expr.clone());
        self.theta0.push(-expr);
        self
    }

    /// Starts building a transition from `source` to `target`.
    pub fn transition(&mut self, source: LocId, target: LocId) -> TransitionBuilder<'_> {
        TransitionBuilder {
            builder: self,
            transition: Transition {
                source,
                target,
                guard: Vec::new(),
                updates: BTreeMap::new(),
            },
        }
    }

    /// Adds an already-assembled transition.
    pub fn add_transition(&mut self, t: Transition) -> &mut Self {
        self.transitions.push(t);
        self
    }

    /// Finalizes the builder into a validated [`TransitionSystem`].
    ///
    /// The terminal location (created on demand) receives the self-loop required by the
    /// paper's model, and every location is checked to have at least one outgoing
    /// transition. The initial condition is extended with `cost = 0` if the builder did
    /// not constrain `cost` explicitly.
    ///
    /// # Errors
    ///
    /// Returns a [`TsError`] if no initial location was set, if a transition references a
    /// location outside the system, or if a non-terminal location is a dead end.
    pub fn build(mut self) -> Result<TransitionSystem, TsError> {
        let initial = self.initial.ok_or(TsError::MissingInitial)?;
        let terminal = self.terminal();
        // Terminal self-loop with identity update (paper Section 3).
        let has_terminal_loop = self
            .transitions
            .iter()
            .any(|t| t.source == terminal && t.target == terminal && t.guard.is_empty());
        if !has_terminal_loop {
            self.transitions.push(Transition {
                source: terminal,
                target: terminal,
                guard: Vec::new(),
                updates: BTreeMap::new(),
            });
        }
        let num_locs = self.location_names.len() as u32;
        for t in &self.transitions {
            if t.source.0 >= num_locs {
                return Err(TsError::UnknownLocation(format!("{}", t.source)));
            }
            if t.target.0 >= num_locs {
                return Err(TsError::UnknownLocation(format!("{}", t.target)));
            }
        }
        for loc in 0..num_locs {
            let loc = LocId(loc);
            if loc != terminal && !self.transitions.iter().any(|t| t.source == loc) {
                return Err(TsError::DeadEndLocation(
                    self.location_names[loc.index()].clone(),
                ));
            }
        }
        // Ensure Θ0 forces cost = 0 (add the equality if cost is not mentioned at all).
        let cost = self.cost_var;
        let mentions_cost = self.theta0.iter().any(|e| !e.coeff(cost).is_zero());
        if !mentions_cost {
            self.theta0.push(LinExpr::var(cost));
            self.theta0.push(LinExpr::var(cost).scale(&Rational::from_int(-1)));
        }
        Ok(TransitionSystem {
            pool: self.pool,
            cost_var: self.cost_var,
            location_names: self.location_names,
            transitions: self.transitions,
            initial,
            terminal,
            theta0: self.theta0,
            name: self.name,
        })
    }
}

/// Fluent builder for a single [`Transition`]; obtained from [`TsBuilder::transition`].
pub struct TransitionBuilder<'a> {
    builder: &'a mut TsBuilder,
    transition: Transition,
}

impl TransitionBuilder<'_> {
    /// Adds a guard conjunct `expr ≥ 0`.
    pub fn guard(mut self, expr: LinExpr) -> Self {
        self.transition.guard.push(expr);
        self
    }

    /// Adds a guard equality `expr = 0` (two conjuncts).
    pub fn guard_eq(mut self, expr: LinExpr) -> Self {
        self.transition.guard.push(expr.clone());
        self.transition.guard.push(-expr);
        self
    }

    /// Sets the update of a variable.
    pub fn update(mut self, var: VarId, update: Update) -> Self {
        self.transition.updates.insert(var, update);
        self
    }

    /// Adds `cost' = cost + amount` for a constant amount.
    pub fn tick(self, amount: i64) -> Self {
        let cost = self.builder.cost_var;
        self.update(
            cost,
            Update::Assign(Polynomial::var(cost) + Polynomial::from_int(amount)),
        )
    }

    /// Finishes the transition and registers it with the parent builder.
    pub fn finish(self) {
        self.builder.transitions.push(self.transition);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_loop() -> TransitionSystem {
        // while (i < n) { i++; cost++ }
        let mut b = TsBuilder::new();
        b.name("simple_loop");
        let i = b.var("i");
        let n = b.var("n");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(n));
        b.add_theta0_eq(LinExpr::var(i));
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

    #[test]
    fn successors_read_the_pre_state_and_vary_the_first_havoc_fastest() {
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        let t = Transition {
            source: LocId(0),
            target: LocId(0),
            guard: Vec::new(),
            updates: [
                (x, Update::Nondet),
                (y, Update::assign(Polynomial::var(x) + Polynomial::from_int(1))),
                (z, Update::Nondet),
            ]
            .into_iter()
            .collect(),
        };
        let vals: IntValuation = [(x, 10), (y, 0), (z, 0)].into_iter().collect();
        let rows: Vec<Vec<i64>> = t
            .successors(&vals, &[5, 6])
            .map(|next| next.values().copied().collect())
            .collect();
        assert_eq!(rows, [[5, 11, 5], [6, 11, 5], [5, 11, 6], [6, 11, 6]]);
        let none: Vec<IntValuation> = t.successors(&vals, &[]).collect();
        assert_eq!(none, [[(x, 0), (y, 11), (z, 0)].into_iter().collect()]);
        let mut drawn = Vec::new();
        t.step(&vals, |var| {
            drawn.push(var);
            0
        });
        assert_eq!(drawn, [x, z]);
    }

    #[test]
    fn build_simple_loop() {
        let ts = simple_loop();
        assert_eq!(ts.num_locations(), 2);
        // loop, exit, terminal self-loop
        assert_eq!(ts.transitions().len(), 3);
        assert_eq!(ts.outgoing(ts.initial()).count(), 2);
        assert_eq!(ts.outgoing(ts.terminal()).count(), 1);
        assert_eq!(ts.name(), "simple_loop");
        assert!(ts.data_vars().len() == 2);
    }

    #[test]
    fn theta0_forces_cost_zero() {
        let ts = simple_loop();
        let cost = ts.cost_var();
        // Both cost >= 0 and -cost >= 0 must be present.
        let pos = ts.theta0().iter().any(|e| e.coeff(cost) == Rational::one());
        let neg = ts
            .theta0()
            .iter()
            .any(|e| e.coeff(cost) == Rational::from_int(-1));
        assert!(pos && neg);
    }

    #[test]
    fn missing_initial_is_error() {
        let mut b = TsBuilder::new();
        let _ = b.location("head");
        assert_eq!(b.build().unwrap_err(), TsError::MissingInitial);
    }

    #[test]
    fn dead_end_is_error() {
        let mut b = TsBuilder::new();
        let head = b.location("head");
        let stuck = b.location("stuck");
        b.set_initial(head);
        b.transition(head, stuck).finish();
        let err = b.build().unwrap_err();
        assert_eq!(err, TsError::DeadEndLocation("stuck".to_string()));
    }

    #[test]
    fn update_of_defaults_to_identity() {
        let ts = simple_loop();
        let n = ts.pool().lookup("n").unwrap();
        let t = &ts.transitions()[0];
        assert_eq!(t.update_of(n), Update::Assign(Polynomial::var(n)));
        assert!(!t.has_nondet());
    }

    #[test]
    fn nondet_update_flag() {
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.transition(head, out).update(x, Update::Nondet).finish();
        let ts = b.build().unwrap();
        assert!(ts.transitions()[0].has_nondet());
    }

    #[test]
    fn render_mentions_all_parts() {
        let ts = simple_loop();
        let rendered = ts.render();
        assert!(rendered.contains("simple_loop"));
        assert!(rendered.contains("theta0"));
        assert!(rendered.contains("cost' ="));
        assert!(rendered.contains("l_out"));
    }

    #[test]
    fn error_display_messages() {
        assert!(TsError::MissingInitial.to_string().contains("initial"));
        assert!(TsError::DeadEndLocation("x".into()).to_string().contains("x"));
        assert!(TsError::UnknownLocation("l9".into()).to_string().contains("l9"));
        assert!(TsError::CostNotZeroInitially.to_string().contains("cost"));
    }
}
