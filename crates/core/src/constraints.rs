//! Template allocation and constraint collection (Steps 1 and 2 of the algorithm).

use std::collections::BTreeMap;

use dca_handelman::{encode_nonnegativity, UnknownConstraint, UnknownFactory, UnknownKind};
use dca_invariants::InvariantMap;
use dca_ir::{LocId, TransitionSystem, Update};
use dca_numeric::Rational;
use dca_poly::{
    monomials_up_to_degree, Monomial, Polynomial, TemplatePolynomial, UnknownId, VarId,
};

use crate::potential::PotentialFunction;

/// What [`collect_program_constraints`] produced besides the constraint rows
/// themselves.
#[derive(Debug, Clone, Default)]
pub struct CollectOutcome {
    /// Transitions skipped because their premise `I(ℓ) ∧ G` was infeasible (the
    /// implication holds vacuously; encoding it would only destabilize the LP).
    pub pruned: usize,
    /// Handelman multiplier unknowns for degree-≥-2 products: the candidates the
    /// certified LP backend may defer under lazy row generation. Degree-≤-1
    /// products stay eagerly encoded as the always-active core.
    pub lazy_multipliers: Vec<UnknownId>,
}

/// Whether a template plays the role of a potential (upper bound) or anti-potential
/// (lower bound) function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateRole {
    /// Sufficiency constraints: `φ(ℓ,x) ≥ φ(ℓ',Up(x)) + Δcost` and `φ(ℓ_out) ≥ 0`.
    Potential,
    /// Insufficiency constraints: `χ(ℓ,x) ≤ χ(ℓ',Up(x)) + Δcost` and `χ(ℓ_out) ≤ 0`.
    AntiPotential,
}

/// The polynomial templates of one program: `Σ_m u_{ℓ,m}·m` for every location `ℓ`.
#[derive(Debug, Clone)]
pub struct ProgramTemplates {
    templates: BTreeMap<LocId, TemplatePolynomial>,
    monomials: Vec<Monomial>,
}

impl ProgramTemplates {
    /// Allocates fresh template unknowns for every location of `ts` (Step 1).
    pub fn allocate(
        ts: &TransitionSystem,
        degree: u32,
        include_cost: bool,
        factory: &mut UnknownFactory,
        prefix: &str,
    ) -> ProgramTemplates {
        let vars: Vec<VarId> = if include_cost { ts.vars() } else { ts.data_vars() };
        let monomials = monomials_up_to_degree(&vars, degree);
        let mut templates = BTreeMap::new();
        for loc in ts.locations() {
            let unknowns: Vec<UnknownId> = monomials
                .iter()
                .map(|m| factory.fresh(&format!("{prefix}[{loc:?}][{m:?}]"), UnknownKind::Free))
                .collect();
            templates.insert(loc, TemplatePolynomial::from_template(&monomials, &unknowns));
        }
        ProgramTemplates { templates, monomials }
    }

    /// The template at a location.
    pub fn at(&self, loc: LocId) -> &TemplatePolynomial {
        &self.templates[&loc]
    }

    /// The monomial basis shared by all locations.
    pub fn monomials(&self) -> &[Monomial] {
        &self.monomials
    }

    /// Instantiates the templates with concrete LP values into a [`PotentialFunction`].
    pub fn instantiate(
        &self,
        assignment: &BTreeMap<UnknownId, Rational>,
    ) -> PotentialFunction {
        let per_location = self
            .templates
            .iter()
            .map(|(loc, template)| (*loc, template.instantiate(assignment)))
            .collect();
        PotentialFunction::new(per_location)
    }
}

/// A growing set of linear constraints over LP unknowns.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    constraints: Vec<UnknownConstraint>,
}

impl ConstraintSet {
    /// Creates an empty set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds a single constraint.
    pub fn push(&mut self, constraint: UnknownConstraint) {
        self.constraints.push(constraint);
    }

    /// Adds many constraints.
    pub fn extend(&mut self, constraints: impl IntoIterator<Item = UnknownConstraint>) {
        self.constraints.extend(constraints);
    }

    /// The collected constraints.
    pub fn constraints(&self) -> &[UnknownConstraint] {
        &self.constraints
    }

    /// Number of collected constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Returns `true` if no constraints have been collected.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }
}

/// Collects the defining constraints of a potential or anti-potential function for one
/// program (Step 2), encoding each implication via Handelman products (Step 3).
///
/// For every non-terminal transition `(ℓ, ℓ', G, Up)` with `Aff = I(ℓ) ∪ G`:
///
/// * `Potential`:      `Aff ⟹ φ(ℓ,x) − φ(ℓ', Up(x)) − Δcost ≥ 0`
/// * `AntiPotential`:  `Aff ⟹ χ(ℓ', Up(x)) + Δcost − χ(ℓ,x) ≥ 0`
///
/// plus the termination condition at `ℓ_out` (`φ ≥ 0` resp. `−χ ≥ 0` under `I(ℓ_out)`).
/// Non-deterministic updates substitute a fresh universally-quantified variable, which
/// forces the template coefficients that would depend on the havocked value to vanish.
///
/// Transitions whose premise `I(ℓ) ∧ G` is infeasible over the rationals are *pruned*
/// before encoding and counted in the return value: their implication holds vacuously,
/// so dropping the rows is sound (it can only relax the LP), while encoding them would
/// feed contradictory-premise Handelman products to the simplex — numerically poisonous
/// rows that generated pairs with unreachable branches produce routinely.
pub fn collect_program_constraints(
    ts: &TransitionSystem,
    invariants: &InvariantMap,
    templates: &ProgramTemplates,
    role: TemplateRole,
    max_products: u32,
    factory: &mut UnknownFactory,
    out: &mut ConstraintSet,
) -> CollectOutcome {
    let cost = ts.cost_var();
    // Fresh universally-quantified variables for non-deterministic updates must not clash
    // with program variables or with anything the invariant analysis introduced.
    let mut fresh_counter = ts.pool().len() as u32 + 4096;
    let mut pruned = 0usize;
    let mut lazy_multipliers: Vec<UnknownId> = Vec::new();

    for (index, transition) in ts.transitions().iter().enumerate() {
        let is_terminal_self_loop = transition.source == ts.terminal()
            && transition.target == ts.terminal()
            && transition.guard.is_empty()
            && transition.updates.is_empty();
        if is_terminal_self_loop {
            continue;
        }
        let mut aff = invariants.constraints_at(transition.source);
        aff.extend(transition.guard.iter().cloned());

        // Vacuous implication: an infeasible premise proves nothing and its Handelman
        // products only destabilize the LP — skip the transition entirely. The check is
        // exact (rational simplex), so an f64 infeasibility artifact can never prune a
        // premise that is actually satisfiable; this matters for phase-split systems,
        // whose stale phase-copies of branch edges are exactly what gets dropped here.
        let premise = dca_invariants::Polyhedron::from_constraints(aff.iter().cloned());
        if premise.definitely_empty_exact() {
            pruned += 1;
            continue;
        }

        // Substitution x ↦ Up(x), with fresh variables for havocked updates.
        let mut substitution: BTreeMap<VarId, Polynomial> = BTreeMap::new();
        for (&var, update) in &transition.updates {
            match update {
                Update::Assign(p) => {
                    substitution.insert(var, p.clone());
                }
                Update::Nondet => {
                    substitution.insert(var, Polynomial::var(VarId(fresh_counter)));
                    fresh_counter += 1;
                }
            }
        }
        // Δcost = Up(cost)(x) − cost.
        let delta_cost = match transition.updates.get(&cost) {
            Some(Update::Assign(p)) => p - &Polynomial::var(cost),
            Some(Update::Nondet) => {
                let fresh = Polynomial::var(VarId(fresh_counter));
                fresh_counter += 1;
                fresh - Polynomial::var(cost)
            }
            None => Polynomial::zero(),
        };

        let source_template = templates.at(transition.source);
        let target_template = templates.at(transition.target).substitute(&substitution);
        let delta = TemplatePolynomial::from_polynomial(&delta_cost);
        let poly = match role {
            TemplateRole::Potential => &(source_template - &target_template) - &delta,
            TemplateRole::AntiPotential => &(&target_template - source_template) + &delta,
        };
        let origin = format!(
            "{}:{:?}:transition{}({}->{})",
            ts.name(),
            role,
            index,
            ts.location_name(transition.source),
            ts.location_name(transition.target)
        );
        let encoding = encode_nonnegativity(&aff, &poly, max_products, factory, &origin);
        lazy_multipliers.extend(encoding.lazy_multipliers());
        out.extend(encoding.constraints);
    }

    // Termination condition at ℓ_out.
    let terminal = ts.terminal();
    let aff = invariants.constraints_at(terminal);
    let terminal_template = templates.at(terminal);
    let poly = match role {
        TemplateRole::Potential => terminal_template.clone(),
        TemplateRole::AntiPotential => -terminal_template,
    };
    let origin = format!("{}:{:?}:terminal", ts.name(), role);
    let encoding = encode_nonnegativity(&aff, &poly, max_products, factory, &origin);
    lazy_multipliers.extend(encoding.lazy_multipliers());
    out.extend(encoding.constraints);
    CollectOutcome { pruned, lazy_multipliers }
}

/// Remaps the variables of a template polynomial through `mapping` (old id → new id),
/// leaving unmapped variables unchanged. Used to express the differential constraint over
/// a shared variable space when the two programs were lowered independently.
pub fn remap_template_vars(
    template: &TemplatePolynomial,
    mapping: &BTreeMap<VarId, VarId>,
) -> TemplatePolynomial {
    let substitution: BTreeMap<VarId, Polynomial> = mapping
        .iter()
        .map(|(&from, &to)| (from, Polynomial::var(to)))
        .collect();
    template.substitute(&substitution)
}

/// Remaps the variables of an affine expression through `mapping`.
pub fn remap_linexpr_vars(
    expr: &dca_poly::LinExpr,
    mapping: &BTreeMap<VarId, VarId>,
) -> dca_poly::LinExpr {
    let mut out = dca_poly::LinExpr::constant(expr.constant_term().clone());
    for (var, coeff) in expr.iter() {
        let target = mapping.get(var).copied().unwrap_or(*var);
        let existing = out.coeff(target);
        out.set_coeff(target, &existing + coeff);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_handelman::ConstraintSense;
    use dca_invariants::InvariantAnalysis;
    use dca_ir::TsBuilder;
    use dca_poly::LinExpr;

    fn counting_loop(cost_per_iteration: i64) -> TransitionSystem {
        let mut b = TsBuilder::new();
        b.name("count");
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
            .tick(cost_per_iteration)
            .finish();
        b.transition(head, out)
            .guard(LinExpr::var(i) - LinExpr::var(n))
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn template_allocation_counts() {
        let ts = counting_loop(1);
        let mut factory = UnknownFactory::new();
        let templates = ProgramTemplates::allocate(&ts, 2, false, &mut factory, "phi");
        // 2 data variables (i, n) and degree 2: C(2+2,2) = 6 monomials per location.
        assert_eq!(templates.monomials().len(), 6);
        // 2 locations => 12 unknowns.
        assert_eq!(factory.len(), 12);
        assert_eq!(templates.at(ts.initial()).num_terms(), 6);
    }

    #[test]
    fn template_with_cost_has_more_monomials() {
        let ts = counting_loop(1);
        let mut factory = UnknownFactory::new();
        let templates = ProgramTemplates::allocate(&ts, 2, true, &mut factory, "phi");
        // 3 variables, degree 2: C(3+2,2) = 10 monomials.
        assert_eq!(templates.monomials().len(), 10);
    }

    #[test]
    fn known_potential_satisfies_collected_constraints() {
        // For `while (i < n) { i++; cost++ }` the function φ(head) = n − i, φ(out) = 0 is a
        // valid potential. Check that it satisfies every collected constraint.
        let ts = counting_loop(1);
        let invariants = InvariantAnalysis.analyze(&ts);
        let mut factory = UnknownFactory::new();
        let templates = ProgramTemplates::allocate(&ts, 2, false, &mut factory, "phi");
        let mut set = ConstraintSet::new();
        collect_program_constraints(
            &ts,
            &invariants,
            &templates,
            TemplateRole::Potential,
            2,
            &mut factory,
            &mut set,
        );
        assert!(!set.is_empty());

        // Build the assignment for the known potential: coefficient of `n` is 1 and of `i`
        // is −1 at the loop head; everything else (including all of ℓ_out) is 0. The
        // Handelman multipliers also need values; instead of solving for them we only check
        // the *semantic* inequality by evaluation on all reachable integer points.
        let i = ts.pool().lookup("i").unwrap();
        let n = ts.pool().lookup("n").unwrap();
        let head = ts.initial();
        let mut assignment: BTreeMap<UnknownId, Rational> = BTreeMap::new();
        for (mono, form) in templates.at(head).iter() {
            let unknowns = form.unknowns();
            assert_eq!(unknowns.len(), 1);
            let value = if *mono == Monomial::var(n) {
                Rational::one()
            } else if *mono == Monomial::var(i) {
                Rational::from_int(-1)
            } else {
                Rational::zero()
            };
            assignment.insert(unknowns[0], value);
        }
        let pf = templates.instantiate(&assignment);
        // Semantic check of sufficiency preservation on a grid of reachable states.
        for n_value in 1..=20i64 {
            for i_value in 0..=n_value {
                let mut valuation = dca_poly::Valuation::new();
                valuation.insert(i, Rational::from_int(i_value));
                valuation.insert(n, Rational::from_int(n_value));
                let phi_head = pf.eval(head, &valuation);
                if i_value < n_value {
                    let mut next = valuation.clone();
                    next.insert(i, Rational::from_int(i_value + 1));
                    let phi_next = pf.eval(head, &next);
                    assert!(phi_head >= &phi_next + &Rational::one());
                } else {
                    let phi_out = pf.eval(ts.terminal(), &valuation);
                    assert!(phi_head >= phi_out);
                    assert!(!phi_out.is_negative());
                }
            }
        }
    }

    #[test]
    fn constraints_reference_template_unknowns() {
        let ts = counting_loop(1);
        let invariants = InvariantAnalysis.analyze(&ts);
        let mut factory = UnknownFactory::new();
        let templates = ProgramTemplates::allocate(&ts, 1, false, &mut factory, "chi");
        let template_unknowns = factory.len();
        let mut set = ConstraintSet::new();
        collect_program_constraints(
            &ts,
            &invariants,
            &templates,
            TemplateRole::AntiPotential,
            2,
            &mut factory,
            &mut set,
        );
        // Multipliers were allocated beyond the template unknowns.
        assert!(factory.len() > template_unknowns);
        // All constraints are equalities (coefficient matching).
        assert!(set
            .constraints()
            .iter()
            .all(|c| c.sense == ConstraintSense::Eq));
        // At least one constraint mentions a template unknown.
        assert!(set.constraints().iter().any(|c| c
            .form
            .unknowns()
            .iter()
            .any(|u| u.index() < template_unknowns)));
    }

    #[test]
    fn nondet_update_forces_fresh_variable() {
        // x := nondet(); cost unchanged. The PF constraint must mention a variable id
        // outside the program pool (the fresh universally-quantified value).
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let start = b.location("start");
        let out = b.terminal();
        b.set_initial(start);
        b.add_theta0(LinExpr::var(x));
        b.transition(start, out).update(x, Update::Nondet).finish();
        let ts = b.build().unwrap();
        let invariants = InvariantAnalysis.analyze(&ts);
        let mut factory = UnknownFactory::new();
        let templates = ProgramTemplates::allocate(&ts, 1, false, &mut factory, "phi");
        let mut set = ConstraintSet::new();
        collect_program_constraints(
            &ts,
            &invariants,
            &templates,
            TemplateRole::Potential,
            1,
            &mut factory,
            &mut set,
        );
        assert!(!set.is_empty());
    }

    #[test]
    fn contradictory_premise_transition_is_pruned_before_the_simplex() {
        // A loop with one reachable transition plus a branch whose guard demands
        // `i ≥ 1 ∧ i ≤ −1` — unsatisfiable, so its implication is vacuous. The encoder
        // must drop it *before* Handelman products are built: no row of the resulting
        // constraint set may originate from the contradictory transition.
        let mut b = TsBuilder::new();
        b.name("contra");
        let i = b.var("i");
        let n = b.var("n");
        let head = b.location("head");
        let out = b.terminal();
        b.set_initial(head);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.add_theta0_eq(LinExpr::var(i));
        b.transition(head, head)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        // Contradictory premise: i - 1 >= 0 and -i - 1 >= 0 can never hold together.
        b.transition(head, out)
            .guard(LinExpr::var(i) - LinExpr::from_int(1))
            .guard(-LinExpr::var(i) - LinExpr::from_int(1))
            .tick(1_000_000)
            .finish();
        b.transition(head, out)
            .guard(LinExpr::var(i) - LinExpr::var(n))
            .finish();
        let ts = b.build().unwrap();
        let invariants = InvariantAnalysis.analyze(&ts);
        let mut factory = UnknownFactory::new();
        let templates = ProgramTemplates::allocate(&ts, 1, false, &mut factory, "phi");
        let mut set = ConstraintSet::new();
        let outcome = collect_program_constraints(
            &ts,
            &invariants,
            &templates,
            TemplateRole::Potential,
            1,
            &mut factory,
            &mut set,
        );
        assert_eq!(outcome.pruned, 1, "exactly the contradictory transition is pruned");
        assert!(
            set.constraints().iter().all(|c| !c.origin.contains("transition1")),
            "no constraint row of the pruned transition may reach the simplex"
        );
        // The reachable transitions are still fully encoded.
        assert!(set.constraints().iter().any(|c| c.origin.contains("transition0")));
        assert!(set.constraints().iter().any(|c| c.origin.contains("transition2")));
    }

    #[test]
    fn remapping_helpers() {
        let mut pool = dca_poly::VarPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let mut mapping = BTreeMap::new();
        mapping.insert(a, b);
        let expr = LinExpr::var(a) + LinExpr::from_int(3);
        let remapped = remap_linexpr_vars(&expr, &mapping);
        assert_eq!(remapped.coeff(b), Rational::one());
        assert!(remapped.coeff(a).is_zero());

        let mut factory = UnknownFactory::new();
        let u = factory.fresh("u", UnknownKind::Free);
        let mut template = TemplatePolynomial::zero();
        template.add_term(Monomial::var(a), dca_poly::LinForm::unknown(u));
        let remapped = remap_template_vars(&template, &mapping);
        assert_eq!(remapped.coeff(&Monomial::var(b)), dca_poly::LinForm::unknown(u));
    }
}
