//! Developer diagnostic: checks block-by-block (with the exact LP backend) whether the
//! degree-2 synthesis LP of the Fig. 1 `join` pair admits the hand-derived certificate
//!
//! ```text
//! phi_new(l)  = 2*lenA*(lenB - i) - 2j-ish per location,   chi_old symmetric,
//! t = 10000
//! ```
//!
//! Each Handelman implication block only shares the *template* unknowns with the rest of
//! the LP; once those are fixed to the hand values, every block becomes an independent
//! small feasibility LP over its own non-negative multipliers. If every block reports
//! `feasible`, the full synthesis LP is feasible and any `Infeasible` answer from the
//! floating-point backend is spurious.

use std::collections::BTreeMap;

use diffcost::core::{collect_program_constraints, ConstraintSet, ProgramTemplates, TemplateRole};
use diffcost::handelman::{encode_nonnegativity, ConstraintSense, UnknownFactory, UnknownKind};
use diffcost::lp::{ConstraintOp, LpProblem, LpStatus, VarKind};
use diffcost::numeric::Rational;
use diffcost::poly::{Monomial, TemplatePolynomial, UnknownId};
use diffcost::prelude::*;

fn main() {
    let benchmark = diffcost::benchmarks::running_example();
    let old = AnalyzedProgram::from_source(benchmark.source_old).unwrap();
    let new = AnalyzedProgram::from_source(benchmark.source_new).unwrap();

    let mut factory = UnknownFactory::new();
    let threshold = factory.fresh("t", UnknownKind::Free);
    let templates_new =
        ProgramTemplates::allocate(&new.ts, 2, false, &mut factory, "phi_new");
    let templates_old =
        ProgramTemplates::allocate(&old.ts, 2, false, &mut factory, "chi_old");
    let mut set = ConstraintSet::new();
    collect_program_constraints(
        &new.ts, &new.invariants, &templates_new, TemplateRole::Potential, 2, &mut factory,
        &mut set,
    );
    collect_program_constraints(
        &old.ts, &old.invariants, &templates_old, TemplateRole::AntiPotential, 2,
        &mut factory, &mut set,
    );
    // Differential constraint over theta0 (identical variable names: identity mapping).
    let phi0 = templates_new.at(new.ts.initial()).clone();
    let chi0 = templates_old.at(old.ts.initial()).clone();
    let mut theta0 = new.ts.theta0().to_vec();
    for c in old.ts.theta0() {
        if !theta0.contains(c) {
            theta0.push(c.clone());
        }
    }
    let poly = &(&TemplatePolynomial::from_unknown(threshold) - &phi0) + &chi0;
    let encoding = encode_nonnegativity(&theta0, &poly, 2, &mut factory, "differential");
    set.extend(encoding.constraints);

    // ----- hand-crafted template assignment ---------------------------------------------
    let mut assignment: BTreeMap<UnknownId, Rational> = BTreeMap::new();
    assignment.insert(threshold, Rational::from_int(10_000));

    // phi_new: coefficients per (location-name, monomial) over vars i, j, lenA, lenB.
    // chi_old: the same shapes with the outer bound lenA <-> lenB swapped and halved.
    let fill = |ts: &diffcost::ir::TransitionSystem,
                templates: &ProgramTemplates,
                scale: i64,
                assignment: &mut BTreeMap<UnknownId, Rational>| {
        let i = ts.pool().lookup("i").unwrap();
        let j = ts.pool().lookup("j").unwrap();
        let len_a = ts.pool().lookup("lenA").unwrap();
        let len_b = ts.pool().lookup("lenB").unwrap();
        // The *new* program iterates lenB outer / lenA inner; the old one the opposite.
        // Expressed uniformly: outer bound O, inner bound N (per-iteration inner count).
        let (_outer, inner) = if scale == 2 { (len_b, len_a) } else { (len_a, len_b) };
        let ab = Monomial::var(len_a).mul(&Monomial::var(len_b));
        for loc in ts.locations() {
            let name = ts.location_name(loc).to_string();
            // coefficients: map monomial -> value
            let mut coeffs: BTreeMap<Monomial, i64> = BTreeMap::new();
            let m_inner_i = Monomial::var(inner).mul(&Monomial::var(i));
            match name.as_str() {
                "l0_entry" => {
                    coeffs.insert(ab.clone(), scale);
                }
                // inner*(outer - i) = lenA*lenB - inner*i
                "l1_step" | "l2_while_head" | "l3_body" | "l9_step" => {
                    coeffs.insert(ab.clone(), scale);
                    coeffs.insert(m_inner_i.clone(), -scale);
                }
                // inner*(outer - i) - j
                "l4_step" | "l5_while_head" | "l6_body" | "l7_step" => {
                    coeffs.insert(ab.clone(), scale);
                    coeffs.insert(m_inner_i.clone(), -scale);
                    coeffs.insert(Monomial::var(j), -scale);
                }
                // inner*(outer - i - 1)
                "l8_while_exit" => {
                    coeffs.insert(ab.clone(), scale);
                    coeffs.insert(m_inner_i.clone(), -scale);
                    coeffs.insert(Monomial::var(inner), -scale);
                }
                "l10_while_exit" | "l_out" => {}
                other => panic!("unexpected location {other}"),
            }
            for (mono, form) in templates.at(loc).iter() {
                let unknowns = form.vars();
                assert_eq!(unknowns.len(), 1);
                let value = coeffs.get(mono).copied().unwrap_or(0);
                assignment.insert(unknowns[0], Rational::from_int(value));
            }
        }
    };
    fill(&new.ts, &templates_new, 2, &mut assignment);
    fill(&old.ts, &templates_old, 1, &mut assignment);

    // ----- per-block exact feasibility --------------------------------------------------
    let mut blocks: BTreeMap<String, Vec<&diffcost::handelman::UnknownConstraint>> =
        BTreeMap::new();
    for constraint in set.constraints() {
        let key = constraint
            .origin
            .split(": coeff")
            .next()
            .unwrap_or(&constraint.origin)
            .to_string();
        blocks.entry(key).or_default().push(constraint);
    }
    let mut all_feasible = true;
    for (block, constraints) in &blocks {
        let mut lp = LpProblem::new();
        let mut vars: BTreeMap<UnknownId, diffcost::lp::LpVar> = BTreeMap::new();
        for constraint in constraints {
            let mut terms = Vec::new();
            let mut constant = constraint.form.constant_term().clone();
            for (u, c) in constraint.form.iter() {
                match assignment.get(u) {
                    Some(value) => constant = &constant + &(c * value),
                    None => {
                        let var = *vars.entry(*u).or_insert_with(|| {
                            let kind = match factory.kind(*u) {
                                UnknownKind::Free => VarKind::Free,
                                UnknownKind::NonNegative => VarKind::NonNegative,
                            };
                            lp.add_var(factory.name(*u), kind)
                        });
                        terms.push((var, c.clone()));
                    }
                }
            }
            let op = match constraint.sense {
                ConstraintSense::Eq => ConstraintOp::Eq,
                ConstraintSense::Ge => ConstraintOp::Ge,
            };
            lp.add_constraint(terms, op, -constant);
        }
        let solution = lp.solve_exact();
        let ok = solution.status == LpStatus::Optimal;
        all_feasible &= ok;
        println!(
            "{:<60} {} ({} rows, {} multipliers)",
            block,
            if ok { "feasible" } else { "INFEASIBLE" },
            constraints.len(),
            lp.num_vars(),
        );
    }
    println!(
        "\n==> hand certificate {} the degree-2 join LP",
        if all_feasible { "PROVES FEASIBILITY of" } else { "does not satisfy" }
    );
}
