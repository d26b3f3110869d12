//! Integration tests for the PR-3 LP engine work: warm-started re-solves, and the
//! Table-1 rows whose regressions this engine (plus the back-edge widening-delay fix
//! in `dca_invariants`) repaired.

use diffcost::benchmarks::all_benchmarks;
use diffcost::core::SolveStats;
use diffcost::prelude::*;

fn benchmark(name: &str) -> diffcost::benchmarks::Benchmark {
    all_benchmarks().into_iter().find(|b| b.name == name).unwrap()
}

/// `SimpleSingle2` at its paper configuration (degree 2, baseline invariants): PR 2's
/// BENCH run recorded `failed` after 82 s because the baseline invariants lost the
/// second loop's `j ≤ n` / `j ≤ m` bounds (making the degree-2 LP genuinely
/// infeasible — the exact backend agreed) and the f64 phase 1 burned its budget
/// stalling before saying so. With the back-edge widening delay the invariants carry
/// both bounds and the pair solves tight, beating the paper's 197.
#[test]
fn simple_single2_is_tight_at_the_paper_configuration() {
    let benchmark = benchmark("SimpleSingle2");
    let result = benchmark.solve().expect("SimpleSingle2 must solve at degree 2");
    assert_eq!(result.threshold_int(), 100);
}

/// `SequentialSingle`: invariants established by the first loop must be carried into
/// the second, sequentially composed loop — the row was loose (19900 vs 100) while
/// the upstream fixpoint churn widened away the second head's `j ≤ n`.
#[test]
fn sequential_single_is_tight_at_baseline_tier() {
    let benchmark = benchmark("SequentialSingle");
    let result = benchmark.solve().expect("SequentialSingle must solve");
    assert_eq!(result.threshold_int(), 100);
}

/// `Ex4` is the same story with two sequential loops plus a setup cost: loose at
/// 20001 before the widening fix, tight at 201 after.
#[test]
fn ex4_is_tight_at_baseline_tier() {
    let benchmark = benchmark("Ex4");
    let result = benchmark.solve().expect("Ex4 must solve");
    assert_eq!(result.threshold_int(), 201);
}

/// A warm-started re-solve must reproduce the cold solve's objective — and, landing
/// on the optimal basis, needs no phase-1 work at all.
#[test]
fn warm_started_resolve_matches_cold_solve() {
    let benchmark = benchmark("SimpleSingle");
    let new = benchmark.new_program();
    let old = benchmark.old_program();
    let solver = DiffCostSolver::new(benchmark.options());
    let (cold, basis) =
        solver.solve_with_warm_start(&new, &old, None, None).expect("cold solve succeeds");
    assert!(!basis.is_empty());
    let (warm, _) =
        solver.solve_with_warm_start(&new, &old, Some(&basis), None).expect("warm solve succeeds");
    assert_eq!(warm.threshold_int(), cold.threshold_int());
    assert!(
        warm.stats.lp_iterations <= cold.stats.lp_iterations,
        "warm start must not pivot more than the cold solve ({} vs {})",
        warm.stats.lp_iterations,
        cold.stats.lp_iterations
    );
}

/// Differential fuzz for the float-first certified driver: on ~2100 small
/// deterministic pseudo-random LPs, `solve_certified` must agree with the pure exact
/// simplex on *status* and — exactly, as rationals — on the *objective*, and every
/// optimal answer must carry an exact-rational certificate. This is the enforcement
/// of the soundness contract: no verdict is ever issued from `f64` alone; the floats
/// only pick which basis the exact machinery examines first.
#[test]
fn certified_driver_matches_exact_simplex_on_random_lps() {
    use diffcost::lp::{ConstraintOp, LpProblem, LpStatus, VarKind};

    let mut seed = 0x6C62272E07BB0142u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let mut optimal = 0usize;
    let mut certified_repairs = 0usize;
    for case in 0..2100 {
        let num_vars = 1 + (next() % 5) as usize;
        let num_constraints = 1 + (next() % 6) as usize;
        let mut lp = LpProblem::new();
        let vars: Vec<_> = (0..num_vars)
            .map(|i| {
                let kind = if next() % 5 == 0 { VarKind::Free } else { VarKind::NonNegative };
                lp.add_var(format!("x{i}"), kind)
            })
            .collect();
        for _ in 0..num_constraints {
            let terms: Vec<_> = vars
                .iter()
                .filter_map(|&v| {
                    let coefficient = (next() % 7) as i64 - 3;
                    (coefficient != 0).then(|| (v, Rational::from_int(coefficient)))
                })
                .collect();
            if terms.is_empty() {
                continue;
            }
            let op = match next() % 3 {
                0 => ConstraintOp::Le,
                1 => ConstraintOp::Ge,
                _ => ConstraintOp::Eq,
            };
            // Mostly-zero right-hand sides: the degenerate regime the Handelman
            // encodings live in.
            let rhs = if next() % 3 == 0 { (next() % 5) as i64 } else { 0 };
            lp.add_constraint(terms, op, Rational::from_int(rhs));
        }
        lp.set_objective(
            vars.iter()
                .map(|&v| (v, Rational::from_int((next() % 7) as i64 - 3)))
                .collect(),
        );

        let certified = lp.solve_certified(None, &[], None);
        let exact = lp.solve_exact();
        assert_eq!(
            certified.status, exact.status,
            "case {case}: certified and exact status diverged"
        );
        if certified.status == LpStatus::Optimal {
            optimal += 1;
            assert_eq!(
                certified.objective, exact.objective,
                "case {case}: certified and exact objective diverged (exactly)"
            );
            assert!(
                certified.info.certified,
                "case {case}: an accepted optimum must carry an exact certificate"
            );
            if certified.info.exact_iterations > 0 {
                certified_repairs += 1;
            }
        }
    }
    // The fuzz only means something if it exercises both the accept path and the
    // repair path; both arise naturally at these sizes.
    assert!(optimal > 400, "only {optimal} optimal instances — fuzz lost its teeth");
    assert!(
        certified_repairs > 0,
        "no case ever took the exact-repair path — the exact run is untested"
    );
}

/// The solver surfaces iteration counts in its statistics.
#[test]
fn solve_stats_carry_iteration_counts() {
    let benchmark = benchmark("SimpleSingle");
    let result = benchmark.solve().expect("SimpleSingle must solve");
    assert!(result.stats.lp_iterations > 0, "a non-trivial solve pivots at least once");
}

/// Pivot-path pin: the cheap smoke rows, solved at the configuration `table1` uses
/// for them (the paper degree, baseline invariants), must reproduce the pivot,
/// row-generation and LU counts committed in `BENCH_table1.json`. A refactoring
/// that is meant to leave the simplex's path unchanged then fails here, not only in
/// a later benchmark run; a deliberate path change regenerates the baseline.
#[test]
fn smoke_rows_reproduce_the_committed_pivot_counts() {
    use dca_serve::json::Value;

    let committed = include_str!("../BENCH_table1.json");
    let document = Value::parse(committed).expect("BENCH_table1.json parses");
    let Some(Value::Arr(rows)) = document.get("rows") else {
        panic!("BENCH_table1.json has a rows array");
    };
    // (JSON key of the committed row, the same count in this solve's statistics)
    type Count = (&'static str, fn(&SolveStats) -> usize);
    let counts: [Count; 5] = [
        ("lp_float_pivots", |s| s.lp_float_iterations),
        ("lp_exact_pivots", |s| s.lp_exact_iterations),
        ("separation_rounds", |s| s.lp_separation_rounds),
        ("lu_updates", |s| s.lp_lu_updates),
        ("lu_refactorizations", |s| s.lp_lu_refactorizations),
    ];
    for name in ["SimpleSingle", "Dis2", "sum", "ddec modified"] {
        let row = rows
            .iter()
            .find(|row| row.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("{name} has a committed row"));
        let stats = benchmark(name).solve().expect("smoke row solves").stats;
        // Row generation is one core stage plus at most one full stage, and the
        // full stage carries every lazy column. A float optimum is certified once;
        // a rejection goes straight to one exact run.
        assert!(stats.lp_separation_rounds <= 2, "{name}: more than two rowgen stages");
        assert!(stats.lp_certify_rounds <= 1, "{name}: more than one certification");
        if stats.lp_separation_rounds == 2 {
            assert_eq!(stats.lp_products_generated, stats.lp_products_total, "{name}");
        }
        for (key, count) in counts {
            let expected = row.get(key).and_then(Value::as_u64);
            assert_eq!(
                Some(count(&stats) as u64),
                expected,
                "{name}: {key} differs from the committed BENCH_table1.json row"
            );
        }
    }
}
