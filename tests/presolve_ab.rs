//! A/B soundness check for the LP presolve layer: for a fixed subset of Table-1
//! synthesis LPs, solving with presolve enabled (the default) and disabled
//! ([`AnalysisOptions::without_presolve`]) must agree on the feasibility verdict and
//! on the optimal threshold within the scalar tolerance.

use diffcost::benchmarks::all_benchmarks;
use diffcost::prelude::*;

/// Small, fast rows covering the three outcomes presolve must preserve: a non-zero
/// tight threshold, a zero threshold on an equivalent pair, and a pair whose first
/// rung is infeasible under a deliberately under-sized template.
const SUBSET: [&str; 3] = ["SimpleSingle", "sum", "ddec modified"];

#[test]
fn presolved_and_unpresolved_solves_agree() {
    for name in SUBSET {
        let benchmark = all_benchmarks().into_iter().find(|b| b.name == name).unwrap();
        let (new, old) = (benchmark.new_program(), benchmark.old_program());
        let solve = |options: AnalysisOptions| DiffCostSolver::new(options).solve(&new, &old);
        let with_presolve = solve(benchmark.options());
        let without_presolve = solve(benchmark.options().without_presolve());
        match (&with_presolve, &without_presolve) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.threshold - b.threshold).abs() <= 1e-4 * (1.0 + a.threshold.abs()),
                    "{name}: thresholds diverged ({} with presolve, {} without)",
                    a.threshold,
                    b.threshold
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{name}: error kinds diverged ({a:?} vs {b:?})"
                );
            }
            _ => panic!(
                "{name}: feasibility verdicts diverged ({:?} with presolve, {:?} without)",
                with_presolve.as_ref().map(|r| r.threshold),
                without_presolve.as_ref().map(|r| r.threshold)
            ),
        }
    }
}

/// An infeasible rung (degree 1 on a pair that needs a quadratic witness at this
/// tier) must stay infeasible with and without presolve.
#[test]
fn presolve_preserves_infeasibility_verdicts() {
    let old = AnalyzedProgram::from_source(
        "proc f(a, b) { assume(a >= 1 && b >= 1); i = 0; while (i < a) { j = 0; \
         while (j < b) { tick(1); j = j + 1; } i = i + 1; } }",
    )
    .unwrap();
    let new = AnalyzedProgram::from_source(
        "proc f(a, b) { assume(a >= 1 && b >= 1); i = 0; while (i < b) { j = 0; \
         while (j < a) { tick(1); j = j + 1; } i = i + 1; } }",
    )
    .unwrap();
    let options = AnalysisOptions::with_degree(1);
    let with_presolve = DiffCostSolver::new(options).solve(&new, &old);
    let without_presolve = DiffCostSolver::new(options.without_presolve()).solve(&new, &old);
    assert!(matches!(with_presolve, Err(AnalysisError::NoThresholdFound)), "{with_presolve:?}");
    assert!(
        matches!(without_presolve, Err(AnalysisError::NoThresholdFound)),
        "{without_presolve:?}"
    );
}
