//! End-to-end integration tests: source text → parser → lowering → invariants →
//! simultaneous PF/anti-PF synthesis → verified threshold.

use diffcost::core::verify::{verify_potential_on_runs, verify_threshold, VerifyConfig};
use diffcost::prelude::*;

fn program(source: &str) -> AnalyzedProgram {
    AnalyzedProgram::from_source(source).expect("program compiles")
}

const BASE: &str = r#"
    proc work(n, m) {
        assume(n >= 1 && n <= 50 && m >= 1 && m <= 50);
        i = 0;
        while (i < n) { tick(1); i = i + 1; }
    }
"#;

const WITH_EXTRA_LOOP: &str = r#"
    proc work(n, m) {
        assume(n >= 1 && n <= 50 && m >= 1 && m <= 50);
        i = 0;
        while (i < n) { tick(1); i = i + 1; }
        j = 0;
        while (j < m) { tick(1); j = j + 1; }
    }
"#;

#[test]
fn threshold_for_added_loop_is_tight_and_verified() {
    let old = program(BASE);
    let new = program(WITH_EXTRA_LOOP);
    let solver = DiffCostSolver::new(AnalysisOptions::default());
    let result = solver.solve(&new, &old).expect("threshold exists");
    // The added loop costs exactly m <= 50, so 50 is the tight threshold. The current
    // invariant generator loses the relational bound on the *second* sequential loop, so
    // the synthesized threshold can over-approximate (see EXPERIMENTS.md, "Known
    // limitations"); soundness — checked below against concrete runs — must still hold.
    assert!(result.threshold_int() >= 50, "unsound threshold {}", result.threshold);

    let config = VerifyConfig { samples: 10, ..VerifyConfig::default() };
    let report = verify_threshold(&new, &old, result.threshold, &config);
    assert!(report.ok(), "threshold violated on sampled runs: {:?}", report.violations);
    let report = verify_potential_on_runs(&result.potential_new, &new, false, &config);
    assert!(report.ok(), "potential conditions violated: {:?}", report.violations);
    let report = verify_potential_on_runs(&result.anti_potential_old, &old, true, &config);
    assert!(report.ok(), "anti-potential conditions violated: {:?}", report.violations);
}

#[test]
fn removing_cost_gives_nonpositive_threshold() {
    let old = program(WITH_EXTRA_LOOP);
    let new = program(BASE);
    let solver = DiffCostSolver::new(AnalysisOptions::default());
    let result = solver.solve(&new, &old).expect("threshold exists");
    // The new version only removes work, so the difference is at most -1 (m >= 1).
    assert!(result.threshold_int() <= 0, "threshold = {}", result.threshold);
}

#[test]
fn refutation_and_bound_agree_on_the_boundary() {
    // Doubling the per-iteration cost gives a difference of exactly n <= 50.
    let old = program(BASE);
    let new = program(
        r#"proc work(n, m) {
            assume(n >= 1 && n <= 50 && m >= 1 && m <= 50);
            i = 0;
            while (i < n) { tick(2); i = i + 1; }
        }"#,
    );
    let solver = DiffCostSolver::new(AnalysisOptions::default());
    // 49 is not a threshold (difference reaches 50 at n = 50), 50 is.
    assert!(solver.refute_threshold(&new, &old, 49, &[]).is_ok());
    assert!(solver.refute_threshold(&new, &old, 50, &[]).is_err());
}

/// A refutation witness must lie in Θ0. Here Θ0 has `n <= m`, so the input-box
/// corner `n = 100, m = 1` is outside it; a refutation tried there "refutes" the
/// genuine threshold 100, which is tight at `n = m = 100`.
#[test]
fn refutation_witnesses_satisfy_theta0() {
    let old = program(
        r#"proc f(n, m) {
            assume(n >= 1 && n <= m && m <= 100);
            i = 0;
            while (i < m) { tick(1); i = i + 1; }
        }"#,
    );
    let new = program(
        r#"proc f(n, m) {
            assume(n >= 1 && n <= m && m <= 100);
            i = 0;
            while (i < n) { tick(2); i = i + 1; }
        }"#,
    );
    let solver = DiffCostSolver::new(AnalysisOptions::default());
    let result = solver.solve(&new, &old).expect("threshold exists");
    assert_eq!(result.threshold_int(), 100);
    assert!(result.outcome().is_certified());
    let refuted = solver.refute_threshold(&new, &old, 100, &[]);
    assert!(
        matches!(refuted, Err(AnalysisError::RefutationFailed)),
        "100 is a genuine threshold, got witness {:?}",
        refuted.map(|r| r.witness_input)
    );
    let refutation = solver.refute_threshold(&new, &old, 99, &[]).expect("99 is refutable");
    let witness = refutation.witness_input;
    let (n, m) = (new.ts.pool().lookup("n").unwrap(), new.ts.pool().lookup("m").unwrap());
    let (n, m) = (witness[&n], witness[&m]);
    assert!(1 <= n && n <= m && m <= 100, "witness n = {n}, m = {m} violates Θ0");
}

/// A degree-1 rung on a pair that needs a quadratic witness has no threshold, under
/// both LP backends.
#[test]
fn degree_one_rung_of_a_quadratic_pair_is_infeasible() {
    let old = program(
        "proc f(a, b) { assume(a >= 1 && b >= 1); i = 0; while (i < a) { j = 0; \
         while (j < b) { tick(1); j = j + 1; } i = i + 1; } }",
    );
    let new = program(
        "proc f(a, b) { assume(a >= 1 && b >= 1); i = 0; while (i < b) { j = 0; \
         while (j < a) { tick(1); j = j + 1; } i = i + 1; } }",
    );
    let options = AnalysisOptions::with_degree(1);
    for options in [options, options.exact()] {
        let result = DiffCostSolver::new(options).solve(&new, &old);
        assert!(matches!(result, Err(AnalysisError::NoThresholdFound)), "{result:?}");
    }
}

#[test]
fn table1_simple_single_row_reproduces() {
    let benchmark = diffcost::benchmarks::all_benchmarks()
        .into_iter()
        .find(|b| b.name == "SimpleSingle")
        .unwrap();
    let result = benchmark.solve().expect("SimpleSingle solves");
    assert_eq!(result.threshold_int(), benchmark.tight);
}

#[test]
fn nondeterministic_branching_is_handled() {
    let old = program(
        r#"proc f(n) {
            assume(n >= 1 && n <= 30);
            i = 0;
            while (i < n) { tick(1); i = i + 1; }
        }"#,
    );
    let new = program(
        r#"proc f(n) {
            assume(n >= 1 && n <= 30);
            i = 0;
            while (i < n) {
                if (*) { tick(3); } else { tick(1); }
                i = i + 1;
            }
        }"#,
    );
    let solver = DiffCostSolver::new(AnalysisOptions::default());
    let result = solver.solve(&new, &old).expect("threshold exists");
    // Worst case: the expensive branch every iteration => extra 2 per iteration, n <= 30.
    assert_eq!(result.threshold_int(), 60);
    let config = VerifyConfig { samples: 8, ..VerifyConfig::default() };
    let report = verify_threshold(&new, &old, result.threshold, &config);
    assert!(report.ok(), "{:?}", report.violations);
}
