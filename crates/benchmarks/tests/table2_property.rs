//! Property test over the Table-2 generated corpus: on 50+ generated pairs, the
//! certified threshold is never violated by interpreter-sampled concrete executions.
//!
//! The sampling harness under-approximates the true cost-difference supremum
//! (`CostSup_new − CostInf_old` over the input box, observed on random walks plus the
//! box corners where the generated bounds bind), so any violation it reports is a
//! real soundness bug — in the generator's oracle, the encoder, or the LP.

use dca_benchmarks::table2::{check_sampled_soundness, run_table2, table2_manifest};
use dca_core::batch::BatchConfig;

/// How many pairs the property must cover (the satellite's floor).
const MIN_PAIRS: usize = 50;

#[test]
fn sampled_costs_never_exceed_the_certified_bound() {
    // The cheap half of the corpus: every degree-1 pair (depth-1, independent
    // bounds) plus single-phase depth-2 pairs, until the floor is comfortably met.
    // Dev-profile solves dominate this test's runtime, so the selection matters.
    let mut pairs: Vec<_> = table2_manifest()
        .into_iter()
        .filter(|p| p.degree == 1 || (p.shape.depth == 2 && p.shape.phases == 1))
        .collect();
    pairs.truncate(MIN_PAIRS);
    assert!(
        pairs.len() >= MIN_PAIRS,
        "the corpus must supply at least {MIN_PAIRS} cheap pairs, got {}",
        pairs.len()
    );

    let report = run_table2(&pairs, &BatchConfig::default());
    let mut violations = Vec::new();
    for (pair, outcome) in pairs.iter().zip(&report.outcomes) {
        assert_eq!(pair.name, outcome.name);
        let result = outcome
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: solve failed: {e}", pair.name));
        // A handful of walks; the box corners (always included) are where the
        // generated bounds are attained, so tightness is exercised even at this
        // sample count.
        if let Err(found) = check_sampled_soundness(pair, result.threshold, 4) {
            violations.extend(found.into_iter().map(|v| format!("{}: {v}", pair.name)));
        }
    }
    assert!(
        violations.is_empty(),
        "sampled executions exceeded certified bounds:\n{}",
        violations.join("\n")
    );
}
