//! Interpreter-sampled soundness of loop-phase splitting: whenever the solver
//! solves the split systems (`SolveStats::phases_split > 0`), the reported threshold must
//! survive `verify_threshold` — sampled concrete executions of the *original*
//! (unsplit) pair must never exhibit `cost_new − cost_old` above it. The split
//! system is a different program; the bound it proves is only meaningful for the
//! original semantics, so this is the test that would catch an unsound transform.

use diffcost::benchmarks::table2::{table2_manifest, table2_options};
use diffcost::benchmarks::{all_benchmarks, Benchmark};
use diffcost::core::verify::{verify_threshold, VerifyConfig};
use diffcost::ir::{detect_phase_splits, GeneratedPair, MAX_BLOCK_STATEMENTS};
use diffcost::prelude::*;

/// Solves a pair and, when the split systems produced the answer, replays sampled
/// runs of the original programs against the threshold.
fn check_split_soundness(
    name: &str,
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
    options: AnalysisOptions,
) -> bool {
    let result = match DiffCostSolver::new(options).solve(new, old) {
        Ok(result) => result,
        // With no answer at all there is no split answer to check.
        Err(_) => return false,
    };
    if result.stats.phases_split == 0 {
        return false;
    }
    let report = verify_threshold(new, old, result.threshold, &VerifyConfig::default());
    assert!(
        report.ok(),
        "{name}: split threshold {} violated by {} of {} sampled runs",
        result.threshold,
        report.violations.len(),
        report.checked,
    );
    true
}

fn nested_single() -> Benchmark {
    all_benchmarks().into_iter().find(|b| b.name == "NestedSingle").unwrap()
}

/// The Table-1 row the splitting pass exists for: the split must actually fire
/// and the resulting threshold must be both tight (101) and sampled-sound.
#[test]
fn nested_single_split_is_tight_and_sampled_sound() {
    let benchmark = nested_single();
    let new = benchmark.new_program();
    let old = benchmark.old_program();
    let result = DiffCostSolver::new(benchmark.options()).solve(&new, &old).unwrap();
    assert!(result.stats.phases_split > 0, "split must fire on NestedSingle");
    assert_eq!(result.threshold_int(), 101, "split makes NestedSingle tight");
    let report = verify_threshold(&new, &old, result.threshold, &VerifyConfig::default());
    assert!(report.ok(), "{} sampled violations", report.violations.len());
}

/// Every split analysis is sampled-sound, on the hand benchmark and on generated
/// phase-flip pairs (depth 1 keeps the solves fast). At least one pair must
/// actually exercise the split path, so the test cannot rot into a vacuous pass.
#[test]
fn split_analyses_are_sampled_sound() {
    let manifest = table2_manifest();
    let flips: Vec<&GeneratedPair> = manifest
        .iter()
        .filter(|p| p.shape.phase_flip && p.shape.depth == 1)
        .step_by(3)
        .take(4)
        .collect();
    assert!(!flips.is_empty(), "the manifest carries phase-flip pairs");
    let mut split_checked = 0usize;
    let benchmark = nested_single();
    if check_split_soundness(
        benchmark.name,
        &benchmark.new_program(),
        &benchmark.old_program(),
        benchmark.options(),
    ) {
        split_checked += 1;
    }
    for pair in &flips {
        let new = AnalyzedProgram::from_source(&pair.source_new).unwrap();
        let old = AnalyzedProgram::from_source(&pair.source_old).unwrap();
        // The generator promises the flip guard lowers to a detectable
        // phase structure (and keeps its straight-line runs capped).
        assert!(
            !detect_phase_splits(&new.ts).is_empty(),
            "{}: no phase split detected in the revision",
            pair.name
        );
        assert!(pair.max_block_len <= MAX_BLOCK_STATEMENTS);
        if check_split_soundness(&pair.name, &new, &old, table2_options(pair)) {
            split_checked += 1;
        }
    }
    assert!(split_checked > 0, "no analysis exercised the split path");
}
