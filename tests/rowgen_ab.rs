//! Differential check of lazy Handelman row generation: the certified backend (the
//! default, which defers degree-≥-2 product columns and prices them in exactly on
//! demand) against the exact backend ([`LpBackend::Exact`], which solves every
//! column eagerly with the exact simplex from scratch). Both must produce
//! *bit-identical* thresholds and identical certification status. Row generation
//! is a pure performance device — the final certificate is priced against the
//! full product set — so any divergence is a separation bug, not a tolerance
//! issue. The exact backend is the same independent reference Table 2's `agree`
//! column uses.

use diffcost::benchmarks::table2::{table2_manifest, table2_options};
use diffcost::benchmarks::{all_benchmarks, running_example, Benchmark};
use diffcost::prelude::*;

/// The observable outcome the differential must preserve: the threshold's exact
/// bits, its integer rounding, and whether the LP answer carried an exact
/// certificate. Failures compare by error kind.
#[derive(Debug, PartialEq)]
enum Outcome {
    Solved { threshold_bits: u64, threshold_int: i64, certified: bool },
    Failed(std::mem::Discriminant<AnalysisError>),
}

fn outcome(result: &Result<DiffCostResult, AnalysisError>) -> Outcome {
    match result {
        Ok(r) => Outcome::Solved {
            threshold_bits: r.threshold.to_bits(),
            threshold_int: r.threshold_int(),
            certified: r.stats.lp_certified,
        },
        Err(e) => Outcome::Failed(std::mem::discriminant(e)),
    }
}

/// Solves one pair with the certified backend, then the exact one, and demands
/// identical outcomes.
fn assert_rowgen_invariant(
    name: &str,
    options: AnalysisOptions,
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
) {
    let solve = |options: AnalysisOptions| outcome(&DiffCostSolver::new(options).solve(new, old));
    let with_rowgen = solve(options);
    let eager = solve(options.exact());
    assert_eq!(
        with_rowgen, eager,
        "{name}: row generation changed the verdict (certified {with_rowgen:?} vs exact {eager:?})"
    );
}

fn check_benchmark(benchmark: &Benchmark) {
    // The Table-1 suite's per-attempt budget, so a regression fails the test
    // instead of stalling it.
    let options =
        benchmark.options().with_time_budget(std::time::Duration::from_secs(240));
    assert_rowgen_invariant(
        benchmark.name,
        options,
        &benchmark.new_program(),
        &benchmark.old_program(),
    );
}

fn check_table2_pair(pair: &diffcost::ir::GeneratedPair) {
    let new = AnalyzedProgram::from_source(&pair.source_new).expect("generated source");
    let old = AnalyzedProgram::from_source(&pair.source_old).expect("generated source");
    assert_rowgen_invariant(&pair.name, table2_options(pair), &new, &old);
}

/// Fast smoke slice: every row of the smoke bench's Table-1 subset (zero /
/// non-zero / infeasible-rung verdicts) plus a strided handful of generated pairs.
/// Runs on every `cargo test`.
#[test]
fn rowgen_and_eager_agree_on_fast_pairs() {
    const SUBSET: [&str; 6] =
        ["SimpleSingle", "SimpleSingle2", "Dis2", "sum", "ddec", "ddec modified"];
    for name in SUBSET {
        let benchmark = all_benchmarks().into_iter().find(|b| b.name == name).unwrap();
        check_benchmark(&benchmark);
    }
    let manifest = table2_manifest();
    for pair in manifest.iter().step_by(manifest.len() / 10).take(10) {
        check_table2_pair(pair);
    }
}

/// The Table-1 differential (19 paper rows + the running example) without the
/// degree-3 `nested`, whose exact-backend solve from scratch does not finish
/// within the budget. Opt-in for wall-clock reasons: `cargo test -- --ignored`.
#[test]
#[ignore = "slow: exact-backend solves of every Table-1 pair; run with -- --ignored"]
fn rowgen_and_eager_agree_on_all_table1_pairs() {
    let mut benchmarks = all_benchmarks();
    benchmarks.push(running_example());
    assert_eq!(benchmarks.len(), 20, "Table 1 is 19 rows plus the running example");
    for benchmark in benchmarks.iter().filter(|b| b.name != "nested") {
        check_benchmark(benchmark);
    }
}

/// A 50-pair strided sample of the generated Table-2 corpus. Opt-in for the same
/// wall-clock reason: 100 solves of mid-size LPs.
#[test]
#[ignore = "slow: 50 pairs x 2 solves; run with -- --ignored"]
fn rowgen_and_eager_agree_on_table2_sample() {
    let manifest = table2_manifest();
    assert!(manifest.len() >= 50);
    for pair in manifest.iter().step_by(manifest.len() / 50).take(50) {
        check_table2_pair(pair);
    }
}
