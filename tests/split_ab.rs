//! A/B check for loop-phase splitting: on pairs with *no detectable phase
//! structure*, solving with splitting enabled (the default) and disabled
//! ([`AnalysisOptions::without_phase_split`]) must produce bit-identical outcomes —
//! the solver promises the split machinery is a strict no-op unless the detector
//! fires. On pairs where it does fire, the split systems replace the inputs in the
//! one LP of the solve, so the split answer is computed alone and must be no worse
//! than the unsplit one; the result must carry the split systems exactly when a
//! split fired; and disabling the pass must verifiably keep it off
//! (`SolveStats::phases_split == 0`).

use diffcost::benchmarks::table2::{table2_manifest, table2_options};
use diffcost::benchmarks::{all_benchmarks, running_example, Benchmark};
use diffcost::ir::detect_phase_splits;
use diffcost::prelude::*;

/// The observable outcome: exact threshold bits, integer rounding, certification.
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

/// Solves one pair with splitting on and off and checks the contract. Returns
/// `true` when the split path fired.
fn assert_split_invariant(
    name: &str,
    options: AnalysisOptions,
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
) -> bool {
    let with_split = DiffCostSolver::new(options).solve(new, old);
    let without_split = DiffCostSolver::new(options.without_phase_split()).solve(new, old);
    if let Ok(r) = &without_split {
        assert_eq!(r.stats.phases_split, 0, "{name}: without_phase_split must disable the pass");
    }
    if let Ok(r) = &with_split {
        let fired = r.stats.phases_split > 0;
        assert_eq!(r.split_systems.is_some(), fired, "{name}: split systems iff a split fired");
    }
    let splittable =
        !detect_phase_splits(&new.ts).is_empty() || !detect_phase_splits(&old.ts).is_empty();
    if !splittable {
        assert_eq!(
            outcome(&with_split),
            outcome(&without_split),
            "{name}: no split fires, yet the toggle changed the outcome"
        );
        return false;
    }
    // Split fired (or at least was attempted): the split systems were solved
    // instead of the inputs, and that answer must be no worse than the unsplit one.
    if let Ok(plain) = &without_split {
        let ab = with_split.as_ref().unwrap_or_else(|error| {
            panic!("{name}: the split solve failed ({error}) where the unsplit one solved")
        });
        assert!(
            ab.threshold <= plain.threshold,
            "{name}: split answer {} worse than unsplit {}",
            ab.threshold,
            plain.threshold,
        );
    }
    with_split.map(|r| r.stats.phases_split > 0).unwrap_or(false)
}

fn check_benchmark(benchmark: &Benchmark) -> bool {
    let options =
        benchmark.options().with_time_budget(std::time::Duration::from_secs(240));
    assert_split_invariant(
        benchmark.name,
        options,
        &benchmark.new_program(),
        &benchmark.old_program(),
    )
}

fn check_table2_pair(pair: &diffcost::ir::GeneratedPair) -> bool {
    let new = AnalyzedProgram::from_source(&pair.source_new).expect("generated source");
    let old = AnalyzedProgram::from_source(&pair.source_old).expect("generated source");
    assert_split_invariant(&pair.name, table2_options(pair), &new, &old)
}

/// Fast slice: every row of the smoke bench's Table-1 subset (bit-identity where
/// no split fires; `ddec` splits), `NestedSingle` (the row the pass exists for),
/// and a strided mix of generated pairs including the phase-flip cells at the
/// manifest tail.
#[test]
fn split_toggle_respects_the_ab_contract_on_fast_pairs() {
    const SUBSET: [&str; 7] = [
        "SimpleSingle",
        "SimpleSingle2",
        "Dis2",
        "sum",
        "ddec",
        "ddec modified",
        "NestedSingle",
    ];
    let mut fired = 0usize;
    for name in SUBSET {
        let benchmark = all_benchmarks().into_iter().find(|b| b.name == name).unwrap();
        if check_benchmark(&benchmark) {
            fired += 1;
        }
    }
    let manifest = table2_manifest();
    for pair in manifest.iter().step_by(manifest.len() / 8).take(8) {
        check_table2_pair(pair);
    }
    // The manifest tail is the phase-flip block; depth-1 cells solve quickly.
    for pair in manifest.iter().filter(|p| p.shape.phase_flip && p.shape.depth == 1).take(3)
    {
        if check_table2_pair(pair) {
            fired += 1;
        }
    }
    assert!(fired > 0, "no pair exercised the split path");
}

/// The full Table-1 A/B. Opt-in: `nested` alone pivots for minutes, twice.
#[test]
#[ignore = "slow: solves every Table-1 row twice; run with -- --ignored"]
fn split_toggle_respects_the_ab_contract_on_all_table1_pairs() {
    let mut benchmarks = all_benchmarks();
    benchmarks.push(running_example());
    assert_eq!(benchmarks.len(), 20, "Table 1 is 19 rows plus the running example");
    let fired: usize = benchmarks.iter().map(|b| usize::from(check_benchmark(b))).sum();
    assert!(fired > 0, "NestedSingle must exercise the split path");
}

/// A strided 40-pair sample of the Table-2 corpus, phase-flip cells included.
#[test]
#[ignore = "slow: 40 pairs x 2 solves; run with -- --ignored"]
fn split_toggle_respects_the_ab_contract_on_table2_sample() {
    let manifest = table2_manifest();
    let mut fired = 0usize;
    for pair in manifest.iter().step_by(manifest.len() / 40).take(40) {
        if check_table2_pair(pair) {
            fired += 1;
        }
    }
    for pair in manifest.iter().filter(|p| p.shape.phase_flip).take(6) {
        if check_table2_pair(pair) {
            fired += 1;
        }
    }
    assert!(fired > 0, "the phase-flip cells must exercise the split path");
}
