//! The benchmark suite of the paper's evaluation (Table 1) plus the running example.
//!
//! The paper evaluates on 19 program pairs drawn from the cost-analysis literature
//! (Gulwani et al. \[23\], Gulwani & Zuleger \[25\]) and from the semantic-differencing
//! literature (Partush & Yahav \[40, 41\]), plus the `join` running example of Fig. 1. The
//! original C sources are not distributed with the paper, so each pair here is a
//! *reconstruction* following the recipe of Section 6:
//!
//! * first class ("non-zero tight threshold"): the old version incurs cost 1 per loop
//!   iteration; the new version additionally incurs cost in a nested loop or branch;
//! * second class ("zero tight threshold"): semantically equivalent pairs whose syntactic
//!   shape differs;
//! * every uninitialized input is assumed to lie in `[1, 100]`.
//!
//! Each [`Benchmark`] records the tight threshold by construction, the value the paper's
//! tool reported (`paper_computed`, `None` for the ✗ rows), and any reconstruction notes.
//! `EXPERIMENTS.md` at the repository root compares these numbers against the values this
//! implementation reproduces.

mod suite;
pub mod table2;

pub use suite::{all_benchmarks, running_example, Benchmark, BenchmarkGroup};

use dca_core::batch::BatchJob;
use dca_core::{AnalysisError, AnalysisOptions, AnalyzedProgram, DiffCostResult, DiffCostSolver};

/// The whole evaluation in table order — all 19 Table-1 pairs, then the running
/// example — keeping the pairs whose names contain one of `filters` (an empty list
/// keeps everything). [`Benchmark::job`] turns each into a batch job at the degree
/// the paper used for it (`d = K = 2`, `nested` at 3).
pub fn evaluation(filters: &[String]) -> Vec<Benchmark> {
    let mut benchmarks = all_benchmarks();
    benchmarks.push(running_example());
    benchmarks
        .retain(|b| filters.is_empty() || filters.iter().any(|f| b.name.contains(f.as_str())));
    benchmarks
}

impl Benchmark {
    /// The analyzed old program version.
    pub fn old_program(&self) -> AnalyzedProgram {
        AnalyzedProgram::from_source(self.source_old)
            .unwrap_or_else(|e| panic!("benchmark {} old version: {e}", self.name))
    }

    /// The analyzed new program version.
    pub fn new_program(&self) -> AnalyzedProgram {
        AnalyzedProgram::from_source(self.source_new)
            .unwrap_or_else(|e| panic!("benchmark {} new version: {e}", self.name))
    }

    /// The analysis options the paper used for this benchmark (`d = K = 2`, except
    /// `nested` which needs `d = K = 3`).
    pub fn options(&self) -> AnalysisOptions {
        AnalysisOptions::with_degree(self.degree)
    }

    /// This benchmark as a batch job: both sources, compiled in the worker, at the
    /// paper's [options](Benchmark::options).
    pub fn job(&self) -> BatchJob {
        BatchJob::from_sources(self.name, self.source_new, self.source_old)
            .with_options(self.options())
    }

    /// Runs the differential cost analysis on this benchmark.
    pub fn solve(&self) -> Result<DiffCostResult, AnalysisError> {
        let solver = DiffCostSolver::new(self.options());
        solver.solve(&self.new_program(), &self.old_program())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nineteen_table_rows_plus_running_example() {
        let benchmarks = all_benchmarks();
        assert_eq!(benchmarks.len(), 19);
        assert_eq!(
            benchmarks
                .iter()
                .filter(|b| b.group == BenchmarkGroup::Gulwani09)
                .count(),
            10
        );
        assert_eq!(
            benchmarks
                .iter()
                .filter(|b| b.group == BenchmarkGroup::Gulwani10)
                .count(),
            5
        );
        assert_eq!(
            benchmarks
                .iter()
                .filter(|b| b.group == BenchmarkGroup::PartushYahav)
                .count(),
            4
        );
        assert_eq!(running_example().name, "join");
    }

    #[test]
    fn all_sources_parse_and_lower() {
        for benchmark in all_benchmarks().iter().chain([running_example()].iter()) {
            let old = benchmark.old_program();
            let new = benchmark.new_program();
            assert!(old.ts.num_locations() >= 2, "{}", benchmark.name);
            assert!(new.ts.num_locations() >= 2, "{}", benchmark.name);
        }
    }

    #[test]
    fn tight_thresholds_match_table_one() {
        let by_name: std::collections::BTreeMap<&str, i64> = all_benchmarks()
            .iter()
            .map(|b| (b.name, b.tight))
            .collect();
        // Spot-check the Table 1 "Tight" column.
        assert_eq!(by_name["Dis1"], 100);
        assert_eq!(by_name["NestedMultipleDep"], 9900);
        assert_eq!(by_name["NestedSingle"], 101);
        assert_eq!(by_name["SimpleMultipleDep"], 10000);
        assert_eq!(by_name["Ex4"], 201);
        assert_eq!(by_name["Ex7"], 1);
        assert_eq!(by_name["ddec"], 0);
        assert_eq!(by_name["sum"], 0);
    }

    /// The concrete semantics of each reconstruction must actually attain the documented
    /// tight threshold (and never exceed it). Verified with the exhaustive explorer on
    /// down-scaled inputs where the worst case scales linearly with the input bound.
    #[test]
    fn reconstructions_respect_their_tight_threshold_on_samples() {
        use dca_core::verify::{verify_threshold, VerifyConfig};
        let config = VerifyConfig { samples: 8, ..VerifyConfig::default() };
        for benchmark in all_benchmarks() {
            // Skip the cubic benchmark here (exhaustive exploration is too slow); it is
            // covered by the integration tests.
            if benchmark.name == "nested" {
                continue;
            }
            let report = verify_threshold(
                &benchmark.new_program(),
                &benchmark.old_program(),
                benchmark.tight as f64,
                &config,
            );
            assert!(
                report.ok(),
                "benchmark {} exceeds its documented tight threshold: {:?}",
                benchmark.name,
                report.violations
            );
        }
    }

    // The full running-example synthesis passes since the LP-degeneracy fixes (see
    // EXPERIMENTS.md) and is exercised un-ignored by `tests/running_example.rs` and
    // the `table1` harness; this duplicate stays under `--ignored` purely because the
    // solve takes minutes and would double the cost of the default suite.
    #[test]
    #[ignore = "slow: duplicate of tests/running_example.rs::join_threshold_is_ten_thousand"]
    fn running_example_solves_to_ten_thousand() {
        let benchmark = running_example();
        let result = benchmark.solve().expect("the running example must be solvable");
        assert_eq!(result.threshold_int(), 10_000);
    }

    fn evaluation_jobs() -> Vec<BatchJob> {
        evaluation(&[]).iter().map(Benchmark::job).collect()
    }

    #[test]
    fn evaluation_jobs_cover_the_whole_evaluation() {
        let jobs = evaluation_jobs();
        assert_eq!(jobs.len(), 20, "19 Table-1 pairs plus the running example");
        assert_eq!(jobs.last().unwrap().name, "join");
        let nested = jobs.iter().find(|j| j.name == "nested").unwrap();
        assert_eq!(nested.options.degree, 3);
        assert!(jobs.iter().filter(|j| j.name != "nested").all(|j| j.options.degree == 2));
    }

    #[test]
    fn small_suite_subset_is_deterministic_across_worker_counts() {
        use dca_core::batch::{run_batch, BatchConfig};
        // Three fast rows keep this a unit test; the full parallel suite is covered by
        // the ignored test below and by the `table1` harness.
        let jobs: Vec<_> = evaluation_jobs()
            .into_iter()
            .filter(|j| ["SimpleSingle", "sum", "ddec modified"].contains(&j.name.as_str()))
            .collect();
        assert_eq!(jobs.len(), 3);
        let serial = run_batch(&jobs, &BatchConfig::with_jobs(1));
        let parallel = run_batch(&jobs, &BatchConfig::with_jobs(3));
        let ints = |report: &dca_core::BatchReport| {
            report
                .outcomes
                .iter()
                .map(|o| o.result.as_ref().ok().map(|r| r.threshold_int()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ints(&serial), vec![Some(100), Some(0), Some(0)]);
        assert_eq!(ints(&serial), ints(&parallel));
    }

    #[test]
    fn simple_single_solves_tight() {
        let benchmark = all_benchmarks()
            .into_iter()
            .find(|b| b.name == "SimpleSingle")
            .unwrap();
        let result = benchmark.solve().expect("SimpleSingle must be solvable");
        assert_eq!(result.threshold_int(), benchmark.tight);
    }
}
