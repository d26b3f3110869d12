//! The Table-2 generated corpus: a seeded manifest of program pairs with
//! known-by-construction bounds, plus the differential soundness harness.
//!
//! Table 1 validates the reproduction on twenty hand pairs; Table 2 is the workload:
//! ≥200 pairs emitted by [`dca_ir::generate_pair`] across the full shape grid
//! (nesting depth 1–3 × sequential phases × dependent bounds × disjunctive guards ×
//! straight-line padding, in delta-injection and equivalent-rewrite flavours). The
//! manifest is *code*: [`TABLE2_SEED`] plus the generator reproduce every source
//! byte-for-byte, so nothing but this module and the committed seed needs versioning.
//!
//! The harness side checks each solved pair two ways:
//!
//! * [`check_sampled_soundness`]: replays sampled concrete executions through the
//!   reference interpreter/explorer and checks the reported threshold is never
//!   violated (the observed `CostSup_new − CostInf_old` under-approximates the true
//!   supremum, so any violation it finds is real);
//! * [`differential_verdicts`]: re-solves under the exact backend, asserting the
//!   certified and exact backends agree on the verdict and the threshold.

use std::time::Duration;

use dca_core::batch::{run_batch, BatchConfig, BatchJob, BatchReport};
use dca_core::verify::{verify_threshold, VerifyConfig};
use dca_core::{AnalysisOptions, AnalyzedProgram, DiffCostSolver, LpBackend};
use dca_ir::{generate_pair, GeneratedPair, PairKind, ShapeParams};

// Re-exported so harness crates can consume the corpus without a direct `dca_ir`
// dependency.
pub use dca_ir::{
    GeneratedPair as Pair, PairKind as Kind, ShapeParams as Shape, MAX_BLOCK_STATEMENTS,
};

/// The committed corpus seed. Changing it (or the generator, or the RNG stream)
/// regenerates a different corpus — the seed-stability golden tests in `dca_ir` exist
/// to make that impossible to do silently.
pub const TABLE2_SEED: u64 = 0x7AB1E2;

/// Delta-injection repetitions per shape-grid cell, by depth: deeper nests cost an
/// order of magnitude more solver time (bigger LPs, and the exact backend of the
/// differential harness re-solves each one), so the corpus weights the cheap depths.
fn delta_reps(depth: u32) -> u64 {
    match depth {
        1 => 6,
        2 => 4,
        _ => 2,
    }
}

/// Equivalent-rewrite repetitions per (depth, phases, padding) cell.
const EQUIV_REPS: u64 = 2;

/// Phase-flip repetitions per (depth, phases, padding) cell.
const FLIP_REPS: u64 = 3;

/// The full Table-2 manifest, in deterministic grid order.
///
/// Grid: depth 1–3 × phases 1–2 × dependent × disjunctive × padding, 6/4/2 seeds per
/// cell by depth (96 + 64 + 32 = 192 delta pairs), plus depth 1–3 × phases 1–2 ×
/// padding equivalent rewrites, 2 seeds per cell (24 pairs), plus depth 1–2 ×
/// phases 1–2 × padding phase-flip deltas, 3 seeds per cell (24 pairs) — 240 pairs
/// total.
pub fn table2_manifest() -> Vec<GeneratedPair> {
    let mut pairs = Vec::new();
    let mut index = 0u64;
    for depth in 1..=3u32 {
        for phases in 1..=2u32 {
            for dependent in [false, true] {
                for disjunctive in [false, true] {
                    for padding in [false, true] {
                        let shape = ShapeParams {
                            depth,
                            phases,
                            dependent,
                            disjunctive,
                            padding,
                            phase_flip: false,
                            kind: PairKind::Delta,
                        };
                        for _ in 0..delta_reps(depth) {
                            pairs.push(generate_pair(TABLE2_SEED ^ (index * 0x9E37), &shape));
                            index += 1;
                        }
                    }
                }
            }
        }
    }
    for depth in 1..=3u32 {
        for phases in 1..=2u32 {
            for padding in [false, true] {
                let shape = ShapeParams {
                    depth,
                    phases,
                    dependent: false,
                    disjunctive: false,
                    padding,
                    phase_flip: false,
                    kind: PairKind::Equivalent,
                };
                for _ in 0..EQUIV_REPS {
                    pairs.push(generate_pair(TABLE2_SEED ^ (index * 0x9E37), &shape));
                    index += 1;
                }
            }
        }
    }
    // Phase-flip delta pairs, appended after the original 216-pair grid so every
    // pre-existing pair keeps its seed (the golden sources depend on `index`).
    // The flip interacts with depth and padding but not with the dependent /
    // disjunctive injections, so those axes stay off to contain solver time.
    for depth in 1..=2u32 {
        for phases in 1..=2u32 {
            for padding in [false, true] {
                let shape = ShapeParams {
                    depth,
                    phases,
                    dependent: false,
                    disjunctive: false,
                    padding,
                    phase_flip: true,
                    kind: PairKind::Delta,
                };
                for _ in 0..FLIP_REPS {
                    pairs.push(generate_pair(TABLE2_SEED ^ (index * 0x9E37), &shape));
                    index += 1;
                }
            }
        }
    }
    pairs
}

/// A small deterministic subset for the blocking CI smoke step (≤60 s on a 1-CPU
/// box including the full differential harness): cheap depth-1/depth-2 shapes, one
/// pair per exercised class.
pub fn table2_smoke() -> Vec<GeneratedPair> {
    let manifest = table2_manifest();
    // One representative per distinct (depth ≤ 2) shape tag, favouring the first
    // (lowest-seed) pair of each cell; capped to keep the step well under a minute.
    let mut seen = std::collections::BTreeSet::new();
    let mut subset: Vec<GeneratedPair> = Vec::new();
    for pair in manifest {
        if pair.shape.depth > 2 || pair.shape.phases > 1 {
            continue;
        }
        if seen.insert(pair.shape.tag()) {
            subset.push(pair);
        }
    }
    subset
}

/// Analysis options for a generated pair: the generator knows the exact degree its
/// cost polynomials need.
pub fn table2_options(pair: &GeneratedPair) -> AnalysisOptions {
    AnalysisOptions::with_degree(pair.degree)
}

/// Batch jobs for a set of generated pairs (solved at the generator-declared degree,
/// certified backend).
pub fn table2_jobs(pairs: &[GeneratedPair]) -> Vec<BatchJob> {
    pairs
        .iter()
        .map(|pair| {
            BatchJob::from_sources(
                pair.name.clone(),
                pair.source_new.clone(),
                pair.source_old.clone(),
            )
            .with_options(table2_options(pair))
        })
        .collect()
}

/// Runs a set of generated pairs through the batch engine.
pub fn run_table2(pairs: &[GeneratedPair], config: &BatchConfig) -> BatchReport {
    run_batch(&table2_jobs(pairs), config)
}

/// Interpreter-sampled soundness check of a reported threshold for one pair.
///
/// Replays sampled runs (including the input-box corners, where generated thresholds
/// bind) and returns the violations found — always empty for a sound threshold, since
/// sampling under-approximates the true cost difference. `samples` trades confidence
/// against wall-clock; the corners alone already witness the tight bound.
pub fn check_sampled_soundness(
    pair: &GeneratedPair,
    threshold: f64,
    samples: usize,
) -> Result<(), Vec<String>> {
    let new = AnalyzedProgram::from_source(&pair.source_new)
        .expect("generated source must compile");
    let old = AnalyzedProgram::from_source(&pair.source_old)
        .expect("generated source must compile");
    let config = VerifyConfig { samples, seed: pair.seed ^ 0x5EED, ..VerifyConfig::default() };
    let report = verify_threshold(&new, &old, threshold, &config);
    if report.ok() {
        Ok(())
    } else {
        Err(report.violations)
    }
}

/// Cross-backend verdicts for one pair.
#[derive(Debug, Clone)]
pub struct DifferentialVerdict {
    /// Threshold from the certified (default) backend, `None` on failure.
    pub certified: Option<f64>,
    /// Threshold from the exact rational backend, `None` on failure.
    pub exact: Option<f64>,
    /// Human-readable disagreements (empty = both backends agree).
    pub disagreements: Vec<String>,
}

impl DifferentialVerdict {
    /// `true` when both backends produced the same verdict and threshold.
    pub fn agree(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Solves one pair under the `certified` and the `exact` backend and cross-checks the
/// verdicts.
///
/// Both backends prove exact rational optima, so their integer thresholds must match
/// *exactly*. Any disagreement is a soundness or completeness bug in one of them.
pub fn differential_verdicts(pair: &GeneratedPair, budget: Option<Duration>) -> DifferentialVerdict {
    let base = table2_options(pair);
    let with_budget = |mut options: AnalysisOptions| {
        options.time_budget = budget;
        options
    };
    let new = AnalyzedProgram::from_source(&pair.source_new).expect("generated source");
    let old = AnalyzedProgram::from_source(&pair.source_old).expect("generated source");
    let solve = |options: AnalysisOptions| {
        DiffCostSolver::new(options).solve(&new, &old).ok().map(|r| r.threshold_int())
    };

    let certified = solve(with_budget(base));
    let exact = solve(with_budget(AnalysisOptions { backend: LpBackend::Exact, ..base }));

    let mut disagreements = Vec::new();
    if certified != exact {
        disagreements.push(format!(
            "{}: certified backend computed {certified:?} but exact backend computed {exact:?}",
            pair.name
        ));
    }
    DifferentialVerdict {
        certified: certified.map(|t| t as f64),
        exact: exact.map(|t| t as f64),
        disagreements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_large_deterministic_and_unique() {
        let a = table2_manifest();
        let b = table2_manifest();
        assert!(a.len() >= 200, "the corpus must hold at least 200 pairs, got {}", a.len());
        assert_eq!(a.len(), b.len());
        let mut names: Vec<&str> = a.iter().map(|p| p.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), a.len(), "pair names must be unique (they key the gate)");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source_old, y.source_old);
            assert_eq!(x.source_new, y.source_new);
            assert_eq!(x.tight, y.tight);
        }
    }

    #[test]
    fn manifest_covers_the_whole_shape_grid() {
        let manifest = table2_manifest();
        for depth in 1..=3u32 {
            assert!(manifest.iter().any(|p| p.shape.depth == depth));
        }
        assert!(manifest.iter().any(|p| p.shape.phases == 2));
        assert!(manifest.iter().any(|p| p.shape.dependent));
        assert!(manifest.iter().any(|p| p.shape.disjunctive));
        assert!(manifest.iter().any(|p| p.shape.padding));
        assert!(manifest.iter().any(|p| p.shape.phase_flip));
        assert!(manifest.iter().any(|p| p.shape.kind == PairKind::Equivalent));
        assert!(manifest.iter().all(|p| p.max_block_len <= dca_ir::MAX_BLOCK_STATEMENTS));
    }

    #[test]
    fn smoke_subset_is_small_and_cheap() {
        let subset = table2_smoke();
        assert!(!subset.is_empty());
        assert!(subset.len() <= 24, "smoke must stay bounded, got {}", subset.len());
        assert!(subset.iter().all(|p| p.shape.depth <= 2 && p.shape.phases == 1));
        // The phase-flip cells must be represented: the smoke step is what gates
        // the split pass on every push.
        assert!(subset.iter().any(|p| p.shape.phase_flip));
    }

    #[test]
    fn generated_sources_compile() {
        // Every distinct shape tag compiles through the full front end (parser,
        // lowering, invariants). One representative per tag keeps this fast.
        let mut seen = std::collections::BTreeSet::new();
        for pair in table2_manifest() {
            if !seen.insert(pair.shape.tag()) {
                continue;
            }
            AnalyzedProgram::from_source(&pair.source_old)
                .unwrap_or_else(|e| panic!("{}: old does not compile: {e}", pair.name));
            AnalyzedProgram::from_source(&pair.source_new)
                .unwrap_or_else(|e| panic!("{}: new does not compile: {e}", pair.name));
        }
    }

    #[test]
    fn exhaustive_oracle_confirms_tight_on_small_pairs() {
        // The generator's bound claim is checked against ground truth: exhaustive
        // exploration of the smallest depth-1 pairs over their full input box must
        // attain exactly `tight` at the corner and never exceed it.
        use dca_ir::{enumerate_box, CostExplorer};
        let explorer = CostExplorer::default();
        let mut checked = 0;
        for pair in table2_manifest() {
            if pair.shape.depth != 1 || pair.shape.phases != 1 || pair.bound_n > 6 {
                continue;
            }
            let new = AnalyzedProgram::from_source(&pair.source_new).unwrap();
            let old = AnalyzedProgram::from_source(&pair.source_old).unwrap();
            let box_new = dca_core::verify::input_box(&new);
            let mut worst = i64::MIN;
            for input in enumerate_box(&box_new) {
                let mut vals = input.clone();
                vals.insert(new.ts.cost_var(), 0);
                let new_bounds = explorer.explore(&new.ts, &vals);
                let old_vals =
                    dca_core::verify::transfer_valuation(&vals, &new.ts, &old.ts);
                let old_bounds = explorer.explore(&old.ts, &old_vals);
                assert!(!new_bounds.truncated && !old_bounds.truncated);
                worst = worst.max(new_bounds.max - old_bounds.min);
            }
            assert_eq!(
                worst, pair.tight,
                "{}: exhaustive worst-case difference disagrees with the generator oracle",
                pair.name
            );
            checked += 1;
            if checked >= 6 {
                break;
            }
        }
        assert!(checked >= 3, "the manifest must contain small depth-1 pairs");
    }
}
