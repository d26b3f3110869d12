//! Quickstart: the paper's running example (Fig. 1).
//!
//! Two versions of `join` iterate over a pair of collections; the revision interchanges
//! the loops and doubles the per-pair operator cost. The analysis proves that the new
//! version costs at most `lenA * lenB <= 10000` more than the old one.
//!
//! Run with: `cargo run --release --example quickstart`

use diffcost::benchmarks::running_example;
use diffcost::prelude::*;

fn main() {
    let benchmark = running_example();
    println!("== old version ==\n{}", benchmark.source_old.trim());
    println!("\n== new version ==\n{}", benchmark.source_new.trim());

    let old = AnalyzedProgram::from_source(benchmark.source_old).expect("old version compiles");
    let new = AnalyzedProgram::from_source(benchmark.source_new).expect("new version compiles");

    println!("\nlowered old version:\n{}", old.ts.render());

    let solver = DiffCostSolver::new(AnalysisOptions::default());
    match solver.solve(&new, &old) {
        Ok(result) => {
            println!("differential threshold t = {:.2}", result.threshold);
            println!("integer threshold        = {}", result.threshold_int());
            println!("LP size: {} variables, {} constraints, solved in {:?}",
                result.stats.lp_variables, result.stats.lp_constraints, result.stats.duration);
            // When a phase split fired, the witnesses are keyed over the split
            // systems carried in the result rather than the inputs.
            let (ts_new, ts_old) = match result.split_systems.as_deref() {
                Some((split_new, split_old)) => (split_new, split_old),
                None => (&new.ts, &old.ts),
            };
            println!("\npotential function for the new version:\n{}",
                result.potential_new.render(ts_new));
            println!("anti-potential function for the old version:\n{}",
                result.anti_potential_old.render(ts_old));
        }
        Err(error) => println!("analysis failed: {error}"),
    }
}
