//! Wall-clock benchmark groups over the Table-1 pipeline.
//!
//! This is a `harness = false` benchmark with a self-contained timing loop (the
//! workspace builds fully offline, so it deliberately avoids external harness crates).
//! Each group measures the full analysis pipeline (parse → lower → invariants → LP
//! synthesis) on one representative per Table-1 group, plus the parallel batch engine on
//! the whole suite; the full table is regenerated by the `table1` binary.
//!
//! Usage: `cargo bench -p dca-bench` (or `cargo bench -p dca-bench -- <filter>`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use dca_benchmarks::{all_benchmarks, evaluation, running_example, Benchmark};
use dca_core::batch::{run_batch, BatchConfig};

/// Runs `f` repeatedly for roughly `budget` (at least `min_samples` times, at most 50)
/// and reports the per-iteration median.
fn bench<F: FnMut()>(name: &str, budget: Duration, min_samples: usize, mut f: F) {
    // One warm-up iteration so lazily-initialized state is excluded from samples —
    // except for single-sample entries (the multi-minute suite runs), where a
    // discarded warm-up would double the cost of the whole bench.
    if min_samples > 1 {
        f();
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < min_samples {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
        if samples.len() >= 50 {
            break;
        }
    }
    samples.sort();
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!(
        "{name:<40} median {:>10.3?}  min {:>10.3?}  ({} samples)",
        median,
        min,
        samples.len()
    );
}

fn representative(name: &str) -> Benchmark {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

fn main() {
    // Cargo invokes harness = false benches as `<bin> --bench [user args]`, so the
    // filter is the first argument that is not a flag.
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let wants = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));

    println!("table1 pipeline (parse → lower → invariants → LP synthesis)");
    for name in ["SimpleSingle", "sum"] {
        if !wants(name) {
            continue;
        }
        let jobs = [representative(name).job()];
        bench(&format!("table1/{name}"), Duration::from_secs(15), 3, || {
            let report = run_batch(&jobs, &BatchConfig::with_jobs(1));
            black_box(report);
        });
    }

    if wants("frontend") {
        let join = running_example();
        bench(
            "frontend/parse_lower_invariants_join",
            Duration::from_secs(5),
            3,
            || {
                let program = dca_core::AnalyzedProgram::from_source(join.source_new).unwrap();
                black_box(program);
            },
        );
    }

    // The batch engine on the full 19-pair suite (+ running example): this is the
    // number the performance trajectory tracks, measured serially and in parallel. A
    // per-attempt budget keeps the handful of known-pathological LPs (nested, join,
    // Dis1, NestedSingle, NestedMultipleDep — see EXPERIMENTS.md) from dominating the
    // bench; their rows report Timeout and still count toward the wall clock.
    for jobs in [1, 4] {
        let name = format!("suite/batch_jobs_{jobs}");
        if !wants(&name) {
            continue;
        }
        let config = BatchConfig::with_jobs(jobs).with_time_budget(Duration::from_secs(10));
        let suite: Vec<_> = evaluation(&[]).iter().map(Benchmark::job).collect();
        bench(&name, Duration::from_secs(0), 1, || {
            let report = run_batch(&suite, &config);
            black_box(report);
        });
    }
}
