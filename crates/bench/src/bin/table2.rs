//! Table-2 generated-corpus bench: solves the seeded generator corpus, runs the
//! differential soundness harness over every solved pair, and gates regressions
//! against the committed `BENCH_table2.json` baseline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dca-bench --bin table2 -- \
//!     [--smoke] [--jobs N] [--timeout SECS] [--limit N] [--samples N] \
//!     [--no-differential] [--json [PATH]] [name ...]
//! ```
//!
//! `--smoke` restricts the corpus to the small deterministic CI subset (cheap
//! depth-1/2 single-phase shapes, one per class; ≤60 s on a 1-CPU box including the
//! harness). The full corpus (≥200 pairs) is the default and is what the committed
//! `BENCH_table2.json` records. Every solved pair is (a) interpreter-sampled to check
//! the reported bound is never violated on concrete runs, and (b) unless
//! `--no-differential`, solved once more under the exact backend, asserting the same
//! integer threshold. The exact solves are a second batch run at `--jobs`, with the
//! batch's containment and `--timeout` as their per-solve budget, so a timeout or a
//! panic there surfaces as a loud disagreement rather than a silent pass. An unknown
//! `--` flag is an error (exit 2): a mistyped `--smoke` must not start the full
//! corpus.
//!
//! Exit code 0 requires: every pair solved, 100% sampled-sound, 100% differential
//! agreement (when run), ≥90% of pairs proven tight *and* lp-certified, and no
//! >2x per-row time regression against the committed baseline (rows without a
//! > baseline entry are skipped — new pairs never fail CI on first introduction).

use std::process::exit;

use dca_bench::{
    append_history, cpu_baseline, current_commit, format_history_line_tagged, format_table,
    format_table2_json, peak_rss_mb, records_history, time_regressions, today_utc, Args, SuiteRun,
    Table2Row, TableRow,
};
use dca_benchmarks::table2::{
    check_sampled_soundness, run_table2, table2_jobs, table2_manifest, table2_smoke,
};
use dca_core::batch::{run_batch, BatchJob};

const TIME_REGRESSION_FACTOR: f64 = 2.0;
const TIME_FLOOR_SECONDS: f64 = 1.0;
/// Minimum fraction of pairs that must be proven tight and certified (acceptance
/// criterion of the generated corpus: every bound is tight by construction).
const TIGHT_FRACTION: f64 = 0.9;
/// The committed run record: `--json` writes it when no path follows, and it is the
/// per-row CPU baseline of the time gate.
const DEFAULT_JSON: &str = "BENCH_table2.json";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (config, limit, samples, args) = Args::parse(
        &argv,
        &["--jobs", "--timeout", "--limit", "--samples"],
        &["--smoke", "--no-differential"],
        DEFAULT_JSON,
    )
    .and_then(|args| {
        let limit: Option<usize> = args.value("--limit")?;
        let samples: usize = args.value("--samples")?.unwrap_or(6);
        Ok((args.batch_config()?, limit, samples, args))
    })
    .unwrap_or_else(|error| {
        eprintln!("error: {error}");
        exit(2);
    });
    let smoke = args.has("--smoke");
    let differential = !args.has("--no-differential");
    let filters = &args.filters;

    let mut pairs = if smoke { table2_smoke() } else { table2_manifest() };
    if !filters.is_empty() {
        pairs.retain(|p| filters.iter().any(|f| p.name.contains(f.as_str())));
    }
    if let Some(limit) = limit {
        pairs.truncate(limit);
    }
    if pairs.is_empty() {
        eprintln!("error: no pairs selected");
        exit(2);
    }
    eprintln!(
        "table2: {} generated pairs ({}){}",
        pairs.len(),
        if smoke { "smoke subset" } else { "full corpus" },
        if differential { ", with differential harness" } else { "" },
    );

    let report = run_table2(&pairs, &config);
    let (wall_clock, cpu_time, jobs) = (report.wall_clock, report.cpu_time(), report.jobs);
    // The differential: every pair the certified batch solved, once more under the
    // exact backend, as a second batch with the same worker count and budget.
    let exact_jobs: Vec<BatchJob> = table2_jobs(&pairs)
        .into_iter()
        .zip(&report.outcomes)
        .filter(|(_, outcome)| differential && outcome.is_solved())
        .map(|(job, _)| {
            let options = job.options.exact();
            job.with_options(options)
        })
        .collect();
    let mut exact = run_batch(&exact_jobs, &config).outcomes.into_iter();
    let mut failures = Vec::new();
    let mut rows: Vec<Table2Row> = Vec::new();
    for (pair, outcome) in pairs.iter().zip(report.outcomes) {
        let sound = match &outcome.result {
            Ok(result) => {
                // The interpreter-sampled check: the observed cost difference
                // under-approximates the true supremum, so any violation is real.
                match check_sampled_soundness(pair, result.threshold, samples) {
                    Ok(()) => Some(true),
                    Err(violations) => {
                        for v in violations.iter().take(3) {
                            failures.push(format!("{}: UNSOUND — {v}", pair.name));
                        }
                        Some(false)
                    }
                }
            }
            Err(error) => {
                failures.push(format!("{}: solve failed — {error}", pair.name));
                None
            }
        };
        // Both backends prove exact rational optima, so their integer thresholds
        // must match exactly: any disagreement is a bug in one of them.
        let agree = match (&outcome.result, differential) {
            (Ok(result), true) => {
                let certified = Some(result.threshold_int());
                let exact = exact.next().and_then(|o| o.result.ok()).map(|r| r.threshold_int());
                if certified != exact {
                    failures.push(format!(
                        "DIFFERENTIAL — {}: certified backend computed {certified:?} but \
                         exact backend computed {exact:?}",
                        pair.name
                    ));
                }
                Some(certified == exact)
            }
            _ => None,
        };
        let table = TableRow::from_outcome(&pair.name, pair.shape.tag(), pair.tight, None, outcome);
        rows.push(Table2Row { table, seed: pair.seed, sound, agree });
    }

    println!("{}", format_table(rows.iter().map(|r| &r.table)));
    let tight = rows.iter().filter(|r| r.table.is_tight()).count();
    let certified_tight = rows
        .iter()
        .filter(|r| r.table.is_tight() && r.table.outcome.stats().is_some_and(|s| s.lp_certified))
        .count();
    let sound = rows.iter().filter(|r| r.sound == Some(true)).count();
    let agree = rows.iter().filter(|r| r.agree == Some(true)).count();
    println!(
        "table2: {} pairs — {} tight ({} certified), {} sampled-sound, {} agree — {:.2}s wall",
        rows.len(),
        tight,
        certified_tight,
        sound,
        agree,
        wall_clock.as_secs_f64(),
    );

    // The committed-baseline time gate (shared with smoke): per-row >2x in CPU
    // seconds (load-immune) with a 1 s floor; rows without a baseline entry are
    // skipped gracefully.
    let baseline = cpu_baseline(DEFAULT_JSON);
    let timed: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (r.table.name.clone(), r.table.outcome.cpu_duration.as_secs_f64()))
        .collect();
    let (time_regs, covered) =
        time_regressions(&timed, &baseline, TIME_REGRESSION_FACTOR, TIME_FLOOR_SECONDS);
    failures.extend(time_regs);
    let total = rows.len();
    let fraction = certified_tight as f64 / total as f64;
    if fraction < TIGHT_FRACTION {
        failures.push(format!(
            "only {certified_tight}/{total} pairs are tight and certified \
             ({:.0}% < {:.0}% required)",
            fraction * 100.0,
            TIGHT_FRACTION * 100.0
        ));
    }

    if let Some(path) = &args.json {
        let json = format_table2_json(&rows, wall_clock, cpu_time, jobs, peak_rss_mb());
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            exit(2);
        });
        eprintln!("wrote {path}");
        // The history trajectory only records full unfiltered corpus runs into the
        // default record, so the per-row series stays comparable across commits.
        let full_run = !smoke && filters.is_empty() && limit.is_none();
        if records_history(path, DEFAULT_JSON, full_run) {
            let run = SuiteRun {
                rows: rows.into_iter().map(|r| r.table).collect(),
                wall_clock,
                cpu_time,
                jobs,
                peak_rss_mb: peak_rss_mb(),
            };
            append_history(&format_history_line_tagged(
                &run,
                &today_utc(),
                &current_commit(),
                "table2",
            ));
        }
    }

    if !failures.is_empty() {
        eprintln!("table2 FAILED ({} problems):", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        exit(1);
    }
    println!(
        "table2 OK: {certified_tight}/{total} tight+certified, all sampled-sound{}, \
         {covered} rows time-gated",
        if differential { ", all backends agree" } else { "" },
    );
}
