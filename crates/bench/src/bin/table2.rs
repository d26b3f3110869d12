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
//! `--no-differential`, re-solved under the exact backend, asserting verdict
//! agreement (`--timeout` also bounds that re-solve, so a timeout there surfaces as a
//! loud disagreement rather than a silent pass).
//!
//! Exit code 0 requires: every pair solved, 100% sampled-sound, 100% differential
//! agreement (when run), ≥90% of pairs proven tight *and* lp-certified, and no
//! >2x per-row time regression against the committed baseline (rows without a
//! > baseline entry are skipped — new pairs never fail CI on first introduction).

use std::process::exit;
use std::time::Duration;

use dca_bench::{
    current_commit, format_history_line_tagged, format_table, format_table2_json,
    parse_baseline_cpu_seconds, parse_baseline_seconds, peak_rss_mb, table2_row,
    time_regressions, today_utc, SuiteRun, Table2Row,
};
use dca_benchmarks::table2::{
    check_sampled_soundness, differential_verdicts, run_table2, table2_manifest, table2_smoke,
};

const TIME_REGRESSION_FACTOR: f64 = 2.0;
const TIME_FLOOR_SECONDS: f64 = 1.0;
/// Minimum fraction of pairs that must be proven tight and certified (acceptance
/// criterion of the generated corpus: every bound is tight by construction).
const TIGHT_FRACTION: f64 = 0.9;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let position = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(position + 1) else {
        eprintln!("error: {flag} requires a value");
        exit(2);
    };
    match value.parse() {
        Ok(parsed) => Some(parsed),
        Err(_) => {
            eprintln!("error: invalid {flag} {value}");
            exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs: usize = parse_flag(&args, "--jobs").unwrap_or(0);
    let time_budget = parse_flag::<u64>(&args, "--timeout").map(Duration::from_secs);
    let limit: Option<usize> = parse_flag(&args, "--limit");
    let samples: usize = parse_flag(&args, "--samples").unwrap_or(6);
    let differential = !args.iter().any(|a| a == "--no-differential");
    let json_takes_value =
        |pos: usize| args.get(pos + 1).is_some_and(|next| next.ends_with(".json"));
    let json_path: Option<String> = args.iter().position(|a| a == "--json").map(|pos| {
        if json_takes_value(pos) {
            args[pos + 1].clone()
        } else {
            "BENCH_table2.json".to_string()
        }
    });
    let filters: Vec<String> = {
        let mut skip_next = false;
        args.iter()
            .enumerate()
            .filter(|(pos, a)| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if ["--jobs", "--timeout", "--limit", "--samples"].contains(&a.as_str()) {
                    skip_next = true;
                    return false;
                }
                if *a == "--json" {
                    skip_next = json_takes_value(*pos);
                    return false;
                }
                !a.starts_with("--")
            })
            .map(|(_, a)| a.clone())
            .collect()
    };

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

    let report = run_table2(&pairs, jobs, time_budget);
    let mut failures = Vec::new();
    let mut rows: Vec<Table2Row> = Vec::new();
    for (pair, outcome) in pairs.iter().zip(&report.outcomes) {
        assert_eq!(pair.name, outcome.name, "manifest and batch outcomes diverged");
        let table = table2_row(pair, outcome);
        let pruned =
            outcome.stats().map(|s| s.transitions_pruned).unwrap_or(0);
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
        let agree = if differential && outcome.result.is_ok() {
            let verdict = differential_verdicts(pair, time_budget);
            for d in &verdict.disagreements {
                failures.push(format!("DIFFERENTIAL — {d}"));
            }
            Some(verdict.agree())
        } else {
            None
        };
        rows.push(Table2Row { table, seed: pair.seed, sound, agree, pruned });
    }

    let table_rows: Vec<_> = rows.iter().map(|r| r.table.clone()).collect();
    println!("{}", format_table(&table_rows));
    let tight = rows.iter().filter(|r| r.table.is_tight()).count();
    let certified_tight = rows
        .iter()
        .filter(|r| r.table.is_tight() && r.table.lp_certified)
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
        report.wall_clock.as_secs_f64(),
    );

    // The committed-baseline time gate (shared with smoke): per-row >2x with a 1 s
    // floor; rows without a baseline entry are skipped gracefully. Compared in CPU
    // seconds (load-immune), with a wall-clock fallback for pre-cpu_seconds
    // baselines.
    let baseline = match std::fs::read_to_string("BENCH_table2.json") {
        Ok(json) => {
            let cpu = parse_baseline_cpu_seconds(&json);
            if cpu.is_empty() { parse_baseline_seconds(&json) } else { cpu }
        }
        Err(error) => {
            eprintln!(
                "warning: BENCH_table2.json not readable ({error}); the \
                 >{TIME_REGRESSION_FACTOR}x time-regression gate is DISABLED for this run"
            );
            Vec::new()
        }
    };
    let timed: Vec<(String, f64)> =
        rows.iter().map(|r| (r.table.name.clone(), r.table.cpu_seconds)).collect();
    let (time_regs, covered) =
        time_regressions(&timed, &baseline, TIME_REGRESSION_FACTOR, TIME_FLOOR_SECONDS);
    failures.extend(time_regs);
    let fraction = certified_tight as f64 / rows.len() as f64;
    if fraction < TIGHT_FRACTION {
        failures.push(format!(
            "only {certified_tight}/{} pairs are tight and certified \
             ({:.0}% < {:.0}% required)",
            rows.len(),
            fraction * 100.0,
            TIGHT_FRACTION * 100.0
        ));
    }

    if let Some(path) = &json_path {
        std::fs::write(
            path,
            format_table2_json(
                &rows,
                report.wall_clock,
                report.cpu_time(),
                report.jobs,
                peak_rss_mb(),
            ),
        )
            .unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                exit(2);
            });
        eprintln!("wrote {path}");
        // The history trajectory only records full unfiltered corpus runs, so the
        // per-row series stays comparable across commits.
        if !smoke && filters.is_empty() && limit.is_none() {
            let run = SuiteRun {
                rows: table_rows,
                wall_clock: report.wall_clock,
                cpu_time: report.cpu_time(),
                jobs: report.jobs,
                peak_rss_mb: peak_rss_mb(),
            };
            let line =
                format_history_line_tagged(&run, &today_utc(), &current_commit(), "table2");
            use std::io::Write;
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open("BENCH_history.jsonl")
            {
                Ok(mut file) => {
                    let _ = writeln!(file, "{line}");
                    eprintln!("appended BENCH_history.jsonl");
                }
                Err(error) => eprintln!("warning: cannot append BENCH_history.jsonl: {error}"),
            }
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
        "table2 OK: {}/{} tight+certified, all sampled-sound{}, {} rows time-gated",
        certified_tight,
        rows.len(),
        if differential { ", all backends agree" } else { "" },
        covered,
    );
}
