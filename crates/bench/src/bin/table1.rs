//! Regenerates Table 1 of the paper: tightness of differential thresholds on the 19
//! benchmark pairs (plus the Fig. 1 running example), via the parallel batch engine.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dca-bench --bin table1 \
//!     [--jobs N] [--timeout SECS] [--json [PATH]] [name ...]
//! ```
//!
//! With no name filters every benchmark (including the running example) is analyzed.
//! Every pair is solved at the degree the paper used for it (`d = K = 2`, `nested` at 3).
//! `--jobs N` sets the worker-thread count (default: one per CPU); `--timeout SECS` bounds
//! each solve so pathological LPs report `x` instead of stalling the table;
//! `--json [PATH]` additionally writes the machine-readable run record (default
//! `BENCH_table1.json`) so the performance trajectory is tracked across PRs.

use std::process::exit;

use dca_bench::{
    current_commit, format_history_line, format_json, format_table, run_suite_filtered,
    today_utc,
};
use dca_benchmarks::SuiteConfig;

/// Parses the value following `flag`, exiting with a clear message when the flag is
/// present but malformed or missing its value (silently falling back to a default
/// would e.g. disable a mistyped `--timeout` and stall the run for minutes).
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
    // A removed or mistyped flag must not silently fall back to a default run.
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with("--") && !["--jobs", "--timeout", "--json"].contains(&a.as_str()))
    {
        eprintln!("error: unknown option {unknown}");
        exit(2);
    }
    let jobs: usize = parse_flag(&args, "--jobs").unwrap_or(0);
    let time_budget =
        parse_flag::<u64>(&args, "--timeout").map(std::time::Duration::from_secs);
    // `--json` takes an optional path, consumed only when the next argument ends in
    // `.json` (benchmark-name filters never do, so the grammar stays unambiguous).
    let json_takes_value = |pos: usize| {
        args.get(pos + 1).is_some_and(|next| next.ends_with(".json"))
    };
    let json_path: Option<String> = args.iter().position(|a| a == "--json").map(|pos| {
        if json_takes_value(pos) {
            args[pos + 1].clone()
        } else {
            "BENCH_table1.json".to_string()
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
                if ["--jobs", "--timeout"].contains(&a.as_str()) {
                    skip_next = true;
                    return false;
                }
                if a.as_str() == "--json" {
                    skip_next = json_takes_value(*pos);
                    return false;
                }
                !a.starts_with("--")
            })
            .map(|(_, a)| a.clone())
            .collect()
    };

    let run = run_suite_filtered(&SuiteConfig { jobs, time_budget }, &filters);
    if run.rows.is_empty() && !filters.is_empty() {
        // A silently empty run is almost always a mistyped filter (or a `--json` path
        // that does not end in `.json` and fell through to the filters).
        eprintln!(
            "error: no benchmark matches the filter(s) {filters:?}; run without filters \
             to see all names"
        );
        exit(2);
    }

    println!(
        "\nTable 1: tightness of differential thresholds ({} benchmarks, {} worker threads)\n",
        run.rows.len(),
        run.jobs,
    );
    println!("{}", format_table(&run.rows));
    let tight = run.rows.iter().filter(|r| r.is_tight()).count();
    println!("tight thresholds: {}/{}", tight, run.rows.len());
    println!(
        "wall-clock {:.2}s, cpu {:.2}s (speedup {:.2}x over serial)",
        run.wall_clock.as_secs_f64(),
        run.cpu_time.as_secs_f64(),
        run.cpu_time.as_secs_f64() / run.wall_clock.as_secs_f64().max(1e-9),
    );
    if let Some(path) = json_path {
        match std::fs::write(&path, format_json(&run)) {
            Ok(()) => println!("wrote {path}"),
            Err(error) => {
                eprintln!("error: cannot write {path}: {error}");
                exit(1);
            }
        }
        // Bench trajectory: append one summary line per `--json` run so performance
        // is tracked *across* PRs, not just overwritten by them. Only full-suite
        // runs are recorded — filtered runs would make the per-row series ragged.
        if filters.is_empty() {
            let history_path = "BENCH_history.jsonl";
            let line = format_history_line(&run, &today_utc(), &current_commit());
            use std::io::Write;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(history_path)
                .and_then(|mut file| writeln!(file, "{line}"));
            match appended {
                Ok(()) => println!("appended {history_path}"),
                Err(error) => eprintln!("warning: cannot append {history_path}: {error}"),
            }
        }
    }
}
