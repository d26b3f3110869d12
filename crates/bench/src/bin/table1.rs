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
//! `BENCH_table1.json`) so the performance trajectory is tracked across PRs. An
//! unknown `--` flag is an error (exit 2), never a silent default run.

use std::process::exit;

use dca_bench::{
    append_history, current_commit, format_history_line, format_json, format_table,
    run_suite_filtered, today_utc, Args,
};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (config, args) = Args::parse(&argv, &["--jobs", "--timeout"], &[], "BENCH_table1.json")
        .and_then(|args| Ok((args.batch_config()?, args)))
        .unwrap_or_else(|error| {
            eprintln!("error: {error}");
            exit(2);
        });
    let filters = &args.filters;

    let run = run_suite_filtered(&config, filters);
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
    if let Some(path) = &args.json {
        match std::fs::write(path, format_json(&run)) {
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
            append_history(&format_history_line(&run, &today_utc(), &current_commit()));
        }
    }
}
