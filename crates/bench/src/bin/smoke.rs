//! Fast Table-1 smoke bench for CI: runs a ≤60 s subset of the suite at the paper
//! configuration and fails on any *status* regression (tight rows must stay tight)
//! or on a >2x per-row *time* regression against the committed `BENCH_table1.json`
//! baseline.
//!
//! The subset (SimpleSingle, SimpleSingle2, Dis2, sum, ddec, ddec modified) covers a
//! non-zero tight threshold, the once-regressed sequential-loop shape, a two-counter
//! loop, and the equivalent-rewrite zero-threshold pairs — the shapes whose statuses
//! have historically regressed. A `SimpleSingle2`-style regression (recorded as
//! `failed` in `BENCH_table1.json` by an earlier PR while every test stayed green)
//! is caught here, in CI, instead of in the benchmark JSON.
//!
//! Usage: `cargo run --release -p dca-bench --bin smoke`
//! Exit code 0 = all subset rows tight; 1 = regression (details on stderr).
//!
//! Under `DCA_FAULT=<phase>:<kind>` the bin switches to *fault-injection mode*: the
//! injected fault must degrade exactly one row to a machine-distinguishable
//! non-certified outcome (`aborted` in the injected phase for `panic`; `truncated`
//! or `aborted` for `deadline`, with any reported bound still sound), while every
//! other row stays tight and certified — proving one faulty pair cannot take down
//! or silently corrupt the rest of the batch.

use std::process::exit;
use std::time::Duration;

use dca_bench::{cpu_baseline, format_table, run_suite_filtered, time_regressions, TableRow};
use dca_core::batch::BatchConfig;

/// The subset, by exact name. Every one of these rows is expected `tight`.
const SUBSET: [&str; 6] =
    ["SimpleSingle", "SimpleSingle2", "Dis2", "sum", "ddec", "ddec modified"];

fn main() {
    // Generous per-solve ceiling; the whole subset solves in seconds. A row that needs
    // anywhere near this long is itself a (performance) regression.
    let config = BatchConfig::with_jobs(1).with_time_budget(Duration::from_secs(60));
    let filters: Vec<String> = SUBSET.iter().map(|s| s.to_string()).collect();
    let run = run_suite_filtered(&config, &filters);
    println!("{}", format_table(&run.rows));
    println!(
        "smoke subset: {} rows in {:.2}s",
        run.rows.len(),
        run.wall_clock.as_secs_f64()
    );

    if let Ok(spec) = std::env::var("DCA_FAULT") {
        fault_mode(&run.rows, &spec);
        return;
    }

    // Per-row time baseline from the committed benchmark record. A row is a time
    // regression when it runs > 2x its baseline AND slower than an absolute floor
    // (sub-second rows drown in machine noise at a 2x threshold). The gate compares
    // *CPU* seconds, which ignore sibling load and queue wait.
    const TIME_REGRESSION_FACTOR: f64 = 2.0;
    const TIME_FLOOR_SECONDS: f64 = 0.5;
    let baseline = cpu_baseline("BENCH_table1.json");

    let mut regressions = Vec::new();
    let mut timed_rows = Vec::new();
    for name in SUBSET {
        match run.rows.iter().find(|row| row.name == name) {
            // Every subset row was certified-tight at its baseline commit, so a row
            // that degrades down the ladder (truncated/aborted) is a regression even
            // when its anytime bound happens to equal the tight threshold.
            Some(row) if row.is_tight() && row.outcome.outcome().is_certified() => {
                timed_rows.push((row.name.clone(), row.outcome.cpu_duration.as_secs_f64()));
            }
            Some(row) => regressions.push(format!(
                "{name}: expected certified-tight ({}), computed {:?} ({})",
                row.tight,
                row.computed_int(),
                row.outcome.outcome().label()
            )),
            None => regressions.push(format!("{name}: missing from the suite")),
        }
    }
    // Shared gate: rows without a committed baseline entry are skipped, so a freshly
    // added subset member cannot fail CI before its baseline lands.
    let (time_regs, _) = time_regressions(
        &timed_rows,
        &baseline,
        TIME_REGRESSION_FACTOR,
        TIME_FLOOR_SECONDS,
    );
    regressions.extend(time_regs);
    if !regressions.is_empty() {
        eprintln!("smoke bench FAILED:");
        for regression in &regressions {
            eprintln!("  {regression}");
        }
        exit(1);
    }
    if baseline.is_empty() {
        println!(
            "smoke bench OK: all {} subset rows tight (time gate skipped: no baseline)",
            SUBSET.len()
        );
    } else {
        println!(
            "smoke bench OK: all {} subset rows tight, within {}x of their time baselines",
            SUBSET.len(),
            TIME_REGRESSION_FACTOR
        );
    }
}

/// The `DCA_FAULT` expectations: one degraded row with the right ladder outcome, all
/// siblings untouched. Exits non-zero with details on any violation.
fn fault_mode(rows: &[TableRow], spec: &str) {
    let mut parts = spec.split(':');
    let phase = parts.next().unwrap_or_default();
    let kind = parts.next().unwrap_or_default();
    let mut failures = Vec::new();
    let certified = |row: &&TableRow| row.outcome.outcome().is_certified();
    let degraded: Vec<&TableRow> = rows.iter().filter(|row| !certified(row)).collect();
    match degraded.as_slice() {
        [row] => {
            let ladder = row.outcome.outcome();
            match kind {
                "panic" => {
                    if ladder.label() != "aborted" {
                        failures.push(format!(
                            "{}: expected aborted, got {}",
                            row.name,
                            ladder.label()
                        ));
                    }
                    let aborted_phase = ladder.aborted_phase().map(|p| p.as_str());
                    if aborted_phase != Some(phase) {
                        failures.push(format!(
                            "{}: expected abort in phase {phase}, got {aborted_phase:?}",
                            row.name
                        ));
                    }
                }
                "deadline" => {
                    // The row is truncated or aborted (it is not certified). A
                    // truncated row still carries a bound — it must stay sound (an
                    // over-approximation of the tight threshold).
                    if let Some(computed) = row.computed_int() {
                        if computed < row.tight {
                            failures.push(format!(
                                "{}: unsound bound under fault — computed {computed} < tight {}",
                                row.name, row.tight
                            ));
                        }
                    }
                }
                _ => failures.push(format!("unsupported DCA_FAULT kind {kind:?} in fault mode")),
            }
        }
        [] => failures.push(format!(
            "DCA_FAULT={spec} injected nothing: every row still certified"
        )),
        many => failures.push(format!(
            "DCA_FAULT={spec} degraded {} rows (expected exactly 1): {:?}",
            many.len(),
            many.iter().map(|r| r.name.as_str()).collect::<Vec<_>>()
        )),
    }
    // Containment: every non-degraded row must be exactly as good as a fault-free run.
    for row in rows.iter().filter(certified) {
        if !row.is_tight() {
            failures.push(format!(
                "{}: lost tightness under an unrelated fault — computed {:?}, tight {}",
                row.name,
                row.computed_int(),
                row.tight
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("fault-injection smoke FAILED (DCA_FAULT={spec}):");
        for failure in &failures {
            eprintln!("  {failure}");
        }
        exit(1);
    }
    println!(
        "fault-injection smoke OK: {spec} degraded exactly one row, all {} siblings \
         stayed certified-tight",
        rows.len() - 1
    );
}
