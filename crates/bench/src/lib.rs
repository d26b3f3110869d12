//! Benchmark harness support: runs the full pipeline on Table-1 benchmarks — serially
//! or through the parallel batch engine — and formats the resulting rows.

use std::time::{Duration, Instant};

use dca_benchmarks::{Benchmark, SuiteConfig};
use dca_core::batch::{BatchReport, PairOutcome};
use dca_core::DiffCostSolver;
use dca_serve::json::{escape, Value};

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Group label (source of the benchmark).
    pub group: String,
    /// Tight threshold (documented, by construction of the reconstruction).
    pub tight: i64,
    /// Threshold the paper's tool computed (`None` = ✗ in the paper).
    pub paper_computed: Option<f64>,
    /// Threshold computed by this implementation (`None` = failure, the ✗ case).
    pub computed: Option<f64>,
    /// Computed threshold rounded down to an integer (sound for integer costs).
    pub computed_int: Option<i64>,
    /// Template degree that produced the result.
    pub degree: u32,
    /// Wall-clock time of the full pipeline (parsing, invariants, LP) in seconds.
    pub seconds: f64,
    /// CPU time (user + system) the solve's thread charged to this row in seconds
    /// (falls back to wall time where the per-thread clock is unavailable). The
    /// time-regression gates compare this instead of `seconds`: CPU time does not
    /// inflate when a run shares the machine with other load.
    pub cpu_seconds: f64,
    /// Size of the synthesized LP (variables, constraints).
    pub lp_size: (usize, usize),
    /// Simplex iterations of the successful solve (0 on failure).
    pub lp_iterations: usize,
    /// Pivots performed by the `f64` phase of the float-first driver.
    pub lp_float_iterations: usize,
    /// Pivots performed by the exact rational simplex (repair + fallback).
    pub lp_exact_iterations: usize,
    /// `true` when the solve's LP hit its deadline mid-phase-2 and the threshold is
    /// an anytime (sound but possibly loose) bound rather than a proven optimum.
    pub lp_truncated: bool,
    /// `true` when the LP answer carries an exact-rational certificate.
    pub lp_certified: bool,
    /// Seconds the LP spent in f64 pivoting / exact certification / exact repair
    /// (the float-first driver's phase split; all 0.0 on failure).
    pub phase_seconds: (f64, f64, f64),
    /// Seconds the LP spent building its sparse standard form, plus the
    /// row-generation core's column gather (0.0 on failure).
    pub lp_build_seconds: f64,
    /// Handelman product multipliers eligible for lazy generation (0 when the
    /// encoding has no degree-≥-2 products or row generation is disabled).
    pub products_total: usize,
    /// Lazy product multipliers in the final solve (≤ `products_total`; all of
    /// them when the full stage ran).
    pub products_generated: usize,
    /// Row-generation stages: 1 = core only, 2 = core then full (0 = eager).
    pub separation_rounds: usize,
    /// Exact simplex pivots absorbed as incremental eta updates of the LU factors.
    pub lu_updates: usize,
    /// Full Markowitz refactorizations performed mid-run by the exact simplex.
    pub lu_refactorizations: usize,
    /// Transitions dropped by the exact infeasible-premise pruner during encoding.
    pub transitions_pruned: usize,
    /// Loop-phase splits applied to the winning solve (0 = unsplit system won or
    /// no phase structure was detected).
    pub phases_split: usize,
    /// Degradation-ladder outcome label: `"certified"`, `"truncated"` or `"aborted"`
    /// (see `dca_core::SolveOutcome`).
    pub outcome: String,
    /// The pipeline phase an aborted solve failed in, when known (`None` for
    /// certified/truncated rows and for failures with no phase attribution).
    pub aborted_phase: Option<String>,
    /// Upper − lower bound gap of a truncated-anytime solve, when the dual side
    /// produced an exact lower bound (`None` otherwise).
    pub gap: Option<f64>,
}

impl TableRow {
    /// `true` if the computed integer threshold equals the tight one.
    pub fn is_tight(&self) -> bool {
        self.computed_int == Some(self.tight)
    }

    /// Builds a row from a batch-engine outcome and the matching benchmark definition.
    pub fn from_outcome(benchmark: &Benchmark, outcome: &PairOutcome) -> TableRow {
        let result = outcome.result.as_ref().ok();
        let ladder = outcome.outcome();
        TableRow {
            name: outcome.name.clone(),
            group: benchmark.group.to_string(),
            tight: benchmark.tight,
            paper_computed: benchmark.paper_computed,
            computed: result.map(|r| r.threshold),
            computed_int: result.map(|r| r.threshold_int()),
            degree: outcome.degree,
            seconds: outcome.duration.as_secs_f64(),
            cpu_seconds: outcome.cpu_duration.as_secs_f64(),
            lp_size: outcome
                .stats()
                .map(|s| (s.lp_variables, s.lp_constraints))
                .unwrap_or((0, 0)),
            lp_iterations: outcome.stats().map(|s| s.lp_iterations).unwrap_or(0),
            lp_float_iterations: outcome.stats().map(|s| s.lp_float_iterations).unwrap_or(0),
            lp_exact_iterations: outcome.stats().map(|s| s.lp_exact_iterations).unwrap_or(0),
            lp_truncated: outcome.stats().map(|s| s.lp_truncated).unwrap_or(false),
            lp_certified: outcome.stats().map(|s| s.lp_certified).unwrap_or(false),
            phase_seconds: outcome
                .stats()
                .map(|s| {
                    (
                        s.lp_float_time.as_secs_f64(),
                        s.lp_certify_time.as_secs_f64(),
                        s.lp_repair_time.as_secs_f64(),
                    )
                })
                .unwrap_or((0.0, 0.0, 0.0)),
            lp_build_seconds: outcome
                .stats()
                .map(|s| s.lp_build_time.as_secs_f64())
                .unwrap_or(0.0),
            products_total: outcome.stats().map(|s| s.lp_products_total).unwrap_or(0),
            products_generated: outcome
                .stats()
                .map(|s| s.lp_products_generated)
                .unwrap_or(0),
            separation_rounds: outcome
                .stats()
                .map(|s| s.lp_separation_rounds)
                .unwrap_or(0),
            lu_updates: outcome.stats().map(|s| s.lp_lu_updates).unwrap_or(0),
            lu_refactorizations: outcome
                .stats()
                .map(|s| s.lp_lu_refactorizations)
                .unwrap_or(0),
            transitions_pruned: outcome
                .stats()
                .map(|s| s.transitions_pruned)
                .unwrap_or(0),
            phases_split: outcome.stats().map(|s| s.phases_split).unwrap_or(0),
            outcome: ladder.label().to_string(),
            aborted_phase: ladder.aborted_phase().map(|p| p.as_str().to_string()),
            gap: ladder.gap(),
        }
    }
}

/// Runs the full differential cost analysis pipeline on one benchmark, serially.
pub fn run_benchmark(benchmark: &Benchmark) -> TableRow {
    let start = Instant::now();
    let cpu_start = dca_core::batch::thread_cpu_time();
    let old = benchmark.old_program();
    let new = benchmark.new_program();
    let options = benchmark.options();
    let solver = DiffCostSolver::new(options);
    let outcome = solver.solve(&new, &old);
    let seconds = start.elapsed().as_secs_f64();
    let cpu_seconds = match (cpu_start, dca_core::batch::thread_cpu_time()) {
        (Some(before), Some(after)) => after.saturating_sub(before).as_secs_f64(),
        _ => seconds,
    };
    match outcome {
        Ok(result) => {
            let ladder = result.outcome();
            TableRow {
            name: benchmark.name.to_string(),
            group: benchmark.group.to_string(),
            tight: benchmark.tight,
            paper_computed: benchmark.paper_computed,
            computed: Some(result.threshold),
            computed_int: Some(result.threshold_int()),
            degree: benchmark.degree,
            seconds,
            cpu_seconds,
            lp_size: (result.stats.lp_variables, result.stats.lp_constraints),
            lp_iterations: result.stats.lp_iterations,
            lp_float_iterations: result.stats.lp_float_iterations,
            lp_exact_iterations: result.stats.lp_exact_iterations,
            lp_truncated: result.stats.lp_truncated,
            lp_certified: result.stats.lp_certified,
            phase_seconds: (
                result.stats.lp_float_time.as_secs_f64(),
                result.stats.lp_certify_time.as_secs_f64(),
                result.stats.lp_repair_time.as_secs_f64(),
            ),
            lp_build_seconds: result.stats.lp_build_time.as_secs_f64(),
            products_total: result.stats.lp_products_total,
            products_generated: result.stats.lp_products_generated,
            separation_rounds: result.stats.lp_separation_rounds,
            lu_updates: result.stats.lp_lu_updates,
            lu_refactorizations: result.stats.lp_lu_refactorizations,
            transitions_pruned: result.stats.transitions_pruned,
            phases_split: result.stats.phases_split,
            outcome: ladder.label().to_string(),
            aborted_phase: ladder.aborted_phase().map(|p| p.as_str().to_string()),
            gap: ladder.gap(),
            }
        }
        Err(error) => TableRow {
            name: benchmark.name.to_string(),
            group: benchmark.group.to_string(),
            tight: benchmark.tight,
            paper_computed: benchmark.paper_computed,
            computed: None,
            computed_int: None,
            degree: benchmark.degree,
            seconds,
            cpu_seconds,
            lp_size: (0, 0),
            lp_iterations: 0,
            lp_float_iterations: 0,
            lp_exact_iterations: 0,
            lp_truncated: false,
            lp_certified: false,
            phase_seconds: (0.0, 0.0, 0.0),
            lp_build_seconds: 0.0,
            products_total: 0,
            products_generated: 0,
            separation_rounds: 0,
            lu_updates: 0,
            lu_refactorizations: 0,
            transitions_pruned: 0,
            phases_split: 0,
            outcome: "aborted".to_string(),
            aborted_phase: error.phase().map(|p| p.as_str().to_string()),
            gap: None,
        },
    }
}

/// The result of a parallel suite run, ready for formatting.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// One row per benchmark (Table-1 order, running example last).
    pub rows: Vec<TableRow>,
    /// Wall-clock time of the whole suite.
    pub wall_clock: Duration,
    /// Sum of per-pair times (the serial cost the parallel run amortized).
    pub cpu_time: Duration,
    /// Effective number of worker threads.
    pub jobs: usize,
    /// Peak resident set size of the process at the end of the run, in MB
    /// ([`peak_rss_mb`]; `None` where `/proc/self/status` is unavailable).
    pub peak_rss_mb: Option<f64>,
}

/// Peak resident set size of this process so far, in MB: the `VmHWM` line of
/// `/proc/self/status`. `None` where that file or line is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.trim_start_matches("VmHWM:").trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders an optional peak RSS as a JSON number with one decimal, or `null`.
fn json_rss(peak_rss_mb: Option<f64>) -> String {
    peak_rss_mb.map(|mb| format!("{mb:.1}")).unwrap_or_else(|| "null".to_string())
}

/// Runs the full 19-pair suite (+ running example) through the parallel batch engine.
pub fn run_suite(config: &SuiteConfig) -> SuiteRun {
    run_suite_filtered(config, &[])
}

/// Like [`run_suite`], restricted to benchmarks whose name contains one of the given
/// substrings (an empty list selects everything).
pub fn run_suite_filtered(config: &SuiteConfig, filters: &[String]) -> SuiteRun {
    let mut benchmarks = dca_benchmarks::all_benchmarks();
    benchmarks.push(dca_benchmarks::running_example());
    benchmarks.retain(|b| dca_benchmarks::matches_filters(b.name, filters));
    let report: BatchReport = dca_benchmarks::run_suite_filtered(config, filters);
    let rows = benchmarks
        .iter()
        .zip(&report.outcomes)
        .map(|(benchmark, outcome)| {
            // The benchmark list and the batch jobs are built independently; a silent
            // zip misalignment would attribute one benchmark's threshold to another's
            // row, so the pairing is checked by name.
            assert_eq!(
                benchmark.name, outcome.name,
                "suite rows and batch outcomes diverged"
            );
            TableRow::from_outcome(benchmark, outcome)
        })
        .collect();
    SuiteRun {
        rows,
        wall_clock: report.wall_clock,
        cpu_time: report.cpu_time(),
        jobs: report.jobs,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Formats a list of rows as the Table-1 style text table.
pub fn format_table(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "benchmark            | tight    | paper    | computed  | int     | d | tight? | time (s)\n",
    );
    out.push_str(
        "---------------------+----------+----------+-----------+---------+---+--------+---------\n",
    );
    for row in rows {
        let paper = row
            .paper_computed
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "x".to_string());
        let computed = row
            .computed
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "x".to_string());
        let computed_int = row
            .computed_int
            .map(|v| v.to_string())
            .unwrap_or_else(|| "x".to_string());
        out.push_str(&format!(
            "{:<21}| {:<9}| {:<9}| {:<10}| {:<8}| {} | {:<7}| {:.2}\n",
            row.name,
            row.tight,
            paper,
            computed,
            computed_int,
            row.degree,
            if row.is_tight() { "yes" } else { "no" },
            row.seconds
        ));
    }
    out
}

/// Renders a suite run as a machine-readable JSON document (no external dependencies,
/// so the encoder is hand-rolled; the schema is stable for cross-PR tracking).
///
/// Top level: `{"wall_clock_s", "cpu_time_s", "jobs", "tight", "total", "rows": [...]}`;
/// each row carries the benchmark name, the documented tight threshold, the computed
/// threshold (`null` on failure), the degree that produced it, its status
/// (`"tight" | "loose" | "failed"`) and the wall time in seconds.
pub fn format_json(run: &SuiteRun) -> String {
    fn opt_f64(v: Option<f64>) -> String {
        v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "null".to_string())
    }
    fn opt_i64(v: Option<i64>) -> String {
        v.map(|v| v.to_string()).unwrap_or_else(|| "null".to_string())
    }
    let rows: Vec<String> = run
        .rows
        .iter()
        .map(|row| {
            let status = if row.is_tight() {
                "tight"
            } else if row.computed.is_some() {
                "loose"
            } else {
                "failed"
            };
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"group\": \"{}\", \"tight\": {}, ",
                    "\"paper\": {}, \"computed\": {}, \"computed_int\": {}, ",
                    "\"degree\": {}, \"status\": \"{}\", ",
                    "\"seconds\": {:.2}, \"cpu_seconds\": {:.2}, ",
                    "\"lp_variables\": {}, \"lp_constraints\": {}, ",
                    "\"lp_iterations\": {}, \"lp_float_pivots\": {}, \"lp_exact_pivots\": {}, ",
                    "\"lp_truncated\": {}, \"lp_certified\": {}, ",
                    "\"float_s\": {:.3}, \"certify_s\": {:.3}, \"repair_s\": {:.3}, ",
                    "\"lp_build_s\": {:.3}, ",
                    "\"products_total\": {}, \"products_generated\": {}, ",
                    "\"separation_rounds\": {}, \"lu_updates\": {}, ",
                    "\"lu_refactorizations\": {}, ",
                    "\"transitions_pruned\": {}, \"phases_split\": {}, ",
                    "\"outcome\": \"{}\", \"aborted_phase\": {}, \"gap\": {}}}"
                ),
                escape(&row.name),
                escape(&row.group),
                row.tight,
                opt_f64(row.paper_computed),
                opt_f64(row.computed),
                opt_i64(row.computed_int),
                row.degree,
                status,
                row.seconds,
                row.cpu_seconds,
                row.lp_size.0,
                row.lp_size.1,
                row.lp_iterations,
                row.lp_float_iterations,
                row.lp_exact_iterations,
                row.lp_truncated,
                row.lp_certified,
                row.phase_seconds.0,
                row.phase_seconds.1,
                row.phase_seconds.2,
                row.lp_build_seconds,
                row.products_total,
                row.products_generated,
                row.separation_rounds,
                row.lu_updates,
                row.lu_refactorizations,
                row.transitions_pruned,
                row.phases_split,
                escape(&row.outcome),
                row.aborted_phase
                    .as_ref()
                    .map(|p| format!("\"{}\"", escape(p)))
                    .unwrap_or_else(|| "null".to_string()),
                opt_f64(row.gap),
            )
        })
        .collect();
    format!(
        "{{\n  \"wall_clock_s\": {:.2},\n  \"cpu_time_s\": {:.2},\n  \"jobs\": {},\n  \
         \"peak_rss_mb\": {},\n  \
         \"tight\": {},\n  \"total\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        run.wall_clock.as_secs_f64(),
        run.cpu_time.as_secs_f64(),
        run.jobs,
        json_rss(run.peak_rss_mb),
        run.rows.iter().filter(|r| r.is_tight()).count(),
        run.rows.len(),
        rows.join(",\n"),
    )
}

/// Formats one `BENCH_history.jsonl` line for a suite run: date, commit, tightness,
/// wall-clock and per-row seconds, all on a single line so the file diffs cleanly and
/// `grep`/`jq` can consume it without a JSON-array parser.
pub fn format_history_line(run: &SuiteRun, date: &str, commit: &str) -> String {
    format_history_line_tagged(run, date, commit, "table1")
}

/// Like [`format_history_line`], with an explicit suite tag so Table-1 and Table-2
/// runs share one `BENCH_history.jsonl` without ambiguity.
pub fn format_history_line_tagged(
    run: &SuiteRun,
    date: &str,
    commit: &str,
    suite: &str,
) -> String {
    let rows: Vec<String> = run
        .rows
        .iter()
        .map(|row| format!("\"{}\": {:.2}", escape(&row.name), row.seconds))
        .collect();
    let cpu_rows: Vec<String> = run
        .rows
        .iter()
        .map(|row| format!("\"{}\": {:.2}", escape(&row.name), row.cpu_seconds))
        .collect();
    format!(
        "{{\"date\": \"{}\", \"commit\": \"{}\", \"suite\": \"{}\", \"jobs\": {}, \
         \"tight\": {}, \"total\": {}, \
         \"certified\": {}, \"truncated\": {}, \"aborted\": {}, \
         \"transitions_pruned\": {}, \"phases_split\": {}, \
         \"wall_clock_s\": {:.2}, \"cpu_time_s\": {:.2}, \"peak_rss_mb\": {}, \
         \"row_seconds\": {{{}}}, \"row_cpu_seconds\": {{{}}}}}",
        escape(date),
        escape(commit),
        escape(suite),
        run.jobs,
        run.rows.iter().filter(|r| r.is_tight()).count(),
        run.rows.len(),
        run.rows.iter().filter(|r| r.outcome == "certified").count(),
        run.rows.iter().filter(|r| r.outcome == "truncated").count(),
        run.rows.iter().filter(|r| r.outcome == "aborted").count(),
        run.rows.iter().map(|r| r.transitions_pruned).sum::<usize>(),
        run.rows.iter().map(|r| r.phases_split).sum::<usize>(),
        run.wall_clock.as_secs_f64(),
        run.cpu_time.as_secs_f64(),
        json_rss(run.peak_rss_mb),
        rows.join(", "),
        cpu_rows.join(", "),
    )
}

/// The shared per-row time-regression gate of the smoke and table2 bins: a row
/// regresses when it runs more than `factor` times its committed baseline AND slower
/// than an absolute floor (sub-second rows drown in machine noise at any ratio).
///
/// Rows with *no* baseline entry are skipped — a freshly introduced benchmark must
/// not fail CI before its first baseline is committed; the gate degrades gracefully
/// and reports how many rows it actually covered via the second tuple element.
pub fn time_regressions(
    rows: &[(String, f64)],
    baseline: &[(String, f64)],
    factor: f64,
    floor_seconds: f64,
) -> (Vec<String>, usize) {
    let mut regressions = Vec::new();
    let mut covered = 0usize;
    for (name, seconds) in rows {
        let Some((_, baseline_seconds)) = baseline.iter().find(|(n, _)| n == name) else {
            continue;
        };
        covered += 1;
        let limit = (baseline_seconds * factor).max(floor_seconds);
        if *seconds > limit {
            regressions.push(format!(
                "{name}: time regression — {seconds:.2}s vs {baseline_seconds:.2}s \
                 baseline (>{factor}x)"
            ));
        }
    }
    (regressions, covered)
}

/// Today's date as `YYYY-MM-DD` from the system clock (no external time crates:
/// Howard Hinnant's civil-from-days algorithm over the Unix epoch).
pub fn today_utc() -> String {
    let seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (seconds / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

/// The current `git` commit (short hash), or `"unknown"` outside a repository.
pub fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Extracts `(name, seconds)` pairs from a `BENCH_table1.json` document (the
/// hand-rolled schema written by [`format_json`]; no external JSON parser needed —
/// the smoke bench uses this to gate per-row time regressions against the committed
/// baseline).
pub fn parse_baseline_seconds(json: &str) -> Vec<(String, f64)> {
    parse_baseline_field(json, "seconds")
}

/// Like [`parse_baseline_seconds`], for the per-row `"cpu_seconds"` key. Returns an
/// empty list on baselines committed before the key existed — callers fall back to
/// the wall-clock baseline in that case.
pub fn parse_baseline_cpu_seconds(json: &str) -> Vec<(String, f64)> {
    parse_baseline_field(json, "cpu_seconds")
}

/// Extracts per-row `(name, value)` pairs for one numeric `key` from a BENCH json
/// document's `"rows"` array. Rows without a numeric `key` are skipped; a document
/// that does not parse yields no pairs (the gates then run without a baseline).
fn parse_baseline_field(json: &str, key: &str) -> Vec<(String, f64)> {
    let Ok(document) = Value::parse(json) else { return Vec::new() };
    let Some(Value::Arr(rows)) = document.get("rows") else { return Vec::new() };
    rows.iter()
        .filter_map(|row| {
            Some((row.get("name")?.as_str()?.to_string(), row.get(key)?.as_f64()?))
        })
        .collect()
}

// ----- Table 2 (generated corpus) ---------------------------------------------------

/// One row of the Table-2 generated corpus: the solver-side fields of a [`TableRow`]
/// plus the harness verdicts of the generated pair.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Solver-side fields (`group` carries the shape tag; `tight` the
    /// by-construction bound).
    pub table: TableRow,
    /// The generator seed of the pair.
    pub seed: u64,
    /// Interpreter-sampled soundness: `Some(true)` = no sampled run violated the
    /// reported bound; `None` = not checked (failed solves have no bound to check).
    pub sound: Option<bool>,
    /// Cross-backend agreement: `Some(true)` = certified and exact solves produced
    /// the same verdict; `None` = not run.
    pub agree: Option<bool>,
    /// Transitions pruned as vacuous (infeasible premise) during encoding.
    pub pruned: usize,
}

/// Builds the solver-side [`TableRow`] for a generated pair from its batch outcome.
pub fn table2_row(
    pair: &dca_benchmarks::table2::Pair,
    outcome: &PairOutcome,
) -> TableRow {
    let result = outcome.result.as_ref().ok();
    let ladder = outcome.outcome();
    TableRow {
        name: outcome.name.clone(),
        group: pair.shape.tag(),
        tight: pair.tight,
        paper_computed: None,
        computed: result.map(|r| r.threshold),
        computed_int: result.map(|r| r.threshold_int()),
        degree: outcome.degree,
        seconds: outcome.duration.as_secs_f64(),
        cpu_seconds: outcome.cpu_duration.as_secs_f64(),
        lp_size: outcome
            .stats()
            .map(|s| (s.lp_variables, s.lp_constraints))
            .unwrap_or((0, 0)),
        lp_iterations: outcome.stats().map(|s| s.lp_iterations).unwrap_or(0),
        lp_float_iterations: outcome.stats().map(|s| s.lp_float_iterations).unwrap_or(0),
        lp_exact_iterations: outcome.stats().map(|s| s.lp_exact_iterations).unwrap_or(0),
        lp_truncated: outcome.stats().map(|s| s.lp_truncated).unwrap_or(false),
        lp_certified: outcome.stats().map(|s| s.lp_certified).unwrap_or(false),
        phase_seconds: outcome
            .stats()
            .map(|s| {
                (
                    s.lp_float_time.as_secs_f64(),
                    s.lp_certify_time.as_secs_f64(),
                    s.lp_repair_time.as_secs_f64(),
                )
            })
            .unwrap_or((0.0, 0.0, 0.0)),
        lp_build_seconds: outcome.stats().map(|s| s.lp_build_time.as_secs_f64()).unwrap_or(0.0),
        products_total: outcome.stats().map(|s| s.lp_products_total).unwrap_or(0),
        products_generated: outcome
            .stats()
            .map(|s| s.lp_products_generated)
            .unwrap_or(0),
        separation_rounds: outcome
            .stats()
            .map(|s| s.lp_separation_rounds)
            .unwrap_or(0),
        lu_updates: outcome.stats().map(|s| s.lp_lu_updates).unwrap_or(0),
        lu_refactorizations: outcome
            .stats()
            .map(|s| s.lp_lu_refactorizations)
            .unwrap_or(0),
        transitions_pruned: outcome
            .stats()
            .map(|s| s.transitions_pruned)
            .unwrap_or(0),
        phases_split: outcome.stats().map(|s| s.phases_split).unwrap_or(0),
        outcome: ladder.label().to_string(),
        aborted_phase: ladder.aborted_phase().map(|p| p.as_str().to_string()),
        gap: ladder.gap(),
    }
}

/// Renders a Table-2 run as JSON (same hand-rolled style and `"name"`/`"seconds"` row
/// keys as [`format_json`], so [`parse_baseline_seconds`] and the shared
/// [`time_regressions`] gate consume it unchanged). The top level carries the
/// tight/loose/failed breakdown and the harness verdict counts the acceptance
/// criteria are stated in.
pub fn format_table2_json(
    rows: &[Table2Row],
    wall_clock: Duration,
    cpu_time: Duration,
    jobs: usize,
    peak_rss_mb: Option<f64>,
) -> String {
    fn opt_f64(v: Option<f64>) -> String {
        v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "null".to_string())
    }
    fn opt_bool(v: Option<bool>) -> String {
        v.map(|v| v.to_string()).unwrap_or_else(|| "null".to_string())
    }
    let tight = rows.iter().filter(|r| r.table.is_tight()).count();
    let loose = rows
        .iter()
        .filter(|r| !r.table.is_tight() && r.table.computed.is_some())
        .count();
    let failed = rows.iter().filter(|r| r.table.computed.is_none()).count();
    let sound = rows.iter().filter(|r| r.sound == Some(true)).count();
    let agree = rows.iter().filter(|r| r.agree == Some(true)).count();
    let certified = rows.iter().filter(|r| r.table.lp_certified).count();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let status = if r.table.is_tight() {
                "tight"
            } else if r.table.computed.is_some() {
                "loose"
            } else {
                "failed"
            };
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"shape\": \"{}\", \"seed\": {}, ",
                    "\"tight\": {}, \"computed\": {}, \"computed_int\": {}, ",
                    "\"degree\": {}, \"status\": \"{}\", ",
                    "\"sound\": {}, \"agree\": {}, ",
                    "\"seconds\": {:.2}, \"cpu_seconds\": {:.2}, ",
                    "\"lp_variables\": {}, \"lp_constraints\": {}, ",
                    "\"lp_certified\": {}, \"lp_truncated\": {}, \"lp_build_s\": {:.3}, ",
                    "\"transitions_pruned\": {}, \"phases_split\": {}, ",
                    "\"outcome\": \"{}\", \"aborted_phase\": {}, \"gap\": {}}}"
                ),
                escape(&r.table.name),
                escape(&r.table.group),
                r.seed,
                r.table.tight,
                opt_f64(r.table.computed),
                r.table
                    .computed_int
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                r.table.degree,
                status,
                opt_bool(r.sound),
                opt_bool(r.agree),
                r.table.seconds,
                r.table.cpu_seconds,
                r.table.lp_size.0,
                r.table.lp_size.1,
                r.table.lp_certified,
                r.table.lp_truncated,
                r.table.lp_build_seconds,
                r.pruned,
                r.table.phases_split,
                escape(&r.table.outcome),
                r.table
                    .aborted_phase
                    .as_ref()
                    .map(|p| format!("\"{}\"", escape(p)))
                    .unwrap_or_else(|| "null".to_string()),
                opt_f64(r.table.gap),
            )
        })
        .collect();
    format!(
        "{{\n  \"wall_clock_s\": {:.2},\n  \"cpu_time_s\": {:.2},\n  \"jobs\": {},\n  \
         \"peak_rss_mb\": {},\n  \"total\": {},\n  \
         \"tight\": {},\n  \"loose\": {},\n  \"failed\": {},\n  \"sound\": {},\n  \
         \"agree\": {},\n  \"lp_certified\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        wall_clock.as_secs_f64(),
        cpu_time.as_secs_f64(),
        jobs,
        json_rss(peak_rss_mb),
        rows.len(),
        tight,
        loose,
        failed,
        sound,
        agree,
        certified,
        body.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_line_and_baseline_roundtrip() {
        let row = TableRow {
            name: "Example".into(),
            group: "g".into(),
            tight: 100,
            paper_computed: Some(100.0),
            computed: Some(100.0),
            computed_int: Some(100),
            degree: 2,
            seconds: 1.5,
            cpu_seconds: 1.4,
            lp_size: (10, 20),
            lp_iterations: 42,
            lp_float_iterations: 40,
            lp_exact_iterations: 2,
            lp_truncated: false,
            lp_certified: true,
            phase_seconds: (1.2, 0.1, 0.2),
            lp_build_seconds: 0.05,
            products_total: 12,
            products_generated: 5,
            separation_rounds: 2,
            lu_updates: 40,
            lu_refactorizations: 1,
            transitions_pruned: 3,
            phases_split: 1,
            outcome: "certified".into(),
            aborted_phase: None,
            gap: None,
        };
        let run = SuiteRun {
            rows: vec![row],
            wall_clock: Duration::from_secs_f64(1.6),
            cpu_time: Duration::from_secs_f64(1.6),
            jobs: 1,
            peak_rss_mb: Some(298.0),
        };
        let line = format_history_line(&run, "2026-07-29", "abc1234");
        assert!(line.contains("\"date\": \"2026-07-29\""));
        assert!(line.contains("\"commit\": \"abc1234\""));
        assert!(line.contains("\"cpu_time_s\": 1.60"), "history line reports cpu time");
        assert!(line.contains("\"Example\": 1.50"));
        assert!(line.contains("\"row_cpu_seconds\": {\"Example\": 1.40}"));
        assert!(line.contains("\"peak_rss_mb\": 298.0"), "history line reports peak memory");
        assert!(!line.contains('\n'), "one line per run");
        // The committed BENCH json parses back into per-row baselines, and the wall
        // and CPU keys never cross-match.
        let json = format_json(&run);
        let baseline = parse_baseline_seconds(&json);
        assert_eq!(baseline, vec![("Example".to_string(), 1.5)]);
        let cpu_baseline = parse_baseline_cpu_seconds(&json);
        assert_eq!(cpu_baseline, vec![("Example".to_string(), 1.4)]);
        let document = Value::parse(&json).expect("BENCH json is valid JSON");
        assert_eq!(document.get("peak_rss_mb").and_then(Value::as_f64), Some(298.0));
        assert!(json.contains("\"lp_build_s\": 0.050"), "rows attribute LP construction");
        // A pre-cpu_seconds baseline parses as empty, triggering the wall fallback.
        let legacy = "{\"rows\": [{\"name\": \"X\", \"seconds\": 1.0}]}";
        assert_eq!(parse_baseline_seconds(legacy), vec![("X".to_string(), 1.0)]);
        assert!(parse_baseline_cpu_seconds(legacy).is_empty());
    }

    /// The committed Table-1 baseline parses to exactly the pairs the string
    /// scanner this parser replaced extracted (kept here as the reference).
    #[test]
    fn committed_baseline_parses_like_the_legacy_scanner() {
        fn legacy_scan(json: &str, key: &str) -> Vec<(String, f64)> {
            let needle = format!("\"{key}\": ");
            let mut out = Vec::new();
            for chunk in json.split("{\"name\": \"").skip(1) {
                let Some(name_end) = chunk.find('"') else { continue };
                let Some(position) = chunk.find(&needle) else { continue };
                let number: String = chunk[position + needle.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                    .collect();
                if let Ok(value) = number.parse::<f64>() {
                    out.push((chunk[..name_end].to_string(), value));
                }
            }
            out
        }
        let json = include_str!("../../../BENCH_table1.json");
        let seconds = parse_baseline_seconds(json);
        assert_eq!(seconds.len(), 20, "Table 1 is 19 rows plus the running example");
        assert_eq!(seconds, legacy_scan(json, "seconds"));
        assert_eq!(parse_baseline_cpu_seconds(json), legacy_scan(json, "cpu_seconds"));
    }

    #[test]
    fn escape_covers_control_characters() {
        let row = format_history_line(
            &SuiteRun {
                rows: Vec::new(),
                wall_clock: Duration::ZERO,
                cpu_time: Duration::ZERO,
                jobs: 1,
                peak_rss_mb: None,
            },
            "2026-01-01",
            "tab\there \"quoted\"\n",
        );
        assert!(row.contains("\"commit\": \"tab\\there \\\"quoted\\\"\\n\""), "{row}");
        assert!(Value::parse(&row).is_ok(), "a history line is valid JSON: {row}");
    }

    #[test]
    fn time_gate_degrades_gracefully_without_a_baseline_row() {
        let rows = vec![
            ("old_row".to_string(), 10.0),    // 10x its baseline: a regression
            ("steady".to_string(), 1.2),      // within 2x: fine
            ("brand_new".to_string(), 99.0),  // no baseline: must NOT fail the gate
        ];
        let baseline = vec![("old_row".to_string(), 1.0), ("steady".to_string(), 1.0)];
        let (regressions, covered) = time_regressions(&rows, &baseline, 2.0, 1.0);
        assert_eq!(covered, 2, "only rows with a baseline are gated");
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("old_row:"), "{regressions:?}");
        assert!(
            !regressions.iter().any(|r| r.contains("brand_new")),
            "a new row without a baseline must not fail CI on first introduction"
        );
        // Fully empty baseline (file missing / first ever run): nothing regresses.
        let (regressions, covered) = time_regressions(&rows, &[], 2.0, 1.0);
        assert!(regressions.is_empty());
        assert_eq!(covered, 0);
        // The floor suppresses sub-second noise even past the factor.
        let fast = vec![("fast".to_string(), 0.9)];
        let fast_baseline = vec![("fast".to_string(), 0.1)];
        let (regressions, _) = time_regressions(&fast, &fast_baseline, 2.0, 1.0);
        assert!(regressions.is_empty(), "sub-floor rows never regress");
    }

    #[test]
    fn table2_json_roundtrips_through_the_baseline_parser() {
        let pair = dca_benchmarks::table2::table2_manifest().into_iter().next().unwrap();
        let table = TableRow {
            name: pair.name.clone(),
            group: pair.shape.tag(),
            tight: pair.tight,
            paper_computed: None,
            computed: Some(pair.tight as f64),
            computed_int: Some(pair.tight),
            degree: pair.degree,
            seconds: 0.25,
            cpu_seconds: 0.2,
            lp_size: (5, 9),
            lp_iterations: 3,
            lp_float_iterations: 3,
            lp_exact_iterations: 0,
            lp_truncated: false,
            lp_certified: true,
            phase_seconds: (0.1, 0.1, 0.0),
            lp_build_seconds: 0.0,
            products_total: 0,
            products_generated: 0,
            separation_rounds: 0,
            lu_updates: 0,
            lu_refactorizations: 0,
            transitions_pruned: 2,
            phases_split: 1,
            outcome: "certified".into(),
            aborted_phase: None,
            gap: None,
        };
        let rows = vec![Table2Row {
            table,
            seed: pair.seed,
            sound: Some(true),
            agree: Some(true),
            pruned: 2,
        }];
        let json = format_table2_json(
            &rows,
            Duration::from_secs_f64(0.3),
            Duration::from_secs_f64(0.25),
            1,
            None,
        );
        assert!(json.contains("\"cpu_time_s\": 0.25"), "table2 json reports cpu time");
        assert!(json.contains("\"tight\": 1,"), "breakdown counts present");
        assert!(json.contains("\"sound\": 1,"));
        assert!(json.contains("\"agree\": 1,"));
        assert!(json.contains("\"transitions_pruned\": 2"));
        assert!(json.contains("\"peak_rss_mb\": null"));
        assert!(json.contains("\"lp_build_s\": 0.000"));
        let baseline = parse_baseline_seconds(&json);
        assert_eq!(baseline, vec![(pair.name.clone(), 0.25)]);
        // The tagged history line distinguishes the suites.
        let run = SuiteRun {
            rows: vec![rows[0].table.clone()],
            wall_clock: Duration::from_secs_f64(0.3),
            cpu_time: Duration::from_secs_f64(0.3),
            jobs: 1,
            peak_rss_mb: None,
        };
        let line = format_history_line_tagged(&run, "2026-08-08", "abc", "table2");
        assert!(line.contains("\"suite\": \"table2\""));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn civil_date_is_sane() {
        let date = today_utc();
        assert_eq!(date.len(), 10);
        assert!(date[..4].parse::<u32>().unwrap() >= 2024);
    }

    #[test]
    fn formats_rows() {
        let row = TableRow {
            name: "Example".into(),
            group: "g".into(),
            tight: 100,
            paper_computed: Some(100.0),
            computed: Some(100.0),
            computed_int: Some(100),
            degree: 2,
            seconds: 1.5,
            cpu_seconds: 1.4,
            lp_size: (10, 20),
            lp_iterations: 42,
            lp_float_iterations: 40,
            lp_exact_iterations: 2,
            lp_truncated: false,
            lp_certified: true,
            phase_seconds: (1.2, 0.1, 0.2),
            lp_build_seconds: 0.05,
            products_total: 12,
            products_generated: 5,
            separation_rounds: 2,
            lu_updates: 40,
            lu_refactorizations: 1,
            transitions_pruned: 3,
            phases_split: 1,
            outcome: "certified".into(),
            aborted_phase: None,
            gap: None,
        };
        assert!(row.is_tight());
        let table = format_table(std::slice::from_ref(&row));
        assert!(table.contains("Example"));
        assert!(table.contains("yes"));
        let failed = TableRow {
            name: "Failed".into(),
            group: "g".into(),
            tight: 1,
            paper_computed: None,
            computed: None,
            computed_int: None,
            degree: 3,
            seconds: 0.1,
            cpu_seconds: 0.1,
            lp_size: (0, 0),
            lp_iterations: 0,
            lp_float_iterations: 0,
            lp_exact_iterations: 0,
            lp_truncated: false,
            lp_certified: false,
            phase_seconds: (0.0, 0.0, 0.0),
            lp_build_seconds: 0.0,
            products_total: 0,
            products_generated: 0,
            separation_rounds: 0,
            lu_updates: 0,
            lu_refactorizations: 0,
            transitions_pruned: 0,
            phases_split: 0,
            outcome: "aborted".into(),
            aborted_phase: None,
            gap: None,
        };
        assert!(!failed.is_tight());
        assert!(format_table(std::slice::from_ref(&failed)).contains('x'));

        // The JSON rendering carries the same information, machine-readably.
        let run = SuiteRun {
            rows: vec![row, failed],
            wall_clock: Duration::from_secs_f64(1.6),
            cpu_time: Duration::from_secs_f64(1.6),
            jobs: 1,
            peak_rss_mb: None,
        };
        let json = format_json(&run);
        assert!(json.contains("\"name\": \"Example\""));
        assert!(json.contains("\"status\": \"tight\""));
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"tight\": 1,"));
        assert!(json.contains("\"products_total\": 12"));
        assert!(json.contains("\"products_generated\": 5"));
        assert!(json.contains("\"separation_rounds\": 2"));
        assert!(json.contains("\"lu_updates\": 40"));
        assert!(json.contains("\"lu_refactorizations\": 1"));
        assert!(json.contains("\"outcome\": \"certified\""));
        assert!(json.contains("\"outcome\": \"aborted\""));
        assert!(json.contains("\"aborted_phase\": null"));
        assert!(json.contains("\"gap\": null"));
        let line = format_history_line(&run, "2026-08-09", "abc1234");
        assert!(line.contains("\"certified\": 1"));
        assert!(line.contains("\"truncated\": 0"));
        assert!(line.contains("\"aborted\": 1"));
    }

    #[test]
    fn row_from_batch_outcome() {
        use dca_core::batch::{run_batch, BatchConfig, BatchJob};
        let benchmark = dca_benchmarks::all_benchmarks()
            .into_iter()
            .find(|b| b.name == "SimpleSingle")
            .unwrap();
        let jobs = vec![BatchJob::from_sources(
            benchmark.name,
            benchmark.source_new,
            benchmark.source_old,
        )
        .with_options(benchmark.options())];
        let report = run_batch(&jobs, &BatchConfig::with_jobs(1));
        let row = TableRow::from_outcome(&benchmark, &report.outcomes[0]);
        assert_eq!(row.name, "SimpleSingle");
        assert_eq!(row.computed_int, Some(100));
        assert!(row.is_tight());
        assert!(row.lp_size.0 > 0);
    }
}
