//! Benchmark harness support: runs Table-1 benchmarks through the parallel batch
//! engine, parses the table bins' command lines, gates per-row times against the
//! committed baselines and formats the resulting rows.

use std::time::Duration;

use dca_benchmarks::Benchmark;
use dca_core::batch::{run_batch, BatchConfig, PairOutcome};
use dca_core::DiffCostResult;
use dca_serve::json::{escape, Value};

/// One reproduced row of Table 1 (or of the Table-2 corpus): the benchmark-side facts
/// of a pair next to the batch engine's own record of its solve.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Group label (source of the benchmark; the shape tag of a generated pair).
    pub group: String,
    /// Tight threshold (documented, by construction of the reconstruction).
    pub tight: i64,
    /// Threshold the paper's tool computed (`None` = ✗ in the paper, or no paper row).
    pub paper_computed: Option<f64>,
    /// The solve as the batch engine reported it: result, degree, wall and CPU time.
    /// [`PairOutcome::stats`] (`SolveStats::default()`, all zeros, on failure) and
    /// [`PairOutcome::outcome`] (the degradation-ladder verdict) are read from here.
    pub outcome: PairOutcome,
}

impl TableRow {
    /// Builds a row from a batch-engine outcome and the benchmark-side facts of its pair.
    pub fn from_outcome(
        name: &str,
        group: String,
        tight: i64,
        paper_computed: Option<f64>,
        outcome: PairOutcome,
    ) -> TableRow {
        TableRow { name: name.to_string(), group, tight, paper_computed, outcome }
    }

    /// The computed threshold (`None` = failure, the ✗ case).
    pub fn computed(&self) -> Option<f64> {
        self.outcome.result.as_ref().ok().map(|r| r.threshold)
    }

    /// The computed threshold rounded down to an integer (sound for integer costs).
    pub fn computed_int(&self) -> Option<i64> {
        self.outcome.result.as_ref().ok().map(DiffCostResult::threshold_int)
    }

    /// `true` if the computed integer threshold equals the tight one.
    pub fn is_tight(&self) -> bool {
        self.computed_int() == Some(self.tight)
    }

    /// The JSON `status`: `"tight"`, `"loose"` or `"failed"`.
    fn status(&self) -> &'static str {
        if self.is_tight() {
            "tight"
        } else if self.outcome.is_solved() {
            "loose"
        } else {
            "failed"
        }
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

/// Renders an optional number as a JSON number with four decimals, or `null`.
fn json_f64(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.4}")).unwrap_or_else(|| "null".to_string())
}

/// Renders an optional value through its `Display` form, or `null`.
fn json_display<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "null".to_string())
}

/// Runs the 19 Table-1 pairs plus the running example whose names contain one of the
/// given substrings (an empty list selects everything) through the batch engine.
pub fn run_suite_filtered(config: &BatchConfig, filters: &[String]) -> SuiteRun {
    let benchmarks = dca_benchmarks::evaluation(filters);
    let jobs: Vec<_> = benchmarks.iter().map(Benchmark::job).collect();
    let report = run_batch(&jobs, config);
    SuiteRun {
        wall_clock: report.wall_clock,
        cpu_time: report.cpu_time(),
        jobs: report.jobs,
        rows: benchmarks
            .iter()
            .zip(report.outcomes)
            .map(|(b, outcome)| {
                let group = b.group.to_string();
                TableRow::from_outcome(b.name, group, b.tight, b.paper_computed, outcome)
            })
            .collect(),
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Formats a list of rows as the Table-1 style text table.
pub fn format_table<'a>(rows: impl IntoIterator<Item = &'a TableRow>) -> String {
    let mut out = String::new();
    out.push_str(
        "benchmark            | tight    | paper    | computed  | int     | d | tight? | time (s)\n",
    );
    out.push_str(
        "---------------------+----------+----------+-----------+---------+---+--------+---------\n",
    );
    for row in rows {
        let x = || "x".to_string();
        out.push_str(&format!(
            "{:<21}| {:<9}| {:<9}| {:<10}| {:<8}| {} | {:<7}| {:.2}\n",
            row.name,
            row.tight,
            row.paper_computed.map(|v| format!("{v:.2}")).unwrap_or_else(x),
            row.computed().map(|v| format!("{v:.2}")).unwrap_or_else(x),
            row.computed_int().map(|v| v.to_string()).unwrap_or_else(x),
            row.outcome.degree,
            if row.is_tight() { "yes" } else { "no" },
            row.outcome.duration.as_secs_f64()
        ));
    }
    out
}

/// Renders a suite run as a machine-readable JSON document (no external dependencies,
/// so the encoder is hand-rolled; the schema is stable for cross-PR tracking).
///
/// Top level: `{"wall_clock_s", "cpu_time_s", "jobs", "peak_rss_mb", "tight", "total",
/// "rows": [...]}`; each row carries the benchmark name, the documented tight
/// threshold, the computed threshold (`null` on failure), the degree that produced it,
/// its status (`"tight" | "loose" | "failed"`), its wall and CPU seconds, and the
/// solve's `SolveStats` and degradation-ladder outcome.
pub fn format_json(run: &SuiteRun) -> String {
    let rows: Vec<String> = run
        .rows
        .iter()
        .map(|row| {
            let stats = row.outcome.stats().unwrap_or_default();
            let ladder = row.outcome.outcome();
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
                    "\"invariant_lp_queries\": {}, ",
                    "\"outcome\": \"{}\", \"aborted_phase\": {}, \"gap\": {}}}"
                ),
                escape(&row.name),
                escape(&row.group),
                row.tight,
                json_f64(row.paper_computed),
                json_f64(row.computed()),
                json_display(row.computed_int()),
                row.outcome.degree,
                row.status(),
                row.outcome.duration.as_secs_f64(),
                row.outcome.cpu_duration.as_secs_f64(),
                stats.lp_variables,
                stats.lp_constraints,
                stats.lp_iterations,
                stats.lp_float_iterations,
                stats.lp_exact_iterations,
                stats.lp_truncated,
                stats.lp_certified,
                stats.lp_float_time.as_secs_f64(),
                stats.lp_certify_time.as_secs_f64(),
                stats.lp_repair_time.as_secs_f64(),
                stats.lp_build_time.as_secs_f64(),
                stats.lp_products_total,
                stats.lp_products_generated,
                stats.lp_separation_rounds,
                stats.lp_lu_updates,
                stats.lp_lu_refactorizations,
                stats.transitions_pruned,
                stats.phases_split,
                stats.invariant_lp_queries,
                ladder.label(),
                json_display(ladder.aborted_phase().map(|p| format!("\"{}\"", p.as_str()))),
                json_f64(ladder.gap()),
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
    let per_row = |time: fn(&PairOutcome) -> Duration| {
        run.rows
            .iter()
            .map(|row| {
                format!("\"{}\": {:.2}", escape(&row.name), time(&row.outcome).as_secs_f64())
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let ladder = |label: &str| {
        run.rows.iter().filter(|r| r.outcome.outcome().label() == label).count()
    };
    let stats: Vec<_> = run.rows.iter().filter_map(|r| r.outcome.stats()).collect();
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
        ladder("certified"),
        ladder("truncated"),
        ladder("aborted"),
        stats.iter().map(|s| s.transitions_pruned).sum::<usize>(),
        stats.iter().map(|s| s.phases_split).sum::<usize>(),
        run.wall_clock.as_secs_f64(),
        run.cpu_time.as_secs_f64(),
        json_rss(run.peak_rss_mb),
        per_row(|o| o.duration),
        per_row(|o| o.cpu_duration),
    )
}

/// The cross-PR trajectory file the table bins append one summary line to.
const HISTORY_PATH: &str = "BENCH_history.jsonl";

/// Whether a table bin's `--json` run appends its summary line to
/// `BENCH_history.jsonl`: only a full run (no filter, no subset) whose record is
/// written to the bin's committed default file (`default_json`). A record written
/// anywhere else is exploratory, and must leave the committed history as it is.
pub fn records_history(json_path: &str, default_json: &str, full_run: bool) -> bool {
    full_run && json_path == default_json
}

/// Appends one line to `BENCH_history.jsonl`, warning (not failing) when it cannot.
pub fn append_history(line: &str) {
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY_PATH)
        .and_then(|mut file| writeln!(file, "{line}"));
    match appended {
        Ok(()) => eprintln!("appended {HISTORY_PATH}"),
        Err(error) => eprintln!("warning: cannot append {HISTORY_PATH}: {error}"),
    }
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

/// The per-row `(name, cpu_seconds)` baseline of a committed BENCH json (`path` is
/// relative to the working directory, normally the repository root). When the file
/// cannot be read this says so loudly and returns no rows, which disables the
/// time-regression gate for the run: a silently skipped gate that still prints
/// success is exactly the failure mode the gate exists to prevent.
pub fn cpu_baseline(path: &str) -> Vec<(String, f64)> {
    match std::fs::read_to_string(path) {
        Ok(json) => parse_cpu_seconds(&json),
        Err(error) => {
            eprintln!(
                "warning: {path} not readable ({error}); the per-row time-regression gate \
                 is DISABLED for this run (run from the repository root?)"
            );
            Vec::new()
        }
    }
}

/// Extracts the per-row `(name, cpu_seconds)` pairs of a BENCH json document's
/// `"rows"` array. Rows without a numeric `cpu_seconds` are skipped; a document that
/// does not parse yields no pairs (the gates then run without a baseline).
fn parse_cpu_seconds(json: &str) -> Vec<(String, f64)> {
    let Ok(document) = Value::parse(json) else { return Vec::new() };
    let Some(Value::Arr(rows)) = document.get("rows") else { return Vec::new() };
    rows.iter()
        .filter_map(|row| {
            Some((row.get("name")?.as_str()?.to_string(), row.get("cpu_seconds")?.as_f64()?))
        })
        .collect()
}

// ----- Command line of the table bins -----------------------------------------------

/// The command line of a table bin: `--flag VALUE` options, bare switches, an
/// optional `--json [PATH]` and benchmark-name filters.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    /// `--json [PATH]`: the path given, or the bin's default path when none follows.
    pub json: Option<String>,
    /// Name filters: every argument that is not a flag or a flag's value.
    pub filters: Vec<String>,
}

impl Args {
    /// Parses `args` against a bin's vocabulary of value flags and switches.
    ///
    /// An unknown `--` flag, or a value flag with nothing after it, is an error: a
    /// mistyped flag must not silently fall back to a default run (a `--smok` would
    /// otherwise start the full corpus). `--json` takes an optional path, consumed
    /// only when the next argument ends in `.json` (name filters never do, so the
    /// grammar stays unambiguous); without one it selects `default_json`.
    pub fn parse(
        args: &[String],
        value_flags: &[&str],
        switches: &[&str],
        default_json: &str,
    ) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            if arg == "--json" {
                let path = args.next_if(|next| next.ends_with(".json"));
                parsed.json = Some(path.map_or(default_json, String::as_str).to_string());
            } else if value_flags.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} requires a value"))?;
                parsed.values.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                parsed.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}"));
            } else {
                parsed.filters.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    /// The parsed value of a value flag (the first occurrence), `None` when absent.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, value)| value.parse().map_err(|_| format!("invalid {flag} {value}")))
            .transpose()
    }

    /// `true` when the switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The batch configuration of `--jobs N` (default `0`: one worker per CPU) and
    /// `--timeout SECS` (a per-solve budget; default unlimited).
    pub fn batch_config(&self) -> Result<BatchConfig, String> {
        let mut config = BatchConfig::with_jobs(self.value("--jobs")?.unwrap_or(0));
        config.time_budget = self.value("--timeout")?.map(Duration::from_secs);
        Ok(config)
    }
}

// ----- Table 2 (generated corpus) ---------------------------------------------------

/// One row of the Table-2 generated corpus: a [`TableRow`] plus the harness verdicts
/// of the generated pair.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The solve (`group` carries the shape tag; `tight` the by-construction bound).
    pub table: TableRow,
    /// The generator seed of the pair.
    pub seed: u64,
    /// Interpreter-sampled soundness: `Some(true)` = no sampled run violated the
    /// reported bound; `None` = not checked (failed solves have no bound to check).
    pub sound: Option<bool>,
    /// Cross-backend agreement: `Some(true)` = certified and exact solves produced
    /// the same verdict; `None` = not run.
    pub agree: Option<bool>,
}

/// Renders a Table-2 run as JSON (same hand-rolled style and `"name"`/`"cpu_seconds"`
/// row keys as [`format_json`], so [`cpu_baseline`] and the shared
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
    let count = |status: &str| rows.iter().filter(|r| r.table.status() == status).count();
    let sound = rows.iter().filter(|r| r.sound == Some(true)).count();
    let agree = rows.iter().filter(|r| r.agree == Some(true)).count();
    let certified =
        rows.iter().filter(|r| r.table.outcome.stats().is_some_and(|s| s.lp_certified)).count();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let stats = r.table.outcome.stats().unwrap_or_default();
            let ladder = r.table.outcome.outcome();
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
                    "\"invariant_lp_queries\": {}, ",
                    "\"outcome\": \"{}\", \"aborted_phase\": {}, \"gap\": {}}}"
                ),
                escape(&r.table.name),
                escape(&r.table.group),
                r.seed,
                r.table.tight,
                json_f64(r.table.computed()),
                json_display(r.table.computed_int()),
                r.table.outcome.degree,
                r.table.status(),
                json_display(r.sound),
                json_display(r.agree),
                r.table.outcome.duration.as_secs_f64(),
                r.table.outcome.cpu_duration.as_secs_f64(),
                stats.lp_variables,
                stats.lp_constraints,
                stats.lp_certified,
                stats.lp_truncated,
                stats.lp_build_time.as_secs_f64(),
                stats.transitions_pruned,
                stats.phases_split,
                stats.invariant_lp_queries,
                ladder.label(),
                json_display(ladder.aborted_phase().map(|p| format!("\"{}\"", p.as_str()))),
                json_f64(ladder.gap()),
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
        count("tight"),
        count("loose"),
        count("failed"),
        sound,
        agree,
        certified,
        body.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_core::{AnalysisError, DiffCostResult, PotentialFunction, SolvePhase, SolveStats};

    /// A batch outcome the way `run_batch` reports one: 1.5 s wall, 1.4 s cpu at
    /// degree 2, and — when solved — statistics with every rendered field non-zero.
    fn outcome(name: &str, threshold: Result<f64, AnalysisError>) -> PairOutcome {
        let stats = SolveStats {
            lp_variables: 10,
            lp_constraints: 20,
            lp_iterations: 42,
            lp_float_iterations: 40,
            lp_exact_iterations: 2,
            lp_certified: true,
            lp_float_time: Duration::from_secs_f64(1.2),
            lp_certify_time: Duration::from_secs_f64(0.1),
            lp_repair_time: Duration::from_secs_f64(0.2),
            lp_build_time: Duration::from_secs_f64(0.05),
            lp_products_total: 12,
            lp_products_generated: 5,
            lp_separation_rounds: 2,
            lp_lu_updates: 40,
            lp_lu_refactorizations: 1,
            transitions_pruned: 3,
            phases_split: 1,
            invariant_lp_queries: 7,
            ..SolveStats::default()
        };
        PairOutcome {
            name: name.into(),
            result: threshold.map(|threshold| DiffCostResult {
                threshold,
                potential_new: PotentialFunction::new(Default::default()),
                anti_potential_old: PotentialFunction::new(Default::default()),
                split_systems: None,
                stats,
            }),
            degree: 2,
            duration: Duration::from_secs_f64(1.5),
            cpu_duration: Duration::from_secs_f64(1.4),
        }
    }

    /// A Table-1 row (group "Gulwani et al. [23]", tight 100) built from [`outcome`].
    fn row(name: &str, threshold: Result<f64, AnalysisError>) -> TableRow {
        let group = "Gulwani et al. [23]".to_string();
        TableRow::from_outcome(name, group, 100, Some(100.0), outcome(name, threshold))
    }

    /// A certified tight row and a row aborted by a timeout in the encoder.
    fn run() -> SuiteRun {
        SuiteRun {
            rows: vec![
                row("Example", Ok(100.0)),
                row("Failed", Err(AnalysisError::Timeout { phase: SolvePhase::Encode })),
            ],
            wall_clock: Duration::from_secs_f64(1.6),
            cpu_time: Duration::from_secs_f64(2.8),
            jobs: 1,
            peak_rss_mb: Some(298.0),
        }
    }

    /// The exact `format_json` document: key names, key order and number formats are
    /// the schema the committed `BENCH_table1.json` and CI read.
    #[test]
    fn json_schema_is_pinned() {
        let golden = concat!(
            "{\n  \"wall_clock_s\": 1.60,\n  \"cpu_time_s\": 2.80,\n  \"jobs\": 1,\n",
            "  \"peak_rss_mb\": 298.0,\n  \"tight\": 1,\n  \"total\": 2,\n  \"rows\": [\n",
            "    {\"name\": \"Example\", \"group\": \"Gulwani et al. [23]\", \"tight\": 100, ",
            "\"paper\": 100.0000, \"computed\": 100.0000, \"computed_int\": 100, ",
            "\"degree\": 2, \"status\": \"tight\", \"seconds\": 1.50, \"cpu_seconds\": 1.40, ",
            "\"lp_variables\": 10, \"lp_constraints\": 20, \"lp_iterations\": 42, ",
            "\"lp_float_pivots\": 40, \"lp_exact_pivots\": 2, \"lp_truncated\": false, ",
            "\"lp_certified\": true, \"float_s\": 1.200, \"certify_s\": 0.100, ",
            "\"repair_s\": 0.200, \"lp_build_s\": 0.050, \"products_total\": 12, ",
            "\"products_generated\": 5, \"separation_rounds\": 2, \"lu_updates\": 40, ",
            "\"lu_refactorizations\": 1, \"transitions_pruned\": 3, \"phases_split\": 1, ",
            "\"invariant_lp_queries\": 7, \"outcome\": \"certified\", ",
            "\"aborted_phase\": null, \"gap\": null},\n",
            "    {\"name\": \"Failed\", \"group\": \"Gulwani et al. [23]\", \"tight\": 100, ",
            "\"paper\": 100.0000, \"computed\": null, \"computed_int\": null, ",
            "\"degree\": 2, \"status\": \"failed\", \"seconds\": 1.50, \"cpu_seconds\": 1.40, ",
            "\"lp_variables\": 0, \"lp_constraints\": 0, \"lp_iterations\": 0, ",
            "\"lp_float_pivots\": 0, \"lp_exact_pivots\": 0, \"lp_truncated\": false, ",
            "\"lp_certified\": false, \"float_s\": 0.000, \"certify_s\": 0.000, ",
            "\"repair_s\": 0.000, \"lp_build_s\": 0.000, \"products_total\": 0, ",
            "\"products_generated\": 0, \"separation_rounds\": 0, \"lu_updates\": 0, ",
            "\"lu_refactorizations\": 0, \"transitions_pruned\": 0, \"phases_split\": 0, ",
            "\"invariant_lp_queries\": 0, \"outcome\": \"aborted\", ",
            "\"aborted_phase\": \"encode\", \"gap\": null}\n",
            "  ]\n}\n",
        );
        assert_eq!(format_json(&run()), golden);
    }

    /// The exact `BENCH_history.jsonl` line.
    #[test]
    fn history_line_schema_is_pinned() {
        let golden = concat!(
            "{\"date\": \"2026-07-29\", \"commit\": \"abc1234\", \"suite\": \"table1\", ",
            "\"jobs\": 1, \"tight\": 1, \"total\": 2, \"certified\": 1, \"truncated\": 0, ",
            "\"aborted\": 1, \"transitions_pruned\": 3, \"phases_split\": 1, ",
            "\"wall_clock_s\": 1.60, \"cpu_time_s\": 2.80, \"peak_rss_mb\": 298.0, ",
            "\"row_seconds\": {\"Example\": 1.50, \"Failed\": 1.50}, ",
            "\"row_cpu_seconds\": {\"Example\": 1.40, \"Failed\": 1.40}}",
        );
        assert_eq!(format_history_line(&run(), "2026-07-29", "abc1234"), golden);
    }

    /// The exact `format_table2_json` document for one generated pair.
    #[test]
    fn table2_json_schema_is_pinned() {
        let pair = dca_benchmarks::table2::table2_manifest().swap_remove(0);
        let solved = outcome(&pair.name, Ok(pair.tight as f64));
        let table = TableRow::from_outcome(&pair.name, pair.shape.tag(), pair.tight, None, solved);
        let rows = vec![Table2Row { table, seed: pair.seed, sound: Some(true), agree: None }];
        let json = format_table2_json(
            &rows,
            Duration::from_secs_f64(0.3),
            Duration::from_secs_f64(0.25),
            1,
            None,
        );
        let golden = concat!(
            "{\n  \"wall_clock_s\": 0.30,\n  \"cpu_time_s\": 0.25,\n  \"jobs\": 1,\n",
            "  \"peak_rss_mb\": null,\n  \"total\": 1,\n  \"tight\": 1,\n  \"loose\": 0,\n",
            "  \"failed\": 0,\n  \"sound\": 1,\n  \"agree\": 0,\n  \"lp_certified\": 1,\n",
            "  \"rows\": [\n",
            "    {\"name\": \"t2_Dd1p1_45538\", \"shape\": \"Dd1p1\", \"seed\": 8040930, ",
            "\"tight\": 12, \"computed\": 12.0000, \"computed_int\": 12, \"degree\": 2, ",
            "\"status\": \"tight\", \"sound\": true, \"agree\": null, \"seconds\": 1.50, ",
            "\"cpu_seconds\": 1.40, \"lp_variables\": 10, \"lp_constraints\": 20, ",
            "\"lp_certified\": true, \"lp_truncated\": false, \"lp_build_s\": 0.050, ",
            "\"transitions_pruned\": 3, \"phases_split\": 1, \"invariant_lp_queries\": 7, ",
            "\"outcome\": \"certified\", \"aborted_phase\": null, \"gap\": null}\n",
            "  ]\n}\n",
        );
        assert_eq!(json, golden);
    }

    #[test]
    fn json_and_history_parse_back() {
        let run = run();
        let line = format_history_line(&run, "2026-07-29", "abc1234");
        assert!(!line.contains('\n'), "one line per run");
        assert!(Value::parse(&line).is_ok(), "a history line is valid JSON: {line}");
        // The BENCH json parses back into per-row CPU baselines; the wall-clock
        // `seconds` key (1.5) never cross-matches.
        let json = format_json(&run);
        let document = Value::parse(&json).expect("BENCH json is valid JSON");
        assert_eq!(document.get("peak_rss_mb").and_then(Value::as_f64), Some(298.0));
        assert_eq!(
            parse_cpu_seconds(&json),
            vec![("Example".to_string(), 1.4), ("Failed".to_string(), 1.4)]
        );
    }

    /// Every row of both committed baselines carries `cpu_seconds` (so the gates need
    /// no wall-clock fallback), and the parser extracts exactly the pairs the string
    /// scanner it replaced did (kept here as the reference).
    #[test]
    fn committed_baselines_parse_like_the_legacy_scanner() {
        fn legacy_scan(json: &str) -> Vec<(String, f64)> {
            let needle = "\"cpu_seconds\": ";
            let mut out = Vec::new();
            for chunk in json.split("{\"name\": \"").skip(1) {
                let Some(name_end) = chunk.find('"') else { continue };
                let Some(position) = chunk.find(needle) else { continue };
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
        for (json, rows) in [
            (include_str!("../../../BENCH_table1.json"), 20),
            (include_str!("../../../BENCH_table2.json"), 240),
        ] {
            let baseline = parse_cpu_seconds(json);
            assert_eq!(baseline.len(), rows, "every committed row has cpu_seconds");
            assert_eq!(baseline, legacy_scan(json));
        }
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
    fn civil_date_is_sane() {
        let date = today_utc();
        assert_eq!(date.len(), 10);
        assert!(date[..4].parse::<u32>().unwrap() >= 2024);
    }

    #[test]
    fn formats_rows() {
        let run = run();
        assert!(run.rows[0].is_tight());
        assert!(!run.rows[1].is_tight());
        let table = format_table(&run.rows);
        assert!(table.contains("Example"));
        assert!(table.contains("yes"));
        assert!(table.contains("| x "), "a failed row renders as x: {table}");
    }

    /// Suite rows pair each benchmark with its own outcome: the jobs are built from
    /// the same filtered list the rows zip with.
    #[test]
    fn suite_rows_come_from_the_batch_engine() {
        let run = run_suite_filtered(&BatchConfig::with_jobs(1), &["SimpleSingle".into()]);
        let names: Vec<_> = run.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["SimpleSingle", "SimpleSingle2"]);
        for row in &run.rows {
            assert_eq!(row.name, row.outcome.name);
            assert!(row.is_tight(), "{} computed {:?}", row.name, row.computed_int());
            assert!(row.outcome.stats().is_some_and(|s| s.lp_variables > 0));
        }
        assert_eq!(run.rows[0].computed_int(), Some(100));
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(&argv(line), &["--jobs", "--limit"], &["--smoke"], "BENCH_default.json")
    }

    #[test]
    fn args_reject_unknown_flags() {
        assert_eq!(parse("--smok --limit 1").unwrap_err(), "unknown option --smok");
        let typo = parse("--smoke --no-diferential").unwrap_err();
        assert_eq!(typo, "unknown option --no-diferential");
        assert_eq!(parse("--limit").unwrap_err(), "--limit requires a value");
        let args = parse("--jobs two").unwrap();
        assert_eq!(args.value::<usize>("--jobs").unwrap_err(), "invalid --jobs two");
    }

    #[test]
    fn only_a_full_run_into_the_default_record_appends_history() {
        let default = "BENCH_table1.json";
        assert!(records_history("BENCH_table1.json", default, true));
        assert!(!records_history("BENCH_table1.json", default, false));
        assert!(!records_history("/tmp/x.json", default, true));
        assert!(!records_history("out/BENCH_table1.json", default, true));
        assert!(!records_history("BENCH_table2.json", default, true));
    }

    #[test]
    fn args_take_an_optional_json_path() {
        assert_eq!(parse("").unwrap().json, None);
        assert_eq!(parse("--json").unwrap().json.as_deref(), Some("BENCH_default.json"));
        let args = parse("--json out.json sum").unwrap();
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.filters, ["sum"]);
        // A name after `--json` is a filter, not a path.
        let args = parse("--json sum").unwrap();
        assert_eq!(args.json.as_deref(), Some("BENCH_default.json"));
        assert_eq!(args.filters, ["sum"]);
    }

    #[test]
    fn args_split_values_switches_and_filters() {
        let args = parse("Dis --jobs 2 --smoke --limit 3 ddec").unwrap();
        assert_eq!(args.filters, ["Dis", "ddec"]);
        assert!(args.has("--smoke"));
        assert_eq!(args.value::<usize>("--limit"), Ok(Some(3)));
        assert_eq!(args.value::<u64>("--timeout"), Ok(None));
        let config = args.batch_config().unwrap();
        assert_eq!((config.jobs, config.time_budget), (2, None));
        assert!(!parse("").unwrap().has("--smoke"));
    }
}
