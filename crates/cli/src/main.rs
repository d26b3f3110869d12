//! `dca` — command-line differential cost analyzer.
//!
//! Usage:
//!
//! ```text
//! dca diff <old.dca> <new.dca> [options]   compute a differential threshold
//! dca bound <program.dca> [options]        single-program bounds with precision (Sec. 7)
//! dca show <program.dca>                  print the lowered transition system
//! dca suite [--jobs N] [--timeout SECS]    run the 19 Table-1 pairs + running example
//! dca serve [--stdio | --listen ADDR]      run the analysis daemon (line-delimited
//!                                          JSON; default listens on 127.0.0.1:4158)
//! dca query <old.dca> <new.dca> [--addr ADDR] [--degree D] [--timeout-ms N] [--stream]
//!                                          ask a running daemon for a threshold
//!
//! options for diff/bound:
//!   --degree D          template degree d = K (default 2)
//!   --max-products K    Handelman product bound K, overriding K = D
//!   --backend certified|exact LP backend (default certified)
//! ```

use std::process::ExitCode;

use dca_core::{
    AnalysisOptions, AnalyzedProgram, BatchConfig, DiffCostResult, DiffCostSolver, LpBackend,
};

/// Every flag any subcommand reads; anything else starting with `--` is an error.
const FLAGS: [&str; 10] = [
    "--degree",
    "--max-products",
    "--backend",
    "--jobs",
    "--timeout",
    "--stdio",
    "--listen",
    "--addr",
    "--timeout-ms",
    "--stream",
];

fn read_program(path: &str) -> Result<AnalyzedProgram, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    AnalyzedProgram::from_source(&source).map_err(|e| format!("{path}: {e}"))
}

/// The value following `flag`: `Ok(None)` when the flag is absent, an error when it is
/// present without a value (silently ignoring `dca suite --timeout` would run the
/// suite unbounded — the opposite of what the user asked for).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(position) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(position + 1) {
        Some(value) => Ok(Some(value.as_str())),
        None => Err(format!("{flag} requires a value")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Builds [`AnalysisOptions`] from the `--degree`, `--max-products` and `--backend`
/// flags (defaults: `d = K = 2`, the float-first certified backend).
fn parse_options(args: &[String]) -> Result<AnalysisOptions, String> {
    let degree: u32 = match flag_value(args, "--degree")? {
        Some(v) => v.parse().map_err(|_| format!("invalid --degree {v}"))?,
        None => 2,
    };
    let max_products: u32 = match flag_value(args, "--max-products")? {
        Some(v) => v.parse().map_err(|_| format!("invalid --max-products {v}"))?,
        None => degree,
    };
    let backend = match flag_value(args, "--backend")? {
        Some("certified") | None => LpBackend::Certified,
        Some("exact") => LpBackend::Exact,
        Some(other) => {
            return Err(format!("invalid --backend {other} (expected certified or exact)"))
        }
    };
    Ok(AnalysisOptions {
        degree,
        max_products,
        backend,
        ..AnalysisOptions::default()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: dca <diff old new | bound program | show program | suite \
                 | serve | query old new> \
                 [--degree D] [--max-products K] [--backend certified|exact] \
                 [--jobs N] [--timeout SECS] \
                 [--stdio] [--listen ADDR] [--addr ADDR] [--timeout-ms N] [--stream]";
    let Some(command) = args.first() else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    if let Some(unknown) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("error: unknown option {unknown}\n{usage}");
        return ExitCode::FAILURE;
    }
    let result = match command.as_str() {
        "diff" if args.len() >= 3 => run_diff(&args[1], &args[2], &args),
        "bound" if args.len() >= 2 => run_bound(&args[1], &args),
        "show" if args.len() >= 2 => run_show(&args[1]),
        "suite" => run_suite_command(&args),
        "serve" => run_serve(&args),
        "query" if args.len() >= 3 => run_query(&args[1], &args[2], &args),
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn solve_pair(
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
    args: &[String],
) -> Result<(DiffCostResult, u32), String> {
    let options = parse_options(args)?;
    let result = DiffCostSolver::new(options)
        .solve(new, old)
        .map_err(|e| e.to_string())?;
    Ok((result, options.degree))
}

fn run_diff(old_path: &str, new_path: &str, args: &[String]) -> Result<(), String> {
    let old = read_program(old_path)?;
    let new = read_program(new_path)?;
    let (result, degree) = solve_pair(&new, &old, args)?;
    println!("differential threshold: {:.4}", result.threshold);
    println!("integer threshold:      {}", result.threshold_int());
    println!("template degree:        {degree}");
    println!("LP: {} variables, {} constraints ({} before dedup), {:?}",
        result.stats.lp_variables, result.stats.lp_constraints,
        result.stats.lp_constraints_raw, result.stats.duration);
    // A winning phase-split analysis keys its witnesses over the split systems'
    // locations, carried in the result; render against those, not the inputs.
    let (ts_new, ts_old) = match result.split_systems.as_deref() {
        Some((split_new, split_old)) => {
            println!("loop-phase splitting: {} split(s) analyzed; witnesses are over the split system(s)",
                result.stats.phases_split);
            (split_new, split_old)
        }
        None => (&new.ts, &old.ts),
    };
    println!("\npotential function (new version):\n{}", result.potential_new.render(ts_new));
    println!("anti-potential function (old version):\n{}", result.anti_potential_old.render(ts_old));
    Ok(())
}

fn run_bound(path: &str, args: &[String]) -> Result<(), String> {
    let program = read_program(path)?;
    let (result, degree) = solve_pair(&program, &program, args)?;
    println!("precision gap: {:.4}", result.threshold);
    println!("template degree: {degree}");
    let (ts_upper, ts_lower) = match result.split_systems.as_deref() {
        Some((split_new, split_old)) => (split_new, split_old),
        None => (&program.ts, &program.ts),
    };
    println!("\nupper cost bound:\n{}", result.potential_new.render(ts_upper));
    println!("lower cost bound:\n{}", result.anti_potential_old.render(ts_lower));
    Ok(())
}

fn run_show(path: &str) -> Result<(), String> {
    let program = read_program(path)?;
    println!("{}", program.ts.render());
    println!("invariants:\n{}", program.invariants.render(&program.ts));
    Ok(())
}

/// The default daemon endpoint for `dca serve` / `dca query`.
const DEFAULT_ADDR: &str = "127.0.0.1:4158";

fn run_serve(args: &[String]) -> Result<(), String> {
    let engine = std::sync::Arc::new(dca_serve::Engine::new());
    if has_flag(args, "--stdio") {
        return dca_serve::serve_stdio(&engine).map_err(|e| format!("serve: {e}"));
    }
    let addr = flag_value(args, "--listen")?.unwrap_or(DEFAULT_ADDR);
    dca_serve::serve_tcp(engine, addr, |bound| {
        eprintln!("dca serve: listening on {bound}");
    })
    .map_err(|e| format!("serve: cannot listen on {addr}: {e}"))
}

fn run_query(old_path: &str, new_path: &str, args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};

    let old_source =
        std::fs::read_to_string(old_path).map_err(|e| format!("cannot read {old_path}: {e}"))?;
    let new_source =
        std::fs::read_to_string(new_path).map_err(|e| format!("cannot read {new_path}: {e}"))?;
    let mut request = dca_serve::AnalyzeRequest::new("cli", new_source, old_source);
    request.degree = match flag_value(args, "--degree")? {
        Some(v) => Some(v.parse().map_err(|_| format!("invalid --degree {v}"))?),
        None => None,
    };
    request.timeout_ms = match flag_value(args, "--timeout-ms")? {
        Some(v) => Some(v.parse().map_err(|_| format!("invalid --timeout-ms {v}"))?),
        None => None,
    };
    request.stream = has_flag(args, "--stream");

    let addr = flag_value(args, "--addr")?.unwrap_or(DEFAULT_ADDR);
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot reach a daemon at {addr} (start one with `dca serve`): {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("query: {e}"))?;
    writeln!(writer, "{}", request.to_json()).map_err(|e| format!("query: {e}"))?;

    // Print every frame as it arrives; the final frame of an analyze is always
    // `result` or `error`, so stop (and set the exit code) there.
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(|e| format!("query: {e}"))?;
        println!("{line}");
        let frame = dca_serve::json::Value::parse(&line)
            .map_err(|e| format!("unparseable frame {line:?}: {e}"))?;
        match frame.get("type").and_then(dca_serve::json::Value::as_str) {
            Some("result") => return Ok(()),
            Some("error") => {
                let message = frame
                    .get("message")
                    .and_then(dca_serve::json::Value::as_str)
                    .unwrap_or("daemon reported an error");
                return Err(message.to_string());
            }
            _ => {}
        }
    }
    Err("daemon closed the connection before answering".to_string())
}

fn run_suite_command(args: &[String]) -> Result<(), String> {
    let jobs: usize = match flag_value(args, "--jobs")? {
        Some(v) => v.parse().map_err(|_| format!("invalid --jobs {v}"))?,
        None => 0,
    };
    let time_budget = match flag_value(args, "--timeout")? {
        Some(v) => Some(std::time::Duration::from_secs(
            v.parse().map_err(|_| format!("invalid --timeout {v}"))?,
        )),
        None => None,
    };
    let config = BatchConfig { jobs, time_budget, ..BatchConfig::default() };
    let report = dca_benchmarks::run_suite_parallel(&config);
    println!(
        "{:<21} | {:>10} | d | {:<9} | {:>8}",
        "benchmark", "threshold", "outcome", "time (s)"
    );
    println!("{:-<21}-+-{:->10}-+---+-{:-<9}-+-{:->8}", "", "", "", "");
    for outcome in &report.outcomes {
        let threshold = match &outcome.result {
            Ok(result) => format!("{}", result.threshold_int()),
            Err(error) => {
                // Keep the table aligned; full error text goes below.
                eprintln!("{}: {error}", outcome.name);
                "x".to_string()
            }
        };
        println!(
            "{:<21} | {:>10} | {} | {:<9} | {:>8.2}",
            outcome.name,
            threshold,
            outcome.degree,
            outcome.outcome().label(),
            outcome.duration.as_secs_f64()
        );
    }
    println!(
        "\n{} solved, {} failed ({} certified, {} truncated, {} aborted); \
         wall-clock {:.2}s on {} worker threads (cpu {:.2}s, speedup {:.2}x)",
        report.solved(),
        report.failed(),
        report.certified(),
        report.truncated(),
        report.aborted(),
        report.wall_clock.as_secs_f64(),
        report.jobs,
        report.cpu_time().as_secs_f64(),
        report.cpu_time().as_secs_f64() / report.wall_clock.as_secs_f64().max(1e-9),
    );
    Ok(())
}
