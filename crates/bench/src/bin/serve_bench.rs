//! Serve-mode benchmark: cold-solve vs warm-hit latency through the daemon engine.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dca-bench --bin serve_bench [--json]
//! ```
//!
//! Runs a subset of the Table-1 pairs twice through one in-process
//! [`dca_serve::Engine`] — a cold query, then an exact repeat — and reports both
//! latencies per pair. Gates on the tentpole promise: every repeat must be a
//! pivot-free cache hit at least 10x faster than its cold solve (sub-millisecond
//! hits pass outright — at that scale the ratio only measures timer noise).
//! `--json` appends a `"suite": "serve"` line to `BENCH_history.jsonl` so the
//! cold/warm trajectory is tracked across PRs alongside the table runs.

use std::process::exit;
use std::time::Instant;

use dca_bench::{current_commit, today_utc};
use dca_serve::protocol::{AnalyzeRequest, Frame, Request, ResultFrame};
use dca_serve::Engine;

/// The benchmarked subset: small-to-mid Table-1 pairs across groups, so the cold
/// column spans the latency range without making this CI-blocking bin slow.
const SUBSET: [&str; 5] = ["join", "Dis1", "SimpleSingle2", "SequentialSingle", "sum"];

fn query(engine: &Engine, id: &str, bench: &dca_benchmarks::Benchmark) -> (ResultFrame, f64) {
    let mut request = AnalyzeRequest::new(id, bench.source_new, bench.source_old);
    request.degree = Some(bench.degree);
    let started = Instant::now();
    let frames = engine.handle_collect(&Request::Analyze(request));
    let seconds = started.elapsed().as_secs_f64();
    match frames.as_slice() {
        [Frame::Result(result)] => (result.clone(), seconds),
        other => {
            eprintln!("error: {id}: expected a result frame, got {other:?}");
            exit(1);
        }
    }
}

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let benchmarks = dca_benchmarks::evaluation(&[]);
    let subset: Vec<_> = SUBSET
        .iter()
        .map(|name| {
            benchmarks.iter().find(|b| b.name == *name).unwrap_or_else(|| {
                eprintln!("error: no benchmark named {name:?}");
                exit(2);
            })
        })
        .collect();

    let engine = Engine::new();
    println!(
        "{:<17} | {:>9} | {:>9} | {:>8} | outcome",
        "pair", "cold (ms)", "hit (ms)", "speedup"
    );
    println!("{:-<17}-+-{:->9}-+-{:->9}-+-{:->8}-+--------", "", "", "", "");
    let mut rows = Vec::new();
    let mut failed = false;
    for bench in &subset {
        let (cold, cold_s) = query(&engine, &format!("{}-cold", bench.name), bench);
        let (hit, hit_s) = query(&engine, &format!("{}-hit", bench.name), bench);
        let ok = cold.outcome == "certified"
            && hit.cache == "hit"
            && hit.lp_iterations == 0
            && (hit_s < 1e-3 || cold_s >= 10.0 * hit_s);
        failed |= !ok;
        println!(
            "{:<17} | {:>9.2} | {:>9.3} | {:>7.0}x | {}{}",
            bench.name,
            cold_s * 1e3,
            hit_s * 1e3,
            cold_s / hit_s.max(1e-9),
            cold.outcome,
            if ok { "" } else { "  <-- FAILED GATE" },
        );
        rows.push((bench.name, cold_s, hit_s));
    }

    if json {
        let cold: Vec<String> =
            rows.iter().map(|(n, c, _)| format!("\"{n}\": {c:.4}")).collect();
        let hit: Vec<String> =
            rows.iter().map(|(n, _, h)| format!("\"{n}\": {h:.6}")).collect();
        let line = format!(
            "{{\"suite\": \"serve\", \"date\": \"{}\", \"commit\": \"{}\", \
             \"pairs\": {}, \"cold_s\": {{{}}}, \"hit_s\": {{{}}}}}",
            today_utc(),
            current_commit(),
            rows.len(),
            cold.join(", "),
            hit.join(", "),
        );
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("BENCH_history.jsonl")
            .and_then(|mut file| writeln!(file, "{line}"));
        match appended {
            Ok(()) => println!("appended BENCH_history.jsonl"),
            Err(error) => eprintln!("warning: cannot append BENCH_history.jsonl: {error}"),
        }
    }

    if failed {
        eprintln!(
            "error: a repeat query missed the cache, pivoted, or was < 10x faster than cold"
        );
        exit(1);
    }
    println!("serve bench OK: every repeat was a pivot-free hit >= 10x faster than cold");
}
