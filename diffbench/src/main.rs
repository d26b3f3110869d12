//! `diffbench`: time to a certified differential-cost verdict, end to end and per
//! crate, with every verdict checked.
//!
//! ```text
//! diffbench --workload <table1-d2|nested-d3|serve-mix> --seed <n> --seconds <s>
//!           [--traced] [--trace-out <spans.jsonl>]
//! ```
//!
//! One process runs one workload. It repeats timed passes over the workload's
//! requests until `--seconds` have passed (the last pass runs to its end), and
//! prints one JSON object as the last line of standard output: the request counts,
//! every answer (threshold bits and pivots, so two runs can be compared), and the
//! end-to-end metrics — or, with `--traced`, the per-layer metrics. `run.py` builds
//! this binary and merges an untraced and a traced run.

mod measure;
mod pipeline;
mod serve_mix;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use measure::{cpu_seconds, median, peak_rss_mb, tail, Metrics};
use trace::Trace;

/// Set-up is repeated this many times per run and reported as the median repeat.
const SETUP_REPS: usize = 41;

/// Pause between set-up repeats. The host's CPU speed changes from one fraction of a
/// second to the next, so repeats spread over a second sample more than one state.
const SETUP_GAP: Duration = Duration::from_millis(25);

/// One request's verdict as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Stable request name (the same in every pass and every run of one seed).
    pub id: String,
    /// Time to the verdict in milliseconds.
    pub ms: f64,
    /// Certified and correct within the per-request budget.
    pub ok: bool,
    /// Equal to the pair's known tight threshold.
    pub tight: bool,
    /// `f64::to_bits` of the reported threshold (0 without an answer).
    pub bits: u64,
    /// LP pivots the request performed.
    pub pivots: usize,
    /// The serve engine's cache label (`miss` for a direct cold solve).
    pub cache: String,
}

/// Per-pass counters of the traced run, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// Adds `value` to a counter.
pub fn bump(counters: &mut Counters, name: &'static str, value: f64) {
    *counters.entry(name).or_insert(0.0) += value;
}

/// What one timed pass produced.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub samples: Vec<Sample>,
    pub counters: Counters,
}

/// Repeats `run` (given the pass index and what `prepare` made for that pass,
/// outside the timed region) until `seconds` have passed; the last pass runs to its
/// end. A workload whose pass is shorter than the window thus gets at least two, so
/// its fastest pass is never only the first, which also pays for warming the heap.
pub fn timed_passes<T>(
    seconds: f64,
    mut prepare: impl FnMut(usize) -> T,
    mut run: impl FnMut(usize, T) -> (Vec<Sample>, Counters),
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let prepared = prepare(passes.len());
        let cpu_before = cpu_seconds();
        let pass_started = Instant::now();
        let (samples, counters) = run(passes.len(), prepared);
        let wall_s = pass_started.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_before;
        passes.push(Pass {
            wall_s,
            cpu_s,
            samples,
            counters,
        });
        if started.elapsed().as_secs_f64() >= seconds {
            return passes;
        }
    }
}

/// Aborts the run: a threshold below a known tight value is an unsound answer,
/// which no later pass or metric may paper over.
pub fn unsound(id: &str, threshold: f64, tight: i64) -> ! {
    eprintln!("error: {id}: threshold {threshold} is below the known tight value {tight}");
    exit(3);
}

/// The smallest of some repeated timings.
pub fn fastest(times: impl Iterator<Item = f64>) -> f64 {
    times.fold(f64::INFINITY, f64::min)
}

/// Each request's fastest time over the passes (every pass sends the same requests).
pub fn best_request_ms(passes: &[Pass]) -> Vec<f64> {
    let requests = passes[0].samples.len();
    (0..requests)
        .map(|i| fastest(passes.iter().map(|pass| pass.samples[i].ms)))
        .collect()
}

/// Checks that every pass repeats the first pass's answers and counters: answers
/// must match bit for bit (a mismatch fails the run), counters should (a mismatch
/// is reported, since such a counter cannot carry a claim).
fn check_repeats(passes: &[Pass]) -> bool {
    let first = &passes[0];
    let mut ok = true;
    for (index, pass) in passes.iter().enumerate().skip(1) {
        for (a, b) in first.samples.iter().zip(&pass.samples) {
            if a.id != b.id || a.bits != b.bits {
                eprintln!("error: pass {index} answered {} differently", b.id);
                ok = false;
            }
            if a.pivots != b.pivots {
                eprintln!(
                    "warning: pass {index}: {} pivots {} vs {}",
                    b.id, b.pivots, a.pivots
                );
            }
        }
        for (name, value) in &first.counters {
            let repeated = pass.counters.get(name) == Some(value);
            // LP phase times (`lp.*_s`) are timings, not counts.
            if !repeated && !name.ends_with("_s") {
                eprintln!("warning: counter {name} did not repeat in pass {index}");
            }
        }
    }
    ok
}

/// The metrics of the untraced run. Interference from other tenants only ever
/// slows a pass down, so times are the best of the run's repeats: the fastest pass
/// for pass times, and each request's fastest repeat for the request percentiles.
fn end_to_end(passes: &[Pass], setup: &[f64]) -> Metrics {
    let requests = passes[0].samples.len();
    let best = best_request_ms(passes);
    eprintln!(
        "{} passes of {requests} requests; verdict_ms_p90 reads rank {} of {requests}",
        passes.len(),
        measure::tail_rank(requests) + 1,
    );
    for pass in passes {
        eprintln!("pass: wall {:.3} s, cpu {:.2} s", pass.wall_s, pass.cpu_s);
    }
    let samples = passes.iter().flat_map(|pass| &pass.samples);
    let tight = samples.clone().filter(|sample| sample.tight).count();
    let mut metrics = Metrics::default();
    metrics.set(
        "wall_s",
        fastest(passes.iter().map(|pass| pass.wall_s)),
        "s",
    );
    metrics.set("cpu_s", fastest(passes.iter().map(|pass| pass.cpu_s)), "s");
    metrics.set("verdict_ms_p50", median(&best), "ms");
    metrics.set("verdict_ms_p90", tail(&best), "ms");
    metrics.set("tight_frac", tight as f64 / samples.count() as f64, "ratio");
    metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.set("setup_s", median(setup), "s");
    metrics
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with every
/// duration in seconds. The first repeat is timed from `main_started`, so it also
/// covers what the process did before its set-up began.
fn repeated_setup<T>(main_started: Instant, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let started = if rep == 0 {
            main_started
        } else {
            std::thread::sleep(SETUP_GAP);
            Instant::now()
        };
        last = Some(std::hint::black_box(setup()));
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: diffbench --workload <table1-d2|nested-d3|serve-mix> --seed <n> \
         --seconds <s> [--traced] [--trace-out <path>]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = argv
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        usage("--workload is required");
    }
    args
}

/// The answers of the first pass, for comparing runs: `id=bits/pivots`.
fn answers(passes: &[Pass]) -> String {
    let answers: Vec<String> = passes[0]
        .samples
        .iter()
        .map(|s| format!("\"{}={:016x}/{}\"", s.id, s.bits, s.pivots))
        .collect();
    format!("[{}]", answers.join(", "))
}

fn main() {
    let main_started = Instant::now();
    let args = parse_args();
    let mut trace = Trace::new(args.traced);
    let (passes, setup, layers) = match args.workload.as_str() {
        "table1-d2" | "nested-d3" => {
            let (pairs, setup) =
                repeated_setup(main_started, || pipeline::pairs(&args.workload, args.seed));
            let (passes, layers) = pipeline::run(&pairs, args.seconds, &mut trace);
            (passes, setup, layers)
        }
        "serve-mix" => {
            let ((mix, engine), setup) = repeated_setup(main_started, || {
                (serve_mix::Mix::new(args.seed), dca_serve::Engine::new())
            });
            let (passes, layers) = mix.run(engine, args.seconds, &mut trace);
            (passes, setup, layers)
        }
        other => usage(&format!("unknown workload {other:?}")),
    };

    let mut correct = check_repeats(&passes);
    let attempted: usize = passes.iter().map(|pass| pass.samples.len()).sum();
    let failed = passes
        .iter()
        .flat_map(|pass| &pass.samples)
        .filter(|s| !s.ok)
        .count();
    for sample in passes
        .iter()
        .flat_map(|pass| &pass.samples)
        .filter(|s| !s.ok)
    {
        eprintln!(
            "failed: {} (cache {}, {:.1} ms)",
            sample.id, sample.cache, sample.ms
        );
    }
    correct &= failed == 0;

    // `run.py` checks the names against BENCHMARK.json. It also derives
    // `trace.overhead_frac` from the traced run's `cpu_s`.
    let metrics = match layers {
        Some(mut layers) => {
            layers.set("cpu_s", fastest(passes.iter().map(|pass| pass.cpu_s)), "s");
            layers
        }
        None => end_to_end(&passes, &setup),
    };
    if let Some(path) = &args.trace_out {
        if let Err(error) = trace.write(path) {
            eprintln!("error: cannot write spans to {}: {error}", path.display());
            exit(1);
        }
    }
    println!(
        "{{\"workload\": \"{}\", \"correct\": {correct}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"answers\": {}, \"metrics\": {}}}",
        args.workload,
        answers(&passes),
        metrics.to_json()
    );
}
