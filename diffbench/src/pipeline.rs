//! `table1-d2` and `nested-d3`: cold solves of Table-1 pairs, one at a time, through
//! the public crate APIs — `dca_lang::compile`, `AnalyzedProgram::from_lowered_at_tier`
//! and `DiffCostSolver::solve` — each call timed from outside.
//!
//! The traced run adds replays of the phase split
//! (`AnalyzedProgram::split_phases_at_tier`) and of the Handelman encoding
//! (`ProgramTemplates::allocate` + `collect_program_constraints`). `solve` does both
//! internally, so the replays attribute time to those layers without being pipeline
//! time: they are left out of every request's verdict time and show up only in the
//! traced run's CPU, hence in `trace.overhead_frac`.

use std::time::Duration;

use dca_benchmarks::{all_benchmarks, running_example, Benchmark};
use dca_core::{
    collect_program_constraints, AnalysisOptions, AnalyzedProgram, ConstraintSet, DiffCostSolver,
    InvariantTier, ProgramTemplates, SolveStats, TemplateRole,
};
use dca_handelman::{UnknownFactory, UnknownKind};
use dca_ir::SmallRng;

use crate::measure::{median, Metrics};
use crate::trace::Trace;
use crate::{best_request_ms, bump, fastest, timed_passes, unsound, Counters, Pass, Sample};

/// Per-request budget of a Table-1 degree-2 pair; one that has not certified by
/// then counts as failed.
const TABLE1_BUDGET: Duration = Duration::from_secs(60);

/// Per-request budget of `nested`, which certifies in under a minute.
const NESTED_BUDGET: Duration = Duration::from_secs(120);

/// The LP phase times `SolveStats` attributes inside a solve.
const LP_PHASES: [&str; 4] = ["lp.presolve_s", "lp.float_s", "lp.certify_s", "lp.repair_s"];

/// One program pair with its known tight threshold.
#[derive(Debug, Clone)]
pub struct Pair {
    pub id: String,
    pub new: String,
    pub old: String,
    pub degree: u32,
    pub tight: i64,
    pub budget: Duration,
}

impl Pair {
    fn from_benchmark(benchmark: &Benchmark, budget: Duration) -> Pair {
        Pair {
            id: benchmark.name.replace(' ', "_"),
            new: benchmark.source_new.to_string(),
            old: benchmark.source_old.to_string(),
            degree: benchmark.degree,
            tight: benchmark.tight,
            budget,
        }
    }
}

/// The pairs of a pipeline workload. `table1-d2` is the 19 degree-2 pairs (the 18
/// of Table 1 plus the running example `join`) in an order drawn from `seed`;
/// `nested-d3` is the single degree-3 pair, which the seed cannot vary.
pub fn pairs(workload: &str, seed: u64) -> Vec<Pair> {
    let mut benchmarks = all_benchmarks();
    benchmarks.push(running_example());
    if workload == "nested-d3" {
        return benchmarks
            .iter()
            .filter(|b| b.degree == 3)
            .map(|b| Pair::from_benchmark(b, NESTED_BUDGET))
            .collect();
    }
    let mut pairs: Vec<Pair> = benchmarks
        .iter()
        .filter(|b| b.degree == 2)
        .map(|b| Pair::from_benchmark(b, TABLE1_BUDGET))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_index(i + 1));
    }
    pairs
}

/// Solves one pair cold and checks the verdict against its tight threshold.
/// `at` is `(pass, request)`; counters are only gathered in the traced run.
pub fn solve_pair(
    pair: &Pair,
    trace: &mut Trace,
    at: (usize, usize),
    counters: &mut Counters,
) -> Sample {
    let options = AnalysisOptions::with_degree(pair.degree).with_time_budget(pair.budget);
    let tier = options.invariant_tier;
    let root = trace.open("request", at.0, at.1, None);
    let (new, lang_new) = trace.time("lang", root, at, || dca_lang::compile(&pair.new));
    let (old, lang_old) = trace.time("lang", root, at, || dca_lang::compile(&pair.old));
    let new = new.unwrap_or_else(|e| panic!("{}: new version does not compile: {e}", pair.id));
    let old = old.unwrap_or_else(|e| panic!("{}: old version does not compile: {e}", pair.id));
    let (new, invariants_new) = trace.time("invariants", root, at, || {
        AnalyzedProgram::from_lowered_at_tier(&new, tier)
    });
    let (old, invariants_old) = trace.time("invariants", root, at, || {
        AnalyzedProgram::from_lowered_at_tier(&old, tier)
    });
    if trace.enabled() {
        bump(counters, "invariants.calls", 2.0);
        replay_split(&new, &old, tier, trace, root, at, counters);
        replay_encode(&options, &new, &old, trace, root, at, counters);
    }
    let solver = DiffCostSolver::new(options);
    let (result, solve_s) = trace.time("solve", root, at, || solver.solve(&new, &old));
    trace.close(root);

    let ms = (lang_new + lang_old + invariants_new + invariants_old + solve_s) * 1e3;
    let mut sample = Sample {
        id: pair.id.clone(),
        ms,
        ok: false,
        tight: false,
        bits: 0,
        pivots: 0,
        cache: "miss".to_string(),
    };
    match &result {
        Ok(result) => {
            if result.threshold_int() < pair.tight {
                unsound(&pair.id, result.threshold, pair.tight);
            }
            if trace.enabled() {
                add_lp_stats(counters, &result.stats);
            }
            sample.tight = result.outcome().is_certified() && result.threshold_int() == pair.tight;
            sample.ok = sample.tight;
            sample.bits = result.threshold.to_bits();
            sample.pivots = result.stats.lp_iterations;
        }
        Err(error) => eprintln!("{}: {error}", pair.id),
    }
    sample
}

/// Replays the phase split `solve` attempts on both sides.
fn replay_split(
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
    tier: InvariantTier,
    trace: &mut Trace,
    root: Option<usize>,
    at: (usize, usize),
    counters: &mut Counters,
) {
    for program in [new, old] {
        let (split, _) = trace.time("split", root, at, || program.split_phases_at_tier(tier));
        if split.is_some() {
            bump(counters, "split.fired", 1.0);
        }
    }
}

/// Replays the Handelman encoding of both sides' potential constraints.
fn replay_encode(
    options: &AnalysisOptions,
    new: &AnalyzedProgram,
    old: &AnalyzedProgram,
    trace: &mut Trace,
    root: Option<usize>,
    at: (usize, usize),
    counters: &mut Counters,
) {
    let ((rows, pruned, lazy), _) = trace.time("encode", root, at, || {
        let mut factory = UnknownFactory::new();
        factory.fresh("t", UnknownKind::Free);
        let allocate = |program: &AnalyzedProgram, factory: &mut UnknownFactory, prefix| {
            let cost = options.include_cost_in_template;
            ProgramTemplates::allocate(&program.ts, options.degree, cost, factory, prefix)
        };
        let templates_new = allocate(new, &mut factory, "phi_new");
        let templates_old = allocate(old, &mut factory, "chi_old");
        let mut set = ConstraintSet::new();
        let mut collect = |program: &AnalyzedProgram, templates, role| {
            collect_program_constraints(
                &program.ts,
                &program.invariants,
                templates,
                role,
                options.max_products,
                &mut factory,
                &mut set,
            )
        };
        let potential = collect(new, &templates_new, TemplateRole::Potential);
        let anti = collect(old, &templates_old, TemplateRole::AntiPotential);
        (
            set.len(),
            potential.pruned + anti.pruned,
            potential.lazy_multipliers.len() + anti.lazy_multipliers.len(),
        )
    });
    bump(counters, "encode.rows_raw", rows as f64);
    bump(counters, "encode.transitions_pruned", pruned as f64);
    bump(counters, "encode.products_lazy", lazy as f64);
}

/// Adds the public solve statistics of one solve to the pass counters.
pub fn add_lp_stats(counters: &mut Counters, stats: &SolveStats) {
    let phases = [
        stats.lp_presolve_time,
        stats.lp_float_time,
        stats.lp_certify_time,
        stats.lp_repair_time,
    ];
    for (name, time) in LP_PHASES.into_iter().zip(phases) {
        bump(counters, name, time.as_secs_f64());
    }
    let counts = [
        ("lp.pivots_float", stats.lp_float_iterations),
        ("lp.pivots_exact", stats.lp_exact_iterations),
        ("lp.rows", stats.lp_constraints),
        ("lp.rows_raw", stats.lp_constraints_raw),
        ("lp.cols", stats.lp_variables),
        ("lp.rounds", stats.lp_separation_rounds),
        ("lp.products_generated", stats.lp_products_generated),
        ("lp.products_total", stats.lp_products_total),
        ("lp.lu_updates", stats.lp_lu_updates),
        ("lp.lu_refactorizations", stats.lp_lu_refactorizations),
    ];
    for (name, count) in counts {
        bump(counters, name, count as f64);
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The median of a sample, or 0 for an empty one (a request class the run never saw).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The pipeline layers' metrics from traced passes: each span time and LP phase
/// time is its smallest over the passes, counts come from the first pass (every
/// pass repeats them; see `check_repeats`).
pub fn add_pipeline_layers(metrics: &mut Metrics, trace: &Trace, passes: &[Pass]) {
    let per_pass = |value: &dyn Fn(usize, &Counters) -> f64| {
        fastest(
            passes
                .iter()
                .enumerate()
                .map(|(i, p)| value(i, &p.counters)),
        )
    };
    let get = |counters: &Counters, name: &str| counters.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| get(&passes[0].counters, name);
    for (metric, span) in [
        ("lang.s", "lang"),
        ("invariants.s", "invariants"),
        ("split.s", "split"),
        ("encode.s", "encode"),
        ("solve.s", "solve"),
    ] {
        metrics.set(metric, per_pass(&|pass, _| trace.total(span, pass)), "s");
    }
    for name in LP_PHASES {
        metrics.set(name, per_pass(&|_, counters| get(counters, name)), "s");
    }
    let other = |pass: usize, counters: &Counters| {
        trace.total("solve", pass)
            - LP_PHASES
                .iter()
                .map(|name| get(counters, name))
                .sum::<f64>()
    };
    metrics.set("solve.other_s", per_pass(&other), "s");
    for name in [
        "invariants.calls",
        "split.fired",
        "encode.rows_raw",
        "encode.transitions_pruned",
        "encode.products_lazy",
        "lp.pivots_float",
        "lp.pivots_exact",
        "lp.rows",
        "lp.cols",
        "lp.rounds",
        "lp.lu_updates",
        "lp.lu_refactorizations",
    ] {
        metrics.set(name, count(name), "count");
    }
    metrics.set(
        "lp.dedup_frac",
        ratio(count("lp.rows"), count("lp.rows_raw")),
        "ratio",
    );
    metrics.set(
        "lp.products_generated_frac",
        ratio(count("lp.products_generated"), count("lp.products_total")),
        "ratio",
    );
}

/// Runs a pipeline workload; the traced run also returns its per-layer metrics.
pub fn run(pairs: &[Pair], seconds: f64, trace: &mut Trace) -> (Vec<Pass>, Option<Metrics>) {
    let passes = timed_passes(
        seconds,
        |_| (),
        |pass, ()| {
            let mut counters = Counters::new();
            let samples = (pairs.iter().enumerate())
                .map(|(index, pair)| {
                    solve_pair(
                        pair,
                        trace,
                        (pass, pass * pairs.len() + index),
                        &mut counters,
                    )
                })
                .collect();
            (samples, counters)
        },
    );
    if !trace.enabled() {
        return (passes, None);
    }
    let mut metrics = Metrics::default();
    add_pipeline_layers(&mut metrics, trace, &passes);
    // The cache layer is measured in `serve-mix` only: these requests are all cold
    // misses solved without an engine.
    for name in [
        "cache.hit_frac",
        "cache.near_frac",
        "serve.near_pivot_ratio",
    ] {
        metrics.set(name, 0.0, "ratio");
    }
    metrics.set("cache.compiles", 0.0, "count");
    metrics.set("serve.miss_ms_p50", median(&best_request_ms(&passes)), "ms");
    metrics.set("serve.near_ms_p50", 0.0, "ms");
    metrics.set("serve.hit_ms_p50", 0.0, "ms");
    (passes, Some(metrics))
}
