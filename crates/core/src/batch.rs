//! Parallel batch analysis over many program pairs.
//!
//! The paper's evaluation (Section 6) runs 19 independent program pairs — an
//! embarrassingly parallel workload. This module provides the engine for it: a set of
//! [`BatchJob`]s is fanned out across [`std::thread::scope`] workers pulling from a
//! shared atomic queue, and each pair is solved at its job's degree.
//!
//! Results are deterministic: every pair is solved independently of worker scheduling,
//! and the [`BatchReport`] lists outcomes in input order, so `jobs = 1` and `jobs = N`
//! produce identical analyses (only the wall clock differs). One failing pair does not
//! poison the batch — its error is recorded in its [`PairOutcome`] and every other pair
//! still completes. That isolation extends to *panics*: each compile and each solve
//! runs through [`contained`], a panicking pair is reported as
//! [`AnalysisError::Panicked`] with its crash-site phase, and the surviving workers
//! keep draining the queue. Every job's solver owns its own
//! [`Deadline`](dca_lp::Deadline), so cancelling one solve never takes down its
//! siblings. The serve engine
//! (`dca_serve::Engine`) runs its requests through the same [`contained`] and
//! [`compile_contained`]: this module holds the workspace's one panic boundary.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dca_lp::fault::{self, FaultKind};
use dca_lp::SolvePhase;

use crate::options::AnalysisOptions;
use crate::program::AnalyzedProgram;
use crate::solver::{AnalysisError, DiffCostResult, DiffCostSolver, SolveOutcome, SolveStats};

/// One unit of work for the batch engine: a named program pair, as source text, plus
/// analysis options. The sources are parsed, lowered and invariant-analyzed *inside*
/// the worker, so the whole front half of the pipeline parallelizes too.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name of the pair (e.g. the Table-1 benchmark name).
    pub name: String,
    /// Source of the new (revised) program version.
    pub new: String,
    /// Source of the old (baseline) program version.
    pub old: String,
    /// Options for the solve.
    pub options: AnalysisOptions,
}

impl BatchJob {
    /// A job over two source texts, with default options. The sources are compiled in
    /// the worker; compile errors surface as [`AnalysisError::InvalidProgram`].
    pub fn from_sources(
        name: impl Into<String>,
        new: impl Into<String>,
        old: impl Into<String>,
    ) -> BatchJob {
        BatchJob {
            name: name.into(),
            new: new.into(),
            old: old.into(),
            options: AnalysisOptions::default(),
        }
    }

    /// Replaces the analysis options of this job.
    pub fn with_options(mut self, options: AnalysisOptions) -> BatchJob {
        self.options = options;
        self
    }
}

/// Configuration of one batch run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of worker threads. `0` means "one per available CPU"; the effective
    /// count is always clamped to the number of jobs.
    pub jobs: usize,
    /// Wall-clock budget applied to each solve (`None` = unlimited). A job whose own
    /// options already carry a budget keeps it.
    pub time_budget: Option<Duration>,
}

impl BatchConfig {
    /// A configuration with the given worker count.
    pub fn with_jobs(jobs: usize) -> BatchConfig {
        BatchConfig { jobs, ..BatchConfig::default() }
    }

    /// Sets the per-solve wall-clock budget.
    pub fn with_time_budget(mut self, budget: Duration) -> BatchConfig {
        self.time_budget = Some(budget);
        self
    }
}

/// The outcome of one pair in a batch run.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// The job's name.
    pub name: String,
    /// The analysis result, or the error this pair failed with.
    pub result: Result<DiffCostResult, AnalysisError>,
    /// The template degree the pair was solved at (the job's degree).
    pub degree: u32,
    /// Wall-clock time this pair spent in its worker (compile + solve).
    pub duration: Duration,
    /// CPU time (user + system) the worker thread charged to this pair, read from
    /// the scheduler via [`thread_cpu_time`]. Unlike `duration` it is immune to
    /// queue-wait and sibling-load noise, so time-regression gates compare it.
    /// Falls back to the wall-clock `duration` on platforms without `/proc`.
    pub cpu_duration: Duration,
}

impl PairOutcome {
    /// Statistics of the successful solve, if any.
    pub fn stats(&self) -> Option<SolveStats> {
        self.result.as_ref().ok().map(|r| r.stats)
    }

    /// `true` if the pair produced a threshold.
    pub fn is_solved(&self) -> bool {
        self.result.is_ok()
    }

    /// Where this pair landed on the degradation ladder (see [`SolveOutcome`]):
    /// `Certified` or `TruncatedAnytime` when the solve produced a threshold,
    /// `Aborted` (with the failing phase, when known) otherwise.
    pub fn outcome(&self) -> SolveOutcome {
        match &self.result {
            Ok(result) => result.outcome(),
            Err(error) => SolveOutcome::Aborted {
                phase: error.phase(),
                reason: error.to_string(),
            },
        }
    }
}

/// The result of a batch run: per-pair outcomes in input order, plus totals.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per input job, in input order (independent of scheduling).
    pub outcomes: Vec<PairOutcome>,
    /// Wall-clock time of the whole batch.
    pub wall_clock: Duration,
    /// The effective number of worker threads used.
    pub jobs: usize,
}

impl BatchReport {
    /// Number of pairs that produced a threshold.
    pub fn solved(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_solved()).count()
    }

    /// Number of pairs that failed (no witness, compile error, ...).
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.solved()
    }

    /// Sum of per-pair CPU times: the serial cost the parallel run amortized.
    pub fn cpu_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.cpu_duration).sum()
    }

    /// Number of pairs whose threshold is exactly certified.
    pub fn certified(&self) -> usize {
        self.outcomes.iter().filter(|o| o.outcome().is_certified()).count()
    }

    /// Number of pairs that degraded to a truncated-anytime (sound but possibly
    /// loose) bound.
    pub fn truncated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.outcome(), SolveOutcome::TruncatedAnytime { .. }))
            .count()
    }

    /// Number of pairs that produced no bound at all.
    pub fn aborted(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.outcome(), SolveOutcome::Aborted { .. }))
            .count()
    }
}

/// Resolves a [`BatchConfig::jobs`] request against the machine and the job count.
fn effective_jobs(requested: usize, job_count: usize) -> usize {
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let requested = if requested == 0 { hardware } else { requested };
    requested.clamp(1, job_count.max(1))
}

/// Runs every job and collects per-pair outcomes, fanning out across worker threads.
///
/// Workers pull indices from a shared atomic counter, so the distribution of pairs to
/// threads is dynamic (long-running pairs do not stall the queue), while the analyses
/// themselves stay deterministic.
pub fn run_batch(jobs: &[BatchJob], config: &BatchConfig) -> BatchReport {
    let start = Instant::now();
    let workers = effective_jobs(config.jobs, jobs.len());
    let next = AtomicUsize::new(0);
    let mut finished: Vec<(usize, PairOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut finished = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break finished };
                        finished.push((index, run_one(job, config)));
                    }
                })
            })
            .collect();
        // `run_one` contains every panic of a job, so a worker only ends by draining
        // the queue; anything else is a bug of the engine itself and propagates.
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    finished.sort_by_key(|(index, _)| *index);
    let outcomes = finished.into_iter().map(|(_, outcome)| outcome).collect();
    BatchReport { outcomes, wall_clock: start.elapsed(), jobs: workers }
}

/// CPU time (user + system) consumed so far by the *calling thread*, read from
/// `/proc/thread-self/stat`. Returns `None` when the file is unavailable or
/// malformed (non-Linux platforms); callers fall back to wall-clock time.
///
/// Per-thread CPU time is what the time-regression gates of the bench bins
/// compare: unlike wall time it does not inflate when a run shares the machine
/// with other load, which is the dominant source of gate flakiness in CI.
pub fn thread_cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The comm field can itself contain spaces and parentheses, so split at the
    // *last* ')': everything after it is whitespace-separated numeric fields.
    let (_, rest) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // utime/stime are in clock ticks; USER_HZ is 100 on every supported target,
    // so one tick is 10 ms.
    Some(Duration::from_millis((utime + stime) * 10))
}

/// Renders a caught panic payload for the error report (panics almost always carry
/// `&str` or `String`; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one step of a job or request — a compile or a solve — under panic
/// containment. A panic becomes [`AnalysisError::Panicked`], attributed to the phase
/// this thread entered last ([`fault::current_phase`], the crash site); an `Ok` or
/// `Err` result passes through unchanged. The batch workers and the serve engine
/// run every compile and every solve through here, so one panicking pair or
/// request never takes down its thread, its siblings or the daemon.
pub fn contained<T>(
    step: impl FnOnce() -> Result<T, AnalysisError>,
) -> Result<T, AnalysisError> {
    // Nothing of a failed step escapes the closure except the error built here, so
    // a broken invariant inside it cannot outlive it: `AssertUnwindSafe` is sound.
    catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
        Err(AnalysisError::Panicked {
            phase: fault::current_phase(),
            message: panic_message(payload.as_ref()),
        })
    })
}

/// The compile phase of a job or request, [`contained`]: enters
/// [`SolvePhase::Compile`] (the `DCA_FAULT` injection point of the phase), then runs
/// `compile`. A compile error becomes [`AnalysisError::InvalidProgram`] carrying the
/// compiler's message. A compile-phase deadline (an injected `compile:deadline`)
/// cancels this job or request alone: it reports [`AnalysisError::Timeout`] in
/// [`SolvePhase::Compile`] once compilation returns, and never reaches a solve.
pub fn compile_contained<T>(
    compile: impl FnOnce() -> Result<T, String>,
) -> Result<T, AnalysisError> {
    contained(|| {
        let cancelled = fault::enter(SolvePhase::Compile) == Some(FaultKind::Deadline);
        let compiled = compile().map_err(AnalysisError::InvalidProgram)?;
        if cancelled {
            return Err(AnalysisError::Timeout { phase: SolvePhase::Compile });
        }
        Ok(compiled)
    })
}

/// Runs one job on the calling worker: compile, then solve, each [`contained`]. The
/// job's solver owns a fresh [`Deadline`](dca_lp::Deadline), so a deadline fault or
/// cancellation inside this solve stops this pair only.
fn run_one(job: &BatchJob, config: &BatchConfig) -> PairOutcome {
    let start = Instant::now();
    let cpu_start = thread_cpu_time();
    let mut options = job.options;
    if options.time_budget.is_none() {
        options.time_budget = config.time_budget;
    }
    let result = compile_contained(|| {
        let new = AnalyzedProgram::from_source(&job.new)?;
        Ok((new, AnalyzedProgram::from_source(&job.old)?))
    })
    .and_then(|(new, old)| contained(|| DiffCostSolver::new(options).solve(&new, &old)));
    let duration = start.elapsed();
    // The job ran entirely on this thread, so the thread CPU clock delta is exactly
    // the pair's charge; fall back to wall time where the clock is unavailable.
    let cpu_duration = match (cpu_start, thread_cpu_time()) {
        (Some(before), Some(after)) => after.saturating_sub(before),
        _ => duration,
    };
    PairOutcome { name: job.name.clone(), result, degree: options.degree, duration, cpu_duration }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK1: &str =
        "proc f(n) { assume(n >= 1 && n <= 20); i = 0; while (i < n) { tick(1); i = i + 1; } }";
    const TICK2: &str =
        "proc f(n) { assume(n >= 1 && n <= 20); i = 0; while (i < n) { tick(2); i = i + 1; } }";
    const TICK3: &str =
        "proc f(n) { assume(n >= 1 && n <= 20); i = 0; while (i < n) { tick(3); i = i + 1; } }";

    fn thresholds(report: &BatchReport) -> Vec<Option<i64>> {
        report
            .outcomes
            .iter()
            .map(|o| o.result.as_ref().ok().map(|r| r.threshold_int()))
            .collect()
    }

    #[test]
    fn contained_names_the_crash_site_and_passes_results_through() {
        let panicked = |phase: SolvePhase, message: &str| {
            Err::<(), _>(AnalysisError::Panicked { phase, message: message.to_string() })
        };
        // The payload shapes: a `&str` literal, a formatted `String`, anything else.
        fault::enter(SolvePhase::Encode);
        let literal = contained(|| panic!("static payload"));
        assert_eq!(literal, panicked(SolvePhase::Encode, "static payload"));
        fault::enter(SolvePhase::LpCertify);
        let formatted = contained(|| panic!("formatted payload {}", 7));
        assert_eq!(formatted, panicked(SolvePhase::LpCertify, "formatted payload 7"));
        // The crash site is the phase entered last, inside the step too.
        let opaque = contained(|| {
            fault::enter(SolvePhase::LpRowGen);
            std::panic::panic_any(42_u32)
        });
        assert_eq!(opaque, panicked(SolvePhase::LpRowGen, "non-string panic payload"));
        // A step that does not panic passes through unchanged, `Ok` and `Err` alike.
        assert_eq!(contained(|| Ok(7)), Ok(7));
        assert_eq!(
            contained(|| Err::<u32, _>(AnalysisError::NoThresholdFound)),
            Err(AnalysisError::NoThresholdFound)
        );
        // The compile phase is entered before compiling, and its errors keep the
        // compiler's message.
        let compiled = compile_contained(|| Err::<(), _>("expected `(`".to_string()));
        assert_eq!(compiled, Err(AnalysisError::InvalidProgram("expected `(`".to_string())));
        assert_eq!(fault::current_phase(), SolvePhase::Compile);
    }

    #[test]
    fn effective_jobs_clamps_to_job_count() {
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(2, 3), 2);
        assert_eq!(effective_jobs(1, 0), 1);
        assert!(effective_jobs(0, 64) >= 1);
    }

    #[test]
    fn batch_results_are_in_input_order_and_deterministic_across_jobs() {
        let jobs = vec![
            BatchJob::from_sources("double", TICK2, TICK1),
            BatchJob::from_sources("triple", TICK3, TICK1),
            BatchJob::from_sources("same", TICK1, TICK1),
        ];
        let serial = run_batch(&jobs, &BatchConfig::with_jobs(1));
        let parallel = run_batch(&jobs, &BatchConfig::with_jobs(3));
        assert_eq!(serial.jobs, 1);
        assert_eq!(parallel.jobs, 3);
        // thresholds: 2n - n = n <= 20; 3n - n = 2n <= 40; identical = 0.
        assert_eq!(thresholds(&serial), vec![Some(20), Some(40), Some(0)]);
        assert_eq!(thresholds(&serial), thresholds(&parallel));
        let names: Vec<&str> = parallel.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["double", "triple", "same"]);
    }

    #[test]
    fn one_failing_pair_does_not_poison_the_batch() {
        let jobs = vec![
            BatchJob::from_sources("ok", TICK2, TICK1),
            BatchJob::from_sources("broken", "proc f( {", TICK1),
            BatchJob::from_sources("also-ok", TICK3, TICK1),
        ];
        let report = run_batch(&jobs, &BatchConfig::with_jobs(2));
        assert_eq!(report.solved(), 2);
        assert_eq!(report.failed(), 1);
        assert!(report.outcomes[0].is_solved());
        assert!(matches!(
            report.outcomes[1].result,
            Err(AnalysisError::InvalidProgram(_))
        ));
        assert!(report.outcomes[2].is_solved());
    }
}
