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
//! still completes. That isolation extends to *panics*: each solve runs under
//! [`std::panic::catch_unwind`], a panicking pair is reported as
//! [`AnalysisError::Panicked`] with its crash-site phase, and the surviving workers
//! keep draining the queue. A batch-wide [`Deadline`] is scoped per job
//! ([`Deadline::scoped`]) so cancelling one solve never takes down its siblings.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use dca_lp::fault::{self, FaultKind};
use dca_lp::{Deadline, SolvePhase};

use crate::options::AnalysisOptions;
use crate::program::AnalyzedProgram;
use crate::solver::{AnalysisError, DiffCostResult, DiffCostSolver, SolveOutcome, SolveStats};

/// The two program versions of a batch job, either pre-analyzed or as source text.
///
/// Source-text jobs are parsed, lowered and invariant-analyzed *inside* the worker, so
/// the whole front half of the pipeline parallelizes too; pre-analyzed jobs let callers
/// share an [`AnalyzedProgram`] they already have.
// `Analyzed` dwarfs `Source`, but jobs are built once per pair and never stored in
// bulk, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PairInput {
    /// Both versions already analyzed.
    Analyzed {
        /// The new (revised) program version.
        new: AnalyzedProgram,
        /// The old (baseline) program version.
        old: AnalyzedProgram,
    },
    /// Both versions as source text in the mini-language.
    Source {
        /// Source of the new (revised) program version.
        new: String,
        /// Source of the old (baseline) program version.
        old: String,
    },
}

/// One unit of work for the batch engine: a named program pair plus analysis options.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Display name of the pair (e.g. the Table-1 benchmark name).
    pub name: String,
    /// The two program versions.
    pub input: PairInput,
    /// Options for the solve.
    pub options: AnalysisOptions,
}

impl BatchJob {
    /// A job over two pre-analyzed programs, with default options.
    pub fn from_programs(
        name: impl Into<String>,
        new: AnalyzedProgram,
        old: AnalyzedProgram,
    ) -> BatchJob {
        BatchJob {
            name: name.into(),
            input: PairInput::Analyzed { new, old },
            options: AnalysisOptions::default(),
        }
    }

    /// A job over two source texts, with default options. The sources are compiled in
    /// the worker; compile errors surface as [`AnalysisError::InvalidProgram`].
    pub fn from_sources(
        name: impl Into<String>,
        new: impl Into<String>,
        old: impl Into<String>,
    ) -> BatchJob {
        BatchJob {
            name: name.into(),
            input: PairInput::Source { new: new.into(), old: old.into() },
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
#[derive(Debug, Clone, PartialEq, Eq)]
#[derive(Default)]
pub struct BatchConfig {
    /// Number of worker threads. `0` means "one per available CPU"; the effective
    /// count is always clamped to the number of jobs.
    pub jobs: usize,
    /// Wall-clock budget applied to each solve (`None` = unlimited). A job whose own
    /// options already carry a budget keeps it.
    pub time_budget: Option<Duration>,
    /// A batch-wide hard deadline (`None` = unlimited). Every job runs under a
    /// [scoped](Deadline::scoped) child of it, tightened by the per-solve
    /// `time_budget`: when the batch deadline expires or is cancelled, every worker
    /// stops cooperatively at its next poll and the unfinished pairs report
    /// [`AnalysisError::Timeout`].
    pub deadline: Option<Deadline>,
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

    /// Sets the batch-wide hard deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> BatchConfig {
        self.deadline = Some(deadline);
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
    let batch_deadline = config.deadline.clone().unwrap_or_default();
    let slots: Vec<Mutex<Option<PairOutcome>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(index) else { break };
                let job_start = Instant::now();
                // Panic containment: a panicking solve must not take the worker (and
                // with it the rest of the queue) down. The closure only touches the
                // job and config by shared reference, and a broken invariant inside
                // a failed solve cannot outlive it — nothing of the solve escapes
                // except the outcome we construct — so `AssertUnwindSafe` is sound.
                let cpu_start = thread_cpu_time();
                let solved =
                    catch_unwind(AssertUnwindSafe(|| run_one(job, config, &batch_deadline)));
                let mut outcome = solved.unwrap_or_else(|payload| PairOutcome {
                    name: job.name.clone(),
                    result: Err(AnalysisError::Panicked {
                        phase: fault::current_phase(),
                        message: panic_message(payload.as_ref()),
                    }),
                    degree: job.options.degree,
                    duration: job_start.elapsed(),
                    cpu_duration: Duration::ZERO,
                });
                // The solve ran entirely on this thread, so the thread CPU clock
                // delta is exactly the pair's charge; fall back to wall time where
                // the clock is unavailable.
                outcome.cpu_duration = match (cpu_start, thread_cpu_time()) {
                    (Some(before), Some(after)) => after.saturating_sub(before),
                    _ => outcome.duration,
                };
                // A sibling worker can only have poisoned *its own* slot (one writer
                // per index), and a poisoned `Option` write is atomic-or-absent:
                // recover the guard and overwrite.
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            });
        }
    });

    let outcomes = slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, job)| {
            slot.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                // Unreachable in practice (the catch_unwind above fills every claimed
                // slot), but a lost worker must surface as a per-pair error, not a
                // batch-wide panic.
                PairOutcome {
                    name: job.name.clone(),
                    result: Err(AnalysisError::Panicked {
                        phase: SolvePhase::Compile,
                        message: "worker terminated before recording an outcome".into(),
                    }),
                    degree: job.options.degree,
                    duration: Duration::ZERO,
                    cpu_duration: Duration::ZERO,
                }
            })
        })
        .collect();
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
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Solves a single job (compile if needed, then solve) under a per-job scope of the
/// batch-wide deadline.
fn run_one(job: &BatchJob, config: &BatchConfig, batch_deadline: &Deadline) -> PairOutcome {
    let start = Instant::now();
    // A fresh cancel flag per job: a deadline-fault injection (or any other per-job
    // cancellation) stops this pair only, while a batch-wide cancel still reaches it
    // through the parent link.
    let deadline = batch_deadline.scoped();
    if fault::enter(SolvePhase::Compile) == Some(FaultKind::Deadline) {
        deadline.cancel();
    }
    let mut options = job.options;
    if options.time_budget.is_none() {
        options.time_budget = config.time_budget;
    }
    let outcome = |result| PairOutcome {
        name: job.name.clone(),
        result,
        degree: options.degree,
        duration: start.elapsed(),
        cpu_duration: Duration::ZERO,
    };
    let compiled = match &job.input {
        PairInput::Analyzed { new, old } => Ok((new.clone(), old.clone())),
        PairInput::Source { new, old } => AnalyzedProgram::from_source(new)
            .and_then(|n| AnalyzedProgram::from_source(old).map(|o| (n, o))),
    };
    let (new, old) = match compiled {
        Ok(pair) => pair,
        Err(message) => return outcome(Err(AnalysisError::InvalidProgram(message))),
    };
    if deadline.expired() {
        return outcome(Err(AnalysisError::Timeout { phase: SolvePhase::Compile }));
    }
    outcome(DiffCostSolver::new(options).with_deadline(deadline).solve(&new, &old))
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
