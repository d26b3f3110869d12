//! The fault-injection test matrix: every `(phase × kind)` cell of `DCA_FAULT` must
//! produce a machine-distinguishable outcome, leave the rest of the batch intact, and
//! never let a degraded solve report a threshold that disagrees with the fault-free
//! run. The fault state is process-global, so everything here runs under one lock.

use std::sync::Mutex;

use dca_core::batch::{run_batch, BatchConfig, BatchJob, BatchReport};
use dca_core::{AnalysisError, SolveOutcome};
use dca_lp::fault::{self, FaultKind, FaultSpec};
use dca_lp::SolvePhase;

/// Serializes the tests in this file: `fault::install` writes process-global state.
static LOCK: Mutex<()> = Mutex::new(());

const TICK1: &str =
    "proc f(n) { assume(n >= 1 && n <= 20); i = 0; while (i < n) { tick(1); i = i + 1; } }";
const TICK2: &str =
    "proc f(n) { assume(n >= 1 && n <= 20); i = 0; while (i < n) { tick(2); i = i + 1; } }";
const TICK3: &str =
    "proc f(n) { assume(n >= 1 && n <= 20); i = 0; while (i < n) { tick(3); i = i + 1; } }";

fn jobs() -> Vec<BatchJob> {
    vec![
        BatchJob::from_sources("double", TICK2, TICK1),
        BatchJob::from_sources("triple", TICK3, TICK1),
        BatchJob::from_sources("same", TICK1, TICK1),
    ]
}

fn thresholds(report: &BatchReport) -> Vec<Option<i64>> {
    report
        .outcomes
        .iter()
        .map(|o| o.result.as_ref().ok().map(|r| r.threshold_int()))
        .collect()
}

/// Every cell of the `(phase × kind)` matrix, against a fault-free baseline.
#[test]
fn every_matrix_cell_degrades_predictably_and_is_contained() {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // Injected panics are expected here; keep them off the test output.
    std::panic::set_hook(Box::new(|_| {}));

    fault::install(None);
    let baseline = run_batch(&jobs(), &BatchConfig::with_jobs(1));
    let baseline_thresholds = thresholds(&baseline);
    assert_eq!(baseline_thresholds, vec![Some(20), Some(40), Some(0)]);
    assert_eq!(baseline.certified(), 3);

    for phase in SolvePhase::ALL {
        for kind in [FaultKind::Panic, FaultKind::Deadline, FaultKind::Numeric] {
            let spec = FaultSpec { phase, kind, nth: 1 };
            fault::install(Some(spec));
            let report = run_batch(&jobs(), &BatchConfig::with_jobs(1));
            let triggered = fault::triggered();
            fault::install(None);
            let cell = format!("{phase}:{kind}");

            // The batch always completes every pair, whatever was injected.
            assert_eq!(report.outcomes.len(), 3, "{cell}: lost outcomes");

            if !triggered {
                // The armed phase was never entered (legitimate only for the two
                // conditional LP phases — repair is skipped when the first basis
                // certifies, row generation when no lazy columns exist). The run
                // must then be indistinguishable from the fault-free one.
                assert!(
                    matches!(phase, SolvePhase::LpRepair | SolvePhase::LpRowGen),
                    "{cell}: fault never triggered in a mandatory phase"
                );
                assert_eq!(thresholds(&report), baseline_thresholds, "{cell}");
                assert_eq!(report.certified(), 3, "{cell}");
                continue;
            }

            // With one worker, the first pair to enter the phase is pair 0; the
            // siblings must match the baseline exactly in every cell.
            for (index, outcome) in report.outcomes.iter().enumerate().skip(1) {
                assert!(
                    outcome.outcome().is_certified(),
                    "{cell}: sibling {index} degraded: {:?}",
                    outcome.outcome()
                );
                assert_eq!(
                    thresholds(&report)[index], baseline_thresholds[index],
                    "{cell}: sibling {index} changed its threshold"
                );
            }

            let faulted = &report.outcomes[0];
            match kind {
                FaultKind::Panic => match &faulted.result {
                    Err(AnalysisError::Panicked { phase: at, message }) => {
                        assert_eq!(*at, phase, "{cell}: wrong crash site");
                        assert!(message.contains("injected fault"), "{cell}: {message}");
                        assert!(matches!(
                            faulted.outcome(),
                            SolveOutcome::Aborted { phase: Some(p), .. } if p == phase
                        ));
                    }
                    other => panic!("{cell}: expected a contained panic, got {other:?}"),
                },
                FaultKind::Deadline => match faulted.outcome() {
                    // A cancelled solve that had a feasible iterate degrades to an
                    // anytime bound; its upper bound must stay sound (≥ the true
                    // threshold the fault-free run certified).
                    SolveOutcome::TruncatedAnytime { upper, .. } => {
                        let tight = baseline_thresholds[0].unwrap() as f64;
                        assert!(upper >= tight - 1e-9, "{cell}: unsound bound {upper}");
                    }
                    SolveOutcome::Aborted { reason, .. } => {
                        assert!(
                            matches!(faulted.result, Err(AnalysisError::Timeout { .. })),
                            "{cell}: deadline abort without a timeout error: {reason}"
                        );
                    }
                    SolveOutcome::Certified { threshold } => {
                        // Allowed only when the solve finished before noticing the
                        // cancel — then the certificate is real and must agree with
                        // the fault-free answer.
                        assert_eq!(
                            threshold.floor() as i64,
                            baseline_thresholds[0].unwrap(),
                            "{cell}: certified a different threshold under cancellation"
                        );
                    }
                },
                // A forced numeric rejection makes the driver fall back to exact
                // arithmetic: same certified answer, by a more expensive route.
                FaultKind::Numeric => {
                    assert!(
                        faulted.outcome().is_certified(),
                        "{cell}: numeric rejection must not lose the certificate: {:?}",
                        faulted.outcome()
                    );
                    assert_eq!(thresholds(&report)[0], baseline_thresholds[0], "{cell}");
                }
            }
        }
    }
    let _ = std::panic::take_hook();
}

/// The containment guarantee on a *parallel* batch: an injected panic poisons
/// nothing — the surviving workers drain the queue, the panicking pair is reported as
/// [`AnalysisError::Panicked`], and every pair gets its outcome.
#[test]
fn a_panicking_job_is_contained_and_does_not_poison_a_parallel_batch() {
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::panic::set_hook(Box::new(|_| {}));

    fault::install(Some(FaultSpec {
        phase: SolvePhase::Encode,
        kind: FaultKind::Panic,
        nth: 1,
    }));
    let report = run_batch(&jobs(), &BatchConfig::with_jobs(2));
    fault::install(None);
    let _ = std::panic::take_hook();

    assert_eq!(report.outcomes.len(), 3, "every slot fills despite the panic");
    // Exactly one pair hit the injected panic (the hit counter is atomic); with two
    // workers, *which* pair is scheduling-dependent.
    let panicked: Vec<usize> = report
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o.result, Err(AnalysisError::Panicked { .. })))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(panicked.len(), 1, "exactly one pair absorbs the fault");
    assert_eq!(report.aborted(), 1);
    assert_eq!(report.certified(), 2);
    let expected = [Some(20), Some(40), Some(0)];
    for (index, outcome) in report.outcomes.iter().enumerate() {
        if index == panicked[0] {
            assert!(matches!(
                outcome.outcome(),
                SolveOutcome::Aborted { phase: Some(SolvePhase::Encode), .. }
            ));
        } else {
            assert_eq!(
                outcome.result.as_ref().ok().map(|r| r.threshold_int()),
                expected[index],
                "surviving pair {index} must match the fault-free answer"
            );
        }
    }
}

/// A fired phase split replaces the unsplit solve instead of running beside it: a
/// solve enters the encoding exactly once, so a deadline armed for the *second*
/// encode entry never fires, and the one (split) solve certifies the tight threshold.
#[test]
fn a_split_pair_encodes_once() {
    const OLD: &str = "proc f(n, m) { assume(n >= 1 && n <= 100 && m >= 1 && m <= 100); \
        i = 0; while (i < n) { tick(1); i = i + 1; } }";
    const NEW: &str = "proc f(n, m) { assume(n >= 1 && n <= 100 && m >= 1 && m <= 100); \
        tick(1); i = 0; while (i < n) { tick(1); \
        if (i == 0) { j = 0; while (j < m) { tick(1); j = j + 1; } } i = i + 1; } }";
    let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::install(Some(FaultSpec {
        phase: SolvePhase::Encode,
        kind: FaultKind::Deadline,
        nth: 2,
    }));
    let job = BatchJob::from_sources("NestedSingle", NEW, OLD);
    let report = run_batch(&[job], &BatchConfig::with_jobs(1));
    let triggered = fault::triggered();
    fault::install(None);

    assert!(!triggered, "a second encode entry ran: the pair was solved twice");
    let outcome = &report.outcomes[0];
    assert!(outcome.outcome().is_certified(), "{:?}", outcome.outcome());
    let result = outcome.result.as_ref().unwrap();
    assert!(result.stats.phases_split > 0, "the split must fire on NestedSingle");
    assert_eq!(result.threshold_int(), 101);
}
