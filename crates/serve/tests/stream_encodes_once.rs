//! A streamed request runs one solve: the phase split, the Handelman encoding
//! and the LP build happen once however the budget runs out, so a deadline
//! armed for the *second* encode entry never fires and the request certifies.
//! The fault state is process-global, which is why this test has a binary of
//! its own.
//!
//! The budget is about three times what `join` takes in a test-profile build,
//! and an eighth of it is too short for `join` there: a daemon that re-ran the
//! solve under growing slices of the budget would encode a second time.

use dca_lp::fault::{self, FaultKind, FaultSpec};
use dca_lp::SolvePhase;
use dca_serve::{AnalyzeRequest, Engine, Frame, Request};

#[test]
fn a_streamed_request_encodes_once() {
    let join = dca_benchmarks::running_example();
    let mut request = AnalyzeRequest::new("q1", join.source_new, join.source_old);
    request.stream = true;
    request.timeout_ms = Some(1_000);
    fault::install(Some(FaultSpec {
        phase: SolvePhase::Encode,
        kind: FaultKind::Deadline,
        nth: 2,
    }));
    let frames = Engine::new().handle_collect(&Request::Analyze(request));
    let triggered = fault::triggered();
    fault::install(None);

    assert!(!triggered, "a second encode entry ran: the request was solved twice");
    match frames.last() {
        Some(Frame::Result(result)) => {
            assert_eq!(result.outcome, "certified", "{frames:?}");
            assert_eq!(result.threshold_int, join.tight);
        }
        other => panic!("expected a final result frame, got {other:?}"),
    }
}
