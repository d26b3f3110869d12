//! A compile-phase fault in the daemon: the request compiles under the batch
//! engine's compile-phase protocol, so `DCA_FAULT=compile:*` fires and a compile
//! panic is attributed to `compile`, not to whatever phase the connection thread
//! entered during its previous request. The fault state is process-global, which
//! is why this test has a binary of its own.

use dca_lp::fault::{self, FaultKind, FaultSpec};
use dca_lp::SolvePhase;
use dca_serve::{AnalyzeRequest, Engine, Frame, Request};

fn source(tick: u32) -> String {
    format!(
        "proc count(n) {{ assume(n >= 1 && n <= 30); i = 0; \
         while (i < n) {{ tick({tick}); i = i + 1; }} }}"
    )
}

fn analyze(id: &str, new: &str, old: &str) -> Request {
    Request::Analyze(AnalyzeRequest::new(id, new, old))
}

fn outcome(frames: &[Frame]) -> &str {
    match frames {
        [Frame::Result(result)] => &result.outcome,
        other => panic!("expected a single result frame, got {other:?}"),
    }
}

#[test]
fn a_compile_panic_is_contained_and_attributed_to_compile() {
    let engine = Engine::new();
    // A certified solve first: it leaves this thread's phase marker on an LP phase.
    let first = engine.handle_collect(&analyze("q1", &source(2), &source(1)));
    assert_eq!(outcome(&first), "certified");

    fault::install(Some(FaultSpec { phase: SolvePhase::Compile, kind: FaultKind::Panic, nth: 1 }));
    let faulted = engine.handle_collect(&analyze("q2", &source(3), &source(1)));
    let triggered = fault::triggered();
    fault::install(None);
    assert!(triggered, "the request never entered the compile phase");
    match faulted.as_slice() {
        [Frame::Error { id, code, phase, message }] => {
            assert_eq!(id, "q2");
            assert_eq!(code, "panic");
            assert_eq!(phase.as_deref(), Some("compile"));
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected exactly one error frame, got {other:?}"),
    }

    // The fault is spent and cleared: the same pair now certifies.
    let retry = engine.handle_collect(&analyze("q3", &source(3), &source(1)));
    assert_eq!(outcome(&retry), "certified");
}
