//! The request engine: caches, per-request isolation, anytime streaming.

use std::time::{Duration, Instant};

use dca_core::batch::{compile_contained, contained};
use dca_core::{
    AnalysisError, AnalysisOptions, DiffCostSolver, ProgramCache, SolveCache, SolveProgress,
};
use dca_lp::Deadline;

use crate::protocol::{AnalyzeRequest, Frame, Request, ResultFrame};

/// The daemon's long-lived state: both caches plus the daemon-wide deadline every
/// request scopes itself under (so [`Engine::shutdown`] also cancels in-flight
/// solves cooperatively).
#[derive(Debug, Default)]
pub struct Engine {
    programs: ProgramCache,
    solves: SolveCache,
    deadline: Deadline,
}

impl Engine {
    /// A fresh engine with empty caches.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// The solve cache (exposed for stats, benches and tests).
    pub fn solve_cache(&self) -> &SolveCache {
        &self.solves
    }

    /// The program cache (exposed for stats, benches and tests).
    pub fn program_cache(&self) -> &ProgramCache {
        &self.programs
    }

    /// Requests cooperative shutdown: in-flight solves stop at their next
    /// deadline poll, and the accept loop of [`crate::serve_tcp`] drains.
    pub fn shutdown(&self) {
        self.deadline.cancel();
    }

    /// `true` once [`Engine::shutdown`] was called.
    pub fn shutting_down(&self) -> bool {
        self.deadline.expired()
    }

    /// Handles one request, emitting every response frame through `emit` (in
    /// order; the final frame of an `analyze` is always `result` or `error`).
    pub fn handle(&self, request: &Request, emit: &mut dyn FnMut(Frame)) {
        match request {
            Request::Ping => emit(Frame::Pong),
            Request::Stats => emit(Frame::Stats {
                entries: self.solves.len(),
                hits: self.solves.hits(),
                misses: self.solves.misses(),
                compiles: self.programs.compiles(),
            }),
            Request::Shutdown => {
                self.shutdown();
                emit(Frame::Bye);
            }
            Request::Analyze(analyze) => self.handle_analyze(analyze, emit),
        }
    }

    /// Like [`Engine::handle`], collecting the frames (test/bench convenience).
    pub fn handle_collect(&self, request: &Request) -> Vec<Frame> {
        let mut frames = Vec::new();
        self.handle(request, &mut |frame| frames.push(frame));
        frames
    }

    fn handle_analyze(&self, request: &AnalyzeRequest, emit: &mut dyn FnMut(Frame)) {
        let start = Instant::now();
        let options = AnalysisOptions::with_degree(request.degree.unwrap_or(2));

        // Compile both sides through the hash-consing cache, under the batch
        // engine's compile-phase protocol and containment: a compile panic or a
        // compile-phase deadline produces an error frame, not a dead daemon.
        let compiled = compile_contained(|| {
            let new = self.programs.get_or_compile(&request.new_source)?;
            Ok((new, self.programs.get_or_compile(&request.old_source)?))
        });
        let (new, old) = match compiled {
            Ok(pair) => pair,
            Err(failure) => return emit(error_frame(request, failure)),
        };

        // Repeat query: the exact pair at these options was certified before —
        // answer verbatim from the shared cache entry, pivot-free.
        if let Some(hit) = self.solves.lookup(&new, &old, &options) {
            return emit(Frame::Result(ResultFrame {
                id: request.id.clone(),
                threshold: hit.result.threshold,
                threshold_int: hit.result.threshold_int(),
                outcome: "certified".to_string(),
                cache: "hit".to_string(),
                lp_iterations: 0,
                invalidated: 0,
                degree: options.degree,
                seconds: start.elapsed().as_secs_f64(),
            }));
        }

        // Near-repeat: warm-start from the closest cached ancestor's basis.
        let near = self.solves.nearest_basis(&new, &old, &options);
        let (warm, invalidated, cache_label) = match near {
            Some(m) => (Some(m.basis), m.changed_locations, "near"),
            None => (None, 0, "miss"),
        };

        // Per-request isolation: a scoped child of the daemon deadline (so one
        // request's cancellation never reaches its siblings, while shutdown
        // still reaches everyone), tightened by the request budget.
        let deadline = self
            .deadline
            .scoped()
            .tightened(request.timeout_ms.map(|ms| start + Duration::from_millis(ms)));
        // Anytime streaming: the one solve reports exactly feasible vertices of
        // its exact simplex as it runs, and each strictly better threshold
        // becomes a `progress` frame.
        let mut best = f64::INFINITY;
        let mut progress = |upper: f64, lower: Option<f64>| {
            if upper < best {
                best = upper;
                let gap = lower.map(|lower| upper - lower);
                emit(Frame::Progress { id: request.id.clone(), upper, lower, gap });
            }
        };
        let solved = contained(|| {
            let solver = DiffCostSolver::new(options).with_deadline(deadline);
            let progress = request.stream.then_some(&mut progress as &mut SolveProgress);
            solver.solve_with_warm_start(&new.program, &old.program, warm.as_ref(), progress)
        });
        let (result, basis) = match solved {
            Ok(solved) => solved,
            Err(failure) => return emit(error_frame(request, failure)),
        };

        // Only certified results are cached: replaying a truncated bound forever
        // would pin a loose answer.
        let outcome = result.outcome();
        if outcome.is_certified() {
            self.solves.insert(&new, &old, &options, &result, basis);
        }
        emit(Frame::Result(ResultFrame {
            id: request.id.clone(),
            threshold: result.threshold,
            threshold_int: result.threshold_int(),
            outcome: outcome.label().to_string(),
            cache: cache_label.to_string(),
            lp_iterations: result.stats.lp_iterations,
            invalidated,
            degree: options.degree,
            seconds: start.elapsed().as_secs_f64(),
        }));
    }
}

/// The `error` frame of a failed request. Compile errors carry the compiler's own
/// message and contained panics their payload; every other failure is reported in
/// its display form under `timeout` or `unsolved`.
fn error_frame(request: &AnalyzeRequest, failure: AnalysisError) -> Frame {
    let phase = failure.phase().map(|phase| phase.as_str().to_string());
    let (code, message) = match failure {
        AnalysisError::InvalidProgram(message) => ("compile-error", message),
        AnalysisError::Panicked { message, .. } => ("panic", message),
        AnalysisError::Timeout { .. } => ("timeout", failure.to_string()),
        _ => ("unsolved", failure.to_string()),
    };
    Frame::Error { id: request.id.clone(), code: code.to_string(), phase, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(tick: u32) -> String {
        format!(
            "proc count(n) {{ assume(n >= 1 && n <= 50); i = 0; \
             while (i < n) {{ tick({tick}); i = i + 1; }} }}"
        )
    }

    fn analyze(id: &str, new: &str, old: &str) -> Request {
        Request::Analyze(AnalyzeRequest::new(id, new, old))
    }

    fn result_frame(frames: &[Frame]) -> &ResultFrame {
        match frames {
            [Frame::Result(r)] => r,
            other => panic!("expected a single result frame, got {other:?}"),
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache_pivot_free() {
        let engine = Engine::new();
        let cold = engine.handle_collect(&analyze("q1", &source(2), &source(1)));
        let cold = result_frame(&cold);
        assert_eq!(cold.cache, "miss");
        assert_eq!(cold.outcome, "certified");
        assert_eq!(cold.threshold_int, 50);
        assert!(cold.lp_iterations > 0);

        let hit = engine.handle_collect(&analyze("q2", &source(2), &source(1)));
        let hit = result_frame(&hit);
        assert_eq!(hit.cache, "hit");
        assert_eq!(hit.lp_iterations, 0, "a repeat query must be pivot-free");
        assert_eq!(hit.threshold.to_bits(), cold.threshold.to_bits());
        assert_eq!(engine.solve_cache().hits(), 1);
        // The sources were compiled once each, not re-parsed per query.
        assert_eq!(engine.program_cache().compiles(), 2);
    }

    #[test]
    fn an_edited_pair_warm_starts_from_its_ancestor() {
        let engine = Engine::new();
        let _ = engine.handle_collect(&analyze("q1", &source(2), &source(1)));
        let near = engine.handle_collect(&analyze("q2", &source(3), &source(1)));
        let near = result_frame(&near);
        assert_eq!(near.cache, "near");
        assert!(near.invalidated >= 1, "the edit must invalidate a location");
        assert_eq!(near.outcome, "certified");
        assert_eq!(near.threshold_int, 100);
    }

    fn streamed(id: &str, new: &str, old: &str, timeout_ms: u64) -> Request {
        let mut request = AnalyzeRequest::new(id, new, old);
        request.stream = true;
        request.timeout_ms = Some(timeout_ms);
        Request::Analyze(request)
    }

    /// A streamed request runs the same one solve as an unstreamed one: its
    /// `progress` uppers strictly decrease and never undercut the final
    /// threshold, and its result matches the unstreamed result bit for bit,
    /// pivot count included. The running example `join` reaches the exact
    /// simplex, so it must report at least one bracket on the way.
    #[test]
    fn a_streamed_solve_brackets_then_matches_the_unstreamed_result() {
        let join = dca_benchmarks::running_example();
        let pairs = [
            (source(2), source(1), false),
            (join.source_new.to_string(), join.source_old.to_string(), true),
        ];
        for (new, old, must_progress) in pairs {
            let frames = Engine::new().handle_collect(&streamed("q1", &new, &old, 60_000));
            let Some((Frame::Result(streamed), progress)) = frames.split_last() else {
                panic!("a streamed request must end in a result frame: {frames:?}");
            };
            let uppers: Vec<f64> = progress
                .iter()
                .map(|frame| match frame {
                    Frame::Progress { upper, .. } => *upper,
                    other => panic!("expected progress frames before the result, got {other:?}"),
                })
                .collect();
            assert!(!must_progress || !uppers.is_empty(), "no progress frame: {frames:?}");
            assert!(uppers.windows(2).all(|pair| pair[1] < pair[0]), "{uppers:?}");
            assert!(uppers.iter().all(|&upper| upper >= streamed.threshold), "{uppers:?}");
            assert_eq!(streamed.outcome, "certified");
            assert_eq!(streamed.cache, "miss");
            let plain = Engine::new().handle_collect(&analyze("q2", &new, &old));
            let plain = result_frame(&plain);
            assert_eq!(streamed.threshold.to_bits(), plain.threshold.to_bits());
            assert_eq!(streamed.lp_iterations, plain.lp_iterations);
        }
    }

    #[test]
    fn a_streamed_solve_with_no_budget_sends_one_timeout_error() {
        let frames = Engine::new().handle_collect(&streamed("q1", &source(2), &source(1), 0));
        match frames.as_slice() {
            [Frame::Error { id, code, .. }] => {
                assert_eq!(id, "q1");
                assert_eq!(code, "timeout");
            }
            other => panic!("expected a single timeout error frame, got {other:?}"),
        }
    }

    #[test]
    fn compile_errors_are_frames_not_crashes() {
        let engine = Engine::new();
        let frames = engine.handle_collect(&analyze("q1", "proc broken {", &source(1)));
        match frames.as_slice() {
            [Frame::Error { code, .. }] => assert_eq!(code, "compile-error"),
            other => panic!("{other:?}"),
        }
        // The daemon state is untouched: a good query still works.
        let ok = engine.handle_collect(&analyze("q3", &source(2), &source(1)));
        assert_eq!(result_frame(&ok).outcome, "certified");
    }

    #[test]
    fn ping_stats_and_shutdown_answer_their_frames() {
        let engine = Engine::new();
        assert_eq!(engine.handle_collect(&Request::Ping), vec![Frame::Pong]);
        let _ = engine.handle_collect(&analyze("q1", &source(2), &source(1)));
        match engine.handle_collect(&Request::Stats).as_slice() {
            [Frame::Stats { entries, compiles, .. }] => {
                assert_eq!(*entries, 1);
                assert_eq!(*compiles, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(!engine.shutting_down());
        assert_eq!(engine.handle_collect(&Request::Shutdown), vec![Frame::Bye]);
        assert!(engine.shutting_down());
    }
}
