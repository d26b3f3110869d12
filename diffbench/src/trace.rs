//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each crate; the crates themselves are
//! not instrumented. Spans stay in memory and are written once, when the run ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`lang`, `invariants`, `split`, `encode`, `solve`, `serve`, ...).
    pub name: &'static str,
    /// Timed pass the span belongs to (replays after the timed passes get their own).
    pub pass: usize,
    /// Request identifier shared by every span of one request.
    pub request: usize,
    /// Index of the enclosing span, `None` for a request's root span.
    pub parent: Option<usize>,
    /// Start, in seconds since the recorder was created.
    pub start: f64,
    /// End, in seconds since the recorder was created.
    pub end: f64,
}

/// Records spans when enabled; when disabled it only times the calls it wraps, so
/// the untraced run executes the same code minus the bookkeeping.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `true` in the traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        pass: usize,
        request: usize,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            pass,
            request,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `work` inside a child span of `parent` and returns its result with its
    /// duration in seconds (measured in both runs).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        (pass, request): (usize, usize),
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, pass, request, parent);
        let started = Instant::now();
        let value = work();
        let seconds = started.elapsed().as_secs_f64();
        self.close(span);
        (value, seconds)
    }

    /// Total seconds of the spans named `name` in `pass`.
    pub fn total(&self, name: &str, pass: usize) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.name == name && span.pass == pass)
            .map(|span| span.end - span.start)
            .sum()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"pass\": {}, \"request\": {}, \
                 \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
                span.name, span.pass, span.request, span.start, span.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut trace = Trace::new(false);
        let (value, seconds) = trace.time("lang", None, (0, 0), || 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert_eq!(trace.total("lang", 0), 0.0);
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn spans_nest_under_their_request_and_sum_per_pass() {
        let mut trace = Trace::new(true);
        let root = trace.open("request", 1, 5, None);
        trace.time("lang", root, (1, 5), || ());
        trace.time("lang", root, (1, 5), || ());
        trace.close(root);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert!(trace
            .spans
            .iter()
            .all(|span| span.request == 5 && span.end >= span.start));
        let lang: f64 = trace.spans[1..].iter().map(|s| s.end - s.start).sum();
        assert_eq!(trace.total("lang", 1), lang);
        assert_eq!(trace.total("lang", 0), 0.0);
    }
}
