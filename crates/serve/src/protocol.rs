//! The line-delimited JSON protocol of the serve daemon.
//!
//! One request object per line in; one or more frame objects per line out. Every
//! frame names its type in a `"type"` member, and analyze frames echo the
//! request's `"id"`, so a pipelining client can match responses to queries.
//!
//! # Requests
//!
//! ```text
//! {"cmd": "analyze", "id": "q1", "new": "<source>", "old": "<source>",
//!  "degree": 2, "timeout_ms": 30000, "stream": false}
//! {"cmd": "ping"}
//! {"cmd": "stats"}
//! {"cmd": "shutdown"}
//! ```
//!
//! `degree` (default 2, at most `u32::MAX`; a larger one is a `bad-request`),
//! `timeout_ms` and `stream` are optional. A `"tier"`
//! member is accepted only as `0` (the one invariant engine); any other tier is a
//! `bad-request`, since invariant tiers were removed. With `stream`, the one solve
//! reports its anytime bracket while it runs: the exact simplex reports its
//! exactly feasible threshold when its phase 2 starts and after each
//! refactorization, and each one below the last one sent becomes a `progress`
//! frame before the final answer (`lower` and `gap` are `null` unless the solver
//! holds a lower bound valid for the whole LP). `stream` needs no `timeout_ms`,
//! and it changes neither the answer nor its `lp_iterations`.
//!
//! # Frames
//!
//! ```text
//! {"type": "progress", "id", "upper", "lower", "gap"}
//! {"type": "result", "id", "threshold", "threshold_int", "outcome",
//!  "cache": "hit"|"near"|"miss", "lp_iterations", "invalidated",
//!  "degree", "seconds"}
//! {"type": "error", "id", "code", "phase", "message"}
//! {"type": "pong"} | {"type": "stats", ...} | {"type": "bye"}
//! ```
//!
//! Error codes: `bad-request` (malformed JSON or fields), `compile-error`,
//! `timeout` (budget exhausted with no sound bound), `panic` (the request
//! crashed and was contained — the daemon keeps serving), `unsolved` (the
//! analysis found no witness at these options).

use crate::json::{escape, Value};

/// An `analyze` request: solve one program pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Client-chosen request ID, echoed in every frame this request produces.
    pub id: String,
    /// Source of the new (revised) program version.
    pub new_source: String,
    /// Source of the old (baseline) program version.
    pub old_source: String,
    /// Template degree `d = K` (default 2).
    pub degree: Option<u32>,
    /// Wall-clock budget for the solve, in milliseconds (default unlimited).
    pub timeout_ms: Option<u64>,
    /// Emit incremental anytime `progress` frames while solving.
    pub stream: bool,
}

impl AnalyzeRequest {
    /// A request with default options (degree 2, no budget).
    pub fn new(
        id: impl Into<String>,
        new_source: impl Into<String>,
        old_source: impl Into<String>,
    ) -> AnalyzeRequest {
        AnalyzeRequest {
            id: id.into(),
            new_source: new_source.into(),
            old_source: old_source.into(),
            degree: None,
            timeout_ms: None,
            stream: false,
        }
    }

    /// Renders the request as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"cmd\": \"analyze\", \"id\": \"{}\", \"new\": \"{}\", \"old\": \"{}\"",
            escape(&self.id),
            escape(&self.new_source),
            escape(&self.old_source),
        );
        if let Some(degree) = self.degree {
            out.push_str(&format!(", \"degree\": {degree}"));
        }
        if let Some(timeout_ms) = self.timeout_ms {
            out.push_str(&format!(", \"timeout_ms\": {timeout_ms}"));
        }
        if self.stream {
            out.push_str(", \"stream\": true");
        }
        out.push('}');
        out
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve a program pair.
    Analyze(AnalyzeRequest),
    /// Liveness check; answered with a `pong` frame.
    Ping,
    /// Cache statistics; answered with a `stats` frame.
    Stats,
    /// Drain and stop the daemon; answered with a `bye` frame.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for a `bad-request` error frame when the line
    /// is not valid JSON or not a valid request object.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = Value::parse(line)?;
        let cmd = value
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"cmd\"".to_string())?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "analyze" => {
                let field = |key: &str| -> Result<String, String> {
                    value
                        .get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("analyze needs a string {key:?}"))
                };
                let number = |key: &str| -> Result<Option<u64>, String> {
                    match value.get(key) {
                        None | Some(Value::Null) => Ok(None),
                        Some(v) => v
                            .as_u64()
                            .map(Some)
                            .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
                    }
                };
                // Invariant tiers were removed: a client still asking for tier 1
                // or 2 gets an error, not a silently different analysis.
                if let Some(tier) = number("tier")?.filter(|&tier| tier != 0) {
                    return Err(format!(
                        "\"tier\": {tier} is not supported: invariant tiers were removed \
                         (omit \"tier\" or send 0)"
                    ));
                }
                let degree = number("degree")?
                    .map(u32::try_from)
                    .transpose()
                    .map_err(|_| "\"degree\" does not fit in 32 bits".to_string())?;
                Ok(Request::Analyze(AnalyzeRequest {
                    id: field("id").unwrap_or_default(),
                    new_source: field("new")?,
                    old_source: field("old")?,
                    degree,
                    timeout_ms: number("timeout_ms")?,
                    stream: value.get("stream").and_then(Value::as_bool).unwrap_or(false),
                }))
            }
            other => Err(format!("unknown cmd {other:?}")),
        }
    }
}

/// The payload of a `result` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFrame {
    /// The request ID this frame answers.
    pub id: String,
    /// The differential threshold `t`.
    pub threshold: f64,
    /// The threshold rounded down to a sound integer bound.
    pub threshold_int: i64,
    /// Degradation-ladder label: `"certified"` or `"truncated"`.
    pub outcome: String,
    /// How the cache answered: `"hit"` (returned verbatim, pivot-free),
    /// `"near"` (warm-started from an edited ancestor's basis) or `"miss"`.
    pub cache: String,
    /// Simplex iterations of this answer (0 on a cache hit).
    pub lp_iterations: usize,
    /// Locations whose sub-fingerprint differed from the warm-start ancestor
    /// (0 on hits and cold misses): the rows the re-solve had to re-derive.
    pub invalidated: usize,
    /// Template degree of the answer.
    pub degree: u32,
    /// Wall-clock seconds the daemon spent on this request.
    pub seconds: f64,
}

/// One response frame, rendered as a single protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An incremental anytime bracket of a still-running streamed solve.
    Progress {
        /// The request ID this frame belongs to.
        id: String,
        /// The sound anytime upper bound so far.
        upper: f64,
        /// An exact lower bound on the optimum, when the dual side produced one.
        lower: Option<f64>,
        /// `upper - lower`, when `lower` is known (never negative).
        gap: Option<f64>,
    },
    /// The final answer of an `analyze` request.
    Result(ResultFrame),
    /// The request failed; the daemon keeps serving.
    Error {
        /// The request ID (empty when the line did not parse far enough).
        id: String,
        /// Machine-readable code (see the module docs for the vocabulary).
        code: String,
        /// The solve phase the failure is attributed to, when known.
        phase: Option<String>,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `stats`.
    Stats {
        /// Certified solves currently cached.
        entries: usize,
        /// Solve-cache lookups answered from the cache.
        hits: u64,
        /// Solve-cache lookups that missed.
        misses: u64,
        /// Genuine compilations (program-cache misses).
        compiles: u64,
    },
    /// Answer to `shutdown`: the last frame the daemon writes.
    Bye,
}

fn opt_f64(value: Option<f64>) -> String {
    value.map(|v| format!("{v}")).unwrap_or_else(|| "null".to_string())
}

impl Frame {
    /// Renders the frame as one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Frame::Progress { id, upper, lower, gap } => format!(
                "{{\"type\": \"progress\", \"id\": \"{}\", \"upper\": {}, \
                 \"lower\": {}, \"gap\": {}}}",
                escape(id),
                upper,
                opt_f64(*lower),
                opt_f64(*gap),
            ),
            Frame::Result(r) => format!(
                "{{\"type\": \"result\", \"id\": \"{}\", \"threshold\": {}, \
                 \"threshold_int\": {}, \"outcome\": \"{}\", \"cache\": \"{}\", \
                 \"lp_iterations\": {}, \"invalidated\": {}, \"degree\": {}, \
                 \"seconds\": {}}}",
                escape(&r.id),
                r.threshold,
                r.threshold_int,
                escape(&r.outcome),
                escape(&r.cache),
                r.lp_iterations,
                r.invalidated,
                r.degree,
                r.seconds,
            ),
            Frame::Error { id, code, phase, message } => format!(
                "{{\"type\": \"error\", \"id\": \"{}\", \"code\": \"{}\", \
                 \"phase\": {}, \"message\": \"{}\"}}",
                escape(id),
                escape(code),
                phase
                    .as_ref()
                    .map(|p| format!("\"{}\"", escape(p)))
                    .unwrap_or_else(|| "null".to_string()),
                escape(message),
            ),
            Frame::Pong => "{\"type\": \"pong\"}".to_string(),
            Frame::Stats { entries, hits, misses, compiles } => format!(
                "{{\"type\": \"stats\", \"entries\": {entries}, \"hits\": {hits}, \
                 \"misses\": {misses}, \"compiles\": {compiles}}}"
            ),
            Frame::Bye => "{\"type\": \"bye\"}".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_requests_round_trip() {
        let mut request = AnalyzeRequest::new("q1", "proc f(n) { tick(1); }", "proc g() {}");
        request.degree = Some(3);
        request.timeout_ms = Some(5000);
        request.stream = true;
        let parsed = Request::parse(&request.to_json()).unwrap();
        assert_eq!(parsed, Request::Analyze(request));

        assert_eq!(Request::parse("{\"cmd\": \"ping\"}").unwrap(), Request::Ping);
        assert_eq!(Request::parse("{\"cmd\": \"stats\"}").unwrap(), Request::Stats);
        assert_eq!(
            Request::parse("{\"cmd\": \"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_reason() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"cmd\": \"frobnicate\"}").is_err());
        assert!(Request::parse("{\"cmd\": \"analyze\"}").is_err(), "missing sources");
        assert!(
            Request::parse(
                "{\"cmd\": \"analyze\", \"new\": \"x\", \"old\": \"y\", \"degree\": -1}"
            )
            .is_err(),
            "negative degree"
        );
        // 2^32 + 2 would wrap to a degree-2 solve under an `as u32` cast.
        let message = Request::parse(
            "{\"cmd\": \"analyze\", \"new\": \"x\", \"old\": \"y\", \"degree\": 4294967298}",
        )
        .unwrap_err();
        assert!(message.contains("degree"), "{message}");
    }

    #[test]
    fn only_the_removed_tiers_are_rejected() {
        let analyze = |tier: &str| {
            Request::parse(&format!(
                "{{\"cmd\": \"analyze\", \"new\": \"x\", \"old\": \"y\"{tier}}}"
            ))
        };
        let message = analyze(", \"tier\": 2").unwrap_err();
        assert!(message.contains("tiers were removed"), "{message}");
        assert!(analyze(", \"tier\": 1").is_err());
        let plain = analyze("").unwrap();
        assert_eq!(analyze(", \"tier\": 0").unwrap(), plain);
        assert_eq!(analyze(", \"tier\": null").unwrap(), plain);
    }

    #[test]
    fn frames_render_as_single_parseable_lines() {
        let frames = [
            Frame::Progress { id: "q".into(), upper: 12.5, lower: Some(10.0), gap: Some(2.5) },
            Frame::Progress { id: "q".into(), upper: 12.5, lower: None, gap: None },
            Frame::Result(ResultFrame {
                id: "q".into(),
                threshold: 100.0,
                threshold_int: 100,
                outcome: "certified".into(),
                cache: "hit".into(),
                lp_iterations: 0,
                invalidated: 0,
                degree: 2,
                // About what a cache hit takes.
                seconds: 1.5e-6,
            }),
            Frame::Error {
                id: "q".into(),
                code: "panic".into(),
                phase: Some("encode".into()),
                message: "injected fault: panic at phase encode".into(),
            },
            Frame::Pong,
            Frame::Stats { entries: 1, hits: 2, misses: 3, compiles: 4 },
            Frame::Bye,
        ];
        for frame in &frames {
            let line = frame.to_json();
            assert!(!line.contains('\n'), "{line}");
            let value = crate::json::Value::parse(&line).unwrap();
            assert!(value.get("type").is_some(), "{line}");
            if let Frame::Result(result) = frame {
                // The time survives rendering exactly instead of rounding to zero.
                let seconds = value.get("seconds").and_then(crate::json::Value::as_f64);
                assert_eq!(seconds, Some(result.seconds), "{line}");
            }
        }
    }
}
