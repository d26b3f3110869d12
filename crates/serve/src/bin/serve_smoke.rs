//! End-to-end daemon smoke test, CI-blocking.
//!
//! Re-executes itself as a `--daemon` child serving the stdio protocol with
//! `DCA_FAULT=encode:panic:2` armed in the child environment, then drives a
//! scripted seven-request session over its pipes:
//!
//! 1. cold solve (cache miss, certified),
//! 2. exact repeat (cache hit, pivot-free),
//! 3. a different pair whose cold solve trips the injected encode panic —
//!    the daemon must answer an `error` frame and keep serving,
//! 4. repeat of the first pair (the poisoned request must not have damaged
//!    the shared caches),
//! 5. retry of the panicked pair (fault spent → certified, warm-started from
//!    the near-matching cached ancestor),
//! 6. a streamed cold solve of a loop nest (its `progress` frames cross the
//!    pipe before its `result`, each one an upper bound on the threshold),
//! 7. shutdown (daemon answers `bye` and exits 0).

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

use dca_serve::json::Value;
use dca_serve::protocol::AnalyzeRequest;
use dca_serve::Engine;

fn source(tick: u32) -> String {
    format!(
        "proc count(n) {{ assume(n >= 1 && n <= 40); i = 0; \
         while (i < n) {{ tick({tick}); i = i + 1; }} }}"
    )
}

fn nest(tick: u32) -> String {
    format!(
        "proc nest(n, m) {{ assume(n >= 1 && n <= 40 && m >= 1 && m <= 40); i = 0; \
         while (i < n) {{ j = 0; while (j < m) {{ tick({tick}); j = j + 1; }} i = i + 1; }} }}"
    )
}

fn main() {
    if std::env::args().any(|arg| arg == "--daemon") {
        let engine = Arc::new(Engine::new());
        if let Err(error) = dca_serve::serve_stdio(&engine) {
            eprintln!("serve_smoke daemon: {error}");
            std::process::exit(1);
        }
        return;
    }

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .arg("--daemon")
        .env("DCA_FAULT", "encode:panic:2")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon child");
    let mut stdin = child.stdin.take().expect("child stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));

    // Sends a request (if any), then reads the next frame.
    let mut ask = |request: Option<&str>| -> Value {
        if let Some(request) = request {
            writeln!(stdin, "{request}").and_then(|()| stdin.flush()).expect("write request");
        }
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read frame");
        assert!(!line.is_empty(), "daemon closed the stream unexpectedly");
        Value::parse(&line).unwrap_or_else(|e| panic!("unparseable frame {line:?}: {e}"))
    };
    let field = |frame: &Value, key: &str| -> String {
        frame
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key:?} in frame"))
            .to_string()
    };
    let num = |frame: &Value, key: &str| -> f64 {
        frame
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("missing number {key:?} in frame"))
    };

    let old = source(1);
    let pair_a = AnalyzeRequest::new("q1", source(2), &old).to_json();
    let pair_b = AnalyzeRequest::new("q3", source(3), &old).to_json();

    // 1. Cold solve of pair A: this is the daemon's first encode (fault is
    //    armed for the *second*), so it certifies normally.
    let cold = ask(Some(&pair_a));
    assert_eq!(field(&cold, "type"), "result");
    assert_eq!(field(&cold, "cache"), "miss");
    assert_eq!(field(&cold, "outcome"), "certified");
    assert_eq!(num(&cold, "threshold_int"), 40.0);
    assert!(num(&cold, "lp_iterations") > 0.0);

    // 2. Exact repeat: answered from the cache, pivot-free, bit-identical.
    let hit = ask(Some(&pair_a));
    assert_eq!(field(&hit, "cache"), "hit");
    assert_eq!(num(&hit, "lp_iterations"), 0.0);
    assert_eq!(num(&hit, "threshold"), num(&cold, "threshold"));

    // 3. Pair B's cold solve enters encode a second time → the injected panic
    //    fires. The daemon must contain it to an error frame on this request.
    let poisoned = ask(Some(&pair_b));
    assert_eq!(field(&poisoned, "type"), "error", "expected containment: {poisoned:?}");
    assert_eq!(field(&poisoned, "code"), "panic");
    assert_eq!(field(&poisoned, "phase"), "encode");
    assert!(field(&poisoned, "message").contains("injected fault"));

    // 4. The crash touched nothing shared: pair A still answers from cache.
    let still_cached = ask(Some(&pair_a));
    assert_eq!(field(&still_cached, "cache"), "hit");
    assert_eq!(num(&still_cached, "lp_iterations"), 0.0);

    // 5. Retrying pair B: the one-shot fault is spent, and the solve
    //    warm-starts from pair A's basis (same old program, one edited loop).
    let retried = ask(Some(&pair_b));
    assert_eq!(field(&retried, "type"), "result", "retry after fault: {retried:?}");
    assert_eq!(field(&retried, "outcome"), "certified");
    assert_eq!(field(&retried, "cache"), "near");
    assert_eq!(num(&retried, "threshold_int"), 80.0);
    assert!(num(&retried, "invalidated") >= 1.0);

    // 6. A streamed cold solve: each better vertex of its running exact simplex
    //    reaches the client as a `progress` frame, before the `result`.
    let mut streamed = AnalyzeRequest::new("q6", nest(2), nest(1));
    streamed.stream = true;
    let mut frame = ask(Some(&streamed.to_json()));
    let mut uppers = Vec::new();
    while field(&frame, "type") == "progress" {
        uppers.push(num(&frame, "upper"));
        frame = ask(None);
    }
    assert_eq!(field(&frame, "type"), "result", "streamed solve: {frame:?}");
    assert_eq!(field(&frame, "outcome"), "certified");
    assert_eq!(num(&frame, "threshold_int"), 1600.0);
    assert!(!uppers.is_empty(), "no progress frame crossed the pipe");
    assert!(uppers.iter().all(|&upper| upper >= num(&frame, "threshold")), "{uppers:?}");

    // 7. Orderly shutdown: `bye`, then a clean exit.
    let bye = ask(Some("{\"cmd\": \"shutdown\"}"));
    assert_eq!(field(&bye, "type"), "bye");
    drop(stdin);
    let status = child.wait().expect("wait for daemon");
    assert!(status.success(), "daemon exited with {status}");

    println!("serve smoke OK: miss -> hit -> contained panic -> warm retry -> streamed progress");
}
