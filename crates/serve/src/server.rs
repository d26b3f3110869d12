//! Transport loops: line-delimited JSON over stdin/stdout or TCP.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::Engine;
use crate::protocol::{Frame, Request};

/// How often the TCP accept loop re-checks for shutdown between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Serves one connection: reads requests line by line, writes every response
/// frame as its own line, flushing after each request so streamed `progress`
/// frames reach the client before the solve finishes. Returns when the peer
/// closes the stream, the engine shuts down, or a write fails. A malformed
/// `DCA_FAULT` exits the process before the first request is read
/// ([`dca_lp::fault::arm_from_env`]), as it does in [`serve_tcp`].
pub fn serve_connection<R: BufRead, W: Write>(
    engine: &Engine,
    input: R,
    mut output: W,
) -> io::Result<()> {
    dca_lp::fault::arm_from_env();
    for line in input.lines() {
        let line = line?;
        if engine.shutting_down() {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(reason) => {
                let frame = Frame::Error {
                    id: String::new(),
                    code: "bad-request".to_string(),
                    phase: None,
                    message: reason,
                };
                writeln!(output, "{}", frame.to_json())?;
                output.flush()?;
                continue;
            }
        };
        // Frames are written as they are emitted (true streaming); a broken
        // pipe mid-request is captured and surfaced after the request ends.
        let mut write_error: Option<io::Error> = None;
        engine.handle(&request, &mut |frame| {
            if write_error.is_some() {
                return;
            }
            let attempt = writeln!(output, "{}", frame.to_json()).and_then(|()| output.flush());
            if let Err(error) = attempt {
                write_error = Some(error);
            }
        });
        if let Some(error) = write_error {
            return Err(error);
        }
        if engine.shutting_down() {
            break;
        }
    }
    Ok(())
}

/// Serves a single session over stdin/stdout (the `--stdio` daemon mode; also
/// what the smoke test drives through a child process).
pub fn serve_stdio(engine: &Engine) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(engine, stdin.lock(), stdout.lock())
}

/// Serves TCP connections until [`Engine::shutdown`] is observed: a
/// non-blocking accept loop that polls the shutdown flag between accepts and
/// hands each connection to its own thread. Returns the bound local address
/// through `on_bound` before accepting (so callers can print it / connect to
/// an OS-assigned port), and joins all connection threads before returning.
pub fn serve_tcp<A: ToSocketAddrs>(
    engine: Arc<Engine>,
    addr: A,
    on_bound: impl FnOnce(std::net::SocketAddr),
) -> io::Result<()> {
    dca_lp::fault::arm_from_env();
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    on_bound(listener.local_addr()?);

    let mut workers = Vec::new();
    while !engine.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Connections block on reads again; only the accept loop polls.
                stream.set_nonblocking(false)?;
                let engine = Arc::clone(&engine);
                workers.push(std::thread::spawn(move || {
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(clone) => clone,
                        Err(_) => return,
                    });
                    // Peer disconnects are routine, not daemon errors.
                    let _ = serve_connection(&engine, reader, stream);
                }));
            }
            Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(error) => return Err(error),
        }
        workers.retain(|worker| !worker.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AnalyzeRequest;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn source(tick: u32) -> String {
        format!(
            "proc count(n) {{ assume(n >= 1 && n <= 50); i = 0; \
             while (i < n) {{ tick({tick}); i = i + 1; }} }}"
        )
    }

    #[test]
    fn a_scripted_connection_round_trips() {
        let engine = Engine::new();
        let mut script = String::new();
        script.push_str("{\"cmd\": \"ping\"}\n");
        script.push_str(&AnalyzeRequest::new("q1", source(2), source(1)).to_json());
        script.push('\n');
        script.push_str(&AnalyzeRequest::new("q2", source(2), source(1)).to_json());
        script.push('\n');
        script.push_str("not json\n");
        script.push_str("{\"cmd\": \"shutdown\"}\n");
        script.push_str("{\"cmd\": \"ping\"}\n"); // after shutdown: ignored

        let mut output = Vec::new();
        serve_connection(&engine, script.as_bytes(), &mut output).unwrap();
        let lines: Vec<String> =
            String::from_utf8(output).unwrap().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 5, "pong, 2 results, bad-request, bye: {lines:?}");
        assert!(lines[0].contains("\"pong\""));
        assert!(lines[1].contains("\"cache\": \"miss\""));
        assert!(lines[2].contains("\"cache\": \"hit\""));
        assert!(lines[2].contains("\"lp_iterations\": 0"));
        assert!(lines[3].contains("\"bad-request\""));
        assert!(lines[4].contains("\"bye\""));
        assert!(engine.shutting_down());
    }

    #[test]
    fn tcp_sessions_share_one_cache_and_shutdown_stops_the_listener() {
        let engine = Arc::new(Engine::new());
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                serve_tcp(engine, "127.0.0.1:0", |addr| {
                    addr_tx.send(addr).unwrap();
                })
            })
        };
        let addr = addr_rx.recv().unwrap();

        let query = |id: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            let request = AnalyzeRequest::new(id, source(2), source(1));
            writeln!(stream, "{}", request.to_json()).unwrap();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).unwrap();
            reply
        };
        let cold = query("q1");
        assert!(cold.contains("\"cache\": \"miss\""), "{cold}");
        let warm = query("q2");
        assert!(warm.contains("\"cache\": \"hit\""), "{warm}");

        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{{\"cmd\": \"shutdown\"}}").unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"bye\""), "{reply}");
        server.join().unwrap().unwrap();
        assert!(TcpStream::connect(addr).map(|_| ()).is_err() || engine.shutting_down());
    }
}
