//! The serving loops: frame lines off a reader, hand them to the
//! [`Service`], write one response line each, and stop on `quit`,
//! `shutdown`, or EOF.
//!
//! Transport-agnostic sessions go through [`serve`]; [`serve_tcp`] is
//! the concurrent connection supervisor — one scoped thread per
//! accepted connection (bounded by `max_conns`, with a typed
//! `overloaded` rejection beyond the cap), every connection serving
//! against a clone of the same [`Service`] handle. `quit` ends only
//! the issuing connection; `shutdown` drains the daemon: the stopped
//! flag refuses further requests everywhere; once the issuer's reply is
//! written, live sockets are shut down so idle clients observe EOF; and
//! the supervisor returns once every connection thread has finished.

use crate::engine::{Reply, Service};
use crate::proto::{err_response, read_frame, Frame, ProtoError};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Mutex;

/// What a finished session did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Frames that produced a response (oversized frames included;
    /// blank lines are skipped silently and not counted).
    pub responses: u64,
    /// Whether the session ended on `quit`/`shutdown` (vs EOF).
    pub quit: bool,
    /// Whether the session issued the `shutdown` that drained the
    /// daemon — set before its reply is written, so it holds even when
    /// that write fails.
    pub shutdown: bool,
}

/// Decrements the active-session gauge however the session ends
/// (clean return, I/O error, or a panic unwinding through the serve
/// loop).
struct SessionGuard<'a>(&'a Service);

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.end_session();
    }
}

/// Serves one session: newline-delimited requests from `reader`,
/// newline-terminated responses to `writer` — one write and one flush
/// per response (a one-line protocol must not sit in a buffer, and
/// must not pay two syscalls a line either). Brackets the session in
/// the `connections`/`active_sessions` gauges.
///
/// # Errors
///
/// Propagates I/O errors; protocol errors become typed responses.
pub fn serve<R: BufRead, W: Write>(
    service: &Service,
    reader: &mut R,
    writer: &mut W,
) -> std::io::Result<SessionSummary> {
    let mut summary = SessionSummary::default();
    serve_into(service, reader, writer, &mut summary)?;
    Ok(summary)
}

/// The body of [`serve`], accumulating into `summary` so a caller still
/// sees what the session did when it ends in an I/O error.
fn serve_into<R: BufRead, W: Write>(
    service: &Service,
    reader: &mut R,
    writer: &mut W,
    summary: &mut SessionSummary,
) -> std::io::Result<()> {
    service.begin_session();
    let _guard = SessionGuard(service);
    let max_line = service.max_line();
    loop {
        let reply = match read_frame(reader, max_line)? {
            Frame::Eof => break,
            Frame::Oversized => {
                let error = ProtoError::new(
                    "oversized_frame",
                    format!("request line exceeds {max_line} bytes"),
                );
                Reply {
                    line: err_response(None, &error),
                    quit: false,
                    shutdown: false,
                }
            }
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                service.handle_line(&line)
            }
        };
        summary.shutdown |= reply.shutdown;
        let mut line = reply.line;
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        summary.responses += 1;
        if reply.quit {
            summary.quit = true;
            break;
        }
    }
    Ok(())
}

/// Serves stdin → stdout until `quit` or EOF. Single-session by
/// nature: here `quit` and `shutdown` both end the process's only
/// connection (the `sld` binary drains durable state on the way out).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn serve_stdin(service: &Service) -> std::io::Result<SessionSummary> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(service, &mut stdin.lock(), &mut stdout.lock())
}

/// Serves one connection's session, absorbing (and counting) its I/O
/// errors: a mid-session disconnect is a client problem, and the only
/// daemon-side trace it leaves is the `io_errors` counter `stats`
/// reports. Returns the summary accumulated before the failure.
pub fn serve_connection<R: BufRead, W: Write>(
    service: &Service,
    reader: &mut R,
    writer: &mut W,
) -> SessionSummary {
    let mut summary = SessionSummary::default();
    if serve_into(service, reader, writer, &mut summary).is_err() {
        service.note_io_error();
    }
    summary
}

/// The connection supervisor: accepts TCP connections and serves each
/// on its own scoped thread against a clone of the shared [`Service`]
/// handle, so N clients make progress concurrently over the shared
/// registry and sharded caches.
///
/// * Accepted sockets get `TCP_NODELAY` — a one-line-request/
///   one-line-response protocol must not eat Nagle's delay.
/// * Admission is bounded by `max_conns`: a connection beyond the cap
///   gets one typed `overloaded` response line and is closed.
/// * `quit` ends the issuing connection; the supervisor keeps
///   accepting.
/// * `shutdown` drains the daemon. The thread whose session issued it
///   — and only that thread, after writing its reply or failing to —
///   closes the registry of live sockets to new entries, shuts every
///   live socket down so idle clients observe EOF instead of hanging
///   the drain, and wakes the (blocking) acceptor with a loopback
///   connection; the supervisor then joins all connection threads and
///   returns. Other connections ending mid-drain shut nothing down, so
///   they cannot cut the issuer's reply short.
///
/// # Errors
///
/// Propagates fatal `accept` errors; per-connection I/O errors end
/// that connection only (counted as `io_errors`).
pub fn serve_tcp(service: &Service, listener: &TcpListener) -> std::io::Result<()> {
    /// Live sockets, for the drain broadcast; `closed` once it ran, so
    /// no connection can register (and escape the broadcast) after it.
    #[derive(Default)]
    struct Conns {
        live: Vec<TcpStream>,
        closed: bool,
    }
    let conns: Mutex<Conns> = Mutex::new(Conns::default());
    let lock = || {
        conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };
    let local = listener.local_addr().ok();
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) => {
                    // The acceptor is gone, so the daemon is too: shut
                    // every live socket so the scope join cannot hang
                    // on a client that never disconnects.
                    let mut registry = lock();
                    registry.closed = true;
                    for conn in &registry.live {
                        let _ = conn.shutdown(Shutdown::Both);
                    }
                    return Err(e);
                }
            };
            let _ = stream.set_nodelay(true);
            let mut registry = lock();
            if registry.closed {
                break;
            }
            if service.active_sessions() >= service.max_conns() as u64 {
                drop(registry);
                let mut line = service.overloaded_reply();
                line.push('\n');
                let mut writer = &stream;
                let _ = writer.write_all(line.as_bytes());
                continue; // dropping the socket closes it
            }
            // Dead entries are pruned opportunistically here and
            // whenever a connection ends.
            if let Ok(registered) = stream.try_clone() {
                registry.live.retain(|c| c.peer_addr().is_ok());
                registry.live.push(registered);
            }
            drop(registry);
            let lock = &lock;
            scope.spawn(move || {
                let peer = stream.peer_addr();
                let mut writer = BufWriter::new(match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => {
                        service.note_io_error();
                        return;
                    }
                });
                let mut reader = BufReader::new(stream);
                let summary = serve_connection(service, &mut reader, &mut writer);
                let mut registry = lock();
                if let Ok(peer) = peer {
                    registry
                        .live
                        .retain(|c| c.peer_addr().map(|a| a != peer).unwrap_or(false));
                }
                if summary.shutdown {
                    // Drain broadcast, after this session's reply went
                    // out: shut every live socket (their serve loops see
                    // EOF and exit), then wake the acceptor blocked in
                    // `accept` with a loopback connection so it observes
                    // `closed` and stops admitting.
                    registry.closed = true;
                    for conn in &registry.live {
                        let _ = conn.shutdown(Shutdown::Both);
                    }
                    drop(registry);
                    if let Some(addr) = local {
                        let _ = TcpStream::connect(addr);
                    }
                }
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceConfig;
    use sl_support::FaultPlan;
    use std::io::Cursor;

    fn quiet_service() -> Service {
        Service::new(ServiceConfig {
            fault: FaultPlan::disabled(),
            threads: 1,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn session_answers_each_line_and_stops_on_quit() {
        let service = quiet_service();
        let script = concat!(
            "\n",
            "{\"id\":1,\"verb\":\"stats\"}\n",
            "{\"id\":2,\"verb\":\"quit\"}\n",
            "{\"id\":3,\"verb\":\"stats\"}\n",
        );
        let mut output = Vec::new();
        let summary = serve(&service, &mut Cursor::new(script), &mut output).unwrap();
        assert_eq!(
            summary,
            SessionSummary {
                responses: 2,
                quit: true,
                shutdown: false
            }
        );
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(
            lines[0].starts_with("{\"id\":1,\"ok\":true"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"bye\":true"), "{}", lines[1]);
    }

    #[test]
    fn quit_is_connection_local_but_shutdown_stops_the_daemon() {
        let service = quiet_service();
        let mut out = Vec::new();
        let summary = serve(
            &service,
            &mut Cursor::new("{\"id\":1,\"verb\":\"quit\"}\n"),
            &mut out,
        )
        .unwrap();
        assert!(summary.quit);
        assert!(!service.is_stopped(), "quit must not drain the daemon");
        // A later session on the same daemon still works...
        let mut out = Vec::new();
        serve(
            &service,
            &mut Cursor::new("{\"id\":2,\"verb\":\"shutdown\"}\n"),
            &mut out,
        )
        .unwrap();
        assert!(service.is_stopped(), "shutdown drains the daemon");
        // ...and after the drain every request is refused.
        let mut out = Vec::new();
        serve(
            &service,
            &mut Cursor::new("{\"id\":3,\"verb\":\"stats\"}\n"),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"shutting_down\""), "{text}");
    }

    #[test]
    fn oversized_lines_get_a_typed_rejection_and_framing_recovers() {
        let service = Service::new(ServiceConfig {
            fault: FaultPlan::disabled(),
            threads: 1,
            max_line: 64,
            ..ServiceConfig::default()
        });
        let script = format!(
            "{{\"id\":1,\"verb\":\"stats\",\"pad\":\"{}\"}}\n{{\"id\":2,\"verb\":\"stats\"}}\n",
            "x".repeat(200)
        );
        let mut output = Vec::new();
        let summary = serve(&service, &mut Cursor::new(script), &mut output).unwrap();
        assert_eq!(summary.responses, 2);
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"oversized_frame\""), "{}", lines[0]);
        assert!(
            lines[1].starts_with("{\"id\":2,\"ok\":true"),
            "{}",
            lines[1]
        );
    }
}
