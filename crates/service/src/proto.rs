//! The wire protocol: request shape, response rendering, line framing.
//!
//! One request per line, one response per line, always in request
//! order. A request is a JSON object:
//!
//! ```json
//! {"id":1,"verb":"include","left":"spec","right":"impl","budget":{"steps":50000}}
//! ```
//!
//! `id` is optional and echoed verbatim (clients use it to correlate
//! pipelined requests); `verb` selects the operation; the remaining
//! keys are the verb's operands. `budget` caps the work a request may
//! spend (`steps`, `ms`, or both) via [`sl_support::Budget`].
//!
//! Responses are `{"id":...,"ok":true,"result":{...}}` on success and
//! `{"id":...,"ok":false,"error":{"kind":"...","message":"..."}}` on
//! failure — every failure is a typed response, never a dead daemon.
//! Error kinds mirror the [`SlError`] taxonomy (`budget_exceeded`,
//! `cancelled`, `fault_injected`, `invalid_input`, `domain`) plus the
//! protocol-level `parse`, `unknown_verb`, `unknown_object`,
//! `oversized_frame`, `unsupported`, `panic`, and the lifecycle and
//! durability kinds `overloaded` (bounded intake shed the request),
//! `shutting_down` (the daemon has drained), and `persist` (the
//! write-ahead journal refused a mutating request).

use crate::json::{self, Json};
use sl_support::{Budget, SlError};
use std::io::BufRead;
use std::time::Duration;

/// The operations the daemon serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Register an automaton (from LTL or HOA) under a name.
    Define,
    /// Safety/liveness trichotomy of a defined object.
    Classify,
    /// Theorem 2 decomposition `B = B_S ∩ B_L`, registering both parts.
    Decompose,
    /// Language inclusion between two defined objects.
    Include,
    /// Language equivalence between two defined objects.
    Equivalent,
    /// Universality of a defined object.
    Universal,
    /// Feed symbols to an incremental monitor session.
    MonitorStep,
    /// LT-PDR model checking of an inline Kripke structure:
    /// `AG !bad` (safety) or `FG !bad` (liveness via k-liveness).
    Check,
    /// Daemon counters: per-verb totals, cache and engine stats.
    Stats,
    /// Fan a list of query requests through the parallel sweep.
    Batch,
    /// Drain in-flight work, flush the journal, snapshot, and exit.
    Shutdown,
    /// End the session without the durability ceremony.
    Quit,
}

impl Verb {
    /// Parses the wire name of a verb.
    #[must_use]
    pub fn from_wire(name: &str) -> Option<Verb> {
        Some(match name {
            "define" => Verb::Define,
            "classify" => Verb::Classify,
            "decompose" => Verb::Decompose,
            "include" => Verb::Include,
            "equivalent" => Verb::Equivalent,
            "universal" => Verb::Universal,
            "monitor-step" => Verb::MonitorStep,
            "check" => Verb::Check,
            "stats" => Verb::Stats,
            "batch" => Verb::Batch,
            "shutdown" => Verb::Shutdown,
            "quit" => Verb::Quit,
            _ => return None,
        })
    }

    /// The wire name (inverse of [`Verb::from_wire`]).
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Verb::Define => "define",
            Verb::Classify => "classify",
            Verb::Decompose => "decompose",
            Verb::Include => "include",
            Verb::Equivalent => "equivalent",
            Verb::Universal => "universal",
            Verb::MonitorStep => "monitor-step",
            Verb::Check => "check",
            Verb::Stats => "stats",
            Verb::Batch => "batch",
            Verb::Shutdown => "shutdown",
            Verb::Quit => "quit",
        }
    }
}

/// A parsed request: id (echoed), verb, operand object, and budget.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim in the response; `None` renders as `null`.
    pub id: Option<Json>,
    /// The operation.
    pub verb: Verb,
    /// The whole request object (operands are looked up by key).
    pub body: Json,
    /// Per-request work cap; `None` means unlimited.
    pub budget: Option<BudgetSpec>,
}

/// The `budget` operand: step and/or wall-clock caps.
#[derive(Debug, Clone, Copy)]
pub struct BudgetSpec {
    /// Maximum engine steps (insertion attempts, monitor steps, ...).
    pub steps: Option<u64>,
    /// Wall-clock deadline in milliseconds from request start.
    pub ms: Option<u64>,
}

impl BudgetSpec {
    /// The [`Budget`] this spec denotes, minted at call time (the
    /// deadline clock starts now).
    #[must_use]
    pub fn to_budget(self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(steps) = self.steps {
            budget = budget.with_steps(steps);
        }
        if let Some(ms) = self.ms {
            budget = budget.with_deadline_in(Duration::from_millis(ms));
        }
        budget
    }
}

/// A protocol-level rejection: the typed `error.kind` plus a message.
#[derive(Debug, Clone)]
pub struct ProtoError {
    /// Wire value of `error.kind`.
    pub kind: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ProtoError {
    /// Builds an error with the given kind.
    #[must_use]
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }
}

/// Maps an engine error to its wire `error.kind` (by the root cause,
/// so context wrapping does not change the kind).
#[must_use]
pub fn kind_of(err: &SlError) -> &'static str {
    match err.root() {
        SlError::BudgetExceeded { .. } => "budget_exceeded",
        SlError::Cancelled { .. } => "cancelled",
        SlError::FaultInjected { .. } => "fault_injected",
        SlError::InvalidInput(_) => "invalid_input",
        SlError::Domain { .. } | SlError::Context { .. } => "domain",
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] with kind `parse` (not JSON / not an object / bad
/// budget) or `unknown_verb`.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let doc = json::parse(line).map_err(|e| ProtoError::new("parse", e))?;
    request_from_value(doc)
}

/// Builds a [`Request`] from an already-parsed value (used both for
/// top-level lines and for the items of a `batch`).
///
/// # Errors
///
/// As for [`parse_request`].
pub fn request_from_value(doc: Json) -> Result<Request, ProtoError> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(ProtoError::new("parse", "request must be a JSON object"));
    }
    let id = doc.get("id").cloned();
    let verb_name = doc
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("parse", "request needs a string `verb`"))?;
    let verb = Verb::from_wire(verb_name).ok_or_else(|| {
        ProtoError::new(
            "unknown_verb",
            format!(
                "`{verb_name}` is not a verb (accepted: define, classify, decompose, include, \
                 equivalent, universal, monitor-step, check, stats, batch, shutdown, quit)"
            ),
        )
    })?;
    let budget = match doc.get("budget") {
        None | Some(Json::Null) => None,
        Some(spec @ Json::Obj(_)) => {
            let steps = match spec.get("steps") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    ProtoError::new("parse", "budget.steps must be a nonnegative integer")
                })?),
            };
            let ms = match spec.get("ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    ProtoError::new("parse", "budget.ms must be a nonnegative integer")
                })?),
            };
            Some(BudgetSpec { steps, ms })
        }
        Some(_) => {
            return Err(ProtoError::new(
                "parse",
                "budget must be an object with `steps` and/or `ms`",
            ))
        }
    };
    Ok(Request {
        id,
        verb,
        body: doc,
        budget,
    })
}

/// A success response as a [`Json`] value (batch items embed these).
#[must_use]
pub fn ok_value(id: Option<&Json>, result: Json) -> Json {
    Json::obj(vec![
        ("id", id.cloned().unwrap_or(Json::Null)),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
}

/// An error response as a [`Json`] value (batch items embed these).
#[must_use]
pub fn err_value(id: Option<&Json>, error: &ProtoError) -> Json {
    Json::obj(vec![
        ("id", id.cloned().unwrap_or(Json::Null)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("kind", Json::Str(error.kind.to_string())),
                ("message", Json::Str(error.message.clone())),
            ]),
        ),
    ])
}

/// Renders a success response line (no trailing newline).
#[must_use]
pub fn ok_response(id: Option<&Json>, result: Json) -> String {
    ok_value(id, result).render()
}

/// Renders an error response line (no trailing newline).
#[must_use]
pub fn err_response(id: Option<&Json>, error: &ProtoError) -> String {
    err_value(id, error).render()
}

/// One framing step's outcome.
#[derive(Debug)]
pub enum Frame {
    /// A complete line (without the trailing newline / carriage return).
    Line(String),
    /// A line longer than the cap; the oversized bytes were discarded
    /// up to and including the next newline, so framing stays aligned.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-delimited frame, capping the bytes buffered for a
/// single line at `max_line`. An over-long line is drained (so the
/// *next* frame starts cleanly at the following newline) and reported
/// as [`Frame::Oversized`] instead of ballooning memory.
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader.
pub fn read_frame<R: BufRead>(reader: &mut R, max_line: usize) -> std::io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A non-empty partial line counts as a final frame.
            return Ok(if oversized {
                Frame::Oversized
            } else if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(finish_line(line))
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if !oversized && line.len() + nl <= max_line {
                    line.extend_from_slice(&chunk[..nl]);
                } else {
                    oversized = true;
                }
                reader.consume(nl + 1);
                return Ok(if oversized {
                    Frame::Oversized
                } else {
                    Frame::Line(finish_line(line))
                });
            }
            None => {
                let len = chunk.len();
                if !oversized && line.len() + len <= max_line {
                    line.extend_from_slice(chunk);
                } else {
                    oversized = true;
                    line.clear();
                }
                reader.consume(len);
            }
        }
    }
}

/// The line as text: valid UTF-8 is taken as it is, without a copy;
/// invalid bytes decode to U+FFFD.
fn finish_line(mut bytes: Vec<u8>) -> String {
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    String::from_utf8(bytes)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn requests_parse_with_id_budget_and_verb() {
        let req = parse_request(
            r#"{"id":7,"verb":"include","left":"a","right":"b","budget":{"steps":10}}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(Json::Int(7)));
        assert_eq!(req.verb, Verb::Include);
        assert_eq!(req.body.get("left").and_then(Json::as_str), Some("a"));
        assert_eq!(req.budget.unwrap().steps, Some(10));

        let err = parse_request(r#"{"verb":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.kind, "unknown_verb");
        assert!(err.message.contains("frobnicate"));

        let err = parse_request("[1,2]").unwrap_err();
        assert_eq!(err.kind, "parse");
    }

    #[test]
    fn every_verb_round_trips_its_wire_name() {
        for verb in [
            Verb::Define,
            Verb::Classify,
            Verb::Decompose,
            Verb::Include,
            Verb::Equivalent,
            Verb::Universal,
            Verb::MonitorStep,
            Verb::Check,
            Verb::Stats,
            Verb::Batch,
            Verb::Shutdown,
            Verb::Quit,
        ] {
            assert_eq!(Verb::from_wire(verb.wire_name()), Some(verb));
        }
    }

    #[test]
    fn framing_caps_line_length_and_resynchronizes() {
        let input = format!("short\n{}\nafter\n", "x".repeat(100));
        let mut reader = Cursor::new(input.into_bytes());
        match read_frame(&mut reader, 16).unwrap() {
            Frame::Line(l) => assert_eq!(l, "short"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            read_frame(&mut reader, 16).unwrap(),
            Frame::Oversized
        ));
        match read_frame(&mut reader, 16).unwrap() {
            Frame::Line(l) => assert_eq!(l, "after"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut reader, 16).unwrap(), Frame::Eof));
    }

    #[test]
    fn framing_decodes_invalid_utf8_to_replacement_characters() {
        let mut reader = Cursor::new(b"ok \xc3\xa9\nbad \xff\xc3(\r\nlast \xe2\x82".to_vec());
        match read_frame(&mut reader, 64).unwrap() {
            Frame::Line(l) => assert_eq!(l, "ok \u{e9}"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut reader, 64).unwrap() {
            Frame::Line(l) => assert_eq!(l, "bad \u{fffd}\u{fffd}("),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut reader, 64).unwrap() {
            Frame::Line(l) => assert_eq!(l, "last \u{fffd}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut reader, 64).unwrap(), Frame::Eof));
    }

    #[test]
    fn framing_strips_carriage_returns_and_handles_final_partial_line() {
        let mut reader = Cursor::new(b"a\r\nb".to_vec());
        match read_frame(&mut reader, 16).unwrap() {
            Frame::Line(l) => assert_eq!(l, "a"),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut reader, 16).unwrap() {
            Frame::Line(l) => assert_eq!(l, "b"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut reader, 16).unwrap(), Frame::Eof));
    }
}
