//! Protocol-level tests of the `sl-service` daemon: golden
//! transcripts, malformed/oversized frame rejection, budget and fault
//! degradation, and thread-count determinism.
//!
//! The golden session (`scripts/service_session.jsonl` →
//! `scripts/service_session.golden`) is the same pair of files the
//! verify.sh `service` stage pipes through the `sld` binary; here it
//! runs in-process. Services are constructed with an explicit
//! [`FaultPlan`] so the assertions hold even when the whole test suite
//! runs under the environment fault drill (`SL_FAULT_RATE`), and the
//! golden script deliberately carries no budgets — budgeted engine
//! paths consult the process-wide plan, which this test cannot pin.

use safety_liveness::service::{serve, Json, Service, ServiceConfig, REQUEST_FAULT_SITE};
use sl_support::FaultPlan;
use std::io::Cursor;

const SESSION_SCRIPT: &str = include_str!("../scripts/service_session.jsonl");
const SESSION_GOLDEN: &str = include_str!("../scripts/service_session.golden");
const QUOTIENT_SCRIPT: &str = include_str!("../scripts/quotient_session.jsonl");
const QUOTIENT_GOLDEN: &str = include_str!("../scripts/quotient_session.golden");

fn quiet_service(threads: usize) -> Service {
    Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        threads,
        ..ServiceConfig::default()
    })
}

fn run_script(service: &mut Service, script: &str) -> String {
    let mut output = Vec::new();
    serve(service, &mut Cursor::new(script.as_bytes()), &mut output)
        .expect("in-memory serving cannot fail on i/o");
    String::from_utf8(output).expect("responses are utf-8")
}

fn response_lines(text: &str) -> Vec<Json> {
    text.lines()
        .map(|line| safety_liveness::service::json::parse(line).expect("response parses"))
        .collect()
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_kind(response: &Json) -> Option<&str> {
    response.get("error")?.get("kind")?.as_str()
}

/// A script exercising cache reuse and batch fan-out; used by the
/// determinism and fault-drill tests. Every compute is unbudgeted so
/// the engine paths carry no fault sites of their own.
fn batch_heavy_script() -> String {
    let mut script = String::new();
    script
        .push_str(r#"{"id":"d1","verb":"define","name":"gfa","ltl":"G F a","alphabet":["a","b"]}"#);
    script.push('\n');
    script.push_str(r#"{"id":"d2","verb":"define","name":"ga","ltl":"G a","alphabet":["a","b"]}"#);
    script.push('\n');
    script.push_str(r#"{"id":"d3","verb":"define","name":"fa","ltl":"F a","alphabet":["a","b"]}"#);
    script.push('\n');
    for round in 0..3 {
        script.push_str(&format!(
            concat!(
                r#"{{"id":"b{round}","verb":"batch","requests":["#,
                r#"{{"verb":"include","left":"ga","right":"gfa"}},"#,
                r#"{{"verb":"include","left":"gfa","right":"ga"}},"#,
                r#"{{"verb":"classify","target":"fa"}},"#,
                r#"{{"verb":"classify","target":"ga"}},"#,
                r#"{{"verb":"universal","target":"gfa"}},"#,
                r#"{{"verb":"equivalent","left":"fa","right":"gfa"}},"#,
                r#"{{"verb":"include","left":"fa","right":"ga"}},"#,
                r#"{{"verb":"equivalent","left":"ga","right":"ga"}}"#,
                r#"]}}"#,
            ),
            round = round
        ));
        script.push('\n');
    }
    script.push_str(r#"{"id":"s","verb":"stats"}"#);
    script.push('\n');
    script
}

#[test]
fn golden_transcript_reproduces_byte_for_byte() {
    let out = run_script(&mut quiet_service(1), SESSION_SCRIPT);
    assert_eq!(out, SESSION_GOLDEN, "golden transcript drifted");
}

/// The redefine-heavy golden session pins the interned quotient
/// cache's wire-visible behavior: repeated queries over the same
/// bindings hit interned quotients instead of recomputing the
/// simulation per query, and each `define` over an existing name
/// advances the interned node (re-deriving only dirty SCCs). The
/// stats counters are part of the byte-pinned transcript, and the
/// structural assertions below keep the pin honest if the golden is
/// ever regenerated.
#[test]
fn quotient_cache_golden_session_pins_reuse_and_advance_counters() {
    for threads in [1, 8] {
        let out = run_script(&mut quiet_service(threads), QUOTIENT_SCRIPT);
        assert_eq!(
            out, QUOTIENT_GOLDEN,
            "quotient golden drifted at threads={threads}"
        );
    }
    let responses = response_lines(QUOTIENT_GOLDEN);
    let stats = &responses[responses.len() - 2];
    let quotient = stats
        .get("result")
        .and_then(|r| r.get("engine"))
        .and_then(|e| e.get("quotient_cache"))
        .expect("stats carries engine.quotient_cache");
    let field = |name: &str| quotient.get(name).and_then(Json::as_u64).expect(name);
    // Three distinct automata reach the cache, each through its
    // `define`: G F a, G a and the G F b redefine. Every right operand
    // the session asks about is deterministic, so its inclusion
    // questions take the product check, which reads no quotient.
    assert_eq!(field("misses"), 3);
    assert_eq!(field("entries"), 3);
    // Both redefines of `x` advanced the interned node; only the
    // G F a -> G F b flip actually re-derived an SCC, and the redefine
    // back to G F a lands on the still-interned original: the one hit.
    assert_eq!(field("hits"), 1);
    assert_eq!(field("advances"), 2);
    assert!(
        field("dirty_sccs") >= 1,
        "dirty_sccs {}",
        field("dirty_sccs")
    );
    assert_eq!(field("invalidations"), 0);
    assert_eq!(field("collisions"), 0);
    // And the product check's counters are live in the same stats.
    let product = stats
        .get("result")
        .and_then(|r| r.get("engine"))
        .and_then(|e| e.get("product"))
        .expect("stats carries engine.product");
    let count = |name: &str| product.get(name).and_then(Json::as_u64).expect(name);
    let (checks, states, found) = (count("checks"), count("states"), count("counterexamples"));
    assert!(
        checks > 0 && found <= checks && states >= checks,
        "checks {checks} states {states} counterexamples {found}"
    );
}

#[test]
fn golden_transcript_is_thread_count_invariant() {
    let base = run_script(&mut quiet_service(1), SESSION_SCRIPT);
    for threads in [2, 8] {
        let out = run_script(&mut quiet_service(threads), SESSION_SCRIPT);
        assert_eq!(out, base, "responses differ at threads={threads}");
    }
}

#[test]
fn batch_fanout_is_byte_identical_across_thread_counts() {
    let script = batch_heavy_script();
    let base = run_script(&mut quiet_service(1), &script);
    for threads in [2, 8] {
        let out = run_script(&mut quiet_service(threads), &script);
        assert_eq!(out, base, "batch responses differ at threads={threads}");
    }
    // The final stats line proves the cache was exercised identically:
    // rounds 2 and 3 re-ask round 1's eight queries.
    let stats = response_lines(&base).pop().expect("stats response");
    let cache = stats
        .get("result")
        .and_then(|r| r.get("cache"))
        .expect("cache stats");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(16));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(8));
}

#[test]
fn malformed_frames_get_typed_rejections_and_the_daemon_survives() {
    let script = concat!(
        "this is not json\n",
        "[1,2,3]\n",
        "{\"verb\":42}\n",
        "{\"id\":1,\"verb\":\"frobnicate\"}\n",
        "{\"id\":2,\"verb\":\"include\",\"left\":\"nope\",\"right\":\"nope\"}\n",
        "{\"id\":3,\"verb\":\"define\",\"name\":\"x\"}\n",
        "{\"id\":4,\"verb\":\"define\",\"name\":\"bad\",\"hoa\":\"HOA: v2\\n--BODY--\\n--END--\"}\n",
        "{\"id\":5,\"verb\":\"define\",\"name\":\"bad\",\"ltl\":\"G (\",\"alphabet\":[\"a\"]}\n",
        "{\"id\":6,\"verb\":\"stats\"}\n",
    );
    let out = run_script(&mut quiet_service(1), script);
    let responses = response_lines(&out);
    assert_eq!(responses.len(), 9);
    let expected_kinds = [
        "parse",
        "parse",
        "parse",
        "unknown_verb",
        "unknown_object",
        "invalid_input",
        "invalid_input",
        "invalid_input",
    ];
    for (response, expected) in responses.iter().zip(expected_kinds) {
        assert!(!is_ok(response), "{}", response.render());
        assert_eq!(
            error_kind(response),
            Some(expected),
            "{}",
            response.render()
        );
    }
    // The daemon kept serving: the final stats succeeds and counted
    // every error.
    let stats = &responses[8];
    assert!(is_ok(stats), "{}", stats.render());
    let errors = stats
        .get("result")
        .and_then(|r| r.get("errors"))
        .and_then(Json::as_u64);
    assert_eq!(errors, Some(8));
}

#[test]
fn oversized_lines_are_rejected_and_framing_resynchronizes() {
    let mut service = Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        max_line: 128,
        ..ServiceConfig::default()
    });
    let script = format!(
        "{{\"id\":1,\"verb\":\"stats\",\"pad\":\"{}\"}}\n{{\"id\":2,\"verb\":\"stats\"}}\n",
        "y".repeat(500)
    );
    let out = run_script(&mut service, &script);
    let responses = response_lines(&out);
    assert_eq!(responses.len(), 2);
    assert_eq!(error_kind(&responses[0]), Some("oversized_frame"));
    assert!(is_ok(&responses[1]), "{}", responses[1].render());
}

#[test]
fn exhausted_budgets_degrade_to_typed_errors_not_dead_daemons() {
    let mut service = quiet_service(1);
    let script = concat!(
        "{\"id\":1,\"verb\":\"define\",\"name\":\"gfa\",\"ltl\":\"G F a\",\"alphabet\":[\"a\",\"b\"]}\n",
        "{\"id\":2,\"verb\":\"define\",\"name\":\"ga\",\"ltl\":\"G a\",\"alphabet\":[\"a\",\"b\"]}\n",
        "{\"id\":3,\"verb\":\"include\",\"left\":\"gfa\",\"right\":\"ga\",\"budget\":{\"steps\":1}}\n",
        "{\"id\":4,\"verb\":\"include\",\"left\":\"gfa\",\"right\":\"ga\"}\n",
        "{\"id\":5,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"target\":\"ga\",\"symbols\":[\"a\",\"a\",\"a\"],\"budget\":{\"steps\":2}}\n",
    );
    let out = run_script(&mut service, script);
    let responses = response_lines(&out);
    assert_eq!(responses.len(), 5);
    assert!(is_ok(&responses[0]) && is_ok(&responses[1]));
    // One antichain insertion attempt cannot decide GFa ⊄ Ga. Under
    // the environment fault drill the budgeted path may report the
    // injected fault instead; both are graceful typed degradations.
    let kind = error_kind(&responses[2]).expect("budgeted query fails");
    assert!(
        kind == "budget_exceeded" || kind == "fault_injected",
        "unexpected kind {kind}"
    );
    // The same query unbudgeted still works — failures are not cached.
    assert!(is_ok(&responses[3]), "{}", responses[3].render());
    // Three monitor steps against a two-step budget.
    let kind = error_kind(&responses[4]).expect("budgeted monitor fails");
    assert_eq!(kind, "budget_exceeded");
}

/// Payloads engineered to trip the engine's internal assertions — a
/// duplicate LTL alphabet, a header-declared state count near
/// `usize::MAX`, duplicate HOA propositions — must come back as typed
/// `invalid_input` rejections with the daemon still serving, not as
/// panics or allocation aborts.
#[test]
fn hostile_define_payloads_get_typed_rejections_not_panics() {
    let mut service = quiet_service(1);
    let script = concat!(
        "{\"id\":1,\"verb\":\"define\",\"name\":\"dup\",\"ltl\":\"a\",\"alphabet\":[\"a\",\"a\"]}\n",
        "{\"id\":2,\"verb\":\"define\",\"name\":\"huge\",\"hoa\":\"HOA: v1\\nStates: 18446744073709551615\\nStart: 0\\nAP: 1 \\\"a\\\"\\nAcceptance: 1 Inf(0)\\n--BODY--\\n--END--\\n\"}\n",
        "{\"id\":3,\"verb\":\"define\",\"name\":\"dupap\",\"hoa\":\"HOA: v1\\nStates: 1\\nStart: 0\\nAP: 2 \\\"a\\\" \\\"a\\\"\\nAcceptance: 1 Inf(0)\\n--BODY--\\nState: 0\\n--END--\\n\"}\n",
        "{\"id\":4,\"verb\":\"stats\"}\n",
    );
    let out = run_script(&mut service, script);
    let responses = response_lines(&out);
    assert_eq!(responses.len(), 4);
    for response in &responses[..3] {
        assert_eq!(
            error_kind(response),
            Some("invalid_input"),
            "{}",
            response.render()
        );
    }
    assert!(is_ok(&responses[3]), "{}", responses[3].render());
}

/// An LTL `define` past the tableau's 64-until limit (promise masks are
/// `u64`) is a typed `invalid_input` rejection whether or not the
/// request carries a budget: both paths run the one budgeted
/// translation, so neither can panic on the formula's shape.
#[test]
fn too_many_untils_is_invalid_input_with_or_without_a_budget() {
    let service = quiet_service(1);
    // (a U b) & (a U X b) & ... & (a U X...X b): 65 distinct untils.
    let ltl = (0..65)
        .map(|i| format!("(a U {}b)", "X ".repeat(i)))
        .collect::<Vec<_>>()
        .join(" & ");
    for budget in ["", r#","budget":{"steps":1000}"#] {
        let line = format!(
            r#"{{"id":1,"verb":"define","name":"wide","ltl":"{ltl}","alphabet":["a","b"]{budget}}}"#
        );
        let reply = service.handle_line(&line).line;
        let response = safety_liveness::service::json::parse(&reply).expect("response parses");
        assert_eq!(error_kind(&response), Some("invalid_input"), "{reply}");
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str);
        assert_eq!(
            message,
            Some("invalid input: too many until subformulas: 65 (promise masks are u64)"),
            "{reply}"
        );
    }
}

/// A rejected `monitor-step` — exhausted budget or malformed symbol
/// list — must leave the session exactly where it was: the whole batch
/// is validated and charged before the first step, so a client retry
/// can never double-step a silently consumed prefix.
#[test]
fn failed_monitor_steps_consume_no_prefix() {
    let mut service = quiet_service(1);
    let script = concat!(
        "{\"id\":1,\"verb\":\"define\",\"name\":\"ga\",\"ltl\":\"G a\",\"alphabet\":[\"a\",\"b\"]}\n",
        "{\"id\":2,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"target\":\"ga\",\"symbols\":[\"b\",\"b\",\"b\"],\"budget\":{\"steps\":2}}\n",
        "{\"id\":3,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"symbols\":[\"b\",42]}\n",
        "{\"id\":4,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"symbols\":[\"a\"]}\n",
    );
    let out = run_script(&mut service, script);
    let responses = response_lines(&out);
    assert_eq!(responses.len(), 4);
    assert_eq!(error_kind(&responses[1]), Some("budget_exceeded"));
    assert_eq!(error_kind(&responses[2]), Some("parse"));
    // Had either failed request stepped its prefix, the `b`s would have
    // parked the G a monitor in sticky `violation`; an untouched
    // session still answers `ok` on `a`.
    let verdict = responses[3]
        .get("result")
        .and_then(|r| r.get("verdict"))
        .and_then(Json::as_str);
    assert_eq!(verdict, Some("ok"), "{}", responses[3].render());
}

#[test]
fn seeded_fault_drill_degrades_exactly_the_predicted_requests() {
    let plan = FaultPlan::new(2003, 0.5);
    let mut drilled = Service::new(ServiceConfig {
        fault: plan,
        threads: 1,
        ..ServiceConfig::default()
    });
    let script: String = (0..40)
        .map(|i| format!("{{\"id\":{i},\"verb\":\"stats\"}}\n"))
        .collect();
    let out = run_script(&mut drilled, &script);
    let responses = response_lines(&out);
    assert_eq!(responses.len(), 40);
    let mut faulted = 0;
    for (index, response) in responses.iter().enumerate() {
        if plan.should_fault(REQUEST_FAULT_SITE, index as u64) {
            assert_eq!(
                error_kind(response),
                Some("fault_injected"),
                "request {index}"
            );
            faulted += 1;
        } else {
            assert!(is_ok(response), "request {index}: {}", response.render());
        }
    }
    assert!(faulted > 0, "a 50% drill over 40 requests must fire");

    // And at the acceptance drill rate: every request still gets a
    // typed response, the drilled session is itself deterministic (so
    // it is reproducible for debugging), and responses only diverge
    // from the clean run once a fault has fired (a faulted `define`
    // legitimately cascades into `unknown_object` errors downstream).
    let drill = FaultPlan::new(2003, 0.05);
    let script = batch_heavy_script();
    let clean = run_script(&mut quiet_service(1), &script);
    let drilled_service = || {
        Service::new(ServiceConfig {
            fault: drill,
            threads: 1,
            ..ServiceConfig::default()
        })
    };
    let out = run_script(&mut drilled_service(), &script);
    assert_eq!(out, run_script(&mut drilled_service(), &script));
    assert_eq!(out.lines().count(), clean.lines().count());
    let mut fault_seen = false;
    for (clean_line, drilled_line) in clean.lines().zip(out.lines()) {
        let response = safety_liveness::service::json::parse(drilled_line).expect("parses");
        fault_seen |= drilled_line.contains("fault_injected");
        if !fault_seen {
            assert_eq!(drilled_line, clean_line);
        } else {
            // Post-fault responses stay typed: ok, or an error with a
            // structured kind.
            assert!(is_ok(&response) || error_kind(&response).is_some());
        }
    }
}

#[test]
fn monitor_sessions_are_incremental_with_sticky_verdicts() {
    let mut service = quiet_service(1);
    let script = concat!(
        "{\"id\":1,\"verb\":\"define\",\"name\":\"ga\",\"ltl\":\"G a\",\"alphabet\":[\"a\",\"b\"]}\n",
        "{\"id\":2,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"target\":\"ga\",\"symbols\":[\"a\",\"a\"]}\n",
        "{\"id\":3,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"symbols\":[\"zz\"]}\n",
        "{\"id\":4,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"symbols\":[\"a\"]}\n",
        "{\"id\":5,\"verb\":\"monitor-step\",\"monitor\":\"m\",\"symbols\":[\"a\"],\"reset\":true}\n",
        "{\"id\":6,\"verb\":\"monitor-step\",\"monitor\":\"other\",\"symbols\":[\"a\"]}\n",
    );
    let out = run_script(&mut service, script);
    let responses = response_lines(&out);
    let verdict = |i: usize| {
        responses[i]
            .get("result")
            .and_then(|r| r.get("verdict"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    // Steps accumulate across requests; an out-of-alphabet symbol
    // parks the session in sticky Unknown until an explicit reset.
    assert_eq!(verdict(1).as_deref(), Some("ok"));
    assert_eq!(verdict(2).as_deref(), Some("unknown"));
    assert_eq!(verdict(3).as_deref(), Some("unknown"));
    assert_eq!(verdict(4).as_deref(), Some("ok"));
    // A session must be created with a target before stepping.
    assert_eq!(error_kind(&responses[5]), Some("invalid_input"));
}

#[test]
fn redefinition_cannot_serve_stale_cache_entries() {
    let mut service = quiet_service(1);
    let script = concat!(
        "{\"id\":1,\"verb\":\"define\",\"name\":\"x\",\"ltl\":\"G a\",\"alphabet\":[\"a\",\"b\"]}\n",
        "{\"id\":2,\"verb\":\"universal\",\"target\":\"x\"}\n",
        "{\"id\":3,\"verb\":\"define\",\"name\":\"x\",\"ltl\":\"a | !a\",\"alphabet\":[\"a\",\"b\"]}\n",
        "{\"id\":4,\"verb\":\"universal\",\"target\":\"x\"}\n",
    );
    let out = run_script(&mut service, script);
    let responses = response_lines(&out);
    let universal = |i: usize| {
        responses[i]
            .get("result")
            .and_then(|r| r.get("universal"))
            .and_then(Json::as_bool)
    };
    // The cache keys by structural hash of the operand, not by name:
    // redefining `x` routes the query to the new automaton.
    assert_eq!(universal(1), Some(false));
    assert_eq!(universal(3), Some(true));
}
