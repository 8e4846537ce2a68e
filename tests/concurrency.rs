//! Multi-client stress tests for the concurrent daemon: N threads
//! replaying seeded scripted sessions against one shared [`Service`]
//! (and, over TCP, one `serve_tcp` supervisor) must observe
//!
//! * per-connection transcripts byte-identical to a solo run of the
//!   same script — no cross-talk through the shared registry, the
//!   sharded query cache, or the shared complement cache;
//! * `quit` ending only the issuing connection while `shutdown`
//!   drains every connection to EOF;
//! * admission control shedding connections beyond `max_conns` with
//!   one typed `overloaded` line;
//! * `stats` counters (per-verb, errors, and the new
//!   `connections`/`active_sessions` gauges) summing exactly across
//!   concurrent sessions.

use safety_liveness::service::{serve, serve_tcp, Json, Service, ServiceConfig};
use sl_support::FaultPlan;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};

fn quiet_service() -> Service {
    Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        ..ServiceConfig::default()
    })
}

/// Client `j`'s seeded session: every name is namespaced `t{j}_`, so
/// concurrent sessions share engines and caches but no state. Eight
/// lines — 2 defines, 2 classifies (one an error on an undefined
/// target), include, monitor-step, decompose, universal.
fn script(j: usize) -> String {
    let ns = format!("t{j}_");
    let (phi, psi) = match j % 3 {
        0 => ("G a", "F b"),
        1 => ("G F a", "a U b"),
        _ => ("F G b", "G (a -> F b)"),
    };
    [
        format!("{{\"id\":1,\"verb\":\"define\",\"name\":\"{ns}a\",\"ltl\":\"{phi}\",\"alphabet\":[\"a\",\"b\"]}}"),
        format!("{{\"id\":2,\"verb\":\"define\",\"name\":\"{ns}b\",\"ltl\":\"{psi}\",\"alphabet\":[\"a\",\"b\"]}}"),
        format!("{{\"id\":3,\"verb\":\"classify\",\"target\":\"{ns}a\"}}"),
        format!("{{\"id\":4,\"verb\":\"include\",\"left\":\"{ns}a\",\"right\":\"{ns}b\"}}"),
        format!("{{\"id\":5,\"verb\":\"monitor-step\",\"monitor\":\"{ns}m\",\"target\":\"{ns}a\",\"symbols\":[\"a\",\"b\"]}}"),
        format!("{{\"id\":6,\"verb\":\"decompose\",\"target\":\"{ns}b\"}}"),
        format!("{{\"id\":7,\"verb\":\"universal\",\"target\":\"{ns}a\"}}"),
        format!("{{\"id\":8,\"verb\":\"classify\",\"target\":\"{ns}ghost\"}}"),
    ]
    .join("\n")
        + "\n"
}

fn run_solo(j: usize) -> String {
    let service = quiet_service();
    let mut out = Vec::new();
    serve(&service, &mut Cursor::new(script(j)), &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn concurrent_sessions_are_byte_identical_to_solo_runs() {
    const N: usize = 6;
    let service = quiet_service();
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|j| {
                let service = &service;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    serve(service, &mut Cursor::new(script(j)), &mut out).unwrap();
                    String::from_utf8(out).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (j, concurrent) in outputs.iter().enumerate() {
        assert_eq!(
            concurrent,
            &run_solo(j),
            "client {j}'s transcript changed under concurrency"
        );
    }
}

#[test]
fn stats_counters_sum_exactly_across_concurrent_sessions() {
    const N: usize = 4;
    let service = quiet_service();
    std::thread::scope(|scope| {
        for j in 0..N {
            let service = &service;
            scope.spawn(move || {
                let mut out = Vec::new();
                serve(service, &mut Cursor::new(script(j)), &mut out).unwrap();
            });
        }
    });
    let stats = service.handle_line("{\"id\":9,\"verb\":\"stats\"}").line;
    let doc = safety_liveness::service::json::parse(&stats).unwrap();
    let result = doc.get("result").expect("stats result");
    let requests = result.get("requests").expect("requests block");
    let count = |verb: &str| requests.get(verb).and_then(Json::as_u64).unwrap();
    let n = N as u64;
    assert_eq!(count("define"), 2 * n, "{stats}");
    assert_eq!(count("classify"), 2 * n, "{stats}");
    assert_eq!(count("include"), n, "{stats}");
    assert_eq!(count("monitor-step"), n, "{stats}");
    assert_eq!(count("decompose"), n, "{stats}");
    assert_eq!(count("universal"), n, "{stats}");
    assert_eq!(count("stats"), 1, "{stats}");
    assert_eq!(count("total"), 8 * n + 1, "{stats}");
    // One undefined-target classify per session.
    assert_eq!(
        result.get("errors").and_then(Json::as_u64),
        Some(n),
        "{stats}"
    );
    assert_eq!(
        result.get("io_errors").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    // Every session bracketed the gauges; none is live now (the stats
    // line above went through handle_line, not a serving loop).
    assert_eq!(
        result.get("connections").and_then(Json::as_u64),
        Some(n),
        "{stats}"
    );
    assert_eq!(
        result.get("active_sessions").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    // The query cache saw every query exactly once per session —
    // disjoint names mean no cross-session hits, and the per-shard
    // counters roll up to the totals.
    let cache = result.get("cache").expect("cache block");
    let shard_sum = |key: &str| -> u64 {
        cache
            .get("shards")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get(key).and_then(Json::as_u64).unwrap())
            .sum()
    };
    for key in ["hits", "misses", "entries", "clears", "collisions"] {
        assert_eq!(
            cache.get(key).and_then(Json::as_u64).unwrap(),
            shard_sum(key),
            "per-shard {key} counters must sum to the rollup: {stats}"
        );
    }
}

#[test]
fn quit_ends_one_tcp_connection_and_shutdown_drains_the_rest() {
    let service = quiet_service();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let supervisor = scope.spawn(|| serve_tcp(&service, &listener));
        // A connects and stays idle mid-session.
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(b"{\"id\":1,\"verb\":\"stats\"}\n").unwrap();
        let mut a_reader = BufReader::new(a.try_clone().unwrap());
        let mut first = String::new();
        a_reader.read_line(&mut first).unwrap();
        assert!(first.contains("\"ok\":true"), "{first}");
        // B works and quits; only B's stream reaches EOF.
        let mut b = TcpStream::connect(addr).unwrap();
        b.write_all(b"{\"id\":1,\"verb\":\"stats\"}\n{\"id\":2,\"verb\":\"quit\"}\n")
            .unwrap();
        let mut b_text = String::new();
        BufReader::new(&b).read_to_string(&mut b_text).unwrap();
        assert!(b_text.contains("\"bye\":true"), "{b_text}");
        assert_eq!(b_text.lines().count(), 2, "{b_text}");
        // A still works after B's quit...
        a.write_all(b"{\"id\":2,\"verb\":\"stats\"}\n").unwrap();
        let mut second = String::new();
        a_reader.read_line(&mut second).unwrap();
        assert!(second.contains("\"ok\":true"), "{second}");
        // ...until C drains the daemon, which closes A's idle socket.
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"{\"id\":1,\"verb\":\"shutdown\"}\n").unwrap();
        let mut c_text = String::new();
        BufReader::new(&c).read_to_string(&mut c_text).unwrap();
        assert!(c_text.contains("\"drained\":true"), "{c_text}");
        let mut rest = String::new();
        a_reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "A's idle connection must see EOF after the drain");
        supervisor.join().unwrap().unwrap();
    });
}

#[test]
fn connections_beyond_max_conns_get_one_typed_overloaded_line() {
    let service = Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        max_conns: 1,
        ..ServiceConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let supervisor = scope.spawn(|| serve_tcp(&service, &listener));
        let mut a = TcpStream::connect(addr).unwrap();
        a.write_all(b"{\"id\":1,\"verb\":\"stats\"}\n").unwrap();
        let mut a_reader = BufReader::new(a.try_clone().unwrap());
        let mut line = String::new();
        a_reader.read_line(&mut line).unwrap(); // A is admitted and live
                                                // B is over the cap: one typed line, then EOF.
        let b = TcpStream::connect(addr).unwrap();
        let mut b_text = String::new();
        BufReader::new(&b).read_to_string(&mut b_text).unwrap();
        assert!(b_text.contains("\"overloaded\""), "{b_text}");
        assert!(b_text.contains("connection cap"), "{b_text}");
        assert_eq!(b_text.lines().count(), 1, "{b_text}");
        // A's slot frees on quit; the next connection is admitted.
        a.write_all(b"{\"id\":2,\"verb\":\"quit\"}\n").unwrap();
        let mut rest = String::new();
        a_reader.read_to_string(&mut rest).unwrap();
        assert!(rest.contains("\"bye\":true"), "{rest}");
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"{\"id\":1,\"verb\":\"shutdown\"}\n").unwrap();
        let mut c_text = String::new();
        BufReader::new(&c).read_to_string(&mut c_text).unwrap();
        assert!(
            c_text.contains("\"bye\":true"),
            "admitted after the slot freed: {c_text}"
        );
        supervisor.join().unwrap().unwrap();
    });
}

#[test]
fn concurrent_tcp_clients_see_solo_transcripts_over_one_daemon() {
    const N: usize = 4;
    let service = quiet_service();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let supervisor = scope.spawn(|| serve_tcp(&service, &listener));
        let transcripts: Vec<String> = {
            let handles: Vec<_> = (0..N)
                .map(|j| {
                    scope.spawn(move || {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        let _ = stream.set_nodelay(true);
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut received = String::new();
                        for line in script(j).lines() {
                            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
                            let mut reply = String::new();
                            reader.read_line(&mut reply).unwrap();
                            received.push_str(&reply);
                        }
                        received
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        for (j, transcript) in transcripts.iter().enumerate() {
            assert_eq!(
                transcript,
                &run_solo(j),
                "TCP client {j}'s transcript changed under concurrency"
            );
        }
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"{\"id\":1,\"verb\":\"shutdown\"}\n").unwrap();
        let mut c_text = String::new();
        BufReader::new(&c).read_to_string(&mut c_text).unwrap();
        assert!(c_text.contains("\"bye\":true"), "{c_text}");
        supervisor.join().unwrap().unwrap();
    });
}
