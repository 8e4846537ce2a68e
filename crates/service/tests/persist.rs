//! Durability and lifecycle integration tests: crash recovery, the
//! graceful shutdown drain, bounded intake, transport error counting,
//! and the persistence metrics surfaced by `stats`.

use sl_service::{
    serve_connection, serve_tcp, Json, PersistConfig, PersistError, Service, ServiceConfig,
};
use sl_support::FaultPlan;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sl-persist-it-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quiet() -> ServiceConfig {
    ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        ..ServiceConfig::default()
    }
}

fn open(dir: &PathBuf, snapshot_every: u64) -> Service {
    Service::with_persistence(
        quiet(),
        &PersistConfig {
            dir: dir.clone(),
            snapshot_every,
        },
    )
    .expect("open persistent service")
}

const DEFINE_GA: &str = r#"{"id":1,"verb":"define","name":"p0","ltl":"G a","alphabet":["a","b"]}"#;

#[test]
fn restart_resumes_monitor_sessions_with_sticky_verdicts() {
    let dir = temp_dir("sticky");
    // The twin sees the whole session uninterrupted.
    let lines = [
        DEFINE_GA,
        r#"{"id":2,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["a","a"]}"#,
        r#"{"id":3,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["b"]}"#,
        r#"{"id":4,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["a"]}"#,
    ];
    let twin = Service::new(quiet());
    let twin_replies: Vec<String> = lines.iter().map(|l| twin.handle_line(l).line).collect();
    assert!(twin_replies[2].contains("violation"), "{}", twin_replies[2]);
    assert!(
        twin_replies[3].contains("violation"),
        "sticky: {}",
        twin_replies[3]
    );

    // Crash after the violation landed in the journal; the restarted
    // daemon must keep the verdict sticky without re-seeing line 3.
    let svc = open(&dir, 0);
    for line in &lines[..3] {
        svc.handle_line(line);
    }
    drop(svc);
    let svc = open(&dir, 0);
    assert_eq!(svc.handle_line(lines[3]).line, twin_replies[3]);
    // A second restart keeps it sticky still.
    drop(svc);
    let svc = open(&dir, 0);
    assert_eq!(svc.handle_line(lines[3]).line, twin_replies[3]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_between_define_and_first_monitor_step_matches_a_fresh_daemon() {
    // The define fails at dispatch (unbalanced formula) but is
    // journaled anyway — the journal records accepted *requests*, not
    // successes. After a crash, the recovered daemon must give the
    // first monitor-step exactly the typed error a fresh daemon gives.
    let bad_define = r#"{"id":1,"verb":"define","name":"p0","ltl":"G (","alphabet":["a","b"]}"#;
    let step = r#"{"id":2,"verb":"monitor-step","monitor":"m0","target":"p0","symbols":["a"]}"#;

    let fresh = Service::new(quiet());
    let fresh_define = fresh.handle_line(bad_define).line;
    assert!(fresh_define.contains("\"ok\":false"), "{fresh_define}");
    let fresh_step = fresh.handle_line(step).line;

    let dir = temp_dir("baddefine");
    let svc = open(&dir, 0);
    assert_eq!(svc.handle_line(bad_define).line, fresh_define);
    drop(svc); // crash before any monitor-step
    let recovered = open(&dir, 0);
    assert_eq!(recovered.handle_line(step).line, fresh_step);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_snapshots_and_refuses_further_work() {
    let dir = temp_dir("shutdown");
    let svc = open(&dir, 0);
    assert!(svc.handle_line(DEFINE_GA).line.contains("\"ok\":true"));
    let reply = svc.handle_line(r#"{"id":2,"verb":"shutdown"}"#);
    assert!(reply.quit, "shutdown ends the session");
    assert!(reply.line.contains("\"bye\":true"), "{}", reply.line);
    assert!(reply.line.contains("\"drained\":true"), "{}", reply.line);
    assert!(
        reply.line.contains("\"snapshotted\":true"),
        "{}",
        reply.line
    );
    // The drained daemon sheds anything that still arrives.
    let late = svc.handle_line(r#"{"id":3,"verb":"classify","target":"p0"}"#);
    assert!(late.line.contains("\"shutting_down\""), "{}", late.line);
    drop(svc);
    // Clean shutdown means the snapshot carries everything: recovery
    // replays zero journal records.
    let svc = open(&dir, 0);
    let stats = svc.handle_line(r#"{"id":4,"verb":"stats"}"#).line;
    let doc = sl_service::json::parse(&stats).unwrap();
    let persist = doc
        .get("result")
        .and_then(|r| r.get("persist"))
        .expect("persist metrics");
    assert_eq!(
        persist.get("replayed_records").and_then(Json::as_u64),
        Some(0),
        "{stats}"
    );
    assert!(
        svc.handle_line(r#"{"id":5,"verb":"classify","target":"p0"}"#)
            .line
            .contains("\"class\""),
        "the definition survived via the snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_batches_are_shed_with_a_typed_overloaded_error() {
    let svc = Service::new(ServiceConfig {
        max_batch: 2,
        ..quiet()
    });
    let ok = svc.handle_line(
        r#"{"id":1,"verb":"batch","requests":[{"verb":"classify","target":"g"},{"verb":"classify","target":"g"}]}"#,
    );
    assert!(ok.line.contains("\"results\""), "{}", ok.line);
    let over = svc.handle_line(
        r#"{"id":2,"verb":"batch","requests":[{"verb":"classify","target":"g"},{"verb":"classify","target":"g"},{"verb":"classify","target":"g"}]}"#,
    );
    assert!(over.line.contains("\"overloaded\""), "{}", over.line);
    assert!(over.line.contains("split the batch"), "{}", over.line);
}

#[test]
fn corrupt_mid_journal_record_is_a_typed_recovery_error() {
    let dir = temp_dir("corrupt");
    let svc = open(&dir, 0);
    svc.handle_line(DEFINE_GA);
    drop(svc);
    // Flip a payload byte inside the only record: the checksum breaks,
    // and unlike a truncated tail this is damage, not a crash
    // signature — recovery must refuse with the byte offset.
    let journal = dir.join("journal-0.slj");
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = 8 + 20 + 5; // magic + header + a few payload bytes
    bytes[mid] ^= 0x40;
    std::fs::write(&journal, &bytes).unwrap();
    let err = Service::with_persistence(
        quiet(),
        &PersistConfig {
            dir: dir.clone(),
            snapshot_every: 0,
        },
    )
    .err()
    .expect("corrupt journal must not recover silently");
    match &err {
        PersistError::Corrupt { offset, .. } => assert_eq!(*offset, 8, "{err}"),
        other => panic!("expected Corrupt, got {other}"),
    }
    assert!(err.to_string().contains("at byte 8"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_errors_are_counted_and_reported_by_stats() {
    struct FailingReader;
    impl Read for FailingReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "peer reset",
            ))
        }
    }
    let mut svc = Service::new(quiet());
    let mut reader = std::io::BufReader::new(FailingReader);
    let mut sink = Vec::new();
    let summary = serve_connection(&mut svc, &mut reader, &mut sink);
    assert!(!summary.quit, "an I/O error is not a quit");
    let stats = svc.handle_line(r#"{"id":1,"verb":"stats"}"#).line;
    let doc = sl_service::json::parse(&stats).unwrap();
    assert_eq!(
        doc.get("result")
            .and_then(|r| r.get("io_errors"))
            .and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
}

#[test]
fn mid_session_disconnect_leaves_the_daemon_serving_the_next_connection() {
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut svc = Service::new(quiet());
        serve_tcp(&mut svc, &listener).unwrap();
    });
    // Connection 1: send a define, read its reply, then vanish without
    // a quit — mid-session as far as the daemon is concerned.
    {
        let mut c1 = TcpStream::connect(addr).unwrap();
        c1.write_all(DEFINE_GA.as_bytes()).unwrap();
        c1.write_all(b"\n").unwrap();
        let mut reply = [0u8; 1];
        c1.read_exact(&mut reply).unwrap(); // daemon answered; now drop
    }
    // Connection 2: the daemon is still there, with connection 1's
    // state (the registry is daemon-shared). `shutdown` — not `quit`,
    // which is connection-local now — ends the daemon for the join.
    let mut c2 = TcpStream::connect(addr).unwrap();
    c2.write_all(
        b"{\"id\":2,\"verb\":\"classify\",\"target\":\"p0\"}\n{\"id\":3,\"verb\":\"shutdown\"}\n",
    )
    .unwrap();
    let mut replies = String::new();
    c2.read_to_string(&mut replies).unwrap();
    assert!(replies.contains("\"class\":\"safety\""), "{replies}");
    assert!(replies.contains("\"bye\":true"), "{replies}");
    server.join().unwrap();
}

#[test]
fn stats_reports_persistence_metrics() {
    let dir = temp_dir("metrics");
    let svc = open(&dir, 2);
    svc.handle_line(DEFINE_GA);
    let stats = svc.handle_line(r#"{"id":2,"verb":"stats"}"#).line;
    let doc = sl_service::json::parse(&stats).unwrap();
    let persist = doc
        .get("result")
        .and_then(|r| r.get("persist"))
        .expect("persist metrics present for a durable daemon");
    for key in [
        "journal_bytes",
        "records_since_snapshot",
        "snapshots_taken",
        "snapshots_discarded",
        "last_recovery_ms",
        "replayed_records",
    ] {
        assert!(
            persist.get(key).and_then(Json::as_u64).is_some(),
            "missing {key}: {stats}"
        );
    }
    assert_eq!(
        persist.get("records_since_snapshot").and_then(Json::as_u64),
        Some(1)
    );
    // A transient daemon reports no persist block at all.
    let transient = Service::new(quiet());
    let stats = transient.handle_line(r#"{"id":1,"verb":"stats"}"#).line;
    assert!(!stats.contains("\"persist\""), "{stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent daemon state worth snapshotting: `targets` HOA-free
/// LTL policies and `sessions` monitor sessions spread over them, each
/// stepped once. Returns the lines, so a twin can replay them.
fn fleet_lines(targets: usize, sessions: usize) -> Vec<String> {
    let formulas = ["G a", "G (a | X b)", "G (b -> X a)", "a U b", "G F a"];
    let mut lines: Vec<String> = (0..targets)
        .map(|t| {
            format!(
                r#"{{"verb":"define","name":"t{t}","ltl":"{}","alphabet":["a","b"]}}"#,
                formulas[t % formulas.len()]
            )
        })
        .collect();
    for j in 0..sessions {
        let sym = if j % 3 == 0 { "b" } else { "a" };
        lines.push(format!(
            r#"{{"verb":"monitor-step","monitor":"m{j}","target":"t{}","symbols":["{sym}"]}}"#,
            j % targets
        ));
    }
    lines
}

/// Questions whose answers depend on every restored automaton and
/// session state.
fn fleet_probe(targets: usize, sessions: usize) -> Vec<String> {
    let mut probe: Vec<String> = (0..targets)
        .map(|t| format!(r#"{{"verb":"classify","target":"t{t}"}}"#))
        .collect();
    for j in 0..sessions {
        probe.push(format!(
            r#"{{"verb":"monitor-step","monitor":"m{j}","symbols":["a","b","a"]}}"#
        ));
    }
    probe
}

fn answers(svc: &Service, lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| svc.handle_line(l).line).collect()
}

/// FNV-1a 64 over the snapshot payload (a snapshot file's checksum).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in 0u64.to_le_bytes().iter().chain(bytes) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn snapshot_payload(path: &std::path::Path) -> Json {
    let bytes = std::fs::read(path).unwrap();
    sl_service::json::parse(std::str::from_utf8(&bytes[24..]).unwrap()).unwrap()
}

#[test]
fn snapshots_written_before_the_automata_table_recover_to_the_same_responses() {
    let (targets, sessions) = (5, 60);
    let lines = fleet_lines(targets, sessions);
    let probe = fleet_probe(targets, sessions);
    let twin = Service::new(quiet());
    answers(&twin, &lines);
    let want = answers(&twin, &probe);

    let dir = temp_dir("per-entry");
    let svc = open(&dir, 0);
    answers(&svc, &lines);
    assert!(svc.drain().unwrap());
    drop(svc);
    // Rewrite the snapshot in the per-entry shape: every registry
    // binding and session carries its own `hoa` text, no table.
    let path = dir.join("snap-1.slsnap");
    let doc = snapshot_payload(&path);
    let table = doc
        .get("automata")
        .and_then(Json::as_arr)
        .expect("automata table");
    assert!(table.len() < targets + sessions, "the table deduplicates");
    let per_entry = |key: &str| -> Json {
        let items = doc.get(key).and_then(Json::as_arr).unwrap();
        Json::Arr(
            items
                .iter()
                .map(|item| {
                    let Json::Obj(fields) = item else {
                        panic!("entry object")
                    };
                    Json::Obj(
                        fields
                            .iter()
                            .map(|(k, v)| match k.as_str() {
                                "automaton" => (
                                    "hoa".to_string(),
                                    table[v.as_u64().unwrap() as usize].clone(),
                                ),
                                _ => (k.clone(), v.clone()),
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    };
    let old = Json::obj(vec![
        ("seq", doc.get("seq").unwrap().clone()),
        ("registry", per_entry("registry")),
        ("sessions", per_entry("sessions")),
    ])
    .render();
    assert!(!old.contains("\"automat"), "{old}");
    let mut bytes = b"SLSNAP1\n".to_vec();
    bytes.extend_from_slice(&(old.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv64(old.as_bytes()).to_le_bytes());
    bytes.extend_from_slice(old.as_bytes());
    std::fs::write(&path, bytes).unwrap();

    let svc = open(&dir, 0);
    assert!(
        svc.take_recovery_notes().is_empty(),
        "the old shape is not damage"
    );
    assert_eq!(answers(&svc, &probe), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sessions_restore_against_the_automaton_they_watch_across_redefinitions() {
    // m0 outlives two redefinitions of its target and m1 watches the
    // middle version. p1 is dropped and replaced between two snapshots
    // (`None` marks a drain), again and again, with nothing left holding
    // the dropped automaton — the pattern under which a freed address
    // could come back as a different automaton under the same name.
    let define = |name: &str, ltl: &str| {
        Some(format!(
            r#"{{"verb":"define","name":"{name}","ltl":"{ltl}","alphabet":["a","b"]}}"#
        ))
    };
    let step = |monitor: &str, target: &str, symbol: &str| {
        Some(format!(
            r#"{{"verb":"monitor-step","monitor":"{monitor}","target":"{target}","symbols":["{symbol}"]}}"#
        ))
    };
    let mut lines = vec![
        define("p0", "G a"),
        step("m0", "p0", "a"),
        None,
        define("p0", "G b"),
        step("m1", "p0", "b"),
        None,
        define("p0", "G (a | b)"),
    ];
    for (first, second) in [("G a", "F b"), ("G b", "F a"), ("a U b", "G F a")] {
        lines.extend([None, define("p1", first), define("p1", second)]);
    }
    lines.push(None);
    let probe = [
        r#"{"verb":"monitor-step","monitor":"m0","symbols":["a","b"]}"#,
        r#"{"verb":"monitor-step","monitor":"m1","symbols":["b","a"]}"#,
        r#"{"verb":"monitor-step","monitor":"m2","target":"p0","symbols":["a","b"]}"#,
        r#"{"verb":"monitor-step","monitor":"m3","target":"p1","symbols":["a","a"]}"#,
        r#"{"verb":"classify","target":"p0"}"#,
        r#"{"verb":"classify","target":"p1"}"#,
    ];
    let twin = Service::new(quiet());
    for line in lines.iter().flatten() {
        twin.handle_line(line);
    }
    let want: Vec<String> = probe.iter().map(|l| twin.handle_line(l).line).collect();
    assert!(
        want[0].contains("\"violation\""),
        "m0 still watches G a: {}",
        want[0]
    );
    assert!(
        want[1].contains("\"violation\""),
        "m1 still watches G b: {}",
        want[1]
    );

    let dir = temp_dir("redefine");
    let svc = open(&dir, 0);
    for line in &lines {
        match line {
            Some(line) => assert!(svc.handle_line(line).line.contains("\"ok\":true")),
            None => assert!(svc.drain().unwrap()),
        }
    }
    drop(svc); // crash right after the last snapshot
    let svc = open(&dir, 0);
    let got: Vec<String> = probe.iter().map(|l| svc.handle_line(l).line).collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_reply_survives_peers_disconnecting_mid_drain() {
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;
    // A drain with many sessions takes long enough for idle peers to
    // hang up while it runs; their connection threads end mid-drain and
    // must not close the issuer's socket before its reply is written.
    let lines = fleet_lines(25, 1000);
    for round in 0..6u64 {
        let dir = temp_dir("drain-race");
        let svc = open(&dir, 0);
        answers(&svc, &lines);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = svc.clone();
        let server = std::thread::spawn(move || serve_tcp(&daemon, &listener));
        let mut peers: Vec<TcpStream> = (0..8)
            .map(|_| {
                let mut peer = TcpStream::connect(addr).unwrap();
                peer.write_all(b"{\"verb\":\"stats\"}\n").unwrap();
                let mut byte = [0u8; 1];
                peer.read_exact(&mut byte).unwrap(); // its thread is serving
                peer
            })
            .collect();
        let mut issuer = TcpStream::connect(addr).unwrap();
        issuer
            .write_all(b"{\"id\":9,\"verb\":\"shutdown\"}\n")
            .unwrap();
        // Hang up one peer before the drain starts, the rest as it runs,
        // at offsets that vary per round.
        drop(peers.remove(0));
        while !svc.is_stopped() {
            std::thread::yield_now();
        }
        for (i, peer) in peers.into_iter().enumerate() {
            std::thread::sleep(Duration::from_micros(round * 50 * i as u64));
            drop(peer);
        }
        let mut reply = String::new();
        let read = issuer.read_to_string(&mut reply);
        assert!(
            reply.contains("{\"id\":9,\"ok\":true,\"result\":{\"bye\":true,\"drained\":true"),
            "round {round}: the issuer lost its reply ({read:?}): {reply:?}"
        );
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_snapshot_that_fails_after_its_rename_loses_no_acknowledged_request() {
    let define = |name: &str| {
        format!(r#"{{"verb":"define","name":"{name}","ltl":"G a","alphabet":["a","b"]}}"#)
    };
    let classify = |name: &str| format!(r#"{{"verb":"classify","target":"{name}"}}"#);
    let dir = temp_dir("commit-point");
    let svc = open(&dir, 2);
    // Two records: snapshot 1 and journal 1.
    for name in ["p0", "p1"] {
        assert!(svc.handle_line(&define(name)).line.contains("\"ok\":true"));
    }
    // The second snapshot is renamed into place, then its journal
    // cannot be created; a retry would fail before its rename.
    std::fs::create_dir(dir.join("journal-2.slj")).unwrap();
    for name in ["p2", "p3"] {
        assert!(svc.handle_line(&define(name)).line.contains("\"ok\":true"));
    }
    assert!(dir.join("snap-2.slsnap").exists());
    std::fs::create_dir(dir.join(".snap-2.tmp")).unwrap();
    let reply = svc.handle_line(&define("t")).line;
    drop(svc); // crash
    std::fs::remove_dir(dir.join("journal-2.slj")).unwrap();
    std::fs::remove_dir(dir.join(".snap-2.tmp")).unwrap();
    let svc = open(&dir, 2);
    for name in ["p0", "p1", "p2", "p3"] {
        assert!(svc
            .handle_line(&classify(name))
            .line
            .contains("\"ok\":true"));
    }
    let after = svc.handle_line(&classify("t")).line;
    assert!(
        reply.contains("\"kind\":\"persist\"") || after.contains("\"ok\":true"),
        "`define t` answered {reply} but recovered to {after}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
