//! `sld` — the safety/liveness query daemon.
//!
//! ```text
//! sld [--stdin]              serve newline-delimited JSON on stdin/stdout (default)
//! sld --tcp ADDR             serve concurrent TCP connections on ADDR
//! sld --max-conns N          concurrent-connection cap for --tcp (default 64)
//! sld --persist DIR [...]    journal + snapshot state under DIR (crash-safe)
//! ```
//!
//! Under `--tcp` every connection is served on its own thread against
//! the shared daemon state; `quit` ends the issuing connection only,
//! `shutdown` drains the whole daemon (flush, final snapshot, refuse
//! further work, close every connection).
//!
//! stdout carries protocol lines only (golden transcripts diff it
//! byte-for-byte); the banner and diagnostics go to stderr. Knobs via
//! environment: `SL_THREADS` (batch fan-out width),
//! `SL_FAULT_SEED`/`SL_FAULT_RATE` (seeded fault
//! drill of the `sl.service.request` site and the engines' sites),
//! `SL_SNAPSHOT_EVERY` (journal records between automatic snapshots
//! under `--persist`; default 256, 0 disables automatic snapshots).

use sl_service::{serve_stdin, serve_tcp, PersistConfig, Service, ServiceConfig};
use std::net::TcpListener;
use std::process::ExitCode;

const USAGE: &str = "usage: sld [--stdin | --tcp ADDR] [--max-conns N] [--persist DIR]";

enum Mode {
    Stdin,
    Tcp(String),
}

/// Flushes, snapshots, and reports the drain on the way out. The
/// shutdown verb already drained if the session ended that way; a
/// second drain is a cheap no-op rotation, and an EOF-terminated
/// session gets its only drain here.
fn drain_at_exit(service: &Service) {
    if !service.is_persistent() {
        return;
    }
    match service.drain() {
        Ok(_) => eprintln!("sld: state flushed and snapshotted"),
        Err(e) => eprintln!("sld: drain failed: {e}"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = Mode::Stdin;
    let mut persist_dir: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdin" => mode = Mode::Stdin,
            "--tcp" => {
                let Some(addr) = args.get(i + 1) else {
                    eprintln!("sld: --tcp needs an address (e.g. 127.0.0.1:7333)");
                    return ExitCode::FAILURE;
                };
                mode = Mode::Tcp(addr.clone());
                i += 1;
            }
            "--max-conns" => {
                let parsed = args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
                let Some(cap) = parsed.filter(|&cap| cap > 0) else {
                    eprintln!("sld: --max-conns needs a positive integer");
                    return ExitCode::FAILURE;
                };
                max_conns = Some(cap);
                i += 1;
            }
            "--persist" => {
                let Some(dir) = args.get(i + 1) else {
                    eprintln!("sld: --persist needs a directory");
                    return ExitCode::FAILURE;
                };
                persist_dir = Some(dir.clone());
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sld: unknown argument `{other}` ({USAGE})");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let mut config = ServiceConfig::default();
    if let Some(cap) = max_conns {
        config.max_conns = cap;
    }
    let service = match &persist_dir {
        None => Service::new(config),
        Some(dir) => {
            let snapshot_every = std::env::var("SL_SNAPSHOT_EVERY")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(256);
            let persist = PersistConfig {
                dir: dir.into(),
                snapshot_every,
            };
            match Service::with_persistence(config, &persist) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("sld: cannot recover state from {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    for note in service.take_recovery_notes() {
        eprintln!("sld: {note}");
    }

    match mode {
        Mode::Stdin => {
            eprintln!("sld: serving stdin (quit or EOF ends the session)");
            match serve_stdin(&service) {
                Ok(summary) => {
                    drain_at_exit(&service);
                    eprintln!(
                        "sld: session over ({} responses, {})",
                        summary.responses,
                        if summary.quit { "quit" } else { "eof" }
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    drain_at_exit(&service);
                    eprintln!("sld: i/o error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Tcp(addr) => {
            let listener = match TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("sld: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The resolved address matters when the caller bound port
            // 0; tests parse it off this line to find the daemon.
            let bound = listener
                .local_addr()
                .map_or(addr.clone(), |a| a.to_string());
            eprintln!(
                "sld: serving {bound} (max {} connections; quit ends one connection, \
                 shutdown drains the daemon)",
                service.max_conns()
            );
            match serve_tcp(&service, &listener) {
                Ok(()) => {
                    drain_at_exit(&service);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    drain_at_exit(&service);
                    eprintln!("sld: accept error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
