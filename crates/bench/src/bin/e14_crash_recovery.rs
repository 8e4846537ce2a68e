//! E14 (perf) — crash recovery: write-ahead journal replay vs
//! snapshot-assisted recovery across snapshot intervals.
//!
//! The durability layer journals every state-mutating request ahead of
//! dispatch and periodically folds the journal into an atomic
//! snapshot. Recovery cost is therefore a dial: with no snapshots the
//! daemon replays the whole journal; with an interval of `e` it loads
//! one snapshot and replays at most `e` records. This experiment
//! populates identical daemon state under three intervals, crashes the
//! daemon cold (drop, no drain), and measures full recovery
//! (`Service::with_persistence`) per interval. Measured:
//!
//! * `persist/recover/journal_only` — interval 0: pure journal replay;
//! * `persist/recover/snap64`      — interval 64;
//! * `persist/recover/snap512`     — interval 512.
//!
//! * `persist/snapshot/sessions1000` — one `drain()` (journal sync plus
//!   a full snapshot) of a daemon holding 1,000 monitor sessions over
//!   25 HOA targets of 1–4 states;
//! * `persist/snapshot/registry200` — the same for a daemon shaped like
//!   `sldbench`'s `monitor-journal` state: 200 registry automata of
//!   16–64 states and 1,000 monitor sessions over them, with nothing
//!   redefined since the previous drain, so every text comes from the
//!   render memo.
//!
//! Correctness gates come first: every recovered daemon must answer a
//! probe suffix byte-identically to an uninterrupted twin, the
//! snapshot configurations must replay strictly fewer journal records
//! than the journal-only one, and both snapshot-cost daemons' newest
//! snapshots must hold each distinct automaton text exactly once (a
//! count, not a timing).
//! `BENCH_persist.json` records the medians; `scripts/verify.sh` gates
//! on this artifact.

use sl_bench::{header, Scoreboard};
use sl_service::{Json, PersistConfig, Service, ServiceConfig};
use sl_support::bench::{black_box, Bench};
use sl_support::{FaultPlan, SplitMix};
use std::path::PathBuf;
use std::process::ExitCode;

/// Requests in the populated session (journaled ones dominate).
const SESSION: usize = 1200;
/// Targets and monitor sessions of the snapshot-cost fleet.
const FLEET_TARGETS: usize = 25;
const FLEET_SESSIONS: usize = 1000;
/// Registry automata and monitor sessions of the `monitor-journal`-shaped
/// snapshot-cost daemon.
const REGISTRY_AUTOMATA: usize = 200;
const REGISTRY_SESSIONS: usize = 1000;

fn config() -> ServiceConfig {
    ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        ..ServiceConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sl-e14-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A `define` of a small random HOA automaton under `name`.
fn define(rng: &mut SplitMix, name: &str) -> String {
    let config = sl_buchi::RandomConfig {
        states: 1 + rng.below(4),
        density_percent: 60,
        accepting_percent: 50,
    };
    define_random(rng, name, config)
}

/// A `define` of a random deterministic HOA automaton under `name`.
fn define_random(rng: &mut SplitMix, name: &str, config: sl_buchi::RandomConfig) -> String {
    let b = sl_buchi::random_buchi(&sl_omega::Alphabet::ab(), rng.next_u64(), config);
    let hoa = sl_buchi::hoa::to_hoa(&b, name)
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{{\"verb\":\"define\",\"name\":\"{name}\",\"hoa\":\"{hoa}\"}}")
}

/// The seeded session: three HOA-defined policies, then a stream of
/// `monitor-step`s (each one a journal record) over eight concurrent
/// monitor sessions, with occasional redefinitions and decompositions.
fn session(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed);
    let mut lines = Vec::with_capacity(SESSION);
    let names = ["p0", "p1", "p2"];
    for name in names {
        lines.push(define(&mut rng, name));
    }
    while lines.len() < SESSION {
        match rng.below(16) {
            0 => {
                let name = names[rng.below(names.len())];
                lines.push(define(&mut rng, name));
            }
            1 => lines.push(format!(
                "{{\"verb\":\"decompose\",\"target\":\"{}\"}}",
                names[rng.below(names.len())]
            )),
            _ => {
                let symbols: Vec<&str> = (0..1 + rng.below(3))
                    .map(|_| if rng.flip() { "\"a\"" } else { "\"b\"" })
                    .collect();
                lines.push(format!(
                    "{{\"verb\":\"monitor-step\",\"monitor\":\"m{}\",\"target\":\"{}\",\"symbols\":[{}]}}",
                    rng.below(8),
                    names[rng.below(names.len())],
                    symbols.join(",")
                ));
            }
        }
    }
    lines
}

/// The snapshot-cost fleet: 25 HOA targets, then 1,000 monitor
/// sessions spread over them, each created by one step.
fn fleet(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed);
    let mut lines: Vec<String> = (0..FLEET_TARGETS)
        .map(|t| define(&mut rng, &format!("t{t:02}")))
        .collect();
    for j in 0..FLEET_SESSIONS {
        lines.push(format!(
            "{{\"verb\":\"monitor-step\",\"monitor\":\"m{j:04}\",\"target\":\"t{:02}\",\"symbols\":[\"{}\"]}}",
            j % FLEET_TARGETS,
            if rng.flip() { "a" } else { "b" }
        ));
    }
    lines
}

/// The `monitor-journal`-shaped daemon: 200 deterministic, all-accepting
/// (so safety, compiled into fleets) HOA targets of 16–64 states, then
/// 1,000 monitor sessions spread over them, each created by one step.
fn registry(seed: u64) -> Vec<String> {
    let mut rng = SplitMix::new(seed);
    let mut lines: Vec<String> = (0..REGISTRY_AUTOMATA)
        .map(|t| {
            let config = sl_buchi::RandomConfig {
                states: 16 + rng.below(49),
                density_percent: 65,
                accepting_percent: 100,
            };
            define_random(&mut rng, &format!("r{t:03}"), config)
        })
        .collect();
    for j in 0..REGISTRY_SESSIONS {
        lines.push(format!(
            "{{\"verb\":\"monitor-step\",\"monitor\":\"s{j:04}\",\"target\":\"r{:03}\",\"symbols\":[\"{}\"]}}",
            j % REGISTRY_AUTOMATA,
            if rng.flip() { "a" } else { "b" }
        ));
    }
    lines
}

/// A persistent daemon in a fresh `dir` without automatic snapshots,
/// after serving `lines`.
fn populated(dir: &std::path::Path, lines: &[String]) -> Service {
    let svc = Service::with_persistence(
        config(),
        &PersistConfig {
            dir: dir.to_path_buf(),
            snapshot_every: 0,
        },
    )
    .expect("snapshot-cost daemon");
    for line in lines {
        svc.handle_line(line);
    }
    svc
}

/// Whether the newest snapshot in `dir` holds `automata` distinct texts,
/// each once: as many `HOA: v1` headers and `automata` table entries.
fn each_text_once(dir: &std::path::Path, label: &str, automata: usize) -> bool {
    let payload = newest_snapshot(dir);
    let table: Vec<String> = sl_service::json::parse(&payload)
        .ok()
        .and_then(|doc| {
            doc.get("automata")?
                .as_arr()?
                .iter()
                .map(|t| t.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let texts = payload.matches("HOA: v1").count();
    println!(
        "  {label} snapshot: {} bytes, {texts} automaton texts",
        payload.len()
    );
    let distinct: std::collections::HashSet<&String> = table.iter().collect();
    texts == automata && table.len() == automata && distinct.len() == automata
}

/// The payload of the newest snapshot in `dir`.
fn newest_snapshot(dir: &std::path::Path) -> String {
    let newest = std::fs::read_dir(dir)
        .expect("fleet dir")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let epoch: u64 = name
                .strip_prefix("snap-")?
                .strip_suffix(".slsnap")?
                .parse()
                .ok()?;
            Some((epoch, name))
        })
        .max()
        .expect("a snapshot was written");
    let bytes = std::fs::read(dir.join(newest.1)).expect("read snapshot");
    String::from_utf8(bytes[24..].to_vec()).expect("UTF-8 payload")
}

/// Queries the recovered daemon must answer exactly like the twin.
fn probe() -> Vec<String> {
    let mut p: Vec<String> = ["p0", "p1", "p2"]
        .iter()
        .map(|n| format!("{{\"verb\":\"classify\",\"target\":\"{n}\"}}"))
        .collect();
    for m in 0..8 {
        p.push(format!(
            "{{\"verb\":\"monitor-step\",\"monitor\":\"m{m}\",\"target\":\"p0\",\"symbols\":[\"a\",\"b\"]}}"
        ));
    }
    p
}

/// Journal records the last recovery replayed, per the daemon's own
/// `stats` report.
fn replayed_records(svc: &mut Service) -> u64 {
    let stats = svc.handle_line(r#"{"verb":"stats"}"#).line;
    sl_service::json::parse(&stats)
        .ok()
        .and_then(|doc| {
            doc.get("result")?
                .get("persist")?
                .get("replayed_records")
                .and_then(Json::as_u64)
        })
        .expect("persistent stats carry replayed_records")
}

fn main() -> ExitCode {
    header(
        "E14",
        "Crash recovery: journal replay vs snapshot-assisted recovery",
    );
    let lines = session(2003);
    let probe = probe();
    let mut board = Scoreboard::new();

    // The uninterrupted twin's probe answers are the contract.
    let twin = Service::new(config());
    for line in &lines {
        twin.handle_line(line);
    }
    let want: Vec<String> = probe.iter().map(|l| twin.handle_line(l).line).collect();

    // Populate one directory per snapshot interval, then crash cold.
    let intervals: [(u64, &str); 3] = [(0, "journal_only"), (64, "snap64"), (512, "snap512")];
    let mut dirs = Vec::new();
    for &(every, tag) in &intervals {
        let dir = scratch(tag);
        let pc = PersistConfig {
            dir: dir.clone(),
            snapshot_every: every,
        };
        let svc = Service::with_persistence(config(), &pc).expect("populate");
        for line in &lines {
            svc.handle_line(line);
        }
        drop(svc); // crash: journal (+ snapshots), no drain
        dirs.push((every, tag, dir));
    }

    // Correctness before clocks: every recovered daemon answers the
    // probe byte-identically, and snapshots actually bound the replay.
    let mut replayed = Vec::new();
    for (every, tag, dir) in &dirs {
        let pc = PersistConfig {
            dir: dir.clone(),
            snapshot_every: *every,
        };
        let mut svc = Service::with_persistence(config(), &pc).expect("recover");
        let n = replayed_records(&mut svc);
        let got: Vec<String> = probe.iter().map(|l| svc.handle_line(l).line).collect();
        board.claim(
            &format!("{tag}: recovered daemon answers the probe like the twin"),
            got == want,
        );
        println!("  {tag:<12}: replayed {n} journal records");
        replayed.push(n);
    }
    board.claim(
        "snap64 replays fewer records than journal_only",
        replayed[1] < replayed[0],
    );
    board.claim(
        "snap512 replays fewer records than journal_only",
        replayed[2] < replayed[0],
    );
    board.claim(
        "journal_only replays every journaled request",
        replayed[0] > 900,
    );

    // Measured passes: a full recovery per call. Recovery does not
    // mutate a clean directory, so repeated recoveries are identical
    // work — exactly what the medians should capture.
    let mut bench = Bench::from_env();
    let mut medians = Vec::new();
    for (every, tag, dir) in &dirs {
        let pc = PersistConfig {
            dir: dir.clone(),
            snapshot_every: *every,
        };
        let med = bench.measure(&format!("persist/recover/{tag}"), || {
            black_box(Service::with_persistence(config(), &pc).expect("recover"));
        });
        medians.push(med);
    }

    // Snapshot cost at fleet scale: every `drain()` syncs the journal
    // and writes a full snapshot (temp file, fsync, rename, directory
    // fsync, journal rotation), exactly as the daemon's cadence does.
    let fleet_dir = scratch("fleet");
    let fleet_svc = populated(&fleet_dir, &fleet(2003));
    let snapshot_med = bench.measure("persist/snapshot/sessions1000", || {
        black_box(fleet_svc.drain().expect("drain"));
    });
    board.claim(
        "the newest fleet snapshot holds each distinct automaton text exactly once",
        each_text_once(&fleet_dir, "fleet", FLEET_TARGETS),
    );

    // The same at `monitor-journal` scale. One drain before the clock
    // starts, so every measured drain finds the state it snapshots
    // unchanged since the previous one.
    let registry_dir = scratch("registry");
    let registry_svc = populated(&registry_dir, &registry(2003));
    registry_svc.drain().expect("first drain");
    let registry_med = bench.measure("persist/snapshot/registry200", || {
        black_box(registry_svc.drain().expect("drain"));
    });
    board.claim(
        "the newest registry200 snapshot holds each distinct automaton text exactly once",
        each_text_once(&registry_dir, "registry200", REGISTRY_AUTOMATA),
    );

    println!("\nrecovery (median):");
    for ((_, tag, _), med) in dirs.iter().zip(&medians) {
        println!("  {tag:<12}: {:>9.3} ms", med.as_secs_f64() * 1e3);
    }
    let rps = replayed[0] as f64 / medians[0].as_secs_f64().max(1e-12);
    println!("journal replay rate: {rps:.0} records/sec");
    println!(
        "fleet snapshot (median): {:.3} ms",
        snapshot_med.as_secs_f64() * 1e3
    );
    println!(
        "registry200 snapshot (median): {:.3} ms",
        registry_med.as_secs_f64() * 1e3
    );
    board.claim(
        "snapshot-assisted recovery (snap64) is no slower than full replay",
        medians[1] <= medians[0],
    );

    for (_, _, dir) in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let _ = std::fs::remove_dir_all(&registry_dir);
    bench.finish("persist");
    board.finish()
}
