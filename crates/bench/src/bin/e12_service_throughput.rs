//! E12 (perf) — service throughput: the `sld` query engine under a
//! scripted load, cold vs warm result cache.
//!
//! The serving layer (`sl-service`) fronts the deciders with a
//! memoizing cache keyed by `(verb, structural hash)`: the first
//! `include` over a pair of automata pays for the antichain search, a
//! repeat of the same query is a table lookup. This experiment drives
//! the engine exactly the way `sld --stdin` does — JSON request lines
//! through [`Service::handle_line`] — over a seeded corpus ingested via
//! HOA (`define` → `from_hoa`), and measures:
//!
//! * `svc/define/hoa` — corpus ingest into a fresh daemon;
//! * `svc/include/cold` — the query script with the cache reset every
//!   iteration (every query recomputed);
//! * `svc/include/warm` — the same script against a primed cache
//!   (every query a hit);
//! * `svc/batch/fanout` — the script as one `batch` request through
//!   the panic-isolated parallel sweep, cache cold;
//! * `svc/check/cold` and `svc/check/warm` — eight `check` requests on
//!   256-state models shaped like the benchmark's `solve-cold` traffic,
//!   with the caches reset every iteration, then against a primed
//!   check cache (every request a hit: decode, probe, reply);
//! * `svc/json/string64k` and `svc/json/string256k` — parsing one
//!   request line that holds a single 64 KiB or 256 KiB string.
//!   `scripts/verify.sh` gates their ratio: a linear scan reads about
//!   4x, a scan that revisits the rest of the line about 16x.
//!
//! Correctness gates come first: every scripted response must be `ok`,
//! and the warm responses must be byte-identical to the cold ones — the
//! cache is invisible except in the clock. `BENCH_svc.json` then
//! records the medians; `scripts/verify.sh` checks the cache-hit
//! speedup stays above 1.

use sl_bench::{header, Scoreboard};
use sl_buchi::{hoa::to_hoa, random_buchi, random_nondeterministic, RandomConfig};
use sl_omega::Alphabet;
use sl_service::{serve_tcp, Service, ServiceConfig};
use sl_support::bench::{black_box, Bench};
use sl_support::{FaultPlan, SplitMix};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;

/// A fresh, quiet daemon: faults off (this is a clock, not a drill),
/// everything else at the defaults the real binary uses.
fn fresh_service() -> Service {
    Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        ..ServiceConfig::default()
    })
}

/// The define script: a seeded corpus shaped like E11's — small
/// candidates on the left of `⊆`, larger specifications on the right —
/// shipped to the daemon as HOA text, so ingest exercises `from_hoa`.
fn define_script(sigma: &Alphabet) -> Vec<String> {
    let left_cfg = RandomConfig {
        states: 4,
        density_percent: 55,
        accepting_percent: 40,
    };
    let right_cfg = RandomConfig {
        states: 8,
        density_percent: 55,
        accepting_percent: 10,
    };
    let mut lines = Vec::new();
    for seed in 0..6u64 {
        let m = random_buchi(sigma, seed, left_cfg);
        lines.push(define_line(&format!("cand{seed}"), &to_hoa(&m, "cand")));
    }
    for seed in 0..4u64 {
        let m = random_buchi(sigma, 271 + seed, right_cfg);
        lines.push(define_line(&format!("spec{seed}"), &to_hoa(&m, "spec")));
    }
    lines
}

fn define_line(name: &str, hoa: &str) -> String {
    let escaped: String = hoa
        .chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            '\n' => "\\n".to_string(),
            c => c.to_string(),
        })
        .collect();
    format!(r#"{{"verb":"define","name":"{name}","hoa":"{escaped}"}}"#)
}

/// The query script: 24 inclusion pairs over the corpus plus a
/// universality probe per specification — the daemon's hot path.
fn query_script() -> Vec<String> {
    let mut lines = Vec::new();
    for k in 0..24usize {
        let (i, j) = (k % 6, (k * 3 + 1) % 4);
        lines.push(format!(
            r#"{{"id":{k},"verb":"include","left":"cand{i}","right":"spec{j}"}}"#
        ));
    }
    for j in 0..4usize {
        lines.push(format!(
            r#"{{"id":"u{j}","verb":"universal","target":"spec{j}"}}"#
        ));
    }
    lines
}

/// A total `n`-state model and its bad set, shaped like the `check`
/// models of the benchmark's `solve-cold` workload: a forward-only
/// stem, a random core every stem state leads into, and a detached
/// tail the core rarely reaches; one or two successors per state and
/// one to three bad states in one of the three regions (bad core
/// states loop on themselves).
fn check_model(seed: u64, n: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut rng = SplitMix::new(seed);
    let stem = n / 8;
    let core_end = n - n / 4;
    let core = core_end - stem;
    let mut succ: Vec<Vec<usize>> = (0..n)
        .map(|s| {
            let mut row: Vec<usize> = (0..1 + rng.below(2))
                .map(|_| {
                    if s + 1 < stem && rng.flip() {
                        s + 1 + rng.below(stem - s - 1)
                    } else if s >= core_end && rng.chance(80) {
                        core_end + rng.below(n - core_end)
                    } else {
                        stem + rng.below(core)
                    }
                })
                .collect();
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect();
    let region = rng.below(3);
    let mut bad: Vec<usize> = (0..1 + rng.below(3))
        .map(|_| match region {
            0 => core_end + rng.below(n - core_end),
            1 => 1 + rng.below(stem - 1),
            _ => stem + rng.below(core),
        })
        .collect();
    bad.sort_unstable();
    bad.dedup();
    if region == 2 {
        for &b in &bad {
            if let Err(at) = succ[b].binary_search(&b) {
                succ[b].insert(at, b);
            }
        }
    }
    (succ, bad)
}

/// Eight 256-state `check` requests, alternating safety and liveness.
fn check_script() -> Vec<String> {
    (0..8u64)
        .map(|i| {
            let (succ, bad) = check_model(0xc4ec_0000 + i, 256);
            let rows: Vec<String> = succ
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(usize::to_string).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            let bad: Vec<String> = bad.iter().map(usize::to_string).collect();
            let mode = if i % 2 == 0 { "safety" } else { "liveness" };
            format!(
                r#"{{"id":"k{i}","verb":"check","mode":"{mode}","model":{{"succ":[{}],"initial":0}},"bad":[{}]}}"#,
                rows.join(","),
                bad.join(",")
            )
        })
        .collect()
}

/// A request line holding one string of `bytes` bytes: mostly ASCII,
/// with a two-byte character and an escape in every 64 bytes.
fn string_line(bytes: usize) -> String {
    let chunk = format!("{}\u{e9}\\n", "x".repeat(60));
    let body = chunk.repeat(bytes / chunk.len());
    format!(r#"{{"id":"s","verb":"define","name":"s","hoa":"{body}"}}"#)
}

/// Heavy corpus for the multi-client saturation series: six
/// nondeterministic 12-state automata (density 120%, 20% accepting)
/// whose seeds were picked for expensive classification — each cold
/// `classify` pays closure plus two antichain searches, about 1.4 to
/// 6 ms on a 2-vCPU host — the shared compute that concurrent clients
/// must deduplicate through the cache and singleflight. (Deterministic
/// targets would take the product check, which makes a cold
/// `classify` too cheap to share.)
fn heavy_define_script() -> Vec<String> {
    let sigma = Alphabet::ab();
    [6u64, 151, 244, 346, 182, 570]
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let m = random_nondeterministic(&sigma, seed, 12, 120, 20);
            define_line(&format!("hvy{i}"), &to_hoa(&m, "hvy"))
        })
        .collect()
}

/// The per-client multi-client workload: a cold pass of heavy
/// classifications, a light mixed stretch of inclusions over the
/// shared corpus, then a warm repeat of the classifications — mixed
/// cached/uncached, the shape a fleet of monitoring clients produces.
fn mc_script() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..6usize {
        lines.push(format!(
            r#"{{"id":"c{i}","verb":"classify","target":"hvy{i}"}}"#
        ));
    }
    for k in 0..4usize {
        lines.push(format!(
            r#"{{"id":"i{k}","verb":"include","left":"cand{k}","right":"spec{}"}}"#,
            (k * 3 + 1) % 4
        ));
    }
    for i in 0..6usize {
        lines.push(format!(
            r#"{{"id":"w{i}","verb":"classify","target":"hvy{i}"}}"#
        ));
    }
    lines
}

/// The same queries folded into a single `batch` request, for the
/// parallel fan-out measurement.
fn batch_line() -> String {
    let items: Vec<String> = query_script().iter().map(|line| line.clone()).collect();
    format!(
        r#"{{"id":"fan","verb":"batch","requests":[{}]}}"#,
        items.join(",")
    )
}

fn run_script(svc: &mut Service, lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| svc.handle_line(line).line)
        .collect()
}

/// One multi-client saturation round: `clients` concurrent TCP
/// connections each play the mixed script (heavy cold
/// classifications whose computes the shared cache + singleflight
/// dedup across clients, light inclusions, then warm repeats) and
/// quit. The caches are reset first, so every round pays the same
/// cold compute no matter how many clients share it — which is
/// exactly the effect the scaling series measures.
fn mc_round(svc: &Service, addr: SocketAddr, clients: usize, queries: &[String]) {
    svc.reset_cache();
    // The complement cache survives a query-cache reset; clear it too
    // so every round's cold pass pays the same full compute.
    sl_buchi::reset_shared_complement_cache();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let _ = stream.set_nodelay(true);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut reply = String::new();
                for line in queries {
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    reply.clear();
                    reader.read_line(&mut reply).unwrap();
                    black_box(reply.len());
                }
                stream
                    .write_all(b"{\"id\":\"bye\",\"verb\":\"quit\"}\n")
                    .unwrap();
                reply.clear();
                let _ = reader.read_line(&mut reply);
            });
        }
    });
}

fn main() -> ExitCode {
    header(
        "E12",
        "Service throughput: scripted queries through the sld engine, cold vs warm cache",
    );
    let sigma = Alphabet::ab();
    let defines = define_script(&sigma);
    let queries = query_script();
    let batch = batch_line();
    let mut board = Scoreboard::new();

    // Correctness first: ingest the corpus, run the script cold, run it
    // again warm, and demand (a) every response ok, (b) the cache is
    // semantically invisible — warm answers byte-identical to cold.
    let mut svc = fresh_service();
    let define_replies = run_script(&mut svc, &defines);
    let cold_replies = run_script(&mut svc, &queries);
    let before = svc.cache_stats();
    let warm_replies = run_script(&mut svc, &queries);
    let after = svc.cache_stats();
    let all_ok = define_replies
        .iter()
        .chain(&cold_replies)
        .chain(&warm_replies)
        .all(|r| r.contains("\"ok\":true"));
    let warm_hits = after.hits - before.hits;
    let warm_misses = after.misses - before.misses;
    println!(
        "corpus: {} automata, {} scripted queries; warm pass: {warm_hits} hits / {warm_misses} misses",
        defines.len(),
        queries.len()
    );
    board.claim("every scripted response is ok", all_ok);
    board.claim(
        "cache is transparent: warm responses byte-identical to cold",
        warm_replies == cold_replies,
    );
    board.claim(
        "warm pass is 100% cache hits",
        warm_hits == queries.len() as u64 && warm_misses == 0,
    );
    let batch_reply = svc.handle_line(&batch).line;
    board.claim(
        "batch fan-out answers every item ok",
        batch_reply.contains("\"ok\":true") && !batch_reply.contains("\"error\""),
    );

    let mut bench = Bench::from_env();
    let define_med = bench.measure("svc/define/hoa", || {
        let svc = fresh_service();
        for line in &defines {
            black_box(svc.handle_line(line).quit);
        }
    });
    let cold = bench.measure("svc/include/cold", || {
        svc.reset_cache();
        for line in &queries {
            black_box(svc.handle_line(line).quit);
        }
    });
    // Prime once, then measure the pure-hit path.
    svc.reset_cache();
    run_script(&mut svc, &queries);
    let warm = bench.measure("svc/include/warm", || {
        for line in &queries {
            black_box(svc.handle_line(line).quit);
        }
    });
    let fanout = bench.measure("svc/batch/fanout", || {
        svc.reset_cache();
        black_box(svc.handle_line(&batch).quit);
    });

    // `check`: decode, probe, compute on a miss, reply. The cold pass
    // computes every model; the warm pass answers each from the check
    // cache and must reply byte for byte the same.
    let checks = check_script();
    svc.reset_cache();
    let check_cold_replies = run_script(&mut svc, &checks);
    let check_warm_replies = run_script(&mut svc, &checks);
    board.claim(
        "every check response is ok",
        check_cold_replies.iter().all(|r| r.contains("\"ok\":true")),
    );
    board.claim(
        "check cache is transparent: warm responses byte-identical to cold",
        check_warm_replies == check_cold_replies,
    );
    let check_cold = bench.measure("svc/check/cold", || {
        svc.reset_cache();
        for line in &checks {
            black_box(svc.handle_line(line).quit);
        }
    });
    svc.reset_cache();
    run_script(&mut svc, &checks);
    let check_warm = bench.measure("svc/check/warm", || {
        for line in &checks {
            black_box(svc.handle_line(line).quit);
        }
    });

    // The parser on one long string, at two sizes four times apart.
    let string64k = string_line(64 << 10);
    let string256k = string_line(256 << 10);
    let parses = |line: &str| sl_service::json::parse(line).is_ok();
    board.claim(
        "long string lines parse",
        parses(&string64k) && parses(&string256k),
    );
    let s64 = bench.measure("svc/json/string64k", || {
        black_box(parses(black_box(&string64k)));
    });
    let s256 = bench.measure("svc/json/string256k", || {
        black_box(parses(black_box(&string256k)));
    });

    // Multi-client saturation over real TCP: one shared daemon, 1→8
    // concurrent connections playing identical mixed cold/warm
    // workloads. On a single core the scaling comes from the shared
    // sharded cache plus singleflight — n clients asking the same cold
    // question pay for ~one compute — so aggregate throughput must
    // grow with the client count. verify.sh gates ≥3x at 8 clients.
    let mc_svc = fresh_service();
    let mc_queries = mc_script();
    for line in defines.iter().chain(&heavy_define_script()) {
        let reply = mc_svc.handle_line(line);
        assert!(
            reply.line.contains("\"ok\":true"),
            "mc ingest failed: {}",
            reply.line
        );
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let mut mc_medians: Vec<(usize, std::time::Duration)> = Vec::new();
    std::thread::scope(|scope| {
        let supervisor = scope.spawn(|| serve_tcp(&mc_svc, &listener));
        for &n in &[1usize, 2, 4, 8] {
            let med = bench.measure(&format!("svc/mc/clients{n}"), || {
                mc_round(&mc_svc, addr, n, &mc_queries);
            });
            mc_medians.push((n, med));
        }
        let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
        stream
            .write_all(b"{\"id\":\"drain\",\"verb\":\"shutdown\"}\n")
            .unwrap();
        let mut reply = String::new();
        let _ = BufReader::new(&stream).read_line(&mut reply);
        supervisor
            .join()
            .expect("supervisor thread")
            .expect("serve_tcp");
    });

    let rps = |n: usize, d: std::time::Duration| n as f64 / d.as_secs_f64().max(1e-12);
    let speedup = cold.as_nanos() as f64 / warm.as_nanos().max(1) as f64;
    println!("\nthroughput (median):");
    println!(
        "  define/hoa   : {:>10.0} requests/sec",
        rps(defines.len(), define_med)
    );
    println!(
        "  include/cold : {:>10.0} requests/sec",
        rps(queries.len(), cold)
    );
    println!(
        "  include/warm : {:>10.0} requests/sec",
        rps(queries.len(), warm)
    );
    println!(
        "  batch/fanout : {:>10.0} requests/sec",
        rps(queries.len(), fanout)
    );
    println!(
        "  check/cold   : {:>10.0} requests/sec",
        rps(checks.len(), check_cold)
    );
    println!(
        "  check/warm   : {:>10.0} requests/sec",
        rps(checks.len(), check_warm)
    );
    println!("cache-hit speedup, warm over cold: {speedup:.1}x");
    println!(
        "one-string parse: 64 KiB {:.1} us, 256 KiB {:.1} us ({:.1}x for 4x the bytes)",
        s64.as_nanos() as f64 / 1e3,
        s256.as_nanos() as f64 / 1e3,
        s256.as_nanos() as f64 / s64.as_nanos().max(1) as f64
    );
    board.claim("cache hits beat recomputation (>1x median)", speedup > 1.0);

    // The scaling series: aggregate requests/sec for n clients is
    // n × (requests per client) / round time.
    let round_requests = mc_queries.len() + 1; // the script + quit
    println!("\nmulti-client saturation (TCP, shared daemon):");
    for &(n, med) in &mc_medians {
        println!(
            "  mc/clients{n} : {:>10.0} aggregate requests/sec",
            rps(n * round_requests, med)
        );
    }
    let t1 = mc_medians.first().map(|&(_, d)| d).unwrap_or_default();
    let t8 = mc_medians.last().map(|&(_, d)| d).unwrap_or_default();
    let scaling = (8.0 * t1.as_nanos() as f64) / (t8.as_nanos() as f64).max(1.0);
    println!("aggregate scaling, 8 clients over 1: {scaling:.1}x");
    board.claim(
        "8 concurrent clients deliver >=3x the aggregate throughput of 1",
        scaling >= 3.0,
    );
    bench.finish("svc");
    board.finish()
}
