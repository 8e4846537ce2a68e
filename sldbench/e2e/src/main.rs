//! `sldbench-e2e`: one end-to-end benchmark run against `sld`.
//!
//! ```text
//! sldbench-e2e --workload NAME --seed N --seconds S --sld PATH
//!              [--work DIR] [--record FILE]
//! ```
//!
//! It generates the workload's inputs from the seed, then sets up
//! [`SETUPS`] fresh daemons in turn (spawn, listening banner, corpus defined over
//! the protocol, warm-up) and keeps the last one for a closed-loop timed
//! phase of `S` seconds. Afterwards it checks every answer, prints
//! diagnostics, and ends with one JSON line holding the end-to-end
//! metrics and the per-layer counts read from `stats`. `--record` also
//! writes the requests the daemon received, with each timed request's
//! client latency, for the traced replay.

use sldbench::check::Checker;
use sldbench::daemon::{host_cpu, peak_rss_mb, process_cpu_s, Conn, Daemon};
use sldbench::gen::{self, Plan, Request, Workload};
use sldbench::json::{self, Value};
use sldbench::stats::layer_metrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed requests written to a `--record` file at most.
const RECORD_CAP: usize = 12_000;
/// Failure messages printed at most.
const SHOWN_FAILURES: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    sld: PathBuf,
    work: PathBuf,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut sld = None;
    let mut work = PathBuf::from(".bench_build/sldbench");
    let mut record = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--sld" => sld = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            "--record" => record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        sld: sld.ok_or("--sld is required")?,
        work,
        record,
    })
}

/// One timed request: when it was sent (ns after the phase started),
/// its client-observed latency, and the response line.
struct Sample {
    sent_ns: u64,
    latency_ns: u64,
    response: String,
}

/// Closed loop on one connection: send, wait for the whole response
/// line, repeat until the deadline. A stream that runs out first (only
/// possible on a daemon several times faster than today's) ends this
/// connection's timed phase early; throughput stays requests over wall
/// time.
fn drive(
    conn: &mut Conn,
    stream: &[Request],
    start: Instant,
    deadline: Duration,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::with_capacity(stream.len().min(1 << 20));
    for request in stream {
        let sent = Instant::now();
        let response = conn.call(&request.line)?;
        let done = Instant::now();
        samples.push(Sample {
            sent_ns: (sent - start).as_nanos() as u64,
            latency_ns: (done - sent).as_nanos() as u64,
            response,
        });
        if done - start >= deadline {
            return Ok(samples);
        }
    }
    println!(
        "warning: the pre-generated stream ({} requests) ran out before the deadline",
        stream.len()
    );
    Ok(samples)
}

fn stats(conn: &mut Conn) -> Result<Value, String> {
    let line = conn.call("{\"id\":0,\"verb\":\"stats\"}")?;
    json::parse(line.trim_end())?
        .get("result")
        .cloned()
        .ok_or_else(|| "stats returned no result".to_string())
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest of a few percentiles that has at least ten samples
/// beyond it, with that count.
fn supported_percentile(sorted: &[u64]) -> Option<(f64, u64, usize)> {
    let n = sorted.len();
    [99.99, 99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find_map(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (n >= rank + 10 && rank > 0).then(|| (p, percentile(sorted, p), n - rank))
        })
}

/// An error report carrying what the daemon wrote to stderr (the daemon
/// is killed to collect it).
fn with_daemon_log(daemon: Daemon, what: &str, error: &str) -> String {
    format!(
        "{what}: {error}; sld stderr: {}",
        daemon.kill_for_log().trim()
    )
}

fn metric_json(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sldbench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args = parse_args()?;
    let plan = gen::plan(args.workload, args.seed, args.seconds);
    let workload = plan.workload;
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    println!(
        "workload {} seed {} connections {} seconds {} setups {SETUPS}",
        workload.name(),
        args.seed,
        workload.connections(),
        args.seconds,
    );

    // Set up SETUPS daemons in turn; keep the last for the timed phase.
    let mut checker = Checker::new(&plan.automata);
    let mut failures: Vec<String> = Vec::new();
    let mut setup_failed = 0usize;
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for round in 0..SETUPS {
        let dir = workload.persistent().then(|| {
            args.work
                .join(format!("persist-{}-{round}", std::process::id()))
        });
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let started = Instant::now();
        let daemon = Daemon::spawn(&args.sld, dir.as_deref())?;
        let mut control = daemon.connect()?;
        let mut responses = Vec::with_capacity(plan.setup.len() + plan.warmup.len());
        for request in plan.setup.iter().chain(&plan.warmup) {
            match control.call(&request.line) {
                Ok(response) => responses.push(response),
                Err(e) => {
                    let what = format!("set-up request {}", request.id);
                    return Err(with_daemon_log(daemon, &what, &e));
                }
            }
        }
        setup_times.push(started.elapsed().as_secs_f64());
        for (request, response) in plan.setup.iter().chain(&plan.warmup).zip(&responses) {
            if let Err(e) = checker.check(request, response) {
                setup_failed += 1;
                failures.push(format!("setup: {e}"));
            }
        }
        if round + 1 == SETUPS {
            kept = Some((daemon, control));
        }
    }
    let (daemon, mut control) = kept.expect("at least one setup round");
    let pid = daemon.pid();

    // The timed phase.
    let mut conns: Vec<Conn> = (0..workload.connections())
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let before = match stats(&mut control) {
        Ok(v) => v,
        Err(e) => return Err(with_daemon_log(daemon, "stats before the timed phase", &e)),
    };
    let host_before = host_cpu();
    let cpu_before = process_cpu_s(pid);
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let runs: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&plan.streams)
            .map(|(conn, stream)| scope.spawn(move || drive(conn, stream, start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let host_after = host_cpu();
    let cpu_after = process_cpu_s(pid);
    let runs: Vec<Vec<Sample>> = match runs.into_iter().collect::<Result<_, _>>() {
        Ok(runs) => runs,
        Err(e) => {
            drop(conns);
            return Err(with_daemon_log(daemon, "timed phase", &e));
        }
    };
    let after = match stats(&mut control) {
        Ok(v) => v,
        Err(e) => return Err(with_daemon_log(daemon, "stats after the timed phase", &e)),
    };
    let rss_mb = peak_rss_mb(pid).ok_or("cannot read the daemon's VmHWM")?;
    drop(conns);
    let daemon_log = daemon.shutdown(&mut control)?;

    // Check every answer.
    let attempted: usize = runs.iter().map(Vec::len).sum();
    let mut failed = 0usize;
    let mut by_verb: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut latencies = Vec::with_capacity(attempted);
    let mut wall_ns = 0u64;
    for (samples, stream) in runs.iter().zip(&plan.streams) {
        for (sample, request) in samples.iter().zip(stream) {
            if let Err(e) = checker.check(request, &sample.response) {
                failed += 1;
                failures.push(e);
            }
            latencies.push(sample.latency_ns);
            by_verb
                .entry(request.expect.verb())
                .or_default()
                .push(sample.latency_ns);
            wall_ns = wall_ns.max(sample.sent_ns + sample.latency_ns);
        }
    }
    latencies.sort_unstable();
    let wall_s = wall_ns as f64 / 1e9;
    let throughput = attempted as f64 / wall_s;
    let p50 = ms(percentile(&latencies, 50.0));
    let p99 = ms(percentile(&latencies, 99.0));
    let setup_s = median(&mut setup_times.clone());

    // Diagnostics, beside the metrics.
    println!(
        "setup_s rounds: {}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "latency samples {attempted} over {wall_s:.3} s: p50 {p50:.4} ms, p99 {p99:.4} ms, p99.9 {:.4} ms, max {:.4} ms",
        ms(percentile(&latencies, 99.9)),
        ms(*latencies.last().expect("at least one sample"))
    );
    if let Some((p, value, beyond)) = supported_percentile(&latencies) {
        println!(
            "highest supported percentile: p{p} = {:.4} ms ({beyond} samples beyond it)",
            ms(value)
        );
    }
    for (verb, values) in &mut by_verb {
        values.sort_unstable();
        println!(
            "  {verb:<13} n {:>7}  p50 {:.4} ms  p99 {:.4} ms  total {:.3} s",
            values.len(),
            ms(percentile(values, 50.0)),
            ms(percentile(values, 99.0)),
            values.iter().sum::<u64>() as f64 / 1e9
        );
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (host_before, host_after) {
        let total = t1.saturating_sub(t0).max(1);
        println!(
            "host steal share {:.4}",
            s1.saturating_sub(s0) as f64 / total as f64
        );
    }
    if let (Some(c0), Some(c1)) = (cpu_before, cpu_after) {
        println!(
            "daemon cpu {:.2} s ({:.2} cores)",
            c1 - c0,
            (c1 - c0) / wall_s
        );
    }
    let layers = layer_metrics(&before, &after, attempted, workload.persistent());
    let layer = |name: &str| layers.iter().find(|m| m.name == name).and_then(|m| m.value);
    let shown = |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |v| format!("{v:.4}"));
    println!(
        "properties: query-cache hit ratio {}, repeated questions {:.4}, clean-SCC share {}",
        shown(layer("cache.hit_ratio")),
        plan.repeated_share(&runs.iter().map(Vec::len).collect::<Vec<_>>()),
        shown(layer("interned.clean_scc_share")),
    );
    for m in &layers {
        println!("layer {} = {} {}", m.name, shown(m.value), m.unit);
    }
    if setup_failed > 0 {
        println!("setup failures: {setup_failed}");
    }
    for f in failures.iter().take(SHOWN_FAILURES) {
        println!("FAILED {f}");
    }
    if !daemon_log.trim().is_empty() {
        println!("sld stderr: {}", daemon_log.trim().replace('\n', " | "));
    }

    if let Some(path) = &args.record {
        write_record(path, &plan, &runs, throughput)?;
    }

    let mut metrics = String::from("{");
    metric_json(&mut metrics, "throughput_rps", throughput, "1/s");
    metric_json(&mut metrics, "latency_p50_ms", p50, "ms");
    metric_json(&mut metrics, "latency_p99_ms", p99, "ms");
    metric_json(&mut metrics, "setup_s", setup_s, "s");
    metric_json(&mut metrics, "rss_mb", rss_mb, "MB");
    metrics.push('}');
    let mut layer_json = String::from("{");
    let mut missing = Vec::new();
    for m in &layers {
        match m.value {
            Some(v) => metric_json(&mut layer_json, m.name, v, m.unit),
            None => missing.push(format!("\"{}\"", m.name)),
        }
    }
    layer_json.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics},\"layers\":{layer_json},\"missing\":[{}]}}",
        failed == 0 && setup_failed == 0,
        missing.join(",")
    );
    Ok(())
}

/// Writes what the daemon received, in order: `H` header, `S` setup and
/// warm-up lines, then up to [`RECORD_CAP`] timed lines as `T
/// <latency_ns> <line>`, connections merged by send time.
fn write_record(
    path: &PathBuf,
    plan: &Plan,
    runs: &[Vec<Sample>],
    throughput: f64,
) -> Result<(), String> {
    let mut timed: Vec<(u64, u64, &str)> = runs
        .iter()
        .zip(&plan.streams)
        .flat_map(|(samples, stream)| {
            samples
                .iter()
                .zip(stream)
                .map(|(s, r)| (s.sent_ns, s.latency_ns, r.line.as_str()))
        })
        .collect();
    timed.sort_by_key(|t| t.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "H {{\"workload\":\"{}\",\"connections\":{},\"persist\":{},\"throughput_rps\":{throughput}}}",
        plan.workload.name(),
        plan.workload.connections(),
        plan.workload.persistent()
    );
    for r in plan.setup.iter().chain(&plan.warmup) {
        let _ = writeln!(out, "S {}", r.line);
    }
    for (_, latency, line) in timed.iter().take(RECORD_CAP) {
        let _ = writeln!(out, "T {latency} {line}");
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}
