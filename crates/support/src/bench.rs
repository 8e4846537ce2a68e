//! A wall-clock micro-benchmark harness.
//!
//! Replaces the `criterion` dependency for the workspace's benches:
//! each measurement warms the closure up, auto-calibrates a batch size
//! so one sample is long enough for the clock to resolve, collects a
//! configurable number of samples, and reports min / median / p95
//! per-call times on one line.
//!
//! Configuration:
//!
//! * `SL_BENCH_SAMPLES` — timed samples per benchmark (default 30);
//! * `SL_BENCH_WARMUP_MS` — warmup duration per benchmark (default 80);
//! * `SL_BENCH_JSON_DIR` — directory for the machine-readable
//!   `BENCH_<suite>.json` reports (default: current directory).
//!
//! Every measurement is also recorded as a [`BenchRecord`];
//! [`Bench::write_json`] dumps the suite's records as
//! `BENCH_<suite>.json` so the performance trajectory accumulates
//! across PRs in a diffable, machine-readable form.
//!
//! Benches stay `harness = false` binaries; a `main` simply calls
//! [`Bench::measure`] per case:
//!
//! ```no_run
//! use sl_support::bench::{black_box, Bench};
//!
//! let mut bench = Bench::from_env();
//! bench.measure("sum/1000", || {
//!     black_box((0u64..1000).sum::<u64>());
//! });
//! ```

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target duration for one calibrated sample batch.
const TARGET_SAMPLE: Duration = Duration::from_millis(2);

/// One completed measurement, in nanoseconds, for machine-readable
/// reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// The benchmark's name (the `measure` label).
    pub name: String,
    /// Median per-call time in nanoseconds.
    pub median_ns: u128,
    /// 95th-percentile per-call time in nanoseconds.
    pub p95_ns: u128,
    /// Minimum per-call time in nanoseconds.
    pub min_ns: u128,
    /// Timed samples collected.
    pub samples: u32,
    /// Calls per sample batch.
    pub batch: u32,
}

/// The harness: holds the run configuration, prints one report line per
/// measurement, and records every measurement for JSON export.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Timed samples collected per benchmark.
    pub samples: u32,
    /// Warmup duration before sampling starts.
    pub warmup: Duration,
    records: Vec<BenchRecord>,
    /// Named figures that are not timings (shares, per-item
    /// percentiles), in recording order.
    notes: Vec<(String, f64)>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            samples: 30,
            warmup: Duration::from_millis(80),
            records: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl Bench {
    /// Reads `SL_BENCH_SAMPLES` / `SL_BENCH_WARMUP_MS`, with defaults.
    #[must_use]
    pub fn from_env() -> Self {
        let defaults = Bench::default();
        let samples = std::env::var("SL_BENCH_SAMPLES")
            .ok()
            .and_then(|raw| raw.trim().parse::<u32>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(defaults.samples);
        let warmup = std::env::var("SL_BENCH_WARMUP_MS")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .map_or(defaults.warmup, Duration::from_millis);
        Bench {
            samples,
            warmup,
            records: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Runs one benchmark and prints its report line. Returns the
    /// median per-call time for callers that post-process.
    pub fn measure(&mut self, name: &str, mut f: impl FnMut()) -> Duration {
        // Warmup, also measuring a rough per-call time for calibration.
        let warmup_start = Instant::now();
        let mut warmup_calls = 0u64;
        while warmup_start.elapsed() < self.warmup || warmup_calls == 0 {
            f();
            warmup_calls += 1;
        }
        let per_call_estimate = warmup_start.elapsed() / warmup_calls.max(1) as u32;
        // Batch enough calls that one sample hits the target duration.
        let batch = if per_call_estimate.is_zero() {
            1024
        } else {
            (TARGET_SAMPLE.as_nanos() / per_call_estimate.as_nanos().max(1)).clamp(1, 1 << 20)
                as u32
        };
        let mut per_call: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    f();
                }
                start.elapsed() / batch
            })
            .collect();
        per_call.sort_unstable();
        let min = per_call[0];
        let median = per_call[per_call.len() / 2];
        let p95 = per_call[(per_call.len() * 95 / 100).min(per_call.len() - 1)];
        println!(
            "bench  {name:<44} median {:>12}  p95 {:>12}  min {:>12}  ({} samples x {batch} calls)",
            format_duration(median),
            format_duration(p95),
            format_duration(min),
            self.samples,
        );
        self.records.push(BenchRecord {
            name: name.to_string(),
            median_ns: median.as_nanos(),
            p95_ns: p95.as_nanos(),
            min_ns: min.as_nanos(),
            samples: self.samples,
            batch,
        });
        median
    }

    /// The measurements recorded so far, in execution order.
    #[must_use]
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Records a named figure that is not a timing — a share, a count,
    /// a per-item percentile — prints it, and exports it under the JSON
    /// document's `notes`.
    pub fn note(&mut self, name: &str, value: f64) {
        println!("{name:<40} {value}");
        self.notes.push((name.to_string(), value));
    }

    /// Renders the recorded measurements as a JSON document (no
    /// external dependencies: the format is flat and hand-rolled).
    #[must_use]
    pub fn to_json(&self, suite: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape_json(suite)));
        out.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {}, \"p95_ns\": {}, \
                 \"min_ns\": {}, \"samples\": {}, \"batch\": {}}}{}\n",
                escape_json(&r.name),
                r.median_ns,
                r.p95_ns,
                r.min_ns,
                r.samples,
                r.batch,
                if i + 1 < self.records.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
        if !self.notes.is_empty() {
            out.push_str(",\n  \"notes\": [\n");
            for (i, (name, value)) in self.notes.iter().enumerate() {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                out.push_str(&format!(
                    "    {{\"name\": \"{}\", \"value\": {value}}}{}\n",
                    escape_json(name),
                    if i + 1 < self.notes.len() { "," } else { "" }
                ));
            }
            out.push_str("  ]");
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes `BENCH_<suite>.json` into `SL_BENCH_JSON_DIR` (default:
    /// the current directory) and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, suite: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var("SL_BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{suite}.json"));
        std::fs::write(&path, self.to_json(suite))?;
        Ok(path)
    }

    /// [`Bench::write_json`] plus a one-line confirmation on stdout —
    /// the standard last line of every bench binary.
    pub fn finish(&self, suite: &str) {
        match self.write_json(suite) {
            Ok(path) => println!("bench report written to {}", path.display()),
            Err(err) => eprintln!("bench report for {suite} not written: {err}"),
        }
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a duration with a unit fitting its magnitude.
#[must_use]
pub fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} us", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> Bench {
        Bench {
            samples: 5,
            warmup: Duration::from_millis(1),
            records: Vec::new(),
            notes: Vec::new(),
        }
    }

    #[test]
    fn measure_runs_and_reports() {
        let mut bench = tiny_bench();
        // Every element passes through `black_box`, so the optimizer can
        // neither fold the sum to a constant nor use the closed form
        // `n(n-1)/2`: a call costs 100 real additions, never under 1 ns.
        let median = bench.measure("test/busy", || {
            black_box((0..100u64).map(black_box).sum::<u64>());
        });
        assert!(median < Duration::from_secs(1));
        assert_eq!(bench.records().len(), 1);
        assert_eq!(bench.records()[0].name, "test/busy");
        assert!(bench.records()[0].median_ns > 0);
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut bench = tiny_bench();
        bench.measure("suite/one", || {
            black_box(1u64 + 1);
        });
        bench.measure("suite/\"two\"", || {
            black_box(2u64 + 2);
        });
        let json = bench.to_json("unit");
        assert!(json.contains("\"suite\": \"unit\""));
        assert!(json.contains("\"name\": \"suite/one\""));
        assert!(json.contains("suite/\\\"two\\\""), "{json}");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn notes_render_after_the_records() {
        let mut bench = tiny_bench();
        assert!(!bench.to_json("unit").contains("notes"));
        bench.note("suite/share", 0.5);
        bench.note("suite/count", 3.0);
        bench.note("suite/undefined", f64::NAN);
        let json = bench.to_json("unit");
        assert!(json.ends_with(
            "  \"notes\": [\n    {\"name\": \"suite/share\", \"value\": 0.5},\n    \
             {\"name\": \"suite/count\", \"value\": 3},\n    \
             {\"name\": \"suite/undefined\", \"value\": null}\n  ]\n}\n"
        ));
    }

    #[test]
    fn empty_suite_still_renders() {
        let bench = tiny_bench();
        let json = bench.to_json("empty");
        assert!(json.contains("\"records\": [\n  ]"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(12)), "12.00 us");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }
}
