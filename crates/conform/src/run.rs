//! The fuzz runner: drives cases through the oracle registry, shrinks
//! failures with [`sl_support::prop::minimize`], and renders the
//! `BENCH_conform.json`-style stats artifact.

use crate::case::Case;
use crate::gen;
use crate::oracles::{self, Outcome};
use crate::shrink::CaseStrategy;
use sl_service::Json;
use sl_support::prop::{case_rng, case_seed, minimize};
use std::time::Instant;

/// What to run. `seed` and `cases` mirror the `slfuzz` CLI flags.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Base seed; every (oracle, case index) derives its own stream.
    pub seed: u64,
    /// Cases per oracle.
    pub cases: u32,
    /// Which oracles to run (subset of [`oracles::ORACLES`]).
    pub oracles: Vec<&'static str>,
    /// Run exactly one case index (replay mode for repro commands).
    pub only_case: Option<u32>,
    /// Wall-clock budget in seconds; when exceeded, remaining cases
    /// are skipped and the run is marked truncated.
    pub max_seconds: Option<u64>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 2003,
            cases: 256,
            oracles: oracles::ORACLES.to_vec(),
            only_case: None,
            max_seconds: None,
        }
    }
}

/// A shrunk failing case plus everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The oracle that rejected the case.
    pub oracle: &'static str,
    /// The failing case index under the base seed.
    pub case_index: u32,
    /// The derived per-case seed.
    pub case_seed: u64,
    /// The original failure message.
    pub message: String,
    /// The minimized case.
    pub shrunk: Case,
    /// The minimized case's failure message.
    pub shrunk_message: String,
    /// Successful shrink steps taken.
    pub shrink_steps: usize,
    /// One-line reproduction command.
    pub repro: String,
}

/// Per-oracle counters.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Oracle name.
    pub name: &'static str,
    /// Cases actually run (may be short of the request if truncated).
    pub cases_run: u32,
    /// Cases that passed every law.
    pub passed: u32,
    /// Cases where a budget or fault degradation was accepted.
    pub accepted: u32,
    /// Shrunk failures.
    pub findings: Vec<Finding>,
    /// Total shrink steps across findings.
    pub shrink_steps: usize,
    /// Wall-clock milliseconds spent in this oracle.
    pub elapsed_ms: u128,
}

/// The whole run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The base seed.
    pub seed: u64,
    /// Requested cases per oracle.
    pub cases_requested: u32,
    /// Per-oracle reports, in registry order.
    pub oracles: Vec<OracleReport>,
    /// Whether the wall-clock budget cut the run short.
    pub truncated: bool,
}

impl RunReport {
    /// All findings across oracles.
    #[must_use]
    pub fn findings(&self) -> Vec<&Finding> {
        self.oracles.iter().flat_map(|o| &o.findings).collect()
    }

    /// Renders the stats artifact. With `stable`, wall-clock-derived
    /// fields (elapsed, cases/sec) are omitted so the output is
    /// byte-deterministic for a given seed — the determinism gate in
    /// verify.sh diffs exactly this form.
    #[must_use]
    pub fn to_json(&self, stable: bool) -> Json {
        let oracles = self
            .oracles
            .iter()
            .map(|o| {
                let mut pairs = vec![
                    ("name", Json::Str(o.name.into())),
                    ("cases", Json::Int(i64::from(o.cases_run))),
                    ("passed", Json::Int(i64::from(o.passed))),
                    ("accepted_budget", Json::Int(i64::from(o.accepted))),
                    ("failures", Json::Int(o.findings.len() as i64)),
                    ("shrink_steps", Json::Int(o.shrink_steps as i64)),
                ];
                if !stable {
                    pairs.push(("elapsed_ms", Json::Int(o.elapsed_ms as i64)));
                    let secs = (o.elapsed_ms as f64 / 1000.0).max(1e-9);
                    pairs.push((
                        "cases_per_sec",
                        Json::Int((f64::from(o.cases_run) / secs) as i64),
                    ));
                }
                Json::obj(pairs)
            })
            .collect();
        let findings = self
            .oracles
            .iter()
            .flat_map(|o| &o.findings)
            .map(|f| {
                Json::obj(vec![
                    ("oracle", Json::Str(f.oracle.into())),
                    ("case", Json::Int(i64::from(f.case_index))),
                    ("case_seed", Json::Str(format!("{:#018x}", f.case_seed))),
                    ("message", Json::Str(f.shrunk_message.clone())),
                    ("shrink_steps", Json::Int(f.shrink_steps as i64)),
                    ("weight", Json::Int(f.shrunk.weight() as i64)),
                    ("repro", Json::Str(f.repro.clone())),
                    ("shrunk", f.shrunk.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("suite", Json::Str("conform".into())),
            ("seed", Json::Int(self.seed as i64)),
            (
                "cases_per_oracle",
                Json::Int(i64::from(self.cases_requested)),
            ),
            ("truncated", Json::Bool(self.truncated)),
            ("oracles", Json::Arr(oracles)),
            ("findings", Json::Arr(findings)),
        ])
    }
}

/// The stream name a case index is drawn under — namespaced so each
/// oracle gets an independent stream from the same base seed.
#[must_use]
pub fn stream_name(oracle: &str) -> String {
    format!("conform.{oracle}")
}

/// Runs the fuzzer.
#[must_use]
pub fn fuzz(opts: &FuzzOptions) -> RunReport {
    let start = Instant::now();
    let mut truncated = false;
    let mut reports = Vec::new();
    for &oracle in &opts.oracles {
        let oracle_start = Instant::now();
        let stream = stream_name(oracle);
        let mut report = OracleReport {
            name: oracle,
            cases_run: 0,
            passed: 0,
            accepted: 0,
            findings: Vec::new(),
            shrink_steps: 0,
            elapsed_ms: 0,
        };
        let indices: Vec<u32> = match opts.only_case {
            Some(i) => vec![i],
            None => (0..opts.cases).collect(),
        };
        for index in indices {
            if let Some(limit) = opts.max_seconds {
                if start.elapsed().as_secs() >= limit {
                    truncated = true;
                    break;
                }
            }
            let mut rng = case_rng(opts.seed, &stream, index);
            let case = gen::gen_case(oracle, &mut rng);
            report.cases_run += 1;
            match oracles::check(&case) {
                Outcome::Pass => report.passed += 1,
                Outcome::Accepted(_) => report.accepted += 1,
                Outcome::Fail(message) => {
                    let strategy = CaseStrategy { oracle };
                    let property = |c: &Case| match oracles::check(c) {
                        Outcome::Fail(msg) => Err(msg),
                        _ => Ok(()),
                    };
                    let (shrunk, shrunk_message, steps) =
                        minimize(&strategy, &property, &case, &message);
                    report.shrink_steps += steps;
                    report.findings.push(Finding {
                        oracle,
                        case_index: index,
                        case_seed: case_seed(opts.seed, &stream, index),
                        message,
                        shrunk,
                        shrunk_message,
                        shrink_steps: steps,
                        repro: format!(
                            "slfuzz --seed {} --oracle {} --case {}",
                            opts.seed, oracle, index
                        ),
                    });
                }
            }
        }
        report.elapsed_ms = oracle_start.elapsed().as_millis();
        reports.push(report);
    }
    RunReport {
        seed: opts.seed,
        cases_requested: opts.cases,
        oracles: reports,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_has_no_findings() {
        let opts = FuzzOptions {
            seed: 2003,
            cases: 4,
            ..FuzzOptions::default()
        };
        let report = fuzz(&opts);
        assert!(report.findings().is_empty(), "{:?}", report.findings());
        assert!(!report.truncated);
        for o in &report.oracles {
            assert_eq!(o.cases_run, 4);
            assert_eq!(u32::from(o.passed) + u32::from(o.accepted), 4);
        }
    }

    #[test]
    fn stable_stats_are_byte_deterministic() {
        let opts = FuzzOptions {
            seed: 7,
            cases: 3,
            ..FuzzOptions::default()
        };
        let a = fuzz(&opts).to_json(true).render();
        let b = fuzz(&opts).to_json(true).render();
        assert_eq!(a, b);
        assert!(!a.contains("elapsed_ms"));
        assert!(fuzz(&opts).to_json(false).render().contains("elapsed_ms"));
    }

    #[test]
    fn only_case_replays_a_single_index() {
        let opts = FuzzOptions {
            seed: 11,
            cases: 100,
            oracles: vec!["hoa"],
            only_case: Some(42),
            max_seconds: None,
        };
        let report = fuzz(&opts);
        assert_eq!(report.oracles[0].cases_run, 1);
    }
}
