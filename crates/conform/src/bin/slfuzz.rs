//! `slfuzz` — the conformance fuzzer CLI.
//!
//! ```text
//! slfuzz [--seed N] [--cases N] [--oracle NAME]... [--case N]
//!        [--corpus PATH] [--append-corpus PATH]
//!        [--stats PATH | --stats-dir DIR] [--stable]
//!        [--max-seconds N]
//!        [--sabotage antichain-subsumption|product-sink|pdr-relative-induction|
//!                    dirty-scc-invalidation]
//!        [--dump N] [--list]
//! ```
//!
//! Exit status: 0 when the corpus replays clean and no oracle finds a
//! violation; 1 otherwise; 2 on usage errors.

use sl_conform::run::{fuzz, FuzzOptions};
use sl_conform::{corpus, oracles, Case};
use sl_support::prop::case_rng;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    opts: FuzzOptions,
    corpus: Option<PathBuf>,
    append_corpus: Option<PathBuf>,
    stats: Option<PathBuf>,
    stable: bool,
    sabotage: Option<String>,
    dump: Option<u32>,
    skip_fuzz: bool,
}

fn usage() -> String {
    let oracles = oracles::ORACLES.join(", ");
    format!(
        "usage: slfuzz [options]\n\
         \n\
         --seed N          base seed (default 2003)\n\
         --cases N         cases per oracle (default 256)\n\
         --oracle NAME     run one oracle (repeatable; default all)\n\
         --case N          replay exactly one case index\n\
         --corpus PATH     replay a regression corpus before fuzzing\n\
         --corpus-only     replay the corpus and skip fuzzing\n\
         --append-corpus PATH  append shrunk findings to this corpus\n\
         --stats PATH      write the stats JSON artifact to PATH\n\
         --stats-dir DIR   write it to DIR/BENCH_conform.json\n\
         --stable          omit wall-clock fields from the artifact\n\
         --max-seconds N   wall-clock budget; past it the run truncates\n\
         --sabotage WHAT   enable an engine sabotage drill\n\
         \x20                (supported: antichain-subsumption,\n\
         \x20                 product-sink, pdr-relative-induction,\n\
         \x20                 dirty-scc-invalidation)\n\
         --dump N          print N generated cases per oracle and exit\n\
         --list            list oracles and exit\n\
         \n\
         oracles: {oracles}"
    )
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        opts: FuzzOptions::default(),
        corpus: None,
        append_corpus: None,
        stats: None,
        stable: false,
        sabotage: None,
        dump: None,
        skip_fuzz: false,
    };
    let mut picked_oracles: Vec<&'static str> = Vec::new();
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                cli.opts.seed = parse_u64(&value(&mut args, "--seed")?)?;
            }
            "--cases" => {
                cli.opts.cases = value(&mut args, "--cases")?
                    .parse()
                    .map_err(|_| "--cases needs an unsigned integer".to_string())?;
            }
            "--oracle" => {
                let name = value(&mut args, "--oracle")?;
                let known = oracles::ORACLES
                    .iter()
                    .find(|&&o| o == name)
                    .ok_or(format!("unknown oracle `{name}` (see --list)"))?;
                picked_oracles.push(known);
            }
            "--case" => {
                cli.opts.only_case = Some(
                    value(&mut args, "--case")?
                        .parse()
                        .map_err(|_| "--case needs an unsigned integer".to_string())?,
                );
            }
            "--corpus" => cli.corpus = Some(PathBuf::from(value(&mut args, "--corpus")?)),
            "--corpus-only" => cli.skip_fuzz = true,
            "--append-corpus" => {
                cli.append_corpus = Some(PathBuf::from(value(&mut args, "--append-corpus")?));
            }
            "--stats" => cli.stats = Some(PathBuf::from(value(&mut args, "--stats")?)),
            "--stats-dir" => {
                cli.stats = Some(
                    PathBuf::from(value(&mut args, "--stats-dir")?).join("BENCH_conform.json"),
                );
            }
            "--stable" => cli.stable = true,
            "--max-seconds" => {
                cli.opts.max_seconds = Some(
                    value(&mut args, "--max-seconds")?
                        .parse()
                        .map_err(|_| "--max-seconds needs an unsigned integer".to_string())?,
                );
            }
            "--sabotage" => {
                let what = value(&mut args, "--sabotage")?;
                let known = [
                    "antichain-subsumption",
                    "product-sink",
                    "pdr-relative-induction",
                    "dirty-scc-invalidation",
                ];
                if !known.contains(&what.as_str()) {
                    return Err(format!("unknown sabotage drill `{what}`"));
                }
                cli.sabotage = Some(what);
            }
            "--dump" => {
                cli.dump = Some(
                    value(&mut args, "--dump")?
                        .parse()
                        .map_err(|_| "--dump needs an unsigned integer".to_string())?,
                );
            }
            "--list" => {
                println!("{}", oracles::ORACLES.join("\n"));
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{}", usage())),
        }
    }
    if !picked_oracles.is_empty() {
        cli.opts.oracles = picked_oracles;
    }
    Ok(cli)
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    }
    .map_err(|_| format!("not an unsigned integer: `{raw}`"))
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("slfuzz: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(count) = cli.dump {
        for &oracle in &cli.opts.oracles {
            let stream = sl_conform::run::stream_name(oracle);
            for index in 0..count {
                let mut rng = case_rng(cli.opts.seed, &stream, index);
                let case = sl_conform::gen::gen_case(oracle, &mut rng);
                println!("{}", case.to_line());
            }
        }
        return ExitCode::SUCCESS;
    }
    match cli.sabotage.as_deref() {
        Some("antichain-subsumption") => {
            eprintln!("slfuzz: SABOTAGE DRILL ACTIVE: antichain subsumption deliberately broken");
            sl_buchi::antichain::sabotage::set_break_subsumption(true);
        }
        Some("product-sink") => {
            eprintln!(
                "slfuzz: SABOTAGE DRILL ACTIVE: the product check's sink deliberately accepting"
            );
            sl_buchi::antichain::sabotage::set_product_sink_accepting(true);
        }
        Some("pdr-relative-induction") => {
            eprintln!("slfuzz: SABOTAGE DRILL ACTIVE: PDR relative induction deliberately broken");
            sl_pdr::engine::sabotage::set_break_relative_induction(true);
        }
        Some("dirty-scc-invalidation") => {
            eprintln!(
                "slfuzz: SABOTAGE DRILL ACTIVE: incremental dirty-SCC invalidation deliberately broken"
            );
            sl_buchi::interned::sabotage::set_break_dirty_tracking(true);
        }
        _ => {}
    }
    let mut failed = false;

    // Corpus replay first: regressions stay fixed forever.
    if let Some(path) = &cli.corpus {
        match corpus::replay(path) {
            Ok(report) => {
                println!(
                    "corpus: {} replayed, {} accepted (budget), {} failures",
                    report.replayed,
                    report.accepted,
                    report.failures.len()
                );
                for failure in &report.failures {
                    eprintln!("slfuzz: {failure}");
                    failed = true;
                }
            }
            Err(message) => {
                eprintln!("slfuzz: {message}");
                return ExitCode::from(2);
            }
        }
    }

    if cli.skip_fuzz {
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let report = fuzz(&cli.opts);
    for o in &report.oracles {
        println!(
            "oracle {:<8} {} cases: {} passed, {} accepted (budget), {} failures{}",
            o.name,
            o.cases_run,
            o.passed,
            o.accepted,
            o.findings.len(),
            if cli.stable {
                String::new()
            } else {
                format!(" [{} ms]", o.elapsed_ms)
            }
        );
    }
    if report.truncated {
        println!("run truncated by --max-seconds");
    }
    let findings: Vec<&sl_conform::Finding> = report.findings();
    for finding in &findings {
        failed = true;
        eprintln!(
            "slfuzz: FAILURE oracle={} case={} seed={:#018x}\n  message: {}\n  shrunk ({} steps, weight {}): {}\n  repro: {}",
            finding.oracle,
            finding.case_index,
            finding.case_seed,
            finding.shrunk_message,
            finding.shrink_steps,
            finding.shrunk.weight(),
            finding.shrunk.to_line(),
            finding.repro,
        );
    }

    // Append shrunk findings to the regression corpus.
    if let Some(path) = &cli.append_corpus {
        if !findings.is_empty() {
            let cases: Vec<Case> = findings.iter().map(|f| f.shrunk.clone()).collect();
            match corpus::append(path, &cases) {
                Ok(added) => println!(
                    "corpus: appended {added} new reproducers to {}",
                    path.display()
                ),
                Err(message) => {
                    eprintln!("slfuzz: {message}");
                    failed = true;
                }
            }
        }
    }

    // Stats artifact.
    if let Some(path) = &cli.stats {
        let rendered = report.to_json(cli.stable).render();
        if let Err(e) = std::fs::write(path, rendered + "\n") {
            eprintln!("slfuzz: cannot write {}: {e}", path.display());
            failed = true;
        } else {
            println!("stats: wrote {}", path.display());
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
