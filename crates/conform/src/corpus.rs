//! The regression corpus: a checked-in JSONL file of minimal
//! reproducers that CI replays forever.
//!
//! Format: one [`Case`] JSON object per line (see [`Case::to_line`]);
//! blank lines and `#` comments are skipped. New findings are appended
//! by `slfuzz --append-corpus`, already-shrunk.

use crate::case::Case;
use crate::oracles::{self, Outcome};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// One replayed corpus entry.
#[derive(Debug)]
pub struct CorpusResult {
    /// 1-based line number in the corpus file.
    pub line_number: usize,
    /// The replayed case's oracle.
    pub oracle: String,
    /// The oracle's verdict.
    pub outcome: Outcome,
}

/// Summary of a full corpus replay.
#[derive(Debug, Default)]
pub struct CorpusReport {
    /// Entries replayed.
    pub replayed: usize,
    /// Entries whose oracle reported `Fail` (plus malformed lines).
    pub failures: Vec<String>,
    /// Entries accepted under a budget/fault degradation.
    pub accepted: usize,
}

/// Loads the corpus file into cases, reporting malformed lines by
/// number. A missing file is an empty corpus, not an error — the
/// corpus starts empty and grows with findings.
///
/// # Errors
///
/// Returns the I/O error message if the file exists but cannot be
/// read.
pub fn load(path: &Path) -> Result<Vec<(usize, Result<Case, String>)>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty() && !line.trim_start().starts_with('#'))
        .map(|(i, line)| (i + 1, Case::from_line(line)))
        .collect())
}

/// Replays every corpus entry through its oracle.
///
/// # Errors
///
/// Propagates [`load`] errors.
pub fn replay(path: &Path) -> Result<CorpusReport, String> {
    let mut report = CorpusReport::default();
    for (line_number, parsed) in load(path)? {
        match parsed {
            Err(msg) => report.failures.push(format!(
                "{}:{line_number}: malformed corpus entry: {msg}",
                path.display()
            )),
            Ok(case) => {
                report.replayed += 1;
                match oracles::check(&case) {
                    Outcome::Pass => {}
                    Outcome::Accepted(_) => report.accepted += 1,
                    Outcome::Fail(msg) => report.failures.push(format!(
                        "{}:{line_number}: oracle {} rejects corpus entry: {msg}",
                        path.display(),
                        case.oracle()
                    )),
                }
            }
        }
    }
    Ok(report)
}

/// Appends cases to the corpus file (created if missing), skipping
/// entries already present byte-for-byte.
///
/// # Errors
///
/// Returns the I/O error message on failure.
pub fn append(path: &Path, cases: &[Case]) -> Result<usize, String> {
    let existing: std::collections::HashSet<String> = if path.exists() {
        fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            .lines()
            .map(str::to_string)
            .collect()
    } else {
        std::collections::HashSet::new()
    };
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut added = 0;
    for case in cases {
        let line = case.to_line();
        if existing.contains(&line) {
            continue;
        }
        writeln!(file, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        added += 1;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{Factor, LatticeCase};

    #[test]
    fn missing_corpus_is_empty() {
        let report = replay(Path::new("/nonexistent/conform_corpus.jsonl")).unwrap();
        assert_eq!(report.replayed, 0);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn append_dedupes_and_replay_accepts() {
        let dir = std::env::temp_dir().join(format!("sl-conform-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        let _ = fs::remove_file(&path);
        let case = Case::Lattice(LatticeCase {
            factors: vec![Factor::Boolean(2)],
            fix2: vec![1],
            extra1: vec![2],
        });
        assert_eq!(append(&path, &[case.clone()]).unwrap(), 1);
        assert_eq!(append(&path, &[case.clone()]).unwrap(), 0, "dedupe");
        let report = replay(&path).unwrap();
        assert_eq!(report.replayed, 1);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn malformed_lines_are_reported_not_fatal() {
        let dir = std::env::temp_dir().join(format!("sl-conform-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        fs::write(&path, "# comment\n\n{broken\n").unwrap();
        let report = replay(&path).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.failures.len(), 1);
        let _ = fs::remove_file(&path);
    }
}
