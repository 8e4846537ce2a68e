//! Per-layer work counts from the daemon's own `stats` verb: the deltas
//! between a snapshot before and one after the timed phase. Fields are
//! read by name; an absent field makes its metric missing, never the
//! run fail.

use crate::json::Value;

/// One per-layer metric derived from `stats`.
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value, or `None` when a field it needs is absent.
    pub value: Option<f64>,
}

/// Counter delta of one `stats` field.
fn delta(before: &Value, after: &Value, path: &[&str]) -> Option<f64> {
    Some(after.at(path)?.as_f64()? - before.at(path)?.as_f64()?)
}

fn share(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    let (num, den) = (num?, den?);
    Some(if den > 0.0 { num / den } else { 0.0 })
}

/// The stats-derived metrics for a timed phase of `requests` requests.
/// A daemon without `--persist` reports no `persist` block; its journal
/// metrics are 0 (the layer did no work), not missing.
#[must_use]
pub fn layer_metrics(
    before: &Value,
    after: &Value,
    requests: usize,
    persistent: bool,
) -> Vec<LayerMetric> {
    let d = |path: &[&str]| delta(before, after, path);
    let per_kreq = |v: Option<f64>| v.map(|v| v * 1000.0 / requests.max(1) as f64);
    let hits = d(&["cache", "hits"]);
    let lookups = hits.zip(d(&["cache", "misses"])).map(|(h, m)| h + m);
    let check_hits = d(&["check", "cache", "hits"]);
    let computed_checks = d(&["check", "cache", "misses"]);
    let check_lookups = check_hits.zip(computed_checks).map(|(h, m)| h + m);
    let q_hits = d(&["engine", "quotient_cache", "hits"]);
    let q_lookups = q_hits
        .zip(d(&["engine", "quotient_cache", "misses"]))
        .map(|(h, m)| h + m);
    let clean = d(&["engine", "quotient_cache", "clean_sccs"]);
    let sccs = clean
        .zip(d(&["engine", "quotient_cache", "dirty_sccs"]))
        .map(|(c, dirty)| c + dirty);
    let searches = d(&["engine", "antichain", "searches"]);
    let obligations = d(&["check", "obligations"]);
    // The journal counters restart at each snapshot, so the average
    // record is the current epoch's bytes (less the 8-byte file magic)
    // over its records, read from whichever snapshot saw more records:
    // the request that straddles the deadline is most often the slow
    // one that wrote a snapshot, which leaves the closing epoch empty.
    let epoch = |v: &Value| {
        let bytes = v
            .at(&["persist", "journal_bytes"])
            .and_then(Value::as_f64)?;
        let records = v
            .at(&["persist", "records_since_snapshot"])
            .and_then(Value::as_f64)?;
        Some(((bytes - 8.0).max(0.0), records))
    };
    let (journal, records) = match (epoch(before), epoch(after)) {
        _ if !persistent => (Some(0.0), Some(0.0)),
        (Some(b), Some(a)) => {
            let (bytes, records) = if b.1 > a.1 { b } else { a };
            (Some(bytes), Some(records))
        }
        _ => (None, None),
    };
    let snapshots = if persistent {
        d(&["persist", "snapshots_taken"])
    } else {
        Some(0.0)
    };
    let metric = |name, unit, value| LayerMetric { name, unit, value };
    vec![
        metric("cache.hit_ratio", "ratio", share(hits, lookups)),
        metric(
            "cache.clears_per_kreq",
            "count",
            per_kreq(d(&["cache", "clears"])),
        ),
        metric(
            "check_cache.hit_ratio",
            "ratio",
            share(check_hits, check_lookups),
        ),
        metric("interned.hit_ratio", "ratio", share(q_hits, q_lookups)),
        metric("interned.clean_scc_share", "ratio", share(clean, sccs)),
        metric(
            "antichain.scans_per_search",
            "count",
            share(d(&["engine", "antichain", "subsumption_scans"]), searches),
        ),
        metric(
            "antichain.inserts_per_search",
            "count",
            share(d(&["engine", "antichain", "insert_attempts"]), searches),
        ),
        metric(
            "pdr.frames_per_check",
            "count",
            share(d(&["check", "frames"]), computed_checks),
        ),
        metric(
            "pdr.obligations_per_check",
            "count",
            share(obligations, computed_checks),
        ),
        metric(
            "pdr.generalization_ratio",
            "ratio",
            share(d(&["check", "generalizations"]), obligations),
        ),
        metric("persist.bytes_per_record", "bytes", share(journal, records)),
        metric("persist.snapshots_per_kreq", "count", per_kreq(snapshots)),
    ]
}
