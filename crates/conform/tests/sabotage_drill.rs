//! The acceptance drills for the conformance fuzzer itself:
//! deliberately break an engine (the test-only flags in
//! `sl_buchi::antichain::sabotage` and `sl_pdr::engine::sabotage`) and
//! prove the matching oracle catches the bug and shrinks it to a tiny
//! reproducer.
//!
//! This lives in its own integration-test binary so the process-global
//! sabotage flags cannot leak into any other test. The two inclusion
//! drills fuzz the same oracle, so they take turns on [`INCL_DRILL`];
//! the PDR drill toggles a disjoint flag and fuzzes a disjoint oracle,
//! so it runs concurrently with them.

use sl_buchi::antichain::sabotage;
use sl_conform::run::{fuzz, FuzzOptions};
use sl_conform::{check, Outcome};
use std::sync::{Mutex, PoisonError};

/// Held by each drill on the `incl` oracle for its whole run.
static INCL_DRILL: Mutex<()> = Mutex::new(());

/// Fuzzes the `incl` oracle for 64 cases with `set(true)` in force and
/// demands a finding that shrinks to at most 8 automaton states (summed
/// over both operands), fails under the sabotage and passes without it.
fn incl_drill_is_caught_and_shrunk_small(what: &str, set: fn(bool)) {
    let _turn = INCL_DRILL.lock().unwrap_or_else(PoisonError::into_inner);
    set(true);
    let report = fuzz(&FuzzOptions {
        seed: 2003,
        cases: 64,
        oracles: vec!["incl"],
        only_case: None,
        max_seconds: None,
    });
    set(false);

    let findings = report.findings();
    assert!(
        !findings.is_empty(),
        "the incl oracle must catch {what} within 64 cases"
    );
    let smallest = findings.iter().map(|f| f.shrunk.weight()).min().unwrap();
    assert!(
        smallest <= 8,
        "{what}: smallest shrunk reproducer has weight {smallest}, want <= 8"
    );
    for finding in &findings {
        assert!(
            finding
                .repro
                .starts_with("slfuzz --seed 2003 --oracle incl --case "),
            "repro command malformed: {}",
            finding.repro
        );
        // The shrunk case must still fail under sabotage and pass with
        // the engine healthy — i.e. it reproduces the injected bug, not
        // some shrinking artifact.
        set(true);
        let broken = check(&finding.shrunk);
        set(false);
        assert!(
            matches!(broken, Outcome::Fail(_)),
            "{what}: shrunk case no longer reproduces under sabotage: {}",
            finding.shrunk.to_line()
        );
        let healthy = check(&finding.shrunk);
        assert!(
            matches!(healthy, Outcome::Pass | Outcome::Accepted(_)),
            "{what}: shrunk case fails even with the engine healthy: {healthy:?}"
        );
    }
}

#[test]
fn broken_subsumption_is_caught_and_shrunk_small() {
    incl_drill_is_caught_and_shrunk_small(
        "a broken subsumption check",
        sabotage::set_break_subsumption,
    );
}

#[test]
fn accepting_product_sink_is_caught_and_shrunk_small() {
    incl_drill_is_caught_and_shrunk_small(
        "an accepting product sink",
        sabotage::set_product_sink_accepting,
    );
}

#[test]
fn broken_relative_induction_is_caught_and_shrunk_small() {
    use sl_pdr::engine::sabotage as pdr_sabotage;
    pdr_sabotage::set_break_relative_induction(true);
    let report = fuzz(&FuzzOptions {
        seed: 2003,
        cases: 64,
        oracles: vec!["pdr"],
        only_case: None,
        max_seconds: None,
    });
    pdr_sabotage::set_break_relative_induction(false);

    let findings = report.findings();
    assert!(
        !findings.is_empty(),
        "the pdr oracle must catch a broken relative-induction check within 64 cases"
    );
    // Acceptance bound: the shrunk reproducer has at most 10 units of
    // weight (states + edges + bad states).
    let smallest = findings.iter().map(|f| f.shrunk.weight()).min().unwrap();
    assert!(
        smallest <= 10,
        "smallest shrunk reproducer has weight {smallest}, want <= 10"
    );
    for finding in &findings {
        assert!(
            finding
                .repro
                .starts_with("slfuzz --seed 2003 --oracle pdr --case "),
            "repro command malformed: {}",
            finding.repro
        );
        // The shrunk case must still fail under sabotage and pass with
        // the engine healthy.
        pdr_sabotage::set_break_relative_induction(true);
        let broken = check(&finding.shrunk);
        pdr_sabotage::set_break_relative_induction(false);
        assert!(
            matches!(broken, Outcome::Fail(_)),
            "shrunk case no longer reproduces under sabotage: {}",
            finding.shrunk.to_line()
        );
        let healthy = check(&finding.shrunk);
        assert!(
            matches!(healthy, Outcome::Pass | Outcome::Accepted(_)),
            "shrunk case fails even with the engine healthy: {healthy:?}"
        );
    }
}
