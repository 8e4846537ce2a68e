//! End-to-end degradation drills for the fault-tolerant execution
//! layer: each test forces one failure mode through a public entry
//! point and checks that the workspace degrades (typed error, sticky
//! `Unknown`, isolated sweep item) instead of panicking or aborting.
//!
//! The tests stay green under an environment fault drill
//! (`SL_FAULT_RATE` > 0): sites consulted by the global plan are
//! accounted for explicitly rather than assumed quiet.

use sl_buchi::{complement, Monitor, Verdict};
use sl_ltl::{parse, translate};
use sl_omega::{Alphabet, Symbol, Word};
use sl_support::{fault, par, Budget, FaultPlan, SlError};
use std::time::Duration;

/// Path 1 — untrusted input: a symbol outside the policy's alphabet
/// must settle the monitor on [`Verdict::Unknown`], never panic, and
/// the verdict must be sticky until reset.
#[test]
fn out_of_alphabet_symbol_degrades_to_unknown() {
    let sigma = Alphabet::ab();
    let policy = translate(&sigma, &parse(&sigma, "G a").unwrap());
    let mut monitor = Monitor::new(&policy);

    let a = sigma.symbol("a").unwrap();
    assert_eq!(monitor.step(a), Verdict::Ok);
    // Alphabet::ab() has two symbols; 999 is far out of range.
    assert_eq!(monitor.step(Symbol(999)), Verdict::Unknown);
    // Sticky: even a perfectly fine symbol cannot restore a verdict
    // once the trace contained an uninterpretable event.
    assert_eq!(monitor.step(a), Verdict::Unknown);

    // run() reports where the trace became uninterpretable.
    monitor.reset();
    let trace = Word::parse(&sigma, "a a b");
    let (verdict, consumed) = monitor.run(&trace, None).unwrap();
    // "G a" closes to "always a": the b at position 3 is in-alphabet,
    // so this is a genuine Violation, not Unknown.
    assert_eq!((verdict, consumed), (Verdict::Violation, 3));
}

/// Path 2 — a wall-clock deadline that expires mid-complementation
/// must surface as [`SlError::BudgetExceeded`] with nonzero `spent`
/// (the algorithm made progress before the deadline hit), not as a
/// panic or a silent wrong answer.
#[test]
fn expired_deadline_mid_complementation_is_budget_exceeded() {
    let sigma = Alphabet::ab();
    let b = translate(&sigma, &parse(&sigma, "G F a").unwrap());

    let budget = Budget::unlimited().with_deadline_in(Duration::ZERO);
    let err = complement(&b, Some(&budget))
        .expect_err("an already-expired deadline must abort the complementation");
    assert!(
        err.is_budget_exceeded(),
        "expected BudgetExceeded, got: {err}"
    );
    match err.root() {
        SlError::BudgetExceeded { phase, spent } => {
            assert_eq!(*phase, "buchi.complement");
            assert!(*spent > 0, "the meter charged before the deadline check");
        }
        other => panic!("expected BudgetExceeded root, got: {other:?}"),
    }

    // A sane budget on the same input succeeds: the failure above was
    // the deadline, not the input.
    let ok = complement(&b, Some(&Budget::unlimited()));
    match ok {
        Ok(_) => {}
        Err(err) if err.root().is_fault_injected() => {} // env fault drill
        Err(err) => panic!("unlimited budget must succeed, got: {err}"),
    }
}

/// Path 3 — a [`FaultPlan`]-poisoned sweep item panics inside the
/// parallel sweep; the report isolates exactly that item (plus any
/// items the *environment* drill poisons at the `par.worker` site) and
/// every surviving sibling's result is byte-identical to a fault-free
/// sequential run.
#[test]
fn poisoned_sweep_item_is_isolated_without_poisoning_siblings() {
    // A deterministic local plan, independent of the environment: find
    // the first index it poisons so the test targets exactly one item.
    let plan = FaultPlan::new(2003, 0.05);
    let poisoned = (0u64..1000)
        .find(|&i| plan.should_fault("test.sweep", i))
        .expect("rate 0.05 must fire within 1000 draws");

    let items: Vec<u64> = (0..=poisoned.max(31)).collect();
    let report = par::par_map_isolated_with(4, &items, |&i| {
        if i == poisoned {
            plan.inject_panic("test.sweep", i);
        }
        i * i + 1
    });

    // The failure set is exactly: our poisoned item, plus whatever the
    // environment drill (if any) injects at the sweep's own site.
    let env = fault::global();
    let expected: Vec<usize> = items
        .iter()
        .map(|&i| i as usize)
        .filter(|&i| i as u64 == poisoned || env.should_fault("par.worker", i as u64))
        .collect();
    assert_eq!(report.failure_indices(), expected);
    assert_eq!(report.len(), items.len());
    assert_eq!(report.panicked_count(), expected.len());
    assert_eq!(report.failed_count(), 0);
    assert!(report.degraded());

    // No environment drill (the normal tier-1 run): exactly one item
    // failed, and it is the one the local plan targeted.
    if !env.is_enabled() {
        assert_eq!(report.failure_indices(), vec![poisoned as usize]);
        assert_eq!(report.ok_count(), items.len() - 1);
    }

    // Every surviving sibling is byte-identical to the fault-free
    // sequential computation.
    for (index, &value) in report.oks() {
        assert_eq!(value, items[index] * items[index] + 1);
    }
}
