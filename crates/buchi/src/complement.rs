//! Complementation of Büchi automata.
//!
//! Two constructions:
//!
//! * [`complement_safety`] — for *all-accepting* automata (the shape the
//!   closure operator produces), whose language is "some infinite run
//!   exists". The complement is the co-safety language "all runs die",
//!   obtained by the monitors' subset construction with an accepting
//!   dead-state sink.
//!   This is cheap (at most `2^n` subsets) and is all the decomposition
//!   theorem needs for the liveness part `B ∪ ¬cl(B)`.
//! * [`complement`] — full Kupferman–Vardi rank-based complementation
//!   for arbitrary NBA, behind the rank-based inclusion oracle
//!   ([`crate::incl::included_rank`]). States are (level ranking,
//!   obligation set) pairs explored lazily; the construction is
//!   exponential, so a state cap — and, with `Some(budget)`, the
//!   caller's budget — guards against blow-ups.

use crate::automaton::{Buchi, BuchiBuilder, StateId};
use crate::monitor::{Monitor, DEAD};
use sl_support::{fault, Budget, FaultPlan, SlError};
use std::collections::HashMap;

/// Complements an all-accepting ("closure-shaped") automaton via the
/// subset construction.
///
/// # Panics
///
/// Panics if some state of `b` is non-accepting; apply
/// [`crate::closure::closure`] first, or use [`complement`].
#[must_use]
pub fn complement_safety(b: &Buchi) -> Buchi {
    assert!(
        (0..b.num_states()).all(|q| b.is_accepting(q)),
        "complement_safety requires an all-accepting automaton"
    );
    let table = Monitor::subset_construction(b).table;
    let sigma = b.alphabet().clone();
    let mut builder = BuchiBuilder::new(sigma.clone());
    // The accepting sink that swallows words once all runs have died;
    // subset state `s` becomes state `s + 1`.
    let dead = builder.add_state(true);
    for _ in &table {
        builder.add_state(false);
    }
    for sym in sigma.symbols() {
        builder.add_transition(dead, sym, dead);
        for (s, row) in table.iter().enumerate() {
            let to = row[sym.index()];
            builder.add_transition(s + 1, sym, if to == DEAD { dead } else { to + 1 });
        }
    }
    builder.build(1)
}

/// A ranking-construction state: ranks per original state (`-1` =
/// absent) plus the obligation set as a bitmask.
type RankState = (Vec<i8>, u64);

/// Default state cap for [`complement`].
pub const DEFAULT_COMPLEMENT_BUDGET: usize = 1 << 17;

/// The budget phase and fault-injection site of [`complement`].
const PHASE: &str = "buchi.complement";

/// Complements an arbitrary Büchi automaton (Kupferman–Vardi rank-based
/// construction).
///
/// With `budget: None` the construction is capped at
/// [`DEFAULT_COMPLEMENT_BUDGET`] states and consults no fault site.
/// With `Some(budget)` every created state also charges the budget's
/// meter (phase `"buchi.complement"`), so a step limit, wall-clock
/// deadline, or cancellation flag aborts the construction mid-flight,
/// and consults the process-wide fault plan ([`fault::global`], site
/// `"buchi.complement"`) — the drill point for error-propagation fault
/// injection. The state cap applies in both cases.
///
/// # Errors
///
/// * [`SlError::BudgetExceeded`] (phase `"buchi.complement"`) when the
///   state cap or the budget runs out, [`SlError::Cancelled`] from the
///   budget;
/// * [`SlError::FaultInjected`] when the fault plan fires;
/// * [`SlError::InvalidInput`] if the automaton has more than 64 states
///   (the obligation set is a `u64` bitmask).
pub fn complement(b: &Buchi, budget: Option<&Budget>) -> Result<Buchi, SlError> {
    if b.num_states() > 64 {
        return Err(SlError::InvalidInput(format!(
            "rank-based complement limited to 64 states, got {}",
            b.num_states()
        )));
    }
    let (mut meter, plan) = match budget {
        Some(budget) => (budget.meter(PHASE), *fault::global()),
        None => (Budget::unlimited().meter(PHASE), FaultPlan::disabled()),
    };
    complement_rank_core(b, &mut |created| {
        meter.charge(1)?;
        plan.inject_error(PHASE, created as u64)
    })
}

/// The Kupferman–Vardi construction behind [`complement`], for at most
/// 64 states. `on_state(k)` runs before the `k`-th state is admitted;
/// any error it returns aborts the construction (that is how budgets
/// and fault drills hook in).
fn complement_rank_core(
    b: &Buchi,
    on_state: &mut dyn FnMut(usize) -> Result<(), SlError>,
) -> Result<Buchi, SlError> {
    let n = b.num_states();
    // Fast path: all-accepting automata complement by subset construction.
    if (0..n).all(|q| b.is_accepting(q)) {
        return Ok(complement_safety(b));
    }
    // Kupferman–Vardi: ranks of rejecting run DAGs are bounded by
    // 2(n - |F|), not just 2n — a substantial saving since the rank
    // alphabet enters the state space exponentially.
    let accepting_count = (0..n).filter(|&q| b.is_accepting(q)).count();
    let max_rank = (2 * (n - accepting_count)) as i8;
    let sigma = b.alphabet().clone();
    let mut builder = BuchiBuilder::new(sigma.clone());
    let mut ids: HashMap<RankState, StateId> = HashMap::new();

    let mut initial_rank = vec![-1i8; n];
    // Accepting states must carry even ranks; max_rank = 2n is even, so
    // the initial rank is legal regardless of the initial state's flag.
    initial_rank[b.initial()] = max_rank;
    let start: RankState = (initial_rank, 0);
    on_state(0)?;
    let start_id = builder.add_state(true); // O = ∅ is accepting
    ids.insert(start.clone(), start_id);
    let mut work = vec![start];

    while let Some((ranks, obligations)) = work.pop() {
        let from = ids[&(ranks.clone(), obligations)];
        let domain: Vec<usize> = (0..n).filter(|&q| ranks[q] >= 0).collect();
        for sym in sigma.symbols() {
            // Upper bound for each successor's rank: min over predecessors.
            let mut bound = vec![i8::MIN; n];
            let mut present = vec![false; n];
            for &q in &domain {
                for &succ in b.successors(q, sym) {
                    if !present[succ] {
                        present[succ] = true;
                        bound[succ] = ranks[q];
                    } else {
                        bound[succ] = bound[succ].min(ranks[q]);
                    }
                }
            }
            let successors: Vec<usize> = (0..n).filter(|&q| present[q]).collect();
            // Enumerate all rankings f' with f'(q') <= bound[q'] and
            // accepting states even-ranked.
            let mut assignments: Vec<Vec<i8>> = vec![vec![-1i8; n]];
            for &q in &successors {
                let mut extended = Vec::new();
                for partial in &assignments {
                    for r in 0..=bound[q] {
                        if b.is_accepting(q) && r % 2 == 1 {
                            continue;
                        }
                        let mut next = partial.clone();
                        next[q] = r;
                        extended.push(next);
                    }
                }
                assignments = extended;
                if assignments.is_empty() {
                    break;
                }
            }
            for ranks_next in assignments {
                // Obligation set: trace even-ranked states; reset when
                // empty.
                let source: Vec<usize> = if obligations != 0 {
                    (0..n).filter(|&q| obligations & (1 << q) != 0).collect()
                } else {
                    domain.clone()
                };
                let mut next_obl: u64 = 0;
                for &q in &source {
                    for &succ in b.successors(q, sym) {
                        if ranks_next[succ] >= 0 && ranks_next[succ] % 2 == 0 {
                            next_obl |= 1 << succ;
                        }
                    }
                }
                let key: RankState = (ranks_next, next_obl);
                let to = match ids.get(&key) {
                    Some(&id) => id,
                    None => {
                        if ids.len() >= DEFAULT_COMPLEMENT_BUDGET {
                            return Err(SlError::BudgetExceeded {
                                phase: PHASE,
                                spent: DEFAULT_COMPLEMENT_BUDGET as u64,
                            });
                        }
                        on_state(ids.len())?;
                        let id = builder.add_state(next_obl == 0);
                        ids.insert(key.clone(), id);
                        work.push(key);
                        id
                    }
                };
                builder.add_transition(from, sym, to);
            }
        }
    }
    Ok(builder.build(start_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::closure::closure;
    use sl_omega::{all_lassos, Alphabet};

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn inf_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        builder.build(q0)
    }

    fn first_a_safety(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        let q1 = builder.add_state(true);
        builder.add_transition(q0, a, q1);
        builder.add_transition(q1, a, q1);
        builder.add_transition(q1, b, q1);
        builder.build(q0)
    }

    #[test]
    fn safety_complement_of_first_a() {
        let s = sigma();
        let m = first_a_safety(&s);
        let c = complement_safety(&m);
        for w in all_lassos(&s, 2, 3) {
            assert_eq!(c.accepts(&w), !m.accepts(&w), "{w}");
        }
    }

    #[test]
    fn safety_complement_of_universal_is_empty() {
        let s = sigma();
        let c = complement_safety(&Buchi::universal(s.clone()));
        for w in all_lassos(&s, 2, 3) {
            assert!(!c.accepts(&w));
        }
        assert!(crate::empty::is_empty(&c));
    }

    #[test]
    fn rank_complement_of_inf_a_is_fin_a() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let m = inf_a(&s);
        let c = complement(&m, None).unwrap();
        for w in all_lassos(&s, 3, 3) {
            assert_eq!(c.accepts(&w), w.finitely_often(a), "{w}");
        }
    }

    #[test]
    fn rank_complement_roundtrip_on_samples() {
        let s = sigma();
        let m = inf_a(&s);
        let cc = complement(&complement(&m, None).unwrap(), None);
        // The double complement can be large; fall back to sampling only
        // if it fits the budget.
        if let Ok(cc) = cc {
            for w in all_lassos(&s, 2, 2) {
                assert_eq!(cc.accepts(&w), m.accepts(&w), "{w}");
            }
        }
    }

    #[test]
    fn rank_complement_of_empty_is_universal() {
        let s = sigma();
        let c = complement(&Buchi::empty_language(s.clone()), None).unwrap();
        for w in all_lassos(&s, 2, 2) {
            assert!(c.accepts(&w), "{w}");
        }
    }

    #[test]
    fn rank_complement_agrees_with_safety_complement() {
        let s = sigma();
        let m = closure(&inf_a(&s)); // universal, all-accepting
        let c1 = complement_safety(&m);
        let c2 = complement(&m, None).unwrap();
        for w in all_lassos(&s, 2, 3) {
            assert_eq!(c1.accepts(&w), c2.accepts(&w), "{w}");
        }
    }

    #[test]
    fn complement_partitions_language_on_random_like_machine() {
        // A slightly gnarlier machine: accepts words where 'a' occurs at
        // some position followed immediately by 'b' infinitely often
        // (GF (a & X b)).
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(false); // just saw a
        let qf = builder.add_state(true); // saw a then b
        builder.add_transition(q0, a, qa);
        builder.add_transition(q0, b, q0);
        builder.add_transition(qa, a, qa);
        builder.add_transition(qa, b, qf);
        builder.add_transition(qf, a, qa);
        builder.add_transition(qf, b, q0);
        let m = builder.build(q0);
        let c = complement(&m, None).unwrap();
        for w in all_lassos(&s, 2, 4) {
            assert_ne!(m.accepts(&w), c.accepts(&w), "{w}");
        }
    }

    #[test]
    #[should_panic(expected = "requires an all-accepting automaton")]
    fn safety_complement_rejects_general_automata() {
        let s = sigma();
        let _ = complement_safety(&inf_a(&s));
    }

    #[test]
    fn budgeted_complement_matches_unbudgeted() {
        let s = sigma();
        let m = inf_a(&s);
        // `None` consults no fault site, so it succeeds even under a
        // process-wide fault drill (SL_FAULT_RATE > 0).
        let reference = complement(&m, None).unwrap();
        match complement(&m, Some(&Budget::unlimited())) {
            Ok(c) => {
                for w in all_lassos(&s, 3, 3) {
                    assert_eq!(c.accepts(&w), reference.accepts(&w), "{w}");
                }
            }
            // Under a fault drill the injection site may fire;
            // degrading with a typed error is the contract, not a
            // failure.
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }

    #[test]
    fn budgeted_complement_stops_on_step_limit() {
        let s = sigma();
        let m = inf_a(&s);
        for steps in [1, 2] {
            let err = complement(&m, Some(&Budget::unlimited().with_steps(steps))).unwrap_err();
            assert!(
                err.root().is_budget_exceeded() || err.root().is_fault_injected(),
                "{err}"
            );
            if err.root().is_budget_exceeded() {
                // Fails on the charge after the limit.
                let spent = steps + 1;
                assert_eq!(
                    err,
                    SlError::BudgetExceeded {
                        phase: "buchi.complement",
                        spent
                    }
                );
            }
        }
    }

    #[test]
    fn oversized_automata_are_invalid_input_with_or_without_a_budget() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let states: Vec<_> = (0..65).map(|i| builder.add_state(i == 0)).collect();
        for pair in states.windows(2) {
            builder.add_transition(pair[0], a, pair[1]);
        }
        let big = builder.build(states[0]);
        for budget in [None, Some(&Budget::unlimited())] {
            let err = complement(&big, budget).unwrap_err();
            assert!(matches!(err, SlError::InvalidInput(_)), "{err}");
        }
    }
}
