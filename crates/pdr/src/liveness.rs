//! The k-liveness / liveness-to-safety reduction.
//!
//! `FG !bad` over all paths holds iff there is a bound `k` such that
//! no path visits a bad state more than `k` times (k-liveness). Each
//! candidate `k` asks a safety question of the counter-augmented
//! product ([`sl_trees::counter_product`], whose counter saturates at
//! `cap = k + 1`): is a saturated state reachable? The sweep runs
//! `k = 0, 1, ..` upward and asks each question at about the cost of a
//! safety check on the model:
//!
//! * **k = 0 on the model.** A saturated state of the `cap = 1` product
//!   is reachable iff a bad state is, so k = 0 is the model's own
//!   [`check_safety`]. A Safe invariant `I` lifts to the product as
//!   `I × {0}`.
//! * **Only the reachable-first saturated states.** For k ≥ 1 the query
//!   names just `{(b, cap) : b ∈ bad}`, not the whole saturated layer.
//!   The counter starts at `bad(initial) ≤ 1 < cap` and grows by one
//!   only on entering a bad state, so the first saturated state on any
//!   path is one of these: the question is the same, with `|bad|`
//!   states to block instead of `n`.
//! * **Normalized invariants.** A Safe product invariant drops its
//!   saturated states. It stays inductive: a saturated successor of an
//!   unsaturated state is some `(b, cap)`, which the invariant excludes.
//!   So every Live certificate has the full product's layout
//!   (`n·(k + 2)` states) and holds no saturated state, the contract of
//!   [`sl_trees::CounterProduct::bad`]; [`validate_live_invariant`]
//!   replays it without building the product.
//! * **Lassos.** An Unsafe trace, projected onto the model, becomes a
//!   lasso when it revisits a state with a bad visit in between, or when
//!   its last (bad) state lies on a cycle, which a breadth-first search
//!   back to that state finds. Otherwise the bound rises.
//!
//! By the pigeonhole principle the sweep resolves by `k = |bad|` at the
//! latest: a trace with `|bad| + 1` bad visits revisits some bad state.

use crate::bmc::{validate_lasso, validate_live_invariant, LivenessVerdict};
use crate::engine::PdrStats;
use crate::kripke::{check_safety, SafetyRun, SafetyVerdict};
use sl_lattice::Bitset;
use sl_support::{Budget, SlError};
use sl_trees::{counter_product, Kripke};
use std::collections::VecDeque;

/// A liveness verdict plus aggregated engine counters.
#[derive(Debug, Clone)]
pub struct LivenessRun {
    /// The validated verdict.
    pub verdict: LivenessVerdict,
    /// Engine counters summed over the whole k sweep.
    pub stats: PdrStats,
    /// The k at which the sweep stopped: the winning bound on Live, and
    /// on Lasso the bound whose counterexample closed into the lasso
    /// (often 0, when a reachable bad state lies on a cycle).
    pub k_reached: u64,
}

/// Decides `FG !bad` over all paths by the k-liveness sweep.
///
/// # Errors
///
/// Budget exhaustion and cancellation propagate as typed [`SlError`]s;
/// the budget spans the whole sweep, not one iteration.
///
/// # Panics
///
/// Panics if a bad index is out of range, or if a derived certificate
/// fails replay (an engine bug).
pub fn check_liveness(
    kripke: &Kripke,
    bad: &[usize],
    budget: &Budget,
) -> Result<LivenessRun, SlError> {
    for &b in bad {
        assert!(b < kripke.len(), "bad state out of range");
    }
    let mut stats = PdrStats::default();
    for k in 0..=bad.len() {
        let run = query(kripke, bad, k, budget)?;
        stats = stats.merged(run.stats);
        match run.verdict {
            SafetyVerdict::Safe { invariant } => {
                let replay = validate_live_invariant(kripke, bad, k, &invariant);
                if !crate::engine::sabotage::relative_induction_broken() {
                    if let Err(e) = replay {
                        panic!("k-liveness invariant failed replay at k = {k}: {e}");
                    }
                }
                return Ok(LivenessRun {
                    verdict: LivenessVerdict::Live { k, invariant },
                    stats,
                    k_reached: k as u64,
                });
            }
            SafetyVerdict::Unsafe { trace } => {
                let lasso = extract_lasso(&trace, bad).or_else(|| {
                    let last = *trace.last().expect("traces are nonempty");
                    cycle_through(kripke, last).map(|looping| (trace, looping))
                });
                if let Some((stem, looping)) = lasso {
                    validate_lasso(kripke, bad, &stem, &looping)
                        .unwrap_or_else(|e| panic!("k-liveness lasso failed replay: {e}"));
                    return Ok(LivenessRun {
                        verdict: LivenessVerdict::Lasso { stem, looping },
                        stats,
                        k_reached: k as u64,
                    });
                }
                // Not yet a lasso: the path merely visits bad k + 1
                // times, and its last state lies on no cycle. Raise the
                // bound.
            }
        }
    }
    unreachable!("k-liveness sweep exceeded the pigeonhole bound |bad|")
}

/// The k-th question of the sweep — is a state whose counter reached
/// `k + 1` reachable? — with its certificate in the sweep's terms: a
/// Safe invariant over the `cap = k + 1` product's states with no
/// saturated state, or an Unsafe trace projected onto the model.
fn query(kripke: &Kripke, bad: &[usize], k: usize, budget: &Budget) -> Result<SafetyRun, SlError> {
    if k == 0 {
        let mut run = check_safety(kripke, bad, budget)?;
        if let SafetyVerdict::Safe { invariant } = &mut run.verdict {
            // I × {0}: the product state (s, 0) has id 2s when cap = 1.
            let mut lifted = Bitset::empty(2 * kripke.len());
            for s in invariant.iter() {
                lifted.insert(2 * s);
            }
            *invariant = lifted;
        }
        return Ok(run);
    }
    let cap = k + 1;
    let product = counter_product(kripke, bad, cap);
    let narrowed: Vec<usize> = bad.iter().map(|&b| product.state_id(b, cap)).collect();
    let run = check_safety(&product.kripke, &narrowed, budget)?;
    let verdict = match run.verdict {
        SafetyVerdict::Safe { mut invariant } => {
            for s in 0..kripke.len() {
                invariant.remove(product.state_id(s, cap));
            }
            SafetyVerdict::Safe { invariant }
        }
        SafetyVerdict::Unsafe { trace } => SafetyVerdict::Unsafe {
            trace: trace.iter().map(|&id| product.original(id).0).collect(),
        },
    };
    Ok(SafetyRun {
        verdict,
        stats: run.stats,
    })
}

/// Finds a revisited state with a bad visit strictly inside the window
/// and splits the path into (stem, loop).
fn extract_lasso(path: &[usize], bad: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
    for i in 0..path.len() {
        for j in i + 1..path.len() {
            if path[i] == path[j] && path[i + 1..=j].iter().any(|s| bad.contains(s)) {
                return Some((path[..=i].to_vec(), path[i + 1..=j].to_vec()));
            }
        }
    }
    None
}

/// A shortest cycle through `b`, as the path from one of `b`'s
/// successors back to `b` (a self-loop gives `[b]`): breadth-first
/// search seeded with `b`'s successors, walking successor rows in order.
fn cycle_through(kripke: &Kripke, b: usize) -> Option<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    // Seeds are their own parents.
    let mut parent = vec![UNSEEN; kripke.len()];
    let mut queue = VecDeque::new();
    for &t in kripke.successors(b) {
        if parent[t] == UNSEEN {
            parent[t] = t;
            queue.push_back(t);
        }
    }
    while let Some(s) = queue.pop_front() {
        if s == b {
            let mut cycle = vec![b];
            let mut cursor = b;
            while parent[cursor] != cursor {
                cursor = parent[cursor];
                cycle.push(cursor);
            }
            cycle.reverse();
            return Some(cycle);
        }
        for &t in kripke.successors(s) {
            if parent[t] == UNSEEN {
                parent[t] = s;
                queue.push_back(t);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;

    fn build(labels_bad: &[bool], succ: Vec<Vec<usize>>, initial: usize) -> Kripke {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let labels = labels_bad
            .iter()
            .map(|&is_bad| if is_bad { b } else { a })
            .collect();
        Kripke::new(sigma, labels, succ, initial)
    }

    #[test]
    fn transient_bad_is_live() {
        // 0 -> 1(bad) -> 2 -> 2: bad visited exactly once.
        let k = build(&[false, true, false], vec![vec![1], vec![2], vec![2]], 0);
        let run = check_liveness(&k, &[1], &Budget::unlimited()).unwrap();
        match run.verdict {
            LivenessVerdict::Live { k: bound, .. } => assert!(bound >= 1),
            LivenessVerdict::Lasso { .. } => panic!("bad is transient"),
        }
    }

    #[test]
    fn bad_cycle_is_a_lasso() {
        // Negative control 0 -> 1 -> 2(bad) -> 1: the k = 0 trace ends at
        // 2, which lies on the cycle 2 -> 1 -> 2.
        let k = build(&[false, false, true], vec![vec![1], vec![2], vec![1]], 0);
        let run = check_liveness(&k, &[2], &Budget::unlimited()).unwrap();
        assert_eq!(run.k_reached, 0);
        match run.verdict {
            LivenessVerdict::Lasso { stem, looping } => {
                validate_lasso(&k, &[2], &stem, &looping).unwrap();
                // The whole trace is the stem; the loop ends at its last
                // state.
                assert_eq!(stem, vec![0, 1, 2]);
                assert_eq!(looping, vec![1, 2]);
            }
            LivenessVerdict::Live { .. } => panic!("bad cycle exists"),
        }
    }

    #[test]
    fn no_bad_states_live_at_k_zero() {
        let k = build(&[false, false], vec![vec![1], vec![0]], 0);
        let run = check_liveness(&k, &[], &Budget::unlimited()).unwrap();
        match run.verdict {
            LivenessVerdict::Live { k: 0, invariant } => {
                // The lifted model invariant: (s, 0) is 2s in a 2n universe.
                assert_eq!(invariant, Bitset::from_indices(4, &[0, 2]));
            }
            other => panic!("expected Live at k = 0, got {other:?}"),
        }
        assert_eq!(run.k_reached, 0);
    }

    #[test]
    fn unreachable_bad_cycle_is_live() {
        // 0 -> 0; 1(bad) -> 1 unreachable.
        let k = build(&[false, true], vec![vec![0], vec![1]], 0);
        let run = check_liveness(&k, &[1], &Budget::unlimited()).unwrap();
        assert!(matches!(run.verdict, LivenessVerdict::Live { .. }));
    }

    #[test]
    fn cycle_search_finds_shortest_cycles_in_row_order() {
        // 0 -> {1, 2}; 1 -> 3; 2 -> 0; 3 -> 3.
        let k = build(&[false; 4], vec![vec![1, 2], vec![3], vec![0], vec![3]], 0);
        assert_eq!(cycle_through(&k, 0), Some(vec![2, 0]));
        assert_eq!(cycle_through(&k, 3), Some(vec![3]));
        assert_eq!(cycle_through(&k, 1), None);
    }

    #[test]
    fn live_validator_rejects_each_broken_certificate() {
        // 0 -> 1(bad) -> 2 -> 2, k = 1: cap 2, product id 3s + c.
        let k = build(&[false, true, false], vec![vec![1], vec![2], vec![2]], 0);
        let set = |ids: &[usize]| Bitset::from_indices(9, ids);
        // The reachable product states: (0,0), (1,1), (2,1).
        validate_live_invariant(&k, &[1], 1, &set(&[0, 4, 7])).unwrap();
        let missing_initial = validate_live_invariant(&k, &[1], 1, &set(&[4, 7])).unwrap_err();
        assert!(missing_initial.contains("initial"), "{missing_initial}");
        let saturated = validate_live_invariant(&k, &[1], 1, &set(&[0, 4, 7, 8])).unwrap_err();
        assert!(saturated.contains("saturated"), "{saturated}");
        let open = validate_live_invariant(&k, &[1], 1, &set(&[0, 4])).unwrap_err();
        assert!(open.contains("not closed"), "{open}");
        let universe = validate_live_invariant(&k, &[1], 0, &set(&[0, 4, 7])).unwrap_err();
        assert!(universe.contains("universe"), "{universe}");
    }

    #[test]
    fn agreement_with_direct_lasso_search_on_small_structures() {
        use crate::bmc::bmc_lasso;
        use sl_support::SplitMix;
        let mut rng = SplitMix::new(41);
        for _ in 0..60 {
            let n = 2 + rng.below(8);
            let succ: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let outs = 1 + rng.below(2);
                    (0..outs).map(|_| rng.below(n)).collect()
                })
                .collect();
            let bad: Vec<usize> = (0..n).filter(|_| rng.percent() < 30).collect();
            let labels_bad: Vec<bool> = (0..n).map(|s| bad.contains(&s)).collect();
            let k = build(&labels_bad, succ, 0);
            let run = check_liveness(&k, &bad, &Budget::unlimited()).unwrap();
            let expected_live = bmc_lasso(&k, &bad).is_none();
            let got_live = matches!(run.verdict, LivenessVerdict::Live { .. });
            assert_eq!(got_live, expected_live, "disagreement on {k:?} bad {bad:?}");
        }
    }
}
