//! The k-liveness / liveness-to-safety reduction.
//!
//! `FG !bad` over all paths holds iff there is a bound `k` such that
//! no path visits a bad state more than `k` times (k-liveness). Each
//! candidate `k` is a safety query on the counter-augmented product
//! ([`sl_trees::counter_product`]): the counter saturates at `k + 1`
//! and the saturated states are the product's bad states. The sweep
//! runs `k = 0, 1, ..` upward; a Safe product verdict proves liveness
//! with certificate `(k, product invariant)`, while a product
//! counterexample trace that revisits a state with a bad visit in
//! between yields a concrete lasso refutation. By the pigeonhole
//! principle the sweep resolves by `k = |bad|` at the latest: a trace
//! with `|bad| + 1` bad visits must revisit some bad state.

use crate::bmc::{validate_lasso, LivenessVerdict};
use crate::engine::PdrStats;
use crate::kripke::{check_safety, SafetyVerdict};
use sl_support::{Budget, SlError};
use sl_trees::{counter_product, Kripke};

/// A liveness verdict plus aggregated engine counters.
#[derive(Debug, Clone)]
pub struct LivenessRun {
    /// The validated verdict.
    pub verdict: LivenessVerdict,
    /// Engine counters summed over the whole k sweep.
    pub stats: PdrStats,
    /// The largest k the sweep reached (the winning bound on Live).
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
/// Panics if a bad index is out of range, or if a derived lasso fails
/// replay (an engine bug).
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
        let cap = k + 1;
        let product = counter_product(kripke, bad, cap);
        let run = check_safety(&product.kripke, &product.bad, budget)?;
        stats = stats.merged(run.stats);
        match run.verdict {
            SafetyVerdict::Safe { invariant } => {
                return Ok(LivenessRun {
                    verdict: LivenessVerdict::Live { k, invariant },
                    stats,
                    k_reached: k as u64,
                });
            }
            SafetyVerdict::Unsafe { trace } => {
                let original: Vec<usize> = trace.iter().map(|&id| product.original(id).0).collect();
                if let Some((stem, looping)) = extract_lasso(&original, bad) {
                    validate_lasso(kripke, bad, &stem, &looping)
                        .unwrap_or_else(|e| panic!("k-liveness lasso failed replay: {e}"));
                    return Ok(LivenessRun {
                        verdict: LivenessVerdict::Lasso { stem, looping },
                        stats,
                        k_reached: k as u64,
                    });
                }
                // Not yet a lasso: the path merely visits bad k + 1
                // times. Raise the bound.
            }
        }
    }
    unreachable!("k-liveness sweep exceeded the pigeonhole bound |bad|")
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
        // 0 -> 1 -> 2(bad) -> 1: the cycle revisits bad forever.
        let k = build(&[false, false, true], vec![vec![1], vec![2], vec![1]], 0);
        let run = check_liveness(&k, &[2], &Budget::unlimited()).unwrap();
        match run.verdict {
            LivenessVerdict::Lasso { stem, looping } => {
                validate_lasso(&k, &[2], &stem, &looping).unwrap();
            }
            LivenessVerdict::Live { .. } => panic!("bad cycle exists"),
        }
    }

    #[test]
    fn no_bad_states_live_at_k_zero() {
        let k = build(&[false, false], vec![vec![1], vec![0]], 0);
        let run = check_liveness(&k, &[], &Budget::unlimited()).unwrap();
        assert!(matches!(run.verdict, LivenessVerdict::Live { k: 0, .. }));
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
