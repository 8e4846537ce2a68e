//! E15 (perf) — property-directed reachability vs bounded model
//! checking: the fenced-cycle scaling sweep.
//!
//! The family that separates the two engines is a large cycle
//! (diameter `Θ(n)`) whose only bad states sit in a small *fenced*
//! component no reachable state can enter. Iterative-deepening BMC
//! ([`sl_pdr::bmc_safety_deepening`] — the classic loop that re-unrolls
//! the structure from scratch at every bound, exactly as SAT-based BMC
//! re-solves each depth) must deepen to the reachability diameter
//! before it can conclude Safe, paying `Θ(diameter²)` frontier work.
//! LT-PDR blocks the one obligation the fence admits, generalizes it
//! to the whole backward cone of the bad set (four states, independent
//! of `n`), and converges in a constant number of frames — `Θ(n)`
//! total for the final linear certificate check. Measured per size
//! `n = 2^8 .. 2^12`:
//!
//! * `pdr/fenced/<n>` — `check_safety`, certificate validation
//!   included;
//! * `bmc/fenced/<n>` — `bmc_safety_deepening` on the same structure;
//! * `pdr/liveness/<n>` — the k-liveness sweep on a transient-bad
//!   variant (`FG !bad` holds at `k = 1`), showing the reduction rides
//!   the same engine at product-sized cost.
//!
//! Those families block a handful of cubes each, so they hardly show
//! what an image or containment test costs. Two series shaped like
//! `sld`'s `check` traffic do: a fixed seeded corpus of total
//! 256-state models (a stem into a randomly wired core plus a detached
//! part, out-degree 1–3, 1–4 self-looping bad states), timed as one
//! pass over the corpus:
//!
//! * `pdr/random256/safety` — `check_safety` on every model;
//! * `pdr/random256/liveness` — `check_liveness` on every model. Its
//!   k = 0 query is the model's own safety check, and a reachable bad
//!   state on a cycle closes a lasso at once, so few models build a
//!   counter product at all.
//!
//! Correctness gates come first: both engines must agree (Safe) at
//! every fenced size with the PDR invariant replaying cleanly, the
//! liveness verdict must be Live at `k = 1`, and on the random corpus
//! every safety verdict must match `bmc_safety` and every liveness
//! verdict `bmc_lasso`. `BENCH_pdr.json` records the medians;
//! `scripts/verify.sh` gates PDR-beats-BMC on the 12-bit point, checks
//! that the random series exist, and gates the liveness pass at no more
//! than twice the safety pass of the same run.

use sl_bench::{header, Scoreboard};
use sl_omega::Alphabet;
use sl_pdr::{
    bmc_lasso, bmc_safety, bmc_safety_deepening, check_liveness, check_safety,
    validate_safety_invariant, LivenessVerdict, SafetyVerdict,
};
use sl_support::bench::{black_box, Bench};
use sl_support::{Budget, SplitMix};
use sl_trees::Kripke;
use std::process::ExitCode;

/// Sweep sizes, as powers of two.
const BITS: [u32; 5] = [8, 9, 10, 11, 12];

/// Models in the random corpus, and the corpus seed.
const CORPUS: usize = 24;
const CORPUS_SEED: u64 = 2003;

/// A total model shaped like `sld`'s check traffic: 256 states, a
/// forward-only stem from the initial state into a randomly wired core,
/// a detached part no reachable state enters, out-degree 1–3, and 1–4
/// bad states in one of the three parts, each looping on itself.
fn check_model(rng: &mut SplitMix) -> (Kripke, Vec<usize>) {
    let n = 256;
    let (stem, core_end) = (n / 8, n - n / 4);
    let mut succ: Vec<Vec<usize>> = (0..n)
        .map(|s| {
            (0..1 + rng.below(3))
                .map(|_| {
                    if s + 1 < stem && rng.flip() {
                        s + 1 + rng.below(stem - s - 1)
                    } else if s >= core_end && rng.chance(80) {
                        core_end + rng.below(n - core_end)
                    } else {
                        stem + rng.below(core_end - stem)
                    }
                })
                .collect()
        })
        .collect();
    let part = rng.below(3);
    let mut bad: Vec<usize> = (0..1 + rng.below(4))
        .map(|_| match part {
            0 => 1 + rng.below(stem - 1),
            1 => stem + rng.below(core_end - stem),
            _ => core_end + rng.below(n - core_end),
        })
        .collect();
    bad.sort_unstable();
    bad.dedup();
    for &b in &bad {
        succ[b].push(b);
    }
    let sigma = Alphabet::ab();
    let a = sigma.symbol("a").unwrap();
    (Kripke::new(sigma, vec![a; n], succ, 0), bad)
}

/// The fenced-cycle family: states `0 .. n-4` form one big cycle
/// (every reachable state), states `n-4 .. n` a small cycle reachable
/// from nowhere else, with `n-1` bad. `AG !bad` holds; the backward
/// cone of the bad set is exactly the fenced component.
fn fenced(bits: u32) -> (Kripke, Vec<usize>) {
    let n = 1usize << bits;
    let m = n - 4;
    let sigma = Alphabet::ab();
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let mut succ: Vec<Vec<usize>> = (0..m).map(|i| vec![(i + 1) % m]).collect();
    for fence in 0..4 {
        succ.push(vec![m + (fence + 1) % 4]);
    }
    let labels: Vec<_> = (0..n).map(|s| if s == n - 1 { b } else { a }).collect();
    (Kripke::new(sigma, labels, succ, 0), vec![n - 1])
}

/// The transient-bad variant for the liveness point: the initial state
/// is bad but every path leaves it forever (the cycle runs over
/// `1 .. n-1` and never returns), so `FG !bad` holds at `k = 1`.
fn transient(bits: u32) -> (Kripke, Vec<usize>) {
    let n = 1usize << bits;
    let sigma = Alphabet::ab();
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let mut succ: Vec<Vec<usize>> = vec![vec![1]];
    for i in 1..n {
        succ.push(vec![if i + 1 < n { i + 1 } else { 1 }]);
    }
    let labels: Vec<_> = (0..n).map(|s| if s == 0 { b } else { a }).collect();
    (Kripke::new(sigma, labels, succ, 0), vec![0])
}

fn main() -> ExitCode {
    header(
        "E15",
        "PDR vs iterative-deepening BMC: the fenced-cycle scaling sweep",
    );
    let mut board = Scoreboard::new();

    // Correctness before clocks: agreement and certificate replay at
    // every size, liveness verdict at the largest.
    for &bits in &BITS {
        let (k, bad) = fenced(bits);
        let run = check_safety(&k, &bad, &Budget::unlimited()).expect("unbudgeted");
        let pdr_safe = match &run.verdict {
            SafetyVerdict::Safe { invariant } => {
                validate_safety_invariant(&k, &bad, invariant).is_ok()
            }
            SafetyVerdict::Unsafe { .. } => false,
        };
        board.claim(
            &format!("2^{bits}: PDR proves the fence safe with a replaying invariant"),
            pdr_safe,
        );
        board.claim(
            &format!("2^{bits}: deepening BMC agrees"),
            matches!(bmc_safety_deepening(&k, &bad), SafetyVerdict::Safe { .. }),
        );
    }
    {
        let (k, bad) = transient(BITS[BITS.len() - 1]);
        let run = check_liveness(&k, &bad, &Budget::unlimited()).expect("unbudgeted");
        board.claim(
            "liveness: transient bad is Live at k = 1",
            matches!(run.verdict, LivenessVerdict::Live { k: 1, .. }),
        );
    }
    let mut rng = SplitMix::new(CORPUS_SEED);
    let corpus: Vec<(Kripke, Vec<usize>)> = (0..CORPUS).map(|_| check_model(&mut rng)).collect();
    let (mut safe, mut live) = (0, 0);
    let (mut safety_agree, mut liveness_agree) = (true, true);
    for (k, bad) in &corpus {
        let run = check_safety(k, bad, &Budget::unlimited()).expect("unbudgeted");
        let pdr_safe = matches!(run.verdict, SafetyVerdict::Safe { .. });
        safety_agree &= pdr_safe == matches!(bmc_safety(k, bad), SafetyVerdict::Safe { .. });
        let run = check_liveness(k, bad, &Budget::unlimited()).expect("unbudgeted");
        let pdr_live = matches!(run.verdict, LivenessVerdict::Live { .. });
        liveness_agree &= pdr_live == bmc_lasso(k, bad).is_none();
        safe += usize::from(pdr_safe);
        live += usize::from(pdr_live);
    }
    board.claim(
        &format!("random256: PDR safety agrees with BMC on {CORPUS} models ({safe} safe)"),
        safety_agree,
    );
    board.claim(
        &format!("random256: PDR liveness agrees with lasso search ({live} live)"),
        liveness_agree,
    );

    // Measured passes.
    let mut bench = Bench::from_env();
    let mut medians = Vec::new();
    for &bits in &BITS {
        let n = 1usize << bits;
        let (k, bad) = fenced(bits);
        let pdr = bench.measure(&format!("pdr/fenced/{n}"), || {
            black_box(check_safety(&k, &bad, &Budget::unlimited()).expect("unbudgeted"));
        });
        let bmc = bench.measure(&format!("bmc/fenced/{n}"), || {
            black_box(bmc_safety_deepening(&k, &bad));
        });
        let (lk, lbad) = transient(bits);
        bench.measure(&format!("pdr/liveness/{n}"), || {
            black_box(check_liveness(&lk, &lbad, &Budget::unlimited()).expect("unbudgeted"));
        });
        medians.push((bits, pdr, bmc));
    }
    bench.measure("pdr/random256/safety", || {
        for (k, bad) in &corpus {
            black_box(check_safety(k, bad, &Budget::unlimited()).expect("unbudgeted"));
        }
    });
    bench.measure("pdr/random256/liveness", || {
        for (k, bad) in &corpus {
            black_box(check_liveness(k, bad, &Budget::unlimited()).expect("unbudgeted"));
        }
    });

    println!("\nfenced-cycle sweep (median):");
    for &(bits, pdr, bmc) in &medians {
        let speedup = bmc.as_secs_f64() / pdr.as_secs_f64().max(1e-12);
        println!(
            "  2^{bits:<2}: pdr {:>10.3} µs   bmc {:>12.3} µs   ({speedup:>7.1}x)",
            pdr.as_secs_f64() * 1e6,
            bmc.as_secs_f64() * 1e6,
        );
    }
    for &(bits, pdr, bmc) in &medians {
        if bits >= 12 {
            board.claim(
                &format!("2^{bits}: PDR beats iterative-deepening BMC"),
                pdr < bmc,
            );
        }
    }

    bench.finish("pdr");
    board.finish()
}
