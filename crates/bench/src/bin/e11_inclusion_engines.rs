//! E11 (perf) — inclusion engines head-to-head: the on-the-fly
//! antichain search and the product check vs the uncached rank-based
//! complement.
//!
//! The antichain engine (`sl_buchi::antichain`) decides
//! `L(A) ⊆ L(B)` by searching for a counterexample lasso directly over
//! word-graphs of `B`, pruning with antichain subsumption — it never
//! materializes `¬B`. The rank-based oracle pays for the full
//! Kupferman–Vardi complement before it can even start the emptiness
//! check. `included` gives a deterministic `B` a product check instead
//! of the antichain, so the `onthefly` and `rank_uncached` series use
//! nondeterministic specifications, and the `product` series measure
//! the deterministic ones.
//!
//! * `*/onthefly/corpus` and `*/rank_uncached/corpus` measure both
//!   engines over the same seeded corpus (complements recomputed per
//!   query — the *uncached* path the antichain engine replaces;
//!   quotients recomputed per corpus pass through a fresh
//!   [`QuotientCache`], so the antichain side pays its simulation
//!   preprocessing too), after checking verdict agreement.
//! * `*/onthefly/search` repeat the on-the-fly queries against a
//!   quotient cache warmed before timing, so they isolate the search
//!   kernel from the simulation quotients.
//! * `incl/product/corpus` runs the same candidates against
//!   deterministic specifications (the corpus this experiment used
//!   before the product check existed).
//! * `incl/product/unscreened` runs random deterministic pairs of
//!   16–40 states, unscreened (`sldbench` keeps only automata with small
//!   transition monoids; these are not filtered), and notes the share
//!   answered within the default cap with the per-pair p50 and p99.
//!
//! Everything lands in `BENCH_incl.json`. Expected shape: the antichain
//! engine wins by well over the claimed 5× on the inclusion corpus,
//! because the rank complement of a nondeterministic specification runs
//! to thousands of states, and the product check answers every
//! unscreened pair.

use sl_bench::{header, Scoreboard};
use sl_buchi::{
    complement, included, included_with_complement, is_empty, random_buchi,
    random_nondeterministic, universal, Buchi, QuotientCache, RandomConfig,
};
use sl_omega::Alphabet;
use sl_support::bench::{black_box, Bench};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The largest rank complement a screened specification may have.
const MAX_COMPLEMENT: usize = 2_000;

/// The seeded corpus, shaped like the deciders' hot path (E5 and the
/// classify/decompose sweeps): a modest *candidate* automaton on the
/// left of `⊆`, a *specification* on the right. Returns the
/// candidates, the nondeterministic specifications and the
/// deterministic ones.
///
/// The right operand is what the rank-based oracle must complement. The
/// nondeterministic specifications are 4-state draws with one extra
/// successor in five (state, letter) pairs, screened to those that are
/// nondeterministic and complement to at most [`MAX_COMPLEMENT`] rank
/// states: unscreened 5-state draws already run into the complement's
/// budget. The deterministic ones are 10-state draws, as before.
fn corpus(sigma: &Alphabet) -> (Vec<Buchi>, Vec<Buchi>, Vec<Buchi>) {
    let left_cfg = RandomConfig {
        states: 4,
        density_percent: 55,
        accepting_percent: 40,
    };
    let right_cfg = RandomConfig {
        states: 10,
        density_percent: 55,
        accepting_percent: 10,
    };
    let lefts = (0..8u64)
        .map(|seed| random_buchi(sigma, seed, left_cfg))
        .collect();
    let rights = (271u64..)
        .map(|seed| random_nondeterministic(sigma, seed, 4, 120, 20))
        .filter(|b| {
            !b.is_deterministic()
                && complement(b, None).is_ok_and(|c| c.num_states() <= MAX_COMPLEMENT)
        })
        .take(8)
        .collect();
    let deterministic = (0..8u64)
        .map(|seed| random_buchi(sigma, 271 + seed, right_cfg))
        .collect();
    (lefts, rights, deterministic)
}

/// Random deterministic pairs of 16–40 states at four densities, not
/// screened for their transition monoids: the shape of `sldbench`'s
/// corpus before its screen, and of E11's former 275M-scan pair.
fn unscreened(sigma: &Alphabet) -> Vec<(Buchi, Buchi)> {
    (0..240u64)
        .map(|k| {
            let cfg = |seed: u64| RandomConfig {
                states: 16 + (seed % 25) as usize,
                density_percent: [65, 80, 100, 160][(k % 4) as usize],
                accepting_percent: 30,
            };
            let (x, y) = (20_000 + 2 * k, 20_001 + 2 * k);
            (
                random_buchi(sigma, x, cfg(x)),
                random_buchi(sigma, y, cfg(y)),
            )
        })
        .collect()
}

/// The `q`-quantile of sorted durations, nearest rank.
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() -> ExitCode {
    header(
        "E11",
        "Inclusion engines: on-the-fly antichain search vs uncached rank-based complement",
    );
    let sigma = Alphabet::ab();
    let (lefts, rights, deterministic) = corpus(&sigma);
    let pairs: Vec<(usize, usize)> = (0..16)
        .map(|k| (k % lefts.len(), (k * 3 + 1) % rights.len()))
        .collect();
    let mut board = Scoreboard::new();

    // Correctness first: both engines must return the same verdict on
    // every corpus query (inclusion over the pairs, universality over
    // the right operands) before any timing is worth reporting.
    let mut disagreements = 0usize;
    let quotients = QuotientCache::new();
    for &(i, j) in &pairs {
        let ac = included(&lefts[i], &rights[j], &quotients, None).expect("antichain budget");
        let not_b = complement(&rights[j], None).expect("rank complement budget");
        let rk = included_with_complement(&lefts[i], &not_b);
        if ac.holds() != rk.holds() {
            disagreements += 1;
        }
    }
    for b in &rights {
        let ac = universal(b, &quotients, None)
            .expect("antichain budget")
            .is_ok();
        let rk = is_empty(&complement(b, None).expect("rank complement budget"));
        if ac != rk {
            disagreements += 1;
        }
    }
    for &(i, j) in &pairs {
        let pc = included(&lefts[i], &deterministic[j], &quotients, None).expect("product cap");
        let not_b = complement(&deterministic[j], None).expect("rank complement budget");
        if pc.holds() != included_with_complement(&lefts[i], &not_b).holds() {
            disagreements += 1;
        }
    }
    println!(
        "corpus: {} candidate x {} nondeterministic + {} deterministic spec machines, \
         {} inclusion pairs each, {} universality queries",
        lefts.len(),
        rights.len(),
        deterministic.len(),
        pairs.len(),
        rights.len()
    );
    board.claim("engines agree on every corpus query", disagreements == 0);

    let mut bench = Bench::from_env();
    let ac_incl = bench.measure("incl/onthefly/corpus", || {
        let quotients = QuotientCache::new();
        for &(i, j) in &pairs {
            black_box(
                included(&lefts[i], &rights[j], &quotients, None)
                    .expect("antichain budget")
                    .holds(),
            );
        }
    });
    let rk_incl = bench.measure("incl/rank_uncached/corpus", || {
        for &(i, j) in &pairs {
            let not_b = complement(&rights[j], None).expect("rank complement budget");
            black_box(included_with_complement(&lefts[i], &not_b).holds());
        }
    });
    let ac_univ = bench.measure("univ/onthefly/corpus", || {
        let quotients = QuotientCache::new();
        for b in &rights {
            black_box(
                universal(b, &quotients, None)
                    .expect("antichain budget")
                    .is_ok(),
            );
        }
    });
    let rk_univ = bench.measure("univ/rank_uncached/corpus", || {
        for b in &rights {
            black_box(is_empty(
                &complement(b, None).expect("rank complement budget"),
            ));
        }
    });
    // The same queries against a quotient cache warmed before timing:
    // every lookup hits, so these series time the antichain search
    // itself (plus the cache probes), not the simulation quotients.
    let warm = QuotientCache::new();
    for &(i, j) in &pairs {
        included(&lefts[i], &rights[j], &warm, None).expect("antichain budget");
    }
    for b in &rights {
        let _ = universal(b, &warm, None).expect("antichain budget");
    }
    bench.measure("incl/onthefly/search", || {
        for &(i, j) in &pairs {
            black_box(
                included(&lefts[i], &rights[j], &warm, None)
                    .expect("antichain budget")
                    .holds(),
            );
        }
    });
    bench.measure("univ/onthefly/search", || {
        for b in &rights {
            black_box(universal(b, &warm, None).expect("antichain budget").is_ok());
        }
    });
    bench.measure("incl/product/corpus", || {
        let quotients = QuotientCache::new();
        for &(i, j) in &pairs {
            black_box(
                included(&lefts[i], &deterministic[j], &quotients, None)
                    .expect("product cap")
                    .holds(),
            );
        }
    });

    // Unscreened deterministic pairs: every one must be answered within
    // the default cap. Each pair is timed as its fastest of three runs.
    let hard = unscreened(&sigma);
    let mut answered = 0usize;
    let mut times: Vec<Duration> = hard
        .iter()
        .map(|(a, b)| {
            let mut best = Duration::MAX;
            for _ in 0..3 {
                let start = Instant::now();
                let outcome = included(a, b, &QuotientCache::new(), None);
                best = best.min(start.elapsed());
                if outcome.is_err() {
                    return best;
                }
            }
            answered += 1;
            best
        })
        .collect();
    times.sort_unstable();
    let share = answered as f64 / hard.len() as f64;
    bench.measure("incl/product/unscreened", || {
        for (a, b) in &hard {
            black_box(included(a, b, &QuotientCache::new(), None).is_ok());
        }
    });
    bench.note("incl/product/unscreened/answered_share", share);
    let (p50, p99) = (quantile(&times, 0.5), quantile(&times, 0.99));
    bench.note("incl/product/unscreened/p50_ns", p50.as_nanos() as f64);
    bench.note("incl/product/unscreened/p99_ns", p99.as_nanos() as f64);
    board.claim(
        "the product check answers every unscreened deterministic pair within the default cap",
        answered == hard.len(),
    );

    let speedup = |rank: std::time::Duration, anti: std::time::Duration| {
        rank.as_nanos() as f64 / anti.as_nanos().max(1) as f64
    };
    let incl_speedup = speedup(rk_incl, ac_incl);
    let univ_speedup = speedup(rk_univ, ac_univ);
    println!("\nmedian speedup, antichain over uncached rank:");
    println!("  inclusion corpus   : {incl_speedup:.1}x");
    println!("  universality corpus: {univ_speedup:.1}x");
    board.claim(
        "antichain beats uncached rank by >=5x median (inclusion)",
        incl_speedup >= 5.0,
    );
    board.claim(
        "antichain never loses to rank by >2x on any suite",
        incl_speedup >= 0.5 && univ_speedup >= 0.5,
    );
    bench.finish("incl");
    board.finish()
}
