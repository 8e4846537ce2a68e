//! E11 (perf) — inclusion engines head-to-head: the on-the-fly
//! antichain search vs the uncached rank-based complement.
//!
//! The antichain engine (`sl_buchi::antichain`) decides
//! `L(A) ⊆ L(B)` by searching for a counterexample lasso directly over
//! word-graphs of `B`, pruning with antichain subsumption — it never
//! materializes `¬B`. The rank-based oracle pays for the full
//! Kupferman–Vardi complement before it can even start the emptiness
//! check. This experiment measures both over the same seeded corpus
//! (complements recomputed per query — the *uncached* path the antichain
//! engine replaces; quotients recomputed per corpus pass through a
//! fresh [`QuotientCache`], so the antichain side pays its simulation
//! preprocessing too), checks verdict agreement, and emits
//! `BENCH_incl.json`. The `*/onthefly/search` series repeat the
//! on-the-fly queries against a quotient cache warmed before timing, so
//! they isolate the search kernel from the simulation quotients.
//!
//! Expected shape: the antichain engine wins by well over the claimed
//! 5× on the inclusion corpus (typically 10×+ in release builds), and
//! the gap widens with the spec's state count: the KV complement of a
//! 10-state spec runs to thousands of rank states while the antichain
//! frontier stays small after simulation-quotient preprocessing.

use sl_bench::{header, Scoreboard};
use sl_buchi::{
    complement, included, included_with_complement, is_empty, random_buchi, universal, Buchi,
    QuotientCache, RandomConfig,
};
use sl_omega::Alphabet;
use sl_support::bench::{black_box, Bench};
use std::process::ExitCode;

/// The seeded corpus, shaped like the deciders' hot path (E5 and the
/// classify/decompose sweeps): a modest *candidate* automaton on the
/// left of `⊆`, a larger *specification* on the right. The right
/// operand is what the rank-based oracle must complement — sized so the
/// Kupferman–Vardi construction is expensive but never blows its
/// budget — while the left operand drives the antichain's element
/// count.
fn corpus(sigma: &Alphabet) -> (Vec<Buchi>, Vec<Buchi>) {
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
    let rights = (0..8u64)
        .map(|seed| random_buchi(sigma, 271 + seed, right_cfg))
        .collect();
    (lefts, rights)
}

fn main() -> ExitCode {
    header(
        "E11",
        "Inclusion engines: on-the-fly antichain search vs uncached rank-based complement",
    );
    let sigma = Alphabet::ab();
    let (lefts, rights) = corpus(&sigma);
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
    println!(
        "corpus: {} candidate x {} spec machines, {} inclusion pairs, {} universality queries",
        lefts.len(),
        rights.len(),
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
