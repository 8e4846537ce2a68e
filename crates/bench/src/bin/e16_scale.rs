//! E16 (perf) — the interned, quotient-first core at scale: on-the-fly
//! inclusion on padded automata, and incremental quotient maintenance
//! vs from-scratch recomputation under a redefine workload.
//!
//! Three sweeps, one artifact (`BENCH_scale.json`):
//!
//! 1. **Random family** — an 8-state random live core drowned in
//!    10^3..10^5 dead states on both operands. The search
//!    ([`included`]) trims first, quotients the core (6 states), and
//!    runs the antichain search over live macro-states, so its work is
//!    *identical* at every padding — the binary claims that every
//!    search counter equals the bare core's — and its time grows only
//!    with the linear structural hash and trim. verify.sh bounds the
//!    10^5 point at 10× the 10^3 point.
//! 2. **Redefine sweep** — a 1000-state chain of 200 five-state SCC
//!    blocks, edited eight times in the *source* block (the one no
//!    other SCC reaches). From-scratch recomputation pays the full
//!    simulation fixpoint per edit; the interned graph's
//!    [`QuotientCache::advance`] re-derives only the dirty SCC and
//!    must carry the other 199 blocks over unchanged.
//! 3. **Quotient kernel** — the `sld` corpus shape: 64 seeded
//!    deterministic random automata of 16–40 states, looked up through
//!    a fresh [`QuotientCache`] per pass (`quotient/miss/rand16-40`:
//!    trim, simulation refinement, quotient build and key copy) and
//!    again against the warmed cache (`quotient/hit/rand16-40`:
//!    structural hash, stripe lock, key comparison). verify.sh requires
//!    a hit to cost less than a miss.
//!
//! Every sweep asserts exactness (equal verdicts and counters,
//! bit-identical quotients) before its timings count.

use sl_bench::{header, Scoreboard};
use sl_buchi::{
    antichain_stats, included, random_buchi, scratch_quotient, AntichainStats, Buchi, BuchiBuilder,
    QuotientCache, RandomConfig, QUOTIENT_CACHE_CAP,
};
use sl_omega::Alphabet;
use sl_support::bench::{black_box, Bench};
use std::process::ExitCode;
use std::time::Duration;

/// A live core drowned in `padding` unreachable, successor-free
/// states — the same family as the memory-regression acceptance test
/// in `tests/interned_core.rs`, sized up for wall-clock measurement.
fn pad(core: &Buchi, padding: usize) -> Buchi {
    let sigma = core.alphabet().clone();
    let mut builder = BuchiBuilder::new(sigma.clone());
    let n = core.num_states();
    let ids: Vec<usize> = (0..n)
        .map(|q| builder.add_state(core.is_accepting(q)))
        .collect();
    for q in 0..n {
        for sym in sigma.symbols() {
            for &r in core.successors(q, sym) {
                builder.add_transition(ids[q], sym, ids[r]);
            }
        }
    }
    for _ in 0..padding {
        builder.add_state(false);
    }
    builder.build(ids[core.initial()])
}

/// The random core: 8 states — small enough that the identical-core
/// antichain search stays far inside the budget, large enough that the
/// search is exercised.
fn random_core(sigma: &Alphabet) -> Buchi {
    let core = random_buchi(
        sigma,
        21,
        RandomConfig {
            states: 8,
            density_percent: 120,
            accepting_percent: 40,
        },
    );
    // One extra transition out of the initial state makes the core
    // nondeterministic, so inclusion into it takes the antichain search
    // with its trim and quotient, which this family measures (a
    // deterministic right operand would get the product check).
    let mut builder = BuchiBuilder::new(sigma.clone());
    for q in 0..core.num_states() {
        builder.add_state(core.is_accepting(q));
    }
    for q in 0..core.num_states() {
        for sym in sigma.symbols() {
            for &r in core.successors(q, sym) {
                builder.add_transition(q, sym, r);
                if q == 0 {
                    builder.add_transition(q, sym, (r + 1) % core.num_states());
                }
            }
        }
    }
    builder.build(core.initial())
}

/// The quotient-kernel corpus: deterministic random automata of 16–40
/// states, each (state, symbol) pair with one successor at 65%, about
/// 30% accepting — the shape of the `sld` benchmark's corpus.
fn quotient_corpus(sigma: &Alphabet) -> Vec<Buchi> {
    (0..64u64)
        .map(|i| {
            random_buchi(
                sigma,
                0x16_0000 + i,
                RandomConfig {
                    states: 16 + (i as usize % 25),
                    density_percent: 65,
                    accepting_percent: 30,
                },
            )
        })
        .collect()
}

/// A chain of `blocks` strongly connected 5-state cycles, each linked
/// to the next: `blocks` separate SCCs, so an edit in the source block
/// leaves every downstream block's simulation rows clean.
fn scc_chain(sigma: &Alphabet, blocks: usize, accepting_mask: u32) -> Buchi {
    const BLOCK: usize = 5;
    let mut builder = BuchiBuilder::new(sigma.clone());
    let a = sigma.symbols().next().expect("nonempty alphabet");
    let b = sigma.symbols().nth(1).expect("two-symbol alphabet");
    let mut ids = Vec::with_capacity(blocks * BLOCK);
    for block in 0..blocks {
        for i in 0..BLOCK {
            // The mask edits acceptance bits in the source block only.
            let accepting = if block == 0 {
                accepting_mask & (1 << i) != 0
            } else {
                (block + i) % 3 == 0
            };
            ids.push(builder.add_state(accepting));
        }
    }
    for block in 0..blocks {
        let base = block * BLOCK;
        for i in 0..BLOCK {
            builder.add_transition(ids[base + i], a, ids[base + (i + 1) % BLOCK]);
        }
        if block + 1 < blocks {
            builder.add_transition(ids[base], b, ids[base + BLOCK]);
        } else {
            builder.add_transition(ids[base], b, ids[base]);
        }
    }
    builder.build(ids[0])
}

fn lazy_holds(a: &Buchi, b: &Buchi) -> bool {
    // A fresh cache per call: the measurement covers the full
    // trim + quotient + search pipeline, not a cache hit.
    included(a, b, &QuotientCache::new(), None)
        .expect("lazy antichain budget")
        .holds()
}

/// One search on a fresh thread: its verdict and exact counters
/// (`peak_macro_states` is a per-thread high-water mark, so only a
/// fresh thread reads one search's peak).
fn lazy_stats(a: &Buchi, b: &Buchi) -> (bool, AntichainStats) {
    std::thread::scope(|scope| {
        scope
            .spawn(|| (lazy_holds(a, b), antichain_stats()))
            .join()
            .expect("search thread panicked")
    })
}

fn main() -> ExitCode {
    header(
        "E16",
        "Interned core at scale: on-the-fly inclusion under padding, incremental vs scratch quotients",
    );
    let sigma = Alphabet::ab();
    let mut board = Scoreboard::new();
    let mut bench = Bench::from_env();
    let ratio = |num: Duration, den: Duration| num.as_nanos() as f64 / den.as_nanos().max(1) as f64;

    // -- Random family ------------------------------------------------
    // Identical cores on both sides (padding differs by one state):
    // the inclusion HOLDS, so the search never exits early on a
    // counterexample.
    let rcore = random_core(&sigma);
    let rand_pairs: Vec<(usize, Buchi, Buchi)> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|n| (n, pad(&rcore, n), pad(&rcore, n + 1)))
        .collect();
    let (bare_holds, bare) = lazy_stats(&rcore, &rcore);
    let padded: Vec<(bool, AntichainStats)> = rand_pairs
        .iter()
        .map(|(_, a, b)| lazy_stats(a, b))
        .collect();
    println!(
        "random family: {} macro-states committed, {} attempts, {} scans per search",
        bare.peak_macro_states, bare.insert_attempts, bare.subsumption_scans
    );
    board.claim(
        "random family: inclusion HOLDS at every padding",
        bare_holds && padded.iter().all(|&(holds, _)| holds),
    );
    board.claim(
        "random family: search counters at 10^3, 10^4, 10^5 padding equal the bare core's",
        padded.iter().all(|(_, stats)| *stats == bare),
    );
    let mut rand_lazy = Vec::new();
    for (n, a, b) in &rand_pairs {
        rand_lazy.push(bench.measure(&format!("incl/lazy/rand/{n}"), || {
            black_box(lazy_holds(a, b));
        }));
    }
    println!(
        "  10^5 over 10^3 padding: {:.1}x (only the linear hash and trim grow)",
        ratio(rand_lazy[2], rand_lazy[0])
    );

    // -- Redefine sweep -----------------------------------------------
    // Eight acceptance edits in the source block of a 200-block chain.
    let versions: Vec<Buchi> = (0..9u32)
        .map(|i| scc_chain(&sigma, 200, 0b10101 ^ i))
        .collect();
    // Exactness first: every advance must land bit-identically on the
    // from-scratch quotient, with the downstream blocks carried clean.
    let graph = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
    let _ = graph.quotient(&versions[0]);
    let mut exact = true;
    let mut clean_total = 0u64;
    for w in versions.windows(2) {
        let report = graph.advance(&w[0], &w[1]);
        clean_total += report.clean_sccs as u64;
        let node = graph.node(&w[1]).expect("advance interns the new version");
        exact &= *node.quotient() == scratch_quotient(&w[1]);
    }
    board.claim(
        "every advance is bit-identical to a scratch quotient",
        exact,
    );
    board.claim(
        "edits in the source block carry downstream SCCs over clean",
        clean_total > 0,
    );

    let scratch = bench.measure("redefine/scratch/chain1000", || {
        for next in &versions[1..] {
            black_box(scratch_quotient(next).num_states());
        }
    });
    let incremental = bench.measure("redefine/incremental/chain1000", || {
        let graph = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
        let _ = graph.quotient(&versions[0]);
        for w in versions.windows(2) {
            black_box(graph.advance(&w[0], &w[1]).dirty_sccs);
        }
    });
    let redefine_speedup = ratio(scratch, incremental);
    println!("\nredefine chain (8 edits, 1000-state chain of 200 SCC blocks):");
    println!("  scratch     : {scratch:?}");
    println!("  incremental : {incremental:?} ({redefine_speedup:.1}x)");
    board.claim(
        "incremental redefines beat from-scratch recomputation",
        incremental < scratch,
    );

    // -- Quotient kernel ----------------------------------------------
    // A one-stripe cache of QUOTIENT_CACHE_CAP holds all 64 nodes, so
    // the warmed pass is hits only.
    let corpus = quotient_corpus(&sigma);
    let lookup_all = |cache: &QuotientCache| {
        for b in &corpus {
            black_box(cache.quotient(b).num_states());
        }
    };
    let warmed = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
    lookup_all(&warmed);
    lookup_all(&warmed);
    let stats = warmed.stats();
    board.claim(
        "quotient kernel: the warmed pass over 64 automata is all hits",
        stats.misses == 64 && stats.hits == 64 && stats.clears == 0,
    );
    board.claim(
        "quotient kernel: cached quotients equal scratch quotients",
        corpus
            .iter()
            .all(|b| *warmed.quotient(b) == scratch_quotient(b)),
    );
    let miss = bench.measure("quotient/miss/rand16-40", || {
        lookup_all(&QuotientCache::one_stripe(QUOTIENT_CACHE_CAP));
    });
    let hit = bench.measure("quotient/hit/rand16-40", || lookup_all(&warmed));
    println!(
        "\nquotient kernel (64 automata of 16-40 states): miss {:.2} us, hit {:.2} us per lookup",
        miss.as_nanos() as f64 / 64e3,
        hit.as_nanos() as f64 / 64e3
    );
    board.claim("quotient kernel: a cache hit beats a miss", hit < miss);

    bench.finish("scale");
    board.finish()
}
