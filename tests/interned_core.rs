//! Acceptance tests for the interned automaton core
//! (`sl_buchi::interned`): incremental simulation maintenance must be
//! *bit-identical* to from-scratch computation over long seeded
//! mutation sequences, on-the-fly counterexamples must replay on the
//! raw (unquotiented) operands, and neither the lazy macro-state arena
//! nor the product check may scale with dead padding — the
//! memory-regression gates for the 10^4-state tier.

use safety_liveness::buchi::{
    antichain_stats, included, random_buchi, scratch_quotient, shared_quotient_cache,
    AntichainStats, Buchi, BuchiBuilder, Inclusion, QuotientCache, RandomConfig,
    QUOTIENT_CACHE_CAP,
};
use safety_liveness::omega::Alphabet;
use sl_support::fault;
use sl_support::rng::SplitMix;
use std::sync::Arc;

/// The editable shape of an automaton: acceptance bits plus the
/// per-(state, symbol-index) successor lists. Mutations edit this and
/// rebuild, since [`Buchi`] itself is immutable.
struct Shape {
    accepting: Vec<bool>,
    succ: Vec<Vec<Vec<usize>>>,
}

fn shape_of(b: &Buchi) -> Shape {
    let n = b.num_states();
    Shape {
        accepting: (0..n).map(|q| b.is_accepting(q)).collect(),
        succ: (0..n)
            .map(|q| {
                b.alphabet()
                    .symbols()
                    .map(|sym| b.successors(q, sym).to_vec())
                    .collect()
            })
            .collect(),
    }
}

fn build(sigma: &Alphabet, shape: &Shape) -> Buchi {
    let mut builder = BuchiBuilder::new(sigma.clone());
    let ids: Vec<usize> = shape
        .accepting
        .iter()
        .map(|&acc| builder.add_state(acc))
        .collect();
    for (q, by_sym) in shape.succ.iter().enumerate() {
        for (s, sym) in sigma.symbols().enumerate() {
            for &r in &by_sym[s] {
                builder.add_transition(ids[q], sym, ids[r]);
            }
        }
    }
    builder.build(ids[0])
}

/// One seeded random edit: toggle an acceptance bit, add or remove a
/// transition, or graft a fresh state reachable from an existing one.
fn mutate(sigma: &Alphabet, shape: &mut Shape, rng: &mut SplitMix) {
    let n = shape.accepting.len();
    let nsyms = sigma.len();
    match rng.below(5) {
        0 => {
            let q = rng.below(n);
            shape.accepting[q] = !shape.accepting[q];
        }
        1 | 2 => {
            // Add a transition (idempotent if it already exists).
            let (q, s, r) = (rng.below(n), rng.below(nsyms), rng.below(n));
            if !shape.succ[q][s].contains(&r) {
                shape.succ[q][s].push(r);
                shape.succ[q][s].sort_unstable();
            }
        }
        3 => {
            // Remove a transition if one exists at the drawn slot.
            let (q, s) = (rng.below(n), rng.below(nsyms));
            if !shape.succ[q][s].is_empty() {
                let at = rng.below(shape.succ[q][s].len());
                shape.succ[q][s].remove(at);
            }
        }
        _ => {
            // Graft a fresh state with one incoming and one outgoing
            // edge, keeping the mutation sequence from shrinking the
            // automaton into triviality.
            let from = rng.below(n);
            let s = rng.below(nsyms);
            let back = rng.below(n);
            shape.accepting.push(rng.flip());
            shape.succ.push(vec![Vec::new(); nsyms]);
            let fresh = shape.accepting.len() - 1;
            if !shape.succ[from][s].contains(&fresh) {
                shape.succ[from][s].push(fresh);
                shape.succ[from][s].sort_unstable();
            }
            shape.succ[fresh][s].push(back);
        }
    }
}

/// 64-bit FNV-1a, folding `bytes` into `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The tentpole invariant: after every `advance`, the incrementally
/// maintained quotient (and the simulation rows behind it) must be
/// bit-for-bit what a from-scratch computation produces — the
/// greatest fixpoint is unique, and dirty-SCC seeding must converge to
/// exactly it. 3 seeds x 55 mutations, every step checked. Each
/// advance's dirty/clean SCC split is pinned as a digest, computed
/// before the split was counted on the shared SCC walk.
#[test]
fn incremental_quotient_is_bit_identical_to_scratch_over_mutation_sequences() {
    let sigma = Alphabet::ab();
    let mut reports = 0xcbf2_9ce4_8422_2325u64;
    for seed in 0..3u64 {
        let mut rng = SplitMix::new(0x1117 + seed);
        let graph = QuotientCache::one_stripe(4096);
        let mut prev = random_buchi(
            &sigma,
            seed,
            RandomConfig {
                states: 6,
                density_percent: 55,
                accepting_percent: 40,
            },
        );
        let _ = graph.quotient(&prev);
        let mut shape = shape_of(&prev);
        for step in 0..55u32 {
            mutate(&sigma, &mut shape, &mut rng);
            let next = build(&sigma, &shape);
            let report = graph.advance(&prev, &next);
            let line = format!(
                "{seed} {step} {} {}\n",
                report.dirty_sccs, report.clean_sccs
            );
            reports = fnv1a(reports, line.as_bytes());
            let node = graph.node(&next).expect("advance interns the new version");
            let incremental = node.quotient();
            assert_eq!(
                *incremental,
                scratch_quotient(&next),
                "seed {seed} step {step}: incremental quotient != scratch"
            );
            // The rows themselves — not just the quotient built from
            // them — must land on the unique greatest fixpoint.
            let fresh = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
            let _ = fresh.quotient(&next);
            assert_eq!(
                graph.node(&next).expect("still interned").rows(),
                fresh.node(&next).expect("just interned").rows(),
                "seed {seed} step {step}: incremental rows != scratch rows"
            );
            prev = next;
        }
        let stats = graph.advance_stats();
        assert_eq!(stats.advances, 55, "seed {seed}: every step advanced");
        assert!(
            stats.clean_sccs > 0,
            "seed {seed}: no mutation ever carried a clean SCC over — \
             the incremental path was never actually exercised"
        );
    }
    // Under an environment fault drill (`SL_FAULT_RATE`) a dropped node
    // turns a repeat version's hit into a recompute, which reports its
    // own split, so the digest holds only without one.
    if !fault::global().is_enabled() {
        assert_eq!(format!("{reports:#018x}"), "0x4599551bdf7c69e7");
    }
}

/// A fault-invalidated quotient must be freed: an always-firing plan
/// drops the cached node on every repeat lookup, and the cache may keep
/// no reference to a dropped quotient, or a daemon under the drill
/// grows without bound.
#[test]
fn fault_invalidated_quotients_are_freed() {
    let b = random_buchi(
        &Alphabet::ab(),
        3,
        RandomConfig {
            states: 6,
            density_percent: 55,
            accepting_percent: 40,
        },
    );
    let cache = QuotientCache::with_fault(sl_support::FaultPlan::new(7, 1.0));
    let first = cache.quotient(&b);
    let mut last = cache.quotient(&b);
    for _ in 2..1000 {
        last = cache.quotient(&b);
    }
    assert_eq!(*first, *last, "recomputation is behavior-preserving");
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.invalidations), (1, 999), "{stats:?}");
    assert_eq!(
        Arc::strong_count(&first),
        1,
        "the cache still holds the first, invalidated quotient"
    );
    assert_eq!(Arc::strong_count(&last), 2, "the live node stays cached");
}

/// On-the-fly counterexamples are found in the *quotiented* product
/// but must replay on the raw automata: the quotient preserves the
/// language, so a lasso separating the quotients separates the
/// originals.
#[test]
fn onthefly_counterexamples_replay_on_raw_automata() {
    let sigma = Alphabet::ab();
    let cfg = RandomConfig {
        states: 8,
        density_percent: 45,
        accepting_percent: 35,
    };
    let mut counterexamples = 0usize;
    for seed in 0..60u64 {
        let a = random_buchi(&sigma, 2 * seed, cfg);
        let b = random_buchi(&sigma, 2 * seed + 1, cfg);
        match included(&a, &b, shared_quotient_cache(), None)
            .expect("8-state pairs stay within budget")
        {
            Inclusion::Holds => {}
            Inclusion::CounterExample(w) => {
                counterexamples += 1;
                assert!(
                    a.accepts(&w),
                    "seed {seed}: witness {w} not accepted by the raw left"
                );
                assert!(
                    !b.accepts(&w),
                    "seed {seed}: witness {w} accepted by the raw right"
                );
            }
        }
    }
    assert!(
        counterexamples >= 10,
        "only {counterexamples} counterexamples in the sweep"
    );
}

/// A 15-state deterministic core, or the same core with one extra
/// transition beside the initial state's first one, which makes it
/// nondeterministic. (Randomly nondeterministic 15-state cores are no
/// good here: self-inclusion is the antichain's worst case, and most
/// of them exhaust the default cap.)
fn core(sigma: &Alphabet, seed: u64, deterministic: bool) -> Buchi {
    let cfg = RandomConfig {
        states: 15,
        density_percent: 55,
        accepting_percent: 40,
    };
    let core = random_buchi(sigma, seed, cfg);
    if deterministic {
        return core;
    }
    let mut shape = shape_of(&core);
    let row = shape.succ[0]
        .iter_mut()
        .find(|row| !row.is_empty())
        .expect("every random_buchi state has a successor");
    let extra = (row[0] + 1) % 15;
    row.push(extra);
    row.sort_unstable();
    build(sigma, &shape)
}

/// A small live core drowned in `padding` unreachable, successor-free
/// states. Neither search may ever see the padding.
fn padded(sigma: &Alphabet, core: &Buchi, padding: usize) -> Buchi {
    let mut shape = shape_of(core);
    for _ in 0..padding {
        shape.accepting.push(false);
        shape.succ.push(vec![Vec::new(); sigma.len()]);
    }
    build(sigma, &shape)
}

/// Runs one unbudgeted search on a fresh thread with a fresh quotient
/// cache and returns its verdict and counters. A fresh thread matters:
/// `peak_macro_states` is a per-thread lifetime high-water mark, so a
/// second search on the same thread would read the larger of both
/// peaks.
fn search_alone(a: Buchi, b: Buchi) -> (bool, AntichainStats) {
    std::thread::spawn(move || {
        let holds = included(&a, &b, &QuotientCache::new(), None)
            .expect("15-state cores stay within budget")
            .holds();
        (holds, antichain_stats())
    })
    .join()
    .expect("search thread panicked")
}

/// The memory-regression gate: deciding inclusion over a 10^4-state
/// padded pair must do exactly the work of the same search on the
/// trimmed pair — every counter and both macro-state gauges equal. The
/// arena gauge (`peak_macro_states`) counts every macro-state ever
/// created, so padding-driven blowup cannot hide behind subsumption.
/// The cores are nondeterministic, so this is the antichain search.
#[test]
fn lazy_search_peak_macro_states_ignores_dead_padding() {
    let sigma = Alphabet::ab();
    let mut real_searches = 0;
    for seed in SEEDS {
        let core = core(&sigma, seed, false);
        assert!(!core.is_deterministic(), "seed {seed}");
        let a = padded(&sigma, &core, 10_000);
        let b = padded(&sigma, &core, 10_001);
        let (a_trim, b_trim) = (a.trim_unreachable(), b.trim_unreachable());
        assert!(a_trim.num_states() <= 15 && b_trim.num_states() <= 15);

        let (trimmed_holds, on_trimmed) = search_alone(a_trim, b_trim);
        let (padded_holds, on_padded) = search_alone(a, b);
        // Identical cores on both sides: the inclusion HOLDS, so the
        // search runs to exhaustion (the worst case for the arena)
        // instead of stopping at a witness.
        assert!(
            trimmed_holds && padded_holds,
            "seed {seed}: identical cores must include"
        );
        assert_eq!(on_trimmed.searches, 1, "seed {seed}: one search per thread");
        assert!(
            on_padded.peak_macro_states > 0,
            "seed {seed}: no arena growth recorded"
        );
        assert_eq!(
            on_padded, on_trimmed,
            "seed {seed}: the 10^4-state padding changed the search"
        );
        if on_padded.peak_macro_states > 100 {
            real_searches += 1;
        }
    }
    assert!(
        real_searches >= 3,
        "only {real_searches} seeds ran a real search"
    );
}

const SEEDS: [u64; 5] = [77, 3, 11, 21, 42];

/// The same gate for the product check, which deterministic right
/// operands get: over a 10^4-state padded pair it creates exactly the
/// product states of the trimmed pair, at most `15 · 16` of them, and
/// gives the same answer. (Its memory is checked against the states it
/// holds in `sl_buchi::antichain`'s unit tests.)
#[test]
fn product_check_ignores_dead_padding() {
    let sigma = Alphabet::ab();
    let mut counterexamples = 0;
    for seed in SEEDS {
        let (left, right) = (core(&sigma, seed, true), core(&sigma, seed + 1, true));
        let a = padded(&sigma, &left, 10_000);
        let b = padded(&sigma, &right, 10_001);
        assert!(b.is_deterministic());
        let (trimmed_holds, on_trimmed) = search_alone(left, right);
        let (padded_holds, on_padded) = search_alone(a, b);
        assert_eq!(trimmed_holds, padded_holds, "seed {seed}");
        assert_eq!(on_padded.product_checks, 1, "seed {seed}");
        assert_eq!(on_padded.searches, 0, "seed {seed}: no antichain search");
        assert!(
            on_padded.product_states > 1 && on_padded.product_states <= 15 * 16,
            "seed {seed}: {on_padded:?}"
        );
        assert_eq!(
            on_padded, on_trimmed,
            "seed {seed}: padding changed the work"
        );
        counterexamples += on_padded.product_counterexamples;
    }
    assert!(counterexamples > 0, "every seed held");
}
