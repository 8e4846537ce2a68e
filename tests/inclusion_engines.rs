//! Differential verification of the inclusion engine — the product
//! check for deterministic right operands, the on-the-fly antichain
//! search (quotient-cached, lazily expanded) for the rest — against the
//! rank-based oracle, an independent algorithm (complement, then check
//! emptiness). The pool below is deterministic, so its sweeps pin the
//! product check; the exhaustion test pins the antichain.
//!
//! Both engines are exact, so on every query they must return the same
//! verdict, and every counterexample either produces must be *genuine*
//! (accepted by the left operand, rejected by the right — checked on
//! the *raw* operands, so the on-the-fly engine's internal quotienting
//! cannot mask a bad witness). The sweep compares the engines over
//! 500+ random automaton pairs drawn from a pool of 120 distinct
//! machines; rank-side complement-budget blowups are skipped (and
//! bounded), never treated as disagreements.
//!
//! The tests stay green under an environment fault drill
//! (`SL_FAULT_RATE` > 0): unbudgeted searches consult no
//! error-injection site, and the cache sites
//! (`"buchi.quotient_cache"`, `"buchi.complement_cache"`) only force
//! behavior-preserving recomputations.

use safety_liveness::buchi::{
    antichain_stats, equivalent, equivalent_rank, hoa, included, included_rank, random_buchi,
    shared_complement_cache, shared_quotient_cache, universal, universal_rank, Buchi, BuchiBuilder,
    Inclusion, QuotientCache, RandomConfig, DEFAULT_ANTICHAIN_BUDGET,
};
use safety_liveness::omega::{Alphabet, LassoWord};
use safety_liveness::service::{Json, Service, ServiceConfig};
use sl_support::prop;
use sl_support::prop_assert_eq;
use sl_support::{FaultPlan, SlError};

/// A pool of 120 structurally diverse automata: three shape classes
/// (sparse 3-state, mid-density 4-state, dense 5-state) with 40
/// deterministic seeds each. Small enough that the rank oracle's
/// complement stays feasible in debug builds, large enough that pairs
/// exercise inclusion, non-inclusion, emptiness, and universality.
fn pool() -> Vec<Buchi> {
    let sigma = Alphabet::ab();
    let configs = [
        RandomConfig {
            states: 3,
            density_percent: 50,
            accepting_percent: 40,
        },
        RandomConfig {
            states: 4,
            density_percent: 60,
            accepting_percent: 30,
        },
        RandomConfig {
            states: 5,
            density_percent: 45,
            accepting_percent: 50,
        },
    ];
    let mut machines = Vec::with_capacity(120);
    for (class, cfg) in configs.iter().enumerate() {
        for seed in 0..40u64 {
            machines.push(random_buchi(&sigma, class as u64 * 1009 + seed, *cfg));
        }
    }
    machines
}

/// A counterexample to `L(a) ⊆ L(b)` must lie in `L(a) \ L(b)`.
fn assert_genuine(engine: &str, verdict: &Inclusion, a: &Buchi, b: &Buchi, pair: (usize, usize)) {
    if let Inclusion::CounterExample(w) = verdict {
        assert!(
            a.accepts(w),
            "{engine} counterexample {w} for pair {pair:?} not accepted by the left operand"
        );
        assert!(
            !b.accepts(w),
            "{engine} counterexample {w} for pair {pair:?} accepted by the right operand"
        );
    }
}

#[test]
fn engines_agree_on_inclusion_over_500_pairs() {
    let machines = pool();
    let n = machines.len() as u64;
    let mut compared = 0usize;
    let mut rank_skips = 0usize;
    for k in 0..520u64 {
        // Deterministic quasi-random pair selection (covers i == j too).
        let i = (k.wrapping_mul(7919).wrapping_add(3) % n) as usize;
        let j = (k.wrapping_mul(104_729).wrapping_add(11) % n) as usize;
        let (a, b) = (&machines[i], &machines[j]);
        let of = included(a, b, shared_quotient_cache(), None)
            .expect("on-the-fly budget must not blow on a ≤5-state pair");
        assert_genuine("onthefly", &of, a, b, (i, j));
        let Ok(rk) = included_rank(a, b, shared_complement_cache()) else {
            rank_skips += 1;
            continue;
        };
        assert_eq!(
            of.holds(),
            rk.holds(),
            "engines disagree on pair ({i}, {j}): onthefly {of:?} vs rank {rk:?}"
        );
        assert_genuine("rank", &rk, a, b, (i, j));
        compared += 1;
    }
    assert!(
        compared >= 500,
        "only {compared} pairs compared ({rank_skips} rank-side budget skips)"
    );
}

#[test]
fn engines_agree_on_universality() {
    let machines = pool();
    let mut rank_skips = 0usize;
    for (i, b) in machines.iter().enumerate() {
        let of =
            universal(b, shared_quotient_cache(), None).expect("on-the-fly universality budget");
        if let Err(w) = &of {
            assert!(
                !b.accepts(w),
                "onthefly non-universality witness {w} accepted"
            );
        }
        let Ok(rk) = universal_rank(b, shared_complement_cache()) else {
            rank_skips += 1;
            continue;
        };
        assert_eq!(
            of.is_ok(),
            rk.is_ok(),
            "universality verdicts disagree on pool[{i}]"
        );
        if let Err(w) = &rk {
            assert!(!b.accepts(w), "rank non-universality witness {w} accepted");
        }
    }
    assert!(rank_skips <= 5, "{rank_skips} rank-side universality skips");
}

#[test]
fn engines_agree_on_equivalence() {
    let machines = pool();
    let n = machines.len();
    for k in 0..60usize {
        let i = (k * 13 + 1) % n;
        let j = (k * 29 + 7) % n;
        let (a, b) = (&machines[i], &machines[j]);
        let of =
            equivalent(a, b, shared_quotient_cache(), None).expect("on-the-fly equivalence budget");
        // A separating word must lie in the symmetric difference.
        if let Err(w) = &of {
            assert_ne!(
                a.accepts(w),
                b.accepts(w),
                "onthefly separator {w} separates nothing"
            );
        }
        let Ok(rk) = equivalent_rank(a, b, shared_complement_cache()) else {
            continue;
        };
        assert_eq!(
            of.is_ok(),
            rk.is_ok(),
            "equivalence verdicts disagree on pair ({i}, {j})"
        );
        if let Err(w) = &rk {
            assert_ne!(
                a.accepts(w),
                b.accepts(w),
                "rank separator {w} separates nothing"
            );
        }
    }
}

#[test]
fn prop_engines_agree_on_random_pairs() {
    prop::check(
        "prop_engines_agree_on_random_pairs",
        &(0u64..500, 0u64..500),
        |&(seed1, seed2)| {
            let sigma = Alphabet::ab();
            let cfg = RandomConfig {
                states: 4,
                density_percent: 55,
                accepting_percent: 40,
            };
            let a = random_buchi(&sigma, seed1, cfg);
            let b = random_buchi(&sigma, seed2, cfg);
            let of = included(&a, &b, shared_quotient_cache(), None)
                .map_err(|e| format!("onthefly budget: {e}"))?;
            if let Inclusion::CounterExample(w) = &of {
                prop_assert_eq!(a.accepts(w), true);
                prop_assert_eq!(b.accepts(w), false);
            }
            if let Ok(rk) = included_rank(&a, &b, shared_complement_cache()) {
                prop_assert_eq!(of.holds(), rk.holds());
            }
            Ok(())
        },
    );
}

/// A ring of `n` states over {a, b}: `a: i → i+1`, `b: i → 2i+1 mod n`,
/// only state 0 accepting. No state simulates another, so the quotient
/// keeps all `n` states, and deciding `L(ring) ⊆ Σ^ω` commits up to one
/// macro-state per (state, state, accepting bit) in about `4n²`
/// insertion attempts: inside the default cap of 2^17 at `n = 128`,
/// past it at `n = 256`.
fn ring(n: usize) -> Buchi {
    let sigma = Alphabet::ab();
    let (a, b) = (sigma.symbol("a").unwrap(), sigma.symbol("b").unwrap());
    let mut builder = BuchiBuilder::new(sigma);
    let states: Vec<usize> = (0..n).map(|i| builder.add_state(i == 0)).collect();
    for i in 0..n {
        builder.add_transition(states[i], a, states[(i + 1) % n]);
        builder.add_transition(states[i], b, states[(2 * i + 1) % n]);
    }
    builder.build(states[0])
}

/// `Σ^ω` on two states, each stepping to both on every letter: a
/// nondeterministic right operand, so inclusion into it runs the
/// antichain search, on a quotient that is exactly the one-state
/// [`Buchi::universal`].
fn top() -> Buchi {
    let sigma = Alphabet::ab();
    let mut builder = BuchiBuilder::new(sigma.clone());
    let states = [builder.add_state(true), builder.add_state(true)];
    for from in states {
        for sym in sigma.symbols() {
            for to in states {
                builder.add_transition(from, sym, to);
            }
        }
    }
    builder.build(states[0])
}

/// An unbudgeted search that runs into the default attempt cap reports
/// the phase that ran out — the antichain search — both from the
/// library and on the wire. (It once surfaced as
/// `buchi.complement`, although no complement is ever built.)
#[test]
fn unbudgeted_exhaustion_names_the_antichain_phase() {
    let all = top();
    assert!(!all.is_deterministic());
    assert!(included(&ring(128), &all, &QuotientCache::new(), None)
        .expect("the 128-state ring fits the default cap")
        .holds());
    let err = included(&ring(256), &all, &QuotientCache::new(), None)
        .expect_err("the 256-state ring exhausts the default cap");
    assert_eq!(
        err,
        SlError::BudgetExceeded {
            phase: "buchi.incl.antichain",
            spent: DEFAULT_ANTICHAIN_BUDGET as u64 + 1,
        }
    );

    let service = Service::new(ServiceConfig {
        fault: FaultPlan::disabled(),
        threads: 1,
        ..ServiceConfig::default()
    });
    for (name, automaton) in [("ring", ring(256)), ("top", all)] {
        let define = Json::obj(vec![
            ("verb", Json::Str("define".into())),
            ("name", Json::Str(name.into())),
            ("hoa", Json::Str(hoa::to_hoa(&automaton, name))),
        ]);
        let reply = service.handle_line(&define.render()).line;
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    let reply = service
        .handle_line(r#"{"id":1,"verb":"include","left":"ring","right":"top"}"#)
        .line;
    assert!(
        reply.contains("budget exceeded in buchi.incl.antichain after 131073 steps"),
        "{reply}"
    );
}

/// The product check meters product states against the same default
/// cap, in the same phase: two deterministic rings of 400 and 401
/// states reach more than 2^17 state pairs.
#[test]
fn unbudgeted_product_exhaustion_names_the_same_phase() {
    let (a, b) = (ring(400), ring(401));
    assert!(b.is_deterministic());
    let before = antichain_stats();
    let err = included(&a, &b, &QuotientCache::new(), None)
        .expect_err("the ring product exceeds the default cap");
    assert_eq!(
        err,
        SlError::BudgetExceeded {
            phase: "buchi.incl.antichain",
            spent: DEFAULT_ANTICHAIN_BUDGET as u64 + 1,
        }
    );
    let work = antichain_stats().delta_since(&before);
    assert_eq!((work.product_checks, work.searches), (1, 0), "{work:?}");
    assert_eq!(work.product_states, DEFAULT_ANTICHAIN_BUDGET as u64 + 1);
}

/// Two complete deterministic 16-state automata on which the antichain
/// search made 275M subsumption scans before its attempt cap fired: the
/// product check answers within the default cap, from a few hundred
/// product states.
#[test]
fn the_275m_scan_pair_holds_within_the_default_cap() {
    let sigma = Alphabet::ab();
    let cfg = RandomConfig {
        states: 16,
        density_percent: 160,
        accepting_percent: 30,
    };
    let (a, b) = (random_buchi(&sigma, 0, cfg), random_buchi(&sigma, 500, cfg));
    let before = antichain_stats();
    let verdict = included(&a, &b, &QuotientCache::new(), None).expect("within the default cap");
    assert_eq!(verdict, Inclusion::Holds);
    let work = antichain_stats().delta_since(&before);
    assert_eq!((work.product_checks, work.searches), (1, 0), "{work:?}");
    assert!(work.product_states <= 16 * 17, "{work:?}");
}

/// 64-bit FNV-1a, folding `bytes` into `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The engine's observable output, pinned: the verdict of every
/// question in a seeded corpus, the displayed counterexamples, and the
/// summed work counters. The corpus: 540 random questions over 3–10
/// states, 52 over 16–40 states shaped like `sldbench`'s `solve-cold`
/// automata, and ring questions over 64–130 states, whose word-graph
/// rows span two and three `u64` words.
///
/// The verdict digest was computed with the antichain search alone (the
/// `Vec<Bitset>` word-graph kernel) and must never move: every right
/// operand here is deterministic, so the product check now answers all
/// of them, and it must agree with the search it replaced. The witness
/// digest and the counters were re-pinned when the product check took
/// over: its witnesses are BFS-shortest stems and cycles rather than the
/// antichain's first lasso, and its work is counted in product states.
/// A change to the search order, the witness rule or a charge point
/// moves them.
#[test]
fn search_output_is_pinned_on_a_seeded_corpus() {
    let sigma = Alphabet::ab();
    let cache = QuotientCache::new();
    let small = |k: u64| {
        let cfg = RandomConfig {
            states: 3 + (k % 8) as usize,
            density_percent: 40 + (k * 7 % 50) as u32,
            accepting_percent: 20 + (k * 13 % 40) as u32,
        };
        random_buchi(&sigma, 7_001 + k, cfg)
    };
    let wide = |k: u64| {
        let cfg = RandomConfig {
            states: 16 + (k % 25) as usize,
            density_percent: 65,
            accepting_percent: 30,
        };
        random_buchi(&sigma, 9_001 + k, cfg)
    };
    let all = Buchi::universal(sigma.clone());
    let inclusion = |verdict: Inclusion| match verdict {
        Inclusion::Holds => Ok(()),
        Inclusion::CounterExample(w) => Err(w),
    };
    let mut verdicts = 0xcbf2_9ce4_8422_2325u64;
    let mut witnesses = 0xcbf2_9ce4_8422_2325u64;
    let mut questions = 0usize;
    let before = antichain_stats();
    let mut ask = |kind: &str, verdict: Result<(), LassoWord>| {
        let holds = verdict.is_ok();
        verdicts = fnv1a(verdicts, format!("{questions} {kind} {holds}\n").as_bytes());
        if let Err(w) = verdict {
            witnesses = fnv1a(witnesses, format!("{questions} {kind} {w}\n").as_bytes());
        }
        questions += 1;
    };
    for k in 0..420u64 {
        let verdict = included(&small(k), &small(k * 31 + 5), &cache, None).unwrap();
        ask("incl", inclusion(verdict));
    }
    for k in 0..60u64 {
        let (a, b) = (small(k * 3 + 1), small(k * 17 + 2));
        ask("equiv", equivalent(&a, &b, &cache, None).unwrap());
    }
    for k in 0..60u64 {
        ask("univ", universal(&small(k * 11 + 4), &cache, None).unwrap());
    }
    for k in 0..40u64 {
        let verdict = included(&wide(k), &wide(k * 7 + 3), &cache, None).unwrap();
        ask("incl-wide", inclusion(verdict));
    }
    for k in 0..12u64 {
        let a = wide(k * 5 + 1);
        ask("equiv-self", equivalent(&a, &a, &cache, None).unwrap());
    }
    for n in [64, 65, 70, 100, 130] {
        ask("univ-ring", universal(&ring(n), &cache, None).unwrap());
    }
    for (m, n) in [(65, 130), (66, 65), (64, 128)] {
        let verdict = included(&ring(m), &ring(n), &cache, None).unwrap();
        ask("incl-ring", inclusion(verdict));
    }
    ask(
        "equiv-ring",
        equivalent(&ring(66), &ring(65), &cache, None).unwrap(),
    );
    let verdict = included(&ring(128), &all, &cache, None).unwrap();
    ask("incl-top", inclusion(verdict));
    let work = antichain_stats().delta_since(&before);
    assert_eq!(
        format!("{questions} questions, verdicts {verdicts:#018x}"),
        "602 questions, verdicts 0x7bd1f68e10915ff1"
    );
    let summary = format!(
        "witnesses {witnesses:#018x}, {} searches, {} product checks, {} product states, \
         {} counterexamples",
        work.searches, work.product_checks, work.product_states, work.product_counterexamples
    );
    assert_eq!(
        summary,
        "witnesses 0x58a47208a4348303, 0 searches, 635 product checks, 14932 product states, \
         440 counterexamples"
    );
}
