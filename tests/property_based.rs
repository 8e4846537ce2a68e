//! Property-based tests (on the in-tree `sl_support::prop` harness)
//! over the whole workspace: random formulas, words, posets, lattices,
//! closures, games, and automata.
//!
//! This is the strategy-for-strategy port of the old `proptest` suite:
//! the same twelve properties over the same input distributions, now
//! generated by the zero-dependency harness (`SL_PROP_CASES` /
//! `SL_PROP_SEED` configure case counts and replay seeds).

use safety_liveness::buchi::{
    closure, complement_safety, decompose, intersection, random_buchi, union, RandomConfig,
};
use safety_liveness::games::{solve, verify, ParityGame, Player};
use safety_liveness::lattice::{
    decompose as lattice_decompose, generators, random_closure, verify_decomposition, Poset,
};
use safety_liveness::ltl::{eval, nnf, simplify, translate, Ltl};
use safety_liveness::omega::{all_lassos, Alphabet, LassoWord, Symbol, Word};
use sl_support::prop::{self, SBox, StrategyExt};
use sl_support::{prop_assert, prop_assert_eq, prop_assert_ne};

fn sigma() -> Alphabet {
    Alphabet::ab()
}

/// Strategy: arbitrary LTL formulas over {a, b} of bounded depth.
fn ltl_strategy() -> SBox<Ltl> {
    let leaf = prop::sample(vec![
        Ltl::True,
        Ltl::False,
        Ltl::Ap(Symbol(0)),
        Ltl::Ap(Symbol(1)),
    ])
    .boxed();
    prop::recursive(leaf, 3, |inner| {
        prop::one_of(vec![
            inner.clone().prop_map(|f| f.not()).boxed(),
            inner.clone().prop_map(|f| f.next()).boxed(),
            inner.clone().prop_map(|f| f.finally()).boxed(),
            inner.clone().prop_map(|f| f.globally()).boxed(),
            (inner.clone(), inner.clone())
                .prop_map(|(f, g)| f.and(g))
                .boxed(),
            (inner.clone(), inner.clone())
                .prop_map(|(f, g)| f.or(g))
                .boxed(),
            (inner.clone(), inner.clone())
                .prop_map(|(f, g)| f.until(g))
                .boxed(),
            (inner.clone(), inner)
                .prop_map(|(f, g)| f.release(g))
                .boxed(),
        ])
        .boxed()
    })
}

/// Strategy: lasso words with stems and cycles over {a, b}.
fn lasso_strategy() -> SBox<LassoWord> {
    (prop::vec_of(0u16..2, 0..4), prop::vec_of(0u16..2, 1..4))
        .prop_map(|(stem, cycle)| {
            let stem: Word = stem.into_iter().map(Symbol).collect();
            let cycle: Word = cycle.into_iter().map(Symbol).collect();
            LassoWord::new(&stem, &cycle)
        })
        .boxed()
}

#[test]
fn nnf_and_simplify_preserve_semantics() {
    prop::check(
        "nnf_and_simplify_preserve_semantics",
        &(ltl_strategy(), lasso_strategy()),
        |(f, w)| {
            let direct = eval(f, w);
            prop_assert_eq!(eval(&nnf(f), w), direct);
            prop_assert_eq!(eval(&simplify(f), w), direct);
            Ok(())
        },
    );
}

#[test]
fn translation_agrees_with_evaluation() {
    prop::check(
        "translation_agrees_with_evaluation",
        &(ltl_strategy(), lasso_strategy()),
        |(f, w)| {
            let s = sigma();
            let m = translate(&s, f);
            prop_assert_eq!(m.accepts(w), eval(f, w));
            Ok(())
        },
    );
}

#[test]
fn lasso_normalization_is_semantic() {
    prop::check(
        "lasso_normalization_is_semantic",
        &(
            prop::vec_of(0u16..2, 0..4),
            prop::vec_of(0u16..2, 1..4),
            0usize..3,
        ),
        |(stem, cycle, unroll)| {
            // Unrolling the cycle into the stem leaves the word unchanged.
            let stem: Word = stem.iter().copied().map(Symbol).collect();
            let cycle: Word = cycle.iter().copied().map(Symbol).collect();
            let original = LassoWord::new(&stem, &cycle);
            let mut extended_stem = stem;
            for _ in 0..*unroll {
                extended_stem = extended_stem.concat(&cycle);
            }
            let unrolled = LassoWord::new(&extended_stem, &cycle);
            prop_assert_eq!(&original, &unrolled);
            // And positions agree far out.
            for i in 0..12 {
                prop_assert_eq!(original.at(i), unrolled.at(i));
            }
            Ok(())
        },
    );
}

#[test]
fn lasso_suffix_shifts_positions() {
    prop::check(
        "lasso_suffix_shifts_positions",
        &(lasso_strategy(), 0usize..6, 0usize..6),
        |(w, k, i)| {
            prop_assert_eq!(w.suffix(*k).at(*i), w.at(k + i));
            Ok(())
        },
    );
}

#[test]
fn downsets_of_random_posets_are_distributive_lattices() {
    prop::check(
        "downsets_of_random_posets_are_distributive_lattices",
        &prop::vec_of((0usize..5, 0usize..5), 0..8),
        |edges| {
            // Build a DAG by orienting edges upward; down-sets must form a
            // distributive lattice (Birkhoff).
            let covers: Vec<(usize, usize)> =
                edges.iter().copied().filter(|(a, b)| a < b).collect();
            let poset = Poset::from_covers(5, &covers).unwrap();
            let (lattice, _) = generators::downset_lattice(&poset).unwrap();
            prop_assert!(lattice.is_distributive());
            prop_assert!(lattice.is_modular());
            Ok(())
        },
    );
}

#[test]
fn random_closures_satisfy_closure_laws() {
    prop::check(
        "random_closures_satisfy_closure_laws",
        &(0u64..500),
        |&seed| {
            let lattice = generators::boolean(3);
            let cl = random_closure(&lattice, seed);
            for a in 0..lattice.len() {
                prop_assert!(lattice.leq(a, cl.apply(a)));
                prop_assert_eq!(cl.apply(cl.apply(a)), cl.apply(a));
                for b in 0..lattice.len() {
                    if lattice.leq(a, b) {
                        prop_assert!(lattice.leq(cl.apply(a), cl.apply(b)));
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn decomposition_on_random_closures() {
    prop::check(
        "decomposition_on_random_closures",
        &(0u64..200, 0usize..8),
        |&(seed, element)| {
            let lattice = generators::boolean(3);
            let cl = random_closure(&lattice, seed);
            let d = lattice_decompose(&lattice, &cl, element).unwrap();
            prop_assert!(verify_decomposition(&lattice, &cl, &cl, &element, &d));
            Ok(())
        },
    );
}

#[test]
fn zielonka_solutions_verify() {
    prop::check(
        "zielonka_solutions_verify",
        &(
            prop::vec_of(prop::bools(), 2..8),
            prop::vec_of(0u32..6, 2..8),
            prop::vec_of((0usize..8, 0usize..8), 1..20),
        ),
        |(owners, priorities, raw_edges)| {
            let n = owners.len().min(priorities.len());
            let owners: Vec<Player> = owners[..n]
                .iter()
                .map(|&b| if b { Player::Even } else { Player::Odd })
                .collect();
            let priorities = priorities[..n].to_vec();
            let mut succ = vec![Vec::new(); n];
            for &(a, b) in raw_edges {
                let (a, b) = (a % n, b % n);
                if !succ[a].contains(&b) {
                    succ[a].push(b);
                }
            }
            for (v, outs) in succ.iter_mut().enumerate() {
                if outs.is_empty() {
                    outs.push(v); // ensure totality
                }
            }
            let game = ParityGame::new(owners, priorities, succ);
            let solution = solve(&game, None).unwrap();
            prop_assert!(verify(&game, &solution).is_ok());
            Ok(())
        },
    );
}

#[test]
fn buchi_boolean_operations_are_semantic() {
    prop::check(
        "buchi_boolean_operations_are_semantic",
        &(0u64..50, 0u64..50),
        |&(seed1, seed2)| {
            let s = sigma();
            let cfg = RandomConfig {
                states: 4,
                ..RandomConfig::default()
            };
            let m1 = random_buchi(&s, seed1, cfg);
            let m2 = random_buchi(&s, seed2, cfg);
            let u = union(&m1, &m2);
            let i = intersection(&m1, &m2);
            for w in all_lassos(&s, 2, 2) {
                prop_assert_eq!(u.accepts(&w), m1.accepts(&w) || m2.accepts(&w));
                prop_assert_eq!(i.accepts(&w), m1.accepts(&w) && m2.accepts(&w));
            }
            Ok(())
        },
    );
}

#[test]
fn closure_complement_partition() {
    prop::check("closure_complement_partition", &(0u64..80), |&seed| {
        // For random machines: cl(B) and ¬cl(B) partition Σ^ω.
        let s = sigma();
        let m = random_buchi(
            &s,
            seed,
            RandomConfig {
                states: 4,
                ..RandomConfig::default()
            },
        );
        let cl = closure(&m);
        let not_cl = complement_safety(&cl);
        for w in all_lassos(&s, 2, 2) {
            prop_assert_ne!(cl.accepts(&w), not_cl.accepts(&w));
        }
        Ok(())
    });
}

#[test]
fn random_decompositions_meet_back() {
    prop::check("random_decompositions_meet_back", &(0u64..80), |&seed| {
        let s = sigma();
        let m = random_buchi(
            &s,
            seed,
            RandomConfig {
                states: 4,
                ..RandomConfig::default()
            },
        );
        let d = decompose(&m);
        prop_assert_eq!(d.check_sampled(&m, 2, 3), None);
        Ok(())
    });
}

#[test]
fn hoa_round_trips_random_automata() {
    prop::check("hoa_round_trips_random_automata", &(0u64..120), |&seed| {
        // The daemon's automaton ingest: from_hoa(to_hoa(B)) must
        // reproduce B exactly — same alphabet, states, accepting set,
        // transitions, and initial state — over a 3-symbol alphabet and
        // varying densities.
        use safety_liveness::buchi::hoa::{from_hoa, to_hoa};
        let s = Alphabet::new(&["a", "b", "c"]);
        let m = random_buchi(
            &s,
            seed,
            RandomConfig {
                states: 1 + (seed as usize % 6),
                density_percent: 20 + seed as u32 % 70,
                ..RandomConfig::default()
            },
        );
        let text = to_hoa(&m, &format!("prop-{seed}"));
        let back = from_hoa(&text).map_err(|e| format!("rejected own output: {e}"))?;
        prop_assert_eq!(&back, &m);
        // And the round-trip is idempotent at the text level too.
        prop_assert_eq!(to_hoa(&back, &format!("prop-{seed}")), text);
        Ok(())
    });
}

/// The straightforward renderer `to_hoa` must stay byte-identical to:
/// one `format!`ed, `join`ed one-hot label per state × symbol.
fn reference_hoa(b: &safety_liveness::buchi::Buchi, name: &str) -> String {
    use std::fmt::Write as _;
    let sigma = b.alphabet();
    let mut out = String::new();
    let _ = writeln!(out, "HOA: v1");
    let _ = writeln!(out, "name: \"{name}\"");
    let _ = writeln!(out, "States: {}", b.num_states());
    let _ = writeln!(out, "Start: {}", b.initial());
    let aps: Vec<String> = sigma
        .symbols()
        .map(|s| format!("\"{}\"", sigma.name(s)))
        .collect();
    let _ = writeln!(out, "AP: {} {}", sigma.len(), aps.join(" "));
    let _ = writeln!(out, "acc-name: Buchi");
    let _ = writeln!(out, "Acceptance: 1 Inf(0)");
    let _ = writeln!(out, "properties: trans-labels explicit-labels state-acc");
    let _ = writeln!(out, "--BODY--");
    for q in 0..b.num_states() {
        if b.is_accepting(q) {
            let _ = writeln!(out, "State: {q} {{0}}");
        } else {
            let _ = writeln!(out, "State: {q}");
        }
        for sym in sigma.symbols() {
            let label: Vec<String> = sigma
                .symbols()
                .map(|s| {
                    if s == sym {
                        format!("{}", s.index())
                    } else {
                        format!("!{}", s.index())
                    }
                })
                .collect();
            for &succ in b.successors(q, sym) {
                let _ = writeln!(out, "[{}] {succ}", label.join("&"));
            }
        }
    }
    let _ = writeln!(out, "--END--");
    out
}

#[test]
fn hoa_rendering_is_byte_identical_to_the_reference_renderer() {
    prop::check(
        "hoa_rendering_is_byte_identical_to_the_reference_renderer",
        &(0u64..200),
        |&seed| {
            use safety_liveness::buchi::hoa::to_hoa;
            let names = ["a", "b", "c", "d", "e"];
            let s = Alphabet::new(&names[..1 + (seed as usize % names.len())]);
            let m = random_buchi(
                &s,
                seed,
                RandomConfig {
                    states: 1 + (seed as usize % 9),
                    density_percent: 10 + seed as u32 % 80,
                    ..RandomConfig::default()
                },
            );
            let name = format!("ref-{seed}");
            prop_assert_eq!(to_hoa(&m, &name), reference_hoa(&m, &name));
            Ok(())
        },
    );
}

#[test]
fn finite_tree_prefix_laws() {
    prop::check(
        "finite_tree_prefix_laws",
        &(prop::vec_of(0u16..2, 1..6), prop::vec_of(0u16..2, 1..6)),
        |(labels1, labels2)| {
            // Build two random unary-path trees and check the prefix order
            // is reflexive/antisymmetric/transitive-ish on them.
            use safety_liveness::trees::FiniteTree;
            let path_tree = |labels: &[u16]| {
                let entries: Vec<(Vec<u32>, Symbol)> = labels
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (vec![0u32; i], Symbol(l)))
                    .collect();
                FiniteTree::from_entries(&entries).unwrap()
            };
            let t1 = path_tree(labels1);
            let t2 = path_tree(labels2);
            prop_assert!(t1.is_prefix_of(&t1));
            if t1.is_prefix_of(&t2) && t2.is_prefix_of(&t1) {
                prop_assert_eq!(&t1, &t2);
            }
            // Concatenation produces extensions.
            let joined = t1.concat(&t2);
            prop_assert!(t1.is_prefix_of(&joined));
            Ok(())
        },
    );
}
