//! Cross-crate integration: the paper's lattice theorems checked
//! exhaustively on the corpus of modular complemented lattices, and the
//! bridge between the abstract lattice layer and the concrete automata
//! instantiation.

use safety_liveness::lattice::{
    all_decompositions, classify, decompose, decompose_pair_checked, enumerate_closures, figure1,
    figure2, generators, lemma4_holds, no_decomposition_exists, theorem5_applies,
    theorem6_strongest_safety, theorem7_weakest_liveness, verify_decomposition, Classification,
    Closure, LatticeError,
};
use sl_conform::{Factor, LatticeCase};
use sl_support::prop::case_rng;

#[test]
fn theorem2_exhaustive_on_corpus() {
    // Every element of every corpus lattice decomposes under every
    // closure.
    for (name, lattice) in generators::modular_complemented_corpus() {
        if lattice.len() > 10 {
            // Closure enumeration is exponential; sample instead.
            for seed in 0..20 {
                let cl = safety_liveness::lattice::random_closure(&lattice, seed);
                for a in 0..lattice.len() {
                    let d = decompose(&lattice, &cl, a)
                        .unwrap_or_else(|e| panic!("{name}, seed {seed}, element {a}: {e}"));
                    assert!(verify_decomposition(&lattice, &cl, &cl, &a, &d));
                }
            }
        } else {
            for cl in enumerate_closures(&lattice, None).unwrap() {
                for a in 0..lattice.len() {
                    let d = decompose(&lattice, &cl, a)
                        .unwrap_or_else(|e| panic!("{name}, element {a}: {e}"));
                    assert!(verify_decomposition(&lattice, &cl, &cl, &a, &d));
                }
            }
        }
    }
}

#[test]
fn theorem3_two_closure_variant_on_b3() {
    let lattice = generators::boolean(3);
    let closures = enumerate_closures(&lattice, None).unwrap();
    for cl1 in &closures {
        for cl2 in &closures {
            if !cl1.pointwise_leq(&lattice, cl2) {
                continue;
            }
            for a in 0..lattice.len() {
                let d = decompose_pair_checked(&lattice, cl1, cl2, a).unwrap();
                assert!(verify_decomposition(&lattice, cl1, cl2, &a, &d));
            }
        }
    }
}

#[test]
fn lemma4_holds_everywhere_on_corpus() {
    for (name, lattice) in generators::modular_complemented_corpus() {
        if lattice.len() > 10 {
            continue;
        }
        for cl in enumerate_closures(&lattice, None).unwrap() {
            for a in 0..lattice.len() {
                assert!(lemma4_holds(&lattice, &cl, a), "{name}, element {a}");
            }
        }
    }
}

#[test]
fn figure1_the_modularity_counterexample() {
    let fig = figure1();
    // The lattice is not modular, and the decomposition genuinely fails
    // for element a — matching Lemma 6.
    assert!(!fig.lattice.is_modular());
    assert!(all_decompositions(&fig.lattice, &fig.closure, &fig.closure, fig.a).is_empty());
    // Every OTHER element still decomposes (the failure is pinpointed).
    for x in 0..fig.lattice.len() {
        if x == fig.a {
            continue;
        }
        assert!(
            !all_decompositions(&fig.lattice, &fig.closure, &fig.closure, x).is_empty(),
            "element {x} should decompose"
        );
    }
}

#[test]
fn figure2_the_distributivity_counterexample() {
    let fig = figure2();
    assert!(fig.lattice.is_modular() && !fig.lattice.is_distributive());
    // Theorem 7's conclusion fails: z is not below a ∨ b.
    let join = fig.lattice.join(fig.a, fig.b);
    assert!(!fig.lattice.leq(fig.z, join));
    // The checker refuses the non-distributive lattice outright.
    assert!(theorem7_weakest_liveness(&fig.lattice, &fig.closure, &fig.closure, fig.a).is_err());
}

#[test]
fn theorem5_impossibility_on_corpus() {
    // For every corpus lattice: whenever cl2.a = 1 and cl1.a < 1, the
    // "fourth combination" (cl2-safety ∧ cl1-liveness) has no
    // decomposition.
    for (name, lattice) in generators::modular_complemented_corpus() {
        if lattice.len() > 8 {
            continue;
        }
        let closures = enumerate_closures(&lattice, None).unwrap();
        for cl1 in &closures {
            for cl2 in &closures {
                if !cl1.pointwise_leq(&lattice, cl2) {
                    continue;
                }
                for a in 0..lattice.len() {
                    if theorem5_applies(&lattice, cl1, cl2, a) {
                        assert!(
                            no_decomposition_exists(&lattice, cl2, cl1, a),
                            "{name}: Theorem 5 violated at {a}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn theorem6_and_7_on_distributive_corpus() {
    for (name, lattice) in generators::distributive_corpus() {
        if lattice.len() > 12 || !lattice.is_complemented() {
            continue;
        }
        for cl in enumerate_closures(&lattice, None).unwrap() {
            for a in 0..lattice.len() {
                let strongest = theorem6_strongest_safety(&lattice, &cl, &cl, a)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(strongest, cl.apply(a));
                let weakest = theorem7_weakest_liveness(&lattice, &cl, &cl, a)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                let d = decompose(&lattice, &cl, a).unwrap();
                assert_eq!(d.safety, strongest);
                assert_eq!(d.liveness, weakest);
            }
        }
    }
}

#[test]
fn classification_matches_automata_classification() {
    // The same trichotomy shows up at both layers: on the finite
    // lattice side with an abstract closure, and on the automata side
    // with the language closure. Sanity-bridge: classify both the
    // elements of a powerset lattice of lasso words (finite universe)
    // and the corresponding Büchi automata... here we check the lattice
    // layer's classification labels are consistent with their
    // definitions.
    let lattice = generators::boolean(3);
    let cl = Closure::from_fixpoints(&lattice, &[0b110, 0b111]).unwrap();
    for a in 0..lattice.len() {
        let c = classify(&lattice, &cl, a);
        match c {
            Classification::Safety => assert!(cl.is_safety(a) && !cl.is_liveness(&lattice, a)),
            Classification::Liveness => assert!(!cl.is_safety(a) && cl.is_liveness(&lattice, a)),
            Classification::Both => assert!(cl.is_safety(a) && cl.is_liveness(&lattice, a)),
            Classification::Neither => {
                assert!(!cl.is_safety(a) && !cl.is_liveness(&lattice, a));
            }
        }
    }
}

#[test]
fn partition_lattice_is_complemented_but_not_modular() {
    // The partition lattice for n >= 4 is complemented but not modular:
    // Theorem 2's constructive decomposition can fail there, which the
    // checked API reports rather than silently mis-decomposing.
    let (lattice, _) = generators::partition_lattice(4);
    assert!(!lattice.is_modular());
    assert!(lattice.is_complemented());
    let mut failures = 0;
    for seed in 0..10 {
        let cl = safety_liveness::lattice::random_closure(&lattice, seed);
        for a in 0..lattice.len() {
            if decompose(&lattice, &cl, a).is_err() {
                failures += 1;
            }
        }
    }
    // Non-modularity must bite at least once across the sweep (the
    // identity closure never fails, so the assertion is meaningful).
    assert!(failures > 0, "expected some decomposition failures");
}

/// Theorems 5, 6, and 7 over randomly generated modular complemented
/// lattices (products of Boolean and M3 factors drawn by the
/// sl-conform recipe generator), with random closure pairs cl1 <= cl2.
/// Complements Theorem 5's exhaustive corpus sweep above with lattices
/// and closures the corpus does not contain.
#[test]
fn theorems_5_6_7_on_random_modular_lattices() {
    let mut saw_nondistributive = 0;
    let mut saw_theorem5 = 0;
    for case in 0..48u32 {
        let mut rng = case_rng(0x5157, "lattice_theorems.random_modular", case);
        let recipe = sl_conform::gen::gen_lattice(&mut rng);
        let (lattice, cl1, cl2) = recipe.build();
        assert!(lattice.is_modular() && lattice.is_complemented());
        assert!(cl1.pointwise_leq(&lattice, &cl2));
        let distributive = lattice.is_distributive();
        if !distributive {
            saw_nondistributive += 1;
        }
        for a in 0..lattice.len() {
            if theorem5_applies(&lattice, &cl1, &cl2, a) {
                saw_theorem5 += 1;
                assert!(
                    no_decomposition_exists(&lattice, &cl2, &cl1, a),
                    "Theorem 5 violated: case {case}, element {a}"
                );
            }
            let strongest = theorem6_strongest_safety(&lattice, &cl1, &cl2, a)
                .unwrap_or_else(|e| panic!("Theorem 6 failed: case {case}, element {a}: {e:?}"));
            assert_eq!(strongest, cl1.apply(a), "case {case}, element {a}");
            match theorem7_weakest_liveness(&lattice, &cl1, &cl2, a) {
                Ok(weakest) => {
                    assert!(distributive, "Theorem 7 accepted M3 factor: case {case}");
                    assert_eq!(
                        lattice.meet(strongest, weakest),
                        a,
                        "Theorem 7 parts do not recompose: case {case}, element {a}"
                    );
                }
                Err(LatticeError::HypothesisViolated("distributivity")) => {
                    assert!(!distributive, "spurious refusal: case {case}, element {a}");
                }
                Err(e) => panic!("Theorem 7 failed: case {case}, element {a}: {e:?}"),
            }
        }
    }
    // The sweep must actually exercise both negative-control branches.
    assert!(saw_nondistributive > 0, "no M3-factor lattice drawn");
    assert!(saw_theorem5 > 0, "Theorem 5 hypotheses never held");
}

/// Negative controls for the randomized sweep: the pentagon N5 (not
/// modular) and the explicit recipe `[M3]` (modular, not distributive)
/// sit exactly on the two hypothesis boundaries, mirroring the paper's
/// Figure 1 and Figure 2 counterexamples.
#[test]
fn n5_and_m3_negative_controls() {
    // N5: complemented but not modular, so it is outside the recipe
    // space, and Theorem 2's construction must fail somewhere.
    let n5 = generators::n5();
    assert!(n5.is_complemented() && !n5.is_modular());
    let mut failures = 0;
    for cl in enumerate_closures(&n5, None).unwrap() {
        for a in 0..n5.len() {
            if decompose(&n5, &cl, a).is_err() {
                failures += 1;
            }
        }
    }
    assert!(failures > 0, "N5 should defeat some decomposition");

    // M3 via the recipe: modular and complemented, so Theorems 2/3/5/6
    // all go through, but Theorem 7 issues its typed distributivity
    // refusal for every element.
    let recipe = LatticeCase {
        factors: vec![Factor::M3],
        fix2: vec![4],
        extra1: vec![1],
    };
    let (m3, cl1, cl2) = recipe.build();
    assert!(m3.is_modular() && m3.is_complemented() && !m3.is_distributive());
    for a in 0..m3.len() {
        let d = decompose_pair_checked(&m3, &cl1, &cl2, a).unwrap();
        assert!(verify_decomposition(&m3, &cl1, &cl2, &a, &d));
        assert!(matches!(
            theorem7_weakest_liveness(&m3, &cl1, &cl2, a),
            Err(LatticeError::HypothesisViolated("distributivity"))
        ));
    }
}
