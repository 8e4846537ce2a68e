//! The paper's branching-time example properties q0–q6 (Section 4.3) —
//! Rem's examples transported to CTL/CTL*.
//!
//! | name | CTL(*)           | classification claims verified in E6 |
//! |------|------------------|----------------------------------------|
//! | q0   | `false`          | universally (hence existentially) safe |
//! | q1   | `a`              | universally safe                       |
//! | q2   | `!a`             | universally safe                       |
//! | q3a  | `a & AF !a`      | `fcl.q3a = q1`, `ncl.q3a ≠ q1`, `ncl.q3a ≠ q3a` |
//! | q3b  | `a & EF !a`      | `ncl.q3b = fcl.q3b = q1`               |
//! | q4a  | `A FG !a`        | `fcl.q4a = A_tot`, `ncl.q4a ≠ A_tot`   |
//! | q4b  | `E FG !a`        | `ncl.q4b = A_tot` (so `fcl.q4b = A_tot`) |
//! | q5a  | `A GF a`         | `fcl.q5a = A_tot`, `ncl.q5a ≠ A_tot`   |
//! | q5b  | `E GF a`         | `ncl.q5b = A_tot` (so `fcl.q5b = A_tot`) |
//! | q6   | `true`           | universally safe (and live)            |

use crate::ctl::{parse_ctl, Ctl};
use crate::regular::RegularTree;
use sl_omega::Alphabet;

/// One branching-time example: name, CTL(*) rendering, and for the
/// universal-path-quantified ones the underlying LTL path formula (used
/// by the absolute `ncl` refutations).
#[derive(Debug, Clone)]
pub struct QExample {
    /// Short name (`q0`, `q3a`, ...).
    pub name: &'static str,
    /// The formula as parsed CTL (with limit operators).
    pub formula: Ctl,
    /// For `A φ`-shaped properties, the path formula `φ` as LTL text.
    pub universal_path: Option<&'static str>,
}

/// All the q-examples over an alphabet containing `a`.
///
/// # Panics
///
/// Panics if the alphabet lacks the symbol `a`.
#[must_use]
pub fn examples(alphabet: &Alphabet) -> Vec<QExample> {
    let make = |name, text: &str, universal_path| QExample {
        name,
        formula: parse_ctl(alphabet, text).expect("q formulas are well-formed"),
        universal_path,
    };
    vec![
        make("q0", "false", None),
        make("q1", "a", Some("a")),
        make("q2", "!a", Some("!a")),
        make("q3a", "a & AF !a", Some("a & F !a")),
        make("q3b", "a & EF !a", None),
        make("q4a", "AFG !a", Some("F G !a")),
        make("q4b", "EFG !a", None),
        make("q5a", "AGF a", Some("G F a")),
        make("q5b", "EGF a", None),
        make("q6", "true", Some("true")),
    ]
}

/// The paper's recurring counterexample witness: a tree with (at least)
/// two paths, one of which is all-`a` — root `a`, left branch constant
/// `a`, right branch constant `b`.
///
/// # Panics
///
/// Panics if the alphabet lacks `a` or `b`.
#[must_use]
pub fn two_path_witness(alphabet: &Alphabet) -> RegularTree {
    let a = alphabet.symbol("a").expect("alphabet has a");
    let b = alphabet.symbol("b").expect("alphabet has b");
    RegularTree::new(
        alphabet.clone(),
        vec![a, a, b],
        vec![vec![1, 2], vec![1], vec![2]],
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closures::{
        fcl_contains_bounded, ncl_contains_bounded, ncl_refuted_by_path, Refutation,
    };
    use crate::regular::{enumerate_regular_trees, RegularTree};
    use sl_ltl::parse;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn by_name(name: &str) -> QExample {
        examples(&sigma())
            .into_iter()
            .find(|e| e.name == name)
            .unwrap()
    }

    fn universe() -> Vec<RegularTree> {
        // All 2-graph-node unary trees and all 1-node binary trees,
        // plus the paper's witness.
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
    fn q1_q2_q6_are_universally_safe_on_universe() {
        // q = fcl.q on the sampled universe: y ∈ fcl.q ⇔ y ∈ q.
        for name in ["q1", "q2", "q6"] {
            let q = by_name(name);
            for y in universe() {
                let in_q = y.satisfies(&q.formula);
                let in_fcl = fcl(&y, &q.formula, 2).is_ok();
                assert_eq!(in_fcl, in_q, "{name} on {y:?}");
            }
        }
    }

    #[test]
    fn q0_closure_is_empty() {
        // fcl.false = false: nothing has extensions in the empty
        // property.
        let q0 = by_name("q0");
        for y in universe() {
            assert!(fcl(&y, &q0.formula, 1).is_err());
        }
    }

    #[test]
    fn fcl_q3a_is_q1() {
        // fcl.q3a = q1 on the universe: a-rooted trees always extend
        // into q3a; b-rooted never do.
        let q3a = by_name("q3a");
        let q1 = by_name("q1");
        for y in universe() {
            let in_fcl = fcl(&y, &q3a.formula, 2).is_ok();
            assert_eq!(in_fcl, y.satisfies(&q1.formula), "{y:?}");
        }
    }

    #[test]
    fn ncl_q3a_differs_from_q1_via_witness() {
        // The witness is in q1 but NOT in ncl.q3a: cutting the b-branch
        // leaves the all-a path, violating a & F !a.
        let s = sigma();
        let y = two_path_witness(&s);
        let q1 = by_name("q1");
        assert!(y.satisfies(&q1.formula));
        let phi = parse(&s, by_name("q3a").universal_path.unwrap()).unwrap();
        assert!(ncl_refuted_by_path(&y, 1, &[vec![1]], &phi));
    }

    #[test]
    fn ncl_q3a_differs_from_q3a_via_sequences() {
        // a^ω ∈ ncl.q3a \ q3a.
        let s = sigma();
        let a_seq = RegularTree::constant(s.clone(), s.symbol("a").unwrap(), 1);
        let q3a = by_name("q3a");
        assert!(!a_seq.satisfies(&q3a.formula));
        ncl(&a_seq, &q3a.formula).unwrap();
    }

    #[test]
    fn ncl_and_fcl_of_q3b_are_q1() {
        let q3b = by_name("q3b");
        let q1 = by_name("q1");
        for y in universe() {
            let in_q1 = y.satisfies(&q1.formula);
            let in_fcl = fcl(&y, &q3b.formula, 2).is_ok();
            assert_eq!(in_fcl, in_q1, "fcl.q3b = q1 fails on {y:?}");
            let in_ncl = ncl(&y, &q3b.formula).is_ok();
            assert_eq!(in_ncl, in_q1, "ncl.q3b = q1 fails on {y:?}");
        }
    }

    #[test]
    fn fcl_q4a_q5a_are_universal() {
        // Every sampled tree is in fcl.q4a and fcl.q5a.
        for name in ["q4a", "q5a"] {
            let q = by_name(name);
            for y in universe() {
                fcl(&y, &q.formula, 2)
                    .unwrap_or_else(|e| panic!("{name} refuted on {y:?} at depth {}", e.depth));
            }
        }
    }

    #[test]
    fn ncl_q4a_q5a_not_universal() {
        // The witness tree fails both, absolutely.
        let s = sigma();
        let y = two_path_witness(&s);
        let q4a_path = parse(&s, "F G !a").unwrap();
        assert!(ncl_refuted_by_path(&y, 1, &[vec![1]], &q4a_path));
        let q5a_path = parse(&s, "G F a").unwrap();
        assert!(ncl_refuted_by_path(&y, 1, &[vec![0]], &q5a_path));
    }

    #[test]
    fn ncl_q4b_q5b_universal_on_universe() {
        for (name, _cont_sym) in [("q4b", "b"), ("q5b", "a")] {
            let q = by_name(name);
            for y in universe() {
                ncl(&y, &q.formula)
                    .unwrap_or_else(|e| panic!("{name} refuted on {y:?} at depth {}", e.depth));
            }
        }
    }

    #[test]
    fn sequences_inside_ncl_q4a_q5a() {
        // "trees can be sequences": every unary lasso tree is in
        // ncl.q4a and ncl.q5a (prefixes of sequences are finite paths;
        // complete with b^ω / a^ω respectively).
        let s = sigma();
        for w in sl_omega::all_lassos(&s, 1, 2) {
            let y = RegularTree::from_lasso(&w, s.clone(), 1);
            for name in ["q4a", "q5a"] {
                let q = by_name(name);
                ncl(&y, &q.formula)
                    .unwrap_or_else(|e| panic!("{name} on {w} at depth {}", e.depth));
            }
        }
    }

    #[test]
    fn theorem5_hypotheses_for_af_a() {
        // AF a: fcl = A_tot (bounded), ncl < A_tot (absolute via the
        // two-path witness with the all-b branch kept).
        let s = sigma();
        let af_a = parse_ctl(&s, "AF a").unwrap();
        for y in universe() {
            fcl(&y, &af_a, 2).unwrap();
        }
        // A witness with an all-b path from the root: root b, one
        // branch all-b, the other all-a.
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let witness = RegularTree::new(
            s.clone(),
            vec![b, b, a],
            vec![vec![1, 2], vec![1], vec![2]],
            0,
        );
        let path = parse(&s, "F a").unwrap();
        // Keep only the all-b branch: it violates F a, so no extension
        // of the pruned prefix satisfies AF a.
        assert!(ncl_refuted_by_path(&witness, 1, &[vec![1]], &path));
    }
}
