//! The finite-depth closure `rfcl` on Rabin tree automata and the
//! Theorem 9 decomposition.
//!
//! Section 4.4: if `L(B) = ∅` then `rfcl.B = B`; otherwise restrict to
//! the states `q` with `L(B(q)) ≠ ∅` and replace the acceptance with
//! the trivial condition generated from `(Q', ∅)` (every run accepts).
//! The paper (citing its reference \[14\]) shows `L(rfcl.B) = fcl(L(B))`.
//!
//! **Substitution note (DESIGN.md §3.2):** Theorem 9's liveness side is
//! `B_live` with `L(B_live) = L(B) ∪ ¬L(rfcl.B)`, whose construction
//! as an *automaton* requires Rabin tree-automaton complementation
//! (Rabin's theorem) — out of scope. We realize the liveness side as
//! the decidable per-tree predicate `t ∈ L(B) ∨ t ∉ L(rfcl.B)`
//! ([`Decomposition::liveness_contains`]), which suffices to verify the
//! decomposition identity tree by tree.

use crate::automaton::RabinTreeAutomaton;
use crate::games::{accepts, is_empty, nonempty_states};
use sl_trees::RegularTree;

/// The finite-depth closure of a Rabin tree automaton.
#[must_use]
pub fn rfcl(automaton: &RabinTreeAutomaton) -> RabinTreeAutomaton {
    if is_empty(automaton) {
        return automaton.clone();
    }
    let keep = nonempty_states(automaton);
    automaton.restrict_and_trivialize(&keep)
}

/// Whether `L(B)` is an (existentially/universally, per the trivialized
/// condition) *safe* tree language: `L(rfcl.B) ⊆ L(B)` checked on the
/// given sample trees (the reverse inclusion always holds).
/// Returns the first counterexample tree index, if any.
#[must_use]
pub fn safety_counterexample(
    automaton: &RabinTreeAutomaton,
    samples: &[RegularTree],
) -> Option<usize> {
    let closure = rfcl(automaton);
    samples
        .iter()
        .position(|t| accepts(&closure, t) && !accepts(automaton, t))
}

/// The Theorem 9 decomposition: a safety automaton plus the liveness
/// side as a decidable predicate.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The original automaton.
    pub automaton: RabinTreeAutomaton,
    /// `B_safe = rfcl(B)`; `L(B_safe) = fcl(L(B))`.
    pub safe: RabinTreeAutomaton,
}

/// Decomposes per Theorem 9 (with the complementation substitution).
#[must_use]
pub fn decompose(automaton: &RabinTreeAutomaton) -> Decomposition {
    Decomposition {
        automaton: automaton.clone(),
        safe: rfcl(automaton),
    }
}

impl Decomposition {
    /// Membership in the liveness side `L(B) ∪ ¬L(rfcl.B)`.
    #[must_use]
    pub fn liveness_contains(&self, tree: &RegularTree) -> bool {
        accepts(&self.automaton, tree) || !accepts(&self.safe, tree)
    }

    /// Membership in the safety side.
    #[must_use]
    pub fn safety_contains(&self, tree: &RegularTree) -> bool {
        accepts(&self.safe, tree)
    }

    /// Verifies the decomposition identity
    /// `L(B) = L(B_safe) ∩ L(B_live)` on the given trees; returns the
    /// first violating index.
    #[must_use]
    pub fn check_on(&self, samples: &[RegularTree]) -> Option<usize> {
        samples.iter().position(|t| {
            accepts(&self.automaton, t) != (self.safety_contains(t) && self.liveness_contains(t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::RabinTreeBuilder;
    use sl_omega::Alphabet;
    use sl_trees::{enumerate_regular_trees, RegularTree};

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// AF b over binary trees (Büchi condition).
    fn af_b_binary() -> RabinTreeAutomaton {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let bb = s.symbol("b").unwrap();
        let mut b = RabinTreeBuilder::new(s, 2);
        let wait = b.add_state();
        let done = b.add_state();
        b.add_transition(wait, a, &[wait, wait]);
        b.add_transition(wait, bb, &[done, done]);
        b.add_transition(done, a, &[done, done]);
        b.add_transition(done, bb, &[done, done]);
        b.build_buchi(wait, &[done])
    }

    /// "Root is a" over binary trees — a safety-shaped language.
    fn root_a_binary() -> RabinTreeAutomaton {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let bb = s.symbol("b").unwrap();
        let mut b = RabinTreeBuilder::new(s, 2);
        let start = b.add_state();
        let any = b.add_state();
        b.add_transition(start, a, &[any, any]);
        b.add_transition(any, a, &[any, any]);
        b.add_transition(any, bb, &[any, any]);
        b.build_buchi(start, &[any])
    }

    fn samples() -> Vec<RegularTree> {
        let s = sigma();
        let mut trees = enumerate_regular_trees(&s, 2, 2);
        // A binary version of the paper's two-path witness: root a,
        // left subtree all-a, right subtree all-b.
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        trees.push(RegularTree::new(
            s.clone(),
            vec![a, a, b],
            vec![vec![1, 2], vec![1, 1], vec![2, 2]],
            0,
        ));
        trees
    }

    #[test]
    fn rfcl_of_empty_is_identity() {
        let s = sigma();
        let mut b = RabinTreeBuilder::new(s, 1);
        let q0 = b.add_state();
        let m = b.build_buchi(q0, &[q0]);
        assert!(is_empty(&m));
        assert_eq!(rfcl(&m), m);
    }

    #[test]
    fn rfcl_is_extensive_on_samples() {
        let m = af_b_binary();
        let c = rfcl(&m);
        for t in samples() {
            if accepts(&m, &t) {
                assert!(accepts(&c, &t), "extensivity failed on {t:?}");
            }
        }
    }

    #[test]
    fn rfcl_is_idempotent_on_samples() {
        let m = af_b_binary();
        let c = rfcl(&m);
        let cc = rfcl(&c);
        for t in samples() {
            assert_eq!(accepts(&c, &t), accepts(&cc, &t), "{t:?}");
        }
    }

    #[test]
    fn rfcl_of_af_b_is_universal_on_samples() {
        // fcl(AF b) = A_tot: every finite truncation extends with b's.
        let m = af_b_binary();
        let c = rfcl(&m);
        for t in samples() {
            assert!(accepts(&c, &t), "closure should accept {t:?}");
        }
    }

    #[test]
    fn rfcl_matches_bounded_fcl_oracle() {
        // Cross-check L(rfcl B) against the bounded fcl checker from
        // sl-trees, for the AF b property (whose CTL form we know).
        let s = sigma();
        let m = af_b_binary();
        let c = rfcl(&m);
        let af_b = sl_trees::parse_ctl(&s, "AF b").unwrap();
        let continuations = vec![
            RegularTree::constant(s.clone(), s.symbol("a").unwrap(), 2),
            RegularTree::constant(s.clone(), s.symbol("b").unwrap(), 2),
        ];
        for t in samples() {
            let in_closure = accepts(&c, &t);
            let oracle = sl_trees::fcl_contains_bounded(&t, &af_b, 2, &continuations, 2, None)
                .unwrap()
                .is_ok();
            assert_eq!(in_closure, oracle, "{t:?}");
        }
    }

    #[test]
    fn safety_language_is_its_own_closure() {
        let m = root_a_binary();
        assert_eq!(safety_counterexample(&m, &samples()), None);
    }

    #[test]
    fn liveness_language_is_not_safe() {
        let m = af_b_binary();
        // rfcl(AF b) accepts everything, but AF b itself does not:
        // safety fails with a counterexample.
        assert!(safety_counterexample(&m, &samples()).is_some());
    }

    #[test]
    fn theorem9_decomposition_on_samples() {
        for m in [af_b_binary(), root_a_binary()] {
            let d = decompose(&m);
            assert_eq!(d.check_on(&samples()), None);
        }
    }

    #[test]
    fn liveness_side_is_dense_on_samples() {
        // Every sample tree is in fcl of the liveness side — here we
        // check the weaker, decidable statement that the liveness side
        // contains every tree OUTSIDE the closure and every tree in
        // L(B).
        let m = af_b_binary();
        let d = decompose(&m);
        for t in samples() {
            if accepts(&m, &t) || !d.safety_contains(&t) {
                assert!(d.liveness_contains(&t));
            }
        }
    }
}
