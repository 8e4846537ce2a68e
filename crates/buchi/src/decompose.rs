//! The Alpern–Schneider decomposition for Büchi automata, derived from
//! the paper's Theorem 2.
//!
//! With `cl` the closure operator on automata and complementation
//! available, every ω-regular language decomposes as
//!
//! ```text
//! L(B) = L(cl B) ∩ ( L(B) ∪ ¬L(cl B) )
//!        \_______/   \__________________/
//!          safety           liveness
//! ```
//!
//! exactly the instantiation of `a = cl.a /\ (a \/ b)` with
//! `b = ¬(cl.a)` in the Boolean algebra of ω-regular languages. Note
//! that only the *closure* automaton is complemented, and closure
//! automata are all-accepting, so the cheap subset-construction
//! complement suffices — no rank-based construction is needed to build
//! the decomposition.

use crate::automaton::Buchi;
use crate::classify::{is_liveness, is_safety};
use crate::closure::closure;
use crate::complement::complement_safety;
use crate::incl::equivalent;
use crate::interned::shared_quotient_cache;
use crate::ops::{intersection, union};
use sl_omega::{all_lassos, LassoWord};
use sl_support::SlError;

/// The two components of the decomposition, plus the complement used.
#[derive(Debug, Clone)]
pub struct BuchiDecomposition {
    /// `B_S = cl(B)`: recognizes `lcl(L(B))`, a safety property.
    pub safety: Buchi,
    /// `B_L = B ∪ ¬cl(B)`: recognizes a liveness property.
    pub liveness: Buchi,
    /// `¬cl(B)`, the complement that went into the union.
    pub complement: Buchi,
}

/// Decomposes `B` into safety and liveness automata per Theorem 2.
#[must_use]
pub fn decompose(b: &Buchi) -> BuchiDecomposition {
    let safety = closure(b);
    let complement = complement_safety(&safety);
    let liveness = union(b, &complement);
    BuchiDecomposition {
        safety,
        liveness,
        complement,
    }
}

impl BuchiDecomposition {
    /// Checks the decomposition on every lasso word within the bounds:
    /// membership in `B` must equal membership in `B_S ∩ B_L`.
    /// Returns the first counterexample, if any.
    #[must_use]
    pub fn check_sampled(&self, b: &Buchi, max_stem: usize, max_cycle: usize) -> Option<LassoWord> {
        all_lassos(b.alphabet(), max_stem, max_cycle)
            .into_iter()
            .find(|w| b.accepts(w) != (self.safety.accepts(w) && self.liveness.accepts(w)))
    }

    /// Exactly verifies the three claims of the decomposition theorem:
    /// `L(B_S)` is safe, `L(B_L)` is live, and
    /// `L(B) = L(B_S) ∩ L(B_L)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SlError::BudgetExceeded`] from the equivalence and
    /// safety checks on larger automata.
    pub fn verify_exact(&self, b: &Buchi) -> Result<bool, SlError> {
        if !is_safety(&self.safety)? {
            return Ok(false);
        }
        if !is_liveness(&self.liveness)? {
            return Ok(false);
        }
        let both = intersection(&self.safety, &self.liveness);
        Ok(equivalent(b, &both, shared_quotient_cache(), None)?.is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn inf_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        builder.build(q0)
    }

    /// a ∧ F ¬a — Rem's p3, the canonical "neither" property.
    fn p3(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let wait = builder.add_state(false);
        let done = builder.add_state(true);
        builder.add_transition(q0, a, wait);
        builder.add_transition(wait, a, wait);
        builder.add_transition(wait, b, done);
        builder.add_transition(done, a, done);
        builder.add_transition(done, b, done);
        builder.build(q0)
    }

    #[test]
    fn decomposition_of_p3_sampled_and_exact() {
        let s = sigma();
        let m = p3(&s);
        let d = decompose(&m);
        assert_eq!(d.check_sampled(&m, 3, 3), None);
        assert!(d.verify_exact(&m).unwrap());
    }

    #[test]
    fn decomposition_of_liveness_has_trivial_safety_part() {
        let s = sigma();
        let m = inf_a(&s);
        let d = decompose(&m);
        // cl(GF a) = Σ^ω: the safety part accepts everything.
        for w in all_lassos(&s, 2, 3) {
            assert!(d.safety.accepts(&w));
        }
        assert_eq!(d.check_sampled(&m, 3, 3), None);
        assert!(d.verify_exact(&m).unwrap());
    }

    #[test]
    fn decomposition_of_safety_has_trivial_liveness_part() {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        let q1 = builder.add_state(true);
        builder.add_transition(q0, a, q1);
        builder.add_transition(q1, a, q1);
        builder.add_transition(q1, b, q1);
        let m = builder.build(q0);
        let d = decompose(&m);
        // L(B_L) = L(B) ∪ ¬L(B) = Σ^ω for a safety property.
        for w in all_lassos(&s, 2, 3) {
            assert!(d.liveness.accepts(&w), "{w}");
        }
        assert!(d.verify_exact(&m).unwrap());
    }

    #[test]
    fn decomposition_of_empty_language() {
        let s = sigma();
        let m = Buchi::empty_language(s.clone());
        let d = decompose(&m);
        // Safety part is ∅, liveness part is Σ^ω.
        assert_eq!(d.check_sampled(&m, 2, 2), None);
        assert!(d.verify_exact(&m).unwrap());
    }

    #[test]
    fn decomposition_of_universal_language() {
        let s = sigma();
        let m = Buchi::universal(s.clone());
        let d = decompose(&m);
        assert_eq!(d.check_sampled(&m, 2, 2), None);
        assert!(d.verify_exact(&m).unwrap());
    }

    #[test]
    fn machine_closure_of_the_decomposition() {
        // Theorem 6 instantiated: the safety part is exactly cl(B), the
        // strongest safety property containing L(B).
        let s = sigma();
        let m = p3(&s);
        let d = decompose(&m);
        let cl = closure(&m);
        assert!(equivalent(&d.safety, &cl, shared_quotient_cache(), None)
            .unwrap()
            .is_ok());
    }
}
