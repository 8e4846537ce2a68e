//! Formula-level safety/liveness classification and decomposition.
//!
//! For a property given as an LTL formula, the complement language is
//! available for free — translate the *negated* formula — so the
//! classification and decomposition avoid rank-based Büchi
//! complementation entirely:
//!
//! * `L(φ)` is **safe** iff `L(cl B_φ) ∩ L(B_¬φ) = ∅`;
//! * `L(φ)` is **live** iff `¬L(cl B_φ)` is empty (cheap subset
//!   complement of an all-accepting automaton);
//! * the decomposition's parts are `cl(B_φ)` and `B_φ ∪ ¬cl(B_φ)`,
//!   with `¬(liveness part)` computable as `B_¬φ ∩ cl(B_φ)` for
//!   inclusion checks.
//!
//! This is the practical payoff of the closure-operator view: *all* the
//! decision procedures for LTL-defined properties run on polynomial
//! constructions over the tableau automata.

use crate::ast::Ltl;
use crate::translate::translate;
use sl_buchi::{
    closure, complement_safety, find_accepted_word, included_with_complement, intersection, union,
    Buchi, Classification, Inclusion,
};
use sl_omega::{Alphabet, LassoWord};

/// Whether `L(φ)` is a safety property.
///
/// # Panics
///
/// Panics if the formula or its negation has more than 64
/// until-subformulas in negation normal form ([`translate`] panics there).
#[must_use]
pub fn is_safety_formula(alphabet: &Alphabet, formula: &Ltl) -> bool {
    let automaton = translate(alphabet, formula);
    let negated = translate(alphabet, &formula.clone().not());
    included_with_complement(&closure(&automaton), &negated).holds()
}

/// Whether `L(φ)` is a liveness property.
///
/// # Panics
///
/// Panics if the formula has more than 64 until-subformulas in
/// negation normal form ([`translate`] panics there).
#[must_use]
pub fn is_liveness_formula(alphabet: &Alphabet, formula: &Ltl) -> bool {
    let automaton = translate(alphabet, formula);
    let cl = closure(&automaton);
    find_accepted_word(&complement_safety(&cl)).is_none()
}

/// Classifies `L(φ)` into the paper's trichotomy.
///
/// # Panics
///
/// Panics if the formula or its negation has more than 64
/// until-subformulas in negation normal form ([`translate`] panics there).
#[must_use]
pub fn classify_formula(alphabet: &Alphabet, formula: &Ltl) -> Classification {
    match (
        is_safety_formula(alphabet, formula),
        is_liveness_formula(alphabet, formula),
    ) {
        (true, true) => Classification::Both,
        (true, false) => Classification::Safety,
        (false, true) => Classification::Liveness,
        (false, false) => Classification::Neither,
    }
}

/// The decomposition of an LTL property with complement automata for
/// both parts, enabling inclusion checks against arbitrary systems
/// without rank-based complementation.
#[derive(Debug, Clone)]
pub struct FormulaDecomposition {
    /// `B_φ`, the property automaton.
    pub automaton: Buchi,
    /// `B_S = cl(B_φ)` — the safety part (strongest safety property
    /// containing `L(φ)`, per Theorem 6).
    pub safety: Buchi,
    /// `B_L = B_φ ∪ ¬B_S` — the liveness part.
    pub liveness: Buchi,
    /// `¬B_S` (subset-construction complement of the closure).
    pub not_safety: Buchi,
    /// `¬B_L = B_¬φ ∩ B_S`.
    pub not_liveness: Buchi,
}

/// Decomposes `φ` with ready-made complements.
///
/// # Panics
///
/// Panics if the formula or its negation has more than 64
/// until-subformulas in negation normal form ([`translate`] panics there).
#[must_use]
pub fn decompose_formula(alphabet: &Alphabet, formula: &Ltl) -> FormulaDecomposition {
    let automaton = translate(alphabet, formula);
    let negated = translate(alphabet, &formula.clone().not());
    let safety = closure(&automaton);
    let not_safety = complement_safety(&safety);
    let liveness = union(&automaton, &not_safety);
    let not_liveness = intersection(&negated, &safety);
    FormulaDecomposition {
        automaton,
        safety,
        liveness,
        not_safety,
        not_liveness,
    }
}

impl FormulaDecomposition {
    /// Checks `L(system) ⊆ L(B_S)` (the monitorable half).
    #[must_use]
    pub fn system_satisfies_safety(&self, system: &Buchi) -> Inclusion {
        included_with_complement(system, &self.not_safety)
    }

    /// Checks `L(system) ⊆ L(B_L)` (the liveness half).
    #[must_use]
    pub fn system_satisfies_liveness(&self, system: &Buchi) -> Inclusion {
        included_with_complement(system, &self.not_liveness)
    }

    /// Checks the decomposition identity on a lasso word.
    #[must_use]
    pub fn identity_holds_on(&self, word: &LassoWord) -> bool {
        self.automaton.accepts(word) == (self.safety.accepts(word) && self.liveness.accepts(word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use sl_omega::all_lassos;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    #[test]
    fn rem_classifications_via_formula_route() {
        let s = sigma();
        let table = [
            ("false", Classification::Safety),
            ("a", Classification::Safety),
            ("!a", Classification::Safety),
            ("a & F !a", Classification::Neither),
            ("F G !a", Classification::Liveness),
            ("G F a", Classification::Liveness),
            ("true", Classification::Both),
        ];
        for (text, want) in table {
            let f = parse(&s, text).unwrap();
            assert_eq!(classify_formula(&s, &f), want, "{text}");
        }
    }

    #[test]
    fn formula_route_agrees_with_automaton_route() {
        let s = sigma();
        for text in ["a U b", "b R a", "X a", "G (a -> X b)"] {
            let f = parse(&s, text).unwrap();
            let m = translate(&s, &f);
            assert_eq!(
                classify_formula(&s, &f),
                sl_buchi::classify(&m).unwrap(),
                "{text}"
            );
        }
    }

    #[test]
    fn bigger_formulas_classify_without_blowup() {
        // These defeat the rank-based route but are fine here.
        let s = Alphabet::new(&["c1", "c2", "idle"]);
        let f = parse(&s, "G (c1 -> X (!c1 W c2)) & G (c2 -> X (!c2 W c1))").unwrap();
        assert_eq!(classify_formula(&s, &f), Classification::Safety);
        let f = parse(&s, "(G F c1) & (G F c2)").unwrap();
        assert_eq!(classify_formula(&s, &f), Classification::Liveness);
    }

    #[test]
    fn formula_decomposition_identity() {
        let s = sigma();
        for text in ["a & F !a", "a U b", "G F a"] {
            let f = parse(&s, text).unwrap();
            let d = decompose_formula(&s, &f);
            for w in all_lassos(&s, 3, 3) {
                assert!(d.identity_holds_on(&w), "{text} on {w}");
            }
        }
    }

    #[test]
    fn complements_are_genuine_on_samples() {
        let s = sigma();
        let f = parse(&s, "a & F !a").unwrap();
        let d = decompose_formula(&s, &f);
        for w in all_lassos(&s, 2, 3) {
            assert_ne!(d.safety.accepts(&w), d.not_safety.accepts(&w), "{w}");
            assert_ne!(d.liveness.accepts(&w), d.not_liveness.accepts(&w), "{w}");
        }
    }

    #[test]
    fn system_checks() {
        // The universal system violates the safety half of `a` but
        // satisfies the liveness half of `G F a`.
        let s = sigma();
        let universal = Buchi::universal(s.clone());
        let d = decompose_formula(&s, &parse(&s, "a").unwrap());
        assert!(!d.system_satisfies_safety(&universal).holds());
        let d = decompose_formula(&s, &parse(&s, "G F a").unwrap());
        assert!(d.system_satisfies_safety(&universal).holds());
        assert!(!d.system_satisfies_liveness(&universal).holds());
    }
}
