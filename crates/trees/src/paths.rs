//! Path quantification over Kripke structures with LTL path formulas —
//! the bridge between the branching world and the linear-time machinery.
//!
//! `E φ` ("some path from the initial state satisfies the LTL formula
//! φ") is decided exactly by translating φ to a Büchi automaton
//! (`sl-ltl`), forming the product with the structure, and searching for
//! a reachable accepting cycle. `A φ` is `¬E ¬φ`. This gives exact
//! deciders for all the CTL* shapes the paper's Section 4.3 examples
//! use, and is cross-checked against the dedicated limit-operator
//! implementations in [`crate::ctl`].

use crate::kripke::Kripke;
use sl_buchi::Buchi;
use sl_ltl::{translate, Ltl};
use sl_support::SccWalk;

/// Whether some path from the initial state satisfies the LTL formula.
///
/// # Panics
///
/// Panics if the formula has more than 64 until-subformulas in
/// negation normal form ([`translate()`] panics there).
#[must_use]
pub fn exists_path(kripke: &Kripke, formula: &Ltl) -> bool {
    let nba = translate(kripke.alphabet(), formula);
    exists_accepted_path(kripke, &nba)
}

/// Whether every path from the initial state satisfies the formula.
///
/// # Panics
///
/// Panics if the formula's negation has more than 64 until-subformulas in
/// negation normal form ([`translate()`] panics there).
#[must_use]
pub fn all_paths(kripke: &Kripke, formula: &Ltl) -> bool {
    !exists_path(kripke, &formula.clone().not())
}

/// Whether some path's label word is accepted by the automaton: one
/// SCC walk over the product of the structure and the automaton, from
/// the initial pair, that stops at the first cyclic component holding
/// an accepting automaton state.
#[must_use]
pub fn exists_accepted_path(kripke: &Kripke, nba: &Buchi) -> bool {
    let nq = nba.num_states();
    // Product node `s·|Q| + q`. Its `i`-th successor pairs the
    // automaton's `i / d`-th successor on `s`'s label with the
    // structure's `i % d`-th successor, where `d ≥ 1` is `s`'s
    // out-degree.
    let succ = |v: usize, i: usize| {
        let (s, q) = (v / nq, v % nq);
        let next = kripke.successors(s);
        let qn = nba.successors(q, kripke.label(s)).get(i / next.len())?;
        Some(next[i % next.len()] * nq + qn)
    };
    let good = |members: &[usize]| {
        members
            .iter()
            .any(|&v| nba.is_accepting(v % nq))
            .then_some(())
    };
    SccWalk::new(kripke.len() * nq)
        .walk(kripke.initial() * nq + nba.initial(), succ, good)
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::{parse_ctl, satisfies};
    use crate::regular::enumerate_regular_trees;
    use sl_buchi::random_nondeterministic;
    use sl_ltl::parse;
    use sl_omega::{Alphabet, Symbol};
    use sl_support::SplitMix;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// 0(a) -> {0, 1}; 1(b) -> {1}.
    fn simple() -> Kripke {
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        Kripke::new(s, vec![a, b], vec![vec![0, 1], vec![1]], 0)
    }

    #[test]
    fn exists_and_forall_basics() {
        let s = sigma();
        let k = simple();
        assert!(exists_path(&k, &parse(&s, "G a").unwrap()));
        assert!(exists_path(&k, &parse(&s, "F b").unwrap()));
        assert!(!all_paths(&k, &parse(&s, "F b").unwrap()));
        assert!(all_paths(&k, &parse(&s, "a").unwrap()));
        assert!(!exists_path(&k, &parse(&s, "G b").unwrap()));
        // Starting at 1 everything is b forever.
        assert!(all_paths(&k.rooted_at(1), &parse(&s, "G b").unwrap()));
    }

    #[test]
    fn limit_operators_agree_with_path_quantification() {
        // Differential: the dedicated graph algorithms for EGF/EFG/AGF/
        // AFG in the CTL checker must agree with the automaton-product
        // deciders on every 2-node-width-2 regular tree.
        let s = sigma();
        let gfa = parse(&s, "G F a").unwrap();
        let fga = parse(&s, "F G a").unwrap();
        for t in enumerate_regular_trees(&s, 2, 2) {
            let k = t.to_kripke();
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "EGF a").unwrap()),
                exists_path(&k, &gfa),
                "EGF mismatch on {t:?}"
            );
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "EFG a").unwrap()),
                exists_path(&k, &fga),
                "EFG mismatch on {t:?}"
            );
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "AGF a").unwrap()),
                all_paths(&k, &gfa),
                "AGF mismatch on {t:?}"
            );
            assert_eq!(
                satisfies(&k, &parse_ctl(&s, "AFG a").unwrap()),
                all_paths(&k, &fga),
                "AFG mismatch on {t:?}"
            );
        }
    }

    #[test]
    fn ctl_af_agrees_with_path_f() {
        // AF p on trees = A (F p) for propositional p: cross-check on a
        // universe of regular trees.
        let s = sigma();
        let fa = parse(&s, "F a").unwrap();
        let af = parse_ctl(&s, "AF a").unwrap();
        for t in enumerate_regular_trees(&s, 2, 2) {
            let k = t.to_kripke();
            assert_eq!(satisfies(&k, &af), all_paths(&k, &fa), "{t:?}");
        }
    }

    /// 64-bit FNV-1a, folding `bytes` into `hash`.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// [`exists_accepted_path`] pinned on seeded pairs: structures of
    /// 1–12 states with one to three successors each, against nine
    /// translated formulas and one random nondeterministic automaton
    /// per structure. The digest was computed before the product search
    /// ran on the shared SCC walk.
    #[test]
    fn exists_accepted_path_is_pinned_on_seeded_pairs() {
        let s = sigma();
        let texts = [
            "G a",
            "F b",
            "G F a",
            "F G b",
            "a U b",
            "b R a",
            "G (a -> X b)",
            "X X a",
            "F (a & X G b)",
        ];
        let formulas: Vec<Buchi> = texts
            .iter()
            .map(|text| translate(&s, &parse(&s, text).unwrap()))
            .collect();
        let mut rng = SplitMix::new(0x9A7B);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let (mut pairs, mut accepted) = (0, 0);
        for seed in 0..80u64 {
            let n = 1 + rng.below(12);
            let mut labels = Vec::new();
            let mut succ = Vec::new();
            for _ in 0..n {
                labels.push(Symbol(rng.below(2) as u16));
                let degree = 1 + rng.below(3);
                succ.push((0..degree).map(|_| rng.below(n)).collect::<Vec<_>>());
            }
            let k = Kripke::new(s.clone(), labels, succ, rng.below(n));
            let nba = random_nondeterministic(&s, rng.next_u64(), 1 + rng.below(6), 120, 40);
            for (j, b) in formulas.iter().chain([&nba]).enumerate() {
                let verdict = exists_accepted_path(&k, b);
                digest = fnv1a(digest, format!("{seed} {j} {verdict}\n").as_bytes());
                pairs += 1;
                accepted += usize::from(verdict);
            }
        }
        assert_eq!(
            format!("{pairs} pairs, {accepted} accepted, digest {digest:#018x}"),
            "800 pairs, 513 accepted, digest 0x9c320bf6399f0d12"
        );
    }

    #[test]
    fn next_operator_through_product() {
        let s = sigma();
        let k = simple();
        assert!(exists_path(&k, &parse(&s, "X b").unwrap()));
        assert!(exists_path(&k, &parse(&s, "X a").unwrap()));
        assert!(!all_paths(&k, &parse(&s, "X b").unwrap()));
    }
}
