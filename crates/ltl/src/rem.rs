//! Martin Rem's example properties (paper, Section 2.3) as LTL formulas.
//!
//! The paper translates the seven properties to LTL as:
//!
//! | name | informal                                       | LTL        |
//! |------|------------------------------------------------|------------|
//! | p0   | false                                          | `false`    |
//! | p1   | first symbol is `a`                            | `a`        |
//! | p2   | first symbol differs from `a`                  | `!a`       |
//! | p3   | starts with `a`, later a non-`a`               | `a & F !a` |
//! | p4   | finitely many `a`s                             | `F G !a`   |
//! | p5   | infinitely many `a`s                           | `G F a`    |
//! | p6   | true                                           | `true`     |
//!
//! The classifications the paper reports — p0, p1, p2, p6 safety; p3
//! neither (its closure is p1); p4, p5 liveness (closures Σ^ω) — are
//! regenerated by experiment E1 in the benchmark harness.

use crate::ast::Ltl;
use crate::parse::parse;
use sl_omega::Alphabet;

/// One of Rem's examples: name, informal reading, and formula.
#[derive(Debug, Clone)]
pub struct RemExample {
    /// Short name, `p0` through `p6`.
    pub name: &'static str,
    /// The informal description from the paper.
    pub informal: &'static str,
    /// The LTL rendering.
    pub formula: Ltl,
}

/// All seven examples over an alphabet containing the symbol `a`.
///
/// # Panics
///
/// Panics if the alphabet has no symbol named `a`.
#[must_use]
pub fn examples(alphabet: &Alphabet) -> Vec<RemExample> {
    let make = |name, informal, text: &str| RemExample {
        name,
        informal,
        formula: parse(alphabet, text).expect("rem formulas are well-formed"),
    };
    vec![
        make("p0", "false (the empty property)", "false"),
        make("p1", "the first symbol of t is a", "a"),
        make("p2", "the first symbol of t differs from a", "!a"),
        make(
            "p3",
            "the first symbol is a and t contains a symbol that differs from a",
            "a & F !a",
        ),
        make("p4", "the number of a's in t is finite", "F G !a"),
        make("p5", "the number of a's in t is infinite", "G F a"),
        make("p6", "true (all of Sigma^omega)", "true"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::translate::translate;
    use sl_buchi::classify::{classify, Classification};
    use sl_buchi::{closure, equivalent, shared_quotient_cache};
    use sl_omega::{all_lassos, LinearProperty};

    #[test]
    fn seven_examples() {
        let s = Alphabet::ab();
        let ex = examples(&s);
        assert_eq!(ex.len(), 7);
        assert_eq!(ex[3].name, "p3");
    }

    #[test]
    fn formulas_agree_with_semantic_oracles() {
        let s = Alphabet::ab();
        let oracles = sl_omega::rem::all(&s);
        for (example, oracle) in examples(&s).iter().zip(&oracles) {
            for w in all_lassos(&s, 2, 3) {
                assert_eq!(
                    eval(&example.formula, &w),
                    oracle.contains(&w),
                    "{} vs {} on {w}",
                    example.name,
                    oracle.name()
                );
            }
        }
    }

    #[test]
    fn paper_classifications_reproduced() {
        // The headline table of Section 2.3.
        let s = Alphabet::ab();
        let expected = [
            Classification::Safety,   // p0 = ∅
            Classification::Safety,   // p1
            Classification::Safety,   // p2
            Classification::Neither,  // p3
            Classification::Liveness, // p4
            Classification::Liveness, // p5
            Classification::Both,     // p6 = Σ^ω
        ];
        for (example, want) in examples(&s).iter().zip(expected) {
            let m = translate(&s, &example.formula);
            assert_eq!(
                classify(&m).unwrap(),
                want,
                "{} misclassified",
                example.name
            );
        }
    }

    #[test]
    fn closure_of_p3_is_p1() {
        // The paper: "The closure of p3 is p1".
        let s = Alphabet::ab();
        let ex = examples(&s);
        let p3 = translate(&s, &ex[3].formula);
        let p1 = translate(&s, &ex[1].formula);
        assert!(
            equivalent(&closure(&p3), &p1, shared_quotient_cache(), None)
                .unwrap()
                .is_ok()
        );
    }

    #[test]
    fn closures_of_p4_p5_are_universal() {
        // The paper: "The closures of p4 and p5 are both Σ^ω".
        let s = Alphabet::ab();
        let ex = examples(&s);
        for i in [4, 5] {
            let m = translate(&s, &ex[i].formula);
            assert!(
                sl_buchi::universal(&closure(&m), shared_quotient_cache(), None)
                    .unwrap()
                    .is_ok(),
                "closure of {} should be universal",
                ex[i].name
            );
        }
    }
}
