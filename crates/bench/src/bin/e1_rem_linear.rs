//! E1 — Section 2.3 example table: Rem's linear-time properties.
//!
//! Reproduces the paper's classification of p0–p6 (safety / liveness /
//! neither), the closure identities `lcl.p3 = p1` and
//! `lcl.p4 = lcl.p5 = Σ^ω`, and cross-checks every automaton against
//! the semantic oracle on a lasso corpus.

use sl_bench::{header, Scoreboard};
use sl_buchi::{closure, equivalent, shared_quotient_cache, universal, Classification};
use sl_ltl::{classify_formula, rem_examples, translate};
use sl_omega::{all_lassos, rem, Alphabet, LinearProperty};
use std::process::ExitCode;

fn main() -> ExitCode {
    header("E1", "Rem's linear-time examples (paper Section 2.3)");
    let sigma = Alphabet::ab();
    let examples = rem_examples(&sigma);
    let expected = [
        ("p0", Classification::Safety, "safety (empty property)"),
        ("p1", Classification::Safety, "safety"),
        ("p2", Classification::Safety, "safety"),
        ("p3", Classification::Neither, "neither (closure is p1)"),
        (
            "p4",
            Classification::Liveness,
            "liveness (closure is Sigma^w)",
        ),
        (
            "p5",
            Classification::Liveness,
            "liveness (closure is Sigma^w)",
        ),
        ("p6", Classification::Both, "both (Sigma^w)"),
    ];

    let mut board = Scoreboard::new();
    println!(
        "{:<4} {:<12} {:<28} {:<10} {:<10}",
        "name", "LTL", "informal", "paper", "measured"
    );
    for (example, (name, want, note)) in examples.iter().zip(expected) {
        let got = classify_formula(&sigma, &example.formula);
        println!(
            "{:<4} {:<12} {:<28} {:<10} {:<10}",
            name,
            example.formula.display(&sigma),
            &example.informal[..example.informal.len().min(28)],
            note.split(' ').next().unwrap_or(""),
            got
        );
        board.claim(&format!("{name} classified as {want}"), got == want);
    }

    // Closure identities.
    let automaton = |i: usize| translate(&sigma, &examples[i].formula);
    board.claim(
        "lcl.p3 = p1",
        equivalent(
            &closure(&automaton(3)),
            &automaton(1),
            shared_quotient_cache(),
            None,
        )
        .map(|r| r.is_ok())
        .unwrap_or(false),
    );
    for i in [4, 5] {
        board.claim(
            &format!("lcl.p{i} = Sigma^w"),
            universal(&closure(&automaton(i)), shared_quotient_cache(), None)
                .map(|r| r.is_ok())
                .unwrap_or(false),
        );
    }

    // Semantic cross-check on the lasso corpus.
    let oracles = rem::all(&sigma);
    let corpus = all_lassos(&sigma, 3, 3);
    let mut agreement = true;
    for (example, oracle) in examples.iter().zip(&oracles) {
        let m = translate(&sigma, &example.formula);
        for w in &corpus {
            if m.accepts(w) != oracle.contains(w) {
                agreement = false;
            }
        }
    }
    board.claim(
        &format!(
            "automata agree with semantic oracles on {} lasso words",
            corpus.len()
        ),
        agreement,
    );
    board.finish()
}
