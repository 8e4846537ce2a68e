//! E8 — Section 4.4 / Theorem 9: Rabin tree automata and `rfcl`.
//!
//! Builds Büchi/Rabin tree automata for branching properties, computes
//! the `rfcl` closure via per-state emptiness games (index appearance
//! records → parity → Zielonka), cross-checks `L(rfcl B) = fcl(L(B))`
//! against the bounded tree-level oracle, and verifies the Theorem 9
//! decomposition identity tree by tree (liveness side as the decidable
//! predicate `t ∈ L(B) ∪ ¬L(rfcl B)` — see the substitution note in
//! DESIGN.md).

use sl_bench::{header, Scoreboard};
use sl_omega::Alphabet;
use sl_rabin::{accepts, decompose, is_empty, rfcl, RabinTreeAutomaton, RabinTreeBuilder};
use sl_trees::{enumerate_regular_trees, fcl_contains_bounded, parse_ctl, RegularTree};
use std::process::ExitCode;

/// AF b over binary trees.
fn af_b(sigma: &Alphabet) -> RabinTreeAutomaton {
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let mut builder = RabinTreeBuilder::new(sigma.clone(), 2);
    let wait = builder.add_state();
    let done = builder.add_state();
    builder.add_transition(wait, a, &[wait, wait]);
    builder.add_transition(wait, b, &[done, done]);
    builder.add_transition(done, a, &[done, done]);
    builder.add_transition(done, b, &[done, done]);
    builder.build_buchi(wait, &[done])
}

/// "Root is a" over binary trees (safety-shaped).
fn root_a(sigma: &Alphabet) -> RabinTreeAutomaton {
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let mut builder = RabinTreeBuilder::new(sigma.clone(), 2);
    let start = builder.add_state();
    let any = builder.add_state();
    builder.add_transition(start, a, &[any, any]);
    builder.add_transition(any, a, &[any, any]);
    builder.add_transition(any, b, &[any, any]);
    builder.build_buchi(start, &[any])
}

/// A genuine two-pair Rabin automaton over binary trees: every path
/// either eventually stays in `a` or eventually stays in `b`.
fn eventually_settles(sigma: &Alphabet) -> RabinTreeAutomaton {
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let mut builder = RabinTreeBuilder::new(sigma.clone(), 2);
    let in_a = builder.add_state();
    let in_b = builder.add_state();
    builder.add_transition(in_a, a, &[in_a, in_a]);
    builder.add_transition(in_a, b, &[in_b, in_b]);
    builder.add_transition(in_b, b, &[in_b, in_b]);
    builder.add_transition(in_b, a, &[in_a, in_a]);
    // Pair 1: settle in a (green in_a, red in_b); pair 2 dually.
    builder.build_rabin(in_a, &[(vec![in_a], vec![in_b]), (vec![in_b], vec![in_a])])
}

fn main() -> ExitCode {
    header("E8", "Rabin tree automata and the rfcl closure (Theorem 9)");
    let sigma = Alphabet::ab();
    let samples: Vec<RegularTree> = enumerate_regular_trees(&sigma, 2, 2);
    println!(
        "sample trees: {} (all 2-graph-node binary regular trees)\n",
        samples.len()
    );
    let mut board = Scoreboard::new();

    println!(
        "{:<20} {:>6} {:>7} {:>9} {:>10} {:>10}",
        "automaton", "states", "tuples", "empty?", "|L| (smp)", "|rfcl L|"
    );
    for (name, automaton) in [
        ("AF b (buchi)", af_b(&sigma)),
        ("root-a (safety)", root_a(&sigma)),
        ("settles (2-pair)", eventually_settles(&sigma)),
    ] {
        let closure = rfcl(&automaton);
        let in_l = samples.iter().filter(|t| accepts(&automaton, t)).count();
        let in_cl = samples.iter().filter(|t| accepts(&closure, t)).count();
        println!(
            "{:<20} {:>6} {:>7} {:>9} {:>10} {:>10}",
            name,
            automaton.num_states(),
            automaton.num_transitions(),
            is_empty(&automaton),
            in_l,
            in_cl
        );

        // Extensivity and idempotence on samples.
        let extensive = samples
            .iter()
            .all(|t| !accepts(&automaton, t) || accepts(&closure, t));
        let closure2 = rfcl(&closure);
        let idempotent = samples
            .iter()
            .all(|t| accepts(&closure, t) == accepts(&closure2, t));
        board.claim(&format!("{name}: rfcl extensive on samples"), extensive);
        board.claim(&format!("{name}: rfcl idempotent on samples"), idempotent);

        // Theorem 9 decomposition identity.
        let d = decompose(&automaton);
        board.claim(
            &format!("{name}: L(B) = L(B_safe) /\\ L(B_live) on all samples"),
            d.check_on(&samples).is_none(),
        );
    }

    // Cross-check rfcl against the tree-level fcl oracle for AF b.
    let automaton = af_b(&sigma);
    let closure = rfcl(&automaton);
    let af_b_ctl = parse_ctl(&sigma, "AF b").unwrap();
    let continuations = vec![
        RegularTree::constant(sigma.clone(), sigma.symbol("a").unwrap(), 2),
        RegularTree::constant(sigma.clone(), sigma.symbol("b").unwrap(), 2),
    ];
    let matches = samples.iter().all(|t| {
        accepts(&closure, t)
            == fcl_contains_bounded(t, &af_b_ctl, 2, &continuations, 2, None)
                .expect("an unmetered fcl check has no error path")
                .is_ok()
    });
    board.claim(
        "L(rfcl B_AFb) = fcl(L(B_AFb)) vs bounded tree oracle",
        matches,
    );

    // And membership of the base automaton against CTL.
    let agrees = samples
        .iter()
        .all(|t| accepts(&automaton, t) == t.satisfies(&af_b_ctl));
    board.claim(
        "Rabin membership agrees with CTL model checking (AF b)",
        agrees,
    );
    board.finish()
}
