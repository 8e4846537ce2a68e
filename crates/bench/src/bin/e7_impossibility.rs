//! E7 — Theorem 5 and Theorem 4: the impossible fourth combination.
//!
//! Theorem 4 gives three feasible safety/liveness combinations in
//! branching time (ES∧EL, US∧UL, ES∧UL); Theorem 5 rules out the
//! fourth (US∧EL) whenever `fcl.a = A_tot` but `ncl.a < A_tot` — the
//! CTL property `AF a` being the paper's example. This experiment:
//!
//! 1. verifies Theorem 5 exhaustively at the lattice level (all corpus
//!    lattices, all closure pairs `cl1 <= cl2`), and
//! 2. verifies the `AF a` hypotheses concretely over regular trees
//!    (bounded `fcl` universality, absolute `ncl` refutation).

use sl_bench::{header, Scoreboard};
use sl_lattice::{enumerate_closures, generators, no_decomposition_exists, theorem5_applies};
use sl_ltl::parse;
use sl_omega::Alphabet;
use sl_trees::{
    enumerate_regular_trees, fcl_contains_bounded, ncl_refuted_by_path, parse_ctl, RegularTree,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    header("E7", "Theorem 5 - the impossible fourth combination");
    let mut board = Scoreboard::new();

    // Lattice level, exhaustive.
    println!("lattice level (exhaustive over closure pairs):");
    for (name, lattice) in generators::modular_complemented_corpus() {
        if lattice.len() > 8 {
            continue;
        }
        let closures =
            enumerate_closures(&lattice, None).expect("corpus lattices have at most 16 elements");
        let mut applicable = 0usize;
        let mut confirmed = true;
        for cl1 in &closures {
            for cl2 in &closures {
                if !cl1.pointwise_leq(&lattice, cl2) {
                    continue;
                }
                for a in 0..lattice.len() {
                    if theorem5_applies(&lattice, cl1, cl2, a) {
                        applicable += 1;
                        if !no_decomposition_exists(&lattice, cl2, cl1, a) {
                            confirmed = false;
                        }
                    }
                }
            }
        }
        println!("  {name:<16} applicable cases: {applicable}");
        board.claim(
            &format!("{name}: all {applicable} Theorem-5 cases have no decomposition"),
            confirmed,
        );
    }

    // Branching-time instance: AF a.
    println!("\nbranching level (AF a):");
    let sigma = Alphabet::ab();
    let af_a = parse_ctl(&sigma, "AF a").unwrap();
    let mut universe: Vec<RegularTree> = enumerate_regular_trees(&sigma, 2, 1);
    universe.extend(enumerate_regular_trees(&sigma, 1, 2));
    let continuations = vec![
        RegularTree::constant(sigma.clone(), sigma.symbol("a").unwrap(), 1),
        RegularTree::constant(sigma.clone(), sigma.symbol("b").unwrap(), 1),
    ];
    board.claim(
        "hypothesis fcl(AF a) = A_tot on universe",
        universe.iter().all(|y| {
            fcl_contains_bounded(y, &af_a, 2, &continuations, 1, None)
                .expect("an unmetered fcl check has no error path")
                .is_ok()
        }),
    );
    // ncl(AF a) < A_tot: the all-b-path witness refuted absolutely.
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let witness = RegularTree::new(
        sigma.clone(),
        vec![b, b, a],
        vec![vec![1, 2], vec![1], vec![2]],
        0,
    );
    let f_a = parse(&sigma, "F a").unwrap();
    board.claim(
        "hypothesis ncl(AF a) < A_tot: all-b-path witness refuted absolutely",
        ncl_refuted_by_path(&witness, 1, &[vec![1]], &f_a),
    );
    println!(
        "  => by Theorem 5, AF a has no decomposition into a universally safe\n     and an existentially live property (the lattice-level check above\n     is the exhaustive form of that conclusion)."
    );
    board.finish()
}
