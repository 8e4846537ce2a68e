//! E6 — Section 4.3 example table: Rem's examples in branching time.
//!
//! Reproduces the q0–q6 claims with the paper's own witnesses plus
//! bounded exhaustive search over a universe of regular trees:
//!
//! * q0, q1, q2, q6 are universally safe (`q = fcl.q`);
//! * `fcl.q3a = q1` but `ncl.q3a ≠ q1` and `ncl.q3a ≠ q3a`;
//! * `ncl.q3b = fcl.q3b = q1`;
//! * `fcl.q4a = fcl.q5a = A_tot` while `ncl.q4a, ncl.q5a < A_tot`
//!   (absolute refutations via surviving paths);
//! * `ncl.q4b = ncl.q5b = A_tot`.

use sl_bench::{header, Scoreboard};
use sl_ltl::parse;
use sl_omega::Alphabet;
use sl_trees::{
    enumerate_regular_trees, fcl_contains_bounded, ncl_contains_bounded, ncl_refuted_by_path,
    q_examples, two_path_witness, Ctl, RegularTree,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    header("E6", "Rem's examples in branching time (paper Section 4.3)");
    let sigma = Alphabet::ab();
    let examples = q_examples(&sigma);
    let by_name = |n: &str| examples.iter().find(|e| e.name == n).unwrap();

    let mut universe: Vec<RegularTree> = enumerate_regular_trees(&sigma, 2, 1);
    universe.extend(enumerate_regular_trees(&sigma, 1, 2));
    universe.push(two_path_witness(&sigma));
    let continuations = vec![
        RegularTree::constant(sigma.clone(), sigma.symbol("a").unwrap(), 1),
        RegularTree::constant(sigma.clone(), sigma.symbol("b").unwrap(), 1),
        two_path_witness(&sigma),
    ];
    println!(
        "universe: {} regular trees; prefixes to depth 2; {} continuations\n",
        universe.len(),
        continuations.len()
    );

    // Bounded membership with the experiment's continuations and width
    // 1, unmetered.
    let in_fcl = |y: &RegularTree, q: &Ctl, depth: usize| {
        fcl_contains_bounded(y, q, depth, &continuations, 1, None)
            .expect("an unmetered fcl check has no error path")
            .is_ok()
    };
    let in_ncl = |y: &RegularTree, q: &Ctl| {
        ncl_contains_bounded(y, q, 2, &continuations, 1, None)
            .expect("a depth-2 unrolling has at most 16 paths")
            .is_ok()
    };

    let mut board = Scoreboard::new();

    // Universally safe examples.
    for name in ["q1", "q2", "q6"] {
        let q = by_name(name);
        let ok = universe
            .iter()
            .all(|y| y.satisfies(&q.formula) == in_fcl(y, &q.formula, 2));
        board.claim(
            &format!("{name} universally safe (q = fcl.q on universe)"),
            ok,
        );
    }
    let q0 = by_name("q0");
    board.claim(
        "q0 = false: fcl.q0 = q0 (empty) on universe",
        universe.iter().all(|y| !in_fcl(y, &q0.formula, 1)),
    );

    // q3a.
    let q3a = by_name("q3a");
    let q1 = by_name("q1");
    board.claim(
        "fcl.q3a = q1 on universe",
        universe
            .iter()
            .all(|y| in_fcl(y, &q3a.formula, 2) == y.satisfies(&q1.formula)),
    );
    let witness = two_path_witness(&sigma);
    let q3a_path = parse(&sigma, "a & F !a").unwrap();
    board.claim(
        "ncl.q3a != q1: two-path witness in q1 but refuted from ncl.q3a (absolute)",
        witness.satisfies(&q1.formula) && ncl_refuted_by_path(&witness, 1, &[vec![1]], &q3a_path),
    );
    let a_seq = RegularTree::constant(sigma.clone(), sigma.symbol("a").unwrap(), 1);
    board.claim(
        "ncl.q3a != q3a: a^w in ncl.q3a \\ q3a (trees can be sequences)",
        !a_seq.satisfies(&q3a.formula) && in_ncl(&a_seq, &q3a.formula),
    );

    // q3b.
    let q3b = by_name("q3b");
    board.claim(
        "ncl.q3b = fcl.q3b = q1 on universe",
        universe.iter().all(|y| {
            let want = y.satisfies(&q1.formula);
            in_fcl(y, &q3b.formula, 2) == want && in_ncl(y, &q3b.formula) == want
        }),
    );

    // q4 / q5.
    for (a_name, path_text, cut) in [("q4a", "F G !a", vec![1u32]), ("q5a", "G F a", vec![0u32])] {
        let q = by_name(a_name);
        board.claim(
            &format!("fcl.{a_name} = A_tot on universe"),
            universe.iter().all(|y| in_fcl(y, &q.formula, 2)),
        );
        let path = parse(&sigma, path_text).unwrap();
        board.claim(
            &format!("ncl.{a_name} < A_tot: witness refuted absolutely"),
            ncl_refuted_by_path(&witness, 1, &[cut], &path),
        );
    }
    for b_name in ["q4b", "q5b"] {
        let q = by_name(b_name);
        board.claim(
            &format!("ncl.{b_name} = A_tot on universe"),
            universe.iter().all(|y| in_ncl(y, &q.formula)),
        );
    }

    // ncl <= fcl pointwise (the Theorem 3 hypothesis in branching time).
    let mut pointwise = true;
    for name in ["q3a", "q3b", "q4a", "q5a"] {
        let q = by_name(name);
        for y in &universe {
            if in_ncl(y, &q.formula) && !in_fcl(y, &q.formula, 2) {
                pointwise = false;
            }
        }
    }
    board.claim("ncl.p <= fcl.p pointwise on universe", pointwise);
    board.finish()
}
