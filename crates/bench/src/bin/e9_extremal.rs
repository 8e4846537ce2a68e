//! E9 — Theorems 6 and 7: the decomposition is extremal.
//!
//! * Theorem 6 (machine closure): `cl1.a` is the strongest safety
//!   element usable in any decomposition of `a` — verified exhaustively
//!   on distributive and modular corpora, and instantiated on Büchi
//!   automata (the closure automaton is included in every safety
//!   property containing the language).
//! * Theorem 7: in a distributive lattice, `a ∨ b` (`b ∈ cmp(cl1.a)`)
//!   is the weakest second component — verified exhaustively; the
//!   canonical decomposition attains both extremes.
//!
//! Both the per-closure lattice sweep and the automata-level corpus
//! comparison run on `sl_support::par` workers, with records folded in
//! input order so the report is byte-identical for any `SL_THREADS`.
//! Workers are panic-isolated: under a fault drill a poisoned worker
//! degrades to a `[degraded]` note and survivor-only claims.

use sl_bench::{header, note_degradation, Scoreboard};
use sl_buchi::{closure, included_with_complement};
use sl_lattice::{
    decompose, enumerate_closures, generators, is_machine_closed, theorem6_strongest_safety,
    theorem7_weakest_liveness,
};
use sl_ltl::{is_safety_formula, parse, translate};
use sl_omega::Alphabet;
use sl_support::par;
use std::process::ExitCode;

fn main() -> ExitCode {
    header("E9", "Extremal theorems 6 and 7 (machine closure)");
    let mut board = Scoreboard::new();

    println!("lattice level:");
    for (name, lattice) in generators::distributive_corpus() {
        if lattice.len() > 12 {
            println!("  {name:<20} skipped (closure enumeration too large)");
            continue;
        }
        // Theorem 6 needs no complements; Theorem 7 (and the canonical
        // decomposition) only applies where cl.a has a complement, so
        // those cases are counted separately. One parallel record per
        // closure operator.
        let closures =
            enumerate_closures(&lattice, None).expect("corpus lattices have at most 16 elements");
        let report = par::par_map_isolated(&closures, |cl| {
            let mut t6_cases = 0usize;
            let mut t7_cases = 0usize;
            let mut ok = true;
            for a in 0..lattice.len() {
                t6_cases += 1;
                let Ok(strongest) = theorem6_strongest_safety(&lattice, cl, cl, a) else {
                    ok = false;
                    continue;
                };
                if strongest != cl.apply(a) {
                    ok = false;
                }
                if lattice.complement(cl.apply(a)).is_none() {
                    continue; // Theorem 7 vacuous here
                }
                t7_cases += 1;
                let weakest = theorem7_weakest_liveness(&lattice, cl, cl, a);
                let d = decompose(&lattice, cl, a);
                match (weakest, d) {
                    (Ok(w), Ok(d)) => {
                        if d.safety != strongest || d.liveness != w {
                            ok = false;
                        }
                        if !is_machine_closed(&lattice, cl, a, d.safety, d.liveness) {
                            ok = false;
                        }
                    }
                    _ => ok = false,
                }
            }
            (t6_cases, t7_cases, ok)
        });
        let t6_cases: usize = report.oks().map(|(_, r)| r.0).sum();
        let t7_cases: usize = report.oks().map(|(_, r)| r.1).sum();
        let ok = report.oks().all(|(_, r)| r.2);
        println!("  {name:<20} Theorem 6: {t6_cases} cases, Theorem 7: {t7_cases} cases");
        note_degradation(&name, &report);
        board.claim(
            &format!("{name}: extremal theorems verified ({t6_cases}/{t7_cases} cases)"),
            ok,
        );
    }

    // Büchi instantiation of Theorem 6: cl(B) is below every safety
    // property of the corpus containing L(B) — one worker per property.
    println!("\nautomata level (Theorem 6 on the LTL corpus):");
    let sigma = Alphabet::ab();
    let corpus = [
        "a",
        "!a",
        "a & F !a",
        "F G !a",
        "G F a",
        "a U b",
        "b R a",
        "G (a -> X b)",
        "X a",
    ];
    let formulas: Vec<_> = corpus.iter().map(|t| parse(&sigma, t).unwrap()).collect();
    let report = par::par_map_isolated(&formulas, |f| {
        let m = translate(&sigma, f);
        let cl = closure(&m);
        let mut comparisons = 0usize;
        let mut ok = true;
        for g in &formulas {
            if !is_safety_formula(&sigma, g) {
                continue;
            }
            let not_g = translate(&sigma, &g.clone().not());
            if included_with_complement(&m, &not_g).holds() {
                comparisons += 1;
                if !included_with_complement(&cl, &not_g).holds() {
                    ok = false;
                }
            }
        }
        (comparisons, ok)
    });
    let comparisons: usize = report.oks().map(|(_, r)| r.0).sum();
    let ok = report.oks().all(|(_, r)| r.1);
    println!("  {comparisons} (property, safety-superset) comparisons");
    note_degradation("LTL corpus", &report);
    board.claim(
        "cl(B) below every corpus safety property containing L(B)",
        ok,
    );
    board.finish()
}
