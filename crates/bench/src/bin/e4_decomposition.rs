//! E4 — Theorems 1/2/3: the decomposition on a corpus of modular
//! complemented lattices, exhaustively.
//!
//! For every lattice in the corpus and every closure operator on it
//! (all closures where enumerable, seeded random closures otherwise),
//! every element is decomposed as `cl.a /\ (a \/ b)` and the result is
//! verified; Lemmas 1–4 are checked along the way. The table reports
//! lattice sizes, closure counts, and decomposition counts.
//!
//! The sweep is embarrassingly parallel in the closure operator, so
//! each closure's (count, verdict) record is computed on a
//! `sl_support::par` worker and the records are folded in closure
//! order — the table is byte-identical for any `SL_THREADS`.
//!
//! Workers run panic-isolated ([`par::par_map_isolated`]): under a
//! fault drill (`SL_FAULT_RATE` > 0) a poisoned worker degrades to a
//! `[degraded]` note and survivor-only claims instead of aborting the
//! sweep; with faults disabled the output is byte-identical to the
//! strict sweep.

use sl_bench::{header, note_degradation, Scoreboard};
use sl_lattice::{
    decompose, decompose_pair_checked, enumerate_closures, generators, lemma4_holds,
    random_closure, verify_decomposition,
};
use sl_support::par;
use std::process::ExitCode;

fn main() -> ExitCode {
    header(
        "E4",
        "Decomposition theorems on modular complemented lattices",
    );
    let mut board = Scoreboard::new();
    println!(
        "{:<16} {:>6} {:>9} {:>14} {:>8}",
        "lattice", "size", "closures", "decompositions", "lemma4"
    );

    for (name, lattice) in generators::modular_complemented_corpus() {
        let closures = if lattice.len() <= 10 {
            enumerate_closures(&lattice, None).expect("corpus lattices have at most 16 elements")
        } else {
            (0..40).map(|seed| random_closure(&lattice, seed)).collect()
        };
        // One record per closure: (decompositions, all verified, lemma 4).
        let report = par::par_map_isolated(&closures, |cl| {
            let mut decompositions = 0usize;
            let mut all_ok = true;
            let mut lemma4_ok = true;
            for a in 0..lattice.len() {
                match decompose(&lattice, cl, a) {
                    Ok(d) => {
                        decompositions += 1;
                        if !verify_decomposition(&lattice, cl, cl, &a, &d) {
                            all_ok = false;
                        }
                    }
                    Err(_) => all_ok = false,
                }
                if !lemma4_holds(&lattice, cl, a) {
                    lemma4_ok = false;
                }
            }
            (decompositions, all_ok, lemma4_ok)
        });
        let decompositions: usize = report.oks().map(|(_, r)| r.0).sum();
        let all_ok = report.oks().all(|(_, r)| r.1);
        let lemma4_ok = report.oks().all(|(_, r)| r.2);
        println!(
            "{:<16} {:>6} {:>9} {:>14} {:>8}",
            name,
            lattice.len(),
            closures.len(),
            decompositions,
            if lemma4_ok { "ok" } else { "FAIL" }
        );
        note_degradation(&name, &report);
        board.claim(
            &format!("{name}: all {decompositions} decompositions verified"),
            all_ok && lemma4_ok,
        );
    }

    // Theorem 3 (two closures) on B3, exhaustively over ordered pairs —
    // parallel in the outer closure, folded in order.
    let lattice = generators::boolean(3);
    let closures =
        enumerate_closures(&lattice, None).expect("corpus lattices have at most 16 elements");
    let report = par::par_map_isolated(&closures, |cl1| {
        let mut pairs_tested = 0usize;
        let mut pairs_ok = true;
        for cl2 in &closures {
            if !cl1.pointwise_leq(&lattice, cl2) {
                continue;
            }
            for a in 0..lattice.len() {
                pairs_tested += 1;
                match decompose_pair_checked(&lattice, cl1, cl2, a) {
                    Ok(d) => {
                        if !verify_decomposition(&lattice, cl1, cl2, &a, &d) {
                            pairs_ok = false;
                        }
                    }
                    Err(_) => pairs_ok = false,
                }
            }
        }
        (pairs_tested, pairs_ok)
    });
    let pairs_tested: usize = report.oks().map(|(_, r)| r.0).sum();
    let pairs_ok = report.oks().all(|(_, r)| r.1);
    note_degradation("Theorem 3 on B3", &report);
    board.claim(
        &format!("Theorem 3 on B3: {pairs_tested} (cl1 <= cl2, element) cases verified"),
        pairs_ok,
    );
    board.finish()
}
