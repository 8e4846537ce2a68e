//! A guided tour of the paper's lattice-theoretic core.
//!
//! ```text
//! cargo run --example lattice_tour
//! ```
//!
//! Builds the paper's structures from scratch: a Boolean algebra with a
//! closure operator, the canonical decomposition (Theorem 2), the
//! strongest-safety / weakest-liveness extremal results (Theorems 6–7),
//! and the two counterexample lattices from Figures 1 and 2 showing why
//! modularity and distributivity are load-bearing.

use safety_liveness::lattice::{
    all_decompositions, classify, decompose, enumerate_closures, figure1, figure2, generators,
    theorem6_strongest_safety, theorem7_weakest_liveness, Closure,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- A Boolean algebra with a closure ---------------------------
    let lattice = generators::boolean(3);
    println!(
        "B3: {} elements, boolean = {}",
        lattice.len(),
        lattice.is_boolean()
    );

    // A closure whose safety elements are {0b110, 0b111}.
    let cl = Closure::from_fixpoints(&lattice, &[0b110, 0b111])?;
    println!("closure fixpoints (safety elements): {:?}", cl.fixpoints());
    println!("liveness elements: {:?}", cl.liveness_elements(&lattice));

    for a in 0..lattice.len() {
        let d = decompose(&lattice, &cl, a)?;
        println!(
            "  {a:#05b} = {:#05b} /\\ {:#05b}   [{}]",
            d.safety,
            d.liveness,
            classify(&lattice, &cl, a)
        );
    }

    // --- Extremal theorems ------------------------------------------
    let a = 0b001;
    let strongest = theorem6_strongest_safety(&lattice, &cl, &cl, a)?;
    let weakest = theorem7_weakest_liveness(&lattice, &cl, &cl, a)?;
    println!("strongest safety part of {a:#05b}: {strongest:#05b} (machine closure)");
    println!("weakest second component of {a:#05b}: {weakest:#05b}");

    // --- Figure 1: why modularity matters ---------------------------
    let fig1 = figure1();
    println!(
        "\nFigure 1 (N5): modular = {}, decompositions of a: {}",
        fig1.lattice.is_modular(),
        all_decompositions(&fig1.lattice, &fig1.closure, &fig1.closure, fig1.a).len()
    );
    if let Some(violation) = fig1.lattice.modularity_violation() {
        println!(
            "  modular law fails on a={}, b={}, c={}: {} vs {}",
            violation.a, violation.b, violation.c, violation.left, violation.right
        );
    }

    // --- Figure 2: why distributivity matters -----------------------
    let fig2 = figure2();
    println!(
        "\nFigure 2 (M3): modular = {}, distributive = {}",
        fig2.lattice.is_modular(),
        fig2.lattice.is_distributive()
    );
    let join = fig2.lattice.join(fig2.a, fig2.b);
    println!(
        "  z <= a \\/ b? {} (Theorem 7's conclusion fails without distributivity)",
        fig2.lattice.leq(fig2.z, join)
    );

    // --- How many closures does a small lattice carry? ---------------
    let diamond = generators::boolean(2);
    println!(
        "\nB2 carries {} closure operators; every element decomposes under all of them",
        enumerate_closures(&diamond, None)?.len()
    );
    for cl in enumerate_closures(&diamond, None)? {
        for x in 0..diamond.len() {
            decompose(&diamond, &cl, x)?;
        }
    }
    println!("all decompositions verified");
    Ok(())
}
