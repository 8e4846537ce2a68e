//! Safety/liveness analysis of a token-passing mutual-exclusion
//! protocol — the "design and analysis of reactive systems" motivation
//! from the paper's introduction, end to end.
//!
//! ```text
//! cargo run --example protocol_analysis
//! ```
//!
//! Two processes share a critical section; the scheduler's visible
//! events are `c1` (process 1 in the critical section), `c2`
//! (process 2), and `idle`. We model a *system* as the Büchi automaton
//! of all behaviours a round-robin token scheduler can produce, and two
//! *specifications*:
//!
//! * **mutex** (safety): process 1 holds the section only at even
//!   rounds of its own turns — here simplified to "never two
//!   consecutive critical events by different processes without an
//!   idle in between";
//! * **progress** (liveness): both processes enter the critical
//!   section infinitely often.
//!
//! The example verifies the system against the conjunction, decomposes
//! the conjunction per Theorem 2, and shows that checking the system
//! splits into a monitorable safety check plus a pure liveness check —
//! the practical payoff the paper attributes to the decomposition.
//!
//! For state-based models of the same questions — `AG !bad` and
//! `FG !bad` on an explicit Kripke structure, decided by LT-PDR with
//! machine-checked certificates — see the `pdr_liveness` example and
//! the `sld` daemon's `check` verb.

use safety_liveness::buchi::{included_with_complement, BuchiBuilder, Monitor, Verdict};
use safety_liveness::ltl::{classify_formula, decompose_formula, parse, translate};
use safety_liveness::omega::{Alphabet, Word};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sigma = Alphabet::new(&["c1", "c2", "idle"]);
    let c1 = sigma.symbol("c1").unwrap();
    let c2 = sigma.symbol("c2").unwrap();
    let idle = sigma.symbol("idle").unwrap();

    // The system: a token scheduler alternating c1 / c2 with optional
    // idling between handovers. The Büchi acceptance encodes the
    // scheduler's fairness: only runs with infinitely many complete
    // handover rounds are behaviours of the system (idling forever is
    // not something this scheduler does).
    let system = {
        let mut b = BuchiBuilder::new(sigma.clone());
        let turn1 = b.add_state(false);
        let turn2 = b.add_state(false);
        let round_done = b.add_state(true); // just completed c1 then c2
        b.add_transition(turn1, c1, turn2);
        b.add_transition(turn1, idle, turn1);
        b.add_transition(turn2, c2, round_done);
        b.add_transition(turn2, idle, turn2);
        b.add_transition(round_done, c1, turn2);
        b.add_transition(round_done, idle, turn1);
        b.build(turn1)
    };
    println!(
        "system    : {} states, {} transitions",
        system.num_states(),
        system.num_transitions()
    );

    // Specification pieces; classification and decomposition run at
    // the formula level, so complements come from negated formulas
    // instead of rank-based complementation. (The raw tableau for the
    // weak-until handover spec has hundreds of states; simulation
    // reduction in `translate` brings it down to single digits.)
    let mutex = parse(&sigma, "G (c1 -> X (!c1 W c2)) & G (c2 -> X (!c2 W c1))")?;
    let progress = parse(&sigma, "(G F c1) & (G F c2)")?;
    let spec = mutex.clone().and(progress.clone());

    println!("mutex     : {}", classify_formula(&sigma, &mutex));
    println!("progress  : {}", classify_formula(&sigma, &progress));
    println!("spec      : {}", classify_formula(&sigma, &spec));

    // Theorem 2: split the full spec into safety and liveness parts.
    let d = decompose_formula(&sigma, &spec);
    println!(
        "decomposed: property {} states, safety part {} states, liveness part {} states",
        d.automaton.num_states(),
        d.safety.num_states(),
        d.liveness.num_states(),
    );

    // Verification splits accordingly (and the safety half is the part
    // an online monitor can check):
    let safe_ok = d.system_satisfies_safety(&system).holds();
    let live_ok = d.system_satisfies_liveness(&system).holds();
    println!("system ⊆ safety part  : {safe_ok}");
    println!("system ⊆ liveness part: {live_ok}");
    let not_spec = translate(&sigma, &spec.clone().not());
    let full_ok = included_with_complement(&system, &not_spec).holds();
    println!("system ⊨ full spec    : {full_ok}");
    assert_eq!(full_ok, safe_ok && live_ok);

    // A runtime monitor for the safety half, exercised on finite logs.
    let monitor = Monitor::new(&d.safety);
    for log in [
        "c1 idle c2 c1 c2",
        "c1 c1", // double entry without handover: violation
        "idle idle c1 c2 idle c1",
    ] {
        let mut m = monitor.clone();
        let (verdict, consumed) = m.run(&Word::parse(&sigma, log), None)?;
        match verdict {
            Verdict::Ok => println!("log PASS  : {log}"),
            Verdict::Violation => println!("log FAIL  : {log} (at event {consumed})"),
            Verdict::Unknown => println!("log ???   : {log} (bad event {consumed})"),
        }
    }

    // A faulty system that can starve process 2 fails only the
    // liveness half — the decomposition localizes the bug.
    let starving = {
        let mut b = BuchiBuilder::new(sigma.clone());
        let turn1 = b.add_state(true);
        let turn2 = b.add_state(true);
        b.add_transition(turn1, c1, turn2);
        b.add_transition(turn1, idle, turn1);
        b.add_transition(turn2, c2, turn1);
        b.add_transition(turn2, idle, turn2);
        // Fault: process 1 may re-enter immediately, hogging the token.
        // (Keeps mutex alternation broken only on the liveness side:
        // re-entry still alternates with idles, never violating the
        // weak-until safety shape.)
        b.add_transition(turn1, idle, turn1);
        let faulty_idle_loop = b.add_state(true);
        b.add_transition(turn1, c1, faulty_idle_loop); // c1 then stuck idling
        b.add_transition(faulty_idle_loop, idle, faulty_idle_loop);
        b.build(turn1)
    };
    println!(
        "starving system ⊆ safety  : {}",
        d.system_satisfies_safety(&starving).holds()
    );
    println!(
        "starving system ⊆ liveness: {}",
        d.system_satisfies_liveness(&starving).holds()
    );

    // The same split is served state-based by the daemon: the `check`
    // verb runs LT-PDR on an inline Kripke structure (`mode: safety`
    // for AG !bad, `mode: liveness` for FG !bad via k-liveness) — see
    // the `pdr_liveness` example for the engine used directly.
    println!("state-based twin: sld's `check` verb (see examples/pdr_liveness.rs)");
    Ok(())
}
