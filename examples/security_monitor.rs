//! Schneider security automata from safety closures.
//!
//! ```text
//! cargo run --example security_monitor
//! ```
//!
//! The paper (Section 1) recalls Schneider's result: *enforceable*
//! security policies are exactly the safety properties, and the
//! enforcement mechanisms — security automata — are Büchi automata
//! recognizing safe languages. This example specifies a resource-usage
//! policy in LTL over the event alphabet `{open, use, close}`:
//!
//! * no `use` before the first `open`, and
//! * after a `close`, no `use` until the resource is re-`open`ed,
//!
//! derives the deterministic monitor from the property's safety
//! closure (the *strongest* enforceable approximation, by the machine
//! closure of Theorem 6), and runs it over a batch of traces, showing
//! exactly where offending traces are truncated.

use safety_liveness::buchi::{Monitor, SecurityAutomaton, Verdict};
use safety_liveness::ltl::{parse, translate};
use safety_liveness::omega::{Alphabet, Word};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sigma = Alphabet::new(&["open", "use", "close"]);
    // (!use W open) & G (close -> X (!use W open))
    let policy_text = "(!use W open) & G (close -> X (!use W open))";
    let policy = parse(&sigma, policy_text)?;
    println!("policy   : {}", policy.display(&sigma));

    let automaton = translate(&sigma, &policy);
    let monitor = Monitor::new(&automaton);
    println!(
        "monitor  : {} deterministic states (from a {}-state property automaton)",
        monitor.num_states(),
        automaton.num_states()
    );

    let traces = [
        "open use use close open use",
        "use open",
        "open use close use",
        "open close open use close",
        "open use close close open use",
    ];
    for text in traces {
        let trace = Word::parse(&sigma, text);
        let mut m = monitor.clone();
        let (verdict, consumed) = m.run(&trace, None)?;
        match verdict {
            Verdict::Ok => println!("PASS     : {text}"),
            Verdict::Violation => {
                println!("VIOLATION: {text}");
                println!("           detected after {consumed} event(s)");
            }
            Verdict::Unknown => {
                println!("UNKNOWN  : {text} (uninterpretable event {consumed})");
            }
        }

        // Enforcement: the security automaton truncates at the offense.
        let mut enforcer = SecurityAutomaton::new(&automaton);
        let allowed = enforcer.enforce(&trace);
        if enforcer.halted() {
            println!(
                "           enforced prefix: \"{}\"",
                allowed.display(&sigma)
            );
        }
    }

    // Liveness is unenforceable: the monitor of a liveness property
    // never fires, because its closure is the whole space.
    let liveness = parse(&sigma, "G F close")?; // "you eventually always come back to close"
    let mut m = Monitor::new(&translate(&sigma, &liveness));
    let (verdict, _) = m.run(&Word::parse(&sigma, "open use use use use use"), None)?;
    println!(
        "liveness policy 'G F close' on a close-free trace: {:?} (monitoring cannot enforce liveness)",
        verdict
    );
    Ok(())
}
