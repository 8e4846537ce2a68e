//! Cross-crate integration: runtime monitoring and enforcement — the
//! Schneider connection the paper highlights (enforceable security
//! policies = safety properties; security automata = Büchi automata
//! accepting safe languages).

use safety_liveness::buchi::{
    random_buchi, CompiledMonitor, Monitor, MonitorFleet, RandomConfig, SecurityAutomaton, Verdict,
};
use safety_liveness::ltl::{decompose_formula, is_safety_formula, parse, translate};
use safety_liveness::omega::{all_lassos, Alphabet, Symbol, Word};
use sl_support::{Budget, SplitMix};

fn sigma() -> Alphabet {
    Alphabet::ab()
}

#[test]
fn monitor_accepts_exactly_the_good_prefixes() {
    // For a safety property, the monitor's verdict on a finite trace is
    // "Ok" iff the trace extends to some word in the property. Check
    // against a brute-force oracle over lasso extensions.
    let s = sigma();
    for text in ["a", "G (a -> X b)", "b R a"] {
        let f = parse(&s, text).unwrap();
        assert!(is_safety_formula(&s, &f), "{text} must be safety");
        let automaton = translate(&s, &f);
        let monitor = Monitor::new(&automaton);
        // All traces of length <= 4.
        for trace in safety_liveness::omega::all_words(&s, 4) {
            let mut m = monitor.clone();
            let (verdict, _) = m.run(&trace, None).unwrap();
            // Oracle: does some lasso word extend the trace inside L?
            let extendable = all_lassos(&s, 2, 2).iter().any(|tail| {
                let whole = tail.prepend(&trace);
                automaton.accepts(&whole)
            });
            assert_eq!(
                verdict == Verdict::Ok,
                extendable,
                "{text} on trace {}",
                trace.display(&s)
            );
        }
    }
}

#[test]
fn monitoring_a_property_monitors_its_safety_part() {
    // For an arbitrary property, the monitor equals the monitor of its
    // safety closure (Theorem 6's practical content: the closure is the
    // strongest monitorable approximation).
    let s = sigma();
    for text in ["a & F !a", "a U b", "G F a"] {
        let f = parse(&s, text).unwrap();
        let d = decompose_formula(&s, &f);
        let monitor_full = Monitor::new(&d.automaton);
        let monitor_safety = Monitor::new(&d.safety);
        for trace in safety_liveness::omega::all_words(&s, 4) {
            let (v1, c1) = monitor_full.clone().run(&trace, None).unwrap();
            let (v2, c2) = monitor_safety.clone().run(&trace, None).unwrap();
            assert_eq!(v1, v2, "{text} on {}", trace.display(&s));
            assert_eq!(c1, c2, "{text} on {}", trace.display(&s));
        }
    }
}

#[test]
fn enforcement_output_is_a_maximal_good_prefix() {
    let s = sigma();
    let f = parse(&s, "b R a").unwrap(); // "a until released by b" safety
    let automaton = translate(&s, &f);
    for trace in safety_liveness::omega::all_words(&s, 4) {
        let mut enforcer = SecurityAutomaton::new(&automaton);
        let allowed = enforcer.enforce(&trace);
        // The allowed prefix is a prefix of the trace ...
        assert!(allowed.is_prefix_of(&trace));
        // ... and itself passes the monitor.
        let mut m = Monitor::new(&automaton);
        let (verdict, _) = m.run(&allowed, None).unwrap();
        assert_eq!(verdict, Verdict::Ok);
        // Maximality: if something was cut, adding one more symbol of
        // the original trace violates.
        if allowed.len() < trace.len() {
            let next = trace.at(allowed.len()).unwrap();
            let mut m = Monitor::new(&automaton);
            m.run(&allowed, None).unwrap();
            assert_eq!(m.step(next), Verdict::Violation);
        }
    }
}

#[test]
fn compiled_monitor_agrees_with_monitor_on_ltl_policies() {
    // The dense-table compiled monitor is a drop-in for the subset
    // monitor: same verdict at every step, same (verdict, settle)
    // pair from `run`, over every short trace of safety and
    // non-safety formulas alike.
    let s = sigma();
    for text in ["a", "G (a -> X b)", "b R a", "a U b", "G F a", "a & F !a"] {
        let automaton = translate(&s, &parse(&s, text).unwrap());
        let monitor = Monitor::new(&automaton);
        let compiled = CompiledMonitor::new(&automaton).unwrap();
        for trace in safety_liveness::omega::all_words(&s, 5) {
            let (v1, c1) = monitor.clone().run(&trace, None).unwrap();
            let (v2, c2) = compiled.clone().run(&trace, None).unwrap();
            assert_eq!((v1, c1), (v2, c2), "{text} on {}", trace.display(&s));
        }
    }
}

#[test]
fn compiled_monitor_agrees_with_monitor_on_random_automata() {
    // Property check over generated automata and random traces that mix
    // valid symbols, out-of-alphabet symbols, and post-violation
    // continuations: step-by-step verdict parity between the compiled
    // and subset monitors.
    let s = sigma();
    for seed in 0..60u64 {
        let mut rng = SplitMix::new(0xC0_4D00 + seed);
        let b = random_buchi(
            &s,
            seed,
            RandomConfig {
                states: 1 + (seed as usize % 6),
                density_percent: 20 + (seed as u32 * 13) % 70,
                accepting_percent: 60,
            },
        );
        let mut monitor = Monitor::new(&b);
        let mut compiled = CompiledMonitor::new(&b).unwrap();
        for step in 0..40 {
            // ~1 in 10 symbols is out-of-alphabet; the rest uniform.
            let sym = if rng.below(10) == 0 {
                Symbol(u16::MAX)
            } else {
                Symbol(rng.below(s.len()) as u16)
            };
            let (v1, v2) = (monitor.step(sym), compiled.step(sym));
            assert_eq!(v1, v2, "seed {seed} step {step}");
            assert_eq!(compiled.verdict(), v2, "seed {seed} step {step} verdict()");
        }
    }
}

#[test]
fn compiled_monitor_minimization_is_sound_and_never_larger() {
    // Hopcroft minimization must preserve the monitor's language
    // (checked by product walk) and never grow the state count.
    let s = sigma();
    for seed in 0..40u64 {
        let b = random_buchi(
            &s,
            1000 + seed,
            RandomConfig {
                states: 2 + (seed as usize % 5),
                density_percent: 35 + (seed as u32 * 7) % 60,
                accepting_percent: 50,
            },
        );
        let minimized = CompiledMonitor::new(&b).unwrap();
        let raw = CompiledMonitor::without_minimization(&b).unwrap();
        assert!(
            minimized.num_states() <= raw.num_states(),
            "seed {seed}: minimization grew the table"
        );
        assert!(
            minimized.agrees_with(&raw),
            "seed {seed}: minimization changed the language"
        );
    }
}

#[test]
fn fleet_sessions_match_lone_monitors_over_desynchronized_traces() {
    // A fleet is just N compiled monitors in a struct-of-arrays; each
    // slot must track its lone twin exactly even when sessions are
    // stepped different amounts before a shared `step_all` pass.
    let s = sigma();
    let automaton = translate(&s, &parse(&s, "G (a -> X b)").unwrap());
    let compiled = CompiledMonitor::new(&automaton).unwrap();
    let mut fleet = MonitorFleet::new(&compiled);
    let mut lone: Vec<CompiledMonitor> = Vec::new();
    let mut rng = SplitMix::new(99);
    for i in 0..24 {
        let slot = fleet.spawn();
        assert_eq!(slot, i);
        lone.push(compiled.clone());
        // Desynchronize: advance this session a random few steps.
        for _ in 0..rng.below(5) {
            let sym = Symbol(rng.below(s.len()) as u16);
            fleet.step(slot, sym);
            lone[slot].step(sym);
        }
    }
    // Shared passes, including an out-of-alphabet symbol.
    let mut shared: Vec<Symbol> = (0..30).map(|_| Symbol(rng.below(s.len()) as u16)).collect();
    shared.push(Symbol(u16::MAX));
    for &sym in &shared {
        fleet.step_all(sym);
        for m in &mut lone {
            m.step(sym);
        }
    }
    for (slot, m) in lone.iter().enumerate() {
        assert_eq!(fleet.verdict(slot), m.verdict(), "slot {slot}");
    }
    let want = lone.iter().fold((0, 0, 0), |mut t, m| {
        match m.verdict() {
            Verdict::Ok => t.0 += 1,
            Verdict::Violation => t.1 += 1,
            Verdict::Unknown => t.2 += 1,
        }
        t
    });
    assert_eq!(fleet.tally(), want);
}

#[test]
fn compiled_monitor_settles_like_the_monitor_under_budget() {
    // Budgeted runs: both monitors either settle on the same
    // (verdict, consumed) pair or exhaust the same budget.
    let s = sigma();
    let automaton = translate(&s, &parse(&s, "b R a").unwrap());
    let trace = Word::new(&[
        s.symbol("a").unwrap(),
        s.symbol("a").unwrap(),
        s.symbol("b").unwrap(),
        s.symbol("b").unwrap(),
    ]);
    for steps in 1..=6u64 {
        let budget = Budget::unlimited().with_steps(steps);
        let mut m = Monitor::new(&automaton);
        let mut c = CompiledMonitor::new(&automaton).unwrap();
        let got_m = m.run(&trace, Some(&budget));
        let got_c = c.run(&trace, Some(&budget));
        match (got_m, got_c) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "budget {steps}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("budget {steps}: monitor {a:?} vs compiled {b:?}"),
        }
    }
}

#[test]
fn liveness_enforcement_is_vacuous() {
    // The security automaton of a liveness property never truncates —
    // Schneider's unenforceability, mechanically.
    let s = sigma();
    for text in ["G F a", "F G !a", "F b"] {
        let automaton = translate(&s, &parse(&s, text).unwrap());
        for trace in safety_liveness::omega::all_words(&s, 4) {
            let mut enforcer = SecurityAutomaton::new(&automaton);
            let allowed = enforcer.enforce(&trace);
            assert_eq!(allowed, trace, "{text} truncated a trace");
        }
    }
}
