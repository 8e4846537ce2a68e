//! E13 (perf) — monitor throughput: the compiled dense-table safety
//! monitor vs the subset-construction `Monitor` vs an allocating
//! NFA-set reference stepper, plus the SoA fleet at session scale.
//!
//! Theorem 6 makes safety properties monitorable; this experiment makes
//! them monitorable *at volume*. The policy is a nondeterministic
//! "at most 31 b's" chain (every chain state carries a shadow copy, so
//! the set/subset steppers genuinely track multi-state frontiers), and
//! the trace is a long all-Ok prefix — the steady state a deployed
//! monitor lives in. Measured:
//!
//! * `monitor/nfa_set/safety` — the allocating NFA-set stepper (the
//!   no-preprocessing baseline a naive monitor implementation uses);
//! * `monitor/subset/safety` — `Monitor`, subset construction with
//!   `Vec<Vec<usize>>` rows;
//! * `monitor/compiled/safety` — `CompiledMonitor`, one flat-table
//!   load per step;
//! * `monitor/fleet/batch` — a 4096-session `MonitorFleet` stepped
//!   with `step_all`, per-session-step cost.
//!
//! Correctness gates come first: all three steppers must agree verdict
//! for verdict on the bench trace (violation and out-of-alphabet tails
//! included), and the fleet must agree with per-session stepping.
//! `BENCH_monitor.json` records the medians; `scripts/verify.sh` gates
//! the compiled-over-NFA ratio at ≥10x.

use sl_bench::{header, Scoreboard};
use sl_buchi::{
    closure, live_states, Buchi, BuchiBuilder, CompiledMonitor, Monitor, MonitorFleet, Verdict,
};
use sl_omega::{Alphabet, Symbol, Word};
use sl_support::bench::{black_box, Bench};
use std::process::ExitCode;

/// Chain length (maximum allowed `b` count is `CHAIN - 1`).
const CHAIN: usize = 32;
/// Symbols per measured pass.
const TRACE_LEN: usize = 10_000;
/// Fleet sessions for the batch measurement.
const FLEET: usize = 4096;

/// Shadow copies per chain state (frontier width for the set/subset
/// steppers).
const SHADOWS: usize = 3;

/// The bench policy: "at most 31 b's", nondeterministically widened.
/// Chain state `i` moves on `a` into itself plus [`SHADOWS`] shadow
/// states (which mirror its transitions), and advances on `b`. All
/// states accepting, every state live — closure-shaped, so the policy
/// is cl-safety and the compiled path is the one `sld` would take. The
/// shadows make the subset/set steppers carry 4-state frontiers, the
/// honest regime for a nondeterministic safety automaton.
fn policy(sigma: &Alphabet) -> Buchi {
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let mut builder = BuchiBuilder::new(sigma.clone());
    let chain: Vec<_> = (0..CHAIN).map(|_| builder.add_state(true)).collect();
    let shadow: Vec<Vec<_>> = (0..CHAIN)
        .map(|_| (0..SHADOWS).map(|_| builder.add_state(true)).collect())
        .collect();
    for i in 0..CHAIN {
        builder.add_transition(chain[i], a, chain[i]);
        for &s in &shadow[i] {
            builder.add_transition(chain[i], a, s);
            builder.add_transition(s, a, chain[i]);
            for &t in &shadow[i] {
                builder.add_transition(s, a, t);
            }
            if i + 1 < CHAIN {
                builder.add_transition(s, b, chain[i + 1]);
            }
        }
        if i + 1 < CHAIN {
            builder.add_transition(chain[i], b, chain[i + 1]);
        }
    }
    builder.build(chain[0])
}

/// The steady-state trace: mostly `a`, a `b` every 400 symbols (25
/// total — under the chain's limit, so the whole pass stays Ok).
fn trace(sigma: &Alphabet) -> Vec<Symbol> {
    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    (0..TRACE_LEN)
        .map(|i| if i % 400 == 399 { b } else { a })
        .collect()
}

/// The no-preprocessing baseline: a nondeterministic set stepper over
/// the live states of the safety closure, allocating a fresh frontier
/// per step — the same reference the `compiled` conform oracle uses.
struct NfaSetStepper {
    cls: Buchi,
    live: Vec<bool>,
    current: Vec<usize>,
    unknown: bool,
}

impl NfaSetStepper {
    fn new(policy: &Buchi) -> Self {
        let cls = closure(policy);
        let live = live_states(&cls);
        let current = if cls.num_states() > 0 && live.get(cls.initial()) == Some(&true) {
            vec![cls.initial()]
        } else {
            Vec::new()
        };
        NfaSetStepper {
            cls,
            live,
            current,
            unknown: false,
        }
    }

    fn reset(&mut self) {
        self.unknown = false;
        self.current =
            if self.cls.num_states() > 0 && self.live.get(self.cls.initial()) == Some(&true) {
                vec![self.cls.initial()]
            } else {
                Vec::new()
            };
    }

    fn step(&mut self, sym: Symbol) -> Verdict {
        if self.current.is_empty() {
            return Verdict::Violation;
        }
        if self.unknown {
            return Verdict::Unknown;
        }
        if sym.index() >= self.cls.alphabet().len() {
            self.unknown = true;
            return Verdict::Unknown;
        }
        let mut next: Vec<usize> = self
            .current
            .iter()
            .flat_map(|&q| self.cls.successors(q, sym).iter().copied())
            .filter(|&q| self.live[q])
            .collect();
        next.sort_unstable();
        next.dedup();
        self.current = next;
        if self.current.is_empty() {
            Verdict::Violation
        } else {
            Verdict::Ok
        }
    }
}

fn main() -> ExitCode {
    header(
        "E13",
        "Monitor throughput: compiled dense table vs subset stepper vs NFA-set baseline",
    );
    let sigma = Alphabet::ab();
    let policy = policy(&sigma);
    let symbols = trace(&sigma);
    let mut board = Scoreboard::new();

    let mut nfa = NfaSetStepper::new(&policy);
    let mut subset = Monitor::new(&policy);
    let mut compiled = CompiledMonitor::new(&policy).expect("policy fits a u16 table");
    println!(
        "policy: {} NFA states -> {} subset-monitor states -> {} compiled states; trace: {} symbols",
        policy.num_states(),
        subset.num_states(),
        compiled.num_states(),
        symbols.len()
    );

    // Correctness before clocks: all three steppers, verdict for
    // verdict, over the bench trace plus a violating tail (33 more
    // b's) and an out-of-alphabet symbol.
    let mut probe: Vec<Symbol> = symbols.clone();
    probe.extend(std::iter::repeat(sigma.symbol("b").unwrap()).take(CHAIN + 1));
    probe.push(Symbol(u16::MAX));
    let mut agree = true;
    let mut saw_violation = false;
    for &sym in &probe {
        let (x, y, z) = (compiled.step(sym), subset.step(sym), nfa.step(sym));
        agree &= x == y && y == z;
        saw_violation |= x == Verdict::Violation;
    }
    board.claim(
        "compiled, subset, and NFA-set steppers agree on every verdict",
        agree,
    );
    board.claim(
        "the probe trace exercises the violation path",
        saw_violation,
    );

    // Fleet parity: step_all over the whole trace matches a lone
    // compiled monitor, for every session.
    let mut fleet = MonitorFleet::new(&compiled);
    for _ in 0..FLEET {
        fleet.spawn();
    }
    compiled.reset();
    for &sym in &symbols {
        fleet.step_all(sym);
        compiled.step(sym);
    }
    let (ok, violation, unknown) = fleet.tally();
    board.claim(
        "a 4096-session fleet pass matches the single-monitor verdict",
        compiled.verdict() == Verdict::Ok && (ok, violation, unknown) == (FLEET, 0, 0),
    );

    // Each measured pass consumes the whole trace through the
    // implementation's natural whole-trace entry point (a reset + step
    // loop for the baseline, `run` for the monitors).
    let word = Word::new(&symbols);
    let mut bench = Bench::from_env();
    let nfa_med = bench.measure("monitor/nfa_set/safety", || {
        nfa.reset();
        for &sym in &symbols {
            black_box(nfa.step(sym));
        }
    });
    let subset_med = bench.measure("monitor/subset/safety", || {
        black_box(subset.run(&word, None).unwrap());
    });
    let compiled_med = bench.measure("monitor/compiled/safety", || {
        black_box(compiled.run(&word, None).unwrap());
    });
    // The fleet pass steps every session once per symbol; report the
    // per-session-step cost over a shorter word so one call stays in
    // the same duration regime as the single-monitor passes.
    let fleet_word: Vec<Symbol> = symbols[..TRACE_LEN / 16].to_vec();
    let fleet_med = bench.measure("monitor/fleet/batch", || {
        for &sym in &fleet_word {
            fleet.step_all(sym);
        }
        black_box(fleet.tally());
    });

    let sps = |steps: usize, d: std::time::Duration| steps as f64 / d.as_secs_f64().max(1e-12);
    println!("\nthroughput (median):");
    println!(
        "  nfa_set  : {:>13.0} steps/sec",
        sps(symbols.len(), nfa_med)
    );
    println!(
        "  subset   : {:>13.0} steps/sec",
        sps(symbols.len(), subset_med)
    );
    println!(
        "  compiled : {:>13.0} steps/sec",
        sps(symbols.len(), compiled_med)
    );
    println!(
        "  fleet    : {:>13.0} session-steps/sec ({FLEET} sessions)",
        sps(FLEET * fleet_word.len(), fleet_med)
    );
    let vs_nfa = nfa_med.as_nanos() as f64 / compiled_med.as_nanos().max(1) as f64;
    let vs_subset = subset_med.as_nanos() as f64 / compiled_med.as_nanos().max(1) as f64;
    println!("compiled speedup: {vs_nfa:.1}x over nfa_set, {vs_subset:.1}x over subset");
    board.claim(
        "compiled beats the NFA-set baseline by >= 10x",
        vs_nfa >= 10.0,
    );
    board.claim(
        "compiled beats the subset stepper (>1x median)",
        vs_subset > 1.0,
    );
    bench.finish("monitor");
    board.finish()
}
