//! Deterministic safety monitors and Schneider security automata.
//!
//! The paper notes (Section 1) Schneider's result that *enforceable*
//! security policies are exactly safety properties, and that the
//! enforcement mechanisms — security automata — are Büchi automata
//! recognizing safe languages. This module makes that executable: a
//! [`Monitor`] is the determinized closure automaton of a property, run
//! incrementally over a finite trace; the moment the trace leaves the
//! safety property's closure, the monitor reports an irrecoverable
//! [`Verdict::Violation`] (a "bad thing" has happened, and by the
//! definition of safety no extension can fix it).
//!
//! ## Hardening against untrusted input
//!
//! Monitors sit on the trust boundary: the traces they consume come
//! from the monitored system, not from the verifier. The monitor
//! therefore never panics on malformed input — a symbol outside the
//! policy's alphabet moves it to the sticky [`Verdict::Unknown`] state
//! (the trace can no longer be interpreted against the policy; only
//! [`Monitor::reset`] recovers), and [`Monitor::run`] with
//! `Some(budget)` bounds the work spent on any one trace with an
//! [`sl_support::Budget`], in the spirit of quantitative/approximate
//! runtime monitoring (Henzinger–Mazzocchi–Saraç 2023).

use crate::automaton::{Buchi, StateId};
use crate::closure::closure;
use sl_omega::{Symbol, Word};
use sl_support::{Budget, SlError};
use std::collections::HashMap;

/// The state of a monitored trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// All extensions within the closure remain possible so far.
    Ok,
    /// The trace has irrecoverably left the safety property.
    Violation,
    /// The trace contained a symbol the monitor cannot interpret
    /// (outside the policy's alphabet); no verdict about the property
    /// is possible from here on. Sticky until [`Monitor::reset`].
    Unknown,
}

/// A deterministic monitor for the safety closure of an ω-regular
/// property, built by subset construction over live states.
#[derive(Debug, Clone)]
pub struct Monitor {
    /// `table[state][symbol]` = successor; `usize::MAX` = dead.
    pub(crate) table: Vec<Vec<usize>>,
    pub(crate) initial: usize,
    /// Current state while running (`usize::MAX` once dead).
    current: usize,
}

pub(crate) const DEAD: usize = usize::MAX;
/// Sentinel for "saw a symbol outside the alphabet": distinct from
/// [`DEAD`] so `Unknown` and `Violation` stay distinguishable.
const UNKNOWN: usize = usize::MAX - 1;

impl Monitor {
    /// Builds the monitor for `lcl(L(b))` — the strongest safety
    /// property implied by `b` (Theorem 6's machine closure is exactly
    /// why this is the right monitor).
    #[must_use]
    pub fn new(b: &Buchi) -> Self {
        let safety = closure(b);
        // Every state of a nonempty closure is live, so only the
        // empty-language stub has a state without successors.
        if safety.all_successors(safety.initial()).is_empty() {
            // The property's closure is empty: everything violates.
            return Monitor {
                table: Vec::new(),
                initial: DEAD,
                current: DEAD,
            };
        }
        Self::subset_construction(&safety)
    }

    /// The subset construction of an all-accepting automaton, whose
    /// language is "some infinite run exists": one state per reachable
    /// nonempty set of automaton states, numbered in discovery order,
    /// and [`DEAD`] where every run has died. [`Monitor::new`] runs it
    /// on the closure and [`crate::complement_safety`] on any
    /// all-accepting automaton, so the state indices that snapshots
    /// store and the complement's numbering come from one construction.
    pub(crate) fn subset_construction(b: &Buchi) -> Self {
        let sigma = b.alphabet();
        let start: Vec<StateId> = vec![b.initial()];
        let mut ids: HashMap<Vec<StateId>, usize> = HashMap::new();
        ids.insert(start.clone(), 0);
        let mut table: Vec<Vec<usize>> = vec![vec![DEAD; sigma.len()]];
        let mut work = vec![start];
        while let Some(subset) = work.pop() {
            let from = ids[&subset];
            for sym in sigma.symbols() {
                let mut next: Vec<StateId> = subset
                    .iter()
                    .flat_map(|&q| b.successors(q, sym).iter().copied())
                    .collect();
                next.sort_unstable();
                next.dedup();
                if next.is_empty() {
                    continue; // leave as DEAD
                }
                let to = *ids.entry(next.clone()).or_insert_with(|| {
                    table.push(vec![DEAD; sigma.len()]);
                    work.push(next);
                    table.len() - 1
                });
                table[from][sym.index()] = to;
            }
        }
        Monitor {
            table,
            initial: 0,
            current: 0,
        }
    }

    /// Number of monitor states (excluding the implicit dead state).
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.table.len()
    }

    /// Resets the monitor to its initial state.
    pub fn reset(&mut self) {
        self.current = self.initial;
    }

    /// Feeds one symbol; returns the verdict after the step. Once
    /// violated, the verdict stays [`Verdict::Violation`] (safety is
    /// irremediable); a symbol outside the policy's alphabet moves the
    /// monitor to the sticky [`Verdict::Unknown`] state instead of
    /// panicking.
    pub fn step(&mut self, sym: Symbol) -> Verdict {
        if self.current == DEAD {
            return Verdict::Violation;
        }
        if self.current == UNKNOWN {
            return Verdict::Unknown;
        }
        // Bounds check against the table width: `Symbol` is a plain
        // index, so untrusted traces can carry out-of-alphabet values.
        let row = &self.table[self.current];
        match row.get(sym.index()) {
            Some(&next) => {
                self.current = next;
                self.verdict()
            }
            None => {
                self.current = UNKNOWN;
                Verdict::Unknown
            }
        }
    }

    /// The verdict [`Monitor::step`] *would* return for `sym`, without
    /// moving the monitor: a single table lookup, no allocation and no
    /// state change, so enforcement can probe an action before
    /// committing to it.
    #[must_use]
    pub fn peek(&self, sym: Symbol) -> Verdict {
        if self.current == DEAD {
            return Verdict::Violation;
        }
        if self.current == UNKNOWN {
            return Verdict::Unknown;
        }
        match self.table[self.current].get(sym.index()) {
            Some(&DEAD) => Verdict::Violation,
            Some(_) => Verdict::Ok,
            None => Verdict::Unknown,
        }
    }

    /// The current verdict.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        match self.current {
            DEAD => Verdict::Violation,
            UNKNOWN => Verdict::Unknown,
            _ => Verdict::Ok,
        }
    }

    /// The current state as a portable `u64` for snapshot/restore:
    /// `u64::MAX` encodes the dead (violation) state, `u64::MAX - 1`
    /// the sticky unknown state, and anything else is a live subset
    /// state index. The subset construction is deterministic, so the
    /// encoding round-trips through a rebuild of the same policy.
    #[must_use]
    pub fn save_state(&self) -> u64 {
        match self.current {
            DEAD => u64::MAX,
            UNKNOWN => u64::MAX - 1,
            s => s as u64,
        }
    }

    /// Restores a state captured by [`Monitor::save_state`]. Returns
    /// `false` (monitor unchanged) when `raw` names no state of this
    /// table — the fail-closed answer for a corrupted snapshot.
    pub fn load_state(&mut self, raw: u64) -> bool {
        if raw == u64::MAX {
            self.current = DEAD;
            return true;
        }
        if raw == u64::MAX - 1 {
            self.current = UNKNOWN;
            return true;
        }
        match usize::try_from(raw) {
            Ok(s) if s < self.table.len() => {
                self.current = s;
                true
            }
            _ => false,
        }
    }

    /// Runs a whole finite trace from the initial state, returning the
    /// final verdict and the number of symbols consumed before the run
    /// settled (violation or unknown), or the trace length if it stayed
    /// [`Verdict::Ok`]. Never panics, whatever the trace contains.
    ///
    /// With `Some(budget)` each symbol first charges one step against a
    /// fresh meter (phase `"buchi.monitor"`), so a hostile (or merely
    /// enormous) trace cannot consume unbounded monitor time; the
    /// monitor stays on the last symbol it consumed when a charge
    /// fails. With `None` nothing is metered.
    ///
    /// # Errors
    ///
    /// [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] when the
    /// budget runs out mid-trace; the error's `spent` reports how many
    /// symbols were consumed first. Never with `budget: None`.
    pub fn run(
        &mut self,
        trace: &Word,
        budget: Option<&Budget>,
    ) -> Result<(Verdict, usize), SlError> {
        self.reset();
        let mut meter = budget.map(|budget| budget.meter("buchi.monitor"));
        for (i, &sym) in trace.as_slice().iter().enumerate() {
            if let Some(meter) = &mut meter {
                meter.charge(1)?;
            }
            match self.step(sym) {
                Verdict::Ok => {}
                settled => return Ok((settled, i + 1)),
            }
        }
        Ok((Verdict::Ok, trace.len()))
    }
}

/// A Schneider-style enforcement monitor: wraps a [`Monitor`] and
/// *truncates* the trace at the first violation, which is exactly the
/// power of an enforcement mechanism for a safety policy.
#[derive(Debug, Clone)]
pub struct SecurityAutomaton {
    monitor: Monitor,
    halted: bool,
}

impl SecurityAutomaton {
    /// Builds the enforcement automaton for the safety closure of the
    /// policy automaton.
    #[must_use]
    pub fn new(policy: &Buchi) -> Self {
        SecurityAutomaton {
            monitor: Monitor::new(policy),
            halted: false,
        }
    }

    /// Attempts to execute one action: returns `true` (action allowed)
    /// or `false` (action suppressed and the subject halted).
    ///
    /// Enforcement is fail-safe on untrusted input: an action outside
    /// the policy's alphabet cannot be judged, so it is suppressed and
    /// the subject halted (the deny-by-default reading of Schneider's
    /// enforcement model). This method never panics.
    pub fn submit(&mut self, action: Symbol) -> bool {
        if self.halted {
            return false;
        }
        // Peek: would the action violate (or be uninterpretable)? A
        // table lookup, not a clone — submit must stay O(1) however
        // large the monitor is.
        match self.monitor.peek(action) {
            Verdict::Ok => {
                self.monitor.step(action);
                true
            }
            Verdict::Violation | Verdict::Unknown => {
                self.halted = true;
                false
            }
        }
    }

    /// Whether the automaton has halted the subject.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of states of the underlying monitor (excluding the
    /// implicit dead state).
    #[must_use]
    pub fn monitor_states(&self) -> usize {
        self.monitor.num_states()
    }

    /// The longest prefix of `trace` the policy allows. Never panics:
    /// an uninterpretable symbol truncates the trace like a violation
    /// (fail-safe enforcement).
    pub fn enforce(&mut self, trace: &Word) -> Word {
        // Accumulate into a plain Vec and build the Word once at the
        // end: the persistent `Word::push` copies the whole prefix, so
        // pushing per symbol would make enforcement quadratic.
        let mut allowed: Vec<Symbol> = Vec::new();
        for &sym in trace.as_slice() {
            if !self.submit(sym) {
                break;
            }
            allowed.push(sym);
        }
        Word::new(&allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// "No b before the first a" style policy: G(b -> false) until a ...
    /// concretely: the safety automaton for "first symbol is a".
    fn first_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        let q1 = builder.add_state(true);
        builder.add_transition(q0, a, q1);
        builder.add_transition(q1, a, q1);
        builder.add_transition(q1, b, q1);
        builder.build(q0)
    }

    /// GF a — a pure liveness property; its closure is Σ^ω so the
    /// monitor never fires.
    fn inf_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        builder.build(q0)
    }

    #[test]
    fn monitor_accepts_good_traces() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        let (v, consumed) = m.run(&Word::parse(&s, "a b a b"), None).unwrap();
        assert_eq!(v, Verdict::Ok);
        assert_eq!(consumed, 4);
    }

    #[test]
    fn monitor_flags_bad_prefix_at_first_step() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        let (v, consumed) = m.run(&Word::parse(&s, "b a a"), None).unwrap();
        assert_eq!(v, Verdict::Violation);
        assert_eq!(consumed, 1);
    }

    #[test]
    fn violations_are_irremediable() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        m.run(&Word::parse(&s, "b"), None).unwrap();
        // Feeding more symbols never recovers.
        assert_eq!(m.step(s.symbol("a").unwrap()), Verdict::Violation);
        // But a reset does.
        m.reset();
        assert_eq!(m.verdict(), Verdict::Ok);
    }

    #[test]
    fn liveness_policies_never_fire() {
        // Monitoring can only enforce safety: the monitor of GF a is the
        // monitor of its closure Σ^ω and never rejects — precisely
        // Schneider's point that liveness is unenforceable.
        let s = sigma();
        let mut m = Monitor::new(&inf_a(&s));
        let (v, _) = m.run(&Word::parse(&s, "b b b b b b"), None).unwrap();
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn empty_policy_rejects_everything() {
        let s = sigma();
        let mut m = Monitor::new(&Buchi::empty_language(s.clone()));
        assert_eq!(m.verdict(), Verdict::Violation);
        let (v, consumed) = m.run(&Word::parse(&s, "a"), None).unwrap();
        assert_eq!(v, Verdict::Violation);
        assert_eq!(consumed, 1);
    }

    #[test]
    fn security_automaton_truncates() {
        let s = sigma();
        let mut sa = SecurityAutomaton::new(&first_a(&s));
        let allowed = sa.enforce(&Word::parse(&s, "a a b a"));
        assert_eq!(allowed, Word::parse(&s, "a a b a"));
        assert!(!sa.halted());

        let mut sa = SecurityAutomaton::new(&first_a(&s));
        let allowed = sa.enforce(&Word::parse(&s, "b a a"));
        assert_eq!(allowed, Word::empty());
        assert!(sa.halted());
        // Once halted, everything is suppressed.
        assert!(!sa.submit(s.symbol("a").unwrap()));
    }

    #[test]
    fn monitor_is_deterministic_and_small() {
        let s = sigma();
        let m = Monitor::new(&first_a(&s));
        // Subset construction of a 2-state safety automaton stays small.
        assert!(m.num_states() <= 4);
    }

    #[test]
    fn out_of_alphabet_symbol_yields_unknown_not_panic() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        let bogus = sl_omega::Symbol(999);
        assert_eq!(m.step(bogus), Verdict::Unknown);
        // Unknown is sticky: later valid symbols cannot restore Ok...
        assert_eq!(m.step(s.symbol("a").unwrap()), Verdict::Unknown);
        assert_eq!(m.verdict(), Verdict::Unknown);
        // ...but a reset recovers fully.
        m.reset();
        assert_eq!(m.verdict(), Verdict::Ok);
        assert_eq!(m.step(s.symbol("a").unwrap()), Verdict::Ok);
    }

    #[test]
    fn run_settles_on_unknown_with_position() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        let trace = Word::new(&[
            s.symbol("a").unwrap(),
            sl_omega::Symbol(7),
            s.symbol("a").unwrap(),
        ]);
        let (v, consumed) = m.run(&trace, None).unwrap();
        assert_eq!(v, Verdict::Unknown);
        assert_eq!(consumed, 2, "the malformed symbol is counted");
    }

    #[test]
    fn violation_beats_unknown_when_already_dead() {
        // Once dead, even malformed symbols report Violation — safety
        // verdicts are irremediable and take precedence.
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        m.run(&Word::parse(&s, "b"), None).unwrap();
        assert_eq!(m.step(sl_omega::Symbol(500)), Verdict::Violation);
    }

    #[test]
    fn budgeted_run_bounds_trace_work() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        let trace = Word::parse(&s, "a b a b a b");
        // Enough budget: same answer as the unbudgeted run.
        let (v, consumed) = m.run(&trace, Some(&Budget::unlimited())).unwrap();
        assert_eq!((v, consumed), (Verdict::Ok, 6));
        assert_eq!(m.run(&trace, None).unwrap(), (v, consumed));
        // Too little budget: typed error with the spent count.
        let err = m
            .run(&trace, Some(&Budget::unlimited().with_steps(3)))
            .unwrap_err();
        assert!(err.is_budget_exceeded());
        assert_eq!(err.spent(), Some(4));
    }

    /// A long deterministic "at most `n-1` b's" chain: the monitor has
    /// the same state count as the automaton, so it makes a good probe
    /// for state-count-dependent work in the hot path.
    fn chain(s: &Alphabet, n: usize) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let states: Vec<_> = (0..n).map(|_| builder.add_state(true)).collect();
        for i in 0..n {
            builder.add_transition(states[i], a, states[i]);
            if i + 1 < n {
                builder.add_transition(states[i], b, states[i + 1]);
            }
        }
        builder.build(states[0])
    }

    #[test]
    fn peek_matches_step_without_moving() {
        let s = sigma();
        let mut m = Monitor::new(&first_a(&s));
        for sym in [
            s.symbol("a").unwrap(),
            s.symbol("b").unwrap(),
            sl_omega::Symbol(99),
        ] {
            let peeked = m.peek(sym);
            let before = m.verdict();
            assert_eq!(m.verdict(), before, "peek must not move the monitor");
            let mut probe = m.clone();
            assert_eq!(
                probe.step(sym),
                peeked,
                "peek disagrees with step on {sym:?}"
            );
        }
        // After a violation, peek keeps reporting Violation.
        m.run(&Word::parse(&s, "b"), None).unwrap();
        assert_eq!(m.peek(s.symbol("a").unwrap()), Verdict::Violation);
        assert_eq!(m.peek(sl_omega::Symbol(7)), Verdict::Violation);
    }

    #[test]
    fn submit_does_no_allocation_scale_work() {
        // Regression: `submit` used to clone the whole monitor table
        // per action. On a 4000-state monitor that is allocation-bound
        // (minutes for this loop); a table-lookup peek finishes in
        // well under a second even on slow CI.
        let s = sigma();
        let policy = chain(&s, 4000);
        let mut sa = SecurityAutomaton::new(&policy);
        assert!(sa.monitor_states() >= 4000);
        let a = s.symbol("a").unwrap();
        let start = std::time::Instant::now();
        for _ in 0..50_000 {
            assert!(sa.submit(a));
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "50k submits on a 4000-state monitor took {:?} — submit is doing \
             state-count-proportional work again",
            start.elapsed()
        );
    }

    #[test]
    fn enforce_handles_long_traces_linearly() {
        // Regression: `enforce` used to rebuild the allowed prefix with
        // the persistent `Word::push`, copying O(n²) symbols. 100k
        // symbols would take minutes; linear accumulation is instant.
        let s = sigma();
        let policy = chain(&s, 4);
        let a = s.symbol("a").unwrap();
        let trace: Word = std::iter::repeat(a).take(100_000).collect();
        let mut sa = SecurityAutomaton::new(&policy);
        let start = std::time::Instant::now();
        let allowed = sa.enforce(&trace);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "enforcing a 100k-symbol trace took {:?} — prefix rebuilding is quadratic again",
            start.elapsed()
        );
        assert_eq!(allowed, trace);
        assert!(!sa.halted());
        // And a trace that dies midway still truncates correctly.
        let b = s.symbol("b").unwrap();
        let mixed: Word = std::iter::repeat(a)
            .take(10)
            .chain(std::iter::repeat(b).take(10))
            .collect();
        let mut sa = SecurityAutomaton::new(&policy);
        let allowed = sa.enforce(&mixed);
        assert_eq!(allowed.len(), 13, "3 b's pass, the 4th kills the chain");
        assert!(sa.halted());
    }

    #[test]
    fn state_round_trips_across_a_rebuild() {
        let s = sigma();
        let policy = first_a(&s);
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        // Ok state mid-trace.
        let mut m = Monitor::new(&policy);
        m.step(a);
        m.step(b);
        let saved = m.save_state();
        let mut fresh = Monitor::new(&policy);
        assert!(fresh.load_state(saved));
        assert_eq!(fresh.verdict(), Verdict::Ok);
        assert_eq!(
            fresh.step(a),
            m.step(a),
            "restored monitor steps identically"
        );
        // Sentinels survive too.
        let mut dead = Monitor::new(&policy);
        dead.step(b);
        let mut fresh = Monitor::new(&policy);
        assert!(fresh.load_state(dead.save_state()));
        assert_eq!(fresh.verdict(), Verdict::Violation);
        let mut unk = Monitor::new(&policy);
        unk.step(sl_omega::Symbol(999));
        let mut fresh = Monitor::new(&policy);
        assert!(fresh.load_state(unk.save_state()));
        assert_eq!(fresh.verdict(), Verdict::Unknown);
        // Out-of-range raw states are rejected without moving anything.
        let before = fresh.save_state();
        assert!(!fresh.load_state(1_000_000));
        assert_eq!(fresh.save_state(), before);
    }

    #[test]
    fn security_automaton_halts_on_uninterpretable_action() {
        let s = sigma();
        let mut sa = SecurityAutomaton::new(&first_a(&s));
        assert!(sa.submit(s.symbol("a").unwrap()));
        assert!(!sa.submit(sl_omega::Symbol(42)), "fail-safe deny");
        assert!(sa.halted());
        // Enforce never panics on a trace with a stray symbol.
        let mut sa = SecurityAutomaton::new(&first_a(&s));
        let trace = Word::new(&[
            s.symbol("a").unwrap(),
            sl_omega::Symbol(42),
            s.symbol("a").unwrap(),
        ]);
        let allowed = sa.enforce(&trace);
        assert_eq!(allowed, Word::parse(&s, "a"));
        assert!(sa.halted());
    }
}
