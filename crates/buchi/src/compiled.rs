//! Compiled safety monitors: the [`Monitor`]'s safety-closure DFA
//! determinized, Hopcroft-minimized, and flattened into a dense
//! row-major `u16` transition table.
//!
//! The [`Monitor`] steps through `Vec<Vec<usize>>` rows with a branch
//! per sentinel; good enough for one trace, too slow for a fleet. A
//! [`CompiledMonitor`] lowers the same machine into a flat table with
//! two *physical* sentinel rows — a dead row and an unknown row, each
//! self-looping — so stepping an in-alphabet symbol is one unconditional
//! load: `next = cells[state * stride + symbol]`. Out-of-alphabet
//! symbols (untrusted traces) take the one remaining branch: a dead
//! monitor stays dead (violations are irremediable and beat Unknown),
//! anything else moves to the sticky unknown row.
//!
//! On top sits [`MonitorFleet`], a structure-of-arrays batch stepper:
//! one shared table, one `u16` of current state per session, stepped in
//! a single cache-friendly loop. `sld`'s `monitor-step` rides this for
//! every safety-classified target (E13 measures the headroom; the
//! `compiled` conformance oracle holds it verdict-for-verdict to the
//! subset-construction [`Monitor`] and an independent NFA-set stepper).
//!
//! Semantics are *identical* to [`Monitor`] by construction: the table
//! is built from the monitor's own subset construction, minimization
//! only merges states with equal residual verdict languages, and
//! [`CompiledMonitor::agrees_with`] checks the equivalence exhaustively
//! (a BFS over the product of two tables).

use crate::automaton::Buchi;
use crate::monitor::{Monitor, Verdict, DEAD};
use sl_omega::{Symbol, Word};
use sl_support::{Budget, SlError};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Why a policy could not be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileError {
    /// The (minimized) monitor DFA has more states than a dense `u16`
    /// table can address once the two sentinel rows are reserved.
    TooManyStates(usize),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooManyStates(n) => write!(
                f,
                "monitor has {n} states; a compiled table addresses at most {}",
                usize::from(u16::MAX) - 1
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// The shared dense table: `cells[state * stride + symbol]` is the
/// successor, with two self-looping sentinel rows appended after the
/// `num_states` real rows (`dead`, then `unknown`).
#[derive(Debug, PartialEq, Eq)]
struct DenseTable {
    /// Row width = alphabet size.
    stride: usize,
    /// Real (alive) states; the sentinel rows sit at `num_states` and
    /// `num_states + 1`.
    num_states: usize,
    /// Start state (the dead sentinel when the closure is empty).
    initial: u16,
    /// The dead row index: every in-alphabet step self-loops.
    dead: u16,
    /// The sticky unknown row index: likewise self-looping.
    unknown: u16,
    /// Row-major transitions, `(num_states + 2) * stride` entries.
    cells: Vec<u16>,
}

impl DenseTable {
    /// One transition. In-alphabet symbols are a single table load —
    /// the sentinel rows make dead/unknown handling branch-free.
    /// Out-of-alphabet symbols move everything but the dead row to the
    /// unknown row (violations beat Unknown, matching [`Monitor`]).
    #[inline]
    fn next(&self, current: u16, sym: Symbol) -> u16 {
        let s = sym.index();
        if s < self.stride {
            self.cells[current as usize * self.stride + s]
        } else if current == self.dead {
            self.dead
        } else {
            self.unknown
        }
    }

    #[inline]
    fn verdict_of(&self, current: u16) -> Verdict {
        if current == self.dead {
            Verdict::Violation
        } else if current == self.unknown {
            Verdict::Unknown
        } else {
            Verdict::Ok
        }
    }
}

/// A compiled deterministic safety monitor: drop-in verdict-equivalent
/// to [`Monitor`], backed by the flat [`DenseTable`].
///
/// Cloning is cheap (the table is shared behind an [`Arc`]); clones
/// step independently.
#[derive(Debug, Clone)]
pub struct CompiledMonitor {
    table: Arc<DenseTable>,
    current: u16,
}

impl CompiledMonitor {
    /// Compiles the monitor for `lcl(L(b))`: subset construction over
    /// the safety closure (exactly [`Monitor::new`]), completed with a
    /// dead sink, Hopcroft-minimized, and flattened.
    ///
    /// # Errors
    ///
    /// [`CompileError::TooManyStates`] when the minimized DFA does not
    /// fit a `u16` table.
    pub fn new(b: &Buchi) -> Result<Self, CompileError> {
        Self::build(b, true)
    }

    /// [`CompiledMonitor::new`] without the minimization pass — the
    /// raw subset-construction DFA, flattened as-is. Exists so the
    /// minimization step itself can be checked for language
    /// equivalence ([`CompiledMonitor::agrees_with`]).
    ///
    /// # Errors
    ///
    /// [`CompileError::TooManyStates`] when the DFA does not fit.
    pub fn without_minimization(b: &Buchi) -> Result<Self, CompileError> {
        Self::build(b, false)
    }

    fn build(b: &Buchi, minimize: bool) -> Result<Self, CompileError> {
        let stride = b.alphabet().len();
        let monitor = Monitor::new(b);
        let n = monitor.table.len();
        // Complete the DFA with an explicit dead sink at index n, so
        // minimization and the BFS renumbering see a total function.
        let total = n + 1;
        let dead_idx = n;
        let mut delta = vec![dead_idx; total * stride];
        for (s, row) in monitor.table.iter().enumerate() {
            for (c, &t) in row.iter().enumerate() {
                delta[s * stride + c] = if t == DEAD { dead_idx } else { t };
            }
        }
        let accepting: Vec<bool> = (0..total).map(|s| s != dead_idx).collect();
        let class_of: Vec<usize> = if minimize {
            hopcroft(total, stride, &delta, &accepting)
        } else {
            (0..total).collect()
        };
        let num_classes = class_of.iter().max().map_or(0, |&c| c + 1);
        // Any member serves as a class representative: minimization
        // merges states only when their rows land in the same classes.
        let mut rep = vec![usize::MAX; num_classes];
        for s in 0..total {
            if rep[class_of[s]] == usize::MAX {
                rep[class_of[s]] = s;
            }
        }
        let dead_class = class_of[dead_idx];
        let init_class = class_of[if monitor.initial == DEAD {
            dead_idx
        } else {
            monitor.initial
        }];
        // BFS renumbering from the initial class gives a canonical
        // layout and drops anything unreachable; the dead class maps to
        // the sentinel row instead of a table row.
        let mut rank = vec![usize::MAX; num_classes];
        let mut order: Vec<usize> = Vec::new();
        if init_class != dead_class {
            rank[init_class] = 0;
            order.push(init_class);
            let mut head = 0;
            while head < order.len() {
                let s = rep[order[head]];
                head += 1;
                for c in 0..stride {
                    let t = class_of[delta[s * stride + c]];
                    if t != dead_class && rank[t] == usize::MAX {
                        rank[t] = order.len();
                        order.push(t);
                    }
                }
            }
        }
        let live = order.len();
        if live > usize::from(u16::MAX) - 1 {
            return Err(CompileError::TooManyStates(live));
        }
        let dead = live as u16;
        let unknown = live as u16 + 1;
        let mut cells = vec![0u16; (live + 2) * stride];
        for (i, &class) in order.iter().enumerate() {
            let s = rep[class];
            for c in 0..stride {
                let t = class_of[delta[s * stride + c]];
                cells[i * stride + c] = if t == dead_class {
                    dead
                } else {
                    rank[t] as u16
                };
            }
        }
        for c in 0..stride {
            cells[live as usize * stride + c] = dead;
            cells[(live + 1) * stride + c] = unknown;
        }
        let initial = if init_class == dead_class { dead } else { 0 };
        Ok(CompiledMonitor {
            table: Arc::new(DenseTable {
                stride,
                num_states: live,
                initial,
                dead,
                unknown,
                cells,
            }),
            current: initial,
        })
    }

    /// Number of real table states (excluding the two sentinel rows).
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.table.num_states
    }

    /// Resets to the initial state.
    pub fn reset(&mut self) {
        self.current = self.table.initial;
    }

    /// The current verdict.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        self.table.verdict_of(self.current)
    }

    /// Feeds one symbol; returns the verdict after the step. Identical
    /// semantics to [`Monitor::step`]: violations are irremediable,
    /// out-of-alphabet symbols are sticky [`Verdict::Unknown`] (unless
    /// already dead), and nothing panics on untrusted input.
    pub fn step(&mut self, sym: Symbol) -> Verdict {
        self.current = self.table.next(self.current, sym);
        self.table.verdict_of(self.current)
    }

    /// Runs a whole finite trace from the initial state, returning the
    /// final verdict and the settle position — mirrors [`Monitor::run`]
    /// exactly, budget included (phase `"buchi.monitor"`, one step per
    /// symbol, charged before the symbol is consumed).
    ///
    /// With `budget: None` the loop hoists the table's hot scalars into
    /// locals so each in-alphabet symbol costs one table load plus two
    /// predictable compares (the sentinel rows are the two largest
    /// indices, so "settled?" is a single `>=`). This is the
    /// single-trace fast path; [`MonitorFleet::step_all`] is the
    /// many-session one.
    ///
    /// # Errors
    ///
    /// [`SlError::BudgetExceeded`] / [`SlError::Cancelled`] when the
    /// budget runs out mid-trace. Never with `budget: None`.
    pub fn run(
        &mut self,
        trace: &Word,
        budget: Option<&Budget>,
    ) -> Result<(Verdict, usize), SlError> {
        if let Some(budget) = budget {
            self.reset();
            let mut meter = budget.meter("buchi.monitor");
            for (i, &sym) in trace.as_slice().iter().enumerate() {
                meter.charge(1)?;
                match self.step(sym) {
                    Verdict::Ok => {}
                    settled => return Ok((settled, i + 1)),
                }
            }
            return Ok((Verdict::Ok, trace.len()));
        }
        let table = &*self.table;
        let (stride, dead, unknown) = (table.stride, table.dead, table.unknown);
        let cells = table.cells.as_slice();
        let mut cur = table.initial;
        for (i, &sym) in trace.as_slice().iter().enumerate() {
            let s = sym.index();
            cur = if s < stride {
                cells[cur as usize * stride + s]
            } else if cur == dead {
                dead
            } else {
                unknown
            };
            if cur >= dead {
                self.current = cur;
                let settled = if cur == dead {
                    Verdict::Violation
                } else {
                    Verdict::Unknown
                };
                return Ok((settled, i + 1));
            }
        }
        self.current = cur;
        Ok((Verdict::Ok, trace.len()))
    }

    /// Exhaustive verdict-language equivalence with another compiled
    /// table: BFS over the product of the two tables, demanding equal
    /// verdicts at every reachable state pair. This is exact (both
    /// machines are finite and complete), so it certifies that
    /// minimization changed nothing observable.
    #[must_use]
    pub fn agrees_with(&self, other: &CompiledMonitor) -> bool {
        let (a, b) = (&self.table, &other.table);
        if a.stride != b.stride {
            return false;
        }
        let start = (a.initial, b.initial);
        let mut seen: HashSet<(u16, u16)> = HashSet::new();
        seen.insert(start);
        let mut stack = vec![start];
        while let Some((x, y)) = stack.pop() {
            if a.verdict_of(x) != b.verdict_of(y) {
                return false;
            }
            for c in 0..a.stride {
                let pair = (
                    a.cells[x as usize * a.stride + c],
                    b.cells[y as usize * b.stride + c],
                );
                if seen.insert(pair) {
                    stack.push(pair);
                }
            }
        }
        true
    }
}

/// Hopcroft partition refinement on a complete DFA given as a dense
/// row-major table. Returns `class_of[state]`; states share a class iff
/// they are indistinguishable by any symbol sequence under the
/// `accepting` predicate. Deterministic: the worklist is a stack and
/// split candidates are processed in sorted class order.
fn hopcroft(n: usize, stride: usize, delta: &[usize], accepting: &[bool]) -> Vec<usize> {
    // Inverse transitions per symbol.
    let mut inv: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); n]; stride];
    for q in 0..n {
        for c in 0..stride {
            inv[c][delta[q * stride + c]].push(q);
        }
    }
    let mut class_of = vec![0usize; n];
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for want in [true, false] {
        let members: Vec<usize> = (0..n).filter(|&q| accepting[q] == want).collect();
        if !members.is_empty() {
            for &q in &members {
                class_of[q] = classes.len();
            }
            classes.push(members);
        }
    }
    let mut work: Vec<usize> = (0..classes.len()).collect();
    let mut on_work = vec![true; classes.len()];
    // Scratch: per-class collectors for the splitter preimage, plus a
    // membership mark reused across splits.
    let mut bucket: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    let mut in_preimage = vec![false; n];
    while let Some(splitter_id) = work.pop() {
        on_work[splitter_id] = false;
        // Snapshot: the splitter stays valid as a union of classes even
        // if it is itself split below (Hopcroft's invariant).
        let splitter = classes[splitter_id].clone();
        for c in 0..stride {
            // Group delta⁻¹(splitter, c) by current class. delta is a
            // function, so each predecessor appears exactly once.
            let mut touched: Vec<usize> = Vec::new();
            for &q in &splitter {
                for &p in &inv[c][q] {
                    let y = class_of[p];
                    if bucket[y].is_empty() {
                        touched.push(y);
                    }
                    bucket[y].push(p);
                }
            }
            touched.sort_unstable();
            for &y in &touched {
                let moved = std::mem::take(&mut bucket[y]);
                if moved.len() == classes[y].len() {
                    continue; // the whole class maps into the splitter
                }
                for &p in &moved {
                    in_preimage[p] = true;
                }
                let keep: Vec<usize> = classes[y]
                    .iter()
                    .copied()
                    .filter(|&p| !in_preimage[p])
                    .collect();
                for &p in &moved {
                    in_preimage[p] = false;
                }
                let new_id = classes.len();
                for &p in &moved {
                    class_of[p] = new_id;
                }
                classes[y] = keep;
                classes.push(moved);
                bucket.push(Vec::new());
                on_work.push(false);
                // Pending classes must keep both halves queued;
                // otherwise the smaller half suffices.
                if on_work[y] {
                    on_work[new_id] = true;
                    work.push(new_id);
                } else {
                    let smaller = if classes[y].len() <= classes[new_id].len() {
                        y
                    } else {
                        new_id
                    };
                    on_work[smaller] = true;
                    work.push(smaller);
                }
            }
        }
    }
    class_of
}

/// A structure-of-arrays batch stepper: many monitor sessions over one
/// shared compiled table, each session a single `u16` of current state.
/// Stepping the whole fleet by one symbol is a single pass over a flat
/// array — the cache-friendly loop `sld`'s `monitor-step` hot path and
/// the E13 bench ride.
#[derive(Debug)]
pub struct MonitorFleet {
    table: Arc<DenseTable>,
    states: Vec<u16>,
}

impl MonitorFleet {
    /// An empty fleet sharing `monitor`'s table.
    #[must_use]
    pub fn new(monitor: &CompiledMonitor) -> Self {
        MonitorFleet {
            table: Arc::clone(&monitor.table),
            states: Vec::new(),
        }
    }

    /// Adds a session at the initial state; returns its slot index.
    /// Slots are stable for the fleet's lifetime.
    pub fn spawn(&mut self) -> usize {
        self.states.push(self.table.initial);
        self.states.len() - 1
    }

    /// Number of sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the fleet has no sessions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Resets one session to the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never spawned.
    pub fn reset(&mut self, slot: usize) {
        self.states[slot] = self.table.initial;
    }

    /// One session's current verdict.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never spawned.
    #[must_use]
    pub fn verdict(&self, slot: usize) -> Verdict {
        self.table.verdict_of(self.states[slot])
    }

    /// Steps one session by one symbol — same semantics as
    /// [`CompiledMonitor::step`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never spawned.
    pub fn step(&mut self, slot: usize, sym: Symbol) -> Verdict {
        let next = self.table.next(self.states[slot], sym);
        self.states[slot] = next;
        self.table.verdict_of(next)
    }

    /// Steps *every* session by one symbol in a single pass over the
    /// state array. In-alphabet symbols are one load per session with
    /// no branches (sentinel rows absorb dead/unknown); out-of-alphabet
    /// symbols move every non-dead session to the unknown row.
    pub fn step_all(&mut self, sym: Symbol) {
        let table = &*self.table;
        let s = sym.index();
        if s < table.stride {
            for state in &mut self.states {
                *state = table.cells[*state as usize * table.stride + s];
            }
        } else {
            for state in &mut self.states {
                if *state != table.dead {
                    *state = table.unknown;
                }
            }
        }
    }

    /// One session's raw table state (sentinel rows included) for
    /// snapshot/restore — the table construction is deterministic, so
    /// the index round-trips through a recompile of the same policy.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never spawned.
    #[must_use]
    pub fn save_state(&self, slot: usize) -> u16 {
        self.states[slot]
    }

    /// Restores a slot's state captured by [`MonitorFleet::save_state`].
    /// Returns `false` (slot unchanged) when `slot` was never spawned
    /// or `raw` is beyond the table's sentinel rows — the fail-closed
    /// answer for a corrupted snapshot.
    pub fn load_state(&mut self, slot: usize, raw: u16) -> bool {
        if slot >= self.states.len() || raw > self.table.unknown {
            return false;
        }
        self.states[slot] = raw;
        true
    }

    /// Counts sessions by verdict: `(ok, violation, unknown)`.
    #[must_use]
    pub fn tally(&self) -> (usize, usize, usize) {
        let (mut ok, mut violation, mut unknown) = (0, 0, 0);
        for &state in &self.states {
            match self.table.verdict_of(state) {
                Verdict::Ok => ok += 1,
                Verdict::Violation => violation += 1,
                Verdict::Unknown => unknown += 1,
            }
        }
        (ok, violation, unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::random::{random_buchi, RandomConfig};
    use sl_omega::{all_words, Alphabet};

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    /// "First symbol is a" — the monitor module's canonical safety
    /// policy.
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

    #[test]
    fn compiled_matches_monitor_on_exhaustive_short_words() {
        let s = sigma();
        let policy = first_a(&s);
        let monitor = Monitor::new(&policy);
        let compiled = CompiledMonitor::new(&policy).unwrap();
        for trace in all_words(&s, 5) {
            let (v1, c1) = monitor.clone().run(&trace, None).unwrap();
            let (v2, c2) = compiled.clone().run(&trace, None).unwrap();
            assert_eq!((v1, c1), (v2, c2), "on {}", trace.display(&s));
        }
    }

    #[test]
    fn compiled_matches_monitor_on_random_automata() {
        let s = sigma();
        for seed in 0..40u64 {
            let policy = random_buchi(
                &s,
                seed,
                RandomConfig {
                    states: 1 + (seed % 5) as usize,
                    density_percent: 60,
                    accepting_percent: 40,
                },
            );
            let monitor = Monitor::new(&policy);
            let compiled = CompiledMonitor::new(&policy).unwrap();
            for trace in all_words(&s, 4) {
                let (v1, c1) = monitor.clone().run(&trace, None).unwrap();
                let (v2, c2) = compiled.clone().run(&trace, None).unwrap();
                assert_eq!((v1, c1), (v2, c2), "seed {seed} on {}", trace.display(&s));
            }
        }
    }

    #[test]
    fn minimization_is_language_preserving_and_no_larger() {
        let s = sigma();
        for seed in 0..40u64 {
            let policy = random_buchi(
                &s,
                seed,
                RandomConfig {
                    states: 1 + (seed % 6) as usize,
                    density_percent: 55,
                    accepting_percent: 35,
                },
            );
            let minimized = CompiledMonitor::new(&policy).unwrap();
            let raw = CompiledMonitor::without_minimization(&policy).unwrap();
            assert!(
                minimized.num_states() <= raw.num_states(),
                "seed {seed}: minimized {} > raw {}",
                minimized.num_states(),
                raw.num_states()
            );
            assert!(
                minimized.agrees_with(&raw),
                "seed {seed}: languages diverge"
            );
            assert!(raw.agrees_with(&minimized), "agreement must be symmetric");
        }
    }

    #[test]
    fn minimization_actually_merges_redundant_states() {
        // Two copies of the same alive behaviour reached
        // nondeterministically produce duplicate subset states; the
        // minimized table must collapse them.
        let s = sigma();
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        let q1 = builder.add_state(true);
        let q2 = builder.add_state(true);
        builder.add_transition(q0, a, q1);
        builder.add_transition(q0, b, q2);
        for q in [q1, q2] {
            builder.add_transition(q, a, q);
            builder.add_transition(q, b, q);
        }
        let policy = builder.build(q0);
        let minimized = CompiledMonitor::new(&policy).unwrap();
        let raw = CompiledMonitor::without_minimization(&policy).unwrap();
        assert!(minimized.num_states() < raw.num_states());
        assert!(minimized.agrees_with(&raw));
    }

    #[test]
    fn sticky_unknown_and_irremediable_violation() {
        let s = sigma();
        let mut m = CompiledMonitor::new(&first_a(&s)).unwrap();
        // Out-of-alphabet from alive: sticky Unknown, reset recovers.
        assert_eq!(m.step(Symbol(999)), Verdict::Unknown);
        assert_eq!(m.step(s.symbol("a").unwrap()), Verdict::Unknown);
        m.reset();
        assert_eq!(m.verdict(), Verdict::Ok);
        // Violation beats Unknown once dead.
        m.run(&Word::parse(&s, "b"), None).unwrap();
        assert_eq!(m.verdict(), Verdict::Violation);
        assert_eq!(m.step(Symbol(500)), Verdict::Violation);
    }

    #[test]
    fn empty_policy_compiles_to_the_dead_sentinel() {
        let s = sigma();
        let mut m = CompiledMonitor::new(&Buchi::empty_language(s.clone())).unwrap();
        assert_eq!(m.num_states(), 0);
        assert_eq!(m.verdict(), Verdict::Violation);
        let (v, consumed) = m.run(&Word::parse(&s, "a"), None).unwrap();
        assert_eq!((v, consumed), (Verdict::Violation, 1));
        assert_eq!(m.step(Symbol(77)), Verdict::Violation, "still a violation");
    }

    #[test]
    fn budgeted_run_matches_monitor_semantics() {
        let s = sigma();
        let policy = first_a(&s);
        let trace = Word::parse(&s, "a b a b a b");
        let mut compiled = CompiledMonitor::new(&policy).unwrap();
        let (v, consumed) = compiled.run(&trace, Some(&Budget::unlimited())).unwrap();
        assert_eq!((v, consumed), (Verdict::Ok, 6));
        assert_eq!(compiled.run(&trace, None).unwrap(), (v, consumed));
        let err = compiled
            .run(&trace, Some(&Budget::unlimited().with_steps(3)))
            .unwrap_err();
        assert!(err.is_budget_exceeded());
        assert_eq!(err.spent(), Some(4), "same charge pattern as Monitor");
    }

    #[test]
    fn fleet_slots_track_independent_sessions() {
        let s = sigma();
        let compiled = CompiledMonitor::new(&first_a(&s)).unwrap();
        let mut fleet = MonitorFleet::new(&compiled);
        let s0 = fleet.spawn();
        let s1 = fleet.spawn();
        let s2 = fleet.spawn();
        assert_eq!(fleet.len(), 3);
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        assert_eq!(fleet.step(s0, a), Verdict::Ok);
        assert_eq!(fleet.step(s1, b), Verdict::Violation);
        assert_eq!(fleet.step(s2, Symbol(1000)), Verdict::Unknown);
        assert_eq!(fleet.verdict(s0), Verdict::Ok);
        assert_eq!(fleet.verdict(s1), Verdict::Violation);
        assert_eq!(fleet.verdict(s2), Verdict::Unknown);
        assert_eq!(fleet.tally(), (1, 1, 1));
        fleet.reset(s1);
        assert_eq!(fleet.verdict(s1), Verdict::Ok);
    }

    #[test]
    fn fleet_step_all_matches_individual_stepping() {
        let s = sigma();
        let policy = first_a(&s);
        let compiled = CompiledMonitor::new(&policy).unwrap();
        let mut fleet = MonitorFleet::new(&compiled);
        let mut singles: Vec<CompiledMonitor> = Vec::new();
        for _ in 0..16 {
            fleet.spawn();
            singles.push(compiled.clone());
        }
        // Desynchronize the sessions, then batch-step and compare.
        let symbols = [Symbol(0), Symbol(1), Symbol(0), Symbol(9999), Symbol(1)];
        for (i, single) in singles.iter_mut().enumerate() {
            for sym in symbols.iter().take(i % symbols.len()) {
                single.step(*sym);
                fleet.step(i, *sym);
            }
        }
        for sym in symbols {
            fleet.step_all(sym);
            for (i, single) in singles.iter_mut().enumerate() {
                assert_eq!(single.step(sym), fleet.verdict(i), "slot {i} on {sym:?}");
            }
        }
    }

    #[test]
    fn fleet_slot_state_round_trips_across_a_rebuild() {
        let s = sigma();
        let policy = first_a(&s);
        let compiled = CompiledMonitor::new(&policy).unwrap();
        let mut fleet = MonitorFleet::new(&compiled);
        let (s0, s1, s2) = (fleet.spawn(), fleet.spawn(), fleet.spawn());
        fleet.step(s0, s.symbol("a").unwrap());
        fleet.step(s1, s.symbol("b").unwrap());
        fleet.step(s2, Symbol(1000));
        // Rebuild the table from the same policy (deterministic), spawn
        // the same slots, restore the raw states: verdicts carry over.
        let recompiled = CompiledMonitor::new(&policy).unwrap();
        let mut restored = MonitorFleet::new(&recompiled);
        for slot in [s0, s1, s2] {
            let fresh = restored.spawn();
            assert!(restored.load_state(fresh, fleet.save_state(slot)));
        }
        assert_eq!(restored.verdict(s0), Verdict::Ok);
        assert_eq!(restored.verdict(s1), Verdict::Violation);
        assert_eq!(restored.verdict(s2), Verdict::Unknown);
        // Beyond-sentinel raw states and unspawned slots are rejected.
        assert!(!restored.load_state(s0, u16::MAX));
        assert!(!restored.load_state(99, 0));
    }

    #[test]
    fn agrees_with_detects_genuine_differences() {
        let s = sigma();
        let first = CompiledMonitor::new(&first_a(&s)).unwrap();
        let universal = CompiledMonitor::new(&Buchi::universal(s.clone())).unwrap();
        assert!(!first.agrees_with(&universal));
        assert!(first.agrees_with(&first.clone()));
    }
}
