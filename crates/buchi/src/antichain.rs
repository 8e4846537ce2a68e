//! Antichain-based inclusion, universality, and equivalence — the
//! complement-free decision procedures behind every inclusion question.
//!
//! The rank-based oracle in [`crate::incl`] decides `L(A) ⊆ L(B)` by
//! materializing the Kupferman–Vardi complement of `B` — exponential
//! even when the answer is an easy "no". This module decides the same
//! question *without ever constructing `¬B`*, by one of two searches
//! picked by the right operand's shape.
//!
//! **Deterministic `B`** (at most one successor per state and letter):
//! one breadth-first pass over the reachable product of `A` with `B`
//! completed by a rejecting sink, then one SCC pass. `B`'s run on a word
//! is unique, so a word is in `L(A) \ L(B)` iff `A` has an accepting
//! run along which `B`'s run — sink included — eventually stays out of
//! `F_B`; in the product that is a reachable cycle through an `F_A`
//! state that never enters `F_B`. So a counterexample exists iff a
//! cyclic SCC of the reachable product, restricted to states outside
//! `F_B`, holds an `F_A` state. The witness stem is the BFS path to the
//! first-discovered such state, the cycle the BFS-shortest way back to
//! it inside its component, ties broken by symbol order. Time and
//! memory grow with the reachable product, never with `|A|·|B|`.
//!
//! **Any other `B`**: an antichain search for a counterexample lasso
//! `u·v^ω ∈ L(A) \ L(B)`:
//!
//! * Every finite word `w` induces a **word-graph** `g_w` over `B`'s
//!   states: an arc `q → q'` iff `B` can go from `q` to `q'` reading
//!   `w`, flagged *accepting* iff some such path visits `F_B`
//!   (endpoints included). Word-graphs compose exactly
//!   (`g_{w1·w2} = g_{w1} ∘ g_{w2}`). A graph is one flat `u64` slice —
//!   its `n` `reach` rows, then its `n` `acc` rows, `⌈n/64⌉` words per
//!   row — so composition ORs row words into a caller-owned buffer and
//!   the comparison below is one pass of `x & !y == 0`.
//! * The search enumerates elements `(p, q, f, g_w)` — "`A` can go from
//!   `p` to `q` on `w` (visiting `F_A` iff `f`), and `w` acts on `B` as
//!   `g_w`" — closing the set under right-composition with single
//!   letters. A counterexample exists iff some *stem* element
//!   `(init_A, p, ·, g_u)` meets a *period* element `(p, p, 1, g_v)`
//!   such that the exact lasso test on `(g_u, g_v)` says `u·v^ω ∉ L(B)`.
//! * **Antichain subsumption** keeps only the most-promising elements:
//!   `x` subsumes `y` (same endpoints) iff `x.f ≥ y.f` and `x`'s graph
//!   has pointwise *fewer* arcs. `B`-acceptance of a lasso is monotone
//!   in the graphs' arcs and composition is monotone in both arguments,
//!   so dropping `y` never loses a counterexample: whenever `y`'s
//!   descendants reject, `x`'s reject too — and `x` carries its own
//!   genuinely `A`-realized witness word. This is the subsumption
//!   invariant; see DESIGN.md § "Inclusion engines".
//! * The search runs **on the fly**: both operands are trimmed and
//!   quotiented by direct simulation through a
//!   [`QuotientCache`] (language-preserving, so counterexamples found
//!   on the quotients are valid for the originals), letter graphs are
//!   built on first use, and macro-states are expanded only from
//!   `A`-states the search has reached.
//! * Committed elements live in a structure-of-arrays arena: every
//!   graph in one `Vec<u64>` at a fixed stride, with parallel vectors
//!   for the accepting bit, liveness, and a witness link (parent index
//!   and last letter). A candidate is composed into one reused scratch
//!   buffer and copied into the arena only if it survives subsumption;
//!   witness words are spelled out from the links only when a
//!   counterexample is returned, and the lasso test reuses its Tarjan
//!   buffers for the whole search.
//!
//! [`included`], [`equivalent`], and [`universal`] are the only entry
//! points; each takes the quotient cache (which only the antichain
//! search reads) and an optional [`Budget`]. `None` caps the work at
//! [`DEFAULT_ANTICHAIN_BUDGET`] product states or insertion attempts
//! and consults no fault site; `Some` meters product states, attempts
//! and subsumption scans against the caller's budget and consults the
//! fault site `"buchi.incl.antichain"`. Both searches are exact: they
//! agree with the rank-based oracle on every instance (the differential
//! suite in `tests/inclusion_engines.rs` enforces this). The rank path
//! is still *required* when the caller needs the complement automaton
//! itself as an artifact (e.g. the liveness part of
//! [`crate::decompose`](mod@crate::decompose)) — this engine only
//! answers queries.

use crate::automaton::Buchi;
use crate::incl::Inclusion;
use crate::interned::QuotientCache;
use sl_omega::{LassoWord, Symbol, Word};
use sl_support::{fault, Budget, FaultPlan, SccWalk, SlError};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

/// Default cap on antichain insertion attempts — or, for a
/// deterministic right operand, on product states — for unbudgeted
/// searches (`budget: None`), mirroring
/// [`crate::complement::DEFAULT_COMPLEMENT_BUDGET`].
pub const DEFAULT_ANTICHAIN_BUDGET: usize = 1 << 17;

/// The budget phase and fault site of every inclusion search.
const PHASE: &str = "buchi.incl.antichain";

/// Test-only engine sabotage, used by the conformance fuzzer to prove
/// the differential oracles catch a real engine bug. Not part of the
/// public API; never enabled outside dedicated drill tests.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAK_SUBSUMPTION: AtomicBool = AtomicBool::new(false);
    static ACCEPTING_SINK: AtomicBool = AtomicBool::new(false);

    /// When enabled, the on-the-fly search's subsumption check compares
    /// only the accepting bit and skips the word-graph domination test —
    /// so the search wrongly discards unsubsumed elements and can report
    /// "Holds" for non-inclusions. The rank engine is untouched, which
    /// is exactly the disagreement `slfuzz --sabotage
    /// antichain-subsumption` must detect and shrink.
    pub fn set_break_subsumption(on: bool) {
        BREAK_SUBSUMPTION.store(on, Ordering::Relaxed);
    }

    /// Whether the drill flag is currently set.
    #[must_use]
    pub fn subsumption_broken() -> bool {
        BREAK_SUBSUMPTION.load(Ordering::Relaxed)
    }

    /// When enabled, the product check treats the sink that completes a
    /// deterministic right operand as accepting — so a word on which
    /// `B`'s run dies counts as accepted, and the check can report
    /// "Holds" for non-inclusions. `slfuzz --sabotage product-sink`
    /// must detect and shrink the disagreement with the rank engine.
    pub fn set_product_sink_accepting(on: bool) {
        ACCEPTING_SINK.store(on, Ordering::Relaxed);
    }

    /// Whether the product drill flag is currently set.
    #[must_use]
    pub fn product_sink_accepting() -> bool {
        ACCEPTING_SINK.load(Ordering::Relaxed)
    }
}

/// How many subsumption comparisons amortize one budget evaluation
/// (see `BudgetMeter::tick_every`).
const SCAN_STRIDE: u64 = 64;

/// Monotone counters describing the inclusion engine's work on the
/// current thread, snapshot via [`antichain_stats`]: the antichain
/// searches, and the `product_*` counters of the product checks that
/// deterministic right operands get instead. Counters accumulate per
/// thread for the life of the thread; callers interested in one query's
/// cost take a snapshot before and after and diff with
/// [`AntichainStats::delta_since`] — that is how the `sld` daemon
/// attributes work to requests even when queries run on pooled sweep
/// workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AntichainStats {
    /// Antichain searches started (one per inclusion direction with a
    /// nondeterministic right operand; a universality query is one
    /// question, an equivalence up to two).
    pub searches: u64,
    /// Antichain insertion attempts across all searches — the
    /// engine's primary work unit (what budgets meter).
    pub insert_attempts: u64,
    /// Pairwise subsumption comparisons — the hot inner loop.
    pub subsumption_scans: u64,
    /// Searches that ended with a counterexample lasso.
    pub counterexamples: u64,
    /// High-water mark, over this thread's searches, of macro-states
    /// committed past subsumption in one search — a gauge, not a
    /// counter: the memory-regression test in `tests/interned_core.rs`
    /// pins a padded search's peak to the same search on the trimmed
    /// operands through it.
    pub peak_macro_states: u64,
    /// Live antichain size when the most recent search returned (a
    /// gauge).
    pub final_antichain: u64,
    /// Product checks started (one per inclusion direction with a
    /// deterministic right operand).
    pub product_checks: u64,
    /// Product states created across those checks — the work unit the
    /// budget meters on that path.
    pub product_states: u64,
    /// Product checks that ended with a counterexample lasso.
    pub product_counterexamples: u64,
}

impl AntichainStats {
    /// The counter increments since `earlier` (saturating, so a stale
    /// or cross-thread snapshot never underflows). The two gauges —
    /// `peak_macro_states`, `final_antichain` — are levels, not
    /// counters, and are carried over as-is.
    #[must_use]
    pub fn delta_since(&self, earlier: &AntichainStats) -> AntichainStats {
        AntichainStats {
            searches: self.searches.saturating_sub(earlier.searches),
            insert_attempts: self.insert_attempts.saturating_sub(earlier.insert_attempts),
            subsumption_scans: self
                .subsumption_scans
                .saturating_sub(earlier.subsumption_scans),
            counterexamples: self.counterexamples.saturating_sub(earlier.counterexamples),
            peak_macro_states: self.peak_macro_states,
            final_antichain: self.final_antichain,
            product_checks: self.product_checks.saturating_sub(earlier.product_checks),
            product_states: self.product_states.saturating_sub(earlier.product_states),
            product_counterexamples: self
                .product_counterexamples
                .saturating_sub(earlier.product_counterexamples),
        }
    }

    /// Accumulates another delta into this total; the gauges take the
    /// maximum (a high-water mark across threads is more informative
    /// than a meaningless sum of levels).
    pub fn absorb(&mut self, delta: &AntichainStats) {
        self.searches += delta.searches;
        self.insert_attempts += delta.insert_attempts;
        self.subsumption_scans += delta.subsumption_scans;
        self.counterexamples += delta.counterexamples;
        self.peak_macro_states = self.peak_macro_states.max(delta.peak_macro_states);
        self.final_antichain = self.final_antichain.max(delta.final_antichain);
        self.product_checks += delta.product_checks;
        self.product_states += delta.product_states;
        self.product_counterexamples += delta.product_counterexamples;
    }
}

thread_local! {
    static STATS: std::cell::Cell<AntichainStats> =
        const { std::cell::Cell::new(AntichainStats {
            searches: 0,
            insert_attempts: 0,
            subsumption_scans: 0,
            counterexamples: 0,
            peak_macro_states: 0,
            final_antichain: 0,
            product_checks: 0,
            product_states: 0,
            product_counterexamples: 0,
        }) };
}

/// This thread's antichain counters since thread start.
#[must_use]
pub fn antichain_stats() -> AntichainStats {
    STATS.with(std::cell::Cell::get)
}

/// Space usage of one search, tallied as it runs: `peak` is the number
/// of macro-states ever committed past subsumption (monotone — the
/// arena high-water mark), `live` the elements currently in the
/// antichain (commits minus subsumption evictions).
#[derive(Debug, Clone, Copy, Default)]
struct SearchGauges {
    peak: u64,
    live: u64,
}

/// Folds one finished search into the thread counters. Called once per
/// search (not per step), so the hot loops stay counter-free:
/// [`included`] tallies attempts/scans in locals it already owns for
/// budgeting and flushes here.
fn record_search(attempts: u64, scans: u64, found_counterexample: bool, gauges: SearchGauges) {
    STATS.with(|cell| {
        let mut stats = cell.get();
        stats.searches += 1;
        stats.insert_attempts += attempts;
        stats.subsumption_scans += scans;
        stats.counterexamples += u64::from(found_counterexample);
        stats.peak_macro_states = stats.peak_macro_states.max(gauges.peak);
        stats.final_antichain = gauges.live;
        cell.set(stats);
    });
}

/// Folds one finished product check into the thread counters.
fn record_product(states: u64, found_counterexample: bool) {
    STATS.with(|cell| {
        let mut stats = cell.get();
        stats.product_checks += 1;
        stats.product_states += states;
        stats.product_counterexamples += u64::from(found_counterexample);
        cell.set(stats);
    });
}

/// The layout of the word-graphs over `B`'s `n` states. A graph is one
/// slice of [`Shape::len`] words: the `reach` rows, then the `acc` rows,
/// `w = ⌈n/64⌉` words per row. `reach` row `q` is the set of states
/// reachable from `q` reading the word, `acc` row `q` the subset
/// reachable via a path that visits `F_B` (endpoints included), so
/// `acc[q] ⊆ reach[q]`. Bits past `n` in a row's last word stay clear.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    w: usize,
}

impl Shape {
    fn new(n: usize) -> Shape {
        Shape {
            n,
            w: n.div_ceil(64),
        }
    }

    /// Words per graph.
    fn len(self) -> usize {
        2 * self.n * self.w
    }

    fn reach(self, g: &[u64], q: usize) -> &[u64] {
        &g[q * self.w..(q + 1) * self.w]
    }

    fn acc(self, g: &[u64], q: usize) -> &[u64] {
        &g[(self.n + q) * self.w..(self.n + q + 1) * self.w]
    }

    /// Sets bit `s` of row `row` (counting `reach` rows `0..n`, then
    /// `acc` rows `n..2n`).
    fn set(self, g: &mut [u64], row: usize, s: usize) {
        g[row * self.w + s / 64] |= 1 << (s % 64);
    }

    /// Writes the graph of the empty word into `out`: identity arcs,
    /// accepting at accepting states.
    fn identity(self, b: &Buchi, out: &mut [u64]) {
        out.fill(0);
        for q in 0..self.n {
            self.set(out, q, q);
            if b.is_accepting(q) {
                self.set(out, self.n + q, q);
            }
        }
    }

    /// Writes the graph of the single letter `sym` into `out`.
    fn letter(self, b: &Buchi, sym: Symbol, out: &mut [u64]) {
        out.fill(0);
        for q in 0..self.n {
            for &s in b.successors(q, sym) {
                self.set(out, q, s);
                if b.is_accepting(q) || b.is_accepting(s) {
                    self.set(out, self.n + q, s);
                }
            }
        }
    }

    /// Exact composition, `x` then `y`, written into `out`. A composite
    /// path visits `F_B` iff one of its halves does, which is exactly
    /// the union below — so word-graphs of concatenations are computed,
    /// not approximated. Each output word is ORed together in registers
    /// from the `y` words that the set bits of `x`'s row select, then
    /// stored once.
    fn compose(self, x: &[u64], y: &[u64], out: &mut [u64]) {
        let Shape { n, w } = self;
        let half = n * w;
        let (x_reach, x_acc) = x.split_at(half);
        // Halves of equal length let one bounds check cover both loads.
        let (y_reach, y_acc) = (&y[..half], &y[half..2 * half]);
        let (out_reach, out_acc) = out.split_at_mut(half);
        let rows = x_reach.chunks_exact(w).zip(x_acc.chunks_exact(w));
        let outs = out_reach
            .chunks_exact_mut(w)
            .zip(out_acc.chunks_exact_mut(w));
        for ((x_row, x_acc_row), (reach_out, acc_out)) in rows.zip(outs) {
            for k in 0..w {
                let (mut reach, mut acc) = (0, 0);
                // Word `k` of `y`'s row `m` sits at `m·w + k`; `base` is
                // that index for `m` = the first state of each `x` word.
                let mut base = k;
                for (&r, &a) in x_row.iter().zip(x_acc_row) {
                    let mut bits = r;
                    while bits != 0 {
                        let at = base + bits.trailing_zeros() as usize * w;
                        reach |= y_reach[at];
                        acc |= y_acc[at];
                        bits &= bits - 1;
                    }
                    let mut bits = a;
                    while bits != 0 {
                        acc |= y_reach[base + bits.trailing_zeros() as usize * w];
                        bits &= bits - 1;
                    }
                    base += 64 * w;
                }
                reach_out[k] = reach;
                acc_out[k] = acc;
            }
        }
    }
}

/// Pointwise arc inclusion: `x` has at most the arcs (and accepting
/// flags) of `y`. A smaller graph admits fewer `B`-runs, hence rejects
/// at least as many lassos — the heart of the subsumption order.
fn le(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(a, b)| a & !b == 0)
}

/// One pending node of the iterative Tarjan walk: the node, the index
/// of the row word being scanned, and that word's unvisited successors.
#[derive(Debug, Clone, Copy)]
struct Frame {
    q: usize,
    word: usize,
    bits: u64,
}

/// The exact lasso test with buffers reused across calls: one per
/// search, so the test allocates nothing once they have grown.
#[derive(Debug, Default)]
struct LassoTest {
    /// DFS number, counted from 1; 0 = unvisited.
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    calls: Vec<Frame>,
    /// The component being popped, as a bitset row.
    members: Vec<u64>,
}

impl LassoTest {
    /// Whether `u·v^ω ∈ L(B)`, where `g_u`, `g_v` are the word-graphs
    /// of `u` and `v` over `B` and `init` is `B`'s initial state.
    ///
    /// `B` accepts iff from some state in `g_u.reach[init]` a
    /// `g_v`-path leads into a strongly connected component of the
    /// `g_v.reach` digraph that contains an internal accepting arc —
    /// such a component yields a `v`-segment cycle visiting `F_B`,
    /// traversed forever; conversely an accepting run, sampled every
    /// `|v|` letters, eventually settles into exactly such a
    /// component. Tarjan's walk from the states after `u` pops exactly
    /// the components reachable from them, so each popped component is
    /// tested as it closes: `O(n + arcs)` per call.
    fn accepts(&mut self, shape: Shape, init: usize, g_u: &[u64], g_v: &[u64]) -> bool {
        let Shape { n, w } = shape;
        self.index.clear();
        self.index.resize(n, 0);
        self.low.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.stack.clear();
        self.calls.clear();
        self.members.resize(w, 0);
        let mut counter = 0;
        for k in 0..w {
            let mut roots = shape.reach(g_u, init)[k];
            while roots != 0 {
                let root = k * 64 + roots.trailing_zeros() as usize;
                roots &= roots - 1;
                if self.index[root] == 0 && self.good_component_from(shape, root, &mut counter, g_v)
                {
                    return true;
                }
            }
        }
        false
    }

    /// Runs Tarjan's walk from the unvisited `root`, returning `true`
    /// as soon as a popped component has an internal accepting arc.
    fn good_component_from(
        &mut self,
        shape: Shape,
        root: usize,
        counter: &mut usize,
        g_v: &[u64],
    ) -> bool {
        let w = shape.w;
        self.open(shape, root, counter, g_v);
        while let Some(top) = self.calls.last_mut() {
            while top.bits == 0 && top.word + 1 < w {
                top.word += 1;
                top.bits = shape.reach(g_v, top.q)[top.word];
            }
            let q = top.q;
            if top.bits != 0 {
                let next = top.word * 64 + top.bits.trailing_zeros() as usize;
                top.bits &= top.bits - 1;
                if self.index[next] == 0 {
                    self.open(shape, next, counter, g_v);
                } else if self.on_stack[next] {
                    self.low[q] = self.low[q].min(self.index[next]);
                }
                continue;
            }
            self.calls.pop();
            if let Some(parent) = self.calls.last() {
                self.low[parent.q] = self.low[parent.q].min(self.low[q]);
            }
            if self.low[q] == self.index[q] && self.pop_component(shape, q, g_v) {
                return true;
            }
        }
        false
    }

    /// Numbers `q` and pushes it on both stacks.
    fn open(&mut self, shape: Shape, q: usize, counter: &mut usize, g_v: &[u64]) {
        *counter += 1;
        self.index[q] = *counter;
        self.low[q] = *counter;
        self.stack.push(q);
        self.on_stack[q] = true;
        self.calls.push(Frame {
            q,
            word: 0,
            bits: shape.reach(g_v, q)[0],
        });
    }

    /// Pops the component rooted at `q` off the Tarjan stack and reports
    /// whether one of its `acc` arcs stays inside it.
    fn pop_component(&mut self, shape: Shape, q: usize, g_v: &[u64]) -> bool {
        let start = self
            .stack
            .iter()
            .rposition(|&s| s == q)
            .expect("an open component root is on the stack");
        self.members.fill(0);
        for &s in &self.stack[start..] {
            self.on_stack[s] = false;
            self.members[s / 64] |= 1 << (s % 64);
        }
        let good = self.stack[start..].iter().any(|&s| {
            shape
                .acc(g_v, s)
                .iter()
                .zip(&self.members)
                .any(|(a, m)| a & m != 0)
        });
        self.stack.truncate(start);
        good
    }
}

/// Marks an element with no parent: a single-letter seed.
const ROOT: u32 = u32::MAX;

/// The committed macro-states of one search, structure-of-arrays:
/// element `i`'s graph is `graphs[i·stride..(i+1)·stride]`, and its
/// accepting bit, liveness, and witness link (parent element, last
/// letter) sit at index `i` of the parallel vectors. Elements are never
/// removed — eviction only clears `alive` — so witness links stay valid
/// for the whole search.
#[derive(Debug)]
struct Arena {
    stride: usize,
    graphs: Vec<u64>,
    acc: Vec<bool>,
    alive: Vec<bool>,
    parent: Vec<u32>,
    last: Vec<Symbol>,
}

impl Arena {
    fn new(stride: usize) -> Arena {
        Arena {
            stride,
            graphs: Vec::new(),
            acc: Vec::new(),
            alive: Vec::new(),
            parent: Vec::new(),
            last: Vec::new(),
        }
    }

    fn graph(&self, i: u32) -> &[u64] {
        let at = i as usize * self.stride;
        &self.graphs[at..at + self.stride]
    }

    /// Appends an element, returning its index.
    fn push(&mut self, graph: &[u64], acc: bool, parent: u32, last: Symbol) -> u32 {
        let idx = u32::try_from(self.acc.len())
            .ok()
            .filter(|&i| i != ROOT)
            .expect("arena outgrew u32 indices");
        self.graphs.extend_from_slice(graph);
        self.acc.push(acc);
        self.alive.push(true);
        self.parent.push(parent);
        self.last.push(last);
        idx
    }

    /// The witness word of element `i`, spelled out along its links.
    fn word(&self, mut i: u32) -> Word {
        let mut symbols = Vec::new();
        loop {
            symbols.push(self.last[i as usize]);
            i = self.parent[i as usize];
            if i == ROOT {
                break;
            }
        }
        symbols.reverse();
        Word::new(&symbols)
    }
}

/// Work units reported to the charge hook: one per insertion attempt
/// (the macro-step of the fixpoint loop) and one per subsumption
/// comparison (the hot inner loop, amortized by `tick_every`).
enum Step {
    Attempt,
    Scan,
}

/// Work items of the on-the-fly search: discover a product row (seed
/// the single-letter elements out of an `A`-state the search has
/// actually reached) or right-extend a committed arena element.
enum Task {
    Seed(usize),
    Extend(usize, u32),
}

/// The state of one search that insertions update: the arena, the
/// per-`(from, to)` chains of live arena indices, the work queue, the
/// lasso test's buffers, and the gauges.
struct Antichain<'g> {
    shape: Shape,
    /// `A`'s initial state and `A`'s state count (chains are keyed by
    /// `from · na + to`).
    init: usize,
    na: usize,
    /// `B`'s initial state and the graph of the empty word.
    b_init: usize,
    identity: Vec<u64>,
    arena: Arena,
    chains: Vec<Vec<u32>>,
    work: VecDeque<Task>,
    lasso: LassoTest,
    gauges: &'g mut SearchGauges,
}

impl Antichain<'_> {
    /// Tries to add the candidate `(from, to, acc, graph)`, whose
    /// witness is `parent`'s word followed by `last`. A candidate that
    /// survives subsumption is copied into the arena, evicts the chain
    /// members it subsumes, queues its extension, and runs the
    /// stem/period lasso tests it enables; a counterexample found there
    /// is returned.
    fn insert(
        &mut self,
        (from, to): (usize, usize),
        acc: bool,
        graph: &[u64],
        (parent, last): (u32, Symbol),
        charge: &mut impl FnMut(Step) -> Result<(), SlError>,
    ) -> Result<Option<LassoWord>, SlError> {
        charge(Step::Attempt)?;
        let key = from * self.na + to;
        let broken = sabotage::subsumption_broken();
        for &kept in &self.chains[key] {
            charge(Step::Scan)?;
            if self.arena.acc[kept as usize] >= acc && (broken || le(self.arena.graph(kept), graph))
            {
                return Ok(None); // subsumed: never materialized
            }
        }
        let chain = &mut self.chains[key];
        let mut i = 0;
        while i < chain.len() {
            charge(Step::Scan)?;
            let old = chain[i];
            if acc >= self.arena.acc[old as usize] && le(graph, self.arena.graph(old)) {
                self.arena.alive[old as usize] = false;
                chain.swap_remove(i);
                self.gauges.live -= 1;
            } else {
                i += 1;
            }
        }
        let idx = self.arena.push(graph, acc, parent, last);
        chain.push(idx);
        self.gauges.live += 1;
        self.gauges.peak += 1;
        self.work.push_back(Task::Extend(key, idx));

        let (na, init, shape, b_init) = (self.na, self.init, self.shape, self.b_init);
        let arena = &self.arena;
        if from == init {
            let p = to;
            for &period in &self.chains[p * na + p] {
                if arena.acc[period as usize]
                    && !self
                        .lasso
                        .accepts(shape, b_init, arena.graph(idx), arena.graph(period))
                {
                    return Ok(Some(LassoWord::new(&arena.word(idx), &arena.word(period))));
                }
            }
        }
        if from == to && acc {
            let p = from;
            if p == init
                && !self
                    .lasso
                    .accepts(shape, b_init, &self.identity, arena.graph(idx))
            {
                return Ok(Some(LassoWord::new(&Word::empty(), &arena.word(idx))));
            }
            for &stem in &self.chains[init * na + p] {
                if stem != idx
                    && !self
                        .lasso
                        .accepts(shape, b_init, arena.graph(stem), arena.graph(idx))
                {
                    return Ok(Some(LassoWord::new(&arena.word(stem), &arena.word(idx))));
                }
            }
        }
        Ok(None)
    }
}

/// The graph of letter `sym`, built into its slot of `letters` on
/// first use (an empty slot is unbuilt).
fn letter<'l>(letters: &'l mut [Vec<u64>], shape: Shape, b: &Buchi, sym: Symbol) -> &'l [u64] {
    let graph = &mut letters[sym.index()];
    if graph.is_empty() {
        graph.resize(shape.len(), 0);
        shape.letter(b, sym, graph);
    }
    graph
}

/// The fixpoint search. Returns a counterexample in `L(a) \ L(b)` or
/// proves inclusion. `gauges` is updated as elements commit and evict,
/// so it is meaningful even on an early (budget or counterexample)
/// exit.
///
/// * Operand quotients come from `cache` ([`QuotientCache`]) — trimmed
///   first, memoized across queries, incrementally maintained across
///   `redefine` — instead of a from-scratch simulation per call.
/// * Letter word-graphs of `B` are built on first use, not up front.
/// * `A`-states are seeded lazily from the initial state's successor
///   closure: a `(p, σ, r)` single-letter element exists only once the
///   search has discovered `p`, so a counterexample found early exits
///   before most of the space is touched. Elements whose source is
///   unreachable never take part in a lasso verdict (stems are
///   anchored at the initial state and periods only pair with such
///   stems), so skipping them loses nothing.
/// * An extension composes its parent's graph with each letter once,
///   into one scratch buffer, and offers that graph for every
///   `A`-successor on the letter; the arena copies it only if it
///   survives subsumption — `gauges.peak` (the arena length) is exactly
///   the number of macro-states ever materialized, which the
///   memory-regression test pins against the same search on the
///   trimmed operands.
fn search_lazy(
    a: &Buchi,
    b: &Buchi,
    cache: &QuotientCache,
    charge: &mut impl FnMut(Step) -> Result<(), SlError>,
    gauges: &mut SearchGauges,
) -> Result<Inclusion, SlError> {
    let a = cache.quotient(a);
    let b = cache.quotient(b);
    let na = a.num_states();
    let sigma = a.alphabet();
    let shape = Shape::new(b.num_states());
    let mut letters: Vec<Vec<u64>> = vec![Vec::new(); sigma.len()];
    let mut scratch = vec![0u64; shape.len()];
    let mut identity = vec![0u64; shape.len()];
    shape.identity(&b, &mut identity);
    let init = a.initial();
    let mut search = Antichain {
        shape,
        init,
        na,
        b_init: b.initial(),
        identity,
        arena: Arena::new(shape.len()),
        chains: vec![Vec::new(); na * na],
        work: VecDeque::new(),
        lasso: LassoTest::default(),
        gauges,
    };
    let mut discovered = vec![false; na];
    discovered[init] = true;
    search.work.push_back(Task::Seed(init));

    while let Some(task) = search.work.pop_front() {
        match task {
            Task::Seed(p) => {
                for sym in sigma.symbols() {
                    for &r in a.successors(p, sym) {
                        let acc = a.is_accepting(p) || a.is_accepting(r);
                        if let Some(w) = search.insert(
                            (p, r),
                            acc,
                            letter(&mut letters, shape, &b, sym),
                            (ROOT, sym),
                            charge,
                        )? {
                            return Ok(Inclusion::CounterExample(w));
                        }
                        if !discovered[r] {
                            discovered[r] = true;
                            search.work.push_back(Task::Seed(r));
                        }
                    }
                }
            }
            Task::Extend(key, idx) => {
                if !search.arena.alive[idx as usize] {
                    continue; // evicted after queueing; its subsumer regenerates
                }
                let (from, to) = (key / na, key % na);
                let parent_acc = search.arena.acc[idx as usize];
                for sym in sigma.symbols() {
                    let succs = a.successors(to, sym);
                    if succs.is_empty() {
                        continue;
                    }
                    let g = letter(&mut letters, shape, &b, sym);
                    shape.compose(search.arena.graph(idx), g, &mut scratch);
                    for &r in succs {
                        let acc = parent_acc || a.is_accepting(r);
                        if let Some(w) =
                            search.insert((from, r), acc, &scratch, (idx, sym), charge)?
                        {
                            return Ok(Inclusion::CounterExample(w));
                        }
                    }
                }
            }
        }
    }
    Ok(Inclusion::Holds)
}

/// Hashes the product's `u64` pair keys with one multiply, folding the
/// high half down so the table's bucket bits (low) and tag bits (high)
/// both see every key bit. The keys are state pairs, not attacker-chosen
/// strings, so `std`'s keyed SipHash buys nothing here.
#[derive(Debug, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The reachable product of `A` with a deterministic `B` completed by a
/// rejecting sink, in breadth-first discovery order. Every vector grows
/// with the states and edges reached, and the id table is a hash map,
/// so nothing is sized by `|A|·(|B|+1)`.
#[derive(Debug)]
struct Product {
    /// The `(A-state, B-state)` pair of each product state; `B`'s state
    /// count stands for the sink.
    pairs: Vec<(usize, usize)>,
    /// Each state's BFS-tree link: the state it was discovered from and
    /// the letter read ([`ROOT`] for the initial state).
    tree: Vec<(u32, Symbol)>,
    /// The product restricted to states outside `F_B`, as CSR rows: the
    /// edges out of state `v` are `targets[offsets[v]..offsets[v + 1]]`,
    /// labelled by `letters`, in symbol order. A state in `F_B` has an
    /// empty row, and no edge enters one.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    letters: Vec<Symbol>,
}

impl Product {
    /// Explores the product breadth-first, charging one attempt per
    /// product state created. The sink steps to itself on every letter;
    /// it is outside `F_B` unless the product drill is on.
    fn explore(
        a: &Buchi,
        b: &Buchi,
        charge: &mut impl FnMut(Step) -> Result<(), SlError>,
    ) -> Result<Product, SlError> {
        let sink = b.num_states();
        let sink_accepting = sabotage::product_sink_accepting();
        let in_fb = |q: usize| {
            if q == sink {
                sink_accepting
            } else {
                b.is_accepting(q)
            }
        };
        let key = |(p, q): (usize, usize)| p as u64 * (sink as u64 + 1) + q as u64;
        let mut ids: HashMap<u64, u32, BuildHasherDefault<PairHasher>> = HashMap::default();
        let start = (a.initial(), b.initial());
        charge(Step::Attempt)?;
        ids.insert(key(start), 0);
        let mut product = Product {
            pairs: vec![start],
            tree: vec![(ROOT, Symbol(0))],
            offsets: vec![0],
            targets: Vec::new(),
            letters: Vec::new(),
        };
        let mut v = 0;
        while let Some(&(p, q)) = product.pairs.get(v) {
            let from = u32::try_from(v).expect("product outgrew u32 ids");
            for sym in a.alphabet().symbols() {
                let succs = a.successors(p, sym);
                if succs.is_empty() {
                    continue;
                }
                let next_q = if q == sink {
                    sink
                } else {
                    b.successors(q, sym).first().copied().unwrap_or(sink)
                };
                let kept = !in_fb(q) && !in_fb(next_q);
                for &next_p in succs {
                    let id = match ids.entry(key((next_p, next_q))) {
                        Entry::Occupied(entry) => *entry.get(),
                        Entry::Vacant(entry) => {
                            charge(Step::Attempt)?;
                            let id = u32::try_from(product.pairs.len())
                                .ok()
                                .filter(|&id| id != ROOT)
                                .expect("product outgrew u32 ids");
                            entry.insert(id);
                            product.pairs.push((next_p, next_q));
                            product.tree.push((from, sym));
                            id
                        }
                    };
                    if kept {
                        product.targets.push(id);
                        product.letters.push(sym);
                    }
                }
            }
            product.offsets.push(product.targets.len());
            v += 1;
        }
        Ok(product)
    }

    /// The restricted edge at position `i` of `v`'s row, if any.
    fn edge(&self, v: usize, i: usize) -> Option<(usize, Symbol)> {
        let at = self.offsets[v] + i;
        (at < self.offsets[v + 1]).then(|| (self.targets[at] as usize, self.letters[at]))
    }
}

/// The letters along `links` from `root` down to `v`, where `links[u]`
/// is the state `u` was reached from and the letter read.
fn spell(links: &[(u32, Symbol)], root: usize, mut v: usize) -> Vec<Symbol> {
    let mut letters = Vec::new();
    while v != root {
        let (from, sym) = links[v];
        letters.push(sym);
        v = from as usize;
    }
    letters.reverse();
    letters
}

/// Decides `L(a) ⊆ L(b)` for a deterministic `b` by the product check
/// (see the module docs): one BFS, one SCC pass over the states outside
/// `F_B`, and — on a counterexample — one BFS inside its component for
/// the cycle.
fn product_included(
    a: &Buchi,
    b: &Buchi,
    charge: &mut impl FnMut(Step) -> Result<(), SlError>,
) -> Result<Inclusion, SlError> {
    let product = Product::explore(a, b, charge)?;
    let n = product.pairs.len();
    let in_fa = |v: usize| a.is_accepting(product.pairs[v].0);
    // Good components (cyclic, with an F_A state) get ids; every other
    // state keeps NONE. The target is the earliest-discovered F_A state
    // of any good component. Roots go in discovery order, and a walk
    // only closes components of states it first reached, so once the
    // target precedes the next root no later component can beat it.
    const NONE: u32 = u32::MAX;
    let mut component = vec![NONE; n];
    let mut good = 0;
    let mut target: Option<usize> = None;
    let mut walk = SccWalk::new(n);
    for root in 0..n {
        if target.is_some_and(|t| t < root) {
            break;
        }
        if walk.visited(root) {
            continue;
        }
        let succ = |v, i| product.edge(v, i).map(|(w, _)| w);
        walk.walk(root, succ, |members| {
            if let Some(first) = members.iter().copied().filter(|&v| in_fa(v)).min() {
                for &m in members {
                    component[m] = good;
                }
                good += 1;
                target = Some(target.map_or(first, |t| t.min(first)));
            }
            None::<()>
        });
    }
    let Some(target) = target else {
        return Ok(Inclusion::Holds);
    };
    let stem = spell(&product.tree, 0, target);
    // The shortest way back to the target inside its component.
    let mut links = vec![(ROOT, Symbol(0)); n];
    let mut queue = VecDeque::from([target]);
    while let Some(v) = queue.pop_front() {
        for (w, sym) in (0..).map_while(|i| product.edge(v, i)) {
            if w == target {
                let mut cycle = spell(&links, target, v);
                cycle.push(sym);
                return Ok(Inclusion::CounterExample(LassoWord::new(
                    &Word::new(&stem),
                    &Word::new(&cycle),
                )));
            }
            if component[w] == component[target] && links[w].0 == ROOT {
                links[w] = (v as u32, sym);
                queue.push_back(w);
            }
        }
    }
    unreachable!("every state of a cyclic component lies on a cycle inside it")
}

/// Decides `L(a) ⊆ L(b)`. A deterministic `b` (at most one successor
/// per state and letter) gets the product check, which reads neither
/// `cache` nor the antichain; any other `b` gets the antichain search,
/// which takes both operands' quotients from `cache` (the `sld` daemon
/// passes its private instance so its counters stay a deterministic
/// function of the session; library callers pass
/// [`crate::interned::shared_quotient_cache`]).
///
/// With `budget: None` the work is capped at
/// [`DEFAULT_ANTICHAIN_BUDGET`] product states or insertion attempts
/// and consults no fault site. With `Some(budget)` every product state
/// or insertion attempt charges the budget's meter and consults the
/// process-wide fault plan at site `"buchi.incl.antichain"`;
/// subsumption comparisons — the antichain's hot inner loop — charge
/// through `BudgetMeter::tick_every`, amortizing the limit evaluation.
/// Both cases run the same search, so verdicts and counters agree
/// whenever both finish.
///
/// # Errors
///
/// [`SlError::BudgetExceeded`] (phase `"buchi.incl.antichain"`) when
/// the cap or the budget runs out, [`SlError::Cancelled`] from the
/// budget, or [`SlError::FaultInjected`] when the fault plan fires.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn included(
    a: &Buchi,
    b: &Buchi,
    cache: &QuotientCache,
    budget: Option<&Budget>,
) -> Result<Inclusion, SlError> {
    let (mut meter, cap, plan) = match budget {
        Some(budget) => (budget.meter(PHASE), u64::MAX, *fault::global()),
        None => (
            Budget::unlimited().meter(PHASE),
            DEFAULT_ANTICHAIN_BUDGET as u64,
            FaultPlan::disabled(),
        ),
    };
    let mut attempts: u64 = 0;
    let mut scans: u64 = 0;
    let mut charge = |step: Step| -> Result<(), SlError> {
        match step {
            Step::Attempt => {
                meter.tick()?;
                attempts += 1;
                if attempts > cap {
                    return Err(SlError::BudgetExceeded {
                        phase: PHASE,
                        spent: attempts,
                    });
                }
                plan.inject_error(PHASE, attempts)
            }
            Step::Scan => {
                scans += 1;
                meter.tick_every(SCAN_STRIDE)
            }
        }
    };
    assert_eq!(
        a.alphabet(),
        b.alphabet(),
        "inclusion requires a common alphabet"
    );
    if b.is_deterministic() {
        let outcome = product_included(a, b, &mut charge);
        let found = matches!(outcome, Ok(Inclusion::CounterExample(_)));
        record_product(attempts, found);
        return outcome;
    }
    let mut gauges = SearchGauges::default();
    let outcome = search_lazy(a, b, cache, &mut charge, &mut gauges);
    record_search(
        attempts,
        scans,
        matches!(outcome, Ok(Inclusion::CounterExample(_))),
        gauges,
    );
    outcome
}

/// Decides `L(a) = L(b)`, returning a separating word if the languages
/// differ. Short-circuits: a counterexample to the first inclusion
/// settles the question before the second direction is searched. Each
/// direction meters its own steps against `budget`; a deadline or
/// cancellation flag spans both.
///
/// # Errors
///
/// As for [`included`], from either direction.
///
/// # Panics
///
/// Panics if the alphabets differ.
pub fn equivalent(
    a: &Buchi,
    b: &Buchi,
    cache: &QuotientCache,
    budget: Option<&Budget>,
) -> Result<Result<(), LassoWord>, SlError> {
    if let Inclusion::CounterExample(w) = included(a, b, cache, budget)? {
        return Ok(Err(w));
    }
    if let Inclusion::CounterExample(w) = included(b, a, cache, budget)? {
        return Ok(Err(w));
    }
    Ok(Ok(()))
}

/// Decides `L(b) = Σ^ω` (one search, `Σ^ω ⊆ L(b)`), returning a
/// rejected word if not.
///
/// # Errors
///
/// As for [`included`].
pub fn universal(
    b: &Buchi,
    cache: &QuotientCache,
    budget: Option<&Budget>,
) -> Result<Result<(), LassoWord>, SlError> {
    let all = Buchi::universal(b.alphabet().clone());
    Ok(match included(&all, b, cache, budget)? {
        Inclusion::Holds => Ok(()),
        Inclusion::CounterExample(w) => Err(w),
    })
}

/// [`included`] without a budget, under its former name. Kept only for
/// the `sldbench` trace replay, which binds it.
///
/// # Errors
///
/// As for [`included`].
#[doc(hidden)]
pub fn included_onthefly_with_cache(
    cache: &QuotientCache,
    a: &Buchi,
    b: &Buchi,
) -> Result<Inclusion, SlError> {
    included(a, b, cache, None)
}

/// [`equivalent`] without a budget, under its former name. Kept only
/// for the `sldbench` trace replay, which binds it.
///
/// # Errors
///
/// As for [`equivalent`].
#[doc(hidden)]
pub fn equivalent_onthefly_with_cache(
    cache: &QuotientCache,
    a: &Buchi,
    b: &Buchi,
) -> Result<Result<(), LassoWord>, SlError> {
    equivalent(a, b, cache, None)
}

/// [`universal`] without a budget, under its former name. Kept only for
/// the `sldbench` trace replay, which binds it.
///
/// # Errors
///
/// As for [`universal`].
#[doc(hidden)]
pub fn universal_onthefly_with_cache(
    cache: &QuotientCache,
    b: &Buchi,
) -> Result<Result<(), LassoWord>, SlError> {
    universal(b, cache, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::incl::{included_rank, shared_complement_cache, universal_rank};
    use crate::random::{random_buchi, random_nondeterministic, RandomConfig};
    use sl_omega::Alphabet;
    use sl_support::SplitMix;

    /// The word-graph kernel this module used before the flat layout —
    /// one [`Bitset`] per row — with a lasso test by definition, kept
    /// as the reference the flat kernel is checked against.
    mod reference {
        use crate::automaton::{Buchi, StateId};
        use sl_lattice::Bitset;
        use sl_omega::Symbol;

        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct WordGraph {
            pub reach: Vec<Bitset>,
            pub acc: Vec<Bitset>,
        }

        impl WordGraph {
            pub fn identity(b: &Buchi) -> WordGraph {
                let n = b.num_states();
                let mut reach = Vec::with_capacity(n);
                let mut acc = Vec::with_capacity(n);
                for q in 0..n {
                    let mut row = Bitset::empty(n);
                    row.insert(q);
                    acc.push(if b.is_accepting(q) {
                        row.clone()
                    } else {
                        Bitset::empty(n)
                    });
                    reach.push(row);
                }
                WordGraph { reach, acc }
            }

            pub fn letter(b: &Buchi, sym: Symbol) -> WordGraph {
                let n = b.num_states();
                let mut reach = Vec::with_capacity(n);
                let mut acc = Vec::with_capacity(n);
                for q in 0..n {
                    let succs = b.successors(q, sym);
                    let row = Bitset::from_indices(n, succs);
                    let acc_row = if b.is_accepting(q) {
                        row.clone()
                    } else {
                        let flagged: Vec<StateId> = succs
                            .iter()
                            .copied()
                            .filter(|&s| b.is_accepting(s))
                            .collect();
                        Bitset::from_indices(n, &flagged)
                    };
                    reach.push(row);
                    acc.push(acc_row);
                }
                WordGraph { reach, acc }
            }

            pub fn compose(&self, other: &WordGraph) -> WordGraph {
                let n = self.reach.len();
                let mut reach = Vec::with_capacity(n);
                let mut acc = Vec::with_capacity(n);
                for q in 0..n {
                    let mut out_reach = Bitset::empty(n);
                    let mut out_acc = Bitset::empty(n);
                    for m in self.reach[q].iter() {
                        out_reach.union_in_place(&other.reach[m]);
                        out_acc.union_in_place(&other.acc[m]);
                    }
                    for m in self.acc[q].iter() {
                        out_acc.union_in_place(&other.reach[m]);
                    }
                    reach.push(out_reach);
                    acc.push(out_acc);
                }
                WordGraph { reach, acc }
            }

            pub fn union(&self, other: &WordGraph) -> WordGraph {
                let zip = |x: &[Bitset], y: &[Bitset]| -> Vec<Bitset> {
                    x.iter().zip(y).map(|(a, b)| a.union(b)).collect()
                };
                WordGraph {
                    reach: zip(&self.reach, &other.reach),
                    acc: zip(&self.acc, &other.acc),
                }
            }

            pub fn le(&self, other: &WordGraph) -> bool {
                self.reach
                    .iter()
                    .zip(&other.reach)
                    .all(|(a, b)| a.is_subset(b))
                    && self.acc.iter().zip(&other.acc).all(|(a, b)| a.is_subset(b))
            }

            /// The flat layout of this graph.
            pub fn flat(&self) -> Vec<u64> {
                self.reach
                    .iter()
                    .chain(&self.acc)
                    .flat_map(|row| row.words().iter().copied())
                    .collect()
            }
        }

        /// Whether `u·v^ω ∈ L(B)`: from a state `B` reaches on `u`, the
        /// `v` steps reach some `x` that steps through `F_B` to a `y`
        /// from which `x` is reachable again.
        pub fn lasso_in_b(b: &Buchi, g_u: &WordGraph, g_v: &WordGraph) -> bool {
            let n = b.num_states();
            // `star[q]`: the states `q` reaches in zero or more `v` steps.
            let star: Vec<Bitset> = (0..n)
                .map(|q| {
                    let mut seen = Bitset::empty(n);
                    seen.insert(q);
                    let mut stack = vec![q];
                    while let Some(p) = stack.pop() {
                        for s in g_v.reach[p].iter() {
                            if !seen.contains(s) {
                                seen.insert(s);
                                stack.push(s);
                            }
                        }
                    }
                    seen
                })
                .collect();
            g_u.reach[b.initial()].iter().any(|p| {
                star[p]
                    .iter()
                    .any(|x| g_v.acc[x].iter().any(|y| star[y].contains(x)))
            })
        }
    }

    use reference::WordGraph;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

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

    /// `inf_a` with a redundant `a`-loop on the waiting state: the same
    /// language, but nondeterministic, so inclusion into it runs the
    /// antichain search.
    fn inf_a_nondeterministic(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let b = s.symbol("b").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(false);
        let qa = builder.add_state(true);
        builder.add_transition(q0, b, q0);
        builder.add_transition(q0, a, q0);
        builder.add_transition(q0, a, qa);
        builder.add_transition(qa, b, q0);
        builder.add_transition(qa, a, qa);
        builder.build(q0)
    }

    fn only_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        builder.add_transition(q0, a, q0);
        builder.build(q0)
    }

    fn flat_letter(b: &Buchi, sym: Symbol) -> Vec<u64> {
        let shape = Shape::new(b.num_states());
        let mut g = vec![0; shape.len()];
        shape.letter(b, sym, &mut g);
        g
    }

    fn flat_compose(shape: Shape, x: &[u64], y: &[u64]) -> Vec<u64> {
        let mut out = vec![u64::MAX; shape.len()];
        shape.compose(x, y, &mut out);
        out
    }

    /// A nondeterministic automaton with `n` states over {a, b}: each
    /// state accepting with probability 1/4, each (state, letter) with
    /// 0–2 random successors, and a random initial state.
    fn random_nba(n: usize, seed: u64) -> Buchi {
        let s = sigma();
        let mut rng = SplitMix::new(seed);
        let mut builder = BuchiBuilder::new(s.clone());
        let states: Vec<usize> = (0..n)
            .map(|_| builder.add_state(rng.percent() < 25))
            .collect();
        for &q in &states {
            for sym in s.symbols() {
                let fan = match rng.percent() {
                    0..=24 => 0,
                    25..=79 => 1,
                    _ => 2,
                };
                for _ in 0..fan {
                    builder.add_transition(q, sym, states[rng.below(n)]);
                }
            }
        }
        builder.build(states[rng.below(n)])
    }

    /// Bits past `n` in the last word of every row are clear.
    fn padding_is_clear(shape: Shape, g: &[u64]) -> bool {
        let tail = shape.n % 64;
        tail == 0 || (0..2 * shape.n).all(|row| g[(row + 1) * shape.w - 1] >> tail == 0)
    }

    #[test]
    fn flat_kernel_matches_the_bitset_reference() {
        let s = sigma();
        let mut verdicts = [0usize; 2];
        for n in [1usize, 7, 63, 64, 65, 130, 200] {
            let shape = Shape::new(n);
            for seed in 0..4u64 {
                let b = random_nba(n, seed * 1_000 + n as u64);
                let mut rng = SplitMix::new(seed ^ 0x5eed);
                // Graphs of random words of length 0–5, in both kernels.
                let mut graphs: Vec<(WordGraph, Vec<u64>)> = Vec::new();
                let mut id = vec![0; shape.len()];
                shape.identity(&b, &mut id);
                let reference_id = WordGraph::identity(&b);
                assert_eq!(id, reference_id.flat(), "identity, n = {n}");
                graphs.push((reference_id, id));
                for _ in 0..10 {
                    let (mut reference, mut flat) = graphs[0].clone();
                    for _ in 0..rng.below(6) {
                        let sym = s.symbols().nth(rng.below(2)).unwrap();
                        let letter = flat_letter(&b, sym);
                        let reference_letter = WordGraph::letter(&b, sym);
                        assert_eq!(letter, reference_letter.flat(), "letter, n = {n}");
                        flat = flat_compose(shape, &flat, &letter);
                        reference = reference.compose(&reference_letter);
                        assert_eq!(flat, reference.flat(), "compose, n = {n}, seed {seed}");
                        assert!(padding_is_clear(shape, &flat), "padding, n = {n}");
                    }
                    graphs.push((reference, flat));
                }
                for (x, fx) in &graphs {
                    for (y, fy) in &graphs {
                        assert_eq!(le(fx, fy), x.le(y), "le, n = {n}, seed {seed}");
                        let joined = x.union(y);
                        assert!(le(fx, &joined.flat()) && x.le(&joined));
                        let accepts = LassoTest::default().accepts(shape, b.initial(), fx, fy);
                        assert_eq!(
                            accepts,
                            reference::lasso_in_b(&b, x, y),
                            "lasso, n = {n}, seed {seed}"
                        );
                        verdicts[usize::from(accepts)] += 1;
                    }
                }
            }
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn lasso_test_reuses_its_buffers_across_sizes() {
        // One LassoTest serves every call of a search; shrinking and
        // growing the state count between calls must not leak state.
        let mut lasso = LassoTest::default();
        for (n, seed) in [(130, 1), (7, 2), (65, 3), (1, 4), (200, 5), (64, 6)] {
            let b = random_nba(n, seed);
            let shape = Shape::new(n);
            for sym in sigma().symbols() {
                let g = flat_letter(&b, sym);
                let reference_g = WordGraph::letter(&b, sym);
                let mut id = vec![0; shape.len()];
                shape.identity(&b, &mut id);
                assert_eq!(
                    lasso.accepts(shape, b.initial(), &id, &g),
                    reference::lasso_in_b(&b, &WordGraph::identity(&b), &reference_g),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn word_graphs_compose_exactly() {
        let s = sigma();
        let m = inf_a(&s);
        let shape = Shape::new(m.num_states());
        let ga = flat_letter(&m, s.symbol("a").unwrap());
        let gb = flat_letter(&m, s.symbol("b").unwrap());
        // (g_a ∘ g_b) ∘ g_a == g_a ∘ (g_b ∘ g_a): associativity on a
        // concrete instance.
        let left = flat_compose(shape, &flat_compose(shape, &ga, &gb), &ga);
        let right = flat_compose(shape, &ga, &flat_compose(shape, &gb, &ga));
        assert_eq!(left, right);
        // Identity is neutral.
        let mut id = vec![0; shape.len()];
        shape.identity(&m, &mut id);
        assert_eq!(flat_compose(shape, &id, &ga), ga);
        assert_eq!(flat_compose(shape, &ga, &id), ga);
    }

    #[test]
    fn lasso_test_matches_membership() {
        let s = sigma();
        let m = inf_a(&s);
        let shape = Shape::new(m.num_states());
        let ga = flat_letter(&m, s.symbol("a").unwrap());
        let gb = flat_letter(&m, s.symbol("b").unwrap());
        let mut lasso = LassoTest::default();
        // b (a b)^ω ∈ GF a; b b^ω ∉ GF a.
        let gab = flat_compose(shape, &ga, &gb);
        assert!(lasso.accepts(shape, m.initial(), &gb, &gab));
        assert!(!lasso.accepts(shape, m.initial(), &gb, &gb));
        // ε stem: (a)^ω ∈, (b)^ω ∉.
        let mut id = vec![0; shape.len()];
        shape.identity(&m, &mut id);
        assert!(lasso.accepts(shape, m.initial(), &id, &ga));
        assert!(!lasso.accepts(shape, m.initial(), &id, &gb));
    }

    #[test]
    fn witness_words_follow_parent_links() {
        let s = sigma();
        let (a, b) = (s.symbol("a").unwrap(), s.symbol("b").unwrap());
        let mut arena = Arena::new(2);
        let seed = arena.push(&[1, 0], false, ROOT, a);
        let child = arena.push(&[1, 1], true, seed, b);
        let grandchild = arena.push(&[0, 0], false, child, b);
        assert_eq!(arena.word(seed), Word::new(&[a]));
        assert_eq!(arena.word(grandchild), Word::new(&[a, b, b]));
        assert_eq!(arena.graph(child), &[1, 1]);
    }

    #[test]
    fn inclusion_holds_for_subset() {
        let s = sigma();
        let cache = QuotientCache::new();
        assert!(included(&only_a(&s), &inf_a(&s), &cache, None)
            .unwrap()
            .holds());
    }

    #[test]
    fn counterexample_is_genuine() {
        let s = sigma();
        match included(&inf_a(&s), &only_a(&s), &QuotientCache::new(), None).unwrap() {
            Inclusion::CounterExample(w) => {
                assert!(inf_a(&s).accepts(&w), "accepted by the left operand");
                assert!(!only_a(&s).accepts(&w), "rejected by the right operand");
            }
            Inclusion::Holds => panic!("GF a ⊄ a^ω"),
        }
    }

    #[test]
    fn empty_language_is_included_in_everything() {
        let s = sigma();
        let cache = QuotientCache::new();
        let empty = Buchi::empty_language(s.clone());
        assert!(included(&empty, &only_a(&s), &cache, None).unwrap().holds());
        assert!(included(&empty, &empty, &cache, None).unwrap().holds());
    }

    #[test]
    fn nothing_nonempty_is_included_in_empty() {
        let s = sigma();
        let empty = Buchi::empty_language(s.clone());
        match included(&inf_a(&s), &empty, &QuotientCache::new(), None).unwrap() {
            Inclusion::CounterExample(w) => assert!(inf_a(&s).accepts(&w)),
            Inclusion::Holds => panic!("GF a is nonempty"),
        }
    }

    #[test]
    fn universality_verdicts() {
        let s = sigma();
        let cache = QuotientCache::new();
        assert!(universal(&Buchi::universal(s.clone()), &cache, None)
            .unwrap()
            .is_ok());
        let rejected = universal(&inf_a(&s), &cache, None).unwrap().unwrap_err();
        assert!(!inf_a(&s).accepts(&rejected));
    }

    #[test]
    fn equivalence_and_separation() {
        let s = sigma();
        let cache = QuotientCache::new();
        assert!(equivalent(&inf_a(&s), &inf_a(&s), &cache, None)
            .unwrap()
            .is_ok());
        let w = equivalent(&inf_a(&s), &Buchi::universal(s.clone()), &cache, None)
            .unwrap()
            .unwrap_err();
        assert_ne!(
            inf_a(&s).accepts(&w),
            Buchi::universal(s.clone()).accepts(&w)
        );
    }

    #[test]
    fn budgeted_run_respects_step_limit() {
        let s = sigma();
        let budget = Budget::unlimited().with_steps(1);
        let err = included(
            &inf_a(&s),
            &only_a(&s),
            &QuotientCache::new(),
            Some(&budget),
        )
        .unwrap_err();
        assert!(
            err.root().is_budget_exceeded() || err.root().is_fault_injected(),
            "{err}"
        );
    }

    #[test]
    fn budgeted_run_matches_unbudgeted() {
        let s = sigma();
        let cache = QuotientCache::new();
        let budget = Budget::unlimited();
        match included(&only_a(&s), &inf_a(&s), &cache, Some(&budget)) {
            Ok(inc) => assert_eq!(
                inc,
                included(&only_a(&s), &inf_a(&s), &cache, None).unwrap()
            ),
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }

    #[test]
    fn budgeted_equivalence_finds_separator() {
        let s = sigma();
        let all = Buchi::universal(s.clone());
        let budget = Budget::unlimited();
        match equivalent(&inf_a(&s), &all, &QuotientCache::new(), Some(&budget)) {
            Ok(verdict) => {
                let w = verdict.unwrap_err();
                assert_ne!(inf_a(&s).accepts(&w), all.accepts(&w));
            }
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }

    #[test]
    fn deltas_count_search_work() {
        let s = sigma();
        let cache = QuotientCache::new();
        let before = antichain_stats();
        assert!(
            included(&only_a(&s), &inf_a_nondeterministic(&s), &cache, None)
                .unwrap()
                .holds()
        );
        let holds_delta = antichain_stats().delta_since(&before);
        assert_eq!(holds_delta.searches, 1);
        assert!(holds_delta.insert_attempts > 0);
        assert_eq!(holds_delta.counterexamples, 0);
        assert_eq!(holds_delta.product_checks, 0);

        let mid = antichain_stats();
        assert!(!included(&inf_a(&s), &only_a(&s), &cache, None)
            .unwrap()
            .holds());
        let cex_delta = antichain_stats().delta_since(&mid);
        assert_eq!(cex_delta.searches, 0, "a deterministic right operand");
        assert_eq!(cex_delta.insert_attempts, 0);
        assert_eq!(cex_delta.product_checks, 1);
        assert_eq!(cex_delta.product_counterexamples, 1);
        // (q0, p0), (qa, p0) on `a`, (q0, sink) on `b`, (qa, sink).
        assert_eq!(cex_delta.product_states, 4);
    }

    #[test]
    fn deltas_absorb_into_totals() {
        let a = AntichainStats {
            searches: 1,
            insert_attempts: 10,
            subsumption_scans: 20,
            counterexamples: 0,
            peak_macro_states: 8,
            final_antichain: 5,
            product_checks: 2,
            product_states: 30,
            product_counterexamples: 1,
        };
        let mut total = AntichainStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.insert_attempts, 20);
        assert_eq!(
            (
                total.product_checks,
                total.product_states,
                total.product_counterexamples
            ),
            (4, 60, 2)
        );
        // The macro-state gauges absorb as high-water marks, not sums.
        assert_eq!(total.peak_macro_states, 8);
        assert_eq!(
            a.delta_since(&a),
            AntichainStats {
                peak_macro_states: 8,
                final_antichain: 5,
                ..Default::default()
            }
        );
    }

    #[test]
    fn search_gauges_are_recorded() {
        let s = sigma();
        let before = antichain_stats();
        assert!(included(
            &only_a(&s),
            &inf_a_nondeterministic(&s),
            &QuotientCache::new(),
            None
        )
        .unwrap()
        .holds());
        let after = antichain_stats();
        assert!(
            after.peak_macro_states > 0,
            "a completed search commits at least one macro-state"
        );
        assert!(
            after.final_antichain > 0 && after.final_antichain <= after.peak_macro_states,
            "the live antichain is bounded by the commit high-water mark: {after:?}"
        );
        assert_eq!(after.searches, before.searches + 1);
    }

    #[test]
    fn agrees_with_rank_engine_on_random_corpus() {
        let s = sigma();
        let config = RandomConfig {
            states: 4,
            density_percent: 60,
            accepting_percent: 30,
        };
        let cache = QuotientCache::new();
        let complements = shared_complement_cache();
        let before = antichain_stats();
        let mut nondeterministic = 0;
        for seed in 0..40u64 {
            let a = random_buchi(&s, seed, config);
            // Nondeterministic right operands keep this on the antichain
            // (a few draws come out deterministic and take the product).
            let b = random_nondeterministic(&s, seed + 1000, 3, 160, 30);
            nondeterministic += u64::from(!b.is_deterministic());
            let fast = included(&a, &b, &cache, None).unwrap();
            let slow = included_rank(&a, &b, complements).unwrap();
            assert_eq!(
                fast.holds(),
                slow.holds(),
                "seed {seed}: engines disagree on inclusion"
            );
            if let Inclusion::CounterExample(w) = &fast {
                assert!(a.accepts(w), "seed {seed}: cex not accepted by a");
                assert!(!b.accepts(w), "seed {seed}: cex not rejected by b");
            }
            let fast_univ = universal(&b, &cache, None).unwrap().is_ok();
            let slow_univ = universal_rank(&b, complements).unwrap().is_ok();
            assert_eq!(fast_univ, slow_univ, "seed {seed}: universality differs");
        }
        let work = antichain_stats().delta_since(&before);
        assert!(nondeterministic >= 30, "{nondeterministic}");
        assert_eq!(work.searches, 2 * nondeterministic, "{work:?}");
        assert_eq!(work.product_checks, 80 - 2 * nondeterministic, "{work:?}");
        // Repeat operands went through the quotient cache.
        assert!(cache.stats().hits > 0, "{:?}", cache.stats());
    }

    /// Runs the product check with no budget.
    fn product_check(a: &Buchi, b: &Buchi) -> Inclusion {
        product_included(a, b, &mut |_| Ok(())).expect("unmetered")
    }

    #[test]
    fn product_witness_is_the_bfs_first_stem_and_shortest_cycle() {
        let s = sigma();
        // Σ^ω ⊄ a^ω: `b` sends a^ω's run to the sink, which loops on
        // both letters; `a` comes first, so the cycle is `a`.
        assert_eq!(
            product_check(&Buchi::universal(s.clone()), &only_a(&s)),
            Inclusion::CounterExample(LassoWord::parse(&s, "b", "a"))
        );
        // Σ^ω ⊄ GF a: the first F_A state in a cycle avoiding F_B is the
        // initial one, and `b` is the only letter that avoids `qa`.
        assert_eq!(
            product_check(&Buchi::universal(s.clone()), &inf_a(&s)),
            Inclusion::CounterExample(LassoWord::parse(&s, "", "b"))
        );
        assert_eq!(product_check(&only_a(&s), &inf_a(&s)), Inclusion::Holds);
        let empty = Buchi::empty_language(s.clone());
        assert_eq!(product_check(&empty, &empty), Inclusion::Holds);
    }

    #[test]
    fn product_agrees_with_the_antichain_on_deterministic_pairs() {
        // The antichain's cost follows B's transition monoid, which
        // random complete automata can make huge: it gets a step cap, and
        // the pairs it gives up on are counted.
        let mut verdicts = [0usize; 2];
        let mut gave_up = 0;
        for sigma in [Alphabet::ab(), Alphabet::new(&["x", "y", "z"])] {
            let cache = QuotientCache::new();
            for seed in 0..100u64 {
                let config = |states: u64| RandomConfig {
                    states: 1 + (states % 8) as usize,
                    density_percent: [50, 65, 80, 100, 160][(seed % 5) as usize],
                    accepting_percent: 15 + (seed * 7 % 50) as u32,
                };
                let a = random_buchi(&sigma, seed, config(seed));
                let b = random_buchi(&sigma, 50_000 + seed, config(seed / 3));
                let product = product_check(&a, &b);
                let mut steps = 0u32;
                let mut capped = |_| {
                    steps += 1;
                    match steps {
                        20_000.. => Err(SlError::BudgetExceeded {
                            phase: PHASE,
                            spent: u64::from(steps),
                        }),
                        _ => Ok(()),
                    }
                };
                let mut gauges = SearchGauges::default();
                let Ok(antichain) = search_lazy(&a, &b, &cache, &mut capped, &mut gauges) else {
                    gave_up += 1;
                    continue;
                };
                assert_eq!(product.holds(), antichain.holds(), "seed {seed}");
                for verdict in [&product, &antichain] {
                    if let Inclusion::CounterExample(w) = verdict {
                        assert!(a.accepts(w) && !b.accepts(w), "seed {seed}: {w}");
                    }
                }
                verdicts[usize::from(product.holds())] += 1;
            }
        }
        assert!(
            gave_up <= 20,
            "the antichain gave up on {gave_up} of 200 pairs"
        );
        assert!(verdicts[0] > 50 && verdicts[1] > 20, "{verdicts:?}");
    }

    #[test]
    fn product_memory_follows_the_reachable_product() {
        // A 15-state core padded with 10^4 unreachable, successor-free
        // states on each side: a table indexed by state pairs would hold
        // 10^8 cells, while the reachable product holds at most 15 · 16.
        let s = sigma();
        let padded = |seed: u64| {
            let core = random_buchi(
                &s,
                seed,
                RandomConfig {
                    states: 15,
                    density_percent: 55,
                    accepting_percent: 40,
                },
            );
            let mut builder = BuchiBuilder::new(s.clone());
            for q in 0..core.num_states() + 10_000 {
                builder.add_state(q < core.num_states() && core.is_accepting(q));
            }
            for q in 0..core.num_states() {
                for sym in s.symbols() {
                    for &r in core.successors(q, sym) {
                        builder.add_transition(q, sym, r);
                    }
                }
            }
            builder.build(0)
        };
        for seed in [77, 3, 11] {
            let (a, b) = (padded(seed), padded(seed + 1));
            let product = Product::explore(&a, &b, &mut |_| Ok(())).expect("unmetered");
            let states = product.pairs.len();
            let edges = product.targets.len();
            assert!(states <= 15 * 16, "seed {seed}: {states} product states");
            let trimmed = Product::explore(
                &a.trim_unreachable(),
                &b.trim_unreachable(),
                &mut |_| Ok(()),
            )
            .expect("unmetered");
            assert_eq!(trimmed.pairs.len(), states, "seed {seed}");
            // Amortized growth: no vector holds more than twice what it
            // stores, plus the first allocation.
            let slack = |len: usize, cap: usize| cap <= 2 * len + 8;
            assert!(slack(states, product.pairs.capacity()));
            assert!(slack(states, product.tree.capacity()));
            assert!(slack(states + 1, product.offsets.capacity()));
            assert!(slack(edges, product.targets.capacity()));
            assert!(slack(edges, product.letters.capacity()));
            assert_eq!(
                product_check(&a, &b).holds(),
                product_check(&a.trim_unreachable(), &b.trim_unreachable()).holds()
            );
        }
    }

    #[test]
    fn product_budget_counts_states_and_names_the_phase() {
        // inf_a ⊆ only_a creates four product states: a budget of three
        // steps runs out in the product check's phase, four suffice.
        let s = sigma();
        let before = antichain_stats();
        let tight = Budget::unlimited().with_steps(3);
        match included(&inf_a(&s), &only_a(&s), &QuotientCache::new(), Some(&tight)) {
            Err(SlError::BudgetExceeded { phase, spent }) => assert_eq!((phase, spent), (PHASE, 4)),
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
            Ok(verdict) => panic!("four product states fit a 3-step budget: {verdict:?}"),
        }
        let work = antichain_stats().delta_since(&before);
        assert_eq!((work.product_checks, work.searches), (1, 0), "{work:?}");
        let enough = Budget::unlimited().with_steps(4);
        match included(
            &inf_a(&s),
            &only_a(&s),
            &QuotientCache::new(),
            Some(&enough),
        ) {
            Ok(verdict) => assert!(!verdict.holds()),
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }
}
