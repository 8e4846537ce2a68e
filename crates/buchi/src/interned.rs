//! Interned automaton nodes with incremental simulation maintenance —
//! the quotient-first core behind the on-the-fly antichain engine.
//!
//! Every inclusion/equivalence/universality query starts by quotienting
//! its operands by direct simulation ([`crate::reduce`]), and before
//! this module existed that quotient was recomputed from scratch on
//! every query — the dominant cost at 10^4–10^5 states, and pure waste
//! in a daemon whose registry changes only on `define`/`redefine`. The
//! fix has three parts:
//!
//! * **[`InternedNode`]** — one automaton version: its reachable part,
//!   its greatest-fixpoint simulation rows (one flat `u64` slice), and
//!   the resulting quotient, so a repeat query costs the structural
//!   hash, a stripe probe and a comparison of the stored key's flat
//!   transition arrays instead of an `O(n²)` refinement.
//! * **Incremental maintenance** — [`QuotientCache::advance`] interns a
//!   *successor version* of an automaton (the `redefine` path) by
//!   recomputing simulation only where the edit can matter. States are
//!   partitioned per SCC of the new automaton into *clean* (index,
//!   acceptance, and transition rows identical to the old version, and
//!   every successor SCC clean — i.e. the whole reachable cone is the
//!   same sub-automaton) and *dirty*. Clean × clean pairs are seeded
//!   with the old fixpoint's verdicts; every pair involving a dirty
//!   state restarts from the optimistic acceptance-consistent top. The
//!   worklist refinement then runs — and because any start between the
//!   greatest fixpoint and top converges to exactly that fixpoint (a
//!   cut never drops a true pair, and the stable point is a
//!   post-fixpoint), the incremental quotient is **bit-identical** to a
//!   from-scratch one; `tests/interned_core.rs` holds that bar over
//!   seeded 50+-mutation histories.
//! * **[`QuotientCache`]** — the nodes memoized in an
//!   [`sl_support::StripedCache`] keyed by [`Buchi::structural_hash`]
//!   with an equality check on probe: 64 entries over 8 stripes,
//!   cap-and-clear, singleflight, and fault-drill invalidation at site
//!   `"buchi.quotient_cache"` under a plan pinned per cache. A node
//!   lives exactly as long as its cache entry and the `Arc`s callers
//!   hold. Every inclusion query names the cache it quotients through:
//!   library callers without one of their own pass the process-wide
//!   instance ([`shared_quotient_cache`]); the `sld` daemon owns a
//!   private instance so its `stats` counters are a deterministic
//!   function of the session.
//!
//! The quotient pipeline here trims unreachable states *first* and
//! computes simulation over the reachable part only — on the
//! garbage-padded inputs of the scaling bench (`e16_scale`) that turns
//! an `O(n²)` preprocessing bill into `O(core²)`.

use crate::automaton::Buchi;
use crate::graph::reaching;
use crate::reduce::{quotient, refine, row_words, top_rows};
use sl_lattice::Bitset;
use sl_support::fault::{self, FaultPlan};
use sl_support::{CacheStats, SccWalk, StripedCache};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Test-only engine sabotage, used by the conformance fuzzer to prove
/// the incremental-vs-scratch differential oracle catches a real
/// invalidation bug. Not part of the public API; never enabled outside
/// dedicated drill tests.
#[doc(hidden)]
pub mod sabotage {
    use std::sync::atomic::{AtomicBool, Ordering};

    static BREAK_DIRTY_TRACKING: AtomicBool = AtomicBool::new(false);

    /// When enabled, [`super::QuotientCache::advance`] marks an SCC
    /// dirty only when one of its *own* states changed, skipping the
    /// propagation from dirty successor SCCs. A state whose cone
    /// changed downstream then keeps stale simulation verdicts as its
    /// seed; stale `false` bits below the true fixpoint can never be
    /// re-added by the (removal-only) refinement, so the incremental
    /// quotient drifts from the from-scratch one — exactly the
    /// disagreement `slfuzz --sabotage dirty-scc-invalidation` must
    /// detect and shrink.
    pub fn set_break_dirty_tracking(on: bool) {
        BREAK_DIRTY_TRACKING.store(on, Ordering::Relaxed);
    }

    /// Whether the drill flag is currently set.
    #[must_use]
    pub fn dirty_tracking_broken() -> bool {
        BREAK_DIRTY_TRACKING.load(Ordering::Relaxed)
    }
}

/// Entry cap for a [`QuotientCache`]; past it a stripe is cleared
/// rather than grown. Nodes carry `O(reachable²)` bits of simulation
/// rows, so the cap is tighter than the complement cache's.
pub const QUOTIENT_CACHE_CAP: usize = 64;

/// Stripe count for [`QuotientCache`]. Selection is
/// `structural_hash % stripes`, so repeat queries for one automaton
/// serialize through one stripe while distinct automata proceed
/// concurrently.
const QUOTIENT_CACHE_SHARDS: usize = 8;

/// The fault-injection site at which a firing drill drops a memoized
/// node and forces a behavior-preserving recomputation.
pub const QUOTIENT_FAULT_SITE: &str = "buchi.quotient_cache";

/// Totals of a [`QuotientCache`]'s [`QuotientCache::advance`] calls;
/// the memo-table counters are [`QuotientCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceStats {
    /// Incremental advances (the `define`/`redefine` path).
    pub advances: u64,
    /// SCCs whose simulation verdicts an advance had to recompute.
    pub dirty_sccs: u64,
    /// SCCs whose verdicts an advance carried over from the previous
    /// version unchanged.
    pub clean_sccs: u64,
}

/// What one [`QuotientCache::advance`] did: how much of the new
/// automaton's SCC condensation was re-derived vs. carried over.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceReport {
    /// SCCs re-derived (locally edited, index-shifted, or downstream of
    /// an edit).
    pub dirty_sccs: usize,
    /// SCCs whose simulation verdicts were reused from the old version.
    pub clean_sccs: usize,
}

/// One interned automaton version: its reachable part, the greatest-
/// fixpoint simulation rows over that part, and the quotient. (The
/// automaton itself is the cache key.)
#[derive(Debug)]
pub struct InternedNode {
    trimmed: Buchi,
    /// The fixpoint as flat rows: `rows[q·w..(q+1)·w]` is
    /// `{ r | q ≤ r }`, `w = ⌈n/64⌉` words per row.
    rows: Vec<u64>,
    quotient: Arc<Buchi>,
}

impl InternedNode {
    /// The simulation quotient of the interned automaton.
    #[must_use]
    pub fn quotient(&self) -> Arc<Buchi> {
        Arc::clone(&self.quotient)
    }

    /// The greatest-fixpoint simulation rows over the reachable part
    /// (`rows[q] = { r | q ≤ r }`), exposed so differential tests can
    /// compare incremental and from-scratch fixpoints bit for bit.
    #[must_use]
    pub fn rows(&self) -> Vec<Bitset> {
        let n = self.trimmed.num_states();
        let w = row_words(n);
        (0..n)
            .map(|q| Bitset::from_words(n, self.rows[q * w..(q + 1) * w].to_vec()))
            .collect()
    }
}

/// The quotient pipeline: trim to the reachable part, compute the
/// simulation fixpoint there — seeded from `old`'s verdicts where its
/// SCCs are provably unchanged — and quotient. With no `old` this is
/// the from-scratch computation every cached or incremental path must
/// agree with bit for bit (`reduce ∘ trim` with the rows exposed).
fn compute_node(old: Option<&InternedNode>, b: &Buchi) -> (InternedNode, AdvanceReport) {
    let trimmed = b.trim_unreachable();
    let mut rows = top_rows(&trimmed);
    let report = match old {
        Some(o) if o.trimmed.alphabet() == trimmed.alphabet() => {
            seed_rows(&o.trimmed, &o.rows, &trimmed, &mut rows)
        }
        _ => AdvanceReport::default(),
    };
    refine(&trimmed, &mut rows);
    let quotient = Arc::new(quotient(&trimmed, &rows));
    let node = InternedNode {
        trimmed,
        rows,
        quotient,
    };
    (node, report)
}

/// The trim-first simulation quotient of `b`, computed from scratch
/// with no cache involved — the differential reference for
/// [`QuotientCache::quotient`] and [`QuotientCache::advance`].
#[must_use]
pub fn scratch_quotient(b: &Buchi) -> Buchi {
    compute_node(None, b).0.quotient.as_ref().clone()
}

/// Seeds `rows` (arriving as `top_rows(new_t)`) with the old
/// fixpoint's verdicts on clean × clean pairs, in place. See the module
/// docs for the clean/dirty definition and the convergence argument.
fn seed_rows(old_t: &Buchi, old_rows: &[u64], new_t: &Buchi, rows: &mut [u64]) -> AdvanceReport {
    let n_new = new_t.num_states();
    let n_old = old_t.num_states();
    // A state is locally changed unless its index, acceptance bit, and
    // every per-symbol successor row survived the edit verbatim.
    let changed: Vec<bool> = (0..n_new)
        .map(|q| {
            q >= n_old
                || new_t.is_accepting(q) != old_t.is_accepting(q)
                || new_t
                    .alphabet()
                    .symbols()
                    .any(|s| new_t.successors(q, s) != old_t.successors(q, s))
        })
        .collect();
    // A state is dirty when it reaches a locally changed one, so its
    // cone is no longer the old version's. (The drill stops the marking
    // at the state's own SCC.)
    let mut dirty = if sabotage::dirty_tracking_broken() {
        changed
    } else {
        reaching(new_t, changed)
    };
    // The SCCs are the cyclic components plus the states outside them,
    // and an SCC is dirty when any of its states is.
    let (mut sccs, mut dirty_sccs) = (0, 0);
    let mut on_cycle = vec![false; n_new];
    let mut walk = SccWalk::new(n_new);
    let succ = |q: usize, i| new_t.all_successors(q).get(i).copied();
    for root in 0..n_new {
        if !walk.visited(root) {
            walk.walk(root, succ, |members| {
                let d = members.iter().any(|&q| dirty[q]);
                for &q in members {
                    dirty[q] = d;
                    on_cycle[q] = true;
                }
                sccs += 1;
                dirty_sccs += usize::from(d);
                None::<()>
            });
        }
    }
    for q in (0..n_new).filter(|&q| !on_cycle[q]) {
        sccs += 1;
        dirty_sccs += usize::from(dirty[q]);
    }
    // A clean state's reachable cone is bit-identical to the old
    // version's, and a simulation verdict depends only on the two
    // cones — so on clean × clean pairs the old fixpoint bit *is* the
    // new fixpoint bit. Keep the optimistic top everywhere else. A
    // clean state is locally unchanged, so its index is below both
    // state counts: its old row sits at the same index.
    let clean_states: Vec<usize> = (0..n_new).filter(|&q| !dirty[q]).collect();
    let (w_new, w_old) = (row_words(n_new), row_words(n_old));
    let mut clean = vec![0u64; w_new];
    for &q in &clean_states {
        clean[q / 64] |= 1 << (q % 64);
    }
    for &q in &clean_states {
        let old_row = &old_rows[q * w_old..(q + 1) * w_old];
        let row = &mut rows[q * w_new..(q + 1) * w_new];
        for (i, cell) in row.iter_mut().enumerate() {
            let old = old_row.get(i).copied().unwrap_or(0);
            *cell &= !(clean[i] & !old);
        }
    }
    AdvanceReport {
        dirty_sccs,
        clean_sccs: sccs - dirty_sccs,
    }
}

/// A concurrency-safe cache of interned nodes: a
/// [`StripedCache`] keyed by structural hash, plus the totals of its
/// incremental advances. The `sld` daemon owns one instance per
/// service — so its `stats` counters are a deterministic function of
/// the session — and library callers without a cache of their own
/// share the process-wide [`shared_quotient_cache`].
#[derive(Debug)]
pub struct QuotientCache {
    nodes: StripedCache<Buchi, Arc<InternedNode>>,
    /// Taken only after the node lookup returns (a leaf lock).
    advanced: Mutex<AdvanceStats>,
}

impl Default for QuotientCache {
    fn default() -> Self {
        Self::new()
    }
}

impl QuotientCache {
    /// A cache with the default stripe count and node cap, under the
    /// process-wide fault plan.
    #[must_use]
    pub fn new() -> Self {
        Self::with_fault(*fault::global())
    }

    /// [`QuotientCache::new`] with the fault drill pinned to an
    /// explicit plan; the `sld` daemon passes its `ServiceConfig`
    /// plan through so transcript-pinning tests stay byte-identical
    /// under the environment drill.
    #[must_use]
    pub fn with_fault(plan: FaultPlan) -> Self {
        Self::build(QUOTIENT_CACHE_CAP, QUOTIENT_CACHE_SHARDS, plan)
    }

    /// A one-stripe cache of `cap` nodes under the process-wide plan:
    /// the last node stored stays cached until the cap clears it, so a
    /// chain of [`QuotientCache::advance`] calls always seeds from the
    /// previous version.
    #[must_use]
    pub fn one_stripe(cap: usize) -> Self {
        Self::build(cap, 1, *fault::global())
    }

    fn build(cap: usize, stripes: usize, plan: FaultPlan) -> Self {
        QuotientCache {
            nodes: StripedCache::with_fault(cap, stripes, QUOTIENT_FAULT_SITE, plan),
            advanced: Mutex::new(AdvanceStats::default()),
        }
    }

    /// The interned node for `b`, if present (no lookup is counted).
    #[must_use]
    pub fn node(&self, b: &Buchi) -> Option<Arc<InternedNode>> {
        let hash = b.structural_hash();
        self.nodes.peek(hash, hash, b)
    }

    /// The simulation quotient of `b` (over its reachable part),
    /// computed at most once per distinct automaton across all threads
    /// sharing this cache.
    #[must_use]
    pub fn quotient(&self, b: &Buchi) -> Arc<Buchi> {
        let hash = b.structural_hash();
        self.nodes
            .get_or_insert_with(hash, hash, b, || Arc::new(compute_node(None, b).0))
            .quotient()
    }

    /// Interns `new` as the successor version of `old` (the
    /// `define`/`redefine` path), seeding its simulation fixpoint from
    /// `old`'s node where their SCCs are provably unchanged. Falls back
    /// to a full computation when `old` is not cached or the alphabets
    /// differ; a `new` that is already cached is a plain hit. The node
    /// is bit-identical to a from-scratch [`QuotientCache::quotient`]
    /// of `new` in every case. The old node is read (and its stripe
    /// released) before `new` is looked up.
    pub fn advance(&self, old: &Buchi, new: &Buchi) -> AdvanceReport {
        let old_node = self.node(old);
        let hash = new.structural_hash();
        let mut report = AdvanceReport::default();
        self.nodes.get_or_insert_with(hash, hash, new, || {
            let (node, computed) = compute_node(old_node.as_deref(), new);
            report = computed;
            Arc::new(node)
        });
        let mut totals = self.advance_totals();
        totals.advances += 1;
        totals.dirty_sccs += report.dirty_sccs as u64;
        totals.clean_sccs += report.clean_sccs as u64;
        report
    }

    /// The memo table's counters, summed over stripes.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.nodes.stats()
    }

    fn advance_totals(&self) -> std::sync::MutexGuard<'_, AdvanceStats> {
        self.advanced.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Totals over every [`QuotientCache::advance`].
    #[must_use]
    pub fn advance_stats(&self) -> AdvanceStats {
        *self.advance_totals()
    }

    /// Empties every stripe and zeroes the counters (bench cold/warm
    /// isolation).
    pub fn reset(&self) {
        self.nodes.reset();
        *self.advance_totals() = AdvanceStats::default();
    }
}

/// The process-wide quotient cache: what library callers of
/// [`crate::antichain::included`] and its siblings pass when they hold
/// no cache of their own ([`crate::classify()`] and
/// [`crate::decompose::BuchiDecomposition::verify_exact`] among them).
pub fn shared_quotient_cache() -> &'static QuotientCache {
    static SHARED: OnceLock<QuotientCache> = OnceLock::new();
    SHARED.get_or_init(QuotientCache::new)
}

/// Empties every stripe of the shared quotient cache and zeroes its
/// counters (bench cold/warm isolation).
pub fn reset_shared_quotient_cache() {
    shared_quotient_cache().reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::random::{random_buchi, RandomConfig};
    use crate::reduce::reduce;
    use sl_omega::Alphabet;

    fn sigma() -> Alphabet {
        Alphabet::ab()
    }

    fn pool_automaton(seed: u64) -> Buchi {
        random_buchi(
            &sigma(),
            seed,
            RandomConfig {
                states: 6,
                density_percent: 55,
                accepting_percent: 40,
            },
        )
    }

    #[test]
    fn scratch_quotient_matches_reduce_on_trimmed_input() {
        for seed in 0..20u64 {
            let b = pool_automaton(seed);
            let trimmed = b.trim_unreachable();
            assert_eq!(
                scratch_quotient(&b),
                reduce(&trimmed),
                "seed {seed}: the cached pipeline is reduce ∘ trim"
            );
        }
    }

    #[test]
    fn advance_is_bit_identical_to_scratch() {
        let s = sigma();
        let a_sym = s.symbol("a").unwrap();
        for seed in 0..20u64 {
            let old = pool_automaton(seed);
            // Edit: add a fresh accepting state reachable from the
            // initial state — downstream SCCs stay clean, upstream ones
            // go dirty.
            let mut builder = BuchiBuilder::new(s.clone());
            for q in 0..old.num_states() {
                builder.add_state(old.is_accepting(q));
            }
            let extra = builder.add_state(true);
            for q in 0..old.num_states() {
                for sym in s.symbols() {
                    for &t in old.successors(q, sym) {
                        builder.add_transition(q, sym, t);
                    }
                }
            }
            builder.add_transition(old.initial(), a_sym, extra);
            builder.add_transition(extra, a_sym, extra);
            let new = builder.build(old.initial());

            let graph = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
            let _ = graph.quotient(&old);
            let report = graph.advance(&old, &new);
            let incremental = graph.node(&new).expect("advance interned the new version");
            assert_eq!(
                *incremental.quotient(),
                scratch_quotient(&new),
                "seed {seed}: incremental quotient differs from scratch"
            );
            assert_eq!(
                incremental.rows(),
                compute_node(None, &new).0.rows(),
                "seed {seed}: incremental fixpoint rows differ from scratch"
            );
            assert_eq!(
                report.dirty_sccs + report.clean_sccs > 0,
                true,
                "seed {seed}: a seeded advance reports its SCC partition"
            );
        }
    }

    #[test]
    fn advance_without_interned_old_still_lands_on_scratch() {
        let old = pool_automaton(7);
        let new = pool_automaton(8);
        let graph = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
        let report = graph.advance(&old, &new);
        assert_eq!(report, AdvanceReport::default());
        assert_eq!(
            *graph.node(&new).expect("interned").quotient(),
            scratch_quotient(&new)
        );
    }

    #[test]
    fn broken_dirty_tracking_can_drift_from_scratch() {
        // The sabotage drill must be able to produce a divergence the
        // conform oracle can catch. The fixture flips a *clean-pair*
        // verdict via a downstream edit: `p -a-> t`, `r -a-> u`, with
        // `t` non-accepting and `u` accepting, so `r ≤ p` is false in
        // the old version (`u ≤ t` fails on acceptance) and true once
        // the edit makes `t` accepting. With propagation skipped, `p`
        // and `r` look clean, the stale false bit for `(r, p)` is
        // seeded, and the (removal-only) refinement can never restore
        // it. (Not every edit diverges under the drill — this is one
        // that does.)
        let s = sigma();
        let a_sym = s.symbol("a").unwrap();
        let b_sym = s.symbol("b").unwrap();
        let build = |accepting_t: bool| {
            let mut builder = BuchiBuilder::new(s.clone());
            let q0 = builder.add_state(false);
            let p = builder.add_state(false);
            let r = builder.add_state(false);
            let t = builder.add_state(accepting_t);
            let u = builder.add_state(true);
            builder.add_transition(q0, a_sym, p);
            builder.add_transition(q0, b_sym, r);
            builder.add_transition(p, a_sym, t);
            builder.add_transition(r, a_sym, u);
            builder.add_transition(t, a_sym, t);
            builder.add_transition(u, a_sym, u);
            builder.build(q0)
        };
        let old = build(false);
        let new = build(true);
        let graph = QuotientCache::one_stripe(QUOTIENT_CACHE_CAP);
        let _ = graph.quotient(&old);
        sabotage::set_break_dirty_tracking(true);
        let drilled = {
            graph.advance(&old, &new);
            graph.node(&new).expect("interned").rows()
        };
        sabotage::set_break_dirty_tracking(false);
        assert_ne!(
            drilled,
            compute_node(None, &new).0.rows(),
            "the drill must produce stale fixpoint rows on this fixture"
        );
    }
}
