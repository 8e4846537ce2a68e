//! Language inclusion, equivalence, and universality.
//!
//! Two engines answer the three questions:
//!
//! * the **on-the-fly antichain engine** ([`crate::antichain`]) —
//!   [`included`], [`equivalent`], and [`universal`], re-exported here —
//!   searches for a counterexample lasso over word-graphs of the right
//!   operand, expanding macro-states lazily and taking its simulation
//!   quotients from a [`crate::interned::QuotientCache`];
//! * the **rank-based engine** ([`included_rank`], [`equivalent_rank`],
//!   [`universal_rank`]) reduces to emptiness through complementation
//!   (`L(A) ⊆ L(B)` iff `L(A) ∩ ¬L(B) = ∅`). It is a different
//!   algorithm, so it is kept as the independent reference the
//!   differential suites check the antichain engine against. When `B`
//!   is all-accepting the cheap subset-construction complement is used
//!   automatically. [`included_with_complement`] serves callers that
//!   already hold a complement.
//!
//! Rank-based complements are expensive, and the exhaustive verifiers
//! call the rank engine over small corpora where the same automata
//! recur constantly. A memoizing [`ComplementCache`] — an
//! [`sl_support::StripedCache`] keyed by [`Buchi::structural_hash`],
//! so concurrent sessions share every complement (one compute per cold
//! automaton) and a lookup hashes 8 bytes instead of a whole automaton
//! — therefore backs the rank deciders, which take it as a parameter:
//! callers pass [`shared_complement_cache`], or an instance of their own
//! to observe one decider's complement behavior in isolation (e.g. that
//! [`equivalent_rank`] short-circuits after a failed first inclusion
//! without ever complementing the second operand).

pub use crate::antichain::{equivalent, included, universal};
use crate::automaton::Buchi;
use crate::complement::complement;
use crate::empty::find_accepted_word;
use crate::ops::intersection;
use sl_omega::LassoWord;
use sl_support::{fault, CacheStats, SlError, StripedCache};
use std::sync::OnceLock;

/// Entry cap for a [`ComplementCache`]; past it a stripe is cleared
/// rather than grown, bounding memory on unbounded corpora. The budget
/// is split evenly across [`COMPLEMENT_CACHE_SHARDS`].
const COMPLEMENT_CACHE_CAP: usize = 256;

/// Stripe count for [`ComplementCache`]. Selection is
/// `structural_hash % stripes`, so repeat queries for one automaton
/// always land on the same stripe while distinct automata complement
/// concurrently.
const COMPLEMENT_CACHE_SHARDS: usize = 8;

/// The fault-injection site at which a firing drill drops a memoized
/// complement and forces a behavior-preserving recomputation.
const COMPLEMENT_FAULT_SITE: &str = "buchi.complement_cache";

/// A memoizing cache for rank-based complements, keyed by
/// [`Buchi::structural_hash`] with the stored automaton
/// equality-checked to rule out collisions. The whole `Result` is
/// stored: errors are cached too, since retrying an automaton that hit
/// the state cap (or has too many states) would fail again. Complements
/// are computed with `budget: None`, so no deadline, cancellation, or
/// injected fault is ever memoized. The rank-based deciders
/// [`included_rank`], [`equivalent_rank`], and [`universal_rank`] take
/// one as a parameter: usually the process-wide
/// [`shared_complement_cache`], or an explicit instance to measure one
/// decider in isolation.
#[derive(Debug)]
pub struct ComplementCache {
    complements: StripedCache<Buchi, Result<Buchi, SlError>>,
}

impl Default for ComplementCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ComplementCache {
    /// An empty cache (256 entries over 8 stripes) under the
    /// process-wide fault plan, drilled at site
    /// `"buchi.complement_cache"`.
    #[must_use]
    pub fn new() -> Self {
        ComplementCache {
            complements: StripedCache::with_fault(
                COMPLEMENT_CACHE_CAP,
                COMPLEMENT_CACHE_SHARDS,
                COMPLEMENT_FAULT_SITE,
                *fault::global(),
            ),
        }
    }

    /// The complement of `b`, computed at most once per distinct
    /// automaton across every thread sharing this cache.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`complement`] with `budget: None`.
    pub fn complement(&self, b: &Buchi) -> Result<Buchi, SlError> {
        let hash = b.structural_hash();
        self.complements
            .get_or_insert_with(hash, hash, b, || complement(b, None))
    }

    /// Usage counters, summed over stripes.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.complements.stats()
    }

    /// Drops all entries and resets the counters.
    pub fn reset(&self) {
        self.complements.reset();
    }
}

/// The process-wide complement cache: every session and worker thread
/// shares one memoization pool instead of each thread re-deriving the
/// same complements. The `sld` daemon's `stats` verb reports it under
/// `engine.complement_cache`.
pub fn shared_complement_cache() -> &'static ComplementCache {
    static SHARED: OnceLock<ComplementCache> = OnceLock::new();
    SHARED.get_or_init(ComplementCache::new)
}

/// Empties the shared complement cache and zeroes its counters (bench
/// cold/warm isolation).
pub fn reset_shared_complement_cache() {
    shared_complement_cache().reset();
}

/// The outcome of an inclusion check: either inclusion holds, or a
/// counterexample word in `L(A) \ L(B)` is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inclusion {
    /// `L(A) ⊆ L(B)`.
    Holds,
    /// A word accepted by `A` but not by `B`.
    CounterExample(LassoWord),
}

impl Inclusion {
    /// Whether inclusion holds.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self, Inclusion::Holds)
    }
}

/// Decides `L(a) ⊆ L(b)` with the rank-based engine: complement `b`
/// (through `cache`) and test `L(a) ∩ ¬L(b)` for emptiness. Concurrent
/// duplicate queries share one construction while distinct automata
/// proceed on other stripes.
///
/// # Errors
///
/// Propagates the errors of [`complement`] if complementing `b` blows
/// up.
pub fn included_rank(a: &Buchi, b: &Buchi, cache: &ComplementCache) -> Result<Inclusion, SlError> {
    let not_b = cache.complement(b)?;
    Ok(included_with_complement(a, &not_b))
}

/// Decides `L(a) ⊆ L(b)` given an automaton `not_b` for the complement
/// of `b`: inclusion holds iff `L(a) ∩ L(not_b) = ∅`. This sidesteps
/// the exponential complementation when the caller has a cheap
/// complement (negated formula, subset-construction complement of a
/// safety automaton, ...).
#[must_use]
pub fn included_with_complement(a: &Buchi, not_b: &Buchi) -> Inclusion {
    match find_accepted_word(&intersection(a, not_b)) {
        None => Inclusion::Holds,
        Some(w) => Inclusion::CounterExample(w),
    }
}

/// Decides `L(a) = L(b)` with the rank-based engine, returning a word
/// on which they differ if not. Short-circuits: a counterexample to
/// the first inclusion settles the question, and `¬a` is then never
/// computed (the regression test observes this through the cache
/// stats).
///
/// # Errors
///
/// As for [`included_rank`], from either direction.
pub fn equivalent_rank(
    a: &Buchi,
    b: &Buchi,
    cache: &ComplementCache,
) -> Result<Result<(), LassoWord>, SlError> {
    if let Inclusion::CounterExample(w) = included_rank(a, b, cache)? {
        return Ok(Err(w));
    }
    if let Inclusion::CounterExample(w) = included_rank(b, a, cache)? {
        return Ok(Err(w));
    }
    Ok(Ok(()))
}

/// Decides `L(b) = Σ^ω` with the rank-based engine: complement `b`
/// (through `cache`) and test for emptiness.
///
/// # Errors
///
/// As for [`included_rank`].
pub fn universal_rank(
    b: &Buchi,
    cache: &ComplementCache,
) -> Result<Result<(), LassoWord>, SlError> {
    let not_b = cache.complement(b)?;
    Ok(match find_accepted_word(&not_b) {
        None => Ok(()),
        Some(w) => Err(w),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::BuchiBuilder;
    use crate::interned::shared_quotient_cache;
    use sl_omega::Alphabet;

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

    /// Accepts a^ω only.
    fn only_a(s: &Alphabet) -> Buchi {
        let a = s.symbol("a").unwrap();
        let mut builder = BuchiBuilder::new(s.clone());
        let q0 = builder.add_state(true);
        builder.add_transition(q0, a, q0);
        builder.build(q0)
    }

    #[test]
    fn rank_inclusion_holds_for_subset() {
        let s = sigma();
        // a^ω ⊆ GF a.
        let inc = included_rank(&only_a(&s), &inf_a(&s), shared_complement_cache()).unwrap();
        assert!(inc.holds());
    }

    #[test]
    fn rank_inclusion_counterexample_is_genuine() {
        let s = sigma();
        // GF a ⊄ {a^ω}: counterexample must be accepted by GF a, not a^ω.
        match included_rank(&inf_a(&s), &only_a(&s), shared_complement_cache()).unwrap() {
            Inclusion::CounterExample(w) => {
                assert!(inf_a(&s).accepts(&w));
                assert!(!only_a(&s).accepts(&w));
            }
            Inclusion::Holds => panic!("inclusion should fail"),
        }
    }

    #[test]
    fn rank_equivalence_and_universality() {
        let s = sigma();
        let cache = shared_complement_cache();
        assert!(equivalent_rank(&inf_a(&s), &inf_a(&s), cache)
            .unwrap()
            .is_ok());
        let all = Buchi::universal(s.clone());
        let w = equivalent_rank(&inf_a(&s), &all, cache)
            .unwrap()
            .unwrap_err();
        // The separator is accepted by exactly one of the two.
        assert_ne!(inf_a(&s).accepts(&w), all.accepts(&w));
        assert!(universal_rank(&all, cache).unwrap().is_ok());
        let rejected = universal_rank(&inf_a(&s), cache).unwrap().unwrap_err();
        assert!(!inf_a(&s).accepts(&rejected));
    }

    #[test]
    fn both_engines_agree() {
        let s = sigma();
        let (a, b) = (only_a(&s), inf_a(&s));
        let (quotients, complements) = (shared_quotient_cache(), shared_complement_cache());
        assert_eq!(
            included(&a, &b, quotients, None).unwrap().holds(),
            included_rank(&a, &b, complements).unwrap().holds()
        );
        assert_eq!(
            universal(&b, quotients, None).unwrap().is_ok(),
            universal_rank(&b, complements).unwrap().is_ok()
        );
        assert_eq!(
            equivalent(&a, &b, quotients, None).unwrap().is_ok(),
            equivalent_rank(&a, &b, complements).unwrap().is_ok()
        );
    }

    #[test]
    fn equivalent_rank_short_circuits_on_first_counterexample() {
        let s = sigma();
        // L(universal) ⊄ L(inf_a): the first inclusion fails, so
        // `equivalent_rank` must stop after complementing only inf_a —
        // the complement of the universal automaton is never computed.
        // An explicit cache isolates the count from the shared one
        // (which concurrent tests mutate freely).
        let big = Buchi::universal(s.clone());
        let small = inf_a(&s);
        let cache = ComplementCache::new();
        let verdict = equivalent_rank(&big, &small, &cache).unwrap();
        assert!(verdict.is_err(), "languages differ");
        let stats = cache.stats();
        assert_eq!(
            stats.misses,
            1 + stats.invalidations,
            "only ¬inf_a may be computed on the early exit \
             (modulo injected invalidations)"
        );
        assert_eq!(stats.entries, 1);
        // The shared cache agrees on the verdict itself.
        assert!(equivalent_rank(&big, &small, shared_complement_cache())
            .unwrap()
            .is_err());
    }

    #[test]
    fn complement_cache_memoizes_repeat_queries() {
        let s = sigma();
        let m = inf_a(&s);
        let cache = ComplementCache::new();
        assert!(universal_rank(&m, &cache).unwrap().is_err());
        assert!(universal_rank(&m, &cache).unwrap().is_err());
        assert!(!included_rank(&Buchi::universal(s.clone()), &m, &cache)
            .unwrap()
            .holds());
        let stats = cache.stats();
        // A process-wide fault drill may invalidate entries, turning a
        // hit into a recomputation — one for one, never changing answers.
        assert_eq!(
            stats.misses,
            1 + stats.invalidations,
            "one distinct automaton complemented (modulo injected invalidations)"
        );
        assert_eq!(stats.hits, 2 - stats.invalidations);
    }

    #[test]
    fn shared_cache_answers_like_an_isolated_cache() {
        // The shared cache is semantically transparent: deciders routed
        // through it agree with explicit-cache runs, and its stats move
        // monotonically.
        let s = sigma();
        let m = inf_a(&s);
        let shared = shared_complement_cache();
        let before = shared.stats();
        assert!(universal_rank(&m, shared).unwrap().is_err());
        assert!(universal_rank(&m, shared).unwrap().is_err());
        let after = shared.stats();
        assert!(
            after.hits + after.misses + after.collisions
                >= before.hits + before.misses + before.collisions + 2,
            "two lookups must be accounted somewhere: {before:?} -> {after:?}"
        );
        let isolated = ComplementCache::new();
        assert_eq!(
            universal_rank(&m, &isolated).unwrap(),
            universal_rank(&m, shared).unwrap()
        );
    }
}
