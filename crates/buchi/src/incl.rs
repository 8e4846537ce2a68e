//! Language inclusion, equivalence, and universality.
//!
//! Three engines decide all three questions:
//!
//! * the **on-the-fly antichain engine** ([`crate::antichain`]) — the
//!   default — searches for a counterexample lasso over word-graphs of
//!   the right operand, expanding macro-states lazily and taking its
//!   simulation quotients from the persistent
//!   [`crate::interned::QuotientCache`];
//! * the **eager antichain engine** runs the same search with both
//!   operands quotiented from scratch and the element space seeded up
//!   front — the first differential oracle;
//! * the **rank-based engine** reduces to emptiness through
//!   complementation (`L(A) ⊆ L(B)` iff `L(A) ∩ ¬L(B) = ∅`) and is
//!   kept as a second oracle and for callers that need the complement
//!   automaton itself. When `B` is all-accepting the cheap
//!   subset-construction complement is used automatically.
//!
//! [`included`], [`equivalent`], and [`universal`] dispatch on
//! `SL_INCL_ENGINE` (`onthefly`, the default, `antichain`, or `rank`),
//! read once per process; the per-engine entry points
//! ([`included_onthefly`], [`included_antichain`], [`included_rank`],
//! ...) pin an engine explicitly regardless of the environment.
//!
//! Rank-based complements are expensive, and the exhaustive verifiers
//! may call the rank engine over small corpora where the same automata
//! recur constantly. A process-wide memoizing [`ComplementCache`] — an
//! [`sl_support::StripedCache`] keyed by [`Buchi::structural_hash`],
//! so concurrent sessions share every complement (one compute per cold
//! automaton) and a lookup hashes 8 bytes instead of a whole automaton
//! — therefore backs the rank-based deciders. Its counters make the
//! deciders' complement behavior observable (e.g. that
//! [`equivalent_rank`] short-circuits after a failed first inclusion
//! without ever complementing the second operand — pinned through the
//! explicit-cache entry points like [`equivalent_rank_with_cache`],
//! which measure an isolated instance instead of the shared one).

use crate::antichain::{
    equivalent_antichain, equivalent_antichain_budgeted, equivalent_onthefly,
    equivalent_onthefly_budgeted, included_antichain, included_antichain_budgeted,
    included_onthefly, included_onthefly_budgeted, universal_antichain, universal_onthefly,
};
use crate::automaton::Buchi;
use crate::complement::{complement, complement_budgeted, ComplementBudgetExceeded};
use crate::empty::{find_accepted_word, is_empty};
use crate::ops::intersection;
use sl_omega::LassoWord;
use sl_support::{fault, Budget, CacheStats, SlError, StripedCache};
use std::sync::OnceLock;

/// Which engine backs the dispatching deciders [`included`],
/// [`equivalent`], and [`universal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InclEngine {
    /// On-the-fly antichain search over cached quotients — lazy
    /// macro-state expansion, the [`crate::interned::QuotientCache`]
    /// behind it (the default).
    OnTheFly,
    /// Eager antichain search: both operands quotiented from scratch,
    /// all letter graphs and single-letter elements materialized up
    /// front (the first differential oracle).
    Antichain,
    /// Rank-based complementation + product emptiness (the second
    /// oracle).
    Rank,
}

/// Maps a raw `SL_INCL_ENGINE` value to an engine, plus the warning an
/// unrecognized value earns. Factored out of [`incl_engine`] so the
/// fallback-and-warn contract is unit-testable without mutating the
/// process environment.
fn parse_incl_engine(raw: Option<&str>) -> (InclEngine, Option<String>) {
    match raw {
        None | Some("" | "onthefly") => (InclEngine::OnTheFly, None),
        Some("antichain") => (InclEngine::Antichain, None),
        Some("rank") => (InclEngine::Rank, None),
        Some(other) => (
            InclEngine::OnTheFly,
            Some(format!(
                "sl-buchi: SL_INCL_ENGINE=`{other}` is not a known inclusion engine \
                 (accepted values: `onthefly`, `antichain`, `rank`); falling back to `onthefly`"
            )),
        ),
    }
}

/// The engine selected by `SL_INCL_ENGINE` (`onthefly`, `antichain`,
/// or `rank`), read once per process; unset values select
/// [`InclEngine::OnTheFly`], and an unrecognized value falls back to
/// the on-the-fly engine after warning once on stderr (naming the bad
/// value and the accepted ones — a silent fallback once masked typos
/// like `SL_INCL_ENGINE=ranked` in benchmark runs). Tests that need
/// several engines in one process call the per-engine entry points
/// instead of mutating the environment.
pub fn incl_engine() -> InclEngine {
    static ENGINE: OnceLock<InclEngine> = OnceLock::new();
    *ENGINE.get_or_init(|| {
        let raw = std::env::var("SL_INCL_ENGINE").ok();
        let (engine, warning) = parse_incl_engine(raw.as_deref());
        if let Some(warning) = warning {
            eprintln!("{warning}");
        }
        engine
    })
}

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
/// stored: budget errors are cached too, since retrying an automaton
/// that blew the budget would blow it again. The rank-based deciders
/// [`included_rank`], [`equivalent_rank`], and [`universal_rank`] share
/// the process-wide [`shared_complement_cache`]; explicit instances
/// measure one decider in isolation via the `*_with_cache` entry
/// points.
#[derive(Debug)]
pub struct ComplementCache {
    complements: StripedCache<Buchi, Result<Buchi, ComplementBudgetExceeded>>,
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
    /// Propagates [`ComplementBudgetExceeded`] from the underlying
    /// construction.
    pub fn complement(&self, b: &Buchi) -> Result<Buchi, ComplementBudgetExceeded> {
        let hash = b.structural_hash();
        self.complements
            .get_or_insert_with(hash, hash, b, || complement(b))
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

/// Decides `L(a) ⊆ L(b)` with the engine selected by `SL_INCL_ENGINE`
/// ([`incl_engine`]; antichain by default).
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`] if the search blows its
/// node budget (antichain) or complementing `b` blows up (rank). When
/// a complement of `b` is available by other means — e.g. `b` came
/// from an LTL formula, whose negation translates directly — use
/// [`included_with_complement`] instead.
pub fn included(a: &Buchi, b: &Buchi) -> Result<Inclusion, ComplementBudgetExceeded> {
    match incl_engine() {
        InclEngine::OnTheFly => included_onthefly(a, b),
        InclEngine::Antichain => included_antichain(a, b),
        InclEngine::Rank => included_rank(a, b),
    }
}

/// Decides `L(a) ⊆ L(b)` with the rank-based engine, regardless of
/// `SL_INCL_ENGINE`: complement `b` (through the shared
/// [`ComplementCache`]) and test `L(a) ∩ ¬L(b)` for emptiness.
/// Concurrent duplicate queries share one construction while distinct
/// automata proceed on other stripes.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`] if complementing `b` blows
/// up.
pub fn included_rank(a: &Buchi, b: &Buchi) -> Result<Inclusion, ComplementBudgetExceeded> {
    included_rank_with_cache(shared_complement_cache(), a, b)
}

/// [`included_rank`] against an explicit, caller-owned cache instead of
/// the shared one — isolated measurements (how many complements did
/// this decider compute?) without cross-talk from concurrent threads.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`] if complementing `b` blows
/// up.
pub fn included_rank_with_cache(
    cache: &ComplementCache,
    a: &Buchi,
    b: &Buchi,
) -> Result<Inclusion, ComplementBudgetExceeded> {
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

/// Decides `L(a) = L(b)` with the engine selected by `SL_INCL_ENGINE`,
/// returning a word on which they differ if not. Both engines
/// short-circuit: a counterexample to the first inclusion settles the
/// question (for the rank engine, ¬a is then never computed — the
/// regression test observes this through the cache stats).
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn equivalent(a: &Buchi, b: &Buchi) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    match incl_engine() {
        InclEngine::OnTheFly => equivalent_onthefly(a, b),
        InclEngine::Antichain => equivalent_antichain(a, b),
        InclEngine::Rank => equivalent_rank(a, b),
    }
}

/// Decides `L(a) = L(b)` with the rank-based engine, regardless of
/// `SL_INCL_ENGINE`; short-circuits on the first counterexample.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn equivalent_rank(
    a: &Buchi,
    b: &Buchi,
) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    equivalent_rank_with_cache(shared_complement_cache(), a, b)
}

/// [`equivalent_rank`] against an explicit, caller-owned cache; both
/// directions' complements land in the one instance, so the
/// short-circuit behavior is observable through its stats.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn equivalent_rank_with_cache(
    cache: &ComplementCache,
    a: &Buchi,
    b: &Buchi,
) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    if let Inclusion::CounterExample(w) = included_rank_with_cache(cache, a, b)? {
        return Ok(Err(w));
    }
    if let Inclusion::CounterExample(w) = included_rank_with_cache(cache, b, a)? {
        return Ok(Err(w));
    }
    Ok(Ok(()))
}

/// Decides `L(b) = Σ^ω` with the engine selected by `SL_INCL_ENGINE`,
/// returning a rejected word if not.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn universal(b: &Buchi) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    match incl_engine() {
        InclEngine::OnTheFly => universal_onthefly(b),
        InclEngine::Antichain => universal_antichain(b),
        InclEngine::Rank => universal_rank(b),
    }
}

/// Decides `L(b) = Σ^ω` with the rank-based engine, regardless of
/// `SL_INCL_ENGINE`: complement and test for emptiness.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn universal_rank(b: &Buchi) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    universal_rank_with_cache(shared_complement_cache(), b)
}

/// [`universal_rank`] against an explicit, caller-owned cache.
///
/// # Errors
///
/// Propagates [`ComplementBudgetExceeded`].
pub fn universal_rank_with_cache(
    cache: &ComplementCache,
    b: &Buchi,
) -> Result<Result<(), LassoWord>, ComplementBudgetExceeded> {
    let not_b = cache.complement(b)?;
    Ok(match find_accepted_word(&not_b) {
        None => Ok(()),
        Some(w) => Err(w),
    })
}

/// Decides `L(a) ⊆ L(b)` under a cooperative [`Budget`], with the
/// engine selected by `SL_INCL_ENGINE`.
///
/// Antichain: every insertion attempt of the fixpoint loop charges the
/// meter (phase `"buchi.incl.antichain"`). Rank: the complementation —
/// the exponential part — is metered through [`complement_budgeted`];
/// the product-emptiness search that follows is polynomial and runs
/// unmetered. Budget semantics are per-call, so the rank path
/// deliberately bypasses the shared memoization cache (a cached
/// result computed under a generous budget must not be replayed as if
/// a strict one had admitted it).
///
/// # Errors
///
/// Budget exhaustion, cancellation, an injected fault, or (rank only)
/// an oversized operand — always with a context frame naming
/// `included_budgeted`.
pub fn included_budgeted(a: &Buchi, b: &Buchi, budget: &Budget) -> Result<Inclusion, SlError> {
    match incl_engine() {
        InclEngine::OnTheFly => included_onthefly_budgeted(a, b, budget)
            .map_err(|e| e.context("included_budgeted: antichain search")),
        InclEngine::Antichain => included_antichain_budgeted(a, b, budget)
            .map_err(|e| e.context("included_budgeted: antichain search")),
        InclEngine::Rank => included_rank_budgeted(a, b, budget),
    }
}

/// Decides `L(a) ⊆ L(b)` under a cooperative [`Budget`] with the
/// rank-based engine, regardless of `SL_INCL_ENGINE`.
///
/// # Errors
///
/// Whatever [`complement_budgeted`] reports: budget exhaustion,
/// cancellation, an injected fault, or an oversized operand.
pub fn included_rank_budgeted(a: &Buchi, b: &Buchi, budget: &Budget) -> Result<Inclusion, SlError> {
    let not_b = complement_budgeted(b, budget)
        .map_err(|e| e.context("included_budgeted: complementing the right operand"))?;
    Ok(included_with_complement(a, &not_b))
}

/// Decides `L(a) = L(b)` under a cooperative [`Budget`], with the
/// engine selected by `SL_INCL_ENGINE`, returning a separating word if
/// the languages differ. Short-circuits exactly like [`equivalent`]: a
/// counterexample to the first inclusion settles the question before
/// the second direction is attempted.
///
/// # Errors
///
/// Whatever [`included_budgeted`] reports for either direction.
pub fn equivalent_budgeted(
    a: &Buchi,
    b: &Buchi,
    budget: &Budget,
) -> Result<Result<(), LassoWord>, SlError> {
    match incl_engine() {
        InclEngine::OnTheFly => equivalent_onthefly_budgeted(a, b, budget)
            .map_err(|e| e.context("included_budgeted: antichain search")),
        InclEngine::Antichain => equivalent_antichain_budgeted(a, b, budget)
            .map_err(|e| e.context("included_budgeted: antichain search")),
        InclEngine::Rank => {
            if let Inclusion::CounterExample(w) = included_rank_budgeted(a, b, budget)? {
                return Ok(Err(w));
            }
            if let Inclusion::CounterExample(w) = included_rank_budgeted(b, a, budget)? {
                return Ok(Err(w));
            }
            Ok(Ok(()))
        }
    }
}

/// Convenience: emptiness re-exported next to its siblings.
#[must_use]
pub fn empty(b: &Buchi) -> bool {
    is_empty(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antichain::{antichain_stats, AntichainStats};
    use crate::automaton::BuchiBuilder;
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
    fn recognized_engine_values_parse_silently() {
        assert_eq!(parse_incl_engine(None), (InclEngine::OnTheFly, None));
        assert_eq!(parse_incl_engine(Some("")), (InclEngine::OnTheFly, None));
        assert_eq!(
            parse_incl_engine(Some("onthefly")),
            (InclEngine::OnTheFly, None)
        );
        assert_eq!(
            parse_incl_engine(Some("antichain")),
            (InclEngine::Antichain, None)
        );
        assert_eq!(parse_incl_engine(Some("rank")), (InclEngine::Rank, None));
    }

    #[test]
    fn unrecognized_engine_value_warns_and_falls_back() {
        let (engine, warning) = parse_incl_engine(Some("ranked"));
        assert_eq!(engine, InclEngine::OnTheFly);
        let warning = warning.expect("an unrecognized value must earn a warning");
        // The warning has to name the bad value and every accepted one,
        // so the fix is readable straight off stderr.
        assert!(warning.contains("`ranked`"), "bad value missing: {warning}");
        assert!(warning.contains("`onthefly`"), "accepted value missing: {warning}");
        assert!(warning.contains("`antichain`"), "accepted value missing: {warning}");
        assert!(warning.contains("`rank`"), "accepted value missing: {warning}");
        assert!(warning.contains("SL_INCL_ENGINE"), "variable missing: {warning}");
    }

    #[test]
    fn antichain_deltas_count_search_work() {
        let s = sigma();
        let before = antichain_stats();
        let inc = included_antichain(&only_a(&s), &inf_a(&s)).unwrap();
        assert!(inc.holds());
        let holds_delta = antichain_stats().delta_since(&before);
        assert_eq!(holds_delta.searches, 1);
        assert!(holds_delta.insert_attempts > 0);
        assert_eq!(holds_delta.counterexamples, 0);

        let mid = antichain_stats();
        let inc = included_antichain(&inf_a(&s), &only_a(&s)).unwrap();
        assert!(!inc.holds());
        let cex_delta = antichain_stats().delta_since(&mid);
        assert_eq!(cex_delta.searches, 1);
        assert_eq!(cex_delta.counterexamples, 1);
    }

    #[test]
    fn antichain_deltas_absorb_into_totals() {
        let a = AntichainStats {
            searches: 1,
            insert_attempts: 10,
            subsumption_scans: 20,
            counterexamples: 0,
            peak_macro_states: 8,
            final_antichain: 5,
        };
        let mut total = AntichainStats::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.insert_attempts, 20);
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
    fn inclusion_holds_for_subset() {
        let s = sigma();
        // a^ω ⊆ GF a.
        let inc = included(&only_a(&s), &inf_a(&s)).unwrap();
        assert!(inc.holds());
    }

    #[test]
    fn inclusion_counterexample_is_genuine() {
        let s = sigma();
        // GF a ⊄ {a^ω}: counterexample must be accepted by GF a, not a^ω.
        let inc = included(&inf_a(&s), &only_a(&s)).unwrap();
        match inc {
            Inclusion::CounterExample(w) => {
                assert!(inf_a(&s).accepts(&w));
                assert!(!only_a(&s).accepts(&w));
            }
            Inclusion::Holds => panic!("inclusion should fail"),
        }
    }

    #[test]
    fn equivalence_of_identical_machines() {
        let s = sigma();
        assert!(equivalent(&inf_a(&s), &inf_a(&s)).unwrap().is_ok());
    }

    #[test]
    fn equivalence_failure_produces_separator() {
        let s = sigma();
        let w = equivalent(&inf_a(&s), &Buchi::universal(s.clone()))
            .unwrap()
            .unwrap_err();
        // The separator is accepted by exactly one of the two.
        assert_ne!(
            inf_a(&s).accepts(&w),
            Buchi::universal(s.clone()).accepts(&w)
        );
    }

    #[test]
    fn universality() {
        let s = sigma();
        assert!(universal(&Buchi::universal(s.clone())).unwrap().is_ok());
        let rejected = universal(&inf_a(&s)).unwrap().unwrap_err();
        assert!(!inf_a(&s).accepts(&rejected));
    }

    #[test]
    fn empty_helper() {
        let s = sigma();
        assert!(empty(&Buchi::empty_language(s.clone())));
        assert!(!empty(&Buchi::universal(s)));
    }

    #[test]
    fn engine_selection_follows_env() {
        let expected = match std::env::var("SL_INCL_ENGINE").as_deref() {
            Ok("rank") => InclEngine::Rank,
            Ok("antichain") => InclEngine::Antichain,
            _ => InclEngine::OnTheFly,
        };
        assert_eq!(incl_engine(), expected);
    }

    #[test]
    fn dispatching_deciders_agree_with_all_engines() {
        let s = sigma();
        let a = only_a(&s);
        let b = inf_a(&s);
        // Whatever SL_INCL_ENGINE says, the dispatcher must agree with
        // every pinned engine — they are exact.
        assert_eq!(
            included(&a, &b).unwrap().holds(),
            included_rank(&a, &b).unwrap().holds()
        );
        assert_eq!(
            included(&a, &b).unwrap().holds(),
            crate::antichain::included_antichain(&a, &b).unwrap().holds()
        );
        assert_eq!(
            included(&a, &b).unwrap().holds(),
            included_onthefly(&a, &b).unwrap().holds()
        );
        assert_eq!(
            universal(&b).unwrap().is_ok(),
            universal_rank(&b).unwrap().is_ok()
        );
        assert_eq!(
            universal(&b).unwrap().is_ok(),
            universal_onthefly(&b).unwrap().is_ok()
        );
        assert_eq!(
            equivalent(&a, &b).unwrap().is_ok(),
            equivalent_rank(&a, &b).unwrap().is_ok()
        );
        assert_eq!(
            equivalent(&a, &b).unwrap().is_ok(),
            equivalent_onthefly(&a, &b).unwrap().is_ok()
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
        let verdict = equivalent_rank_with_cache(&cache, &big, &small).unwrap();
        assert!(verdict.is_err(), "languages differ");
        let stats = cache.stats();
        assert_eq!(
            stats.misses,
            1 + stats.invalidations,
            "only ¬inf_a may be computed on the early exit \
             (modulo injected invalidations)"
        );
        assert_eq!(stats.entries, 1);
        // The shared-cache decider agrees on the verdict itself.
        assert!(equivalent_rank(&big, &small).unwrap().is_err());
    }

    #[test]
    fn complement_cache_memoizes_repeat_queries() {
        let s = sigma();
        let m = inf_a(&s);
        let cache = ComplementCache::new();
        assert!(universal_rank_with_cache(&cache, &m).unwrap().is_err());
        assert!(universal_rank_with_cache(&cache, &m).unwrap().is_err());
        assert!(
            !included_rank_with_cache(&cache, &Buchi::universal(s.clone()), &m)
                .unwrap()
                .holds()
        );
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
        // The shared cache is semantically transparent: the deciders
        // that route through it agree with explicit-cache runs, and its
        // stats move monotonically.
        let s = sigma();
        let m = inf_a(&s);
        let shared = shared_complement_cache();
        let before = shared.stats();
        assert!(universal_rank(&m).unwrap().is_err());
        assert!(universal_rank(&m).unwrap().is_err());
        let after = shared.stats();
        assert!(
            after.hits + after.misses + after.collisions
                >= before.hits + before.misses + before.collisions + 2,
            "two lookups must be accounted somewhere: {before:?} -> {after:?}"
        );
        let isolated = ComplementCache::new();
        assert_eq!(
            universal_rank_with_cache(&isolated, &m).unwrap(),
            universal_rank(&m).unwrap()
        );
    }

    #[test]
    fn budgeted_inclusion_matches_unbudgeted() {
        let s = sigma();
        let a = only_a(&s);
        let b = inf_a(&s);
        match included_budgeted(&a, &b, &Budget::unlimited()) {
            Ok(inc) => assert_eq!(inc, included(&a, &b).unwrap()),
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }

    #[test]
    fn budgeted_inclusion_respects_step_limit() {
        let s = sigma();
        let err = included_budgeted(&only_a(&s), &inf_a(&s), &Budget::unlimited().with_steps(1))
            .unwrap_err();
        assert!(
            err.root().is_budget_exceeded() || err.root().is_fault_injected(),
            "{err}"
        );
        assert!(
            err.to_string().contains("included_budgeted"),
            "context chain names the caller: {err}"
        );
    }

    #[test]
    fn budgeted_equivalence_finds_separator() {
        let s = sigma();
        match equivalent_budgeted(&inf_a(&s), &Buchi::universal(s.clone()), &Budget::unlimited()) {
            Ok(verdict) => {
                let w = verdict.unwrap_err();
                assert_ne!(
                    inf_a(&s).accepts(&w),
                    Buchi::universal(s.clone()).accepts(&w)
                );
            }
            Err(err) => assert!(err.root().is_fault_injected(), "{err}"),
        }
    }
}
