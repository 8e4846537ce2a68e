//! Memoization of query results, keyed by verb and operands.
//!
//! A thin wrapper over [`sl_support::StripedCache`], which supplies the
//! policy every memo table in the workspace shares: a bounded stripe
//! *cleared* (not evicted entry-by-entry) when it would exceed its cap,
//! a stored-operand equality check that turns 64-bit hash collisions
//! into recomputations instead of wrong answers, and singleflight for
//! concurrent cold computes.
//!
//! This cache keeps `cache_cap` results over [`QUERY_CACHE_SHARDS`]
//! stripes chosen by the **left operand's** structural hash: every
//! session shares one result pool (a cold query computed for one client
//! is a warm hit for every other), repeat queries about one automaton
//! serialize through one stripe, and probes for distinct automata
//! proceed without contending. All methods take `&self`.
//!
//! Only successful results are cached: a query that failed on a small
//! budget must be recomputed when the client retries with a larger
//! one, and fault-injected failures must not poison later sessions.
//! Hits are served without consulting the request budget — a cached
//! answer costs nothing, which is the point of the cache.

use crate::json::Json;
use sl_buchi::Buchi;
use sl_support::{CacheStats, StripedCache};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Stripe count for [`QueryCache::new`]. Stripe selection is
/// `left.structural_hash() % stripes`, so repeat queries land on (and
/// serialize through) one stripe while distinct operands parallelize.
pub const QUERY_CACHE_SHARDS: usize = 8;

/// Cache-key verb tags. Only pure query verbs are cacheable: `define`
/// and `decompose` mutate the registry, `monitor-step` is stateful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `classify` (unary).
    Classify,
    /// `include` (binary, ordered).
    Include,
    /// `equivalent` (binary, ordered — the separator's direction
    /// depends on operand order, so no normalization).
    Equivalent,
    /// `universal` (unary).
    Universal,
}

/// The full cache key: verb tag plus operands. Equality compares the
/// automata themselves (pointer-equal `Arc`s short-circuit).
#[derive(Debug, Clone, PartialEq)]
struct QueryKey {
    kind: QueryKind,
    left: Arc<Buchi>,
    right: Option<Arc<Buchi>>,
}

impl QueryKey {
    /// The key plus its stripe hash (the left operand's structural
    /// hash) and its slot hash (verb and both operands' hashes).
    fn hashed(kind: QueryKind, left: &Arc<Buchi>, right: Option<&Arc<Buchi>>) -> (u64, u64, Self) {
        let left_hash = left.structural_hash();
        let right_hash = right.map_or(0, |r| r.structural_hash());
        let mut hasher = DefaultHasher::new();
        (kind, left_hash, right_hash).hash(&mut hasher);
        let key = QueryKey {
            kind,
            left: Arc::clone(left),
            right: right.cloned(),
        };
        (left_hash, hasher.finish(), key)
    }
}

/// The bounded, striped query-result cache.
#[derive(Debug)]
pub struct QueryCache {
    results: StripedCache<QueryKey, Json>,
}

impl QueryCache {
    /// An empty cache holding at most `cap` results across
    /// [`QUERY_CACHE_SHARDS`] stripes.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        QueryCache {
            results: StripedCache::new(cap, QUERY_CACHE_SHARDS),
        }
    }

    /// The cached result, or `compute()`'s: concurrent cold lookups of
    /// one query share a single compute, and only `Ok` is stored.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_compute<E>(
        &self,
        kind: QueryKind,
        left: &Arc<Buchi>,
        right: Option<&Arc<Buchi>>,
        compute: impl FnOnce() -> Result<Json, E>,
    ) -> Result<Json, E> {
        let (stripe, hash, key) = QueryKey::hashed(kind, left, right);
        self.results
            .get_or_try_insert_with(stripe, hash, &key, compute)
    }

    /// Looks up a result without claiming it (the batch path computes
    /// misses itself and [`QueryCache::store`]s them): a hit, or `None`
    /// after counting a miss or a collision.
    pub fn probe(
        &self,
        kind: QueryKind,
        left: &Arc<Buchi>,
        right: Option<&Arc<Buchi>>,
    ) -> Option<Json> {
        let (stripe, hash, key) = QueryKey::hashed(kind, left, right);
        self.results.probe(stripe, hash, &key)
    }

    /// Stores a computed result, clearing the whole stripe first if it
    /// is at capacity. A different query already holding the slot
    /// keeps it.
    pub fn store(
        &self,
        kind: QueryKind,
        left: Arc<Buchi>,
        right: Option<Arc<Buchi>>,
        result: Json,
    ) {
        let (stripe, hash, key) = QueryKey::hashed(kind, &left, right.as_ref());
        self.results.store(stripe, hash, key, result);
    }

    /// Counters summed over every stripe.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.results.stats()
    }

    /// Per-stripe counters, in stripe order — `stats` surfaces these so
    /// a workload thrashing one stripe is visible without a profiler.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.results.stripe_stats()
    }

    /// Empties the cache and zeroes the counters (bench isolation).
    pub fn reset(&self) {
        self.results.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_omega::Alphabet;

    #[test]
    fn probe_miss_store_hit() {
        let cache = QueryCache::new(8);
        let u = Arc::new(Buchi::universal(Alphabet::ab()));
        assert!(cache.probe(QueryKind::Universal, &u, None).is_none());
        cache.store(QueryKind::Universal, Arc::clone(&u), None, Json::Bool(true));
        assert_eq!(
            cache.probe(QueryKind::Universal, &u, None),
            Some(Json::Bool(true))
        );
        // Same operand under a different verb tag is a distinct key.
        assert!(cache.probe(QueryKind::Classify, &u, None).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }
}
