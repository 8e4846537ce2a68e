//! A striped, bounded memo table — the one cache implementation in the
//! workspace.
//!
//! [`StripedCache`] maps a caller-supplied 64-bit hash to a stored
//! `(key, value)` pair and checks the stored key for equality on every
//! probe, so a hash collision costs a recomputation but never a wrong
//! answer. Its policy, shared by every memo table built on it:
//!
//! * **Striping.** Entries live in `Mutex`-guarded stripes picked by a
//!   second hash the caller supplies (`stripe % stripes`), so repeat
//!   lookups of one key serialize through one stripe while distinct
//!   keys proceed in parallel.
//! * **Cap-and-clear.** A stripe that would grow past its share of the
//!   capacity is cleared wholesale: O(1) bookkeeping, bounded memory on
//!   unbounded workloads.
//! * **One counting rule.** Every lookup counts exactly once: a *hit*
//!   when it returns a stored value (also after waiting for another
//!   thread's compute), a *miss* when it computes, and a *collision* —
//!   and nothing else — when a different key holds its hash. The first
//!   occupant then stays, and the value is computed without being
//!   stored.
//! * **Only `Ok` is stored.** A failed compute leaves no entry, so a
//!   budget-limited failure never shadows a retry.
//! * **Fault drill.** An optional fault site, with a [`FaultPlan`]
//!   pinned at construction, drops a stored entry when the plan fires
//!   for a lookup (indexed per stripe), forcing a behavior-preserving
//!   recomputation counted as an invalidation.
//! * **Singleflight.** A miss claims its hash under the stripe lock and
//!   computes with no lock held; concurrent lookups of the same hash
//!   sleep on the stripe's condvar and probe again when the claim is
//!   released. The claim is released when the compute returns — `Ok`
//!   or `Err` — and when it unwinds.
//!
//! **Leaf locks.** A stripe lock is held only to probe, claim or store:
//! never across a compute, and never while taking any other lock.
//! Claims nest only when one compute looks up another cache, so callers
//! keep the nesting acyclic (a compute must never wait on a claim that
//! transitively waits on it).
//!
//! Mutex poisoning is absorbed: no user code runs under a stripe lock
//! except key equality and value clones, and a table abandoned by a
//! panicking thread is still a valid memo table.

use crate::fault::FaultPlan;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Counters of a [`StripedCache`] or of one of its stripes. `entries`
/// is a level; the rest are monotone counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored value.
    pub hits: u64,
    /// Lookups that computed (and stored an `Ok` result).
    pub misses: u64,
    /// Values currently stored.
    pub entries: u64,
    /// Times a stripe hit its cap and was cleared wholesale.
    pub clears: u64,
    /// Entries dropped by the fault drill, each forcing a recompute.
    pub invalidations: u64,
    /// Lookups whose hash was held by a different key; computed
    /// uncached, so a collision costs time but never correctness.
    pub collisions: u64,
}

impl CacheStats {
    fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.clears += other.clears;
        self.invalidations += other.invalidations;
        self.collisions += other.collisions;
    }
}

/// One stripe's table, guarded by the stripe mutex.
#[derive(Debug)]
struct Table<K, V> {
    map: HashMap<u64, (K, V)>,
    /// Hashes some thread is computing right now.
    claimed: HashSet<u64>,
    stats: CacheStats,
    /// Lookups so far: the index the fault plan draws on.
    lookups: u64,
}

impl<K: PartialEq, V> Table<K, V> {
    /// Stores a value unless a different key holds `hash` (the first
    /// occupant stays), clearing the table first if it is full.
    fn insert(&mut self, cap: usize, hash: u64, key: K, value: V) {
        if self.map.contains_key(&hash) {
            return;
        }
        if self.map.len() >= cap {
            self.map.clear();
            self.stats.clears += 1;
        }
        self.map.insert(hash, (key, value));
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len() as u64,
            ..self.stats
        }
    }
}

#[derive(Debug)]
struct Stripe<K, V> {
    table: Mutex<Table<K, V>>,
    /// Signalled whenever a claim on this stripe is released.
    released: Condvar,
}

impl<K, V> Stripe<K, V> {
    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bounded, striped memo table with singleflight; see the module
/// docs for the policy.
#[derive(Debug)]
pub struct StripedCache<K, V> {
    stripes: Box<[Stripe<K, V>]>,
    /// Per-stripe entry cap (the capacity split evenly).
    stripe_cap: usize,
    fault: Option<(&'static str, FaultPlan)>,
}

impl<K: PartialEq + Clone, V: Clone> StripedCache<K, V> {
    /// An empty cache holding at most `capacity` values across
    /// `stripes` stripes (each stripe keeps `capacity / stripes`, at
    /// least one).
    #[must_use]
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        StripedCache {
            stripe_cap: (capacity / stripes).max(1),
            stripes: (0..stripes)
                .map(|_| Stripe {
                    table: Mutex::new(Table {
                        map: HashMap::new(),
                        claimed: HashSet::new(),
                        stats: CacheStats::default(),
                        lookups: 0,
                    }),
                    released: Condvar::new(),
                })
                .collect(),
            fault: None,
        }
    }

    /// [`StripedCache::new`] with a fault drill: a lookup for which
    /// `plan` fires at `site` drops the stored entry first.
    #[must_use]
    pub fn with_fault(
        capacity: usize,
        stripes: usize,
        site: &'static str,
        plan: FaultPlan,
    ) -> Self {
        StripedCache {
            fault: Some((site, plan)),
            ..Self::new(capacity, stripes)
        }
    }

    fn stripe(&self, stripe: u64) -> &Stripe<K, V> {
        &self.stripes[(stripe % self.stripes.len() as u64) as usize]
    }

    /// Draws the fault plan for the next lookup on `table`; when it
    /// fires, the entry stored for `key` is dropped.
    fn draw_fault(&self, table: &mut Table<K, V>, hash: u64, key: &K) {
        let lookup = table.lookups;
        table.lookups += 1;
        if let Some((site, plan)) = &self.fault {
            if plan.should_fault(site, lookup)
                && table
                    .map
                    .get(&hash)
                    .is_some_and(|(stored, _)| stored == key)
            {
                table.map.remove(&hash);
                table.stats.invalidations += 1;
            }
        }
    }

    /// The value stored for `key`, or `compute()`'s. A miss claims
    /// `hash` and runs `compute` with no lock held; concurrent lookups
    /// of the same hash wait for it and probe again (one lookup, one
    /// fault draw). Only `Ok` results are stored.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; the error is not cached, and a
    /// waiting lookup then computes for itself.
    pub fn get_or_try_insert_with<E>(
        &self,
        stripe: u64,
        hash: u64,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let stripe = self.stripe(stripe);
        let mut guard = stripe.lock();
        self.draw_fault(&mut guard, hash, key);
        loop {
            let table = &mut *guard;
            match table.map.get(&hash) {
                Some((stored, value)) if stored == key => {
                    table.stats.hits += 1;
                    return Ok(value.clone());
                }
                Some(_) => {
                    table.stats.collisions += 1;
                    drop(guard);
                    return compute();
                }
                None if table.claimed.insert(hash) => break,
                None => {
                    guard = stripe
                        .released
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner)
                }
            }
        }
        guard.stats.misses += 1;
        drop(guard);
        let mut claim = Claim {
            stripe,
            cap: self.stripe_cap,
            hash,
            fill: None,
        };
        let result = compute();
        if let Ok(value) = &result {
            claim.fill = Some((key.clone(), value.clone()));
        }
        result
    }

    /// [`StripedCache::get_or_try_insert_with`] for a compute that
    /// cannot fail.
    pub fn get_or_insert_with(
        &self,
        stripe: u64,
        hash: u64,
        key: &K,
        compute: impl FnOnce() -> V,
    ) -> V {
        match self.get_or_try_insert_with(stripe, hash, key, || Ok::<V, Infallible>(compute())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// A counted lookup without singleflight, for callers that compute
    /// elsewhere and [`StripedCache::store`] the result: a hit, or
    /// `None` after counting a miss or a collision.
    pub fn probe(&self, stripe: u64, hash: u64, key: &K) -> Option<V> {
        let mut guard = self.stripe(stripe).lock();
        self.draw_fault(&mut guard, hash, key);
        let table = &mut *guard;
        match table.map.get(&hash) {
            Some((stored, value)) if stored == key => {
                table.stats.hits += 1;
                Some(value.clone())
            }
            Some(_) => {
                table.stats.collisions += 1;
                None
            }
            None => {
                table.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a computed value; a different key already holding `hash`
    /// keeps its slot.
    pub fn store(&self, stripe: u64, hash: u64, key: K, value: V) {
        self.stripe(stripe)
            .lock()
            .insert(self.stripe_cap, hash, key, value);
    }

    /// The stored value for `key`, without counting a lookup or
    /// drawing the fault plan.
    pub fn peek(&self, stripe: u64, hash: u64, key: &K) -> Option<V> {
        let table = self.stripe(stripe).lock();
        match table.map.get(&hash) {
            Some((stored, value)) if stored == key => Some(value.clone()),
            _ => None,
        }
    }

    /// Counters summed over the stripes.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in self.stripe_stats() {
            total.add(&stripe);
        }
        total
    }

    /// Per-stripe counters, in stripe order.
    #[must_use]
    pub fn stripe_stats(&self) -> Vec<CacheStats> {
        self.stripes
            .iter()
            .map(|stripe| stripe.lock().stats())
            .collect()
    }

    /// Empties every stripe and zeroes its counters and fault index.
    /// In-flight claims survive, so their computes still store.
    pub fn reset(&self) {
        for stripe in self.stripes.iter() {
            let mut table = stripe.lock();
            table.map.clear();
            table.stats = CacheStats::default();
            table.lookups = 0;
        }
    }
}

/// A held singleflight claim. Dropping it — after the compute returns
/// or while it unwinds — stores `fill` if set, releases the claim and
/// wakes the stripe's waiters.
struct Claim<'a, K: PartialEq, V> {
    stripe: &'a Stripe<K, V>,
    cap: usize,
    hash: u64,
    fill: Option<(K, V)>,
}

impl<K: PartialEq, V> Drop for Claim<'_, K, V> {
    fn drop(&mut self) {
        let mut table = self.stripe.lock();
        table.claimed.remove(&self.hash);
        if let Some((key, value)) = self.fill.take() {
            table.insert(self.cap, self.hash, key, value);
        }
        drop(table);
        self.stripe.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    type Cache = StripedCache<String, u64>;

    fn key(name: &str) -> String {
        name.to_string()
    }

    /// Blocks until `lookups` lookups have entered the one-stripe
    /// `cache`. A lookup holds the stripe lock from its count until it
    /// parks on the condvar (or returns), so once the count is visible
    /// under the lock, every such lookup is parked or done.
    fn await_lookups(cache: &Cache, lookups: u64) {
        while cache.stripes[0].lock().lookups < lookups {
            std::thread::yield_now();
        }
    }

    /// Runs `claimant` alongside `waiters` threads running `waiter`,
    /// all looking up one key of the one-stripe `cache`. The claimant's
    /// compute calls `hold`, which returns only once every waiter has
    /// entered its lookup and parked behind the claim.
    fn overlap<R: Send, W: Send>(
        cache: &Cache,
        waiters: u64,
        claimant: impl FnOnce(&dyn Fn()) -> R + Send,
        waiter: impl Fn() -> W + Sync,
    ) -> (R, Vec<W>) {
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                claimant(&|| {
                    claimed_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                })
            });
            claimed_rx.recv().unwrap();
            let rest: Vec<_> = (0..waiters).map(|_| scope.spawn(&waiter)).collect();
            await_lookups(cache, waiters + 1);
            go_tx.send(()).unwrap();
            let rest = rest.into_iter().map(|h| h.join().unwrap()).collect();
            (first.join().unwrap(), rest)
        })
    }

    #[test]
    fn concurrent_cold_lookups_compute_once() {
        const N: u64 = 8;
        let cache = Cache::new(8, 1);
        let computes = AtomicUsize::new(0);
        let compute = |value| {
            computes.fetch_add(1, Ordering::SeqCst);
            value
        };
        let (first, rest) = overlap(
            &cache,
            N - 1,
            |hold| {
                cache.get_or_insert_with(0, 5, &key("k"), || {
                    hold();
                    compute(7)
                })
            },
            || cache.get_or_insert_with(0, 5, &key("k"), || compute(0)),
        );
        assert_eq!(first, 7);
        assert!(rest.iter().all(|&v| v == 7), "{rest:?}");
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.entries),
            (1, N - 1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn an_error_is_not_stored_and_a_waiter_computes_for_itself() {
        let cache = Cache::new(8, 1);
        let (first, rest) = overlap(
            &cache,
            1,
            |hold| {
                cache.get_or_try_insert_with(0, 5, &key("k"), || {
                    hold();
                    Err("budget")
                })
            },
            || cache.get_or_try_insert_with(0, 5, &key("k"), || Ok::<_, &str>(3)),
        );
        assert_eq!((first, rest), (Err("budget"), vec![Ok(3)]));
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.entries),
            (2, 0, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn a_panicking_compute_releases_its_claim() {
        let cache = Cache::new(8, 1);
        let (panicked, rest) = overlap(
            &cache,
            1,
            |hold| {
                catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_insert_with(0, 5, &key("k"), || {
                        hold();
                        panic!("compute failed")
                    })
                }))
                .is_err()
            },
            || cache.get_or_insert_with(0, 5, &key("k"), || 9),
        );
        assert!(panicked, "the panic reached its caller");
        assert_eq!(rest, vec![9], "the waiter did not hang");
        assert_eq!(cache.get_or_insert_with(0, 5, &key("k"), || 0), 9);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 1), "{stats:?}");
    }

    #[test]
    fn cap_and_clear_bounds_the_map() {
        // One stripe of two: the third store clears the first two.
        let cache = Cache::new(2, 1);
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            cache.get_or_insert_with(0, i as u64, &key(name), || i as u64);
        }
        let stats = cache.stats();
        assert_eq!((stats.clears, stats.entries, stats.misses), (1, 1, 3));
        assert_eq!(cache.probe(0, 2, &key("c")), Some(2));
        assert_eq!(cache.probe(0, 0, &key("a")), None);
    }

    #[test]
    fn rollup_sums_per_stripe_counters() {
        let cache = Cache::new(64, 8);
        for i in 0..16u64 {
            let name = key(&format!("k{i}"));
            assert_eq!(cache.probe(i, i, &name), None);
            cache.store(i, i, name.clone(), i);
            assert_eq!(cache.get_or_insert_with(i, i, &name, || unreachable!()), i);
        }
        let per_stripe = cache.stripe_stats();
        assert_eq!(per_stripe.len(), 8);
        let mut summed = CacheStats::default();
        for stripe in &per_stripe {
            summed.add(stripe);
            assert_eq!((stripe.hits, stripe.misses, stripe.entries), (2, 2, 2));
        }
        assert_eq!(summed, cache.stats());
        assert_eq!((summed.hits, summed.misses, summed.entries), (16, 16, 16));
        cache.reset();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_probes_and_stores_count_every_lookup_once() {
        let cache = Cache::new(64, 4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for round in 0..50 {
                        let i = (t + round) % 8;
                        match cache.probe(i, i, &key(&format!("k{i}"))) {
                            Some(value) => assert_eq!(value, i),
                            None => cache.store(i, i, key(&format!("k{i}")), i),
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200, "{stats:?}");
        assert_eq!(stats.entries, 8);
    }

    #[test]
    fn an_always_firing_plan_invalidates_every_repeat() {
        let drilled =
            StripedCache::<String, u64>::with_fault(8, 1, "test.cache", FaultPlan::new(7, 1.0));
        for _ in 0..3 {
            assert_eq!(drilled.get_or_insert_with(0, 1, &key("k"), || 4), 4);
        }
        let stats = drilled.stats();
        // The first lookup finds nothing to drop; each repeat drops the
        // stored entry and recomputes.
        assert_eq!(
            (stats.misses, stats.invalidations, stats.hits, stats.entries),
            (3, 2, 0, 1)
        );
        let quiet =
            StripedCache::<String, u64>::with_fault(8, 1, "test.cache", FaultPlan::disabled());
        for _ in 0..3 {
            quiet.get_or_insert_with(0, 1, &key("k"), || 4);
        }
        let stats = quiet.stats();
        assert_eq!((stats.misses, stats.invalidations, stats.hits), (1, 0, 2));
    }

    #[test]
    fn a_collision_keeps_the_first_occupant_and_counts_only_as_a_collision() {
        // A collision counts only as a collision, so it stays
        // distinguishable from a miss. Drive one miss, one hit and one
        // planted collision (two keys under one hash).
        let cache = Cache::new(8, 1);
        assert_eq!(cache.get_or_insert_with(0, 9, &key("first"), || 1), 1);
        assert_eq!(cache.get_or_insert_with(0, 9, &key("first"), || 0), 1);
        let computed = AtomicUsize::new(0);
        let out = cache.get_or_insert_with(0, 9, &key("second"), || {
            computed.fetch_add(1, Ordering::SeqCst);
            2
        });
        assert_eq!((out, computed.load(Ordering::SeqCst)), (2, 1));
        assert_eq!(cache.probe(0, 9, &key("second")), None);
        cache.store(0, 9, key("second"), 2);
        let stats = cache.stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.collisions, stats.entries),
            (1, 1, 2, 1),
            "{stats:?}"
        );
        assert_eq!(
            cache.peek(0, 9, &key("first")),
            Some(1),
            "the first occupant stays"
        );
    }
}
