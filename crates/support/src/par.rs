//! Scoped-thread parallel sweeps with deterministic result ordering.
//!
//! The exhaustive theorem verifiers (E4's closure enumeration, E10's
//! corpus sweep, the property corpora) are embarrassingly parallel:
//! independent work items whose results are folded afterwards. These
//! helpers split the items into contiguous chunks, run one
//! `std::thread::scope` worker per chunk, and write each result into
//! its item's slot — so `par_map(items, f)` returns exactly
//! `items.iter().map(f).collect()` regardless of thread count, and any
//! fold over the results is bit-identical to the sequential run.
//!
//! The worker count comes from the `SL_THREADS` environment variable
//! when set (a positive integer; `SL_THREADS=1` forces sequential
//! execution), otherwise from `std::thread::available_parallelism`.
//!
//! ## Panic isolation
//!
//! [`par_map`] propagates worker panics — one poisoned item aborts the
//! whole sweep. The fault-tolerant variants ([`try_par_map`],
//! [`par_map_isolated`]) instead wrap each chunk in
//! [`std::panic::catch_unwind`]; when a chunk panics, it is retried
//! sequentially item by item to pinpoint the offender, and every item's
//! fate is recorded in a [`SweepReport`] (ok / panicked / failed with a
//! typed [`SlError`]). Surviving results are bit-identical to what the
//! plain sweep would have produced for those items, at any thread
//! count. The `"par.worker"` fault-injection site
//! ([`crate::fault::global`]) fires inside the isolation boundary, so
//! seeded fault drills exercise exactly this degradation path.

use crate::error::SlError;
use crate::fault;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The number of worker threads sweeps use: `SL_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
#[must_use]
pub fn thread_count() -> usize {
    if let Ok(raw) = std::env::var("SL_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item, in parallel across [`thread_count`]
/// workers, returning results in item order (identical to the
/// sequential `items.iter().map(f).collect()`).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (used by the determinism
/// tests to compare widths directly).
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        for (item_chunk, slot_chunk) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in item_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot is filled by its chunk's worker"))
        .collect()
}

/// The fate of one item in a fault-tolerant sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome<R> {
    /// The item completed; the result equals the sequential `f(item)`.
    Ok(R),
    /// The item's closure panicked; the panic was caught and the
    /// payload rendered (injected panics carry the `sl-fault:` prefix).
    Panicked(String),
    /// The item's closure returned a typed error.
    Failed(SlError),
}

impl<R> ItemOutcome<R> {
    /// Whether the item completed normally.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, ItemOutcome::Ok(_))
    }

    /// The result, if the item completed.
    #[must_use]
    pub fn ok(&self) -> Option<&R> {
        match self {
            ItemOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-item outcomes of a fault-tolerant sweep, in item order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport<R> {
    /// `outcomes[i]` is the fate of `items[i]`.
    pub outcomes: Vec<ItemOutcome<R>>,
}

impl<R> SweepReport<R> {
    /// Total number of items swept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the sweep had no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Items that completed normally.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// Items whose closure panicked (caught and isolated).
    #[must_use]
    pub fn panicked_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ItemOutcome::Panicked(_)))
            .count()
    }

    /// Items whose closure returned a typed error.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ItemOutcome::Failed(_)))
            .count()
    }

    /// Whether any item did not complete normally.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.ok_count() != self.len()
    }

    /// `(index, result)` for every item that completed, in item order.
    pub fn oks(&self) -> impl Iterator<Item = (usize, &R)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.ok().map(|r| (i, r)))
    }

    /// Indices of items that did not complete, in item order.
    #[must_use]
    pub fn failure_indices(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_ok())
            .map(|(i, _)| i)
            .collect()
    }

    /// All results when nothing failed, or the report itself (`Err`)
    /// when degraded — the bridge back to the strict sweep shape.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged when any item panicked or failed.
    pub fn into_oks(self) -> Result<Vec<R>, SweepReport<R>> {
        if self.degraded() {
            return Err(self);
        }
        Ok(self
            .outcomes
            .into_iter()
            .map(|o| match o {
                ItemOutcome::Ok(r) => r,
                _ => unreachable!("degraded() was false"),
            })
            .collect())
    }

    /// One-line human summary, e.g. `38/40 ok, 2 panicked, 0 failed`.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}/{} ok, {} panicked, {} failed",
            self.ok_count(),
            self.len(),
            self.panicked_count(),
            self.failed_count()
        )
    }
}

/// Renders a caught panic payload (the `&str`/`String` shapes `panic!`
/// produces; anything else becomes a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fault-tolerant sweep: applies the fallible `f` to every item in
/// parallel, catching per-item panics and recording every outcome in a
/// [`SweepReport`] (item order, deterministic at any thread count for
/// deterministic `f`). The `"par.worker"` fault site fires inside the
/// isolation boundary with the item's index.
pub fn try_par_map<T, R, F>(items: &[T], f: F) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, SlError> + Sync,
{
    try_par_map_with(thread_count(), items, f)
}

/// [`try_par_map`] with an explicit worker count.
pub fn try_par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, SlError> + Sync,
{
    let plan = fault::global();
    // The per-item closure, fault site included: this is the unit the
    // isolation boundary wraps, so injected panics are caught exactly
    // like organic ones.
    let run_item = |index: usize, item: &T| -> Result<R, SlError> {
        plan.inject_panic("par.worker", index as u64);
        f(item)
    };
    let run_item = &run_item;

    if items.is_empty() {
        return SweepReport {
            outcomes: Vec::new(),
        };
    }
    let sweep_chunk = |base: usize, chunk: &[T], slots: &mut [Option<ItemOutcome<R>>]| {
        // Fast path: run the whole chunk inside one unwind boundary.
        // On a panic, partially-written slots are discarded and the
        // chunk is retried sequentially, one boundary per item, to
        // pinpoint the offender (f is deterministic, so recomputing
        // the survivors reproduces their results bit-for-bit).
        let whole = catch_unwind(AssertUnwindSafe(|| {
            for (offset, (item, slot)) in chunk.iter().zip(slots.iter_mut()).enumerate() {
                *slot = Some(match run_item(base + offset, item) {
                    Ok(r) => ItemOutcome::Ok(r),
                    Err(e) => ItemOutcome::Failed(e),
                });
            }
        }));
        if whole.is_ok() {
            return;
        }
        for (offset, (item, slot)) in chunk.iter().zip(slots.iter_mut()).enumerate() {
            *slot = Some(
                match catch_unwind(AssertUnwindSafe(|| run_item(base + offset, item))) {
                    Ok(Ok(r)) => ItemOutcome::Ok(r),
                    Ok(Err(e)) => ItemOutcome::Failed(e),
                    Err(payload) => ItemOutcome::Panicked(panic_message(payload.as_ref())),
                },
            );
        }
    };

    let mut slots: Vec<Option<ItemOutcome<R>>> = (0..items.len()).map(|_| None).collect();
    if threads <= 1 || items.len() <= 1 {
        sweep_chunk(0, items, &mut slots);
    } else {
        let chunk = items.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk_index, (item_chunk, slot_chunk)) in
                items.chunks(chunk).zip(slots.chunks_mut(chunk)).enumerate()
            {
                let sweep_chunk = &sweep_chunk;
                scope.spawn(move || sweep_chunk(chunk_index * chunk, item_chunk, slot_chunk));
            }
        });
    }
    SweepReport {
        outcomes: slots
            .into_iter()
            .map(|slot| slot.expect("every slot is filled by its chunk's worker"))
            .collect(),
    }
}

/// Panic-isolating sweep over an infallible closure: like [`par_map`],
/// but a panicking item degrades to a [`SweepReport`] entry instead of
/// aborting the process.
pub fn par_map_isolated<T, R, F>(items: &[T], f: F) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_par_map(items, |item| Ok(f(item)))
}

/// [`par_map_isolated`] with an explicit worker count.
pub fn par_map_isolated_with<T, R, F>(threads: usize, items: &[T], f: F) -> SweepReport<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_par_map_with(threads, items, |item| Ok(f(item)))
}

/// Sweeps `f` over `0..n` in parallel, returning `[f(0), .., f(n-1)]`.
pub fn par_sweep<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_sweep_with(thread_count(), n, f)
}

/// [`par_sweep`] with an explicit worker count.
pub fn par_sweep_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map_with(threads, &indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..997).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_with(threads, &items, |&x| x * x);
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_matches_sequential() {
        for threads in [1, 4, 7] {
            let out = par_sweep_with(threads, 100, |i| i as u64 + 1);
            assert_eq!(out, (1..=100).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_with(16, &[1, 2, 3], |&x: &i32| -x);
        assert_eq!(out, vec![-1, -2, -3]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map_with(4, &[], |x: &i32| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    /// Silences the default panic hook for the duration of a closure so
    /// deliberate panics don't spam test output. The hook is global, so
    /// tests using this helper serialize on a lock.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    /// Item indices the environment fault drill (if any) poisons at the
    /// sweep's own `par.worker` site — tests that assert exact failure
    /// sets must account for these to stay green under `SL_FAULT_RATE`.
    fn env_poisoned(n: usize) -> Vec<usize> {
        let plan = fault::global();
        (0..n)
            .filter(|&i| plan.should_fault("par.worker", i as u64))
            .collect()
    }

    #[test]
    fn isolated_map_matches_plain_map_when_clean() {
        with_quiet_panics(|| {
            let items: Vec<u64> = (0..503).collect();
            let poisoned = env_poisoned(items.len());
            for threads in [1, 2, 8] {
                let report = par_map_isolated_with(threads, &items, |&x| x.wrapping_mul(x));
                assert_eq!(report.failure_indices(), poisoned, "threads = {threads}");
                // Every survivor is bit-identical to the sequential map.
                for (i, &r) in report.oks() {
                    assert_eq!(r, items[i].wrapping_mul(items[i]), "threads = {threads}");
                }
                if poisoned.is_empty() {
                    assert!(!report.degraded(), "threads = {threads}");
                    let out = report.into_oks().unwrap();
                    let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
                    assert_eq!(out, expected, "threads = {threads}");
                }
            }
        });
    }

    #[test]
    fn single_panicking_item_is_isolated_and_pinpointed() {
        with_quiet_panics(|| {
            let items: Vec<u64> = (0..100).collect();
            let mut expected_failures = env_poisoned(items.len());
            if !expected_failures.contains(&37) {
                expected_failures.push(37);
                expected_failures.sort_unstable();
            }
            for threads in [1, 2, 8] {
                let report = par_map_isolated_with(threads, &items, |&x| {
                    assert!(x != 37, "poisoned item");
                    x + 1
                });
                assert_eq!(
                    report.failure_indices(),
                    expected_failures,
                    "threads = {threads}"
                );
                assert_eq!(report.panicked_count(), expected_failures.len());
                assert_eq!(report.ok_count(), items.len() - expected_failures.len());
                // Sibling results are bit-identical to the clean run.
                for (i, &r) in report.oks() {
                    assert_eq!(r, items[i] + 1);
                }
                match &report.outcomes[37] {
                    ItemOutcome::Panicked(message) => {
                        // The organic panic, unless the drill's injected
                        // one beat it to the same index.
                        assert!(
                            message.contains("poisoned item") || message.contains("sl-fault"),
                            "{message}"
                        );
                    }
                    other => panic!("expected a caught panic, got {other:?}"),
                }
            }
        });
    }

    #[test]
    fn typed_errors_are_recorded_not_thrown() {
        with_quiet_panics(|| {
            let items: Vec<u64> = (0..20).collect();
            let poisoned = env_poisoned(items.len());
            let report = try_par_map_with(4, &items, |&x| {
                if x % 7 == 3 {
                    Err(SlError::InvalidInput(format!("item {x}")))
                } else {
                    Ok(x)
                }
            });
            // Typed errors: items 3, 10, 17 — minus any the drill
            // poisoned first (an injected panic wins over the error).
            let expected_failed = [3usize, 10, 17]
                .iter()
                .filter(|i| !poisoned.contains(i))
                .count();
            assert_eq!(report.failed_count(), expected_failed);
            assert_eq!(report.panicked_count(), poisoned.len());
            if poisoned.is_empty() {
                assert_eq!(report.failure_indices(), vec![3, 10, 17]);
                assert!(report.summary().contains("17/20 ok"));
            }
        });
    }

    #[test]
    fn empty_isolated_sweep() {
        let report = par_map_isolated_with(4, &[], |x: &u64| *x);
        assert!(report.is_empty());
        assert!(!report.degraded());
    }
}
