//! The service core: verb dispatch over a registry, memoizing query
//! cache, per-request budgets, batch fan-out, and fault drills.
//!
//! # Concurrency model
//!
//! A [`Service`] is a cheap cloneable handle over one shared daemon
//! core, so any number of connection threads can serve requests
//! against the same state. What is shared and how (see DESIGN S10 for
//! the full protocol):
//!
//! * the **registry** sits behind an `RwLock` — queries take read
//!   locks and run concurrently, `define`/`decompose` take the write
//!   lock only for the insert itself;
//! * the **query cache**, the `check` cache, the quotient cache and the
//!   rank engine's complement cache are [`sl_support::StripedCache`]s:
//!   striped locks keyed by structural hash, with singleflight — the
//!   first lookup of a cold key computes, every concurrent lookup of
//!   it waits on the stripe's condvar and re-probes;
//! * **monitor sessions and compiled fleets** share one mutex (they
//!   are one namespace daemon-wide, so a snapshot taken by any
//!   connection captures every session);
//! * counters are atomics; antichain totals aggregate under their own
//!   mutex.
//!
//! Mutating verbs (`define`, `decompose`, `monitor-step`) serialize
//! through the **mutation lock** — the persist slot's mutex — so the
//! journal's append order *is* dispatch order and crash recovery
//! replays exactly the interleaving that was served. Lock order is
//! persist → registry → sessions → antichain totals; cache stripe locks
//! are leaves, never held across a compute or while taking another
//! lock. `stats` takes its locks one at a time and never nests them.
//!
//! `shutdown` drains under the mutation lock: it flips the stopped
//! flag, flushes the journal, writes a final snapshot, and every
//! later request — including one that was already waiting on the
//! mutation lock — gets a typed `shutting_down` rejection. `quit`
//! ends only the issuing connection.
//!
//! # Determinism contract
//!
//! For a fixed request script served over a *single* connection, the
//! response byte stream is identical at any `SL_THREADS` — the golden
//! transcripts in `tests/service_protocol.rs` and the verify.sh
//! `service` stage hold the daemon to this. The load-bearing choices:
//!
//! * requests — and the items of a `batch` — are assigned fault-site
//!   indices sequentially at intake, so whether `sl.service.request`
//!   fires never depends on scheduling;
//! * batch items probe the cache sequentially in item order, misses
//!   are computed in parallel, and results are committed sequentially
//!   in item order — cache counters and contents end up
//!   schedule-independent;
//! * antichain counters ([`sl_buchi::AntichainStats`]) are measured per
//!   query *on the worker thread that ran it* and the deltas are summed
//!   in item order. They are a pure function of the query, so the
//!   totals reported by `stats` are deterministic. (The rank engine's
//!   complement cache, also reported by `stats`, is shared
//!   process-wide, so its hit/miss split depends on what else is
//!   running in the process; the daemon itself never calls the rank
//!   engine.)
//!
//! With multiple connections, the guarantee each client keeps is
//! *transcript independence*: for sessions that touch disjoint names
//! and skip `stats`, the response stream is byte-for-byte what a solo
//! run of the same script would have produced, no matter how many
//! other clients are connected (`tests/concurrency.rs` pins this).
//!
//! # Fault tolerance
//!
//! The whole of dispatch runs inside a panic-isolation boundary: a
//! panicking request — organic, in any verb, or injected via the
//! `par.worker` drill site — degrades to a typed `panic` error
//! response; the daemon, its registry, and its cache survive. (Batch
//! items additionally carry their own per-item boundary so one
//! poisoned item cannot take down its siblings.) Because the daemon
//! outlives panics, every lock acquisition absorbs mutex poisoning —
//! each critical section leaves its structure valid. The
//! `sl.service.request` site makes request intake itself drillable
//! under `SL_FAULT_RATE`.

use crate::cache::{QueryCache, QueryKind};
use crate::json::Json;
use crate::persist::{escaped, Persist, PersistConfig, PersistError, SnapshotEncoder};
use crate::proto::{
    err_value, kind_of, ok_value, request_from_value, BudgetSpec, ProtoError, Request, Verb,
};
use crate::registry::Registry;
use sl_buchi::{
    antichain_stats, closure, decompose, equivalent, hoa, included, is_safety,
    shared_complement_cache, shared_quotient_cache, universal, AntichainStats, Buchi,
    Classification, CompiledMonitor, Inclusion, Monitor, MonitorFleet, QuotientCache, Verdict,
};
use sl_omega::Alphabet;
use sl_pdr::{check_liveness, check_safety, LivenessVerdict, SafetyVerdict};
use sl_support::par::{try_par_map_with, ItemOutcome};
use sl_support::{fault, par, Budget, CacheStats, FaultPlan, SlError, StripedCache};
use sl_trees::Kripke;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// The fault-injection site charged once per request (batch items
/// included), indexed by intake order.
pub const REQUEST_FAULT_SITE: &str = "sl.service.request";

/// Construction-time knobs for a [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Fault plan for the `sl.service.request` site. Defaults to the
    /// process-wide plan (`SL_FAULT_SEED`/`SL_FAULT_RATE`); tests pin
    /// explicit plans so golden transcripts stay clean under the
    /// environment drill.
    pub fault: FaultPlan,
    /// Worker count for batch fan-out. Defaults to
    /// `sl_support::par::thread_count()` (the `SL_THREADS` knob).
    pub threads: usize,
    /// Byte cap for one request line (oversized lines are rejected
    /// with a typed error, never buffered whole).
    pub max_line: usize,
    /// Result-cache capacity (cap-and-clear past it).
    pub cache_cap: usize,
    /// Bounded intake: the most items one `batch` may carry. Larger
    /// batches are shed with a typed `overloaded` rejection instead of
    /// letting one client grow the daemon's queue without bound.
    pub max_batch: usize,
    /// Bounded admission: the most concurrent connections the TCP
    /// supervisor serves. Connections beyond the cap get one typed
    /// `overloaded` rejection line and are closed (the `--max-conns`
    /// flag).
    pub max_conns: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            fault: *fault::global(),
            threads: par::thread_count(),
            max_line: 1 << 20,
            cache_cap: 256,
            max_batch: 1024,
            max_conns: 64,
        }
    }
}

/// A monitor session: the policy automaton's alphabet (for symbol
/// lookup), the automaton itself (snapshots serialize it per session,
/// so sessions that outlive a redefinition of their target name stay
/// bound to the automaton they actually watch), and where the stepped
/// state lives.
#[derive(Debug)]
struct MonitorSession {
    target: String,
    source: Arc<Buchi>,
    alphabet: Alphabet,
    backend: SessionBackend,
}

/// Where a session's monitor state lives. Safety-classified targets
/// compile once into a shared dense table and the session is one `u16`
/// slot in that table's [`MonitorFleet`] — the batched SoA hot path.
/// Everything else (not cl-safety, table too big) keeps a private
/// subset-construction [`Monitor`]; both backends are verdict-identical
/// by construction (the `compiled` conform oracle holds them to it).
#[derive(Debug)]
enum SessionBackend {
    /// Index into [`Sessions::fleets`] plus this session's slot.
    Compiled { fleet: usize, slot: usize },
    /// Private NFA-path monitor (the general fallback).
    Nfa(Monitor),
}

/// One compiled table shared by every session monitoring the same
/// registered automaton. Keyed by `Arc` identity: redefining a name
/// makes a new `Arc`, so stale sessions keep their original table.
#[derive(Debug)]
struct FleetEntry {
    source: Arc<Buchi>,
    fleet: MonitorFleet,
}

/// The monitor-session half of the daemon state: one namespace shared
/// by every connection (so a snapshot captures all sessions), guarded
/// by one mutex because fleets and the sessions indexing into them
/// must move together.
#[derive(Debug, Default)]
struct Sessions {
    monitors: HashMap<String, MonitorSession>,
    fleets: Vec<FleetEntry>,
}

impl Sessions {
    /// Picks a session backend for a target: sessions on an `Arc` that
    /// already has a fleet join it; otherwise a safety-classified target
    /// compiles into a new shared dense-table fleet, and anything else —
    /// not cl-safety, safety check over budget, or a table past the
    /// `u16` cap — falls back to a private NFA-path [`Monitor`]. So
    /// safety is decided once per target automaton, not per session.
    ///
    /// The safety check deliberately bypasses the query cache and the
    /// antichain totals: `monitor-step` has never touched either, and
    /// keeping it that way preserves every existing golden `stats`
    /// transcript byte-for-byte.
    fn make_backend(&mut self, target: &Arc<Buchi>) -> SessionBackend {
        if let Some(i) = self
            .fleets
            .iter()
            .position(|entry| Arc::ptr_eq(&entry.source, target))
        {
            let slot = self.fleets[i].fleet.spawn();
            return SessionBackend::Compiled { fleet: i, slot };
        }
        if matches!(is_safety(target), Ok(true)) {
            if let Ok(compiled) = CompiledMonitor::new(target) {
                let mut fleet = MonitorFleet::new(&compiled);
                let slot = fleet.spawn();
                self.fleets.push(FleetEntry {
                    source: Arc::clone(target),
                    fleet,
                });
                return SessionBackend::Compiled {
                    fleet: self.fleets.len() - 1,
                    slot,
                };
            }
        }
        SessionBackend::Nfa(Monitor::new(target))
    }

    /// The raw monitor state of `session`, as snapshots store it.
    fn save_state(&self, session: &MonitorSession) -> u64 {
        match &session.backend {
            SessionBackend::Compiled { fleet, slot } => {
                u64::from(self.fleets[*fleet].fleet.save_state(*slot))
            }
            SessionBackend::Nfa(monitor) => monitor.save_state(),
        }
    }
}

/// One handled line's outcome.
#[derive(Debug)]
pub struct Reply {
    /// The response line (no trailing newline).
    pub line: String,
    /// Whether this request ends the issuing session: `true` for
    /// `quit` (connection-local) and `shutdown`.
    pub quit: bool,
    /// Whether this request was the `shutdown` that drained the whole
    /// daemon: the serving loop closes every other connection only
    /// after this line is written.
    pub shutdown: bool,
}

/// All verbs, in the fixed order the `stats` response reports them.
const STATS_VERBS: [Verb; 12] = [
    Verb::Define,
    Verb::Classify,
    Verb::Decompose,
    Verb::Include,
    Verb::Equivalent,
    Verb::Universal,
    Verb::MonitorStep,
    Verb::Check,
    Verb::Stats,
    Verb::Batch,
    Verb::Shutdown,
    Verb::Quit,
];

/// The verbs the write-ahead journal records: exactly those whose
/// successful dispatch mutates durable state (`decompose` registers
/// the two decomposition parts, so it mutates the registry too).
fn is_journaled(verb: Verb) -> bool {
    matches!(verb, Verb::Define | Verb::Decompose | Verb::MonitorStep)
}

/// The `check` verb's half of the daemon state: LT-PDR engine counters
/// (atomics, summed over every computed check) plus its own memo
/// table. `check` operands are inline Kripke structures, not
/// registered automata, so the query cache's `Arc<Buchi>`-shaped
/// entries cannot hold them; this cache is keyed by the decoded
/// question itself ([`CheckKey`], hashed once and compared
/// structurally) and holds each answer as compact state lists, in one
/// stripe of `cache_cap` entries.
#[derive(Debug)]
struct CheckState {
    cache: StripedCache<CheckKey, Arc<CheckAnswer>>,
    /// Frames opened across all computed checks.
    frames: AtomicU64,
    /// Proof obligations discharged.
    obligations: AtomicU64,
    /// Generalizations that strictly strengthened a blocking cube.
    generalizations: AtomicU64,
    /// Sum of the k-liveness bounds the sweeps settled at.
    k_reached: AtomicU64,
}

/// The durability attachment: the journal/snapshot manager plus the
/// replay guard (recovery feeds journaled lines back through dispatch,
/// and those must not be re-journaled).
#[derive(Debug)]
struct PersistState {
    persist: Persist,
    replaying: bool,
    notes: Vec<String>,
    /// The text of every automaton the last snapshot wrote, so the next
    /// snapshot renders only automata that are new since.
    rendered: RenderMemo,
}

/// Snapshot texts kept between snapshots: each automaton's HOA text,
/// rendered, JSON-escaped and interned by content once in its life.
#[derive(Debug, Default)]
struct RenderMemo {
    /// Keyed by `Arc` identity and the name the automaton is rendered
    /// under (the name is part of the text). Each entry holds its `Arc`,
    /// so the automaton's address cannot be freed and reused by a
    /// different automaton while the entry lives.
    entries: HashMap<(usize, String), (Arc<Buchi>, Arc<str>)>,
    /// Every text an entry holds, once: entries with equal texts share
    /// one `Arc<str>`, which is the text's identity in the snapshot's
    /// `automata` table.
    texts: HashSet<Arc<str>>,
}

/// Request/error/session tallies, all atomics so any connection can
/// bump them without a lock.
#[derive(Debug)]
struct Counters {
    verb_counts: [AtomicU64; STATS_VERBS.len()],
    errors: AtomicU64,
    io_errors: AtomicU64,
    /// Sessions ever started (monotone; the `connections` gauge).
    connections: AtomicU64,
    /// Sessions currently being served.
    active_sessions: AtomicU64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            verb_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
        }
    }
}

/// The daemon core every [`Service`] handle points at.
#[derive(Debug)]
struct Shared {
    config: ServiceConfig,
    registry: RwLock<Registry>,
    sessions: Mutex<Sessions>,
    cache: QueryCache,
    check: CheckState,
    counters: Counters,
    /// Antichain counters summed over every computed query.
    antichain: Mutex<AntichainStats>,
    /// Per-daemon interned-quotient cache: `define`/`redefine` advance
    /// it incrementally, the on-the-fly inclusion engine reads it.
    /// Private to this service (not the process-global cache) so the
    /// `stats` counters are deterministic under concurrent tests.
    quotient: QuotientCache,
    next_request_index: AtomicU64,
    /// The mutation lock: journaled verbs append and dispatch under
    /// it, so journal order is dispatch order (`None` when the
    /// service is not persistent — the lock still serializes
    /// mutators).
    persist: Mutex<Option<PersistState>>,
    /// Set by `shutdown` under the mutation lock; every later request
    /// is refused with `shutting_down`.
    stopped: AtomicBool,
}

/// The daemon state: registry, monitor sessions, cache, counters —
/// a cloneable handle, one per connection thread.
#[derive(Debug, Clone)]
pub struct Service {
    shared: Arc<Shared>,
}

/// A resolved, cacheable query: what to compute and on what.
struct QueryJob {
    kind: QueryKind,
    left: Arc<Buchi>,
    right: Option<Arc<Buchi>>,
    budget: Option<BudgetSpec>,
}

/// Absorbs mutex poisoning: the daemon survives panics (dispatch is a
/// catch_unwind boundary), so a lock a panicking thread abandoned
/// still guards structurally valid state.
fn relock<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl Service {
    /// A service with the given configuration.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            shared: Arc::new(Shared {
                cache: QueryCache::new(config.cache_cap),
                check: CheckState {
                    cache: StripedCache::new(config.cache_cap, 1),
                    frames: AtomicU64::new(0),
                    obligations: AtomicU64::new(0),
                    generalizations: AtomicU64::new(0),
                    k_reached: AtomicU64::new(0),
                },
                quotient: QuotientCache::with_fault(config.fault),
                config,
                registry: RwLock::new(Registry::new()),
                sessions: Mutex::new(Sessions::default()),
                counters: Counters::default(),
                antichain: Mutex::new(AntichainStats::default()),
                next_request_index: AtomicU64::new(0),
                persist: Mutex::new(None),
                stopped: AtomicBool::new(false),
            }),
        }
    }

    /// A service with default (environment-derived) configuration.
    #[must_use]
    pub fn from_env() -> Self {
        Service::new(ServiceConfig::default())
    }

    /// A durable service: recovers the newest loadable snapshot plus
    /// the journal tail from `persist.dir` (an empty or missing
    /// directory starts clean), then journals every state-mutating
    /// request ahead of dispatch and snapshots every
    /// `persist.snapshot_every` records. Recovery diagnostics are
    /// collected for [`Service::take_recovery_notes`].
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the directory is unusable, a journal
    /// holds a damaged complete record, or a checksum-valid snapshot
    /// decodes to state the engine rejects. Damaged snapshots fall
    /// back to older ones; a truncated journal tail is dropped with a
    /// note, not an error.
    pub fn with_persistence(
        config: ServiceConfig,
        persist: &PersistConfig,
    ) -> Result<Self, PersistError> {
        let started = std::time::Instant::now();
        let (persist, recovered) = Persist::open(persist)?;
        let service = Service::new(config);
        *service.lock_persist() = Some(PersistState {
            persist,
            replaying: true,
            notes: recovered.notes,
            rendered: RenderMemo::default(),
        });
        if let Some(snapshot) = &recovered.snapshot {
            service.restore_snapshot(snapshot)?;
        }
        let mut replayed = 0u64;
        for line in &recovered.tail {
            service.replay_line(line);
            replayed += 1;
        }
        let mut guard = service.lock_persist();
        let state = guard.as_mut().expect("attached above");
        state.replaying = false;
        state
            .persist
            .note_recovery(started.elapsed().as_millis() as u64, replayed);
        drop(guard);
        Ok(service)
    }

    // ---- lock helpers (poison-absorbing, in lock order) ------------

    fn lock_persist(&self) -> MutexGuard<'_, Option<PersistState>> {
        relock(self.shared.persist.lock())
    }

    fn read_registry(&self) -> std::sync::RwLockReadGuard<'_, Registry> {
        relock(self.shared.registry.read())
    }

    fn write_registry(&self) -> std::sync::RwLockWriteGuard<'_, Registry> {
        relock(self.shared.registry.write())
    }

    fn lock_sessions(&self) -> MutexGuard<'_, Sessions> {
        relock(self.shared.sessions.lock())
    }

    /// Folds a per-query antichain delta into the daemon totals.
    fn absorb_search_stats(&self, delta: &AntichainStats) {
        relock(self.shared.antichain.lock()).absorb(delta);
    }

    // ---- lifecycle and session accounting --------------------------

    /// Whether this service journals and snapshots its state.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.lock_persist().is_some()
    }

    /// Whether `shutdown` has drained the daemon (every further
    /// request gets a typed `shutting_down` rejection).
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }

    /// The configured concurrent-connection cap.
    #[must_use]
    pub fn max_conns(&self) -> usize {
        self.shared.config.max_conns
    }

    /// Sessions currently being served (the `active_sessions` gauge).
    #[must_use]
    pub fn active_sessions(&self) -> u64 {
        self.shared.counters.active_sessions.load(Ordering::SeqCst)
    }

    /// Counts a session in (serving loops bracket every session with
    /// [`Service::begin_session`]/[`Service::end_session`]).
    pub(crate) fn begin_session(&self) {
        self.shared
            .counters
            .connections
            .fetch_add(1, Ordering::SeqCst);
        self.shared
            .counters
            .active_sessions
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a session out.
    pub(crate) fn end_session(&self) {
        self.shared
            .counters
            .active_sessions
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Renders (and counts) the one-line `overloaded` rejection the
    /// TCP supervisor writes to connections beyond `max_conns`.
    pub(crate) fn overloaded_reply(&self) -> String {
        let error = ProtoError::new(
            "overloaded",
            format!(
                "the daemon is at its connection cap ({}); retry later",
                self.shared.config.max_conns
            ),
        );
        self.error_reply(None, &error).line
    }

    /// Drains recovery diagnostics (`[recovered]`-prefixed lines) for
    /// the caller to log; empty on a clean start.
    pub fn take_recovery_notes(&self) -> Vec<String> {
        match self.lock_persist().as_mut() {
            Some(state) => std::mem::take(&mut state.notes),
            None => Vec::new(),
        }
    }

    /// Counts one dropped-connection (or otherwise failed) transport
    /// I/O error; surfaced by `stats` as `io_errors`.
    pub fn note_io_error(&self) {
        self.shared
            .counters
            .io_errors
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Flushes the journal to stable storage and writes a final
    /// snapshot — the graceful half of shutdown, also used by the
    /// listener-close path. Returns `true` when a snapshot was
    /// written (`false` for a non-persistent service).
    ///
    /// # Errors
    ///
    /// [`PersistError`] when the snapshot or sync fails; the journal
    /// is still complete, so recovery remains possible.
    pub fn drain(&self) -> Result<bool, PersistError> {
        let mut persist = self.lock_persist();
        self.drain_with(&mut persist)
    }

    /// The drain body, for callers already holding the mutation lock.
    fn drain_with(&self, persist: &mut Option<PersistState>) -> Result<bool, PersistError> {
        let Some(state) = persist.as_mut() else {
            return Ok(false);
        };
        let encoder = self.encode_snapshot(&mut state.rendered);
        state.persist.sync()?;
        state.persist.write_encoded(encoder)?;
        Ok(true)
    }

    /// The configured line cap (the framing layer enforces it).
    #[must_use]
    pub fn max_line(&self) -> usize {
        self.shared.config.max_line
    }

    /// Cache counters (bench reporting).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Empties the result caches (queries and `check`) and zeroes
    /// their counters (bench cold/warm isolation).
    pub fn reset_cache(&self) {
        self.shared.cache.reset();
        self.shared.check.cache.reset();
    }

    // ---- the request path ------------------------------------------

    /// Handles one request line, producing exactly one response line.
    pub fn handle_line(&self, line: &str) -> Reply {
        let doc = match crate::json::parse(line) {
            Ok(doc) => doc,
            Err(message) => {
                return self.error_reply(None, &ProtoError::new("parse", message));
            }
        };
        let id = doc.get("id").cloned();
        let request = match request_from_value(doc) {
            Ok(request) => request,
            Err(error) => return self.error_reply(id.as_ref(), &error),
        };
        if self.is_stopped() {
            return self.error_reply(id.as_ref(), &shutting_down());
        }
        self.count_verb(request.verb);
        let index = self.take_index();
        if let Err(err) = self
            .shared
            .config
            .fault
            .inject_error(REQUEST_FAULT_SITE, index)
        {
            let error = ProtoError::new(kind_of(&err), err.to_string());
            return self.error_reply(id.as_ref(), &error);
        }
        if request.verb == Verb::Quit {
            // Connection-local: the serving loop ends this session and
            // the daemon keeps serving everyone else.
            return Reply {
                line: ok_value(id.as_ref(), Json::obj(vec![("bye", Json::Bool(true))])).render(),
                quit: true,
                shutdown: false,
            };
        }
        if request.verb == Verb::Shutdown {
            return self.do_shutdown(id.as_ref());
        }
        if is_journaled(request.verb) {
            // The mutation lock: write-ahead append and dispatch form
            // one critical section, so the journal's total order is
            // exactly the order mutations were applied — recovery
            // replays the served interleaving even when it came from
            // many connections.
            let mut persist = self.lock_persist();
            if self.is_stopped() {
                // `shutdown` won the lock while this request waited:
                // the final snapshot is already on disk.
                return self.error_reply(id.as_ref(), &shutting_down());
            }
            if let Some(state) = persist.as_mut() {
                if !state.replaying {
                    if let Err(e) = state.persist.append(line) {
                        let error =
                            ProtoError::new("persist", format!("journal write failed: {e}"));
                        return self.error_reply(id.as_ref(), &error);
                    }
                }
            }
            let reply = self.dispatch_isolated(&request, id.as_ref());
            self.maybe_snapshot(&mut persist);
            reply
        } else {
            self.dispatch_isolated(&request, id.as_ref())
        }
    }

    /// `shutdown`: drain the whole daemon. Taking the mutation lock
    /// first means no journaled verb is mid-dispatch when the stopped
    /// flag flips, so the final snapshot captures a complete state.
    fn do_shutdown(&self, id: Option<&Json>) -> Reply {
        let mut persist = self.lock_persist();
        self.shared.stopped.store(true, Ordering::SeqCst);
        let snapshotted = match self.drain_with(&mut persist) {
            Ok(wrote) => wrote,
            Err(e) => {
                eprintln!("sld: shutdown snapshot failed: {e}");
                false
            }
        };
        drop(persist);
        let body = Json::obj(vec![
            ("bye", Json::Bool(true)),
            ("drained", Json::Bool(true)),
            ("snapshotted", Json::Bool(snapshotted)),
        ]);
        Reply {
            line: ok_value(id, body).render(),
            quit: true,
            shutdown: true,
        }
    }

    /// Dispatch inside the panic boundary: every verb — not just the
    /// query kernel — degrades to a typed `panic` error, keeping the
    /// protocol contract that every failure is a response.
    fn dispatch_isolated(&self, request: &Request, id: Option<&Json>) -> Reply {
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(request))) {
            Ok(Ok(result)) => Reply {
                line: ok_value(id, result).render(),
                quit: false,
                shutdown: false,
            },
            Ok(Err(error)) => self.error_reply(id, &error),
            Err(payload) => {
                let error = ProtoError::new("panic", panic_message(payload.as_ref()));
                self.error_reply(id, &error)
            }
        }
    }

    /// Feeds one recovered journal line back through dispatch. Replay
    /// skips the fault-injection gate — the journal records requests
    /// that were already accepted — but keeps the verb counters and
    /// index stream moving so a recovered daemon's bookkeeping stays
    /// plausible. Outcomes are discarded: a line that failed when
    /// first served fails identically here, which is the point.
    fn replay_line(&self, line: &str) {
        let Ok(doc) = crate::json::parse(line) else {
            return;
        };
        let Ok(request) = request_from_value(doc) else {
            return;
        };
        if !is_journaled(request.verb) {
            return;
        }
        self.count_verb(request.verb);
        let _ = self.take_index();
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(&request))) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) | Err(_) => {
                self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Writes an automatic snapshot when the journal has accumulated
    /// `snapshot_every` records. A failed snapshot is a diagnostic,
    /// not a request failure: the journal already holds everything.
    fn maybe_snapshot(&self, persist: &mut Option<PersistState>) {
        let Some(state) = persist.as_mut() else {
            return;
        };
        if !state.replaying && state.persist.should_snapshot() {
            let encoder = self.encode_snapshot(&mut state.rendered);
            if let Err(e) = state.persist.write_encoded(encoder) {
                eprintln!("sld: snapshot failed: {e}");
            }
        }
    }

    /// Encodes the durable state: name-sorted registry bindings (HOA is
    /// an exact codec — `from_hoa(to_hoa(b)) == b`) and name-sorted
    /// monitor sessions with their raw backend state. Called with the
    /// mutation lock held, so no mutator is mid-flight; queries may
    /// interleave freely (they never touch durable state).
    ///
    /// Automata are immutable behind their `Arc`, so each is rendered
    /// and escaped once and its text reused from `memo` by every later
    /// snapshot that still holds it. `memo` ends up holding exactly the
    /// automata this snapshot wrote; the ones it no longer reaches are
    /// released.
    fn encode_snapshot(&self, memo: &mut RenderMemo) -> SnapshotEncoder {
        let mut previous = std::mem::take(&mut memo.entries);
        let RenderMemo { entries, texts } = memo;
        let mut text = |automaton: &Arc<Buchi>, name: &str| -> Arc<str> {
            let key = (Arc::as_ptr(automaton) as usize, name.to_string());
            let (_, text) = entries.entry(key).or_insert_with_key(|key| {
                previous.remove(key).unwrap_or_else(|| {
                    let text = escaped(&hoa::to_hoa(automaton, name));
                    let interned = texts.get(text.as_str()).cloned().unwrap_or_else(|| {
                        let text: Arc<str> = text.into();
                        texts.insert(Arc::clone(&text));
                        text
                    });
                    (Arc::clone(automaton), interned)
                })
            });
            Arc::clone(text)
        };
        let mut encoder = SnapshotEncoder::default();
        let registry = self.read_registry();
        let mut bindings: Vec<(&str, &Arc<Buchi>)> = registry.iter().collect();
        bindings.sort_unstable_by_key(|&(name, _)| name);
        for (name, automaton) in bindings {
            encoder.binding(name, &text(automaton, name));
        }
        drop(registry);
        let guard = self.lock_sessions();
        let mut sessions: Vec<(&String, &MonitorSession)> = guard.monitors.iter().collect();
        sessions.sort_unstable_by_key(|&(name, _)| name);
        for (name, session) in sessions {
            let text = text(&session.source, &session.target);
            encoder.session(name, &session.target, &text, guard.save_state(session));
        }
        drop(guard);
        drop(previous);
        texts.retain(|text| Arc::strong_count(text) > 1);
        encoder
    }

    /// Rebuilds registry and sessions from a snapshot. Automata are
    /// reparsed from their HOA text (deduplicated by text, so sessions
    /// watching the same automaton share one compiled fleet, as they
    /// would have live); the deterministic monitor constructions make
    /// the saved raw state indices valid against the rebuilt tables.
    fn restore_snapshot(&self, snapshot: &crate::persist::Snapshot) -> Result<(), PersistError> {
        let bad = |detail: String| PersistError::State { detail };
        let mut by_hoa: HashMap<&str, Arc<Buchi>> = HashMap::new();
        let mut registry = self.write_registry();
        for (name, text) in &snapshot.registry {
            let automaton =
                hoa::from_hoa(text).map_err(|e| bad(format!("registry entry `{name}`: {e}")))?;
            let stored = registry.insert(name, automaton);
            by_hoa.entry(text.as_str()).or_insert(stored);
        }
        drop(registry);
        let mut sessions = self.lock_sessions();
        for snap in &snapshot.sessions {
            let source = match by_hoa.get(snap.hoa.as_str()) {
                Some(arc) => Arc::clone(arc),
                None => {
                    let automaton = hoa::from_hoa(&snap.hoa)
                        .map_err(|e| bad(format!("session `{}`: {e}", snap.name)))?;
                    let arc = Arc::new(automaton);
                    by_hoa.insert(snap.hoa.as_str(), Arc::clone(&arc));
                    arc
                }
            };
            let mut backend = sessions.make_backend(&source);
            let loaded = match &mut backend {
                SessionBackend::Compiled { fleet, slot } => match u16::try_from(snap.state) {
                    Ok(raw) => sessions.fleets[*fleet].fleet.load_state(*slot, raw),
                    Err(_) => false,
                },
                SessionBackend::Nfa(monitor) => monitor.load_state(snap.state),
            };
            if !loaded {
                return Err(bad(format!(
                    "session `{}` state {} is out of range for its monitor",
                    snap.name, snap.state
                )));
            }
            sessions.monitors.insert(
                snap.name.clone(),
                MonitorSession {
                    target: snap.target.clone(),
                    alphabet: source.alphabet().clone(),
                    source,
                    backend,
                },
            );
        }
        Ok(())
    }

    fn error_reply(&self, id: Option<&Json>, error: &ProtoError) -> Reply {
        self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
        Reply {
            line: err_value(id, error).render(),
            quit: false,
            shutdown: false,
        }
    }

    fn take_index(&self) -> u64 {
        self.shared
            .next_request_index
            .fetch_add(1, Ordering::SeqCst)
    }

    fn count_verb(&self, verb: Verb) {
        let slot = STATS_VERBS
            .iter()
            .position(|&v| v == verb)
            .expect("every verb has a stats slot");
        self.shared.counters.verb_counts[slot].fetch_add(1, Ordering::SeqCst);
    }

    fn dispatch(&self, request: &Request) -> Result<Json, ProtoError> {
        match request.verb {
            Verb::Define => self.do_define(request),
            Verb::Classify | Verb::Include | Verb::Equivalent | Verb::Universal => {
                let job = self.resolve_query(request)?;
                self.run_query(&job)
            }
            Verb::Decompose => self.do_decompose(request),
            Verb::MonitorStep => self.do_monitor_step(request),
            Verb::Check => self.do_check(request),
            Verb::Stats => Ok(self.do_stats()),
            Verb::Batch => self.do_batch(request),
            Verb::Shutdown | Verb::Quit => {
                unreachable!("shutdown and quit are handled before dispatch")
            }
        }
    }

    // ---- define ---------------------------------------------------

    fn do_define(&self, request: &Request) -> Result<Json, ProtoError> {
        let name = require_str(&request.body, "name")?;
        let budget = request.budget.map(BudgetSpec::to_budget);
        let (automaton, source) = if let Some(formula) = request.body.get("ltl") {
            let formula = formula
                .as_str()
                .ok_or_else(|| ProtoError::new("parse", "`ltl` must be a string"))?;
            let names = alphabet_operand(&request.body)?;
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let sigma = Alphabet::new(&name_refs);
            let parsed = sl_ltl::parse(&sigma, formula)
                .map_err(|e| ProtoError::new("invalid_input", e.to_string()))?;
            let automaton = sl_ltl::translate_with_budget(&sigma, &parsed, budget.as_ref())
                .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
            (automaton, "ltl")
        } else if let Some(text) = request.body.get("hoa") {
            let text = text
                .as_str()
                .ok_or_else(|| ProtoError::new("parse", "`hoa` must be a string"))?;
            let automaton =
                hoa::from_hoa(text).map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
            (automaton, "hoa")
        } else {
            return Err(ProtoError::new(
                "invalid_input",
                "define needs `ltl` (with `alphabet`) or `hoa`",
            ));
        };
        // Advance the interned quotient before publishing the binding:
        // a redefine seeds the simulation refinement from the previous
        // version's rows (clean SCCs carry over, only dirty ones are
        // re-derived), a fresh define warms the cache from scratch.
        // Mutating verbs serialize under the persist lock, so reading
        // the old binding here is not racy, and journal replay during
        // recovery re-warms the cache deterministically.
        let previous = self.read_registry().get(name).cloned();
        match &previous {
            Some(old) => {
                self.shared.quotient.advance(old, &automaton);
            }
            None => {
                let _ = self.shared.quotient.quotient(&automaton);
            }
        }
        let stored = self.write_registry().insert(name, automaton);
        Ok(Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("source", Json::Str(source.to_string())),
            ("states", Json::Int(stored.num_states() as i64)),
            ("transitions", Json::Int(stored.num_transitions() as i64)),
        ]))
    }

    // ---- the cacheable query verbs --------------------------------

    fn resolve_query(&self, request: &Request) -> Result<QueryJob, ProtoError> {
        let (kind, left_key, right_key) = match request.verb {
            Verb::Classify => (QueryKind::Classify, "target", None),
            Verb::Universal => (QueryKind::Universal, "target", None),
            Verb::Include => (QueryKind::Include, "left", Some("right")),
            Verb::Equivalent => (QueryKind::Equivalent, "left", Some("right")),
            _ => unreachable!("resolve_query is only called for query verbs"),
        };
        let registry = self.read_registry();
        let left = resolve_in(&registry, &request.body, left_key)?;
        let right = match right_key {
            Some(key) => Some(resolve_in(&registry, &request.body, key)?),
            None => None,
        };
        drop(registry);
        if let Some(right) = &right {
            if left.alphabet() != right.alphabet() {
                return Err(ProtoError::new(
                    "invalid_input",
                    "operands have different alphabets",
                ));
            }
        }
        Ok(QueryJob {
            kind,
            left,
            right,
            budget: request.budget,
        })
    }

    /// Answers from the cache, or computes (inside a panic boundary,
    /// with antichain counters attributed) and stores a successful
    /// result. Concurrent cold queries for the same key share one
    /// compute (the cache's singleflight); a failed compute is not
    /// stored, so each waiter then computes for itself (a
    /// budget-limited failure must not shadow a retry with a larger
    /// budget).
    fn run_query(&self, job: &QueryJob) -> Result<Json, ProtoError> {
        self.shared
            .cache
            .get_or_compute(job.kind, &job.left, job.right.as_ref(), || {
                let (outcome, delta) = compute_isolated(job, &self.shared.quotient);
                self.absorb_search_stats(&delta);
                outcome
            })
    }

    // ---- decompose ------------------------------------------------

    fn do_decompose(&self, request: &Request) -> Result<Json, ProtoError> {
        let name = require_str(&request.body, "target")?.to_string();
        let target = resolve_in(&self.read_registry(), &request.body, "target")?;
        let before = antichain_stats();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let d = decompose(&target);
            let check = d.check_sampled(&target, 2, 2);
            (d, check)
        }));
        self.absorb_search_stats(&antichain_stats().delta_since(&before));
        let (d, check) =
            outcome.map_err(|payload| ProtoError::new("panic", panic_message(payload.as_ref())))?;
        let safety_name = format!("{name}.safety");
        let liveness_name = format!("{name}.liveness");
        let mut registry = self.write_registry();
        let safety = registry.insert(&safety_name, d.safety);
        let liveness = registry.insert(&liveness_name, d.liveness);
        drop(registry);
        Ok(Json::obj(vec![
            ("target", Json::Str(name.to_string())),
            (
                "safety",
                Json::obj(vec![
                    ("name", Json::Str(safety_name)),
                    ("states", Json::Int(safety.num_states() as i64)),
                ]),
            ),
            (
                "liveness",
                Json::obj(vec![
                    ("name", Json::Str(liveness_name)),
                    ("states", Json::Int(liveness.num_states() as i64)),
                ]),
            ),
            (
                "check_sampled",
                match check {
                    None => Json::Str("ok".to_string()),
                    Some(w) => Json::Str(format!("mismatch at {}", w.display(target.alphabet()))),
                },
            ),
        ]))
    }

    // ---- monitor-step ---------------------------------------------

    fn do_monitor_step(&self, request: &Request) -> Result<Json, ProtoError> {
        let session_name = require_str(&request.body, "monitor")?;
        // Lock order: registry (read) before sessions — the read lock
        // is only consulted when the step creates a session, but
        // taking it up front keeps the order unconditional.
        let registry = self.read_registry();
        let mut guard = self.lock_sessions();
        if !guard.monitors.contains_key(session_name) {
            let target_name = require_str(&request.body, "target").map_err(|_| {
                ProtoError::new(
                    "invalid_input",
                    format!("monitor session `{session_name}` does not exist; creating one needs `target`"),
                )
            })?;
            let target = resolve_in(&registry, &request.body, "target")?;
            let backend = guard.make_backend(&target);
            guard.monitors.insert(
                session_name.to_string(),
                MonitorSession {
                    target: target_name.to_string(),
                    alphabet: target.alphabet().clone(),
                    source: target,
                    backend,
                },
            );
        }
        drop(registry);
        // Split borrow: the session entry and the fleet table are
        // disjoint fields, and the compiled backend needs both.
        let Sessions { monitors, fleets } = &mut *guard;
        let session = monitors.get_mut(session_name).expect("inserted above");
        if let Some(requested) = request.body.get("target").and_then(Json::as_str) {
            if requested != session.target {
                return Err(ProtoError::new(
                    "invalid_input",
                    format!(
                        "monitor session `{session_name}` watches `{}`, not `{requested}`",
                        session.target
                    ),
                ));
            }
        }
        let symbols = match request.body.get("symbols") {
            None => &[][..],
            Some(v) => v
                .as_arr()
                .ok_or_else(|| ProtoError::new("parse", "`symbols` must be an array of strings"))?,
        };
        // Resolve every symbol and charge the whole batch before the
        // monitor is touched: a malformed entry or an exhausted budget
        // rejects the request with the session state unchanged, so a
        // client retry cannot double-step a silently consumed prefix.
        let mut syms = Vec::with_capacity(symbols.len());
        for symbol in symbols {
            let name = symbol
                .as_str()
                .ok_or_else(|| ProtoError::new("parse", "`symbols` must be an array of strings"))?;
            // Out-of-alphabet names map to an out-of-range Symbol: the
            // monitor degrades to sticky Unknown, exactly as it does
            // for untrusted binary traces.
            syms.push(
                session
                    .alphabet
                    .symbol(name)
                    .unwrap_or(sl_omega::Symbol(u16::MAX)),
            );
        }
        if let Some(budget) = request.budget.map(BudgetSpec::to_budget) {
            budget
                .meter("service.monitor")
                .charge(syms.len() as u64)
                .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
        }
        let reset = request.body.get("reset").and_then(Json::as_bool) == Some(true);
        let mut verdicts = Vec::with_capacity(syms.len());
        let final_verdict = match &mut session.backend {
            SessionBackend::Compiled { fleet, slot } => {
                let fleet = &mut fleets[*fleet].fleet;
                if reset {
                    fleet.reset(*slot);
                }
                for sym in syms {
                    verdicts.push(Json::Str(verdict_name(fleet.step(*slot, sym)).to_string()));
                }
                fleet.verdict(*slot)
            }
            SessionBackend::Nfa(monitor) => {
                if reset {
                    monitor.reset();
                }
                for sym in syms {
                    verdicts.push(Json::Str(verdict_name(monitor.step(sym)).to_string()));
                }
                monitor.verdict()
            }
        };
        Ok(Json::obj(vec![
            ("monitor", Json::Str(session_name.to_string())),
            ("target", Json::Str(session.target.clone())),
            ("verdicts", Json::Arr(verdicts)),
            (
                "verdict",
                Json::Str(verdict_name(final_verdict).to_string()),
            ),
        ]))
    }

    // ---- check (LT-PDR over an inline Kripke structure) -----------

    /// `check`: decide `AG !bad` (mode `safety`) or `FG !bad` over all
    /// paths (mode `liveness`, via the k-liveness reduction) on a
    /// Kripke structure carried inline by the request. A pure query:
    /// not journaled, cached by the decoded question, panic-isolated
    /// like every other verb. The Kripke structure is built only when
    /// the cache misses.
    fn do_check(&self, request: &Request) -> Result<Json, ProtoError> {
        let key = parse_check_model(&request.body)?;
        let hash = {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            key.hash(&mut hasher);
            hasher.finish()
        };
        let cache = &self.shared.check.cache;
        let answer = cache.get_or_try_insert_with(hash, hash, &key, || {
            let budget = request
                .budget
                .map_or_else(Budget::unlimited, BudgetSpec::to_budget);
            let (kripke, bad) = key.kripke();
            let answer = if key.liveness {
                let run = check_liveness(&kripke, &bad, &budget)
                    .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
                self.absorb_check(&run.stats, run.k_reached);
                match run.verdict {
                    LivenessVerdict::Live { k, invariant } => CheckAnswer::Live {
                        k: k as u64,
                        invariant: compact(invariant.iter()),
                    },
                    LivenessVerdict::Lasso { stem, looping } => CheckAnswer::Lasso {
                        stem: compact(stem),
                        looping: compact(looping),
                    },
                }
            } else {
                let run = check_safety(&kripke, &bad, &budget)
                    .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
                self.absorb_check(&run.stats, 0);
                match run.verdict {
                    SafetyVerdict::Safe { invariant } => CheckAnswer::Safe {
                        invariant: compact(invariant.iter()),
                    },
                    SafetyVerdict::Unsafe { trace } => CheckAnswer::Unsafe {
                        trace: compact(trace),
                    },
                }
            };
            Ok(Arc::new(answer))
        })?;
        Ok(answer.to_json())
    }

    /// Folds one computed check's engine counters into the daemon
    /// totals (cache hits skip this, as they skip the compute).
    fn absorb_check(&self, stats: &sl_pdr::PdrStats, k_reached: u64) {
        let check = &self.shared.check;
        check.frames.fetch_add(stats.frames, Ordering::SeqCst);
        check
            .obligations
            .fetch_add(stats.obligations, Ordering::SeqCst);
        check
            .generalizations
            .fetch_add(stats.generalizations, Ordering::SeqCst);
        check.k_reached.fetch_add(k_reached, Ordering::SeqCst);
    }

    // ---- stats ----------------------------------------------------

    /// Renders the `stats` snapshot. Every lock here is taken and
    /// released on its own — `stats` never holds two at once, so it
    /// can never participate in a lock-order cycle with a mutator.
    /// Under concurrency the snapshot is a consistent-enough read:
    /// each counter is exact, cross-counter relations may be mid-
    /// request.
    fn do_stats(&self) -> Json {
        let mut requests: Vec<(String, Json)> = STATS_VERBS
            .iter()
            .zip(self.shared.counters.verb_counts.iter())
            .map(|(verb, count)| {
                (
                    verb.wire_name().to_string(),
                    Json::Int(count.load(Ordering::SeqCst) as i64),
                )
            })
            .collect();
        let total: u64 = self
            .shared
            .counters
            .verb_counts
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .sum();
        requests.push(("total".to_string(), Json::Int(total as i64)));
        let automata = self.read_registry().len();
        let monitors = self.lock_sessions().monitors.len();
        let shards: Vec<Json> = self
            .shared
            .cache
            .shard_stats()
            .iter()
            .map(|s| cache_json(s, vec![]))
            .collect();
        let cache = cache_json(
            &self.shared.cache.stats(),
            vec![("shards", Json::Arr(shards))],
        );
        let complement = cache_json(&shared_complement_cache().stats(), vec![]);
        let antichain = *relock(self.shared.antichain.lock());
        let advanced = self.shared.quotient.advance_stats();
        let quotient = cache_json(
            &self.shared.quotient.stats(),
            vec![
                ("advances", Json::Int(advanced.advances as i64)),
                ("dirty_sccs", Json::Int(advanced.dirty_sccs as i64)),
                ("clean_sccs", Json::Int(advanced.clean_sccs as i64)),
            ],
        );
        let mut engine = vec![
            ("complement_cache", complement),
            (
                "antichain",
                Json::obj(vec![
                    ("searches", Json::Int(antichain.searches as i64)),
                    (
                        "insert_attempts",
                        Json::Int(antichain.insert_attempts as i64),
                    ),
                    (
                        "subsumption_scans",
                        Json::Int(antichain.subsumption_scans as i64),
                    ),
                    (
                        "counterexamples",
                        Json::Int(antichain.counterexamples as i64),
                    ),
                    (
                        "peak_macro_states",
                        Json::Int(antichain.peak_macro_states as i64),
                    ),
                    (
                        "final_antichain",
                        Json::Int(antichain.final_antichain as i64),
                    ),
                ]),
            ),
        ];
        // Additive: the block appears once a product check has run, so
        // sessions that never ask an inclusion question keep their bytes.
        if antichain.product_checks > 0 {
            engine.push((
                "product",
                Json::obj(vec![
                    ("checks", Json::Int(antichain.product_checks as i64)),
                    ("states", Json::Int(antichain.product_states as i64)),
                    (
                        "counterexamples",
                        Json::Int(antichain.product_counterexamples as i64),
                    ),
                ]),
            ));
        }
        engine.push(("quotient_cache", quotient));
        let counters = &self.shared.counters;
        let mut doc = vec![
            ("requests", Json::Obj(requests)),
            (
                "errors",
                Json::Int(counters.errors.load(Ordering::SeqCst) as i64),
            ),
            (
                "io_errors",
                Json::Int(counters.io_errors.load(Ordering::SeqCst) as i64),
            ),
            (
                "connections",
                Json::Int(counters.connections.load(Ordering::SeqCst) as i64),
            ),
            (
                "active_sessions",
                Json::Int(counters.active_sessions.load(Ordering::SeqCst) as i64),
            ),
            (
                "registry",
                Json::obj(vec![
                    ("automata", Json::Int(automata as i64)),
                    ("monitors", Json::Int(monitors as i64)),
                ]),
            ),
            ("cache", cache),
            ("engine", Json::obj(engine)),
        ];
        let check = &self.shared.check;
        doc.push((
            "check",
            Json::obj(vec![
                (
                    "frames",
                    Json::Int(check.frames.load(Ordering::SeqCst) as i64),
                ),
                (
                    "obligations",
                    Json::Int(check.obligations.load(Ordering::SeqCst) as i64),
                ),
                (
                    "generalizations",
                    Json::Int(check.generalizations.load(Ordering::SeqCst) as i64),
                ),
                (
                    "k_reached",
                    Json::Int(check.k_reached.load(Ordering::SeqCst) as i64),
                ),
                ("cache", cache_json(&check.cache.stats(), vec![])),
            ]),
        ));
        let persist = self.lock_persist();
        if let Some(state) = persist.as_ref() {
            let p = *state.persist.stats();
            doc.push((
                "persist",
                Json::obj(vec![
                    ("journal_bytes", Json::Int(p.journal_bytes as i64)),
                    (
                        "records_since_snapshot",
                        Json::Int(p.records_since_snapshot as i64),
                    ),
                    ("snapshots_taken", Json::Int(p.snapshots_taken as i64)),
                    (
                        "snapshots_discarded",
                        Json::Int(p.snapshots_discarded as i64),
                    ),
                    ("last_recovery_ms", Json::Int(p.last_recovery_ms as i64)),
                    ("replayed_records", Json::Int(p.replayed_records as i64)),
                ]),
            ));
        }
        drop(persist);
        Json::obj(doc)
    }

    // ---- batch ----------------------------------------------------

    /// Fans the items of a `batch` through the panic-isolated sweep:
    /// sequential intake (fault indices, verb counts, cache probes),
    /// parallel compute of the misses, sequential commit in item
    /// order. One poisoned item degrades to its own typed error.
    /// Batch items bypass singleflight — the sequential probe already
    /// deduplicates within the batch, and the counters it produces are
    /// pinned by golden transcripts.
    fn do_batch(&self, request: &Request) -> Result<Json, ProtoError> {
        let items = request
            .body
            .get("requests")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProtoError::new("parse", "batch needs a `requests` array"))?
            .to_vec();
        // Bounded intake: shed oversized batches before any per-item
        // bookkeeping, so an overloaded rejection has no side effects
        // a retry would double-count.
        if items.len() > self.shared.config.max_batch {
            return Err(ProtoError::new(
                "overloaded",
                format!(
                    "batch carries {} requests; the daemon accepts at most {} per batch — \
                     split the batch and retry",
                    items.len(),
                    self.shared.config.max_batch
                ),
            ));
        }
        let default_budget = request.budget;

        // Per-item slot: either an already-final response value or a
        // job index into the parallel compute list.
        enum Slot {
            Done(Json),
            Job { id: Option<Json>, job_index: usize },
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(items.len());
        let mut jobs: Vec<QueryJob> = Vec::new();

        for item in items {
            let id = item.get("id").cloned();
            let prepared = request_from_value(item).and_then(|mut sub| {
                self.count_verb(sub.verb);
                let index = self.take_index();
                self.shared
                    .config
                    .fault
                    .inject_error(REQUEST_FAULT_SITE, index)
                    .map_err(|e| ProtoError::new(kind_of(&e), e.to_string()))?;
                match sub.verb {
                    Verb::Classify | Verb::Include | Verb::Equivalent | Verb::Universal => {
                        if sub.budget.is_none() {
                            sub.budget = default_budget;
                        }
                        self.resolve_query(&sub)
                    }
                    other => Err(ProtoError::new(
                        "unsupported",
                        format!(
                            "`{}` cannot run inside a batch (only classify, include, \
                             equivalent, universal)",
                            other.wire_name()
                        ),
                    )),
                }
            });
            match prepared {
                Err(error) => {
                    self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                    slots.push(Slot::Done(err_value(id.as_ref(), &error)));
                }
                Ok(job) => {
                    // Sequential probe keeps hit/miss counters (and the
                    // set of computed jobs) schedule-independent.
                    match self
                        .shared
                        .cache
                        .probe(job.kind, &job.left, job.right.as_ref())
                    {
                        Some(result) => slots.push(Slot::Done(ok_value(id.as_ref(), result))),
                        None => {
                            slots.push(Slot::Job {
                                id,
                                job_index: jobs.len(),
                            });
                            jobs.push(job);
                        }
                    }
                }
            }
        }

        // The worker already isolates panics and types its errors, so
        // its closure is infallible; the sweep's own boundary still
        // catches the `par.worker` drill site's injected panics.
        let report = try_par_map_with(self.shared.config.threads, &jobs, |job| {
            Ok(compute_isolated(job, &self.shared.quotient))
        });

        let mut results = Vec::with_capacity(slots.len());
        let mut outcomes = report.outcomes.into_iter();
        for slot in slots {
            match slot {
                Slot::Done(value) => results.push(value),
                Slot::Job { id, job_index } => {
                    let outcome = outcomes.next().expect("one outcome per job");
                    let job = &jobs[job_index];
                    match outcome {
                        ItemOutcome::Ok((Ok(result), delta)) => {
                            self.absorb_search_stats(&delta);
                            self.shared.cache.store(
                                job.kind,
                                Arc::clone(&job.left),
                                job.right.clone(),
                                result.clone(),
                            );
                            results.push(ok_value(id.as_ref(), result));
                        }
                        ItemOutcome::Ok((Err(error), delta)) => {
                            self.absorb_search_stats(&delta);
                            self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                            results.push(err_value(id.as_ref(), &error));
                        }
                        ItemOutcome::Failed(err) => {
                            self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                            let error = ProtoError::new(kind_of(&err), err.to_string());
                            results.push(err_value(id.as_ref(), &error));
                        }
                        ItemOutcome::Panicked(message) => {
                            self.shared.counters.errors.fetch_add(1, Ordering::SeqCst);
                            let error = ProtoError::new("panic", message);
                            results.push(err_value(id.as_ref(), &error));
                        }
                    }
                }
            }
        }
        Ok(Json::obj(vec![("results", Json::Arr(results))]))
    }
}

/// One cache block of the `stats` response: the [`CacheStats`] fields
/// in their fixed order, then the cache's own `extra` fields.
fn cache_json(stats: &CacheStats, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("hits", Json::Int(stats.hits as i64)),
        ("misses", Json::Int(stats.misses as i64)),
        ("entries", Json::Int(stats.entries as i64)),
        ("clears", Json::Int(stats.clears as i64)),
        ("invalidations", Json::Int(stats.invalidations as i64)),
        ("collisions", Json::Int(stats.collisions as i64)),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

// ---- the pure compute kernel (shared by inline and batch paths) ----

/// Computes one query inside a panic boundary, measuring the antichain
/// counters it spent on this thread. Returns the typed outcome plus
/// the counter delta — the caller decides how to fold both in.
fn compute_isolated(
    job: &QueryJob,
    quotient: &QuotientCache,
) -> (Result<Json, ProtoError>, AntichainStats) {
    let before = antichain_stats();
    let outcome = catch_unwind(AssertUnwindSafe(|| compute_query(job, quotient)));
    let delta = antichain_stats().delta_since(&before);
    let outcome = match outcome {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(err)) => Err(ProtoError::new(kind_of(&err), err.to_string())),
        Err(payload) => Err(ProtoError::new("panic", panic_message(payload.as_ref()))),
    };
    (outcome, delta)
}

/// The verb semantics proper. Every verb asks the inclusion engine one
/// or two inclusion questions under the request's budget: none means
/// the engine's default cap and no fault site, so fault drills only
/// fire where a request opted into a budget. A deterministic right
/// operand gets the product check, which reads no quotient; for any
/// other, `include`/`equivalent`/`universal` quotient through the
/// daemon's [`QuotientCache`], so repeated queries over the same
/// operands reuse interned quotients instead of recomputing the
/// simulation per query, and `classify` quotients through the
/// process-wide cache.
fn compute_query(job: &QueryJob, quotient: &QuotientCache) -> Result<Json, SlError> {
    let budget = job.budget.map(BudgetSpec::to_budget);
    let budget = budget.as_ref();
    match job.kind {
        QueryKind::Classify => {
            let b = job.left.as_ref();
            let cl = closure(b);
            let shared = shared_quotient_cache();
            let safe = included(&cl, b, shared, budget)?.holds();
            let live = universal(&cl, shared, budget)?.is_ok();
            let class = match (safe, live) {
                (true, true) => Classification::Both,
                (true, false) => Classification::Safety,
                (false, true) => Classification::Liveness,
                (false, false) => Classification::Neither,
            };
            Ok(Json::obj(vec![(
                "class",
                Json::Str(class_name(class).to_string()),
            )]))
        }
        QueryKind::Include => {
            let (a, b) = (
                job.left.as_ref(),
                job.right.as_ref().expect("binary").as_ref(),
            );
            Ok(match included(a, b, quotient, budget)? {
                Inclusion::Holds => Json::obj(vec![("holds", Json::Bool(true))]),
                Inclusion::CounterExample(w) => Json::obj(vec![
                    ("holds", Json::Bool(false)),
                    ("counterexample", Json::Str(w.display(a.alphabet()))),
                ]),
            })
        }
        QueryKind::Equivalent => {
            let (a, b) = (
                job.left.as_ref(),
                job.right.as_ref().expect("binary").as_ref(),
            );
            Ok(match equivalent(a, b, quotient, budget)? {
                Ok(()) => Json::obj(vec![("equivalent", Json::Bool(true))]),
                Err(w) => Json::obj(vec![
                    ("equivalent", Json::Bool(false)),
                    ("separator", Json::Str(w.display(a.alphabet()))),
                ]),
            })
        }
        QueryKind::Universal => {
            let b = job.left.as_ref();
            Ok(match universal(b, quotient, budget)? {
                Ok(()) => Json::obj(vec![("universal", Json::Bool(true))]),
                Err(w) => Json::obj(vec![
                    ("universal", Json::Bool(false)),
                    ("rejected", Json::Str(w.display(b.alphabet()))),
                ]),
            })
        }
    }
}

// ---- check model parsing ------------------------------------------

/// The largest inline model `check` accepts. A typed rejection, not a
/// resource race: one request must never make the daemon allocate
/// unboundedly before any budget is consulted.
const CHECK_MAX_STATES: usize = 4096;

/// The k-liveness sweep builds counter products of up to
/// `n * (|bad| + 2)` states; cap the largest product a liveness check
/// may construct.
const CHECK_MAX_PRODUCT: usize = 1 << 20;

/// A decoded `check` question, and the check cache's key: the mode,
/// the initial state, the sorted deduplicated bad set, and the rows
/// exactly as sent (target order and duplicates included) as
/// compressed sparse rows, so state `s`'s successors are
/// `targets[offsets[s]..offsets[s + 1]]`. Whitespace, key order, `id`
/// and `budget` do not reach it, so two requests share a cache entry
/// exactly when they ask the same question.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CheckKey {
    liveness: bool,
    initial: u32,
    bad: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl CheckKey {
    /// The Kripke structure this question asks about (labels derived
    /// from badness: bad states read `b`, others `a`) and its bad set.
    fn kripke(&self) -> (Kripke, Vec<usize>) {
        let sigma = Alphabet::ab();
        let a = sigma.symbol("a").expect("ab alphabet");
        let b = sigma.symbol("b").expect("ab alphabet");
        let widen = |xs: &[u32]| xs.iter().map(|&x| x as usize).collect::<Vec<usize>>();
        let bad = widen(&self.bad);
        let mut labels = vec![a; self.offsets.len() - 1];
        for &s in &bad {
            labels[s] = b;
        }
        let kripke = Kripke::from_rows(
            sigma,
            labels,
            widen(&self.offsets),
            widen(&self.targets),
            self.initial as usize,
        );
        (kripke, bad)
    }
}

/// A computed `check` answer as the cache keeps it: the verdict and
/// its certificate as state lists. [`CheckAnswer::to_json`] builds the
/// response from it for each reply.
#[derive(Debug)]
enum CheckAnswer {
    Safe {
        invariant: Box<[u32]>,
    },
    Unsafe {
        trace: Box<[u32]>,
    },
    Live {
        k: u64,
        invariant: Box<[u32]>,
    },
    Lasso {
        stem: Box<[u32]>,
        looping: Box<[u32]>,
    },
}

impl CheckAnswer {
    fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        match self {
            CheckAnswer::Safe { invariant } => Json::obj(vec![
                ("mode", text("safety")),
                ("verdict", text("safe")),
                ("invariant", states_json(invariant)),
            ]),
            CheckAnswer::Unsafe { trace } => Json::obj(vec![
                ("mode", text("safety")),
                ("verdict", text("unsafe")),
                ("trace", states_json(trace)),
            ]),
            CheckAnswer::Live { k, invariant } => Json::obj(vec![
                ("mode", text("liveness")),
                ("verdict", text("live")),
                ("k", Json::Int(*k as i64)),
                ("invariant", states_json(invariant)),
            ]),
            CheckAnswer::Lasso { stem, looping } => Json::obj(vec![
                ("mode", text("liveness")),
                ("verdict", text("lasso")),
                ("stem", states_json(stem)),
                ("loop", states_json(looping)),
            ]),
        }
    }
}

/// Decodes and validates the `check` operands in one pass over the
/// request. Every malformed shape is a typed rejection — the request
/// crosses a trust boundary, and `Kripke::from_rows` panics on the
/// invariants it checks. The checks run in a fixed order (mode, model,
/// rows in order, initial, bad, product size), so the first problem
/// is the one reported.
fn parse_check_model(body: &Json) -> Result<CheckKey, ProtoError> {
    let liveness = match require_str(body, "mode")? {
        "safety" => false,
        "liveness" => true,
        other => {
            return Err(ProtoError::new(
                "invalid_input",
                format!("check mode must be `safety` or `liveness`, not `{other}`"),
            ))
        }
    };
    let model = match body.get("model") {
        Some(model @ Json::Obj(_)) => model,
        _ => {
            return Err(ProtoError::new(
                "parse",
                "check needs a `model` object with `succ` and `initial`",
            ))
        }
    };
    let rows = model.get("succ").and_then(Json::as_arr).ok_or_else(|| {
        ProtoError::new(
            "parse",
            "model needs a `succ` array of arrays of state indices",
        )
    })?;
    let n = rows.len();
    if n == 0 {
        return Err(ProtoError::new(
            "invalid_input",
            "model must have at least one state",
        ));
    }
    if n > CHECK_MAX_STATES {
        return Err(ProtoError::new(
            "invalid_input",
            format!("model has {n} states; check accepts at most {CHECK_MAX_STATES}"),
        ));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    for (s, row) in rows.iter().enumerate() {
        let row = row.as_arr().ok_or_else(|| {
            ProtoError::new(
                "parse",
                format!("succ[{s}] must be an array of state indices"),
            )
        })?;
        if row.is_empty() {
            return Err(ProtoError::new(
                "invalid_input",
                format!("state {s} has no successor; the transition relation must be total"),
            ));
        }
        for t in row {
            targets.push(state_index(t, n)?);
        }
        // The parsed request spends 32 bytes per target, so 2^32 of
        // them cannot be in memory at once.
        offsets.push(u32::try_from(targets.len()).expect("row offsets fit in u32"));
    }
    let initial = match model.get("initial") {
        Some(v) => state_index(v, n)?,
        None => {
            return Err(ProtoError::new(
                "parse",
                "model needs an `initial` state index",
            ))
        }
    };
    let mut bad: Vec<u32> = match body.get("bad") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| ProtoError::new("parse", "`bad` must be an array of state indices"))?
            .iter()
            .map(|b| state_index(b, n))
            .collect::<Result<_, _>>()?,
    };
    bad.sort_unstable();
    bad.dedup();
    if liveness && n.saturating_mul(bad.len() + 2) > CHECK_MAX_PRODUCT {
        return Err(ProtoError::new(
            "invalid_input",
            format!(
                "liveness check would build a counter product of up to {} states \
                 (limit {CHECK_MAX_PRODUCT}); shrink the model or the bad set",
                n * (bad.len() + 2)
            ),
        ));
    }
    Ok(CheckKey {
        liveness,
        initial,
        bad,
        offsets,
        targets,
    })
}

/// One state index operand: a nonnegative integer below `n` (at most
/// [`CHECK_MAX_STATES`], so it fits in `u32`).
fn state_index(v: &Json, n: usize) -> Result<u32, ProtoError> {
    let index = v
        .as_u64()
        .and_then(|i| usize::try_from(i).ok())
        .ok_or_else(|| ProtoError::new("parse", "state indices must be nonnegative integers"))?;
    if index >= n {
        return Err(ProtoError::new(
            "invalid_input",
            format!("state index {index} is out of range for a {n}-state model"),
        ));
    }
    Ok(index as u32)
}

/// A state sequence as the check cache keeps it, with no spare
/// capacity.
fn compact<I: IntoIterator<Item = usize>>(states: I) -> Box<[u32]> {
    states
        .into_iter()
        .map(|s| u32::try_from(s).expect("check state ids are below CHECK_MAX_PRODUCT"))
        .collect()
}

/// Renders a state-index sequence as a JSON array.
fn states_json(states: &[u32]) -> Json {
    Json::Arr(states.iter().map(|&s| Json::Int(i64::from(s))).collect())
}

// ---- small helpers ------------------------------------------------

fn shutting_down() -> ProtoError {
    ProtoError::new(
        "shutting_down",
        "the daemon has drained and accepts no further requests",
    )
}

/// Name lookup against an already-held registry guard (taking the
/// read lock inside would self-deadlock a thread that holds it).
fn resolve_in(registry: &Registry, body: &Json, key: &str) -> Result<Arc<Buchi>, ProtoError> {
    let name = require_str(body, key)?;
    registry
        .get(name)
        .cloned()
        .ok_or_else(|| ProtoError::new("unknown_object", format!("`{name}` is not defined")))
}

fn require_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("parse", format!("request needs a string `{key}`")))
}

fn alphabet_operand(body: &Json) -> Result<Vec<String>, ProtoError> {
    let items = body.get("alphabet").and_then(Json::as_arr).ok_or_else(|| {
        ProtoError::new(
            "parse",
            "define from `ltl` needs an `alphabet` array of strings",
        )
    })?;
    if items.is_empty() {
        return Err(ProtoError::new(
            "invalid_input",
            "alphabet must be nonempty",
        ));
    }
    // `Alphabet::new` asserts these invariants; the request crosses a
    // trust boundary, so they must be typed rejections here, not
    // daemon-killing panics.
    if items.len() > usize::from(u16::MAX) {
        return Err(ProtoError::new(
            "invalid_input",
            format!(
                "alphabet has {} entries; at most {} are supported",
                items.len(),
                u16::MAX
            ),
        ));
    }
    let names: Vec<String> = items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| ProtoError::new("parse", "alphabet entries must be strings"))
        })
        .collect::<Result<_, _>>()?;
    let mut seen = HashSet::new();
    for name in &names {
        if !seen.insert(name.as_str()) {
            return Err(ProtoError::new(
                "invalid_input",
                format!("alphabet repeats `{name}`"),
            ));
        }
    }
    Ok(names)
}

fn class_name(class: Classification) -> &'static str {
    match class {
        Classification::Safety => "safety",
        Classification::Liveness => "liveness",
        Classification::Both => "both",
        Classification::Neither => "neither",
    }
}

fn verdict_name(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Ok => "ok",
        Verdict::Violation => "violation",
        Verdict::Unknown => "unknown",
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{load_snapshot, SessionSnap, Snapshot};
    use std::path::{Path, PathBuf};

    fn persistent(dir: &Path) -> Service {
        let _ = std::fs::remove_dir_all(dir);
        Service::with_persistence(
            ServiceConfig {
                fault: FaultPlan::disabled(),
                threads: 1,
                ..ServiceConfig::default()
            },
            &PersistConfig {
                dir: dir.to_path_buf(),
                snapshot_every: 0,
            },
        )
        .expect("open")
    }

    /// The durable state as the reference renders it: every text
    /// rendered afresh, entries sorted by name.
    fn reference_snapshot(service: &Service) -> Snapshot {
        let seq = service
            .lock_persist()
            .as_ref()
            .expect("persistent")
            .persist
            .seq();
        let mut registry: Vec<(String, String)> = service
            .read_registry()
            .iter()
            .map(|(name, b)| (name.to_string(), hoa::to_hoa(b, name)))
            .collect();
        registry.sort();
        let guard = service.lock_sessions();
        let mut sessions: Vec<SessionSnap> = guard
            .monitors
            .iter()
            .map(|(name, session)| SessionSnap {
                name: name.clone(),
                target: session.target.clone(),
                hoa: hoa::to_hoa(&session.source, &session.target),
                state: guard.save_state(session),
            })
            .collect();
        sessions.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot {
            seq,
            registry,
            sessions,
        }
    }

    fn newest_snapshot(dir: &Path) -> PathBuf {
        let (_, name) = std::fs::read_dir(dir)
            .expect("persistence dir")
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let epoch: u64 = name
                    .strip_prefix("snap-")?
                    .strip_suffix(".slsnap")?
                    .parse()
                    .ok()?;
                Some((epoch, name))
            })
            .max()
            .expect("a snapshot was written");
        dir.join(name)
    }

    /// Drains `service` and checks the snapshot it wrote: the reference
    /// renderer's bytes, loading back to the reference state, and a
    /// memo whose interned texts are exactly its entries' texts.
    fn drain_and_check(service: &Service, dir: &Path) -> Snapshot {
        let want = reference_snapshot(service);
        service.drain().expect("drain");
        let path = newest_snapshot(dir);
        let bytes = std::fs::read(&path).expect("snapshot file");
        assert_eq!(
            std::str::from_utf8(&bytes[24..]).expect("UTF-8"),
            want.to_json().render()
        );
        assert_eq!(load_snapshot(&path).expect("load"), want);
        let guard = service.lock_persist();
        let memo = &guard.as_ref().expect("persistent").rendered;
        let held: HashSet<*const u8> = memo
            .entries
            .values()
            .map(|(_, text)| Arc::as_ptr(text).cast::<u8>())
            .collect();
        let interned: HashSet<*const u8> = memo
            .texts
            .iter()
            .map(|t| Arc::as_ptr(t).cast::<u8>())
            .collect();
        assert_eq!(held, interned);
        want
    }

    fn request(service: &Service, line: &str) -> String {
        service.handle_line(line).line
    }

    #[test]
    fn snapshots_hold_the_reference_bytes() {
        let dir = std::env::temp_dir().join(format!("sl-engine-encode-{}", std::process::id()));
        let service = persistent(&dir);
        // An empty registry and no sessions.
        let snap = drain_and_check(&service, &dir);
        assert!(snap.registry.is_empty() && snap.sessions.is_empty());

        // Names that need escapes: quote, backslash, control
        // characters and non-ASCII.
        let awkward = r#"q\"b\\s\u0001\n\u00e9\u65e5"#;
        let define =
            format!(r#"{{"verb":"define","name":"{awkward}","ltl":"G a","alphabet":["a","b"]}}"#);
        assert!(request(&service, &define).contains("\"ok\":true"));
        let step = format!(
            r#"{{"verb":"monitor-step","monitor":"{awkward}","target":"{awkward}","symbols":["a"]}}"#
        );
        assert!(request(&service, &step).contains("\"ok\":true"));

        // Two distinct `Arc`s with equal text: `p` redefined as itself
        // while a session still watches the first one.
        let define_p = r#"{"verb":"define","name":"p","ltl":"G a","alphabet":["a","b"]}"#;
        request(&service, define_p);
        request(
            &service,
            r#"{"verb":"monitor-step","monitor":"mp","target":"p","symbols":["a"]}"#,
        );
        let first_p = Arc::clone(service.read_registry().get("p").expect("p"));
        request(&service, define_p);

        // A session that outlived a redefinition of its target.
        request(
            &service,
            r#"{"verb":"define","name":"r","ltl":"G b","alphabet":["a","b"]}"#,
        );
        request(
            &service,
            r#"{"verb":"monitor-step","monitor":"mr","target":"r","symbols":["b"]}"#,
        );
        request(
            &service,
            r#"{"verb":"define","name":"r","ltl":"F b","alphabet":["a","b"]}"#,
        );

        // NFA sentinel states above `i64::MAX`: `a U b` is not safety,
        // so its sessions get the NFA backend; `c` kills the run and an
        // unknown symbol makes the verdict unknown.
        request(
            &service,
            r#"{"verb":"define","name":"u","ltl":"a U b","alphabet":["a","b","c"]}"#,
        );
        request(
            &service,
            r#"{"verb":"monitor-step","monitor":"dead","target":"u","symbols":["c"]}"#,
        );
        request(
            &service,
            r#"{"verb":"monitor-step","monitor":"lost","target":"u","symbols":["zz"]}"#,
        );

        let snap = drain_and_check(&service, &dir);
        let session = |name: &str| {
            snap.sessions
                .iter()
                .find(|s| s.name == name)
                .expect("session")
        };
        assert_eq!(snap.registry.len(), 4);
        assert_eq!(
            session("q\"b\\s\u{1}\n\u{e9}\u{65e5}").target,
            "q\"b\\s\u{1}\n\u{e9}\u{65e5}"
        );
        assert_eq!(session("dead").state, u64::MAX);
        assert_eq!(session("lost").state, u64::MAX - 1);
        let p = &snap
            .registry
            .iter()
            .find(|(name, _)| name == "p")
            .expect("p")
            .1;
        assert_eq!(&session("mp").hoa, p);
        let r = &snap
            .registry
            .iter()
            .find(|(name, _)| name == "r")
            .expect("r")
            .1;
        assert_ne!(&session("mr").hoa, r);
        // The two `p`s are two memo entries sharing one interned text,
        // so the table holds that text once.
        let second_p = Arc::clone(service.read_registry().get("p").expect("p"));
        assert!(!Arc::ptr_eq(&first_p, &second_p));
        {
            let guard = service.lock_persist();
            let memo = &guard.as_ref().expect("persistent").rendered;
            let text = |b: &Arc<Buchi>| {
                Arc::clone(&memo.entries[&(Arc::as_ptr(b) as usize, "p".to_string())].1)
            };
            assert!(Arc::ptr_eq(&text(&first_p), &text(&second_p)));
        }
        let payload = std::fs::read(newest_snapshot(&dir)).expect("snapshot");
        let doc =
            crate::json::parse(std::str::from_utf8(&payload[24..]).expect("UTF-8")).expect("JSON");
        let table = doc.get("automata").and_then(Json::as_arr).expect("table");
        assert_eq!(table.len(), 5, "awkward, p, r, old r, u");

        // Nothing changed: the next snapshot writes the same payload.
        assert_eq!(drain_and_check(&service, &dir), snap);

        // Seeded operations over awkward names, with a drain after each
        // round.
        let names = ["p", r#"q\"b"#, r#"\\\u0007x"#, r#"\u00e9"#];
        let formulas = ["G a", "F a", "G b", "a U b", "G (a | F b)"];
        let mut rng = sl_support::SplitMix::new(2003);
        for _ in 0..8 {
            for _ in 0..12 {
                let name = names[rng.below(names.len())];
                let line = if rng.below(3) == 0 {
                    let formula = formulas[rng.below(formulas.len())];
                    format!(
                        r#"{{"verb":"define","name":"{name}","ltl":"{formula}","alphabet":["a","b"]}}"#
                    )
                } else {
                    let symbol = ["a", "b", "x"][rng.below(3)];
                    format!(
                        r#"{{"verb":"monitor-step","monitor":"m{}","target":"{name}","symbols":["{symbol}"]}}"#,
                        rng.below(6)
                    )
                };
                request(&service, &line);
            }
            drain_and_check(&service, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The names the memo holds renderings under, sorted.
    fn memo_entries(service: &Service) -> Vec<String> {
        let guard = service.lock_persist();
        let memo = &guard.as_ref().expect("persistent").rendered;
        let mut names: Vec<String> = memo.entries.keys().map(|(_, name)| name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn the_render_memo_keeps_exactly_what_the_last_snapshot_wrote() {
        let dir = std::env::temp_dir().join(format!("sl-engine-memo-{}", std::process::id()));
        let service = persistent(&dir);
        let define = |name: &str, ltl: &str| {
            let line = format!(
                r#"{{"verb":"define","name":"{name}","ltl":"{ltl}","alphabet":["a","b"]}}"#
            );
            assert!(service.handle_line(&line).line.contains("\"ok\":true"));
        };
        define("p", "G a");
        define("q", "G b");
        service.handle_line(r#"{"verb":"monitor-step","monitor":"m","target":"p","symbols":[]}"#);
        service.drain().expect("drain");
        // `p`'s binding and its session share one entry: same `Arc`,
        // same name, same text.
        assert_eq!(memo_entries(&service), ["p", "q"]);
        let old_p = Arc::clone(service.read_registry().get("p").expect("p"));
        define("p", "F a");
        define("q", "F b");
        service.drain().expect("drain");
        // New `p` and `q`, plus the old `p` the session still watches;
        // the old `q`, which nothing reaches any more, is released.
        assert_eq!(memo_entries(&service), ["p", "p", "q"]);
        let key = (Arc::as_ptr(&old_p) as usize, "p".to_string());
        let guard = service.lock_persist();
        let memo = &guard.as_ref().expect("persistent").rendered;
        let (held, text) = &memo.entries[&key];
        assert!(Arc::ptr_eq(held, &old_p));
        assert_eq!(**text, escaped(&hoa::to_hoa(&old_p, "p")));
        // The interned texts are exactly the entries' texts.
        assert_eq!(memo.texts.len(), 3);
        assert!(memo.entries.values().all(|(_, t)| memo.texts.contains(t)));
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
