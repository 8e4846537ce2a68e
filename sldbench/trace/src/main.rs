//! `sldbench-trace`: per-layer times for one recorded `sld` request
//! stream.
//!
//! ```text
//! sldbench-trace --record FILE --work DIR
//! ```
//!
//! The record (written by `sldbench-e2e --record`) holds every request
//! the daemon received in order: `S` setup and warm-up lines, then `T
//! <client latency ns> <line>` timed lines. This program replays the
//! stream in-process on one thread, each pass on fresh state:
//!
//! * untraced, through the public entry points `sl-service::engine`
//!   calls for each verb, in the same order;
//! * the same replay with a span around every entry-point call;
//! * through `Service::handle_line` on a fresh `Service`.
//!
//! The untraced and `handle_line` passes run once before and once after
//! the traced pass, and their times are averaged.
//!
//! Every replayed response must equal `handle_line`'s. Spans are kept in
//! memory and written to `DIR/spans-<workload>.tsv` at the end; a
//! layer's self time is its span minus its children. The last output
//! line is a JSON object with the per-layer metrics.
//!
//! The replay mirrors today's engine dispatch by hand, so it binds to
//! the entry points it calls: when they change shape, this program stops
//! building, and the end-to-end client (which links no workspace crate)
//! keeps working.

use sl_buchi::{
    classify, decompose, equivalent_onthefly_with_cache, hoa, included_onthefly_with_cache,
    is_safety, reset_shared_complement_cache, reset_shared_quotient_cache,
    universal_onthefly_with_cache, Buchi, Classification, CompiledMonitor, Inclusion, Monitor,
    MonitorFleet, QuotientCache, Verdict,
};
use sl_omega::{Alphabet, Symbol};
use sl_pdr::{check_liveness, check_safety, LivenessVerdict, SafetyVerdict};
use sl_service::proto::{err_value, ok_value, request_from_value};
use sl_service::{
    json, Json, Persist, PersistConfig, ProtoError, QueryCache, QueryKind, Registry, Service,
    ServiceConfig, SessionSnap, Verb,
};
use sl_support::{Budget, FaultPlan};
use sl_trees::Kripke;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The daemon's defaults this replay reproduces.
const CACHE_CAP: usize = 256;
const SNAPSHOT_EVERY: u64 = 256;

// ---- spans -----------------------------------------------------------

/// One recorded call: layer name, start and end (ns since the pass
/// began), parent span (`NO_PARENT` for a request's root), the request
/// it belongs to, and whether a cache lookup inside it missed.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    request: u32,
    miss: bool,
    units: u32,
}

const NO_PARENT: u32 = u32::MAX;
const ROOT: &str = "request";

/// Records spans when on; costs one branch per call when off.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    root: u32,
    request: u32,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            root: NO_PARENT,
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin_request(&mut self, request: u32) {
        self.request = request;
        if self.on {
            self.root = self.spans.len() as u32;
            let start = self.now();
            self.spans.push(Span {
                name: ROOT,
                start,
                end: start,
                parent: NO_PARENT,
                request,
                miss: false,
                units: 1,
            });
        }
    }

    fn end_request(&mut self) {
        if self.on {
            let end = self.now();
            self.spans[self.root as usize].end = end;
        }
    }

    /// Runs `f` inside a span named `name` under the current request.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.root,
            request: self.request,
            miss: false,
            units: 1,
        });
        out
    }

    /// Marks the most recent span as a cache miss.
    fn mark_miss(&mut self) {
        if let Some(last) = self.spans.last_mut() {
            last.miss = true;
        }
    }

    /// Records how many units of work (symbols) the most recent span did.
    fn set_units(&mut self, units: usize) {
        if let Some(last) = self.spans.last_mut() {
            last.units = units.max(1) as u32;
        }
    }
}

// ---- the replayed engine state ----------------------------------------

enum Backend {
    Compiled { fleet: usize, slot: usize },
    Nfa(Monitor),
}

struct Session {
    target: String,
    source: Arc<Buchi>,
    alphabet: Alphabet,
    backend: Backend,
}

/// The state `sl-service::engine` keeps, rebuilt from public parts.
struct Replay {
    registry: Registry,
    cache: QueryCache,
    quotient: QuotientCache,
    checks: HashMap<u64, (String, Json)>,
    sessions: HashMap<String, Session>,
    fleets: Vec<(Arc<Buchi>, MonitorFleet)>,
    persist: Option<Persist>,
}

fn err(kind: &'static str, message: impl Into<String>) -> ProtoError {
    ProtoError::new(kind, message)
}

fn str_of<'a>(body: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    body.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err("parse", format!("request needs a string `{key}`")))
}

fn states_json<I: IntoIterator<Item = usize>>(states: I) -> Json {
    Json::Arr(states.into_iter().map(|s| Json::Int(s as i64)).collect())
}

fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Ok => "ok",
        Verdict::Violation => "violation",
        Verdict::Unknown => "unknown",
    }
}

fn class_name(c: Classification) -> &'static str {
    match c {
        Classification::Safety => "safety",
        Classification::Liveness => "liveness",
        Classification::Both => "both",
        Classification::Neither => "neither",
    }
}

impl Replay {
    fn new(persist_dir: Option<&Path>) -> Result<Self, String> {
        let persist = match persist_dir {
            None => None,
            Some(dir) => {
                let config = PersistConfig {
                    dir: dir.to_path_buf(),
                    snapshot_every: SNAPSHOT_EVERY,
                };
                Some(Persist::open(&config).map_err(|e| e.to_string())?.0)
            }
        };
        Ok(Replay {
            registry: Registry::new(),
            cache: QueryCache::new(CACHE_CAP),
            quotient: QuotientCache::with_fault(FaultPlan::disabled()),
            checks: HashMap::new(),
            sessions: HashMap::new(),
            fleets: Vec::new(),
            persist,
        })
    }

    /// Handles one request line the way the engine does, with spans
    /// around every entry-point call; returns the response line.
    fn handle(&mut self, t: &mut Tracer, line: &str) -> String {
        let parsed = t.span("json.parse", || {
            json::parse(line)
                .map_err(|m| err("parse", m))
                .and_then(request_from_value)
        });
        let request = match parsed {
            Ok(request) => request,
            Err(e) => return err_value(None, &e).render(),
        };
        let journaled = matches!(
            request.verb,
            Verb::Define | Verb::Decompose | Verb::MonitorStep
        );
        if journaled {
            if let Some(persist) = self.persist.as_mut() {
                if let Err(e) = t.span("persist.append", || persist.append(line)) {
                    return err_value(request.id.as_ref(), &err("persist", e.to_string())).render();
                }
            }
        }
        let body = &request.body;
        let result = match request.verb {
            Verb::Define => self.define(t, body),
            Verb::Classify | Verb::Include | Verb::Equivalent | Verb::Universal => {
                self.query(t, request.verb, body)
            }
            Verb::Check => self.check(t, body),
            Verb::MonitorStep => self.monitor_step(t, body),
            Verb::Decompose => self.decompose(t, body),
            other => Err(err(
                "unsupported",
                format!("the replay does not serve {}", other.wire_name()),
            )),
        };
        let id = request.id.as_ref();
        let response = t.span("json.render", || {
            match result {
                Ok(r) => ok_value(id, r),
                Err(e) => err_value(id, &e),
            }
            .render()
        });
        if journaled && self.persist.as_ref().is_some_and(Persist::should_snapshot) {
            let (registry, sessions) = t.span("hoa.render", || self.snapshot_state());
            let persist = self.persist.as_mut().expect("checked above");
            if let Err(e) = t.span("persist.snapshot", || {
                persist.write_snapshot(registry, sessions)
            }) {
                eprintln!("sldbench-trace: snapshot failed: {e}");
            }
        }
        response
    }

    fn define(&mut self, t: &mut Tracer, body: &Json) -> Result<Json, ProtoError> {
        let name = str_of(body, "name")?;
        let (automaton, source) = if let Some(formula) = body.get("ltl").and_then(Json::as_str) {
            let names: Vec<String> = body
                .get("alphabet")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            let automaton = t.span("ltl.translate", || {
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let sigma = Alphabet::new(&refs);
                sl_ltl::parse(&sigma, formula).map(|f| sl_ltl::translate(&sigma, &f))
            });
            (
                automaton.map_err(|e| err("invalid_input", e.to_string()))?,
                "ltl",
            )
        } else {
            let text = str_of(body, "hoa")?;
            let automaton = t.span("hoa.parse", || hoa::from_hoa(text));
            (
                automaton.map_err(|e| err("invalid_input", e.to_string()))?,
                "hoa",
            )
        };
        let previous = t.span("registry", || self.registry.get(name).cloned());
        match previous {
            Some(old) => {
                t.span("interned.advance", || {
                    self.quotient.advance(&old, &automaton)
                });
            }
            None => self.quotient_of(t, &automaton),
        }
        let stored = t.span("registry", || self.registry.insert(name, automaton));
        Ok(Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            ("source", Json::Str(source.to_string())),
            ("states", Json::Int(stored.num_states() as i64)),
            ("transitions", Json::Int(stored.num_transitions() as i64)),
        ]))
    }

    /// `QuotientCache::quotient`, with the span marked when it missed.
    fn quotient_of(&self, t: &mut Tracer, b: &Buchi) {
        let misses = t.on.then(|| self.quotient.stats().misses);
        let _ = t.span("interned.quotient", || self.quotient.quotient(b));
        if misses.is_some_and(|before| self.quotient.stats().misses > before) {
            t.mark_miss();
        }
    }

    fn query(&mut self, t: &mut Tracer, verb: Verb, body: &Json) -> Result<Json, ProtoError> {
        let (kind, left_key, right_key) = match verb {
            Verb::Classify => (QueryKind::Classify, "target", None),
            Verb::Universal => (QueryKind::Universal, "target", None),
            Verb::Include => (QueryKind::Include, "left", Some("right")),
            _ => (QueryKind::Equivalent, "left", Some("right")),
        };
        let resolved = t.span("registry", || {
            let lookup = |key: &str| -> Result<Arc<Buchi>, ProtoError> {
                let name = str_of(body, key)?;
                self.registry
                    .get(name)
                    .cloned()
                    .ok_or_else(|| err("unknown_object", format!("`{name}` is not defined")))
            };
            let left = lookup(left_key)?;
            let right = right_key.map(lookup).transpose()?;
            Ok::<_, ProtoError>((left, right))
        });
        let (left, right) = resolved?;
        if let Some(hit) = t.span("cache.probe", || {
            self.cache.probe(kind, &left, right.as_ref())
        }) {
            return Ok(hit);
        }
        let display = |w: &sl_omega::LassoWord| Json::Str(w.display(left.alphabet()));
        let result = match kind {
            QueryKind::Classify => {
                let class = t
                    .span("classify", || classify(&left))
                    .map_err(|e| err("domain", e.to_string()))?;
                Json::obj(vec![("class", Json::Str(class_name(class).to_string()))])
            }
            QueryKind::Include => {
                let right = right.as_ref().expect("binary query");
                self.quotient_of(t, &left);
                self.quotient_of(t, right);
                let inclusion = t
                    .span("antichain.search", || {
                        included_onthefly_with_cache(&self.quotient, &left, right)
                    })
                    .map_err(|e| err("budget_exceeded", e.to_string()))?;
                match inclusion {
                    Inclusion::Holds => Json::obj(vec![("holds", Json::Bool(true))]),
                    Inclusion::CounterExample(w) => Json::obj(vec![
                        ("holds", Json::Bool(false)),
                        ("counterexample", display(&w)),
                    ]),
                }
            }
            QueryKind::Equivalent => {
                let right = right.as_ref().expect("binary query");
                self.quotient_of(t, &left);
                self.quotient_of(t, right);
                let verdict = t
                    .span("antichain.search", || {
                        equivalent_onthefly_with_cache(&self.quotient, &left, right)
                    })
                    .map_err(|e| err("budget_exceeded", e.to_string()))?;
                match verdict {
                    Ok(()) => Json::obj(vec![("equivalent", Json::Bool(true))]),
                    Err(w) => Json::obj(vec![
                        ("equivalent", Json::Bool(false)),
                        ("separator", display(&w)),
                    ]),
                }
            }
            QueryKind::Universal => {
                let all = Buchi::universal(left.alphabet().clone());
                self.quotient_of(t, &all);
                self.quotient_of(t, &left);
                let verdict = t
                    .span("antichain.search", || {
                        universal_onthefly_with_cache(&self.quotient, &left)
                    })
                    .map_err(|e| err("budget_exceeded", e.to_string()))?;
                match verdict {
                    Ok(()) => Json::obj(vec![("universal", Json::Bool(true))]),
                    Err(w) => Json::obj(vec![
                        ("universal", Json::Bool(false)),
                        ("rejected", display(&w)),
                    ]),
                }
            }
        };
        t.span("cache.store", || {
            self.cache
                .store(kind, Arc::clone(&left), right.clone(), result.clone())
        });
        Ok(result)
    }

    fn check(&mut self, t: &mut Tracer, body: &Json) -> Result<Json, ProtoError> {
        let liveness = str_of(body, "mode")? == "liveness";
        let model = body
            .get("model")
            .ok_or_else(|| err("parse", "check needs a model"))?;
        let indices = |v: &Json| -> Vec<usize> {
            v.as_arr()
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|i| i.as_u64().map(|i| i as usize))
                        .collect()
                })
                .unwrap_or_default()
        };
        let succ: Vec<Vec<usize>> = model
            .get("succ")
            .and_then(Json::as_arr)
            .map(|rows| rows.iter().map(indices).collect())
            .unwrap_or_default();
        let initial = model.get("initial").and_then(Json::as_u64).unwrap_or(0) as usize;
        let mut bad = body.get("bad").map(indices).unwrap_or_default();
        bad.sort_unstable();
        bad.dedup();
        let canon = Json::obj(vec![
            (
                "mode",
                Json::Str(if liveness { "liveness" } else { "safety" }.to_string()),
            ),
            ("initial", Json::Int(initial as i64)),
            ("bad", states_json(bad.iter().copied())),
            (
                "succ",
                Json::Arr(
                    succ.iter()
                        .map(|row| states_json(row.iter().copied()))
                        .collect(),
                ),
            ),
        ])
        .render();
        let key = {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            canon.hash(&mut hasher);
            hasher.finish()
        };
        if let Some((stored, result)) = self.checks.get(&key) {
            if *stored == canon {
                return Ok(result.clone());
            }
        }
        let sigma = Alphabet::ab();
        let (a, b) = (
            sigma.symbol("a").expect("ab"),
            sigma.symbol("b").expect("ab"),
        );
        let labels = (0..succ.len())
            .map(|s| if bad.binary_search(&s).is_ok() { b } else { a })
            .collect();
        let kripke = Kripke::new(sigma, labels, succ, initial);
        let budget = Budget::unlimited();
        let result = if liveness {
            let run = t
                .span("pdr.check", || check_liveness(&kripke, &bad, &budget))
                .map_err(|e| err("domain", e.to_string()))?;
            match run.verdict {
                LivenessVerdict::Live { k, invariant } => Json::obj(vec![
                    ("mode", Json::Str("liveness".to_string())),
                    ("verdict", Json::Str("live".to_string())),
                    ("k", Json::Int(k as i64)),
                    ("invariant", states_json(invariant.iter())),
                ]),
                LivenessVerdict::Lasso { stem, looping } => Json::obj(vec![
                    ("mode", Json::Str("liveness".to_string())),
                    ("verdict", Json::Str("lasso".to_string())),
                    ("stem", states_json(stem)),
                    ("loop", states_json(looping)),
                ]),
            }
        } else {
            let run = t
                .span("pdr.check", || check_safety(&kripke, &bad, &budget))
                .map_err(|e| err("domain", e.to_string()))?;
            match run.verdict {
                SafetyVerdict::Safe { invariant } => Json::obj(vec![
                    ("mode", Json::Str("safety".to_string())),
                    ("verdict", Json::Str("safe".to_string())),
                    ("invariant", states_json(invariant.iter())),
                ]),
                SafetyVerdict::Unsafe { trace } => Json::obj(vec![
                    ("mode", Json::Str("safety".to_string())),
                    ("verdict", Json::Str("unsafe".to_string())),
                    ("trace", states_json(trace)),
                ]),
            }
        };
        if !self.checks.contains_key(&key) && self.checks.len() >= CACHE_CAP {
            self.checks.clear();
        }
        self.checks.insert(key, (canon, result.clone()));
        Ok(result)
    }

    fn monitor_step(&mut self, t: &mut Tracer, body: &Json) -> Result<Json, ProtoError> {
        let name = str_of(body, "monitor")?;
        if !self.sessions.contains_key(name) {
            let target_name = str_of(body, "target")?;
            let target = t
                .span("registry", || self.registry.get(target_name).cloned())
                .ok_or_else(|| err("unknown_object", format!("`{target_name}` is not defined")))?;
            let fleets = &mut self.fleets;
            let backend = t.span("compiled.compile", || {
                if matches!(is_safety(&target), Ok(true)) {
                    if let Some(i) = fleets.iter().position(|(src, _)| Arc::ptr_eq(src, &target)) {
                        let slot = fleets[i].1.spawn();
                        return Backend::Compiled { fleet: i, slot };
                    }
                    if let Ok(compiled) = CompiledMonitor::new(&target) {
                        let mut fleet = MonitorFleet::new(&compiled);
                        let slot = fleet.spawn();
                        fleets.push((Arc::clone(&target), fleet));
                        return Backend::Compiled {
                            fleet: fleets.len() - 1,
                            slot,
                        };
                    }
                }
                Backend::Nfa(Monitor::new(&target))
            });
            self.sessions.insert(
                name.to_string(),
                Session {
                    target: target_name.to_string(),
                    alphabet: target.alphabet().clone(),
                    source: target,
                    backend,
                },
            );
        }
        let session = self.sessions.get_mut(name).expect("inserted above");
        let symbols: Vec<Symbol> = body
            .get("symbols")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                s.as_str()
                    .and_then(|n| session.alphabet.symbol(n))
                    .unwrap_or(Symbol(u16::MAX))
            })
            .collect();
        let reset = body.get("reset").and_then(Json::as_bool) == Some(true);
        let (steps, last) = match &mut session.backend {
            Backend::Compiled { fleet, slot } => {
                let fleet = &mut self.fleets[*fleet].1;
                if reset {
                    fleet.reset(*slot);
                }
                let steps: Vec<Verdict> = t.span("compiled.step", || {
                    symbols.iter().map(|&s| fleet.step(*slot, s)).collect()
                });
                t.set_units(symbols.len());
                (steps, fleet.verdict(*slot))
            }
            Backend::Nfa(monitor) => {
                if reset {
                    monitor.reset();
                }
                let steps: Vec<Verdict> = t.span("monitor.step", || {
                    symbols.iter().map(|&s| monitor.step(s)).collect()
                });
                t.set_units(symbols.len());
                (steps, monitor.verdict())
            }
        };
        Ok(Json::obj(vec![
            ("monitor", Json::Str(name.to_string())),
            ("target", Json::Str(session.target.clone())),
            (
                "verdicts",
                Json::Arr(
                    steps
                        .into_iter()
                        .map(|v| Json::Str(verdict_name(v).to_string()))
                        .collect(),
                ),
            ),
            ("verdict", Json::Str(verdict_name(last).to_string())),
        ]))
    }

    fn decompose(&mut self, t: &mut Tracer, body: &Json) -> Result<Json, ProtoError> {
        let name = str_of(body, "target")?.to_string();
        let target = t
            .span("registry", || self.registry.get(&name).cloned())
            .ok_or_else(|| err("unknown_object", format!("`{name}` is not defined")))?;
        let (d, check) = t.span("decompose", || {
            let d = decompose(&target);
            let check = d.check_sampled(&target, 2, 2);
            (d, check)
        });
        let safety_name = format!("{name}.safety");
        let liveness_name = format!("{name}.liveness");
        let (safety, liveness) = t.span("registry", || {
            (
                self.registry.insert(&safety_name, d.safety),
                self.registry.insert(&liveness_name, d.liveness),
            )
        });
        Ok(Json::obj(vec![
            ("target", Json::Str(name.clone())),
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
                Json::Str(match check {
                    None => "ok".to_string(),
                    Some(w) => format!("mismatch at {}", w.display(target.alphabet())),
                }),
            ),
        ]))
    }

    /// The snapshot payload, built as the engine builds it.
    fn snapshot_state(&self) -> (Vec<(String, String)>, Vec<SessionSnap>) {
        let mut registry: Vec<(String, String)> = self
            .registry
            .iter()
            .map(|(name, b)| (name.to_string(), hoa::to_hoa(b, name)))
            .collect();
        registry.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut sessions: Vec<SessionSnap> = self
            .sessions
            .iter()
            .map(|(name, s)| SessionSnap {
                name: name.clone(),
                target: s.target.clone(),
                hoa: hoa::to_hoa(&s.source, &s.target),
                state: match &s.backend {
                    Backend::Compiled { fleet, slot } => {
                        u64::from(self.fleets[*fleet].1.save_state(*slot))
                    }
                    Backend::Nfa(m) => m.save_state(),
                },
            })
            .collect();
        sessions.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        (registry, sessions)
    }
}

// ---- passes ----------------------------------------------------------

/// One recorded request: the client latency of a timed request (`None`
/// for setup and warm-up) and the line.
struct Recorded {
    latency_ns: Option<u64>,
    line: String,
}

struct Record {
    workload: String,
    connections: f64,
    persist: bool,
    throughput_rps: f64,
    lines: Vec<Recorded>,
}

fn read_record(path: &Path) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut header = None;
    let mut lines = Vec::new();
    for raw in text.lines() {
        if let Some(h) = raw.strip_prefix("H ") {
            header = Some(json::parse(h)?);
        } else if let Some(line) = raw.strip_prefix("S ") {
            lines.push(Recorded {
                latency_ns: None,
                line: line.to_string(),
            });
        } else if let Some(rest) = raw.strip_prefix("T ") {
            let (latency, line) = rest.split_once(' ').ok_or("malformed timed record")?;
            lines.push(Recorded {
                latency_ns: Some(latency.parse().map_err(|_| "malformed latency")?),
                line: line.to_string(),
            });
        }
    }
    let header = header.ok_or("record has no header")?;
    let number = |key: &str| match header.get(key) {
        Some(Json::Int(i)) => Some(*i as f64),
        Some(Json::Float(f)) => Some(*f),
        _ => None,
    };
    Ok(Record {
        workload: header
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        connections: number("connections").unwrap_or(1.0),
        persist: header
            .get("persist")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        throughput_rps: number("throughput_rps").unwrap_or(0.0),
        lines,
    })
}

/// A fresh, empty directory for one pass's journal and snapshots.
fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// Empties the process-wide caches the plain engine entry points share,
/// so every pass starts as a fresh daemon does.
fn reset_process_caches() {
    reset_shared_quotient_cache();
    reset_shared_complement_cache();
}

/// Replays the stream through the mirrored engine; returns the
/// responses, the tracer, and the wall time in seconds.
fn replay_pass(
    lines: &[Recorded],
    traced: bool,
    persist_dir: Option<&Path>,
) -> Result<(Vec<String>, Tracer, f64), String> {
    reset_process_caches();
    let dir = persist_dir.map(fresh_dir).transpose()?;
    let mut replay = Replay::new(dir.as_deref())?;
    let mut tracer = Tracer::new(traced);
    let mut responses = Vec::with_capacity(lines.len());
    let start = Instant::now();
    for (i, recorded) in lines.iter().enumerate() {
        tracer.begin_request(i as u32);
        responses.push(replay.handle(&mut tracer, &recorded.line));
        tracer.end_request();
    }
    let wall = start.elapsed().as_secs_f64();
    drop(replay);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((responses, tracer, wall))
}

/// Times `Service::handle_line` on a fresh service over the stream.
fn handle_line_pass(
    lines: &[Recorded],
    persist_dir: Option<&Path>,
) -> Result<(Vec<String>, Vec<u64>), String> {
    reset_process_caches();
    let config = ServiceConfig {
        fault: FaultPlan::disabled(),
        ..ServiceConfig::default()
    };
    let dir = persist_dir.map(fresh_dir).transpose()?;
    let service = match &dir {
        None => Service::new(config),
        Some(dir) => Service::with_persistence(
            config,
            &PersistConfig {
                dir: dir.clone(),
                snapshot_every: SNAPSHOT_EVERY,
            },
        )
        .map_err(|e| e.to_string())?,
    };
    let mut responses = Vec::with_capacity(lines.len());
    let mut times = Vec::with_capacity(lines.len());
    for recorded in lines {
        let start = Instant::now();
        let reply = service.handle_line(&recorded.line);
        times.push(start.elapsed().as_nanos() as u64);
        responses.push(reply.line);
    }
    drop(service);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((responses, times))
}

// ---- metrics ---------------------------------------------------------

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-span self times (span minus the children it covers).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

struct Metrics(String);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &str) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(
            self.0,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
        println!("layer {name} = {value:.4} {unit}");
    }
}

fn parse_args() -> Result<(PathBuf, PathBuf), String> {
    let mut record = None;
    let mut work = PathBuf::from(".bench_build/sldbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--record" => record = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((record.ok_or("--record is required")?, work))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sldbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let (record_path, work) = parse_args()?;
    let record = read_record(&record_path)?;
    let lines = &record.lines;
    let timed: Vec<bool> = lines.iter().map(|r| r.latency_ns.is_some()).collect();
    let timed_count = timed.iter().filter(|&&t| t).count();
    let persist_dir = record
        .persist
        .then(|| work.join(format!("trace-persist-{}", std::process::id())));
    let persist_dir = persist_dir.as_deref();

    // One discarded pass first: the process's first pass over the
    // stream pays for page faults and allocator growth the later ones
    // reuse.
    replay_pass(lines, false, persist_dir)?;

    // The untraced and handle_line passes run before and after the
    // traced one and are averaged, so a host that drifts faster or
    // slower over the passes does not bias the ratios against them.
    let (plain_a, _, plain_wall_a) = replay_pass(lines, false, persist_dir)?;
    let (served_a, handle_a) = handle_line_pass(lines, persist_dir)?;
    let (traced, tracer, traced_wall) = replay_pass(lines, true, persist_dir)?;
    let (served_b, handle_b) = handle_line_pass(lines, persist_dir)?;
    let (plain_b, _, plain_wall_b) = replay_pass(lines, false, persist_dir)?;
    let plain_wall = (plain_wall_a + plain_wall_b) / 2.0;
    let handle_ns: Vec<u64> = handle_a
        .iter()
        .zip(&handle_b)
        .map(|(a, b)| (a + b) / 2)
        .collect();

    let mut mismatches = 0usize;
    for (i, served) in served_a.iter().enumerate() {
        let replies = [&plain_a[i], &traced[i], &served_b[i], &plain_b[i]];
        if let Some(other) = replies.into_iter().find(|r| *r != served) {
            mismatches += 1;
            if mismatches <= 5 {
                println!("MISMATCH at request {i}:\n  replay      {other}\n  handle_line {served}");
            }
        }
    }
    println!(
        "replayed {} requests ({timed_count} timed) of {}: untraced {plain_wall_a:.3}/{plain_wall_b:.3} s, traced {traced_wall:.3} s, handle_line {:.3}/{:.3} s, {mismatches} verdict mismatches",
        lines.len(),
        record.workload,
        handle_a.iter().sum::<u64>() as f64 / 1e9,
        handle_b.iter().sum::<u64>() as f64 / 1e9,
    );

    // Spans out, then per-layer self times over the timed requests (a
    // layer with no timed calls falls back to the setup's).
    let spans = &tracer.spans;
    let selfs = self_times(spans);
    let mut out = String::from("request\tname\tstart_ns\tend_ns\tparent\tmiss\tunits\n");
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.request, s.name, s.start, s.end, s.miss, s.units
        );
    }
    let spans_path = work.join(format!("spans-{}.tsv", record.workload));
    std::fs::write(&spans_path, out).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let calls = |name: &str, only_misses: bool, per_unit: bool, scale: f64| -> f64 {
        let pick = |want_timed: bool| -> Vec<f64> {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| {
                    s.name == name
                        && timed[s.request as usize] == want_timed
                        && (!only_misses || s.miss)
                })
                .map(|(s, &ns)| {
                    let ns = if per_unit {
                        ns as f64 / f64::from(s.units)
                    } else {
                        ns as f64
                    };
                    ns / scale
                })
                .collect()
        };
        let mut values = pick(true);
        if values.is_empty() {
            values = pick(false);
        }
        median(&mut values)
    };
    let mut probe_per_request: HashMap<u32, f64> = HashMap::new();
    let mut layer_self_ns: f64 = 0.0;
    for (s, &ns) in spans.iter().zip(&selfs) {
        if !timed[s.request as usize] {
            continue;
        }
        if s.name == "cache.probe" || s.name == "cache.store" {
            *probe_per_request.entry(s.request).or_default() += ns as f64 / 1e3;
        }
        if s.parent != NO_PARENT {
            layer_self_ns += ns as f64;
        }
    }
    let handle_timed_ns: f64 = handle_ns
        .iter()
        .zip(&timed)
        .filter(|(_, &t)| t)
        .map(|(&ns, _)| ns as f64)
        .sum();
    let client_ns: f64 = lines
        .iter()
        .filter_map(|r| r.latency_ns)
        .map(|ns| ns as f64)
        .sum();
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let handle_rate = share(timed_count as f64, handle_timed_ns / 1e9);

    let mut m = Metrics(String::new());
    m.add(
        "server.transport_share",
        1.0 - share(handle_timed_ns, client_ns),
        "ratio",
    );
    m.add(
        "json.parse_us",
        calls("json.parse", false, false, 1e3),
        "us",
    );
    m.add(
        "json.render_us",
        calls("json.render", false, false, 1e3),
        "us",
    );
    m.add(
        "cache.probe_us",
        median(&mut probe_per_request.into_values().collect::<Vec<_>>()),
        "us",
    );
    m.add(
        "interned.quotient_us",
        calls("interned.quotient", true, false, 1e3),
        "us",
    );
    m.add(
        "interned.advance_us",
        calls("interned.advance", false, false, 1e3),
        "us",
    );
    m.add(
        "antichain.search_us",
        calls("antichain.search", false, false, 1e3),
        "us",
    );
    m.add("classify.us", calls("classify", false, false, 1e3), "us");
    m.add("decompose.us", calls("decompose", false, false, 1e3), "us");
    m.add("pdr.check_us", calls("pdr.check", false, false, 1e3), "us");
    m.add(
        "compiled.step_ns_per_symbol",
        calls("compiled.step", false, true, 1.0),
        "ns",
    );
    m.add(
        "compiled.nfa_step_ns_per_symbol",
        calls("monitor.step", false, true, 1.0),
        "ns",
    );
    m.add(
        "persist.append_us",
        calls("persist.append", false, false, 1e3),
        "us",
    );
    m.add(
        "persist.snapshot_ms",
        calls("persist.snapshot", false, false, 1e6),
        "ms",
    );
    m.add("hoa.parse_us", calls("hoa.parse", false, false, 1e3), "us");
    m.add(
        "engine.unattributed_share",
        1.0 - share(layer_self_ns, handle_timed_ns),
        "ratio",
    );
    m.add(
        "engine.parallel_efficiency",
        share(record.throughput_rps, record.connections * handle_rate),
        "ratio",
    );
    m.add(
        "trace.overhead_share",
        share(traced_wall, plain_wall) - 1.0,
        "ratio",
    );
    println!(
        "{{\"correct\":{},\"replayed\":{},\"mismatches\":{mismatches},\"metrics\":{{{}}}}}",
        mismatches == 0,
        lines.len(),
        m.0
    );
    Ok(())
}
