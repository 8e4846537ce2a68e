//! Seeded workload generation. Every input — automata, Kripke models,
//! symbol streams, the request order — is a pure function of the seed,
//! and all of it is built before any clock starts.

use crate::model::{Kripke, Nba};
use crate::rng::{fnv, Rng};
use crate::verify::{live_states, run_monitor, Verdict};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique inclusion, equivalence and model-checking questions on two
    /// connections: every request misses every result cache.
    SolveCold,
    /// Zipf-distributed repeats of a fixed question set on one
    /// connection: mostly query-cache hits over a working set above the
    /// caches' caps.
    ServeZipf,
    /// Monitor steps beside redefines, decompositions and inclusions on
    /// one connection, with the write-ahead journal on.
    MonitorJournal,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SolveCold,
        Workload::ServeZipf,
        Workload::MonitorJournal,
    ];

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveCold => "solve-cold",
            Workload::ServeZipf => "serve-zipf",
            Workload::MonitorJournal => "monitor-journal",
        }
    }

    /// Closed-loop client connections in the timed phase.
    #[must_use]
    pub fn connections(self) -> usize {
        match self {
            Workload::SolveCold => 2,
            Workload::ServeZipf | Workload::MonitorJournal => 1,
        }
    }

    /// Whether the daemon runs with `--persist`.
    #[must_use]
    pub fn persistent(self) -> bool {
        self == Workload::MonitorJournal
    }

    /// Upper bound on requests per second per connection, used to size
    /// the pre-generated streams so a run never exhausts them.
    fn rate_cap(self) -> usize {
        match self {
            Workload::SolveCold => 4_000,
            Workload::ServeZipf => 40_000,
            Workload::MonitorJournal => 30_000,
        }
    }
}

/// What the benchmark knows about a request, to check its answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `define` from HOA: the daemon must report this many states and
    /// transitions.
    Define {
        /// States of the generated automaton.
        states: usize,
        /// Transitions of the generated automaton.
        transitions: usize,
    },
    /// `define` from LTL (no shape to compare).
    DefineLtl,
    /// `include`: indices into [`Plan::automata`].
    Include(usize, usize),
    /// `equivalent`.
    Equivalent(usize, usize),
    /// `universal`.
    Universal(usize),
    /// `classify`.
    Classify(usize),
    /// `check` on a model regenerated from its seed.
    Check {
        /// Model generator seed.
        seed: u64,
        /// Model size.
        states: usize,
        /// `liveness` (true) or `safety` mode.
        liveness: bool,
    },
    /// `monitor-step`: the verdicts the benchmark's own run predicts.
    Step(Vec<Verdict>),
    /// `decompose` of an automaton registered under `name`.
    Decompose {
        /// Index into [`Plan::automata`].
        target: usize,
        /// The registered name.
        name: String,
    },
}

impl Expect {
    /// The request's verb.
    #[must_use]
    pub fn verb(&self) -> &'static str {
        match self {
            Expect::Define { .. } | Expect::DefineLtl => "define",
            Expect::Include(..) => "include",
            Expect::Equivalent(..) => "equivalent",
            Expect::Universal(_) => "universal",
            Expect::Classify(_) => "classify",
            Expect::Check { .. } => "check",
            Expect::Step(_) => "monitor-step",
            Expect::Decompose { .. } => "decompose",
        }
    }

    /// A key naming the question, for verbs whose answer is a pure
    /// function of their operands (`None` for stateful verbs).
    #[must_use]
    pub fn question(&self) -> Option<String> {
        Some(match self {
            Expect::Include(a, b) => format!("include {a} {b}"),
            Expect::Equivalent(a, b) => format!("equivalent {a} {b}"),
            Expect::Universal(a) => format!("universal {a}"),
            Expect::Classify(a) => format!("classify {a}"),
            Expect::Check {
                seed,
                states,
                liveness,
            } => format!("check {seed} {states} {liveness}"),
            Expect::Decompose { target, .. } => format!("decompose {target}"),
            _ => return None,
        })
    }
}

/// One request line and what its answer must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The request id, echoed in the response.
    pub id: u64,
    /// The JSON line, without the newline.
    pub line: String,
    /// The answer check.
    pub expect: Expect,
}

/// Everything one run sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Every automaton (and automaton version) the requests name,
    /// deduplicated by content.
    pub automata: Vec<Nba>,
    /// Corpus definitions, sent in order on one connection.
    pub setup: Vec<Request>,
    /// Warm-up requests, sent after the setup on the same connection.
    pub warmup: Vec<Request>,
    /// Timed requests, one stream per connection.
    pub streams: Vec<Vec<Request>>,
    /// Redefines in the timed phase: (old version, new version, edited
    /// block), for the generator's own tests.
    pub edits: Vec<(usize, usize, usize)>,
}

impl Plan {
    /// Share of query requests among the first `sent[c]` timed requests
    /// of each connection `c` whose question was asked before (in the
    /// warm-up or earlier in the timed phase).
    #[must_use]
    pub fn repeated_share(&self, sent: &[usize]) -> f64 {
        let mut seen: HashSet<String> = self
            .warmup
            .iter()
            .filter_map(|r| r.expect.question())
            .collect();
        let (mut queries, mut repeats) = (0usize, 0usize);
        for (stream, &n) in self.streams.iter().zip(sent) {
            for q in stream.iter().take(n).filter_map(|r| r.expect.question()) {
                queries += 1;
                repeats += usize::from(!seen.insert(q));
            }
        }
        ratio(repeats, queries)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A Büchi automaton with `n` states over {a, b}: about 30% accepting
/// states, each (state, symbol) pair with one successor at probability
/// 0.65 and none otherwise, and at least one outgoing transition per
/// state. Deterministic on purpose: the on-the-fly inclusion search is
/// exponential in the right operand's nondeterminism, and even a few
/// two-successor pairs push random 40-state instances past the engine's
/// default step limit, which would make requests fail.
#[must_use]
pub fn random_nba(rng: &mut Rng, n: usize) -> Nba {
    let accepting = (0..n).map(|_| rng.chance(0.3)).collect();
    let succ = (0..n)
        .map(|_| {
            let mut row: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
            for targets in &mut row {
                if rng.chance(0.65) {
                    targets.push(rng.below(n));
                }
            }
            if row[0].is_empty() && row[1].is_empty() {
                row[rng.below(2)].push(rng.below(n));
            }
            row
        })
        .collect();
    Nba {
        initial: 0,
        accepting,
        succ,
    }
}

/// Largest transition monoid a corpus automaton may have (see
/// [`monoid_size`]).
pub const MONOID_CAP: usize = 300;

/// The number of distinct word summaries of a deterministic automaton,
/// counted up to `cap + 1`: for each state, where a nonempty word leads
/// and whether the path meets an accepting state. The on-the-fly
/// inclusion search explores pairs of left-operand states and such
/// summaries of the right operand, so this bounds the work any question
/// about the automaton can cost. Random automata have a heavy tail here
/// (one in ten past 9000): left in, a few questions cost hundreds of
/// milliseconds and which of them a seed happens to draw decides a run.
/// Capped at 300, the costliest question stays within a few
/// milliseconds.
#[must_use]
pub fn monoid_size(nba: &Nba, cap: usize) -> usize {
    const NONE: u8 = u8::MAX;
    let n = nba.len();
    let letter = |s: usize| -> Vec<u8> {
        let mut e = vec![NONE; 2 * n];
        for q in 0..n {
            if let Some(&t) = nba.succ[q][s].first() {
                e[q] = t as u8;
                e[n + q] = u8::from(nba.accepting[q] || nba.accepting[t]);
            }
        }
        e
    };
    let letters = [letter(0), letter(1)];
    let mut seen: HashSet<Vec<u8>> = letters.iter().cloned().collect();
    let mut work: Vec<Vec<u8>> = seen.iter().cloned().collect();
    while let Some(e) = work.pop() {
        if seen.len() > cap {
            break;
        }
        for g in &letters {
            let mut next = vec![NONE; 2 * n];
            for q in 0..n {
                let mid = e[q];
                if mid != NONE && g[mid as usize] != NONE {
                    next[q] = g[mid as usize];
                    next[n + q] = e[n + q] | g[n + mid as usize];
                }
            }
            if seen.insert(next.clone()) {
                work.push(next);
            }
        }
    }
    seen.len()
}

/// A deterministic, all-accepting automaton with `n` states: every
/// state has at least one outgoing transition, and about one in six
/// (state, symbol) pairs has none, which is where a trace violates.
#[must_use]
pub fn random_safety_target(rng: &mut Rng, n: usize) -> Nba {
    let succ = (0..n)
        .map(|_| {
            let missing = if rng.chance(0.35) {
                Some(rng.below(2))
            } else {
                None
            };
            let mut row: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
            for (s, targets) in row.iter_mut().enumerate() {
                if missing != Some(s) {
                    targets.push(rng.below(n));
                }
            }
            row
        })
        .collect();
    Nba {
        initial: 0,
        accepting: vec![true; n],
        succ,
    }
}

/// Size of one block of a [`chain_family`] member.
pub const BLOCK: usize = 4;
/// Blocks per [`chain_family`] member.
pub const BLOCKS: usize = 8;

/// A chain of [`BLOCKS`] strongly connected blocks of [`BLOCK`] states:
/// an `a`-cycle inside each block, a `b` edge from each block's first
/// state to the next block's, and random acceptance bits and extra
/// in-block `b` edges. Deterministic, so the daemon's safety closure and
/// decomposition stay small.
#[must_use]
pub fn chain_member(rng: &mut Rng) -> Nba {
    let n = BLOCK * BLOCKS;
    let mut nba = Nba {
        initial: 0,
        accepting: (0..n).map(|_| rng.chance(0.4)).collect(),
        succ: vec![[Vec::new(), Vec::new()]; n],
    };
    for block in 0..BLOCKS {
        let base = block * BLOCK;
        for i in 0..BLOCK {
            nba.succ[base + i][0] = vec![base + (i + 1) % BLOCK];
        }
        nba.succ[base][1] = vec![if block + 1 < BLOCKS {
            base + BLOCK
        } else {
            base
        }];
        for i in 1..BLOCK {
            if rng.chance(0.3) {
                nba.succ[base + i][1] = vec![base + rng.below(BLOCK)];
            }
        }
    }
    nba
}

/// A one-block edit of a chain member: flips one or two acceptance bits
/// of one block, or toggles one of its in-block `b` edges. Returns the
/// edited block.
pub fn edit_block(rng: &mut Rng, nba: &mut Nba) -> usize {
    let block = rng.below(BLOCKS);
    let base = block * BLOCK;
    if rng.chance(0.7) {
        let first = rng.below(BLOCK);
        nba.accepting[base + first] ^= true;
        if rng.chance(0.5) {
            let second = (first + 1 + rng.below(BLOCK - 1)) % BLOCK;
            nba.accepting[base + second] ^= true;
        }
    } else {
        let i = 1 + rng.below(BLOCK - 1);
        nba.succ[base + i][1] = if nba.succ[base + i][1].is_empty() {
            vec![base + rng.below(BLOCK)]
        } else {
            Vec::new()
        };
    }
    block
}

/// The blocks in which two chain members differ (acceptance or edges
/// leaving the block's states).
#[must_use]
pub fn differing_blocks(a: &Nba, b: &Nba) -> Vec<usize> {
    (0..BLOCKS)
        .filter(|&block| {
            (block * BLOCK..(block + 1) * BLOCK)
                .any(|q| a.accepting[q] != b.accepting[q] || a.succ[q] != b.succ[q])
        })
        .collect()
}

/// A total Kripke model with `n` states from its own seed: an acyclic
/// stem from the initial state into a randomly wired core, plus a part
/// no reachable state points into. The bad states fall in the detached
/// part (safe, live), the stem (unsafe but live) or the core, where they
/// loop on themselves (unsafe, and a lasso whenever reachable), one
/// case in three each.
#[must_use]
pub fn kripke(seed: u64, n: usize) -> Kripke {
    let mut rng = Rng::new(seed, 0x6b72_6970);
    let stem = n / 8;
    let detached = n / 4;
    let core_start = stem;
    let core_end = n - detached;
    let core = core_end - core_start;
    let mut succ = Vec::with_capacity(n);
    for s in 0..n {
        let fanout = rng.range(1, 3);
        let mut row: Vec<usize> = (0..fanout)
            .map(|_| {
                if s < stem {
                    // Forward only: stem states lie on no cycle.
                    let ahead = stem - s - 1;
                    if ahead > 0 && rng.chance(0.5) {
                        s + 1 + rng.below(ahead)
                    } else {
                        core_start + rng.below(core)
                    }
                } else if s < core_end {
                    core_start + rng.below(core)
                } else if rng.chance(0.8) {
                    core_end + rng.below(detached)
                } else {
                    core_start + rng.below(core)
                }
            })
            .collect();
        row.sort_unstable();
        row.dedup();
        succ.push(row);
    }
    let count = rng.range(1, 4);
    let case = rng.below(3);
    let mut bad: Vec<usize> = (0..count)
        .map(|_| match case {
            0 => core_end + rng.below(detached),
            1 => 1 + rng.below(stem - 1),
            _ => core_start + rng.below(core),
        })
        .collect();
    bad.sort_unstable();
    bad.dedup();
    if case == 2 {
        // Bad self-loops in the core: the k-liveness sweep finds its
        // lasso at k = 1. Without them, the lasso waits for a trace that
        // revisits a bad state through the random core, and those
        // sweeps cost 10-100 ms, a tail that decided runs.
        for &b in &bad {
            if let Err(at) = succ[b].binary_search(&b) {
                succ[b].insert(at, b);
            }
        }
    }
    Kripke {
        succ,
        initial: 0,
        bad,
    }
}

/// Builds request lines with increasing ids.
struct Lines {
    next_id: u64,
}

impl Lines {
    fn new(first_id: u64) -> Self {
        Lines { next_id: first_id }
    }

    fn make(&mut self, body: &str, expect: Expect) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        Request {
            id,
            line: format!("{{\"id\":{id},{body}}}"),
            expect,
        }
    }

    fn define_hoa(&mut self, name: &str, nba: &Nba) -> Request {
        let hoa = json_string(&nba.to_hoa(name));
        self.make(
            &format!("\"verb\":\"define\",\"name\":\"{name}\",\"hoa\":{hoa}"),
            Expect::Define {
                states: nba.len(),
                transitions: nba.transitions(),
            },
        )
    }

    fn binary(&mut self, verb: &str, names: (&str, &str), ids: (usize, usize)) -> Request {
        let expect = match verb {
            "include" => Expect::Include(ids.0, ids.1),
            _ => Expect::Equivalent(ids.0, ids.1),
        };
        self.make(
            &format!(
                "\"verb\":\"{verb}\",\"left\":\"{}\",\"right\":\"{}\"",
                names.0, names.1
            ),
            expect,
        )
    }

    fn unary(&mut self, verb: &str, name: &str, id: usize) -> Request {
        let expect = match verb {
            "classify" => Expect::Classify(id),
            _ => Expect::Universal(id),
        };
        self.make(
            &format!("\"verb\":\"{verb}\",\"target\":\"{name}\""),
            expect,
        )
    }

    fn check(&mut self, seed: u64, states: usize, liveness: bool) -> Request {
        let model = kripke(seed, states);
        let mode = if liveness { "liveness" } else { "safety" };
        self.make(
            &format!(
                "\"verb\":\"check\",\"mode\":\"{mode}\",{}",
                model.operands_json()
            ),
            Expect::Check {
                seed,
                states,
                liveness,
            },
        )
    }
}

/// JSON string literal for text with newlines and quotes.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builds the plan for `workload` from `seed`, sized for a timed phase
/// of `seconds`.
#[must_use]
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let per_connection = workload.rate_cap() * seconds.max(1) as usize;
    let mut rng = Rng::new(seed, fnv(workload.name().as_bytes()));
    match workload {
        Workload::SolveCold => solve_cold(&mut rng, per_connection),
        Workload::ServeZipf => serve_zipf(&mut rng, per_connection),
        Workload::MonitorJournal => monitor_journal(&mut rng, per_connection),
    }
}

/// `count` random automata with sizes in `sizes`, each screened to a
/// transition monoid of at most [`MONOID_CAP`] summaries.
fn corpus(rng: &mut Rng, count: usize, sizes: (usize, usize)) -> Vec<Nba> {
    (0..count)
        .map(|_| loop {
            let n = rng.range(sizes.0, sizes.1);
            let nba = random_nba(rng, n);
            if monoid_size(&nba, MONOID_CAP) <= MONOID_CAP {
                break nba;
            }
        })
        .collect()
}

fn define_corpus(lines: &mut Lines, automata: &[Nba]) -> Vec<Request> {
    automata
        .iter()
        .enumerate()
        .map(|(i, nba)| lines.define_hoa(&format!("c{i}"), nba))
        .collect()
}

/// Corpus size of `solve-cold` and `serve-zipf`.
pub const CORPUS: usize = 384;
/// Warm-up requests of `solve-cold`.
const COLD_WARMUP: usize = 200;

fn solve_cold(rng: &mut Rng, per_connection: usize) -> Plan {
    let automata = corpus(rng, CORPUS, (16, 40));
    let mut lines = Lines::new(1);
    let setup = define_corpus(&mut lines, &automata);
    let mut used: HashSet<(usize, usize)> = HashSet::new();
    let mut next = |rng: &mut Rng, lines: &mut Lines| -> Request {
        let roll = rng.below(100);
        if roll < 75 {
            let (a, b) = loop {
                let a = rng.below(CORPUS);
                let b = rng.below(CORPUS);
                if a != b && used.insert((a, b)) {
                    break (a, b);
                }
            };
            let verb = if roll < 55 { "include" } else { "equivalent" };
            lines.binary(verb, (&format!("c{a}"), &format!("c{b}")), (a, b))
        } else {
            lines.check(rng.next_u64(), 256, roll.is_multiple_of(2))
        }
    };
    let warmup = (0..COLD_WARMUP).map(|_| next(rng, &mut lines)).collect();
    let mut streams = vec![Vec::new(), Vec::new()];
    for _ in 0..per_connection {
        for stream in &mut streams {
            stream.push(next(rng, &mut lines));
        }
    }
    Plan {
        workload: Workload::SolveCold,
        automata,
        setup,
        warmup,
        streams,
        edits: Vec::new(),
    }
}

/// Distinct questions `serve-zipf` draws from.
pub const ZIPF_QUESTIONS: usize = 8_000;
/// The Zipf exponent of `serve-zipf`.
pub const ZIPF_S: f64 = 1.2;
/// Models `serve-zipf` checks.
const ZIPF_MODELS: usize = 256;
/// States of every `serve-zipf` model: one size, so a `check` hit costs
/// the same whichever model holds its rank.
const ZIPF_MODEL_STATES: usize = 128;
/// Warm-up draws of `serve-zipf`.
const ZIPF_WARMUP: usize = 3_000;

/// A fixed question of `serve-zipf`.
#[derive(Debug, Clone, Copy)]
enum Question {
    Classify(usize),
    Universal(usize),
    Include(usize, usize),
    Equivalent(usize, usize),
    Check(u64, usize, bool),
}

/// Cumulative Zipf weights over `n` ranks.
#[must_use]
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut total = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            total += 1.0 / (r as f64).powf(s);
            total
        })
        .collect();
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Draws a rank from a Zipf CDF.
pub fn zipf_draw(rng: &mut Rng, cdf: &[f64]) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Interleaves per-verb question lists into one popularity order by
/// smooth weighted round-robin. The verb at each rank is the same for
/// every seed (the top ten ranks alone draw about half the requests, so
/// a seed that put a large `check` model there would move p50 threefold);
/// the seed only decides which question of that verb holds the rank.
fn interleave(mut groups: Vec<Vec<Question>>) -> Vec<Question> {
    let weights: Vec<i64> = groups.iter().map(|g| g.len() as i64).collect();
    let total: i64 = weights.iter().sum();
    let mut current = vec![0i64; groups.len()];
    for g in &mut groups {
        g.reverse();
    }
    let mut order = Vec::with_capacity(total as usize);
    for _ in 0..total {
        for (c, w) in current.iter_mut().zip(&weights) {
            *c += w;
        }
        let pick = (0..groups.len())
            .max_by_key(|&i| (current[i], std::cmp::Reverse(i)))
            .expect("at least one group");
        current[pick] -= total;
        order.push(groups[pick].pop().expect("weights match group sizes"));
    }
    order
}

fn serve_zipf(rng: &mut Rng, per_connection: usize) -> Plan {
    let automata = corpus(rng, CORPUS, (8, 40));
    let mut lines = Lines::new(1);
    let setup = define_corpus(&mut lines, &automata);
    let mut checks = Vec::with_capacity(2 * ZIPF_MODELS);
    for _ in 0..ZIPF_MODELS {
        let seed = rng.next_u64();
        checks.push(Question::Check(seed, ZIPF_MODEL_STATES, false));
        checks.push(Question::Check(seed, ZIPF_MODEL_STATES, true));
    }
    let pairs = ZIPF_QUESTIONS - 2 * CORPUS - checks.len();
    let mut used: HashSet<(usize, usize)> = HashSet::new();
    let (mut includes, mut equivalents) = (Vec::new(), Vec::new());
    while includes.len() + equivalents.len() < pairs {
        let a = rng.below(CORPUS);
        let b = rng.below(CORPUS);
        if a != b && used.insert((a, b)) {
            if includes.len() < pairs * 2 / 3 {
                includes.push(Question::Include(a, b));
            } else {
                equivalents.push(Question::Equivalent(a, b));
            }
        }
    }
    let mut groups = vec![
        includes,
        equivalents,
        checks,
        (0..CORPUS).map(Question::Classify).collect(),
        (0..CORPUS).map(Question::Universal).collect(),
    ];
    for g in &mut groups {
        rng.shuffle(g);
    }
    let questions = interleave(groups);
    let cdf = zipf_cdf(ZIPF_QUESTIONS, ZIPF_S);
    let ask = |rng: &mut Rng, lines: &mut Lines| -> Request {
        match questions[zipf_draw(rng, &cdf)] {
            Question::Classify(a) => lines.unary("classify", &format!("c{a}"), a),
            Question::Universal(a) => lines.unary("universal", &format!("c{a}"), a),
            Question::Include(a, b) => {
                lines.binary("include", (&format!("c{a}"), &format!("c{b}")), (a, b))
            }
            Question::Equivalent(a, b) => {
                lines.binary("equivalent", (&format!("c{a}"), &format!("c{b}")), (a, b))
            }
            Question::Check(seed, states, liveness) => lines.check(seed, states, liveness),
        }
    };
    let warmup = (0..ZIPF_WARMUP).map(|_| ask(rng, &mut lines)).collect();
    let stream = (0..per_connection).map(|_| ask(rng, &mut lines)).collect();
    Plan {
        workload: Workload::ServeZipf,
        automata,
        setup,
        warmup,
        streams: vec![stream],
        edits: Vec::new(),
    }
}

/// Safety targets of `monitor-journal`.
const TARGETS: usize = 24;
/// Monitor sessions of `monitor-journal`.
pub const SESSIONS: usize = 1_000;
/// Chain-family members of `monitor-journal`.
pub const FAMILY: usize = 64;
/// Symbols per `monitor-step`.
pub const STEP_SYMBOLS: usize = 32;

/// A monitor session as the generator tracks it.
struct Session {
    /// Target index, or `None` for the LTL `G F a` target.
    target: Option<usize>,
    /// Current state (`None` once violated).
    state: Option<usize>,
}

/// Interns automata by content so repeated versions share an index.
struct Automata {
    list: Vec<Nba>,
    index: HashMap<Nba, usize>,
}

impl Automata {
    fn intern(&mut self, nba: &Nba) -> usize {
        if let Some(&i) = self.index.get(nba) {
            return i;
        }
        self.list.push(nba.clone());
        self.index.insert(nba.clone(), self.list.len() - 1);
        self.list.len() - 1
    }
}

fn monitor_journal(rng: &mut Rng, per_connection: usize) -> Plan {
    let mut automata = Automata {
        list: Vec::new(),
        index: HashMap::new(),
    };
    let mut lines = Lines::new(1);
    let mut setup = Vec::new();
    // Screened like the corpus: the daemon decides `is_safety` for
    // every session it creates, so one target with a large monoid would
    // make set-up time a matter of which seed drew it.
    let targets: Vec<Nba> = (0..TARGETS)
        .map(|_| loop {
            let n = rng.range(4, 12);
            let target = random_safety_target(rng, n);
            if monoid_size(&target, MONOID_CAP) <= MONOID_CAP {
                break target;
            }
        })
        .collect();
    let lives: Vec<Vec<bool>> = targets.iter().map(live_states).collect();
    for (i, t) in targets.iter().enumerate() {
        automata.intern(t);
        setup.push(lines.define_hoa(&format!("t{i}"), t));
    }
    setup.push(lines.make(
        "\"verb\":\"define\",\"name\":\"gfa\",\"ltl\":\"G F a\",\"alphabet\":[\"a\",\"b\"]",
        Expect::DefineLtl,
    ));
    let mut family: Vec<usize> = Vec::with_capacity(FAMILY);
    let mut seen: Vec<HashSet<Nba>> = Vec::with_capacity(FAMILY);
    for m in 0..FAMILY {
        let member = chain_member(rng);
        family.push(automata.intern(&member));
        seen.push(HashSet::from([member.clone()]));
        setup.push(lines.define_hoa(&format!("f{m}"), &member));
    }
    let mut sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| {
            let target = if i % 10 == 9 { None } else { Some(i % TARGETS) };
            Session {
                target,
                state: target.map(|t| targets[t].initial),
            }
        })
        .collect();

    let step = |rng: &mut Rng, lines: &mut Lines, i: usize, sessions: &mut [Session]| {
        let session = &mut sessions[i];
        let mut symbols = Vec::with_capacity(STEP_SYMBOLS);
        let reset = session.target.is_some() && session.state.is_none();
        let verdicts = match session.target {
            None => {
                symbols.extend((0..STEP_SYMBOLS).map(|_| rng.below(2)));
                vec![Verdict::Ok; STEP_SYMBOLS]
            }
            Some(t) => {
                let target = &targets[t];
                let start = if reset {
                    Some(target.initial)
                } else {
                    session.state
                };
                let mut q = start;
                for _ in 0..STEP_SYMBOLS {
                    // Mostly follow the target, now and then step off it.
                    let enabled: Vec<usize> = match q {
                        Some(q) => (0..2).filter(|&s| !target.succ[q][s].is_empty()).collect(),
                        None => Vec::new(),
                    };
                    let s = if !enabled.is_empty() && !rng.chance(0.004) {
                        enabled[rng.below(enabled.len())]
                    } else {
                        rng.below(2)
                    };
                    symbols.push(s);
                    q = q.and_then(|q| target.succ[q][s].first().copied());
                }
                let (verdicts, end) = run_monitor(target, &lives[t], start, &symbols);
                session.state = end;
                verdicts
            }
        };
        let target_name = match session.target {
            Some(t) => format!("t{t}"),
            None => "gfa".to_string(),
        };
        let mut body = format!(
            "\"verb\":\"monitor-step\",\"monitor\":\"s{i}\",\"target\":\"{target_name}\",\"symbols\":["
        );
        for (j, &s) in symbols.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let _ = write!(body, "\"{}\"", crate::model::SYMBOLS[s]);
        }
        body.push(']');
        if reset {
            body.push_str(",\"reset\":true");
        }
        lines.make(&body, Expect::Step(verdicts))
    };

    // Warm-up: the first step of every session creates it.
    let warmup: Vec<Request> = (0..SESSIONS)
        .map(|i| step(rng, &mut lines, i, &mut sessions))
        .collect();

    let mut stream = Vec::with_capacity(per_connection);
    let mut edits = Vec::new();
    let mut last_edited = 0usize;
    for _ in 0..per_connection {
        let roll = rng.below(100);
        let request = if roll < 85 {
            let i = rng.below(SESSIONS);
            step(rng, &mut lines, i, &mut sessions)
        } else if roll < 93 {
            let m = rng.below(FAMILY);
            let old = family[m];
            let mut next = automata.list[old].clone();
            let mut block = edit_block(rng, &mut next);
            for _ in 0..16 {
                if !seen[m].contains(&next) {
                    break;
                }
                next = automata.list[old].clone();
                block = edit_block(rng, &mut next);
            }
            seen[m].insert(next.clone());
            let new = automata.intern(&next);
            edits.push((old, new, block));
            family[m] = new;
            last_edited = m;
            lines.define_hoa(&format!("f{m}"), &next)
        } else if roll < 95 {
            lines.make(
                &format!("\"verb\":\"decompose\",\"target\":\"f{last_edited}\""),
                Expect::Decompose {
                    target: family[last_edited],
                    name: format!("f{last_edited}"),
                },
            )
        } else {
            let other = (last_edited + 1 + rng.below(FAMILY - 1)) % FAMILY;
            lines.binary(
                "include",
                (&format!("f{last_edited}"), &format!("f{other}")),
                (family[last_edited], family[other]),
            )
        };
        stream.push(request);
    }
    Plan {
        workload: Workload::MonitorJournal,
        automata: automata.list,
        setup,
        warmup,
        streams: vec![stream],
        edits,
    }
}
