//! The conformance case model and its JSON-lines codec.
//!
//! Every fuzz input is a self-contained [`Case`]: the corpus file
//! (`scripts/conform_corpus.jsonl`) stores one case per line as a JSON
//! object whose `"oracle"` field names the oracle that must accept it.
//! Automata travel as HOA text, lattices as a generating *recipe*
//! (factor list plus fixpoint bases) — recipes, unlike raw cover
//! relations, shrink gracefully and can never encode an invalid
//! lattice.

use sl_lattice::{generators, ops, Closure, FiniteLattice};
use sl_service::Json;

/// A lattice factor in a [`LatticeCase`] recipe. Every factor is
/// modular and complemented, and both properties are preserved by
/// finite products, so every recipe builds a lattice satisfying the
/// paper's Theorem 2/3 hypotheses by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factor {
    /// The Boolean lattice with `atoms` atoms (2^atoms elements).
    Boolean(u8),
    /// The diamond M3 (5 elements): modular and complemented but not
    /// distributive — the Figure 2 shape.
    M3,
}

impl Factor {
    /// Number of elements the factor contributes multiplicatively.
    #[must_use]
    pub fn len(self) -> usize {
        match self {
            Factor::Boolean(atoms) => 1usize << atoms,
            Factor::M3 => 5,
        }
    }

    /// The corpus name of the factor.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            Factor::Boolean(atoms) => format!("b{atoms}"),
            Factor::M3 => "m3".to_string(),
        }
    }

    /// Parses a corpus factor name (`b1`..`b3`, `m3`).
    pub fn parse(name: &str) -> Result<Factor, String> {
        match name {
            "m3" => Ok(Factor::M3),
            _ => match name.strip_prefix('b').and_then(|d| d.parse::<u8>().ok()) {
                Some(atoms @ 1..=3) => Ok(Factor::Boolean(atoms)),
                _ => Err(format!("unknown lattice factor `{name}`")),
            },
        }
    }

    fn build(self) -> FiniteLattice {
        match self {
            Factor::Boolean(atoms) => generators::boolean(atoms as usize),
            Factor::M3 => generators::m3(),
        }
    }
}

/// Inclusion-oracle case: two automata (HOA text) and an optional step
/// budget for the budgeted-run check.
#[derive(Debug, Clone, PartialEq)]
pub struct InclCase {
    /// HOA text of the left automaton (`L(left) ⊆ L(right)?`).
    pub left: String,
    /// HOA text of the right automaton.
    pub right: String,
    /// Step budget for the budgeted variant, if any.
    pub budget: Option<u64>,
}

/// Two-engine inclusion case (oracle `incl3`): two automata plus a
/// seeded mutation sequence for the incremental-vs-scratch quotient
/// differential. `steps` edits of the left automaton are drawn from
/// `seed`, and after every edit the incrementally advanced interned
/// quotient must be bit-identical to a from-scratch computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Incl3Case {
    /// HOA text of the left automaton (`L(left) ⊆ L(right)?`).
    pub left: String,
    /// HOA text of the right automaton.
    pub right: String,
    /// Number of seeded mutations in the incremental differential.
    pub steps: u32,
    /// Seed for the mutation stream (kept within `u32` range so the
    /// JSON codec round-trips it exactly).
    pub seed: u64,
    /// Step budget for a budgeted on-the-fly run, if any.
    pub budget: Option<u64>,
}

/// Lattice-oracle case: the recipe for a modular complemented lattice
/// and a closure pair `cl1 <= cl2`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeCase {
    /// Product factors, leftmost outermost. Must be nonempty.
    pub factors: Vec<Factor>,
    /// Generating elements for cl2's fixpoint base (interpreted modulo
    /// the lattice size, so shrinking factors never invalidates them).
    pub fix2: Vec<usize>,
    /// Extra generating elements added to cl1's base on top of cl2's —
    /// more fixpoints make cl1 pointwise smaller, so `cl1 <= cl2` holds
    /// by construction.
    pub extra1: Vec<usize>,
}

impl LatticeCase {
    /// Builds the lattice and the closure pair from the recipe.
    ///
    /// # Panics
    ///
    /// Panics if the recipe has no factors (the codec rejects that).
    #[must_use]
    pub fn build(&self) -> (FiniteLattice, Closure, Closure) {
        assert!(!self.factors.is_empty(), "recipe needs at least one factor");
        let mut lattice = self.factors[0].build();
        for factor in &self.factors[1..] {
            lattice = ops::product(&lattice, &factor.build());
        }
        let n = lattice.len();
        let mut base2: Vec<usize> = self.fix2.iter().map(|&e| e % n).collect();
        base2.push(lattice.top());
        let base2 = meet_close(&lattice, base2);
        let cl2 = Closure::from_fixpoints(&lattice, &base2)
            .expect("meet-closed base with top is a valid closure");
        let mut base1 = base2;
        base1.extend(self.extra1.iter().map(|&e| e % n));
        let base1 = meet_close(&lattice, base1);
        let cl1 = Closure::from_fixpoints(&lattice, &base1)
            .expect("meet-closed base with top is a valid closure");
        (lattice, cl1, cl2)
    }

    /// Number of elements of the generated lattice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.factors.iter().map(|f| f.len()).product()
    }

    /// Whether the recipe is empty (it never is for valid cases).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }
}

/// Closes a set of elements under binary meets (fixpoint iteration).
fn meet_close(lattice: &FiniteLattice, mut base: Vec<usize>) -> Vec<usize> {
    base.sort_unstable();
    base.dedup();
    loop {
        let mut grew = false;
        let snapshot = base.clone();
        for &s in &snapshot {
            for &t in &snapshot {
                let m = lattice.meet(s, t);
                if !base.contains(&m) {
                    base.push(m);
                    grew = true;
                }
            }
        }
        if !grew {
            base.sort_unstable();
            return base;
        }
        base.sort_unstable();
        base.dedup();
    }
}

/// HOA-oracle case: arbitrary (possibly mutated) HOA text.
#[derive(Debug, Clone, PartialEq)]
pub struct HoaCase {
    /// The document under test. When it parses, `to_hoa ∘ from_hoa`
    /// must be idempotent; whether or not it parses, diagnostics must
    /// be stable and the parser must never panic.
    pub text: String,
}

/// Monitor-oracle case: a policy automaton, a finite trace of symbol
/// names (names outside the policy alphabet probe the sticky Unknown
/// path), and an optional step budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorCase {
    /// HOA text of the policy automaton.
    pub policy: String,
    /// The trace, as symbol names.
    pub trace: Vec<String>,
    /// Step budget for a budgeted `run` of the monitors, if any.
    pub budget: Option<u64>,
}

/// Session-oracle case: a JSON-lines daemon session replayed against
/// multiple service configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCase {
    /// The request lines, in order.
    pub lines: Vec<String>,
}

/// PDR-oracle case: a small total Kripke structure (successor lists
/// plus an initial state), a bad-state set, and the property flavour.
/// Safety cases differentially check LT-PDR against exact BFS
/// reachability; liveness cases check the k-liveness sweep against a
/// direct lasso search. Certificates (invariants, traces, lassos) are
/// replayed by independent code in the oracle itself.
#[derive(Debug, Clone, PartialEq)]
pub struct PdrCase {
    /// Successor lists, one per state. Every list must be nonempty
    /// (total transition relation) and every index in range.
    pub succ: Vec<Vec<usize>>,
    /// The initial state index.
    pub initial: usize,
    /// Bad state indices (interpreted modulo the state count by the
    /// oracle, so shrinking states never invalidates them).
    pub bad: Vec<usize>,
    /// `false` checks `AG !bad`, `true` checks `FG !bad`.
    pub liveness: bool,
    /// Step budget for the engine, if any (budget exhaustion is an
    /// accepted outcome, not a failure).
    pub budget: Option<u64>,
}

/// Crash-oracle case: a JSON-lines daemon session driven through the
/// deterministic crash drill — the persistent daemon is killed at
/// every journal record boundary (and mid-record, via truncation) and
/// the recovered daemon's remaining responses are diffed byte-for-byte
/// against an uninterrupted twin.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashCase {
    /// The request lines, in order. For `clients > 1` this is the
    /// *interleaved* view of several concurrent sessions: line `i`
    /// belongs to client `i mod clients` (round-robin), and each
    /// client's sub-session touches only its own namespaced targets
    /// and monitors.
    pub lines: Vec<String>,
    /// Journal records between automatic snapshots (0 = none), so the
    /// drill crosses snapshot rotations as well as plain appends.
    pub snapshot_every: u64,
    /// How many concurrent clients the lines interleave (1 = the
    /// classic single-session drill; omitted from the corpus encoding
    /// when 1). Beyond the crash drill on the interleaved journal,
    /// multi-client cases also check transcript independence: each
    /// client's replies must be byte-identical to a solo run.
    pub clients: u32,
}

/// One conformance case, tagged with the oracle that judges it.
#[derive(Debug, Clone, PartialEq)]
pub enum Case {
    /// On-the-fly-vs-rank differential (oracle `incl`).
    Incl(InclCase),
    /// On-the-fly-vs-rank differential on bigger pairs (rank only up to
    /// 4 states, short-lasso cross-checks beyond) with an
    /// incremental-vs-scratch quotient drill (oracle `incl3`).
    Incl3(Incl3Case),
    /// Theorems 2/3/5/6/7 on a generated lattice (oracle `lattice`).
    Lattice(LatticeCase),
    /// HOA round-trip and diagnostic stability (oracle `hoa`).
    Hoa(HoaCase),
    /// Monitor-vs-offline-classification differential (oracle
    /// `monitor`).
    Monitor(MonitorCase),
    /// Compiled dense-table monitor vs `Monitor` vs NFA-set reference,
    /// verdict-for-verdict, plus minimization correctness (oracle
    /// `compiled`). Same shape as a monitor case.
    Compiled(MonitorCase),
    /// Daemon replay equivalence (oracle `session`).
    Session(SessionCase),
    /// Crash-recovery equivalence: kill-at-every-record-boundary drill
    /// against the persistence layer (oracle `crash`).
    Crash(CrashCase),
    /// LT-PDR vs exact BFS / lasso-search differential with certificate
    /// replay (oracle `pdr`).
    Pdr(PdrCase),
}

impl Case {
    /// The oracle name used in corpus entries and CLI flags.
    #[must_use]
    pub fn oracle(&self) -> &'static str {
        match self {
            Case::Incl(_) => "incl",
            Case::Incl3(_) => "incl3",
            Case::Lattice(_) => "lattice",
            Case::Hoa(_) => "hoa",
            Case::Monitor(_) => "monitor",
            Case::Compiled(_) => "compiled",
            Case::Session(_) => "session",
            Case::Crash(_) => "crash",
            Case::Pdr(_) => "pdr",
        }
    }

    /// Serializes the case as one corpus JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Case::Incl(c) => {
                let mut pairs = vec![
                    ("oracle", Json::Str("incl".into())),
                    ("left", Json::Str(c.left.clone())),
                    ("right", Json::Str(c.right.clone())),
                ];
                if let Some(steps) = c.budget {
                    pairs.push(("budget", Json::Int(steps as i64)));
                }
                Json::obj(pairs)
            }
            Case::Incl3(c) => {
                let mut pairs = vec![
                    ("oracle", Json::Str("incl3".into())),
                    ("left", Json::Str(c.left.clone())),
                    ("right", Json::Str(c.right.clone())),
                    ("steps", Json::Int(i64::from(c.steps))),
                    ("seed", Json::Int(c.seed as i64)),
                ];
                if let Some(steps) = c.budget {
                    pairs.push(("budget", Json::Int(steps as i64)));
                }
                Json::obj(pairs)
            }
            Case::Lattice(c) => Json::obj(vec![
                ("oracle", Json::Str("lattice".into())),
                (
                    "factors",
                    Json::Arr(c.factors.iter().map(|f| Json::Str(f.name())).collect()),
                ),
                (
                    "fix2",
                    Json::Arr(c.fix2.iter().map(|&e| Json::Int(e as i64)).collect()),
                ),
                (
                    "extra1",
                    Json::Arr(c.extra1.iter().map(|&e| Json::Int(e as i64)).collect()),
                ),
            ]),
            Case::Hoa(c) => Json::obj(vec![
                ("oracle", Json::Str("hoa".into())),
                ("text", Json::Str(c.text.clone())),
            ]),
            Case::Monitor(c) | Case::Compiled(c) => {
                let mut pairs = vec![
                    ("oracle", Json::Str(self.oracle().into())),
                    ("policy", Json::Str(c.policy.clone())),
                    (
                        "trace",
                        Json::Arr(c.trace.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                ];
                if let Some(steps) = c.budget {
                    pairs.push(("budget", Json::Int(steps as i64)));
                }
                Json::obj(pairs)
            }
            Case::Session(c) => Json::obj(vec![
                ("oracle", Json::Str("session".into())),
                (
                    "lines",
                    Json::Arr(c.lines.iter().map(|l| Json::Str(l.clone())).collect()),
                ),
            ]),
            Case::Crash(c) => {
                let mut pairs = vec![
                    ("oracle", Json::Str("crash".into())),
                    (
                        "lines",
                        Json::Arr(c.lines.iter().map(|l| Json::Str(l.clone())).collect()),
                    ),
                    ("snapshot_every", Json::Int(c.snapshot_every as i64)),
                ];
                if c.clients > 1 {
                    pairs.push(("clients", Json::Int(i64::from(c.clients))));
                }
                Json::obj(pairs)
            }
            Case::Pdr(c) => {
                let row = |outs: &Vec<usize>| {
                    Json::Arr(outs.iter().map(|&t| Json::Int(t as i64)).collect())
                };
                let mut pairs = vec![
                    ("oracle", Json::Str("pdr".into())),
                    ("succ", Json::Arr(c.succ.iter().map(row).collect())),
                    ("initial", Json::Int(c.initial as i64)),
                    (
                        "bad",
                        Json::Arr(c.bad.iter().map(|&b| Json::Int(b as i64)).collect()),
                    ),
                    ("liveness", Json::Bool(c.liveness)),
                ];
                if let Some(steps) = c.budget {
                    pairs.push(("budget", Json::Int(steps as i64)));
                }
                Json::obj(pairs)
            }
        }
    }

    /// Renders the case as one corpus line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_json().render()
    }

    /// Parses a corpus line back into a case.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (unknown
    /// oracle, missing field, wrong type, empty recipe).
    pub fn from_line(line: &str) -> Result<Case, String> {
        let doc = sl_service::json::parse(line)?;
        Self::from_json(&doc)
    }

    /// Parses a corpus JSON object back into a case.
    ///
    /// # Errors
    ///
    /// See [`Case::from_line`].
    pub fn from_json(doc: &Json) -> Result<Case, String> {
        let oracle = doc
            .get("oracle")
            .and_then(Json::as_str)
            .ok_or("missing string field `oracle`")?;
        let text_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field `{key}`"))
        };
        let list_field = |key: &str| -> Result<Vec<String>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing array field `{key}`"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or(format!("non-string in `{key}`"))
                })
                .collect()
        };
        let nums_field = |key: &str| -> Result<Vec<usize>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing array field `{key}`"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as usize)
                        .ok_or(format!("non-integer in `{key}`"))
                })
                .collect()
        };
        let budget = doc.get("budget").and_then(Json::as_u64);
        match oracle {
            "incl" => Ok(Case::Incl(InclCase {
                left: text_field("left")?,
                right: text_field("right")?,
                budget,
            })),
            "incl3" => Ok(Case::Incl3(Incl3Case {
                left: text_field("left")?,
                right: text_field("right")?,
                steps: doc
                    .get("steps")
                    .and_then(Json::as_u64)
                    .ok_or("missing integer field `steps`")? as u32,
                seed: doc
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("missing integer field `seed`")?,
                budget,
            })),
            "lattice" => {
                let factors = list_field("factors")?
                    .iter()
                    .map(|name| Factor::parse(name))
                    .collect::<Result<Vec<Factor>, String>>()?;
                if factors.is_empty() {
                    return Err("lattice recipe needs at least one factor".into());
                }
                Ok(Case::Lattice(LatticeCase {
                    factors,
                    fix2: nums_field("fix2")?,
                    extra1: nums_field("extra1")?,
                }))
            }
            "hoa" => Ok(Case::Hoa(HoaCase {
                text: text_field("text")?,
            })),
            "monitor" => Ok(Case::Monitor(MonitorCase {
                policy: text_field("policy")?,
                trace: list_field("trace")?,
                budget,
            })),
            "compiled" => Ok(Case::Compiled(MonitorCase {
                policy: text_field("policy")?,
                trace: list_field("trace")?,
                budget,
            })),
            "session" => Ok(Case::Session(SessionCase {
                lines: list_field("lines")?,
            })),
            "crash" => Ok(Case::Crash(CrashCase {
                lines: list_field("lines")?,
                snapshot_every: doc
                    .get("snapshot_every")
                    .and_then(Json::as_u64)
                    .ok_or("missing integer field `snapshot_every`")?,
                clients: match doc.get("clients") {
                    None => 1,
                    Some(v) => match v.as_u64() {
                        Some(n @ 1..) => n as u32,
                        _ => return Err("`clients` must be a positive integer".into()),
                    },
                },
            })),
            "pdr" => {
                let succ = doc
                    .get("succ")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field `succ`")?
                    .iter()
                    .map(|row| {
                        row.as_arr()
                            .ok_or("non-array row in `succ`".to_string())?
                            .iter()
                            .map(|v| {
                                v.as_u64()
                                    .map(|n| n as usize)
                                    .ok_or("non-integer in `succ`".to_string())
                            })
                            .collect::<Result<Vec<usize>, String>>()
                    })
                    .collect::<Result<Vec<Vec<usize>>, String>>()?;
                if succ.is_empty() {
                    return Err("`succ` needs at least one state".into());
                }
                Ok(Case::Pdr(PdrCase {
                    succ,
                    initial: doc
                        .get("initial")
                        .and_then(Json::as_u64)
                        .ok_or("missing integer field `initial`")?
                        as usize,
                    bad: nums_field("bad")?,
                    liveness: doc
                        .get("liveness")
                        .and_then(Json::as_bool)
                        .ok_or("missing boolean field `liveness`")?,
                    budget,
                }))
            }
            other => Err(format!("unknown oracle `{other}`")),
        }
    }

    /// A rough size for reporting and shrink-bound checks: automaton
    /// states, lattice elements, trace/session length.
    #[must_use]
    pub fn weight(&self) -> usize {
        let states = |hoa: &str| crate::oracles::parse_states(hoa);
        match self {
            Case::Incl(c) => states(&c.left) + states(&c.right),
            Case::Incl3(c) => states(&c.left) + states(&c.right) + c.steps as usize,
            Case::Lattice(c) => c.len(),
            Case::Hoa(c) => c.text.lines().count(),
            Case::Monitor(c) | Case::Compiled(c) => states(&c.policy) + c.trace.len(),
            Case::Session(c) => c.lines.len(),
            Case::Crash(c) => c.lines.len(),
            Case::Pdr(c) => c.succ.len() + c.succ.iter().map(Vec::len).sum::<usize>() + c.bad.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_variant() {
        let cases = vec![
            Case::Incl(InclCase {
                left: "HOA: v1\nStates: 1\n".into(),
                right: "HOA: v1\nStates: 2\n".into(),
                budget: Some(77),
            }),
            Case::Incl3(Incl3Case {
                left: "HOA: v1\nStates: 3\n".into(),
                right: "HOA: v1\nStates: 2\n".into(),
                steps: 5,
                seed: 0x00ab_cdef,
                budget: Some(123),
            }),
            Case::Incl3(Incl3Case {
                left: "HOA: v1\nStates: 1\n".into(),
                right: "HOA: v1\nStates: 1\n".into(),
                steps: 0,
                seed: 0,
                budget: None,
            }),
            Case::Lattice(LatticeCase {
                factors: vec![Factor::Boolean(2), Factor::M3],
                fix2: vec![0, 3],
                extra1: vec![7],
            }),
            Case::Hoa(HoaCase {
                text: "not hoa at \"all\"\nline 2".into(),
            }),
            Case::Monitor(MonitorCase {
                policy: "HOA: v1\n".into(),
                trace: vec!["a".into(), "zz".into()],
                budget: None,
            }),
            Case::Compiled(MonitorCase {
                policy: "HOA: v1\n".into(),
                trace: vec!["b".into(), "zz".into(), "a".into()],
                budget: Some(9),
            }),
            Case::Session(SessionCase {
                lines: vec!["{\"id\":1,\"verb\":\"stats\"}".into()],
            }),
            Case::Crash(CrashCase {
                lines: vec!["{\"id\":1,\"verb\":\"classify\",\"target\":\"p0\"}".into()],
                snapshot_every: 3,
                clients: 1,
            }),
            Case::Crash(CrashCase {
                lines: vec![
                    "{\"id\":1,\"verb\":\"classify\",\"target\":\"c0_p0\"}".into(),
                    "{\"id\":1,\"verb\":\"classify\",\"target\":\"c1_p0\"}".into(),
                ],
                snapshot_every: 0,
                clients: 2,
            }),
            Case::Pdr(PdrCase {
                succ: vec![vec![1, 2], vec![0], vec![2]],
                initial: 0,
                bad: vec![2],
                liveness: true,
                budget: Some(44),
            }),
            Case::Pdr(PdrCase {
                succ: vec![vec![0]],
                initial: 0,
                bad: vec![],
                liveness: false,
                budget: None,
            }),
        ];
        for case in cases {
            let line = case.to_line();
            let back = Case::from_line(&line).expect("round trip");
            assert_eq!(back, case, "line: {line}");
            assert_eq!(back.to_line(), line, "renders are canonical");
        }
    }

    #[test]
    fn recipe_builds_ordered_closure_pair() {
        let case = LatticeCase {
            factors: vec![Factor::Boolean(2), Factor::M3],
            fix2: vec![3, 11],
            extra1: vec![5],
        };
        let (lattice, cl1, cl2) = case.build();
        assert_eq!(lattice.len(), 20);
        assert!(lattice.is_modular());
        assert!(lattice.is_complemented());
        assert!(
            cl1.pointwise_leq(&lattice, &cl2),
            "cl1 <= cl2 by construction"
        );
    }

    #[test]
    fn factor_names_round_trip() {
        for factor in [Factor::Boolean(1), Factor::Boolean(3), Factor::M3] {
            assert_eq!(Factor::parse(&factor.name()), Ok(factor));
        }
        assert!(Factor::parse("b9").is_err());
        assert!(Factor::parse("n5").is_err());
    }

    #[test]
    fn codec_rejects_malformed_lines() {
        assert!(Case::from_line("{oops").is_err());
        assert!(Case::from_line("{\"oracle\":\"nope\"}").is_err());
        assert!(Case::from_line("{\"oracle\":\"incl\",\"left\":\"x\"}").is_err());
        assert!(
            Case::from_line("{\"oracle\":\"incl3\",\"left\":\"x\",\"right\":\"y\",\"seed\":1}")
                .is_err(),
            "incl3 without a step count is rejected"
        );
        assert!(
            Case::from_line("{\"oracle\":\"lattice\",\"factors\":[],\"fix2\":[],\"extra1\":[]}")
                .is_err(),
            "empty recipes are rejected"
        );
        assert!(
            Case::from_line(
                "{\"oracle\":\"crash\",\"lines\":[\"x\"],\"snapshot_every\":0,\"clients\":0}"
            )
            .is_err(),
            "zero clients is rejected"
        );
        assert!(
            Case::from_line(
                "{\"oracle\":\"pdr\",\"succ\":[],\"initial\":0,\"bad\":[],\"liveness\":false}"
            )
            .is_err(),
            "empty state set is rejected"
        );
    }
}
