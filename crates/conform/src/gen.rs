//! Seed-deterministic case generators, one per oracle.
//!
//! Everything is driven by a caller-supplied [`SplitMix`] stream (the
//! runner derives one per (seed, oracle, case index) via
//! [`sl_support::prop::case_rng`]), so a single case replays in
//! isolation from its coordinates alone.

use crate::case::{
    Case, CrashCase, Factor, HoaCase, Incl3Case, InclCase, LatticeCase, MonitorCase, PdrCase,
    SessionCase,
};
use sl_buchi::{hoa, random_buchi, random_nondeterministic, Buchi, RandomConfig};
use sl_ltl::Ltl;
use sl_omega::Alphabet;
use sl_support::SplitMix;

/// Upper bound on generated automaton sizes. Small enough that the
/// rank-based complement (2^(n) · ranks state space) stays fast in the
/// thousands-of-cases regime, large enough to exercise subsumption.
const MAX_STATES: usize = 4;

/// Upper bound on generated lattice sizes; theorem checks are O(n²)
/// per element, so this caps a case at ~64k comparisons.
const MAX_LATTICE: usize = 40;

/// Draws a random alphabet of 2 or 3 symbols.
fn gen_alphabet(rng: &mut SplitMix) -> Alphabet {
    if rng.flip() {
        Alphabet::ab()
    } else {
        Alphabet::new(&["a", "b", "c"])
    }
}

/// Draws a random automaton over `alphabet` with at most `max_states`
/// states.
pub fn gen_buchi(rng: &mut SplitMix, alphabet: &Alphabet, max_states: usize) -> Buchi {
    let config = RandomConfig {
        states: 1 + rng.below(max_states),
        density_percent: 40 + rng.below(81) as u32,
        accepting_percent: 20 + rng.below(61) as u32,
    };
    random_buchi(alphabet, rng.next_u64(), config)
}

/// Upper bound on nondeterministic right operands: the rank oracle's
/// complement of a random 4-state one can take seconds.
const MAX_NONDETERMINISTIC: usize = 3;

/// Draws a right operand for the inclusion oracles: half the time
/// [`gen_buchi`]'s deterministic kind, which the product check answers,
/// half the time one of at most [`MAX_NONDETERMINISTIC`] states with
/// one or two successors per (state, symbol) pair, which reaches the
/// antichain search.
fn gen_right(rng: &mut SplitMix, alphabet: &Alphabet, max_states: usize) -> Buchi {
    if rng.flip() {
        return gen_buchi(rng, alphabet, max_states);
    }
    let states = 1 + rng.below(max_states.min(MAX_NONDETERMINISTIC));
    let density = 100 + rng.below(101) as u32;
    let accepting = 20 + rng.below(61) as u32;
    random_nondeterministic(alphabet, rng.next_u64(), states, density, accepting)
}

/// Draws a random LTL formula over `alphabet` with nesting depth at
/// most `depth`.
pub fn gen_ltl(rng: &mut SplitMix, alphabet: &Alphabet, depth: usize) -> Ltl {
    let ap = |rng: &mut SplitMix| {
        let idx = rng.below(alphabet.len());
        let sym = alphabet.symbols().nth(idx).expect("in range");
        Ltl::ap(sym)
    };
    if depth == 0 || rng.percent() < 30 {
        return ap(rng);
    }
    match rng.below(8) {
        0 => Ltl::not(gen_ltl(rng, alphabet, depth - 1)),
        1 => Ltl::and(
            gen_ltl(rng, alphabet, depth - 1),
            gen_ltl(rng, alphabet, depth - 1),
        ),
        2 => Ltl::or(
            gen_ltl(rng, alphabet, depth - 1),
            gen_ltl(rng, alphabet, depth - 1),
        ),
        3 => Ltl::next(gen_ltl(rng, alphabet, depth - 1)),
        4 => Ltl::finally(gen_ltl(rng, alphabet, depth - 1)),
        5 => Ltl::globally(gen_ltl(rng, alphabet, depth - 1)),
        6 => Ltl::until(
            gen_ltl(rng, alphabet, depth - 1),
            gen_ltl(rng, alphabet, depth - 1),
        ),
        _ => Ltl::release(
            gen_ltl(rng, alphabet, depth - 1),
            gen_ltl(rng, alphabet, depth - 1),
        ),
    }
}

/// Inclusion-oracle case: two automata over a shared alphabet, with a
/// step budget one case in four.
pub fn gen_incl(rng: &mut SplitMix) -> InclCase {
    let alphabet = gen_alphabet(rng);
    let left = gen_buchi(rng, &alphabet, MAX_STATES);
    // Half the time derive the right side from the left (small edits
    // make near-inclusions, the interesting regime for subsumption);
    // otherwise independent, and then nondeterministic half the time.
    // (A union addend stays deterministic: a union with a
    // nondeterministic one can cost the rank oracle a minute.)
    let right = if rng.flip() {
        let mut b = gen_buchi(rng, &alphabet, MAX_STATES);
        if rng.flip() {
            b = sl_buchi::union(&left, &b);
        }
        b
    } else {
        gen_right(rng, &alphabet, MAX_STATES)
    };
    let budget = if rng.percent() < 25 {
        Some(1 + rng.next_u64() % 50_000)
    } else {
        None
    };
    InclCase {
        left: hoa::to_hoa(&left, "left"),
        right: hoa::to_hoa(&right, "right"),
        budget,
    }
}

/// Two-engine inclusion case: bigger automata than [`gen_incl`] (the
/// on-the-fly antichain engine is polynomial per macro
/// state, and the rank oracle skips itself via its complement budget
/// when a pair is out of reach), plus a seeded mutation sequence for
/// the incremental-vs-scratch quotient differential.
pub fn gen_incl3(rng: &mut SplitMix) -> Incl3Case {
    let alphabet = gen_alphabet(rng);
    let left = gen_buchi(rng, &alphabet, MAX_STATES + 2);
    // Same derived-right bias as `gen_incl`: near-inclusions are the
    // interesting regime for subsumption and lazy expansion. The union
    // addend stays small — the antichain product is exponential in the
    // right side's state count, and a 15-state union turns one case
    // into a minute-long search.
    let right = if rng.flip() {
        if rng.flip() {
            sl_buchi::union(&left, &gen_buchi(rng, &alphabet, 2))
        } else {
            gen_buchi(rng, &alphabet, MAX_STATES + 2)
        }
    } else {
        gen_buchi(rng, &alphabet, MAX_STATES + 2)
    };
    let steps = 1 + rng.below(8) as u32;
    // Seed kept within u32 range so the i64-backed JSON codec
    // round-trips it exactly.
    let seed = rng.next_u64() >> 32;
    let budget = if rng.percent() < 25 {
        Some(1 + rng.next_u64() % 50_000)
    } else {
        None
    };
    Incl3Case {
        left: hoa::to_hoa(&left, "left"),
        right: hoa::to_hoa(&right, "right"),
        steps,
        seed,
        budget,
    }
}

/// Lattice-oracle case: a product of modular complemented factors
/// capped at [`MAX_LATTICE`] elements, plus random fixpoint bases.
pub fn gen_lattice(rng: &mut SplitMix) -> LatticeCase {
    let mut factors = Vec::new();
    let mut size = 1usize;
    let count = 1 + rng.below(3);
    for _ in 0..count {
        let factor = match rng.below(4) {
            0 => Factor::Boolean(1),
            1 => Factor::Boolean(2),
            2 => Factor::Boolean(3),
            _ => Factor::M3,
        };
        if size * factor.len() > MAX_LATTICE {
            continue;
        }
        size *= factor.len();
        factors.push(factor);
    }
    if factors.is_empty() {
        factors.push(Factor::Boolean(2));
        size = 4;
    }
    let fix2 = (0..rng.below(4)).map(|_| rng.below(size)).collect();
    let extra1 = (0..rng.below(3)).map(|_| rng.below(size)).collect();
    LatticeCase {
        factors,
        fix2,
        extra1,
    }
}

/// HOA-oracle case: a well-formed document half the time, a mutated
/// one otherwise (dropped/duplicated/swapped lines, corrupted bytes,
/// truncations — the parser must stay total and stable on all of it).
pub fn gen_hoa(rng: &mut SplitMix) -> HoaCase {
    let alphabet = gen_alphabet(rng);
    let b = gen_buchi(rng, &alphabet, MAX_STATES + 2);
    let mut text = hoa::to_hoa(&b, "fuzz");
    if rng.flip() {
        let mutations = 1 + rng.below(3);
        for _ in 0..mutations {
            text = mutate_text(rng, &text);
        }
    }
    HoaCase { text }
}

/// One random structural or byte-level mutation of a document.
fn mutate_text(rng: &mut SplitMix, text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return "Garbage: 1".to_string();
    }
    match rng.below(6) {
        // Drop a line.
        0 => {
            let i = rng.below(lines.len());
            let mut out: Vec<&str> = lines.clone();
            out.remove(i);
            out.join("\n")
        }
        // Duplicate a line.
        1 => {
            let i = rng.below(lines.len());
            let mut out: Vec<&str> = lines.clone();
            out.insert(i, lines[i]);
            out.join("\n")
        }
        // Swap two lines.
        2 => {
            let i = rng.below(lines.len());
            let j = rng.below(lines.len());
            let mut out: Vec<&str> = lines.clone();
            out.swap(i, j);
            out.join("\n")
        }
        // Replace one byte with a random printable character.
        3 => {
            let bytes: Vec<char> = text.chars().collect();
            if bytes.is_empty() {
                return text.to_string();
            }
            let i = rng.below(bytes.len());
            let replacement = (b' ' + rng.below(95) as u8) as char;
            bytes
                .iter()
                .enumerate()
                .map(|(j, &c)| if j == i { replacement } else { c })
                .collect()
        }
        // Truncate at a random character boundary.
        4 => {
            let chars: Vec<char> = text.chars().collect();
            let keep = rng.below(chars.len() + 1);
            chars[..keep].iter().collect()
        }
        // Insert an unknown header line.
        _ => {
            let i = rng.below(lines.len() + 1);
            let mut out: Vec<&str> = lines.clone();
            out.insert(i, "x-fuzz: 1 2 3");
            out.join("\n")
        }
    }
}

/// Monitor-oracle case: a policy automaton and a short trace, with an
/// out-of-alphabet name (`zz`) mixed in one symbol in ten and a step
/// budget one case in four.
pub fn gen_monitor(rng: &mut SplitMix) -> MonitorCase {
    let alphabet = gen_alphabet(rng);
    let policy = gen_buchi(rng, &alphabet, MAX_STATES + 1);
    let names: Vec<String> = alphabet
        .symbols()
        .map(|s| alphabet.name(s).to_string())
        .collect();
    let len = rng.below(13);
    let trace = (0..len)
        .map(|_| {
            if rng.percent() < 10 {
                "zz".to_string()
            } else {
                names[rng.below(names.len())].clone()
            }
        })
        .collect();
    let budget = if rng.percent() < 25 {
        Some(1 + rng.next_u64() % 32)
    } else {
        None
    };
    MonitorCase {
        policy: hoa::to_hoa(&policy, "policy"),
        trace,
        budget,
    }
}

/// Compiled-oracle case: same shape as a monitor case, but judged by
/// the three-way compiled/subset/NFA-set differential. Traces run a
/// little longer (the dense table is a per-step artifact, so longer
/// prefixes probe more of it) and allow slightly bigger policies so
/// minimization has something to merge.
pub fn gen_compiled(rng: &mut SplitMix) -> MonitorCase {
    let alphabet = gen_alphabet(rng);
    let policy = gen_buchi(rng, &alphabet, MAX_STATES + 2);
    let names: Vec<String> = alphabet
        .symbols()
        .map(|s| alphabet.name(s).to_string())
        .collect();
    let len = rng.below(21);
    let trace = (0..len)
        .map(|_| {
            if rng.percent() < 10 {
                "zz".to_string()
            } else {
                names[rng.below(names.len())].clone()
            }
        })
        .collect();
    let budget = if rng.percent() < 25 {
        Some(1 + rng.next_u64() % 32)
    } else {
        None
    };
    MonitorCase {
        policy: hoa::to_hoa(&policy, "policy"),
        trace,
        budget,
    }
}

/// Session-oracle case: a JSON-lines daemon session with 2–3 defines
/// (LTL or HOA source) and 3–8 queries, including deliberate unknown
/// names, malformed lines, tight budgets, and batches. The `stats`
/// verb is excluded: its reply legitimately differs between cache
/// configurations, which is exactly what this oracle diffs.
pub fn gen_session(rng: &mut SplitMix) -> SessionCase {
    let alphabet = Alphabet::ab();
    let alphabet_json = "[\"a\",\"b\"]";
    let mut lines = Vec::new();
    let mut id = 0u64;
    let mut next_id = |lines: &mut Vec<String>, body: String| {
        id += 1;
        lines.push(format!("{{\"id\":{id},{body}}}"));
    };
    let defines = 2 + rng.below(2);
    let names: Vec<String> = (0..defines).map(|i| format!("p{i}")).collect();
    for name in &names {
        if rng.flip() {
            let formula = gen_ltl(rng, &alphabet, 3);
            let text = escape(&formula.display(&alphabet));
            next_id(
                &mut lines,
                format!(
                    "\"verb\":\"define\",\"name\":\"{name}\",\"ltl\":\"{text}\",\"alphabet\":{alphabet_json}"
                ),
            );
        } else {
            let b = gen_buchi(rng, &alphabet, MAX_STATES);
            let text = escape(&sl_buchi::hoa::to_hoa(&b, name));
            next_id(
                &mut lines,
                format!("\"verb\":\"define\",\"name\":\"{name}\",\"hoa\":\"{text}\""),
            );
        }
    }
    let pick = |rng: &mut SplitMix| -> String {
        if rng.percent() < 8 {
            "ghost".to_string() // deliberately undefined
        } else {
            names[rng.below(names.len())].clone()
        }
    };
    let queries = 3 + rng.below(6);
    for _ in 0..queries {
        let budget = if rng.percent() < 30 {
            format!(",\"budget\":{{\"steps\":{}}}", 1 + rng.next_u64() % 5_000)
        } else {
            String::new()
        };
        match rng.below(8) {
            0 => next_id(
                &mut lines,
                format!("\"verb\":\"classify\",\"target\":\"{}\"{budget}", pick(rng)),
            ),
            1 => next_id(
                &mut lines,
                format!(
                    "\"verb\":\"universal\",\"target\":\"{}\"{budget}",
                    pick(rng)
                ),
            ),
            2 => next_id(
                &mut lines,
                format!(
                    "\"verb\":\"include\",\"left\":\"{}\",\"right\":\"{}\"{budget}",
                    pick(rng),
                    pick(rng)
                ),
            ),
            3 => next_id(
                &mut lines,
                format!(
                    "\"verb\":\"equivalent\",\"left\":\"{}\",\"right\":\"{}\"{budget}",
                    pick(rng),
                    pick(rng)
                ),
            ),
            4 => next_id(
                &mut lines,
                format!(
                    "\"verb\":\"decompose\",\"target\":\"{}\"{budget}",
                    pick(rng)
                ),
            ),
            5 => {
                let symbols: Vec<String> = (0..1 + rng.below(4))
                    .map(|_| {
                        if rng.percent() < 10 {
                            "\"zz\"".to_string()
                        } else if rng.flip() {
                            "\"a\"".to_string()
                        } else {
                            "\"b\"".to_string()
                        }
                    })
                    .collect();
                next_id(
                    &mut lines,
                    format!(
                        "\"verb\":\"monitor-step\",\"monitor\":\"m0\",\"target\":\"{}\",\"symbols\":[{}]{budget}",
                        pick(rng),
                        symbols.join(",")
                    ),
                );
            }
            6 => {
                let items: Vec<String> = (0..2 + rng.below(2))
                    .map(|_| format!("{{\"verb\":\"classify\",\"target\":\"{}\"}}", pick(rng)))
                    .collect();
                next_id(
                    &mut lines,
                    format!("\"verb\":\"batch\",\"items\":[{}]{budget}", items.join(",")),
                );
            }
            _ => {
                if rng.percent() < 20 {
                    lines.push("{not json".to_string()); // parse-error path
                } else {
                    next_id(
                        &mut lines,
                        format!("\"verb\":\"classify\",\"target\":\"{}\"{budget}", pick(rng)),
                    );
                }
            }
        }
    }
    SessionCase { lines }
}

/// Crash-oracle case: a session heavy on the *journaled* verbs
/// (`define`, `decompose`, `monitor-step`) so the drill gets record
/// boundaries to kill at, interleaved with queries whose responses the
/// recovered daemon must reproduce byte-for-byte. `stats` is excluded
/// (persistence metrics legitimately differ between a crashed-and-
/// recovered daemon and its uninterrupted twin), as are `quit` and
/// `shutdown` (the drill manages lifecycle itself). Budgets are
/// omitted: the drill's contract is byte-identity, no degradation
/// excuse. The snapshot interval is drawn small enough that rotations
/// land inside the generated sessions.
///
/// Some cases are **multi-client**: `k > 1` independent sessions over
/// namespaced targets (`c{j}_p0`, monitors `c{j}_m0`) interleaved
/// round-robin, line `i` belonging to client `i mod k` — the shape a
/// concurrent daemon's journal takes when several connections mutate
/// state at once. Every client contributes the same number of lines so
/// the positional assignment is total.
pub fn gen_crash(rng: &mut SplitMix) -> CrashCase {
    let clients = [1, 1, 1, 1, 2, 2, 3][rng.below(7)];
    // Multi-client sessions are kept shorter per client: the drill is
    // O(records²) in the *interleaved* length.
    let defines = 1 + rng.below(2);
    let ops = if clients == 1 {
        3 + rng.below(6)
    } else {
        2 + rng.below(3)
    };
    let sessions: Vec<Vec<String>> = (0..clients)
        .map(|j| {
            let ns = if clients == 1 {
                String::new()
            } else {
                format!("c{j}_")
            };
            gen_crash_session(rng, &ns, defines, ops)
        })
        .collect();
    let per_client = defines + ops;
    let mut lines = Vec::with_capacity(clients * per_client);
    for round in 0..per_client {
        for session in &sessions {
            lines.push(session[round].clone());
        }
    }
    let snapshot_every = [0u64, 1, 2, 3, 5, 8][rng.below(6)];
    CrashCase {
        lines,
        snapshot_every,
        clients: clients as u32,
    }
}

/// One client's crash-drill sub-session: `defines` definitions then
/// `ops` operations (exactly one line each), every target and monitor
/// name prefixed with `ns` so concurrent clients never share state.
fn gen_crash_session(rng: &mut SplitMix, ns: &str, defines: usize, ops: usize) -> Vec<String> {
    let alphabet = Alphabet::ab();
    let alphabet_json = "[\"a\",\"b\"]";
    let mut lines = Vec::new();
    let mut id = 0u64;
    let mut next_id = |lines: &mut Vec<String>, body: String| {
        id += 1;
        lines.push(format!("{{\"id\":{id},{body}}}"));
    };
    let names: Vec<String> = (0..defines).map(|i| format!("{ns}p{i}")).collect();
    for name in &names {
        if rng.flip() {
            let formula = gen_ltl(rng, &alphabet, 3);
            let text = escape(&formula.display(&alphabet));
            next_id(
                &mut lines,
                format!(
                    "\"verb\":\"define\",\"name\":\"{name}\",\"ltl\":\"{text}\",\"alphabet\":{alphabet_json}"
                ),
            );
        } else {
            let b = gen_buchi(rng, &alphabet, MAX_STATES);
            let text = escape(&sl_buchi::hoa::to_hoa(&b, name));
            next_id(
                &mut lines,
                format!("\"verb\":\"define\",\"name\":\"{name}\",\"hoa\":\"{text}\""),
            );
        }
    }
    let pick = |rng: &mut SplitMix| -> String {
        if rng.percent() < 8 {
            format!("{ns}ghost") // deliberately undefined
        } else {
            names[rng.below(names.len())].clone()
        }
    };
    for _ in 0..ops {
        match rng.below(8) {
            // Journaled verbs dominate: record boundaries are kill
            // points, so sessions need plenty of them.
            0 | 1 | 2 => {
                let symbols: Vec<String> = (0..1 + rng.below(4))
                    .map(|_| {
                        if rng.percent() < 10 {
                            "\"zz\"".to_string()
                        } else if rng.flip() {
                            "\"a\"".to_string()
                        } else {
                            "\"b\"".to_string()
                        }
                    })
                    .collect();
                let monitor = format!("{ns}m{}", rng.below(3));
                next_id(
                    &mut lines,
                    format!(
                        "\"verb\":\"monitor-step\",\"monitor\":\"{monitor}\",\"target\":\"{}\",\"symbols\":[{}]",
                        pick(rng),
                        symbols.join(",")
                    ),
                );
            }
            3 => next_id(
                &mut lines,
                format!("\"verb\":\"decompose\",\"target\":\"{}\"", pick(rng)),
            ),
            4 => {
                // Redefinition mid-session: live monitor sessions keep
                // their original automaton, and recovery must too.
                let name = names[rng.below(names.len())].clone();
                let b = gen_buchi(rng, &alphabet, MAX_STATES);
                let text = escape(&sl_buchi::hoa::to_hoa(&b, &name));
                next_id(
                    &mut lines,
                    format!("\"verb\":\"define\",\"name\":\"{name}\",\"hoa\":\"{text}\""),
                );
            }
            5 => next_id(
                &mut lines,
                format!("\"verb\":\"classify\",\"target\":\"{}\"", pick(rng)),
            ),
            6 => next_id(
                &mut lines,
                format!(
                    "\"verb\":\"include\",\"left\":\"{}\",\"right\":\"{}\"",
                    pick(rng),
                    pick(rng)
                ),
            ),
            _ => {
                if rng.percent() < 20 {
                    lines.push("{not json".to_string()); // never journaled
                } else {
                    next_id(
                        &mut lines,
                        format!("\"verb\":\"universal\",\"target\":\"{}\"", pick(rng)),
                    );
                }
            }
        }
    }
    lines
}

/// PDR-oracle case: a small total Kripke structure (every state keeps
/// at least one successor), a bad set drawn one state in four, the
/// property flavour by coin flip, and a tight step budget one case in
/// five so the budget-exhaustion path stays exercised. Sizes stay
/// small because the differential reference (exact BFS / lasso search)
/// and the oracle's certificate replay are both run per case.
pub fn gen_pdr(rng: &mut SplitMix) -> PdrCase {
    let n = 1 + rng.below(8);
    let succ: Vec<Vec<usize>> = (0..n)
        .map(|_| {
            let outs = 1 + rng.below(3);
            (0..outs).map(|_| rng.below(n)).collect()
        })
        .collect();
    let initial = rng.below(n);
    let bad: Vec<usize> = (0..n).filter(|_| rng.percent() < 25).collect();
    let liveness = rng.flip();
    let budget = if rng.percent() < 20 {
        Some(1 + rng.next_u64() % 200)
    } else {
        None
    };
    PdrCase {
        succ,
        initial,
        bad,
        liveness,
        budget,
    }
}

/// Minimal JSON string escaping for embedding generated text in
/// hand-rendered request lines.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Generates the case for `oracle` from the stream.
///
/// # Panics
///
/// Panics on an unknown oracle name (the CLI validates first).
#[must_use]
pub fn gen_case(oracle: &str, rng: &mut SplitMix) -> Case {
    match oracle {
        "incl" => Case::Incl(gen_incl(rng)),
        "incl3" => Case::Incl3(gen_incl3(rng)),
        "lattice" => Case::Lattice(gen_lattice(rng)),
        "hoa" => Case::Hoa(gen_hoa(rng)),
        "monitor" => Case::Monitor(gen_monitor(rng)),
        "compiled" => Case::Compiled(gen_compiled(rng)),
        "session" => Case::Session(gen_session(rng)),
        "crash" => Case::Crash(gen_crash(rng)),
        "pdr" => Case::Pdr(gen_pdr(rng)),
        other => panic!("unknown oracle `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_support::prop::case_rng;

    #[test]
    fn generators_are_deterministic_in_the_stream() {
        for oracle in crate::oracles::ORACLES {
            for case in 0..8u32 {
                let a = gen_case(oracle, &mut case_rng(11, oracle, case));
                let b = gen_case(oracle, &mut case_rng(11, oracle, case));
                assert_eq!(a, b, "oracle {oracle} case {case}");
            }
        }
    }

    #[test]
    fn generated_cases_survive_the_codec() {
        for oracle in crate::oracles::ORACLES {
            for case in 0..8u32 {
                let c = gen_case(oracle, &mut case_rng(23, oracle, case));
                let back = Case::from_line(&c.to_line()).expect("codec");
                assert_eq!(back, c);
            }
        }
    }

    #[test]
    fn generated_ltl_reparses() {
        let alphabet = Alphabet::ab();
        let mut rng = SplitMix::new(5);
        for _ in 0..50 {
            let f = gen_ltl(&mut rng, &alphabet, 3);
            let text = f.display(&alphabet);
            let back = sl_ltl::parse(&alphabet, &text).expect("display reparses");
            assert_eq!(back, f, "{text}");
        }
    }
}
